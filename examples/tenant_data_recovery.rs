//! Threat Model 2 end-to-end: recover a previous tenant's 64-bit runtime
//! value from a scrubbed cloud FPGA, with device reacquisition via a
//! flash attack and fingerprint verification.
//!
//! Run with: `cargo run --release --example tenant_data_recovery`

use bti_physics::LogicLevel;
use cloud::{Provider, ProviderConfig, TenantId};
use pentimento::threat_model2::{self, ThreatModel2Config};
use pentimento::{DeviceFingerprint, MeasurementMode, RouteGroupSpec, Skeleton};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut provider = Provider::new(ProviderConfig::aws_f1_like(6, 31415));

    // The victim computes 200 h with a 64-bit secret on long routes, then
    // leaves; the attacker flash-rents the freed device and watches
    // 25 hours of BTI recovery.
    let config = ThreatModel2Config {
        route_lengths_ps: vec![5_000.0, 10_000.0],
        routes_per_length: 32,
        victim_hours: 200,
        attack_hours: 25,
        condition_level: LogicLevel::Zero,
        mode: MeasurementMode::Tdc,
        seed: 31415,
        measurement_repeats: 8,
        victim_hold_and_recover_hours: 0,
    };

    // The attacker pre-fingerprints the fleet in a short reconnaissance
    // rental (Assumption 2 infrastructure; Tian et al.-style): the silicon
    // delays of the attack's own skeleton routes identify each die.
    println!("reconnaissance: fingerprinting the region's devices...");
    let specs: Vec<RouteGroupSpec> = config
        .route_lengths_ps
        .iter()
        .map(|&target_ps| RouteGroupSpec {
            target_ps,
            count: config.routes_per_length,
        })
        .collect();
    let recon = provider.rent_all(TenantId::new("attacker"))?;
    for session in &recon {
        let device = provider.device(session)?;
        let skeleton = Skeleton::place(device, &specs)?;
        let digest = DeviceFingerprint::capture(device, &skeleton).digest();
        println!("  {} -> fp-{digest:016x}", session.device_id());
    }
    for session in recon {
        provider.release(session)?;
    }

    println!("\nvictim computes 200 h (unobserved), releases; provider scrubs;");
    println!("attacker flash-rents the freed board and measures 25 h of recovery...");
    let outcome = threat_model2::run(&mut provider, &config)?;
    assert!(outcome.reacquired_victim_device);

    let as_bits = |v: &[LogicLevel]| -> String {
        v.iter()
            .map(|b| if b.as_bool() { '1' } else { '0' })
            .collect()
    };
    println!("\nvictim secret: {}", as_bits(&outcome.truth));
    println!("recovered:     {}", as_bits(&outcome.recovered));
    println!(
        "accuracy: {:.1}% over {} bits (d' = {:.2})",
        outcome.metrics.accuracy * 100.0,
        outcome.metrics.bits,
        outcome.metrics.dprime
    );
    assert!(
        outcome.metrics.accuracy > 0.8,
        "long-route Type B data should be mostly recoverable"
    );
    println!("\nthe provider's scrub removed every digital bit — and it did not matter.");
    Ok(())
}
