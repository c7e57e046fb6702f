//! Process-level crash durability of the fleet checkpoint store.
//!
//! A child process commits checkpoint generations, leaves a torn
//! generation and a half-written `.tmp` behind, and is SIGKILLed. A
//! fresh supervisor in this process then recovers the campaign from the
//! disk and the spec alone, and must finish bit-identically to the
//! unsupervised reference run.
//!
//! The test binary re-executes itself as the child: with
//! [`CHILD_ROOT_ENV`] set to a store root, `crash_child` plays the dying
//! process; without it, `crash_child` returns at once.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use cloud::{Provider, ProviderConfig};
use fleet::{CampaignSpec, ChaosPlan, CheckpointStore, FleetConfig, Supervisor};
use pentimento::threat_model1::ThreatModel1Config;
use pentimento::{Campaign, CampaignConfig, MeasurementMode, Mission};

/// Store root handed to the child; its presence selects the child role.
const CHILD_ROOT_ENV: &str = "PENTIMENTO_CRASH_CHILD_ROOT";

fn campaign() -> Campaign {
    let tm1 = ThreatModel1Config {
        route_lengths_ps: vec![600.0],
        routes_per_length: 4,
        burn_hours: 20,
        measure_every: 4,
        mode: MeasurementMode::Oracle,
        seed: 40,
        measurement_repeats: 1,
    };
    Campaign::new(
        Provider::new(ProviderConfig::aws_f1_like(2, 40)),
        Mission::ThreatModel1(tm1),
        CampaignConfig::default(),
    )
    .expect("campaign builds")
}

/// The child role: commit generations 0–2 every 4 h, die mid-commit of
/// generation 3 after tearing generation 2, report `ready`, and wait to
/// be killed (the sleep is bounded so an orphan still exits).
#[test]
fn crash_child() {
    let Some(root) = std::env::var_os(CHILD_ROOT_ENV) else {
        return;
    };
    let store = CheckpointStore::open(PathBuf::from(root)).expect("store opens");
    let mut live = campaign();
    for generation in 0..3u64 {
        store
            .commit("c0", generation, &live.checkpoint())
            .expect("commit succeeds");
        for _ in 0..4 {
            live.step().expect("step succeeds");
        }
    }
    store
        .interrupt_commit("c0", 3, &live.checkpoint())
        .expect("partial tmp lands");
    store.truncate("c0", 2, 0.5).expect("tear generation 2");
    println!("ready");
    std::thread::sleep(Duration::from_secs(60));
}

/// Kills and reaps the child on every exit path, so a failing assertion
/// cannot leave it running.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A per-process store root, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn sigkilled_child_recovers_bit_identically_in_a_fresh_process() {
    let scratch =
        Scratch(std::env::temp_dir().join(format!("crash-durability-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&scratch.0);

    let mut child = Reaped(
        Command::new(std::env::current_exe().expect("test binary path"))
            .args(["crash_child", "--exact", "--nocapture"])
            .env(CHILD_ROOT_ENV, &scratch.0)
            .stdout(Stdio::piped())
            .spawn()
            .expect("child spawns"),
    );
    let stdout = child.0.stdout.take().expect("piped stdout");
    // libtest prints `test crash_child ... ` on the line the child's
    // `ready` completes.
    let ready = BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
        .any(|line| line.ends_with("ready"));
    assert!(ready, "child exited before reporting ready");
    child.0.kill().expect("SIGKILL the child");
    let status = child.0.wait().expect("reap the child");
    assert!(!status.success(), "the child must die by the kill");

    // The fresh incarnation shares only the disk and the spec.
    let mut supervisor = Supervisor::new(&scratch.0, FleetConfig::default()).expect("store opens");
    let spec = CampaignSpec {
        id: "c0".to_owned(),
        campaign: campaign(),
    };
    let report = supervisor.run(vec![spec], ChaosPlan::none());
    let reference = campaign().run().expect("reference run completes");

    assert_eq!(report.completed(), 1, "{:?}", report.results[0].1.error());
    assert!(
        report.rollbacks >= 1,
        "the torn generation 2 is rolled past"
    );
    let outcome = report.results[0].1.outcome().expect("completed");
    assert_eq!(outcome.series, reference.series);
    assert_eq!(outcome.recovered, reference.recovered);
}
