//! Property-based tests of the BTI physics invariants.

use bti_physics::{AgingArena, BtiModel, Celsius, DutyCycle, Hours, LogicLevel, Polarity};
use proptest::prelude::*;

/// A fresh one-wire arena (slot 0).
fn wire(model: &BtiModel) -> AgingArena {
    let mut arena = AgingArena::new(model);
    arena.ensure(0);
    arena
}

fn level(arena: &AgingArena, polarity: Polarity) -> f64 {
    arena.view_at(0).level(polarity)
}

/// The weighted occupancy of a polarity's never-emitting bins.
fn permanent_level(model: &BtiModel, arena: &AgingArena, polarity: Polarity) -> f64 {
    model
        .fresh_bins(polarity)
        .iter()
        .zip(arena.view_at(0).occupancy(polarity))
        .filter(|(b, _)| b.is_permanent())
        .map(|(b, o)| b.weight * o)
        .sum()
}

fn duty() -> impl Strategy<Value = DutyCycle> {
    (0.0f64..=1.0).prop_map(|f| DutyCycle::new(f).expect("in range"))
}

fn temp() -> impl Strategy<Value = Celsius> {
    (0.0f64..110.0).prop_map(Celsius::new)
}

fn dt() -> impl Strategy<Value = Hours> {
    (0.0f64..500.0).prop_map(Hours::new)
}

proptest! {
    /// Trap levels always stay inside [0, 1] no matter the stress history.
    #[test]
    fn levels_bounded(steps in proptest::collection::vec((dt(), duty(), temp()), 1..20)) {
        let model = BtiModel::ultrascale_plus();
        let mut arena = wire(&model);
        for (d, duty, t) in steps {
            arena.advance_slot(0, &model, d, duty, t);
            for polarity in Polarity::ALL {
                let level = level(&arena, polarity);
                prop_assert!((0.0..=1.0).contains(&level), "level = {level}");
            }
        }
    }

    /// Under pure stress, a polarity's level never decreases.
    #[test]
    fn pure_stress_is_monotone(durations in proptest::collection::vec(0.1f64..50.0, 1..20)) {
        let model = BtiModel::ultrascale_plus();
        let mut arena = wire(&model);
        let t = model.reference_temperature();
        let mut previous = 0.0;
        for d in durations {
            arena.advance_slot(0, &model, Hours::new(d), DutyCycle::ALWAYS_ONE, t);
            prop_assert!(level(&arena, Polarity::Pbti) >= previous - 1e-12);
            previous = level(&arena, Polarity::Pbti);
        }
    }

    /// Under pure recovery, a polarity's level never increases, and never
    /// drops below its permanent component.
    #[test]
    fn pure_recovery_is_monotone(
        burn in 1.0f64..400.0,
        durations in proptest::collection::vec(0.1f64..50.0, 1..20),
    ) {
        let model = BtiModel::ultrascale_plus();
        let mut arena = wire(&model);
        let t = model.reference_temperature();
        arena.advance_slot(0, &model, Hours::new(burn), DutyCycle::ALWAYS_ZERO, t);
        let mut previous = level(&arena, Polarity::Nbti);
        for d in durations {
            arena.advance_slot(0, &model, Hours::new(d), DutyCycle::ALWAYS_ONE, t);
            let now = level(&arena, Polarity::Nbti);
            prop_assert!(now <= previous + 1e-12);
            prop_assert!(now >= permanent_level(&model, &arena, Polarity::Nbti) - 1e-12);
            previous = now;
        }
    }

    /// Aging in two half-steps equals aging in one full step (the kinetics
    /// are a time-homogeneous linear ODE per bin).
    #[test]
    fn advance_is_compositional(total in 0.1f64..300.0, frac in 0.01f64..0.99, d in duty(), t in temp()) {
        let model = BtiModel::ultrascale_plus();
        let mut one_shot = wire(&model);
        let mut split = wire(&model);
        one_shot.advance_slot(0, &model, Hours::new(total), d, t);
        split.advance_slot(0, &model, Hours::new(total * frac), d, t);
        split.advance_slot(0, &model, Hours::new(total * (1.0 - frac)), d, t);
        for polarity in Polarity::ALL {
            let a = level(&one_shot, polarity);
            let b = level(&split, polarity);
            prop_assert!((a - b).abs() < 1e-9, "{polarity}: {a} vs {b}");
        }
    }

    /// Hotter stress never produces less damage.
    #[test]
    fn temperature_monotonicity(hours in 1.0f64..300.0, t_lo in 10.0f64..50.0, bump in 1.0f64..50.0) {
        let model = BtiModel::ultrascale_plus();
        let mut cool = wire(&model);
        let mut hot = wire(&model);
        let one = LogicLevel::One.duty();
        cool.advance_slot(0, &model, Hours::new(hours), one, Celsius::new(t_lo));
        hot.advance_slot(0, &model, Hours::new(hours), one, Celsius::new(t_lo + bump));
        prop_assert!(level(&hot, Polarity::Pbti) >= level(&cool, Polarity::Pbti) - 1e-12);
    }

    /// Δps sign always identifies the statically held burn value.
    #[test]
    fn delta_sign_identifies_burn_value(hours in 5.0f64..400.0, bit in any::<bool>()) {
        let model = BtiModel::ultrascale_plus();
        let mut arena = wire(&model);
        let duty = LogicLevel::from_bool(bit).duty();
        arena.advance_slot(0, &model, Hours::new(hours), duty, Celsius::new(60.0));
        let delta = arena.view_at(0).delta_ps_scaled(&model, 10_000.0, 1.0);
        prop_assert_eq!(delta > 0.0, bit, "Δps = {} for bit {}", delta, bit);
    }

    /// Longer routes always show proportionally larger imprints.
    #[test]
    fn imprint_scales_with_route_length(hours in 1.0f64..300.0, len in 100.0f64..20_000.0) {
        let model = BtiModel::ultrascale_plus();
        let mut arena = wire(&model);
        let one = LogicLevel::One.duty();
        arena.advance_slot(0, &model, Hours::new(hours), one, Celsius::new(60.0));
        let d1 = arena.view_at(0).delta_ps_scaled(&model, len, 1.0);
        let d2 = arena.view_at(0).delta_ps_scaled(&model, 2.0 * len, 1.0);
        prop_assert!((d2 - 2.0 * d1).abs() < 1e-9);
    }

    /// CET weights remain normalized through arbitrary log-spaced configs.
    #[test]
    fn log_spaced_weights_normalized(
        n in 1usize..30,
        c_lo in 0.1f64..10.0,
        c_span in 1.0f64..1000.0,
        e_lo in 0.1f64..10.0,
        e_span in 1.0f64..1000.0,
        perm in 0.0f64..0.9,
    ) {
        let mut params = *BtiModel::ultrascale_plus().nbti();
        params.bin_count = n;
        params.tau_capture_range = (c_lo, c_lo * c_span);
        params.tau_emission_range = (e_lo, e_lo * e_span);
        params.permanent_fraction = perm;
        let model = BtiModel::builder().nbti(params).build().expect("valid config");
        let total: f64 = model.fresh_bins(Polarity::Nbti).iter().map(|b| b.weight).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
