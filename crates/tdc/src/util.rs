//! Box–Muller jitter: the exact draw, and a certified bracket of it.
//!
//! Capture uses the jitter only through comparisons that are monotone in
//! it, so a bracket `lo ≤ box_muller(u1, u2) ≤ hi` read from two small
//! tables decides most samples exactly; only a sample whose decision the
//! bracket straddles pays for `ln` and `cos`.

use std::f64::consts::TAU;
use std::sync::OnceLock;

use rand::Rng;

/// Standard-normal sample via Box–Muller.
#[cfg(test)]
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = gaussian_uniforms(rng);
    box_muller(u1, u2)
}

/// The two uniforms a Box–Muller draw consumes: `u1` is redrawn until it
/// exceeds `f64::MIN_POSITIVE`, so its logarithm is finite.
pub fn gaussian_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (u1, u2);
    }
}

/// The exact Box–Muller transform of two uniforms.
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    radius(u1) * angle_cos(u2)
}

fn radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

fn angle_cos(u2: f64) -> f64 {
    (TAU * u2).cos()
}

/// Mantissa bits below the binade that index a radius cell.
const RADIUS_CELL_BITS: u32 = 5;
/// Binades of `u1` the radius table covers: `[2⁻²⁴, 1)`.
const RADIUS_BINADES: usize = 24;
/// Cells of `u2 ∈ [0, 1)`; the extrema of `cos(τ·u2)` at 0, ½ and 1 fall
/// on cell boundaries, so it is monotone inside every cell.
const ANGLE_CELLS: usize = 512;

/// Per-cell `[lo, hi]` bounds of the radius and of the cosine.
struct BracketTables {
    radius: Vec<(f64, f64)>,
    cos: Vec<(f64, f64)>,
}

/// Both endpoint values of a cell, ordered and widened outward by far
/// more than libm's error, so the bracket holds even where `ln`, `sqrt`
/// or `cos` is not monotone to the last bit.
fn widened(a: f64, b: f64) -> (f64, f64) {
    let slack = |v: f64| v.abs() * 1e-12 + 1e-15;
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    (lo - slack(lo), hi + slack(hi))
}

fn tables() -> &'static BracketTables {
    static TABLES: OnceLock<BracketTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let cells_per_binade = 1usize << RADIUS_CELL_BITS;
        let radius = (0..RADIUS_BINADES * cells_per_binade)
            .map(|i| {
                let binade = 2f64.powi((i / cells_per_binade) as i32 - RADIUS_BINADES as i32);
                let step = binade / cells_per_binade as f64;
                let start = binade + (i % cells_per_binade) as f64 * step;
                widened(radius(start), radius(start + step))
            })
            .collect();
        let cos = (0..ANGLE_CELLS)
            .map(|k| {
                let cell = |k: usize| k as f64 / ANGLE_CELLS as f64;
                widened(angle_cos(cell(k)), angle_cos(cell(k + 1)))
            })
            .collect();
        BracketTables { radius, cos }
    })
}

/// Bounds `lo ≤ box_muller(u1, u2) ≤ hi` from the tables, or `None` where
/// they do not reach: `u1` outside `[2⁻²⁴, 1)` or `u2` outside `[0, 1)`.
#[inline]
pub fn box_muller_bracket(u1: f64, u2: f64) -> Option<(f64, f64)> {
    if !(0.0..1.0).contains(&u2) {
        return None;
    }
    let bits = u1.to_bits();
    // Biased exponent of 2⁻²⁴ is 1023 − 24; `u1 < 1` keeps it below 1023.
    let binade = ((bits >> 52) as usize).checked_sub(1023 - RADIUS_BINADES)?;
    if binade >= RADIUS_BINADES {
        return None;
    }
    let top = (bits >> (52 - RADIUS_CELL_BITS)) as usize & ((1 << RADIUS_CELL_BITS) - 1);
    let tables = tables();
    let (r_lo, r_hi) = tables.radius[(binade << RADIUS_CELL_BITS) | top];
    // `u2 · 512` is exact, so the floor is the cell `u2` lies in.
    let (c_lo, c_hi) = tables.cos[(u2 * ANGLE_CELLS as f64) as usize];
    // Rounded multiplication is monotone in each factor, so the extreme
    // corner products bound the rounded product of any interior pair.
    let corners = [r_lo * c_lo, r_lo * c_hi, r_hi * c_lo, r_hi * c_hi];
    let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn gaussian_has_unit_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    fn assert_brackets(u1: f64, u2: f64) {
        let exact = box_muller(u1, u2);
        if let Some((lo, hi)) = box_muller_bracket(u1, u2) {
            assert!(
                lo <= exact && exact <= hi,
                "u1 {u1:e} u2 {u2:e}: {exact:e} outside [{lo:e}, {hi:e}]"
            );
        } else {
            assert!(u1 < 2f64.powi(-24), "u1 {u1:e} must be bracketed");
        }
    }

    /// `v` and its neighbours up to two ULPs away, kept inside `[0, 1)`.
    fn around(v: f64) -> Vec<f64> {
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut out = vec![v];
        if v > 0.0 {
            out.extend([down(v), down(down(v))]);
        }
        out.extend([up(v), up(up(v))]);
        out.retain(|&x| x < 1.0);
        out
    }

    #[test]
    fn bracket_holds_at_every_cell_boundary() {
        let special_u2 = [0.0, 0.25, 0.5, 0.75, 1.0 - f64::EPSILON / 2.0];
        let u2_edges: Vec<f64> = (0..=ANGLE_CELLS)
            .flat_map(|k| around(k as f64 / ANGLE_CELLS as f64))
            .chain(special_u2)
            .collect();
        let cells_per_binade = 1 << RADIUS_CELL_BITS;
        let u1_edges: Vec<f64> = (0..=RADIUS_BINADES * cells_per_binade)
            .flat_map(|i| {
                let binade = 2f64.powi((i / cells_per_binade) as i32 - RADIUS_BINADES as i32);
                around(binade * (1.0 + (i % cells_per_binade) as f64 / cells_per_binade as f64))
            })
            .chain(around(2f64.powi(-24)))
            .chain([f64::MIN_POSITIVE * 2.0, 1e-300, 1.0 - f64::EPSILON / 2.0])
            .collect();
        for &u1 in &u1_edges {
            for &u2 in &special_u2 {
                assert_brackets(u1, u2);
            }
        }
        for &u2 in &u2_edges {
            for &u1 in [0.5, 0.1, 1e-3, 2f64.powi(-24), 1.0 - f64::EPSILON / 2.0].iter() {
                assert_brackets(u1, u2);
            }
        }
        assert!(box_muller_bracket(2f64.powi(-24), 0.3).is_some());
        assert!(box_muller_bracket(f64::from_bits(2f64.powi(-24).to_bits() - 1), 0.3).is_none());
        for outside in [1.0, -0.25, f64::NAN] {
            assert!(box_muller_bracket(0.5, outside).is_none());
            assert!(box_muller_bracket(outside, 0.5).is_none());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The bracket contains the exact draw for uniforms from the
        /// generator's own grid and from anywhere in `(0, 1)`.
        #[test]
        fn bracket_contains_exact_draw(
            u1 in prop_oneof![
                (1u64..(1 << 53)).prop_map(|x| x as f64 / (1u64 << 53) as f64),
                1e-12f64..1.0,
            ],
            u2 in prop_oneof![
                (0u64..(1 << 53)).prop_map(|x| x as f64 / (1u64 << 53) as f64),
                0.0f64..1.0,
            ],
        ) {
            let exact = box_muller(u1, u2);
            let (lo, hi) = box_muller_bracket(u1, u2)
                .unwrap_or((exact, exact));
            prop_assert!(lo <= exact && exact <= hi, "{} outside [{}, {}]", exact, lo, hi);
        }
    }
}
