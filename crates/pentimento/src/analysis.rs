//! Statistical analysis: kernel smoothing and least squares.
//!
//! The paper smooths every time series in Figures 6–8 with the kernel
//! regression from Python's `statsmodels` ("continuous mode with a local
//! linear estimator"). [`smooth_local_linear`] reimplements that
//! estimator with a Gaussian kernel; [`ols_slope`] provides the slope
//! estimates the bit classifiers use.

use crate::PentimentoError;

/// Gaussian-kernel local-linear regression of `y` on `x`, evaluated at
/// every sample position.
///
/// Each output is the intercept at `x[i]` of a straight line fitted to
/// every sample, weighted by `exp(−½·((x_j − x[i]) / bandwidth)²)`. A
/// local-linear fit stays unbiased at the boundaries, which matters for
/// the first and last hours of the paper's plots. Where the weighted x
/// spread vanishes (a collapsed grid, or a bandwidth far below the
/// sample spacing) the fit falls back to the locally constant
/// kernel-weighted mean.
///
/// # Errors
///
/// Returns [`PentimentoError::InvalidConfig`] when the inputs are empty
/// or mismatched, or the bandwidth is not positive and finite.
///
/// # Example
///
/// ```
/// use pentimento::analysis::smooth_local_linear;
///
/// let x: Vec<f64> = (0..100).map(f64::from).collect();
/// let y: Vec<f64> = x.iter().map(|v| 0.1 * v + ((v * 17.0).sin())).collect();
/// let smooth = smooth_local_linear(&x, &y, 5.0)?;
/// // Smoothing recovers the trend within the noise amplitude.
/// assert!((smooth[50] - 5.0).abs() < 1.0);
/// # Ok::<(), pentimento::PentimentoError>(())
/// ```
pub fn smooth_local_linear(
    x: &[f64],
    y: &[f64],
    bandwidth: f64,
) -> Result<Vec<f64>, PentimentoError> {
    if x.is_empty() || x.len() != y.len() {
        return Err(PentimentoError::InvalidConfig(
            "kernel regression needs equal-length, non-empty x and y".to_owned(),
        ));
    }
    if bandwidth.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !bandwidth.is_finite() {
        return Err(PentimentoError::InvalidConfig(
            "kernel bandwidth must be positive".to_owned(),
        ));
    }
    Ok(x.iter()
        .map(|&x0| local_linear_at(x, y, bandwidth, x0))
        .collect())
}

/// The kernel-weighted straight-line fit at `x0` over every sample.
fn local_linear_at(x: &[f64], y: &[f64], bandwidth: f64, x0: f64) -> f64 {
    let mut s0 = 0.0; // Σ w
    let mut s1 = 0.0; // Σ w·dx
    let mut s2 = 0.0; // Σ w·dx²
    let mut t0 = 0.0; // Σ w·y
    let mut t1 = 0.0; // Σ w·dx·y
    for (&xi, &yi) in x.iter().zip(y) {
        let dx = xi - x0;
        let u = dx / bandwidth;
        let w = (-0.5 * u * u).exp();
        s0 += w;
        s1 += w * dx;
        s2 += w * dx * dx;
        t0 += w * yi;
        t1 += w * dx * yi;
    }
    let det = s0 * s2 - s1 * s1;
    if det.abs() < 1e-12 {
        t0 / s0
    } else {
        // Intercept of the weighted linear fit at dx = 0.
        (s2 * t0 - s1 * t1) / det
    }
}

/// Ordinary-least-squares slope of `y` against `x`, in y-units per x-unit.
///
/// Returns 0.0 for fewer than two points or degenerate x.
#[must_use]
pub fn ols_slope(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = x[..n].iter().sum::<f64>() / nf;
    let my = y[..n].iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (xi, yi) in x[..n].iter().zip(&y[..n]) {
        let dx = xi - mx;
        sxx += dx * dx;
        sxy += dx * (yi - my);
    }
    if sxx <= 0.0 {
        return 0.0;
    }
    sxy / sxx
}

/// Mean of a slice (0.0 when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Population standard deviation of a slice (0.0 when fewer than two).
#[must_use]
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / values.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_recovers_exact_lines() {
        let x: Vec<f64> = (0..50).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        assert!((ols_slope(&x, &y) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ols_degenerate_inputs() {
        assert_eq!(ols_slope(&[], &[]), 0.0);
        assert_eq!(ols_slope(&[1.0], &[2.0]), 0.0);
        assert_eq!(ols_slope(&[2.0, 2.0], &[1.0, 5.0]), 0.0);
    }

    #[test]
    fn smoothing_averages_out_alternating_noise() {
        let x: Vec<f64> = (0..200).map(f64::from).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| {
                if (v as u64).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let smooth = smooth_local_linear(&x, &y, 10.0).unwrap();
        assert!(smooth[100].abs() < 0.05);
    }

    #[test]
    fn locally_linear_is_unbiased_at_boundaries() {
        // A kernel-weighted mean flattens at both ends of a ramp; the
        // local-linear fit follows it to the last sample.
        let x: Vec<f64> = (0..100).map(f64::from).collect();
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let smooth = smooth_local_linear(&x, &y, 10.0).unwrap();
        assert!(smooth[0].abs() < 1e-6);
        assert!((smooth[99] - 198.0).abs() < 1e-6);
    }

    #[test]
    fn smooth_returns_one_value_per_sample() {
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 1.0, 4.0];
        assert_eq!(smooth_local_linear(&x, &y, 1.0).unwrap().len(), 3);
    }

    #[test]
    fn collapsed_grid_falls_back_to_the_weighted_mean() {
        // Every sample at one hour: no x spread to fit a slope against.
        let x = [5.0; 8];
        let y = [1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(smooth_local_linear(&x, &y, 1e-9).unwrap(), vec![2.5; 8]);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(smooth_local_linear(&[], &[], 1.0).is_err());
        assert!(smooth_local_linear(&[1.0], &[1.0, 2.0], 1.0).is_err());
        for bandwidth in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(smooth_local_linear(&[1.0], &[1.0], bandwidth).is_err());
        }
    }

    #[test]
    fn mean_and_sd_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
