//! Closed-form estimates of `NQ_k` on the special graph families the paper
//! analyses (Section 3.3, Theorems 15–17 and Appendix B), used by the
//! Appendix-B reproduction benchmark to compare measured values against the
//! paper's asymptotic predictions.

/// Asymptotic prediction for a family (a Θ(·) expression evaluated without
/// its hidden constant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NqPrediction {
    /// The value of the Θ-expression (constant factor 1).
    pub theta_value: f64,
    /// Human-readable form of the expression, e.g. `"min(√k, D)"`.
    pub formula: &'static str,
}

/// Theorem 15: on paths and cycles `NQ_k ∈ min{Θ(√k), D}`.
pub fn predict_path_like(k: u64, diameter: u64) -> NqPrediction {
    NqPrediction {
        theta_value: (k as f64).sqrt().min(diameter as f64),
        formula: "min(sqrt(k), D)",
    }
}

/// Theorem 16: on `d`-dimensional grids `NQ_k ∈ min{Θ(k^{1/(d+1)}), D}`.
/// Theorem 17 bounds graphs with polynomial growth `|B_r(v)| ∈ Ω(r^d)` by
/// the same form, `NQ_k ∈ min{O(k^{1/(d+1)}), D}`.
pub fn predict_grid(k: u64, d: u32, diameter: u64) -> NqPrediction {
    assert!(d >= 1, "grid dimension must be at least 1");
    NqPrediction {
        theta_value: (k as f64).powf(1.0 / (d as f64 + 1.0)).min(diameter as f64),
        formula: "min(k^{1/(d+1)}, D)",
    }
}

/// Fits an exponent `e` such that `values ≈ c · ks^e` by least squares in
/// log-log space, the check of the exponents `1/2` (paths) and `1/(d+1)`
/// (grids).  The Appendix-B rows report the per-`k` predictions above
/// instead; this is API for a user who measures an `NQ_k` series of their
/// own graph.
///
/// Returns `None` if fewer than two usable points are supplied.
pub fn fit_exponent(ks: &[u64], values: &[u64]) -> Option<f64> {
    assert_eq!(ks.len(), values.len());
    let points: Vec<(f64, f64)> = ks
        .iter()
        .zip(values)
        .filter(|&(&k, &v)| k > 0 && v > 0)
        .map(|(&k, &v)| ((k as f64).ln(), (v as f64).ln()))
        .collect();
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nq::NqOracle;
    use hybrid_graph::generators;

    #[test]
    fn path_prediction_within_constant_factor() {
        let g = generators::path(600).unwrap();
        let oracle = NqOracle::new(&g);
        let d = oracle.diameter();
        for &k in &[16u64, 64, 256, 400] {
            let measured = oracle.nq(k) as f64;
            let predicted = predict_path_like(k, d).theta_value;
            assert!(
                measured >= predicted / 3.0,
                "k={k}: {measured} vs {predicted}"
            );
            assert!(
                measured <= predicted * 3.0,
                "k={k}: {measured} vs {predicted}"
            );
        }
    }

    #[test]
    fn grid_prediction_within_constant_factor() {
        let g = generators::grid(&[20, 20]).unwrap();
        let oracle = NqOracle::new(&g);
        let d = oracle.diameter();
        for &k in &[8u64, 64, 216, 400] {
            let measured = oracle.nq(k) as f64;
            let predicted = predict_grid(k, 2, d).theta_value;
            assert!(
                measured >= predicted / 4.0,
                "k={k}: {measured} vs {predicted}"
            );
            assert!(
                measured <= predicted * 4.0,
                "k={k}: {measured} vs {predicted}"
            );
        }
    }

    #[test]
    fn fitted_exponent_on_path_is_half() {
        let g = generators::path(2_000).unwrap();
        let oracle = NqOracle::new(&g);
        let ks: Vec<u64> = vec![16, 64, 256, 1024, 4096, 16384];
        let values: Vec<u64> = ks.iter().map(|&k| oracle.nq(k)).collect();
        let e = fit_exponent(&ks, &values).unwrap();
        assert!((e - 0.5).abs() < 0.1, "fitted exponent {e} not near 0.5");
    }

    #[test]
    fn fitted_exponent_on_2d_grid_is_one_third() {
        let g = generators::grid(&[40, 40]).unwrap();
        let oracle = NqOracle::new(&g);
        let ks: Vec<u64> = vec![27, 125, 343, 1000];
        let values: Vec<u64> = ks.iter().map(|&k| oracle.nq(k)).collect();
        let e = fit_exponent(&ks, &values).unwrap();
        assert!(
            (e - 1.0 / 3.0).abs() < 0.12,
            "fitted exponent {e} not near 1/3"
        );
    }

    #[test]
    fn fit_exponent_degenerate_inputs() {
        assert!(fit_exponent(&[], &[]).is_none());
        assert!(fit_exponent(&[5], &[2]).is_none());
        assert!(fit_exponent(&[5, 5], &[2, 2]).is_none());
        let e = fit_exponent(&[2, 4, 8, 16], &[2, 4, 8, 16]).unwrap();
        assert!((e - 1.0).abs() < 1e-9);
    }

    #[test]
    fn polynomial_growth_matches_grid_formula() {
        // Growth exponent d = 3: k^{1/4}, capped by the diameter.
        let p = predict_grid(10_000, 3, 50);
        assert!((p.theta_value - 10.0).abs() < 1e-9);
        assert_eq!(p.formula, "min(k^{1/(d+1)}, D)");
        assert_eq!(predict_grid(10_000, 3, 4).theta_value, 4.0);
    }
}
