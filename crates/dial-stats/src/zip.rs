//! Zero-Inflated Poisson regression (Tables 9–10).
//!
//! The ZIP model mixes a point mass at zero with a Poisson count process:
//!
//! ```text
//! P(y=0 | x, z) = π(z) + (1 − π(z)) e^{−λ(x)}
//! P(y=k | x, z) = (1 − π(z)) Poisson(k; λ(x)),  k ≥ 1
//! λ(x) = exp(xᵀβ)        (count model)
//! π(z) = sigmoid(zᵀγ)    (zero-inflation model)
//! ```
//!
//! Fitting is by EM (the standard Lambert 1992 scheme): the E-step computes
//! the posterior probability that each zero came from the inflation
//! component; the M-step runs a weighted logistic regression for γ and a
//! weighted Poisson regression for β. The M-step reads only their
//! coefficients, so it calls the GLMs' `fit_coef`: the same IRLS without
//! the per-iteration log-likelihood or the information-matrix inverse.
//! EM runs from two starting points concurrently. Standard errors come
//! from the numerically-differentiated observed information of the full
//! likelihood.
//! The Vuong (1989) non-nested test compares ZIP against plain Poisson, as
//! the paper reports for every model.

use crate::distributions::{ln_factorial, normal_cdf, two_sided_p};
use crate::glm::{GlmFit, LogisticRegression, PoissonRegression};
use crate::matrix::{Matrix, SingularMatrix};
use serde::{Deserialize, Serialize};

/// EM iterations cap.
const MAX_EM_ITER: usize = 200;
/// Convergence threshold on the log-likelihood improvement.
const EM_TOL: f64 = 1e-8;
/// Linear-predictor clamp.
const CAP: f64 = 30.0;

/// Specification and fitter for a ZIP model.
pub struct ZipModel;

/// A fitted ZIP model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZipFit {
    /// Count-model coefficients β (order: count design columns).
    pub count_coef: Vec<f64>,
    /// Count-model standard errors.
    pub count_se: Vec<f64>,
    /// Count-model z-values.
    pub count_z: Vec<f64>,
    /// Count-model two-sided p-values.
    pub count_p: Vec<f64>,
    /// Zero-inflation coefficients γ (order: zero design columns).
    pub zero_coef: Vec<f64>,
    /// Zero-model standard errors.
    pub zero_se: Vec<f64>,
    /// Zero-model z-values.
    pub zero_z: Vec<f64>,
    /// Zero-model two-sided p-values.
    pub zero_p: Vec<f64>,
    /// Maximised log-likelihood.
    pub log_lik: f64,
    /// Observations.
    pub n: usize,
    /// EM iterations used.
    pub em_iterations: usize,
    /// Share of observations with zero outcome (reported in the tables).
    pub pct_zero: f64,
    /// McFadden's pseudo-R² against the intercept-only ZIP model.
    pub mcfadden_r2: f64,
}

impl ZipFit {
    /// Total number of estimated parameters.
    pub fn k(&self) -> usize {
        self.count_coef.len() + self.zero_coef.len()
    }

    /// Akaike information criterion.
    pub fn aic(&self) -> f64 {
        2.0 * self.k() as f64 - 2.0 * self.log_lik
    }

    /// Bayesian information criterion.
    pub fn bic(&self) -> f64 {
        (self.n as f64).ln() * self.k() as f64 - 2.0 * self.log_lik
    }
}

/// Per-observation ZIP log-likelihood.
fn zip_ll_obs(y: f64, eta_count: f64, eta_zero: f64) -> f64 {
    let lambda = eta_count.clamp(-CAP, CAP).exp();
    let eta_zero = eta_zero.clamp(-CAP, CAP);
    // log π and log (1-π) computed stably from the logit.
    let log_pi = -((-eta_zero).exp()).ln_1p();
    let log_one_minus_pi = -(eta_zero.exp()).ln_1p();
    if y < 0.5 {
        // log(π + (1-π) e^{-λ})
        let a = log_pi;
        let b = log_one_minus_pi - lambda;
        let m = a.max(b);
        m + ((a - m).exp() + (b - m).exp()).ln()
    } else {
        log_one_minus_pi + y * lambda.ln() - lambda - ln_factorial(y.round() as u64)
    }
}

/// Total ZIP log-likelihood for stacked parameters.
fn zip_ll_total(x_count: &Matrix, x_zero: &Matrix, y: &[f64], beta: &[f64], gamma: &[f64]) -> f64 {
    let eta_c = x_count.mul_vec(beta);
    let eta_z = x_zero.mul_vec(gamma);
    y.iter().zip(eta_c.iter().zip(&eta_z)).map(|(yi, (ec, ez))| zip_ll_obs(*yi, *ec, *ez)).sum()
}

impl ZipModel {
    /// Fits the ZIP model.
    ///
    /// * `x_count` — design matrix for the count model (include intercept);
    /// * `x_zero` — design matrix for the zero-inflation model;
    /// * `y` — non-negative integer outcomes.
    pub fn fit(x_count: &Matrix, x_zero: &Matrix, y: &[f64]) -> Result<ZipFit, SingularMatrix> {
        let n = y.len();
        assert_eq!(x_count.rows(), n);
        assert_eq!(x_zero.rows(), n);
        assert!(y.iter().all(|v| *v >= 0.0), "counts must be non-negative");

        let n_zero = y.iter().filter(|v| **v < 0.5).count();
        let pct_zero = 100.0 * n_zero as f64 / n.max(1) as f64;

        // EM climbs monotonically but can land on a local optimum below the
        // π→0 boundary solution (plain Poisson). Run from two starting
        // points — "heavy inflation" at the empirical zero share and "no
        // inflation" — and keep the better optimum. The no-inflation start
        // guarantees the final likelihood is at least the Poisson one.
        //
        // The two starts are independent, so they run concurrently; the
        // fold below visits them in start order with a strict `>`, so a
        // tie keeps the first start at any pool width.
        let poisson_beta = PoissonRegression::fit_coef(x_count, y, None)?;
        let p0 = (n_zero as f64 / n as f64).clamp(0.01, 0.99);
        let starts = vec![(p0 / (1.0 - p0)).ln(), -6.0];

        let optima = dial_par::parallel_map(starts, |start| {
            let mut beta = poisson_beta.clone();
            let mut gamma = vec![0.0; x_zero.cols()];
            gamma[0] = start;
            let mut log_lik = zip_ll_total(x_count, x_zero, y, &beta, &gamma);
            let mut em_iterations = 0;
            for iter in 1..=MAX_EM_ITER {
                em_iterations = iter;
                // E-step: posterior membership of the inflation component.
                let eta_c = x_count.mul_vec(&beta);
                let eta_z = x_zero.mul_vec(&gamma);
                let mut w = vec![0.0; n];
                for i in 0..n {
                    if y[i] < 0.5 {
                        let lambda = eta_c[i].clamp(-CAP, CAP).exp();
                        let ez = eta_z[i].clamp(-CAP, CAP);
                        let pi = 1.0 / (1.0 + (-ez).exp());
                        let denom = pi + (1.0 - pi) * (-lambda).exp();
                        w[i] = if denom > 0.0 { pi / denom } else { 1.0 };
                    }
                }
                // M-step: logistic for γ on the fractional memberships,
                // Poisson for β weighted by the count-component posterior.
                gamma = LogisticRegression::fit_coef(x_zero, &w, None)?;
                let count_weights: Vec<f64> = w.iter().map(|wi| 1.0 - wi).collect();
                beta = PoissonRegression::fit_coef(x_count, y, Some(&count_weights))?;

                let new_ll = zip_ll_total(x_count, x_zero, y, &beta, &gamma);
                let improved = new_ll - log_lik;
                log_lik = new_ll;
                if improved.abs() < EM_TOL {
                    break;
                }
            }
            Ok((beta, gamma, log_lik, em_iterations))
        });
        let mut best: Option<(Vec<f64>, Vec<f64>, f64, usize)> = None;
        for optimum in optima {
            let optimum = optimum?;
            if best.as_ref().is_none_or(|(_, _, ll, _)| optimum.2 > *ll) {
                best = Some(optimum);
            }
        }
        let (beta, gamma, log_lik, em_iterations) = best.expect("at least one EM start");

        // Standard errors from the observed information (numerical Hessian of
        // the full log-likelihood at the optimum).
        let (count_se, zero_se) = Self::standard_errors(x_count, x_zero, y, &beta, &gamma)?;
        let count_z: Vec<f64> =
            beta.iter().zip(&count_se).map(|(b, s)| if *s > 0.0 { b / s } else { 0.0 }).collect();
        let zero_z: Vec<f64> =
            gamma.iter().zip(&zero_se).map(|(b, s)| if *s > 0.0 { b / s } else { 0.0 }).collect();

        // Null model for McFadden's R²: intercept-only ZIP.
        let null_ll = Self::null_log_lik(y)?;
        let mcfadden_r2 = if null_ll < 0.0 { 1.0 - log_lik / null_ll } else { 0.0 };

        Ok(ZipFit {
            count_p: count_z.iter().map(|z| two_sided_p(*z)).collect(),
            zero_p: zero_z.iter().map(|z| two_sided_p(*z)).collect(),
            count_coef: beta,
            count_se,
            count_z,
            zero_coef: gamma,
            zero_se,
            zero_z,
            log_lik,
            n,
            em_iterations,
            pct_zero,
            mcfadden_r2,
        })
    }

    /// Intercept-only ZIP log-likelihood (the McFadden baseline).
    fn null_log_lik(y: &[f64]) -> Result<f64, SingularMatrix> {
        let n = y.len();
        let ones = Matrix::from_rows(&vec![vec![1.0]; n]);
        let fit = Self::fit_intercept_only(&ones, y)?;
        Ok(fit)
    }

    /// Fits the intercept-only model directly (small fixed-point iteration),
    /// avoiding recursion into `fit`.
    fn fit_intercept_only(ones: &Matrix, y: &[f64]) -> Result<f64, SingularMatrix> {
        let n = y.len() as f64;
        let n_zero = y.iter().filter(|v| **v < 0.5).count() as f64;
        let ybar = y.iter().sum::<f64>() / n;
        // Moment/fixed-point iteration for (π, λ).
        let mut pi = (n_zero / n).clamp(0.0, 0.98) * 0.5;
        let mut lambda = ybar.max(1e-6);
        for _ in 0..500 {
            lambda = (ybar / (1.0 - pi).max(1e-9)).max(1e-9);
            let p0 = pi + (1.0 - pi) * (-lambda).exp();
            // Update π towards matching the observed zero share.
            let target = (n_zero / n).min(0.999_999);
            let adj = target - p0;
            pi = (pi + 0.5 * adj).clamp(0.0, 0.999);
        }
        let beta = [lambda.ln()];
        let gamma = [((pi + 1e-9) / (1.0 - pi + 1e-9)).ln()];
        let x = ones;
        Ok(zip_ll_total(x, x, y, &beta, &gamma))
    }

    /// Numerical observed-information standard errors for (β, γ).
    fn standard_errors(
        x_count: &Matrix,
        x_zero: &Matrix,
        y: &[f64],
        beta: &[f64],
        gamma: &[f64],
    ) -> Result<(Vec<f64>, Vec<f64>), SingularMatrix> {
        let pc = beta.len();
        let pz = gamma.len();
        let p = pc + pz;
        let ll = |theta: &[f64]| zip_ll_total(x_count, x_zero, y, &theta[..pc], &theta[pc..]);
        let mut theta: Vec<f64> = beta.iter().chain(gamma).copied().collect();
        let h = 1e-5;
        let mut hess = Matrix::zeros(p, p);
        let f0 = ll(&theta);
        for a in 0..p {
            for b in a..p {
                let (ta, tb) = (theta[a], theta[b]);

                if a == b {
                    theta[a] = ta + h;
                    let fp = ll(&theta);
                    theta[a] = ta - h;
                    let fm = ll(&theta);
                    theta[a] = ta;
                    hess[(a, a)] = (fp - 2.0 * f0 + fm) / (h * h);
                    continue;
                }
                theta[a] = ta + h;
                theta[b] = tb + h;
                let fpp = ll(&theta);
                theta[b] = tb - h;
                let fpm = ll(&theta);
                theta[a] = ta - h;
                theta[b] = tb + h;
                let fmp = ll(&theta);
                theta[b] = tb - h;
                let fmm = ll(&theta);
                theta[a] = ta;
                theta[b] = tb;
                let v = (fpp - fpm - fmp + fmm) / (4.0 * h * h);
                hess[(a, b)] = v;
                hess[(b, a)] = v;
            }
        }
        // Observed information = -Hessian; covariance = its inverse. The
        // numerical Hessian can be near-singular when a covariate is almost
        // constant in a sub-sample (e.g. disputes among first-time users),
        // so ridge progressively until the inverse exists.
        let mut info = Matrix::zeros(p, p);
        for a in 0..p {
            for b in 0..p {
                info[(a, b)] = -hess[(a, b)];
            }
        }
        let scale = (0..p).map(|i| info[(i, i)].abs()).fold(1.0f64, f64::max);
        let mut ridge = 0.0;
        let cov = loop {
            let mut m = info.clone();
            for i in 0..p {
                m[(i, i)] += ridge;
            }
            match m.inverse_lu() {
                Ok(c) => break c,
                Err(e) => {
                    ridge = if ridge == 0.0 { scale * 1e-10 } else { ridge * 100.0 };
                    if ridge > scale {
                        return Err(e);
                    }
                }
            }
        };
        let se = |i: usize| cov[(i, i)].max(0.0).sqrt();
        Ok(((0..pc).map(se).collect(), (pc..p).map(se).collect()))
    }
}

/// Vuong's closeness test for non-nested models, here ZIP vs plain Poisson.
/// Positive significant statistics favour the ZIP model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VuongTest {
    /// The Vuong z statistic.
    pub statistic: f64,
    /// One-sided p-value for "ZIP is better".
    pub p_value: f64,
}

impl VuongTest {
    /// Computes the test from a fitted ZIP model and a plain-Poisson fit on
    /// the same data.
    pub fn zip_vs_poisson(
        x_count: &Matrix,
        x_zero: &Matrix,
        y: &[f64],
        zip: &ZipFit,
        poisson: &GlmFit,
    ) -> VuongTest {
        let n = y.len();
        let eta_c = x_count.mul_vec(&zip.count_coef);
        let eta_z = x_zero.mul_vec(&zip.zero_coef);
        let eta_p = x_count.mul_vec(&poisson.coef);

        // Pointwise log-likelihood ratios m_i.
        let m: Vec<f64> = (0..n)
            .map(|i| {
                let ll_zip = zip_ll_obs(y[i], eta_c[i], eta_z[i]);
                let lambda = eta_p[i].clamp(-CAP, CAP).exp();
                let ll_pois = y[i] * lambda.ln() - lambda - ln_factorial(y[i].round() as u64);
                ll_zip - ll_pois
            })
            .collect();
        let mbar = m.iter().sum::<f64>() / n as f64;
        let s2 = m.iter().map(|v| (v - mbar).powi(2)).sum::<f64>() / n as f64;
        let statistic = if s2 > 0.0 { (n as f64).sqrt() * mbar / s2.sqrt() } else { 0.0 };
        VuongTest { statistic, p_value: 1.0 - normal_cdf(statistic) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glm::design_with_intercept;

    /// Deterministic uniform stream (xorshift64*).
    fn uniforms(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn poisson_draw(lambda: f64, u: f64) -> f64 {
        let mut k = 0u64;
        let mut p = (-lambda).exp();
        let mut cdf = p;
        while u > cdf && k < 1000 {
            k += 1;
            p *= lambda / k as f64;
            cdf += p;
        }
        k as f64
    }

    /// Generates a planted ZIP dataset and checks parameter recovery.
    #[test]
    fn recovers_planted_zip_parameters() {
        let n = 6000;
        let us = uniforms(3 * n, 99);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        // True model: λ = exp(1.0 + 0.6x), π = sigmoid(-0.5 + 1.0x).
        for i in 0..n {
            let x = us[i] * 2.0 - 1.0;
            rows.push(vec![x]);
            let pi = 1.0 / (1.0 + (0.5 - 1.0 * x).exp());
            let inflated = us[n + i] < pi;
            let lam = (1.0 + 0.6 * x).exp();
            y.push(if inflated { 0.0 } else { poisson_draw(lam, us[2 * n + i]) });
        }
        let x = design_with_intercept(&rows);
        let fit = ZipModel::fit(&x, &x, &y).unwrap();
        assert!((fit.count_coef[0] - 1.0).abs() < 0.1, "count intercept {}", fit.count_coef[0]);
        assert!((fit.count_coef[1] - 0.6).abs() < 0.1, "count slope {}", fit.count_coef[1]);
        assert!((fit.zero_coef[0] + 0.5).abs() < 0.2, "zero intercept {}", fit.zero_coef[0]);
        assert!((fit.zero_coef[1] - 1.0).abs() < 0.25, "zero slope {}", fit.zero_coef[1]);
        assert!(fit.count_se.iter().all(|s| *s > 0.0 && s.is_finite()));
        assert!(fit.mcfadden_r2 > 0.0 && fit.mcfadden_r2 < 1.0);
    }

    #[test]
    fn vuong_prefers_zip_on_inflated_data() {
        let n = 3000;
        let us = uniforms(3 * n, 5);
        let mut rows = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let x = us[i];
            rows.push(vec![x]);
            let inflated = us[n + i] < 0.45;
            y.push(if inflated { 0.0 } else { poisson_draw((1.2 + 0.4 * x).exp(), us[2 * n + i]) });
        }
        let xm = design_with_intercept(&rows);
        let zip = ZipModel::fit(&xm, &xm, &y).unwrap();
        let pois = PoissonRegression::fit(&xm, &y, None).unwrap();
        let vuong = VuongTest::zip_vs_poisson(&xm, &xm, &y, &zip, &pois);
        assert!(vuong.statistic > 2.0, "Vuong = {}", vuong.statistic);
        assert!(vuong.p_value < 0.05);
        assert!(zip.log_lik > pois.log_lik);
    }

    #[test]
    fn vuong_indifferent_on_pure_poisson_data() {
        let n = 3000;
        let us = uniforms(2 * n, 11);
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![us[i]]).collect();
        let y: Vec<f64> =
            (0..n).map(|i| poisson_draw((0.8 + 0.3 * rows[i][0]).exp(), us[n + i])).collect();
        let xm = design_with_intercept(&rows);
        let zip = ZipModel::fit(&xm, &xm, &y).unwrap();
        let pois = PoissonRegression::fit(&xm, &y, None).unwrap();
        let vuong = VuongTest::zip_vs_poisson(&xm, &xm, &y, &zip, &pois);
        // No inflation: the statistic should not decisively favour ZIP.
        assert!(vuong.statistic < 2.5, "Vuong = {}", vuong.statistic);
    }

    #[test]
    fn pct_zero_reported() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let xm = design_with_intercept(&rows);
        let y = vec![0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 1.0, 2.0, 5.0];
        let fit = ZipModel::fit(&xm, &xm, &y).unwrap();
        assert!((fit.pct_zero - 40.0).abs() < 1e-9);
    }
}
