//! Latent Class Analysis: a finite mixture of independent Poissons over
//! multivariate count vectors, fitted by EM (§5.1).
//!
//! Each observation is a D-dimensional count vector (here: the number of
//! contracts a user made/accepted per contract type in one month). The model
//! assumes K latent classes; class `k` has mixing weight `π_k` and emits
//! dimension `d` as `Poisson(λ_{kd})`. The paper selects K = 12 by AIC/BIC
//! ("using a Poisson curve due to non-overdispersed count data, the most
//! accurate and parsimonious is a 12-class model").

use crate::distributions::{ln_factorials, log_sum_exp};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// EM iteration cap.
const MAX_ITER: usize = 500;
/// Convergence threshold on mean log-likelihood improvement.
const TOL: f64 = 1e-7;
/// Rate floor: keeps zero-count classes from degenerating.
const RATE_FLOOR: f64 = 1e-4;

/// Latent class model specification.
#[derive(Debug, Clone, Copy)]
pub struct LcaModel {
    /// Number of latent classes.
    pub k: usize,
}

/// A fitted latent class model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LcaFit {
    /// Number of classes.
    pub k: usize,
    /// Dimensionality of the count vectors.
    pub d: usize,
    /// Observations used.
    pub n: usize,
    /// Mixing weights `π` (sum to 1).
    pub weights: Vec<f64>,
    /// Poisson rates `λ`, `k × d`.
    pub rates: Vec<Vec<f64>>,
    /// Maximised log-likelihood.
    pub log_lik: f64,
    /// EM iterations used.
    pub iterations: usize,
}

impl LcaFit {
    /// Number of free parameters: (K−1) weights + K·D rates.
    pub fn n_params(&self) -> usize {
        (self.k - 1) + self.k * self.d
    }

    /// Akaike information criterion.
    pub fn aic(&self) -> f64 {
        2.0 * self.n_params() as f64 - 2.0 * self.log_lik
    }

    /// Bayesian information criterion.
    pub fn bic(&self) -> f64 {
        (self.n as f64).ln() * self.n_params() as f64 - 2.0 * self.log_lik
    }

    /// Posterior class probabilities for one observation.
    pub fn responsibilities(&self, row: &[f64]) -> Vec<f64> {
        LogParams::new(&self.weights, &self.rates).posterior(row, &ln_factorials(row)).0
    }

    /// Maximum a-posteriori class for one observation.
    pub fn assign(&self, row: &[f64]) -> usize {
        let lj = LogParams::new(&self.weights, &self.rates).log_joint(row, &ln_factorials(row));
        lj.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0)
    }
}

/// One parameter set with its logs taken once: `ln π_c` and `ln λ_cd` do
/// not change within an EM iteration, so the E-step reads them instead of
/// recomputing them for every observation.
struct LogParams<'a> {
    rates: &'a [Vec<f64>],
    ln_weights: Vec<f64>,
    ln_rates: Vec<Vec<f64>>,
}

impl<'a> LogParams<'a> {
    fn new(weights: &[f64], rates: &'a [Vec<f64>]) -> Self {
        Self {
            rates,
            ln_weights: weights.iter().map(|w| w.max(1e-300).ln()).collect(),
            ln_rates: rates.iter().map(|r| r.iter().map(|l| l.ln()).collect()).collect(),
        }
    }

    /// Log joint `log(π_k) + log P(row | class k)` for each class, given
    /// the row's `ln(y_d!)` terms. This is the only copy of the formula:
    /// the E-step and [`LcaFit::assign`]/[`LcaFit::responsibilities`] all
    /// evaluate it.
    fn log_joint(&self, row: &[f64], ln_fact: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.ln_weights.len());
        for ((ln_w, rates), ln_rates) in self.ln_weights.iter().zip(self.rates).zip(&self.ln_rates)
        {
            let mut ll = *ln_w;
            for (d, y) in row.iter().enumerate() {
                ll += y * ln_rates[d] - rates[d] - ln_fact[d];
            }
            out.push(ll);
        }
        out
    }

    /// Posterior class probabilities for one observation and the log of
    /// its marginal likelihood: the E-step's work for one row.
    fn posterior(&self, row: &[f64], ln_fact: &[f64]) -> (Vec<f64>, f64) {
        let mut lj = self.log_joint(row, ln_fact);
        let norm = log_sum_exp(&lj);
        lj.iter_mut().for_each(|l| *l = (*l - norm).exp());
        (lj, norm)
    }
}

impl LcaModel {
    /// Fits the mixture by EM with a random-responsibility initialisation
    /// drawn from `rng`.
    ///
    /// # Panics
    /// Panics if `data` is empty, ragged, or `k == 0`.
    pub fn fit(&self, data: &[Vec<f64>], rng: &mut impl Rng) -> LcaFit {
        let resp = self.draw_init(data.len(), rng);
        self.fit_with_init(data, resp)
    }

    /// Draws the random-responsibility initialisation for one restart: a
    /// perturbed uniform per observation so classes break symmetry. Split
    /// out from [`LcaModel::fit`] so `fit_best` can pre-draw every
    /// restart's initialisation serially and run the EM fits in parallel.
    pub fn draw_init(&self, n: usize, rng: &mut impl Rng) -> Vec<Vec<f64>> {
        let k = self.k;
        (0..n)
            .map(|_| {
                let mut row: Vec<f64> = (0..k).map(|_| rng.random_range(0.05..1.0)).collect();
                let s: f64 = row.iter().sum();
                row.iter_mut().for_each(|v| *v /= s);
                row
            })
            .collect()
    }

    /// Runs EM from explicit initial responsibilities (consumes no
    /// randomness).
    ///
    /// # Panics
    /// Panics if `data` is empty, ragged, `k == 0`, or `init` does not
    /// have one responsibility row per observation.
    pub fn fit_with_init(&self, data: &[Vec<f64>], init: Vec<Vec<f64>>) -> LcaFit {
        let k = self.k;
        let n = data.len();
        assert!(k > 0, "k must be positive");
        assert!(n > 0, "no data");
        let d = data[0].len();
        assert!(data.iter().all(|r| r.len() == d), "ragged data");
        assert!(init.len() == n, "one responsibility row per observation");
        let mut resp = init;
        let ln_fact: Vec<Vec<f64>> = data.iter().map(|row| ln_factorials(row)).collect();

        let mut weights = vec![1.0 / k as f64; k];
        let mut rates = vec![vec![1.0; d]; k];
        let mut log_lik = f64::NEG_INFINITY;
        let mut iterations = 0;

        for iter in 1..=MAX_ITER {
            iterations = iter;
            // M-step: classes are independent given the responsibilities,
            // so each class's weight/rate sums run on their own lane. One
            // pass over the observations feeds all of a class's sums; each
            // sum still adds its (non-negative) terms in observation
            // order, so the floats match a sum-at-a-time loop bit for bit.
            let per_class: Vec<(f64, Vec<f64>)> = dial_par::parallel_map((0..k).collect(), |c| {
                let mut nc = 0.0;
                let mut sums = vec![0.0; d];
                for (r, row) in resp.iter().zip(data) {
                    nc += r[c];
                    for (s, y) in sums.iter_mut().zip(row) {
                        *s += r[c] * y;
                    }
                }
                let weight = (nc / n as f64).max(1e-10);
                let class_rates: Vec<f64> =
                    sums.iter().map(|s| (s / nc.max(1e-12)).max(RATE_FLOOR)).collect();
                (weight, class_rates)
            });
            for (c, (weight, class_rates)) in per_class.into_iter().enumerate() {
                weights[c] = weight;
                rates[c] = class_rates;
            }
            let wsum: f64 = weights.iter().sum();
            weights.iter_mut().for_each(|w| *w /= wsum);

            // E-step: per-row posteriors fan out; the log-likelihood folds
            // serially over the ordered norms, preserving the legacy
            // accumulation order exactly.
            let params = LogParams::new(&weights, &rates);
            let posteriors: Vec<(Vec<f64>, f64)> = dial_par::parallel_map((0..n).collect(), |i| {
                params.posterior(&data[i], &ln_fact[i])
            });
            let mut new_ll = 0.0;
            for (i, (row, norm)) in posteriors.into_iter().enumerate() {
                new_ll += norm;
                resp[i] = row;
            }

            let improved = (new_ll - log_lik) / n as f64;
            log_lik = new_ll;
            if improved.abs() < TOL {
                break;
            }
        }

        LcaFit { k, d, n, weights, rates, log_lik, iterations }
    }

    /// Fits with `restarts` random initialisations, keeping the best
    /// log-likelihood (EM is sensitive to initialisation).
    ///
    /// Initialisations are pre-drawn serially (EM itself consumes no
    /// RNG), so the restarts run in parallel while the RNG stream and the
    /// winner — ties keep the earliest restart — match the serial loop
    /// exactly at any pool width.
    pub fn fit_best(&self, data: &[Vec<f64>], restarts: usize, rng: &mut impl Rng) -> LcaFit {
        let inits: Vec<Vec<Vec<f64>>> =
            (0..restarts.max(1)).map(|_| self.draw_init(data.len(), rng)).collect();
        let fits = dial_par::parallel_map(inits, |init| self.fit_with_init(data, init));
        let mut best: Option<LcaFit> = None;
        for fit in fits {
            if best.as_ref().is_none_or(|b| fit.log_lik > b.log_lik) {
                best = Some(fit);
            }
        }
        best.unwrap()
    }
}

/// Fits every K in `range` and returns `(all fits, index of BIC-minimal)`.
pub fn select_k(
    data: &[Vec<f64>],
    range: std::ops::RangeInclusive<usize>,
    restarts: usize,
    rng: &mut impl Rng,
) -> (Vec<LcaFit>, usize) {
    let fits: Vec<LcaFit> = range.map(|k| LcaModel { k }.fit_best(data, restarts, rng)).collect();
    let best = fits
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.bic().total_cmp(&b.1.bic()))
        .map(|(i, _)| i)
        .expect("non-empty range");
    (fits, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::ln_gamma;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn poisson_draw(lambda: f64, rng: &mut impl Rng) -> f64 {
        // Knuth's method; rates here are small.
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.random_range(0.0..1.0f64);
            if p <= l || k > 10_000 {
                return f64::from(k);
            }
            k += 1;
        }
    }

    /// Two planted classes with very different rate profiles.
    fn planted(n: usize, rng: &mut impl Rng) -> (Vec<Vec<f64>>, Vec<usize>) {
        let rates = [vec![0.2, 5.0, 0.1], vec![6.0, 0.3, 2.0]];
        let mut data = Vec::with_capacity(n);
        let mut truth = Vec::with_capacity(n);
        for i in 0..n {
            let c = usize::from(i % 3 == 0); // ~1/3 class 1
            truth.push(c);
            data.push(rates[c].iter().map(|l| poisson_draw(*l, rng)).collect());
        }
        (data, truth)
    }

    #[test]
    fn recovers_planted_classes() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let (data, truth) = planted(1200, &mut rng);
        let fit = LcaModel { k: 2 }.fit_best(&data, 3, &mut rng);

        // Identify which fitted class corresponds to planted class 0.
        let assign: Vec<usize> = data.iter().map(|r| fit.assign(r)).collect();
        let agree: usize = assign.iter().zip(&truth).filter(|(a, t)| a == t).count();
        let accuracy = agree.max(data.len() - agree) as f64 / data.len() as f64;
        assert!(accuracy > 0.95, "accuracy {accuracy}");

        // Rates recovered up to label permutation.
        let c0 = fit.assign(&[0.0, 5.0, 0.0]);
        assert!((fit.rates[c0][1] - 5.0).abs() < 0.5, "λ[1] = {}", fit.rates[c0][1]);
    }

    #[test]
    fn bic_selects_true_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let (data, _) = planted(900, &mut rng);
        let (fits, best) = select_k(&data, 1..=4, 2, &mut rng);
        assert_eq!(fits[best].k, 2, "BICs: {:?}", fits.iter().map(LcaFit::bic).collect::<Vec<_>>());
    }

    #[test]
    fn responsibilities_sum_to_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (data, _) = planted(200, &mut rng);
        let fit = LcaModel { k: 3 }.fit(&data, &mut rng);
        for row in data.iter().take(20) {
            let r = fit.responsibilities(row);
            assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(r.iter().all(|p| (0.0..=1.0).contains(p)));
        }
        let w: f64 = fit.weights.iter().sum();
        assert!((w - 1.0).abs() < 1e-9);
    }

    /// The log joint with every log and `ln Γ` evaluated in place: the
    /// reference the hoisted E-step must match bit for bit.
    fn reference_log_joint(fit: &LcaFit, row: &[f64]) -> Vec<f64> {
        (0..fit.k)
            .map(|c| {
                let mut ll = fit.weights[c].max(1e-300).ln();
                for (d, y) in row.iter().enumerate() {
                    let lam = fit.rates[c][d];
                    ll += y * lam.ln() - lam - ln_gamma((y.round() as u64) as f64 + 1.0);
                }
                ll
            })
            .collect()
    }

    #[test]
    fn assign_and_responsibilities_match_the_e_step_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let (data, _) = planted(300, &mut rng);
        let fit = LcaModel { k: 3 }.fit(&data, &mut rng);
        let params = LogParams::new(&fit.weights, &fit.rates);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for row in &data {
            let reference = reference_log_joint(&fit, row);
            assert_eq!(bits(&params.log_joint(row, &ln_factorials(row))), bits(&reference));
            let (e_step, _) = params.posterior(row, &ln_factorials(row));
            assert_eq!(bits(&fit.responsibilities(row)), bits(&e_step));
            let map = (0..fit.k).max_by(|&a, &b| reference[a].total_cmp(&reference[b])).unwrap();
            assert_eq!(fit.assign(row), map);
        }
    }

    #[test]
    fn loglik_increases_with_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (data, _) = planted(400, &mut rng);
        let f1 = LcaModel { k: 1 }.fit_best(&data, 2, &mut rng);
        let f3 = LcaModel { k: 3 }.fit_best(&data, 4, &mut rng);
        assert!(f3.log_lik >= f1.log_lik - 1e-6);
    }
}
