//! Latent transition modelling proper: a hidden Markov model with
//! independent-Poisson emissions, fitted by Baum–Welch.
//!
//! [`crate::lca`] treats each user-month as an exchangeable case, which is
//! how class *profiles* (Table 6) are estimated; the latent **transition**
//! layer of §5.1 is the dynamics — how users move between classes month to
//! month. This module estimates that jointly: initial class probabilities,
//! a row-stochastic transition matrix and per-class Poisson rates, by EM
//! (forward–backward) over user activity sequences, with Viterbi decoding
//! for hard class paths.

use crate::distributions::{ln_factorials, log_sum_exp};
use crate::lca::LcaFit;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// EM iteration cap.
const MAX_ITER: usize = 200;
/// Convergence threshold on mean log-likelihood improvement.
const TOL: f64 = 1e-6;
/// Rate floor, as in the LCA.
const RATE_FLOOR: f64 = 1e-4;

/// A fitted Poisson-emission HMM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HmmFit {
    /// Number of latent classes.
    pub k: usize,
    /// Emission dimensionality.
    pub d: usize,
    /// Initial class distribution.
    pub initial: Vec<f64>,
    /// Row-stochastic transition matrix `a[from][to]`.
    pub transitions: Vec<Vec<f64>>,
    /// Per-class Poisson emission rates, `k × d`.
    pub rates: Vec<Vec<f64>>,
    /// Total log-likelihood over all sequences.
    pub log_lik: f64,
    /// EM iterations used.
    pub iterations: usize,
    /// Number of sequences fitted.
    pub n_sequences: usize,
}

/// One EM iteration's parameters with their logs taken once.
struct LogParams<'a> {
    rates: &'a [Vec<f64>],
    ln_rates: Vec<Vec<f64>>,
    ln_init: Vec<f64>,
    ln_trans: Vec<Vec<f64>>,
}

impl<'a> LogParams<'a> {
    fn new(rates: &'a [Vec<f64>], initial: &[f64], transitions: &[Vec<f64>]) -> Self {
        let ln_p = |p: &f64| p.max(1e-300).ln();
        Self {
            rates,
            ln_rates: rates.iter().map(|r| r.iter().map(|lam| lam.ln()).collect()).collect(),
            ln_init: initial.iter().map(ln_p).collect(),
            ln_trans: transitions.iter().map(|row| row.iter().map(ln_p).collect()).collect(),
        }
    }

    /// Log emission probability of `obs` under class `c`, given the
    /// observation's `ln(y!)` terms. The Baum–Welch E-step and Viterbi
    /// decoding both evaluate this one formula.
    fn emission(&self, c: usize, obs: &[f64], ln_fact: &[f64]) -> f64 {
        self.rates[c]
            .iter()
            .zip(&self.ln_rates[c])
            .zip(obs.iter().zip(ln_fact))
            .map(|((lam, ln_lam), (y, lf))| y * ln_lam - lam - lf)
            .sum()
    }
}

/// The latent transition model fitter.
pub struct HmmLtm {
    /// Number of latent classes.
    pub k: usize,
}

impl HmmLtm {
    /// Fits the HMM to `sequences` (each a chronological run of D-dim count
    /// vectors). `warm_start` seeds the emission rates (typically from an
    /// [`LcaFit`], mirroring the standard LCA→LTA workflow); otherwise
    /// rates initialise from perturbed global means.
    ///
    /// # Panics
    /// Panics on empty input, ragged dimensions or `k == 0`.
    pub fn fit(
        &self,
        sequences: &[Vec<Vec<f64>>],
        warm_start: Option<&LcaFit>,
        rng: &mut impl Rng,
    ) -> HmmFit {
        let k = self.k;
        assert!(k > 0, "k must be positive");
        let nonempty: Vec<&Vec<Vec<f64>>> = sequences.iter().filter(|s| !s.is_empty()).collect();
        assert!(!nonempty.is_empty(), "no non-empty sequences");
        let d = nonempty[0][0].len();
        for s in &nonempty {
            for obs in s.iter() {
                assert_eq!(obs.len(), d, "ragged observation");
            }
        }

        // Initialise.
        let mut rates: Vec<Vec<f64>> = match warm_start {
            Some(fit) => {
                assert_eq!(fit.d, d, "warm start dimensionality mismatch");
                assert_eq!(fit.k, k, "warm start class-count mismatch");
                fit.rates.clone()
            }
            None => {
                let mut means = vec![0.0; d];
                let mut count = 0.0f64;
                for s in &nonempty {
                    for obs in s.iter() {
                        for (m, y) in means.iter_mut().zip(obs) {
                            *m += y;
                        }
                        count += 1.0;
                    }
                }
                means.iter_mut().for_each(|m| *m /= count.max(1.0));
                (0..k)
                    .map(|_| {
                        means
                            .iter()
                            .map(|m| (m * rng.random_range(0.3..3.0)).max(RATE_FLOOR))
                            .collect()
                    })
                    .collect()
            }
        };
        let mut initial = vec![1.0 / k as f64; k];
        let mut transitions = vec![vec![1.0 / k as f64; k]; k];
        let mut log_lik = f64::NEG_INFINITY;
        let mut iterations = 0;
        // `ln(y!)` per observation never changes; `terms` is the one
        // scratch buffer every forward/backward `log_sum_exp` reuses.
        let ln_fact: Vec<Vec<Vec<f64>>> =
            nonempty.iter().map(|s| s.iter().map(|obs| ln_factorials(obs)).collect()).collect();
        let mut terms = vec![0.0; k];

        for iter in 1..=MAX_ITER {
            iterations = iter;
            let mut new_initial = vec![1e-10; k];
            let mut new_trans = vec![vec![1e-10; k]; k];
            let mut rate_num = vec![vec![0.0; d]; k];
            let mut rate_den = vec![1e-10; k];
            let mut total_ll = 0.0;

            let params = LogParams::new(&rates, &initial, &transitions);
            let (ln_init, ln_trans) = (&params.ln_init, &params.ln_trans);

            for (seq, seq_fact) in nonempty.iter().zip(&ln_fact) {
                let t_len = seq.len();
                // Emission log-probs.
                let lp: Vec<Vec<f64>> = seq
                    .iter()
                    .zip(seq_fact)
                    .map(|(obs, lf)| (0..k).map(|c| params.emission(c, obs, lf)).collect())
                    .collect();

                // Forward pass (log space).
                let mut alpha = vec![vec![0.0; k]; t_len];
                for c in 0..k {
                    alpha[0][c] = ln_init[c] + lp[0][c];
                }
                for t in 1..t_len {
                    for c in 0..k {
                        for (p, term) in terms.iter_mut().enumerate() {
                            *term = alpha[t - 1][p] + ln_trans[p][c];
                        }
                        alpha[t][c] = log_sum_exp(&terms) + lp[t][c];
                    }
                }
                let seq_ll = log_sum_exp(&alpha[t_len - 1]);
                total_ll += seq_ll;

                // Backward pass.
                let mut beta = vec![vec![0.0; k]; t_len];
                for t in (0..t_len.saturating_sub(1)).rev() {
                    for c in 0..k {
                        for (n, term) in terms.iter_mut().enumerate() {
                            *term = ln_trans[c][n] + lp[t + 1][n] + beta[t + 1][n];
                        }
                        beta[t][c] = log_sum_exp(&terms);
                    }
                }

                // Accumulate expected counts.
                for c in 0..k {
                    let gamma0 = (alpha[0][c] + beta[0][c] - seq_ll).exp();
                    new_initial[c] += gamma0;
                }
                for t in 0..t_len {
                    for c in 0..k {
                        let gamma = (alpha[t][c] + beta[t][c] - seq_ll).exp();
                        rate_den[c] += gamma;
                        for dd in 0..d {
                            rate_num[c][dd] += gamma * seq[t][dd];
                        }
                    }
                }
                for t in 0..t_len.saturating_sub(1) {
                    for from in 0..k {
                        for to in 0..k {
                            let xi = (alpha[t][from]
                                + ln_trans[from][to]
                                + lp[t + 1][to]
                                + beta[t + 1][to]
                                - seq_ll)
                                .exp();
                            new_trans[from][to] += xi;
                        }
                    }
                }
            }

            // M-step: normalise.
            let init_total: f64 = new_initial.iter().sum();
            initial = new_initial.iter().map(|v| v / init_total).collect();
            transitions = new_trans
                .iter()
                .map(|row| {
                    let s: f64 = row.iter().sum();
                    row.iter().map(|v| v / s).collect()
                })
                .collect();
            for c in 0..k {
                for dd in 0..d {
                    rates[c][dd] = (rate_num[c][dd] / rate_den[c]).max(RATE_FLOOR);
                }
            }

            let improved = (total_ll - log_lik) / nonempty.len() as f64;
            log_lik = total_ll;
            if improved.abs() < TOL {
                break;
            }
        }

        HmmFit {
            k,
            d,
            initial,
            transitions,
            rates,
            log_lik,
            iterations,
            n_sequences: nonempty.len(),
        }
    }
}

impl HmmFit {
    /// Viterbi decoding: the most probable class path for one sequence.
    pub fn decode(&self, seq: &[Vec<f64>]) -> Vec<usize> {
        if seq.is_empty() {
            return Vec::new();
        }
        let k = self.k;
        let t_len = seq.len();
        let params = LogParams::new(&self.rates, &self.initial, &self.transitions);
        let (ln_init, ln_trans) = (&params.ln_init, &params.ln_trans);
        let emission = |c: usize, obs: &[f64]| params.emission(c, obs, &ln_factorials(obs));

        let mut delta = vec![vec![f64::NEG_INFINITY; k]; t_len];
        let mut back = vec![vec![0usize; k]; t_len];
        for c in 0..k {
            delta[0][c] = ln_init[c] + emission(c, &seq[0]);
        }
        for t in 1..t_len {
            for c in 0..k {
                let (best_prev, best_score) = (0..k)
                    .map(|p| (p, delta[t - 1][p] + ln_trans[p][c]))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                delta[t][c] = best_score + emission(c, &seq[t]);
                back[t][c] = best_prev;
            }
        }
        let mut path = vec![0usize; t_len];
        path[t_len - 1] =
            (0..k).max_by(|&a, &b| delta[t_len - 1][a].total_cmp(&delta[t_len - 1][b])).unwrap();
        for t in (0..t_len - 1).rev() {
            path[t] = back[t + 1][path[t + 1]];
        }
        path
    }

    /// Per-class expected holding time `1 / (1 − a_cc)` in months.
    pub fn expected_holding_time(&self, class: usize) -> f64 {
        let stay = self.transitions[class][class].min(1.0 - 1e-9);
        1.0 / (1.0 - stay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::ln_gamma;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn poisson_draw(lambda: f64, rng: &mut impl Rng) -> f64 {
        let l = (-lambda).exp();
        let mut kk = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.random_range(0.0..1.0f64);
            if p <= l || kk > 10_000 {
                return f64::from(kk);
            }
            kk += 1;
        }
    }

    /// Generates sequences from a planted 2-state chain.
    fn planted(
        n_seq: usize,
        len: usize,
        rng: &mut impl Rng,
    ) -> (Vec<Vec<Vec<f64>>>, Vec<Vec<usize>>) {
        let rates = [vec![0.3, 6.0], vec![5.0, 0.2]];
        let trans = [[0.9, 0.1], [0.3, 0.7]];
        let mut seqs = Vec::new();
        let mut states = Vec::new();
        for _ in 0..n_seq {
            let mut s = usize::from(rng.random_range(0.0..1.0) < 0.5);
            let mut seq = Vec::with_capacity(len);
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(s);
                seq.push(rates[s].iter().map(|l| poisson_draw(*l, rng)).collect());
                s = usize::from(rng.random_range(0.0..1.0) >= trans[s][0]);
            }
            seqs.push(seq);
            states.push(path);
        }
        (seqs, states)
    }

    #[test]
    fn recovers_planted_dynamics() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (seqs, truth) = planted(150, 12, &mut rng);
        let fit = HmmLtm { k: 2 }.fit(&seqs, None, &mut rng);

        // Identify the fitted index of planted state 0 (high dim-1 rate).
        let s0 = usize::from(fit.rates[0][1] < fit.rates[1][1]);
        let map = |c: usize| if c == 0 { s0 } else { 1 - s0 };

        // Transition probabilities recovered within a few points.
        assert!(
            (fit.transitions[map(0)][map(0)] - 0.9).abs() < 0.06,
            "a00 {}",
            fit.transitions[map(0)][map(0)]
        );
        assert!(
            (fit.transitions[map(1)][map(1)] - 0.7).abs() < 0.08,
            "a11 {}",
            fit.transitions[map(1)][map(1)]
        );
        // Emission rates recovered.
        assert!((fit.rates[map(0)][1] - 6.0).abs() < 0.5);
        assert!((fit.rates[map(1)][0] - 5.0).abs() < 0.5);

        // Viterbi paths agree with the truth almost everywhere.
        let mut agree = 0usize;
        let mut total = 0usize;
        for (seq, t) in seqs.iter().zip(&truth) {
            let path = fit.decode(seq);
            for (p, tt) in path.iter().zip(t) {
                total += 1;
                if map(*p) == *tt {
                    agree += 1;
                }
            }
        }
        let acc = agree as f64 / total as f64;
        assert!(acc > 0.93, "viterbi accuracy {acc}");

        // Holding times reflect the stickiness asymmetry.
        assert!(fit.expected_holding_time(map(0)) > fit.expected_holding_time(map(1)));
    }

    /// The emission log-probability with every log and `ln Γ` evaluated in
    /// place: the reference the hoisted emission must match bit for bit.
    fn reference_emission(rates: &[f64], obs: &[f64]) -> f64 {
        rates
            .iter()
            .zip(obs)
            .map(|(lam, y)| y * lam.ln() - lam - ln_gamma((y.round() as u64) as f64 + 1.0))
            .sum()
    }

    #[test]
    fn decode_and_e_step_share_the_reference_emission_bit_for_bit() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let (seqs, _) = planted(30, 6, &mut rng);
        let fit = HmmLtm { k: 3 }.fit(&seqs, None, &mut rng);
        let params = LogParams::new(&fit.rates, &fit.initial, &fit.transitions);
        for seq in &seqs {
            for obs in seq {
                for c in 0..fit.k {
                    let hoisted = params.emission(c, obs, &ln_factorials(obs));
                    assert_eq!(hoisted.to_bits(), reference_emission(&fit.rates[c], obs).to_bits());
                }
            }
            // Viterbi from the reference emission picks the same path.
            let ln_p = |p: f64| p.max(1e-300).ln();
            let mut delta: Vec<f64> = (0..fit.k)
                .map(|c| ln_p(fit.initial[c]) + reference_emission(&fit.rates[c], &seq[0]))
                .collect();
            let mut back = Vec::new();
            for obs in &seq[1..] {
                let (prev, next): (Vec<usize>, Vec<f64>) = (0..fit.k)
                    .map(|c| {
                        let (p, score) = (0..fit.k)
                            .map(|p| (p, delta[p] + ln_p(fit.transitions[p][c])))
                            .max_by(|a, b| a.1.total_cmp(&b.1))
                            .unwrap();
                        (p, score + reference_emission(&fit.rates[c], obs))
                    })
                    .unzip();
                back.push(prev);
                delta = next;
            }
            let mut path = vec![(0..fit.k).max_by(|&a, &b| delta[a].total_cmp(&delta[b])).unwrap()];
            for prev in back.iter().rev() {
                path.push(prev[*path.last().unwrap()]);
            }
            path.reverse();
            assert_eq!(fit.decode(seq), path);
        }
    }

    #[test]
    fn rows_stay_stochastic_and_ll_climbs() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let (seqs, _) = planted(40, 8, &mut rng);
        let fit = HmmLtm { k: 3 }.fit(&seqs, None, &mut rng);
        assert!((fit.initial.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for row in &fit.transitions {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert!(fit.log_lik.is_finite());
        assert!(fit.iterations >= 2);
    }

    #[test]
    fn single_observation_sequences_degenerate_gracefully() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let seqs: Vec<Vec<Vec<f64>>> = (0..30).map(|i| vec![vec![f64::from(i % 5), 1.0]]).collect();
        let fit = HmmLtm { k: 2 }.fit(&seqs, None, &mut rng);
        // No transitions observed: the matrix stays near its uniform prior.
        for row in &fit.transitions {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        assert_eq!(fit.decode(&seqs[0]).len(), 1);
        assert!(fit.decode(&[]).is_empty());
    }
}
