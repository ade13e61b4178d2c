//! Fitter golden pin: the LCA, HMM, ZIP and GLM fitters must reproduce
//! these exact bits.
//!
//! The registry experiments built on the fitters (Table 6/8/9/10, Figures
//! 12–13 and the HMM dynamics extension) are pinned by the FNV-1a digest
//! of their `run_json` body on one fixed scale-0.01 market, at pool widths
//! 1 and 2. The fitters themselves are pinned directly on small planted
//! data by `f64::to_bits` of the maximised log-likelihood and the
//! iteration count. Any kernel change that reorders a floating-point
//! expression, or changes which iterate a fit stops at, moves a pin; a
//! change that only precomputes iteration-invariant operands does not.

use dial_market::core::experiments::{all_experiments, extension_experiments, ExperimentContext};
use dial_market::prelude::*;
use dial_market::stats::glm::design_with_intercept;
use dial_market::stats::{
    HmmLtm, LcaModel, LogisticRegression, PoissonRegression, VuongTest, ZipModel,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 29;
const SCALE: f64 = 0.01;
const CLASSES: usize = 12;

/// `(experiment id, FNV-1a digest of its run_json body)`.
const REGISTRY_PINS: [(&str, u64); 7] = [
    ("table6", 0x2de2_c124_6d3e_d51d),
    ("table8", 0x751c_0f37_a522_c68f),
    ("fig12", 0xad2e_6898_8ae0_0706),
    ("fig13", 0x71a9_076a_ccc5_7fff),
    ("table9", 0x6a11_74d1_7189_95e0),
    ("table10", 0x3ce6_44c8_ee82_efae),
    ("ext-dynamics", 0x770e_3f85_7862_0f8a),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Digests of the pinned experiments, run concurrently on a pool of
/// `threads` workers as `dial analyze` and the server do.
fn registry_digests(threads: usize) -> Vec<(&'static str, u64)> {
    let pool = dial_par::Pool::new(threads);
    dial_par::with_pool(&pool, || {
        let out = SimConfig::paper_default().with_seed(SEED).with_scale(SCALE).simulate_full();
        let ctx = ExperimentContext::new(out.dataset, out.ledger, SEED, CLASSES);
        let registry: Vec<_> =
            all_experiments().into_iter().chain(extension_experiments()).collect();
        let pinned: Vec<_> = REGISTRY_PINS
            .iter()
            .map(|(id, _)| registry.iter().find(|e| e.id == *id).expect("pinned id registered"))
            .collect();
        let bodies = dial_par::parallel_map(pinned.clone(), |e| e.run_json(&ctx));
        pinned.iter().zip(bodies).map(|(e, body)| (e.id, fnv1a(body.as_bytes()))).collect()
    })
}

fn check_registry(threads: usize) {
    let got = registry_digests(threads);
    for ((id, want), (got_id, got)) in REGISTRY_PINS.iter().zip(&got) {
        assert_eq!(id, got_id);
        assert_eq!(*got, *want, "{id} at width {threads}: digest {got:#018x}, pinned {want:#018x}");
    }
}

#[test]
fn registry_fitter_bodies_are_pinned_at_width_1() {
    check_registry(1);
}

#[test]
fn registry_fitter_bodies_are_pinned_at_width_2() {
    check_registry(2);
}

/// Knuth's Poisson sampler; the planted rates are small.
fn poisson_draw(lambda: f64, rng: &mut impl Rng) -> f64 {
    let l = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.random_range(0.0..1.0f64);
        if p <= l {
            return f64::from(k);
        }
        k += 1;
    }
}

fn pin(what: &str, log_lik: f64, iterations: usize, want: (u64, usize)) {
    assert_eq!(
        (log_lik.to_bits(), iterations),
        want,
        "{what}: log_lik {log_lik} ({:#018x}) after {iterations} iterations",
        log_lik.to_bits()
    );
}

#[test]
fn lca_fit_best_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let profiles = [[0.2, 4.0, 0.1], [5.0, 0.3, 1.5], [1.0, 1.0, 8.0]];
    let data: Vec<Vec<f64>> = (0..600)
        .map(|i| profiles[i % 3].iter().map(|l| poisson_draw(*l, &mut rng)).collect())
        .collect();
    let fit = LcaModel { k: 3 }.fit_best(&data, 3, &mut rng);
    pin("lca", fit.log_lik, fit.iterations, (0xc0a8_4108_4935_fef5, 9));
}

#[test]
fn hmm_fit_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let rates = [[0.3, 6.0], [5.0, 0.2]];
    let stay = [0.85, 0.7];
    let seqs: Vec<Vec<Vec<f64>>> = (0..80)
        .map(|_| {
            let mut s = usize::from(rng.random_range(0.0..1.0) < 0.5);
            (0..10)
                .map(|_| {
                    let obs = rates[s].iter().map(|l| poisson_draw(*l, &mut rng)).collect();
                    if rng.random_range(0.0..1.0) >= stay[s] {
                        s = 1 - s;
                    }
                    obs
                })
                .collect()
        })
        .collect();
    let fit = HmmLtm { k: 2 }.fit(&seqs, None, &mut rng);
    pin("hmm", fit.log_lik, fit.iterations, (0xc0a5_9994_b80b_d45b, 7));
}

/// Planted ZIP data: `λ = exp(0.8 + 0.5x)`, `π = sigmoid(-0.4 + 0.9x)`.
fn planted_zip(rng: &mut impl Rng) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rows = Vec::new();
    let mut y = Vec::new();
    for _ in 0..800 {
        let x = rng.random_range(-1.0..1.0f64);
        let pi = 1.0 / (1.0 + (0.4 - 0.9 * x).exp());
        let inflated = rng.random_range(0.0..1.0) < pi;
        let count = poisson_draw((0.8 + 0.5 * x).exp(), rng);
        rows.push(vec![x]);
        y.push(if inflated { 0.0 } else { count });
    }
    (rows, y)
}

#[test]
fn zip_and_vuong_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(47);
    let (rows, y) = planted_zip(&mut rng);
    let x = design_with_intercept(&rows);
    let zip = ZipModel::fit(&x, &x, &y).unwrap();
    pin("zip", zip.log_lik, zip.em_iterations, (0xc092_b083_ab99_fd90, 36));
    let se_bits: Vec<u64> = zip.count_se.iter().chain(&zip.zero_se).map(|s| s.to_bits()).collect();
    assert_eq!(
        se_bits,
        [
            0x3fa2_cc9b_d25a_a100,
            0x3fb0_6f54_09e5_44bc,
            0x3fb7_84ad_004a_88d2,
            0x3fc4_bf6b_5dcc_189a
        ],
        "zip standard errors moved"
    );
    let pois = PoissonRegression::fit(&x, &y, None).unwrap();
    let vuong = VuongTest::zip_vs_poisson(&x, &x, &y, &zip, &pois);
    pin("vuong", vuong.statistic, 0, (0x4023_eead_ab9b_ac7c, 0));
}

#[test]
fn glm_fits_are_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(53);
    let (rows, y) = planted_zip(&mut rng);
    let x = design_with_intercept(&rows);
    let weights: Vec<f64> = (0..y.len()).map(|_| rng.random_range(0.1..1.0)).collect();
    let pois = PoissonRegression::fit(&x, &y, Some(&weights)).unwrap();
    pin("poisson", pois.log_lik, pois.iterations, (0xc087_c444_c188_2bb1, 4));
    let se_bits: Vec<u64> = pois.std_err.iter().map(|s| s.to_bits()).collect();
    assert_eq!(
        se_bits,
        [0x3fa5_69b0_9e4f_8784, 0x3fb3_2987_8368_c673],
        "poisson standard errors moved"
    );
    let zero: Vec<f64> = y.iter().map(|v| f64::from(u8::from(*v < 0.5))).collect();
    let logit = LogisticRegression::fit(&x, &zero, None).unwrap();
    pin("logistic", logit.log_lik, logit.iterations, (0xc081_137e_43f0_0148, 4));
    let se_bits: Vec<u64> = logit.std_err.iter().map(|s| s.to_bits()).collect();
    assert_eq!(
        se_bits,
        [0x3fb2_494c_67a7_e477, 0x3fc0_afbc_6802_d717],
        "logistic standard errors moved"
    );
}
