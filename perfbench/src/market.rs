//! Seeded inputs: simulated markets, the snapshot files and NDJSON month
//! batches the program receives, and the in-process references its
//! outputs are checked against.

use dial_serve::{Engine, Snapshot, SnapshotStore};
use dial_sim::{SimConfig, SimOutput};
use dial_stream::{encode_ndjson, segments};
use std::path::{Path, PathBuf};

/// The paper's latent-class count (Table 6).
pub const CLASSES: usize = 12;

/// Scale of the panel markets the registry workloads sweep.
pub const PANEL_SCALE: f64 = 0.01;

/// Ids whose runs fit a statistical model: the LCA (`table6`, `table8`,
/// `fig12`, `fig13`), the ZIP regressions (`table9`, `table10`) and the
/// HMM (`ext-dynamics`). Every other registry id is a plain kernel.
pub const FITTER_IDS: [&str; 7] =
    ["table6", "table8", "fig12", "fig13", "table9", "table10", "ext-dynamics"];

/// A SplitMix64 step: a well-mixed 64-bit value from any input.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a of a file's bytes, as 16 hex digits: identifies a build.
pub fn file_digest(path: &Path) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(format!("{:016x}", fnv1a(&bytes)))
}

/// The seed of market `index` of a run: distinct per workload and run seed.
pub fn market_seed(run_seed: u64, workload: &str, index: u64) -> u64 {
    mix(mix(run_seed ^ fnv1a(workload.as_bytes())).wrapping_add(index)) % 1_000_000_007
}

/// Seed of market `index` of the fixed scale-0.01 panel the registry
/// workloads sweep. A full sweep's cost swings 2.9–7.9 s between market
/// seeds (EM iteration counts; the HMM hits its 200-iteration cap on about
/// one market in four), so markets drawn from the run seed would make the
/// run-to-run spread a property of the draw. The panel holds the markets
/// still; the run seed sets the order they are swept in and the id order
/// of every request.
pub fn panel_seed(index: u64) -> u64 {
    market_seed(0, "panel", index)
}

/// A seeded stream of uniform draws in `[0, 1)`.
pub fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut state = mix(seed);
    move || {
        state = mix(state);
        (state >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut next = uniform(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, (next() * (i + 1) as f64) as usize);
    }
    p
}

pub fn simulate(seed: u64, scale: f64) -> SimOutput {
    SimConfig::paper_default().with_seed(seed).with_scale(scale).simulate_full()
}

/// Writes the market as a `dial serve --snapshot` file.
pub fn write_snapshot(out: &SimOutput, path: &Path) -> Result<(), String> {
    let snap = Snapshot { dataset: out.dataset.clone(), ledger: out.ledger.clone() };
    let json = serde_json::to_string(&snap).map_err(|e| format!("encode snapshot: {e:?}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One NDJSON `POST /v1/ingest` body per study month, each ending in the
/// watermark that seals it.
pub fn month_batches(out: &SimOutput) -> Vec<String> {
    segments(out).iter().map(|seg| encode_ndjson(seg)).collect()
}

/// The fingerprint each month's seal must carry: that of a batch-built
/// store over the market's first `m + 1` months.
pub fn prefix_fingerprints(out: &SimOutput) -> Vec<String> {
    out.marks
        .iter()
        .map(|mark| {
            let dataset = dataset_prefix(out, mark);
            let ledger = ledger_prefix(out, mark);
            format!("{:016x}-{:016x}", dataset.fingerprint(), ledger.fingerprint())
        })
        .collect()
}

fn dataset_prefix(out: &SimOutput, mark: &dial_sim::MonthMark) -> dial_model::Dataset {
    dial_model::Dataset::new(
        out.dataset.users()[..mark.users].to_vec(),
        out.dataset.contracts()[..mark.contracts].to_vec(),
        out.dataset.threads()[..mark.threads].to_vec(),
        out.dataset.posts()[..mark.posts].to_vec(),
    )
}

fn ledger_prefix(out: &SimOutput, mark: &dial_sim::MonthMark) -> dial_chain::Ledger {
    let mut ledger = dial_chain::Ledger::new();
    for tx in out.ledger.iter().take(mark.chain_txs) {
        ledger.insert(tx.clone());
    }
    ledger
}

/// Every registry id, in registry order.
pub fn registry_ids() -> Vec<String> {
    dial_serve::registry_experiments().into_iter().map(|e| e.id).collect()
}

/// A batch-built engine over the whole market, as `dial serve --snapshot`
/// would assemble it.
pub fn batch_engine(out: &SimOutput, seed: u64, threads: usize) -> Engine {
    let store = SnapshotStore::from_parts(out.dataset.clone(), out.ledger.clone(), seed, CLASSES);
    Engine::new(store, dial_serve::registry_experiments(), threads, 64)
}

/// The exact `GET /v1/analyze?ids=...` body for `ids`, assembled from the
/// per-id bodies the way the server splices them.
pub fn batch_body(ids: &[String], bodies: &[String]) -> String {
    let results: Vec<String> =
        ids.iter().zip(bodies).map(|(id, body)| format!("\"{id}\":{body}")).collect();
    format!("{{\"results\":{{{}}},\"errors\":{{}}}}", results.join(","))
}

/// A panel market as the registry workloads use it.
pub struct PanelMarket {
    pub seed: u64,
    /// The `dial serve --snapshot` file.
    pub snapshot: PathBuf,
    /// `(id, body)` for every registry id, from an in-process engine over
    /// that same file.
    pub reference: Vec<(String, String)>,
}

/// Panel market `index`, with its snapshot file and reference bodies.
///
/// The reference sweep costs as much as the op it checks, so it is made
/// once per market and build: files go under `.bench_work/ref-<digest of
/// this executable>/`, and a later run of the same build reads them back.
pub fn panel_reference(index: u64) -> Result<PanelMarket, String> {
    let seed = panel_seed(index);
    let dir = reference_dir()?.join(format!("market-{seed}"));
    let snapshot = dir.join("snapshot.json");
    let ids = registry_ids();
    if !dir.is_dir() {
        let tmp = dir.with_extension(format!("tmp{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        let tmp_snapshot = tmp.join("snapshot.json");
        write_snapshot(&simulate(seed, PANEL_SCALE), &tmp_snapshot)?;
        let path = tmp_snapshot.to_str().ok_or("non-utf8 work dir")?;
        let store = SnapshotStore::load(path, seed, CLASSES)?;
        let engine = Engine::new(store, dial_serve::registry_experiments(), crate::THREADS, 64);
        for (id, body) in ids.iter().zip(analyze_all(&engine, &ids)?) {
            std::fs::write(tmp.join(format!("{id}.json")), body)
                .map_err(|e| format!("write reference: {e}"))?;
        }
        // The rename publishes the directory whole, so a run cut short
        // leaves no half-written reference behind.
        std::fs::rename(&tmp, &dir).map_err(|e| format!("publish {}: {e}", dir.display()))?;
    }
    let reference = ids
        .into_iter()
        .map(|id| {
            let body = std::fs::read_to_string(dir.join(format!("{id}.json")))
                .map_err(|e| format!("read reference {id}: {e}"))?;
            Ok((id, body))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(PanelMarket { seed, snapshot, reference })
}

/// `.bench_work/ref-<digest of this executable>`.
fn reference_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(PathBuf::from(".bench_work").join(format!("ref-{}", file_digest(&exe)?)))
}

/// Runs `ids` on `engine` and returns the per-id bodies in order.
pub fn analyze_all(engine: &Engine, ids: &[String]) -> Result<Vec<String>, String> {
    let outcomes = engine.analyze_many(ids).map_err(|e| format!("analyze_many: {e:?}"))?;
    outcomes
        .into_iter()
        .map(|(id, r)| r.map(|b| b.as_ref().clone()).map_err(|e| format!("{id}: {e:?}")))
        .collect()
}
