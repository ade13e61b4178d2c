//! Snapshot store: loads a dataset + ledger snapshot from disk, rebuilds
//! the secondary indexes, and pins the content fingerprint that keys every
//! downstream cache entry.

use dial_chain::Ledger;
use dial_core::experiments::ExperimentContext;
use dial_model::{fnv1a_fold, Dataset, FNV1A_OFFSET};
use dial_time::{Date, Era};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The on-disk snapshot layout shared with `dial generate`.
#[derive(Serialize, Deserialize)]
pub struct Snapshot {
    /// The marketplace dataset.
    pub dataset: Dataset,
    /// The simulated blockchain.
    pub ledger: Ledger,
}

/// Headline counts surfaced by `/summary`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreSummary {
    /// Users in the dataset.
    pub users: usize,
    /// Contracts in the dataset.
    pub contracts: usize,
    /// Forum threads in the dataset.
    pub threads: usize,
    /// Forum posts in the dataset.
    pub posts: usize,
    /// Transactions on the simulated chain.
    pub chain_txs: usize,
}

/// An immutable, fingerprinted snapshot ready for concurrent analysis.
///
/// The wrapped [`ExperimentContext`] is shared by reference across worker
/// threads; its latent-class memoisation (`OnceLock`) makes the expensive
/// LTM fit once per snapshot regardless of how many experiments need it.
pub struct SnapshotStore {
    ctx: Arc<ExperimentContext>,
    fingerprint: String,
    era_fingerprints: [u64; 3],
    summary: StoreSummary,
}

impl SnapshotStore {
    /// Loads a snapshot file written by `dial generate`.
    pub fn load(path: &str, seed: u64, lca_classes: usize) -> Result<Self, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let snap: Snapshot =
            serde_json::from_str(&raw).map_err(|e| format!("parse {path}: {e}"))?;
        Ok(Self::from_parts(snap.dataset.reindex(), snap.ledger.reindex(), seed, lca_classes))
    }

    /// Builds a store from in-memory parts (used by tests and benches).
    pub fn from_parts(dataset: Dataset, ledger: Ledger, seed: u64, lca_classes: usize) -> Self {
        // The fingerprint pairs both content hashes: experiments read the
        // ledger too, so a dataset-only key would alias distinct snapshots.
        let fingerprint = format!("{:016x}-{:016x}", dataset.fingerprint(), ledger.fingerprint());
        let era_fingerprints = era_fingerprints(&dataset, &ledger);
        let summary = StoreSummary {
            users: dataset.users().len(),
            contracts: dataset.contracts().len(),
            threads: dataset.threads().len(),
            posts: dataset.posts().len(),
            chain_txs: ledger.len(),
        };
        let ctx = Arc::new(ExperimentContext::new(dataset, ledger, seed, lca_classes));
        Self { ctx, fingerprint, era_fingerprints, summary }
    }

    /// The shared analysis context.
    pub fn context(&self) -> Arc<ExperimentContext> {
        Arc::clone(&self.ctx)
    }

    /// The snapshot's stable content fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// One era's content fingerprint — the cache key for era-scoped
    /// experiments. Only ingests that change this era's slice move it,
    /// which is what lets warm era-scoped entries survive unrelated
    /// seals.
    pub fn era_fingerprint(&self, era: Era) -> u64 {
        let i = Era::ALL.iter().position(|e| *e == era).unwrap();
        self.era_fingerprints[i]
    }

    /// Headline counts for `/summary`.
    pub fn summary(&self) -> &StoreSummary {
        &self.summary
    }
}

/// The era whose slice an entity dated `date` belongs to; dates outside
/// the study eras clamp to the nearest one so the partition is total.
fn era_of_clamped(date: Date) -> Era {
    if date <= Era::SetUp.end() {
        return Era::SetUp;
    }
    if date >= Era::Covid19.start() {
        return Era::Covid19;
    }
    Era::of(date).unwrap_or(Era::Stable)
}

/// Per-era content fingerprints: each entity's canonical JSON folded
/// into the hash of the era its own timestamp falls in, in id order.
///
/// Because both the batch loader and the stream engine hold entities in
/// id order with identical serialisations, a store built from a sealed
/// stream prefix and one built from the equivalent batch dataset get
/// identical era fingerprints — and a seal that only appends month-M
/// entities only moves the hashes of the eras those entities date to.
fn era_fingerprints(dataset: &Dataset, ledger: &Ledger) -> [u64; 3] {
    let mut hashes = [FNV1A_OFFSET; 3];
    let mut fold = |date: Date, json: String| {
        let era = era_of_clamped(date);
        let i = Era::ALL.iter().position(|e| *e == era).unwrap();
        hashes[i] = fnv1a_fold(hashes[i], json.as_bytes());
    };
    for u in dataset.users() {
        fold(u.joined, serde_json::to_string(u).expect("users serialise"));
    }
    for t in dataset.threads() {
        fold(t.created.date(), serde_json::to_string(t).expect("threads serialise"));
    }
    for c in dataset.contracts() {
        fold(c.created.date(), serde_json::to_string(c).expect("contracts serialise"));
    }
    for p in dataset.posts() {
        fold(p.at.date(), serde_json::to_string(p).expect("posts serialise"));
    }
    for tx in ledger.iter() {
        fold(tx.confirmed_at.date(), serde_json::to_string(tx).expect("txs serialise"));
    }
    hashes
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_sim::SimConfig;

    #[test]
    fn load_round_trips_through_disk_and_keeps_the_fingerprint() {
        let out = SimConfig::paper_default().with_seed(3).with_scale(0.01).simulate_full();
        let in_memory = SnapshotStore::from_parts(out.dataset, out.ledger, 3, 4);

        let out = SimConfig::paper_default().with_seed(3).with_scale(0.01).simulate_full();
        let snap = Snapshot { dataset: out.dataset, ledger: out.ledger };
        let path = std::env::temp_dir().join("dial-serve-store-test.json");
        std::fs::write(&path, serde_json::to_string(&snap).unwrap()).unwrap();
        let loaded = SnapshotStore::load(path.to_str().unwrap(), 3, 4).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.fingerprint(), in_memory.fingerprint());
        assert_eq!(loaded.summary().contracts, in_memory.summary().contracts);
        // The reloaded context answers queries (indexes were rebuilt).
        let ctx = loaded.context();
        assert!(!ctx.dataset.contracts().is_empty());
    }

    #[test]
    fn different_seeds_fingerprint_differently() {
        let a = SimConfig::paper_default().with_seed(3).with_scale(0.01).simulate_full();
        let b = SimConfig::paper_default().with_seed(4).with_scale(0.01).simulate_full();
        let fa = SnapshotStore::from_parts(a.dataset, a.ledger, 0, 4);
        let fb = SnapshotStore::from_parts(b.dataset, b.ledger, 0, 4);
        assert_ne!(fa.fingerprint(), fb.fingerprint());
    }

    #[test]
    fn era_fingerprints_are_stable_distinct_and_delta_sensitive() {
        let out = SimConfig::paper_default().with_seed(3).with_scale(0.01).simulate_full();
        let fps = era_fingerprints(&out.dataset, &out.ledger);
        // Each era actually has content, and the slices differ.
        assert!(fps.iter().all(|f| *f != FNV1A_OFFSET));
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[1], fps[2]);

        // Rebuilding from the same parts is deterministic.
        let again = SimConfig::paper_default().with_seed(3).with_scale(0.01).simulate_full();
        assert_eq!(fps, era_fingerprints(&again.dataset, &again.ledger));

        // Dropping the last post (timestamped in the final era) moves the
        // COVID-19 hash only: the earlier eras' slices are untouched.
        let truncated = again;
        let last = truncated.dataset.posts().last().cloned().unwrap();
        assert_eq!(era_of_clamped(last.at.date()), Era::Covid19);
        let short = Dataset::new(
            truncated.dataset.users().to_vec(),
            truncated.dataset.contracts().to_vec(),
            truncated.dataset.threads().to_vec(),
            truncated.dataset.posts()[..truncated.dataset.posts().len() - 1].to_vec(),
        );
        let cut = era_fingerprints(&short, &truncated.ledger);
        assert_eq!(cut[0], fps[0]);
        assert_eq!(cut[1], fps[1]);
        assert_ne!(cut[2], fps[2]);
    }
}
