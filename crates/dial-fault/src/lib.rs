//! dial-fault: deterministic fault injection for the serve/par stack.
//!
//! Production hardening needs failures on demand, and *replayable*
//! failures at that: a chaos test that fires on a wall-clock coin flip
//! cannot be debugged. Everything here is therefore seeded and
//! counter-driven — a [`ChaosPlan`] names the injection points it wants
//! to perturb and the decision of whether hit *k* at point *p* fires is a
//! pure function of `(seed, p, k)`. Two runs that drive the same event
//! sequence through the stack observe byte-identical fault sequences.
//!
//! Three modules:
//!
//! 1. This root — the [`ChaosPlan`] / [`FaultPoint`] / [`inject`] layer.
//!    Injection sites in `dial-serve` (socket reads/writes, handlers, the
//!    result cache) and `dial-par` (chunk execution, task queues) call
//!    [`inject`] with their point; the call is a single relaxed atomic
//!    load when no plan is installed, so production pays nothing.
//! 2. [`deadline`] — a thread-local request deadline budget with
//!    cooperative checkpoints, shared by the HTTP layer, the engine, and
//!    the pool's chunk boundaries.
//! 3. [`retry`] — a jittered-exponential-backoff retry client whose
//!    jitter comes from the seed, not the clock, so tests exercising
//!    retries stay deterministic.
//!
//! # Installing a plan
//!
//! [`install`] swaps the process-global plan and returns a guard that
//! restores the previous state on drop. Installation is process-global by
//! design (injection sites live in crates that cannot see a per-server
//! handle); tests that install plans must serialise themselves — the
//! chaos suite holds one shared mutex across its tests.

pub mod deadline;
pub mod retry;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

/// Panic message used by injected worker panics; exposed so layers above
/// can distinguish injected chaos from organic bugs in assertions.
pub const INJECTED_PANIC: &str = "dial-fault: injected worker panic";

/// Named places in the stack where faults can fire. The numeric value
/// indexes per-point counters and feeds the seeded fire decision, so the
/// order here is part of a plan's replay identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// dial-serve: before each socket read while parsing a request head.
    SlowRead = 0,
    /// dial-serve: while writing a response (truncates the write).
    TruncWrite = 1,
    /// dial-serve: after the request head parses, before routing.
    HandlerStall = 2,
    /// dial-serve: a tampered insert attempted against the result cache.
    CachePoison = 3,
    /// dial-par: at the start of a map chunk / join arm (panics).
    WorkerPanic = 4,
    /// dial-par: before a task is enqueued on the pool.
    QueueStall = 5,
    /// dial-serve: while draining an ingest batch body (delays the read).
    IngestStall = 6,
    /// dial-stream: inside a watermark seal, before the commit (panics).
    SealPanic = 7,
    /// dial-store: while appending a sealed batch (writes only a prefix
    /// of the batch and skips the fsync — a simulated power cut).
    TornWrite = 8,
    /// dial-store: before the fsync that makes a sealed batch durable.
    FsyncStall = 9,
    /// dial-store: at the top of a checkpoint write, before any state is
    /// touched (panics).
    CheckpointPanic = 10,
    /// dial-replicate: before a follower fetches a sync batch from its
    /// leader (delays the fetch — a slow or congested leader).
    SyncStall = 11,
    /// dial-store: while exporting a sealed batch for replication (flips
    /// one byte so the follower's CRC/fingerprint verification must
    /// reject the fetch).
    SegmentCorrupt = 12,
    /// dial-serve: before answering a coordination request (`/v1/cluster`
    /// or `/v1/promote`). Delaying exactly that surface makes the node
    /// look dead to a router's prober while its sync and analyze paths
    /// keep working — an isolated node, not a crashed one.
    Netsplit = 13,
    /// dial-serve: inside a promotion, after the peer survey but before
    /// the epoch bump (delays — the window where a competing promotion
    /// can land first and fence this one off).
    PromoteStall = 14,
}

/// Number of distinct [`FaultPoint`]s (sizes the counter arrays).
const POINTS: usize = 15;

impl FaultPoint {
    /// Stable name used by the `--chaos` spec and in event logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::SlowRead => "slow_read",
            FaultPoint::TruncWrite => "trunc_write",
            FaultPoint::HandlerStall => "stall",
            FaultPoint::CachePoison => "poison",
            FaultPoint::WorkerPanic => "worker_panic",
            FaultPoint::QueueStall => "queue_stall",
            FaultPoint::IngestStall => "ingest_stall",
            FaultPoint::SealPanic => "seal_panic",
            FaultPoint::TornWrite => "torn_write",
            FaultPoint::FsyncStall => "fsync_stall",
            FaultPoint::CheckpointPanic => "ckpt_panic",
            FaultPoint::SyncStall => "sync_stall",
            FaultPoint::SegmentCorrupt => "segment_corrupt",
            FaultPoint::Netsplit => "netsplit",
            FaultPoint::PromoteStall => "promote_stall",
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "slow_read" => FaultPoint::SlowRead,
            "trunc_write" => FaultPoint::TruncWrite,
            "stall" => FaultPoint::HandlerStall,
            "poison" => FaultPoint::CachePoison,
            "worker_panic" => FaultPoint::WorkerPanic,
            "queue_stall" => FaultPoint::QueueStall,
            "ingest_stall" => FaultPoint::IngestStall,
            "seal_panic" => FaultPoint::SealPanic,
            "torn_write" => FaultPoint::TornWrite,
            "fsync_stall" => FaultPoint::FsyncStall,
            "ckpt_panic" => FaultPoint::CheckpointPanic,
            "sync_stall" => FaultPoint::SyncStall,
            "segment_corrupt" => FaultPoint::SegmentCorrupt,
            "netsplit" => FaultPoint::Netsplit,
            "promote_stall" => FaultPoint::PromoteStall,
            _ => return None,
        })
    }
}

/// When a rule fires, as a pure function of the per-point hit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fire on every `n`-th hit (hits 1, n+1 are misses; hit `n` fires).
    Nth(u64),
    /// Fire on `pct`% of hits, chosen by hashing `(seed, point, hit)`.
    Rate(u8),
}

/// One fault rule: where, when, and with what parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The injection point this rule watches.
    pub point: FaultPoint,
    /// When the rule fires.
    pub trigger: Trigger,
    /// Delay applied by `slow_read` / `stall` / `queue_stall` fires.
    pub delay_ms: u64,
    /// Bytes kept by a `trunc_write` fire.
    pub keep_bytes: usize,
    /// Maximum number of fires (`None` = unlimited); lets a test inject a
    /// burst and then observe clean behaviour under the same install.
    pub limit: Option<u64>,
}

/// What an injection site should do when its point fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep for this long before proceeding.
    Delay(Duration),
    /// Panic with [`INJECTED_PANIC`].
    Panic,
    /// Write only the first `n` bytes of the response, then stop.
    Truncate(usize),
    /// Attempt a tampered cache insert (the cache must reject it).
    Poison,
    /// Flip one byte at this offset in an outgoing sealed batch (the
    /// receiver's CRC verification must catch it).
    Corrupt(usize),
}

/// One recorded fire, in process-global order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The point that fired.
    pub point: FaultPoint,
    /// Zero-based hit index at that point when it fired.
    pub hit: u64,
    /// The action the site was told to take.
    pub action: FaultAction,
}

/// A seeded, replayable fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed feeding every rate decision (and the event log identity).
    pub seed: u64,
    /// The rules, consulted in order; the first matching rule wins.
    pub rules: Vec<FaultRule>,
}

impl ChaosPlan {
    /// Parses the compact spec used by `dial serve --chaos`.
    ///
    /// Grammar: `;`-separated tokens. `seed=N` sets the seed; every other
    /// token is a rule `point@N` (every N-th hit) or `point%P` (P% of
    /// hits), optionally followed by `:delay=MS`, `:bytes=K`, `:limit=L`.
    ///
    /// ```
    /// let plan = dial_fault::ChaosPlan::parse(
    ///     "seed=7;slow_read@2:delay=150;trunc_write@1:bytes=20:limit=1",
    /// )
    /// .unwrap();
    /// assert_eq!(plan.seed, 7);
    /// assert_eq!(plan.rules.len(), 2);
    /// ```
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for token in spec.split(';').map(str::trim).filter(|t| !t.is_empty()) {
            if let Some(v) = token.strip_prefix("seed=") {
                seed = v.parse().map_err(|_| format!("bad seed in chaos spec: {token:?}"))?;
                continue;
            }
            let mut parts = token.split(':');
            let head = parts.next().expect("split yields at least one part");
            let (name, trigger) = if let Some((name, n)) = head.split_once('@') {
                let n: u64 = n.parse().map_err(|_| format!("bad @N in chaos rule {token:?}"))?;
                if n == 0 {
                    return Err(format!("@N must be >= 1 in chaos rule {token:?}"));
                }
                (name, Trigger::Nth(n))
            } else if let Some((name, p)) = head.split_once('%') {
                let p: u8 = p.parse().map_err(|_| format!("bad %P in chaos rule {token:?}"))?;
                if p > 100 {
                    return Err(format!("%P must be <= 100 in chaos rule {token:?}"));
                }
                (name, Trigger::Rate(p))
            } else {
                (head, Trigger::Nth(1))
            };
            let point = FaultPoint::from_name(name)
                .ok_or_else(|| format!("unknown chaos point {name:?} in {token:?}"))?;
            let mut rule = FaultRule { point, trigger, delay_ms: 100, keep_bytes: 16, limit: None };
            for opt in parts {
                let (k, v) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("bad option {opt:?} in chaos rule {token:?}"))?;
                let parsed: u64 =
                    v.parse().map_err(|_| format!("bad value {v:?} in chaos rule {token:?}"))?;
                match k {
                    "delay" => rule.delay_ms = parsed,
                    "bytes" => rule.keep_bytes = parsed as usize,
                    "limit" => rule.limit = Some(parsed),
                    _ => return Err(format!("unknown option {k:?} in chaos rule {token:?}")),
                }
            }
            rules.push(rule);
        }
        Ok(Self { seed, rules })
    }
}

/// Live state of an installed plan: the per-point hit/fire counters and
/// the ordered event log.
struct Chaos {
    plan: ChaosPlan,
    hits: [AtomicU64; POINTS],
    /// Fires per *rule* (not per point), for `limit` enforcement.
    fires: Vec<AtomicU64>,
    events: Mutex<Vec<FaultEvent>>,
}

impl Chaos {
    fn new(plan: ChaosPlan) -> Self {
        let fires = plan.rules.iter().map(|_| AtomicU64::new(0)).collect();
        Self { plan, hits: Default::default(), fires, events: Mutex::new(Vec::new()) }
    }

    fn inject(&self, point: FaultPoint) -> Option<FaultAction> {
        let hit = self.hits[point as usize].fetch_add(1, Ordering::SeqCst);
        let (rule_idx, rule) =
            self.plan.rules.iter().enumerate().find(|(_, r)| r.point == point)?;
        let fires = match rule.trigger {
            Trigger::Nth(n) => (hit + 1).is_multiple_of(n),
            Trigger::Rate(pct) => {
                splitmix64(self.plan.seed ^ ((point as u64) << 32) ^ hit) % 100 < pct as u64
            }
        };
        if !fires {
            return None;
        }
        if let Some(limit) = rule.limit {
            // Claim one of the `limit` fire slots; losing the claim means
            // the rule is exhausted and this hit passes through clean.
            let claimed = self.fires[rule_idx]
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |f| (f < limit).then_some(f + 1))
                .is_ok();
            if !claimed {
                return None;
            }
        } else {
            self.fires[rule_idx].fetch_add(1, Ordering::SeqCst);
        }
        let action = match point {
            FaultPoint::SlowRead
            | FaultPoint::HandlerStall
            | FaultPoint::QueueStall
            | FaultPoint::IngestStall
            | FaultPoint::FsyncStall
            | FaultPoint::SyncStall
            | FaultPoint::Netsplit
            | FaultPoint::PromoteStall => FaultAction::Delay(Duration::from_millis(rule.delay_ms)),
            FaultPoint::TruncWrite | FaultPoint::TornWrite => {
                FaultAction::Truncate(rule.keep_bytes)
            }
            // `bytes=` doubles as the corruption offset for this point.
            FaultPoint::SegmentCorrupt => FaultAction::Corrupt(rule.keep_bytes),
            FaultPoint::WorkerPanic | FaultPoint::SealPanic | FaultPoint::CheckpointPanic => {
                FaultAction::Panic
            }
            FaultPoint::CachePoison => FaultAction::Poison,
        };
        self.events.lock().expect("chaos event log lock").push(FaultEvent { point, hit, action });
        Some(action)
    }
}

/// Fast path gate: injection sites check this single atomic before
/// touching the `RwLock`, so an uninstrumented process pays one relaxed
/// load per site.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn active() -> &'static RwLock<Option<Arc<Chaos>>> {
    static ACTIVE: OnceLock<RwLock<Option<Arc<Chaos>>>> = OnceLock::new();
    ACTIVE.get_or_init(|| RwLock::new(None))
}

/// Uninstalls the plan it guards on drop, restoring a chaos-free process.
pub struct ChaosGuard {
    _private: (),
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        *active().write().expect("chaos install lock") = None;
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// Installs `plan` process-wide (fresh counters and event log) and
/// returns the guard that uninstalls it. Installs are global: concurrent
/// tests must serialise around them.
pub fn install(plan: ChaosPlan) -> ChaosGuard {
    *active().write().expect("chaos install lock") = Some(Arc::new(Chaos::new(plan)));
    ENABLED.store(true, Ordering::SeqCst);
    ChaosGuard { _private: () }
}

/// Consults the installed plan at `point`. `None` (the overwhelmingly
/// common answer) means proceed normally; otherwise the site applies the
/// returned action. Every fire is appended to the event log.
pub fn inject(point: FaultPoint) -> Option<FaultAction> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let chaos = active().read().expect("chaos install lock").clone()?;
    chaos.inject(point)
}

/// Snapshot of every fault fired so far under the current install, in
/// fire order. Empty when no plan is installed.
pub fn events() -> Vec<FaultEvent> {
    match active().read().expect("chaos install lock").as_ref() {
        Some(chaos) => chaos.events.lock().expect("chaos event log lock").clone(),
        None => Vec::new(),
    }
}

/// Total fires under the current install.
pub fn fired_total() -> u64 {
    match active().read().expect("chaos install lock").as_ref() {
        Some(chaos) => chaos.fires.iter().map(|f| f.load(Ordering::SeqCst)).sum(),
        None => 0,
    }
}

/// SplitMix64: the standard 64-bit finaliser, used for every seeded
/// decision (rate fires, retry jitter) and for the router's rendezvous
/// scores. Small, fast, and good enough — this is schedule diversity and
/// key spreading, not cryptography.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Installs are process-global; every test that installs holds this.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parse_round_trips_the_readme_example() {
        let plan =
            ChaosPlan::parse("seed=7; slow_read@2:delay=150; trunc_write%10:bytes=20:limit=3")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(
            plan.rules[0],
            FaultRule {
                point: FaultPoint::SlowRead,
                trigger: Trigger::Nth(2),
                delay_ms: 150,
                keep_bytes: 16,
                limit: None,
            }
        );
        assert_eq!(plan.rules[1].trigger, Trigger::Rate(10));
        assert_eq!(plan.rules[1].keep_bytes, 20);
        assert_eq!(plan.rules[1].limit, Some(3));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["seed=x", "nope@2", "slow_read@0", "slow_read%101", "stall:wat=1", "stall:x"] {
            assert!(ChaosPlan::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nth_trigger_fires_on_exact_multiples() {
        let _serial = serial();
        let plan = ChaosPlan::parse("stall@3:delay=1").unwrap();
        let _guard = install(plan);
        let fired: Vec<bool> = (0..9).map(|_| inject(FaultPoint::HandlerStall).is_some()).collect();
        assert_eq!(
            fired,
            [false, false, true, false, false, true, false, false, true],
            "every 3rd hit fires"
        );
        assert_eq!(events().len(), 3);
        assert_eq!(events()[0].hit, 2);
    }

    #[test]
    fn rate_trigger_is_deterministic_per_seed() {
        let _serial = serial();
        let run = |seed: u64| -> Vec<bool> {
            let _guard = install(ChaosPlan::parse(&format!("seed={seed};slow_read%30")).unwrap());
            (0..64).map(|_| inject(FaultPoint::SlowRead).is_some()).collect()
        };
        let a = run(11);
        let b = run(11);
        let c = run(12);
        assert_eq!(a, b, "same seed, same fire pattern");
        assert_ne!(a, c, "different seed perturbs the pattern");
        let rate = a.iter().filter(|f| **f).count();
        assert!((8..=30).contains(&rate), "~30% of 64 hits should fire, got {rate}");
    }

    #[test]
    fn limit_caps_fires_and_then_passes_clean() {
        let _serial = serial();
        let _guard = install(ChaosPlan::parse("worker_panic@1:limit=2").unwrap());
        let fired: Vec<bool> = (0..5).map(|_| inject(FaultPoint::WorkerPanic).is_some()).collect();
        assert_eq!(fired, [true, true, false, false, false]);
        assert_eq!(fired_total(), 2);
    }

    #[test]
    fn uninstall_restores_silence() {
        let _serial = serial();
        {
            let _guard = install(ChaosPlan::parse("stall@1").unwrap());
            assert!(inject(FaultPoint::HandlerStall).is_some());
        }
        assert!(inject(FaultPoint::HandlerStall).is_none());
        assert!(events().is_empty());
    }

    #[test]
    fn points_map_actions_by_kind() {
        let _serial = serial();
        let _guard = install(
            ChaosPlan::parse("slow_read@1:delay=7;trunc_write@1:bytes=3;worker_panic@1;poison@1")
                .unwrap(),
        );
        assert_eq!(
            inject(FaultPoint::SlowRead),
            Some(FaultAction::Delay(Duration::from_millis(7)))
        );
        assert_eq!(inject(FaultPoint::TruncWrite), Some(FaultAction::Truncate(3)));
        assert_eq!(inject(FaultPoint::WorkerPanic), Some(FaultAction::Panic));
        assert_eq!(inject(FaultPoint::CachePoison), Some(FaultAction::Poison));
        assert_eq!(inject(FaultPoint::QueueStall), None, "no rule for queue_stall");
    }
}
