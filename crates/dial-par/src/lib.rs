//! dial-par: a work-stealing parallel execution layer.
//!
//! The compute-heavy layers of this workspace (bootstrap resampling,
//! EM fits, k-means restarts, multi-experiment runs) are embarrassingly
//! parallel, but the build environment has no crates.io access, so this
//! crate hand-rolls the pool the way `vendor/` hand-rolls rand and serde:
//! std-only, no external deps.
//!
//! Three layers, documented in DESIGN §11:
//!
//! 1. [`Pool`] — `N` worker threads, each owning a deque of tasks, plus a
//!    global injector queue for tasks submitted from outside the pool.
//!    Workers pop their own deque LIFO (locality), then take from the
//!    injector FIFO, then steal the *front* (oldest) task of sibling
//!    deques, scanning round-robin from their own index.
//! 2. Scoped primitives — [`parallel_map`]/[`try_parallel_map`] and
//!    [`join`] execute borrowing closures and block until every subtask
//!    finishes. The calling thread never idles while its own chunks are
//!    pending: it claims them directly from the scope, so a pool worker
//!    can submit subtasks without deadlocking even when every other
//!    worker is busy. Nesting is bounded by a depth guard
//!    ([`MAX_NESTING`]); deeper calls run inline.
//! 3. Pool selection — [`global`] lazily builds the process-wide pool
//!    (size from [`configure_global_threads`] or
//!    `available_parallelism`); [`with_pool`] overrides the pool for a
//!    scope, which is how benches and the serial-vs-parallel equivalence
//!    test run the same code on pools of different widths in one process.
//!
//! # Determinism
//!
//! Every primitive returns results **in input order**, and chunk
//! boundaries never influence per-item results, so any reduction the
//! caller performs over the returned `Vec` is byte-identical no matter
//! how many threads the pool has — including one. Callers must keep two
//! rules for this to hold end-to-end: per-item work may not depend on
//! execution order (derive per-item RNG state up front, serially), and
//! floating-point reductions must happen *after* the map, by folding the
//! ordered results (never inside concurrently-updated accumulators).

mod pool;
mod scope;

pub use pool::Pool;

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, OnceLock};

/// Nested scoped calls beyond this depth run inline: by then the pool is
/// already saturated with coarser chunks, and unbounded task fan-out
/// would only add queueing overhead.
pub const MAX_NESTING: usize = 3;

thread_local! {
    /// Stack of [`with_pool`] overrides (innermost last).
    static POOL_STACK: RefCell<Vec<Arc<Pool>>> = const { RefCell::new(Vec::new()) };
    /// Current scoped-primitive nesting depth on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
static REQUESTED_THREADS: Mutex<Option<usize>> = Mutex::new(None);

/// Requests a size for the process-wide pool. Must run before the first
/// [`global`] call (the CLI does this while parsing `--threads`); returns
/// `false` if the global pool was already built, in which case the call
/// has no effect.
pub fn configure_global_threads(threads: usize) -> bool {
    let threads = threads.max(1);
    *REQUESTED_THREADS.lock().expect("requested-threads lock") = Some(threads);
    GLOBAL.get().is_none_or(|pool| pool.threads() == threads)
}

/// The process-wide pool, built on first use with the configured thread
/// count (default: `available_parallelism`).
pub fn global() -> &'static Arc<Pool> {
    GLOBAL.get_or_init(|| {
        let requested = REQUESTED_THREADS.lock().expect("requested-threads lock").take();
        let threads = requested
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        Pool::new(threads)
    })
}

/// The pool scoped primitives on this thread currently target: the
/// innermost [`with_pool`] override, else the pool owning this worker
/// thread, else the global pool.
pub fn current() -> Arc<Pool> {
    if let Some(pool) = POOL_STACK.with_borrow(|stack| stack.last().cloned()) {
        return pool;
    }
    if let Some(pool) = pool::current_worker_pool() {
        return pool;
    }
    Arc::clone(global())
}

/// Thread count of the [`current`] pool (1 means scoped primitives run
/// inline — the documented serial path).
pub fn current_threads() -> usize {
    current().threads()
}

/// Runs `f` with `pool` as the target of scoped primitives on this
/// thread. Restores the previous target afterwards, panic or not.
pub fn with_pool<R>(pool: &Arc<Pool>, f: impl FnOnce() -> R) -> R {
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            POOL_STACK.with_borrow_mut(|stack| {
                stack.pop();
            });
        }
    }
    POOL_STACK.with_borrow_mut(|stack| stack.push(Arc::clone(pool)));
    let _guard = PopOnDrop;
    f()
}

/// A subtask panicked inside [`try_parallel_map`]. The pool survives
/// (workers catch unwinds); the panic message is preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanicked {
    /// The panic payload rendered as text (`&str`/`String` payloads pass
    /// through; anything else becomes a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parallel task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanicked {}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Maps `f` over `items` on the [`current`] pool, returning results in
/// input order. Runs inline (exactly like `items.into_iter().map(f)`)
/// when the pool has one thread, the input is trivial, or the depth
/// guard trips.
///
/// # Panics
/// Re-raises the first subtask panic after every chunk has settled.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    current().parallel_map(items, f)
}

/// [`parallel_map`] that reports subtask panics as `Err` instead of
/// re-raising them, leaving the pool fully usable.
pub fn try_parallel_map<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>, TaskPanicked>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    current().try_parallel_map(items, f)
}

/// Runs `a` and `b` potentially in parallel on the [`current`] pool and
/// returns both results. The calling thread runs `a` itself; `b` is
/// offered to the pool and reclaimed inline if no worker takes it.
///
/// # Panics
/// Re-raises the first closure panic after both have settled.
pub fn join<RA, RB>(a: impl FnOnce() -> RA + Send, b: impl FnOnce() -> RB + Send) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    current().join(a, b)
}

pub(crate) fn nesting_depth() -> usize {
    DEPTH.with(Cell::get)
}

/// Increments the depth counter for the lifetime of the returned guard.
pub(crate) fn enter_nested() -> impl Drop {
    struct DepthGuard;
    impl Drop for DepthGuard {
        fn drop(&mut self) {
            DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    DEPTH.with(|d| d.set(d.get() + 1));
    DepthGuard
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_pool_is_cached() {
        let a = Arc::as_ptr(global());
        let b = Arc::as_ptr(global());
        assert_eq!(a, b);
    }

    #[test]
    fn with_pool_overrides_and_restores() {
        let pool = Pool::new(2);
        let outer = current_threads();
        let inner = with_pool(&pool, current_threads);
        assert_eq!(inner, 2);
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let pool = Pool::new(3);
        let out = with_pool(&pool, || parallel_map((0..257).collect(), |i: u32| i * 2));
        assert_eq!(out, (0..257).map(|i| i * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let thread = std::thread::current().id();
        let out = with_pool(&pool, || {
            parallel_map(vec![(); 64], |()| std::thread::current().id() == thread)
        });
        assert!(out.iter().all(|same| *same), "1-thread pool must not hop threads");
    }

    #[test]
    fn parallel_map_chunks_run_concurrently() {
        // Each chunk waits until both have started. If the caller held the
        // chunk claim queue while running its own chunk, no worker could
        // claim the other one and both waits would time out.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        let pool = Pool::new(2);
        let started = AtomicUsize::new(0);
        let met = with_pool(&pool, || {
            parallel_map(vec![0, 1], |_| {
                started.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while started.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                started.load(Ordering::SeqCst) == 2
            })
        });
        assert_eq!(met, [true, true], "parallel_map ran its two chunks one after the other");
    }

    #[test]
    fn join_returns_both_results() {
        let pool = Pool::new(2);
        let (a, b) = with_pool(&pool, || join(|| 1 + 1, || "two".len()));
        assert_eq!((a, b), (2, 3));
    }
}
