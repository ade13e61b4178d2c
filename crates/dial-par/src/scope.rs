//! Scoped execution: the machinery that lets borrowing closures run on
//! pool workers without `'static` bounds.
//!
//! Soundness rests on two invariants:
//!
//! 1. **A scope's stack frame outlives every access to it from a
//!    worker.** Tickets queued on the pool own only an `Arc` of a
//!    `'static` control block — a claim queue plus a type-erased pointer
//!    to the stack scope. Work can only be claimed from that queue while
//!    the caller is still blocked inside the scope (the caller returns
//!    only once every claim has finished executing), and a ticket that
//!    finds nothing to claim never touches the pointer. Leftover tickets
//!    drained after the scope returns merely drop their `Arc` of the
//!    control block, which owns no borrowed data.
//! 2. **Completion is signalled through the control block, never the
//!    scope.** The completion latch (`remaining` / `done`) and its
//!    condvar live in the Arc-owned control block: the instant a worker
//!    publishes the final result, the caller may observe it and return,
//!    freeing the scope — so the worker's post-publication lock and
//!    notify must touch only heap memory its own `Arc` keeps alive.

use crate::pool::{Pool, Task};
use crate::{enter_nested, nesting_depth, panic_message, TaskPanicked, MAX_NESTING};
use std::any::Any;
use std::collections::VecDeque;
use std::mem;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Chunk preamble shared by every execution path (parallel, inline, and
/// join arms): re-establish the caller's deadline budget on this thread,
/// volunteer cancellation if it already passed, and give the chaos layer
/// its shot at an injected worker panic. Runs inside the per-chunk
/// `catch_unwind`, so both the deadline unwind and the injected panic are
/// reported through the normal panic channel.
fn chunk_prologue() {
    dial_fault::deadline::checkpoint();
    if let Some(dial_fault::FaultAction::Panic) =
        dial_fault::inject(dial_fault::FaultPoint::WorkerPanic)
    {
        std::panic::panic_any(dial_fault::INJECTED_PANIC.to_string());
    }
}

/// Chunks handed out per pool thread. More than one so an early-finishing
/// thread can keep stealing; not so many that queueing dominates.
const CHUNKS_PER_THREAD: usize = 4;

/// One chunk's lifecycle inside a [`MapScope`].
enum Slot<T, R> {
    /// Not yet claimed: owns its share of the input.
    Input(Vec<T>),
    /// Claimed by some thread; its input is on that thread's stack.
    Running,
    /// Finished: owns this chunk's outputs, in input order.
    Output(Vec<R>),
    /// Output moved out by the caller (or the chunk panicked).
    Drained,
}

/// The stack-resident state of one `parallel_map` call: only what chunk
/// execution reads and writes. Completion signalling lives in the
/// heap-resident [`MapControl`] so nothing here is touched once the
/// caller is allowed to return.
struct MapScope<T, R, F> {
    f: F,
    slots: Vec<Mutex<Slot<T, R>>>,
    /// First panic payload from any chunk.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The caller's deadline budget, re-established on whichever worker
    /// thread executes each chunk so [`dial_fault::deadline::checkpoint`]
    /// calls inside `f` observe it.
    deadline: Option<Instant>,
}

/// The `'static` half shared with queued tickets.
struct MapControl {
    /// Chunk ids not yet claimed. Popping one is the claim.
    pending: Mutex<VecDeque<usize>>,
    /// Chunks not yet finished; the caller may return only at zero. Lives
    /// here — kept alive by each ticket's `Arc` — so the decrement to
    /// zero is a worker's *last* access to anything scope-lived, and the
    /// notify under this lock touches only heap memory.
    remaining: Mutex<usize>,
    done_cv: Condvar,
    /// Erased `*const MapScope<T, R, F>`; only dereferenced by the holder
    /// of a freshly popped chunk id.
    scope: *const (),
}

// Safety: the pointer is only dereferenced under the scope-liveness
// invariant documented at module level; everything else is Sync.
unsafe impl Send for MapControl {}
unsafe impl Sync for MapControl {}

impl<T, R, F> MapScope<T, R, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Executes one claimed chunk, records its output or panic, and
    /// retires it on the control block's latch.
    fn run_chunk(&self, idx: usize, control: &MapControl) {
        let taken =
            mem::replace(&mut *self.slots[idx].lock().expect("map slot lock"), Slot::Running);
        let Slot::Input(items) = taken else { unreachable!("map chunk {idx} claimed twice") };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _nested = enter_nested();
            dial_fault::deadline::with_deadline(self.deadline, || {
                chunk_prologue();
                items.into_iter().map(&self.f).collect::<Vec<R>>()
            })
        }));
        match outcome {
            Ok(out) => *self.slots[idx].lock().expect("map slot lock") = Slot::Output(out),
            Err(payload) => {
                *self.slots[idx].lock().expect("map slot lock") = Slot::Drained;
                let mut first = self.panic.lock().expect("map panic lock");
                if first.is_none() {
                    *first = Some(payload);
                }
            }
        }
        // Once `remaining` hits zero the caller may return and free
        // `self`, so from the decrement on, only `control` (heap, kept
        // alive by the running ticket's Arc) may be touched.
        let mut remaining = control.remaining.lock().expect("map done lock");
        *remaining -= 1;
        if *remaining == 0 {
            control.done_cv.notify_all();
        }
    }
}

/// Ticket body for one map chunk: claim any pending chunk and run it.
///
/// # Safety
/// `data` must come from `Arc::into_raw` of the `MapControl` paired with
/// a `MapScope<T, R, F>` of exactly these type parameters.
unsafe fn run_map_ticket<T, R, F>(data: *mut ())
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // Safety: per contract, data is an owned MapControl handle.
    let control = unsafe { Arc::from_raw(data as *const MapControl) };
    let idx = control.pending.lock().expect("map pending lock").pop_front();
    if let Some(idx) = idx {
        // Safety: holding an unfinished chunk id proves the caller is
        // still blocked in `map_on`, so the scope is alive.
        let scope = unsafe { &*(control.scope as *const MapScope<T, R, F>) };
        scope.run_chunk(idx, &control);
    }
}

/// Ticket release path (queue dropped before the ticket ran).
///
/// # Safety
/// Same provenance contract as [`run_map_ticket`]; only the `'static`
/// control block is touched.
unsafe fn release_map_ticket(data: *mut ()) {
    // Safety: per contract, data is an owned MapControl handle.
    drop(unsafe { Arc::from_raw(data as *const MapControl) });
}

/// Serial fallback shared by every inline path; preserves the
/// panic-as-`Err` contract of the parallel path.
fn map_inline<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>, TaskPanicked>
where
    F: Fn(T) -> R,
{
    catch_unwind(AssertUnwindSafe(|| {
        chunk_prologue();
        items.into_iter().map(&f).collect()
    }))
    .map_err(|payload| TaskPanicked { message: panic_message(payload.as_ref()) })
}

/// The engine behind [`crate::parallel_map`]: fixed chunking, ordered
/// merge, caller helps with its own chunks while waiting.
pub(crate) fn map_on<T, R, F>(pool: &Arc<Pool>, items: Vec<T>, f: F) -> Result<Vec<R>, TaskPanicked>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if pool.threads() == 1 || items.len() <= 1 || nesting_depth() >= MAX_NESTING {
        return map_inline(items, f);
    }
    let len = items.len();
    let chunk_count = len.min(pool.threads() * CHUNKS_PER_THREAD);
    let chunk_size = len.div_ceil(chunk_count);
    let mut slots = Vec::with_capacity(chunk_count);
    let mut feed = items.into_iter();
    loop {
        let chunk: Vec<T> = feed.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        slots.push(Mutex::new(Slot::Input(chunk)));
    }
    let n = slots.len();
    let scope =
        MapScope { f, slots, panic: Mutex::new(None), deadline: dial_fault::deadline::current() };
    let control = Arc::new(MapControl {
        pending: Mutex::new((0..n).collect()),
        remaining: Mutex::new(n),
        done_cv: Condvar::new(),
        scope: &scope as *const MapScope<T, R, F> as *const (),
    });
    // One ticket per chunk beyond the one the caller will run itself;
    // tickets that lose the claim race to the caller are no-ops.
    for _ in 1..n {
        let handle = Arc::into_raw(Arc::clone(&control)) as *mut ();
        // Safety: handle is an owned MapControl of matching type params,
        // and the loop below blocks until every claimed chunk finishes.
        let task = unsafe { Task::from_raw(handle, run_map_ticket::<T, R, F>, release_map_ticket) };
        pool.push_task(task);
    }
    // Help with any chunk nobody has claimed yet; the claim queue never
    // refills, so an empty pop means every chunk is running or done. The
    // claim is its own statement so the queue lock is released before
    // the chunk runs: a `while let` scrutinee's guard would live through
    // the loop body and keep every ticket waiting until the caller had
    // run the chunks alone.
    loop {
        let claimed = control.pending.lock().expect("map pending lock").pop_front();
        let Some(idx) = claimed else { break };
        scope.run_chunk(idx, &control);
    }
    // Wait out the stragglers other threads claimed. Workers decrement
    // and notify under this same lock, so the wakeup cannot be lost.
    let mut remaining = control.remaining.lock().expect("map done lock");
    while *remaining != 0 {
        remaining = control.done_cv.wait(remaining).expect("map done wait");
    }
    drop(remaining);
    if let Some(payload) = scope.panic.lock().expect("map panic lock").take() {
        return Err(TaskPanicked { message: panic_message(payload.as_ref()) });
    }
    let mut out = Vec::with_capacity(len);
    for slot in &scope.slots {
        let taken = mem::replace(&mut *slot.lock().expect("map slot lock"), Slot::Drained);
        let Slot::Output(mut chunk) = taken else {
            unreachable!("map chunk missing output with no panic recorded")
        };
        out.append(&mut chunk);
    }
    Ok(out)
}

/// The `b` closure's lifecycle inside a [`JoinScope`].
enum JoinSlot<B, RB> {
    Pending(B),
    Running,
    Done(Result<RB, Box<dyn Any + Send>>),
    Drained,
}

/// The stack-resident state of one `join` call (the `b` side). As with
/// [`MapScope`], completion signalling lives in the heap-resident
/// control block, not here.
struct JoinScope<B, RB> {
    slot: Mutex<JoinSlot<B, RB>>,
    /// Caller's deadline budget, carried to the worker that claims `b`.
    deadline: Option<Instant>,
}

/// The `'static` half shared with the queued `b` ticket.
struct JoinControl {
    /// True until someone claims `b`; flipping it to false is the claim.
    armed: Mutex<bool>,
    /// Completion latch: set under its lock after the result is parked in
    /// the scope slot. Lives here so `run_b`'s final lock/notify touches
    /// only Arc-owned heap memory — the caller may free the scope the
    /// moment it observes `done`.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Erased `*const JoinScope<B, RB>`; only dereferenced by the thread
    /// that flipped `armed`.
    scope: *const (),
}

// Safety: as for MapControl — pointer use is gated by the claim flag,
// which is only winnable while the caller is blocked in `join_on`.
unsafe impl Send for JoinControl {}
unsafe impl Sync for JoinControl {}

impl<B, RB> JoinScope<B, RB>
where
    B: FnOnce() -> RB,
{
    /// Runs the claimed `b`, parks its result, and trips the control
    /// block's completion latch.
    fn run_b(&self, control: &JoinControl) {
        let taken =
            mem::replace(&mut *self.slot.lock().expect("join slot lock"), JoinSlot::Running);
        let JoinSlot::Pending(b) = taken else { unreachable!("join closure claimed twice") };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _nested = enter_nested();
            dial_fault::deadline::with_deadline(self.deadline, || {
                chunk_prologue();
                b()
            })
        }));
        *self.slot.lock().expect("join slot lock") = JoinSlot::Done(outcome);
        // The store above was the last access to `self`: the caller may
        // return (freeing the scope) as soon as it sees `done`, so the
        // wakeup goes through the Arc-owned control block only.
        let mut done = control.done.lock().expect("join done lock");
        *done = true;
        control.done_cv.notify_all();
    }
}

/// Ticket body for a join's `b` side.
///
/// # Safety
/// `data` must come from `Arc::into_raw` of the `JoinControl` paired with
/// a `JoinScope<B, RB>` of exactly these type parameters.
unsafe fn run_join_ticket<B, RB>(data: *mut ())
where
    B: FnOnce() -> RB + Send,
{
    // Safety: per contract, data is an owned JoinControl handle.
    let control = unsafe { Arc::from_raw(data as *const JoinControl) };
    let claimed = {
        let mut armed = control.armed.lock().expect("join claim lock");
        mem::replace(&mut *armed, false)
    };
    if claimed {
        // Safety: winning the claim proves the caller is still blocked in
        // `join_on`, so the scope is alive.
        let scope = unsafe { &*(control.scope as *const JoinScope<B, RB>) };
        scope.run_b(&control);
    }
}

/// Join-ticket release path; only the `'static` control block is touched.
///
/// # Safety
/// Same provenance contract as [`run_join_ticket`].
unsafe fn release_join_ticket(data: *mut ()) {
    // Safety: per contract, data is an owned JoinControl handle.
    drop(unsafe { Arc::from_raw(data as *const JoinControl) });
}

/// The engine behind [`crate::join`]: offer `b` to the pool, run `a`
/// inline, reclaim `b` if nobody took it, and only then settle panics.
pub(crate) fn join_on<A, B, RA, RB>(pool: &Arc<Pool>, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if pool.threads() == 1 || nesting_depth() >= MAX_NESTING {
        return (a(), b());
    }
    let scope: JoinScope<B, RB> = JoinScope {
        slot: Mutex::new(JoinSlot::Pending(b)),
        deadline: dial_fault::deadline::current(),
    };
    let control = Arc::new(JoinControl {
        armed: Mutex::new(true),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        scope: &scope as *const JoinScope<B, RB> as *const (),
    });
    let handle = Arc::into_raw(Arc::clone(&control)) as *mut ();
    // Safety: handle is an owned JoinControl of matching type params, and
    // this function blocks until `b` has settled.
    let task = unsafe { Task::from_raw(handle, run_join_ticket::<B, RB>, release_join_ticket) };
    pool.push_task(task);

    // `a` runs here regardless; its panic is held until `b` settles so
    // the scope's borrows stay valid for the worker running `b`.
    let a_out = catch_unwind(AssertUnwindSafe(|| {
        let _nested = enter_nested();
        a()
    }));

    let reclaimed = {
        let mut armed = control.armed.lock().expect("join claim lock");
        mem::replace(&mut *armed, false)
    };
    if reclaimed {
        scope.run_b(&control);
    }
    // The latch is set under its lock after the slot is parked, so this
    // wait cannot miss the wakeup, and seeing `done` guarantees the slot
    // holds `Done`.
    {
        let mut done = control.done.lock().expect("join done lock");
        while !*done {
            done = control.done_cv.wait(done).expect("join done wait");
        }
    }
    let b_out = {
        let taken =
            mem::replace(&mut *scope.slot.lock().expect("join slot lock"), JoinSlot::Drained);
        let JoinSlot::Done(out) = taken else {
            unreachable!("join slot not settled after completion latch")
        };
        out
    };
    let ra = match a_out {
        Ok(ra) => ra,
        Err(payload) => resume_unwind(payload),
    };
    let rb = match b_out {
        Ok(rb) => rb,
        Err(payload) => resume_unwind(payload),
    };
    (ra, rb)
}
