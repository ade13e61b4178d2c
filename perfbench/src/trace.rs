//! In-memory span recorder for the traced run.
//!
//! A span is one timed call the benchmark makes into a layer: its name,
//! start and end (microseconds since the run began), the span that caused
//! it and the op it belongs to. Spans are kept in memory and written out
//! once the run ends. With tracing off every call runs untimed, so the
//! untraced run pays nothing for it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    /// Nanoseconds spent inside the recorder itself.
    cost_ns: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own children on.
    pub fn span<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, name, op, parent, start, Instant::now());
        out
    }

    /// Records a span whose ends were timed by the caller (for example a
    /// request timed from when it was due rather than when it was sent).
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, op, parent, start, end);
        Some(id)
    }

    fn push(
        &self,
        id: usize,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let entered = Instant::now();
        let us = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let span = Span { id, name, op, parent, start_us: us(start), end_us: us(end) };
        self.spans.lock().expect("span list lock").push(span);
        self.cost_ns.fetch_add(entered.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list lock").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Time spent inside the recorder, in microseconds.
    pub fn cost_us(&self) -> f64 {
        self.cost_ns.load(Ordering::Relaxed) as f64 / 1e3
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its children cover. Indexed like `spans`.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let index: std::collections::HashMap<usize, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let parent = &spans[p];
            let (a, b) = (s.start_us.max(parent.start_us), s.end_us.min(parent.end_us));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_us() - covered
        })
        .collect()
}

/// The spans as a JSON array (name, op, parent, start/end in µs, self µs).
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times_us(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(&selfs)
        .map(|(s, self_us)| {
            format!(
                "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                s.id,
                s.name,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_us,
                s.end_us,
                self_us
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span { id, name: "t", op: 0, parent, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 30.0),
            span(2, Some(0), 20.0, 40.0),
            span(3, Some(0), 90.0, 120.0),
            span(4, Some(1), 10.0, 15.0),
        ];
        let selfs = self_times_us(&spans);
        assert_eq!(selfs[0], 100.0 - 30.0 - 10.0);
        assert_eq!(selfs[1], 15.0);
        assert_eq!(selfs[2], 20.0);
    }
}
