//! In-memory spans for the traced run, and the statistics derived from
//! them.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer: the benchmark wraps the public entry point, so a span's time
//! is the callee's time plus the wrapper's few nanoseconds. Each span
//! carries its layer, a name, its parent span and the leg (pool job) it
//! belongs to, so a leg's spans share an id. Spans stay in memory until
//! the run ends, then [`to_json`] writes them out.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Legs and the per-leg wrappers (`run_once`, `run_traffic`, a
/// `verify_chunk` re-run, a crash check).
pub const RUNNER: &str = "harness.runner";
/// Worker fan-out (`pool::par_map_with`).
pub const POOL: &str = "harness.pool";
/// Program and request-bank generation.
pub const WORKLOADS: &str = "workloads";
/// Engine, flows and model hooks (and through them cache-sim, memctrl
/// and pm-mem): `SimBuilder::build` and `Sim::run_*`.
pub const SIM: &str = "asap-core.sim";
/// The crash oracle: `Sim::crash_check_now` / `Sim::crash_and_check`.
pub const ORACLE: &str = "asap-core.oracle";
/// Crash-space exploration planning (`explore::pass1`).
pub const EXPLORE: &str = "analysis.explore";
/// Every layer, in report order.
pub const LAYERS: [&str; 6] = [RUNNER, POOL, WORKLOADS, SIM, ORACLE, EXPLORE];

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Leg this span belongs to; all spans of one leg share it.
    pub leg: Option<usize>,
    /// Layer the called code lives in (one of [`LAYERS`]).
    pub layer: &'static str,
    /// The entry point called.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Span length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Where a new span sits: its parent and its leg.
#[derive(Debug, Clone, Copy, Default)]
pub struct At {
    /// Enclosing span.
    pub parent: Option<usize>,
    /// Leg id.
    pub leg: Option<usize>,
}

/// Thread-safe span recorder.
pub struct Tracer {
    t0: Instant,
    next: AtomicUsize,
    next_leg: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next: AtomicUsize::new(0),
            next_leg: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a new span placed at `at`. `f` receives the
    /// position its own nested calls should use (this span as parent,
    /// same leg).
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        at: At,
        f: impl FnOnce(At) -> T,
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(At {
            parent: Some(id),
            leg: at.leg,
        });
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent: at.parent,
            leg: at.leg,
            layer,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Reserve `n` consecutive leg ids, unique within this tracer;
    /// returns the first.
    pub fn reserve_legs(&self, n: usize) -> usize {
        self.next_leg.fetch_add(n, Ordering::Relaxed)
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list poisoned").clone();
        v.sort_unstable_by_key(|s| s.id);
        v
    }
}

/// Length covered by the union of `intervals` (nanoseconds).
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per layer, in seconds: each span's length minus the part
/// of it that its child spans cover, summed by layer. Children running
/// on several workers at once count once.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&l| (l, 0.0)).collect();
    for s in spans {
        let covered = children.get(&s.id).map_or(0, |c| {
            union_ns(
                c.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|&(a, b)| a < b)
                    .collect(),
            )
        });
        *out.entry(s.layer).or_insert(0.0) +=
            (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Write the spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let opt = |o: Option<usize>| o.map_or("null".to_string(), |v| v.to_string());
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\":{},\"parent\":{},\"leg\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.leg),
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples above it, as
/// `(percentile, value)`: the eleventh-largest sample. With 20 samples
/// or fewer that percentile is at or below the median, so the median
/// stands in, marked as percentile 50. Empty input gives `(0, 0)`.
pub fn tail(v: &[f64]) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    if v.len() <= 20 {
        return (50.0, median(v));
    }
    let mut s = v.to_vec();
    s.sort_unstable_by(f64::total_cmp);
    let k = s.len() - 11;
    ((100 * k / (s.len() - 1)) as f64, s[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let t = &Tracer::new();
        t.span(POOL, "fan-out", At::default(), |at| {
            std::thread::scope(|s| {
                for leg in 0..2 {
                    s.spawn(move || {
                        t.span(
                            SIM,
                            "run",
                            At {
                                leg: Some(leg),
                                ..at
                            },
                            |_| std::thread::sleep(std::time::Duration::from_millis(20)),
                        )
                    });
                }
            })
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let st = self_time_by_layer(&spans);
        assert!(st[SIM] >= 0.04, "{st:?}");
        let pool = spans.iter().find(|s| s.layer == POOL).unwrap().secs();
        assert!(st[POOL] < pool / 2.0, "{st:?}");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (89.0, 90.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
