//! Unified runtime telemetry: counters, gauges, latency histograms, and
//! span events behind one cheap handle.
//!
//! STRONGHOLD's headline numbers are *runtime observations* — how much
//! H2D/D2H copy time hides under compute, how deep the prefetch queue
//! runs, how busy the CPU optimizer workers are. This module is the
//! shared instrumentation layer those observations flow through.
//!
//! Design constraints (and how they are met):
//!
//! * **Zero-cost when disabled.** [`Telemetry`] is `Option<Arc<Inner>>`;
//!   the disabled handle is `None` and every recording call is a single
//!   branch on it. Metric handles ([`Counter`], [`Gauge`], [`Histogram`])
//!   obtained from a disabled `Telemetry` are no-ops too, so hot loops
//!   hoist the name lookup out and pay one `Option` check per event.
//! * **Thread-safe.** The offload engine records from the prefetcher,
//!   copy, and optimizer threads concurrently: counters/gauges/histogram
//!   buckets are atomics, and only span capture takes a (short) lock.
//! * **Substrate-agnostic clock.** Spans are stamped through the
//!   [`TelemetryClock`] trait: [`WallClock`] for the real-thread host
//!   substrate, [`VirtualClock`] (an atomic fed simulator nanoseconds)
//!   for virtual-time runs, so both produce comparable traces.
//!
//! Two sinks: [`Telemetry::snapshot_json`] (consumed by the bench
//! reports, includes measured overlap efficiency) and
//! [`Telemetry::to_chrome_trace`] (the `chrome://tracing` /
//! <https://ui.perfetto.dev> event format).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotonic nanosecond clock driving span timestamps.
pub trait TelemetryClock: Send + Sync {
    /// Nanoseconds since the clock's origin.
    fn now_nanos(&self) -> u64;
}

/// Wall-clock time from a fixed origin (process-local `Instant`).
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Clock originating now.
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl TelemetryClock for WallClock {
    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Virtual time: whoever drives the simulation advances it explicitly
/// (monotonicity is the driver's contract, matching sim semantics).
#[derive(Default)]
pub struct VirtualClock {
    now: AtomicU64,
}

impl VirtualClock {
    /// Clock starting at zero virtual nanoseconds.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances to `nanos` (keeps the max of old and new, so concurrent
    /// feeders can't move time backwards).
    pub fn advance_to(&self, nanos: u64) {
        self.now.fetch_max(nanos, Ordering::Relaxed);
    }
}

impl TelemetryClock for VirtualClock {
    fn now_nanos(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// Monotonically increasing event count.
#[derive(Default)]
struct CounterCell {
    value: AtomicU64,
}

/// Instantaneous level with peak tracking (e.g. arena bytes in use,
/// copy-thread queue depth).
#[derive(Default)]
struct GaugeCell {
    value: AtomicI64,
    peak: AtomicI64,
}

const HIST_BUCKETS: usize = 64;

/// Log2-bucketed latency histogram: bucket `i` holds values in
/// `[2^(i-1), 2^i)` (bucket 0 holds zero).
struct HistogramCell {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCell {
    fn record(&self, v: u64) {
        let idx = if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Approximate percentile (`p` in `[0, 100]`): the upper bound of the
    /// bucket containing the rank, clamped into the exact observed
    /// `[min, max]` so degenerate distributions report exactly.
    fn percentile(&self, p: f64) -> u64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let mut result = self.max.load(Ordering::Relaxed);
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                // Upper bound of bucket i (bucket 0 is exactly zero).
                result = if i == 0 { 0 } else { (1u64 << i) - 1 };
                break;
            }
        }
        result
            .max(self.min.load(Ordering::Relaxed))
            .min(self.max.load(Ordering::Relaxed))
    }
}

/// One completed span on a named track.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Track (≈ pipeline lane / thread) the span belongs to.
    pub track: String,
    /// Event label, e.g. `"h2d L3"`.
    pub name: String,
    /// Start, clock nanoseconds.
    pub start_ns: u64,
    /// End, clock nanoseconds.
    pub end_ns: u64,
    /// Ordinal of the OS thread that recorded the span (process-unique,
    /// assigned on first recording). Lets trace consumers verify *which*
    /// thread did the work — e.g. that gradient D2H copies run on the
    /// offload thread, not the compute thread's critical path.
    pub thread: u64,
}

/// Process-unique ordinal of the calling thread, assigned lazily on first
/// use. Cheaper and more stable across platforms than hashing
/// `std::thread::ThreadId`.
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

struct Inner {
    clock: Arc<dyn TelemetryClock>,
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    spans: Mutex<Vec<SpanEvent>>,
}

/// Cheap-clone telemetry handle. `Telemetry::disabled()` turns every
/// recording site into a branch-on-`None` no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Telemetry {
    /// The no-op handle (also `Default`).
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle stamped by wall-clock time.
    pub fn enabled() -> Self {
        Telemetry::with_clock(Arc::new(WallClock::new()))
    }

    /// An enabled handle stamped by the given clock (use an
    /// `Arc<VirtualClock>` to drive spans from simulator time).
    pub fn with_clock(clock: Arc<dyn TelemetryClock>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                clock,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock reading (0 when disabled).
    pub fn now_nanos(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_nanos())
    }

    /// Named counter handle; hoist out of hot loops.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| {
            let mut map = i.counters.lock().expect("counter registry");
            Arc::clone(map.entry(name.to_string()).or_default())
        }))
    }

    /// Named gauge handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            let mut map = i.gauges.lock().expect("gauge registry");
            Arc::clone(map.entry(name.to_string()).or_default())
        }))
    }

    /// Named histogram handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| {
            let mut map = i.histograms.lock().expect("histogram registry");
            Arc::clone(map.entry(name.to_string()).or_default())
        }))
    }

    /// Starts a span on `track`; the span records itself when the guard
    /// drops (or at an explicit [`SpanGuard::end`]).
    pub fn span(&self, track: &str, name: impl Into<String>) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { state: None },
            Some(inner) => SpanGuard {
                state: Some(SpanGuardState {
                    inner: Arc::clone(inner),
                    track: track.to_string(),
                    name: name.into(),
                    start_ns: inner.clock.now_nanos(),
                }),
            },
        }
    }

    /// Records a fully-formed span (used to bridge simulator timelines,
    /// whose intervals are known only after scheduling). Stamped with the
    /// calling thread's ordinal.
    pub fn record_span(&self, track: &str, name: &str, start_ns: u64, end_ns: u64) {
        if let Some(inner) = &self.inner {
            inner.spans.lock().expect("span buffer").push(SpanEvent {
                track: track.to_string(),
                name: name.to_string(),
                start_ns,
                end_ns: end_ns.max(start_ns),
                thread: thread_ordinal(),
            });
        }
    }

    /// Copies out all spans recorded so far.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.spans.lock().expect("span buffer").clone())
    }

    /// Total busy nanoseconds (union of span intervals) on one track.
    pub fn track_busy_nanos(&self, track: &str) -> u64 {
        interval_union_len(&self.track_intervals(|t| t == track))
    }

    /// Nanoseconds during which spans of `track_a` and `track_b` run
    /// concurrently (intersection of the two busy unions).
    pub fn overlap_nanos(&self, track_a: &str, track_b: &str) -> u64 {
        let a = self.track_intervals(|t| t == track_a);
        let b = self.track_intervals(|t| t == track_b);
        interval_intersection_len(&a, &b)
    }

    fn track_intervals(&self, pred: impl Fn(&str) -> bool) -> Vec<(u64, u64)> {
        let mut iv: Vec<(u64, u64)> = self
            .spans()
            .into_iter()
            .filter(|s| pred(&s.track))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        iv.sort_unstable();
        iv
    }

    /// Measured copy/compute concurrency: spans on tracks whose names
    /// contain `"copy"` vs tracks containing `"compute"`. Returns
    /// `(copy_busy, compute_busy, overlap)` in nanoseconds.
    pub fn copy_compute_overlap(&self) -> (u64, u64, u64) {
        let copy = self.track_intervals(|t| t.contains("copy"));
        let compute = self.track_intervals(|t| t.contains("compute"));
        (
            interval_union_len(&copy),
            interval_union_len(&compute),
            interval_intersection_len(&copy, &compute),
        )
    }

    /// JSON metrics snapshot: counters, gauges (+peaks), histogram
    /// summaries, per-track span totals, and copy/compute overlap
    /// efficiency. Stable key order (sorted maps) for diffable output.
    pub fn snapshot_json(&self) -> serde_json::Value {
        use serde_json::{Map, Value};
        let mut root = Map::new();
        root.insert("enabled".into(), Value::Bool(self.is_enabled()));
        let Some(inner) = &self.inner else {
            return Value::Object(root);
        };

        let mut counters = Map::new();
        for (name, c) in inner.counters.lock().expect("counter registry").iter() {
            counters.insert(name.clone(), Value::from(c.value.load(Ordering::Relaxed)));
        }
        root.insert("counters".into(), Value::Object(counters));

        let mut gauges = Map::new();
        for (name, g) in inner.gauges.lock().expect("gauge registry").iter() {
            let mut entry = Map::new();
            entry.insert("value".into(), Value::from(g.value.load(Ordering::Relaxed)));
            entry.insert("peak".into(), Value::from(g.peak.load(Ordering::Relaxed)));
            gauges.insert(name.clone(), Value::Object(entry));
        }
        root.insert("gauges".into(), Value::Object(gauges));

        let mut hists = Map::new();
        for (name, h) in inner.histograms.lock().expect("histogram registry").iter() {
            let count = h.count.load(Ordering::Relaxed);
            let sum = h.sum.load(Ordering::Relaxed);
            let mut entry = Map::new();
            entry.insert("count".into(), Value::from(count));
            entry.insert("sum".into(), Value::from(sum));
            entry.insert(
                "mean".into(),
                Value::from(if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64
                }),
            );
            entry.insert(
                "min".into(),
                Value::from(if count == 0 {
                    0
                } else {
                    h.min.load(Ordering::Relaxed)
                }),
            );
            entry.insert("max".into(), Value::from(h.max.load(Ordering::Relaxed)));
            entry.insert("p50".into(), Value::from(h.percentile(50.0)));
            entry.insert("p90".into(), Value::from(h.percentile(90.0)));
            entry.insert("p99".into(), Value::from(h.percentile(99.0)));
            hists.insert(name.clone(), Value::Object(entry));
        }
        root.insert("histograms".into(), Value::Object(hists));

        let mut per_track: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in self.spans() {
            let e = per_track.entry(s.track.clone()).or_insert((0, 0));
            e.0 += 1;
        }
        for (track, entry) in per_track.iter_mut() {
            entry.1 = self.track_busy_nanos(track);
        }
        let mut tracks = Map::new();
        for (track, (count, busy)) in per_track {
            let mut entry = Map::new();
            entry.insert("spans".into(), Value::from(count));
            entry.insert("busy_ns".into(), Value::from(busy));
            tracks.insert(track, Value::Object(entry));
        }
        root.insert("tracks".into(), Value::Object(tracks));

        let (copy_busy, compute_busy, overlap) = self.copy_compute_overlap();
        let mut ov = Map::new();
        ov.insert("copy_busy_ns".into(), Value::from(copy_busy));
        ov.insert("compute_busy_ns".into(), Value::from(compute_busy));
        ov.insert("overlap_ns".into(), Value::from(overlap));
        ov.insert(
            // Fraction of copy time hidden under compute — the quantity
            // the paper's Fig. 4 pipeline exists to maximize.
            "overlap_efficiency".into(),
            Value::from(if copy_busy == 0 {
                0.0
            } else {
                overlap as f64 / copy_busy as f64
            }),
        );
        root.insert("overlap".into(), Value::Object(ov));

        Value::Object(root)
    }

    /// Chrome-trace (`chrome://tracing` / Perfetto) JSON: one complete
    /// (`"X"`) event per span, tracks mapped to thread lanes.
    pub fn to_chrome_trace(&self) -> String {
        use serde_json::{Map, Value};
        let spans = self.spans();
        let mut track_ids: BTreeMap<String, u64> = BTreeMap::new();
        for s in &spans {
            let next = track_ids.len() as u64;
            track_ids.entry(s.track.clone()).or_insert(next);
        }
        let mut events: Vec<Value> = Vec::with_capacity(spans.len() + track_ids.len());
        for (track, tid) in &track_ids {
            let mut meta = Map::new();
            meta.insert("ph".into(), Value::from("M"));
            meta.insert("name".into(), Value::from("thread_name"));
            meta.insert("pid".into(), Value::from(0u64));
            meta.insert("tid".into(), Value::from(*tid));
            let mut args = Map::new();
            args.insert("name".into(), Value::from(track.as_str()));
            meta.insert("args".into(), Value::Object(args));
            events.push(Value::Object(meta));
        }
        for s in &spans {
            let mut ev = Map::new();
            ev.insert("ph".into(), Value::from("X"));
            ev.insert("name".into(), Value::from(s.name.as_str()));
            ev.insert("cat".into(), Value::from(s.track.as_str()));
            ev.insert("pid".into(), Value::from(0u64));
            ev.insert("tid".into(), Value::from(track_ids[&s.track]));
            // Chrome trace timestamps/durations are microseconds.
            ev.insert("ts".into(), Value::from(s.start_ns as f64 / 1e3));
            ev.insert(
                "dur".into(),
                Value::from((s.end_ns - s.start_ns) as f64 / 1e3),
            );
            events.push(Value::Object(ev));
        }
        let mut root = Map::new();
        root.insert("traceEvents".into(), Value::Array(events));
        root.insert("displayTimeUnit".into(), Value::from("ms"));
        serde_json::to_string(&Value::Object(root)).expect("trace serializes")
    }
}

/// Bridges the tensor substrate's cumulative kernel statistics
/// (`stronghold_tensor::matmul::stats` and `stronghold_tensor::ops::stats`)
/// into `tel` as gauges.
///
/// The tensor crate cannot depend on `core`, so the kernels accumulate
/// FLOP/time/call totals into process-global atomics; this function
/// publishes the current totals under `kernel.{nn,nt,tn}.{flops, nanos,
/// calls, gflops_x100}` for the GEMM layouts and `op.<name>.{flops,
/// nanos, calls, gflops_x100}` for the non-GEMM row/elementwise kernels
/// (`gflops_x100` is mean GFLOP/s × 100, so the integer gauge keeps two
/// decimal places; op FLOP counts are nominal per-element cost factors).
/// Call it at a step boundary — e.g. the end of `train_step` — so
/// snapshots see up-to-date values.
///
/// Recording is gauge-`set` only and gated on [`Telemetry::is_enabled`]:
/// it reads the kernel counters without touching kernel execution, so
/// the "telemetry never perturbs training" property holds.
pub fn record_kernel_stats(tel: &Telemetry) {
    if !tel.is_enabled() {
        return;
    }
    let snap = stronghold_tensor::matmul::stats::snapshot();
    for (stats, name) in snap
        .iter()
        .zip(stronghold_tensor::matmul::stats::LAYOUT_NAMES)
    {
        tel.gauge(&format!("kernel.{name}.flops"))
            .set(stats.flops as i64);
        tel.gauge(&format!("kernel.{name}.nanos"))
            .set(stats.nanos as i64);
        tel.gauge(&format!("kernel.{name}.calls"))
            .set(stats.calls as i64);
        tel.gauge(&format!("kernel.{name}.gflops_x100"))
            .set((stats.gflops() * 100.0).round() as i64);
    }
    let ops = stronghold_tensor::ops::stats::snapshot();
    for (stats, name) in ops.iter().zip(stronghold_tensor::ops::stats::NAMES) {
        tel.gauge(&format!("op.{name}.flops"))
            .set(stats.flops as i64);
        tel.gauge(&format!("op.{name}.nanos"))
            .set(stats.nanos as i64);
        tel.gauge(&format!("op.{name}.calls"))
            .set(stats.calls as i64);
        let gflops = if stats.nanos > 0 {
            stats.flops as f64 / stats.nanos as f64
        } else {
            0.0
        };
        tel.gauge(&format!("op.{name}.gflops_x100"))
            .set((gflops * 100.0).round() as i64);
    }
}

/// Counter handle; a no-op when obtained from disabled telemetry.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<CounterCell>>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// Gauge handle with peak tracking; a no-op when disabled.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

impl Gauge {
    /// Adds `delta` (may be negative) and folds the result into the peak.
    pub fn add(&self, delta: i64) {
        if let Some(g) = &self.0 {
            let now = g.value.fetch_add(delta, Ordering::Relaxed) + delta;
            g.peak.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Sets an absolute level.
    pub fn set(&self, value: i64) {
        if let Some(g) = &self.0 {
            g.value.store(value, Ordering::Relaxed);
            g.peak.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |g| g.value.load(Ordering::Relaxed))
    }

    /// Highest level ever observed.
    pub fn peak(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |g| g.peak.load(Ordering::Relaxed))
    }
}

/// Histogram handle; a no-op when disabled.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Histogram(count={})", self.count())
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Ordering::Relaxed))
    }

    /// Approximate percentile, `p` in `[0, 100]`; see
    /// `HistogramCell::percentile` for the bucket-bound semantics.
    pub fn percentile(&self, p: f64) -> u64 {
        self.0.as_ref().map_or(0, |h| h.percentile(p))
    }
}

struct SpanGuardState {
    inner: Arc<Inner>,
    track: String,
    name: String,
    start_ns: u64,
}

/// RAII span: records `[start, drop)` on its track.
#[must_use = "the span measures until the guard drops"]
pub struct SpanGuard {
    state: Option<SpanGuardState>,
}

impl SpanGuard {
    /// Ends the span now (same as dropping, but explicit at call sites).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(st) = self.state.take() {
            let end_ns = st.inner.clock.now_nanos();
            st.inner.spans.lock().expect("span buffer").push(SpanEvent {
                track: st.track,
                name: st.name,
                start_ns: st.start_ns,
                end_ns: end_ns.max(st.start_ns),
                thread: thread_ordinal(),
            });
        }
    }
}

/// Length of the union of half-open intervals (input sorted by start).
fn interval_union_len(sorted: &[(u64, u64)]) -> u64 {
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in sorted {
        match cur {
            None => cur = Some((s, e)),
            Some((cs, ce)) => {
                if s <= ce {
                    cur = Some((cs, ce.max(e)));
                } else {
                    total += ce - cs;
                    cur = Some((s, e));
                }
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Length of the intersection of two interval unions (inputs sorted).
fn interval_intersection_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    // Merge each side first so overlapping spans within one track don't
    // double-count.
    let ma = merge(a);
    let mb = merge(b);
    let (mut i, mut j) = (0, 0);
    let mut total = 0u64;
    while i < ma.len() && j < mb.len() {
        let lo = ma[i].0.max(mb[j].0);
        let hi = ma[i].1.min(mb[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if ma[i].1 <= mb[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

fn merge(sorted: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for &(s, e) in sorted {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// A span label, formatted only when telemetry is recording: disabled
/// telemetry gets an empty `String`, which does not allocate. Hot paths
/// pass their `format!` as the closure so a disabled handle costs nothing.
pub fn span_label(tel: &Telemetry, label: impl FnOnce() -> String) -> String {
    if tel.is_enabled() {
        label()
    } else {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::disabled();
        let c = t.counter("x");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = t.gauge("g");
        g.add(3);
        assert_eq!((g.get(), g.peak()), (0, 0));
        let h = t.histogram("h");
        h.record(9);
        assert_eq!(h.count(), 0);
        t.span("track", "ev").end();
        assert!(t.spans().is_empty());
        assert_eq!(t.snapshot_json()["enabled"], serde_json::Value::Bool(false));
    }

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let t = Telemetry::enabled();
        t.counter("a").add(2);
        t.counter("a").add(3);
        assert_eq!(t.counter("a").get(), 5);
        assert_eq!(t.counter("b").get(), 0);
    }

    #[test]
    fn gauge_tracks_peak() {
        let t = Telemetry::enabled();
        let g = t.gauge("occ");
        g.add(10);
        g.add(15);
        g.add(-20);
        assert_eq!(g.get(), 5);
        assert_eq!(g.peak(), 25);
    }

    #[test]
    fn concurrent_recording_balances() {
        // Satellite requirement: many threads hammering one registry;
        // totals must balance exactly.
        let t = Telemetry::enabled();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let t = t.clone();
                s.spawn(move || {
                    let c = t.counter("hits");
                    let g = t.gauge("level");
                    let h = t.histogram("lat");
                    for i in 0..per_thread {
                        c.incr();
                        g.add(1);
                        g.add(-1);
                        h.record(i % 1000);
                    }
                });
            }
        });
        assert_eq!(t.counter("hits").get(), threads * per_thread);
        assert_eq!(t.gauge("level").get(), 0);
        assert!(t.gauge("level").peak() >= 1);
        let h = t.histogram("lat");
        assert_eq!(h.count(), threads * per_thread);
        let expected_sum: u64 = (0..per_thread).map(|i| i % 1000).sum::<u64>() * threads;
        assert_eq!(h.sum(), expected_sum);
    }

    #[test]
    fn histogram_percentiles_are_ordered_and_clamped() {
        let t = Telemetry::enabled();
        let h = t.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.percentile(50.0), h.percentile(90.0), h.percentile(99.0));
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        // Log2 buckets: each percentile is within 2x of the true value.
        assert!((250..=1000).contains(&p50), "p50={p50}");
        assert!((500..=1000).contains(&p90), "p90={p90}");
        assert!(p99 <= 1000, "clamped to observed max, got {p99}");

        // Degenerate distribution reports exactly thanks to clamping.
        let one = t.histogram("single");
        one.record(77);
        assert_eq!(one.percentile(50.0), 77);
        assert_eq!(one.percentile(99.0), 77);

        // Empty histogram.
        assert_eq!(t.histogram("empty").percentile(50.0), 0);
    }

    #[test]
    fn spans_and_overlap_math() {
        let t = Telemetry::enabled();
        t.record_span("h2d-copy", "a", 0, 100);
        t.record_span("h2d-copy", "b", 50, 150); // overlaps a → union 150
        t.record_span("compute", "fp", 100, 300);
        assert_eq!(t.track_busy_nanos("h2d-copy"), 150);
        assert_eq!(t.track_busy_nanos("compute"), 200);
        assert_eq!(t.overlap_nanos("h2d-copy", "compute"), 50);
        let (copy, compute, ov) = t.copy_compute_overlap();
        assert_eq!((copy, compute, ov), (150, 200, 50));
        let snap = t.snapshot_json();
        assert_eq!(snap["overlap"]["overlap_ns"].as_u64(), Some(50));
        let eff = snap["overlap"]["overlap_efficiency"].as_f64().unwrap();
        assert!((eff - 50.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn virtual_clock_drives_spans() {
        let clock = Arc::new(VirtualClock::new());
        let t = Telemetry::with_clock(clock.clone());
        clock.advance_to(1_000);
        let span = t.span("sim-compute", "fp L0");
        clock.advance_to(5_000);
        span.end();
        // Going backwards is ignored.
        clock.advance_to(2_000);
        assert_eq!(t.now_nanos(), 5_000);
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (1_000, 5_000));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_events() {
        let t = Telemetry::enabled();
        t.record_span("h2d-copy", "h2d L0", 0, 1000);
        t.record_span("compute", "fp L0", 500, 2000);
        let trace = t.to_chrome_trace();
        let v = serde_json::from_str(&trace).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("event array");
        // 2 thread_name metadata + 2 complete events.
        assert_eq!(events.len(), 4);
        assert!(events
            .iter()
            .any(|e| e["ph"] == "X" && e["name"] == "fp L0"));
        assert!(events.iter().any(|e| e["ph"] == "M"));
    }

    #[test]
    fn kernel_stats_bridge_publishes_gauges() {
        // Drive at least one kernel call so the global stats are nonzero.
        // (Stats are process-cumulative, so other tests only add to them.)
        let a = stronghold_tensor::tensor::Tensor::from_vec([2, 3], vec![1.; 6]);
        let b = stronghold_tensor::tensor::Tensor::from_vec([3, 2], vec![1.; 6]);
        let _ = stronghold_tensor::matmul::matmul(&a, &b);

        let t = Telemetry::enabled();
        record_kernel_stats(&t);
        assert!(t.gauge("kernel.nn.calls").get() >= 1);
        assert!(t.gauge("kernel.nn.flops").get() >= 2 * 2 * 3 * 2);
        let snap = t.snapshot_json();
        assert!(snap["gauges"]["kernel.nn.gflops_x100"]["value"]
            .as_f64()
            .is_some());
        assert!(snap["gauges"]["kernel.tn.calls"]["value"]
            .as_f64()
            .is_some());

        // Disabled handle: the bridge must stay inert.
        let d = Telemetry::disabled();
        record_kernel_stats(&d);
        assert_eq!(d.gauge("kernel.nn.calls").get(), 0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let t = Telemetry::enabled();
        t.counter("prefetch_completed").add(7);
        t.histogram("lat").record(42);
        let s = serde_json::to_string_pretty(&t.snapshot_json()).unwrap();
        let back = serde_json::from_str(&s).unwrap();
        assert_eq!(back["counters"]["prefetch_completed"].as_u64(), Some(7));
        assert_eq!(back["histograms"]["lat"]["count"].as_u64(), Some(1));
    }
}
