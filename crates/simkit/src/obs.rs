//! Observability: a lock-free metrics registry, profiling spans, and
//! process-wide snapshots.
//!
//! The whole module is compiled unconditionally so call sites never need
//! `cfg` attributes, but every recording operation is an empty inline
//! no-op unless the crate is built with the `obs` feature. This is the
//! same zero-rate-no-op discipline the fault layer uses: a disabled
//! build carries no atomics, no timestamps and no registry, so
//! golden-bit tests and throughput benches are provably unaffected.
//!
//! Metrics are declared as `static` handles and register themselves in a
//! global registry on first use:
//!
//! ```
//! use simkit::obs::{self, Counter};
//!
//! static DECISIONS: Counter = Counter::new("example.decisions");
//!
//! DECISIONS.inc();
//! if obs::enabled() {
//!     assert_eq!(DECISIONS.get(), 1);
//! } else {
//!     assert_eq!(DECISIONS.get(), 0);
//! }
//! ```
//!
//! Spans time a lexical scope on the host clock (never simulated time —
//! they measure the simulator, not the simulation):
//!
//! ```
//! use simkit::obs;
//!
//! {
//!     let _guard = obs::span!("example.step");
//!     // ... timed work ...
//! }
//! let snap = obs::snapshot();
//! if obs::enabled() {
//!     assert_eq!(snap.spans.get("example.step").map(|s| s.calls), Some(1));
//! } else {
//!     assert!(snap.is_empty());
//! }
//! ```
//!
//! Metric names are dotted paths, `<crate-or-subsystem>.<event>`
//! (`runner.epochs`, `hw.bus_writes`); see DESIGN.md § Observability for
//! the full naming scheme. Counters and spans are safe to declare with
//! the same name in several places — snapshots merge them by summing.
//! Nothing recorded here may feed back into simulation state: the
//! registry is observation-only, which is what keeps an instrumented run
//! bit-identical to a bare one.
//!
//! Everything here is process-wide. Per-request progress is not: the
//! experiment scheduler sends it to the submitting request's own job
//! context (`experiments::JobCtx`), never through this registry.

use std::collections::BTreeMap;

#[cfg(feature = "obs")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
#[cfg(feature = "obs")]
use std::sync::Mutex;

use crate::stats;

/// Bin count used by every [`HistogramMetric`]; fixed so atomically
/// collected bins can live in a `static` without allocation.
pub const HISTOGRAM_BINS: usize = 32;

/// Whether this build of `simkit` records observability data.
///
/// Callers (including doctests, which are compiled as separate crates
/// and therefore cannot consult `cfg!(feature = "obs")` themselves)
/// should branch on this at runtime.
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

#[cfg(feature = "obs")]
enum MetricRef {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static HistogramMetric),
    Span(&'static SpanMetric),
}

#[cfg(feature = "obs")]
static REGISTRY: Mutex<Vec<MetricRef>> = Mutex::new(Vec::new());

/// Adds `entry` to the global registry exactly once per metric static.
///
/// The `registered` flag is a per-metric latch: `swap` guarantees a single
/// winner even under concurrent first use. A poisoned registry lock (only
/// possible if a panic escaped a snapshot) silently drops the entry —
/// observability must never take the simulation down with it.
#[cfg(feature = "obs")]
fn register(registered: &AtomicBool, entry: MetricRef) {
    // xtask-atomics: one-shot registration latch; the registry Mutex orders the push
    if !registered.swap(true, Ordering::Relaxed) {
        if let Ok(mut reg) = REGISTRY.lock() {
            reg.push(entry);
        }
    }
}

/// A monotonically increasing event counter.
///
/// Declare as a `static`, bump with [`Counter::inc`]/[`Counter::add`].
/// All operations are relaxed atomics when `obs` is on and empty inline
/// no-ops when it is off.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    #[cfg(feature = "obs")]
    value: AtomicU64,
    #[cfg(feature = "obs")]
    registered: AtomicBool,
}

impl Counter {
    /// Creates a counter handle. `name` should be a dotted path unique
    /// to the event being counted (duplicates are summed in snapshots).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            #[cfg(feature = "obs")]
            value: AtomicU64::new(0),
            #[cfg(feature = "obs")]
            registered: AtomicBool::new(false),
        }
    }

    /// Increments the counter by one.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Increments the counter by `n`.
    #[inline]
    pub fn add(&'static self, n: u64) {
        #[cfg(feature = "obs")]
        {
            register(&self.registered, MetricRef::Counter(self));
            self.value.fetch_add(n, Ordering::Relaxed); // xtask-atomics: relaxed counter by design; obs never synchronises simulation state
        }
        #[cfg(not(feature = "obs"))]
        let _ = n;
    }

    /// Current count (always zero in a disabled build).
    pub fn get(&self) -> u64 {
        #[cfg(feature = "obs")]
        {
            self.value.load(Ordering::Relaxed) // xtask-atomics: relaxed counter read; reporting tolerates in-flight increments
        }
        #[cfg(not(feature = "obs"))]
        {
            0
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A last-write-wins instantaneous value (e.g. a queue depth or the most
/// recent power reading).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    #[cfg(feature = "obs")]
    bits: AtomicU64,
    #[cfg(feature = "obs")]
    registered: AtomicBool,
}

impl Gauge {
    /// Creates a gauge handle.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            #[cfg(feature = "obs")]
            bits: AtomicU64::new(0),
            #[cfg(feature = "obs")]
            registered: AtomicBool::new(false),
        }
    }

    /// Stores a new value, replacing the previous one.
    #[inline]
    pub fn set(&'static self, value: f64) {
        #[cfg(feature = "obs")]
        {
            register(&self.registered, MetricRef::Gauge(self));
            self.bits.store(value.to_bits(), Ordering::Relaxed); // xtask-atomics: gauge is last-writer-wins by design
        }
        #[cfg(not(feature = "obs"))]
        let _ = value;
    }

    /// The most recently stored value (zero in a disabled build).
    pub fn get(&self) -> f64 {
        #[cfg(feature = "obs")]
        {
            f64::from_bits(self.bits.load(Ordering::Relaxed)) // xtask-atomics: gauge read; reporting tolerates a concurrent store
        }
        #[cfg(not(feature = "obs"))]
        {
            0.0
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A fixed-range histogram with [`HISTOGRAM_BINS`] atomically updated
/// bins; snapshots export it as a [`stats::Histogram`] so the usual
/// percentile queries apply.
///
/// Out-of-range samples clamp into the edge bins, mirroring
/// [`stats::Histogram::add`]. NaN samples are dropped (a recording layer
/// must not panic).
#[derive(Debug)]
pub struct HistogramMetric {
    name: &'static str,
    #[cfg(feature = "obs")]
    lo: f64,
    #[cfg(feature = "obs")]
    hi: f64,
    #[cfg(feature = "obs")]
    bins: [AtomicU64; HISTOGRAM_BINS],
    #[cfg(feature = "obs")]
    registered: AtomicBool,
}

impl HistogramMetric {
    /// Creates a histogram handle over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Compile-time/const panic if `lo >= hi` (the bounds are literals at
    /// the declaration site, so this can never fire at run time).
    pub const fn new(name: &'static str, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "histogram range must satisfy lo < hi");
        #[cfg(not(feature = "obs"))]
        {
            let _ = (lo, hi);
        }
        HistogramMetric {
            name,
            #[cfg(feature = "obs")]
            lo,
            #[cfg(feature = "obs")]
            hi,
            #[cfg(feature = "obs")]
            bins: [const { AtomicU64::new(0) }; HISTOGRAM_BINS],
            #[cfg(feature = "obs")]
            registered: AtomicBool::new(false),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&'static self, x: f64) {
        #[cfg(feature = "obs")]
        {
            if x.is_nan() {
                return;
            }
            register(&self.registered, MetricRef::Histogram(self));
            let n = HISTOGRAM_BINS;
            let idx = if x < self.lo {
                0
            } else if x >= self.hi {
                n - 1
            } else {
                let frac = (x - self.lo) / (self.hi - self.lo);
                ((frac * n as f64) as usize).min(n - 1)
            };
            if let Some(bin) = self.bins.get(idx) {
                bin.fetch_add(1, Ordering::Relaxed); // xtask-atomics: per-bin histogram count; bins are independent relaxed counters
            }
        }
        #[cfg(not(feature = "obs"))]
        let _ = x;
    }

    /// Exports the current bin counts as a [`stats::Histogram`] with the
    /// same range and bin count (empty in a disabled build).
    pub fn export(&self) -> stats::Histogram {
        #[cfg(feature = "obs")]
        {
            let mut h = stats::Histogram::new(self.lo, self.hi, HISTOGRAM_BINS);
            let width = (self.hi - self.lo) / HISTOGRAM_BINS as f64;
            for (i, bin) in self.bins.iter().enumerate() {
                let mid = self.lo + width * (i as f64 + 0.5);
                h.add_n(mid, bin.load(Ordering::Relaxed)); // xtask-atomics: drain after recording stopped; per-bin totals are independent
            }
            h
        }
        #[cfg(not(feature = "obs"))]
        {
            stats::Histogram::new(0.0, 1.0, 1)
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Aggregated call count and total wall time for one [`span!`] site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Number of completed span scopes.
    pub calls: u64,
    /// Total host-clock nanoseconds across all scopes.
    pub total_ns: u64,
}

impl SpanStats {
    /// Mean nanoseconds per call (zero when no calls completed).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// The static accumulator behind a [`span!`] site.
///
/// Timing uses the host monotonic clock and is observation-only: span
/// durations are never visible to simulation code, so the determinism
/// guarantee (`same seed ⇒ same run`) is untouched.
#[derive(Debug)]
pub struct SpanMetric {
    name: &'static str,
    #[cfg(feature = "obs")]
    calls: AtomicU64,
    #[cfg(feature = "obs")]
    total_ns: AtomicU64,
    #[cfg(feature = "obs")]
    registered: AtomicBool,
}

impl SpanMetric {
    /// Creates a span accumulator; usually declared for you by [`span!`].
    pub const fn new(name: &'static str) -> Self {
        SpanMetric {
            name,
            #[cfg(feature = "obs")]
            calls: AtomicU64::new(0),
            #[cfg(feature = "obs")]
            total_ns: AtomicU64::new(0),
            #[cfg(feature = "obs")]
            registered: AtomicBool::new(false),
        }
    }

    /// Starts timing a scope; the returned guard records on drop.
    #[must_use = "the span measures until the guard is dropped"]
    #[inline]
    pub fn enter(&'static self) -> SpanGuard {
        #[cfg(feature = "obs")]
        {
            register(&self.registered, MetricRef::Span(self));
            SpanGuard {
                metric: self,
                // xtask-allow: determinism -- span timing measures the simulator on the host clock; durations never reach simulation state
                start: std::time::Instant::now(),
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            SpanGuard { _private: () }
        }
    }

    /// Aggregated statistics so far (zeros in a disabled build).
    pub fn stats(&self) -> SpanStats {
        #[cfg(feature = "obs")]
        {
            SpanStats {
                calls: self.calls.load(Ordering::Relaxed), // xtask-atomics: span metric read for reporting; tearing between fields is acceptable
                total_ns: self.total_ns.load(Ordering::Relaxed), // xtask-atomics: span metric read for reporting; tearing between fields is acceptable
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            SpanStats::default()
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// RAII guard returned by [`SpanMetric::enter`]; records elapsed time
/// into its span when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    #[cfg(feature = "obs")]
    metric: &'static SpanMetric,
    #[cfg(feature = "obs")]
    // xtask-allow: determinism -- host-clock profiling timestamp, observation-only
    start: std::time::Instant,
    #[cfg(not(feature = "obs"))]
    _private: (),
}

#[cfg(feature = "obs")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metric.total_ns.fetch_add(ns, Ordering::Relaxed); // xtask-atomics: span accumulators are independent relaxed counters
        self.metric.calls.fetch_add(1, Ordering::Relaxed); // xtask-atomics: span accumulators are independent relaxed counters
    }
}

/// Times the enclosing scope under a static [`SpanMetric`].
///
/// ```
/// use simkit::obs;
///
/// {
///     let _guard = obs::span!("example.decide");
/// }
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __OBS_SPAN: $crate::obs::SpanMetric = $crate::obs::SpanMetric::new($name);
        __OBS_SPAN.enter()
    }};
}

pub use crate::span;

/// A point-in-time copy of every registered metric, merged by name.
///
/// Duplicate counter and span names sum; duplicate gauges keep the value
/// encountered last in registration order; duplicate histograms merge
/// when their configuration matches and keep the first otherwise.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Span statistics by name.
    pub spans: BTreeMap<&'static str, SpanStats>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<&'static str, stats::Histogram>,
}

impl MetricsSnapshot {
    /// Whether the snapshot contains no metrics at all (always true in a
    /// disabled build).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.spans.is_empty()
            && self.histograms.is_empty()
    }

    /// Renders the snapshot as a `metric,kind,value` CSV document.
    ///
    /// Spans expand to `span_calls` / `span_total_ns` / `span_mean_ns`
    /// rows and histograms to `hist_count` / `hist_p50` / `hist_p95` /
    /// `hist_p99` rows; row order is lexicographic by metric name, so
    /// the output is deterministic.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("metric,kind,value\n");
        for (name, v) in &self.counters {
            let _ = writeln!(out, "{name},counter,{v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "{name},gauge,{v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "{name},hist_count,{}", h.count());
            if h.count() > 0 {
                let _ = writeln!(out, "{name},hist_p50,{}", h.percentile(50.0));
                let _ = writeln!(out, "{name},hist_p95,{}", h.percentile(95.0));
                let _ = writeln!(out, "{name},hist_p99,{}", h.percentile(99.0));
            }
        }
        for (name, s) in &self.spans {
            let _ = writeln!(out, "{name},span_calls,{}", s.calls);
            let _ = writeln!(out, "{name},span_total_ns,{}", s.total_ns);
            let _ = writeln!(out, "{name},span_mean_ns,{}", s.mean_ns());
        }
        out
    }
}

/// Captures the current value of every metric that has been touched
/// since the process started (or since the last [`reset`]).
///
/// Returns an empty snapshot in a disabled build.
pub fn snapshot() -> MetricsSnapshot {
    #[cfg_attr(not(feature = "obs"), allow(unused_mut))]
    let mut snap = MetricsSnapshot::default();
    #[cfg(feature = "obs")]
    if let Ok(reg) = REGISTRY.lock() {
        for metric in reg.iter() {
            match metric {
                MetricRef::Counter(c) => {
                    *snap.counters.entry(c.name).or_insert(0) += c.get();
                }
                MetricRef::Gauge(g) => {
                    snap.gauges.insert(g.name, g.get());
                }
                MetricRef::Histogram(h) => {
                    let exported = h.export();
                    match snap.histograms.get_mut(h.name) {
                        Some(existing)
                            if existing.lo() == exported.lo()
                                && existing.hi() == exported.hi()
                                && existing.bins().len() == exported.bins().len() =>
                        {
                            existing.merge(&exported);
                        }
                        Some(_) => {}
                        None => {
                            snap.histograms.insert(h.name, exported);
                        }
                    }
                }
                MetricRef::Span(s) => {
                    let stats = s.stats();
                    let entry = snap.spans.entry(s.name).or_default();
                    entry.calls += stats.calls;
                    entry.total_ns += stats.total_ns;
                }
            }
        }
    }
    snap
}

/// Zeroes every registered metric (registration itself is permanent).
///
/// Experiment drivers call this between runs so each metrics summary
/// covers exactly one experiment. No-op in a disabled build.
pub fn reset() {
    #[cfg(feature = "obs")]
    if let Ok(reg) = REGISTRY.lock() {
        for metric in reg.iter() {
            match metric {
                MetricRef::Counter(c) => c.value.store(0, Ordering::Relaxed), // xtask-atomics: reset store; callers quiesce recording before resetting
                MetricRef::Gauge(g) => g.bits.store(0f64.to_bits(), Ordering::Relaxed), // xtask-atomics: reset store; callers quiesce recording before resetting
                MetricRef::Histogram(h) => {
                    for bin in &h.bins {
                        bin.store(0, Ordering::Relaxed); // xtask-atomics: reset store; callers quiesce recording before resetting
                    }
                }
                MetricRef::Span(s) => {
                    s.calls.store(0, Ordering::Relaxed); // xtask-atomics: reset store; callers quiesce recording before resetting
                    s.total_ns.store(0, Ordering::Relaxed); // xtask-atomics: reset store; callers quiesce recording before resetting
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and `reset()` zeroes *every* metric,
    // so tests that mutate or assert on global state serialise on this.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    static TEST_COUNTER: Counter = Counter::new("test.counter");
    static TEST_GAUGE: Gauge = Gauge::new("test.gauge");
    static TEST_HIST: HistogramMetric = HistogramMetric::new("test.hist", 0.0, 10.0);
    static TEST_SPAN: SpanMetric = SpanMetric::new("test.span");

    #[test]
    fn counter_counts_when_enabled_and_stays_zero_when_disabled() {
        let _guard = lock();
        TEST_COUNTER.add(3);
        TEST_COUNTER.inc();
        if enabled() {
            assert!(TEST_COUNTER.get() >= 4);
        } else {
            assert_eq!(TEST_COUNTER.get(), 0);
        }
        assert_eq!(TEST_COUNTER.name(), "test.counter");
    }

    #[test]
    fn gauge_keeps_last_value() {
        let _guard = lock();
        TEST_GAUGE.set(1.5);
        TEST_GAUGE.set(2.5);
        if enabled() {
            assert_eq!(TEST_GAUGE.get(), 2.5);
        } else {
            assert_eq!(TEST_GAUGE.get(), 0.0);
        }
    }

    #[test]
    fn histogram_exports_to_stats_histogram() {
        let _guard = lock();
        TEST_HIST.record(1.0);
        TEST_HIST.record(9.0);
        TEST_HIST.record(f64::NAN); // dropped, not a panic
        let h = TEST_HIST.export();
        if enabled() {
            assert!(h.count() >= 2);
            assert_eq!(h.bins().len(), HISTOGRAM_BINS);
        } else {
            assert_eq!(h.count(), 0);
        }
    }

    #[test]
    fn span_records_calls_and_time() {
        let _guard = lock();
        {
            let _guard = TEST_SPAN.enter();
        }
        let stats = TEST_SPAN.stats();
        if enabled() {
            assert!(stats.calls >= 1);
        } else {
            assert_eq!(stats, SpanStats::default());
        }
    }

    #[test]
    fn span_macro_compiles_and_times_a_scope() {
        let _guard = lock();
        {
            let _guard = span!("test.macro_span");
        }
        let snap = snapshot();
        if enabled() {
            assert!(snap
                .spans
                .get("test.macro_span")
                .is_some_and(|s| s.calls >= 1));
        } else {
            assert!(snap.is_empty());
        }
    }

    #[test]
    fn snapshot_csv_is_deterministic_and_headed() {
        let _guard = lock();
        static A: Counter = Counter::new("csv.a");
        static B: Counter = Counter::new("csv.b");
        B.inc();
        A.inc();
        let snap = snapshot();
        let csv = snap.to_csv();
        assert!(csv.starts_with("metric,kind,value\n"));
        if enabled() {
            let a = csv.find("csv.a,counter").expect("csv.a row");
            let b = csv.find("csv.b,counter").expect("csv.b row");
            assert!(a < b, "rows sorted by name");
            assert_eq!(csv, snapshot().to_csv(), "stable across snapshots");
        }
    }

    #[test]
    fn reset_zeroes_registered_metrics() {
        let _guard = lock();
        static R: Counter = Counter::new("test.reset_me");
        R.add(10);
        reset();
        assert_eq!(R.get(), 0);
        if enabled() {
            // Still registered: shows up as an explicit zero.
            assert_eq!(snapshot().counters.get("test.reset_me"), Some(&0));
        }
    }

    #[test]
    fn mean_ns_handles_zero_calls() {
        assert_eq!(SpanStats::default().mean_ns(), 0.0);
        let s = SpanStats {
            calls: 4,
            total_ns: 100,
        };
        assert_eq!(s.mean_ns(), 25.0);
    }
}
