//! Cross-layer metrics registry and bounded structured event trace.
//!
//! Every simulated world owns one [`Metrics`] registry (created by
//! [`Network::new`](crate::Network::new) and shared by every layer built on
//! top: hosts, the TCP stack, the verbs stack, RUBIN, and the replication
//! protocol). The registry is *deterministic*: counters, gauges and
//! histograms live in slot vectors behind one ordered name→slot index per
//! kind, and [`MetricsSnapshot::to_json`] renders them byte-identically for
//! identical simulations — which is what lets the test suite assert the
//! paper's structural claims ("the RDMA data path crosses the kernel zero
//! times") directly from counters, and lets a determinism regression test
//! compare whole runs by comparing two JSON strings.
//!
//! There is one way in: **handles** ([`Counter`], [`Gauge`], [`Histo`]). A
//! layer formats `prefix + name` once where it builds its owner — normally
//! for a whole name table at a time, see [`metric_names!`](crate::metric_names) and [`Handles`]
//! — and a bump is then one indexed add: no formatting, no string compare,
//! no allocation. Building a handle declares its key to the registry
//! ([`Metrics::catalogue`]); a handle finds its slot on its *first* bump, so
//! a key shows up in snapshots exactly when something was recorded under
//! it. Readers ([`Metrics::counter`], [`Metrics::total`],
//! [`Metrics::snapshot`], …) look keys up by name.
//!
//! Key naming convention: `layer.scope.metric`, e.g.
//! `host.h0.kernel_crossings`, `rdma.h1.qp3.rnr_retries`,
//! `reptor.r2.view_changes`. Dots order lexicographically, so related keys
//! group together in snapshots. `METRICS.md` at the repository root lists
//! every declared key pattern; a test keeps it current.
//!
//! # Example
//!
//! ```
//! use simnet::metrics::Metrics;
//!
//! let m = Metrics::new();
//! let syscalls = m.counter_handle("host.h0.syscalls");
//! let _fill = m.histo_handle("reptor.r0.batch_fill_pct");
//! syscalls.incr();
//! syscalls.add(2);
//! let snap = m.snapshot();
//! assert_eq!(snap.counter("host.h0.syscalls"), 3);
//! assert!(!snap.histograms.contains_key("reptor.r0.batch_fill_pct"));
//! assert_eq!(m.catalogue().len(), 2, "both keys are declared");
//! assert!(simnet::metrics::validate_json(&snap.to_json()).is_ok());
//! ```

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::marker::PhantomData;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

pub use crate::stats::Histogram;
use crate::time::Nanos;

/// Bound on the structured event trace: past it, each new entry drops
/// (and counts) the oldest.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// Integer summary of a [`Histogram`], in the recorded unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Integer mean.
    pub mean: u64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 90th percentile (nearest rank).
    pub p90: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
}

/// One entry of the bounded structured trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulated time of the event, in nanoseconds.
    pub at_ns: u64,
    /// Emitting layer (`"reptor"`, `"rdma"`, `"tcp"`, …).
    pub layer: &'static str,
    /// Human-readable event description.
    pub event: String,
}

/// The values of one metric kind: a slot vector plus the ordered name→slot
/// index. Slots are only ever appended, so a resolved slot number stays
/// valid for the registry's lifetime.
#[derive(Debug)]
struct Slots<T> {
    index: BTreeMap<Rc<str>, u32>,
    values: Vec<T>,
}

impl<T> Default for Slots<T> {
    fn default() -> Slots<T> {
        Slots {
            index: BTreeMap::new(),
            values: Vec::new(),
        }
    }
}

impl<T: Default> Slots<T> {
    fn get(&self, key: &str) -> Option<&T> {
        self.index.get(key).map(|&slot| &self.values[slot as usize])
    }

    /// The slot of `key`, appended (holding `T::default()`) if the key is
    /// new.
    fn slot(&mut self, key: &Rc<str>) -> u32 {
        if let Some(&slot) = self.index.get(&**key) {
            return slot;
        }
        let slot = u32::try_from(self.values.len()).expect("fewer than 2^32 metric keys");
        self.values.push(T::default());
        self.index.insert(Rc::clone(key), slot);
        slot
    }

    /// `(key, value)` in lexicographic key order.
    fn iter(&self) -> impl Iterator<Item = (&str, &T)> {
        self.index
            .iter()
            .map(|(key, &slot)| (&**key, &self.values[slot as usize]))
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: Slots<u64>,
    gauges: Slots<i64>,
    histograms: Slots<Histogram>,
    /// Every key pattern a handle was built for: a table's prefix pattern
    /// with its names, or a lone key's pattern with the one name `""`.
    declared: BTreeSet<(MetricKind, String, &'static [&'static str])>,
    trace: VecDeque<TraceEvent>,
    trace_dropped: u64,
}

/// True if `key` is `<anything>.{metric}`.
fn has_metric_suffix(key: &str, metric: &str) -> bool {
    key.strip_suffix(metric)
        .is_some_and(|scope| scope.ends_with('.'))
}

/// `key` with every run of digits written `<N>`, so `host.h3.syscalls`,
/// `rdma.h0.qp12.sends_posted` and `tcp.h1:49152.copies` each collapse into
/// one pattern.
fn pattern(key: &str) -> String {
    let mut out = String::with_capacity(key.len());
    let mut in_digits = false;
    for c in key.chars() {
        if c.is_ascii_digit() {
            if !in_digits {
                out.push_str("<N>");
            }
            in_digits = true;
        } else {
            out.push(c);
            in_digits = false;
        }
    }
    out
}

/// Kind of a metric slot, as listed by [`Metrics::catalogue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetricKind {
    /// Monotonic `u64` counter.
    Counter,
    /// Last-write `i64` gauge.
    Gauge,
    /// Histogram of `u64` observations.
    Histogram,
}

impl MetricKind {
    /// Lower-case name, as `METRICS.md` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Marks a handle that has not been bumped yet.
const UNRESOLVED: u32 = u32::MAX;

/// What the three handle kinds share: the registry, the full key and the
/// slot once known.
#[derive(Debug, Clone)]
struct Handle {
    registry: Rc<RefCell<Registry>>,
    key: Rc<str>,
    slot: Cell<u32>,
}

impl Handle {
    /// Applies `update` to this handle's value among `slots(registry)`,
    /// finding (or creating) the slot on the first call.
    fn update<T: Default>(
        &self,
        slots: impl FnOnce(&mut Registry) -> &mut Slots<T>,
        update: impl FnOnce(&mut T),
    ) {
        let mut registry = self.registry.borrow_mut();
        let slots = slots(&mut registry);
        let mut slot = self.slot.get();
        if slot == UNRESOLVED {
            slot = slots.slot(&self.key);
            self.slot.set(slot);
        }
        update(&mut slots.values[slot as usize]);
    }
}

/// Handle to one counter; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Counter(Handle);

impl Counter {
    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increments the counter by `n` (`add(0)` still creates the key).
    pub fn add(&self, n: u64) {
        self.0.update(|r| &mut r.counters, |c| *c += n);
    }
}

/// Handle to one gauge; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Gauge(Handle);

impl Gauge {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: i64) {
        self.0.update(|r| &mut r.gauges, |g| *g = value);
    }
}

/// Handle to one histogram; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Histo(Handle);

impl Histo {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.0.update(|r| &mut r.histograms, |h| h.observe(value));
    }
}

/// A layer's table of metric names. Implemented by [`metric_names!`](crate::metric_names); the
/// table is that layer's slice of the metric catalogue.
pub trait MetricNames: Copy {
    /// Key suffixes, in variant order.
    const NAMES: &'static [&'static str];

    /// This variant's position in [`Self::NAMES`].
    fn index(self) -> usize;
}

/// Declares a fieldless enum whose variants name a layer's metrics, and
/// implements [`MetricNames`] for it:
///
/// ```
/// use simnet::metrics::{Counters, Metrics};
///
/// simnet::metric_names! {
///     /// Counters of one widget, under `widget.<id>.`.
///     enum WidgetCounter {
///         Spins => "spins",
///         Jams => "jams",
///     }
/// }
///
/// let m = Metrics::new();
/// let counters: Counters<WidgetCounter> = m.counters("widget.w0.");
/// counters[WidgetCounter::Spins].incr();
/// assert_eq!(m.counter("widget.w0.spins"), 1);
/// assert!(!m.snapshot().counters.contains_key("widget.w0.jams"));
/// ```
#[macro_export]
macro_rules! metric_names {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($variant:ident => $key:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $name {
            $(#[doc = $key] $variant),+
        }

        impl $crate::metrics::MetricNames for $name {
            const NAMES: &'static [&'static str] = &[$($key),+];

            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// One handle per name of the table `K`, all under one key prefix; index it
/// with a `K` variant.
#[derive(Debug, Clone)]
pub struct Handles<K, H> {
    handles: Box<[H]>,
    names: PhantomData<K>,
}

impl<K: MetricNames, H> std::ops::Index<K> for Handles<K, H> {
    type Output = H;

    fn index(&self, name: K) -> &H {
        &self.handles[name.index()]
    }
}

/// Counter handles for the name table `K`.
pub type Counters<K> = Handles<K, Counter>;
/// Gauge handles for the name table `K`.
pub type Gauges<K> = Handles<K, Gauge>;
/// Histogram handles for the name table `K`.
pub type Histos<K> = Handles<K, Histo>;

/// Shared handle to a metrics registry. Cheap to clone; every layer of one
/// simulated world holds the same underlying registry.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Rc<RefCell<Registry>>,
}

impl Metrics {
    /// Creates a fresh, empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    fn handle(&self, key: &str) -> Handle {
        Handle {
            registry: Rc::clone(&self.inner),
            key: Rc::from(key),
            slot: Cell::new(UNRESOLVED),
        }
    }

    /// Records that keys `{prefix}{name}` of `kind` exist, one per name.
    fn declare(&self, kind: MetricKind, prefix: &str, names: &'static [&'static str]) {
        self.inner
            .borrow_mut()
            .declared
            .insert((kind, pattern(prefix), names));
    }

    fn handles<K: MetricNames, H>(
        &self,
        kind: MetricKind,
        prefix: &str,
        make: fn(Handle) -> H,
    ) -> Handles<K, H> {
        self.declare(kind, prefix, K::NAMES);
        let mut key = String::from(prefix);
        let handles = K::NAMES
            .iter()
            .map(|name| {
                key.truncate(prefix.len());
                key.push_str(name);
                make(self.handle(&key))
            })
            .collect();
        Handles {
            handles,
            names: PhantomData,
        }
    }

    /// A handle to the counter `key`. The key is declared now; its value is
    /// created on the first bump.
    pub fn counter_handle(&self, key: &str) -> Counter {
        self.declare(MetricKind::Counter, key, &[""]);
        Counter(self.handle(key))
    }

    /// A handle to the gauge `key`. The key is declared now; its value is
    /// created when it is first set.
    pub fn gauge_handle(&self, key: &str) -> Gauge {
        self.declare(MetricKind::Gauge, key, &[""]);
        Gauge(self.handle(key))
    }

    /// A handle to the histogram `key`. The key is declared now; its value
    /// is created on the first observation.
    pub fn histo_handle(&self, key: &str) -> Histo {
        self.declare(MetricKind::Histogram, key, &[""]);
        Histo(self.handle(key))
    }

    /// Counter handles for every name of `K`, keyed `{prefix}{name}`.
    pub fn counters<K: MetricNames>(&self, prefix: &str) -> Counters<K> {
        self.handles(MetricKind::Counter, prefix, Counter)
    }

    /// Gauge handles for every name of `K`, keyed `{prefix}{name}`.
    pub fn gauges<K: MetricNames>(&self, prefix: &str) -> Gauges<K> {
        self.handles(MetricKind::Gauge, prefix, Gauge)
    }

    /// Histogram handles for every name of `K`, keyed `{prefix}{name}`.
    pub fn histos<K: MetricNames>(&self, prefix: &str) -> Histos<K> {
        self.handles(MetricKind::Histogram, prefix, Histo)
    }

    /// Current value of counter `key` (zero if never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.inner.borrow().counters.get(key).copied().unwrap_or(0)
    }

    /// Current value of gauge `key` (zero if never set).
    pub fn gauge(&self, key: &str) -> i64 {
        self.inner.borrow().gauges.get(key).copied().unwrap_or(0)
    }

    /// A clone of the histogram `key`, if any values were observed.
    pub fn histogram(&self, key: &str) -> Option<Histogram> {
        self.inner.borrow().histograms.get(key).cloned()
    }

    /// Appends a structured trace event; the oldest entry is dropped (and
    /// counted) once the ring is full.
    pub fn trace(&self, at: Nanos, layer: &'static str, event: impl Into<String>) {
        let mut reg = self.inner.borrow_mut();
        if reg.trace.len() >= DEFAULT_TRACE_CAPACITY {
            reg.trace.pop_front();
            reg.trace_dropped += 1;
        }
        reg.trace.push_back(TraceEvent {
            at_ns: at.as_nanos(),
            layer,
            event: event.into(),
        });
    }

    /// Sums every counter whose key ends in `.{metric}` — e.g.
    /// `total("syscalls")` adds the syscall counters of all hosts.
    pub fn total(&self, metric: &str) -> u64 {
        let reg = self.inner.borrow();
        reg.counters
            .iter()
            .filter(|(key, _)| has_metric_suffix(key, metric))
            .map(|(_, value)| value)
            .sum()
    }

    /// Kind and key pattern (digit runs written `<N>`) of every metric a
    /// handle was built for, bumped or not, ordered by kind, then pattern.
    pub fn catalogue(&self) -> Vec<(MetricKind, String)> {
        let reg = self.inner.borrow();
        let mut out: Vec<(MetricKind, String)> = reg
            .declared
            .iter()
            .flat_map(|(kind, prefix, names)| {
                names
                    .iter()
                    .map(move |name| (*kind, pattern(&format!("{prefix}{name}"))))
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Produces an immutable, serializable snapshot of everything recorded
    /// so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.inner.borrow();
        MetricsSnapshot {
            counters: reg
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: reg
                .gauges
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            histograms: reg
                .histograms
                .iter()
                .map(|(k, h)| (k.to_string(), h.summary()))
                .collect(),
            trace: reg.trace.iter().cloned().collect(),
            trace_dropped: reg.trace_dropped,
        }
    }
}

/// An immutable snapshot of a [`Metrics`] registry.
///
/// Rendering with [`MetricsSnapshot::to_json`] is deterministic: keys are
/// ordered (`BTreeMap`), all numbers are integers, and the trace preserves
/// insertion order — identical simulations produce byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters by key.
    pub counters: BTreeMap<String, u64>,
    /// Last-write gauges by key.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by key.
    pub histograms: BTreeMap<String, HistogramSummary>,
    /// The bounded structured trace, oldest first.
    pub trace: Vec<TraceEvent>,
    /// Number of trace events evicted by the ring bound.
    pub trace_dropped: u64,
}

impl MetricsSnapshot {
    /// Counter value by key (zero if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Gauge value by key (zero if absent).
    pub fn gauge(&self, key: &str) -> i64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Histogram summary by key, if present.
    pub fn histogram(&self, key: &str) -> Option<&HistogramSummary> {
        self.histograms.get(key)
    }

    /// Sums every counter whose key ends in `.{metric}`.
    pub fn total(&self, metric: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(key, _)| has_metric_suffix(key, metric))
            .map(|(_, value)| value)
            .sum()
    }

    /// Renders the snapshot as deterministic JSON (ordered keys, integer
    /// values, hand-rolled because no JSON crate is available offline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        out.push_str("\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str(&format!(
                "{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                h.count, h.min, h.max, h.mean, h.p50, h.p90, h.p99
            ));
        });
        out.push_str("},\"trace\":[");
        for (i, ev) in self.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"at_ns\":{},\"layer\":{},\"event\":{}}}",
                ev.at_ns,
                json_string(ev.layer),
                json_string(&ev.event)
            ));
        }
        out.push_str("],\"trace_dropped\":");
        out.push_str(&self.trace_dropped.to_string());
        out.push('}');
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut render: impl FnMut(&mut String, &V),
) {
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        render(out, v);
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Validates that `s` is one complete JSON value (object, array, string,
/// number, boolean or null). Returns a byte offset and description on error.
///
/// A minimal recursive-descent checker — enough for tests and tools to
/// guard the sidecar format without an external JSON crate.
pub fn validate_json(s: &str) -> Result<(), String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                skip_ws(b, pos);
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                parse_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos),
        Some(b't') => parse_lit(b, pos, b"true"),
        Some(b'f') => parse_lit(b, pos, b"false"),
        Some(b'n') => parse_lit(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn expect(b: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", want as char))
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        if b.len() < *pos + 5
                            || !b[*pos + 1..*pos + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at byte {pos}"));
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        let a = m.counter_handle("a.b.c");
        let b = m.counter_handle("a.b.c");
        a.incr();
        a.add(4);
        // Two handles for one key share its slot, whichever resolved it.
        b.add(5);
        a.clone().incr();
        assert_eq!(m.counter("a.b.c"), 11);
        assert_eq!(m.snapshot().counters.len(), 1);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn totals_sum_by_suffix() {
        let m = Metrics::new();
        m.counter_handle("host.h0.syscalls").add(3);
        m.counter_handle("host.h1.syscalls").add(4);
        m.counter_handle("host.h0.syscalls_total_other").add(100);
        assert_eq!(m.total("syscalls"), 7);
        assert_eq!(m.snapshot().total("syscalls"), 7);
    }

    crate::metric_names! {
        enum Probe {
            Hits => "hits",
            Misses => "misses",
        }
    }

    #[test]
    fn never_bumped_handle_leaves_no_key() {
        let m = Metrics::new();
        let counters: Counters<Probe> = m.counters("probe.p0.");
        let _gauge = m.gauge_handle("probe.p0.depth");
        let _histo = m.histo_handle("probe.p0.wait_ns");
        // Bumped in another order than the keys sort: slots are numbered
        // by first use, snapshots are ordered by key.
        counters[Probe::Misses].add(3);
        counters[Probe::Hits].incr();
        assert_eq!(m.counter("probe.p0.misses"), 3);
        let snap = m.snapshot();
        assert_eq!(
            snap.counters.keys().collect::<Vec<_>>(),
            ["probe.p0.hits", "probe.p0.misses"],
            "only the bumped counters exist"
        );
        assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn catalogue_lists_a_tables_keys_before_any_bump() {
        let m = Metrics::new();
        let p0: Counters<Probe> = m.counters("probe.p0.");
        let _p12: Counters<Probe> = m.counters("probe.p12.");
        let _depth = m.gauge_handle("probe.p3.depth");
        let _wait = m.histo_handle("probe.wait_ns");
        let declared = [
            (MetricKind::Counter, "probe.p<N>.hits"),
            (MetricKind::Counter, "probe.p<N>.misses"),
            (MetricKind::Gauge, "probe.p<N>.depth"),
            (MetricKind::Histogram, "probe.wait_ns"),
        ]
        .map(|(kind, key)| (kind, key.to_string()));
        assert_eq!(m.catalogue(), declared, "declared when built");
        assert_eq!(m.snapshot(), Metrics::new().snapshot(), "nothing recorded");

        p0[Probe::Hits].incr();
        assert_eq!(m.catalogue(), declared, "a bump declares nothing new");
        assert_eq!(
            m.snapshot().counters.into_iter().collect::<Vec<_>>(),
            [("probe.p0.hits".to_string(), 1)],
            "a snapshot lists only the bumped key"
        );
    }

    #[test]
    fn zero_increment_still_creates_the_key() {
        let m = Metrics::new();
        let counters: Counters<Probe> = m.counters("by.table.");
        counters[Probe::Hits].add(0);
        m.counter_handle("by.handle").add(0);
        let snap = m.snapshot();
        assert_eq!(snap.counters.get("by.table.hits"), Some(&0));
        assert_eq!(snap.counters.get("by.handle"), Some(&0));
        assert_eq!(snap.counters.len(), 2);
    }

    #[test]
    fn histogram_summary_orders() {
        let mut h = Histogram::new();
        for v in [5u64, 1, 9, 3, 7] {
            h.observe(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 9);
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        assert!((s.min..=s.max).contains(&s.mean));
    }

    #[test]
    fn trace_ring_is_bounded() {
        let m = Metrics::new();
        let pushed = DEFAULT_TRACE_CAPACITY as u64 + 2;
        for i in 0..pushed {
            m.trace(Nanos::from_nanos(i), "test", format!("ev{i}"));
        }
        let snap = m.snapshot();
        assert_eq!(snap.trace.len(), DEFAULT_TRACE_CAPACITY);
        assert_eq!(snap.trace_dropped, 2);
        assert_eq!(snap.trace[0].event, "ev2");
        assert_eq!(
            snap.trace[DEFAULT_TRACE_CAPACITY - 1].event,
            format!("ev{}", pushed - 1)
        );
    }

    #[test]
    fn snapshot_json_is_valid_and_deterministic() {
        let build = || {
            let m = Metrics::new();
            m.counter_handle("host.h0.kernel_copies").add(2);
            m.gauge_handle("rubin.h0.pool.recv.high_water").set(-1);
            m.histo_handle("reptor.r0.phase.commit_ns").observe(420);
            m.trace(Nanos::from_nanos(7), "reptor", "view change \"quoted\"\n");
            m.snapshot().to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same operations must render identical JSON");
        validate_json(&a).expect("snapshot JSON validates");
        assert!(a.contains("\"host.h0.kernel_copies\":2"));
        assert!(a.contains("\\\"quoted\\\""));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-12.5e+3",
            r#"{"a":[1,2,{"b":"c\n"}],"d":true}"#,
            "  [ 1 , 2 ]  ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("{ok:?} should validate: {e}"));
        }
        for bad in ["", "{", "[1,]", "{\"a\"}", "01x", "\"unterminated", "{}{}"] {
            assert!(validate_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let j = Metrics::new().snapshot().to_json();
        validate_json(&j).expect("empty snapshot validates");
        assert_eq!(
            j,
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"trace\":[],\"trace_dropped\":0}"
        );
    }
}
