//! The traced run's instruments, all owned by the benchmark: an
//! in-memory span recorder and a timing oracle wrapper. Nothing here
//! reaches inside the program; spans bracket calls into public
//! functions, and the oracle wrapper sits under every decorator the
//! serving layers add, so it sees exactly the counted accesses.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use lcakp_knapsack::{Item, ItemId, Norms};
use lcakp_oracle::{AccessSnapshot, ItemOracle, OracleError, WeightedSampler};
use rand::Rng;

/// One recorded span. Spans of one query share `query`. A folded span
/// stands for `count` calls whose summed duration is `busy_ns`; for an
/// ordinary span `count` is 1 and `busy_ns` is `end_ns - start_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub query: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
    pub count: u64,
}

/// In-memory span store, written out once when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            query,
            start_ns,
            end_ns: start_ns,
            busy_ns: 0,
            count: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Duration of closed span `id`.
    pub fn busy_ns(&self, id: usize) -> u64 {
        self.spans[id].busy_ns
    }

    /// Records `count` calls totalling `busy_ns` inside `parent` as one
    /// folded child span covering the parent's interval.
    pub fn fold(&mut self, name: &'static str, parent: usize, busy_ns: u64, count: u64) {
        let outer = self.spans[parent];
        self.spans.push(Span {
            name,
            parent: Some(parent),
            query: outer.query,
            start_ns: outer.start_ns,
            end_ns: outer.end_ns,
            busy_ns,
            count,
        });
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.busy_ns)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"query\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"count\":{}}}",
                span.name, span.query, span.start_ns, span.end_ns, span.busy_ns, span.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Summed oracle call time and call counts seen by a [`TimedOracle`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleTally {
    pub sample_ns: u64,
    pub samples: u64,
    pub point_ns: u64,
    pub points: u64,
}

impl OracleTally {
    pub fn since(self, earlier: OracleTally) -> OracleTally {
        OracleTally {
            sample_ns: self.sample_ns - earlier.sample_ns,
            samples: self.samples - earlier.samples,
            point_ns: self.point_ns - earlier.point_ns,
            points: self.points - earlier.points,
        }
    }

    /// The tally with the timer's own cost, `floor_ns` per call,
    /// taken out.
    pub fn net(self, floor_ns: f64) -> OracleTally {
        let less = |ns: u64, calls: u64| ns.saturating_sub((calls as f64 * floor_ns) as u64);
        OracleTally {
            sample_ns: less(self.sample_ns, self.samples),
            point_ns: less(self.point_ns, self.points),
            ..self
        }
    }

    pub fn busy_ns(self) -> u64 {
        self.sample_ns + self.point_ns
    }

    pub fn calls(self) -> u64 {
        self.samples + self.points
    }
}

/// Times every weighted sample and point query it forwards. Answers and
/// access counts are the inner oracle's, untouched.
#[derive(Debug)]
pub struct TimedOracle<'a, O> {
    inner: &'a O,
    sample_ns: AtomicU64,
    samples: AtomicU64,
    point_ns: AtomicU64,
    points: AtomicU64,
}

impl<'a, O> TimedOracle<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        TimedOracle {
            inner,
            sample_ns: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            point_ns: AtomicU64::new(0),
            points: AtomicU64::new(0),
        }
    }

    pub fn tally(&self) -> OracleTally {
        OracleTally {
            sample_ns: self.sample_ns.load(Relaxed),
            samples: self.samples.load(Relaxed),
            point_ns: self.point_ns.load(Relaxed),
            points: self.points.load(Relaxed),
        }
    }
}

pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What the timer reads for an empty interval: the per-call cost a
/// [`TimedOracle`] adds to its own readings, taken out by
/// [`OracleTally::net`].
pub fn timer_floor_ns() -> f64 {
    let mut readings: Vec<u64> = (0..10_001)
        .map(|_| elapsed_ns(std::hint::black_box(Instant::now())))
        .collect();
    readings.sort_unstable();
    readings[readings.len() / 2] as f64
}

impl<O: ItemOracle> ItemOracle for TimedOracle<'_, O> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn norms(&self) -> Norms {
        self.inner.norms()
    }

    fn try_query(&self, id: ItemId) -> Result<Item, OracleError> {
        let start = Instant::now();
        let result = self.inner.try_query(id);
        self.point_ns.fetch_add(elapsed_ns(start), Relaxed);
        self.points.fetch_add(1, Relaxed);
        result
    }

    fn stats(&self) -> AccessSnapshot {
        self.inner.stats()
    }
}

impl<O: WeightedSampler> WeightedSampler for TimedOracle<'_, O> {
    fn try_sample_weighted<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(ItemId, Item), OracleError> {
        let start = Instant::now();
        let result = self.inner.try_sample_weighted(rng);
        self.sample_ns.fetch_add(elapsed_ns(start), Relaxed);
        self.samples.fetch_add(1, Relaxed);
        result
    }
}
