//! Allocation audit for the serving hot path (ROADMAP: zero-alloc
//! serving). A counting `#[global_allocator]` wraps the system
//! allocator and reports, as canonical JSON:
//!
//!   1. the E14 smoke serving path (`run_smoke`): total allocations,
//!      total/peak bytes, and per-query averages across the batch;
//!   2. a steady-state loop of `query_with_audit_in` with one reused
//!      [`QueryScratch`]: after the warm-up query has sized the scratch
//!      buffers (sampled items, efficiency keys, and the rQuantile
//!      sorted keys, position array and batch layout), per-query
//!      allocations come only from the ε-bounded vectors a query
//!      builds and returns (threshold keys, Ĩ, CONVERT-GREEDY's order,
//!      the rule's item set).
//!
//! `--check` exits nonzero if the steady-state per-query allocation
//! count exceeds `STEADY_ALLOC_BUDGET` or the steady-state bytes per
//! query exceed `STEADY_BYTES_BUDGET` — the CI smoke that keeps
//! allocation regressions out of the serving loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use lcakp_bench::experiment_root;
use lcakp_core::{LcaKp, QueryScratch};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::ItemId;
use lcakp_oracle::InstanceOracle;
use lcakp_reproducible::SampleBudget;
use lcakp_service::run_smoke;
use lcakp_workloads::{Family, WorkloadSpec};

/// Steady-state per-query allocation budget, enforced by `--check`.
/// Measured 5 allocations/query on the reference configuration: the
/// threshold keys, the Ĩ construction and CONVERT-GREEDY's vectors over
/// the ε-sized tilde instance, and the returned rule's item set (the
/// reviewed `allow(D011)` sites); every rQuantile buffer lives in the
/// scratch. The budget leaves ~3x headroom so only a structural
/// regression — a hoisted buffer moving back into the query path —
/// trips it.
const STEADY_ALLOC_BUDGET: u64 = 16;

/// Steady-state per-query allocated-bytes budget, enforced by
/// `--check`. Measured 1,016 bytes/query on the reference
/// configuration (the same ε-bounded vectors); ~3x headroom. One
/// per-query copy of the efficiency sample (~1.1 MB here) trips it,
/// which the count budget cannot see.
const STEADY_BYTES_BUDGET: u64 = 3_072;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: u64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size, Relaxed);
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
}

/// Counts every allocation event and tracks live/peak bytes. `realloc`
/// counts as one event for its full new size: growing a `Vec` without
/// reserved capacity is exactly the regression this audit watches for.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            on_alloc(new_size as u64);
        }
        new_ptr
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[derive(Clone, Copy)]
struct Snapshot {
    allocs: u64,
    bytes: u64,
    peak: u64,
}

fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Counter deltas across a measured section. Peak is reset at section
/// entry so it reports the section's own high-water mark over the
/// section's entry live bytes.
fn begin_section() -> Snapshot {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
    snapshot()
}

struct Section {
    allocs: u64,
    bytes: u64,
    peak: u64,
}

fn end_section(start: Snapshot) -> Section {
    let now = snapshot();
    Section {
        allocs: now.allocs - start.allocs,
        bytes: now.bytes - start.bytes,
        peak: now.peak,
    }
}

/// Integer per-query average in thousandths, keeping the JSON free of
/// platform-dependent float formatting.
fn per_query_milli(total: u64, queries: u64) -> u64 {
    if queries == 0 {
        return 0;
    }
    total.saturating_mul(1000) / queries
}

fn main() {
    // lcakp-lint: allow(D002) reason="--check flag selects CI gating, no entropy involved"
    let check = std::env::args().any(|a| a == "--check");

    // Section 1: the E14 smoke serving path, end to end (workload
    // generation, journal, breaker, the works).
    let smoke_start = begin_section();
    let run = run_smoke(&experiment_root("e14")).expect("e14 smoke runs");
    let smoke = end_section(smoke_start);
    let smoke_queries = run.report.outcomes.len() as u64;

    // Section 2: steady-state queries with a reused scratch. Setup and
    // warm-up are outside the measured window: the warm-up query sizes
    // the scratch buffers, so the measured loop sees only the
    // allocations the scratch hoisting could not remove.
    let root = experiment_root("alloc-audit");
    let spec = WorkloadSpec::new(Family::SmallDominated, 400, 0xA110C);
    let norm = spec.generate_normalized().expect("workload generates");
    let oracle = InstanceOracle::new(&norm);
    let eps = Epsilon::new(1, 4).expect("valid eps");
    let lca = LcaKp::new(eps)
        .expect("lca builds")
        .with_budget(SampleBudget::Calibrated { factor: 0.01 });
    let shared_seed = root.derive("alloc-audit/shared-seed", 0);
    let mut rng = root.derive("alloc-audit/sampling", 0).rng();
    let mut scratch = QueryScratch::default();

    lca.query_with_audit_in(&oracle, &mut rng, ItemId(0), &shared_seed, &mut scratch)
        .expect("warm-up query");

    let steady_queries = 64u64;
    let steady_start = begin_section();
    for i in 0..steady_queries {
        let item = ItemId((i as usize * 7) % norm.len());
        lca.query_with_audit_in(&oracle, &mut rng, item, &shared_seed, &mut scratch)
            .expect("steady-state query");
    }
    let steady = end_section(steady_start);
    let steady_per_query = steady.allocs.div_ceil(steady_queries);
    let steady_bytes_per_query = steady.bytes.div_ceil(steady_queries);

    println!("{{");
    println!("  \"smoke\": {{");
    println!("    \"queries\": {smoke_queries},");
    println!("    \"allocations\": {},", smoke.allocs);
    println!("    \"bytes\": {},", smoke.bytes);
    println!("    \"peak_bytes\": {},", smoke.peak);
    println!(
        "    \"allocations_per_query_milli\": {},",
        per_query_milli(smoke.allocs, smoke_queries)
    );
    println!(
        "    \"bytes_per_query_milli\": {}",
        per_query_milli(smoke.bytes, smoke_queries)
    );
    println!("  }},");
    println!("  \"steady_state\": {{");
    println!("    \"queries\": {steady_queries},");
    println!("    \"allocations\": {},", steady.allocs);
    println!("    \"bytes\": {},", steady.bytes);
    println!("    \"peak_bytes\": {},", steady.peak);
    println!("    \"allocations_per_query\": {steady_per_query},");
    println!("    \"budget_per_query\": {STEADY_ALLOC_BUDGET},");
    println!("    \"bytes_per_query\": {steady_bytes_per_query},");
    println!("    \"bytes_budget_per_query\": {STEADY_BYTES_BUDGET}");
    println!("  }}");
    println!("}}");

    if check && steady_per_query > STEADY_ALLOC_BUDGET {
        eprintln!(
            "alloc_audit: steady-state allocations per query {steady_per_query} exceeds \
             budget {STEADY_ALLOC_BUDGET}"
        );
        std::process::exit(1);
    }
    if check && steady_bytes_per_query > STEADY_BYTES_BUDGET {
        eprintln!(
            "alloc_audit: steady-state bytes per query {steady_bytes_per_query} exceeds \
             budget {STEADY_BYTES_BUDGET}"
        );
        std::process::exit(1);
    }
}
