//! The concurrent batch-serving runtime.
//!
//! [`serve_batch`] dispatches a batch of `LCA-KP` point queries over a
//! pool of `std::thread` workers, each draining its own pre-admitted
//! shard, and returns one explicit disposition per query: an answer
//! tagged with its degradation-ladder tier, or a typed load-shed
//! rejection.
//!
//! # Determinism under concurrency
//!
//! The output is a pure function of `(instance, LcaKp config, shared
//! seed, service root seed, batch, ServiceConfig, chaos plan)` — thread
//! scheduling cannot change a byte of it. The design rules that make
//! this hold:
//!
//! * **static sharding** — query `i` always runs on worker
//!   `i mod workers`; there is no work stealing;
//! * **pre-filled queues** — every admission decision is made by
//!   [`admit`] *before* any worker starts draining, so which queries are
//!   shed as [`ShedReason::QueueFull`] never races;
//! * **worker-local state** — each worker owns a [`ShardCore`] (its
//!   [`TickClock`], [`CircuitBreaker`], [`BudgetedOracle`] slice — the
//!   global cap is split per worker — and sampling scratch), and serves
//!   its shard sequentially;
//! * **per-query seeds** — sampling entropy, fault streams, and backoff
//!   jitter derive from the service root by *global batch position*, not
//!   by arrival order;
//! * **replayed attempts** — a query-level retry re-creates the same
//!   sampling stream, so a retry that succeeds returns exactly the
//!   answer the fault-free run would have.
//!
//! Responses are merged and sorted by batch position at the end.

use crate::admission::ShedReason;
use crate::backoff::BackoffPolicy;
use crate::breaker::{BreakerConfig, BreakerEvent, CircuitBreaker};
use crate::clock::{TickClock, VirtualClock};
use crate::deadline::{CostModel, DeadlineOracle};
use crate::journal::{Journal, JournalRecord, RecoveryError, WorkerSnapshot};
use crate::traffic::Arrival;
use lcakp_core::{
    DegradationReason, LcaError, LcaKp, QueryScratch, ResponseTier, RetryPolicy, SolutionRule,
};
use lcakp_knapsack::{Item, ItemId, Selection};
use lcakp_oracle::{
    BudgetedOracle, FaultPlan, FaultyOracle, ItemOracle, OracleError, Seed, WeightedSampler,
};
use std::fmt;

/// Seed domain for per-query sampling entropy.
const QUERY_DOMAIN: &str = "service/query";
/// Seed domain for per-query fault streams.
const FAULT_DOMAIN: &str = "service/fault";
/// Seed domain for the cached-rule construction stream.
const CACHE_DOMAIN: &str = "service/cache";

/// One scheduled worker death, as the worker consumes it: kill the
/// worker at the first journal-consistent point after `at_tick` on its
/// virtual clock, optionally tearing the in-flight journal write, and
/// optionally revive it afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashDirective {
    /// Virtual tick the crash fires at (the first crash point at or
    /// after it).
    pub at_tick: u64,
    /// How many bytes of the in-flight journal write survive —
    /// `None` kills between writes (nothing torn), `Some(k)` keeps the
    /// first `k` bytes of the pending record(s).
    pub torn_keep: Option<usize>,
    /// Whether a matching restart revives the worker; without one the
    /// rest of its shard is shed as [`ShedReason::WorkerCrashed`].
    pub restarts: bool,
}

/// How faithfully a restarted worker rebuilds itself from its journal.
/// Everything except [`Faithful`](RecoveryDiscipline::Faithful) is a
/// deliberately planted recovery bug: the E15 simulator proves it can
/// catch (and shrink) exactly these mistakes, which is the
/// self-validation half of its acceptance criteria.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryDiscipline {
    /// Full recovery: replay the journal, restore clock, breaker, and
    /// budget from the last snapshot.
    #[default]
    Faithful,
    /// Bug: restore state but never replay journaled dispositions —
    /// every query completed before the crash is silently dropped.
    SkipJournalReplay,
    /// Bug: resume with a fresh (closed, event-free) breaker.
    SkipBreakerRestore,
    /// Bug: resume with the budget spend reset to zero.
    SkipBudgetRestore,
    /// Bug: resume with the virtual clock reset to zero.
    SkipClockRestore,
}

impl fmt::Display for RecoveryDiscipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryDiscipline::Faithful => write!(f, "faithful"),
            RecoveryDiscipline::SkipJournalReplay => write!(f, "skip-journal-replay"),
            RecoveryDiscipline::SkipBreakerRestore => write!(f, "skip-breaker-restore"),
            RecoveryDiscipline::SkipBudgetRestore => write!(f, "skip-budget-restore"),
            RecoveryDiscipline::SkipClockRestore => write!(f, "skip-clock-restore"),
        }
    }
}

/// Deterministic per-query fault assignment — implemented by the chaos
/// harness; `None` in production use. `Sync` because every worker reads
/// the schedule concurrently.
pub trait FaultSchedule: Sync {
    /// The fault plan injected for the query at batch position `index`.
    fn plan_for(&self, index: usize) -> FaultPlan;

    /// Crash/restart directives for `worker`, ordered by `at_tick`.
    /// The default schedule never kills anyone.
    fn crash_directives(&self, worker: usize) -> Vec<CrashDirective> {
        let _ = worker;
        Vec::new()
    }
}

/// Tuning of the serving runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads (each owns a shard, a clock, a breaker, and a
    /// budget slice). Must be ≥ 1.
    pub workers: usize,
    /// Bound of each worker's admission queue. Must be ≥ 1.
    pub queue_depth: usize,
    /// Per-query deadline, in virtual ticks from the query's start.
    pub deadline_ticks: u64,
    /// Ticks charged when a query is picked up (request overhead; also
    /// guarantees the clock advances even for trivial-tier answers).
    pub dispatch_cost_ticks: u64,
    /// Latency model for counted oracle accesses.
    pub cost: CostModel,
    /// Query-level retry pacing.
    pub backoff: BackoffPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Hard access cap *per worker* (`None` = unlimited). Workers
    /// pre-shed queries their remaining budget cannot cover.
    pub worker_access_cap: Option<u64>,
    /// How a restarted worker rebuilds itself from its journal.
    /// Anything but [`RecoveryDiscipline::Faithful`] is a planted bug
    /// for the E15 simulator to catch.
    pub recovery: RecoveryDiscipline,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_depth: 64,
            deadline_ticks: 1 << 20,
            dispatch_cost_ticks: 1,
            cost: CostModel::flat(1),
            backoff: BackoffPolicy::default(),
            breaker: BreakerConfig::default(),
            worker_access_cap: None,
            recovery: RecoveryDiscipline::Faithful,
        }
    }
}

/// What pushed an answer below the [`ResponseTier::Full`] tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackTrigger {
    /// The worker's breaker was open: the full path was skipped, not
    /// attempted.
    BreakerOpen,
    /// The full path was attempted and degraded for the recorded reason.
    Degraded(DegradationReason),
}

impl fmt::Display for FallbackTrigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FallbackTrigger::BreakerOpen => write!(f, "breaker-open"),
            FallbackTrigger::Degraded(reason) => write!(f, "degraded({reason})"),
        }
    }
}

/// A served answer plus its audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answered {
    /// The LCA's verdict for the item.
    pub include: bool,
    /// Degradation-ladder rung that produced the verdict.
    pub tier: ResponseTier,
    /// `Some` iff `tier` is below [`ResponseTier::Full`].
    pub fallback: Option<FallbackTrigger>,
    /// Full-rule attempts made (0 when the breaker short-circuited).
    pub attempts: u32,
    /// Access-level transient retries spent inside the attempts.
    pub retries_used: u64,
    /// Counted oracle accesses charged to the worker's budget.
    pub accesses: u64,
    /// Worker-clock tick the query started at.
    pub start_tick: u64,
    /// Worker-clock tick the response was ready at.
    pub end_tick: u64,
    /// Whether the response was ready by `start_tick + deadline_ticks`.
    pub deadline_met: bool,
    /// The worker that served the query.
    pub worker: usize,
}

/// The runtime's explicit response to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Served, at some tier of the ladder.
    Answered(Answered),
    /// Rejected by admission control.
    Shed(ShedReason),
}

impl Disposition {
    /// The answer, if the query was served.
    #[must_use]
    pub fn answered(&self) -> Option<&Answered> {
        match self {
            Disposition::Answered(answered) => Some(answered),
            Disposition::Shed(_) => None,
        }
    }
}

/// One query's position, item, and outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Position in the submitted batch.
    pub index: usize,
    /// The queried item.
    pub item: ItemId,
    /// What the runtime did with it.
    pub disposition: Disposition,
}

/// One worker death (and what recovery made of it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// The directive's virtual tick.
    pub at_tick: u64,
    /// Whether the worker was revived afterwards.
    pub restarted: bool,
    /// Bytes of the in-flight journal write lost to tearing.
    pub torn_bytes: usize,
    /// `Some` when the journal could not be rebuilt (the worker then
    /// stays dead regardless of `restarted`).
    pub recovery_error: Option<RecoveryError>,
}

/// Per-worker execution trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTrace {
    /// Worker id (also the shard residue).
    pub worker: usize,
    /// The worker clock when its shard drained.
    pub end_tick: u64,
    /// Accesses charged against the worker's budget slice.
    pub accesses_used: u64,
    /// Breaker transitions, in order.
    pub breaker_events: Vec<BreakerEvent>,
    /// Crashes the worker suffered, in order.
    pub crashes: Vec<CrashReport>,
    /// The worker's write-ahead journal, byte-for-byte.
    pub journal: Journal,
}

/// The merged result of one [`serve_batch`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReport {
    /// One outcome per submitted query, sorted by batch position.
    pub outcomes: Vec<QueryOutcome>,
    /// Per-worker traces, sorted by worker id.
    pub workers: Vec<WorkerTrace>,
    /// Whether the cached-rule tier was available for this batch.
    pub cached_rule_available: bool,
}

impl BatchReport {
    /// Fraction of queries answered within their deadline (sheds and
    /// deadline misses both count against it). 1.0 for an empty batch.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        let good = self
            .outcomes
            .iter()
            .filter_map(|outcome| outcome.disposition.answered())
            .filter(|answered| answered.deadline_met)
            .count();
        good as f64 / self.outcomes.len() as f64
    }

    /// Served answers at the given tier.
    #[must_use]
    pub fn tier_count(&self, tier: ResponseTier) -> usize {
        self.outcomes
            .iter()
            .filter_map(|outcome| outcome.disposition.answered())
            .filter(|answered| answered.tier == tier)
            .count()
    }

    /// Queries rejected by admission control.
    #[must_use]
    pub fn shed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|outcome| matches!(outcome.disposition, Disposition::Shed(_)))
            .count()
    }

    /// Breaker transitions across all workers.
    #[must_use]
    pub fn breaker_transitions(&self) -> usize {
        self.workers
            .iter()
            .map(|trace| trace.breaker_events.len())
            .sum()
    }

    /// Total access-level retries spent.
    #[must_use]
    pub fn retries_used(&self) -> u64 {
        self.outcomes
            .iter()
            .filter_map(|outcome| outcome.disposition.answered())
            .map(|answered| answered.retries_used)
            .sum()
    }

    /// Total counted accesses charged.
    #[must_use]
    pub fn accesses_used(&self) -> u64 {
        self.workers.iter().map(|trace| trace.accesses_used).sum()
    }

    /// Materializes the served answers as a selection over `n` items
    /// (shed queries contribute "no", keeping the selection feasible).
    #[must_use]
    pub fn to_selection(&self, n: usize) -> Selection {
        let mut selection = Selection::new(n);
        for outcome in &self.outcomes {
            if let Some(answered) = outcome.disposition.answered() {
                if answered.include {
                    selection.insert(outcome.item);
                }
            }
        }
        selection
    }
}

/// Serves `queries` concurrently and deterministically.
///
/// * `oracle` — the shared instance oracle (budget, faults, and
///   deadlines are layered per worker / per query on top of it);
/// * `shared_seed` — the LCA's consistency seed (the paper's shared
///   random tape `r`);
/// * `service_root` — the runtime's own entropy root: per-query
///   sampling streams, fault streams, and backoff jitter derive from it
///   by batch position.
///
/// The cached-rule tier is built once per batch from the dedicated
/// `"service/cache"` stream against the *bare* oracle (a rule cached
/// before the incident), and each degraded answer costs one guarded
/// point query.
///
/// # Errors
///
/// Propagates hard configuration errors ([`LcaError`]) such as
/// impossible sample budgets or out-of-range items; oracle faults
/// degrade or shed instead of erroring.
///
/// # Panics
///
/// Panics if `workers` or `queue_depth` is zero, or if a worker thread
/// panics (a bug, not a fault).
pub fn serve_batch<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    queries: &[ItemId],
    config: &ServiceConfig,
    chaos: Option<&dyn FaultSchedule>,
) -> Result<BatchReport, LcaError>
where
    O: ItemOracle + WeightedSampler + Sync,
{
    assert!(config.workers >= 1, "workers must be at least 1");
    assert!(config.queue_depth >= 1, "queue_depth must be at least 1");

    let cached = serve_batch_cached_rule(lca, oracle, shared_seed, service_root);
    let (shards, shed_at_admission) = admit(queries, config.workers, config.queue_depth);

    let shared = SharedCtx {
        lca,
        oracle,
        shared_seed,
        service_root,
        config,
        chaos,
        cached: cached.as_ref(),
    };

    let worker_results: Vec<Result<WorkerOutput, LcaError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(worker, shard)| {
                let shared = &shared;
                scope.spawn(move || run_worker(worker, shard, shared))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("service worker panicked"))
            .collect()
    });

    let mut outcomes = shed_at_admission;
    let mut workers = Vec::with_capacity(config.workers);
    for result in worker_results {
        let output = result?;
        outcomes.extend(output.outcomes);
        workers.push(output.trace);
    }
    outcomes.sort_by_key(|outcome| outcome.index);
    workers.sort_by_key(|trace| trace.worker);
    Ok(BatchReport {
        outcomes,
        workers,
        cached_rule_available: cached.is_some(),
    })
}

/// Admission for every closed-loop batch: query `index` goes to the
/// bounded queue of shard `index % shards`; overflow sheds
/// [`ShedReason::QueueFull`] before anything runs. Returns each shard's
/// admitted `(index, item)` queue and the shed outcomes.
pub(crate) fn admit(
    queries: &[ItemId],
    shards: usize,
    queue_depth: usize,
) -> (Vec<Vec<(usize, ItemId)>>, Vec<QueryOutcome>) {
    let mut shard_queries: Vec<Vec<(usize, ItemId)>> = vec![Vec::new(); shards];
    let mut shed = Vec::new();
    for (index, &item) in queries.iter().enumerate() {
        let shard = crate::traffic::shard_of(index, shards);
        if shard_queries[shard].len() < queue_depth {
            shard_queries[shard].push((index, item));
        } else {
            shed.push(QueryOutcome {
                index,
                item,
                disposition: Disposition::Shed(ShedReason::QueueFull { depth: queue_depth }),
            });
        }
    }
    (shard_queries, shed)
}

/// Cached-rule tier: one rule per batch from its own dedicated stream
/// against the *bare* oracle (a rule cached before the incident).
/// Failure to build it (e.g. a miscalibrated sample budget) disables
/// the tier instead of failing the batch. The cluster runtime shares
/// this helper so pool and cluster runs serve from the same rule.
pub(crate) fn serve_batch_cached_rule<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
) -> Option<SolutionRule>
where
    O: ItemOracle + WeightedSampler,
{
    let mut rng = service_root.derive(CACHE_DOMAIN, 0).rng();
    lca.build_rule(oracle, &mut rng, shared_seed).ok()
}

/// Read-only state shared by every worker (and, in the cluster runtime,
/// by every shard task on every node).
pub(crate) struct SharedCtx<'a, O> {
    pub(crate) lca: &'a LcaKp,
    pub(crate) oracle: &'a O,
    pub(crate) shared_seed: &'a Seed,
    pub(crate) service_root: &'a Seed,
    pub(crate) config: &'a ServiceConfig,
    pub(crate) chaos: Option<&'a dyn FaultSchedule>,
    pub(crate) cached: Option<&'a SolutionRule>,
}

pub(crate) struct WorkerOutput {
    pub(crate) outcomes: Vec<QueryOutcome>,
    pub(crate) trace: WorkerTrace,
}

/// The worker state a crash wipes and recovery rebuilds: clock,
/// breaker, budget slice, shard cursor, and the in-memory view of the
/// completed outcomes.
type LiveState<'a, O> = (
    TickClock,
    CircuitBreaker,
    BudgetedOracle<'a, O>,
    usize,
    Vec<QueryOutcome>,
);

/// The next unconsumed crash directive, if it is due at tick `now`.
fn due_directive(directives: &[CrashDirective], next: usize, now: u64) -> Option<CrashDirective> {
    directives
        .get(next)
        .copied()
        .filter(|directive| now >= directive.at_tick)
}

/// Rebuilds outcomes from journal records: dispositions in journal
/// order, first occurrence winning (a torn snapshot can leave the same
/// answer journaled twice — byte-identically, by determinism).
fn replay_outcomes(records: &[JournalRecord], items: &[(usize, ItemId)]) -> Vec<QueryOutcome> {
    let item_of: std::collections::BTreeMap<usize, ItemId> = items.iter().copied().collect();
    let mut seen = std::collections::BTreeSet::new();
    let mut outcomes = Vec::new();
    for record in records {
        let disposition = match record {
            JournalRecord::Answered { answer, .. } => Disposition::Answered(*answer),
            JournalRecord::Shed { reason, .. } => Disposition::Shed(*reason),
            JournalRecord::Admitted { .. }
            | JournalRecord::Snapshot(_)
            | JournalRecord::RingChange { .. } => continue,
        };
        let index = record.index().expect("dispositions carry an index") as usize;
        if !seen.insert(index) {
            continue;
        }
        let Some(&item) = item_of.get(&index) else {
            continue;
        };
        outcomes.push(QueryOutcome {
            index,
            item,
            disposition,
        });
    }
    outcomes
}

/// Rebuilds a restarted worker from its journal, honouring the
/// configured [`RecoveryDiscipline`] (anything but `Faithful` is a
/// planted bug for the simulator to catch).
fn restore_worker<'a, O>(
    ctx: &SharedCtx<'a, O>,
    journal: &mut Journal,
    queries: &[(usize, ItemId)],
) -> Result<LiveState<'a, O>, RecoveryError> {
    let recovered = journal.recover()?;
    // Discard the torn tail (if any) before the revived worker appends:
    // bytes after torn garbage would be unreachable to every decoder.
    journal.truncate(journal.bytes().len() - recovered.torn_bytes);
    let config = ctx.config;
    let cap = config.worker_access_cap.unwrap_or(u64::MAX);
    let snapshot = recovered.snapshot;
    let clock = match config.recovery {
        RecoveryDiscipline::SkipClockRestore => TickClock::new(),
        _ => TickClock::at(snapshot.tick),
    };
    let breaker = match config.recovery {
        RecoveryDiscipline::SkipBreakerRestore => CircuitBreaker::new(config.breaker),
        _ => CircuitBreaker::restore(config.breaker, snapshot.breaker),
    };
    let budgeted = match config.recovery {
        RecoveryDiscipline::SkipBudgetRestore => BudgetedOracle::new(ctx.oracle, cap),
        _ => BudgetedOracle::with_spent(ctx.oracle, cap, snapshot.budget_spent),
    };
    let outcomes = match config.recovery {
        RecoveryDiscipline::SkipJournalReplay => Vec::new(),
        _ => replay_outcomes(&recovered.records, queries),
    };
    Ok((
        clock,
        breaker,
        budgeted,
        snapshot.next_position as usize,
        outcomes,
    ))
}

/// One serving step the core has produced but not yet committed: the
/// outcome plus the encoded `disposition ‖ snapshot` bytes whose append
/// is the step's durability point (a crash may tear it).
pub(crate) struct PendingStep {
    pub(crate) outcome: QueryOutcome,
    pub(crate) bytes: Vec<u8>,
}

/// The event-driven serving core of one scheduled actor: a worker
/// thread in [`serve_batch`]'s pool, or a shard task hosted on a
/// cluster node in [`serve_cluster`](crate::cluster::serve_cluster).
///
/// The core owns the actor's durable write-ahead [`Journal`] and its
/// crash-wipeable live state (virtual clock, breaker, budget slice,
/// shard cursor, completed outcomes), and serves exactly one query per
/// [`serve_step`](WorkerCore::serve_step) /
/// [`commit`](WorkerCore::commit) pair — so a deterministic scheduler
/// can interleave crash, restart, and partition events between steps
/// without ever racing a query mid-flight.
pub(crate) struct WorkerCore<'a, O> {
    worker: usize,
    queries: Vec<(usize, ItemId)>,
    journal: Journal,
    core: ShardCore<'a, O>,
    position: usize,
    outcomes: Vec<QueryOutcome>,
    worst_case: u64,
    /// Bytes of the most recent committed append — the largest suffix a
    /// cluster crash may tear off the journal copy shipped to a replica.
    last_append_len: usize,
    /// Reusable payload buffer for journal-record encoding.
    enc_payload: Vec<u8>,
    /// Recycled byte buffer for the next [`PendingStep`]; a committed
    /// step returns its buffer here so its capacity carries over.
    step_bytes: Vec<u8>,
}

impl<'a, O> WorkerCore<'a, O>
where
    O: ItemOracle + WeightedSampler,
{
    /// Builds a fresh core over its shard: admitted queries are
    /// journaled *before* any of them runs (write-ahead), then an
    /// initial snapshot.
    pub(crate) fn new(
        worker: usize,
        queries: Vec<(usize, ItemId)>,
        ctx: &SharedCtx<'a, O>,
    ) -> Self {
        let mut journal = Journal::new();
        for &(index, item) in &queries {
            journal.append(&JournalRecord::Admitted {
                index: index as u64,
                item: item.0 as u64,
            });
        }
        journal.append(&JournalRecord::Snapshot(WorkerSnapshot::initial(
            worker as u64,
        )));
        WorkerCore {
            worker,
            queries,
            journal,
            core: ShardCore::new(ctx),
            position: 0,
            outcomes: Vec::new(),
            worst_case: ctx.lca.worst_case_accesses(),
            last_append_len: 0,
            enc_payload: Vec::new(),
            step_bytes: Vec::new(),
        }
    }

    /// The actor's virtual clock — the scheduler's ordering key.
    pub(crate) fn now(&self) -> u64 {
        self.core.clock.now()
    }

    /// Whether the shard cursor has drained the shard.
    pub(crate) fn finished(&self) -> bool {
        self.position >= self.queries.len()
    }

    /// The durable journal, byte-for-byte (what a replica would ship).
    pub(crate) fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Bytes of the most recent committed append (0 right after a
    /// restore or adoption) — bounds how much a mid-append crash tears.
    pub(crate) fn last_append_len(&self) -> usize {
        self.last_append_len
    }

    /// Serves the query under the cursor: advances the clock by the
    /// dispatch cost, pre-sheds on budget or runs the degradation
    /// ladder, and returns the not-yet-durable step. The caller decides
    /// whether the append [`commit`](Self::commit)s or tears.
    // lcakp-lint: probe-budget(backoff-max-attempts * retry-attempts * (coupon-samples + eps-estimation-samples + 1) + retry-attempts) reason="the degradation ladder re-runs a full audited query per backoff attempt, then falls back to at most one cached-tier point query with access-level retries"
    pub(crate) fn serve_step(&mut self, ctx: &SharedCtx<'a, O>) -> Result<PendingStep, LcaError> {
        let config = ctx.config;
        let (index, item) = self.queries[self.position];
        self.core.clock.advance(config.dispatch_cost_ticks);

        // Budget-aware pre-dispatch shedding: never start a query the
        // budget slice cannot see through.
        let remaining = self.core.budgeted.remaining();
        let disposition = if config.worker_access_cap.is_some() && remaining < self.worst_case {
            Disposition::Shed(ShedReason::BudgetInsufficient {
                needed: self.worst_case,
                remaining,
            })
        } else {
            let plan = ctx
                .chaos
                .map_or_else(FaultPlan::none, |schedule| schedule.plan_for(index));
            Disposition::Answered(
                self.core
                    .serve_admitted(ctx, plan, self.worker, index, item)?,
            )
        };
        let record = match disposition {
            Disposition::Answered(answer) => JournalRecord::Answered {
                index: index as u64,
                answer,
            },
            Disposition::Shed(reason) => JournalRecord::Shed {
                index: index as u64,
                reason,
            },
        };

        // The pending durable write: the disposition plus the post-query
        // snapshot, appended atomically — unless a crash tears it. The
        // byte buffer is recycled from the previous committed step and
        // the payload buffer is a worker field, so a steady-state step
        // encodes without allocating.
        let mut bytes = std::mem::take(&mut self.step_bytes);
        bytes.clear();
        record.encode_into(&mut self.enc_payload, &mut bytes);
        JournalRecord::Snapshot(WorkerSnapshot {
            worker: self.worker as u64,
            tick: self.core.clock.now(),
            budget_spent: self.core.budgeted.used(),
            next_position: (self.position + 1) as u64,
            breaker: self.core.breaker.snapshot(),
        })
        .encode_into(&mut self.enc_payload, &mut bytes);
        Ok(PendingStep {
            outcome: QueryOutcome {
                index,
                item,
                disposition,
            },
            bytes,
        })
    }

    /// Makes a served step durable and acknowledges its outcome. The
    /// step's byte buffer is recycled for the next
    /// [`serve_step`](Self::serve_step).
    pub(crate) fn commit(&mut self, step: PendingStep) {
        self.journal.append_encoded(&step.bytes);
        self.last_append_len = step.bytes.len();
        self.outcomes.push(step.outcome);
        self.step_bytes = step.bytes;
        self.position += 1;
    }

    /// Crashes inside the step's journal append, keeping only the first
    /// `keep` bytes. The outcome is *not* acknowledged.
    pub(crate) fn crash_torn(&mut self, step: &PendingStep, keep: usize) {
        self.journal.append_torn(&step.bytes, keep);
    }

    /// Rebuilds the live state from the journal, honouring the
    /// configured [`RecoveryDiscipline`].
    pub(crate) fn restore(&mut self, ctx: &SharedCtx<'a, O>) -> Result<(), RecoveryError> {
        let state = restore_worker(ctx, &mut self.journal, &self.queries)?;
        (
            self.core.clock,
            self.core.breaker,
            self.core.budgeted,
            self.position,
            self.outcomes,
        ) = state;
        self.last_append_len = 0;
        Ok(())
    }

    /// Replaces the journal with a copy shipped from a replica (cluster
    /// failover); the live state is rebuilt by the following
    /// [`restore`](Self::restore).
    pub(crate) fn adopt_journal(&mut self, journal: Journal) {
        self.journal = journal;
        self.last_append_len = 0;
    }

    /// Supervisor salvage when the actor stays dead: rebuild what the
    /// journal proves completed, then shed the rest of the shard with
    /// the given explicit reason — a dead actor must never become a
    /// silent drop.
    pub(crate) fn salvage(&mut self, reason: ShedReason) {
        self.outcomes = self
            .journal
            .recover()
            .map(|recovered| replay_outcomes(&recovered.records, &self.queries))
            .unwrap_or_default();
        let done: std::collections::BTreeSet<usize> =
            self.outcomes.iter().map(|outcome| outcome.index).collect();
        for &(index, item) in &self.queries {
            if !done.contains(&index) {
                self.outcomes.push(QueryOutcome {
                    index,
                    item,
                    disposition: Disposition::Shed(reason),
                });
            }
        }
        self.position = self.queries.len();
    }

    /// Finishes the actor: sorted, deduped outcomes plus the execution
    /// trace. A torn snapshot can make a re-executed query appear twice
    /// (the journal keeps both byte-identical records as evidence); the
    /// outcome list keeps the first.
    pub(crate) fn into_output(self, crashes: Vec<CrashReport>) -> WorkerOutput {
        let mut outcomes = self.outcomes;
        outcomes.sort_by_key(|outcome| outcome.index);
        outcomes.dedup_by_key(|outcome| outcome.index);
        WorkerOutput {
            outcomes,
            trace: WorkerTrace {
                worker: self.worker,
                end_tick: self.core.clock.now(),
                accesses_used: self.core.budgeted.used(),
                breaker_events: self.core.breaker.events().to_vec(),
                crashes,
                journal: self.journal,
            },
        }
    }
}

impl<O> fmt::Debug for WorkerCore<'_, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerCore")
            .field("worker", &self.worker)
            .field("position", &self.position)
            .field("tick", &self.core.clock.now())
            .finish_non_exhaustive()
    }
}

/// One worker: drains its pre-filled shard sequentially against
/// worker-local clock, breaker, and budget slice, journaling every
/// disposition ahead of acknowledging it. Scheduled crashes wipe the
/// live state (optionally tearing the in-flight journal write); a
/// restarted worker rebuilds itself from the journal and resumes —
/// byte-identically to a worker that never died, because the snapshot
/// restores the virtual clock and every random stream is keyed on batch
/// position.
pub(crate) fn run_worker<O>(
    worker: usize,
    queries: Vec<(usize, ItemId)>,
    ctx: &SharedCtx<'_, O>,
) -> Result<WorkerOutput, LcaError>
where
    O: ItemOracle + WeightedSampler + Sync,
{
    let directives = ctx
        .chaos
        .map_or_else(Vec::new, |schedule| schedule.crash_directives(worker));
    let mut core = WorkerCore::new(worker, queries, ctx);

    let mut crashes: Vec<CrashReport> = Vec::new();
    let mut next_directive = 0usize;
    let mut dead = false;

    'serve: while !core.finished() {
        // A crash due between queries tears nothing — the journal is
        // consistent up to the last completed query.
        while let Some(directive) = due_directive(&directives, next_directive, core.now()) {
            next_directive += 1;
            let mut report = CrashReport {
                at_tick: directive.at_tick,
                restarted: directive.restarts,
                torn_bytes: 0,
                recovery_error: None,
            };
            if !directive.restarts {
                crashes.push(report);
                dead = true;
                break 'serve;
            }
            match core.restore(ctx) {
                Ok(()) => crashes.push(report),
                Err(error) => {
                    report.recovery_error = Some(error);
                    crashes.push(report);
                    dead = true;
                    break 'serve;
                }
            }
        }
        if core.finished() {
            break;
        }

        let step = core.serve_step(ctx)?;

        if let Some(directive) = due_directive(&directives, next_directive, core.now()) {
            // The crash lands inside this query's journal append.
            next_directive += 1;
            let keep = directive.torn_keep.unwrap_or(0).min(step.bytes.len());
            let torn_bytes = step.bytes.len() - keep;
            core.crash_torn(&step, keep);
            let mut report = CrashReport {
                at_tick: directive.at_tick,
                restarted: directive.restarts,
                torn_bytes,
                recovery_error: None,
            };
            if !directive.restarts {
                crashes.push(report);
                dead = true;
                break 'serve;
            }
            match core.restore(ctx) {
                Ok(()) => crashes.push(report),
                Err(error) => {
                    report.recovery_error = Some(error);
                    crashes.push(report);
                    dead = true;
                    break 'serve;
                }
            }
            continue 'serve;
        }

        core.commit(step);
    }

    if dead {
        core.salvage(ShedReason::WorkerCrashed { worker });
    }

    Ok(core.into_output(crashes))
}

/// The per-shard serving state every serving loop shares: the shard's
/// virtual clock, circuit breaker, budget slice, and LCA sampling
/// workspace. A worker of [`serve_batch`]'s pool (inside its
/// [`WorkerCore`]), an open-loop shard, a traffic-driven cluster shard,
/// and a replayed shard each own one and answer through
/// [`serve_admitted`](ShardCore::serve_admitted), so all of them run the
/// same degradation ladder under the same per-index seeds.
pub(crate) struct ShardCore<'a, O> {
    pub(crate) clock: TickClock,
    breaker: CircuitBreaker,
    budgeted: BudgetedOracle<'a, O>,
    /// Reused by every query this core serves, so steady state
    /// allocates nothing per query.
    scratch: QueryScratch,
}

impl<'a, O> ShardCore<'a, O>
where
    O: ItemOracle + WeightedSampler,
{
    /// A fresh core: clock at tick 0, breaker closed, nothing spent
    /// from a `worker_access_cap`-sized budget slice.
    pub(crate) fn new(ctx: &SharedCtx<'a, O>) -> Self {
        let cap = ctx.config.worker_access_cap.unwrap_or(u64::MAX);
        ShardCore {
            clock: TickClock::new(),
            breaker: CircuitBreaker::new(ctx.config.breaker),
            budgeted: BudgetedOracle::new(ctx.oracle, cap),
            scratch: QueryScratch::default(),
        }
    }

    /// Serves one admitted open-loop arrival fault-free: idles the clock
    /// forward to the arrival if the shard was free, charges the
    /// dispatch cost, runs the ladder, then charges the arrival's extra
    /// service cost. Returns the answer and the service ticks from
    /// dispatch to completion.
    pub(crate) fn serve_arrival(
        &mut self,
        ctx: &SharedCtx<'_, O>,
        shard: usize,
        index: usize,
        arrival: &Arrival,
    ) -> Result<(Answered, u64), LcaError> {
        if arrival.at_tick > self.clock.now() {
            self.clock.advance(arrival.at_tick - self.clock.now());
        }
        let service_start = self.clock.now();
        self.clock.advance(ctx.config.dispatch_cost_ticks);
        let answer = self.serve_admitted(ctx, FaultPlan::none(), shard, index, arrival.item)?;
        self.clock.advance(arrival.extra_cost_ticks);
        Ok((answer, self.clock.now() - service_start))
    }

    /// Serves one admitted query through the degradation ladder, with
    /// `plan`'s faults injected on the query's own fault stream (keyed
    /// on `index`). The clock must already include the dispatch cost.
    pub(crate) fn serve_admitted(
        &mut self,
        ctx: &SharedCtx<'_, O>,
        plan: FaultPlan,
        worker: usize,
        index: usize,
        item: ItemId,
    ) -> Result<Answered, LcaError> {
        let faulty = FaultyOracle::new(
            &self.budgeted,
            plan,
            ctx.service_root.derive(FAULT_DOMAIN, index as u64),
        );
        let config = ctx.config;
        let query_seed = ctx.service_root.derive(QUERY_DOMAIN, index as u64);
        let start_tick = self.clock.now();
        let deadline_tick = start_tick.saturating_add(config.deadline_ticks);
        let budget_before = self.budgeted.used();

        let mut attempts = 0u32;
        let mut retries_used = 0u64;
        let mut fallback: Option<FallbackTrigger> = None;
        let mut full_include: Option<bool> = None;

        if self.breaker.allow_full(self.clock.now()) {
            // lcakp-lint: loop-bound(backoff-max-attempts) reason="every iteration increments attempts and only the attempts < config.backoff.max_attempts arm continues, so the body runs at most max_attempts times"
            loop {
                attempts += 1;
                let guarded =
                    DeadlineOracle::new(&faulty, &self.clock, deadline_tick, &config.cost);
                // Every attempt replays the SAME sampling stream: a retry
                // that succeeds is byte-identical to a fault-free first try
                // (the fault layer never consumes this stream).
                let mut rng = query_seed.derive("service/sampling", 0).rng();
                let (answer, audit) = ctx.lca.query_with_audit_in(
                    &guarded,
                    &mut rng,
                    item,
                    ctx.shared_seed,
                    &mut self.scratch,
                )?;
                retries_used += audit.retries_used;
                let Some(reason) = audit.degraded else {
                    self.breaker.on_success(self.clock.now());
                    full_include = Some(answer.include);
                    break;
                };
                if reason.is_reattemptable() && attempts < config.backoff.max_attempts {
                    let delay =
                        config
                            .backoff
                            .delay_ticks(ctx.service_root, index as u64, attempts - 1);
                    if self.clock.now().saturating_add(delay) < deadline_tick {
                        self.clock.advance(delay);
                        continue;
                    }
                }
                self.breaker.on_failure(self.clock.now());
                fallback = Some(FallbackTrigger::Degraded(reason));
                break;
            }
        } else {
            fallback = Some(FallbackTrigger::BreakerOpen);
        }

        let (include, tier) = match full_include {
            Some(include) => (include, ResponseTier::Full),
            None => {
                let cached_include = ctx.cached.and_then(|rule| {
                    let guarded =
                        DeadlineOracle::new(&faulty, &self.clock, deadline_tick, &config.cost);
                    point_query_with_retry(
                        &guarded,
                        item,
                        ctx.lca.retry_policy(),
                        &mut retries_used,
                    )
                    .ok()
                    .map(|queried| rule.decide(guarded.norms(), item, queried).include)
                });
                match cached_include {
                    Some(include) => (include, ResponseTier::CachedRule),
                    None => (false, ResponseTier::Trivial),
                }
            }
        };

        let end_tick = self.clock.now();
        Ok(Answered {
            include,
            tier,
            fallback,
            attempts,
            retries_used,
            accesses: self.budgeted.used() - budget_before,
            start_tick,
            end_tick,
            deadline_met: end_tick <= deadline_tick,
            worker,
        })
    }
}

/// One point query with the LCA's access-level transient-retry
/// semantics (mirrors `LcaKp`'s internal helper for the cached tier).
fn point_query_with_retry<O: ItemOracle>(
    oracle: &O,
    id: ItemId,
    retry: RetryPolicy,
    retries_used: &mut u64,
) -> Result<Item, OracleError> {
    let mut attempts = 0u32;
    // lcakp-lint: loop-bound(retry-attempts) reason="mirrors LcaKp::query_with_retry: every non-returning iteration increments attempts and the retryable guard admits at most max_retries of them"
    loop {
        match oracle.try_query(id) {
            Ok(item) => return Ok(item),
            Err(error) if error.is_retryable() && attempts < retry.max_retries => {
                attempts += 1;
                *retries_used += 1;
            }
            Err(error) => return Err(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcakp_knapsack::iky::Epsilon;
    use lcakp_oracle::InstanceOracle;
    use lcakp_reproducible::SampleBudget;
    use lcakp_workloads::{Family, WorkloadSpec};

    fn quick_lca() -> LcaKp {
        LcaKp::new(Epsilon::new(1, 3).unwrap())
            .unwrap()
            .with_budget(SampleBudget::Calibrated { factor: 0.01 })
    }

    fn batch(n: usize) -> Vec<ItemId> {
        (0..n).map(ItemId).collect()
    }

    #[test]
    fn clean_batch_is_all_full_tier_and_within_deadline() {
        let norm = WorkloadSpec::new(Family::SmallDominated, 60, 5)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = quick_lca();
        let config = ServiceConfig::default();
        let report = serve_batch(
            &lca,
            &oracle,
            &Seed::from_entropy_u64(1),
            &Seed::from_entropy_u64(2),
            &batch(60),
            &config,
            None,
        )
        .unwrap();
        assert_eq!(report.outcomes.len(), 60);
        assert_eq!(report.tier_count(ResponseTier::Full), 60);
        assert_eq!(report.shed_count(), 0);
        assert_eq!(report.availability(), 1.0);
        assert!(report.cached_rule_available);
        for outcome in &report.outcomes {
            let answered = outcome.disposition.answered().unwrap();
            assert_eq!(answered.worker, outcome.index % config.workers);
            assert!(answered.fallback.is_none());
        }
    }

    #[test]
    fn queue_overflow_sheds_the_shard_tail_deterministically() {
        let norm = WorkloadSpec::new(Family::SmallDominated, 40, 6)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = quick_lca();
        let config = ServiceConfig {
            workers: 2,
            queue_depth: 5,
            ..ServiceConfig::default()
        };
        let report = serve_batch(
            &lca,
            &oracle,
            &Seed::from_entropy_u64(1),
            &Seed::from_entropy_u64(2),
            &batch(40),
            &config,
            None,
        )
        .unwrap();
        // 2 workers × depth 5 = 10 admitted; the remaining 30 shed.
        assert_eq!(report.shed_count(), 30);
        for outcome in &report.outcomes {
            let expect_shed = outcome.index >= 10;
            match outcome.disposition {
                Disposition::Shed(ShedReason::QueueFull { depth: 5 }) => {
                    assert!(expect_shed, "index {} shed unexpectedly", outcome.index)
                }
                Disposition::Answered(_) => {
                    assert!(!expect_shed, "index {} should have shed", outcome.index)
                }
                other => panic!("unexpected disposition {other:?}"),
            }
        }
    }

    #[test]
    fn tiny_budget_slice_pre_sheds_instead_of_dying_mid_flight() {
        let norm = WorkloadSpec::new(Family::SmallDominated, 24, 7)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = quick_lca();
        let worst = lca.worst_case_accesses();
        // Each worker's slice covers exactly one worst-case query, so
        // everything after the first real spend must shed with the typed
        // budget reason — and no query may die mid-flight on
        // BudgetExhausted.
        let config = ServiceConfig {
            workers: 2,
            worker_access_cap: Some(worst),
            ..ServiceConfig::default()
        };
        let report = serve_batch(
            &lca,
            &oracle,
            &Seed::from_entropy_u64(1),
            &Seed::from_entropy_u64(2),
            &batch(24),
            &config,
            None,
        )
        .unwrap();
        let budget_sheds = report
            .outcomes
            .iter()
            .filter(|outcome| {
                matches!(
                    outcome.disposition,
                    Disposition::Shed(ShedReason::BudgetInsufficient { .. })
                )
            })
            .count();
        assert!(budget_sheds > 0, "the cap must force pre-dispatch sheds");
        for outcome in &report.outcomes {
            if let Some(answered) = outcome.disposition.answered() {
                assert!(
                    !matches!(
                        answered.fallback,
                        Some(FallbackTrigger::Degraded(
                            DegradationReason::BudgetExhausted { .. }
                        ))
                    ),
                    "index {}: pre-shedding must prevent mid-flight exhaustion",
                    outcome.index
                );
            }
        }
        for trace in &report.workers {
            assert!(trace.accesses_used <= config.worker_access_cap.unwrap());
        }
    }

    #[test]
    fn identical_inputs_produce_identical_reports_across_worker_counts() {
        let norm = WorkloadSpec::new(Family::SmallDominated, 30, 8)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = quick_lca();
        let config = ServiceConfig::default();
        let run = || {
            serve_batch(
                &lca,
                &oracle,
                &Seed::from_entropy_u64(3),
                &Seed::from_entropy_u64(4),
                &batch(30),
                &config,
                None,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same inputs must replay byte-identically");
        // Per-query answers are also independent of the worker count,
        // because seeds derive from batch position: compare the
        // include/tier sequence under a different pool size.
        let other = serve_batch(
            &lca,
            &oracle,
            &Seed::from_entropy_u64(3),
            &Seed::from_entropy_u64(4),
            &batch(30),
            &ServiceConfig {
                workers: 7,
                ..ServiceConfig::default()
            },
            None,
        )
        .unwrap();
        let answers = |report: &BatchReport| {
            report
                .outcomes
                .iter()
                .map(|outcome| outcome.disposition.answered().map(|x| (x.include, x.tier)))
                .collect::<Vec<_>>()
        };
        assert_eq!(answers(&a), answers(&other));
    }

    #[test]
    fn crash_and_restart_is_byte_invisible() {
        use crate::chaos::{ChaosPlan, WorkerEvent};
        let norm = WorkloadSpec::new(Family::SmallDominated, 30, 11)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = quick_lca();
        let config = ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        };
        let run = |plan: Option<&ChaosPlan>| {
            serve_batch(
                &lca,
                &oracle,
                &Seed::from_entropy_u64(5),
                &Seed::from_entropy_u64(6),
                &batch(30),
                &config,
                plan.map(|plan| plan as &dyn FaultSchedule),
            )
            .unwrap()
        };
        let reference = run(None);
        // Kill worker 0 halfway through its shard, tearing the journal
        // append mid-record, then revive it.
        let crash_tick = reference.workers[0].end_tick / 2;
        let plan = ChaosPlan {
            worker_events: vec![
                WorkerEvent::Crash {
                    worker: 0,
                    at_tick: crash_tick,
                    torn_keep: Some(10),
                },
                WorkerEvent::Restart {
                    worker: 0,
                    at_tick: crash_tick,
                },
            ],
            ..ChaosPlan::none()
        };
        let crashed = run(Some(&plan));
        assert_eq!(crashed.outcomes, reference.outcomes);
        for (crashed_trace, reference_trace) in crashed.workers.iter().zip(&reference.workers) {
            assert_eq!(crashed_trace.end_tick, reference_trace.end_tick);
            assert_eq!(crashed_trace.accesses_used, reference_trace.accesses_used);
            assert_eq!(crashed_trace.breaker_events, reference_trace.breaker_events);
        }
        let crash = &crashed.workers[0].crashes;
        assert_eq!(crash.len(), 1);
        assert!(crash[0].restarted);
        assert!(crash[0].torn_bytes > 0);
        assert!(crash[0].recovery_error.is_none());
        assert!(reference.workers[0].crashes.is_empty());
        // The journal replays cleanly despite the torn write.
        let recovered = crashed.workers[0].journal.recover().unwrap();
        assert!(recovered.torn_bytes == 0, "tail was repaired by re-append");
    }

    #[test]
    fn unrestarted_crash_sheds_the_rest_of_the_shard_explicitly() {
        use crate::chaos::{ChaosPlan, WorkerEvent};
        let norm = WorkloadSpec::new(Family::SmallDominated, 24, 12)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = quick_lca();
        let config = ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        };
        let reference = serve_batch(
            &lca,
            &oracle,
            &Seed::from_entropy_u64(7),
            &Seed::from_entropy_u64(8),
            &batch(24),
            &config,
            None,
        )
        .unwrap();
        let crash_tick = reference.workers[1].end_tick / 2;
        let plan = ChaosPlan {
            worker_events: vec![WorkerEvent::Crash {
                worker: 1,
                at_tick: crash_tick,
                torn_keep: None,
            }],
            ..ChaosPlan::none()
        };
        let crashed = serve_batch(
            &lca,
            &oracle,
            &Seed::from_entropy_u64(7),
            &Seed::from_entropy_u64(8),
            &batch(24),
            &config,
            Some(&plan),
        )
        .unwrap();
        let mut crashed_sheds = 0usize;
        for outcome in &crashed.outcomes {
            match outcome.disposition {
                Disposition::Shed(ShedReason::WorkerCrashed { worker: 1 }) => {
                    assert_eq!(outcome.index % 2, 1, "only worker 1's shard may shed");
                    crashed_sheds += 1;
                }
                Disposition::Shed(other) => panic!("unexpected shed {other}"),
                Disposition::Answered(answered) => {
                    // Everything still answered matches the reference.
                    assert_eq!(
                        Some(&answered),
                        reference.outcomes[outcome.index].disposition.answered()
                    );
                }
            }
        }
        assert!(crashed_sheds > 0, "the dead worker must shed its tail");
        assert!(
            crashed_sheds < 12,
            "queries journaled before the crash must survive it"
        );
        assert_eq!(crashed.workers[1].crashes.len(), 1);
        assert!(!crashed.workers[1].crashes[0].restarted);
    }

    #[test]
    fn out_of_range_item_is_a_hard_error() {
        let norm = WorkloadSpec::new(Family::SmallDominated, 10, 9)
            .generate_normalized()
            .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let lca = quick_lca();
        let result = serve_batch(
            &lca,
            &oracle,
            &Seed::from_entropy_u64(1),
            &Seed::from_entropy_u64(2),
            &[ItemId(999)],
            &ServiceConfig::default(),
            None,
        );
        assert!(result.is_err(), "caller bugs must not be masked as faults");
    }
}
