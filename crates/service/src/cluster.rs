//! The simulated multi-node cluster runtime (experiment E16).
//!
//! [`serve_cluster`] generalizes [`serve_batch`](crate::serve_batch)
//! from one worker pool to a cluster of nodes hosting replicated
//! shards. The paper's Theorem 4.1 consistency plus Definition 2.4
//! statelessness make replication *free*: every replica derives from
//! the same root seed, so any node serving a shard produces
//! byte-identical answers — all failover has to preserve is the durable
//! journal, and PR 5's checksummed write-ahead journal/snapshot is
//! exactly the artifact to ship.
//!
//! # The deterministic scheduler
//!
//! Each shard is a [`WorkerCore`] — the same event-driven serving core
//! the thread pool runs — hosted on a node picked by the consistent-
//! hash [`Ring`]. A single-threaded discrete-event scheduler always
//! steps the runnable shard with the smallest `(virtual tick, shard
//! id)` key, firing node-level fault events ([`NodeEvent`]) whenever
//! the cluster frontier reaches their tick. The result is a pure
//! function of `(inputs, config, events)` — no thread scheduling, no
//! wall clock.
//!
//! # Failover
//!
//! When a shard's hosting node crashes, the surviving replicas hold the
//! shard's journal (synchronously replicated appends; the crash may
//! tear the tail of the last in-flight append). The router promotes the
//! first alive, reachable replica in ring order; the new owner replays
//! the shipped journal through the PR 5 recovery path — restoring the
//! virtual clock, breaker, and budget from the last snapshot — and
//! resumes byte-identically. When no replica is reachable the shard's
//! remaining queries shed explicitly: [`ShedReason::NodeUnreachable`]
//! when the replica group is gone, [`ShedReason::Partitioned`] when
//! live replicas exist but a partition cut them all off. Never a silent
//! drop.
//!
//! # Partitions
//!
//! [`NodeEvent::Partition`] splits the membership into groups;
//! reachability is judged from the client's vantage point, wired to
//! node 0's side of every active partition. A partition with a
//! `heal_at` tick reconnects everyone at that tick and parked shards
//! resume (the old owner's live state is intact, so healing costs zero
//! virtual ticks); one that never heals strands its shards until
//! end-of-batch salvage.
//!
//! # The planted routing bug
//!
//! [`RoutingDiscipline::StaleRing`] is E16's deliberately planted bug:
//! the router keeps consulting the membership view captured at batch
//! start, where every node is alive and connected — so after an owner
//! loss it re-picks the boot primary forever and gives up, shedding
//! `NodeUnreachable` while a live replica sits idle. The simulator must
//! catch this (divergence from the twin plus a shed audit showing a
//! reachable replica) and shrink it to a minimal repro.
//!
//! # The traffic-driven cluster (experiment E18)
//!
//! [`serve_cluster_traffic`] replaces the closed-loop batch above with
//! the open-loop arrival engine of [`crate::traffic`]: every node runs
//! its own [`SignalWindow`] and [`AdaptiveAdmission`] controller over
//! the queries routed to it, and when a node's [`LoadSignal`] crosses
//! the overload threshold while a live standby replica sits
//! under-loaded, the [`RebalanceController`] promotes that standby to
//! acting owner of the node's hottest shard through an epoch-versioned
//! [`RingView`] update. Service state is split so migration is provably
//! byte-invisible: each *shard* owns the serving core (clock, breaker,
//! budget, scratch — so answer bytes depend only on the admitted
//! per-shard subsequence, never on placement), while each *node* owns
//! the queueing model (a busy horizon plus in-flight completions — so
//! end-to-end latency and overload signals genuinely move when a shard
//! does). Every promotion is journaled as a
//! [`JournalRecord::RingChange`] on all live nodes, and a crash records
//! the epoch recovered from the surviving journals next to the epoch
//! the cluster had actually reached. The planted bug here is
//! [`RebalanceDiscipline::StaleEpoch`]: a router frozen on the boot
//! view, whose misroutes shed [`ShedReason::StaleRingEpoch`] with both
//! epochs on record.

use crate::admission::{
    AdaptiveAdmission, AdmissionConfig, AdmissionDecision, AdmissionDiscipline, AdmissionState,
    ShedReason,
};
use crate::clock::VirtualClock;
use crate::journal::{DecodeMode, Journal, JournalRecord};
use crate::rebalance::{RebalanceAudit, RebalanceConfig, RebalanceController, RebalanceDiscipline};
use crate::ring::{NodeId, ReplicaSet, Ring, RingEpoch, RingView};
use crate::service::{
    admit, run_worker, serve_batch_cached_rule, Answered, Disposition, FaultSchedule, PendingStep,
    QueryOutcome, ServiceConfig, ShardCore, SharedCtx, WorkerCore,
};
use crate::slo::{LatencyHistogram, LoadSignal, SloReport};
use crate::traffic::{Arrival, Backlog, TrafficDisposition, TrafficOutcome};
use lcakp_core::{LcaError, LcaKp};
use lcakp_knapsack::ItemId;
use lcakp_oracle::{ItemOracle, Seed, WeightedSampler};
use std::fmt;

/// How the cluster router resolves shard ownership after a node loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingDiscipline {
    /// Consult the live membership: promote the first alive, reachable
    /// replica in ring order.
    #[default]
    Faithful,
    /// Planted bug: consult the membership view captured at batch
    /// start, where every node is alive and connected — the router
    /// re-picks the boot primary forever, so an owner loss sheds
    /// `NodeUnreachable` even while a live replica is reachable. E16
    /// must catch and shrink exactly this mistake.
    StaleRing,
}

impl fmt::Display for RoutingDiscipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingDiscipline::Faithful => write!(f, "faithful"),
            RoutingDiscipline::StaleRing => write!(f, "stale-ring"),
        }
    }
}

/// One node-level fault event on the cluster scheduler's frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeEvent {
    /// Kill a node at the first scheduling point at or after `at_tick`:
    /// its live state is lost, its shards fail over to replicas via the
    /// shipped journal.
    NodeCrash {
        /// The node to kill.
        node: NodeId,
        /// Cluster-frontier tick the crash fires at.
        at_tick: u64,
        /// How many bytes of each owned shard's last in-flight journal
        /// append survived replication — `None` ships the journal
        /// clean, `Some(k)` keeps the first `k` bytes of the final
        /// append (recovery truncates the torn tail).
        torn_keep: Option<usize>,
    },
    /// Revive a dead node at `at_tick` with empty memory; it re-adopts
    /// shards only through the ring (journal replay, never resumption).
    NodeRestart {
        /// The node to revive.
        node: NodeId,
        /// Cluster-frontier tick the restart fires at.
        at_tick: u64,
    },
    /// Split the membership into disjoint `groups` at `at_tick`; nodes
    /// absent from every group stay on the client's side. Heals at
    /// `heal_at` (`u64::MAX` = never within this batch).
    Partition {
        /// The partition's sides; cross-group traffic is dropped.
        groups: Vec<Vec<NodeId>>,
        /// Cluster-frontier tick the cut fires at.
        at_tick: u64,
        /// Cluster-frontier tick the cut heals at (`u64::MAX` = never).
        heal_at: u64,
    },
}

impl fmt::Display for NodeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeEvent::NodeCrash {
                node,
                at_tick,
                torn_keep,
            } => match torn_keep {
                Some(keep) => {
                    write!(f, "node-crash({node}, at={at_tick}, torn-keep={keep})")
                }
                None => write!(f, "node-crash({node}, at={at_tick})"),
            },
            NodeEvent::NodeRestart { node, at_tick } => {
                write!(f, "node-restart({node}, at={at_tick})")
            }
            NodeEvent::Partition {
                groups,
                at_tick,
                heal_at,
            } => {
                write!(f, "partition(groups=[")?;
                for (position, group) in groups.iter().enumerate() {
                    if position > 0 {
                        write!(f, " | ")?;
                    }
                    for (inner, node) in group.iter().enumerate() {
                        if inner > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{node}")?;
                    }
                }
                write!(f, "], at={at_tick}, heal=")?;
                if *heal_at == u64::MAX {
                    write!(f, "never)")
                } else {
                    write!(f, "{heal_at})")
                }
            }
        }
    }
}

/// Tuning of the simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Nodes in the membership. Must be ≥ 1.
    pub nodes: usize,
    /// Replicas per shard (clamped to the membership size).
    pub replication: usize,
    /// Shards queries are routed over (`index % shards`). Must be ≥ 1.
    pub shards: usize,
    /// Virtual points per node on the consistent-hash ring.
    pub vnodes: usize,
    /// How the router resolves ownership after a node loss.
    pub routing: RoutingDiscipline,
    /// The per-shard serving configuration (`workers` is ignored — the
    /// cluster scheduler replaces the thread pool).
    pub base: ServiceConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 4,
            replication: 2,
            shards: 8,
            vnodes: 64,
            routing: RoutingDiscipline::Faithful,
            base: ServiceConfig::default(),
        }
    }
}

/// Per-shard execution trace of one cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTrace {
    /// The shard id (also the batch-position residue).
    pub shard: usize,
    /// Ownership history: the boot primary first, then every promoted
    /// owner in order.
    pub owners: Vec<NodeId>,
    /// The shard clock when it drained (or was abandoned).
    pub end_tick: u64,
    /// Accesses charged against the shard's budget slice.
    pub accesses_used: u64,
    /// Owner changes the shard survived.
    pub failovers: usize,
    /// The shard's write-ahead journal, byte-for-byte.
    pub journal: Journal,
}

/// Per-node liveness trace of one cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTrace {
    /// The node.
    pub node: NodeId,
    /// Crashes the node suffered.
    pub crashes: usize,
    /// Restarts that revived it.
    pub restarts: usize,
    /// Whether the node was alive when the batch ended.
    pub alive_at_end: bool,
}

/// Audit record of a shard the router gave up on: the *true* replica
/// state at shed time, so the simulator can prove a shed was honest
/// (no live reachable replica existed) or catch a routing bug lying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedAudit {
    /// The abandoned shard.
    pub shard: usize,
    /// The reason its remaining queries shed with.
    pub reason: ShedReason,
    /// Replicas that were actually alive at shed time.
    pub alive_replicas: Vec<NodeId>,
    /// Alive replicas that were also reachable from the client.
    pub reachable_replicas: Vec<NodeId>,
}

/// The merged result of one [`serve_cluster`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct ClusterReport {
    /// One outcome per submitted query, sorted by batch position.
    pub outcomes: Vec<QueryOutcome>,
    /// Per-shard traces, sorted by shard id.
    pub shards: Vec<ShardTrace>,
    /// Per-node liveness traces, sorted by node id.
    pub nodes: Vec<NodeTrace>,
    /// One audit per abandoned shard, in salvage order.
    pub shed_audits: Vec<ShedAudit>,
    /// Whether the cached-rule tier was available for this batch.
    pub cached_rule_available: bool,
}

impl ClusterReport {
    /// Queries rejected (by admission control or failover salvage).
    #[must_use]
    pub fn shed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|outcome| matches!(outcome.disposition, Disposition::Shed(_)))
            .count()
    }

    /// Queries answered at some tier of the ladder.
    #[must_use]
    pub fn answered_count(&self) -> usize {
        self.outcomes.len() - self.shed_count()
    }

    /// Owner changes across all shards.
    #[must_use]
    pub fn failover_count(&self) -> usize {
        self.shards.iter().map(|trace| trace.failovers).sum()
    }
}

/// What a shard task is currently doing on the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskStatus {
    /// Hosted on an alive, reachable owner; eligible for stepping.
    Running,
    /// No owner right now; waiting for a heal or restart.
    Parked,
    /// Shard drained.
    Done,
    /// Salvaged: remaining queries shed, never scheduled again.
    Abandoned,
}

/// One shard task: a serving core plus its placement state.
struct ShardTask<'a, O> {
    core: WorkerCore<'a, O>,
    owner: NodeId,
    owners: Vec<NodeId>,
    failovers: usize,
    status: TaskStatus,
    /// Whether the owner's in-memory state matches the core (false
    /// after the owner's crash until a journal restore completes).
    live_valid: bool,
}

/// A fault op on the scheduler's timeline (heals are split out of
/// their `Partition` event so the timeline is a flat sorted list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Crash {
        node: usize,
        torn_keep: Option<usize>,
    },
    Restart {
        node: usize,
    },
    Cut {
        slot: usize,
    },
    Heal {
        slot: usize,
    },
}

/// Flattens fault events into a tick-sorted op timeline; a partition's
/// heal is its own op so the list stays flat. Stable sort keeps the
/// submission order on tick ties. Returns the (initially inactive)
/// partition slots, the pending cut groups, and the timeline.
#[allow(clippy::type_complexity)]
fn flatten_node_events(
    node_events: &[NodeEvent],
) -> (
    Vec<Option<Vec<Vec<NodeId>>>>,
    Vec<(usize, Vec<Vec<NodeId>>)>,
    Vec<(u64, Op)>,
) {
    let mut partitions: Vec<Option<Vec<Vec<NodeId>>>> = Vec::new();
    let mut pending_cuts: Vec<(usize, Vec<Vec<NodeId>>)> = Vec::new();
    let mut ops: Vec<(u64, Op)> = Vec::new();
    for event in node_events {
        match event {
            NodeEvent::NodeCrash {
                node,
                at_tick,
                torn_keep,
            } => ops.push((
                *at_tick,
                Op::Crash {
                    node: node.0,
                    torn_keep: *torn_keep,
                },
            )),
            NodeEvent::NodeRestart { node, at_tick } => {
                ops.push((*at_tick, Op::Restart { node: node.0 }));
            }
            NodeEvent::Partition {
                groups,
                at_tick,
                heal_at,
            } => {
                let slot = partitions.len();
                partitions.push(None);
                pending_cuts.push((slot, groups.clone()));
                ops.push((*at_tick, Op::Cut { slot }));
                if *heal_at != u64::MAX {
                    ops.push((*heal_at, Op::Heal { slot }));
                }
            }
        }
    }
    ops.sort_by_key(|&(at_tick, _)| at_tick);
    (partitions, pending_cuts, ops)
}

/// The single-threaded cluster scheduler state.
struct Cluster<'a, O> {
    tasks: Vec<ShardTask<'a, O>>,
    replica_sets: Vec<ReplicaSet>,
    alive: Vec<bool>,
    crashes: Vec<usize>,
    restarts: Vec<usize>,
    /// `partitions[slot]` is `Some(groups)` while that cut is active.
    partitions: Vec<Option<Vec<Vec<NodeId>>>>,
    routing: RoutingDiscipline,
    shed_audits: Vec<ShedAudit>,
}

/// Which side of `groups` a node is on (`usize::MAX` = unlisted, which
/// stays on the client's side).
fn partition_side(groups: &[Vec<NodeId>], node: NodeId) -> usize {
    groups
        .iter()
        .position(|group| group.contains(&node))
        .unwrap_or(usize::MAX)
}

/// Whether the client (wired to node 0's side of every active
/// partition) can reach `node`.
fn client_reachable(partitions: &[Option<Vec<Vec<NodeId>>>], node: NodeId) -> bool {
    partitions
        .iter()
        .flatten()
        .all(|groups| partition_side(groups, node) == partition_side(groups, NodeId(0)))
}

impl<'a, O> Cluster<'a, O>
where
    O: ItemOracle + WeightedSampler,
{
    /// Whether the client (wired to node 0's side of every active
    /// partition) can reach `node`.
    fn reachable(&self, node: NodeId) -> bool {
        client_reachable(&self.partitions, node)
    }

    /// The router's pick for `shard`, per the configured discipline.
    fn route(&self, shard: usize) -> Option<NodeId> {
        let set = &self.replica_sets[shard];
        match self.routing {
            RoutingDiscipline::Faithful => set
                .nodes()
                .iter()
                .copied()
                .find(|&node| self.alive[node.0] && self.reachable(node)),
            RoutingDiscipline::StaleRing => {
                let primary = set.primary();
                (self.alive[primary.0] && self.reachable(primary)).then_some(primary)
            }
        }
    }

    /// Sheds the shard's remaining queries with an honest reason and
    /// records the true replica state for the simulator's audit.
    fn salvage(&mut self, shard: usize) {
        let set = &self.replica_sets[shard];
        let alive_replicas: Vec<NodeId> = set
            .nodes()
            .iter()
            .copied()
            .filter(|node| self.alive[node.0])
            .collect();
        let reachable_replicas: Vec<NodeId> = alive_replicas
            .iter()
            .copied()
            .filter(|&node| self.reachable(node))
            .collect();
        // Live replicas all cut off ⇒ a partition shed; otherwise the
        // group is gone (or the router *claims* it is — the audit keeps
        // the evidence either way).
        let reason = if !alive_replicas.is_empty() && reachable_replicas.is_empty() {
            ShedReason::Partitioned { shard }
        } else {
            ShedReason::NodeUnreachable { shard }
        };
        self.tasks[shard].core.salvage(reason);
        self.tasks[shard].status = TaskStatus::Abandoned;
        self.shed_audits.push(ShedAudit {
            shard,
            reason,
            alive_replicas,
            reachable_replicas,
        });
    }

    /// Re-places a shard whose owner was lost (or resumes it): resume
    /// in place when the owner is back and its memory is intact,
    /// promote the router's pick via journal restore otherwise, park
    /// when live replicas exist but none is reachable, salvage when the
    /// router finds nothing.
    fn resolve(&mut self, shard: usize, ctx: &SharedCtx<'a, O>) {
        let owner = self.tasks[shard].owner;
        let owner_usable = self.alive[owner.0] && self.reachable(owner);
        if owner_usable && self.tasks[shard].live_valid {
            self.tasks[shard].status = if self.tasks[shard].core.finished() {
                TaskStatus::Done
            } else {
                TaskStatus::Running
            };
            return;
        }
        match self.route(shard) {
            Some(next_owner) => {
                let task = &mut self.tasks[shard];
                if next_owner != task.owner {
                    task.failovers += 1;
                }
                task.owner = next_owner;
                task.owners.push(next_owner);
                match task.core.restore(ctx) {
                    Ok(()) => {
                        task.live_valid = true;
                        task.status = if task.core.finished() {
                            TaskStatus::Done
                        } else {
                            TaskStatus::Running
                        };
                    }
                    // The shipped journal could not be replayed: the
                    // replica group effectively lost the shard.
                    Err(_) => self.salvage(shard),
                }
            }
            None => {
                let any_alive = self.replica_sets[shard]
                    .nodes()
                    .iter()
                    .any(|node| self.alive[node.0]);
                if any_alive && self.routing == RoutingDiscipline::Faithful {
                    self.tasks[shard].status = TaskStatus::Parked;
                } else {
                    self.salvage(shard);
                }
            }
        }
    }

    /// Applies one fault op at its timeline position.
    fn apply(&mut self, op: Op, ctx: &SharedCtx<'a, O>) {
        match op {
            Op::Crash { node, torn_keep } => {
                if node >= self.alive.len() || !self.alive[node] {
                    return;
                }
                self.alive[node] = false;
                self.crashes[node] += 1;
                for shard in 0..self.tasks.len() {
                    let task = &self.tasks[shard];
                    if task.owner != NodeId(node)
                        || !matches!(task.status, TaskStatus::Running | TaskStatus::Parked)
                    {
                        continue;
                    }
                    // The owner's memory is gone; what survives is the
                    // replicated journal, whose last in-flight append
                    // the crash may have torn.
                    self.tasks[shard].live_valid = false;
                    if let Some(keep) = torn_keep {
                        let tail = self.tasks[shard].core.last_append_len();
                        if tail > 0 {
                            let keep = keep.min(tail);
                            let mut shipped = self.tasks[shard].core.journal().clone();
                            let len = shipped.bytes().len();
                            shipped.truncate(len - (tail - keep));
                            self.tasks[shard].core.adopt_journal(shipped);
                        }
                    }
                    self.resolve(shard, ctx);
                }
            }
            Op::Restart { node } => {
                if node >= self.alive.len() || self.alive[node] {
                    return;
                }
                self.alive[node] = true;
                self.restarts[node] += 1;
                self.resolve_parked(ctx);
            }
            Op::Cut { slot } => {
                // The cut is already active (the scheduler installs the
                // groups before dispatching the op); strand every
                // running shard whose owner fell off the client's side.
                debug_assert!(self.partitions[slot].is_some());
                for shard in 0..self.tasks.len() {
                    if self.tasks[shard].status == TaskStatus::Running
                        && !self.reachable(self.tasks[shard].owner)
                    {
                        // Park first so `resolve` re-routes instead of
                        // resuming on the now-unreachable owner.
                        self.tasks[shard].status = TaskStatus::Parked;
                    }
                }
                self.resolve_parked(ctx);
            }
            Op::Heal { slot } => {
                self.partitions[slot] = None;
                self.resolve_parked(ctx);
            }
        }
    }

    /// Tries to re-place every parked shard, ascending.
    fn resolve_parked(&mut self, ctx: &SharedCtx<'a, O>) {
        for shard in 0..self.tasks.len() {
            if self.tasks[shard].status == TaskStatus::Parked {
                self.resolve(shard, ctx);
            }
        }
    }
}

/// Serves `queries` on the simulated cluster, deterministically.
///
/// Semantics mirror [`serve_batch`](crate::serve_batch) — same cached
/// rule stream, same per-query seed derivation, same admission rules
/// with `index % shards` routing — plus node-level fault injection via
/// `node_events`. With an empty event list and faithful routing the
/// outcomes are byte-identical to a fault-free run.
///
/// # Errors
///
/// Propagates hard configuration errors ([`LcaError`]); node faults
/// shed or fail over instead of erroring.
///
/// # Panics
///
/// Panics if `nodes`, `shards`, `vnodes`, or `base.queue_depth` is
/// zero.
#[allow(clippy::too_many_arguments)]
pub fn serve_cluster<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    queries: &[ItemId],
    config: &ClusterConfig,
    chaos: Option<&dyn FaultSchedule>,
    node_events: &[NodeEvent],
) -> Result<ClusterReport, LcaError>
where
    O: ItemOracle + WeightedSampler + Sync,
{
    assert!(config.nodes >= 1, "nodes must be at least 1");
    assert!(config.shards >= 1, "shards must be at least 1");
    assert!(
        config.base.queue_depth >= 1,
        "queue_depth must be at least 1"
    );

    let cached = serve_batch_cached_rule(lca, oracle, shared_seed, service_root);
    let shared = SharedCtx {
        lca,
        oracle,
        shared_seed,
        service_root,
        config: &config.base,
        chaos,
        cached: cached.as_ref(),
    };

    let (shard_queries, mut outcomes) = admit(queries, config.shards, config.base.queue_depth);

    // Placement: one replica group per shard from the boot-time ring.
    let ring = Ring::new(config.nodes, config.vnodes);
    let replica_sets: Vec<ReplicaSet> = (0..config.shards)
        .map(|shard| {
            ring.replicas(shard, config.replication)
                .expect("a non-empty membership always routes")
        })
        .collect();

    let tasks: Vec<ShardTask<'_, O>> = shard_queries
        .into_iter()
        .enumerate()
        .map(|(shard, queries)| {
            let owner = replica_sets[shard].primary();
            let core = WorkerCore::new(shard, queries, &shared);
            let status = if core.finished() {
                TaskStatus::Done
            } else {
                TaskStatus::Running
            };
            ShardTask {
                core,
                owner,
                owners: vec![owner],
                failovers: 0,
                status,
                live_valid: true,
            }
        })
        .collect();

    let (partitions, mut pending_cuts, ops) = flatten_node_events(node_events);

    let mut cluster = Cluster {
        tasks,
        replica_sets,
        alive: vec![true; config.nodes],
        crashes: vec![0; config.nodes],
        restarts: vec![0; config.nodes],
        partitions,
        routing: config.routing,
        shed_audits: Vec::new(),
    };

    // The discrete-event loop: always step the runnable shard with the
    // smallest (tick, shard) key; fire fault ops once the cluster
    // frontier reaches their tick (immediately when nothing runs).
    let mut next_op = 0usize;
    loop {
        let runnable = cluster
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, task)| task.status == TaskStatus::Running)
            .min_by_key(|&(shard, task)| (task.core.now(), shard))
            .map(|(shard, _)| shard);
        if next_op < ops.len() {
            let (at_tick, op) = ops[next_op];
            let due = match runnable {
                Some(shard) => at_tick <= cluster.tasks[shard].core.now(),
                None => true,
            };
            if due {
                next_op += 1;
                if let Op::Cut { slot } = op {
                    let position = pending_cuts
                        .iter()
                        .position(|(pending, _)| *pending == slot)
                        .expect("each cut activates exactly once");
                    let (_, groups) = pending_cuts.remove(position);
                    cluster.partitions[slot] = Some(groups);
                }
                cluster.apply(op, &shared);
                continue;
            }
        }
        let Some(shard) = runnable else {
            break;
        };
        let step: PendingStep = cluster.tasks[shard].core.serve_step(&shared)?;
        cluster.tasks[shard].core.commit(step);
        if cluster.tasks[shard].core.finished() {
            cluster.tasks[shard].status = TaskStatus::Done;
        }
    }

    // End-of-batch salvage: anything still parked never found a home.
    for shard in 0..cluster.tasks.len() {
        if cluster.tasks[shard].status == TaskStatus::Parked {
            cluster.salvage(shard);
        }
    }

    let nodes: Vec<NodeTrace> = (0..config.nodes)
        .map(|node| NodeTrace {
            node: NodeId(node),
            crashes: cluster.crashes[node],
            restarts: cluster.restarts[node],
            alive_at_end: cluster.alive[node],
        })
        .collect();

    let mut shards = Vec::with_capacity(config.shards);
    for (shard, task) in cluster.tasks.into_iter().enumerate() {
        let output = task.core.into_output(Vec::new());
        outcomes.extend(output.outcomes);
        shards.push(ShardTrace {
            shard,
            owners: task.owners,
            end_tick: output.trace.end_tick,
            accesses_used: output.trace.accesses_used,
            failovers: task.failovers,
            journal: output.trace.journal,
        });
    }
    outcomes.sort_by_key(|outcome| outcome.index);

    Ok(ClusterReport {
        outcomes,
        shards,
        nodes,
        shed_audits: cluster.shed_audits,
        cached_rule_available: cached.is_some(),
    })
}

/// Serves exactly one shard of the batch on a standalone core — what
/// any single replica would compute from the shared seeds alone. The
/// simulator re-serves each shard on every surviving replica and
/// asserts the answers byte-identical to the cluster run's: the
/// paper's consistency guarantee is what makes this check meaningful.
///
/// # Errors
///
/// Propagates hard configuration errors ([`LcaError`]).
pub fn serve_shard_standalone<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    queries: &[ItemId],
    shard: usize,
    config: &ClusterConfig,
) -> Result<Vec<QueryOutcome>, LcaError>
where
    O: ItemOracle + WeightedSampler + Sync,
{
    assert!(shard < config.shards, "shard out of range");
    let cached = serve_batch_cached_rule(lca, oracle, shared_seed, service_root);
    let shared = SharedCtx {
        lca,
        oracle,
        shared_seed,
        service_root,
        config: &config.base,
        chaos: None,
        cached: cached.as_ref(),
    };
    let (mut shard_queries, _) = admit(queries, config.shards, config.base.queue_depth);
    let queries = std::mem::take(&mut shard_queries[shard]);
    Ok(run_worker(shard, queries, &shared)?.outcomes)
}

/// Tuning of the traffic-driven cluster runtime (experiment E18).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterTrafficConfig {
    /// Nodes in the membership. Must be ≥ 1.
    pub nodes: usize,
    /// Replicas per shard (clamped to the membership size).
    pub replication: usize,
    /// Shards arrivals are routed over. Must be ≥ 1.
    pub shards: usize,
    /// Virtual points per node on the consistent-hash ring.
    pub vnodes: usize,
    /// The per-shard serving configuration.
    pub service: ServiceConfig,
    /// The per-node adaptive admission thresholds.
    pub admission: AdmissionConfig,
    /// `Some(discipline)` runs per-node adaptive admission; `None`
    /// disables admission entirely (the unbounded twin).
    pub discipline: Option<AdmissionDiscipline>,
    /// `Some(config)` closes the loop from overload signals into ring
    /// placement; `None` is the no-rebalance twin (failover still
    /// works — only hot-shard relief is off).
    pub rebalance: Option<RebalanceConfig>,
    /// Which ring view the router consults ([`RebalanceDiscipline::StaleEpoch`]
    /// is the planted bug).
    pub routing: RebalanceDiscipline,
}

impl Default for ClusterTrafficConfig {
    fn default() -> Self {
        ClusterTrafficConfig {
            nodes: 3,
            replication: 2,
            shards: 4,
            vnodes: 64,
            service: ServiceConfig::default(),
            admission: AdmissionConfig::default(),
            discipline: Some(AdmissionDiscipline::Faithful),
            rebalance: Some(RebalanceConfig::default()),
            routing: RebalanceDiscipline::default(),
        }
    }
}

/// One arrival's fate plus the node that handled it (`None` when no
/// alive, reachable replica existed to even refuse it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedOutcome {
    /// The node the arrival was routed to.
    pub node: Option<NodeId>,
    /// What happened to it.
    pub outcome: TrafficOutcome,
}

/// One per-node admission-controller state flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTransition {
    /// The node whose controller flipped.
    pub node: NodeId,
    /// The arrival tick the flip happened at.
    pub at_tick: u64,
    /// The state it flipped to.
    pub to: AdmissionState,
}

/// Per-node load trace of one traffic-driven cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeLoadTrace {
    /// The node.
    pub node: NodeId,
    /// The node's own availability/latency verdict over the arrivals
    /// routed to it.
    pub slo: SloReport,
    /// Deepest in-flight queue observed at this node.
    pub max_queue_depth: u32,
    /// Crashes the node suffered.
    pub crashes: usize,
    /// Restarts that revived it.
    pub restarts: usize,
    /// Whether the node was alive when the trace drained.
    pub alive_at_end: bool,
    /// The node's write-ahead journal (admissions, answers, sheds, and
    /// replicated ring changes), byte-for-byte.
    pub journal: Journal,
}

/// Acting-ownership history of one shard across the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOwnership {
    /// The shard.
    pub shard: usize,
    /// Acting owners in order, starting at the boot primary
    /// (consecutive duplicates collapsed).
    pub owners: Vec<NodeId>,
    /// Owner changes caused by rebalance promotions.
    pub promotions: usize,
    /// Owner changes caused by crash/partition failover.
    pub failovers: usize,
}

/// What a crash recovered about the ring: the epoch the cluster had
/// reached versus the epoch replayable from the surviving journals'
/// [`JournalRecord::RingChange`] records. The simulator's
/// epoch-replay invariant demands equality — a recovery that comes back
/// on an older ring would re-route shards the cluster already moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochReplay {
    /// The node that crashed.
    pub node: NodeId,
    /// The fault-timeline tick of the crash.
    pub at_tick: u64,
    /// The ring epoch at crash time.
    pub epoch_at_crash: RingEpoch,
    /// The maximum ring-change epoch decodable from the journals.
    pub replayed_epoch: RingEpoch,
}

/// The merged result of one [`serve_cluster_traffic`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub struct ClusterTrafficReport {
    /// Every arrival's fate, in trace order — answered, or shed with a
    /// typed reason. Never a silent drop.
    pub outcomes: Vec<RoutedOutcome>,
    /// Acting-ownership history per shard, sorted by shard id.
    pub shards: Vec<ShardOwnership>,
    /// Per-node load traces, sorted by node id.
    pub nodes: Vec<NodeLoadTrace>,
    /// Every per-node controller state flip, in decision order.
    pub transitions: Vec<NodeTransition>,
    /// One audit per rebalance promotion, in decision order (their
    /// epochs must be strictly increasing).
    pub rebalance_audits: Vec<RebalanceAudit>,
    /// One audit per routing give-up, in shed order.
    pub shed_audits: Vec<ShedAudit>,
    /// One record per node crash: reached vs journal-replayed epoch.
    pub epoch_replays: Vec<EpochReplay>,
    /// The ring epoch when the trace drained.
    pub final_epoch: RingEpoch,
    /// The cluster-wide availability/latency verdict.
    pub slo: SloReport,
    /// The latest shard clock or node busy horizon when the trace
    /// drained.
    pub end_tick: u64,
}

impl ClusterTrafficReport {
    /// Rebalance promotions across all shards.
    #[must_use]
    pub fn promotion_count(&self) -> usize {
        self.rebalance_audits.len()
    }

    /// Sheds carrying [`ShedReason::StaleRingEpoch`] — the planted
    /// stale-router bug's signature (zero under faithful routing).
    #[must_use]
    pub fn stale_sheds(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|routed| {
                matches!(
                    routed.outcome.disposition,
                    TrafficDisposition::Shed(ShedReason::StaleRingEpoch { .. })
                )
            })
            .count()
    }

    /// Sheds carrying [`ShedReason::Overload`] — per-node adaptive
    /// admission refusals.
    #[must_use]
    pub fn overload_sheds(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|routed| {
                matches!(
                    routed.outcome.disposition,
                    TrafficDisposition::Shed(ShedReason::Overload { .. })
                )
            })
            .count()
    }
}

/// One node's queueing and control state. This is the placement-
/// *dependent* half: the busy horizon and in-flight completions move
/// with the shards routed here, which is exactly what rebalancing
/// relieves.
struct NodeRt {
    alive: bool,
    /// Completion tick of the last query this node finished serving.
    horizon: u64,
    /// Every query routed here, until its completion folds into the
    /// node's signal window.
    backlog: Backlog,
    controller: AdaptiveAdmission,
    journal: Journal,
    /// Journal length before the most recent append (for crash-time
    /// tearing of the last in-flight replication).
    last_append_start: usize,
    crashes: usize,
    restarts: usize,
    // Trace statistics (durable — they survive crashes and restarts).
    offered: u64,
    answered: u64,
    shed: u64,
    missed: u64,
    max_queue_depth: u32,
    histogram: LatencyHistogram,
}

impl NodeRt {
    fn new(admission: AdmissionConfig, discipline: AdmissionDiscipline) -> NodeRt {
        NodeRt {
            alive: true,
            horizon: 0,
            backlog: Backlog::new(),
            controller: AdaptiveAdmission::new(admission, discipline),
            journal: Journal::new(),
            last_append_start: 0,
            crashes: 0,
            restarts: 0,
            offered: 0,
            answered: 0,
            shed: 0,
            missed: 0,
            max_queue_depth: 0,
            histogram: LatencyHistogram::new(),
        }
    }

    /// Appends a record, remembering the frame boundary for crash-time
    /// tearing.
    fn journal_append(&mut self, record: &JournalRecord) {
        self.last_append_start = self.journal.bytes().len();
        self.journal.append(record);
    }

    /// Crash-time tear: keep only the first `keep` bytes of the last
    /// append (the synchronous replication was mid-flight).
    fn tear_last_append(&mut self, keep: usize) {
        let tail = self.journal.bytes().len() - self.last_append_start;
        if tail > 0 {
            let keep = keep.min(tail);
            self.journal.truncate(self.last_append_start + keep);
        }
    }

    /// Wipes the node's RAM (crash or restart); the journal and the
    /// trace statistics are durable and survive.
    fn wipe_memory(&mut self, admission: AdmissionConfig, discipline: AdmissionDiscipline) {
        self.horizon = 0;
        self.backlog = Backlog::new();
        self.controller = AdaptiveAdmission::new(admission, discipline);
    }
}

/// The maximum [`JournalRecord::RingChange`] epoch recoverable from the
/// nodes' journals (tolerantly decoded — a crash may have torn a tail).
fn replayed_ring_epoch(nodes: &[NodeRt]) -> RingEpoch {
    let mut best = RingEpoch::BOOT;
    for node in nodes {
        if let Ok(decoded) = node.journal.decode(DecodeMode::Recover) {
            for record in &decoded.records {
                if let JournalRecord::RingChange { epoch, .. } = record {
                    best = best.max(*epoch);
                }
            }
        }
    }
    best
}

/// The router's pick for `shard` in `view`: the first alive, reachable
/// replica in ring order.
fn pick_owner(
    view: &RingView,
    shard: usize,
    nodes: &[NodeRt],
    partitions: &[Option<Vec<Vec<NodeId>>>],
) -> Option<NodeId> {
    view.replica_set(shard)
        .nodes()
        .iter()
        .copied()
        .find(|&node| nodes[node.0].alive && client_reachable(partitions, node))
}

/// The true replica state of `shard` for a [`ShedAudit`].
fn audit_replicas(
    view: &RingView,
    shard: usize,
    nodes: &[NodeRt],
    partitions: &[Option<Vec<Vec<NodeId>>>],
) -> (Vec<NodeId>, Vec<NodeId>) {
    let alive: Vec<NodeId> = view
        .replica_set(shard)
        .nodes()
        .iter()
        .copied()
        .filter(|node| nodes[node.0].alive)
        .collect();
    let reachable: Vec<NodeId> = alive
        .iter()
        .copied()
        .filter(|&node| client_reachable(partitions, node))
        .collect();
    (alive, reachable)
}

/// Serves an open-loop arrival trace on the simulated cluster,
/// deterministically, with per-node adaptive admission and (optionally)
/// admission-coupled ring rebalancing.
///
/// Per arrival, in decision order: fault ops at or before the arrival
/// tick fire; the router picks the acting owner from the configured
/// ring view; the owner's controller decides on its current
/// [`LoadSignal`]; an admitted query is served on its *shard's* core
/// (so the answer bytes are placement-independent) while the queueing
/// latency is charged against the *node's* busy horizon; finally, if
/// the node's signal is hot and a live standby sits under-loaded, the
/// [`RebalanceController`] may promote that standby for the node's
/// hottest shard, bumping the ring epoch and journaling the change on
/// every live node.
///
/// In-flight queries survive node crashes by construction: the journal
/// is synchronously replicated, and LCA-KP statelessness lets any
/// replica recompute the identical answer, so a crash only affects
/// *future* routing and signals.
///
/// # Errors
///
/// Propagates hard configuration errors ([`LcaError`]); node faults
/// shed or fail over instead of erroring.
///
/// # Panics
///
/// Panics if `nodes`, `shards`, or `vnodes` is zero.
pub fn serve_cluster_traffic<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    arrivals: &[Arrival],
    config: &ClusterTrafficConfig,
    node_events: &[NodeEvent],
) -> Result<ClusterTrafficReport, LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    assert!(config.nodes >= 1, "nodes must be at least 1");
    assert!(config.shards >= 1, "shards must be at least 1");
    assert!(config.vnodes >= 1, "vnodes must be at least 1");

    let ctx = SharedCtx {
        lca,
        oracle,
        shared_seed,
        service_root,
        config: &config.service,
        chaos: None,
        cached: None,
    };
    let discipline = config.discipline.unwrap_or_default();

    let ring = Ring::new(config.nodes, config.vnodes);
    let boot_view = RingView::from_ring(&ring, config.shards, config.replication)
        .expect("a non-empty membership always routes");
    let mut view = boot_view.clone();

    let mut cores: Vec<ShardCore<'_, O>> =
        (0..config.shards).map(|_| ShardCore::new(&ctx)).collect();
    let mut nodes: Vec<NodeRt> = (0..config.nodes)
        .map(|_| NodeRt::new(config.admission, discipline))
        .collect();
    let mut shards: Vec<ShardOwnership> = (0..config.shards)
        .map(|shard| ShardOwnership {
            shard,
            owners: vec![view.primary(shard)],
            promotions: 0,
            failovers: 0,
        })
        .collect();
    let mut controller = config
        .rebalance
        .map(|rebalance| RebalanceController::new(rebalance, config.shards));

    let (mut partitions, mut pending_cuts, ops) = flatten_node_events(node_events);

    let mut outcomes = Vec::with_capacity(arrivals.len());
    let mut transitions = Vec::new();
    let mut rebalance_audits = Vec::new();
    let mut shed_audits = Vec::new();
    let mut epoch_replays = Vec::new();
    let mut histogram = LatencyHistogram::new();
    let mut answered_count = 0u64;
    let mut shed_count = 0u64;
    let mut missed_count = 0u64;
    // Per-shard in-flight counts, rebuilt per hottest-shard scan.
    let mut heat = vec![0u32; config.shards];

    let mut next_op = 0usize;
    let mut fire_ops_through = |tick: u64,
                                nodes: &mut Vec<NodeRt>,
                                partitions: &mut Vec<Option<Vec<Vec<NodeId>>>>,
                                epoch_replays: &mut Vec<EpochReplay>,
                                view: &RingView,
                                next_op: &mut usize| {
        while *next_op < ops.len() && ops[*next_op].0 <= tick {
            let (at_tick, op) = ops[*next_op];
            *next_op += 1;
            match op {
                Op::Crash { node, torn_keep } => {
                    if node >= nodes.len() || !nodes[node].alive {
                        continue;
                    }
                    nodes[node].alive = false;
                    nodes[node].crashes += 1;
                    if let Some(keep) = torn_keep {
                        nodes[node].tear_last_append(keep);
                    }
                    nodes[node].wipe_memory(config.admission, discipline);
                    epoch_replays.push(EpochReplay {
                        node: NodeId(node),
                        at_tick,
                        epoch_at_crash: view.epoch(),
                        replayed_epoch: replayed_ring_epoch(nodes),
                    });
                }
                Op::Restart { node } => {
                    if node >= nodes.len() || nodes[node].alive {
                        continue;
                    }
                    nodes[node].alive = true;
                    nodes[node].restarts += 1;
                    nodes[node].wipe_memory(config.admission, discipline);
                }
                Op::Cut { slot } => {
                    let position = pending_cuts
                        .iter()
                        .position(|(pending, _)| *pending == slot)
                        .expect("each cut activates exactly once");
                    let (_, groups) = pending_cuts.remove(position);
                    partitions[slot] = Some(groups);
                }
                Op::Heal { slot } => {
                    partitions[slot] = None;
                }
            }
        }
    };

    for (index, arrival) in arrivals.iter().enumerate() {
        fire_ops_through(
            arrival.at_tick,
            &mut nodes,
            &mut partitions,
            &mut epoch_replays,
            &view,
            &mut next_op,
        );
        let shard = arrival.shard.min(config.shards - 1);
        let outcome_shed = |reason: ShedReason| TrafficOutcome {
            index,
            item: arrival.item,
            shard,
            at_tick: arrival.at_tick,
            disposition: TrafficDisposition::Shed(reason),
        };

        // Route per the configured discipline. The faithful pick is the
        // truth; the stale router consults the boot view instead.
        let faithful_pick = pick_owner(&view, shard, &nodes, &partitions);
        let routed = match config.routing {
            RebalanceDiscipline::Faithful => faithful_pick,
            RebalanceDiscipline::StaleEpoch => pick_owner(&boot_view, shard, &nodes, &partitions),
        };
        let Some(node_id) = routed else {
            // No replica to even refuse the query: typed shed + audit.
            let (alive, reachable) = audit_replicas(&view, shard, &nodes, &partitions);
            let reason = if !alive.is_empty() && reachable.is_empty() {
                ShedReason::Partitioned { shard }
            } else {
                ShedReason::NodeUnreachable { shard }
            };
            shed_count += 1;
            shed_audits.push(ShedAudit {
                shard,
                reason,
                alive_replicas: alive,
                reachable_replicas: reachable,
            });
            outcomes.push(RoutedOutcome {
                node: None,
                outcome: outcome_shed(reason),
            });
            continue;
        };

        // The stale router's misroute: the boot pick reaches a node
        // that no longer owns the shard. An honest node refuses with
        // both epochs on record — never serves stale placement.
        if config.routing == RebalanceDiscipline::StaleEpoch && Some(node_id) != faithful_pick {
            let reason = ShedReason::StaleRingEpoch {
                shard,
                seen: boot_view.epoch(),
                current: view.epoch(),
            };
            let node = &mut nodes[node_id.0];
            node.offered += 1;
            node.shed += 1;
            node.backlog.window.record_shed();
            node.journal_append(&JournalRecord::Shed {
                index: index as u64,
                reason,
            });
            shed_count += 1;
            let (alive, reachable) = audit_replicas(&view, shard, &nodes, &partitions);
            shed_audits.push(ShedAudit {
                shard,
                reason,
                alive_replicas: alive,
                reachable_replicas: reachable,
            });
            outcomes.push(RoutedOutcome {
                node: Some(node_id),
                outcome: outcome_shed(reason),
            });
            continue;
        }

        // Acting-ownership trace: a routed node differing from the last
        // acting owner is a failover (promotions record themselves).
        if *shards[shard]
            .owners
            .last()
            .expect("owners starts non-empty")
            != node_id
        {
            shards[shard].owners.push(node_id);
            shards[shard].failovers += 1;
        }

        let node = &mut nodes[node_id.0];
        node.offered += 1;
        let depth = node.backlog.depth_at(arrival.at_tick);
        node.max_queue_depth = node.max_queue_depth.max(depth);
        let signal = node.backlog.window.signal(depth);

        if config.discipline.is_some() {
            let before = node.controller.state();
            let decision = node.controller.decide(arrival.at_tick, signal);
            if node.controller.state() != before {
                transitions.push(NodeTransition {
                    node: node_id,
                    at_tick: arrival.at_tick,
                    to: node.controller.state(),
                });
            }
            if let AdmissionDecision::Shed(reason) = decision {
                node.backlog.window.record_shed();
                node.shed += 1;
                node.journal_append(&JournalRecord::Shed {
                    index: index as u64,
                    reason,
                });
                shed_count += 1;
                outcomes.push(RoutedOutcome {
                    node: Some(node_id),
                    outcome: outcome_shed(reason),
                });
                maybe_rebalance(
                    &mut controller,
                    &mut view,
                    &mut nodes,
                    &mut shards,
                    &mut rebalance_audits,
                    &partitions,
                    &mut heat,
                    node_id,
                    signal,
                    arrival.at_tick,
                );
                continue;
            }
        }

        // Write-ahead: the admission is durable before anything runs.
        nodes[node_id.0].journal_append(&JournalRecord::Admitted {
            index: index as u64,
            item: arrival.item.0 as u64,
        });

        // Serve on the shard's placement-independent core.
        let (answer, service_ticks) = cores[shard].serve_arrival(&ctx, shard, index, arrival)?;

        // Charge the queueing against the hosting node's busy horizon.
        let node = &mut nodes[node_id.0];
        let begin = arrival.at_tick.max(node.horizon);
        let completion_tick = begin + service_ticks;
        node.horizon = completion_tick;
        let latency_ticks = completion_tick - arrival.at_tick;
        let deadline_met = latency_ticks <= config.service.deadline_ticks;
        node.backlog.complete(completion_tick, deadline_met, shard);
        node.answered += 1;
        if !deadline_met {
            node.missed += 1;
            missed_count += 1;
        }
        node.histogram.record(latency_ticks);
        node.journal_append(&JournalRecord::Answered {
            index: index as u64,
            answer,
        });
        histogram.record(latency_ticks);
        answered_count += 1;
        outcomes.push(RoutedOutcome {
            node: Some(node_id),
            outcome: TrafficOutcome {
                index,
                item: arrival.item,
                shard,
                at_tick: arrival.at_tick,
                disposition: TrafficDisposition::Answered {
                    completion_tick,
                    latency_ticks,
                    deadline_met,
                    answer,
                },
            },
        });

        maybe_rebalance(
            &mut controller,
            &mut view,
            &mut nodes,
            &mut shards,
            &mut rebalance_audits,
            &partitions,
            &mut heat,
            node_id,
            signal,
            arrival.at_tick,
        );
    }

    // Fire any fault ops past the last arrival so late crashes still
    // leave their epoch-replay records.
    fire_ops_through(
        u64::MAX,
        &mut nodes,
        &mut partitions,
        &mut epoch_replays,
        &view,
        &mut next_op,
    );

    let end_tick = cores
        .iter()
        .map(|core| core.clock.now())
        .chain(nodes.iter().map(|node| node.horizon))
        .max()
        .unwrap_or(0);
    let node_traces: Vec<NodeLoadTrace> = nodes
        .into_iter()
        .enumerate()
        .map(|(id, node)| NodeLoadTrace {
            node: NodeId(id),
            slo: SloReport::from_counts(
                node.offered,
                node.answered,
                node.shed,
                node.missed,
                &node.histogram,
            ),
            max_queue_depth: node.max_queue_depth,
            crashes: node.crashes,
            restarts: node.restarts,
            alive_at_end: node.alive,
            journal: node.journal,
        })
        .collect();

    Ok(ClusterTrafficReport {
        outcomes,
        shards,
        nodes: node_traces,
        transitions,
        rebalance_audits,
        shed_audits,
        epoch_replays,
        final_epoch: view.epoch(),
        slo: SloReport::from_counts(
            arrivals.len() as u64,
            answered_count,
            shed_count,
            missed_count,
            &histogram,
        ),
        end_tick,
    })
}

/// One rebalance opportunity: if `from`'s signal is hot, propose moving
/// its hottest primaried shard to the least-loaded live standby and let
/// the [`RebalanceController`] judge it. On approval the view promotes,
/// the epoch bumps, and every live node journals the change.
#[allow(clippy::too_many_arguments)]
fn maybe_rebalance(
    controller: &mut Option<RebalanceController>,
    view: &mut RingView,
    nodes: &mut [NodeRt],
    shards: &mut [ShardOwnership],
    rebalance_audits: &mut Vec<RebalanceAudit>,
    partitions: &[Option<Vec<Vec<NodeId>>>],
    heat: &mut [u32],
    from: NodeId,
    signal: LoadSignal,
    at_tick: u64,
) {
    let Some(controller) = controller.as_mut() else {
        return;
    };
    if !controller.hot(signal) {
        return;
    }
    // Hottest shard: the most in-flight queries at `from`, restricted
    // to shards it primaries (failover guests move by healing, not by
    // promotion). Lowest id wins ties.
    heat.fill(0);
    for &(_, _, shard) in nodes[from.0].backlog.in_flight() {
        heat[shard] += 1;
    }
    let hottest = heat
        .iter()
        .enumerate()
        .filter(|&(shard, &in_flight)| in_flight > 0 && view.primary(shard) == from)
        .max_by_key(|&(shard, &in_flight)| (in_flight, std::cmp::Reverse(shard)))
        .map(|(shard, _)| shard);
    let Some(shard) = hottest else {
        return;
    };
    // Least-loaded live standby replica of that shard (lowest node id
    // on depth ties).
    let mut target: Option<(u32, NodeId)> = None;
    for &candidate in view.replica_set(shard).nodes() {
        if candidate == from
            || !nodes[candidate.0].alive
            || !client_reachable(partitions, candidate)
        {
            continue;
        }
        let depth = nodes[candidate.0].backlog.depth_at(at_tick);
        if target.is_none_or(|(best_depth, best)| (depth, candidate.0) < (best_depth, best.0)) {
            target = Some((depth, candidate));
        }
    }
    let Some((target_queue_depth, to)) = target else {
        return;
    };
    let Some(decision) = controller.decide(
        at_tick,
        shard,
        from,
        to,
        signal,
        target_queue_depth,
        view.epoch(),
    ) else {
        return;
    };
    let applied = view
        .promote(shard, to)
        .expect("the controller only promotes live standby members");
    debug_assert_eq!(
        applied, decision.epoch,
        "controller and view agree on epochs"
    );
    // Synchronously replicate the ring change to every live node's
    // journal — this is what a post-crash recovery replays.
    let record = JournalRecord::RingChange {
        epoch: applied,
        shard: shard as u64,
        from,
        to,
    };
    for node in nodes.iter_mut().filter(|node| node.alive) {
        node.journal_append(&record);
    }
    if *shards[shard]
        .owners
        .last()
        .expect("owners starts non-empty")
        != to
    {
        shards[shard].owners.push(to);
    }
    shards[shard].promotions += 1;
    rebalance_audits.push(RebalanceAudit {
        decision,
        signal,
        target_queue_depth,
        target_alive: true,
    });
}

/// Replays one shard's admitted arrival subsequence on a fresh,
/// standalone serving core — what any replica would compute from the
/// shared seeds alone. The E18 simulator compares these answers
/// byte-for-byte against the cluster run's: migrations, failovers, and
/// crashes must all be invisible in the bytes, because per-query
/// statelessness means placement never enters the computation.
///
/// # Errors
///
/// Propagates hard configuration errors ([`LcaError`]).
pub fn replay_shard_traffic<O>(
    lca: &LcaKp,
    oracle: &O,
    shared_seed: &Seed,
    service_root: &Seed,
    admitted: &[(usize, Arrival)],
    shard: usize,
    service: &ServiceConfig,
) -> Result<Vec<(usize, Answered)>, LcaError>
where
    O: ItemOracle + WeightedSampler,
{
    let ctx = SharedCtx {
        lca,
        oracle,
        shared_seed,
        service_root,
        config: service,
        chaos: None,
        cached: None,
    };
    let mut core = ShardCore::new(&ctx);
    let mut answers = Vec::with_capacity(admitted.len());
    for &(index, arrival) in admitted {
        let (answer, _) = core.serve_arrival(&ctx, shard, index, &arrival)?;
        answers.push((index, answer));
    }
    Ok(answers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::serve_batch;
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

    struct World {
        norm: lcakp_knapsack::NormalizedInstance,
        lca: LcaKp,
        config: ClusterConfig,
    }

    fn world(n: usize, seed: u64) -> World {
        let norm = WorkloadSpec::new(Family::SmallDominated, n, seed)
            .generate_normalized()
            .unwrap();
        World {
            norm,
            lca: quick_lca(),
            config: ClusterConfig::default(),
        }
    }

    fn run(world: &World, events: &[NodeEvent]) -> ClusterReport {
        let oracle = InstanceOracle::new(&world.norm);
        serve_cluster(
            &world.lca,
            &oracle,
            &Seed::from_entropy_u64(41),
            &Seed::from_entropy_u64(42),
            &batch(world.norm.len()),
            &world.config,
            None,
            events,
        )
        .unwrap()
    }

    /// A shard whose boot replica group excludes node 0, plus that
    /// group (needed to partition the group away from the client).
    fn shard_avoiding_node0(config: &ClusterConfig) -> (usize, Vec<NodeId>) {
        let ring = Ring::new(config.nodes, config.vnodes);
        for shard in 0..config.shards {
            let set = ring.replicas(shard, config.replication).unwrap();
            if !set.contains(NodeId(0)) {
                return (shard, set.nodes().to_vec());
            }
        }
        panic!("no shard avoids node 0 — pick different vnodes");
    }

    #[test]
    fn clean_cluster_matches_the_worker_pool_per_query() {
        let world = world(32, 5);
        let report = run(&world, &[]);
        assert_eq!(report.outcomes.len(), 32);
        assert_eq!(report.shed_count(), 0);
        assert_eq!(report.failover_count(), 0);
        assert!(report.cached_rule_available);
        assert!(report.shed_audits.is_empty());
        // Per-query answers equal serve_batch's: seeds derive from
        // batch position, so pool vs cluster cannot change a verdict.
        let oracle = InstanceOracle::new(&world.norm);
        let pool = serve_batch(
            &world.lca,
            &oracle,
            &Seed::from_entropy_u64(41),
            &Seed::from_entropy_u64(42),
            &batch(32),
            &world.config.base,
            None,
        )
        .unwrap();
        for (ours, theirs) in report.outcomes.iter().zip(&pool.outcomes) {
            let a = ours.disposition.answered().unwrap();
            let b = theirs.disposition.answered().unwrap();
            assert_eq!((a.include, a.tier), (b.include, b.tier));
        }
    }

    #[test]
    fn node_crash_fails_over_byte_invisibly() {
        let world = world(32, 6);
        let twin = run(&world, &[]);
        let horizon = twin.shards.iter().map(|s| s.end_tick).max().unwrap();
        let victim = twin.shards[0].owners[0];
        let crashed = run(
            &world,
            &[NodeEvent::NodeCrash {
                node: victim,
                at_tick: horizon / 2,
                torn_keep: Some(7),
            }],
        );
        assert_eq!(
            crashed.outcomes, twin.outcomes,
            "failover must be invisible"
        );
        assert!(crashed.failover_count() > 0, "the victim owned shards");
        assert!(crashed.shed_audits.is_empty());
        let trace = &crashed.nodes[victim.0];
        assert_eq!((trace.crashes, trace.restarts), (1, 0));
        assert!(!trace.alive_at_end);
        // Promoted shards record their new owner.
        let moved = crashed
            .shards
            .iter()
            .filter(|s| s.owners.first() == Some(&victim))
            .count();
        assert!(moved > 0);
        for shard in crashed.shards.iter().filter(|s| s.failovers > 0) {
            assert_ne!(*shard.owners.last().unwrap(), victim);
        }
    }

    #[test]
    fn losing_every_replica_sheds_node_unreachable_not_silently() {
        let world = world(32, 7);
        let (shard, group) = shard_avoiding_node0(&world.config);
        let events: Vec<NodeEvent> = group
            .iter()
            .map(|&node| NodeEvent::NodeCrash {
                node,
                at_tick: 1,
                torn_keep: None,
            })
            .collect();
        let report = run(&world, &events);
        let mut sheds = 0usize;
        for outcome in &report.outcomes {
            if outcome.index % world.config.shards == shard {
                if let Disposition::Shed(reason) = outcome.disposition {
                    assert_eq!(reason, ShedReason::NodeUnreachable { shard });
                    sheds += 1;
                }
            }
        }
        assert!(sheds > 0, "the orphaned shard must shed explicitly");
        let audit = report
            .shed_audits
            .iter()
            .find(|audit| audit.shard == shard)
            .expect("an abandoned shard leaves an audit");
        assert!(audit.alive_replicas.is_empty());
        assert_eq!(report.outcomes.len(), 32, "no silent drops");
    }

    #[test]
    fn healed_partition_is_byte_invisible_and_unhealed_sheds_partitioned() {
        let world = world(32, 8);
        let twin = run(&world, &[]);
        let horizon = twin.shards.iter().map(|s| s.end_tick).max().unwrap();
        let (shard, group) = shard_avoiding_node0(&world.config);
        let cut = |heal_at: u64| NodeEvent::Partition {
            groups: vec![group.clone()],
            at_tick: horizon / 3,
            heal_at,
        };
        // Healed: parked shards resume with intact memory, zero ticks.
        let healed = run(&world, &[cut(horizon / 2)]);
        assert_eq!(healed.outcomes, twin.outcomes);
        assert!(healed.shed_audits.is_empty());
        // Never healed: the stranded shard sheds with the typed reason.
        let stranded = run(&world, &[cut(u64::MAX)]);
        assert_eq!(stranded.outcomes.len(), 32, "no silent drops");
        let audit = stranded
            .shed_audits
            .iter()
            .find(|audit| audit.shard == shard)
            .expect("the stranded shard leaves an audit");
        assert_eq!(audit.reason, ShedReason::Partitioned { shard });
        assert!(!audit.alive_replicas.is_empty());
        assert!(audit.reachable_replicas.is_empty());
        let shed = stranded
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.disposition,
                    Disposition::Shed(ShedReason::Partitioned { .. })
                )
            })
            .count();
        assert!(shed > 0);
    }

    #[test]
    fn crash_then_restart_rejoins_through_journal_replay() {
        let world = world(32, 9);
        let twin = run(&world, &[]);
        let horizon = twin.shards.iter().map(|s| s.end_tick).max().unwrap();
        let victim = twin.shards[0].owners[0];
        let report = run(
            &world,
            &[
                NodeEvent::NodeCrash {
                    node: victim,
                    at_tick: horizon / 3,
                    torn_keep: None,
                },
                NodeEvent::NodeRestart {
                    node: victim,
                    at_tick: horizon / 2,
                },
            ],
        );
        assert_eq!(report.outcomes, twin.outcomes);
        let trace = &report.nodes[victim.0];
        assert_eq!((trace.crashes, trace.restarts), (1, 1));
        assert!(trace.alive_at_end);
    }

    #[test]
    fn stale_ring_routing_sheds_while_a_live_replica_waits() {
        let mut world = world(32, 10);
        let twin = run(&world, &[]);
        let horizon = twin.shards.iter().map(|s| s.end_tick).max().unwrap();
        let victim = twin.shards[0].owners[0];
        world.config.routing = RoutingDiscipline::StaleRing;
        let report = run(
            &world,
            &[NodeEvent::NodeCrash {
                node: victim,
                at_tick: horizon / 2,
                torn_keep: None,
            }],
        );
        // The bug's signature: a NodeUnreachable shed whose audit shows
        // an alive, reachable replica the router never consulted.
        let lying = report
            .shed_audits
            .iter()
            .find(|audit| !audit.reachable_replicas.is_empty())
            .expect("the stale router must strand a shard with live replicas");
        assert_eq!(
            lying.reason,
            ShedReason::NodeUnreachable { shard: lying.shard }
        );
        assert_ne!(report.outcomes, twin.outcomes);
        assert_eq!(
            report.outcomes.len(),
            32,
            "even the bug never drops silently"
        );
    }

    use crate::traffic::{generate_trace, TrafficConfig, TrafficShape};

    /// Measures the per-query service cost the way E17's simulator
    /// does: a back-to-back steady probe, mean ticks per answer.
    fn probe_cost(world: &World) -> u64 {
        let oracle = InstanceOracle::new(&world.norm);
        let admitted: Vec<(usize, Arrival)> = (0..32)
            .map(|i| {
                (
                    i,
                    Arrival {
                        at_tick: (i + 1) as u64,
                        item: ItemId(i % world.norm.len()),
                        shard: 0,
                        extra_cost_ticks: 0,
                    },
                )
            })
            .collect();
        let answers = replay_shard_traffic(
            &world.lca,
            &oracle,
            &Seed::from_entropy_u64(41),
            &Seed::from_entropy_u64(42),
            &admitted,
            0,
            &world.config.base,
        )
        .unwrap();
        (answers.last().unwrap().1.end_tick / 32).max(1)
    }

    /// An overload-ready traffic cluster: thresholds scaled to the
    /// measured per-query cost, hot-shard arrivals at twice capacity.
    fn traffic_world(world: &World, cost: u64) -> (ClusterTrafficConfig, Vec<Arrival>) {
        let mut service = world.config.base.clone();
        service.deadline_ticks = cost * 8;
        let admission = AdmissionConfig {
            enter_queue_depth: 6,
            exit_queue_depth: 2,
            enter_miss_permille: 250,
            exit_miss_permille: 60,
            hysteresis_ticks: cost * 8,
            shed_permille: 400,
            queue_depth_normal: 12,
            queue_depth_overloaded: 4,
        };
        let rebalance = RebalanceConfig {
            enter_queue_depth: 6,
            enter_miss_permille: 250,
            target_queue_depth: 3,
            hysteresis_ticks: cost * 4,
            window_ticks: cost * 64,
            max_promotions_per_shard: 2,
        };
        let config = ClusterTrafficConfig {
            nodes: 3,
            replication: 2,
            shards: 4,
            vnodes: 64,
            service,
            admission,
            discipline: Some(AdmissionDiscipline::Faithful),
            rebalance: Some(rebalance),
            routing: RebalanceDiscipline::Faithful,
        };
        let trace = generate_trace(
            &Seed::from_entropy_u64(43),
            &TrafficConfig {
                shape: TrafficShape::HotShard,
                arrivals: 160,
                mean_gap_ticks: (cost / 2).max(1),
                universe: world.norm.len(),
                shards: config.shards,
            },
        );
        (config, trace)
    }

    fn run_traffic(
        world: &World,
        config: &ClusterTrafficConfig,
        trace: &[Arrival],
        events: &[NodeEvent],
    ) -> ClusterTrafficReport {
        let oracle = InstanceOracle::new(&world.norm);
        serve_cluster_traffic(
            &world.lca,
            &oracle,
            &Seed::from_entropy_u64(41),
            &Seed::from_entropy_u64(42),
            trace,
            config,
            events,
        )
        .unwrap()
    }

    #[test]
    fn hot_shard_overload_promotes_deterministically_with_honest_audits() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (config, trace) = traffic_world(&world, cost);
        let first = run_traffic(&world, &config, &trace, &[]);
        let second = run_traffic(&world, &config, &trace, &[]);
        assert_eq!(first, second, "traffic cluster must be deterministic");
        assert_eq!(first.outcomes.len(), trace.len(), "no silent drops");
        assert!(
            first.promotion_count() > 0,
            "a hot shard at 2x capacity must trigger relief"
        );
        // Rebalance honesty: every promotion cites a hot signal and a
        // live under-loaded target, and epochs strictly increase.
        let rebalance = config.rebalance.unwrap();
        let mut last_epoch = RingEpoch::BOOT;
        for audit in &first.rebalance_audits {
            assert!(
                audit.signal.queue_depth >= rebalance.enter_queue_depth
                    || audit.signal.deadline_miss_permille >= rebalance.enter_miss_permille,
                "promotion without an overloaded source: {audit}"
            );
            assert!(audit.target_alive);
            assert!(audit.target_queue_depth < rebalance.target_queue_depth);
            assert!(audit.decision.epoch > last_epoch, "epochs must increase");
            last_epoch = audit.decision.epoch;
        }
        assert_eq!(first.final_epoch, last_epoch);
        assert_eq!(first.stale_sheds(), 0, "faithful routing never goes stale");
        // The promoted shard records its new acting owner.
        let moved = first
            .shards
            .iter()
            .find(|ownership| ownership.promotions > 0)
            .expect("some shard was promoted");
        assert!(moved.owners.len() >= 2);
    }

    #[test]
    fn migrated_answers_are_byte_identical_to_the_standalone_replay() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (config, trace) = traffic_world(&world, cost);
        let report = run_traffic(&world, &config, &trace, &[]);
        assert!(report.promotion_count() > 0, "the check needs a migration");
        let oracle = InstanceOracle::new(&world.norm);
        for shard in 0..config.shards {
            let admitted: Vec<(usize, Arrival)> = report
                .outcomes
                .iter()
                .filter(|routed| {
                    routed.outcome.shard == shard
                        && matches!(
                            routed.outcome.disposition,
                            TrafficDisposition::Answered { .. }
                        )
                })
                .map(|routed| (routed.outcome.index, trace[routed.outcome.index]))
                .collect();
            let replayed = replay_shard_traffic(
                &world.lca,
                &oracle,
                &Seed::from_entropy_u64(41),
                &Seed::from_entropy_u64(42),
                &admitted,
                shard,
                &config.service,
            )
            .unwrap();
            let mut position = 0usize;
            for routed in &report.outcomes {
                if routed.outcome.shard != shard {
                    continue;
                }
                if let TrafficDisposition::Answered { answer, .. } = routed.outcome.disposition {
                    assert_eq!(
                        replayed[position],
                        (routed.outcome.index, answer),
                        "migration must be invisible in the answer bytes"
                    );
                    position += 1;
                }
            }
            assert_eq!(position, replayed.len());
        }
    }

    #[test]
    fn stale_epoch_routing_sheds_with_both_epochs_on_record() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (mut config, trace) = traffic_world(&world, cost);
        config.routing = RebalanceDiscipline::StaleEpoch;
        let report = run_traffic(&world, &config, &trace, &[]);
        assert!(report.promotion_count() > 0, "staleness needs a promotion");
        assert!(
            report.stale_sheds() > 0,
            "the frozen router must misroute after the ring moved"
        );
        let audit = report
            .shed_audits
            .iter()
            .find(|audit| matches!(audit.reason, ShedReason::StaleRingEpoch { .. }))
            .expect("stale sheds leave audits");
        assert!(
            !audit.reachable_replicas.is_empty(),
            "the true owner was alive and reachable the whole time"
        );
        if let ShedReason::StaleRingEpoch { seen, current, .. } = audit.reason {
            assert_eq!(seen, RingEpoch::BOOT);
            assert!(current > seen);
        }
        assert_eq!(report.outcomes.len(), trace.len(), "never a silent drop");
    }

    #[test]
    fn crash_after_promotion_replays_the_reached_epoch_from_journals() {
        let world = world(24, 12);
        let cost = probe_cost(&world);
        let (config, trace) = traffic_world(&world, cost);
        let clean = run_traffic(&world, &config, &trace, &[]);
        assert!(clean.promotion_count() > 0);
        let first_promotion = clean.rebalance_audits[0].decision.at_tick;
        // Crash the donating node right after the promotion, tearing
        // its last journal append mid-replication.
        let victim = clean.rebalance_audits[0].decision.from;
        let report = run_traffic(
            &world,
            &config,
            &trace,
            &[NodeEvent::NodeCrash {
                node: victim,
                at_tick: first_promotion + 1,
                torn_keep: Some(3),
            }],
        );
        let replay = report
            .epoch_replays
            .first()
            .expect("a crash leaves an epoch-replay record");
        assert_eq!(replay.node, victim);
        assert!(replay.epoch_at_crash >= RingEpoch(1));
        assert_eq!(
            replay.replayed_epoch, replay.epoch_at_crash,
            "recovery must come back on the epoch the cluster reached"
        );
        // The survivors' journals carry the ring change itself.
        let ring_changes = report
            .nodes
            .iter()
            .flat_map(|node| {
                node.journal
                    .decode(DecodeMode::Recover)
                    .expect("node journals decode")
                    .records
            })
            .filter(|record| matches!(record, JournalRecord::RingChange { .. }))
            .count();
        assert!(ring_changes > 0);
        assert_eq!(report.outcomes.len(), trace.len(), "never a silent drop");
    }

    #[test]
    fn standalone_shard_replay_matches_the_faulted_cluster_run() {
        let world = world(32, 11);
        let twin = run(&world, &[]);
        let horizon = twin.shards.iter().map(|s| s.end_tick).max().unwrap();
        let victim = twin.shards[0].owners[0];
        let crashed = run(
            &world,
            &[NodeEvent::NodeCrash {
                node: victim,
                at_tick: horizon / 2,
                torn_keep: Some(3),
            }],
        );
        let oracle = InstanceOracle::new(&world.norm);
        for shard in 0..world.config.shards {
            let standalone = serve_shard_standalone(
                &world.lca,
                &oracle,
                &Seed::from_entropy_u64(41),
                &Seed::from_entropy_u64(42),
                &batch(32),
                shard,
                &world.config,
            )
            .unwrap();
            let from_cluster: Vec<&QueryOutcome> = crashed
                .outcomes
                .iter()
                .filter(|o| o.index % world.config.shards == shard)
                .collect();
            assert_eq!(standalone.len(), from_cluster.len());
            for (a, b) in standalone.iter().zip(from_cluster) {
                assert_eq!(a, b, "replica answers must be byte-identical");
            }
        }
    }
}
