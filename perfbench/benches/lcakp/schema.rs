//! The metric names and units every workload prints, in one place so
//! the three workloads cannot drift from each other or from
//! `BENCHMARK.json`. A layer a workload does not pass through reports 0.

use crate::common::Report;

/// End-to-end metrics, printed with tracing off.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub qps: f64,
    pub query_ms_p50: f64,
    pub query_ms_tail: f64,
    pub n_star: f64,
    pub accesses_per_query: f64,
    pub availability_permille: f64,
    pub p50_ticks: f64,
    pub p99_ticks: f64,
    pub slo_rate_permille: f64,
    pub peak_heap_mb: f64,
    pub setup_s: f64,
}

impl EndToEnd {
    pub fn emit(&self, report: &mut Report) {
        report.metric("qps", self.qps, "queries/s");
        report.metric("query_ms_p50", self.query_ms_p50, "ms");
        report.metric("query_ms_tail", self.query_ms_tail, "ms");
        report.metric("n_star", self.n_star, "items");
        report.metric("accesses_per_query", self.accesses_per_query, "count");
        report.metric(
            "availability_permille",
            self.availability_permille,
            "permille",
        );
        report.metric("p50_ticks", self.p50_ticks, "ticks");
        report.metric("p99_ticks", self.p99_ticks, "ticks");
        report.metric("slo_rate_permille", self.slo_rate_permille, "permille");
        report.metric("peak_heap_mb", self.peak_heap_mb, "MB");
        report.metric("setup_s", self.setup_s, "s");
    }
}

/// Per-layer metrics, printed by the traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub oracle_samples_per_query: f64,
    pub oracle_point_queries_per_query: f64,
    pub oracle_sample_ns: f64,
    pub oracle_busy_share: f64,
    pub oracle_alias_build_ms: f64,
    pub reproducible_excess_ms_per_query: f64,
    pub reproducible_calls_per_query: f64,
    pub reproducible_rquantile_us: f64,
    pub reproducible_sample_len: f64,
    pub reproducible_alloc_bytes_per_call: f64,
    pub knapsack_tilde_items: f64,
    pub knapsack_tilde_build_us: f64,
    pub knapsack_greedy_ms: f64,
    pub core_self_ms_per_query: f64,
    pub core_convert_greedy_us: f64,
    pub core_allocs_per_query: f64,
    pub core_alloc_bytes_per_query: f64,
    pub core_degraded_permille: f64,
    pub core_retries_per_query: f64,
    pub service_overhead_us_per_query: f64,
    pub service_parallel_efficiency: f64,
    pub service_journal_bytes_per_query: f64,
    pub service_shed_permille: f64,
    pub service_breaker_transitions: f64,
    pub cluster_overhead_us_per_arrival: f64,
    pub cluster_journal_bytes_per_answer: f64,
    pub cluster_journal_decode_us: f64,
    pub cluster_promotions: f64,
    pub cluster_failovers: f64,
    pub cluster_final_epoch: f64,
    pub cluster_overload_sheds: f64,
    pub cluster_max_queue_depth: f64,
    pub workloads_generate_ms: f64,
    pub trace_overhead: f64,
}

impl Layers {
    pub fn emit(&self, report: &mut Report) {
        let rows: [(&'static str, f64, &'static str); 34] = [
            (
                "oracle.samples_per_query",
                self.oracle_samples_per_query,
                "count",
            ),
            (
                "oracle.point_queries_per_query",
                self.oracle_point_queries_per_query,
                "count",
            ),
            ("oracle.sample_ns", self.oracle_sample_ns, "ns"),
            ("oracle.busy_share", self.oracle_busy_share, "ratio"),
            ("oracle.alias_build_ms", self.oracle_alias_build_ms, "ms"),
            (
                "reproducible.excess_ms_per_query",
                self.reproducible_excess_ms_per_query,
                "ms",
            ),
            (
                "reproducible.calls_per_query",
                self.reproducible_calls_per_query,
                "count",
            ),
            (
                "reproducible.rquantile_us",
                self.reproducible_rquantile_us,
                "us",
            ),
            (
                "reproducible.sample_len",
                self.reproducible_sample_len,
                "count",
            ),
            (
                "reproducible.alloc_bytes_per_call",
                self.reproducible_alloc_bytes_per_call,
                "bytes",
            ),
            ("knapsack.tilde_items", self.knapsack_tilde_items, "count"),
            (
                "knapsack.tilde_build_us",
                self.knapsack_tilde_build_us,
                "us",
            ),
            ("knapsack.greedy_ms", self.knapsack_greedy_ms, "ms"),
            ("core.self_ms_per_query", self.core_self_ms_per_query, "ms"),
            ("core.convert_greedy_us", self.core_convert_greedy_us, "us"),
            ("core.allocs_per_query", self.core_allocs_per_query, "count"),
            (
                "core.alloc_bytes_per_query",
                self.core_alloc_bytes_per_query,
                "bytes",
            ),
            (
                "core.degraded_permille",
                self.core_degraded_permille,
                "permille",
            ),
            (
                "core.retries_per_query",
                self.core_retries_per_query,
                "count",
            ),
            (
                "service.overhead_us_per_query",
                self.service_overhead_us_per_query,
                "us",
            ),
            (
                "service.parallel_efficiency",
                self.service_parallel_efficiency,
                "ratio",
            ),
            (
                "service.journal_bytes_per_query",
                self.service_journal_bytes_per_query,
                "bytes",
            ),
            (
                "service.shed_permille",
                self.service_shed_permille,
                "permille",
            ),
            (
                "service.breaker_transitions",
                self.service_breaker_transitions,
                "count",
            ),
            (
                "cluster.overhead_us_per_arrival",
                self.cluster_overhead_us_per_arrival,
                "us",
            ),
            (
                "cluster.journal_bytes_per_answer",
                self.cluster_journal_bytes_per_answer,
                "bytes",
            ),
            (
                "cluster.journal_decode_us",
                self.cluster_journal_decode_us,
                "us",
            ),
            ("cluster.promotions", self.cluster_promotions, "count"),
            ("cluster.failovers", self.cluster_failovers, "count"),
            ("cluster.final_epoch", self.cluster_final_epoch, "count"),
            (
                "cluster.overload_sheds",
                self.cluster_overload_sheds,
                "count",
            ),
            (
                "cluster.max_queue_depth",
                self.cluster_max_queue_depth,
                "count",
            ),
            ("workloads.generate_ms", self.workloads_generate_ms, "ms"),
            ("trace.overhead", self.trace_overhead, "ratio"),
        ];
        for (name, value, unit) in rows {
            report.metric(name, value, unit);
        }
    }
}
