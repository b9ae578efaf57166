//! Per-query tracing spans.
//!
//! A [`QueryTrace`] is assembled by the front end that scattered the query;
//! each owner's sub-query reply carries a [`StageTimes`] that the front end
//! folds into the trace's cluster-wide aggregate. Two views coexist:
//!
//! - `local` — disjoint wall-clock segments of the *front end's thread*
//!   (route, reply waits, retries and failover, merge). By construction `local.sum_ns() <= wall_ns`, which is the
//!   invariant the chaos suite checks under fault injection.
//! - `agg` — the same stages summed across *every* node the query touched,
//!   plus wire time from `Router` delivery timestamps. Parallel fan-out
//!   means `agg` routinely exceeds the wall clock; it answers "where did
//!   the cluster spend work", not "why did I wait".

/// Per-stage nanosecond totals for one (sub-)query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Partitioning the viewport and scattering sub-queries.
    pub route_ns: u64,
    /// PLM completeness checks + cache lookups (`get_many`).
    pub plm_ns: u64,
    /// Derivation from finer levels, inserts, result assembly and the
    /// modeled serve cost. Not an owner's upkeep (replacement, dispersal,
    /// housekeeping), which runs after its reply: node histogram
    /// `eval.upkeep`.
    pub merge_ns: u64,
    /// DFS scans: fetching observations for cells the cache couldn't serve.
    pub dfs_ns: u64,
    /// Simulated wire time (latency + fault delays) across RPC legs.
    pub wire_ns: u64,
    /// Backoff sleeps and re-sent attempts after timeouts.
    pub retry_ns: u64,
    /// First-attempt blocking waits for sub-query replies.
    pub wait_ns: u64,
}

impl StageTimes {
    /// Fold another stage record into this one, stage by stage.
    pub fn add(&mut self, other: &StageTimes) {
        self.route_ns += other.route_ns;
        self.plm_ns += other.plm_ns;
        self.merge_ns += other.merge_ns;
        self.dfs_ns += other.dfs_ns;
        self.wire_ns += other.wire_ns;
        self.retry_ns += other.retry_ns;
        self.wait_ns += other.wait_ns;
    }

    /// Total across all stages.
    pub fn sum_ns(&self) -> u64 {
        self.route_ns
            + self.plm_ns
            + self.merge_ns
            + self.dfs_ns
            + self.wire_ns
            + self.retry_ns
            + self.wait_ns
    }

    /// `(label, value)` pairs in report order.
    pub fn stages(&self) -> [(&'static str, u64); 7] {
        [
            ("route", self.route_ns),
            ("plm", self.plm_ns),
            ("merge", self.merge_ns),
            ("dfs", self.dfs_ns),
            ("wire", self.wire_ns),
            ("retry", self.retry_ns),
            ("wait", self.wait_ns),
        ]
    }
}

/// End-to-end trace of one client query, returned beside its result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Disjoint front-end-thread segments; `local.sum_ns() <= wall_ns`.
    pub local: StageTimes,
    /// Cluster-wide stage totals (may exceed `wall_ns` under fan-out).
    pub agg: StageTimes,
    /// Front-end wall clock from planning to the merged answer.
    pub wall_ns: u64,
    /// First-wave sub-queries sent, one per owner.
    pub subqueries: u32,
    /// DFS replica-failover rounds taken.
    pub failovers: u32,
    /// Shares that climbed the retry ladder, one per ladder run, plus
    /// refused reroutes resent to their owner.
    pub retries: u32,
}

impl QueryTrace {
    /// Fold one owner's sub-query stage record into the aggregate view.
    pub fn absorb_sub(&mut self, sub: &StageTimes) {
        self.agg.add(sub);
    }

    /// The front-end-thread accounted time; never exceeds `wall_ns`.
    pub fn local_sum_ns(&self) -> u64 {
        self.local.sum_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(route: u64, dfs: u64, wire: u64) -> StageTimes {
        StageTimes {
            route_ns: route,
            dfs_ns: dfs,
            wire_ns: wire,
            ..StageTimes::default()
        }
    }

    #[test]
    fn add_is_stage_wise() {
        let mut a = times(1, 2, 3);
        a.add(&times(10, 20, 30));
        assert_eq!(a, times(11, 22, 33));
        assert_eq!(a.sum_ns(), 66);
    }

    #[test]
    fn stages_cover_every_field() {
        let all_ones = StageTimes {
            route_ns: 1,
            plm_ns: 1,
            merge_ns: 1,
            dfs_ns: 1,
            wire_ns: 1,
            retry_ns: 1,
            wait_ns: 1,
        };
        assert_eq!(all_ones.stages().iter().map(|(_, v)| v).sum::<u64>(), 7);
        assert_eq!(all_ones.sum_ns(), 7);
    }

    #[test]
    fn absorb_sub_only_touches_aggregate() {
        let mut t = QueryTrace {
            local: times(5, 0, 0),
            wall_ns: 100,
            ..QueryTrace::default()
        };
        t.absorb_sub(&times(0, 40, 7));
        assert_eq!(t.local, times(5, 0, 0));
        assert_eq!(t.agg, times(0, 40, 7));
        assert_eq!(t.local_sum_ns(), 5);
    }
}
