//! The client API — the stand-in for the Grafana front-end (§VI-A).
//!
//! Every user interaction (pan, zoom, dice, …) becomes one
//! [`ClusterClient::query`] call, a small builder:
//!
//! ```text
//! client.query(&q).run()                  // the summary
//! client.query(&q).traced().run()         // result + per-stage QueryTrace
//! client.query(&q).quantile(0, 0.99)      // sketch accessor: approximate p99
//! client.query(&q).distinct(0)            // estimated distinct values
//! client.query(&q).top_k(0, 8)            // heavy hitters with bounds
//! ```
//!
//! The front end is the only coordinator. It knows the zero-hop
//! partitioner (§IV-D), so it plans a viewport itself and sends every owner
//! its share as one SubQuery: a warm viewport costs two wire hops whatever
//! its owner count, and every Cell crosses the wire once. A share that
//! fails is settled on its own, the answered ones kept: asked again under
//! the retry policy and, if its owner stays dark, recomputed from the
//! owner's DFS replicas. Basic mode takes the same route; its owners answer
//! from blocks. The [`QueryResult`] is what the WorldMap panel would
//! render; its JSON carries exact summaries as readable objects and sketch
//! bundles as their flat words, so the builder's accessors above do the
//! estimating. Clients are cheap to clone; the throughput experiments run
//! hundreds of them concurrently.

use crate::caller::{Call, Caller};
use crate::cluster::ClusterConfig;
use crate::gather::{recomputed, Gatherer};
use crate::protocol::{ClusterError, Msg, SUB_RESULT};
use stash_dfs::Partitioner;
use stash_model::{AggQuery, CellKey, QueryResult, MAX_CELLS_PER_QUERY};
use stash_obs::{Counter, Histogram, QueryTrace, StageTimes};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// A share got no answer in time, and no replica answered for it.
    Timeout,
    /// The cluster refused the query's messages (nodes down, or shutdown).
    Disconnected,
    /// The cluster answered with an error.
    Remote(ClusterError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Timeout => write!(f, "query timed out"),
            ClientError::Disconnected => write!(f, "cluster disconnected"),
            ClientError::Remote(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// A front-end call that got no answer: a refused send is a
    /// disconnected cluster, a wait past its deadline a timeout.
    pub(crate) fn unanswered(e: ClusterError) -> Self {
        match e {
            ClusterError::Unreachable { .. } => ClientError::Disconnected,
            ClusterError::Timeout { .. } => ClientError::Timeout,
            e => ClientError::Remote(e),
        }
    }
}

/// The gateway's per-query metrics (DESIGN.md §11), resolved once so a
/// query records without a name lookup.
struct QueryMetrics {
    ok: Arc<Counter>,
    err: Arc<Counter>,
    wall: Arc<Histogram>,
    /// The `query.stage.*` histograms in [`StageTimes::stages`] order.
    stages: [Arc<Histogram>; 7],
}

/// A handle for issuing front-end queries against a [`crate::SimCluster`].
#[derive(Clone)]
pub struct ClusterClient {
    gateway: Arc<Caller>,
    partitioner: Partitioner,
    config: Arc<ClusterConfig>,
    metrics: Arc<QueryMetrics>,
}

impl ClusterClient {
    pub(crate) fn new(
        gateway: Arc<Caller>,
        partitioner: Partitioner,
        config: Arc<ClusterConfig>,
    ) -> Self {
        let obs = &gateway.obs;
        let metrics = QueryMetrics {
            ok: obs.counter("query.ok"),
            err: obs.counter("query.err"),
            wall: obs.histogram("query.wall"),
            stages: StageTimes::default()
                .stages()
                .map(|(stage, _)| obs.histogram(&format!("query.stage.{stage}"))),
        };
        ClusterClient {
            metrics: Arc::new(metrics),
            gateway,
            partitioner,
            config,
        }
    }

    /// Start one aggregation query. Returns a [`QueryCall`] builder:
    /// modify with [`QueryCall::traced`] (get the per-stage trace back),
    /// then [`QueryCall::run`] to block until the summary arrives.
    ///
    /// The client plans the query's target Cells and sends every owner its
    /// share, which the owner answers straight back. A share that fails
    /// transiently is asked again under the retry policy and, if its owner
    /// stays dark, recomputed from the owner's DFS replicas; the shares
    /// already answered are kept. An error no retry can mend (a bad query,
    /// a storage or protocol fault) ends the query.
    pub fn query<'a>(&'a self, query: &'a AggQuery) -> QueryCall<'a> {
        QueryCall {
            client: self,
            query,
        }
    }

    /// One query end to end, counted in the gateway's registry: `query.ok`
    /// or `query.err`, and for a scattered one its wall, stage times,
    /// retries and failovers.
    fn run(&self, query: &AggQuery) -> Result<(QueryResult, QueryTrace), ClientError> {
        let planned = Instant::now();
        let keys = query.target_keys(MAX_CELLS_PER_QUERY).map_err(|e| {
            self.metrics.err.inc();
            ClientError::Remote(ClusterError::BadQuery(e.to_string()))
        })?;
        if keys.is_empty() {
            self.metrics.ok.inc();
            return Ok(Default::default());
        }
        let (result, trace) = self.scatter(&keys, planned);
        self.observe(&trace, result.is_ok());
        result
            .map(|result| (result, trace))
            .map_err(ClientError::unanswered)
    }

    /// Record one scattered query into the gateway's registry.
    fn observe(&self, trace: &QueryTrace, ok: bool) {
        let m = &self.metrics;
        if ok { &m.ok } else { &m.err }.inc();
        m.wall.record(trace.wall_ns);
        for (hist, (_, ns)) in m.stages.iter().zip(trace.agg.stages()) {
            if ns > 0 {
                hist.record(ns);
            }
        }
        let obs = &self.gateway.obs;
        if trace.retries > 0 {
            obs.counter("query.retries").add(u64::from(trace.retries));
        }
        if trace.failovers > 0 {
            obs.counter("query.failovers")
                .add(u64::from(trace.failovers));
        }
    }

    /// `keys` answered by their owners, planned from `planned` on, and the
    /// front end's trace: `local` holds this thread's route, wait, retry
    /// and merge segments, `agg` adds every share's stage times to them,
    /// `subqueries` counts the first-wave shares sent.
    fn scatter(
        &self,
        keys: &[CellKey],
        planned: Instant,
    ) -> (Result<QueryResult, ClusterError>, QueryTrace) {
        let mut trace = QueryTrace::default();
        let result = self.gather_shares(keys, planned, &mut trace);
        trace.wall_ns = planned.elapsed().as_nanos() as u64;
        let local = trace.local;
        trace.agg.add(&local);
        (result, trace)
    }

    /// Every owner gets its share as one reroutable SubQuery, all of them
    /// in flight before the client waits for any. The shares that fail
    /// transiently are settled one by one once every first-wave answer is
    /// in; the answers merge into one result.
    fn gather_shares(
        &self,
        keys: &[CellKey],
        planned: Instant,
        trace: &mut QueryTrace,
    ) -> Result<QueryResult, ClusterError> {
        let shares: Vec<_> = by_owner(&self.partitioner, keys.iter().copied())
            .into_iter()
            .map(|(owner, share)| {
                let share: Arc<[CellKey]> = share.into();
                let call = self.send_share(owner, &share, true);
                (owner, share, call)
            })
            .collect();
        trace.subqueries = shares.iter().filter(|(_, _, call)| call.is_ok()).count() as u32;
        let sent = Instant::now();
        trace.local.route_ns = (sent - planned).as_nanos() as u64;
        let mut merged = QueryResult::default();
        let mut stragglers = Vec::new();
        for (owner, share, call) in shares {
            match call.and_then(|call| self.answer(call, &share, trace)) {
                Ok(part) => absorb(&mut merged, part),
                Err(e) if e.is_transient() => stragglers.push((owner, share)),
                Err(e) => return Err(e),
            }
        }
        let waited = Instant::now();
        trace.local.wait_ns = (waited - sent).as_nanos() as u64;
        for (owner, share) in stragglers {
            absorb(&mut merged, self.settle(owner, &share, trace)?);
        }
        let settled = Instant::now();
        trace.local.retry_ns = (settled - waited).as_nanos() as u64;
        merged.cells.sort_by_key(|c| c.key);
        merged.cells.dedup_by_key(|c| c.key);
        trace.local.merge_ns = settled.elapsed().as_nanos() as u64;
        Ok(merged)
    }

    /// A share whose first wave failed transiently, settled on its own: its
    /// SubQuery asked again under the retry policy (`SUB_RPC_RETRIES + 1`
    /// attempts) and, if its owner stays dark, its Cells recomputed from
    /// storage with the owner excluded, reading the owner's blocks off the
    /// DFS replica chain. A failover that itself fails transiently runs the
    /// whole ladder again, a fresh SubQuery first, `client_retries + 1`
    /// times in all.
    fn settle(
        &self,
        owner: usize,
        keys: &Arc<[CellKey]>,
        trace: &mut QueryTrace,
    ) -> Result<QueryResult, ClusterError> {
        let attempts = ClusterConfig::SUB_RPC_RETRIES + 1;
        let mut rounds = 1;
        loop {
            trace.retries += 1;
            let (retried, napped) = self.gateway.retry(owner as u64, attempts, false, || {
                self.ask(owner, keys, trace)
            });
            trace.agg.retry_ns += napped.as_nanos() as u64;
            let outcome = match retried {
                Err(e) if e.is_transient() => {
                    trace.failovers += 1;
                    let mut acc = StageTimes::default();
                    let parts = self.gatherer().gather_partials(keys, &[owner], &mut acc);
                    trace.absorb_sub(&acc);
                    parts.map(|parts| recomputed(parts, keys.len()))
                }
                done => done,
            };
            match outcome {
                Err(e) if e.is_transient() && rounds <= self.config.client_retries => rounds += 1,
                done => return done,
            }
            match self.ask(owner, keys, trace) {
                Err(e) if e.is_transient() => {}
                done => return done,
            }
        }
    }

    /// One attempt at a share: a reroutable SubQuery to its owner, and its
    /// answer.
    fn ask(
        &self,
        owner: usize,
        keys: &Arc<[CellKey]>,
        trace: &mut QueryTrace,
    ) -> Result<QueryResult, ClusterError> {
        self.answer(self.send_share(owner, keys, true)?, keys, trace)
    }

    /// The answer to the SubQuery `call` for `keys`, within the share
    /// deadline. A share a helper refused — the owner's guest route was
    /// stale — is sent once more, straight to the owner.
    fn answer(
        &self,
        call: Call<'_>,
        keys: &Arc<[CellKey]>,
        trace: &mut QueryTrace,
    ) -> Result<QueryResult, ClusterError> {
        let owner = call.node;
        let timeout = self.config.sub_rpc_timeout;
        let (result, st) = self.gateway.wait(call, timeout, SUB_RESULT)?;
        trace.absorb_sub(&st);
        let Err(ClusterError::RerouteRefused { .. }) = result else {
            return result;
        };
        trace.retries += 1;
        let call = self.send_share(owner, keys, false)?;
        let (result, st) = self.gateway.wait(call, timeout, SUB_RESULT)?;
        trace.absorb_sub(&st);
        result
    }

    /// One owner's share on the wire, sharing the planned key list.
    fn send_share(
        &self,
        owner: usize,
        keys: &Arc<[CellKey]>,
        allow_reroute: bool,
    ) -> Result<Call<'_>, ClusterError> {
        self.gateway.call(owner, |rpc, reply_to| Msg::SubQuery {
            rpc,
            reply_to,
            keys: Arc::clone(keys),
            allow_reroute,
            via_guest: false,
        })
    }

    /// The front end's view of storage for a failover: it holds no blocks,
    /// so every one is asked for.
    fn gatherer(&self) -> Gatherer<'_> {
        Gatherer {
            caller: &self.gateway,
            config: &self.config,
            partitioner: &self.partitioner,
            store: None,
        }
    }
}

/// Add one owner's share of an answer to the answer so far: its Cells, and
/// its four hit counters. The merged Cells are sorted and deduplicated once
/// every share is in.
fn absorb(merged: &mut QueryResult, part: QueryResult) {
    merged.cells.extend(part.cells);
    merged.cache_hits += part.cache_hits;
    merged.derived_hits += part.derived_hits;
    merged.misses += part.misses;
    merged.rollup_hits += part.rollup_hits;
}

/// `keys` grouped by the node that owns them, in node order.
pub(crate) fn by_owner(
    partitioner: &Partitioner,
    keys: impl IntoIterator<Item = CellKey>,
) -> BTreeMap<usize, Vec<CellKey>> {
    let mut groups: BTreeMap<usize, Vec<CellKey>> = BTreeMap::new();
    for key in keys {
        groups
            .entry(partitioner.owner_of_cell(&key))
            .or_default()
            .push(key);
    }
    groups
}

/// One prepared query (see [`ClusterClient::query`]). Nothing is sent until
/// [`QueryCall::run`].
#[must_use = "a QueryCall does nothing until .run()"]
pub struct QueryCall<'a> {
    client: &'a ClusterClient,
    query: &'a AggQuery,
}

impl<'a> QueryCall<'a> {
    /// Also return the front end's [`QueryTrace`] — the per-stage
    /// breakdown of where the answer's latency went.
    pub fn traced(self) -> TracedQueryCall<'a> {
        TracedQueryCall { call: self }
    }

    /// Send the query; block until the summary arrives (or fails).
    pub fn run(self) -> Result<QueryResult, ClientError> {
        self.client.run(self.query).map(|(result, _)| result)
    }

    /// Run the query and fold the per-Cell quantile sketches into one
    /// estimate: `client.query(&q).quantile(0, 0.99)` is the approximate
    /// p99 of attribute 0 over the queried region. `Ok(None)` when the
    /// cluster does not carry sketch-valued Cells (the config's `sketch`
    /// spec is disabled) or the result is empty.
    pub fn quantile(
        self,
        attr: usize,
        q: f64,
    ) -> Result<Option<stash_model::QuantileEstimate>, ClientError> {
        Ok(self.run()?.quantile(attr, q))
    }

    /// Run the query and return the estimated distinct-value count of
    /// attribute `attr` over the queried region (see
    /// [`QueryResult::distinct`]).
    pub fn distinct(
        self,
        attr: usize,
    ) -> Result<Option<stash_model::DistinctEstimate>, ClientError> {
        Ok(self.run()?.distinct(attr))
    }

    /// Run the query and return the `k` most frequent values of attribute
    /// `attr` over the queried region (see [`QueryResult::top_k`]).
    pub fn top_k(
        self,
        attr: usize,
        k: usize,
    ) -> Result<Option<Vec<stash_model::TopKEntry>>, ClientError> {
        Ok(self.run()?.top_k(attr, k))
    }

    /// [`top_k`](Self::top_k) with the truncation flag: when the returned
    /// [`TopKResult::truncated`](stash_model::TopKResult::truncated) is
    /// true, candidate eviction fired while folding and the list may omit
    /// true top-`k` values; when false, a list shorter than `k` is ground
    /// truth. Front-ends that render completeness should use this.
    pub fn top_k_report(
        self,
        attr: usize,
        k: usize,
    ) -> Result<Option<stash_model::TopKResult>, ClientError> {
        Ok(self.run()?.top_k_report(attr, k))
    }
}

/// A [`QueryCall`] that returns the trace alongside the result.
#[must_use = "a TracedQueryCall does nothing until .run()"]
pub struct TracedQueryCall<'a> {
    call: QueryCall<'a>,
}

impl TracedQueryCall<'_> {
    /// Send the query; block until result and trace arrive (or fail).
    pub fn run(self) -> Result<(QueryResult, QueryTrace), ClientError> {
        self.call.client.run(self.call.query)
    }
}
