//! The client API — the stand-in for the Grafana front-end (§VI-A).
//!
//! Every user interaction (pan, zoom, dice, …) becomes one
//! [`ClusterClient::query`] call, a small builder:
//!
//! ```text
//! client.query(&q).run()                  // scattered to its owners
//! client.query(&q).at(3).run()            // pinned coordinator, one attempt
//! client.query(&q).traced().run()         // result + per-stage QueryTrace
//! client.query(&q).at(3).traced().run()   // both
//! client.query(&q).quantile(0, 0.99)      // sketch accessor: approximate p99
//! client.query(&q).distinct(0)            // estimated distinct values
//! client.query(&q).top_k(0, 8)            // heavy hitters with bounds
//! ```
//!
//! The front end knows the zero-hop partitioner (§IV-D), so it plans a
//! viewport itself and sends every owner its share as one SubQuery: a warm
//! viewport costs two wire hops whatever its owner count, and every Cell
//! crosses the wire once. Only when a share fails does the query go to a
//! coordinator node — the viewport's home, where most of its Cells live —
//! whose straggler retry and replica failover carry it. The
//! JSON-serializable [`QueryResult`] is what the WorldMap panel would
//! render. Clients are cheap to clone; the throughput experiments run
//! hundreds of them concurrently.

use crate::caller::{Call, Caller};
use crate::cluster::Mode;
use crate::node::{absorb, by_owner};
use crate::protocol::{ClusterError, Msg, QUERY_REPLY, SUB_RESULT};
use stash_dfs::Partitioner;
use stash_geo::cover_bbox_bounded;
use stash_model::{AggQuery, CellKey, QueryResult};
use stash_net::NodeId;
use stash_obs::QueryTrace;
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No response within the client timeout.
    Timeout,
    /// The cluster is shutting down.
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

/// A handle for issuing front-end queries against a [`crate::SimCluster`].
#[derive(Clone)]
pub struct ClusterClient {
    gateway: Arc<Caller>,
    partitioner: Partitioner,
    mode: Mode,
    /// The planner's cell budget: a viewport whose cover exceeds it is
    /// refused, by the front end as by a coordinator.
    max_cells: usize,
    next_coordinator: Arc<AtomicUsize>,
    /// Deadline of a coordinated attempt.
    timeout: Duration,
    /// Deadline of one owner's share of a scatter (`sub_rpc_timeout`).
    share_timeout: Duration,
    retries: u32,
}

impl ClusterClient {
    pub(crate) fn new(
        gateway: Arc<Caller>,
        partitioner: Partitioner,
        mode: Mode,
        max_cells: usize,
        timeout: Duration,
        share_timeout: Duration,
        retries: u32,
    ) -> Self {
        ClusterClient {
            gateway,
            partitioner,
            mode,
            max_cells,
            next_coordinator: Arc::new(AtomicUsize::new(0)),
            timeout,
            share_timeout,
            retries,
        }
    }

    /// Start one aggregation query. Returns a [`QueryCall`] builder:
    /// modify with [`QueryCall::at`] (pin the coordinator) and/or
    /// [`QueryCall::traced`] (get the per-stage trace back), then
    /// [`QueryCall::run`] to block until the summary arrives.
    ///
    /// Without `.at(..)`, a STASH cluster's query is first *scattered*: the
    /// client plans its target Cells and sends every owner its share, which
    /// the owner answers straight back. When a share fails transiently, and
    /// always in Basic mode, the query is coordinated instead: first at its
    /// *home* — the node owning the most Cells of its spatial cover, ties
    /// to the lowest index — and, for every retry of a transient failure
    /// (timeout, crash mid-coordination) or while the home is down,
    /// round-robin like a front-end load balancer that skips nodes known to
    /// be down; `client_retries + 1` attempts in all, the scatter included.
    /// With `.at(..)`, exactly one attempt goes to that coordinator —
    /// experiments that need deterministic placement get deterministic
    /// failures too.
    pub fn query<'a>(&'a self, query: &'a AggQuery) -> QueryCall<'a> {
        QueryCall {
            client: self,
            query,
            coordinator: None,
        }
    }

    /// Number of storage nodes queries can coordinate on.
    pub fn n_nodes(&self) -> usize {
        self.partitioner.n_nodes()
    }

    /// The target Cells of `query` under the cluster's cell budget.
    pub(crate) fn plan(&self, query: &AggQuery) -> Result<Vec<CellKey>, ClientError> {
        query
            .target_keys(self.max_cells)
            .map_err(|e| ClientError::Remote(ClusterError::BadQuery(e.to_string())))
    }

    /// `keys` of `query` answered by one scatter or, when a share of it
    /// fails transiently, by coordinating the whole of `query` with the
    /// attempts left. The front end's registry counts each scatter that
    /// answers as `query.scatter.ok` and each that hands over as
    /// `query.scatter.fallback`.
    pub(crate) fn scatter_or_coordinate(
        &self,
        query: &AggQuery,
        keys: &[CellKey],
        planned: Instant,
    ) -> Result<(QueryResult, QueryTrace), ClientError> {
        match self.scatter(keys, planned) {
            Ok(answer) => {
                self.gateway.obs.inc("query.scatter.ok");
                Ok(answer)
            }
            Err(e) if !e.is_transient() => Err(ClientError::Remote(e)),
            Err(e) => {
                self.gateway.obs.inc("query.scatter.fallback");
                self.coordinate(query, self.retries, ClientError::unanswered(e))
            }
        }
    }

    /// One scatter of `keys`, planned from `planned` on: every owner gets
    /// its share as one reroutable SubQuery, all of them in flight before
    /// the client waits for any, each answered within the share deadline.
    /// A share a helper refuses (its owner's guest route was stale) is sent
    /// once more, straight to the owner. The answers merge as a
    /// coordinator's do. The trace is the front end's: `local` holds this
    /// thread's route, wait and merge segments, `agg` adds every share's
    /// stage times to them, `subqueries` counts the shares sent.
    ///
    /// The first share that fails ends the scatter with its error.
    fn scatter(
        &self,
        keys: &[CellKey],
        planned: Instant,
    ) -> Result<(QueryResult, QueryTrace), ClusterError> {
        let mut trace = QueryTrace::default();
        let mut calls = Vec::new();
        for (owner, share) in by_owner(&self.partitioner, keys.iter().copied()) {
            calls.push(self.send_share(owner, share, true)?);
        }
        trace.subqueries = calls.len() as u32;
        let sent = Instant::now();
        trace.local.route_ns = (sent - planned).as_nanos() as u64;
        let mut merged = QueryResult::default();
        for call in calls {
            let owner = call.node;
            let (mut result, st) = self.gateway.wait(call, self.share_timeout, SUB_RESULT)?;
            trace.absorb_sub(&st);
            if let Err(ClusterError::RerouteRefused { .. }) = result {
                trace.retries += 1;
                let share = keys
                    .iter()
                    .copied()
                    .filter(|k| self.partitioner.owner_of_cell(k) == owner)
                    .collect();
                let call = self.send_share(owner, share, false)?;
                let (again, st) = self.gateway.wait(call, self.share_timeout, SUB_RESULT)?;
                trace.absorb_sub(&st);
                result = again;
            }
            absorb(&mut merged, result?);
        }
        let waited = Instant::now();
        trace.local.wait_ns = (waited - sent).as_nanos() as u64;
        merged.cells.sort_by_key(|c| c.key);
        merged.cells.dedup_by_key(|c| c.key);
        let done = Instant::now();
        trace.local.merge_ns = (done - waited).as_nanos() as u64;
        trace.wall_ns = (done - planned).as_nanos() as u64;
        let local = trace.local;
        trace.agg.add(&local);
        Ok((merged, trace))
    }

    /// One owner's share on the wire.
    fn send_share(
        &self,
        owner: usize,
        keys: Vec<CellKey>,
        allow_reroute: bool,
    ) -> Result<Call, ClusterError> {
        self.gateway.call(owner, |rpc, reply_to| Msg::SubQuery {
            rpc,
            reply_to,
            keys,
            allow_reroute,
            via_guest: false,
        })
    }

    /// The node owning the most Cells of `query`'s spatial cover, ties to
    /// the lowest index; `None` when the cover is empty or cannot be
    /// planned.
    fn home(&self, query: &AggQuery) -> Option<usize> {
        let cover = cover_bbox_bounded(&query.bbox, query.spatial_res, self.max_cells).ok()?;
        let mut owned = vec![0usize; self.n_nodes()];
        for gh in cover {
            owned[self.partitioner.owner(gh)] += 1;
        }
        let (home, &most) = owned
            .iter()
            .enumerate()
            .max_by_key(|&(node, &n)| (n, Reverse(node)))?;
        (most > 0).then_some(home)
    }

    /// Dispatch with retries (no pinned coordinator): a STASH query is
    /// scattered first; the rest of its attempts, and all of a Basic one's,
    /// are coordinated.
    fn dispatch_rotating(
        &self,
        query: &AggQuery,
    ) -> Result<(QueryResult, QueryTrace), ClientError> {
        if self.mode == Mode::Basic {
            return self.coordinate(query, self.retries + 1, ClientError::Disconnected);
        }
        let planned = Instant::now();
        let keys = self.plan(query)?;
        if keys.is_empty() {
            return Ok(Default::default());
        }
        self.scatter_or_coordinate(query, &keys, planned)
    }

    /// Up to `attempts` coordinated attempts: the home first, then
    /// round-robin. `last` is the error returned if no attempt is left.
    fn coordinate(
        &self,
        query: &AggQuery,
        attempts: u32,
        mut last: ClientError,
    ) -> Result<(QueryResult, QueryTrace), ClientError> {
        let is_up = |node: usize| !self.gateway.router.is_crashed(NodeId(node));
        let mut home = self.home(query).filter(|&node| is_up(node));
        let n_nodes = self.n_nodes();
        for _ in 0..attempts {
            // The home, else the next coordinator the fabric still talks to.
            let coord = home.take().or_else(|| {
                (0..n_nodes)
                    .map(|_| self.next_coordinator.fetch_add(1, Ordering::Relaxed) % n_nodes)
                    .find(|&c| is_up(c))
            });
            let Some(coord) = coord else {
                return Err(ClientError::Disconnected); // every node is down
            };
            match self.dispatch_at(query, coord) {
                Ok(traced) => return Ok(traced),
                Err(ClientError::Remote(e)) if !e.is_transient() => {
                    return Err(ClientError::Remote(e)); // deterministic: retry is futile
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// One attempt through a fixed coordinator.
    fn dispatch_at(
        &self,
        query: &AggQuery,
        coordinator: usize,
    ) -> Result<(QueryResult, QueryTrace), ClientError> {
        assert!(
            coordinator < self.n_nodes(),
            "coordinator index out of range"
        );
        let reply = self
            .gateway
            .ask(coordinator, self.timeout, QUERY_REPLY, |rpc, reply_to| {
                Msg::Query {
                    rpc,
                    reply_to,
                    query: query.clone(),
                }
            });
        match reply {
            Ok((result, trace)) => result
                .map(|result| (result, trace))
                .map_err(ClientError::Remote),
            Err(e) => Err(ClientError::unanswered(e)),
        }
    }
}

/// One prepared query (see [`ClusterClient::query`]). Nothing is sent until
/// [`QueryCall::run`].
#[must_use = "a QueryCall does nothing until .run()"]
pub struct QueryCall<'a> {
    client: &'a ClusterClient,
    query: &'a AggQuery,
    coordinator: Option<usize>,
}

impl<'a> QueryCall<'a> {
    /// Pin the coordinator node: exactly one attempt, no rotation, no
    /// client-level retries.
    pub fn at(mut self, coordinator: usize) -> Self {
        self.coordinator = Some(coordinator);
        self
    }

    /// Also return the coordinator's [`QueryTrace`] — the per-stage
    /// breakdown of where the answer's latency went (the trace of the
    /// attempt that succeeded).
    pub fn traced(self) -> TracedQueryCall<'a> {
        TracedQueryCall { call: self }
    }

    /// Send the query; block until the summary arrives (or fails).
    pub fn run(self) -> Result<QueryResult, ClientError> {
        self.dispatch().map(|(result, _)| result)
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

    fn dispatch(self) -> Result<(QueryResult, QueryTrace), ClientError> {
        match self.coordinator {
            Some(c) => self.client.dispatch_at(self.query, c),
            None => self.client.dispatch_rotating(self.query),
        }
    }
}

/// A [`QueryCall`] that returns the trace alongside the result.
#[must_use = "a TracedQueryCall does nothing until .run()"]
pub struct TracedQueryCall<'a> {
    call: QueryCall<'a>,
}

impl TracedQueryCall<'_> {
    /// Pin the coordinator node (see [`QueryCall::at`]).
    pub fn at(mut self, coordinator: usize) -> Self {
        self.call.coordinator = Some(coordinator);
        self
    }

    /// Send the query; block until result and trace arrive (or fail).
    pub fn run(self) -> Result<(QueryResult, QueryTrace), ClientError> {
        self.call.dispatch()
    }
}
