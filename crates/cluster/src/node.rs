//! One simulated storage node: Galileo store + STASH middleware + hotspot
//! manager.
//!
//! Threading discipline (this is what keeps the cluster deadlock-free):
//!
//! * The node's **port** ([`NodeCtx::accept`]) is handed every message at
//!   send time, on the *sender's* thread, and only places it where its
//!   consumer will wait out the wire time: a reply completes its RPC slot
//!   with its due time, everything else is parked on a worker tier's delay
//!   queue. It never blocks and never sends. Nothing drains the node's
//!   inbox: a node's threads are its two worker tiers.
//! * **Workers** (the paper's 8-core nodes, scaled down) take messages off
//!   their tier's queue as they come due. Service workers answer SubQueries
//!   (and replication and appends) and may block on FetchPartials and
//!   Invalidate rounds to other nodes; fetch workers scan blocks and never
//!   block on a peer. So the fetch tier also takes what must be answered
//!   however busy the service tier is: control (Invalidate, Distress) is
//!   answered there, and a hotspotted node's reroute decision for received
//!   work is taken there. Because fetch workers never wait on a peer, a
//!   worker blocked on an Invalidate or Distress round is always eventually
//!   answered. Nothing here plans a viewport or merges shares: the front
//!   end does ([`crate::client`]).
//! * A service worker **answers first**: it sends a share's
//!   `SubQueryResponse` as soon as the evaluation is done, then — still
//!   holding the graph's upkeep baton it took before sending — runs the
//!   share's upkeep: the replacement pass, freshness dispersal and the
//!   periodic housekeeping due on the evaluation's tick. The reply's wire
//!   time hides the upkeep; the baton keeps any evaluation that starts
//!   after the reply from overtaking it (DESIGN.md §5).
//! * **Handoff** runs on its own short-lived thread, at most one at a time,
//!   so a hotspotted node can replicate Cliques while its workers stay busy
//!   serving the very queue that triggered the hotspot.
//!
//! The pending-work counter doubles as the paper's hotspot signal: "a node
//! deems itself to be hotspotted when the number of pending requests in its
//! message queue crosses a configured threshold" (§VII-B1). It counts every
//! request queued or running here, from the port that takes it to the
//! worker that answers or sheds it; control never counts.

use crate::caller::{Call, Caller};
use crate::cluster::{ClusterConfig, Mode};
use crate::fence::IngestFence;
use crate::gather::{recomputed, Gatherer};
use crate::protocol::{ClusterError, Msg, Reply, ACK};
use parking_lot::Mutex;
use stash_core::{
    evaluate_traced, CliqueFinder, GuestBook, LogicalClock, RouteDecision, RoutingTable,
    StashConfig, StashGraph,
};
use stash_dfs::{frame_spatial_res, AppendOutcome, BlockFrame, BlockKey, NodeStore, RollupStore};
use stash_geo::TemporalRes;
use stash_model::key::ancestors_at;
use stash_model::level::MAX_SPATIAL_RES;
use stash_model::{Cell, CellKey, FlatPartials, Level, Observation, QueryResult};
use stash_net::{DelayQueue, Envelope, Handover, NodeId, Parked, Router};
use stash_obs::{sleep_until, MetricsRegistry, StageTimes};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared state of one node, used by its port, workers, and handoff
/// thread.
pub struct NodeCtx {
    pub node_idx: usize,
    pub config: Arc<ClusterConfig>,
    pub store: NodeStore,
    /// Shared continuous-rollup state (DESIGN.md §17), when the cluster's
    /// [`crate::config::RollupPolicy`] is enabled. Cluster-wide durable
    /// state like the block source — not per-node cache.
    pub rollup: Option<Arc<RollupStore>>,
    /// The node's local STASH graph.
    pub graph: StashGraph,
    /// The guest graph holding replicas from hotspotted peers (§VII-A).
    pub guest: StashGraph,
    pub guestbook: Mutex<GuestBook>,
    pub routing: Mutex<RoutingTable>,
    pub clock: Arc<LogicalClock>,
    /// How this node asks its peers and answers them; its reply slots are
    /// completed by the port with the reply message as it came and its due
    /// time.
    pub(crate) caller: Caller,
    /// Named counters/gauges/histograms for this node (DESIGN.md §11).
    pub obs: Arc<MetricsRegistry>,
    /// The hotspot signal: requests taken by the port and not yet answered
    /// or shed, both tiers — SubQueries, fetches, replication, appends.
    pending: AtomicUsize,
    /// Level of the most recent share served here — where a hotspot's
    /// Cliques live.
    hot_level: AtomicU8,
    handoff_inflight: AtomicBool,
    cooldown_until: AtomicU64,
    /// Ingest fence (DESIGN.md §13): the epoch every apply and every
    /// processed [`Msg::Invalidate`] moves, and the log of which keys each
    /// of them touched. Evaluations and Clique snapshots read it around
    /// their work and re-stale what an overlapping event can have changed.
    pub(crate) fence: IngestFence,
    /// Serializes this node's append applies; the fence's parity rule
    /// needs non-overlapping apply windows.
    ingest_apply: Mutex<()>,
    /// Upkeep batons of `graph` and `guest` (DESIGN.md §5): a share holds
    /// its graph's from before its reply until its upkeep is done, and
    /// every evaluation passes through it before advancing the clock — so
    /// an evaluation that starts after a reply was sent never overtakes
    /// that reply's upkeep, and replacement passes never overlap.
    batons: [Mutex<()>; 2],
    /// Deterministic per-node RNG stream for reroute coin flips.
    rng_state: AtomicU64,
    /// One-shot callback the race tests park at a named point of an
    /// evaluation or a handoff, so the interleaving under test is fixed.
    #[cfg(test)]
    hook: Mutex<Option<(tests::Site, tests::Hook)>>,
    /// Tiered work queues. Subquery service may block on block fetches,
    /// which never block — the cross-node wait graph is acyclic by
    /// construction, so the cluster cannot deadlock however saturated it
    /// gets.
    tiers: WorkTiers,
}

/// The two per-node worker tiers (see module docs): each a delay queue of
/// the node's, pushed to by its port and consumed by the tier's workers.
pub struct WorkTiers {
    pub service: DelayQueue<Msg>,
    pub fetch: DelayQueue<Msg>,
}

impl NodeCtx {
    pub fn new(
        node_idx: usize,
        config: Arc<ClusterConfig>,
        router: Router<Msg>,
        store: NodeStore,
        rollup: Option<Arc<RollupStore>>,
        clock: Arc<LogicalClock>,
        tiers: WorkTiers,
    ) -> Self {
        let mut guest_cfg = config.stash.clone();
        guest_cfg.max_cells = StashConfig::GUEST_MAX_CELLS;
        // Share one registry between the node and its store so the `dfs.*`
        // scan-kernel counters land next to the node's other metrics, and
        // size the decoded-frame cache from config.
        let obs = Arc::new(MetricsRegistry::new());
        let store = store
            .with_metrics(Arc::clone(&obs))
            .with_frame_cache_bytes(config.stash.frame_cache_bytes)
            .with_sketches(config.stash.sketch.clone());
        NodeCtx {
            node_idx,
            caller: Caller::new(
                NodeId(node_idx),
                router,
                Arc::clone(&obs),
                config.retry_backoff,
            ),
            graph: StashGraph::new(config.stash.clone(), Arc::clone(&clock)),
            guest: StashGraph::new(guest_cfg, Arc::clone(&clock)),
            guestbook: Mutex::new(GuestBook::new()),
            routing: Mutex::new(RoutingTable::new()),
            clock,
            obs,
            pending: AtomicUsize::new(0),
            hot_level: AtomicU8::new(
                Level::of(4, stash_geo::TemporalRes::Day)
                    .expect("static level")
                    .index(),
            ),
            handoff_inflight: AtomicBool::new(false),
            cooldown_until: AtomicU64::new(0),
            fence: IngestFence::default(),
            ingest_apply: Mutex::new(()),
            batons: [Mutex::new(()), Mutex::new(())],
            rng_state: AtomicU64::new((0x9E37_79B9u64 ^ ((node_idx as u64) << 17)) | 1),
            #[cfg(test)]
            hook: Mutex::new(None),
            config,
            store,
            rollup,
            tiers,
        }
    }

    /// The paper's hotspot predicate: "the number of pending requests in
    /// its message queue crosses a configured threshold" (§VII-B1), counted
    /// over the work queued or running here.
    pub fn is_hotspotted(&self) -> bool {
        self.pending.load(Ordering::Relaxed) > self.config.stash.hotspot_threshold
    }

    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Cheap xorshift coin flip for probabilistic rerouting.
    fn flip(&self, probability: f64) -> bool {
        let mut x = self.rng_state.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state.store(x, Ordering::Relaxed);
        ((x >> 11) as f64 / (1u64 << 53) as f64) < probability
    }

    // =======================================================================
    // Port (the sender's thread) and workers
    // =======================================================================

    /// This node's port (see [`stash_net::Port`]): place one message, at
    /// send time, where its consumer will wait for its due time. A reply
    /// completes its slot. Work is counted here — the one place the hotspot
    /// signal rises — and parked on the tier that serves it, unless it finds
    /// the node over its threshold or makes it so: then it goes to the fetch
    /// tier, like control that answers by sending (Invalidate, Distress),
    /// because shedding it (a reroute) and relieving the node (a Clique
    /// Handoff) both send, which a port may not, and fetch workers never
    /// wait on a peer.
    pub fn accept(&self, parked: Parked<Msg>) -> Handover {
        let payload = &parked.env.payload;
        if let Some(rpc) = payload.reply_id() {
            self.caller.complete(rpc, parked);
            return Handover::Taken;
        }
        let control = matches!(payload, Msg::Invalidate { .. } | Msg::Distress { .. });
        // Counted with this message queued.
        let hot = !control
            && self.pending.fetch_add(1, Ordering::Relaxed) + 1
                > self.config.stash.hotspot_threshold;
        let queue = if control || hot || matches!(payload, Msg::FetchPartials { .. }) {
            &self.tiers.fetch
        } else {
            &self.tiers.service
        };
        // Queues only close at crash or shutdown; the message is dropped
        // (and counted) then.
        queue.push(parked);
        Handover::Queued
    }

    /// Worker loop of the fetch tier (`fetch_tier`) or the service tier:
    /// take messages off the tier's queue as they come due, until the queue
    /// closes (crash or shutdown). Work stops counting toward the hotspot
    /// here, once it has left the node — answered or shed.
    pub fn run_worker(self: &Arc<Self>, fetch_tier: bool) {
        let work = if fetch_tier {
            &self.tiers.fetch
        } else {
            &self.tiers.service
        };
        while let Ok(env) = work.recv() {
            self.caller.record_late(env.late);
            if self.process(env, fetch_tier) {
                self.pending.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Serve one message a worker of the fetch tier (`fetch_tier`) or the
    /// service tier took. Returns whether it was work that has now left the
    /// node.
    fn process(self: &Arc<Self>, env: Envelope<Msg>, fetch_tier: bool) -> bool {
        // Request-leg wire time of the envelope that carried this work in;
        // it rides out on the reply's trace so the asker's aggregate sees
        // both legs.
        let wire_ns = env.wire.as_nanos() as u64;
        match env.payload {
            // Ingest invalidation: answered on the tier that never waits on
            // a peer, so an applier's ack-wait doubles as a processing
            // barrier — once every peer acked, no cache anywhere still
            // serves the pre-append summary as fresh (DESIGN.md §13). Fence
            // first: an evaluation that caches a cell between our
            // stale-marks and its own final fence check must still see the
            // bump.
            Msg::Invalidate {
                rpc,
                reply_to,
                keys,
            } => {
                self.fence.invalidate(Arc::clone(&keys));
                let marked =
                    self.graph.mark_stale_covering(&keys) + self.guest.mark_stale_covering(&keys);
                self.obs.inc("ingest.invalidate.recv");
                self.obs
                    .counter("ingest.cells_invalidated")
                    .add(marked as u64);
                let _ = self.caller.send(reply_to, Msg::InvalidateAck { rpc });
                return false;
            }
            // Control plane (§VII-B3): a hotspotted or full helper declines.
            Msg::Distress {
                rpc,
                reply_to,
                n_cells,
            } => {
                let accept = !self.is_hotspotted()
                    && self
                        .guestbook
                        .lock()
                        .can_accommodate(n_cells, StashConfig::GUEST_MAX_CELLS);
                self.obs.inc(if accept {
                    "handoff.distress.accept"
                } else {
                    "handoff.distress.decline"
                });
                let _ = self.caller.send(reply_to, Msg::DistressAck { rpc, accept });
                return false;
            }
            payload @ (Msg::SubQuery { .. }
            | Msg::AppendBatch { .. }
            | Msg::ReplicationRequest { .. })
                if fetch_tier =>
            {
                return self.relieve(Envelope { payload, ..env });
            }
            Msg::SubQuery {
                rpc,
                reply_to,
                keys,
                via_guest,
                ..
            } => {
                self.obs.inc("subquery.recv");
                self.note_hot_level(&keys);
                let (result, mut trace, tick) = self.eval_subquery_traced(&keys, via_guest);
                trace.wire_ns += wire_ns;
                self.reply_then_upkeep(&keys, via_guest, tick, || {
                    let _ = self
                        .caller
                        .send(reply_to, Msg::SubQueryResponse { rpc, result, trace });
                });
            }
            Msg::FetchPartials {
                rpc,
                reply_to,
                keys,
                exclude,
            } => {
                // A backlog of fetches alone is a hotspot too (§VII-B1).
                self.maybe_start_handoff();
                let scan = Instant::now();
                // Ship the fragment as one contiguous flat buffer; its
                // length is the exact wire size the fabric charges.
                let partials = self
                    .store
                    .fetch_partials_excluding(&keys, &exclude)
                    .map(|parts| FlatPartials::encode(&parts))
                    .map_err(|e| ClusterError::Storage(e.to_string()));
                let trace = StageTimes {
                    dfs_ns: scan.elapsed().as_nanos() as u64,
                    wire_ns,
                    ..StageTimes::default()
                };
                self.obs.observe("store.scan", trace.dfs_ns);
                let _ = self.caller.send(
                    reply_to,
                    Msg::PartialsResponse {
                        rpc,
                        partials,
                        trace,
                    },
                );
            }
            Msg::ReplicationRequest {
                rpc,
                reply_to,
                src_node,
                cells,
            } => {
                let ok = self.accept_replicas(src_node, cells);
                let _ = self
                    .caller
                    .send(reply_to, Msg::ReplicationResponse { rpc, ok });
            }
            Msg::AppendBatch {
                rpc,
                reply_to,
                block,
                seq,
                rows,
                last,
            } => {
                self.apply_append(rpc, reply_to, block, seq, rows, last);
            }
            // Replies never reach workers (the port completes their slots).
            other => unreachable!("worker received a reply {other:?}"),
        }
        true
    }

    /// Service work that found the node over its hotspot threshold, at its
    /// due time on the fetch tier. The reroute decision happens *before*
    /// queueing (§VII-C): a hotspotted node sheds a covered SubQuery to its
    /// helper, which answers the sender directly. Anything else goes on to
    /// the service tier — its wire stamps kept, its lateness already
    /// recorded — and its arrival is where the node starts relieving
    /// itself. Returns whether the work left.
    fn relieve(self: &Arc<Self>, env: Envelope<Msg>) -> bool {
        if let Msg::SubQuery {
            rpc,
            reply_to,
            keys,
            allow_reroute: true,
            via_guest: false,
        } = &env.payload
        {
            if self.shed(*rpc, *reply_to, keys) {
                return true;
            }
        }
        self.tiers
            .service
            .push(Parked::local(Envelope { late: None, ..env }));
        self.maybe_start_handoff();
        false
    }

    /// Remember the level of the latest share served here: where a
    /// hotspot's Cliques live.
    fn note_hot_level(&self, keys: &[CellKey]) {
        if let Some(k) = keys.first() {
            self.hot_level.store(k.level().index(), Ordering::Relaxed);
        }
    }

    /// The reroute decision of §VII-C for a SubQuery this node received:
    /// while the node is hotspotted and one helper hosts every key, forward
    /// the share to it with the configured probability, as a `via_guest`
    /// SubQuery the helper answers straight to the sender. Returns whether
    /// the share left. A forward the fabric refuses means the helper
    /// crashed since its route was recorded: its routes are dropped and the
    /// share stays here.
    fn shed(&self, rpc: u64, reply_to: NodeId, keys: &Arc<[CellKey]>) -> bool {
        if !self.is_hotspotted() {
            return false;
        }
        let decision = self.routing.lock().decide(keys);
        let RouteDecision::Covered { helper } = decision else {
            return false;
        };
        if !self.flip(self.config.stash.reroute_probability) {
            return false;
        }
        let forwarded = Msg::SubQuery {
            rpc,
            reply_to,
            keys: Arc::clone(keys),
            allow_reroute: false,
            via_guest: true,
        };
        let sent = self.caller.send(NodeId(helper), forwarded);
        if sent {
            self.obs.inc("handoff.reroute");
        } else {
            self.routing.lock().drop_helper(helper);
        }
        sent
    }

    /// Wait for a reply to one of this node's sub-RPCs.
    fn wait<T>(&self, call: Call<'_>, reply: Reply<T>) -> Result<T, ClusterError> {
        self.caller.wait(call, self.config.sub_rpc_timeout, reply)
    }

    /// This node's view of storage for a gather: its own blocks are scanned
    /// on the gathering thread.
    pub(crate) fn gatherer(&self) -> Gatherer<'_> {
        Gatherer {
            caller: &self.caller,
            config: &self.config,
            partitioner: self.store.partitioner(),
            store: Some(&self.store),
        }
    }

    // -- Owner role ------------------------------------------------------------

    /// Evaluate owned keys against the local (or guest) STASH graph; misses
    /// fall through to block scans, possibly on peer partitions. The share's
    /// upkeep runs before this returns. `pub(crate)` so
    /// [`crate::cluster::SimCluster`] can pre-warm graphs for the zoom
    /// experiments without timing a client round-trip.
    pub(crate) fn eval_subquery(
        self: &Arc<Self>,
        keys: &[CellKey],
        via_guest: bool,
    ) -> Result<QueryResult, ClusterError> {
        let (result, _, tick) = self.eval_subquery_traced(keys, via_guest);
        self.reply_then_upkeep(keys, via_guest, tick, || ());
        result
    }

    /// [`NodeCtx::eval_subquery`] with per-stage timings and without its
    /// upkeep: the tick returned, when the share was evaluated on a graph,
    /// is what [`NodeCtx::reply_then_upkeep`] owes it. The evaluator's DFS
    /// span covers the whole fetch wall, including wire time and retry
    /// sleeps of any cross-node gathers; those shares are reclassified out
    /// of `dfs_ns` here so the stages stay disjoint.
    ///
    /// In [`Mode::Basic`] — the bare storage system — the share is gathered
    /// from blocks outright: no graph, no rollup, no serve cost.
    pub(crate) fn eval_subquery_traced(
        self: &Arc<Self>,
        keys: &[CellKey],
        via_guest: bool,
    ) -> (Result<QueryResult, ClusterError>, StageTimes, Option<u64>) {
        let mut st = StageTimes::default();
        if self.config.mode == Mode::Basic {
            let scan = Instant::now();
            let mut acc = StageTimes::default();
            let result = self
                .gatherer()
                .gather_partials(keys, &[], &mut acc)
                .map(|parts| recomputed(parts, keys.len()));
            st.dfs_ns = scan.elapsed().as_nanos() as u64;
            reclassify_gather(&mut st, &acc);
            return (result, st, None);
        }
        let (graph, baton) = self.graph_of(via_guest);
        if via_guest {
            // A rerouted subquery whose Cells were purged (or never hosted)
            // is refused — the sender resends to the owner directly.
            // Serving it here would silently grow the guest graph with
            // Cells nobody handed off.
            if !self.guestbook.lock().hosts_any(keys) {
                self.obs.inc("handoff.guest.refuse");
                return (
                    Err(ClusterError::RerouteRefused {
                        helper: self.node_idx,
                    }),
                    st,
                    None,
                );
            }
            self.obs.inc("handoff.guest.serve");
            self.guestbook.lock().touch(keys, self.clock.now());
        } else if let Some(rollup) = &self.rollup {
            // Rollup fast path (DESIGN.md §17): when every requested key is
            // at a rollup level with its bin fully under the watermark, the
            // materialized rollup Cells ARE the answer — always fresh
            // (every applied append folded its delta in), bit-for-bit equal
            // to a cold recompute, and reached without touching the graph
            // or any raw block. All-or-nothing per owner share (`keys` is
            // everything the query asks of this owner), so a mixed key set
            // keeps a single authority.
            if let Some(served) = rollup.serve(keys) {
                self.obs.inc("rollup.serves");
                self.obs.counter("rollup.cells").add(served.len() as u64);
                let result = QueryResult {
                    cells: served
                        .into_iter()
                        .map(|(key, summary)| Cell { key, summary })
                        .collect(),
                    rollup_hits: keys.len(),
                    ..QueryResult::default()
                };
                // The per-Cell serve cost is the same as a graph serve.
                self.charge_serve(keys.len(), &mut st);
                return (Ok(result), st, None);
            }
        }
        let gather_acc = Mutex::new(StageTimes::default());
        // The evaluator's fetch contract is stringly typed (it belongs to
        // the core layer); by then retries and failover are exhausted, so
        // whatever error remains is final either way.
        let fetch = |missing: &[CellKey]| {
            #[cfg(test)]
            self.fire(tests::Site::MidFetch);
            let mut acc = StageTimes::default();
            let parts = self.gatherer().gather_partials(missing, &[], &mut acc);
            gather_acc.lock().add(&acc);
            Ok(parts
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|(key, summary)| Cell { key, summary })
                .collect())
        };
        self.pass_baton(baton);
        let epoch0 = self.fence.begin();
        let mut tick = None;
        let result = match evaluate_traced(graph, keys, &fetch) {
            Ok((part, times, at)) => {
                st.add(&times);
                tick = Some(at);
                Ok(part)
            }
            Err(stash_core::EvalError::Query(q)) => Err(ClusterError::BadQuery(q.to_string())),
            Err(stash_core::EvalError::Fetch(msg)) => Err(ClusterError::Storage(msg)),
        };
        // Ingest fence: if an append apply or invalidation overlapped this
        // evaluation (epoch moved, or an apply was mid-flight when we
        // started), cells the evaluation cached may predate the batch's
        // rows — or have been delta-patched *after* we fetched them from
        // storage, double-counting the batch in the cached copy. Only keys
        // containing a row of an overlapping batch can be either. The
        // *returned* result is untouched (it was correct when read);
        // re-staling those keys makes the next access recompute instead of
        // trusting a racy cache fill. An evaluation that cached nothing —
        // every key a hit — left no fill behind: the Cells it read are the
        // ones the apply patches or stales itself, so it re-stales nothing.
        let cached = !matches!(&result, Ok(part) if part.misses + part.derived_hits == 0);
        if let Some(overlap) = self.fence.end(epoch0, keys) {
            self.obs.inc("ingest.fence.overlapped");
            if overlap.overflow {
                self.obs.inc("ingest.fence.overflow");
            }
            if cached && !overlap.restale.is_empty() {
                graph.mark_stale_keys(&overlap.restale);
                self.obs.inc("ingest.eval_raced");
                self.obs
                    .counter("ingest.fence.restaled_cells")
                    .add(overlap.restale.len() as u64);
            }
        }
        reclassify_gather(&mut st, &gather_acc.into_inner());
        self.charge_serve(keys.len(), &mut st);
        (result, st, tick)
    }

    /// Modeled serve cost of `cells` answered Cells: lookup, merge and
    /// serialization on the paper's hardware, charged as virtual time
    /// (DESIGN.md §2) and booked as merge time.
    fn charge_serve(&self, cells: usize, st: &mut StageTimes) {
        let serve = self.config.cell_service_cost * cells as u32;
        if serve > Duration::ZERO {
            sleep_until(Instant::now() + serve);
            st.merge_ns += serve.as_nanos() as u64;
        }
    }

    /// The graph a share is evaluated on, and its upkeep baton.
    fn graph_of(&self, via_guest: bool) -> (&StashGraph, &Mutex<()>) {
        if via_guest {
            (&self.guest, &self.batons[1])
        } else {
            (&self.graph, &self.batons[0])
        }
    }

    /// Wait out any upkeep in progress on the baton's graph. Counted, with
    /// the wait, only when the baton was held.
    fn pass_baton(&self, baton: &Mutex<()>) {
        if baton.try_lock().is_some() {
            return;
        }
        self.obs.inc("eval.upkeep_wait");
        let waited = Instant::now();
        drop(baton.lock());
        self.obs
            .observe("eval.upkeep_wait_ns", waited.elapsed().as_nanos() as u64);
    }

    /// Send a share's answer, then — when the share was evaluated on a
    /// graph at `tick` — its upkeep, under that graph's baton: the
    /// replacement pass and freshness dispersal ([`StashGraph::upkeep`]),
    /// then the housekeeping due on that tick. A share served without an
    /// evaluation (rollup, Basic, refused, failed) owes nothing.
    fn reply_then_upkeep(
        self: &Arc<Self>,
        keys: &[CellKey],
        via_guest: bool,
        tick: Option<u64>,
        reply: impl FnOnce(),
    ) {
        let Some(tick) = tick else {
            reply();
            return;
        };
        #[cfg(test)]
        self.fire(tests::Site::Evaluated);
        let (graph, baton) = self.graph_of(via_guest);
        let _baton = baton.lock();
        reply();
        #[cfg(test)]
        self.fire(tests::Site::Upkeep);
        let started = Instant::now();
        graph.upkeep(keys, tick);
        self.maintain(tick);
        self.obs
            .observe("eval.upkeep", started.elapsed().as_nanos() as u64);
    }

    // -- Live ingest (DESIGN.md §13) ---------------------------------------------

    /// Apply one ingest batch: append to storage, then either delta-patch
    /// this node's resident Cells (merging the batch's per-Cell partials
    /// into cached summaries, PLM untouched) or mark them stale, and
    /// finally broadcast the batch's finest keys to every live peer. The
    /// ack is positive only when storage accepted the batch *and* every
    /// reachable peer confirmed invalidation — so a producer that has
    /// drained its acks knows no cache in the cluster still serves
    /// pre-batch data.
    ///
    /// A batch can change exactly the Cells that contain one of its rows:
    /// the ancestors-or-self of its distinct finest-level keys. Those ≤
    /// `rows.len()` keys are the batch's identity everywhere — in the fence
    /// log, on the wire, and here, where they are projected onto the levels
    /// that can use a delta (rollup levels, and the levels this graph holds
    /// Cells at) instead of onto all 48.
    ///
    /// Retried batches ([`AppendOutcome::Duplicate`]) skip the patch (the
    /// delta was already merged once) but re-broadcast invalidations: the
    /// usual reason for a retry is a lost ack or an incomplete broadcast.
    fn apply_append(
        self: &Arc<Self>,
        rpc: u64,
        reply_to: NodeId,
        block: BlockKey,
        seq: u64,
        rows: Arc<[Observation]>,
        last: bool,
    ) {
        let finest: Arc<[CellKey]> = finest_keys(&rows).into();
        let apply = self.ingest_apply.lock();
        // Open the fence's parity window before storage changes; close it
        // only after the local patch/stale pass.
        self.fence.open_apply(Arc::clone(&finest));
        let outcome = self.store.append_block(block, seq, &rows);
        if let AppendOutcome::Applied { .. } = outcome {
            self.obs.counter("ingest.rows").add(rows.len() as u64);
            self.obs.inc("ingest.batches");
            // Which levels want a delta. The graph's occupancy is read
            // inside the fence window: an evaluation that caches a level's
            // first Cell after this read sees the epoch move, and its keys
            // contain the batch's rows, so it re-stales them itself. The
            // rollup is not a cache — it folds in every mode, and its seq
            // guard makes the fold exactly once under retries and owner
            // failover (DESIGN.md §17).
            let mut levels: Vec<Level> = self
                .rollup
                .as_ref()
                .map_or_else(Vec::new, |r| r.levels().to_vec());
            if self.config.ingest_patch {
                levels.extend(self.graph.occupied_levels());
                levels.sort_unstable();
                levels.dedup();
            }
            let wanted: Vec<CellKey> = levels
                .iter()
                .flat_map(|&level| ancestors_at(finest.iter(), level))
                .collect();
            // One kernel pass over just the batch rows (stage-2/3 of the
            // columnar kernel). Deltas carry sketch partials when sketches
            // are on, so a patch merges estimator state exactly as a cold
            // rebuild would fold it — resident Cells never silently degrade
            // to exact-only under live ingest.
            let sketch = &self.config.stash.sketch;
            let res = frame_spatial_res(self.store.block_len(), &wanted);
            let frame = BlockFrame::decode(block, &rows, self.config.n_attrs, res);
            let deltas = frame.aggregate_with(&wanted, sketch).cells;
            self.obs
                .counter("ingest.delta_cells")
                .add(deltas.len() as u64);
            if let Some(rollup) = &self.rollup {
                if rollup.fold(block, seq, &deltas) {
                    self.obs.inc("rollup.folds");
                }
            }
            let own_staled = if self.config.ingest_patch {
                let mut patched = 0u64;
                let mut unpatched = Vec::new();
                for (key, delta) in deltas {
                    if self.graph.patch(&key, &delta) {
                        patched += 1;
                    } else {
                        unpatched.push(key);
                    }
                }
                if sketch.enabled && patched > 0 {
                    self.obs
                        .counter("sketch.merges")
                        .add(patched * self.config.n_attrs as u64);
                }
                self.obs.counter("ingest.cells_patched").add(patched);
                // Cells we could not patch (already stale, or evicted under
                // us) go stale.
                self.graph.mark_stale_keys(&unpatched)
            } else {
                // Ablation: invalidate everything the batch touched.
                self.graph.mark_stale_covering(&finest)
            };
            // All guest replicas go stale; fresh guest copies are not
            // patched because their home node patches independently and
            // the guestbook's freshness bookkeeping is the home's.
            let invalidated = own_staled + self.guest.mark_stale_covering(&finest);
            self.obs
                .counter("ingest.cells_invalidated")
                .add(invalidated as u64);
        }
        // Seal on the block's final batch — on Duplicate too: the usual
        // duplicate cause is a retry whose ack was lost after the batch
        // (and possibly the seal) landed, and sealing is idempotent.
        if last
            && matches!(
                outcome,
                AppendOutcome::Applied { .. } | AppendOutcome::Duplicate
            )
        {
            if let Some(rollup) = &self.rollup {
                rollup.seal(block);
                self.obs.inc("rollup.seals");
            }
        }
        self.fence.close_apply();
        drop(apply);
        let applied = match outcome {
            AppendOutcome::Applied { .. } | AppendOutcome::Duplicate => {
                self.broadcast_invalidate(&finest)
            }
            AppendOutcome::OutOfOrder | AppendOutcome::Unsupported => {
                self.obs.inc("ingest.rejected");
                false
            }
        };
        let _ = self.caller.send(reply_to, Msg::AppendAck { rpc, applied });
    }

    /// One `Invalidate` to one peer.
    fn send_invalidate(
        &self,
        peer: usize,
        keys: &Arc<[CellKey]>,
    ) -> Result<Call<'_>, ClusterError> {
        self.obs
            .counter("ingest.invalidate.keys")
            .add(keys.len() as u64);
        self.caller.call(peer, |rpc, reply_to| Msg::Invalidate {
            rpc,
            reply_to,
            keys: Arc::clone(keys),
        })
    }

    /// Tell every live peer to stale its cached Cells containing `keys` and
    /// wait for all acks (peers answer on their fetch tiers, which never
    /// wait on a peer, so this service-tier block cannot deadlock). Crashed
    /// peers — the fabric refuses the send — are skipped: their graphs died
    /// with them, and a restarted node boots empty. Returns whether every
    /// reachable peer confirmed.
    ///
    /// A missed invalidation is a correctness hazard (a stale summary would
    /// keep serving as fresh), so a peer that does not ack is asked again
    /// more patiently than the query path asks — the producer is blocked on
    /// the batch ack anyway.
    fn broadcast_invalidate(&self, keys: &Arc<[CellKey]>) -> bool {
        let n_nodes = self.store.partitioner().n_nodes();
        let waits: Vec<Call<'_>> = (0..n_nodes)
            .filter(|&p| p != self.node_idx)
            .filter_map(|peer| self.send_invalidate(peer, keys).ok())
            .collect();
        let attempts = (ClusterConfig::SUB_RPC_RETRIES + 1).max(6);
        let mut all_ok = true;
        for call in waits {
            let peer = call.node;
            all_ok &= self.wait(call, ACK).is_ok() || {
                let salt = peer as u64 ^ 0x1A55;
                let (acked, _) = self.caller.retry(salt, attempts, true, || {
                    self.wait(self.send_invalidate(peer, keys)?, ACK)
                });
                // A peer that crashed meanwhile has nothing left to stale.
                matches!(acked, Ok(_) | Err(ClusterError::Unreachable { .. }))
            };
        }
        if !all_ok {
            self.obs.inc("ingest.invalidate.incomplete");
        }
        all_ok
    }

    // -- Hotspot handling ---------------------------------------------------------

    fn maybe_start_handoff(self: &Arc<Self>) {
        if self.config.mode != Mode::Stash || !self.config.enable_replication {
            return;
        }
        if !self.is_hotspotted() {
            return;
        }
        if self.clock.now() < self.cooldown_until.load(Ordering::Relaxed) {
            return;
        }
        if self.handoff_inflight.swap(true, Ordering::AcqRel) {
            return; // one at a time
        }
        let this = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("stash-handoff-{}", self.node_idx))
            .spawn(move || {
                this.run_handoff();
                this.cooldown_until.store(
                    this.clock.now() + this.config.stash.cooldown_ticks,
                    Ordering::Relaxed,
                );
                this.handoff_inflight.store(false, Ordering::Release);
            })
            .expect("spawn handoff thread");
    }

    /// The Clique Handoff of Fig. 5: find hottest Cliques, pick antipode
    /// helpers, Distress → Replicate → record routes.
    fn run_handoff(self: &Arc<Self>) {
        let level = Level::from_index(self.hot_level.load(Ordering::Relaxed))
            .unwrap_or_else(|_| Level::of(4, stash_geo::TemporalRes::Day).expect("static level"));
        let finder = CliqueFinder::new(self.config.stash.clique_depth);
        let cliques = finder.top_cliques(
            &self.graph,
            level,
            self.config.stash.max_replicable_cells,
            StashConfig::TOP_K_CLIQUES,
        );
        const MAX_ATTEMPTS: u64 = 5;
        for clique in cliques {
            if clique.members.is_empty() {
                continue;
            }
            for attempt in 0..MAX_ATTEMPTS {
                let helper = match self.config.stash.helper_selection {
                    stash_core::HelperSelection::Antipode => self
                        .store
                        .partitioner()
                        .owner(clique.helper_region(attempt)),
                    stash_core::HelperSelection::Random => {
                        // Ablation: any other node, pseudo-randomly.
                        let n = self.store.partitioner().n_nodes();
                        (self.node_idx
                            + 1
                            + (clique.root.dense_id().wrapping_add(attempt) % (n as u64 - 1).max(1))
                                as usize)
                            % n
                    }
                };
                if helper == self.node_idx {
                    continue;
                }
                self.obs.inc("handoff.attempt");
                if self.try_replicate_to(&clique, helper) {
                    self.obs.inc("handoff.ok");
                    break;
                }
            }
        }
        // Housekeeping while we're here.
        self.routing
            .lock()
            .purge_expired(self.clock.now(), self.config.stash.routing_ttl_ticks);
    }

    fn try_replicate_to(self: &Arc<Self>, clique: &stash_core::Clique, helper: usize) -> bool {
        // Step 3: Distress Request / acknowledgement.
        let accepted = self.caller.ask(
            helper,
            self.config.distress_timeout,
            ACK,
            |rpc, reply_to| Msg::Distress {
                rpc,
                reply_to,
                n_cells: clique.size(),
            },
        );
        match accepted {
            Ok(true) => {}
            Ok(false) => {
                self.obs.inc("handoff.declined");
                return false;
            }
            Err(_) => return false,
        }
        // Step 4: Replication Request / Response, under the ingest fence:
        // the helper caches what it is handed as fresh, and an append that
        // lands after the snapshot reaches the helper's guest graph before
        // the replicas do.
        let epoch0 = self.fence.begin();
        let snapshot = self.graph.snapshot(&clique.members);
        if snapshot.is_empty() {
            return false;
        }
        let replicated: Vec<CellKey> = snapshot.iter().map(|(c, _)| c.key).collect();
        #[cfg(test)]
        self.fire(tests::Site::AfterSnapshot);
        let hosted = self
            .caller
            .ask(helper, self.config.sub_rpc_timeout, ACK, |rpc, reply_to| {
                Msg::ReplicationRequest {
                    rpc,
                    reply_to,
                    src_node: self.node_idx,
                    cells: snapshot,
                }
            });
        if hosted != Ok(true) {
            return false;
        }
        // Replicas an overlapping append touched are stale on arrival: have
        // the helper mark them before any query is routed to it.
        if let Some(overlap) = self.fence.end(epoch0, &replicated) {
            self.obs.inc("handoff.snapshot_raced");
            if !overlap.restale.is_empty() {
                let acked = self
                    .send_invalidate(helper, &overlap.restale.into())
                    .and_then(|call| self.wait(call, ACK));
                if acked.is_err() {
                    return false;
                }
            }
        }
        // Step 5: routing table population.
        self.routing
            .lock()
            .insert(clique.root, helper, &replicated, self.clock.now());
        true
    }

    /// Helper side of replication: stash the Cells in the guest graph.
    fn accept_replicas(self: &Arc<Self>, src_node: usize, cells: Vec<(Cell, f64)>) -> bool {
        let mut gb = self.guestbook.lock();
        if !gb.can_accommodate(cells.len(), StashConfig::GUEST_MAX_CELLS) {
            return false;
        }
        gb.record(cells.iter().map(|(c, _)| c.key), src_node, self.clock.now());
        drop(gb);
        for (cell, freshness) in cells {
            self.guest.insert_with_freshness(cell, freshness);
        }
        self.obs.inc("handoff.guest.host");
        true
    }

    /// Periodic housekeeping: purge idle guest Cells and expired routes
    /// (§VII-D), once every 64 ticks — on the upkeep of the evaluation that
    /// took the tick `now`, which no other share holds.
    fn maintain(&self, now: u64) {
        if !now.is_multiple_of(64) {
            return;
        }
        self.obs.inc("node.maintain");
        let expired = self
            .guestbook
            .lock()
            .expired(now, self.config.stash.guest_ttl_ticks);
        if !expired.is_empty() {
            self.guest.remove_many(&expired);
            self.guestbook.lock().forget(&expired);
        }
        self.routing
            .lock()
            .purge_expired(now, self.config.stash.routing_ttl_ticks);
    }
}

/// Move a gather's wire time and retry naps, which its DFS span `st`
/// measured as part of its wall, out of `dfs_ns` into their own stages.
fn reclassify_gather(st: &mut StageTimes, acc: &StageTimes) {
    st.dfs_ns = st.dfs_ns.saturating_sub(acc.wire_ns + acc.retry_ns);
    st.wire_ns += acc.wire_ns;
    st.retry_ns += acc.retry_ns;
}

/// The identity of one append batch: the distinct finest-level
/// (`MAX_SPATIAL_RES`, Hour) keys its rows fall in, sorted for deterministic
/// wire payloads. Every Cell the batch can change is an ancestor-or-self of
/// one of them; rows with invalid coordinates fall in no Cell.
fn finest_keys(rows: &[Observation]) -> Vec<CellKey> {
    let mut keys: Vec<CellKey> = rows
        .iter()
        .filter_map(|obs| obs.cell_key(MAX_SPATIAL_RES, TemporalRes::Hour))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[cfg(test)]
#[path = "node_tests.rs"]
mod tests;
