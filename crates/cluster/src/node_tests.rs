//! Unit tests of the node runtime: the gather's wire boundary, the ingest
//! fence under fixed interleavings, the Clique Handoff under the fence, the
//! hotspot predicate, the fetch tier serving control and over-threshold
//! work beside a parked service worker, per-site retry counts, and the
//! equivalence of level-projected append propagation with the retained
//! 48-level reference.

use super::*;
use crate::fence::FENCE_LOG_LEN;
use crate::gather::{absorb_fragment, send_fetch, GatherFailure};
use crate::protocol::{PARTIALS, SUB_RESULT};
use crate::{ClusterConfig, RollupPolicy, SimCluster};
use proptest::prelude::*;
use stash_data::GeneratorConfig;
use stash_dfs::DiskModel;
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TimeBin, TimeRange};
use stash_ingest::AppendSink;
use stash_model::level::NUM_LEVELS;
use stash_model::{AggQuery, CellSummary, SketchSpec};
use stash_net::NetConfig;
use std::collections::{HashMap, HashSet};
use std::str::FromStr;

// -- Fixed interleavings ------------------------------------------------------

/// Where a parked [`Hook`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// Inside the evaluator's fetch callback, before storage is read.
    MidFetch,
    /// In a handoff, between the Clique snapshot and the ReplicationRequest.
    AfterSnapshot,
    /// After a share's evaluation, before its upkeep baton is taken.
    Evaluated,
    /// After a share's reply was sent, its upkeep baton held, before its
    /// upkeep runs.
    Upkeep,
}

pub(crate) type Hook = Box<dyn FnOnce(&Arc<NodeCtx>) + Send>;

impl NodeCtx {
    /// Run the hook parked at `site`, once.
    pub(crate) fn fire(self: &Arc<Self>, site: Site) {
        let mut slot = self.hook.lock();
        if slot.as_ref().is_some_and(|(s, _)| *s == site) {
            let (_, hook) = slot.take().expect("checked above");
            drop(slot);
            hook(self);
        }
    }

    fn park(&self, site: Site, hook: impl FnOnce(&Arc<NodeCtx>) + Send + 'static) {
        *self.hook.lock() = Some((site, Box::new(hook)));
    }
}

// -- The 48-level reference ---------------------------------------------------

/// The invalidation set of one append batch as the parent computed it:
/// every Cell key, at every one of the 48 (spatial × temporal) levels, that
/// contains at least one of the batch's rows — deduplicated and sorted.
fn affected_keys(rows: &[Observation]) -> Vec<CellKey> {
    let mut set: HashSet<CellKey> = HashSet::new();
    for obs in rows {
        for t_res in TemporalRes::ALL {
            for s_res in 1..=MAX_SPATIAL_RES {
                if let Some(key) = obs.cell_key(s_res, t_res) {
                    set.insert(key);
                }
            }
        }
    }
    let mut keys: Vec<CellKey> = set.into_iter().collect();
    keys.sort_unstable();
    keys
}

/// The parent's apply pass, verbatim in effect: deltas for, patches over and
/// stale marks on the full 48-level set.
fn reference_apply(node: &Arc<NodeCtx>, block: BlockKey, seq: u64, rows: &[Observation]) {
    let affected = affected_keys(rows);
    let outcome = node.store.append_block(block, seq, rows);
    assert!(matches!(outcome, AppendOutcome::Applied { .. }));
    let res = frame_spatial_res(node.store.block_len(), &affected);
    let frame = BlockFrame::decode(block, rows, node.config.n_attrs, res);
    let deltas = frame
        .aggregate_with(&affected, &node.config.stash.sketch)
        .cells;
    if let Some(rollup) = &node.rollup {
        rollup.fold(block, seq, &deltas);
    }
    let invalidated = if node.config.ingest_patch {
        let mut patched = 0u64;
        let mut unpatched = Vec::new();
        for (key, delta) in deltas {
            if node.graph.patch(&key, &delta) {
                patched += 1;
            } else {
                unpatched.push(key);
            }
        }
        node.obs.counter("ingest.cells_patched").add(patched);
        node.graph.mark_stale_keys(&unpatched) + node.guest.mark_stale_keys(&affected)
    } else {
        node.graph.mark_stale_keys(&affected) + node.guest.mark_stale_keys(&affected)
    };
    node.obs
        .counter("ingest.cells_invalidated")
        .add(invalidated as u64);
}

// -- Fixtures -----------------------------------------------------------------

fn day(d: u32) -> TimeBin {
    TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, d, 0, 0, 0))
}

fn tile(gh: &str) -> Geohash {
    Geohash::from_str(gh).unwrap()
}

fn live_blocks() -> Vec<BlockKey> {
    [("9q8", 2), ("9q8", 3), ("9q9", 2), ("9qc", 2)]
        .into_iter()
        .map(|(g, d)| BlockKey {
            geohash: tile(g),
            day: day(d),
        })
        .collect()
}

/// A one-month domain over the live tiles, free disk and fabric.
fn test_config(n_nodes: usize) -> ClusterConfig {
    ClusterConfig::builder()
        .n_nodes(n_nodes)
        .service_workers(1)
        .fetch_workers(1)
        .disk(DiskModel::free())
        .net(NetConfig {
            base_latency: Duration::from_micros(20),
            ..NetConfig::default()
        })
        .data_bbox(BBox::from_corner_extent(36.0, -124.5, 4.0, 4.5))
        .data_time(
            TimeRange::new(
                epoch_seconds(2015, 2, 1, 0, 0, 0),
                epoch_seconds(2015, 3, 1, 0, 0, 0),
            )
            .unwrap(),
        )
        .generator(GeneratorConfig {
            seed: 11,
            obs_per_deg2_per_day: 20.0,
            max_obs_per_block: 2_000,
            value_quantum: 1.0 / 64.0,
        })
        .scan_cost_per_obs(Duration::ZERO)
        .cell_service_cost(Duration::ZERO)
        .live_blocks(live_blocks().iter().map(|b| (b.geohash, b.day)).collect())
        .live_base_fraction(0.5)
        .build()
        .expect("node test config is valid")
}

/// The 32 res-4 Day Cells under tile `9q8` on the first live day.
fn viewport() -> Vec<CellKey> {
    CellKey::new(tile("9q8"), day(2))
        .spatial_children()
        .unwrap()
}

/// One row at the centre of `cell`, at noon of its day.
fn row_in(cell: &CellKey) -> Observation {
    let (lat, lon) = cell.geohash.center();
    Observation::new(lat, lon, cell.time.start() + 12 * 3600, vec![1.0; 4])
}

fn append_now(node: &Arc<NodeCtx>, block: BlockKey, seq: u64, rows: Vec<Observation>) {
    node.apply_append(0, node.caller.id, block, seq, rows.into(), false);
}

fn stale_among(node: &NodeCtx, keys: &[CellKey]) -> Vec<CellKey> {
    keys.iter()
        .copied()
        .filter(|k| !node.graph.contains_fresh(k))
        .collect()
}

fn counter(node: &NodeCtx, name: &str) -> u64 {
    node.obs.counter(name).get()
}

// -- The fence, pinned by deterministic races ---------------------------------

#[test]
fn an_unrelated_batch_mid_evaluation_leaves_every_key_fresh() {
    let cluster = SimCluster::new(test_config(1));
    let node = cluster.node(0);
    let asked = viewport();
    node.eval_subquery(&asked[..16], false).unwrap();
    // Mid-fetch of the other half: rows land in another tile, and a peer's
    // invalidation for a third arrives.
    node.park(Site::MidFetch, |node| {
        let elsewhere = CellKey::new(tile("9qc"), day(2));
        append_now(node, live_blocks()[3], 0, vec![row_in(&elsewhere)]);
        node.process(
            Envelope::local(
                node.caller.id,
                Msg::Invalidate {
                    rpc: 0,
                    reply_to: node.caller.id,
                    keys: finest_keys(&[row_in(&CellKey::new(tile("9q9"), day(2)))]).into(),
                },
            ),
            true,
        );
    });
    node.eval_subquery(&asked, false).unwrap();
    assert_eq!(counter(node, "ingest.batches"), 1, "the hook ran");
    assert_eq!(stale_among(node, &asked), vec![]);
    assert_eq!(counter(node, "ingest.fence.overlapped"), 1);
    assert_eq!(counter(node, "ingest.eval_raced"), 0);
    assert_eq!(counter(node, "ingest.fence.restaled_cells"), 0);
    cluster.shutdown();
}

#[test]
fn an_overlapping_batch_mid_evaluation_stales_exactly_the_cells_it_touched() {
    let cluster = SimCluster::new(test_config(1));
    let node = cluster.node(0);
    let asked = viewport();
    node.eval_subquery(&asked[..16], false).unwrap();
    // One touched Cell was already resident (and is patched by the apply),
    // one is cached by this very evaluation after the apply finished.
    let touched = vec![asked[3], asked[20]];
    let rows: Vec<Observation> = touched.iter().map(row_in).collect();
    node.park(Site::MidFetch, move |node| {
        append_now(node, live_blocks()[0], 0, rows)
    });
    node.eval_subquery(&asked, false).unwrap();
    assert_eq!(counter(node, "ingest.cells_patched"), 1);
    assert_eq!(stale_among(node, &asked), touched);
    assert_eq!(counter(node, "ingest.eval_raced"), 1);
    assert_eq!(counter(node, "ingest.fence.restaled_cells"), 2);
    assert_eq!(counter(node, "ingest.fence.overflow"), 0);
    cluster.shutdown();
}

#[test]
fn an_evaluation_started_mid_apply_stales_that_applys_keys() {
    let cluster = SimCluster::new(test_config(1));
    let node = cluster.node(0);
    let asked = viewport();
    let touched = vec![asked[5]];
    let batch = finest_keys(&[row_in(&asked[5])]);
    node.fence.open_apply(batch.into());
    node.eval_subquery(&asked, false).unwrap();
    node.fence.close_apply();
    assert_eq!(stale_among(node, &asked), touched);
    assert_eq!(counter(node, "ingest.eval_raced"), 1);
    // The window is closed: the next evaluation refetches and keeps it.
    node.eval_subquery(&asked, false).unwrap();
    assert_eq!(stale_among(node, &asked), vec![]);
    cluster.shutdown();
}

/// An evaluation that only read resident Cells wrote nothing an apply can
/// race with: the apply patches (or stales) those Cells itself, so an apply
/// in flight the whole time leaves every key fresh.
#[test]
fn a_cache_only_evaluation_during_an_apply_restales_nothing() {
    let cluster = SimCluster::new(test_config(1));
    let node = cluster.node(0);
    let asked = viewport();
    node.eval_subquery(&asked, false).unwrap();
    node.fence
        .open_apply(finest_keys(&[row_in(&asked[5])]).into());
    let hits = node.eval_subquery(&asked, false).unwrap();
    node.fence.close_apply();
    assert_eq!(hits.cache_hits, asked.len());
    assert_eq!(stale_among(node, &asked), vec![]);
    assert_eq!(counter(node, "ingest.fence.overlapped"), 1);
    assert_eq!(counter(node, "ingest.eval_raced"), 0);
    cluster.shutdown();
}

#[test]
fn a_first_cell_at_a_level_the_batch_saw_empty_is_staled_by_the_fence() {
    let cluster = SimCluster::new(test_config(1));
    let node = cluster.node(0);
    let asked = viewport();
    let touched = vec![asked[9]];
    let rows = vec![row_in(&asked[9])];
    node.park(Site::MidFetch, move |node| {
        append_now(node, live_blocks()[0], 0, rows)
    });
    assert!(node.graph.occupied_levels().is_empty());
    node.eval_subquery(&asked, false).unwrap();
    // The apply read occupancy before the evaluation cached anything: it
    // built no delta and marked nothing at the viewport's level.
    assert_eq!(counter(node, "ingest.batches"), 1);
    assert_eq!(counter(node, "ingest.delta_cells"), 0);
    assert_eq!(counter(node, "ingest.cells_invalidated"), 0);
    assert_eq!(node.graph.occupied_levels(), vec![asked[0].level()]);
    assert_eq!(stale_among(node, &asked), touched);
    cluster.shutdown();
}

#[test]
fn an_evaluation_that_outlives_the_fence_log_stales_all_it_asked_for() {
    let cluster = SimCluster::new(test_config(1));
    let node = cluster.node(0);
    let asked = viewport();
    node.park(Site::MidFetch, |node| {
        let keys: Arc<[CellKey]> =
            finest_keys(&[row_in(&CellKey::new(tile("9qc"), day(2)))]).into();
        for _ in 0..=FENCE_LOG_LEN {
            node.process(
                Envelope::local(
                    node.caller.id,
                    Msg::Invalidate {
                        rpc: 0,
                        reply_to: node.caller.id,
                        keys: Arc::clone(&keys),
                    },
                ),
                true,
            );
        }
    });
    node.eval_subquery(&asked, false).unwrap();
    assert_eq!(stale_among(node, &asked), asked);
    assert_eq!(counter(node, "ingest.fence.overflow"), 1);
    assert_eq!(counter(node, "ingest.eval_raced"), 1);
    cluster.shutdown();
}

// -- Clique Handoff under the fence -------------------------------------------

#[test]
fn a_handoff_raced_by_an_append_serves_rerouted_queries_the_appended_rows() {
    let cluster = SimCluster::new(test_config(2));
    let members = viewport();
    let home_idx = cluster
        .node(0)
        .store
        .partitioner()
        .owner_of_cell(&members[0]);
    let (home, helper) = (cluster.node(home_idx), cluster.node(1 - home_idx));
    home.eval_subquery(&members, false).unwrap();
    let clique = stash_core::Clique {
        root: CellKey::new(tile("9q8"), day(2)),
        members: members.clone(),
        cumulative_freshness: 1.0,
    };
    // Between the snapshot and the ReplicationRequest a batch lands: the
    // applier's broadcast reaches the helper before the replicas do.
    let sink = cluster.ingest_client();
    let rows = vec![row_in(&members[3]), row_in(&members[20])];
    home.park(Site::AfterSnapshot, move |_| {
        sink.append(live_blocks()[0], 0, &rows, false).unwrap();
    });
    assert!(home.try_replicate_to(&clique, helper.node_idx));
    assert_eq!(counter(home, "handoff.snapshot_raced"), 1);
    assert_eq!(helper.guest.len(), members.len());
    let mut rerouted = helper.eval_subquery(&members, true).unwrap().cells;
    // A cold recompute over the storage that now holds the batch.
    home.graph.clear();
    let mut cold = home.eval_subquery(&members, false).unwrap().cells;
    rerouted.sort_by_key(|c| c.key);
    cold.sort_by_key(|c| c.key);
    assert_eq!(rerouted, cold);
    cluster.shutdown();
}

/// The hotspot predicate counts every request in the data-service queue
/// (§VII-B1): a backlog of FetchPartials alone — placed by the port, nothing
/// reroutable among it — must still reach the fetch tier's hotspot check
/// and start a Clique Handoff.
#[test]
fn a_fetch_partials_backlog_starts_a_handoff() {
    let mut config = test_config(2);
    config.stash.hotspot_threshold = 2;
    // Every fetch below reads a block nobody has read: 3 ms each on the
    // node's one fetch worker, so eight of them queue up.
    config.disk = DiskModel {
        seek: Duration::from_millis(3),
        bytes_per_sec: f64::INFINITY,
    };
    let cluster = SimCluster::new(config);
    let members = viewport();
    let home_idx = cluster
        .node(0)
        .store
        .partitioner()
        .owner_of_cell(&members[0]);
    let (home, peer) = (cluster.node(home_idx), cluster.node(1 - home_idx));
    // A Clique to hand off.
    home.eval_subquery(&members, false).unwrap();
    let waits: Vec<_> = (4..12)
        .map(|d| {
            let keys = CellKey::new(tile("9q8"), day(d))
                .spatial_children()
                .unwrap();
            send_fetch(&peer.caller, home_idx, &keys, &[]).expect("the fabric is up")
        })
        .collect();
    let fetches = waits.len();
    for call in waits {
        let reply = peer.caller.wait(call, Duration::from_secs(10), PARTIALS);
        assert!(matches!(reply, Ok((Ok(_), _))));
    }
    let started = Instant::now();
    while counter(home, "handoff.ok") == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "a backlog of {fetches} fetches over a threshold of 2 started no handoff"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(peer.guest.len(), members.len());
    assert_eq!(counter(home, "handoff.reroute"), 0);
    cluster.shutdown();
}

// -- The fetch tier serves what a service worker waits for --------------------

/// Wait until `done` holds, for at most ten seconds.
fn await_that(what: &str, done: impl Fn() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < Duration::from_secs(10), "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// With the node's one service worker parked mid-evaluation, its fetch tier
/// still acks a peer's Invalidate, answers its Distress, and takes the
/// reroute decision for SubQueries that find the node over its threshold:
/// one its routes cover is shed to the helper and stops counting at once;
/// one that may not be rerouted waits for the service worker, counted. Once
/// the worker goes on, every share is answered and the count is back to 0.
#[test]
fn the_fetch_tier_answers_control_and_sheds_beside_a_parked_service_worker() {
    let mut config = test_config(2);
    config.stash.hotspot_threshold = 1;
    config.stash.reroute_probability = 1.0;
    config.enable_replication = false;
    let cluster = SimCluster::new(config);
    let members = viewport();
    let home_idx = cluster
        .node(0)
        .store
        .partitioner()
        .owner_of_cell(&members[0]);
    let (home, peer) = (cluster.node(home_idx), cluster.node(1 - home_idx));
    // The first half is hosted by the peer as guest replicas, routed there.
    let (covered, evaluated) = members.split_at(16);
    home.eval_subquery(covered, false).unwrap();
    assert!(peer.accept_replicas(home_idx, home.graph.snapshot(covered)));
    home.routing.lock().insert(
        CellKey::new(tile("9q8"), day(2)),
        peer.node_idx,
        covered,
        home.clock.now(),
    );
    let share = |keys: &[CellKey], allow_reroute: bool| {
        peer.caller
            .call(home_idx, |rpc, reply_to| Msg::SubQuery {
                rpc,
                reply_to,
                keys: keys.into(),
                allow_reroute,
                via_guest: false,
            })
            .expect("the fabric is up")
    };
    let (release, parked) = std::sync::mpsc::channel::<()>();
    home.park(Site::MidFetch, move |_| parked.recv().unwrap());
    let running = share(evaluated, false);
    await_that("the share never reached the fetch", || {
        home.hook.lock().is_none()
    });
    assert_eq!(home.pending(), 1);

    let elsewhere: Arc<[CellKey]> =
        finest_keys(&[row_in(&CellKey::new(tile("9qc"), day(2)))]).into();
    let ask = |build: &dyn Fn(u64, NodeId) -> Msg| {
        peer.caller
            .ask(home_idx, Duration::from_secs(10), ACK, build)
    };
    let acked = ask(&|rpc, reply_to| Msg::Invalidate {
        rpc,
        reply_to,
        keys: Arc::clone(&elsewhere),
    });
    assert_eq!(acked, Ok(true));
    let accepted = ask(&|rpc, reply_to| Msg::Distress {
        rpc,
        reply_to,
        n_cells: 1,
    });
    assert_eq!(accepted, Ok(true), "one share running is not over 1");
    assert_eq!(home.pending(), 1, "control never counts");

    let shed = share(covered, true);
    let (answer, _) = peer
        .caller
        .wait(shed, Duration::from_secs(10), SUB_RESULT)
        .unwrap();
    assert_eq!(answer.unwrap().cache_hits, covered.len());
    assert_eq!(counter(peer, "handoff.guest.serve"), 1);
    // The helper may answer before the fetch worker that shed the share
    // has gone on from its send.
    await_that("a shed share kept counting after it left", || {
        counter(home, "handoff.reroute") == 1 && home.pending() == 1
    });

    let kept = share(covered, false);
    assert_eq!(home.pending(), 2, "a share passed on to service counts");
    release.send(()).unwrap();
    for call in [running, kept] {
        let (answer, _) = peer
            .caller
            .wait(call, Duration::from_secs(10), SUB_RESULT)
            .unwrap();
        answer.unwrap();
    }
    await_that("the count never went back to 0", || home.pending() == 0);
    assert_eq!(counter(home, "subquery.recv"), 2);
    cluster.shutdown();
}

// -- The hotspot predicate ----------------------------------------------------

/// The hotspot predicate counts what a node has to serve (§VII-B1): a
/// SubQuery queued behind a running one counts, and so does the running
/// one, which also marks its share's level as the one a handoff replicates.
#[test]
fn a_queued_and_a_running_subquery_count_toward_the_hotspot() {
    let cluster = SimCluster::new(test_config(1));
    let node = cluster.node(0);
    // Res-5 Cells: not the level `hot_level` starts at.
    let cell = viewport()[0];
    let query = AggQuery::new(cell.geohash.bbox(), cell.time.range(), 5, TemporalRes::Day);
    let keys = query.target_keys(100_000).unwrap();
    let level = Level::of(5, TemporalRes::Day).unwrap().index();
    assert_ne!(node.hot_level.load(Ordering::Relaxed), level);
    let seen = Arc::new(Mutex::new(None));
    let probe = Arc::clone(&seen);
    // Parked on the node's one service worker, mid-evaluation of the share.
    node.park(Site::MidFetch, move |node| {
        let running = node.pending();
        let gateway = NodeId(node.store.partitioner().n_nodes());
        let queued = Msg::SubQuery {
            rpc: u64::MAX,
            reply_to: gateway,
            keys: keys.into(),
            allow_reroute: false,
            via_guest: false,
        };
        assert!(node
            .caller
            .router
            .send(node.caller.id, node.caller.id, queued, 64));
        *probe.lock() = Some((
            running,
            node.pending(),
            node.hot_level.load(Ordering::Relaxed),
        ));
    });
    cluster.client().query(&query).run().unwrap();
    assert_eq!(*seen.lock(), Some((1, 2, level)));
    let started = Instant::now();
    while node.pending() > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the queued SubQuery never ran"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(counter(node, "subquery.recv"), 2);
    cluster.shutdown();
}

/// A front end's share that a hotspotted owner sheds along a stale guest
/// route — the helper hosts none of its keys — comes back refused and is
/// sent once more, straight to the owner: the client gets the exact
/// answer, not the refusal.
#[test]
fn the_front_end_resends_a_share_a_stale_route_got_refused() {
    let mut config = test_config(2);
    config.stash.reroute_probability = 1.0;
    config.enable_replication = false;
    let cluster = SimCluster::new(config);
    let members = viewport();
    let home_idx = cluster
        .node(0)
        .store
        .partitioner()
        .owner_of_cell(&members[0]);
    let (home, helper) = (cluster.node(home_idx), cluster.node(1 - home_idx));
    let mut want = home.eval_subquery(&members, false).unwrap().cells;
    want.sort_by_key(|c| c.key);
    want.retain(|c| !c.summary.is_empty());
    let root = CellKey::new(tile("9q8"), day(2));
    home.routing
        .lock()
        .insert(root, helper.node_idx, &members, home.clock.now());

    let query = AggQuery::new(root.geohash.bbox(), root.time.range(), 4, TemporalRes::Day);
    let backlog = home.config.stash.hotspot_threshold + 1;
    home.pending.fetch_add(backlog, Ordering::Relaxed);
    let answer = cluster.client().query(&query).traced().run();
    home.pending.fetch_sub(backlog, Ordering::Relaxed);
    let (answer, trace) = answer.expect("resent to the owner");
    assert_eq!(answer.cells, want);
    assert_eq!((trace.retries, trace.failovers), (1, 0));
    assert_eq!(counter(home, "handoff.reroute"), 1);
    assert_eq!(counter(helper, "handoff.guest.refuse"), 1);
    cluster.shutdown();
}

// -- The owner answers first: upkeep after the reply, under the baton ---------

/// The query for one res-4 Day tile's 32 children, and those keys.
fn tile_query(root: CellKey) -> (AggQuery, Vec<CellKey>) {
    let query = AggQuery::new(root.geohash.bbox(), root.time.range(), 4, TemporalRes::Day);
    (query, root.spatial_children().unwrap())
}

/// `(key, freshness bits)` of every Cell in the node's graph.
fn freshness_state(node: &NodeCtx) -> Vec<(CellKey, u64)> {
    graph_state(&node.graph)
        .into_iter()
        .map(|(k, _, _)| (k, node.graph.freshness_of(&k).unwrap().to_bits()))
        .collect()
}

/// Wait until the node has run `n` upkeeps in all.
fn await_upkeeps(node: &NodeCtx, n: u64) {
    let started = Instant::now();
    while node.obs.histogram("eval.upkeep").count() < n {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "upkeep {n} never ran"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The owner's reply leaves before the share's upkeep: while the worker is
/// parked after the send, the client already holds the exact answer and a
/// cached lateral neighbour of the viewport has not been bumped; once the
/// worker goes on, it has.
#[test]
fn the_owner_replies_before_its_upkeep() {
    let mut config = test_config(1);
    // No decay: a score's bits change only when it is bumped.
    config.stash.decay_tau = f64::INFINITY;
    let cluster = SimCluster::new(config.clone());
    let node = cluster.node(0);
    let (query, asked) = tile_query(CellKey::new(tile("9q8"), day(2)));
    let neighbour = asked
        .iter()
        .flat_map(|k| k.lateral_neighbors())
        .find(|n| !asked.contains(n))
        .unwrap();
    node.eval_subquery(&[neighbour], false).unwrap();
    let before = node.graph.freshness_of(&neighbour).unwrap().to_bits();
    let dispersed = node.graph.stats().dispersals.load(Ordering::Relaxed);

    let (release, parked) = std::sync::mpsc::channel::<()>();
    node.park(Site::Upkeep, move |_| parked.recv().unwrap());
    let answer = cluster.client().query(&query).run().unwrap();
    let twin = SimCluster::new(config);
    let mut want = twin.node(0).eval_subquery(&asked, false).unwrap().cells;
    want.sort_by_key(|c| c.key);
    assert_eq!(answer.cells, want);
    assert_eq!(
        node.graph.freshness_of(&neighbour).unwrap().to_bits(),
        before
    );
    assert_eq!(
        node.graph.stats().dispersals.load(Ordering::Relaxed),
        dispersed
    );

    release.send(()).unwrap();
    await_upkeeps(node, 2);
    assert!(node.graph.freshness_of(&neighbour).unwrap() > f64::from_bits(before));
    assert_eq!(counter(node, "eval.upkeep_wait"), 0);
    twin.shutdown();
    cluster.shutdown();
}

/// An evaluation that starts while an earlier share's upkeep is parked
/// waits for it at the baton: its hits are not bumped until the upkeep is
/// released, and afterwards every cached Cell's freshness equals, bit for
/// bit, that of the same two queries run one after the other.
#[test]
fn an_upkeep_is_never_overtaken_by_a_later_evaluation() {
    let mut config = test_config(1);
    config.service_workers = 2;
    let viewport_a = tile_query(CellKey::new(tile("9q8"), day(2)));
    // The tile east of `9q8`: its western column borders A's viewport.
    let viewport_b = tile_query(CellKey::new(tile("9q9"), day(2)));
    let run = |park: bool| {
        let cluster = SimCluster::new(config.clone());
        let node = Arc::clone(cluster.node(0));
        node.eval_subquery(&viewport_a.1, false).unwrap();
        node.eval_subquery(&viewport_b.1, false).unwrap();
        if !park {
            for (n, (query, _)) in [&viewport_a, &viewport_b].into_iter().enumerate() {
                cluster.client().query(query).run().unwrap();
                await_upkeeps(&node, 3 + n as u64);
            }
            return freshness_state(&node);
        }
        let (release, parked) = std::sync::mpsc::channel::<()>();
        node.park(Site::Upkeep, move |_| parked.recv().unwrap());
        cluster.client().query(&viewport_a.0).run().unwrap();
        let held = freshness_state(&node);
        let hits = node.graph.stats().hits.load(Ordering::Relaxed);
        std::thread::scope(|s| {
            let b = s.spawn(|| cluster.client().query(&viewport_b.0).run().unwrap());
            let started = Instant::now();
            while counter(&node, "eval.upkeep_wait") == 0 {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "B never reached the baton"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(
                freshness_state(&node),
                held,
                "B bumped Cells before A's upkeep"
            );
            assert_eq!(node.graph.stats().hits.load(Ordering::Relaxed), hits);
            release.send(()).unwrap();
            b.join().unwrap();
        });
        await_upkeeps(&node, 4);
        assert_eq!(node.obs.histogram("eval.upkeep_wait_ns").count(), 1);
        freshness_state(&node)
    };
    let sequential = run(false);
    assert_eq!(run(true), sequential);
}

/// Housekeeping is keyed to the tick a share's own evaluation took: a share
/// that evaluated at tick 64 runs exactly one pass — purging a guest Cell
/// idle past its TTL — even though another share evaluated at tick 65
/// before it got to its upkeep.
#[test]
fn maintain_runs_on_the_tick_its_own_evaluation_took() {
    let mut config = test_config(1);
    config.stash.guest_ttl_ticks = 32;
    let cluster = SimCluster::new(config);
    let node = cluster.node(0);
    let asked = viewport();
    let idle = CellKey::new(tile("9qc"), day(2));
    node.guestbook.lock().record([idle], 1, 0);
    node.guest.insert(Cell::empty(idle, node.config.n_attrs));
    node.clock.advance_by(63 - node.clock.now());
    let later = asked[16..].to_vec();
    node.park(Site::Evaluated, move |node| {
        assert_eq!(node.clock.now(), 64);
        node.eval_subquery(&later, false).unwrap();
        assert_eq!(node.clock.now(), 65);
        assert_eq!(counter(node, "node.maintain"), 0);
    });
    node.eval_subquery(&asked[..16], false).unwrap();
    assert_eq!(counter(node, "node.maintain"), 1);
    assert!(node.guest.is_empty(), "the idle guest Cell was not purged");
    cluster.shutdown();
}

// -- Shared summaries: an answer is a snapshot -------------------------------

/// The flat bytes of `cells`, in order: their summaries' content, bit for bit.
fn cell_bits(cells: &[Cell]) -> Vec<u8> {
    let parts: Vec<(CellKey, CellSummary)> =
        cells.iter().map(|c| (c.key, c.summary.clone())).collect();
    FlatPartials::encode(&parts).to_bytes()
}

/// A warm share's answer holds its Cells' summaries shared with the
/// owner's resident Cells. A batch that patches one of them afterwards
/// un-shares it on the owner: the answer keeps its pre-batch bits, and the
/// resident Cell carries the batch.
#[test]
fn a_served_answer_keeps_its_bits_under_a_later_patch() {
    let cluster = SimCluster::new(test_config(1));
    let node = cluster.node(0);
    let (query, asked) = tile_query(CellKey::new(tile("9q8"), day(2)));
    node.eval_subquery(&asked, false).unwrap();
    let answer = cluster.client().query(&query).run().unwrap();
    assert_eq!(answer.misses, 0, "the share was warm");
    let target = answer.cells[0].key;
    let before = cell_bits(&answer.cells);
    let resident = node.graph.peek(&target).unwrap().summary;

    append_now(node, live_blocks()[0], 0, vec![row_in(&target)]);
    assert_eq!(counter(node, "ingest.cells_patched"), 1);
    assert_eq!(
        cell_bits(&answer.cells),
        before,
        "the patch reached the answer"
    );
    let mut want = resident;
    let mut delta = CellSummary::empty(want.n_attrs());
    delta.push_row(&row_in(&target).values);
    want.merge(&delta);
    assert!(node.graph.contains_fresh(&target));
    assert_eq!(node.graph.peek(&target).unwrap().summary, want);
    cluster.shutdown();
}

// -- Retry counts per site, with the peer partitioned away --------------------

/// Two nodes with short deadlines and naps, two retries per sub-RPC, and the
/// owner of [`viewport`] partitioned away from the other node and the front
/// end: `(cluster, from, owner)`. Every message to the owner is lost, so its
/// per-destination send count is exactly the number of attempts made on it.
fn partitioned_pair() -> (SimCluster, usize, usize) {
    let mut config = test_config(2);
    config.sub_rpc_timeout = Duration::from_millis(40);
    config.retry_backoff = Duration::from_millis(1);
    let cluster = SimCluster::new(config);
    let owner = cluster
        .node(0)
        .store
        .partitioner()
        .owner_of_cell(&viewport()[0]);
    let from = 1 - owner;
    let gateway = cluster.n_nodes();
    cluster
        .router()
        .set_partition(&[vec![from, gateway], vec![owner]]);
    (cluster, from, owner)
}

const RETRIES: u64 = ClusterConfig::SUB_RPC_RETRIES as u64;

#[test]
fn a_dark_owner_gets_its_first_wave_subquery_then_retries_plus_one_more() {
    let (cluster, _, owner) = partitioned_pair();
    let root = CellKey::new(tile("9q8"), day(2));
    let query = AggQuery::new(root.geohash.bbox(), root.time.range(), 4, TemporalRes::Day);
    let sorted = |mut keys: Vec<CellKey>| {
        keys.sort_unstable();
        keys
    };
    assert_eq!(
        sorted(query.target_keys(100_000).unwrap()),
        sorted(viewport())
    );
    let (mut answer, trace) = cluster.client().query(&query).traced().run().unwrap();
    assert_eq!(cluster.net_stats().node_sent(owner), 1 + (RETRIES + 1));
    assert_eq!((trace.retries, trace.failovers), (1, 1));
    // The failover read the owner's blocks off the replica chain: exact.
    cluster.router().heal_partition();
    let mut direct = cluster
        .node(owner)
        .eval_subquery(&viewport(), false)
        .unwrap();
    answer.cells.sort_by_key(|c| c.key);
    direct.cells.sort_by_key(|c| c.key);
    assert_eq!(answer.cells, direct.cells);
    cluster.shutdown();
}

#[test]
fn a_dark_gather_owner_is_retried_once_then_excluded() {
    let (cluster, from, owner) = partitioned_pair();
    let mut acc = StageTimes::default();
    let parts = cluster
        .node(from)
        .gatherer()
        .gather_partials(&viewport(), &[], &mut acc)
        .unwrap();
    assert_eq!(parts.len(), viewport().len());
    assert_eq!(cluster.net_stats().node_sent(owner), 1 + (RETRIES + 1));
    cluster.shutdown();
}

#[test]
fn a_dark_peer_gets_at_least_six_invalidate_retries() {
    let (cluster, from, owner) = partitioned_pair();
    let node = cluster.node(from);
    append_now(node, live_blocks()[0], 0, vec![row_in(&viewport()[3])]);
    assert_eq!(
        cluster.net_stats().node_sent(owner),
        1 + (RETRIES + 1).max(6)
    );
    assert_eq!(counter(node, "ingest.invalidate.incomplete"), 1);
    cluster.shutdown();
}

// -- Reply ids across a restart ------------------------------------------------

/// A peer's worker that answers after the node that asked crashed and came back
/// addresses the new incarnation with the old reply id: it must find no
/// slot there — not one of the new node's own requests — and be counted.
#[test]
fn a_restarted_node_takes_no_reply_meant_for_its_previous_incarnation() {
    let mut cluster = SimCluster::new(test_config(2));
    // Node 1 never hears node 0's requests, so they stay outstanding.
    cluster.router().set_partition(&[vec![0], vec![1]]);
    fn ask(cluster: &SimCluster) -> Call<'_> {
        cluster
            .node(0)
            .caller
            .call(1, |rpc, reply_to| Msg::Distress {
                rpc,
                reply_to,
                n_cells: 1,
            })
            .expect("node 1 is up")
    }
    // Only the id is kept: the old incarnation goes with its table.
    let old = ask(&cluster).id;
    cluster.crash_node(0);
    cluster.restart_node(0);
    let new = ask(&cluster);
    assert_ne!(old, new.id, "a restarted node reuses reply ids");
    cluster.router().heal_partition();
    assert!(cluster.router().send(
        NodeId(1),
        NodeId(0),
        Msg::DistressAck {
            rpc: old,
            accept: true,
        },
        48,
    ));
    let node = cluster.node(0);
    let got = node.caller.wait(new, Duration::from_millis(50), ACK);
    assert!(
        matches!(got, Err(ClusterError::Timeout { node: 1, .. })),
        "the new request took the old incarnation's reply: {got:?}"
    );
    assert_eq!(counter(node, "node.stale_reply"), 1);
    cluster.shutdown();
}

// -- Level-projected propagation == the 48-level reference --------------------

/// Everything an append may change on one node, in comparable form.
#[derive(Debug, PartialEq)]
struct NodeState {
    /// `(key, fresh?, flat-encoded summary)` of every cached Cell.
    graph: Vec<(CellKey, bool, Vec<u8>)>,
    guest: Vec<(CellKey, bool, Vec<u8>)>,
    rollup_cells: usize,
    rollup_bytes: usize,
    cells_patched: u64,
    cells_invalidated: u64,
}

fn graph_state(g: &StashGraph) -> Vec<(CellKey, bool, Vec<u8>)> {
    let everywhere = BBox {
        min_lat: -90.0,
        max_lat: 90.0,
        min_lon: -180.0,
        max_lon: 180.0,
    };
    let always = TimeRange::new(i64::MIN / 2, i64::MAX / 2).unwrap();
    let mut keys = g.keys_intersecting(&everywhere, &always);
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| {
            let cell = g.peek(&k).expect("listed key is resident");
            let bytes = FlatPartials::encode(&[(k, cell.summary)]).to_bytes();
            (k, g.contains_fresh(&k), bytes)
        })
        .collect()
}

fn node_state(node: &NodeCtx) -> NodeState {
    let rollup = node.rollup.as_ref().expect("rollup on");
    NodeState {
        graph: graph_state(&node.graph),
        guest: graph_state(&node.guest),
        rollup_cells: rollup.len(),
        rollup_bytes: rollup.estimated_bytes(),
        cells_patched: counter(node, "ingest.cells_patched"),
        cells_invalidated: counter(node, "ingest.cells_invalidated"),
    }
}

/// Viewports at the levels a reader plausibly holds, over both live days.
fn reader_queries() -> Vec<AggQuery> {
    let region = BBox::from_corner_extent(36.6, -123.7, 1.2, 2.6);
    let feb2 = TimeRange::whole_day(2015, 2, 2);
    let both = TimeRange::new(day(2).start(), day(3).end()).unwrap();
    vec![
        AggQuery::new(region, feb2, 4, TemporalRes::Day),
        AggQuery::new(region, both, 3, TemporalRes::Day),
        AggQuery::new(
            BBox::from_corner_extent(36.6, -123.7, 0.3, 0.4),
            both,
            5,
            TemporalRes::Hour,
        ),
        AggQuery::new(region, both, 2, TemporalRes::Month),
    ]
}

fn evaluate_on(node: &Arc<NodeCtx>, q: &AggQuery) {
    let keys = q.target_keys(100_000).unwrap();
    node.eval_subquery(&keys, false).unwrap();
}

/// One generated row: a position inside the block's tile (the south-west
/// corner is the tile's own edge), an hour, a second within it, a value.
type RowPick = (usize, usize, usize, u8);

fn materialize(block: BlockKey, picks: &[RowPick], duplicate: bool) -> Vec<Observation> {
    let b = block.geohash.bbox();
    let (h, w) = (b.max_lat - b.min_lat, b.max_lon - b.min_lon);
    let spots = [
        (0.0, 0.0),
        (0.5, 0.5),
        (0.999, 0.999),
        (0.25, 0.75),
        (0.0, 0.5),
        (0.6, 0.0),
    ];
    let mut rows: Vec<Observation> = picks
        .iter()
        .map(|&(spot, hour, sec, v)| {
            let (fy, fx) = spots[spot];
            let time = block.day.start() + [0, 7, 23][hour] * 3600 + [0, 1800, 3599][sec];
            let v = v as f64 / 64.0;
            Observation::new(
                b.min_lat + fy * h,
                b.min_lon + fx * w,
                time,
                vec![v, -v, v * 3.0, 1.0],
            )
        })
        .collect();
    if duplicate {
        rows.push(rows[0].clone());
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        ..ProptestConfig::default()
    })]

    /// Twin single-node clusters replay the same batches on one thread: one
    /// through `apply_append`, one through the parent's 48-level pass. After
    /// every batch the stale bits, the patched summaries, the rollup state
    /// and the two `ingest.cells_*` totals are identical.
    #[test]
    fn projected_propagation_equals_the_48_level_reference(
        sketches in any::<bool>(),
        patch in any::<bool>(),
        warm in prop::collection::vec(0usize..4, 1..4),
        batches in prop::collection::vec(
            (
                0usize..3,
                prop::collection::vec((0usize..6, 0usize..3, 0usize..3, any::<u8>()), 1..24),
                any::<bool>(),
                0usize..8,
            ),
            1..7,
        ),
    ) {
        let config = || {
            let mut c = test_config(1);
            c.ingest_patch = patch;
            if sketches {
                c.stash.sketch = SketchSpec::standard();
            }
            c.rollup = RollupPolicy::new(vec![
                Level::of(2, TemporalRes::Day).unwrap(),
                Level::of(1, TemporalRes::Month).unwrap(),
            ])
            .unwrap();
            c
        };
        let (changed, reference) = (SimCluster::new(config()), SimCluster::new(config()));
        let queries = reader_queries();
        for node in [changed.node(0), reference.node(0)] {
            for &w in &warm {
                evaluate_on(node, &queries[w]);
            }
            // Guest replicas of whatever the first viewport cached.
            let keys = queries[warm[0]].target_keys(100_000).unwrap();
            prop_assert!(node.accept_replicas(0, node.graph.snapshot(&keys)));
        }
        prop_assert_eq!(node_state(changed.node(0)), node_state(reference.node(0)));

        let mut seqs = [0u64; 3];
        for (b, picks, duplicate, refetch) in &batches {
            let block = live_blocks()[*b];
            let rows = materialize(block, picks, *duplicate);
            append_now(changed.node(0), block, seqs[*b], rows.clone());
            reference_apply(reference.node(0), block, seqs[*b], &rows);
            seqs[*b] += 1;
            prop_assert_eq!(node_state(changed.node(0)), node_state(reference.node(0)));
            // A reader coming back refetches what went stale, so later
            // batches find fresh Cells to patch again.
            if let Some(q) = queries.get(*refetch) {
                evaluate_on(changed.node(0), q);
                evaluate_on(reference.node(0), q);
            }
        }

        // Sealed, the rollup serves everything it holds: compare it whole.
        let rollup_keys: Vec<CellKey> = [(2, TemporalRes::Day), (1, TemporalRes::Month)]
            .into_iter()
            .flat_map(|(s, t)| {
                let c = changed.config();
                AggQuery::new(c.data_bbox, c.data_time, s, t).target_keys(100_000).unwrap()
            })
            .collect();
        let served = |cluster: &SimCluster| {
            let rollup = cluster.rollup().unwrap();
            for block in live_blocks() {
                rollup.seal(block);
            }
            FlatPartials::encode(&rollup.serve(&rollup_keys).expect("all sealed")).to_bytes()
        };
        prop_assert_eq!(served(&changed), served(&reference));
        changed.shutdown();
        reference.shutdown();
    }
}

// -- Pre-existing unit tests --------------------------------------------------

#[test]
fn affected_keys_covers_every_level_once() {
    let obs = Observation::new(
        37.7749,
        -122.4194,
        epoch_seconds(2015, 3, 9, 14, 0, 0),
        vec![1.0, 2.0, 3.0, 4.0],
    );
    let keys = affected_keys(std::slice::from_ref(&obs));
    assert_eq!(keys.len(), NUM_LEVELS, "one key per level for one row");
    for k in &keys {
        assert!(k.geohash.bbox().contains(obs.lat, obs.lon));
        assert!(k.time.range().contains(obs.time));
    }
    // Two rows in the same fine cell add nothing new.
    let twice = affected_keys(&[obs.clone(), obs.clone()]);
    assert_eq!(twice.len(), NUM_LEVELS);
    // The batch's identity is its one finest key; the 48 are its ancestors.
    let finest = finest_keys(&[obs.clone(), obs]);
    assert_eq!(finest.len(), 1);
    let ancestors: Vec<CellKey> = {
        let mut all: Vec<CellKey> = (0..NUM_LEVELS as u8)
            .flat_map(|i| ancestors_at(&finest, Level::from_index(i).unwrap()))
            .collect();
        all.sort_unstable();
        all
    };
    assert_eq!(ancestors, keys);
}

/// Regression: a partials fragment whose sketches were built by a peer
/// running different sketch parameters used to panic the gathering
/// node inside `AttrSketches::merge`. It must instead surface as a
/// typed [`ClusterError::Protocol`] and leave the accumulator intact —
/// exercised through the real wire form ([`FlatPartials`]), exactly as
/// a `PartialsResponse` arrives.
#[test]
fn gather_refuses_wire_fragment_with_mismatched_sketch_config() {
    let key = CellKey::new(
        tile("9q8"),
        TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0)),
    );
    let spec = SketchSpec::standard();
    let mut peer_spec = spec.clone();
    peer_spec.cm_depth += 1; // a stale peer with different parameters

    let summary = |spec: &SketchSpec, row: &[f64]| {
        let mut s = CellSummary::empty(row.len());
        s.ensure_sketches(spec);
        s.push_row(row);
        s
    };
    let seed = summary(&spec, &[1.0, 2.0]);
    let mut merged: HashMap<CellKey, CellSummary> = [(key, seed.clone())].into_iter().collect();
    let wire = |s: CellSummary| FlatPartials::encode(&[(key, s)]).decode().unwrap();

    let mut sketch_merges = 0u64;
    let err = absorb_fragment(
        &mut merged,
        &mut sketch_merges,
        wire(summary(&peer_spec, &[3.0, 4.0])),
    )
    .unwrap_err();
    match err {
        GatherFailure::Fatal(ClusterError::Protocol(msg)) => {
            assert!(msg.contains("sketch config mismatch"), "got: {msg}");
        }
        other => panic!("expected a Protocol error, got {other:?}"),
    }
    assert_eq!(merged[&key], seed, "refused fragment must not be applied");
    assert_eq!(sketch_merges, 0);

    // The same fragment built with matching parameters absorbs fine.
    absorb_fragment(
        &mut merged,
        &mut sketch_merges,
        wire(summary(&spec, &[3.0, 4.0])),
    )
    .unwrap();
    assert_eq!(merged[&key].count(), 2, "both rows merged");
    assert_eq!(sketch_merges, 2, "one pairwise sketch merge per attr");
}
