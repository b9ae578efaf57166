//! The per-layer ledger: each layer priced from outside, by reading its
//! public counters and by timing calls into its public functions on the
//! workload's own inputs. Nothing in the product is instrumented for this.

use crate::drive::{median_f64, ClientLog};
use crate::ingest::StreamOutcome;
use crate::procstat::ProcSnapshot;
use crate::report::{Metric, PER_LAYER};
use crate::shape::{self, BLOCK_LEN, EVICT_MAX_CELLS};
use crate::span::Recorder;
use crate::workloads::Plan;
use stash_cluster::{GenBlockSource, LiveSource, SimCluster};
use stash_core::{LogicalClock, Plm, StashConfig, StashGraph};
use stash_data::{NamGenerator, StreamConfig, StreamSource};
use stash_dfs::{
    frame_spatial_res, plan_blocks, BlockFrame, BlockKey, BlockSource, DiskModel, NodeStore,
    Partitioner, RollupStore, DEFAULT_FRAME_CACHE_BYTES,
};
use stash_geo::{cover_bbox, TemporalRes, TimeBin};
use stash_model::{
    AggQuery, Cell, CellKey, CellStats, FlatPartials, QueryResult, SketchSpec, MAX_SPATIAL_RES,
};
use stash_net::{NetConfig, NodeId, Router};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Queries of each workload replayed against the layer kernels.
const KERNEL_SAMPLES: usize = 16;
/// Blocks scanned per sampled query (a res-1 Cell spans hundreds).
const KERNEL_BLOCKS: usize = 6;
/// Calls per span of a cheap kernel; its price is the span over the calls.
const REPS: usize = 4;
/// Append batches priced by the ingest kernels.
const KERNEL_BATCHES: usize = 24;

pub type Counters = BTreeMap<&'static str, u64>;

/// Every public counter the ledger reads, summed over nodes.
pub fn read_counters(cluster: &SimCluster) -> Counters {
    let mut c = Counters::new();
    for s in cluster.node_stats() {
        *c.entry("core.hits").or_default() += s.cache_hits;
        *c.entry("core.misses").or_default() += s.cache_misses;
        *c.entry("core.derived").or_default() += s.derived;
        *c.entry("core.evictions").or_default() += s.evictions;
        *c.entry("core.resident_cells").or_default() += s.graph_cells as u64;
        *c.entry("dfs.disk_reads").or_default() += s.disk_reads;
        *c.entry("dfs.disk_bytes").or_default() += s.disk_bytes;
    }
    for i in 0..cluster.n_nodes() {
        let node = cluster.node(i);
        *c.entry("core.evict_passes").or_default() +=
            node.graph.stats().evict_passes.load(Ordering::Relaxed);
        for (ours, theirs) in [
            ("dfs.frame_hits", "dfs.frame_cache.hit"),
            ("dfs.frame_misses", "dfs.frame_cache.miss"),
            ("dfs.frame_evicted_bytes", "dfs.frame_cache.evicted_bytes"),
            ("dfs.rows_decoded", "dfs.rows_decoded"),
            ("dfs.decode_ns", "dfs.decode_ns"),
            ("dfs.cells_derived", "dfs.cells_derived"),
            ("rollup.cells", "rollup.cells"),
            ("sketch.merges", "sketch.merges"),
            ("ingest.cells_patched", "ingest.cells_patched"),
            ("ingest.cells_invalidated", "ingest.cells_invalidated"),
            ("ingest.batches", "ingest.batches"),
        ] {
            *c.entry(ours).or_default() += node.obs.counter(theirs).get();
        }
    }
    let net = cluster.net_stats();
    c.insert("net.messages", net.messages_sent());
    c.insert("net.bytes", net.bytes_sent());
    c.insert("net.dropped", net.messages_dropped());
    c
}

/// Counter movement over the measured phase (`core.resident_cells` is a
/// level, not a count: the later reading is kept).
pub fn delta(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(&k, &v)| {
            let d = if k == "core.resident_cells" {
                v
            } else {
                v - before.get(k).copied().unwrap_or(0)
            };
            (k, d)
        })
        .collect()
}

/// Unit prices collected per sampled query, keyed by per-layer metric name;
/// the reported price of a kernel is the median over the samples.
#[derive(Default)]
struct Prices(BTreeMap<&'static str, Vec<f64>>);

impl Prices {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
}

/// Standalone layer instances the kernels run against.
struct Bench {
    generator: NamGenerator,
    sketch: SketchSpec,
    data_bbox: stash_geo::BBox,
    data_time: stash_geo::TimeRange,
    n_attrs: usize,
    inline: Router<Vec<u64>>,
    inline_rx: stash_net::Inbox<Vec<u64>>,
    wire: Router<Vec<u64>>,
    wire_rx: stash_net::Inbox<Vec<u64>>,
}

impl Bench {
    fn store(&self, frame_cache_bytes: usize, sketch: &SketchSpec) -> NodeStore {
        let source: Arc<dyn BlockSource> = Arc::new(GenBlockSource::new(self.generator.clone()));
        self.store_over(source, frame_cache_bytes, sketch)
    }

    /// A one-node, free-disk store: its time is decode + aggregate only.
    fn store_over(
        &self,
        source: Arc<dyn BlockSource>,
        frame_cache_bytes: usize,
        sketch: &SketchSpec,
    ) -> NodeStore {
        NodeStore::new(
            0,
            Partitioner::new(1, 2),
            BLOCK_LEN,
            self.data_bbox,
            self.data_time,
            DiskModel::free(),
            source,
            20_000,
        )
        .with_scan_cost(Duration::ZERO)
        .with_frame_cache_bytes(frame_cache_bytes)
        .with_sketches(sketch.clone())
    }
}

fn fresh_graph(max_cells: usize) -> StashGraph {
    let config = StashConfig {
        max_cells,
        ..StashConfig::default()
    };
    StashGraph::new(config, Arc::new(LogicalClock::new()))
}

fn endpoint_pair(config: NetConfig) -> (Router<Vec<u64>>, stash_net::Inbox<Vec<u64>>) {
    let (router, mut endpoints) = Router::new(2, config);
    let rx = endpoints.pop().expect("two endpoints").inbox;
    (router, rx)
}

fn exact_only(s: &CellStats) -> CellStats {
    CellStats::from_parts(s.attrs().to_vec())
}

/// Price one sampled query on every query-path kernel.
fn price_query(
    rec: &mut Recorder,
    request: u32,
    q: &AggQuery,
    answer: &QueryResult,
    bench: &Bench,
    prices: &mut Prices,
) {
    let us = |ns: u64, calls: usize| ns as f64 / 1e3 / calls as f64;
    let per = |ns: u64, calls: usize, units: usize| ns as f64 / calls as f64 / units.max(1) as f64;

    let (_, ns) = rec.span("geo.cover_bbox", request, |_| {
        for _ in 0..REPS {
            black_box(cover_bbox(black_box(&q.bbox), q.spatial_res));
        }
    });
    prices.push("geo.cover_us", us(ns, REPS));

    let (keys, ns) = rec.span("model.target_keys", request, |_| {
        let mut keys = Vec::new();
        for _ in 0..REPS {
            keys = black_box(q).target_keys(200_000).expect("planned before");
        }
        keys
    });
    prices.push("model.target_keys_us", us(ns, REPS));

    let mut plm = Plm::new();
    for k in keys.iter().step_by(2) {
        plm.mark_cached(k);
    }
    let (_, ns) = rec.span("core.plm_missing_of", request, |_| {
        for _ in 0..REPS {
            black_box(plm.missing_of(black_box(&keys)));
        }
    });
    prices.push("core.plm_missing_ns_per_key", per(ns, REPS, keys.len()));

    let cells = &answer.cells;
    let n = cells.len();
    if n > 0 {
        let cell_keys: Vec<CellKey> = cells.iter().map(|c| c.key).collect();
        let graph = fresh_graph(StashConfig::default().max_cells);
        let fill = cells.clone();
        let (_, ns) = rec.span("core.insert_many", request, |_| graph.insert_many(fill));
        prices.push("core.insert_many_ns_per_cell", per(ns, 1, n));
        let (_, ns) = rec.span("core.get_many", request, |_| {
            for _ in 0..REPS {
                black_box(graph.get_many(black_box(&cell_keys)));
            }
        });
        prices.push("core.get_many_ns_per_cell", per(ns, REPS, n));
        let (_, ns) = rec.span("core.touch_region", request, |_| {
            for _ in 0..REPS {
                graph.touch_region(black_box(&cell_keys));
            }
        });
        prices.push("core.touch_region_ns_per_cell", per(ns, REPS, n));

        // One parent derived from its 32 resident children.
        if let Some(parent) = cell_keys[0].spatial_parent() {
            let derive = fresh_graph(StashConfig::default().max_cells);
            let children = parent.spatial_children().expect("a parent has children");
            derive.insert_many(
                children
                    .into_iter()
                    .map(|k| Cell::new(k, cells[0].summary.clone())),
            );
            let (_, ns) = rec.span("core.try_derive", request, |_| {
                for _ in 0..REPS {
                    derive.remove_many(&[parent]);
                    black_box(derive.try_derive(&parent));
                }
            });
            prices.push("core.try_derive_us", us(ns, REPS));
        }

        // One replacement pass of a graph one Cell over its budget: the
        // query's Cells repeated over later days until the budget is hit.
        let evict = fresh_graph(EVICT_MAX_CELLS);
        let exact = exact_only(&cells[0].summary);
        'fill: for shift in 0.. {
            for k in &cell_keys {
                let time = TimeBin {
                    res: k.time.res,
                    idx: k.time.idx + shift,
                };
                evict.insert_with_freshness(
                    Cell::new(CellKey::new(k.geohash, time), exact.clone()),
                    1.0,
                );
                if evict.len() > EVICT_MAX_CELLS {
                    break 'fill;
                }
            }
        }
        let (_, ns) = rec.span("core.evict_if_needed", request, |_| {
            black_box(evict.evict_if_needed());
        });
        prices.push("core.evict_us", us(ns, 1));

        let exact_parts: Vec<CellStats> = cells.iter().map(|c| exact_only(&c.summary)).collect();
        let (_, ns) = rec.span("model.summary_merge", request, |_| {
            for _ in 0..REPS {
                let mut acc = CellStats::empty(bench.n_attrs);
                for p in &exact_parts {
                    acc.merge(p);
                }
                black_box(acc);
            }
        });
        prices.push("model.summary_merge_ns_per_cell", per(ns, REPS, n));

        if cells[0].summary.has_sketches() {
            let (_, ns) = rec.span("sketch.merge", request, |_| {
                let mut acc = CellStats::empty_with(bench.n_attrs, &bench.sketch);
                for c in cells {
                    acc.merge(&c.summary);
                }
                black_box(acc);
            });
            prices.push("sketch.merge_us_per_cell", per(ns, 1, n) / 1e3);
            let bytes: usize = cells.iter().map(|c| c.summary.sketch_wire_bytes()).sum();
            prices.push("sketch.bytes_per_cell", bytes as f64 / n as f64);
        }

        // The answer as it ships: sketches included where Cells carry them.
        let parts: Vec<(CellKey, CellStats)> =
            cells.iter().map(|c| (c.key, c.summary.clone())).collect();
        let (flat, ns) = rec.span("model.flat_encode", request, |_| {
            let mut flat = FlatPartials::encode(&parts);
            for _ in 1..REPS {
                flat = FlatPartials::encode(black_box(&parts));
            }
            flat
        });
        prices.push("model.flat_encode_ns_per_cell", per(ns, REPS, n));
        let (_, ns) = rec.span("model.flat_decode", request, |_| {
            for _ in 0..REPS {
                black_box(flat.decode().expect("own encoding decodes"));
            }
        });
        prices.push("model.flat_decode_ns_per_cell", per(ns, REPS, n));
        let bytes = flat.wire_size();
        prices.push("model.flat_bytes_per_cell", bytes as f64 / n as f64);

        // The encoded answer over the fabric: one send + receive.
        let payloads: Vec<Vec<u64>> = (0..REPS).map(|_| vec![0u64; bytes / 8]).collect();
        let (_, ns) = rec.span("net.send_inline", request, |_| {
            for p in payloads {
                bench.inline.send(NodeId(0), NodeId(1), p, bytes);
                black_box(bench.inline_rx.recv().expect("inline delivery"));
            }
        });
        prices.push("net.send_inline_ns", ns as f64 / REPS as f64);
        let payload = vec![0u64; bytes / 8];
        let (_, ns) = rec.span("net.send_default_wire", request, |_| {
            bench.wire.send(NodeId(0), NodeId(1), payload, bytes);
            black_box(bench.wire_rx.recv().expect("delayed delivery"));
        });
        let modeled = bench.wire.config().latency(bytes).as_nanos() as f64;
        prices.push("net.delivery_lateness_us", (ns as f64 - modeled) / 1e3);
    }

    // The blocks this query touches, on standalone free-disk stores.
    let plan = plan_blocks(&keys, BLOCK_LEN, &bench.data_bbox, &bench.data_time, 20_000)
        .expect("planned by the cluster before");
    let blocks: Vec<(BlockKey, Vec<CellKey>)> = plan.into_iter().take(KERNEL_BLOCKS).collect();
    if blocks.is_empty() {
        return;
    }
    let off = SketchSpec::disabled();
    let cold = bench.store(0, &off);
    let warm = bench.store(DEFAULT_FRAME_CACHE_BYTES, &off);
    let sketched = bench.store(DEFAULT_FRAME_CACHE_BYTES, &SketchSpec::standard());
    let (_, ns) = rec.span("data.scan_rows", request, |_| {
        for (bk, _) in &blocks {
            bench
                .generator
                .scan_rows(bk.geohash, bk.day, |lat, lon, t, v| {
                    black_box((lat, lon, t, v));
                });
        }
    });
    prices.push("data.block_gen_us_per_block", us(ns, blocks.len()));
    let (_, ns) = rec.span("dfs.scan_block.cold", request, |_| {
        for (bk, wanted) in &blocks {
            black_box(cold.scan_block(*bk, wanted));
        }
    });
    prices.push("dfs.scan_cold_us_per_block", us(ns, blocks.len()));
    for (bk, wanted) in &blocks {
        warm.scan_block(*bk, wanted);
        sketched.scan_block(*bk, wanted);
    }
    let (_, ns) = rec.span("dfs.scan_block.warm", request, |_| {
        for (bk, wanted) in &blocks {
            black_box(warm.scan_block(*bk, wanted));
        }
    });
    prices.push("dfs.scan_warm_us_per_block", us(ns, blocks.len()));
    let (_, ns) = rec.span("dfs.scan_block.sketch", request, |_| {
        for (bk, wanted) in &blocks {
            black_box(sketched.scan_block(*bk, wanted));
        }
    });
    prices.push("dfs.scan_sketch_us_per_block", us(ns, blocks.len()));
    let wanted: Vec<CellKey> = {
        let mut w: Vec<CellKey> = blocks.iter().flat_map(|(_, w)| w.iter().copied()).collect();
        w.sort_unstable();
        w.dedup();
        w
    };
    let fresh = bench.store(DEFAULT_FRAME_CACHE_BYTES, &bench.sketch);
    let (_, ns) = rec.span("dfs.fetch_partials", request, |_| {
        black_box(
            fresh
                .fetch_partials(&wanted)
                .expect("within the block budget"),
        );
    });
    prices.push("dfs.fetch_partials_us", us(ns, 1));
}

/// Price the write path: block appends, the per-batch delta + rollup fold,
/// and rollup serving. `ingest_mixed` only.
fn price_ingest(rec: &mut Recorder, bench: &Bench, prices: &mut Prices) {
    let day = shape::ingest_day(shape::INGEST_SEALED_DAYS);
    let blocks = shape::ingest_blocks(day);
    let live = Arc::new(LiveSource::new(
        bench.generator.clone(),
        blocks.iter().copied(),
        shape::INGEST_BASE_FRACTION,
    ));
    let store = bench.store_over(live, DEFAULT_FRAME_CACHE_BYTES, &bench.sketch);
    let stream = StreamSource::new(
        bench.generator.clone(),
        blocks.clone(),
        StreamConfig {
            base_fraction: shape::INGEST_BASE_FRACTION,
            batch_rows: shape::INGEST_BATCH_ROWS,
        },
    );
    let rollup = RollupStore::new(
        shape::rollup_levels(),
        blocks
            .iter()
            .map(|&(geohash, day)| BlockKey { geohash, day }),
        bench.data_time.end,
    );
    // Round-robin over blocks: each of the first 24 batches is seq 0 of a
    // different block, as the stream's first round delivers them.
    for (i, batch) in stream.batches().take(KERNEL_BATCHES).enumerate() {
        let request = 1_000 + i as u32;
        let key = BlockKey {
            geohash: batch.block,
            day: batch.day,
        };
        let (_, ns) = rec.span("dfs.append_block", request, |_| {
            black_box(store.append_block(key, 0, &batch.rows));
        });
        prices.push("dfs.append_us_per_batch", ns as f64 / 1e3);
        // What the owner folds per batch: the deltas of every level the
        // rows touch, folded once into the rollup store.
        let mut affected: Vec<CellKey> = batch
            .rows
            .iter()
            .flat_map(|obs| {
                TemporalRes::ALL.into_iter().flat_map(move |t| {
                    (1..=MAX_SPATIAL_RES).filter_map(move |s| obs.cell_key(s, t))
                })
            })
            .collect();
        affected.sort_unstable();
        affected.dedup();
        let (_, ns) = rec.span("dfs.rollup_fold", request, |_| {
            let res = frame_spatial_res(BLOCK_LEN, &affected);
            let frame = BlockFrame::decode(key, &batch.rows, bench.n_attrs, res);
            let deltas = frame.aggregate_with(&affected, &bench.sketch).cells;
            black_box(rollup.fold(key, 0, &deltas));
        });
        prices.push("dfs.rollup_fold_us_per_batch", ns as f64 / 1e3);
    }

    // Serving: a rollup store backfilled over two sealed days of the tile.
    let sealed = RollupStore::new(shape::rollup_levels(), [], bench.data_time.end);
    let window =
        stash_geo::TimeRange::new(shape::ingest_day(0).start(), shape::ingest_day(2).start())
            .expect("two days");
    sealed
        .backfill(
            &GenBlockSource::new(bench.generator.clone()),
            BLOCK_LEN,
            &bench.data_bbox,
            &window,
            &bench.sketch,
            200_000,
            20_000,
        )
        .expect("two-day backfill");
    let keys = AggQuery::new(bench.data_bbox, window, 2, TemporalRes::Day)
        .target_keys(200_000)
        .expect("two cells");
    let (served, ns) = rec.span("dfs.rollup_serve", 2_000, |_| {
        let mut served = 0;
        for _ in 0..REPS {
            served = black_box(sealed.serve(black_box(&keys))).map_or(0, |v| v.len());
        }
        served
    });
    prices.push(
        "dfs.rollup_serve_ns_per_cell",
        ns as f64 / REPS as f64 / served.max(1) as f64,
    );
}

/// Everything the traced pass observed, to be turned into the ledger.
pub struct Observed<'a> {
    pub plan: &'a Plan,
    pub logs: &'a [ClientLog],
    pub counters: &'a Counters,
    pub stream: Option<&'a StreamOutcome>,
    pub proc_before: ProcSnapshot,
    pub proc_after: ProcSnapshot,
}

/// Build the per-layer table: counters and traces of the measured phase,
/// then the kernels on a deterministic sample of the workload's queries.
/// The cluster is still up, so sampled answers come from the system itself.
pub fn price(cluster: &SimCluster, o: &Observed) -> (Vec<Metric>, Recorder) {
    let config = cluster.config();
    let (inline, inline_rx) = endpoint_pair(NetConfig {
        base_latency: Duration::ZERO,
        bytes_per_sec: 0.0,
        ..NetConfig::default()
    });
    let (wire, wire_rx) = endpoint_pair(NetConfig::default());
    let bench = Bench {
        generator: NamGenerator::new(config.generator.clone()),
        sketch: config.stash.sketch.clone(),
        data_bbox: config.data_bbox,
        data_time: config.data_time,
        n_attrs: config.n_attrs,
        inline,
        inline_rx,
        wire,
        wire_rx,
    };
    let mut rec = Recorder::new();
    let mut prices = Prices::default();
    let lane = &o.plan.lanes[0];
    let client = cluster.client();
    let mut kernel_samples = 0u64;
    for i in 0..KERNEL_SAMPLES {
        let q = &lane[i * lane.len() / KERNEL_SAMPLES];
        let request = i as u32;
        rec.span("request", request, |rec| {
            let (answer, _) = rec.span("cluster.query", request, |_| client.query(q).run());
            if let Ok(answer) = answer {
                price_query(rec, request, q, &answer, &bench, &mut prices);
                kernel_samples += 1;
            }
        });
    }
    if o.stream.is_some() {
        price_ingest(&mut rec, &bench, &mut prices);
    }
    bench.inline.shutdown();
    bench.wire.shutdown();

    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    // Kernel prices: the median over the sampled queries.
    for (name, mut samples) in prices.0 {
        out.insert(name, (median_f64(&mut samples), kernel_samples));
    }
    let mut set = |name: &'static str, value: f64, samples: u64| {
        assert!(
            out.insert(name, (value, samples)).is_none(),
            "{name} set twice"
        );
    };
    let c = |name: &str| o.counters.get(name).copied().unwrap_or(0) as f64;

    // cluster.*: the product's own QueryTrace, mean µs per traced query.
    let traces: Vec<_> = o.logs.iter().flat_map(|l| l.traces.iter()).collect();
    let nt = traces.len().max(1) as f64;
    let mean_us = |f: &dyn Fn(&stash_obs::QueryTrace) -> u64| {
        traces.iter().map(|(_, t)| f(t) as f64).sum::<f64>() / nt / 1e3
    };
    let ntu = traces.len() as u64;
    set("cluster.route_us", mean_us(&|t| t.local.route_ns), ntu);
    set("cluster.plm_us", mean_us(&|t| t.local.plm_ns), ntu);
    set("cluster.merge_us", mean_us(&|t| t.local.merge_ns), ntu);
    set("cluster.dfs_us", mean_us(&|t| t.local.dfs_ns), ntu);
    // The coordinator thread never sits on the wire; wire time is the
    // cluster-wide total of the fabric's delivery stamps.
    set("cluster.wire_us", mean_us(&|t| t.agg.wire_ns), ntu);
    set("cluster.wait_us", mean_us(&|t| t.local.wait_ns), ntu);
    set("cluster.retry_us", mean_us(&|t| t.local.retry_ns), ntu);
    set(
        "cluster.agg_work_us",
        mean_us(&|t| t.agg.sum_ns() - t.agg.wire_ns),
        ntu,
    );
    set("cluster.wall_us", mean_us(&|t| t.wall_ns), ntu);
    set(
        "cluster.client_overhead_us",
        traces
            .iter()
            .map(|(client_ns, t)| client_ns.saturating_sub(t.wall_ns) as f64)
            .sum::<f64>()
            / nt
            / 1e3,
        ntu,
    );
    set(
        "cluster.subqueries_per_query",
        traces.iter().map(|(_, t)| t.subqueries as f64).sum::<f64>() / nt,
        ntu,
    );
    set(
        "cluster.retries",
        traces.iter().map(|(_, t)| t.retries as f64).sum(),
        ntu,
    );
    set(
        "cluster.failovers",
        traces.iter().map(|(_, t)| t.failovers as f64).sum(),
        ntu,
    );
    let sum = |f: &dyn Fn(&ClientLog) -> u64| o.logs.iter().map(f).sum::<u64>() as f64;
    let answered = sum(&|l| l.cache_hits + l.derived_hits + l.misses + l.rollup_hits);
    let queries = sum(&|l| l.lat_ns.len() as u64);
    let nq = queries.max(1.0);
    set(
        "cluster.rollup_hit_share",
        sum(&|l| l.rollup_hits) / answered.max(1.0),
        answered as u64,
    );

    // Counters of the measured phase.
    let lookups = c("core.hits") + c("core.misses");
    set(
        "core.hit_ratio",
        c("core.hits") / lookups.max(1.0),
        lookups as u64,
    );
    set("core.derived_cells", c("core.derived"), queries as u64);
    set("core.evictions", c("core.evictions"), queries as u64);
    set("core.resident_cells", c("core.resident_cells"), 1);
    set("sketch.merges", c("sketch.merges"), queries as u64);
    set("dfs.disk_reads", c("dfs.disk_reads"), queries as u64);
    set("dfs.disk_bytes", c("dfs.disk_bytes"), queries as u64);
    let frames = c("dfs.frame_hits") + c("dfs.frame_misses");
    set(
        "dfs.frame_cache_hit_ratio",
        c("dfs.frame_hits") / frames.max(1.0),
        frames as u64,
    );
    set(
        "dfs.frame_cache_evicted_bytes",
        c("dfs.frame_evicted_bytes"),
        queries as u64,
    );
    set("dfs.rows_decoded", c("dfs.rows_decoded"), queries as u64);
    set(
        "dfs.decode_ns_per_row",
        c("dfs.decode_ns") / c("dfs.rows_decoded").max(1.0),
        c("dfs.rows_decoded") as u64,
    );
    set("dfs.cells_derived", c("dfs.cells_derived"), queries as u64);
    set("dfs.rollup_cells", c("rollup.cells"), queries as u64);
    set(
        "net.messages_per_query",
        c("net.messages") / nq,
        queries as u64,
    );
    set("net.bytes_per_query", c("net.bytes") / nq, queries as u64);
    set("net.dropped", c("net.dropped"), c("net.messages") as u64);
    set(
        "ingest.cells_patched",
        c("ingest.cells_patched"),
        c("ingest.batches") as u64,
    );
    set(
        "ingest.cells_invalidated",
        c("ingest.cells_invalidated"),
        c("ingest.batches") as u64,
    );
    set(
        "ingest.batches",
        c("ingest.batches"),
        c("ingest.batches") as u64,
    );
    if let Some(s) = o.stream {
        let mut acks: Vec<u64> = s.acks.iter().map(|a| a.ack_ns).collect();
        acks.sort_unstable();
        set(
            "ingest.blocked_share",
            s.blocked_ns as f64 / 1e9 / s.wall_s,
            s.batches_acked,
        );
        set(
            "ingest.max_lag_rows",
            s.max_lag_rows as f64,
            s.batches_acked,
        );
        set(
            "ingest.rows_per_s",
            s.rows_acked as f64 / s.wall_s,
            s.rows_acked,
        );
        set(
            "ingest.append_ack_p99_ms",
            crate::drive::percentile(&acks, 99.0).map_or(0.0, crate::drive::ns_to_ms),
            acks.len() as u64,
        );
    }

    // Process accounting over the measured phase: real CPU per query,
    // every modeled sleep excluded.
    let cpu_ms_per_query = (o.proc_after.cpu_s - o.proc_before.cpu_s) * 1e3 / nq;
    set("process.cpu_ms_per_query", cpu_ms_per_query, queries as u64);
    set(
        "process.ctx_switches_per_query",
        o.proc_after
            .ctx_switches
            .saturating_sub(o.proc_before.ctx_switches) as f64
            / nq,
        queries as u64,
    );
    set("process.peak_rss_mb", o.proc_after.peak_rss_mb, 1);
    set(
        "host.steal_share",
        crate::procstat::steal_share(&o.proc_before, &o.proc_after),
        o.proc_after
            .host_total
            .saturating_sub(o.proc_before.host_total),
    );

    let ks = kernel_samples;

    // Tracing overhead on paired requests of the same pass.
    let p50_of = |traced: bool| {
        let mut v: Vec<u64> = o
            .logs
            .iter()
            .zip(&o.plan.lanes)
            .flat_map(|(l, lane)| {
                l.lat_ns
                    .iter()
                    .enumerate()
                    .filter(move |(i, _)| crate::drive::goes_traced(*i, lane.len()) == traced)
            })
            .map(|(_, &ns)| ns)
            .collect();
        v.sort_unstable();
        crate::drive::percentile(&v, 50.0).unwrap_or(0) as f64
    };
    let untraced_p50 = p50_of(false);
    set("trace.queries", traces.len() as f64, ntu);
    set("trace.kernel_samples", ks as f64, ks);
    set("trace.spans", rec.spans.len() as f64, ks);
    set(
        "trace.overhead_pct",
        if untraced_p50 > 0.0 {
            (p50_of(true) / untraced_p50 - 1.0) * 100.0
        } else {
            0.0
        },
        ntu,
    );

    // The ledger: layer prices × observed counts per query, against the
    // measured CPU per query. What is left over is thread hand-offs,
    // channels, allocation and scheduling — nothing a kernel prices.
    let get = |name: &str| out.get(name).map_or(0.0, |(v, _)| *v);
    let cells_per_query = answered / nq;
    let per_q = |name: &str| c(name) / nq;
    let scan_us = if bench.sketch.enabled {
        get("dfs.scan_sketch_us_per_block")
    } else {
        get("dfs.scan_warm_us_per_block")
    };
    let cold_extra_us = get("dfs.scan_cold_us_per_block") - get("dfs.scan_warm_us_per_block");
    let accounted_us = get("geo.cover_us")
        + get("model.target_keys_us")
        + cells_per_query
            * (get("core.plm_missing_ns_per_key")
                + get("core.get_many_ns_per_cell")
                + get("core.touch_region_ns_per_cell")
                + get("model.summary_merge_ns_per_cell")
                + get("model.flat_encode_ns_per_cell")
                + get("model.flat_decode_ns_per_cell"))
            / 1e3
        + per_q("core.misses") * get("core.insert_many_ns_per_cell") / 1e3
        + per_q("core.derived") * get("core.try_derive_us")
        + per_q("core.evict_passes") * get("core.evict_us")
        + (per_q("dfs.frame_hits") + per_q("dfs.frame_misses")) * scan_us
        + per_q("dfs.frame_misses") * cold_extra_us.max(0.0)
        + per_q("sketch.merges") * get("sketch.merge_us_per_cell") / bench.n_attrs as f64
        + per_q("net.messages") * get("net.send_inline_ns") / 1e3
        + per_q("ingest.batches")
            * (get("dfs.append_us_per_batch") + get("dfs.rollup_fold_us_per_batch"))
        + per_q("rollup.cells") * get("dfs.rollup_serve_ns_per_cell") / 1e3;
    let accounted_share = if cpu_ms_per_query > 0.0 {
        accounted_us / 1e3 / cpu_ms_per_query
    } else {
        0.0
    };
    out.insert("ledger.accounted_share", (accounted_share, queries as u64));

    for name in out.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not in the per-layer catalog"
        );
    }
    // A kernel that does not apply to this workload priced nothing: 0.
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = out.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name: name.to_string(),
                unit: unit.to_string(),
                value,
                samples,
                slices: Vec::new(),
            }
        })
        .collect();
    (metrics, rec)
}
