//! Microbenchmarks of the hot data structures the macro results rest on:
//! geohash arithmetic, query planning, summary merging, the STASH
//! graph's lookup / insert / derive / clique paths, and the DFS columnar
//! scan kernel (old direct binning vs. frame kernel, cold vs. warm).

use stash_core::{CliqueFinder, LogicalClock, StashConfig, StashGraph};
use stash_data::{GeneratorConfig, NamGenerator};
use stash_dfs::{
    BlockFrame, BlockKey, BlockSource, DiskModel, FrameBuilder, NodeStore, Partitioner,
};
use stash_geo::time::epoch_seconds;
use stash_geo::{cover_bbox, BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{
    AggQuery, Cell, CellKey, CellSummary, Level, Observation, SketchSpec, SummaryStats, UddSketch,
};
use std::hint::black_box;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bench_geohash() {
    let mut group = Group::new("geohash", Duration::from_secs(2));
    let gh = Geohash::encode(40.018, -105.274, 6).unwrap();
    group.bench_function("encode_len6", |b| {
        b.iter(|| Geohash::encode(black_box(40.018), black_box(-105.274), 6))
    });
    group.bench_function("bbox_decode", |b| b.iter(|| black_box(gh).bbox()));
    group.bench_function("neighbors8", |b| b.iter(|| black_box(gh).neighbors()));
    group.bench_function("antipode", |b| b.iter(|| black_box(gh).antipode()));
    let q = BBox::from_corner_extent(30.0, -110.0, 4.0, 8.0);
    group.bench_function("cover_state_res4", |b| b.iter(|| cover_bbox(&q, 4)));
}

fn bench_summary() {
    let mut group = Group::new("summary", Duration::from_secs(2));
    let values: Vec<f64> = (0..1024).map(|i| (i as f64).sin() * 30.0).collect();
    group.elements = Some(values.len() as u64);
    group.bench_function("push_1024", |b| {
        b.iter(|| {
            let mut s = SummaryStats::empty();
            for &v in &values {
                s.push(v);
            }
            s
        })
    });
    let parts: Vec<SummaryStats> = values.chunks(32).map(SummaryStats::from_values).collect();
    group.bench_function("merge_32_partials", |b| {
        b.iter(|| {
            let mut acc = SummaryStats::empty();
            for p in &parts {
                acc.merge(p);
            }
            acc
        })
    });
}

fn keys_for_state() -> Vec<CellKey> {
    AggQuery::new(
        BBox::from_corner_extent(36.0, -104.0, 4.0, 8.0),
        TimeRange::whole_day(2015, 2, 2),
        4,
        TemporalRes::Day,
    )
    .target_keys(1_000_000)
    .unwrap()
}

fn filled_graph(keys: &[CellKey]) -> StashGraph {
    let g = StashGraph::new(StashConfig::default(), Arc::new(LogicalClock::new()));
    g.insert_many(keys.iter().map(|&k| {
        let mut c = Cell::empty(k, 4);
        c.summary.push_row(&[1.0, 2.0, 3.0, 4.0]);
        c
    }));
    g
}

fn bench_graph() {
    let mut group = Group::new("stash_graph", Duration::from_secs(2));
    let keys = keys_for_state();
    let graph = filled_graph(&keys);

    group.elements = Some(keys.len() as u64);
    group.bench_function(format!("get_many_{}keys", keys.len()), |b| {
        b.iter(|| graph.get_many(&keys))
    });
    group.bench_function(format!("touch_region_{}keys", keys.len()), |b| {
        b.iter(|| graph.touch_region(&keys))
    });

    // One owner's share of a query: the children of three adjacent res-3
    // boxes on one day, inside the wider cached area above — so the ring
    // around the share finds cached neighbors to bump.
    let mid = Geohash::encode(38.0, -100.0, 3).unwrap();
    let share: Vec<CellKey> = [mid.offset(0, -1).unwrap(), mid, mid.offset(0, 1).unwrap()]
        .iter()
        .flat_map(|parent| parent.children().unwrap())
        .map(|gh| CellKey::new(gh, keys[0].time))
        .collect();
    assert!(share.iter().all(|k| graph.contains_fresh(k)));
    group.elements = Some(share.len() as u64);
    group.bench_function(format!("touch_region_share_{}", share.len()), |b| {
        b.iter(|| graph.touch_region(&share))
    });

    // The `scan_evict` hit: a warmed level of sketch-valued Cells, each
    // folded from a block's worth of rows (~190), looked up 256 at a time.
    let spec = SketchSpec::standard();
    let sketched = StashGraph::new(StashConfig::default(), Arc::new(LogicalClock::new()));
    sketched.insert_many(keys.iter().take(256).enumerate().map(|(c, &k)| {
        let mut summary = CellSummary::empty_with(4, &spec);
        for r in 0..190 {
            let x = ((c * 190 + r) as f64 * 0.7).sin();
            summary.push_row(&[x * 30.0, 50.0 + x * 40.0, x.abs() * 5.0, x.abs() * 60.0]);
        }
        Cell::new(k, summary)
    }));
    group.elements = Some(256);
    group.bench_function("get_many_sketched_256", |b| {
        b.iter(|| sketched.get_many(&keys[..256]))
    });
    group.elements = Some(keys.len() as u64);

    let cells: Vec<Cell> = keys.iter().map(|&k| Cell::empty(k, 4)).collect();
    group.bench_function(format!("insert_many_{}cells", cells.len()), |b| {
        b.iter_batched(
            || {
                (
                    StashGraph::new(StashConfig::default(), Arc::new(LogicalClock::new())),
                    cells.clone(),
                )
            },
            |(g, cs)| g.insert_many(cs),
        )
    });

    // Derivation: one parent from 32 cached children.
    let parent = CellKey::new(
        Geohash::encode(40.0, -100.0, 3).unwrap(),
        TimeBin::containing(TemporalRes::Day, 1_422_835_200),
    );
    let g2 = StashGraph::new(StashConfig::default(), Arc::new(LogicalClock::new()));
    g2.insert_many(parent.spatial_children().unwrap().into_iter().map(|k| {
        let mut c = Cell::empty(k, 4);
        c.summary.push_row(&[1.0, 2.0, 3.0, 4.0]);
        c
    }));
    group.bench_function("try_derive_32_children", |b| {
        b.iter(|| {
            g2.remove_many(&[parent]);
            g2.try_derive(&parent)
        })
    });

    // Clique selection over the filled state-level graph.
    let finder = CliqueFinder::new(2);
    let level = Level::of(4, TemporalRes::Day).unwrap();
    group.bench_function("top_cliques_depth2", |b| {
        b.iter(|| finder.top_cliques(&graph, level, 4096, 8))
    });
}

fn bench_planning() {
    let mut group = Group::new("planning", Duration::from_secs(2));
    for (label, extent) in [
        ("city", (0.2, 0.5)),
        ("state", (4.0, 8.0)),
        ("country", (16.0, 32.0)),
    ] {
        let q = AggQuery::new(
            BBox::from_corner_extent(30.0, -110.0, extent.0, extent.1),
            TimeRange::whole_day(2015, 2, 2),
            4,
            TemporalRes::Day,
        );
        group.bench_function(format!("target_keys/{label}"), |b| {
            b.iter(|| q.target_keys(1_000_000).unwrap())
        });
    }
}

/// NamGenerator as a BlockSource for the scan-kernel benches. Keeps the
/// trait's default `read_frame` — materialize `Vec<Observation>`, then
/// decode — which is exactly the pre-flat row-struct route (the oracle).
struct GenSource(NamGenerator);

impl BlockSource for GenSource {
    fn read_block(&self, key: BlockKey) -> Vec<Observation> {
        self.0.block_for_day(key.geohash, key.day)
    }
    fn block_bytes(&self, geohash: Geohash) -> usize {
        self.0.block_bytes(geohash)
    }
    fn n_attrs(&self) -> usize {
        self.0.schema().len()
    }
}

/// Same generator, but `read_frame` streams rows straight into the flat
/// frame buffer — the production route (`stash-cluster` sources override
/// the same way).
struct FlatGenSource(NamGenerator);

impl BlockSource for FlatGenSource {
    fn read_block(&self, key: BlockKey) -> Vec<Observation> {
        self.0.block_for_day(key.geohash, key.day)
    }
    fn block_bytes(&self, geohash: Geohash) -> usize {
        self.0.block_bytes(geohash)
    }
    fn n_attrs(&self) -> usize {
        self.0.schema().len()
    }
    fn read_frame(&self, key: BlockKey, spatial_res: u8) -> BlockFrame {
        let n = self.0.obs_per_day(key.geohash);
        let mut b = FrameBuilder::new(key, n, self.0.schema().len(), spatial_res);
        self.0
            .scan_rows(key.geohash, key.day, |lat, lon, time, values| {
                b.push_row(lat, lon, time, values);
            });
        b.finish()
    }
}

fn bench_generator() -> NamGenerator {
    NamGenerator::new(GeneratorConfig {
        seed: 11,
        obs_per_deg2_per_day: 2_000.0,
        max_obs_per_block: 200_000,
        value_quantum: 0.0,
    })
}

fn scan_store_with(source: Arc<dyn BlockSource>) -> NodeStore {
    NodeStore::new(
        0,
        Partitioner::new(1, 2),
        3,
        BBox::new(20.0, 55.0, -130.0, -60.0).unwrap(),
        TimeRange::new(
            epoch_seconds(2015, 1, 1, 0, 0, 0),
            epoch_seconds(2016, 1, 1, 0, 0, 0),
        )
        .unwrap(),
        DiskModel::free(),
        source,
        10_000,
    )
    .with_scan_cost(Duration::ZERO)
}

/// Production configuration: streaming flat decode.
fn scan_store() -> NodeStore {
    scan_store_with(Arc::new(FlatGenSource(bench_generator())))
}

/// Pre-flat configuration: row-struct decode oracle.
fn scan_store_rowpath() -> NodeStore {
    scan_store_with(Arc::new(GenSource(bench_generator())))
}

/// A multi-level wanted set — the shape a zoom-out exploration produces:
/// the block's tile at Day and Year, all 32 res-4 children at Day and at
/// every Hour, and the res-2 parent at Month — five resolution groups
/// over one block. The direct path pays one geohash encode and one hash
/// probe per row × group; the frame kernel decodes once and derives.
fn multi_level_wanted(tile: Geohash, day: TimeBin) -> Vec<CellKey> {
    let mut wanted = vec![CellKey::new(tile, day)];
    for child in tile.children().unwrap() {
        wanted.push(CellKey::new(child, day));
        for h in 0..24 {
            wanted.push(CellKey::new(
                child,
                TimeBin {
                    res: TemporalRes::Hour,
                    idx: day.idx * 24 + h,
                },
            ));
        }
    }
    wanted.push(CellKey::new(
        tile.prefix(2).unwrap(),
        TimeBin::containing(TemporalRes::Month, day.start()),
    ));
    wanted.push(CellKey::new(
        tile,
        TimeBin::containing(TemporalRes::Year, day.start()),
    ));
    wanted
}

fn bench_scan_kernel() {
    let mut group = Group::new("scan_kernel", Duration::from_secs(3));
    let tile = Geohash::from_str("9xj").unwrap();
    let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
    let bk = BlockKey { geohash: tile, day };
    let wanted = multi_level_wanted(tile, day);
    let store = scan_store();
    let rows = store.scan_block(bk, &wanted).rows;
    group.elements = Some(rows as u64);

    group.bench_function(format!("direct_old_{rows}rows"), |b| {
        b.iter(|| store.scan_block_direct(bk, black_box(&wanted)))
    });
    // Cold: a fresh zero-budget cache forces decode + aggregate each iter.
    let cold = scan_store().with_frame_cache_bytes(0);
    group.bench_function(format!("frame_cold_{rows}rows"), |b| {
        b.iter(|| cold.scan_block(bk, black_box(&wanted)))
    });
    // Cold through the row-struct oracle: same work, but decode goes
    // Vec<Observation> → frame instead of streaming into the flat buffer.
    // The gap between this and frame_cold is the flat-decode win.
    let cold_rows = scan_store_rowpath().with_frame_cache_bytes(0);
    group.bench_function(format!("frame_cold_rowpath_{rows}rows"), |b| {
        b.iter(|| cold_rows.scan_block(bk, black_box(&wanted)))
    });
    // Warm: the frame decoded once above stays cached; iters only aggregate.
    group.bench_function(format!("frame_warm_{rows}rows"), |b| {
        b.iter(|| store.scan_block(bk, black_box(&wanted)))
    });
}

/// Cost of carrying sketch-valued Cells (ISSUE 6): the same warm-frame
/// aggregate with sketches off vs. on isolates the per-row sketch fold,
/// and the partial-merge pair isolates the per-merge cost the coordinator
/// gather and ingest patch paths pay.
fn bench_sketch_fold() {
    let mut group = Group::new("sketch_fold", Duration::from_secs(3));
    let tile = Geohash::from_str("9xj").unwrap();
    let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
    let bk = BlockKey { geohash: tile, day };
    let wanted = multi_level_wanted(tile, day);

    // Warm frame caches: iterations measure only the aggregate stage.
    let exact = scan_store();
    let rows = exact.scan_block(bk, &wanted).rows;
    group.elements = Some(rows as u64);
    group.bench_function(format!("scan_exact_only_{rows}rows"), |b| {
        b.iter(|| exact.scan_block(bk, black_box(&wanted)))
    });
    let sketched = scan_store().with_sketches(SketchSpec::standard());
    sketched.scan_block(bk, &wanted);
    group.bench_function(format!("scan_with_sketches_{rows}rows"), |b| {
        b.iter(|| sketched.scan_block(bk, black_box(&wanted)))
    });

    // Merging 32 partials (4 attrs each), exact-only vs. sketch-carrying.
    let rows_per_part = 32;
    let values: Vec<[f64; 4]> = (0..32 * rows_per_part)
        .map(|i| {
            let x = (i as f64 * 0.7).sin();
            [x * 30.0, 50.0 + x * 40.0, x.abs() * 5.0, x.abs() * 60.0]
        })
        .collect();
    let build = |spec: Option<&SketchSpec>| -> Vec<CellSummary> {
        values
            .chunks(rows_per_part)
            .map(|chunk| {
                let mut s = match spec {
                    Some(spec) => CellSummary::empty_with(4, spec),
                    None => CellSummary::empty(4),
                };
                for row in chunk {
                    s.push_row(row);
                }
                s
            })
            .collect()
    };
    // Isolated quantile-push path: the open-addressed bucket table's cost
    // per `UddSketch::push`, free of the fold's HLL/heavy-hitter work
    // (which dominates `scan_with_sketches` on continuous data).
    let push_values: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.7).sin() * 50.0).collect();
    group.elements = Some(push_values.len() as u64);
    group.bench_function("quantile_push_4096", |b| {
        b.iter(|| {
            let mut s = UddSketch::new(0.01, 64);
            for &v in &push_values {
                s.push(black_box(v));
            }
            s
        })
    });

    let spec = SketchSpec::standard();
    // Row-at-a-time fold (`CellSummary::push_row`, the live-ingest patch
    // path): 32 fresh Cells of 32 rows each, exact-only vs. sketch-carrying.
    group.elements = Some(values.len() as u64);
    group.bench_function("push_row_32x32_exact", |b| b.iter(|| build(None)));
    group.bench_function("push_row_32x32_sketched", |b| b.iter(|| build(Some(&spec))));
    for (label, parts) in [
        ("merge_32_exact_partials", build(None)),
        ("merge_32_sketched_partials", build(Some(&spec))),
    ] {
        group.elements = Some(32);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut acc = parts[0].clone();
                for p in &parts[1..] {
                    acc.merge(p);
                }
                acc
            })
        });
    }
}

fn main() {
    bench_geohash();
    bench_summary();
    bench_graph();
    bench_planning();
    bench_scan_kernel();
    bench_sketch_fold();
}

/// A group of timed benchmarks. Each takes samples until it has ten or has
/// spent the group's budget (one sample under `--test`), then prints
/// `group/id: mean … ms, min … ms over N samples[, … elem/s]`.
struct Group {
    name: &'static str,
    budget: Duration,
    /// Elements one call handles: later benchmarks print an `elem/s` rate.
    elements: Option<u64>,
    taken: Vec<Duration>,
}

impl Group {
    fn new(name: &'static str, budget: Duration) -> Self {
        Group {
            name,
            budget,
            elements: None,
            taken: Vec::new(),
        }
    }

    fn bench_function(&mut self, id: impl std::fmt::Display, f: impl FnOnce(&mut Self)) {
        self.taken.clear();
        f(self);
        let n = self.taken.len();
        let mean = self.taken.iter().sum::<Duration>().as_secs_f64() / n as f64;
        let min = self.taken.iter().min().expect("a sample").as_secs_f64();
        let rate = self
            .elements
            .map(|e| format!(", {:.0} elem/s", e as f64 / mean));
        let (name, rate) = (self.name, rate.unwrap_or_default());
        let (mean, min) = (mean * 1e3, min * 1e3);
        println!("{name}/{id}: mean {mean:.3} ms, min {min:.3} ms over {n} samples{rate}");
    }

    /// One untimed warm-up call, then timed calls.
    fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        black_box(routine());
        self.iter_batched(|| (), |()| routine());
    }

    /// Times `routine` alone, on a fresh input from `setup` each call.
    fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        let samples = if std::env::args().any(|a| a == "--test") {
            1
        } else {
            10
        };
        loop {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.taken.push(t0.elapsed());
            if self.taken.len() >= samples || self.taken.iter().sum::<Duration>() >= self.budget {
                break;
            }
        }
    }
}
