//! The pinned shape of every workload: cluster geometry, cost presets and
//! seed derivation. Nothing here is read from the figures harness — a later
//! edit to `Scale` must not be able to move the benchmark.

use stash_cluster::{ClusterConfig, Mode, RollupPolicy};
use stash_data::GeneratorConfig;
use stash_dfs::DiskModel;
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{Level, SketchSpec};
use std::str::FromStr;
use std::time::Duration;

pub const N_NODES: usize = 8;
pub const BLOCK_LEN: u8 = 3;
/// Spatial resolution of workload viewports (the repo's laptop-scale
/// stand-in for the paper's resolution 6).
pub const RES: u8 = 4;
/// Dyadic quantum: sums and sums of squares stay exact in `f64`, so every
/// answer is merge-order independent and checkable bit for bit.
pub const VALUE_QUANTUM: f64 = 1.0 / 64.0;
/// Closed-loop client threads. A visual front-end waits for its reply
/// before the next pan; two clients match this host's two cores.
pub const CLIENTS: usize = 2;
/// Observations per deg² per day of the query-only workloads.
pub const DENSITY: f64 = 96.0;
/// `ingest_mixed` streams a denser feed so appends are real work.
pub const INGEST_DENSITY: f64 = 2_000.0;
pub const DAY_SECS: i64 = 86_400;

/// `scan_evict`: per-node cache budgets, about a quarter of the touched
/// working set — the one workload larger than the program's own caches.
pub const EVICT_MAX_CELLS: usize = 4_000;
pub const EVICT_FRAME_CACHE_BYTES: usize = 256 << 10;

/// `ingest_mixed`: tile `9q` × 28 days; days 1–14 sealed, 15–28 live.
pub const INGEST_TILE: &str = "9q";
pub const INGEST_DAYS: i64 = 28;
pub const INGEST_SEALED_DAYS: i64 = 14;
pub const INGEST_BATCH_ROWS: usize = 256;
pub const INGEST_BASE_FRACTION: f64 = 0.5;

/// Which costs are slept (modeled) and which are only real CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// The repo defaults: disk 800 µs + 150 MB/s, scan 400 ns/obs, serve
    /// 500 ns/Cell, wire 150 µs + 10 Gb/s.
    Modeled,
    /// Free disk, no scan or serve charge. The wire stays at its default:
    /// with a zero-latency fabric warm req/s swings 11–15 % run to run on a
    /// shared 2-core box, with the default wire 2–7 %.
    Real,
}

impl Preset {
    pub fn name(self) -> &'static str {
        match self {
            Preset::Modeled => "modeled",
            Preset::Real => "real",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmPan,
    ColdExplore,
    ScanEvict,
    IngestMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmPan,
        Workload::ColdExplore,
        Workload::ScanEvict,
        Workload::IngestMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmPan => "warm_pan",
            Workload::ColdExplore => "cold_explore",
            Workload::ScanEvict => "scan_evict",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn preset(self) -> Preset {
        match self {
            Workload::WarmPan | Workload::ScanEvict => Preset::Real,
            Workload::ColdExplore | Workload::IngestMixed => Preset::Modeled,
        }
    }
}

/// SplitMix64 finalizer: derives independent streams from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut x = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const STREAM_DATA: u64 = 0xDA7A;

pub fn generator(workload: Workload, seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        seed: mix(seed, STREAM_DATA),
        obs_per_deg2_per_day: if workload == Workload::IngestMixed {
            INGEST_DENSITY
        } else {
            DENSITY
        },
        max_obs_per_block: 100_000,
        value_quantum: VALUE_QUANTUM,
    }
}

/// `cold_explore` spans six years of the synthetic dataset, so that each
/// of its sessions can own a fresh four-day window.
pub fn cold_time() -> TimeRange {
    TimeRange::new(
        epoch_seconds(2015, 1, 1, 0, 0, 0),
        epoch_seconds(2021, 1, 1, 0, 0, 0),
    )
    .expect("static range")
}

pub fn ingest_start() -> i64 {
    epoch_seconds(2015, 2, 1, 0, 0, 0)
}

/// Day `d` (0-based) of the `ingest_mixed` domain.
pub fn ingest_day(d: i64) -> TimeBin {
    TimeBin::containing(TemporalRes::Day, ingest_start() + d * DAY_SECS)
}

pub fn ingest_tile() -> Geohash {
    Geohash::from_str(INGEST_TILE).expect("static geohash")
}

/// The 32 res-3 blocks of the ingest tile on one day.
pub fn ingest_blocks(day: TimeBin) -> Vec<(Geohash, TimeBin)> {
    let tile = ingest_tile();
    let children = tile.children().expect("a res-2 tile has children");
    children.map(|g| (g, day)).collect()
}

pub fn rollup_levels() -> Vec<Level> {
    vec![
        Level::of(1, TemporalRes::Day).expect("static level"),
        Level::of(2, TemporalRes::Day).expect("static level"),
    ]
}

/// The cluster a workload runs against.
pub fn cluster_config(workload: Workload, seed: u64) -> ClusterConfig {
    let mut b = ClusterConfig::builder()
        .n_nodes(N_NODES)
        .block_len(BLOCK_LEN)
        .mode(Mode::Stash)
        .generator(generator(workload, seed));
    if workload.preset() == Preset::Real {
        b = b
            .disk(DiskModel::free())
            .scan_cost_per_obs(Duration::ZERO)
            .cell_service_cost(Duration::ZERO);
    }
    match workload {
        Workload::WarmPan => {}
        Workload::ColdExplore => b = b.data_time(cold_time()),
        Workload::ScanEvict => {
            b = b.tweak(|c| {
                c.stash.sketch = SketchSpec::standard();
                c.stash.max_cells = EVICT_MAX_CELLS;
                c.stash.frame_cache_bytes = EVICT_FRAME_CACHE_BYTES;
            });
        }
        Workload::IngestMixed => {
            let live = (INGEST_SEALED_DAYS..INGEST_DAYS)
                .flat_map(|d| ingest_blocks(ingest_day(d)))
                .collect();
            b = b
                .data_bbox(ingest_tile().bbox())
                .data_time(
                    TimeRange::new(ingest_start(), ingest_start() + INGEST_DAYS * DAY_SECS)
                        .expect("static range"),
                )
                .live_blocks(live)
                .live_base_fraction(INGEST_BASE_FRACTION)
                .rollup(RollupPolicy::new(rollup_levels()).expect("coarse day levels"));
        }
    }
    b.build().expect("pinned benchmark config is valid")
}

/// The oracle: the bare storage system over the same generator, every cost
/// free, every block sealed and complete. Each query scans raw blocks.
pub fn oracle_config(workload: Workload, seed: u64) -> ClusterConfig {
    let run = cluster_config(workload, seed);
    ClusterConfig::builder()
        .n_nodes(N_NODES)
        .block_len(BLOCK_LEN)
        .mode(Mode::Basic)
        .generator(run.generator.clone())
        .data_bbox(run.data_bbox)
        .data_time(run.data_time)
        .disk(DiskModel::free())
        .scan_cost_per_obs(Duration::ZERO)
        .cell_service_cost(Duration::ZERO)
        .tweak(|c| c.stash.sketch = run.stash.sketch.clone())
        .build()
        .expect("pinned oracle config is valid")
}

/// The spatial domain viewports are drawn from.
pub fn query_domain() -> BBox {
    ClusterConfig::default().data_bbox
}
