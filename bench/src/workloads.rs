//! Request lists of the four workloads, generated from `--seed` alone. The
//! program under test only ever sees these generated inputs.

use crate::shape::{self, Workload, CLIENTS, DAY_SECS, RES};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use stash_data::{QuerySizeClass, WorkloadConfig, WorkloadGen};
use stash_geo::{BBox, TemporalRes, TimeRange};
use stash_model::AggQuery;

/// `warm_pan`: base rectangles per size class; each contributes its
/// 9-viewport pan star, 576 distinct viewports in all.
const WARM_BASES_PER_CLASS: usize = 32;
/// State viewports are drawn twice as often as county ones, so the median
/// sits inside the state mode instead of on the edge between two modes.
const WARM_STATE_WEIGHT: usize = 2;
const WARM_LANE_LEN: usize = 8_192;

/// `cold_explore`: enough sessions that no run on this class of host
/// reaches the end of the list (a run that does fails its self-check).
const COLD_SESSIONS: usize = 512;
const COLD_WARMUP_SESSIONS: usize = 4;
/// Days a session walks with `slice_days`; every session owns its window.
const COLD_SESSION_DAYS: i64 = 4;

/// `scan_evict`: Zipf θ over region pools much larger than the caches.
const EVICT_STATE_REGIONS: usize = 200;
const EVICT_COUNTY_REGIONS: usize = 400;
const EVICT_THETA: f64 = 0.9;
const EVICT_LANE_LEN: usize = 8_192;
/// Requests replayed in set-up so eviction is at steady state when the
/// measured phase starts.
const EVICT_WARMUP: usize = 300;

const STREAM_QUERY: u64 = 0x0051_E21E;

/// Everything one run of a workload issues, in order.
pub struct Plan {
    /// Issued once during set-up (the warm-up pass).
    pub warm: Vec<AggQuery>,
    /// One request list per closed-loop client.
    pub lanes: Vec<Vec<AggQuery>>,
    /// Clients wrap around their list; otherwise reaching its end is an
    /// error (the run would silently turn warm).
    pub cyclic: bool,
}

impl Plan {
    /// FNV-1a over the canonical encoding of every request: same seed ⇒
    /// same hash, printed in every report header.
    pub fn inputs_fnv(&self) -> u64 {
        let mut h = Fnv::new();
        for q in self.warm.iter().chain(self.lanes.iter().flatten()) {
            for v in [
                q.bbox.min_lat,
                q.bbox.max_lat,
                q.bbox.min_lon,
                q.bbox.max_lon,
            ] {
                h.write(v.to_bits());
            }
            h.write(q.time.start as u64);
            h.write(q.time.end as u64);
            h.write(u64::from(q.spatial_res) << 8 | u64::from(q.temporal_res.index()));
        }
        h.0
    }

    pub fn requests(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn rng_for(workload: Workload, seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(shape::mix(seed, STREAM_QUERY + workload as u64))
}

fn gen_for_day(domain: BBox, time: TimeRange) -> WorkloadGen {
    WorkloadGen::new(WorkloadConfig {
        domain,
        time,
        spatial_res: RES,
        temporal_res: TemporalRes::Day,
    })
}

pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut rng = rng_for(workload, seed);
    match workload {
        Workload::WarmPan => warm_pan(&mut rng),
        Workload::ColdExplore => cold_explore(&mut rng),
        Workload::ScanEvict => scan_evict(&mut rng),
        Workload::IngestMixed => ingest_mixed(&mut rng),
    }
}

fn warm_pan(rng: &mut SmallRng) -> Plan {
    let wl = gen_for_day(shape::query_domain(), TimeRange::whole_day(2015, 2, 2));
    let mut star = |class| -> Vec<AggQuery> {
        (0..WARM_BASES_PER_CLASS)
            .flat_map(|_| wl.pan_star(wl.random_bbox(&mut *rng, class), 0.10))
            .collect()
    };
    let state = star(QuerySizeClass::State);
    let county = star(QuerySizeClass::County);
    let mut pool: Vec<&AggQuery> = Vec::new();
    for _ in 0..WARM_STATE_WEIGHT {
        pool.extend(&state);
    }
    pool.extend(&county);
    let lanes = (0..CLIENTS)
        .map(|_| {
            let mut lane = Vec::with_capacity(WARM_LANE_LEN + pool.len());
            while lane.len() < WARM_LANE_LEN {
                pool.shuffle(rng);
                lane.extend(pool.iter().map(|&q| q.clone()));
            }
            lane.truncate(WARM_LANE_LEN);
            lane
        })
        .collect();
    let warm = state.iter().chain(&county).cloned().collect();
    Plan {
        warm,
        lanes,
        cyclic: true,
    }
}

/// `cold_explore` draws its regions from the part of the NAM domain under
/// geohash cell `9`. Every roll-up to resolution 1 then touches the same
/// blocks (on a fresh day), so the slowest first touch of a session costs
/// the same in every session and `query_p99_ms` does not depend on how many
/// resolution-1 Cells the seed's regions happen to straddle.
fn cold_domain() -> BBox {
    let d = shape::query_domain();
    BBox {
        max_lat: 45.0,
        max_lon: -90.0,
        ..d
    }
}

/// One exploration session (the paper's Fig. 7 traffic) over a fresh
/// state-sized region on a fresh day, so its first touches are cold no
/// matter how many sessions ran before it.
fn session(rng: &mut SmallRng, window: i64) -> Vec<AggQuery> {
    let start = shape::cold_time().start + window * COLD_SESSION_DAYS * DAY_SECS;
    let wl = gen_for_day(
        cold_domain(),
        TimeRange::new(start, start + DAY_SECS).expect("one day"),
    );
    let region = wl.random_bbox(rng, QuerySizeClass::State);
    let mut q = wl.pan_star(region, 0.10);
    q.extend(wl.pan_walk(rng, region, 0.10, 6));
    q.extend(wl.dice_descending(region, 5, 0.20));
    q.extend(wl.dice_ascending(region, 5, 0.20));
    q.extend(wl.roll_up(region, RES, 1));
    q.extend(wl.drill_down(region, 1, RES));
    q.extend(wl.slice_days(region, COLD_SESSION_DAYS as usize));
    q
}

fn cold_explore(rng: &mut SmallRng) -> Plan {
    // No two sessions share a day: a session that landed on an earlier
    // session's day would find its coarse Cells cached, and how often that
    // happens would depend on the seed.
    let mut windows: Vec<i64> =
        (0..shape::cold_time().duration_secs() / (COLD_SESSION_DAYS * DAY_SECS)).collect();
    assert!(windows.len() >= COLD_WARMUP_SESSIONS + COLD_SESSIONS);
    windows.shuffle(rng);
    let warm = (0..COLD_WARMUP_SESSIONS)
        .flat_map(|_| session(rng, windows.pop().expect("enough windows")))
        .collect();
    // Client i replays sessions i, i + CLIENTS, …
    let mut lanes = vec![Vec::new(); CLIENTS];
    for s in 0..COLD_SESSIONS {
        lanes[s % CLIENTS].extend(session(rng, windows.pop().expect("enough windows")));
    }
    Plan {
        warm,
        lanes,
        cyclic: false,
    }
}

fn scan_evict(rng: &mut SmallRng) -> Plan {
    let wl = gen_for_day(shape::query_domain(), TimeRange::whole_day(2015, 2, 2));
    // Repeating pattern of ten: (state, state, county) × 3, then the last
    // state region again as a res-2 zoom-out. As in `warm_pan` the median
    // must sit inside the state mode, not in the gap between two modes;
    // the zoom-out's Cells span 32 blocks each, so fragment merges — and
    // with them sketch merges — run all the time.
    let n = (EVICT_WARMUP + CLIENTS * EVICT_LANE_LEN).div_ceil(10);
    let state = wl.zipf_mix(
        rng,
        QuerySizeClass::State,
        EVICT_STATE_REGIONS,
        EVICT_THETA,
        6 * n,
    );
    let county = wl.zipf_mix(
        rng,
        QuerySizeClass::County,
        EVICT_COUNTY_REGIONS,
        EVICT_THETA,
        3 * n,
    );
    let mut mixed = state.chunks(6).zip(county.chunks(3)).flat_map(|(s, c)| {
        let mut zoom_out = s[5].clone();
        zoom_out.spatial_res = 2;
        let mut ten: Vec<AggQuery> = Vec::with_capacity(10);
        for i in 0..3 {
            ten.extend([s[2 * i].clone(), s[2 * i + 1].clone(), c[i].clone()]);
        }
        ten.push(zoom_out);
        ten
    });
    let warm = mixed.by_ref().take(EVICT_WARMUP).collect();
    let lanes = (0..CLIENTS)
        .map(|_| mixed.by_ref().take(EVICT_LANE_LEN).collect())
        .collect();
    Plan {
        warm,
        lanes,
        cyclic: true,
    }
}

/// Pans between two live-window overviews of the `ingest_mixed` list.
const INGEST_PANS_PER_OVERVIEW: usize = 16;

/// One reader loops this list beside the producer. Per live day: the 8-way
/// pan star of a county viewport at the workload resolution. After every
/// 16 pans: a res-3 overview of one quarter of the tile over the whole live
/// window. It always includes the day being streamed, so about 5 % of
/// requests pay a refetch of that day's blocks: `query_p99_ms` sits inside
/// that mode, not on its edge, and the mode is cheap enough not to own
/// `queries_per_s`. Last, history: a res-2 query per sealed day and one
/// res-1 query over all sealed days (both rollup-served).
fn ingest_mixed(rng: &mut SmallRng) -> Plan {
    let tile = shape::ingest_tile().bbox();
    let day_range = |d: i64| shape::ingest_day(d).range();
    let span = |from: i64, to: i64| {
        TimeRange::new(
            shape::ingest_start() + from * DAY_SECS,
            shape::ingest_start() + to * DAY_SECS,
        )
        .expect("static range")
    };
    let live = span(shape::INGEST_SEALED_DAYS, shape::INGEST_DAYS);
    let quarter = |i: usize| {
        BBox::from_corner_extent(
            tile.min_lat + (i / 2) as f64 * tile.lat_extent() / 2.0,
            tile.min_lon + (i % 2) as f64 * tile.lon_extent() / 2.0,
            tile.lat_extent() / 2.0,
            tile.lon_extent() / 2.0,
        )
    };
    let (dlat, dlon) = QuerySizeClass::County.extent();
    let mut list = Vec::new();
    let mut pans = 0;
    for d in shape::INGEST_SEALED_DAYS..shape::INGEST_DAYS {
        // Keep the whole pan star inside the tile.
        let lat = tile.min_lat + dlat * 0.2 + rng.gen::<f64>() * (tile.lat_extent() - dlat * 1.4);
        let lon = tile.min_lon + dlon * 0.2 + rng.gen::<f64>() * (tile.lon_extent() - dlon * 1.4);
        let base = AggQuery::new(
            BBox::from_corner_extent(lat, lon, dlat, dlon),
            day_range(d),
            RES,
            TemporalRes::Day,
        );
        for (dy, dx) in stash_data::workload::PAN_DIRECTIONS {
            list.push(base.panned(0.10, dy, dx));
            pans += 1;
            if pans % INGEST_PANS_PER_OVERVIEW == 0 {
                let q = quarter(pans / INGEST_PANS_PER_OVERVIEW % 4);
                list.push(AggQuery::new(q, live, 3, TemporalRes::Day));
            }
        }
    }
    for d in 0..shape::INGEST_SEALED_DAYS {
        list.push(AggQuery::new(tile, day_range(d), 2, TemporalRes::Day));
    }
    list.push(AggQuery::new(
        tile,
        span(0, shape::INGEST_SEALED_DAYS),
        1,
        TemporalRes::Day,
    ));
    Plan {
        warm: list.clone(),
        lanes: vec![list],
        cyclic: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for w in Workload::ALL {
            let a = plan(w, 7).inputs_fnv();
            assert_eq!(a, plan(w, 7).inputs_fnv(), "{}", w.name());
            assert_ne!(a, plan(w, 8).inputs_fnv(), "{}", w.name());
        }
    }

    #[test]
    fn warm_pan_has_576_distinct_viewports_all_warmed() {
        let p = plan(Workload::WarmPan, 1);
        assert_eq!(p.warm.len(), 2 * WARM_BASES_PER_CLASS * 9);
        for lane in &p.lanes {
            assert!(lane.iter().all(|q| p.warm.contains(q)));
        }
    }

    #[test]
    fn cold_sessions_alternate_between_clients() {
        let p = plan(Workload::ColdExplore, 1);
        assert_eq!(p.lanes.len(), CLIENTS);
        assert_eq!(p.lanes[0].len(), p.lanes[1].len());
        assert!(!p.cyclic);
    }
}
