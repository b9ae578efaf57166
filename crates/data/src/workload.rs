//! Visual-exploration query workloads (paper §VIII).
//!
//! Every experiment in the paper's evaluation drives the system with a
//! particular query stream. This module constructs those streams exactly as
//! §VIII describes them:
//!
//! * **Query size classes** — country, state, county, city rectangles with
//!   latitudinal/longitudinal extents (16°,32°), (4°,8°), (0.6°,1.2°),
//!   (0.2°,0.5°), all over a fixed one-day `Query_Time` (2015-02-02).
//! * **Iterative dicing** (Fig. 7a/7b) — 5 queries shrinking the polygon by
//!   20 % of its area per step (descending) or the reverse (ascending).
//! * **Panning** (Fig. 7c) — a state rectangle moved by 10/20/25 % of its
//!   extent in each of the 8 compass directions.
//! * **Zooming** (Fig. 7d/7e) — drill-down walks spatial resolution 2→6
//!   over a state area; roll-up is the reverse.
//! * **Throughput** (Fig. 6b) — 100 random rectangles, each panned 100
//!   times by 10 % in random directions (10 000 requests with strong
//!   spatiotemporal locality).
//! * **Hotspot** (Fig. 6d) — 1 000 county requests panning around a single
//!   point, emulating sudden shared interest in one region.

use rand::Rng;
use rand_distr::{Distribution, Zipf};
use stash_geo::{BBox, TemporalRes, TimeRange};
use stash_model::AggQuery;

/// The paper's four query size classes (§VIII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuerySizeClass {
    Country,
    State,
    County,
    City,
}

impl QuerySizeClass {
    pub const ALL: [QuerySizeClass; 4] = [
        QuerySizeClass::Country,
        QuerySizeClass::State,
        QuerySizeClass::County,
        QuerySizeClass::City,
    ];

    /// `(latitudinal, longitudinal)` extent in degrees.
    pub fn extent(self) -> (f64, f64) {
        match self {
            QuerySizeClass::Country => (16.0, 32.0),
            QuerySizeClass::State => (4.0, 8.0),
            QuerySizeClass::County => (0.6, 1.2),
            QuerySizeClass::City => (0.2, 0.5),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            QuerySizeClass::Country => "country",
            QuerySizeClass::State => "state",
            QuerySizeClass::County => "county",
            QuerySizeClass::City => "city",
        }
    }
}

impl std::fmt::Display for QuerySizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The 8 compass directions used by panning workloads, as `(dy, dx)` unit
/// steps (N, NE, E, SE, S, SW, W, NW).
pub const PAN_DIRECTIONS: [(f64, f64); 8] = [
    (1.0, 0.0),
    (1.0, 1.0),
    (0.0, 1.0),
    (-1.0, 1.0),
    (-1.0, 0.0),
    (-1.0, -1.0),
    (0.0, -1.0),
    (1.0, -1.0),
];

/// Workload parameters shared by all streams.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Spatial domain queries are drawn from. Defaults to the NAM coverage
    /// area (continental North America).
    pub domain: BBox,
    /// The fixed `Query_Time` (paper: the day 2015-02-02).
    pub time: TimeRange,
    /// Requested spatial resolution of result Cells. The paper uses 6 on a
    /// 120-node cluster; the laptop-scale default is 4 (see DESIGN.md §7 on
    /// scale substitution) — same shape, ~1000× fewer cells per query.
    pub spatial_res: u8,
    /// Requested temporal resolution (paper: 'Day of the Month').
    pub temporal_res: TemporalRes,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            domain: BBox {
                min_lat: 20.0,
                max_lat: 55.0,
                min_lon: -130.0,
                max_lon: -60.0,
            },
            time: TimeRange::whole_day(2015, 2, 2),
            spatial_res: 4,
            temporal_res: TemporalRes::Day,
        }
    }
}

/// Workload generator: owns the config, borrows the caller's RNG so streams
/// are reproducible from a seed.
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    config: WorkloadConfig,
}

impl WorkloadGen {
    pub fn new(config: WorkloadConfig) -> Self {
        WorkloadGen { config }
    }

    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// A random rectangle of the given size class inside the domain.
    pub fn random_bbox<R: Rng + ?Sized>(&self, rng: &mut R, class: QuerySizeClass) -> BBox {
        let (dlat, dlon) = class.extent();
        let d = &self.config.domain;
        let lat_room = (d.lat_extent() - dlat).max(0.0);
        let lon_room = (d.lon_extent() - dlon).max(0.0);
        let lat = d.min_lat + rng.gen::<f64>() * lat_room;
        let lon = d.min_lon + rng.gen::<f64>() * lon_room;
        BBox::from_corner_extent(lat, lon, dlat.min(d.lat_extent()), dlon.min(d.lon_extent()))
    }

    /// A random query of the given size class.
    pub fn random_query<R: Rng + ?Sized>(&self, rng: &mut R, class: QuerySizeClass) -> AggQuery {
        self.make_query(self.random_bbox(rng, class))
    }

    /// Wrap a bbox with the configured time/resolutions.
    pub fn make_query(&self, bbox: BBox) -> AggQuery {
        AggQuery::new(
            bbox,
            self.config.time,
            self.config.spatial_res,
            self.config.temporal_res,
        )
    }

    // -- Fig. 7a/7b: iterative dicing ---------------------------------------

    /// Descending iterative dicing: `steps` queries starting at `start`
    /// and shrinking the area by `area_step` (paper: 0.20) each step, so
    /// every query is nested in the previous one.
    pub fn dice_descending(&self, start: BBox, steps: usize, area_step: f64) -> Vec<AggQuery> {
        let mut out = Vec::with_capacity(steps);
        let mut q = self.make_query(start);
        for _ in 0..steps {
            out.push(q.clone());
            q = q.diced(1.0 - area_step);
        }
        out
    }

    /// Ascending iterative dicing: "the previous set of queries executed in
    /// reverse order" (§VIII-D1).
    pub fn dice_ascending(&self, start: BBox, steps: usize, area_step: f64) -> Vec<AggQuery> {
        let mut v = self.dice_descending(start, steps, area_step);
        v.reverse();
        v
    }

    // -- Fig. 7c: panning ----------------------------------------------------

    /// Panning stream: the starting query followed by one query panned by
    /// `frac` of the extent in each of the 8 compass directions (all panned
    /// from the *start* rectangle, as in Fig. 7c's per-direction bars).
    pub fn pan_star(&self, start: BBox, frac: f64) -> Vec<AggQuery> {
        let q0 = self.make_query(start);
        let mut out = Vec::with_capacity(9);
        out.push(q0.clone());
        for (dy, dx) in PAN_DIRECTIONS {
            out.push(q0.panned(frac, dy, dx));
        }
        out
    }

    /// A random walk of pans: each query moves `frac` of the extent in a
    /// random compass direction from the previous one.
    pub fn pan_walk<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        start: BBox,
        frac: f64,
        steps: usize,
    ) -> Vec<AggQuery> {
        let mut out = Vec::with_capacity(steps + 1);
        let mut q = self.make_query(start);
        out.push(q.clone());
        for _ in 0..steps {
            let (dy, dx) = PAN_DIRECTIONS[rng.gen_range(0..PAN_DIRECTIONS.len())];
            q = q.panned(frac, dy, dx);
            out.push(q.clone());
        }
        out
    }

    // -- Slicing (paper §V-B's OLAP list) --------------------------------------

    /// Temporal slicing: the same spatial view over `n` consecutive day
    /// slices starting at the configured `Query_Time`. "Slicing is the act
    /// of picking a subset by choosing a single dimension" — here the
    /// analyst steps through days with the map fixed, the temporal
    /// analogue of panning.
    pub fn slice_days(&self, bbox: BBox, n: usize) -> Vec<AggQuery> {
        let day_secs = 86_400;
        (0..n as i64)
            .map(|i| {
                let time = TimeRange::new(
                    self.config.time.start + i * day_secs,
                    self.config.time.end + i * day_secs,
                )
                .expect("shifted range stays ordered");
                AggQuery::new(
                    bbox,
                    time,
                    self.config.spatial_res,
                    self.config.temporal_res,
                )
            })
            .collect()
    }

    // -- Fig. 7d/7e: zooming -------------------------------------------------

    /// Drill-down: the same bbox queried at increasing spatial resolutions
    /// `from_res..=to_res` (paper: 2→6, a ~32× cell increase per step).
    pub fn drill_down(&self, bbox: BBox, from_res: u8, to_res: u8) -> Vec<AggQuery> {
        assert!(from_res <= to_res, "drill-down must increase resolution");
        (from_res..=to_res)
            .map(|r| AggQuery::new(bbox, self.config.time, r, self.config.temporal_res))
            .collect()
    }

    /// Roll-up: the reverse of drill-down (paper §VIII-D2).
    pub fn roll_up(&self, bbox: BBox, from_res: u8, to_res: u8) -> Vec<AggQuery> {
        assert!(from_res >= to_res, "roll-up must decrease resolution");
        (to_res..=from_res)
            .rev()
            .map(|r| AggQuery::new(bbox, self.config.time, r, self.config.temporal_res))
            .collect()
    }

    // -- Fig. 6b: throughput -------------------------------------------------

    /// The throughput mix: `n_rects` random rectangles of `class`, each
    /// panned `pans_per_rect` times by `frac` in random directions
    /// (paper: 100 rects × 100 pans of 10 % ⇒ 10 000 requests).
    pub fn throughput_mix<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: QuerySizeClass,
        n_rects: usize,
        pans_per_rect: usize,
        frac: f64,
    ) -> Vec<AggQuery> {
        let mut out = Vec::with_capacity(n_rects * (pans_per_rect + 1));
        for _ in 0..n_rects {
            let start = self.random_bbox(rng, class);
            out.extend(self.pan_walk(rng, start, frac, pans_per_rect));
        }
        out
    }

    // -- Fig. 6d: hotspot ----------------------------------------------------

    /// The hotspot burst: `n` requests of `class` panning *around* a single
    /// random starting point — "sudden interest over a single region from
    /// multiple users" (§VIII-E). Each request is the start rectangle
    /// panned by 10% in a random direction (not a drifting walk), so the
    /// whole burst stays inside one bounded neighborhood: the workload
    /// that actually creates a stationary hotspot.
    pub fn hotspot_burst<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: QuerySizeClass,
        n: usize,
    ) -> Vec<AggQuery> {
        let start = self.random_bbox(rng, class);
        self.hotspot_burst_at(rng, start, n)
    }

    /// [`hotspot_burst`](Self::hotspot_burst) with a caller-chosen region —
    /// experiments pin the region inside a single DHT partition so exactly
    /// one node hotspots, as in the paper's single-region burst.
    pub fn hotspot_burst_at<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        start: BBox,
        n: usize,
    ) -> Vec<AggQuery> {
        let start = self.make_query(start);
        (0..n)
            .map(|_| {
                let (dy, dx) = PAN_DIRECTIONS[rng.gen_range(0..PAN_DIRECTIONS.len())];
                start.panned(0.10, dy, dx)
            })
            .collect()
    }

    /// A Zipf-skewed mix over `n_regions` candidate rectangles: region rank
    /// r is drawn with probability ∝ 1/rᶿ. Models the paper's §V-A claim
    /// that region popularity follows Zipf's law; used by ablation benches.
    pub fn zipf_mix<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: QuerySizeClass,
        n_regions: usize,
        theta: f64,
        n_queries: usize,
    ) -> Vec<AggQuery> {
        assert!(n_regions >= 1);
        let regions: Vec<BBox> = (0..n_regions)
            .map(|_| self.random_bbox(rng, class))
            .collect();
        let zipf = Zipf::new(n_regions as u64, theta).expect("valid zipf parameters");
        (0..n_queries)
            .map(|_| {
                let rank = zipf.sample(rng) as usize - 1; // Zipf samples 1..=n
                self.make_query(regions[rank.min(n_regions - 1)])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn gen() -> WorkloadGen {
        WorkloadGen::new(WorkloadConfig::default())
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn size_classes_match_paper() {
        assert_eq!(QuerySizeClass::Country.extent(), (16.0, 32.0));
        assert_eq!(QuerySizeClass::State.extent(), (4.0, 8.0));
        assert_eq!(QuerySizeClass::County.extent(), (0.6, 1.2));
        assert_eq!(QuerySizeClass::City.extent(), (0.2, 0.5));
    }

    #[test]
    fn random_bbox_in_domain_with_exact_extent() {
        let g = gen();
        let mut r = rng();
        for class in QuerySizeClass::ALL {
            for _ in 0..50 {
                let b = g.random_bbox(&mut r, class);
                let (dlat, dlon) = class.extent();
                assert!((b.lat_extent() - dlat).abs() < 1e-9, "{class}: {b}");
                assert!((b.lon_extent() - dlon).abs() < 1e-9, "{class}: {b}");
                assert!(g.config.domain.encloses(&b), "{class}: {b} escapes domain");
            }
        }
    }

    #[test]
    fn dicing_is_nested_and_shrinking() {
        let g = gen();
        let start = g.random_bbox(&mut rng(), QuerySizeClass::Country);
        let desc = g.dice_descending(start, 5, 0.20);
        assert_eq!(desc.len(), 5);
        for w in desc.windows(2) {
            assert!(w[0].bbox.encloses(&w[1].bbox), "not nested");
            let ratio = w[1].bbox.area_deg2() / w[0].bbox.area_deg2();
            assert!((ratio - 0.8).abs() < 1e-9, "area ratio {ratio}");
        }
        let asc = g.dice_ascending(start, 5, 0.20);
        assert_eq!(asc.first().unwrap().bbox, desc.last().unwrap().bbox);
        assert_eq!(asc.last().unwrap().bbox, start);
        // Paper: final descending query has extent ~(5.2°, 10.4°) from 16x32
        // after 4 steps of 20% area reduction... our geometric series gives
        // 16 * 0.8^2 = 10.2 lat after 4 steps on extent = sqrt(area) basis.
        let last = desc.last().unwrap().bbox;
        assert!(last.lat_extent() < 16.0 && last.lat_extent() > 4.0);
    }

    #[test]
    fn pan_star_has_nine_queries_with_overlap() {
        let g = gen();
        let start = g.random_bbox(&mut rng(), QuerySizeClass::State);
        for frac in [0.10, 0.20, 0.25] {
            let qs = g.pan_star(start, frac);
            assert_eq!(qs.len(), 9);
            for q in &qs[1..] {
                let overlap = qs[0].bbox.overlap_fraction(&q.bbox);
                // Panning by frac leaves roughly (1-frac)^2..(1-frac) overlap.
                assert!(
                    overlap > (1.0 - frac) * (1.0 - frac) - 1e-6,
                    "overlap {overlap}"
                );
                assert!(overlap < 1.0);
            }
        }
    }

    #[test]
    fn pan_walk_preserves_extent_and_moves() {
        let g = gen();
        let mut r = rng();
        let start = g.random_bbox(&mut r, QuerySizeClass::County);
        let qs = g.pan_walk(&mut r, start, 0.10, 20);
        assert_eq!(qs.len(), 21);
        for w in qs.windows(2) {
            assert!((w[0].bbox.area_deg2() - w[1].bbox.area_deg2()).abs() < 1e-9);
            assert!(w[0].bbox.overlap_fraction(&w[1].bbox) > 0.5);
        }
    }

    #[test]
    fn slice_days_steps_through_time() {
        let g = gen();
        let b = g.random_bbox(&mut rng(), QuerySizeClass::County);
        let slices = g.slice_days(b, 5);
        assert_eq!(slices.len(), 5);
        for (i, q) in slices.iter().enumerate() {
            assert_eq!(q.bbox, b, "spatial view is fixed");
            assert_eq!(
                q.time.start,
                g.config().time.start + i as i64 * 86_400,
                "slice {i} advances one day"
            );
            assert_eq!(q.time.duration_secs(), g.config().time.duration_secs());
        }
        // Consecutive slices are disjoint in time (distinct cells).
        for w in slices.windows(2) {
            assert!(!w[0].time.intersects(&w[1].time));
        }
    }

    #[test]
    fn zoom_walks() {
        let g = gen();
        let b = g.random_bbox(&mut rng(), QuerySizeClass::State);
        let down = g.drill_down(b, 2, 6);
        assert_eq!(
            down.iter().map(|q| q.spatial_res).collect::<Vec<_>>(),
            [2, 3, 4, 5, 6]
        );
        let up = g.roll_up(b, 6, 2);
        assert_eq!(
            up.iter().map(|q| q.spatial_res).collect::<Vec<_>>(),
            [6, 5, 4, 3, 2]
        );
        for q in down.iter().chain(&up) {
            assert_eq!(q.bbox, b);
        }
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn drill_down_direction_checked() {
        gen().drill_down(BBox::GLOBE, 6, 2);
    }

    #[test]
    fn throughput_mix_size_and_locality() {
        let g = gen();
        let mut r = rng();
        let qs = g.throughput_mix(&mut r, QuerySizeClass::County, 10, 10, 0.10);
        assert_eq!(qs.len(), 10 * 11);
        // Queries within one rect's walk overlap heavily.
        let first_walk = &qs[0..11];
        for w in first_walk.windows(2) {
            assert!(w[0].bbox.overlap_fraction(&w[1].bbox) > 0.5);
        }
    }

    #[test]
    fn hotspot_burst_is_localized() {
        let g = gen();
        let mut r = rng();
        let qs = g.hotspot_burst(&mut r, QuerySizeClass::County, 200);
        assert_eq!(qs.len(), 200);
        // All queries stay within one pan step of the shared neighborhood.
        let c0 = qs[0].bbox.center();
        for q in &qs {
            let c = q.bbox.center();
            assert!((c.0 - c0.0).abs() <= 2.0 * 0.1 * 0.6 + 1e-9);
            assert!((c.1 - c0.1).abs() <= 2.0 * 0.1 * 1.2 + 1e-9);
        }
        // And only 8 distinct rectangles exist (the 8 pan directions).
        let distinct: std::collections::HashSet<String> = qs
            .iter()
            .map(|q| format!("{:.6},{:.6}", q.bbox.min_lat, q.bbox.min_lon))
            .collect();
        assert!(distinct.len() <= 8);
    }

    #[test]
    fn zipf_mix_skews_toward_head() {
        let g = gen();
        let mut r = rng();
        let qs = g.zipf_mix(&mut r, QuerySizeClass::County, 20, 1.2, 2000);
        assert_eq!(qs.len(), 2000);
        let mut counts = std::collections::HashMap::new();
        for q in &qs {
            *counts
                .entry(format!("{:.4},{:.4}", q.bbox.min_lat, q.bbox.min_lon))
                .or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        // The most popular region should dominate a uniform share.
        assert!(max > 2000 / 20 * 2, "zipf head not heavy enough: {max}");
    }

    #[test]
    fn streams_are_reproducible_from_seed() {
        let g = gen();
        let a = g.throughput_mix(
            &mut SmallRng::seed_from_u64(9),
            QuerySizeClass::City,
            5,
            5,
            0.1,
        );
        let b = g.throughput_mix(
            &mut SmallRng::seed_from_u64(9),
            QuerySizeClass::City,
            5,
            5,
            0.1,
        );
        assert_eq!(a, b);
    }
}
