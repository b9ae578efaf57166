//! Deterministic synthetic NAM-like observation generator.
//!
//! Produces gridded atmospheric observations with the same four attributes
//! the paper aggregates (temperature, relative humidity, precipitation,
//! snow depth) and — importantly for a *simulated* 1.1 TB store — is a pure
//! function of `(seed, block geohash, day)`: the backing store can expand
//! any block on demand and two reads of the same block always agree.
//!
//! Field structure is chosen so aggregates look like weather rather than
//! white noise: temperature follows a latitude gradient plus seasonal and
//! diurnal cycles; humidity anticorrelates with temperature; precipitation
//! is sparse and bursty; snow appears only at cold temperatures. The
//! *experiments* only depend on data volume per cell, but realistic fields
//! make the examples' heatmaps meaningful.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use stash_geo::{Geohash, TimeBin};
use stash_model::{AttrSchema, Observation};

/// Tuning knobs for the synthetic dataset.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Master seed; every block derives its RNG from this.
    pub seed: u64,
    /// Mean observations per square degree per day. NAM's 12 km grid with
    /// several collections per day is ~50–100 obs/deg²/day; benches default
    /// lower to keep laptop runs quick while preserving per-cell work.
    pub obs_per_deg2_per_day: f64,
    /// Hard cap on observations generated for one (block, day) pair, so a
    /// misconfigured density cannot explode memory.
    pub max_obs_per_block: usize,
    /// When positive, every sampled value is rounded to the nearest multiple
    /// of this quantum. With a power-of-two quantum (e.g. `1/64`) and the
    /// generator's bounded field magnitudes, summary sums and sums of
    /// squares stay exactly representable in `f64`, so folding the same
    /// rows in *any* grouping or order produces bit-identical aggregates —
    /// the property the live-ingest equivalence tests rely on. `0.0`
    /// (default) disables quantization.
    pub value_quantum: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0x57A5_4001,
            obs_per_deg2_per_day: 48.0,
            max_obs_per_block: 250_000,
            value_quantum: 0.0,
        }
    }
}

/// The generator: stateless, cheap to clone, safe to share across threads.
#[derive(Debug, Clone)]
pub struct NamGenerator {
    config: GeneratorConfig,
    schema: AttrSchema,
}

impl NamGenerator {
    pub fn new(config: GeneratorConfig) -> Self {
        NamGenerator {
            config,
            schema: AttrSchema::nam(),
        }
    }

    /// The NAM attribute schema (temperature, relative_humidity,
    /// precipitation, snow_depth).
    pub fn schema(&self) -> &AttrSchema {
        &self.schema
    }

    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Number of observations a block of the given geohash produces per day.
    /// Deterministic (no RNG) so planners can size fetches in advance.
    pub fn obs_per_day(&self, block: Geohash) -> usize {
        let area = block.bbox().area_deg2();
        ((area * self.config.obs_per_deg2_per_day).round() as usize)
            .clamp(1, self.config.max_obs_per_block)
    }

    /// Generate all observations for one geohash block over one UTC day bin.
    ///
    /// Deterministic: the RNG is seeded from `(seed, block bits, day index)`.
    /// This is [`NamGenerator::scan_rows`] collected into row structs.
    pub fn block_for_day(&self, block: Geohash, day: TimeBin) -> Vec<Observation> {
        let mut out = Vec::with_capacity(self.obs_per_day(block));
        self.scan_rows(block, day, |lat, lon, time, values| {
            out.push(Observation::new(lat, lon, time, values.to_vec()));
        });
        out
    }

    /// Stream one block-day's rows in generation order without
    /// materializing `Vec<Observation>`: the callback receives
    /// `(lat, lon, time, values)`, with `values` living in a buffer reused
    /// across rows. Exactly [`NamGenerator::obs_per_day`] rows are emitted,
    /// bit-identical to [`NamGenerator::block_for_day`] — flat-frame
    /// sources feed a `FrameBuilder` from this stream and skip the row
    /// structs entirely.
    pub fn scan_rows(
        &self,
        block: Geohash,
        day: TimeBin,
        mut f: impl FnMut(f64, f64, i64, &[f64]),
    ) {
        assert_eq!(
            day.res,
            stash_geo::TemporalRes::Day,
            "blocks are generated per day bin"
        );
        let n = self.obs_per_day(block);
        let mut rng = self.block_rng(block, day.idx);
        let b = block.bbox();
        let day_start = day.start();
        let mut values = Vec::with_capacity(self.schema.len());
        for _ in 0..n {
            let lat = b.min_lat + rng.gen::<f64>() * b.lat_extent();
            // Keep strictly inside the half-open box.
            let lat = lat.min(b.max_lat - 1e-9);
            let lon = (b.min_lon + rng.gen::<f64>() * b.lon_extent()).min(b.max_lon - 1e-9);
            let secs = rng.gen_range(0..86_400i64);
            let time = day_start + secs;
            self.sample_fields_into(lat, lon, day.idx, secs, &mut rng, &mut values);
            f(lat, lon, time, &values);
        }
    }

    /// Estimated serialized bytes of one (block, day): drives the simulated
    /// disk read cost.
    pub fn block_bytes(&self, block: Geohash) -> usize {
        // lat + lon + time + 4 attrs = 56 bytes per row.
        self.obs_per_day(block) * 56
    }

    /// Row index at which a block-day splits into the boot-resident base
    /// prefix and the streamed tail (live-ingest workloads). Deterministic,
    /// so every node agrees on the split; `fraction` is clamped to `[0, 1]`.
    pub fn split_point(&self, block: Geohash, fraction: f64) -> usize {
        let n = self.obs_per_day(block);
        ((n as f64) * fraction.clamp(0.0, 1.0)).floor() as usize
    }

    /// The base prefix of a block-day: the rows already on disk when a live
    /// cluster boots. `base_rows(b, d, f) ++ tail_rows(b, d, f)` is exactly
    /// [`NamGenerator::block_for_day`]`(b, d)`.
    pub fn base_rows(&self, block: Geohash, day: TimeBin, fraction: f64) -> Vec<Observation> {
        let mut rows = self.block_for_day(block, day);
        rows.truncate(self.split_point(block, fraction));
        rows
    }

    /// The streamed tail of a block-day: the rows a live-ingest stream
    /// appends after boot, in generation order.
    pub fn tail_rows(&self, block: Geohash, day: TimeBin, fraction: f64) -> Vec<Observation> {
        let rows = self.block_for_day(block, day);
        rows[self.split_point(block, fraction)..].to_vec()
    }

    fn block_rng(&self, block: Geohash, day_idx: i64) -> SmallRng {
        // SplitMix-style combination of the three seeds.
        let mut x = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(block.bits())
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(block.len() as u64)
            .wrapping_add((day_idx as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
        x ^= x >> 29;
        x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        x ^= x >> 32;
        SmallRng::seed_from_u64(x)
    }

    /// Sample the four NAM attributes at a location and time into a reused
    /// buffer (cleared first). RNG call sequence identical to the historical
    /// allocating version, so generated datasets are unchanged.
    fn sample_fields_into(
        &self,
        lat: f64,
        lon: f64,
        day_idx: i64,
        secs: i64,
        rng: &mut SmallRng,
        out: &mut Vec<f64>,
    ) {
        // Seasonal phase: day-of-year scaled to [0, 2π); northern-hemisphere
        // summer peaks mid-year.
        let doy = day_idx.rem_euclid(365) as f64;
        let season = (doy / 365.0 * std::f64::consts::TAU - std::f64::consts::FRAC_PI_2).sin();
        // Diurnal phase peaks mid-afternoon.
        let hour = secs as f64 / 3600.0;
        let diurnal = ((hour - 15.0) / 24.0 * std::f64::consts::TAU).cos();
        // Temperature (°C): latitude gradient + season + diurnal + local noise.
        let base = 28.0 - 0.55 * lat.abs();
        let hemisphere = if lat >= 0.0 { 1.0 } else { -1.0 };
        let temp = base
            + 12.0 * season * hemisphere
            + 4.0 * diurnal
            + 2.0 * (lon / 30.0).sin()
            + rng.gen_range(-3.0..3.0);
        // Relative humidity (%): anticorrelated with temperature.
        let rh = (85.0 - 0.8 * temp + rng.gen_range(-10.0..10.0)).clamp(2.0, 100.0);
        // Precipitation (mm): sparse, bursty.
        let precip = if rng.gen::<f64>() < 0.12 {
            rng.gen_range(0.1f64..25.0) * (rh / 100.0)
        } else {
            0.0
        };
        // Snow depth (cm): only below freezing.
        let snow = if temp < 0.0 {
            (-temp * rng.gen_range(0.2..1.5)).min(120.0)
        } else {
            0.0
        };
        out.clear();
        out.extend_from_slice(&[temp, rh, precip, snow]);
        let q = self.config.value_quantum;
        if q > 0.0 {
            for v in out.iter_mut() {
                *v = (*v / q).round() * q;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;
    use stash_geo::TemporalRes;
    use std::str::FromStr;

    fn day() -> TimeBin {
        TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0))
    }

    fn generator() -> NamGenerator {
        NamGenerator::new(GeneratorConfig {
            seed: 7,
            obs_per_deg2_per_day: 100.0,
            max_obs_per_block: 10_000,
            value_quantum: 0.0,
        })
    }

    #[test]
    fn deterministic_per_block() {
        let g = generator();
        let block = Geohash::from_str("9q8").unwrap();
        let a = g.block_for_day(block, day());
        let b = g.block_for_day(block, day());
        assert_eq!(a, b);
        assert_eq!(a.len(), g.obs_per_day(block));
        assert!(!a.is_empty());
    }

    #[test]
    fn different_blocks_and_days_differ() {
        let g = generator();
        let b1 = Geohash::from_str("9q8").unwrap();
        let b2 = Geohash::from_str("9q9").unwrap();
        assert_ne!(g.block_for_day(b1, day()), g.block_for_day(b2, day()));
        assert_ne!(
            g.block_for_day(b1, day()),
            g.block_for_day(b1, day().next())
        );
    }

    #[test]
    fn observations_stay_inside_block() {
        let g = generator();
        let block = Geohash::from_str("dr5").unwrap();
        let bb = block.bbox();
        let d = day();
        for obs in g.block_for_day(block, d) {
            assert!(
                bb.contains(obs.lat, obs.lon),
                "({},{}) outside {bb}",
                obs.lat,
                obs.lon
            );
            assert!(d.range().contains(obs.time));
            assert!(obs.matches_schema(g.schema()));
        }
    }

    #[test]
    fn fields_are_physically_plausible() {
        let g = generator();
        // Tropical block vs arctic block, same July day.
        let july = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 7, 15, 0, 0, 0));
        let tropics = Geohash::encode(5.0, -60.0, 3).unwrap();
        let arctic = Geohash::encode(72.0, -60.0, 3).unwrap();
        let mean_temp =
            |obs: &[Observation]| obs.iter().map(|o| o.values[0]).sum::<f64>() / obs.len() as f64;
        let t_tropics = mean_temp(&g.block_for_day(tropics, july));
        let t_arctic = mean_temp(&g.block_for_day(arctic, july));
        assert!(
            t_tropics > t_arctic + 10.0,
            "tropics {t_tropics} should be much warmer than arctic {t_arctic}"
        );
        // Snow only in cold places; humidity within physical bounds.
        for o in g.block_for_day(tropics, july) {
            assert!(
                (0.0..=100.0).contains(&o.values[1]),
                "humidity {}",
                o.values[1]
            );
            assert!(o.values[2] >= 0.0);
            assert!(o.values[3] >= 0.0);
        }
    }

    #[test]
    fn density_scales_with_area() {
        let g = generator();
        let coarse = Geohash::from_str("9q").unwrap();
        let fine = Geohash::from_str("9q8").unwrap();
        assert!(g.obs_per_day(coarse) >= g.obs_per_day(fine));
        // Cap respected.
        let tiny_cap = NamGenerator::new(GeneratorConfig {
            max_obs_per_block: 5,
            ..g.config().clone()
        });
        assert_eq!(tiny_cap.obs_per_day(coarse), 5);
    }

    #[test]
    fn block_bytes_tracks_rows() {
        let g = generator();
        let block = Geohash::from_str("9q8").unwrap();
        assert_eq!(g.block_bytes(block), g.obs_per_day(block) * 56);
    }

    #[test]
    #[should_panic(expected = "per day bin")]
    fn non_day_bin_rejected() {
        let g = generator();
        let month = TimeBin::containing(TemporalRes::Month, 0);
        g.block_for_day(Geohash::from_str("9q8").unwrap(), month);
    }

    #[test]
    fn base_and_tail_partition_the_block() {
        let g = generator();
        let block = Geohash::from_str("9q8").unwrap();
        for fraction in [0.0, 0.37, 0.5, 1.0] {
            let mut joined = g.base_rows(block, day(), fraction);
            joined.extend(g.tail_rows(block, day(), fraction));
            assert_eq!(joined, g.block_for_day(block, day()), "fraction {fraction}");
        }
        assert!(g.base_rows(block, day(), 0.0).is_empty());
        assert!(g.tail_rows(block, day(), 1.0).is_empty());
    }

    #[test]
    fn quantized_values_sum_exactly_in_any_order() {
        let g = NamGenerator::new(GeneratorConfig {
            value_quantum: 1.0 / 64.0,
            ..generator().config().clone()
        });
        let block = Geohash::from_str("9q8").unwrap();
        let rows = g.block_for_day(block, day());
        // Every value is an exact multiple of the quantum...
        for o in &rows {
            for &v in &o.values {
                assert_eq!((v * 64.0).round() / 64.0, v, "non-dyadic value {v}");
            }
        }
        // ...so folding a column forwards, backwards, or split in the middle
        // yields the same bits (the live-ingest equivalence property).
        let col: Vec<f64> = rows.iter().map(|o| o.values[0]).collect();
        let forward: f64 = col.iter().sum();
        let backward: f64 = col.iter().rev().sum();
        let split = col.len() / 3;
        let chunked = col[..split].iter().sum::<f64>() + col[split..].iter().sum::<f64>();
        assert_eq!(forward.to_bits(), backward.to_bits());
        assert_eq!(forward.to_bits(), chunked.to_bits());
    }
}
