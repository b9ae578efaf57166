//! The temporal half of STASH's spatiotemporal labels.
//!
//! STASH's temporal hierarchy mirrors its spatial one: a query names a
//! *temporal resolution* (year / month / day / hour — the paper's examples
//! use 'Month' and 'Day of the Month', §IV-B, §VIII-A) and every Cell carries
//! one calendar bin at that resolution. Hierarchical edges follow calendar
//! nesting (a month has 28–31 day children; a day has 24 hour children) and
//! lateral edges are the chronologically previous / next bin (Fig. 1b:
//! `2015-03` has temporal neighbors `2015-02` and `2015-04`).
//!
//! All arithmetic is proleptic-Gregorian civil calendar math on integer bin
//! indices (Howard Hinnant's `days_from_civil` algorithm) — no system clock,
//! no timezone: observation timestamps are UTC epoch seconds.

/// Temporal resolution of a Cell, coarsest to finest.
///
/// The discriminant is the resolution *index* used by STASH level arithmetic
/// (coarser = smaller, like a shorter geohash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum TemporalRes {
    Year = 0,
    Month = 1,
    Day = 2,
    Hour = 3,
}

/// Number of temporal resolutions in the hierarchy.
pub const NUM_TEMPORAL_RES: u8 = 4;

impl TemporalRes {
    /// All resolutions, coarsest first.
    pub const ALL: [TemporalRes; 4] = [
        TemporalRes::Year,
        TemporalRes::Month,
        TemporalRes::Day,
        TemporalRes::Hour,
    ];

    /// Resolution index (0 = coarsest).
    #[inline]
    pub fn index(self) -> u8 {
        self as u8
    }

    /// Build from an index.
    pub fn from_index(i: u8) -> Option<TemporalRes> {
        TemporalRes::ALL.get(i as usize).copied()
    }

    /// One step coarser, or `None` at `Year`.
    #[inline]
    pub fn coarser(self) -> Option<TemporalRes> {
        TemporalRes::from_index(self.index().checked_sub(1)?)
    }

    /// One step finer, or `None` at `Hour`.
    #[inline]
    pub fn finer(self) -> Option<TemporalRes> {
        TemporalRes::from_index(self.index() + 1)
    }
}

impl std::fmt::Display for TemporalRes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TemporalRes::Year => "year",
            TemporalRes::Month => "month",
            TemporalRes::Day => "day",
            TemporalRes::Hour => "hour",
        })
    }
}

// ---------------------------------------------------------------------------
// Civil calendar arithmetic (proleptic Gregorian, no leap seconds).
// ---------------------------------------------------------------------------

/// Days since 1970-01-01 for a civil date. Hinnant's algorithm; valid for
/// all i32 years.
pub fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    debug_assert!((1..=12).contains(&m), "month {m}");
    debug_assert!((1..=31).contains(&d), "day {d}");
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m as i64 + 9) % 12; // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Civil date `(year, month, day)` for days since 1970-01-01.
pub fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Days in the given month of the given year.
pub fn days_in_month(y: i64, m: u32) -> u32 {
    let (ny, nm) = if m == 12 { (y + 1, 1) } else { (y, m + 1) };
    (days_from_civil(ny, nm, 1) - days_from_civil(y, m, 1)) as u32
}

/// Epoch seconds for a civil date-time (UTC).
pub fn epoch_seconds(y: i64, m: u32, d: u32, hh: u32, mm: u32, ss: u32) -> i64 {
    days_from_civil(y, m, d) * 86_400 + (hh as i64) * 3600 + (mm as i64) * 60 + ss as i64
}

// ---------------------------------------------------------------------------
// Time bins
// ---------------------------------------------------------------------------

/// A half-open UTC time interval `[start, end)` in epoch seconds — the
/// `Query_Time` of a STASH query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    pub start: i64,
    pub end: i64,
}

impl TimeRange {
    /// Construct; `start` must not exceed `end`.
    pub fn new(start: i64, end: i64) -> Option<TimeRange> {
        (start <= end).then_some(TimeRange { start, end })
    }

    /// A whole UTC day, like the paper's fixed `2015-02-02` query time.
    pub fn whole_day(y: i64, m: u32, d: u32) -> TimeRange {
        let s = epoch_seconds(y, m, d, 0, 0, 0);
        TimeRange {
            start: s,
            end: s + 86_400,
        }
    }

    #[inline]
    pub fn duration_secs(&self) -> i64 {
        self.end - self.start
    }

    #[inline]
    pub fn contains(&self, t: i64) -> bool {
        t >= self.start && t < self.end
    }

    #[inline]
    pub fn intersects(&self, other: &TimeRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    #[inline]
    pub fn encloses(&self, other: &TimeRange) -> bool {
        self.start <= other.start && self.end >= other.end
    }
}

/// A calendar bin at one temporal resolution: the temporal label of a Cell.
///
/// The index is resolution-specific: calendar year for `Year`,
/// `year*12 + month0` for `Month`, days-since-epoch for `Day`,
/// `days*24 + hour` for `Hour`. Indexes are consecutive integers, so lateral
/// neighbors are `idx ± 1` and range covers are integer intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeBin {
    pub res: TemporalRes,
    pub idx: i64,
}

impl TimeBin {
    /// The bin `idx` at `res`, or `None` when its start or end second lies
    /// outside `i64` — the checked constructor for indexes read off the
    /// wire, so [`TimeBin::start`] and [`TimeBin::end`] can never overflow.
    pub fn new(res: TemporalRes, idx: i64) -> Option<TimeBin> {
        let first = TimeBin::containing(res, i64::MIN).idx;
        let last = TimeBin::containing(res, i64::MAX).idx;
        (first < idx && idx < last).then_some(TimeBin { res, idx })
    }

    /// The bin at resolution `res` containing epoch second `t`.
    pub fn containing(res: TemporalRes, t: i64) -> TimeBin {
        let days = t.div_euclid(86_400);
        let idx = match res {
            TemporalRes::Year => civil_from_days(days).0,
            TemporalRes::Month => {
                let (y, m, _) = civil_from_days(days);
                y * 12 + (m as i64 - 1)
            }
            TemporalRes::Day => days,
            TemporalRes::Hour => days * 24 + t.rem_euclid(86_400) / 3600,
        };
        TimeBin { res, idx }
    }

    /// Start epoch second of this bin.
    pub fn start(&self) -> i64 {
        match self.res {
            TemporalRes::Year => days_from_civil(self.idx, 1, 1) * 86_400,
            TemporalRes::Month => {
                let y = self.idx.div_euclid(12);
                let m = self.idx.rem_euclid(12) as u32 + 1;
                days_from_civil(y, m, 1) * 86_400
            }
            TemporalRes::Day => self.idx * 86_400,
            TemporalRes::Hour => self.idx * 3600,
        }
    }

    /// One-past-the-end epoch second of this bin.
    pub fn end(&self) -> i64 {
        self.next().start()
    }

    /// The full `[start, end)` interval.
    pub fn range(&self) -> TimeRange {
        TimeRange {
            start: self.start(),
            end: self.end(),
        }
    }

    /// Chronologically next bin (lateral edge).
    #[inline]
    pub fn next(&self) -> TimeBin {
        TimeBin {
            res: self.res,
            idx: self.idx + 1,
        }
    }

    /// Chronologically previous bin (lateral edge).
    #[inline]
    pub fn prev(&self) -> TimeBin {
        TimeBin {
            res: self.res,
            idx: self.idx - 1,
        }
    }

    /// Both temporal neighbors, previous first (Fig. 1b).
    pub fn neighbors(&self) -> [TimeBin; 2] {
        [self.prev(), self.next()]
    }

    /// The enclosing bin one resolution coarser (temporal parent), or `None`
    /// at `Year`.
    pub fn parent(&self) -> Option<TimeBin> {
        let res = self.res.coarser()?;
        Some(TimeBin::containing(res, self.start()))
    }

    /// The enclosing bin at a coarser-or-equal resolution — the temporal
    /// half of upward derivation. Unlike chaining [`TimeBin::parent`], this
    /// avoids the start-second round trip where pure index arithmetic
    /// suffices (Hour→Day is a division, Month→Year likewise); only hops
    /// that change calendar unit go through civil math. `None` if `res` is
    /// *finer* than this bin.
    pub fn coarsened(&self, res: TemporalRes) -> Option<TimeBin> {
        if res > self.res {
            return None;
        }
        if res == self.res {
            return Some(*self);
        }
        let days = match self.res {
            TemporalRes::Hour => self.idx.div_euclid(24),
            TemporalRes::Day => self.idx,
            TemporalRes::Month => {
                // Month coarsens only to Year: a pure division.
                return Some(TimeBin {
                    res: TemporalRes::Year,
                    idx: self.idx.div_euclid(12),
                });
            }
            TemporalRes::Year => unreachable!("res < Year has no coarser target"),
        };
        let idx = match res {
            TemporalRes::Day => days,
            TemporalRes::Month => {
                let (y, m, _) = civil_from_days(days);
                y * 12 + (m as i64 - 1)
            }
            TemporalRes::Year => civil_from_days(days).0,
            TemporalRes::Hour => unreachable!("res < self.res"),
        };
        Some(TimeBin { res, idx })
    }

    /// The nested bins one resolution finer (temporal children), or `None`
    /// at `Hour`. A year has 12 children, a month 28–31, a day 24.
    pub fn children(&self) -> Option<Vec<TimeBin>> {
        let res = self.res.finer()?;
        Some(TimeBin::cover_range(res, self.range()))
    }

    /// How many children this bin has without materializing them.
    pub fn child_count(&self) -> Option<u32> {
        match self.res {
            TemporalRes::Year => Some(12),
            TemporalRes::Month => {
                let y = self.idx.div_euclid(12);
                let m = self.idx.rem_euclid(12) as u32 + 1;
                Some(days_in_month(y, m))
            }
            TemporalRes::Day => Some(24),
            TemporalRes::Hour => None,
        }
    }

    /// Is `self` temporally nested within (or equal to) `ancestor`?
    pub fn is_within(&self, ancestor: &TimeBin) -> bool {
        if ancestor.res > self.res {
            return false;
        }
        ancestor.range().encloses(&self.range())
    }

    /// All bins at `res` intersecting the half-open range. Empty for empty
    /// ranges.
    pub fn cover_range(res: TemporalRes, range: TimeRange) -> Vec<TimeBin> {
        if range.start >= range.end {
            return Vec::new();
        }
        let first = TimeBin::containing(res, range.start);
        let last = TimeBin::containing(res, range.end - 1);
        (first.idx..=last.idx)
            .map(|idx| TimeBin { res, idx })
            .collect()
    }

    /// Number of bins `cover_range` would return, without allocating.
    pub fn cover_range_len(res: TemporalRes, range: TimeRange) -> usize {
        if range.start >= range.end {
            return 0;
        }
        let first = TimeBin::containing(res, range.start);
        let last = TimeBin::containing(res, range.end - 1);
        (last.idx - first.idx + 1) as usize
    }
}

impl std::fmt::Display for TimeBin {
    /// Paper-style labels: `2015`, `2015-03`, `2015-03-09`, `2015-03-09T14`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.res {
            TemporalRes::Year => write!(f, "{}", self.idx),
            TemporalRes::Month => {
                let y = self.idx.div_euclid(12);
                let m = self.idx.rem_euclid(12) + 1;
                write!(f, "{y}-{m:02}")
            }
            TemporalRes::Day => {
                let (y, m, d) = civil_from_days(self.idx);
                write!(f, "{y}-{m:02}-{d:02}")
            }
            TemporalRes::Hour => {
                let (y, m, d) = civil_from_days(self.idx.div_euclid(24));
                let h = self.idx.rem_euclid(24);
                write!(f, "{y}-{m:02}-{d:02}T{h:02}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_roundtrip_epoch() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(days_from_civil(2015, 3, 1), 16_495);
        assert_eq!(civil_from_days(16_495), (2015, 3, 1));
        // Exhaustive roundtrip over several decades.
        for z in -20_000..40_000 {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z);
        }
    }

    #[test]
    fn leap_years() {
        assert_eq!(days_in_month(2016, 2), 29);
        assert_eq!(days_in_month(2015, 2), 28);
        assert_eq!(days_in_month(2000, 2), 29); // divisible by 400
        assert_eq!(days_in_month(1900, 2), 28); // divisible by 100 only
        assert_eq!(days_in_month(2015, 4), 30);
        assert_eq!(days_in_month(2015, 12), 31);
    }

    #[test]
    fn containing_and_bounds() {
        let t = epoch_seconds(2015, 3, 9, 14, 30, 0);
        let hour = TimeBin::containing(TemporalRes::Hour, t);
        assert_eq!(hour.to_string(), "2015-03-09T14");
        assert!(hour.range().contains(t));
        let day = TimeBin::containing(TemporalRes::Day, t);
        assert_eq!(day.to_string(), "2015-03-09");
        assert_eq!(day.range().duration_secs(), 86_400);
        let month = TimeBin::containing(TemporalRes::Month, t);
        assert_eq!(month.to_string(), "2015-03");
        let year = TimeBin::containing(TemporalRes::Year, t);
        assert_eq!(year.to_string(), "2015");
        assert_eq!(year.range().duration_secs(), 365 * 86_400);
    }

    #[test]
    fn paper_example_month_neighbors() {
        // Fig. 1b: 2015-03 has temporal neighbors 2015-02 and 2015-04.
        let bin = TimeBin::containing(TemporalRes::Month, epoch_seconds(2015, 3, 15, 0, 0, 0));
        let [prev, next] = bin.neighbors();
        assert_eq!(prev.to_string(), "2015-02");
        assert_eq!(next.to_string(), "2015-04");
    }

    #[test]
    fn month_neighbors_cross_year() {
        let jan = TimeBin::containing(TemporalRes::Month, epoch_seconds(2015, 1, 1, 0, 0, 0));
        let [dec, feb] = jan.neighbors();
        assert_eq!(dec.to_string(), "2014-12");
        assert_eq!(feb.to_string(), "2015-02");
    }

    #[test]
    fn parent_child_nesting() {
        let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2016, 2, 29, 0, 0, 0));
        let month = day.parent().unwrap();
        assert_eq!(month.to_string(), "2016-02");
        let kids = month.children().unwrap();
        assert_eq!(kids.len(), 29);
        assert!(kids.contains(&day));
        for k in &kids {
            assert_eq!(k.parent().unwrap(), month);
            assert!(k.is_within(&month));
        }
        assert_eq!(month.child_count(), Some(29));
        // Children tile the parent exactly.
        assert_eq!(kids.first().unwrap().start(), month.start());
        assert_eq!(kids.last().unwrap().end(), month.end());

        let year = month.parent().unwrap();
        assert_eq!(year.children().unwrap().len(), 12);
        assert_eq!(day.children().unwrap().len(), 24);
        let hour = TimeBin::containing(TemporalRes::Hour, 0);
        assert!(hour.children().is_none());
        assert!(year.parent().is_none());
    }

    #[test]
    fn coarsened_equals_containing_of_start() {
        // Spot-check each resolution pair against the reference definition
        // over a span that crosses month, year, and pre-epoch boundaries.
        for t in (-40 * 86_400..400 * 86_400).step_by(7 * 3600 + 11) {
            for from in TemporalRes::ALL {
                let bin = TimeBin::containing(from, t);
                for to in TemporalRes::ALL {
                    let got = bin.coarsened(to);
                    if to > from {
                        assert_eq!(got, None, "{bin:?} -> {to:?}");
                    } else {
                        assert_eq!(
                            got,
                            Some(TimeBin::containing(to, bin.start())),
                            "{bin:?} -> {to:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn coarsened_same_res_is_identity() {
        let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
        assert_eq!(day.coarsened(TemporalRes::Day), Some(day));
        assert_eq!(day.coarsened(TemporalRes::Hour), None);
    }

    #[test]
    fn checked_bins_start_and_end_inside_i64() {
        for res in TemporalRes::ALL {
            let first = TimeBin::containing(res, i64::MIN).idx;
            let last = TimeBin::containing(res, i64::MAX).idx;
            for idx in [first + 1, -1, 0, 1, last - 1] {
                let bin = TimeBin::new(res, idx).expect("a bin that fits");
                assert!(bin.start() < bin.end(), "{res:?} {idx}");
            }
            for idx in [i64::MIN, first, last, i64::MAX] {
                assert_eq!(TimeBin::new(res, idx), None, "{res:?} {idx}");
            }
        }
        assert_eq!(TimeBin::new(TemporalRes::Hour, i64::MAX / 1000), None);
        let last_hour = TimeBin::new(TemporalRes::Hour, i64::MAX / 3600 - 1).unwrap();
        assert_eq!(last_hour.end(), i64::MAX / 3600 * 3600);
    }

    #[test]
    fn cover_range_matches_len() {
        let range = TimeRange::new(
            epoch_seconds(2015, 1, 30, 12, 0, 0),
            epoch_seconds(2015, 3, 2, 0, 0, 0),
        )
        .unwrap();
        for res in TemporalRes::ALL {
            let bins = TimeBin::cover_range(res, range);
            assert_eq!(bins.len(), TimeBin::cover_range_len(res, range));
            // Bins tile the range: first contains start, last contains end-1.
            assert!(bins.first().unwrap().range().contains(range.start));
            assert!(bins.last().unwrap().range().contains(range.end - 1));
            // Consecutive.
            for w in bins.windows(2) {
                assert_eq!(w[0].idx + 1, w[1].idx);
            }
        }
        assert_eq!(TimeBin::cover_range(TemporalRes::Month, range).len(), 3); // Jan, Feb, Mar
        assert_eq!(TimeBin::cover_range(TemporalRes::Year, range).len(), 1);
    }

    #[test]
    fn cover_empty_range() {
        let r = TimeRange::new(100, 100).unwrap();
        assert!(TimeBin::cover_range(TemporalRes::Day, r).is_empty());
        assert_eq!(TimeBin::cover_range_len(TemporalRes::Day, r), 0);
    }

    #[test]
    fn whole_day_is_one_day_bin() {
        let r = TimeRange::whole_day(2015, 2, 2);
        let bins = TimeBin::cover_range(TemporalRes::Day, r);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].to_string(), "2015-02-02");
        assert_eq!(TimeBin::cover_range(TemporalRes::Hour, r).len(), 24);
    }

    #[test]
    fn negative_epoch_times() {
        // Pre-1970 timestamps must bin correctly (div_euclid semantics).
        let t = epoch_seconds(1969, 12, 31, 23, 0, 0);
        let day = TimeBin::containing(TemporalRes::Day, t);
        assert_eq!(day.to_string(), "1969-12-31");
        let hour = TimeBin::containing(TemporalRes::Hour, t);
        assert_eq!(hour.to_string(), "1969-12-31T23");
        assert!(hour.range().contains(t));
    }

    #[test]
    fn resolution_ordering() {
        assert!(TemporalRes::Year < TemporalRes::Hour);
        assert_eq!(TemporalRes::Month.finer(), Some(TemporalRes::Day));
        assert_eq!(TemporalRes::Year.coarser(), None);
        assert_eq!(TemporalRes::Hour.finer(), None);
        for (i, r) in TemporalRes::ALL.iter().enumerate() {
            assert_eq!(TemporalRes::from_index(i as u8), Some(*r));
            assert_eq!(r.index() as usize, i);
        }
    }

    #[test]
    fn time_range_ops() {
        let a = TimeRange::new(0, 100).unwrap();
        let b = TimeRange::new(50, 150).unwrap();
        let c = TimeRange::new(100, 200).unwrap();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c)); // half-open: touching is disjoint
        assert!(a.encloses(&TimeRange::new(10, 90).unwrap()));
        assert!(!a.encloses(&b));
        assert!(TimeRange::new(5, 2).is_none());
    }
}
