//! # stash-ingest
//!
//! The live-ingestion subsystem (DESIGN.md §13): a deterministic producer
//! replays the dataset tail from a [`StreamSource`] and pumps it into a
//! cluster through per-owner append queues.
//!
//! Structure of one [`run_stream`] call:
//!
//! * the **producer** (the calling thread) walks the stream's batches
//!   round-robin across blocks, routes each batch to its owner's lane via
//!   [`AppendSink::owner_of`], and passes a per-lane *lag gate* first;
//! * each **lane** is an unbounded queue drained by one worker thread, so
//!   batches of one owner — and therefore of one block — stay strictly
//!   ordered. The worker assigns the per-block `seq` at send time (shed
//!   batches never consume a seq, keeping the sequence contiguous) and
//!   calls [`AppendSink::append`], which blocks until the cluster has
//!   durably applied the batch *and* invalidated every affected summary;
//! * the **lag gate** bounds unacknowledged rows per owner. When an owner
//!   falls behind by more than `lag_budget_rows`, the producer either
//!   waits ([`OverloadPolicy::Block`] — backpressure) or drops the batch
//!   ([`OverloadPolicy::Shed`] — bounded staleness, lossy).
//!
//! The pump is cluster-agnostic: `stash-cluster` provides the real sink
//! (`IngestClient`), and the tests here use an in-memory one.

use stash_data::StreamSource;
use stash_dfs::BlockKey;
use stash_model::Observation;
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What to do when an owner's unacknowledged backlog exceeds the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Backpressure: the producer waits for the owner to catch up. The
    /// stream slows down, nothing is lost.
    Block,
    /// Load shedding: the batch is dropped on the floor. The stream keeps
    /// real-time pace at the cost of permanently lost rows.
    Shed,
}

/// Pump configuration.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Max unacknowledged rows per owner before `policy` kicks in.
    pub lag_budget_rows: usize,
    pub policy: OverloadPolicy,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            lag_budget_rows: 4096,
            policy: OverloadPolicy::Block,
        }
    }
}

/// A batch could not be applied (after the sink's own retries/failover).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError(pub String);

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ingest error: {}", self.0)
    }
}

impl std::error::Error for IngestError {}

/// Where appended batches go. Implementations are expected to block in
/// [`AppendSink::append`] until the batch is durable (the cluster sink
/// retries and fails over internally and only returns once the owner's
/// positive ack — append applied, peers invalidated — arrived).
pub trait AppendSink: Send + Sync {
    /// Which lane (usually: which storage node) serializes this block.
    fn owner_of(&self, block: BlockKey) -> usize;
    /// Apply batch `seq` (0-based, contiguous per block) of this block.
    /// `last` marks the block's final batch: applying it seals the block,
    /// which lets continuous rollups advance their watermark (DESIGN.md
    /// §17). Shed batches are never re-sent, so a shed final batch leaves
    /// the block unsealed — honest lossy semantics.
    fn append(
        &self,
        block: BlockKey,
        seq: u64,
        rows: &[Observation],
        last: bool,
    ) -> Result<(), IngestError>;
}

/// Outcome counters of one [`run_stream`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Rows acknowledged by the sink.
    pub rows_sent: u64,
    pub batches_sent: u64,
    /// Rows dropped by [`OverloadPolicy::Shed`].
    pub rows_shed: u64,
    pub batches_shed: u64,
    /// Batches the sink rejected even after its internal retries; the
    /// block is abandoned (later batches would be out of order).
    pub batches_failed: u64,
    /// Producer time spent blocked on lag gates ([`OverloadPolicy::Block`]).
    pub blocked_ns: u64,
    /// High-water mark of any single owner's unacknowledged rows.
    pub max_lag_rows: usize,
}

/// Unacknowledged-row accounting for one owner (mutex + condvar so
/// [`OverloadPolicy::Block`] can wait without spinning).
struct LagGate {
    lag: Mutex<usize>,
    caught_up: Condvar,
}

impl LagGate {
    fn new() -> Self {
        LagGate {
            lag: Mutex::new(0),
            caught_up: Condvar::new(),
        }
    }

    /// Admit unless over budget; an idle lane always admits (a batch
    /// larger than the whole budget must not deadlock).
    fn try_admit(&self, rows: usize, budget: usize) -> Option<usize> {
        let mut lag = self.lag.lock().unwrap();
        if *lag > 0 && *lag + rows > budget {
            return None;
        }
        *lag += rows;
        Some(*lag)
    }

    /// Wait until the batch fits, then admit. Returns (time blocked, lag
    /// after admission).
    fn admit_blocking(&self, rows: usize, budget: usize) -> (Duration, usize) {
        let start = Instant::now();
        let mut lag = self.lag.lock().unwrap();
        while *lag > 0 && *lag + rows > budget {
            lag = self.caught_up.wait(lag).unwrap();
        }
        *lag += rows;
        (start.elapsed(), *lag)
    }

    fn release(&self, rows: usize) {
        let mut lag = self.lag.lock().unwrap();
        *lag -= rows;
        self.caught_up.notify_all();
    }
}

/// Per-worker tallies, merged into [`IngestStats`] at join.
#[derive(Default)]
struct LaneStats {
    rows_sent: u64,
    batches_sent: u64,
    batches_failed: u64,
}

/// Drive a whole stream into the sink. Returns once every admitted batch
/// has been acknowledged (or failed terminally) — so when this returns
/// under [`OverloadPolicy::Block`], the cluster holds the complete stream
/// and no cache anywhere still serves pre-stream summaries as fresh.
pub fn run_stream(
    source: &StreamSource,
    sink: Arc<dyn AppendSink>,
    config: IngestConfig,
) -> IngestStats {
    assert!(config.lag_budget_rows > 0, "lag budget must be positive");
    // One lane per distinct owner among the stream's blocks.
    let owners: HashSet<usize> = source
        .blocks()
        .iter()
        .map(|&(geohash, day)| sink.owner_of(BlockKey { geohash, day }))
        .collect();
    type Lane = (
        mpsc::Sender<(BlockKey, Vec<Observation>, bool)>,
        Arc<LagGate>,
    );
    let mut lanes: HashMap<usize, Lane> = HashMap::new();
    let mut workers = Vec::new();
    for owner in owners {
        let (tx, rx) = mpsc::channel::<(BlockKey, Vec<Observation>, bool)>();
        let gate = Arc::new(LagGate::new());
        lanes.insert(owner, (tx, Arc::clone(&gate)));
        let sink = Arc::clone(&sink);
        workers.push(
            std::thread::Builder::new()
                .name(format!("stash-ingest-{owner}"))
                .spawn(move || {
                    let mut stats = LaneStats::default();
                    // Per-block seq counters live here — assigned only to
                    // batches that made it past the gate, so shedding
                    // leaves no holes in the sequence.
                    let mut seqs: HashMap<BlockKey, u64> = HashMap::new();
                    let mut dead: HashSet<BlockKey> = HashSet::new();
                    while let Ok((block, rows, last)) = rx.recv() {
                        let n = rows.len();
                        if !dead.contains(&block) {
                            let seq = seqs.entry(block).or_insert(0);
                            match sink.append(block, *seq, &rows, last) {
                                Ok(()) => {
                                    *seq += 1;
                                    stats.rows_sent += n as u64;
                                    stats.batches_sent += 1;
                                }
                                Err(_) => {
                                    // Later batches of this block would be
                                    // out of order; abandon the block.
                                    dead.insert(block);
                                    stats.batches_failed += 1;
                                }
                            }
                        } else {
                            stats.batches_failed += 1;
                        }
                        gate.release(n);
                    }
                    stats
                })
                .expect("spawn ingest lane"),
        );
    }

    let mut stats = IngestStats::default();
    for batch in source.batches() {
        let block = BlockKey {
            geohash: batch.block,
            day: batch.day,
        };
        let (tx, gate) = &lanes[&sink.owner_of(block)];
        let n = batch.rows.len();
        let admitted_lag = match config.policy {
            OverloadPolicy::Block => {
                let (blocked, lag) = gate.admit_blocking(n, config.lag_budget_rows);
                stats.blocked_ns += blocked.as_nanos() as u64;
                lag
            }
            OverloadPolicy::Shed => match gate.try_admit(n, config.lag_budget_rows) {
                Some(lag) => lag,
                None => {
                    stats.rows_shed += n as u64;
                    stats.batches_shed += 1;
                    continue;
                }
            },
        };
        stats.max_lag_rows = stats.max_lag_rows.max(admitted_lag);
        tx.send((block, batch.rows, batch.last))
            .expect("lane worker alive");
    }
    drop(lanes); // close every lane; workers drain and exit
    for w in workers {
        let lane = w.join().expect("ingest lane panicked");
        stats.rows_sent += lane.rows_sent;
        stats.batches_sent += lane.batches_sent;
        stats.batches_failed += lane.batches_failed;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_data::{GeneratorConfig, NamGenerator, StreamConfig};
    use stash_geo::time::epoch_seconds;
    use stash_geo::{Geohash, TemporalRes, TimeBin};
    use std::str::FromStr;

    /// In-memory sink: applies the `BlockSource::append` seq contract and
    /// optionally sleeps per batch to simulate a slow cluster.
    struct MemSink {
        n_owners: usize,
        delay: Duration,
        applied: Mutex<HashMap<BlockKey, (u64, Vec<Observation>)>>,
        sealed: Mutex<HashSet<BlockKey>>,
    }

    impl MemSink {
        fn new(n_owners: usize, delay: Duration) -> Self {
            MemSink {
                n_owners,
                delay,
                applied: Mutex::new(HashMap::new()),
                sealed: Mutex::new(HashSet::new()),
            }
        }

        fn rows_of(&self, block: BlockKey) -> Vec<Observation> {
            self.applied
                .lock()
                .unwrap()
                .get(&block)
                .map(|(_, rows)| rows.clone())
                .unwrap_or_default()
        }
    }

    impl AppendSink for MemSink {
        fn owner_of(&self, block: BlockKey) -> usize {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            block.geohash.hash(&mut h);
            (h.finish() % self.n_owners as u64) as usize
        }

        fn append(
            &self,
            block: BlockKey,
            seq: u64,
            rows: &[Observation],
            last: bool,
        ) -> Result<(), IngestError> {
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            let mut applied = self.applied.lock().unwrap();
            let entry = applied.entry(block).or_insert_with(|| (0, Vec::new()));
            if seq != entry.0 {
                return Err(IngestError(format!(
                    "seq {seq} out of order (expected {})",
                    entry.0
                )));
            }
            entry.0 += 1;
            entry.1.extend(rows.iter().cloned());
            if last {
                self.sealed.lock().unwrap().insert(block);
            }
            Ok(())
        }
    }

    fn stream(batch_rows: usize) -> StreamSource {
        let generator = NamGenerator::new(GeneratorConfig {
            seed: 5,
            obs_per_deg2_per_day: 60.0,
            max_obs_per_block: 5_000,
            value_quantum: 1.0 / 64.0,
        });
        let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
        let blocks = ["9q8", "9q9", "9qb", "9qc"]
            .iter()
            .map(|g| (Geohash::from_str(g).unwrap(), day))
            .collect();
        StreamSource::new(
            generator,
            blocks,
            StreamConfig {
                base_fraction: 0.5,
                batch_rows,
            },
        )
    }

    #[test]
    fn block_policy_delivers_the_whole_stream_in_order() {
        let src = stream(128);
        let sink = Arc::new(MemSink::new(3, Duration::ZERO));
        let stats = run_stream(
            &src,
            Arc::clone(&sink) as Arc<dyn AppendSink>,
            IngestConfig {
                lag_budget_rows: 512,
                policy: OverloadPolicy::Block,
            },
        );
        assert_eq!(stats.rows_sent as usize, src.total_rows());
        assert_eq!(stats.rows_shed, 0);
        assert_eq!(stats.batches_failed, 0);
        for &(geohash, day) in src.blocks() {
            let got = sink.rows_of(BlockKey { geohash, day });
            assert_eq!(got, src.generator().tail_rows(geohash, day, 0.5));
        }
        assert_eq!(
            sink.sealed.lock().unwrap().len(),
            src.blocks().len(),
            "a lossless stream seals every block"
        );
    }

    #[test]
    fn shed_policy_drops_under_lag_but_keeps_seqs_contiguous() {
        let src = stream(64);
        // One slow owner lane and a budget below two batches forces sheds.
        let sink = Arc::new(MemSink::new(1, Duration::from_millis(2)));
        let stats = run_stream(
            &src,
            Arc::clone(&sink) as Arc<dyn AppendSink>,
            IngestConfig {
                lag_budget_rows: 100,
                policy: OverloadPolicy::Shed,
            },
        );
        assert!(stats.rows_shed > 0, "slow sink must shed");
        assert_eq!(
            stats.rows_sent + stats.rows_shed,
            src.total_rows() as u64,
            "every row is either delivered or accounted as shed"
        );
        assert_eq!(stats.batches_failed, 0, "sheds must not break seq order");
        let delivered: usize = src
            .blocks()
            .iter()
            .map(|&(geohash, day)| sink.rows_of(BlockKey { geohash, day }).len())
            .sum();
        assert_eq!(delivered as u64, stats.rows_sent);
    }

    #[test]
    fn block_policy_backpressures_instead_of_shedding() {
        let src = stream(64);
        let sink = Arc::new(MemSink::new(1, Duration::from_millis(1)));
        let stats = run_stream(
            &src,
            Arc::clone(&sink) as Arc<dyn AppendSink>,
            IngestConfig {
                lag_budget_rows: 100,
                policy: OverloadPolicy::Block,
            },
        );
        assert_eq!(stats.rows_shed, 0);
        assert_eq!(stats.rows_sent as usize, src.total_rows());
        assert!(stats.blocked_ns > 0, "tight budget must block the producer");
        assert!(
            stats.max_lag_rows <= 100 + 64,
            "lag stays within budget plus one batch"
        );
    }
}
