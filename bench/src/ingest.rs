//! The producer side of `ingest_mixed`: live days streamed one after the
//! other through a timing wrapper around the cluster's ingest sink.

use crate::shape::{self, Workload};
use stash_cluster::{run_stream, AppendSink, IngestClient, IngestConfig, IngestError, SimCluster};
use stash_data::{NamGenerator, StreamConfig, StreamSource};
use stash_dfs::BlockKey;
use stash_model::Observation;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Times every `append` call → ack; the sink under test stays the public
/// [`IngestClient`].
struct TimedSink {
    inner: IngestClient,
    t0: Instant,
    acks: Mutex<Vec<Ack>>,
}

/// One `append` call as the producer saw it.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// Completion time since the measured phase started.
    pub done_ns: u64,
    pub rows: u32,
    /// Call → ack latency; `u64::MAX` for a batch that was never
    /// acknowledged.
    pub ack_ns: u64,
}

impl AppendSink for TimedSink {
    fn owner_of(&self, block: BlockKey) -> usize {
        self.inner.owner_of(block)
    }

    fn append(
        &self,
        block: BlockKey,
        seq: u64,
        rows: &[Observation],
        last: bool,
    ) -> Result<(), IngestError> {
        let t = Instant::now();
        let r = self.inner.append(block, seq, rows, last);
        let ack_ns = if r.is_ok() {
            t.elapsed().as_nanos() as u64
        } else {
            u64::MAX
        };
        self.acks.lock().expect("ack log poisoned").push(Ack {
            done_ns: self.t0.elapsed().as_nanos() as u64,
            rows: rows.len() as u32,
            ack_ns,
        });
        r
    }
}

/// What the producer did during the measured phase.
#[derive(Debug, Default)]
pub struct StreamOutcome {
    /// Live days streamed to completion (each is sealed afterwards).
    pub days_streamed: i64,
    pub rows_offered: u64,
    pub rows_acked: u64,
    pub batches_acked: u64,
    /// Batches shed, rejected or never acknowledged.
    pub batches_failed: u64,
    pub blocked_ns: u64,
    pub max_lag_rows: usize,
    pub acks: Vec<Ack>,
    pub wall_s: f64,
}

/// Stream live days in order until `seconds` have passed, finishing the
/// day in flight (a day is the unit a feed seals), then stop the reader.
pub fn produce(cluster: &SimCluster, seed: u64, seconds: f64, stop: &AtomicBool) -> StreamOutcome {
    let t0 = Instant::now();
    let sink = Arc::new(TimedSink {
        inner: cluster.ingest_client(),
        t0,
        acks: Mutex::new(Vec::new()),
    });
    let generator = shape::generator(Workload::IngestMixed, seed);
    let mut out = StreamOutcome::default();
    for d in shape::INGEST_SEALED_DAYS..shape::INGEST_DAYS {
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let source = StreamSource::new(
            NamGenerator::new(generator.clone()),
            shape::ingest_blocks(shape::ingest_day(d)),
            StreamConfig {
                base_fraction: shape::INGEST_BASE_FRACTION,
                batch_rows: shape::INGEST_BATCH_ROWS,
            },
        );
        let stats = run_stream(&source, sink.clone(), IngestConfig::default());
        out.days_streamed += 1;
        out.rows_offered += source.total_rows() as u64;
        out.rows_acked += stats.rows_sent;
        out.batches_acked += stats.batches_sent;
        out.batches_failed += stats.batches_failed + stats.batches_shed;
        out.blocked_ns += stats.blocked_ns;
        out.max_lag_rows = out.max_lag_rows.max(stats.max_lag_rows);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    out.acks = std::mem::take(&mut *sink.acks.lock().expect("ack log poisoned"));
    out
}
