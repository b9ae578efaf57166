//! The cluster wire protocol.
//!
//! Every interaction of Fig. 4 and Fig. 5 is one of these messages. The
//! `wire_size` figures feed the fabric's bandwidth model — Cells and key
//! lists dominate, matching the real system where replication payloads and
//! aggregation results are the bulk of traffic. Since PR 7 the sizes are
//! *exact*: every payload is priced as its `stash-flat` word encoding
//! (16-byte list envelope = magic + count, 24-byte flat [`CellKey`], and
//! [`stash_model::CellSummary::wire_bytes`] per summary), and partials
//! fragments actually travel as one contiguous [`FlatPartials`] buffer.

use stash_dfs::BlockKey;
use stash_model::flat::KEY_WORDS;
use stash_model::{Cell, CellKey, CellSummary, FlatPartials, Observation, QueryResult};
use stash_net::NodeId;
use stash_obs::StageTimes;
use std::sync::Arc;

/// Bytes of the flat list envelope: one magic word plus one count word.
pub const LIST_ENVELOPE_BYTES: usize = 16;

/// Exact bytes of one flat-encoded [`CellKey`].
pub const KEY_BYTES: usize = KEY_WORDS * 8;

/// A typed cluster-path failure. Distinguishing *why* an RPC failed is what
/// lets the robustness layer react correctly: timeouts and unreachable
/// peers trigger retry/failover, a refused reroute triggers a direct
/// resend, while storage and query errors are final.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A sub-RPC missed its deadline after all retries.
    Timeout { node: usize, op: &'static str },
    /// The fabric refused to carry the message — the peer is crashed (or
    /// the fabric is shutting down).
    Unreachable { node: usize },
    /// A rerouted (guest-graph) subquery reached a helper that no longer
    /// hosts the Cells; the asker must resend to the owner with
    /// `allow_reroute` cleared.
    RerouteRefused { helper: usize },
    /// The storage layer failed (block planning, incomplete fetch).
    Storage(String),
    /// The query itself could not be planned.
    BadQuery(String),
    /// Protocol violation: a reply of the wrong kind for the wait, or a
    /// payload that does not decode.
    Protocol(String),
}

impl ClusterError {
    /// Would a retry (possibly elsewhere) plausibly succeed? Timeouts,
    /// dead peers, and refused reroutes are conditions of the moment;
    /// storage/query/protocol errors are deterministic and final.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            ClusterError::Timeout { .. }
                | ClusterError::Unreachable { .. }
                | ClusterError::RerouteRefused { .. }
        )
    }
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Timeout { node, op } => {
                write!(f, "{op} rpc to node {node} timed out")
            }
            ClusterError::Unreachable { node } => write!(f, "node {node} is unreachable"),
            ClusterError::RerouteRefused { helper } => {
                write!(f, "helper {helper} refused a rerouted subquery")
            }
            ClusterError::Storage(e) => write!(f, "storage error: {e}"),
            ClusterError::BadQuery(e) => write!(f, "bad query: {e}"),
            ClusterError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// All cluster messages.
///
/// `Clone` is required by the fabric's duplication faults — a duplicated
/// message is delivered as two independent envelopes.
#[derive(Debug, Clone)]
pub enum Msg {
    // ---- Front end → owner scatter/gather ------------------------------------
    /// Evaluate these Cells (all owned by the destination) against STASH —
    /// or, in Basic mode, straight from blocks. `allow_reroute` is cleared
    /// on the resend after a failed guest-graph hit, preventing ping-pong.
    /// The key list is shared: the first wave, a resend, every retry and
    /// a hotspot's forward carry the one list the front end planned.
    SubQuery {
        rpc: u64,
        reply_to: NodeId,
        keys: Arc<[CellKey]>,
        allow_reroute: bool,
        /// Set when the destination should serve from its guest graph
        /// (the request was rerouted by a hotspotted node, §VII-C).
        via_guest: bool,
    },
    SubQueryResponse {
        rpc: u64,
        result: Result<QueryResult, ClusterError>,
        /// The owner's stage timings for this share (PLM / merge / DFS,
        /// plus wire time of the request leg; the receiver folds in the
        /// response leg from its envelope).
        trace: StageTimes,
    },

    // ---- Raw storage access (Basic mode; coarse cells spanning partitions;
    //      failover reads against DFS replicas) -----------------------------
    /// Scan your blocks for these Cells; reply with partial summaries.
    /// `exclude` lists nodes the sender believes dead: the receiver scans
    /// blocks it *effectively* owns under that exclusion (primary, or first
    /// live replica in the ring chain), so failed-over reads still cover
    /// every block exactly once.
    FetchPartials {
        rpc: u64,
        reply_to: NodeId,
        keys: Vec<CellKey>,
        exclude: Vec<usize>,
    },
    /// Partial summaries as one contiguous flat buffer (the sender encodes
    /// with [`FlatPartials::encode`], the receiver validates with
    /// [`FlatPartials::decode`]); decode failures surface as
    /// [`ClusterError::Protocol`] at the receiver.
    PartialsResponse {
        rpc: u64,
        partials: Result<FlatPartials, ClusterError>,
        /// Scan time on the serving node (`dfs_ns`) plus request-leg wire.
        trace: StageTimes,
    },

    // ---- Clique Handoff (Fig. 5) --------------------------------------------
    /// Step 3: hotspotted node asks a candidate helper for room.
    Distress {
        rpc: u64,
        reply_to: NodeId,
        n_cells: usize,
    },
    DistressAck {
        rpc: u64,
        accept: bool,
    },
    /// Step 4: ship the Clique(s); Cells carry their freshness scores.
    ReplicationRequest {
        rpc: u64,
        reply_to: NodeId,
        src_node: usize,
        cells: Vec<(Cell, f64)>,
    },
    ReplicationResponse {
        rpc: u64,
        ok: bool,
    },

    // ---- Live ingest (DESIGN.md §13) ----------------------------------------
    /// Append one batch of observations to a live block. `seq` is the
    /// per-block batch number (0-based, contiguous) — the storage layer's
    /// idempotency key under producer retries and owner failover.
    AppendBatch {
        rpc: u64,
        reply_to: NodeId,
        block: BlockKey,
        seq: u64,
        /// Shared, not copied: one allocation serves every retry, failover
        /// target and fabric duplicate of the batch.
        rows: Arc<[Observation]>,
        /// The block's final batch: applying it seals the block, which
        /// advances the continuous-rollup watermark (DESIGN.md §17).
        last: bool,
    },
    /// Applier → producer: the batch is durable *and* every live peer has
    /// acknowledged invalidation of its affected summaries. `applied` is
    /// false when the batch was rejected (out of order / sealed block) or
    /// invalidation could not be confirmed — the producer retries.
    AppendAck {
        rpc: u64,
        applied: bool,
    },
    /// Applier → peers: rows landed in these Cells; mark stale every cached
    /// Cell (own graph and guest graph) that contains one of them, itself
    /// included. An append sends its batch's distinct finest-level keys and
    /// each receiver projects them onto the levels it holds Cells at; a
    /// Clique Handoff sends the replicated keys an append overlapped.
    /// Answered by the peer's fetch tier, which never waits on a peer, so
    /// the ack doubles as a processing barrier. Shared, not copied, across peers and retries.
    Invalidate {
        rpc: u64,
        reply_to: NodeId,
        keys: Arc<[CellKey]>,
    },
    InvalidateAck {
        rpc: u64,
    },
}

/// Exact serialized bytes of a flat key list: envelope + one flat key each.
pub fn keys_bytes(n: usize) -> usize {
    LIST_ENVELOPE_BYTES + KEY_BYTES * n
}

/// Exact serialized bytes of an error payload: one discriminant word, one
/// node/length word, plus the message bytes of string-carrying variants.
pub fn error_bytes(e: &ClusterError) -> usize {
    match e {
        ClusterError::Storage(s) | ClusterError::BadQuery(s) | ClusterError::Protocol(s) => {
            16 + s.len()
        }
        _ => 16,
    }
}

/// Exact serialized bytes of a Cell list, priced as its flat encoding:
/// envelope + flat key and exact [`CellSummary::wire_bytes`] per Cell. Both
/// engines price their answers with it.
pub fn cell_list_bytes<'a>(summaries: impl IntoIterator<Item = &'a CellSummary>) -> usize {
    LIST_ENVELOPE_BYTES
        + summaries
            .into_iter()
            .map(|s| KEY_BYTES + s.wire_bytes())
            .sum::<usize>()
}

/// Exact serialized bytes of a result, priced as the flat encoding of its
/// cells ([`cell_list_bytes`]).
pub fn result_bytes(r: &Result<QueryResult, ClusterError>) -> usize {
    match r {
        Ok(qr) => cell_list_bytes(qr.cells.iter().map(|c| &c.summary)),
        Err(e) => error_bytes(e),
    }
}

/// Exact serialized bytes of a partials fragment: the flat buffer's own
/// length — the one payload that is literally shipped in encoded form.
pub fn partials_bytes(p: &Result<FlatPartials, ClusterError>) -> usize {
    match p {
        Ok(fp) => fp.wire_size(),
        Err(e) => error_bytes(e),
    }
}

/// Exact serialized bytes of replicated cells: flat key + freshness word +
/// exact summary bytes per cell, under one list envelope.
pub fn cells_bytes(cells: &[(Cell, f64)]) -> usize {
    LIST_ENVELOPE_BYTES
        + cells
            .iter()
            .map(|(c, _)| KEY_BYTES + 8 + c.summary.wire_bytes())
            .sum::<usize>()
}

/// A data reply as its waiter reads it: the responder's answer, and its
/// stage times with the response leg's wire time folded in — the waiter is
/// the only one who observes that leg.
pub(crate) type Answer<T> = (Result<T, ClusterError>, StageTimes);

/// One reply kind and the one place it is read. A waiter names the kind it
/// waits for ([`crate::caller::Caller::wait`]); a reply of any other kind is
/// a [`ClusterError::Protocol`] error, never a panic.
pub(crate) struct Reply<T> {
    /// What a wait for it is called in a [`ClusterError::Timeout`].
    pub(crate) op: &'static str,
    /// Read the reply out of its message, given its observed wire time in
    /// nanoseconds. Payloads are moved out, not cloned.
    pub(crate) read: fn(Msg, u64) -> Result<T, ClusterError>,
}

fn unexpected<T>(reply: Msg) -> Result<T, ClusterError> {
    Err(ClusterError::Protocol(format!(
        "unexpected reply {reply:?}"
    )))
}

/// An owner's share of a scatter.
pub(crate) const SUB_RESULT: Reply<Answer<QueryResult>> = Reply {
    op: "subquery",
    read: |reply, wire_ns| match reply {
        Msg::SubQueryResponse {
            result, mut trace, ..
        } => {
            trace.wire_ns += wire_ns;
            Ok((result, trace))
        }
        other => unexpected(other),
    },
};

/// A partials fragment, its flat buffer validated and decoded at the trust
/// boundary: a corrupt fragment is a protocol error of the answer.
pub(crate) const PARTIALS: Reply<Answer<Vec<(CellKey, CellSummary)>>> = Reply {
    op: "partials",
    read: |reply, wire_ns| match reply {
        Msg::PartialsResponse {
            partials,
            mut trace,
            ..
        } => {
            trace.wire_ns += wire_ns;
            let decoded = partials.and_then(|fp| {
                fp.decode()
                    .map_err(|e| ClusterError::Protocol(format!("partials fragment: {e}")))
            });
            Ok((decoded, trace))
        }
        other => unexpected(other),
    },
};

/// A yes/no acknowledgement: Distress, Replication, AppendBatch or
/// Invalidate.
pub(crate) const ACK: Reply<bool> = Reply {
    op: "ack",
    read: |reply, _| match reply {
        Msg::DistressAck { accept, .. } => Ok(accept),
        Msg::ReplicationResponse { ok, .. } => Ok(ok),
        Msg::AppendAck { applied, .. } => Ok(applied),
        Msg::InvalidateAck { .. } => Ok(true),
        other => unexpected(other),
    },
};

impl Msg {
    /// The correlation id of a reply — the messages whose only consumer is
    /// the waiter on that RPC slot.
    pub fn reply_id(&self) -> Option<u64> {
        match self {
            Msg::SubQueryResponse { rpc, .. }
            | Msg::PartialsResponse { rpc, .. }
            | Msg::DistressAck { rpc, .. }
            | Msg::ReplicationResponse { rpc, .. }
            | Msg::AppendAck { rpc, .. }
            | Msg::InvalidateAck { rpc } => Some(*rpc),
            _ => None,
        }
    }

    /// Wire size estimate for the fabric's bandwidth model.
    pub fn wire_size(&self) -> usize {
        match self {
            Msg::SubQuery { keys, .. } => keys_bytes(keys.len()),
            Msg::SubQueryResponse { result, .. } => result_bytes(result),
            Msg::FetchPartials { keys, exclude, .. } => keys_bytes(keys.len()) + 8 * exclude.len(),
            Msg::PartialsResponse { partials, .. } => partials_bytes(partials),
            Msg::Distress { .. } => 64,
            Msg::DistressAck { .. } => 48,
            Msg::ReplicationRequest { cells, .. } => cells_bytes(cells),
            Msg::ReplicationResponse { .. } => 48,
            Msg::AppendBatch { rows, .. } => 64 + 56 * rows.len(),
            Msg::AppendAck { .. } => 24,
            Msg::Invalidate { keys, .. } => keys_bytes(keys.len()),
            Msg::InvalidateAck { .. } => 24,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;
    use stash_geo::{Geohash, TemporalRes, TimeBin};
    use std::str::FromStr;

    fn cell() -> Cell {
        let key = CellKey::new(
            Geohash::from_str("9q8y").unwrap(),
            TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0)),
        );
        let mut c = Cell::empty(key, 4);
        c.summary.push_row(&[1.0, 2.0, 3.0, 4.0]);
        c
    }

    #[test]
    fn wire_sizes_scale_with_payload() {
        let small = Msg::SubQuery {
            rpc: 1,
            reply_to: NodeId(0),
            keys: vec![cell().key].into(),
            allow_reroute: true,
            via_guest: false,
        };
        let big = Msg::SubQuery {
            rpc: 1,
            reply_to: NodeId(0),
            keys: vec![cell().key; 100].into(),
            allow_reroute: true,
            via_guest: false,
        };
        assert!(big.wire_size() > small.wire_size());

        let resp_ok = Msg::SubQueryResponse {
            rpc: 1,
            result: Ok(QueryResult {
                cells: vec![cell(); 10],
                ..Default::default()
            }),
            trace: StageTimes::default(),
        };
        let resp_err = Msg::SubQueryResponse {
            rpc: 1,
            result: Err(ClusterError::Timeout {
                node: 2,
                op: "subquery",
            }),
            trace: StageTimes::default(),
        };
        assert!(resp_ok.wire_size() > resp_err.wire_size());

        let repl = Msg::ReplicationRequest {
            rpc: 1,
            reply_to: NodeId(0),
            src_node: 0,
            cells: vec![(cell(), 1.0); 32],
        };
        assert!(
            repl.wire_size() > 32 * 100,
            "replication payloads are heavy"
        );
    }

    #[test]
    fn partials_fragment_bytes_are_exact_and_pinned() {
        // Known workload: 10 exact-only cells over the 4-attribute NAM
        // schema. Pin the fragment's wire bytes so a layout change (header
        // growth, per-attr words) is a conscious decision, not drift.
        let parts: Vec<_> = (0..10)
            .map(|i| {
                let mut c = cell();
                c.summary.push_row(&[i as f64, 1.0, 2.0, 3.0]);
                (c.key, c.summary)
            })
            .collect();
        let fp = FlatPartials::encode(&parts);
        let msg = Msg::PartialsResponse {
            rpc: 1,
            partials: Ok(fp.clone()),
            trace: StageTimes::default(),
        };
        // The fabric charges exactly the encoded buffer length...
        assert_eq!(msg.wire_size(), fp.to_bytes().len());
        // ...which for this workload is envelope + 10 × (flat key +
        // header word + 4 × 40-byte exact summaries).
        assert_eq!(
            msg.wire_size(),
            LIST_ENVELOPE_BYTES + 10 * (KEY_BYTES + 8 + 4 * 40)
        );
        // Error replies are priced exactly too.
        let err = Msg::PartialsResponse {
            rpc: 1,
            partials: Err(ClusterError::Storage("disk gone".into())),
            trace: StageTimes::default(),
        };
        assert_eq!(err.wire_size(), 16 + "disk gone".len());
    }

    #[test]
    fn priced_payloads_equal_their_flat_encoding() {
        // `SubQueryResponse` and `ReplicationRequest` are
        // priced, never encoded: hold the arithmetic to the real encoder
        // over sketched Cells in every form — no rows, a few and a few
        // dozen (raw runs of values), thousands (sketches, both arrays
        // promoted).
        let spec = stash_model::SketchSpec::standard();
        let cells: Vec<Cell> = [0usize, 1, 5, 40, 3000]
            .iter()
            .enumerate()
            .map(|(i, &rows)| {
                let mut c = cell();
                c.key.time.idx += i as i64;
                c.summary = stash_model::CellSummary::empty_with(4, &spec);
                for r in 0..rows {
                    let v = (r * 7 % 1201) as f64 / 64.0;
                    c.summary.push_row(&[v, -v, v * 3.0, 1.0]);
                }
                c
            })
            .collect();
        let sketch_bytes: Vec<usize> = cells
            .iter()
            .map(|c| c.summary.sketch_wire_bytes())
            .collect();
        assert!(
            sketch_bytes.windows(2).all(|w| w[0] < w[1]),
            "payload follows content: {sketch_bytes:?}"
        );
        let parts: Vec<_> = cells.iter().map(|c| (c.key, c.summary.clone())).collect();
        let encoded = FlatPartials::encode(&parts).to_bytes().len();
        // A result is the fragment's layout exactly: the list envelope is
        // its magic and count words.
        let result = Ok(QueryResult {
            cells: cells.clone(),
            ..Default::default()
        });
        assert_eq!(result_bytes(&result), encoded);
        // Replicated Cells add one freshness word each.
        let replicated: Vec<(Cell, f64)> = cells.iter().map(|c| (c.clone(), 0.5)).collect();
        assert_eq!(cells_bytes(&replicated), encoded + 8 * cells.len());
    }

    #[test]
    fn cell_list_bytes_prices_raw_and_sketched_cells_as_encoded() {
        // Cells either side of the 64-value raw cap, and a list mixing
        // them: the price is the encoded fragment's length, so the fabric
        // charges a raw run's words, not the sketches it stands for.
        let spec = stash_model::SketchSpec::standard();
        let cells: Vec<(CellKey, stash_model::CellSummary)> = [0usize, 6, 64, 65, 500]
            .iter()
            .enumerate()
            .map(|(i, &rows)| {
                let mut key = cell().key;
                key.time.idx += i as i64;
                let mut s = stash_model::CellSummary::empty_with(4, &spec);
                for r in 0..rows {
                    let v = (r * 7 % 1201) as f64 / 64.0;
                    s.push_row(&[v, -v, v * 3.0, 1.0]);
                }
                (key, s)
            })
            .collect();
        let raw = |s: &stash_model::CellSummary| s.attr_sketches(0).unwrap().is_raw();
        assert_eq!(
            cells.iter().map(|(_, s)| raw(s)).collect::<Vec<_>>(),
            [true, true, true, false, false]
        );
        let priced = cell_list_bytes(cells.iter().map(|(_, s)| s));
        assert_eq!(priced, FlatPartials::encode(&cells).wire_size());
        // A 6-row Cell ships its values: 4 × (3 + 6) sketch words.
        assert_eq!(cells[1].1.sketch_wire_bytes(), 4 * 9 * 8);
    }

    #[test]
    fn key_list_sizes_are_exact_flat_lengths() {
        let keys = vec![cell().key; 7];
        let msg = Msg::Invalidate {
            rpc: 1,
            reply_to: NodeId(0),
            keys: keys.into(),
        };
        assert_eq!(msg.wire_size(), LIST_ENVELOPE_BYTES + 7 * KEY_BYTES);
    }

    #[test]
    fn subquery_sizes_are_exact_and_pinned() {
        // One owner's whole share rides in one SubQuery: one flat key
        // list, whatever the share's size.
        for n in [0, 1, 64, 200] {
            let req = Msg::SubQuery {
                rpc: 1,
                reply_to: NodeId(0),
                keys: vec![cell().key; n].into(),
                allow_reroute: true,
                via_guest: false,
            };
            assert_eq!(req.wire_size(), keys_bytes(n));
        }
        // The answer is priced as its cells (4 exact 40-byte summaries
        // behind a header word each), an error as its error payload.
        let ok = Ok(QueryResult {
            cells: vec![cell(); 3],
            ..Default::default()
        });
        let err = Err(ClusterError::RerouteRefused { helper: 3 });
        for (result, bytes) in [
            (ok, LIST_ENVELOPE_BYTES + 3 * (KEY_BYTES + 8 + 4 * 40)),
            (err, 16),
        ] {
            assert_eq!(result_bytes(&result), bytes);
            let resp = Msg::SubQueryResponse {
                rpc: 1,
                result,
                trace: StageTimes::default(),
            };
            assert_eq!(resp.wire_size(), bytes);
        }
    }

    #[test]
    fn transient_errors_are_exactly_the_retriable_ones() {
        assert!(ClusterError::Timeout {
            node: 1,
            op: "subquery"
        }
        .is_transient());
        assert!(ClusterError::Unreachable { node: 1 }.is_transient());
        assert!(ClusterError::RerouteRefused { helper: 1 }.is_transient());
        assert!(!ClusterError::Storage("disk".into()).is_transient());
        assert!(!ClusterError::BadQuery("res".into()).is_transient());
        assert!(!ClusterError::Protocol("reply".into()).is_transient());
    }

    /// Every reply kind through every reader: the one kind each reader
    /// takes comes out, every other kind is a protocol error.
    #[test]
    fn each_reader_takes_its_kinds_and_refuses_the_rest() {
        let st = StageTimes {
            wire_ns: 5,
            ..StageTimes::default()
        };
        let replies = || {
            vec![
                Msg::SubQueryResponse {
                    rpc: 1,
                    result: Ok(QueryResult::default()),
                    trace: st,
                },
                Msg::PartialsResponse {
                    rpc: 1,
                    partials: Ok(FlatPartials::encode(&[(cell().key, cell().summary)])),
                    trace: st,
                },
                Msg::DistressAck {
                    rpc: 1,
                    accept: false,
                },
                Msg::ReplicationResponse { rpc: 1, ok: true },
                Msg::AppendAck {
                    rpc: 1,
                    applied: false,
                },
                Msg::InvalidateAck { rpc: 1 },
            ]
        };
        assert!(replies().iter().all(|r| r.reply_id() == Some(1)));
        let wire = 100;
        // Which of the six kinds (in `replies` order) each reader takes.
        let sub: Vec<bool> = replies()
            .into_iter()
            .map(|r| match (SUB_RESULT.read)(r, wire) {
                Ok((result, trace)) => {
                    assert!(result.is_ok());
                    assert_eq!(trace.wire_ns, 5 + wire);
                    true
                }
                Err(e) => !matches!(e, ClusterError::Protocol(_)),
            })
            .collect();
        let partials: Vec<bool> = replies()
            .into_iter()
            .map(|r| match (PARTIALS.read)(r, wire) {
                Ok((parts, trace)) => {
                    assert_eq!(parts.unwrap(), vec![(cell().key, cell().summary)]);
                    assert_eq!(trace.wire_ns, 5 + wire);
                    true
                }
                Err(e) => !matches!(e, ClusterError::Protocol(_)),
            })
            .collect();
        let acks: Vec<Option<bool>> = replies()
            .into_iter()
            .map(|r| match (ACK.read)(r, wire) {
                Ok(ack) => Some(ack),
                Err(ClusterError::Protocol(_)) => None,
                Err(e) => panic!("not a protocol error: {e}"),
            })
            .collect();
        let (t, f) = (true, false);
        assert_eq!(sub, [t, f, f, f, f, f]);
        assert_eq!(partials, [f, t, f, f, f, f]);
        assert_eq!(acks, [None, None, Some(f), Some(t), Some(f), Some(t)]);
        // Names for the timeouts of their waits.
        let ops = [SUB_RESULT.op, PARTIALS.op, ACK.op];
        assert_eq!(ops, ["subquery", "partials", "ack"]);
    }

    #[test]
    fn a_corrupt_fragment_is_a_protocol_error_of_the_answer() {
        let mut bytes = FlatPartials::encode(&[(cell().key, cell().summary)]).to_bytes();
        bytes.truncate(bytes.len() - 8);
        let reply = Msg::PartialsResponse {
            rpc: 1,
            partials: Ok(FlatPartials::from_bytes(&bytes).unwrap()),
            trace: StageTimes::default(),
        };
        let (parts, _) = (PARTIALS.read)(reply, 0).expect("the right kind");
        assert!(matches!(parts, Err(ClusterError::Protocol(_))));
    }

    #[test]
    fn control_messages_are_light() {
        let d = Msg::Distress {
            rpc: 1,
            reply_to: NodeId(0),
            n_cells: 100,
        };
        assert!(d.wire_size() <= 64);
        let a = Msg::DistressAck {
            rpc: 1,
            accept: true,
        };
        assert!(a.wire_size() <= 64);
    }
}
