//! Property tests for the fabric: exactly-once delivery, per-pair FIFO
//! among equal-latency messages, and RPC-table consistency under random
//! interleavings.

use proptest::prelude::*;
use stash_net::{FaultPlan, NetConfig, NodeId, Router, RpcTable};
use std::time::Duration;

fn fast_config() -> NetConfig {
    NetConfig {
        base_latency: Duration::from_micros(100),
        bytes_per_sec: 1e12,
        loopback_is_free: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Every accepted message is delivered exactly once, to the right
    /// destination, with payload intact.
    #[test]
    fn exactly_once_delivery(sends in prop::collection::vec((0usize..4, 0usize..4), 1..150)) {
        let (router, endpoints) = Router::<(usize, usize)>::new(4, fast_config());
        let mut expected_per_dst = [0usize; 4];
        for (seq, &(src, dst)) in sends.iter().enumerate() {
            prop_assert!(router.send(NodeId(src), NodeId(dst), (seq, dst), 8));
            expected_per_dst[dst] += 1;
        }
        let mut got = std::collections::HashSet::new();
        for (i, ep) in endpoints.iter().enumerate() {
            for _ in 0..expected_per_dst[i] {
                let env = ep.inbox.recv_timeout(Duration::from_secs(5)).expect("delivery");
                prop_assert_eq!(env.dst, NodeId(i));
                prop_assert_eq!(env.payload.1, i, "payload routed to wrong node");
                prop_assert!(got.insert(env.payload.0), "duplicate delivery of {}", env.payload.0);
            }
            // Nothing extra arrives.
            prop_assert!(ep.inbox.try_recv().is_err(), "spurious message at node {i}");
        }
        prop_assert_eq!(got.len(), sends.len());
        router.shutdown();
    }

    /// Same-size messages between one pair keep their order (equal
    /// latencies tie-break FIFO).
    #[test]
    fn per_pair_fifo(n in 1usize..100) {
        let (router, mut endpoints) = Router::<usize>::new(2, fast_config());
        let ep = endpoints.remove(1);
        for i in 0..n {
            router.send(NodeId(0), NodeId(1), i, 16);
        }
        let mut got = Vec::with_capacity(n);
        for _ in 0..n {
            got.push(ep.inbox.recv_timeout(Duration::from_secs(5)).unwrap().payload);
        }
        let sorted: Vec<usize> = (0..n).collect();
        prop_assert_eq!(got, sorted);
        router.shutdown();
    }

    /// Message conservation: for any random schedule of sends, loopbacks,
    /// crashes, and restarts on a lossy wire, the ledger
    /// `sent == delivered + dropped + loopback + in-flight`
    /// balances once the wire quiesces (and in-flight is then zero).
    /// Refused sends stay outside the ledger by construction.
    #[test]
    fn ledger_conserves_messages(
        ops in prop::collection::vec((0u8..8, 0usize..4, 0usize..4), 1..120),
        seed in any::<u64>(),
        faulty in any::<bool>(),
    ) {
        let config = NetConfig {
            base_latency: Duration::from_micros(100),
            bytes_per_sec: 1e12,
            loopback_is_free: true,
        };
        let (router, mut endpoints) = Router::<usize>::new(4, config);
        if faulty {
            router.install_faults(
                FaultPlan::new(seed)
                    .drop_all(0.25)
                    .duplicate_all(0.25)
                    .delay_all(Duration::from_micros(500), 0.25),
            );
        }
        let mut slots: Vec<Option<_>> = endpoints.drain(..).map(Some).collect();
        let mut accepted = 0u64;
        let mut refused = 0u64;
        for &(kind, a, b) in &ops {
            match kind {
                // Crash (idempotent via is_crashed check) …
                0 => {
                    if !router.is_crashed(NodeId(a)) {
                        router.crash_node(NodeId(a));
                        slots[a] = None;
                    }
                }
                // … restart …
                1 => {
                    if router.is_crashed(NodeId(a)) {
                        slots[a] = Some(router.restart_node(NodeId(a)));
                    }
                }
                // … loopback send …
                2 => {
                    if router.send(NodeId(a), NodeId(a), 0, 8) {
                        accepted += 1;
                    } else {
                        refused += 1;
                    }
                }
                // … or a wire send.
                _ => {
                    if router.send(NodeId(a), NodeId(b), 0, 8) {
                        accepted += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
        }
        prop_assert!(router.quiesce(Duration::from_secs(10)), "wire never drained");
        let s = router.stats();
        prop_assert_eq!(router.in_flight(), 0);
        // Fault-plan drops and partition losses report acceptance, so
        // `sent` can exceed `accepted` only through duplication.
        prop_assert!(s.messages_sent() >= accepted);
        prop_assert_eq!(s.messages_refused(), refused);
        prop_assert_eq!(
            s.messages_sent(),
            s.messages_delivered() + s.messages_dropped() + s.messages_loopback(),
            "sent {} != delivered {} + dropped {} + loopback {} (in flight {})",
            s.messages_sent(),
            s.messages_delivered(),
            s.messages_dropped(),
            s.messages_loopback(),
            router.in_flight()
        );
        router.shutdown();
    }

    /// Ledger conservation under genuinely concurrent senders. Every
    /// message's ledger events are recorded under its destination, by
    /// whichever thread hands it over, matures it, or closes its queue;
    /// the merged read-out must still balance exactly:
    /// `sent == delivered + dropped + loopback` at quiescence.
    #[test]
    fn ledger_survives_concurrent_senders(
        per_thread in prop::collection::vec(
            prop::collection::vec((0usize..6, 0usize..6, any::<bool>()), 10..60),
            2..5,
        ),
        seed in any::<u64>(),
        faulty in any::<bool>(),
    ) {
        let config = NetConfig {
            base_latency: Duration::from_micros(100),
            bytes_per_sec: 1e12,
            loopback_is_free: true,
        };
        let (router, endpoints) = Router::<usize>::new(6, config);
        if faulty {
            router.install_faults(
                FaultPlan::new(seed)
                    .drop_all(0.2)
                    .duplicate_all(0.2)
                    .delay_all(Duration::from_micros(300), 0.2),
            );
        }
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|sends| {
                let router = router.clone();
                std::thread::spawn(move || {
                    let mut accepted = 0u64;
                    for (src, dst, loopback) in sends {
                        let dst = if loopback { src } else { dst };
                        if router.send(NodeId(src), NodeId(dst), 0, 16) {
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let accepted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        prop_assert!(router.quiesce(Duration::from_secs(10)), "wire never drained");
        let s = router.stats();
        prop_assert!(s.messages_sent() >= accepted);
        prop_assert_eq!(s.messages_refused(), 0);
        prop_assert_eq!(
            s.messages_sent(),
            s.messages_delivered() + s.messages_dropped() + s.messages_loopback(),
            "sent {} != delivered {} + dropped {} + loopback {}",
            s.messages_sent(),
            s.messages_delivered(),
            s.messages_dropped(),
            s.messages_loopback()
        );
        prop_assert_eq!(s.ledger_in_flight(), 0);
        drop(endpoints);
        router.shutdown();
    }

    /// RPC table under random complete/cancel interleavings: each slot
    /// resolves at most once and the table never leaks entries.
    #[test]
    fn rpc_table_resolves_each_slot_once(actions in prop::collection::vec(any::<bool>(), 1..100)) {
        let table = RpcTable::<usize>::default();
        let mut live = Vec::new();
        for (i, complete) in actions.iter().enumerate() {
            let (id, rx) = table.register();
            if *complete {
                prop_assert!(table.complete(id, i));
                prop_assert!(!table.complete(id, i + 1_000), "double completion accepted");
                prop_assert_eq!(table.wait(id, &rx, Duration::from_secs(1)).unwrap().response, i);
            } else {
                live.push((id, rx));
            }
        }
        prop_assert_eq!(table.in_flight(), live.len());
        for (id, _rx) in &live {
            table.cancel(*id);
        }
        prop_assert_eq!(table.in_flight(), 0);
    }
}
