//! Property tests: the cache against a reference model, and protocol
//! behavior under randomized *partially delivered* message schedules
//! (messages from different transactions interleave arbitrarily).

use commsense_cache::{
    AccessKind, AccessOutcome, Cache, Heap, LineId, LineState, ProtoConfig, ProtoOut, Protocol,
    TxnToken,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum CacheOp {
    Fill(u64, bool),
    Invalidate(u64),
    Access(u64),
    Downgrade(u64),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..64, any::<bool>()).prop_map(|(l, m)| CacheOp::Fill(l, m)),
        (0u64..64).prop_map(CacheOp::Invalidate),
        (0u64..64).prop_map(CacheOp::Access),
        (0u64..64).prop_map(CacheOp::Downgrade),
    ]
}

proptest! {
    /// Any sequence of operations keeps the cache consistent with a naive
    /// reference model on membership and states (capacity effects aside:
    /// the model evicts whatever the cache reports evicting).
    #[test]
    fn cache_matches_reference_model(
        ways in 1usize..5,
        ops in proptest::collection::vec(cache_op(), 1..300)
    ) {
        let capacity = 16;
        if capacity % ways != 0 || !(capacity / ways).is_power_of_two() {
            return Ok(());
        }
        let mut cache = Cache::set_associative(capacity, ways);
        let mut model: std::collections::HashMap<u64, LineState> =
            std::collections::HashMap::new();
        for op in ops {
            match op {
                CacheOp::Fill(l, m) => {
                    let st = if m { LineState::Modified } else { LineState::Shared };
                    if let Some((victim, vstate)) = cache.fill(LineId(l), st) {
                        let removed = model.remove(&victim.0);
                        prop_assert_eq!(removed, Some(vstate), "victim tracked");
                    }
                    model.insert(l, st);
                }
                CacheOp::Invalidate(l) => {
                    let got = cache.invalidate(LineId(l));
                    let want = model.remove(&l);
                    prop_assert_eq!(got, want);
                }
                CacheOp::Access(l) => {
                    let got = cache.access(LineId(l));
                    prop_assert_eq!(got, model.get(&l).copied());
                }
                CacheOp::Downgrade(l) => {
                    let did = cache.downgrade(LineId(l));
                    if did {
                        prop_assert_eq!(model.insert(l, LineState::Shared),
                                        Some(LineState::Modified));
                    } else {
                        prop_assert_ne!(model.get(&l), Some(&LineState::Modified));
                    }
                }
            }
            prop_assert!(model.len() <= capacity);
        }
        // Final sweep: everything the model holds, the cache holds.
        for (&l, &st) in &model {
            prop_assert_eq!(cache.lookup(LineId(l)), Some(st));
        }
    }

    /// Protocol coherence survives randomized delivery *orderings*: the
    /// pending message pool is drained in arbitrary order, interleaving
    /// independent transactions.
    #[test]
    fn protocol_survives_out_of_order_delivery(
        seed_ops in proptest::collection::vec((0usize..6, 0usize..12, 0usize..3), 20..150),
        picks in proptest::collection::vec(0usize..1000, 1000)
    ) {
        let nodes = 6;
        let mut heap = Heap::new(nodes);
        let handle = heap.alloc(12, |i| i % nodes);
        let mut proto =
            Protocol::new(heap, ProtoConfig { cache_lines: 8, ..ProtoConfig::default() });
        // The pool of undelivered protocol actions.
        let mut pool: Vec<ProtoOut> = Vec::new();
        let mut pick_idx = 0;
        let mut blocked: std::collections::HashSet<(usize, u64)> =
            std::collections::HashSet::new();
        for (t, &(node, line_i, kind_i)) in seed_ops.iter().enumerate() {
            let line = handle.line(line_i);
            // One outstanding transaction per (node, line).
            if blocked.contains(&(node, line.0)) {
                continue;
            }
            let kind = match kind_i {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Rmw,
            };
            let outcome = proto.start_access_into(node, line, kind, TxnToken(t as u64), &mut pool);
            if outcome == AccessOutcome::Miss {
                blocked.insert((node, line.0));
            }
            // Deliver a few random pool entries.
            for _ in 0..3 {
                if pool.is_empty() {
                    break;
                }
                let i = picks[pick_idx % picks.len()] % pool.len();
                pick_idx += 1;
                match pool.swap_remove(i) {
                    ProtoOut::Send { from, to, msg } => proto.handle_into(to, from, msg, &mut pool),
                    ProtoOut::Granted { node, line, exclusive, .. } => {
                        blocked.remove(&(node, line.0));
                        proto.fill_cache_into(node, line, exclusive, &mut pool);
                    }
                    ProtoOut::HomeOccupancy { .. } => {}
                }
            }
        }
        // Drain the remainder in random order too.
        while !pool.is_empty() {
            let i = picks[pick_idx % picks.len()] % pool.len();
            pick_idx += 1;
            match pool.swap_remove(i) {
                ProtoOut::Send { from, to, msg } => proto.handle_into(to, from, msg, &mut pool),
                ProtoOut::Granted { node, line, exclusive, .. } => {
                    blocked.remove(&(node, line.0));
                    proto.fill_cache_into(node, line, exclusive, &mut pool);
                }
                ProtoOut::HomeOccupancy { .. } => {}
            }
        }
        prop_assert!(blocked.is_empty(), "every transaction completed: {blocked:?}");
        proto.check_invariants((0..12).map(|i| handle.line(i)));
    }
}
