//! Property-based tests over the substrates' core invariants.

use commsense::cache::{
    AccessKind, AccessOutcome, Heap, ProtoConfig, ProtoOut, Protocol, TxnToken,
};
use commsense::des::Rng;
use commsense::mesh::{Endpoint, Mesh};
use commsense::workloads::moldyn::rcb_partition;
use commsense::workloads::sparse::{IccgParams, IccgSystem};
use proptest::prelude::*;

proptest! {
    #[test]
    fn mesh_routes_are_minimal_and_connected(
        w in 2u16..10, h in 1u16..6, a in 0usize..60, b in 0usize..60
    ) {
        let mesh = Mesh::new(w, h);
        let n = mesh.num_nodes();
        let (a, b) = (a % n, b % n);
        prop_assume!(a != b);
        let route = mesh.route(Endpoint::node(a), Endpoint::node(b));
        prop_assert_eq!(route.len(), mesh.hops(a, b), "dimension-order routes are minimal");
        for &l in &route {
            prop_assert!(l < mesh.num_links());
        }
    }

    #[test]
    fn rcb_partitions_are_balanced(parts in 1usize..33, n in 33usize..400, seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let pts: Vec<[f64; 3]> =
            (0..n).map(|_| [rng.f64() * 10.0, rng.f64() * 10.0, rng.f64() * 10.0]).collect();
        let owners = rcb_partition(&pts, parts);
        let mut counts = vec![0usize; parts];
        for &o in &owners {
            prop_assert!((o as usize) < parts);
            counts[o as usize] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        prop_assert!(max - min <= 1 + n / parts / 2, "balance {counts:?}");
    }

    #[test]
    fn iccg_levels_are_topological(rows in 10usize..200, band in 1usize..6, seed in 0u64..500) {
        let params = IccgParams {
            rows,
            avg_band: band,
            far_fraction: 0.1,
            chunk_rows: 8,
            seed,
        };
        let sys = IccgSystem::generate(&params, 4);
        for i in 0..sys.len() {
            for (j, _) in sys.in_edges(i) {
                prop_assert!((j as usize) < i, "strictly lower triangular");
                prop_assert!(sys.level[j as usize] < sys.level[i]);
            }
        }
        // The reference actually solves the system.
        let y = sys.reference();
        for i in 0..sys.len() {
            let mut lhs = y[i];
            for (j, v) in sys.in_edges(i) {
                lhs += v * y[j as usize];
            }
            prop_assert!((lhs - sys.b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn protocol_random_traffic_preserves_coherence(
        seed in 0u64..300, ops in 50usize..400
    ) {
        let nodes = 6;
        let lines = 12;
        let mut heap = Heap::new(nodes);
        let handle = heap.alloc(lines, |i| i % nodes);
        let mut proto = Protocol::new(heap, ProtoConfig { cache_lines: 8, ..ProtoConfig::default() });
        let mut rng = Rng::new(seed);
        // Zero-latency delivery loop over the protocol's message outputs,
        // drained from one reused buffer.
        let settle = |proto: &mut Protocol, outs: &mut Vec<ProtoOut>| {
            while let Some(out) = outs.pop() {
                match out {
                    ProtoOut::Send { from, to, msg } => proto.handle_into(to, from, msg, outs),
                    ProtoOut::Granted { node, line, exclusive, .. } => {
                        proto.fill_cache_into(node, line, exclusive, outs);
                    }
                    ProtoOut::HomeOccupancy { .. } => {}
                }
            }
        };
        let mut outs = Vec::new();
        for t in 0..ops {
            let node = rng.index(nodes);
            let line = handle.line(rng.index(lines));
            let kind = match rng.index(3) {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Rmw,
            };
            if proto.start_access_into(node, line, kind, TxnToken(t as u64), &mut outs)
                != AccessOutcome::Hit
            {
                settle(&mut proto, &mut outs);
            }
        }
        // One-sided coherence invariant: all copies tracked, one writer.
        proto.check_invariants((0..lines).map(|i| handle.line(i)));
    }

    #[test]
    fn ghost_plan_covers_exactly_the_demands(
        seed in 0u64..500, nprocs in 2usize..8, demands in 1usize..120
    ) {
        use commsense::apps::common::GhostPlan;
        let mut rng = Rng::new(seed);
        let raw: Vec<(usize, usize, u32)> = (0..demands)
            .map(|_| (rng.index(nprocs), rng.index(nprocs), rng.gen_range(0, 64) as u32))
            .collect();
        let plan = GhostPlan::build(nprocs, raw.iter().copied());
        // Every remote demand appears in the consumer's ghost ids.
        for &(q, p, id) in &raw {
            if q != p {
                prop_assert!(plan.ghost_ids[q].contains(&id));
            }
        }
        // Send chunks and ghost lists agree in total size.
        let sent: usize = plan.sends.iter().flatten().map(|c| c.ids.len()).sum();
        let expected: usize = (0..nprocs).map(|q| plan.expected_values(q)).sum();
        prop_assert_eq!(sent, expected);
        // Bulk sends carry the same ids as fine-grained sends.
        let bulk: usize = plan.bulk_sends.iter().flatten().map(|c| c.ids.len()).sum();
        prop_assert_eq!(bulk, expected);
    }

    #[test]
    fn dma_padding_is_dword_aligned(bytes in 0u32..4096) {
        use commsense::msgpass::{ActiveMessage, HandlerId};
        let am = ActiveMessage::with_bulk(1, HandlerId(0), vec![], bytes);
        let padded = am.padded_bulk_bytes();
        prop_assert_eq!(padded % 8, 0);
        prop_assert!(padded >= bytes && padded < bytes + 8);
    }
}
