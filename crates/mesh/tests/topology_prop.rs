//! Property tests for the topology layer: computed routing must agree with
//! the legacy `RouteTable` oracle on the paper's mesh, and every topology
//! must satisfy the routing contract (minimality, continuity, symmetry
//! where applicable) on random node pairs.

use commsense_mesh::{Dragonfly, Endpoint, FatTree, Mesh, RouteTable, Topo, Torus};
use proptest::prelude::*;

/// Walks the computed route `src -> dst` and returns its link ids.
fn computed_route(t: &Topo, src: Endpoint, dst: Endpoint) -> Vec<usize> {
    (0..t.route_len(src, dst))
        .map(|h| t.route_hop(src, dst, h))
        .collect()
}

/// Asserts the full routing contract for one node pair.
fn assert_route_contract(t: &Topo, a: usize, b: usize) {
    let route = computed_route(t, Endpoint::node(a), Endpoint::node(b));
    assert_eq!(route.len(), t.hops(a, b), "{}: {a}->{b}", t.describe());
    let mut at = t.node_vertex(a);
    for (h, &link) in route.iter().enumerate() {
        assert!(link < t.num_links());
        let (from, to) = t.link_ends(link);
        assert_eq!(from, at, "{}: hop {h} of {a}->{b}", t.describe());
        at = to;
    }
    assert_eq!(at, t.node_vertex(b), "{}: {a}->{b}", t.describe());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The computed dimension-order route is hop-for-hop identical to the
    /// precomputed `RouteTable` on the paper's 8×4 mesh, for compute-node
    /// pairs and both I/O directions.
    #[test]
    fn computed_routing_matches_route_table_oracle(
        src in 0usize..32,
        dst in 0usize..32,
        row in 0u16..4,
    ) {
        let mesh = Mesh::new(8, 4);
        let table = RouteTable::new(&mesh);
        let mesh = Topo::Mesh(mesh);
        if src != dst {
            let (s, d) = (Endpoint::node(src), Endpoint::node(dst));
            let oracle: Vec<usize> =
                table.route(table.key(s, d)).iter().map(|&l| l as usize).collect();
            prop_assert_eq!(computed_route(&mesh, s, d), oracle, "{}->{}", src, dst);
        }
        for (s, d) in [
            (Endpoint::IoWest(row), Endpoint::IoEast(row)),
            (Endpoint::IoEast(row), Endpoint::IoWest(row)),
        ] {
            let oracle: Vec<usize> =
                table.route(table.key(s, d)).iter().map(|&l| l as usize).collect();
            prop_assert_eq!(computed_route(&mesh, s, d), oracle, "{:?}->{:?}", s, d);
        }
    }

    /// Mesh routes are minimal (Manhattan distance) and symmetric in length.
    #[test]
    fn mesh_routes_minimal_and_symmetric(
        w in 2u16..20, h in 1u16..20, seed in any::<u64>(),
    ) {
        let t = Topo::Mesh(Mesh::new(w, h));
        let n = t.num_nodes();
        let (a, b) = ((seed as usize) % n, (seed >> 32) as usize % n);
        prop_assume!(a != b);
        assert_route_contract(&t, a, b);
        let (ax, ay) = (a % w as usize, a / w as usize);
        let (bx, by) = (b % w as usize, b / w as usize);
        prop_assert_eq!(t.hops(a, b), ax.abs_diff(bx) + ay.abs_diff(by));
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
    }

    /// Torus routes are minimal (ring distance per dimension) and symmetric
    /// in length.
    #[test]
    fn torus_routes_minimal_and_symmetric(
        w in 2u16..20, h in 2u16..20, seed in any::<u64>(),
    ) {
        let t = Topo::Torus(Torus::new(w, h));
        let n = t.num_nodes();
        let (a, b) = ((seed as usize) % n, (seed >> 32) as usize % n);
        prop_assume!(a != b);
        assert_route_contract(&t, a, b);
        let ring = |from: usize, to: usize, len: usize| {
            let fwd = (to + len - from) % len;
            fwd.min(len - fwd)
        };
        let (w, h) = (w as usize, h as usize);
        let want = ring(a % w, b % w, w) + ring(a / w, b / w, h);
        prop_assert_eq!(t.hops(a, b), want);
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
    }

    /// Fat-tree routes are minimal (twice the LCA level) and symmetric in
    /// length.
    #[test]
    fn fat_tree_routes_minimal_and_symmetric(
        arity in 2u16..5, levels in 1u16..6, seed in any::<u64>(),
    ) {
        let t = Topo::FatTree(FatTree::new(arity, levels));
        let n = t.num_nodes();
        let (a, b) = ((seed as usize) % n, (seed >> 32) as usize % n);
        prop_assume!(a != b);
        assert_route_contract(&t, a, b);
        let (mut x, mut y, mut lca) = (a, b, 0);
        while x != y {
            x /= arity as usize;
            y /= arity as usize;
            lca += 1;
        }
        prop_assert_eq!(t.hops(a, b), 2 * lca);
        prop_assert_eq!(t.hops(a, b), t.hops(b, a));
    }

    /// Dragonfly routes are minimal-group routes: at most one intra hop at
    /// each end around a single global hop. Hop *symmetry* is intentionally
    /// not asserted — the global-channel attach router differs per
    /// direction, so a->b and b->a may differ by one intra hop.
    #[test]
    fn dragonfly_routes_are_minimal_group(
        groups in 2u16..12, size in 1u16..12, seed in any::<u64>(),
    ) {
        let t = Topo::Dragonfly(Dragonfly::new(groups, size));
        let n = t.num_nodes();
        let (a, b) = ((seed as usize) % n, (seed >> 32) as usize % n);
        prop_assume!(a != b);
        assert_route_contract(&t, a, b);
        let same_group = a / size as usize == b / size as usize;
        if same_group {
            prop_assert_eq!(t.hops(a, b), 1);
        } else {
            prop_assert!((1..=3).contains(&t.hops(a, b)));
            // Exactly one global hop.
            let route = computed_route(&t, Endpoint::node(a), Endpoint::node(b));
            let globals = route
                .iter()
                .filter(|&&l| {
                    let (from, to) = t.link_ends(l);
                    from / size as u64 != to / size as u64
                })
                .count();
            prop_assert_eq!(globals, 1);
        }
    }

    /// Every topology's cross-traffic streams cross the bisection exactly
    /// once, whichever shape the sweep picks.
    #[test]
    fn io_streams_cross_bisection_once(kind in 0usize..4, nodes_pow in 4u32..10) {
        let nodes = 1usize << nodes_pow;
        let t = Topo::with_nodes(Topo::KINDS[kind], nodes);
        for s in 0..t.io_streams() {
            for (src, dst) in [
                (Endpoint::IoWest(s), Endpoint::IoEast(s)),
                (Endpoint::IoEast(s), Endpoint::IoWest(s)),
            ] {
                let crossings = computed_route(&t, src, dst)
                    .iter()
                    .filter(|&&l| t.crosses_bisection(l))
                    .count();
                prop_assert_eq!(crossings, 1, "{} stream {}", t.describe(), s);
            }
        }
    }

    /// `route_into`, the one routing call the network makes per injected
    /// packet, is hop for hop the per-hop route on every kind: for
    /// compute-node pairs and both directions of every I/O stream.
    #[test]
    fn route_into_matches_route_hop(
        kind in 0usize..4, nodes_pow in 4u32..10, seed in any::<u64>(),
    ) {
        let t = Topo::with_nodes(Topo::KINDS[kind], 1usize << nodes_pow);
        let n = t.num_nodes();
        let (a, b) = ((seed as usize) % n, (seed >> 32) as usize % n);
        let mut pairs = Vec::new();
        if a != b {
            pairs.push((Endpoint::node(a), Endpoint::node(b)));
        }
        for s in 0..t.io_streams() {
            pairs.push((Endpoint::IoWest(s), Endpoint::IoEast(s)));
            pairs.push((Endpoint::IoEast(s), Endpoint::IoWest(s)));
        }
        let mut out = vec![u32::MAX];
        for (src, dst) in pairs {
            out.truncate(1);
            t.route_into(src, dst, &mut out);
            let want: Vec<u32> = computed_route(&t, src, dst).iter().map(|&l| l as u32).collect();
            prop_assert_eq!(out[0], u32::MAX, "route_into appends, never overwrites");
            prop_assert_eq!(&out[1..], &want[..], "{} {:?}->{:?}", t.describe(), src, dst);
        }
    }
}
