//! Property tests for the partitioning stack.

use proptest::prelude::*;
use snap_graph::{Graph, GraphBuilder};
use snap_partition::*;

fn arb_graph() -> impl Strategy<Value = snap_graph::CsrGraph> {
    (8usize..40).prop_flat_map(|n| {
        // A ring backbone keeps the graph connected, plus random chords.
        prop::collection::vec((0..n as u32, 0..n as u32), 0..60).prop_map(move |extra| {
            let mut edges: Vec<(u32, u32)> =
                (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
            edges.extend(extra.into_iter().filter(|&(u, v)| u != v));
            let mut uniq: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            uniq.sort_unstable();
            uniq.dedup();
            GraphBuilder::undirected(n).add_edges(uniq).build()
        })
    })
}

proptest! {
    /// Multilevel partitioning always yields a valid, reasonably balanced
    /// partition with the declared number of parts.
    #[test]
    fn multilevel_valid_and_balanced(g in arb_graph(), parts in 2usize..6, seed in 0u64..4) {
        for method in [Method::MultilevelKway, Method::MultilevelRecursive] {
            let p = partition(&g, method, parts, seed).expect("multilevel never fails");
            p.validate().unwrap();
            prop_assert_eq!(p.parts, parts);
            // Every part non-empty when n >= parts.
            if g.num_vertices() >= parts {
                prop_assert!(p.sizes().iter().all(|&s| s > 0), "{:?}", p.sizes());
            }
            // On connected ring-backbone graphs the balance bound holds
            // loosely (FM slack + rounding).
            prop_assert!(imbalance(&p, None) <= 2.0, "imbalance {}", imbalance(&p, None));
        }
    }

    /// The edge cut reported equals a direct recount, and cutting all
    /// singleton parts cuts every edge.
    #[test]
    fn edge_cut_identities(g in arb_graph()) {
        let n = g.num_vertices();
        let singleton = Partition {
            assignment: (0..n as u32).collect(),
            parts: n,
        };
        prop_assert_eq!(edge_cut(&g, &singleton), g.num_edges() as u64);
        let whole = Partition {
            assignment: vec![0; n],
            parts: 1,
        };
        prop_assert_eq!(edge_cut(&g, &whole), 0);
    }

    /// Heavy-edge matching is always a valid matching.
    #[test]
    fn matching_valid(g in arb_graph(), seed in 0u64..8) {
        let mate = heavy_edge_matching(&g, seed);
        prop_assert!(is_valid_matching(&g, &mate));
    }

    /// Coarsening preserves total vertex weight and never increases the
    /// vertex count; cut edges survive with summed weights.
    #[test]
    fn coarsen_invariants(g in arb_graph(), seed in 0u64..8) {
        let vwgt = vec![1u32; g.num_vertices()];
        let level = coarsen(&g, &vwgt, seed);
        prop_assert!(level.graph.num_vertices() <= g.num_vertices());
        prop_assert_eq!(
            level.vwgt.iter().map(|&w| w as u64).sum::<u64>(),
            g.num_vertices() as u64
        );
        level.graph.validate().unwrap();
        // Total edge weight is preserved minus the contracted edges.
        let coarse_weight: u64 = level.graph.edge_ids()
            .map(|e| snap_graph::WeightedGraph::edge_weight(&level.graph, e) as u64)
            .sum();
        prop_assert!(coarse_weight <= g.num_edges() as u64);
    }

    /// FM refinement never worsens the cut and, started inside the
    /// balance window, ends inside it — after one pass and after six.
    #[test]
    fn fm_never_worsens(g in arb_graph(), seed in 0u64..4) {
        let n = g.num_vertices();
        let vwgt = vec![1u32; n];
        let start: Vec<u8> = (0..n).map(|v| ((v as u64 ^ seed) % 2) as u8).collect();
        let before = bisection_cut(&g, &start);
        let target0 = n as i64 / 2;
        let slack = ((n as f64 * 0.1).floor() as i64).max(1);
        let window = (target0 - slack).max(1)..=(target0 + slack).min(n as i64 - 1);
        let load0 = |side: &[u8]| side.iter().filter(|&&s| s == 0).count() as i64;
        prop_assert!(window.contains(&load0(&start)));
        for passes in [1, 6] {
            let mut side = start.clone();
            fm_refine(&g, &vwgt, &mut side, target0 as u64, 0.1, passes);
            let after = bisection_cut(&g, &side);
            prop_assert!(after <= before, "{passes} passes: {before} -> {after}");
            prop_assert!(window.contains(&load0(&side)), "{passes} passes: load {}", load0(&side));
        }
    }

    /// Spectral partitioning, when it converges, yields a valid balanced
    /// partition.
    #[test]
    fn spectral_valid_when_converged(g in arb_graph(), seed in 0u64..3) {
        if let Ok(p) = partition(&g, Method::SpectralRqi, 2, seed) {
            p.validate().unwrap();
            prop_assert!(imbalance(&p, None) <= 1.5);
        }
    }
}
