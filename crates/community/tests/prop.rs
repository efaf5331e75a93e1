//! Property tests for community-detection invariants.

use proptest::prelude::*;
use snap_community::*;
use snap_graph::{Graph, GraphBuilder};

fn arb_graph() -> impl Strategy<Value = snap_graph::CsrGraph> {
    (4usize..24).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 2..60).prop_map(move |edges| {
            let mut uniq: Vec<(u32, u32)> = edges
                .into_iter()
                .filter(|&(u, v)| u != v)
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            uniq.sort_unstable();
            uniq.dedup();
            GraphBuilder::undirected(n).add_edges(uniq).build()
        })
    })
}

fn arb_clustering(n: usize) -> impl Strategy<Value = Clustering> {
    prop::collection::vec(0u32..(n as u32).max(1), n)
        .prop_map(|labels| Clustering::from_labels(&labels))
}

proptest! {
    /// Modularity is bounded in [-1/2, 1).
    #[test]
    fn modularity_bounds(g in arb_graph(), seed_labels in prop::collection::vec(0u32..6, 24)) {
        let labels = &seed_labels[..g.num_vertices()];
        let c = Clustering::from_labels(labels);
        let q = modularity(&g, &c);
        prop_assert!((-0.5 - 1e-12..1.0).contains(&q), "q = {q}");
    }

    /// The tracker's incremental merges agree with from-scratch
    /// evaluation after every merge.
    #[test]
    fn tracker_merge_consistency(g in arb_graph()) {
        let n = g.num_vertices();
        let mut c = Clustering::singletons(n);
        let mut tracker = ModularityTracker::new(&g, &c);
        // Merge pairs of adjacent clusters a few times.
        for e in g.edge_ids().take(5) {
            let (u, v) = g.edge_endpoints(e);
            let (cu, cv) = (c.assignment[u as usize], c.assignment[v as usize]);
            if cu == cv {
                continue;
            }
            // Count edges between the two clusters.
            let mut between = 0.0;
            for e2 in g.edge_ids() {
                let (a, b) = g.edge_endpoints(e2);
                let (ca, cb) = (c.assignment[a as usize], c.assignment[b as usize]);
                if (ca, cb) == (cu, cv) || (ca, cb) == (cv, cu) {
                    between += 1.0;
                }
            }
            let q = tracker.apply_merge(cu, cv, between);
            // Rebuild the clustering with the merge applied; the tracker
            // keeps stale labels so rebuild from scratch for comparison.
            let labels: Vec<u32> = c
                .assignment
                .iter()
                .map(|&x| if x == cv { cu } else { x })
                .collect();
            c = Clustering::from_labels(&labels);
            // Tracker labels are stale; only q comparison is meaningful.
            let direct = modularity(&g, &c);
            prop_assert!((q - direct).abs() < 1e-9, "{q} vs {direct}");
            // Rebuild the tracker to keep labels aligned for later merges.
            tracker = ModularityTracker::new(&g, &c);
        }
    }

    /// All four algorithms produce valid partitions whose reported q
    /// matches independent evaluation.
    #[test]
    fn algorithms_internally_consistent(g in arb_graph()) {
        let gn = girvan_newman(&g, &GnConfig::default());
        gn.clustering.validate().unwrap();
        prop_assert!((gn.q - modularity(&g, &gn.clustering)).abs() < 1e-9);

        let r = pbd(&g, &PbdConfig::default());
        r.clustering.validate().unwrap();
        prop_assert!((r.q - modularity(&g, &r.clustering)).abs() < 1e-9);

        let a = pma(&g, &PmaConfig::default());
        a.clustering.validate().unwrap();
        prop_assert!((a.q - modularity(&g, &a.clustering)).abs() < 1e-9);

        let l = pla(&g, &PlaConfig::default());
        l.clustering.validate().unwrap();
        prop_assert!((l.q - modularity(&g, &l.clustering)).abs() < 1e-9);
    }

    /// GN's best q dominates both endpoints of its removal schedule
    /// (initial components and full singletons).
    #[test]
    fn gn_best_dominates_endpoints(g in arb_graph()) {
        let r = girvan_newman(&g, &GnConfig::default());
        let comps = snap_kernels::connected_components(&g);
        let initial = Clustering::from_labels(&comps.comp);
        prop_assert!(r.q >= modularity(&g, &initial) - 1e-12);
        prop_assert!(r.q >= modularity(&g, &Clustering::singletons(g.num_vertices())) - 1e-12);
    }

    /// NMI is symmetric, 1 on identical partitions, and in [0, 1].
    #[test]
    fn nmi_properties(n in 4usize..16, la in prop::collection::vec(0u32..4, 16), lb in prop::collection::vec(0u32..4, 16)) {
        let a = Clustering::from_labels(&la[..n]);
        let b = Clustering::from_labels(&lb[..n]);
        let ab = normalized_mutual_information(&a, &b);
        let ba = normalized_mutual_information(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&ab), "nmi {ab}");
        let aa = normalized_mutual_information(&a, &a);
        prop_assert!((aa - 1.0).abs() < 1e-9);
    }

    /// `Clustering::merge` preserves validity for random merge sequences.
    #[test]
    fn clustering_merge_valid(c0 in (4usize..16).prop_flat_map(arb_clustering), merges in prop::collection::vec((0u32..16, 0u32..16), 0..8)) {
        let mut c = c0;
        for (a, b) in merges {
            if c.count <= 1 {
                break;
            }
            let a = a % c.count as u32;
            let b = b % c.count as u32;
            if a != b {
                c.merge(a, b);
            }
        }
        c.validate().unwrap();
    }
}

#[test]
fn weighted_reduces_to_unweighted_on_unit_weights() {
    let g = snap_graph::builder::from_edges(
        6,
        &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
    );
    for labels in [vec![0u32, 0, 0, 1, 1, 1], vec![0, 0, 1, 1, 2, 2]] {
        let c = Clustering::from_labels(&labels);
        assert!((weighted_modularity(&g, &c) - modularity(&g, &c)).abs() < 1e-12);
    }
}

#[test]
fn weighted_modularity_prefers_heavy_intra_edges() {
    // Same topology, but the intra-triangle edges are heavy: the
    // two-cluster split scores higher under weighted modularity.
    let heavy = snap_graph::GraphBuilder::undirected(6)
        .add_weighted_edges([
            (0, 1, 10),
            (1, 2, 10),
            (0, 2, 10),
            (2, 3, 1),
            (3, 4, 10),
            (4, 5, 10),
            (3, 5, 10),
        ])
        .build();
    let split = Clustering::from_labels(&[0, 0, 0, 1, 1, 1]);
    let qw = weighted_modularity(&heavy, &split);
    let qu = modularity(&heavy, &split);
    assert!(qw > qu, "weighted {qw} vs unweighted {qu}");
    // Exact value: W = 61, intra 30+30, degsums 61/61... each side:
    // 30/61 - (61/122)^2 = 30/61 - 1/4, doubled.
    let expected = 2.0 * (30.0 / 61.0 - 0.25);
    assert!((qw - expected).abs() < 1e-12);
}

#[test]
fn weighted_modularity_scale_invariant() {
    // Multiplying all weights by a constant leaves q unchanged.
    let g1 = snap_graph::GraphBuilder::undirected(4)
        .add_weighted_edges([(0, 1, 2), (1, 2, 4), (2, 3, 2), (3, 0, 4)])
        .build();
    let g3 = snap_graph::GraphBuilder::undirected(4)
        .add_weighted_edges([(0, 1, 6), (1, 2, 12), (2, 3, 6), (3, 0, 12)])
        .build();
    let c = Clustering::from_labels(&[0, 0, 1, 1]);
    assert!((weighted_modularity(&g1, &c) - weighted_modularity(&g3, &c)).abs() < 1e-12);
}
