//! Generator properties: determinism, structural invariants, size
//! targets.

use proptest::prelude::*;
use snap_gen::*;
use snap_graph::Graph;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rmat_valid_and_deterministic(scale in 4u32..9, edges in 16usize..256, seed in 0u64..100) {
        let cfg = RmatConfig::small_world(scale, edges);
        let a = rmat(&cfg, seed);
        a.validate().unwrap();
        prop_assert!(a.num_edges() <= edges);
        prop_assert_eq!(a.num_vertices(), 1 << scale);
        let b = rmat(&cfg, seed);
        prop_assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn rmat_exact_vertex_override(n in 10usize..200, seed in 0u64..20) {
        let scale = (n as f64).log2().ceil() as u32;
        let cfg = RmatConfig { vertices: Some(n), ..RmatConfig::small_world(scale, 4 * n) };
        let g = rmat(&cfg, seed);
        prop_assert_eq!(g.num_vertices(), n);
        g.validate().unwrap();
    }

    #[test]
    fn erdos_renyi_exact_m(n in 4usize..60, seed in 0u64..20) {
        let max = n * (n - 1) / 2;
        let m = max / 2;
        let g = erdos_renyi(n, m, seed);
        prop_assert_eq!(g.num_edges(), m);
        g.validate().unwrap();
    }

    #[test]
    fn watts_strogatz_preserves_edge_count(n in 10usize..60, k in 1usize..3, p in 0.0f64..1.0, seed in 0u64..20) {
        prop_assume!(2 * k < n);
        let g = watts_strogatz(n, k, p, seed);
        prop_assert_eq!(g.num_edges(), n * k);
        g.validate().unwrap();
    }

    #[test]
    fn planted_membership_sizes(k in 2usize..6, size in 3usize..20, seed in 0u64..20) {
        let cfg = PlantedConfig::uniform(k, size, 0.5, 0.05);
        let (g, mem) = planted_partition(&cfg, seed);
        prop_assert_eq!(g.num_vertices(), k * size);
        for c in 0..k as u32 {
            prop_assert_eq!(mem.iter().filter(|&&m| m == c).count(), size);
        }
        g.validate().unwrap();
    }

    #[test]
    fn road_grid_degree_bounded(rows in 2usize..20, cols in 2usize..20, seed in 0u64..10) {
        let g = road_grid(rows, cols, 0.1, 0.5, seed);
        prop_assert_eq!(g.num_vertices(), rows * cols);
        prop_assert!(g.vertices().map(|v| g.degree(v)).max().unwrap_or(0) <= 8);
        g.validate().unwrap();
    }

    #[test]
    fn scaled_instances_shrink(factor in 2usize..16) {
        let inst = &table1_instances()[1]; // sparse random, cheap
        let small = inst.build_scaled(factor * 50, 1);
        prop_assert!(small.num_vertices() < 200_000 / (factor * 25));
    }
}
