//! The decode layer: the flat CSR against the compressed backend on the
//! same R-MAT 2^15 graph, for the four ways kernels read adjacency — a
//! full `neighbors()` sweep (k-core, push steps), a first-target probe per
//! vertex (a BFS pull step's row set-up, which often stops after one
//! target), a `neighbors_with_eid` sweep (edge-centric kernels), and the
//! chunked parallel decoder `par_for_each_adjacency` (against a parallel
//! CSR sweep over the same vertex chunks).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rayon::prelude::*;
use snap::graph::scratch::ScratchPool;
use snap::graph::{CompressedCsrGraph, DecodeScratch, Graph, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};

fn neighbors_sweep<G: Graph>(g: &G) -> u64 {
    g.vertices()
        .map(|v| g.neighbors(v).map(u64::from).sum::<u64>())
        .sum()
}

fn first_target_probe<G: Graph>(g: &G) -> u64 {
    g.vertices()
        .filter_map(|v| g.neighbors(v).next())
        .map(u64::from)
        .sum()
}

fn eid_sweep<G: Graph>(g: &G) -> u64 {
    g.vertices()
        .map(|v| {
            g.neighbors_with_eid(v)
                .map(|(u, e)| u64::from(u) ^ u64::from(e))
                .sum::<u64>()
        })
        .sum()
}

/// The flat backend's counterpart of `par_for_each_adjacency`: the same
/// 1024-vertex units, each reading its rows through `neighbors_with_eid`.
fn csr_par_sweep<G: Graph>(g: &G) -> u64 {
    let n = g.num_vertices();
    let units: Vec<usize> = (0..n).step_by(1024).collect();
    let sum = AtomicU64::new(0);
    units.par_chunks(1).for_each(|lo| {
        let hi = (lo[0] + 1024).min(n);
        let s: u64 = (lo[0]..hi)
            .map(|v| {
                g.neighbors_with_eid(v as VertexId)
                    .map(|(u, e)| u64::from(u) ^ u64::from(e))
                    .sum::<u64>()
            })
            .sum();
        sum.fetch_add(s, Ordering::Relaxed);
    });
    sum.into_inner()
}

fn bench_decode(c: &mut Criterion) {
    let g = snap::gen::rmat(&snap::gen::RmatConfig::small_world(15, 16 << 15), 42);
    let cg = CompressedCsrGraph::from_csr(&g);
    assert_eq!(neighbors_sweep(&g), neighbors_sweep(&cg));
    assert_eq!(eid_sweep(&g), eid_sweep(&cg));

    let mut group = c.benchmark_group("decode");
    group.sample_size(20);
    group.bench_function("neighbors-sweep/csr", |b| {
        b.iter(|| neighbors_sweep(black_box(&g)))
    });
    group.bench_function("neighbors-sweep/ccsr", |b| {
        b.iter(|| neighbors_sweep(black_box(&cg)))
    });
    group.bench_function("first-target/csr", |b| {
        b.iter(|| first_target_probe(black_box(&g)))
    });
    group.bench_function("first-target/ccsr", |b| {
        b.iter(|| first_target_probe(black_box(&cg)))
    });
    group.bench_function("eid-sweep/csr", |b| b.iter(|| eid_sweep(black_box(&g))));
    group.bench_function("eid-sweep/ccsr", |b| b.iter(|| eid_sweep(black_box(&cg))));
    group.bench_function("par-adjacency/csr", |b| {
        b.iter(|| csr_par_sweep(black_box(&g)))
    });
    let pool = ScratchPool::<DecodeScratch>::new();
    group.bench_function("par-adjacency/ccsr", |b| {
        b.iter(|| {
            let sum = AtomicU64::new(0);
            black_box(&cg).par_for_each_adjacency(&pool, |_, targets, eids| {
                let s: u64 = targets
                    .iter()
                    .zip(eids)
                    .map(|(&u, &e)| u64::from(u) ^ u64::from(e))
                    .sum();
                sum.fetch_add(s, Ordering::Relaxed);
            });
            black_box(sum.into_inner())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
