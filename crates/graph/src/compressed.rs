//! Compressed CSR: delta/varint-encoded adjacency with chunked parallel
//! encode/decode and a degree-threshold hybrid mode.
//!
//! The paper's target instances (small-world networks with hundreds of
//! millions of edges) make the flat `u32` adjacency arrays of
//! [`CsrGraph`] the binding memory constraint: 8 bytes per stored arc
//! (target + edge id). Difference encoding of the *sorted* neighbor
//! lists — the [`crate::GraphBuilder`] sorts adjacencies by
//! construction — shrinks that by 2–4× on the skewed-degree graphs SNAP
//! cares about, the technique Dhulipala, Blelloch & Shun use to fit
//! hundred-billion-edge graphs on one machine (Ligra+/GBBS).
//!
//! # Encoding layout
//!
//! One contiguous byte stream plus an `n + 1` byte-offset array. Vertex
//! `v`'s block starts at `byte_offsets[v]`:
//!
//! * **header** varint: `(degree << 1) | raw_flag`;
//! * **raw block** (`raw_flag == 1`, hub vertices at or above the degree
//!   threshold and the fallback for non-canonical edge-id layouts):
//!   `degree` little-endian `u32` targets, then `degree` little-endian
//!   `u32` edge ids — byte-aligned slices decoded with zero arithmetic;
//! * **compressed block** (`raw_flag == 0`): a varint `forward_base`
//!   (the edge id of `v`'s first *forward* arc), then per neighbor in
//!   sorted order the neighbor delta — zig-zag varint `first - v` for
//!   the first neighbor (the sign carries whether `v`'s list starts
//!   below or above it), plain varint gap (`≥ 1`; a gap of `0` would be
//!   a parallel edge, rejected at encode time) for the rest — followed,
//!   for *backward* arcs only, by the arc's edge-id delta (first
//!   backward id raw, subsequent as gaps).
//!
//! Edge ids are not stored per forward arc at all: the builder (and the
//! streaming merge) assign edge ids in sorted canonical `(u, v)` order,
//! so the forward arcs of `v` (to neighbors `≥ v`, or every arc in a
//! digraph) carry *consecutive* ids `forward_base + i`, and the backward
//! arcs' ids are strictly increasing in the neighbor — varint-gap
//! material. This is what pushes the stream under ~2 bytes/arc where the
//! flat arrays pay 8.
//!
//! # Chunked parallel decode
//!
//! Kernels run unchanged through the streaming [`Graph`] iterators.
//! Whole-graph sweeps use [`CompressedCsrGraph::par_for_each_adjacency`]:
//! vertices are split into fixed chunks, each chunk decoded by one rayon
//! worker into per-thread scratch acquired from a
//! [`ScratchPool<DecodeScratch>`] (the checkout shape of
//! [`crate::WorkspacePool`]), and the callback sees plain `&[VertexId]` /
//! `&[EdgeId]` slices. Decoded chunks are counted on the `decode_chunks`
//! obs counter; resident adjacency bytes surface as the `ccsr_bytes`
//! gauge.

use crate::csr::CsrGraph;
use crate::scratch::ScratchPool;
use crate::traits::{Graph, WeightedGraph};
use crate::{EdgeId, VertexId, Weight};
use rayon::prelude::*;

/// Degree at or above which a vertex's block stays uncompressed by
/// default: hubs are exactly the rows hot traversals scan most, and a
/// raw block decodes as a slice copy instead of per-arc arithmetic,
/// while contributing near-zero compression loss (skewed graphs have
/// few hubs, each already near the varint break-even density).
pub const DEFAULT_HUB_THRESHOLD: usize = 1024;

/// Vertices per parallel encode/decode chunk.
const CHUNK: usize = 1024;

/// The `[lo, hi)` vertex ranges of the encode/decode chunks. Each is its
/// own work unit (`par_chunks(1)`): 128 of them at R-MAT scale 17 would
/// be a single unit as a plain element iterator.
fn chunk_bounds(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .step_by(CHUNK)
        .map(|lo| (lo, (lo + CHUNK).min(n)))
        .collect()
}

/// Variable-length integer and zig-zag primitives for the adjacency
/// stream. Public so the round-trip property tests exercise the codec
/// directly.
pub mod codec {
    /// Append `x` as an LEB128 varint (7 bits per byte, high bit =
    /// continuation).
    #[inline]
    pub fn write_varint(out: &mut Vec<u8>, mut x: u64) {
        loop {
            let byte = (x & 0x7f) as u8;
            x >>= 7;
            if x == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Read a varint at `*pos`, advancing it past the encoding.
    #[inline]
    pub fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = buf[*pos];
            *pos += 1;
            x |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return x;
            }
            shift += 7;
        }
    }

    /// Zig-zag map a signed delta to an unsigned varint payload
    /// (`0, -1, 1, -2, ... -> 0, 1, 2, 3, ...`).
    #[inline]
    pub fn zigzag(x: i64) -> u64 {
        ((x << 1) ^ (x >> 63)) as u64
    }

    /// Inverse of [`zigzag`].
    #[inline]
    pub fn unzigzag(x: u64) -> i64 {
        ((x >> 1) as i64) ^ -((x & 1) as i64)
    }

    /// Encode a sorted neighbor list relative to its owning vertex `v`:
    /// zig-zag first delta, then plain gaps. Rejects gap 0 (a parallel
    /// edge) and unsorted input. Round-trip partner of [`decode_sorted`].
    pub fn encode_sorted(v: u32, neighbors: &[u32], out: &mut Vec<u8>) -> Result<(), String> {
        for w in neighbors.windows(2) {
            if w[1] == w[0] {
                return Err(format!("parallel edge to {} in adjacency of {v}", w[0]));
            }
            if w[1] < w[0] {
                return Err(format!(
                    "unsorted adjacency of {v}: {} after {}",
                    w[1], w[0]
                ));
            }
        }
        write_varint(out, neighbors.len() as u64);
        let mut prev = 0u32;
        for (i, &nb) in neighbors.iter().enumerate() {
            if i == 0 {
                write_varint(out, zigzag(i64::from(nb) - i64::from(v)));
            } else {
                write_varint(out, u64::from(nb - prev));
            }
            prev = nb;
        }
        Ok(())
    }

    /// Decode a list produced by [`encode_sorted`].
    pub fn decode_sorted(v: u32, buf: &[u8], pos: &mut usize) -> Vec<u32> {
        let d = read_varint(buf, pos) as usize;
        let mut out = Vec::with_capacity(d);
        let mut prev = 0u32;
        for i in 0..d {
            let nb = if i == 0 {
                (i64::from(v) + unzigzag(read_varint(buf, pos))) as u32
            } else {
                prev + read_varint(buf, pos) as u32
            };
            out.push(nb);
            prev = nb;
        }
        out
    }
}

use codec::{read_varint, unzigzag, write_varint, zigzag};

/// Per-thread decode target for the chunked parallel decoder: the
/// neighbor/edge-id slices of one vertex at a time, reused across every
/// vertex a worker decodes.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    targets: Vec<VertexId>,
    eids: Vec<EdgeId>,
}

impl DecodeScratch {
    /// Fresh empty scratch (buffers grow to the max decoded degree).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently held by the scratch buffers.
    pub fn bytes(&self) -> usize {
        (self.targets.capacity() + self.eids.capacity()) * 4
    }
}

/// Immutable graph stored as delta/varint-compressed adjacency blocks.
///
/// Behaviorally identical to the [`CsrGraph`] it was built from: same
/// vertices, same edges, same edge ids, same sorted neighbor order —
/// every [`Graph`] kernel produces bit-identical output on either
/// backend (enforced by the equivalence proptests and the `run
/// --backend` fingerprint comparison in `tests/cli.rs`). Edge *payload* (canonical endpoints,
/// weights) stays flat: `edge_endpoints(e)` must be O(1) for the
/// edge-centric algorithms, and those arrays are per-edge, not per-arc.
#[derive(Clone, Debug)]
pub struct CompressedCsrGraph {
    /// Block start of vertex `v` at `[v]`; `[n]` is the stream length.
    byte_offsets: Vec<usize>,
    /// Concatenated per-vertex adjacency blocks.
    stream: Vec<u8>,
    /// Canonical endpoints per edge id (`u <= v` when undirected).
    endpoints: Vec<(VertexId, VertexId)>,
    /// Per-edge weights; empty = unweighted (all 1).
    weights: Vec<Weight>,
    directed: bool,
    num_arcs: usize,
    /// Degree threshold at or above which blocks were stored raw.
    hub_threshold: usize,
    /// How many vertices ended up with raw blocks.
    raw_blocks: usize,
}

impl CompressedCsrGraph {
    /// Compress `g` with the [`DEFAULT_HUB_THRESHOLD`].
    pub fn from_csr(g: &CsrGraph) -> Self {
        Self::from_csr_with_threshold(g, DEFAULT_HUB_THRESHOLD)
    }

    /// Compress `g`, keeping vertices of degree `>= hub_threshold` as
    /// raw (uncompressed) blocks. `usize::MAX` compresses everything;
    /// `0` stores every vertex raw (useful to isolate decode overhead
    /// in A/B benches).
    ///
    /// # Panics
    ///
    /// On a malformed adjacency (duplicate neighbor = parallel edge,
    /// or unsorted rows) — impossible for builder-produced graphs.
    pub fn from_csr_with_threshold(g: &CsrGraph, hub_threshold: usize) -> Self {
        Self::try_from_csr(g, hub_threshold).expect("valid CSR adjacency")
    }

    /// Fallible [`Self::from_csr_with_threshold`]: chunked parallel
    /// encode, `Err` on adjacencies no simple graph can have.
    pub fn try_from_csr(g: &CsrGraph, hub_threshold: usize) -> Result<Self, String> {
        let _span = snap_obs::span("ccsr.encode");
        let n = g.num_vertices();
        let directed = g.is_directed();
        // Encode each chunk into its own buffer in parallel, tracking
        // per-vertex block lengths for the offset prefix sum.
        type EncodedChunk = (Vec<u8>, Vec<u32>, usize);
        let encoded: Vec<Result<EncodedChunk, String>> = chunk_bounds(n)
            .par_chunks(1)
            .map(|unit| {
                let mut buf = Vec::new();
                let mut lens = Vec::with_capacity(CHUNK);
                let mut raw_blocks = 0usize;
                for v in unit.iter().flat_map(|&(lo, hi)| lo..hi) {
                    let before = buf.len();
                    let v = v as VertexId;
                    let raw = encode_block(
                        v,
                        g.neighbor_slice(v),
                        g.eid_slice(v),
                        directed,
                        hub_threshold,
                        &mut buf,
                    )?;
                    raw_blocks += raw as usize;
                    lens.push((buf.len() - before) as u32);
                }
                Ok((buf, lens, raw_blocks))
            })
            .collect();
        let encoded = encoded.into_iter().collect::<Result<Vec<_>, String>>()?;

        let mut byte_offsets = Vec::with_capacity(n + 1);
        byte_offsets.push(0usize);
        let total: usize = encoded.iter().map(|(buf, _, _)| buf.len()).sum();
        let mut stream = Vec::with_capacity(total);
        let mut raw_blocks = 0usize;
        for (buf, lens, raws) in &encoded {
            for &len in lens {
                byte_offsets.push(byte_offsets.last().unwrap() + len as usize);
            }
            stream.extend_from_slice(buf);
            raw_blocks += raws;
        }
        debug_assert_eq!(*byte_offsets.last().unwrap(), stream.len());

        let ccsr = CompressedCsrGraph {
            byte_offsets,
            stream,
            endpoints: g.edges().map(|(_, u, v)| (u, v)).collect(),
            weights: if g.is_weighted() {
                (0..g.num_edges() as EdgeId)
                    .map(|e| g.edge_weight(e))
                    .collect()
            } else {
                Vec::new()
            },
            directed,
            num_arcs: g.num_arcs(),
            hub_threshold,
            raw_blocks,
        };
        if snap_obs::is_enabled() {
            snap_obs::gauge_max("ccsr_bytes", ccsr.adjacency_bytes() as f64);
        }
        Ok(ccsr)
    }

    /// Bytes resident for the adjacency structure (offset array + byte
    /// stream). The comparable figure for the flat backend is
    /// [`CsrGraph::adjacency_bytes`]; edge payload (endpoints, weights)
    /// is identical on both and excluded from both.
    pub fn adjacency_bytes(&self) -> usize {
        self.byte_offsets.len() * std::mem::size_of::<usize>() + self.stream.len()
    }

    /// The degree threshold this graph was compressed with.
    pub fn hub_threshold(&self) -> usize {
        self.hub_threshold
    }

    /// How many vertices kept raw (uncompressed) blocks.
    pub fn raw_blocks(&self) -> usize {
        self.raw_blocks
    }

    /// True if the graph carries non-unit weights.
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Iterate over all edges as `(edge_id, u, v)` with canonical
    /// endpoints (mirror of [`CsrGraph::edges`]).
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e as EdgeId, u, v))
    }

    /// Decode vertex `v`'s adjacency into `scratch`, returning the
    /// neighbor and edge-id slices. The single-vertex primitive under
    /// [`Self::par_for_each_adjacency`]; also the fast path for callers
    /// that re-scan one row many times.
    pub fn decode_into<'s>(
        &self,
        v: VertexId,
        scratch: &'s mut DecodeScratch,
    ) -> (&'s [VertexId], &'s [EdgeId]) {
        scratch.targets.clear();
        scratch.eids.clear();
        for (nb, e) in self.neighbors_with_eid(v) {
            scratch.targets.push(nb);
            scratch.eids.push(e);
        }
        (&scratch.targets, &scratch.eids)
    }

    /// Decode every vertex's adjacency in fixed-size vertex chunks, in
    /// parallel, calling `f(v, neighbors, edge_ids)` with slices into
    /// per-thread scratch. Each chunk checks one [`DecodeScratch`] out
    /// of `pool` for its whole run; decoded chunks land on the
    /// `decode_chunks` obs counter.
    pub fn par_for_each_adjacency<F>(&self, pool: &ScratchPool<DecodeScratch>, f: F)
    where
        F: Fn(VertexId, &[VertexId], &[EdgeId]) + Sync,
    {
        let chunks = chunk_bounds(self.num_vertices());
        chunks.par_chunks(1).for_each(|unit| {
            let mut scratch = pool.acquire();
            for v in unit.iter().flat_map(|&(lo, hi)| lo..hi) {
                let v = v as VertexId;
                let (targets, eids) = self.decode_into(v, &mut scratch);
                f(v, targets, eids);
            }
        });
        snap_obs::add("decode_chunks", chunks.len() as u64);
    }

    /// Check structural invariants against the flat edge payload:
    /// every decoded arc's edge id must map back to its canonical
    /// endpoint pair, arc count must match, rows must be sorted.
    /// `O(n + m)`; used by tests.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.byte_offsets.len() != n + 1 {
            return Err("byte_offsets length mismatch".into());
        }
        if *self.byte_offsets.last().unwrap() != self.stream.len() {
            return Err("final byte offset != stream length".into());
        }
        let mut arcs = 0usize;
        for v in self.vertices() {
            let mut prev: Option<VertexId> = None;
            for (nb, e) in self.neighbors_with_eid(v) {
                if (nb as usize) >= n {
                    return Err(format!("arc target {nb} out of range"));
                }
                if (e as usize) >= self.endpoints.len() {
                    return Err(format!("edge id {e} out of range"));
                }
                if let Some(p) = prev {
                    if nb <= p {
                        return Err(format!("adjacency of {v} not strictly increasing"));
                    }
                }
                let (a, b) = self.endpoints[e as usize];
                let ok = if self.directed {
                    (a, b) == (v, nb)
                } else {
                    (a.min(b), a.max(b)) == (v.min(nb), v.max(nb))
                };
                if !ok {
                    return Err(format!(
                        "arc {v}->{nb} disagrees with endpoints of edge {e}"
                    ));
                }
                prev = Some(nb);
                arcs += 1;
            }
        }
        if arcs != self.num_arcs {
            return Err(format!("decoded {arcs} arcs, expected {}", self.num_arcs));
        }
        Ok(())
    }
}

/// Encode one vertex's adjacency block; returns whether it was stored
/// raw. Raw is chosen for hub rows (`degree >= hub_threshold`) and as a
/// correctness fallback when the edge ids do not follow the canonical
/// builder layout (consecutive forward ids, increasing backward ids).
fn encode_block(
    v: VertexId,
    targets: &[VertexId],
    eids: &[EdgeId],
    directed: bool,
    hub_threshold: usize,
    out: &mut Vec<u8>,
) -> Result<bool, String> {
    let d = targets.len();
    for w in targets.windows(2) {
        if w[1] == w[0] {
            return Err(format!("parallel edge to {} in adjacency of {v}", w[0]));
        }
        if w[1] < w[0] {
            return Err(format!("unsorted adjacency of {v}"));
        }
    }
    // Split point: arcs at or after `split` are forward (neighbor >= v;
    // every arc of a digraph), whose edge ids the canonical layout makes
    // consecutive. Before it, backward arcs with increasing ids.
    let split = if directed {
        0
    } else {
        targets.partition_point(|&nb| nb < v)
    };
    let forward_base = eids.get(split).copied().unwrap_or(0);
    let canonical = eids[split..]
        .iter()
        .enumerate()
        .all(|(i, &e)| e == forward_base + i as EdgeId)
        && eids[..split].windows(2).all(|w| w[0] < w[1]);
    let raw = d >= hub_threshold || !canonical;

    write_varint(out, ((d as u64) << 1) | u64::from(raw));
    if d == 0 {
        return Ok(false);
    }
    if raw {
        for &nb in targets {
            out.extend_from_slice(&nb.to_le_bytes());
        }
        for &e in eids {
            out.extend_from_slice(&e.to_le_bytes());
        }
        return Ok(true);
    }
    write_varint(out, u64::from(forward_base));
    let mut prev_nb = 0u32;
    let mut prev_back_eid: Option<EdgeId> = None;
    for (i, (&nb, &e)) in targets.iter().zip(eids).enumerate() {
        if i == 0 {
            write_varint(out, zigzag(i64::from(nb) - i64::from(v)));
        } else {
            write_varint(out, u64::from(nb - prev_nb));
        }
        prev_nb = nb;
        if i < split {
            match prev_back_eid {
                None => write_varint(out, u64::from(e)),
                Some(p) => write_varint(out, u64::from(e - p)),
            }
            prev_back_eid = Some(e);
        }
    }
    Ok(false)
}

/// Streaming decoder over one adjacency block, yielding
/// `(neighbor, edge_id)` in sorted neighbor order.
pub struct CcsrArcs<'g> {
    stream: &'g [u8],
    pos: usize,
    remaining: usize,
    v: VertexId,
    directed: bool,
    raw: bool,
    /// Raw blocks: cursor into the edge-id half (targets at `pos`).
    raw_eid_pos: usize,
    /// Compressed blocks: running decode state.
    forward_base: EdgeId,
    forward_seen: EdgeId,
    prev_nb: VertexId,
    prev_back_eid: Option<EdgeId>,
    first: bool,
}

impl<'g> CcsrArcs<'g> {
    fn new(g: &'g CompressedCsrGraph, v: VertexId) -> Self {
        let stream = &g.stream;
        let mut pos = g.byte_offsets[v as usize];
        let header = read_varint(stream, &mut pos);
        let raw = header & 1 == 1;
        let d = (header >> 1) as usize;
        let mut it = CcsrArcs {
            stream,
            pos,
            remaining: d,
            v,
            directed: g.directed,
            raw,
            raw_eid_pos: 0,
            forward_base: 0,
            forward_seen: 0,
            prev_nb: 0,
            prev_back_eid: None,
            first: true,
        };
        if d > 0 {
            if raw {
                it.raw_eid_pos = pos + 4 * d;
            } else {
                it.forward_base = read_varint(stream, &mut it.pos) as EdgeId;
            }
        }
        it
    }
}

impl Iterator for CcsrArcs<'_> {
    type Item = (VertexId, EdgeId);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, EdgeId)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.raw {
            let nb = u32::from_le_bytes(self.stream[self.pos..self.pos + 4].try_into().unwrap());
            let e = u32::from_le_bytes(
                self.stream[self.raw_eid_pos..self.raw_eid_pos + 4]
                    .try_into()
                    .unwrap(),
            );
            self.pos += 4;
            self.raw_eid_pos += 4;
            return Some((nb, e));
        }
        let nb = if self.first {
            self.first = false;
            (i64::from(self.v) + unzigzag(read_varint(self.stream, &mut self.pos))) as VertexId
        } else {
            self.prev_nb + read_varint(self.stream, &mut self.pos) as VertexId
        };
        self.prev_nb = nb;
        let e = if !self.directed && nb < self.v {
            let delta = read_varint(self.stream, &mut self.pos) as EdgeId;
            let e = match self.prev_back_eid {
                None => delta,
                Some(p) => p + delta,
            };
            self.prev_back_eid = Some(e);
            e
        } else {
            let e = self.forward_base + self.forward_seen;
            self.forward_seen += 1;
            e
        };
        Some((nb, e))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CcsrArcs<'_> {}

impl Graph for CompressedCsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.byte_offsets.len() - 1
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.directed
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let mut pos = self.byte_offsets[v as usize];
        (read_varint(&self.stream, &mut pos) >> 1) as usize
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        CcsrArcs::new(self, v).map(|(nb, _)| nb)
    }

    #[inline]
    fn neighbors_with_eid(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        CcsrArcs::new(self, v)
    }

    #[inline]
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.endpoints[e as usize]
    }
}

impl WeightedGraph for CompressedCsrGraph {
    #[inline]
    fn edge_weight(&self, e: EdgeId) -> Weight {
        if self.weights.is_empty() {
            1
        } else {
            self.weights[e as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{from_edges, GraphBuilder};

    fn assert_equivalent(g: &CsrGraph, c: &CompressedCsrGraph) {
        assert_eq!(g.num_vertices(), c.num_vertices());
        assert_eq!(g.num_edges(), c.num_edges());
        assert_eq!(g.num_arcs(), c.num_arcs());
        assert_eq!(g.is_directed(), c.is_directed());
        for v in g.vertices() {
            assert_eq!(g.degree(v), c.degree(v), "degree of {v}");
            let a: Vec<_> = g.neighbors_with_eid(v).collect();
            let b: Vec<_> = c.neighbors_with_eid(v).collect();
            assert_eq!(a, b, "adjacency of {v}");
        }
        for e in 0..g.num_edges() as EdgeId {
            assert_eq!(g.edge_endpoints(e), c.edge_endpoints(e));
            assert_eq!(g.edge_weight(e), c.edge_weight(e));
        }
        c.validate().unwrap();
    }

    #[test]
    fn varint_round_trip_edges() {
        let mut buf = Vec::new();
        for x in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            codec::write_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(codec::read_varint(&buf, &mut pos), x);
            assert_eq!(pos, buf.len());
        }
        for x in [0i64, -1, 1, i64::from(u32::MAX), -i64::from(u32::MAX)] {
            assert_eq!(codec::unzigzag(codec::zigzag(x)), x);
        }
    }

    #[test]
    fn encode_sorted_rejects_gap_zero() {
        let mut buf = Vec::new();
        let err = codec::encode_sorted(0, &[3, 3], &mut buf).unwrap_err();
        assert!(err.contains("parallel edge"), "{err}");
        assert!(codec::encode_sorted(0, &[5, 2], &mut buf).is_err());
    }

    #[test]
    fn round_trip_small_graphs() {
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        assert_equivalent(&g, &CompressedCsrGraph::from_csr(&g));
        // Everything raw and everything compressed must also agree.
        assert_equivalent(&g, &CompressedCsrGraph::from_csr_with_threshold(&g, 0));
        let all = CompressedCsrGraph::from_csr_with_threshold(&g, usize::MAX);
        assert_equivalent(&g, &all);
        assert_eq!(all.raw_blocks(), 0);
    }

    #[test]
    fn round_trip_directed_and_weighted() {
        let d = GraphBuilder::directed(5)
            .add_edges([(2, 0), (0, 1), (4, 2), (1, 4), (0, 3)])
            .build();
        assert_equivalent(
            &d,
            &CompressedCsrGraph::from_csr_with_threshold(&d, usize::MAX),
        );
        let w = GraphBuilder::undirected(4)
            .add_weighted_edges([(0, 1, 7), (1, 2, 3), (2, 3, 9), (0, 3, 2)])
            .build();
        let cw = CompressedCsrGraph::from_csr(&w);
        assert!(cw.is_weighted());
        assert_equivalent(&w, &cw);
    }

    #[test]
    fn round_trip_self_loops_and_isolated() {
        let g = GraphBuilder::undirected(5)
            .with_self_loops()
            .add_edges([(0, 0), (0, 1), (2, 2), (1, 3)])
            .build();
        assert_equivalent(
            &g,
            &CompressedCsrGraph::from_csr_with_threshold(&g, usize::MAX),
        );
        let empty = CsrGraph::empty(4, false);
        assert_equivalent(&empty, &CompressedCsrGraph::from_csr(&empty));
    }

    #[test]
    fn hub_threshold_splits_blocks() {
        // Star: the center has degree 32, leaves degree 1.
        let edges: Vec<(u32, u32)> = (1..=32).map(|i| (0, i)).collect();
        let g = from_edges(33, &edges);
        let c = CompressedCsrGraph::from_csr_with_threshold(&g, 32);
        assert_eq!(c.raw_blocks(), 1);
        assert_equivalent(&g, &c);
    }

    #[test]
    fn compression_shrinks_adjacency() {
        // Ring: degree 2, so the shared n-vertex offset array dominates
        // both backends — still expect a strict win, with the stream
        // itself far under the flat 8 bytes/arc.
        let edges: Vec<(u32, u32)> = (0..512u32).map(|i| (i, (i + 1) % 512)).collect();
        let g = from_edges(512, &edges);
        let c = CompressedCsrGraph::from_csr_with_threshold(&g, usize::MAX);
        assert!(
            c.adjacency_bytes() < g.adjacency_bytes(),
            "compressed {} vs flat {}",
            c.adjacency_bytes(),
            g.adjacency_bytes()
        );
        // Denser random graph (average degree ~16, the paper's R-MAT
        // shape): the whole structure lands at or under 60% of flat —
        // the acceptance target for the scale-18 run.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 2048u32;
        let mut edges = Vec::new();
        for _ in 0..(n as usize * 8) {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u != v {
                edges.push((u, v));
            }
        }
        let g = from_edges(n as usize, &edges);
        let c = CompressedCsrGraph::from_csr(&g);
        assert!(
            c.adjacency_bytes() * 10 <= g.adjacency_bytes() * 6,
            "compressed {} vs flat {} exceeds 60%",
            c.adjacency_bytes(),
            g.adjacency_bytes()
        );
    }

    #[test]
    fn chunked_decoder_covers_every_arc() {
        let edges: Vec<(u32, u32)> = (0..300u32)
            .flat_map(|i| [(i, (i + 1) % 300), (i, (i + 7) % 300)])
            .collect();
        let g = from_edges(300, &edges);
        let c = CompressedCsrGraph::from_csr(&g);
        let pool = ScratchPool::<DecodeScratch>::new();
        let arcs = std::sync::atomic::AtomicUsize::new(0);
        c.par_for_each_adjacency(&pool, |v, targets, eids| {
            assert_eq!(targets.len(), eids.len());
            let expect: Vec<_> = g.neighbor_slice(v).to_vec();
            assert_eq!(targets, expect.as_slice());
            arcs.fetch_add(targets.len(), std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(
            arcs.load(std::sync::atomic::Ordering::Relaxed),
            g.num_arcs()
        );
    }

    #[test]
    fn edge_ids_derived_not_stored() {
        // Compressed blocks carry no forward edge ids: a path graph's
        // stream must be far smaller than 4 bytes/arc of id storage.
        let edges: Vec<(u32, u32)> = (0..1000u32).map(|i| (i, i + 1)).collect();
        let g = from_edges(1001, &edges);
        let c = CompressedCsrGraph::from_csr_with_threshold(&g, usize::MAX);
        let stream_bytes = c.adjacency_bytes() - (c.num_vertices() + 1) * 8;
        assert!(
            stream_bytes < g.num_arcs() * 4,
            "stream is {stream_bytes} bytes for {} arcs — ids must not be flat",
            g.num_arcs()
        );
        assert_equivalent(&g, &c);
    }
}
