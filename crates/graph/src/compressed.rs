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
//! * **compressed block** (`raw_flag == 0`): a varint holding the byte
//!   length of the targets section, then the **targets**: zig-zag varint
//!   `first - v` for the first neighbor (the sign carries whether `v`'s
//!   list starts below or above it), plain varint gap (`≥ 1`; a gap of
//!   `0` would be a parallel edge, rejected at encode time) for the
//!   rest; then the **edge-id material**: a varint `forward_base` (the
//!   edge id of `v`'s first *forward* arc) and, for the *backward* arcs
//!   in order, their edge-id gaps (the first from 0).
//!
//! Edge ids are not stored per forward arc at all: the builder (and the
//! streaming merge) assign edge ids in sorted canonical `(u, v)` order,
//! so the forward arcs of `v` (to neighbors `≥ v`, or every arc in a
//! digraph) carry *consecutive* ids `forward_base + i`, and the backward
//! arcs' ids are strictly increasing in the neighbor — varint-gap
//! material. This is what pushes the stream under ~2 bytes/arc where the
//! flat arrays pay 8.
//!
//! # Decoding
//!
//! Targets come first so that [`Graph::neighbors`] — BFS pull steps,
//! k-core, every caller that needs no edge id — reads the header, skips
//! the length and decodes gaps, never touching an edge id; a pull step
//! that stops after one target reads three varints. The length varint
//! lets [`Graph::neighbors_with_eid`] walk the targets and the edge-id
//! material side by side. Both iterators share one varint reader whose
//! one-byte case returns without a loop.
//!
//! Whole-graph sweeps use [`CompressedCsrGraph::par_for_each_adjacency`]:
//! vertices are split into fixed chunks, each chunk decoded by one rayon
//! worker into per-thread scratch acquired from a
//! [`ScratchPool<DecodeScratch>`] (the pool the traversal workspaces
//! come from), a whole block at a time: the targets section in one loop,
//! then the edge ids. The callback sees plain `&[VertexId]` /
//! `&[EdgeId]` slices. Decoded chunks are counted on the `decode_chunks`
//! obs counter; resident adjacency bytes surface as the `ccsr_bytes`
//! gauge.

use crate::csr::CsrGraph;
use crate::scratch::{Scratch, ScratchPool};
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
/// stream.
pub(crate) mod codec {
    /// Append `x` as an LEB128 varint (7 bits per byte, high bit =
    /// continuation).
    #[inline]
    pub(crate) fn write_varint(out: &mut Vec<u8>, mut x: u64) {
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

    /// Bytes [`write_varint`] takes for `x`.
    #[inline]
    pub(crate) fn varint_len(x: u64) -> usize {
        (64 - (x | 1).leading_zeros() as usize).div_ceil(7)
    }

    /// Read a varint at `*pos`, advancing it past the encoding. A
    /// one-byte varint (most headers and lengths, a dense row's gaps)
    /// returns without entering the loop.
    #[inline(always)]
    pub(crate) fn read_varint(buf: &[u8], pos: &mut usize) -> u64 {
        let byte = buf[*pos];
        *pos += 1;
        if byte & 0x80 == 0 {
            return u64::from(byte);
        }
        read_varint_tail(buf, pos, byte)
    }

    /// The bytes after a varint's first byte `first`, which had the
    /// continuation bit set. Inlined: most R-MAT gaps take two bytes, and
    /// a call here costs more than the loop.
    #[inline(always)]
    fn read_varint_tail(buf: &[u8], pos: &mut usize, first: u8) -> u64 {
        let mut x = u64::from(first & 0x7f);
        let mut shift = 7u32;
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

    /// The little-endian `u32` at `buf[pos..pos + 4]` (a raw block's
    /// target or edge id).
    #[inline]
    pub(crate) fn read_u32_le(buf: &[u8], pos: usize) -> u32 {
        u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("a 4-byte slice"))
    }

    /// Zig-zag map a signed delta to an unsigned varint payload
    /// (`0, -1, 1, -2, ... -> 0, 1, 2, 3, ...`).
    #[inline]
    pub(crate) fn zigzag(x: i64) -> u64 {
        ((x << 1) ^ (x >> 63)) as u64
    }

    /// Inverse of [`zigzag`].
    #[inline]
    pub(crate) fn unzigzag(x: u64) -> i64 {
        ((x >> 1) as i64) ^ -((x & 1) as i64)
    }
}

use codec::{read_u32_le, read_varint, unzigzag, varint_len, write_varint, zigzag};

/// Per-thread decode target for the chunked parallel decoder: the
/// neighbor/edge-id slices of one vertex at a time, reused across every
/// vertex a worker decodes.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    targets: Vec<VertexId>,
    eids: Vec<EdgeId>,
}

impl Scratch for DecodeScratch {}

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
/// backend (enforced by the equivalence proptests and the workspace's
/// differential table, `tests/differential.rs`). Edge *payload*
/// (canonical endpoints, weights) stays flat: `edge_endpoints(e)` must be
/// O(1) for the edge-centric algorithms, and those arrays are per-edge,
/// not per-arc.
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
    pub(crate) fn from_csr_with_threshold(g: &CsrGraph, hub_threshold: usize) -> Self {
        Self::try_from_csr(g, hub_threshold).expect("valid CSR adjacency")
    }

    /// Fallible [`Self::from_csr_with_threshold`]: chunked parallel
    /// encode, `Err` on adjacencies no simple graph can have.
    fn try_from_csr(g: &CsrGraph, hub_threshold: usize) -> Result<Self, String> {
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
    /// neighbor and edge-id slices: the single-vertex primitive under
    /// [`Self::par_for_each_adjacency`]. It decodes the whole block at
    /// once — the targets section in one loop, then the edge ids — where
    /// the streaming iterator interleaves the two.
    fn decode_into<'s>(
        &self,
        v: VertexId,
        scratch: &'s mut DecodeScratch,
    ) -> (&'s [VertexId], &'s [EdgeId]) {
        let DecodeScratch { targets, eids } = scratch;
        targets.clear();
        eids.clear();
        let (row, mut eid_pos) = CcsrTargets::open(self, v);
        let (d, raw) = (row.remaining, row.raw);
        targets.extend(row);
        let s = &self.stream[..];
        if raw {
            eids.extend((0..d).map(|i| read_u32_le(s, eid_pos + 4 * i)));
        } else if d > 0 {
            let forward_base = read_varint(s, &mut eid_pos) as EdgeId;
            let split = if self.directed {
                0
            } else {
                targets.partition_point(|&nb| nb < v)
            };
            let mut e = 0;
            eids.extend((0..split).map(|_| {
                e += read_varint(s, &mut eid_pos) as EdgeId;
                e
            }));
            eids.extend(forward_base..forward_base + (d - split) as EdgeId);
        }
        (targets, eids)
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
    // One pass checks the row and sizes its targets section, so the
    // length can be written before the targets without a scratch buffer.
    let mut targets_len = 0usize;
    for (i, &nb) in targets.iter().enumerate() {
        let code = if i == 0 {
            zigzag(i64::from(nb) - i64::from(v))
        } else {
            let prev = targets[i - 1];
            if nb == prev {
                return Err(format!("parallel edge to {prev} in adjacency of {v}"));
            }
            if nb < prev {
                return Err(format!("unsorted adjacency of {v}"));
            }
            u64::from(nb - prev)
        };
        targets_len += varint_len(code);
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
    write_varint(out, targets_len as u64);
    let start = out.len();
    write_varint(out, zigzag(i64::from(targets[0]) - i64::from(v)));
    for w in targets.windows(2) {
        write_varint(out, u64::from(w[1] - w[0]));
    }
    debug_assert_eq!(out.len() - start, targets_len);
    write_varint(out, u64::from(forward_base));
    let mut prev_back_eid = 0;
    for &e in &eids[..split] {
        write_varint(out, u64::from(e - prev_back_eid));
        prev_back_eid = e;
    }
    Ok(false)
}

/// Streaming decoder over the targets of one adjacency block, in sorted
/// order. It never reads an edge id: [`Graph::neighbors`] is this
/// iterator, and [`CcsrArcs`] walks the edge-id material beside it.
struct CcsrTargets<'g> {
    stream: &'g [u8],
    pos: usize,
    remaining: usize,
    raw: bool,
    /// Compressed blocks: the last target decoded (`v` before the first,
    /// which is zig-zag coded from it).
    prev: VertexId,
    first: bool,
}

impl<'g> CcsrTargets<'g> {
    /// The targets of `v`'s block and the stream offset of its edge-id
    /// material.
    #[inline]
    fn open(g: &'g CompressedCsrGraph, v: VertexId) -> (Self, usize) {
        let stream = &g.stream[..];
        let mut pos = g.byte_offsets[v as usize];
        let header = read_varint(stream, &mut pos);
        let raw = header & 1 == 1;
        let d = (header >> 1) as usize;
        let eid_pos = match (d, raw) {
            (0, _) => pos,
            (_, true) => pos + 4 * d,
            (_, false) => {
                let targets_len = read_varint(stream, &mut pos) as usize;
                pos + targets_len
            }
        };
        let it = CcsrTargets {
            stream,
            pos,
            remaining: d,
            raw,
            prev: v,
            first: true,
        };
        (it, eid_pos)
    }
}

impl Iterator for CcsrTargets<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if self.raw {
            let nb = read_u32_le(self.stream, self.pos);
            self.pos += 4;
            return Some(nb);
        }
        let code = read_varint(self.stream, &mut self.pos);
        self.prev = if self.first {
            self.first = false;
            (i64::from(self.prev) + unzigzag(code)) as VertexId
        } else {
            self.prev + code as VertexId
        };
        Some(self.prev)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CcsrTargets<'_> {}

/// Streaming decoder over one adjacency block, yielding
/// `(neighbor, edge_id)` in sorted neighbor order.
pub struct CcsrArcs<'g> {
    targets: CcsrTargets<'g>,
    /// Cursor into the block's edge-id material: the raw block's id half,
    /// or the compressed block's backward-id gaps.
    eid_pos: usize,
    v: VertexId,
    directed: bool,
    /// Compressed blocks: the id of the next forward arc.
    forward_next: EdgeId,
    prev_back_eid: EdgeId,
}

impl<'g> CcsrArcs<'g> {
    fn new(g: &'g CompressedCsrGraph, v: VertexId) -> Self {
        let (targets, mut eid_pos) = CcsrTargets::open(g, v);
        let forward_next = if targets.remaining > 0 && !targets.raw {
            read_varint(targets.stream, &mut eid_pos) as EdgeId
        } else {
            0
        };
        CcsrArcs {
            targets,
            eid_pos,
            v,
            directed: g.directed,
            forward_next,
            prev_back_eid: 0,
        }
    }
}

impl Iterator for CcsrArcs<'_> {
    type Item = (VertexId, EdgeId);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, EdgeId)> {
        let nb = self.targets.next()?;
        let stream = self.targets.stream;
        let e = if self.targets.raw {
            let e = read_u32_le(stream, self.eid_pos);
            self.eid_pos += 4;
            e
        } else if !self.directed && nb < self.v {
            self.prev_back_eid += read_varint(stream, &mut self.eid_pos) as EdgeId;
            self.prev_back_eid
        } else {
            let e = self.forward_next;
            self.forward_next += 1;
            e
        };
        Some((nb, e))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.targets.size_hint()
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
        CcsrTargets::open(self, v).0
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
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// Rows a simple graph cannot have are refused before anything is
    /// written: a repeated neighbour is a parallel edge (its gap would be
    /// 0), and a row out of order would need a negative gap.
    #[test]
    fn encode_block_rejects_parallel_and_unsorted_rows() {
        let mut buf = Vec::new();
        let err = encode_block(0, &[3, 3], &[0, 1], false, usize::MAX, &mut buf).unwrap_err();
        assert!(err.contains("parallel edge to 3"), "{err}");
        let err = encode_block(1, &[5, 2], &[0, 1], false, usize::MAX, &mut buf).unwrap_err();
        assert!(err.contains("unsorted adjacency of 1"), "{err}");
        assert!(buf.is_empty(), "nothing is written before the check");
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

    /// Strategy: a random undirected edge list over `n <= 24` vertices.
    fn edge_list() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
        (2usize..24).prop_flat_map(|n| {
            let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..64);
            (Just(n), edges)
        })
    }

    /// Strategy: a graph whose edges join a pool of up to 24 vertex ids —
    /// directed or not, self-loops kept or not, weighted or not. The id
    /// range is small, about 2^15 or about 2^20, and the pool is drawn
    /// near 0, near the top of the range and anywhere in it, so that
    /// first-target zig-zags and gaps take one to four bytes.
    fn spread_graph() -> impl Strategy<Value = CsrGraph> {
        let shape = (0u8..2, 0u8..2, 0u8..2);
        // A 2^20 range costs ~1 s a case in a debug build: one case in
        // sixteen. A 2^15 range already takes three-byte codes.
        let n = (0usize..16, 2usize..48).prop_map(|(p, n)| match p {
            0 => (1 << 20) + n,
            1..=4 => (1 << 15) + n,
            _ => n,
        });
        (shape, n)
            .prop_flat_map(|(shape, n)| {
                let top = n as u32;
                let near = top.min(64);
                let id = (0u8..3, 0..top).prop_map(move |(kind, x)| match kind {
                    0 => x % near,
                    1 => top - 1 - x % near,
                    _ => x,
                });
                let pool = prop::collection::vec(id, 1..24);
                let picks = prop::collection::vec((0usize..1024, 0usize..1024, 1u32..100), 0..96);
                (Just((shape, n)), pool, picks)
            })
            .prop_map(|(((directed, loops, weighted), n), pool, picks)| {
                let mut b = if directed == 1 {
                    GraphBuilder::directed(n)
                } else {
                    GraphBuilder::undirected(n)
                };
                if loops == 1 {
                    b = b.with_self_loops();
                }
                let edges = picks
                    .iter()
                    .map(|&(a, c, w)| (pool[a % pool.len()], pool[c % pool.len()], w));
                if weighted == 1 {
                    b.add_weighted_edges(edges).build()
                } else {
                    b.add_edges(edges.map(|(u, v, _)| (u, v))).build()
                }
            })
    }

    proptest! {
        /// The compressed backend is observationally identical to the
        /// `CsrGraph` it was built from — counts, degrees, sorted adjacency
        /// with edge ids, endpoints, and the edge-id contract — at every
        /// hub-threshold regime (0 = everything raw, small = mixed,
        /// `usize::MAX` = everything delta/varint).
        #[test]
        fn compressed_matches_csr((n, edges) in edge_list(), threshold_pick in 0usize..3) {
            let g = GraphBuilder::undirected(n).add_edges(edges).build();
            let threshold = [0, 4, usize::MAX][threshold_pick];
            let c = CompressedCsrGraph::from_csr_with_threshold(&g, threshold);
            c.validate().unwrap();
            prop_assert_eq!(c.num_vertices(), g.num_vertices());
            prop_assert_eq!(c.num_edges(), g.num_edges());
            prop_assert_eq!(c.num_arcs(), g.num_arcs());
            prop_assert_eq!(c.is_directed(), g.is_directed());
            for v in g.vertices() {
                prop_assert_eq!(c.degree(v), g.degree(v));
                let a: Vec<_> = g.neighbors_with_eid(v).collect();
                let b: Vec<_> = c.neighbors_with_eid(v).collect();
                prop_assert_eq!(a, b, "adjacency of {}", v);
            }
            for e in g.edge_ids() {
                prop_assert_eq!(c.edge_endpoints(e), g.edge_endpoints(e));
            }
            prop_assert_eq!(c.edge_ids().count(), c.num_edges());
            prop_assert!(c.edge_ids().all(|e| (e as usize) < c.edge_id_bound()));
            prop_assert_eq!(c.edge_ids().collect::<Vec<_>>(), g.edge_ids().collect::<Vec<_>>());
        }

        /// The targets-only path (`neighbors`), the paired path
        /// (`neighbors_with_eid`) and the whole-block decoder under
        /// `par_for_each_adjacency` (at 1, 2 and 8 threads) each return
        /// exactly the CSR's rows, with raw and delta-coded blocks mixed
        /// by the hub threshold.
        #[test]
        fn targets_path_matches_csr(g in spread_graph(), pick in 0usize..4) {
            let threshold = [0, 1, 4, usize::MAX][pick];
            let c = CompressedCsrGraph::from_csr_with_threshold(&g, threshold);
            c.validate().unwrap();
            for v in g.vertices() {
                prop_assert_eq!(c.degree(v), g.degree(v), "degree of {}", v);
                let row = g.neighbor_slice(v).iter().copied();
                prop_assert!(c.neighbors(v).eq(row), "neighbors of {}", v);
                let arcs = g.neighbors_with_eid(v);
                prop_assert!(c.neighbors_with_eid(v).eq(arcs), "arcs of {}", v);
            }
            let pool = ScratchPool::<DecodeScratch>::new();
            for threads in [1, 2, 8] {
                let (rows, wrong) = (AtomicUsize::new(0), AtomicUsize::new(0));
                let run = || {
                    c.par_for_each_adjacency(&pool, |v, targets, eids| {
                        let ok = targets == g.neighbor_slice(v)
                            && eids.iter().copied().eq(g.neighbors_with_eid(v).map(|(_, e)| e));
                        rows.fetch_add(1, Ordering::Relaxed);
                        wrong.fetch_add(usize::from(!ok), Ordering::Relaxed);
                    })
                };
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap()
                    .install(run);
                prop_assert_eq!(rows.into_inner(), g.num_vertices(), "{} threads", threads);
                prop_assert_eq!(wrong.into_inner(), 0, "{} threads", threads);
            }
        }

        /// varint round-trips arbitrary u64s (plus 0, u32::MAX, u64::MAX)
        /// and zig-zag round-trips arbitrary i64s.
        #[test]
        fn varint_zigzag_round_trip(
            xs in prop::collection::vec(0u64..u64::MAX, 1..64),
            s in i64::MIN..i64::MAX,
        ) {
            let mut buf = Vec::new();
            for &x in xs.iter().chain(&[0, u64::from(u32::MAX), u64::MAX]) {
                buf.clear();
                codec::write_varint(&mut buf, x);
                let mut pos = 0;
                prop_assert_eq!(codec::read_varint(&buf, &mut pos), x);
                prop_assert_eq!(pos, buf.len());
            }
            prop_assert_eq!(codec::unzigzag(codec::zigzag(s)), s);
            prop_assert_eq!(codec::unzigzag(codec::zigzag(i64::MIN)), i64::MIN);
            prop_assert_eq!(codec::unzigzag(codec::zigzag(i64::MAX)), i64::MAX);
        }
    }
}
