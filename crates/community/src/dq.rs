//! The ΔQ sparse matrix for greedy agglomerative modularity clustering
//! (Clauset–Newman–Moore), with the paper's data-representation choices:
//! each row is a **sorted dynamic array** (`O(log n)` lookup, in-place
//! merge) and a global **max-heap** finds the best community pair; heap
//! entries are validated lazily against the rows, replacing explicit
//! deletion (the role the paper's multi-level buckets play).

use rayon::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A candidate merge in the heap.
#[derive(Clone, Copy, Debug)]
struct Entry {
    dq: f64,
    i: u32,
    j: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.dq == other.dq && self.i == other.i && self.j == other.j
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dq
            .partial_cmp(&other.dq)
            .unwrap_or(Ordering::Equal)
            .then(other.i.cmp(&self.i))
            .then(other.j.cmp(&self.j))
    }
}

/// Operation tallies of a [`DqMatrix`] lifetime — the heap-churn /
/// row-rebuild profile the paper's data-structure discussion is about.
/// Plain integers bumped on the sequential owner thread; flushed into the
/// observability report by the caller at run end.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DqStats {
    /// Candidate entries pushed (initialization + refreshes).
    pub heap_pushes: u64,
    /// Entries popped, live or stale.
    pub heap_pops: u64,
    /// Popped entries discarded as dead/superseded (lazy deletion cost).
    pub stale_pops: u64,
    /// Community merges applied.
    pub rows_merged: u64,
    /// ΔQ row entries recomputed across all merges.
    pub row_updates: u64,
}

/// Sorted-row sparse ΔQ matrix over live communities.
pub(crate) struct DqMatrix {
    /// Row per community: `(other_community, dq)` sorted by id.
    rows: Vec<Vec<(u32, f64)>>,
    /// Degree fraction `a_i = d_i / 2m` per community.
    pub a: Vec<f64>,
    alive: Vec<bool>,
    heap: BinaryHeap<Entry>,
    /// Number of live communities.
    pub live: usize,
    /// Size threshold above which row updates are computed in parallel.
    par_threshold: usize,
    stats: DqStats,
}

fn row_get(row: &[(u32, f64)], k: u32) -> Option<f64> {
    row.binary_search_by_key(&k, |&(c, _)| c)
        .ok()
        .map(|idx| row[idx].1)
}

fn row_remove(row: &mut Vec<(u32, f64)>, k: u32) {
    if let Ok(idx) = row.binary_search_by_key(&k, |&(c, _)| c) {
        row.remove(idx);
    }
}

fn row_insert(row: &mut Vec<(u32, f64)>, k: u32, dq: f64) {
    match row.binary_search_by_key(&k, |&(c, _)| c) {
        Ok(idx) => row[idx].1 = dq,
        Err(idx) => row.insert(idx, (k, dq)),
    }
}

impl DqMatrix {
    /// Initialize from adjacency: `edges[i]` lists `(j, m_ij)` pairs with
    /// `m_ij` the edge count between singleton communities i and j;
    /// `a[i] = d_i / 2m`.
    pub fn new(
        neighbor_edges: Vec<Vec<(u32, f64)>>,
        a: Vec<f64>,
        m: f64,
        par_threshold: usize,
    ) -> Self {
        let n = a.len();
        let mut rows = Vec::with_capacity(n);
        let mut heap = BinaryHeap::new();
        let mut stats = DqStats::default();
        for (i, nbrs) in neighbor_edges.into_iter().enumerate() {
            let mut row: Vec<(u32, f64)> = nbrs
                .into_iter()
                .filter(|&(j, _)| j as usize != i)
                .map(|(j, mij)| (j, mij / m - 2.0 * a[i] * a[j as usize]))
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            row.dedup_by_key(|&mut (c, _)| c);
            for &(j, dq) in &row {
                if (i as u32) < j {
                    heap.push(Entry { dq, i: i as u32, j });
                    stats.heap_pushes += 1;
                }
            }
            rows.push(row);
        }
        DqMatrix {
            live: n,
            alive: vec![true; n],
            rows,
            a,
            heap,
            par_threshold,
            stats,
        }
    }

    /// Operation tallies accumulated so far.
    pub fn stats(&self) -> DqStats {
        self.stats
    }

    /// Pop the best live merge candidate, or `None` when no candidate
    /// remains. Stale heap entries (superseded values, dead communities)
    /// are discarded lazily.
    pub(crate) fn pop_best(&mut self) -> Option<(u32, u32, f64)> {
        while let Some(e) = self.heap.pop() {
            self.stats.heap_pops += 1;
            if !self.alive[e.i as usize] || !self.alive[e.j as usize] {
                self.stats.stale_pops += 1;
                continue;
            }
            match row_get(&self.rows[e.i as usize], e.j) {
                Some(current) if current == e.dq => return Some((e.i, e.j, e.dq)),
                _ => {
                    self.stats.stale_pops += 1;
                    continue; // superseded
                }
            }
        }
        None
    }

    /// Merge community `j` into `i` (both live, `dq` already validated).
    /// Updates all affected rows and pushes fresh heap entries; the ΔQ
    /// recomputation over the neighbor union runs in parallel for large
    /// rows (the paper's parallelized update step).
    pub fn merge(&mut self, i: u32, j: u32) {
        debug_assert!(self.alive[i as usize] && self.alive[j as usize]);
        let row_i = std::mem::take(&mut self.rows[i as usize]);
        let row_j = std::mem::take(&mut self.rows[j as usize]);
        let (ai, aj) = (self.a[i as usize], self.a[j as usize]);

        // Neighbor union, excluding i and j themselves.
        let mut union: Vec<u32> = Vec::with_capacity(row_i.len() + row_j.len());
        union.extend(row_i.iter().map(|&(c, _)| c));
        union.extend(row_j.iter().map(|&(c, _)| c));
        union.sort_unstable();
        union.dedup();
        union.retain(|&k| k != i && k != j && self.alive[k as usize]);

        // CNM update rules per neighbor k.
        let compute = |k: u32| -> (u32, f64) {
            let ik = row_get(&row_i, k);
            let jk = row_get(&row_j, k);
            let ak = self.a[k as usize];
            let dq = match (ik, jk) {
                (Some(x), Some(y)) => x + y,
                (Some(x), None) => x - 2.0 * aj * ak,
                (None, Some(y)) => y - 2.0 * ai * ak,
                (None, None) => unreachable!("k came from the union"),
            };
            (k, dq)
        };
        let updates: Vec<(u32, f64)> = if union.len() >= self.par_threshold {
            union.par_iter().map(|&k| compute(k)).collect()
        } else {
            union.iter().map(|&k| compute(k)).collect()
        };

        // New row for i (sorted because `union` is sorted).
        self.rows[i as usize] = updates.clone();

        // Update neighbor rows and refresh heap entries.
        for &(k, dq) in &updates {
            let row_k = &mut self.rows[k as usize];
            row_remove(row_k, j);
            row_insert(row_k, i, dq);
            let (lo, hi) = (i.min(k), i.max(k));
            self.heap.push(Entry { dq, i: lo, j: hi });
        }
        self.stats.rows_merged += 1;
        self.stats.row_updates += updates.len() as u64;
        self.stats.heap_pushes += updates.len() as u64;

        self.a[i as usize] = ai + aj;
        self.a[j as usize] = 0.0;
        self.alive[j as usize] = false;
        self.live -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle with unit edges: m = 3, all degrees 2, a_i = 1/3.
    fn triangle_matrix() -> DqMatrix {
        let edges = vec![
            vec![(1, 1.0), (2, 1.0)],
            vec![(0, 1.0), (2, 1.0)],
            vec![(0, 1.0), (1, 1.0)],
        ];
        DqMatrix::new(edges, vec![1.0 / 3.0; 3], 3.0, 1024)
    }

    #[test]
    fn initial_dq_values() {
        let mut m = triangle_matrix();
        let (_, _, dq) = m.pop_best().unwrap();
        // 1/3 - 2/9 = 1/9.
        assert!((dq - 1.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn merge_updates_union_rows() {
        let mut m = triangle_matrix();
        let (i, j, _) = m.pop_best().unwrap();
        m.merge(i, j);
        assert_eq!(m.live, 2);
        // Remaining pair: merged {i,j} and k; dq = (dq_ik + dq_jk).
        let (_, _, dq) = m.pop_best().unwrap();
        assert!((dq - 2.0 / 9.0).abs() < 1e-12, "dq = {dq}");
    }

    #[test]
    fn stale_entries_skipped() {
        let mut m = triangle_matrix();
        let (i, j, _) = m.pop_best().unwrap();
        m.merge(i, j);
        // All original entries involving j are dead or superseded; pops
        // must never return j.
        while let Some((a, b, _)) = m.pop_best() {
            assert_ne!(a, j);
            assert_ne!(b, j);
            m.merge(a, b);
        }
        assert_eq!(m.live, 1);
    }

    #[test]
    fn disconnected_pairs_never_appear() {
        // Two disconnected edges: 0-1, 2-3.
        let edges = vec![
            vec![(1, 1.0)],
            vec![(0, 1.0)],
            vec![(3, 1.0)],
            vec![(2, 1.0)],
        ];
        let mut m = DqMatrix::new(edges, vec![0.25; 4], 2.0, 1024);
        let mut merges = 0;
        while let Some((i, j, _)) = m.pop_best() {
            m.merge(i, j);
            merges += 1;
        }
        // Only the two intra-pair merges happen; no cross-component pair
        // ever enters the matrix.
        assert_eq!(merges, 2);
        assert_eq!(m.live, 2);
    }
}
