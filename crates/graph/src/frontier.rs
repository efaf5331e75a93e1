//! BFS frontier with an occupancy-adaptive representation.
//!
//! Level-synchronous traversals touch the frontier in two ways: top-down
//! (push) expansion iterates its members, bottom-up (pull) expansion asks
//! membership queries for every scanned arc. A sparse `Vec<VertexId>` is
//! ideal for the first and useless for the second; a dense [`Bitmap`] is
//! the reverse. [`Frontier`] holds either representation, converts on
//! demand, and [`Frontier::normalize`] picks the cheaper one by occupancy
//! so the direction-optimizing BFS can hand the same object to both
//! phases.

use crate::bitset::Bitmap;
use crate::VertexId;

/// Occupancy divisor for [`Frontier::normalize`]: the dense representation
/// is chosen once more than `n / DENSE_DIVISOR` vertices are present (at
/// that point the bitmap is both smaller and faster to probe than the
/// vector is to scan).
pub const DENSE_DIVISOR: usize = 16;

enum Repr {
    Sparse(Vec<VertexId>),
    Dense { bits: Bitmap, count: usize },
}

/// A set of vertices (one BFS level) over a graph with `n` vertices.
pub struct Frontier {
    n: usize,
    repr: Repr,
}

impl Frontier {
    /// Empty frontier over `n` vertices.
    pub fn new(n: usize) -> Self {
        Frontier {
            n,
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// Frontier holding exactly `v`.
    pub fn singleton(n: usize, v: VertexId) -> Self {
        Self::from_vec(n, vec![v])
    }

    /// Sparse frontier from a membership list (must not contain
    /// duplicates; ids must be `< n`).
    pub fn from_vec(n: usize, members: Vec<VertexId>) -> Self {
        debug_assert!(members.iter().all(|&v| (v as usize) < n));
        Frontier {
            n,
            repr: Repr::Sparse(members),
        }
    }

    /// Number of vertices the underlying graph has.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of vertices in the frontier.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sparse(v) => v.len(),
            Repr::Dense { count, .. } => *count,
        }
    }

    /// True when no vertex is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test. O(1) on the dense representation, O(len) on the
    /// sparse one — callers issuing many queries should
    /// [`Frontier::ensure_dense`] first.
    pub fn contains(&self, v: VertexId) -> bool {
        match &self.repr {
            Repr::Sparse(list) => list.contains(&v),
            Repr::Dense { bits, .. } => bits.get(v as usize),
        }
    }

    /// Iterate over members (ascending order only for the dense form).
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        enum Either<A, B> {
            L(A),
            R(B),
        }
        impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for Either<A, B> {
            type Item = T;
            fn next(&mut self) -> Option<T> {
                match self {
                    Either::L(a) => a.next(),
                    Either::R(b) => b.next(),
                }
            }
        }
        match &self.repr {
            Repr::Sparse(list) => Either::L(list.iter().copied()),
            Repr::Dense { bits, .. } => Either::R(bits.iter_ones().map(|i| i as VertexId)),
        }
    }

    /// Convert to the sparse representation (if needed) and expose the
    /// membership list.
    pub fn ensure_sparse(&mut self) -> &[VertexId] {
        if let Repr::Dense { bits, count } = &self.repr {
            let mut list = Vec::with_capacity(*count);
            list.extend(bits.iter_ones().map(|i| i as VertexId));
            self.repr = Repr::Sparse(list);
        }
        match &self.repr {
            Repr::Sparse(list) => list,
            Repr::Dense { .. } => unreachable!(),
        }
    }

    /// Convert to the dense representation (if needed) and expose the
    /// membership bitmap.
    pub fn ensure_dense(&mut self) -> &Bitmap {
        if let Repr::Sparse(list) = &self.repr {
            let mut bits = Bitmap::new(self.n);
            for &v in list {
                bits.set(v as usize);
            }
            let count = list.len();
            self.repr = Repr::Dense { bits, count };
        }
        match &self.repr {
            Repr::Dense { bits, .. } => bits,
            Repr::Sparse(_) => unreachable!(),
        }
    }

    /// Switch to whichever representation occupancy favors: dense above
    /// `n / DENSE_DIVISOR` members, sparse below.
    pub fn normalize(&mut self) {
        let dense_wins = self.len() > self.n / DENSE_DIVISOR;
        match (&self.repr, dense_wins) {
            (Repr::Sparse(_), true) => {
                self.ensure_dense();
            }
            (Repr::Dense { .. }, false) => {
                self.ensure_sparse();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_dense(f: &Frontier) -> bool {
        matches!(f.repr, Repr::Dense { .. })
    }

    #[test]
    fn singleton_roundtrip() {
        let mut f = Frontier::singleton(100, 42);
        assert_eq!(f.len(), 1);
        assert!(!is_dense(&f));
        assert!(f.contains(42));
        assert!(!f.contains(41));
        let bits = f.ensure_dense();
        assert!(bits.get(42));
        assert_eq!(f.len(), 1);
        assert!(is_dense(&f));
        assert_eq!(f.ensure_sparse(), &[42]);
    }

    #[test]
    fn normalize_picks_by_occupancy() {
        // 100 vertices: threshold is > 6 members for dense.
        let mut f = Frontier::from_vec(100, (0..6).collect());
        f.normalize();
        assert!(!is_dense(&f));
        let mut f = Frontier::from_vec(100, (0..7).collect());
        f.normalize();
        assert!(is_dense(&f));
        assert_eq!(f.len(), 7);
        // And back down once sparse again.
        let mut f = Frontier::singleton(100, 3);
        f.ensure_dense();
        assert!(is_dense(&f));
        f.normalize();
        assert!(!is_dense(&f));
        assert_eq!(f.ensure_sparse(), &[3]);
    }

    #[test]
    fn iter_covers_both_reprs() {
        let mut f = Frontier::from_vec(64, vec![5, 1, 9]);
        let mut sparse: Vec<VertexId> = f.iter().collect();
        sparse.sort_unstable();
        assert_eq!(sparse, vec![1, 5, 9]);
        f.ensure_dense();
        let dense: Vec<VertexId> = f.iter().collect();
        assert_eq!(dense, vec![1, 5, 9]); // ascending from the bitmap
    }

    #[test]
    fn empty_frontier() {
        let mut f = Frontier::new(10);
        assert!(f.is_empty());
        f.normalize();
        assert!(!is_dense(&f));
        assert_eq!(f.iter().count(), 0);
    }
}
