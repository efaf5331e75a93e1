//! Treaps — randomized search trees (Seidel & Aragon, Algorithmica 1996).
//!
//! SNAP stores the adjacencies of *high-degree* vertices in treaps so that
//! dynamic updates (insert/delete) and set operations (union, intersection,
//! difference — used e.g. when merging adjacency lists of amalgamated
//! communities) run in expected `O(log n)` / `O(m log(n/m))` time, while
//! low-degree vertices keep plain arrays (see [`crate::DynGraph`]).
//!
//! Priorities come from a per-treap xorshift generator, seeded
//! deterministically from a user seed so test runs are reproducible.

use std::cmp::Ordering;

type Link<T> = Option<Box<Node<T>>>;

#[derive(Clone, Debug)]
struct Node<T> {
    key: T,
    priority: u64,
    size: usize,
    left: Link<T>,
    right: Link<T>,
}

impl<T> Node<T> {
    fn new(key: T, priority: u64) -> Box<Self> {
        Box::new(Node {
            key,
            priority,
            size: 1,
            left: None,
            right: None,
        })
    }

    fn update(&mut self) {
        self.size = 1 + size(&self.left) + size(&self.right);
    }
}

#[inline]
fn size<T>(link: &Link<T>) -> usize {
    link.as_ref().map_or(0, |n| n.size)
}

/// A set of ordered keys backed by a treap.
///
/// ```
/// use snap_graph::Treap;
///
/// let a: Treap<u32> = (0..10).collect();
/// let b: Treap<u32> = (5..15).collect();
/// assert!(a.contains(&7));
/// let union = a.union(b);
/// assert_eq!(union.len(), 15);
/// ```
#[derive(Clone, Debug)]
pub struct Treap<T> {
    root: Link<T>,
    rng_state: u64,
}

impl<T: Ord> Default for Treap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord> Treap<T> {
    /// Empty treap with a fixed default seed.
    pub fn new() -> Self {
        Self::with_seed(0x9e37_79b9_7f4a_7c15)
    }

    /// Empty treap whose priority stream is derived from `seed`.
    pub fn with_seed(seed: u64) -> Self {
        Treap {
            root: None,
            // xorshift must not start at 0.
            rng_state: seed | 1,
        }
    }

    fn next_priority(&mut self) -> u64 {
        // xorshift64* — cheap, good enough for heap priorities.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// True when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Membership test in expected `O(log n)`.
    pub fn contains(&self, key: &T) -> bool {
        let mut cur = &self.root;
        while let Some(node) = cur {
            match key.cmp(&node.key) {
                Ordering::Less => cur = &node.left,
                Ordering::Greater => cur = &node.right,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// Insert `key`; returns `false` if it was already present.
    pub fn insert(&mut self, key: T) -> bool {
        if self.contains(&key) {
            return false;
        }
        let priority = self.next_priority();
        let root = self.root.take();
        self.root = insert_node(root, Node::new(key, priority));
        true
    }

    /// Remove `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: &T) -> bool {
        let (root, removed) = remove_node(self.root.take(), key);
        self.root = root;
        removed
    }

    /// Split into `(< key, >= key)`, consuming `self`.
    pub fn split(mut self, key: &T) -> (Treap<T>, Treap<T>) {
        let (l, r) = split_link(self.root.take(), key);
        (
            Treap {
                root: l,
                rng_state: self.rng_state,
            },
            Treap {
                root: r,
                rng_state: self.rng_state.wrapping_add(0x9e37_79b9),
            },
        )
    }

    /// Join with `other`, all of whose keys must be `>=` every key in
    /// `self`. Panics in debug builds if the precondition is violated.
    pub fn join(mut self, mut other: Treap<T>) -> Treap<T> {
        debug_assert!(
            self.max().is_none()
                || other.min().is_none()
                || self.max().unwrap() <= other.min().unwrap()
        );
        let root = merge(self.root.take(), other.root.take());
        Treap {
            root,
            rng_state: self.rng_state ^ other.rng_state,
        }
    }

    /// Set union, consuming both operands.
    pub fn union(mut self, mut other: Treap<T>) -> Treap<T> {
        let rng = self.rng_state ^ other.rng_state.rotate_left(17);
        let root = union_link(self.root.take(), other.root.take());
        Treap {
            root,
            rng_state: rng | 1,
        }
    }

    /// Set intersection, consuming both operands.
    pub fn intersection(mut self, mut other: Treap<T>) -> Treap<T> {
        let rng = self.rng_state ^ other.rng_state.rotate_left(29);
        let root = intersect_link(self.root.take(), other.root.take());
        Treap {
            root,
            rng_state: rng | 1,
        }
    }

    /// Set difference `self \ other`, consuming both operands.
    pub fn difference(mut self, mut other: Treap<T>) -> Treap<T> {
        let rng = self.rng_state;
        let root = diff_link(self.root.take(), other.root.take());
        Treap {
            root,
            rng_state: rng | 1,
        }
    }

    /// Smallest key.
    pub fn min(&self) -> Option<&T> {
        let mut cur = self.root.as_ref()?;
        while let Some(left) = cur.left.as_ref() {
            cur = left;
        }
        Some(&cur.key)
    }

    /// Largest key.
    pub fn max(&self) -> Option<&T> {
        let mut cur = self.root.as_ref()?;
        while let Some(right) = cur.right.as_ref() {
            cur = right;
        }
        Some(&cur.key)
    }

    /// In-order (sorted) iterator over the keys.
    pub fn iter(&self) -> Iter<'_, T> {
        let mut stack = Vec::new();
        push_left(&self.root, &mut stack);
        Iter { stack }
    }

    /// Verify heap order on priorities, BST order on keys, and size
    /// bookkeeping. Test helper; O(n).
    #[cfg(test)]
    fn check_invariants(&self) -> bool {
        fn check<T: Ord>(link: &Link<T>) -> Option<usize> {
            let node = match link {
                None => return Some(0),
                Some(n) => n,
            };
            let ls = check(&node.left)?;
            let rs = check(&node.right)?;
            if let Some(l) = node.left.as_ref() {
                if l.key >= node.key || l.priority > node.priority {
                    return None;
                }
            }
            if let Some(r) = node.right.as_ref() {
                if r.key <= node.key || r.priority > node.priority {
                    return None;
                }
            }
            if node.size != ls + rs + 1 {
                return None;
            }
            Some(node.size)
        }
        check(&self.root).is_some()
    }
}

impl<T: Ord> FromIterator<T> for Treap<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut t = Treap::new();
        for k in iter {
            t.insert(k);
        }
        t
    }
}

/// Sorted iterator over treap keys.
pub struct Iter<'a, T> {
    stack: Vec<&'a Node<T>>,
}

fn push_left<'a, T>(mut link: &'a Link<T>, stack: &mut Vec<&'a Node<T>>) {
    while let Some(node) = link {
        stack.push(node);
        link = &node.left;
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        let node = self.stack.pop()?;
        push_left(&node.right, &mut self.stack);
        Some(&node.key)
    }
}

fn insert_node<T: Ord>(link: Link<T>, mut new: Box<Node<T>>) -> Link<T> {
    match link {
        None => Some(new),
        Some(mut node) => {
            if new.priority > node.priority {
                let (l, r) = split_link(Some(node), &new.key);
                new.left = l;
                new.right = r;
                new.update();
                Some(new)
            } else {
                if new.key < node.key {
                    node.left = insert_node(node.left.take(), new);
                } else {
                    node.right = insert_node(node.right.take(), new);
                }
                node.update();
                Some(node)
            }
        }
    }
}

fn remove_node<T: Ord>(link: Link<T>, key: &T) -> (Link<T>, bool) {
    match link {
        None => (None, false),
        Some(mut node) => match key.cmp(&node.key) {
            Ordering::Less => {
                let (l, removed) = remove_node(node.left.take(), key);
                node.left = l;
                node.update();
                (Some(node), removed)
            }
            Ordering::Greater => {
                let (r, removed) = remove_node(node.right.take(), key);
                node.right = r;
                node.update();
                (Some(node), removed)
            }
            Ordering::Equal => (merge(node.left.take(), node.right.take()), true),
        },
    }
}

/// Split into keys `< key` and keys `>= key`.
fn split_link<T: Ord>(link: Link<T>, key: &T) -> (Link<T>, Link<T>) {
    match link {
        None => (None, None),
        Some(mut node) => {
            if node.key < *key {
                let (l, r) = split_link(node.right.take(), key);
                node.right = l;
                node.update();
                (Some(node), r)
            } else {
                let (l, r) = split_link(node.left.take(), key);
                node.left = r;
                node.update();
                (l, Some(node))
            }
        }
    }
}

fn merge<T: Ord>(a: Link<T>, b: Link<T>) -> Link<T> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(mut x), Some(mut y)) => {
            if x.priority >= y.priority {
                x.right = merge(x.right.take(), Some(y));
                x.update();
                Some(x)
            } else {
                y.left = merge(Some(x), y.left.take());
                y.update();
                Some(y)
            }
        }
    }
}

/// Treap union: the higher-priority root stays on top, the other treap is
/// split around it, and the halves are united recursively.
fn union_link<T: Ord>(a: Link<T>, b: Link<T>) -> Link<T> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(x), Some(y)) => {
            let (mut root, other) = if x.priority >= y.priority {
                (x, Some(y))
            } else {
                (y, Some(x))
            };
            let (ol, or) = split_link(other, &root.key);
            let (_dup, or) = split_off_min_eq(or, &root.key);
            root.left = union_link(root.left.take(), ol);
            root.right = union_link(root.right.take(), or);
            root.update();
            Some(root)
        }
    }
}

fn intersect_link<T: Ord>(a: Link<T>, b: Link<T>) -> Link<T> {
    match (a, b) {
        (None, _) | (_, None) => None,
        (Some(mut x), b) => {
            let (bl, br) = split_link(b, &x.key);
            // Does b contain x.key? br holds keys >= x.key.
            let (b_eq, br) = split_off_min_eq(br, &x.key);
            let il = intersect_link(x.left.take(), bl);
            let ir = intersect_link(x.right.take(), br);
            if b_eq {
                x.left = il;
                x.right = ir;
                x.update();
                Some(x)
            } else {
                merge(il, ir)
            }
        }
    }
}

/// If the minimum of `link` equals `key`, drop it and report `true`.
fn split_off_min_eq<T: Ord>(link: Link<T>, key: &T) -> (bool, Link<T>) {
    match link {
        None => (false, None),
        Some(mut node) => {
            if node.left.is_none() {
                if node.key == *key {
                    (true, node.right.take())
                } else {
                    (false, Some(node))
                }
            } else {
                let (found, l) = split_off_min_eq(node.left.take(), key);
                node.left = l;
                node.update();
                (found, Some(node))
            }
        }
    }
}

fn diff_link<T: Ord>(a: Link<T>, b: Link<T>) -> Link<T> {
    match (a, b) {
        (a, None) => a,
        (None, _) => None,
        (a, Some(mut y)) => {
            let (al, ar) = split_link(a, &y.key);
            let (_, ar) = split_off_min_eq(ar, &y.key);
            let dl = diff_link(al, y.left.take());
            let dr = diff_link(ar, y.right.take());
            merge(dl, dr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove() {
        let mut t = Treap::with_seed(42);
        assert!(t.insert(5));
        assert!(t.insert(3));
        assert!(t.insert(8));
        assert!(!t.insert(5));
        assert_eq!(t.len(), 3);
        assert!(t.contains(&3));
        assert!(!t.contains(&4));
        assert!(t.remove(&3));
        assert!(!t.remove(&3));
        assert_eq!(t.len(), 2);
        assert!(t.check_invariants());
    }

    #[test]
    fn sorted_iteration() {
        let t: Treap<i32> = [5, 1, 4, 2, 3].into_iter().collect();
        let v: Vec<i32> = t.iter().copied().collect();
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn min_max() {
        let t: Treap<i32> = [7, 2, 9].into_iter().collect();
        assert_eq!(t.min(), Some(&2));
        assert_eq!(t.max(), Some(&9));
        let empty: Treap<i32> = Treap::new();
        assert_eq!(empty.min(), None);
    }

    #[test]
    fn split_and_join() {
        let t: Treap<i32> = (0..100).collect();
        let (lo, hi) = t.split(&50);
        assert_eq!(lo.len(), 50);
        assert_eq!(hi.len(), 50);
        assert!(lo.iter().all(|&k| k < 50));
        assert!(hi.iter().all(|&k| k >= 50));
        assert!(lo.check_invariants() && hi.check_invariants());
        let joined = lo.join(hi);
        assert_eq!(joined.len(), 100);
        assert!(joined.check_invariants());
    }

    #[test]
    fn union_merges_and_dedups() {
        let a: Treap<i32> = (0..50).collect();
        let b: Treap<i32> = (25..75).collect();
        let u = a.union(b);
        assert_eq!(u.len(), 75);
        let v: Vec<i32> = u.iter().copied().collect();
        assert_eq!(v, (0..75).collect::<Vec<_>>());
        assert!(u.check_invariants());
    }

    #[test]
    fn union_with_empty_is_identity() {
        let a: Treap<i32> = (0..10).collect();
        let e: Treap<i32> = Treap::new();
        let u = a.union(e);
        assert_eq!(u.len(), 10);
        let e2: Treap<i32> = Treap::new();
        let u2 = e2.union(u);
        assert_eq!(u2.len(), 10);
    }

    #[test]
    fn intersection_of_overlapping_ranges() {
        let a: Treap<i32> = (0..60).collect();
        let b: Treap<i32> = (40..100).collect();
        let i = a.intersection(b);
        let v: Vec<i32> = i.iter().copied().collect();
        assert_eq!(v, (40..60).collect::<Vec<_>>());
        assert!(i.check_invariants());
    }

    #[test]
    fn difference_removes_common_keys() {
        let a: Treap<i32> = (0..10).collect();
        let b: Treap<i32> = (5..15).collect();
        let d = a.difference(b);
        let v: Vec<i32> = d.iter().copied().collect();
        assert_eq!(v, (0..5).collect::<Vec<_>>());
        assert!(d.check_invariants());
    }

    #[test]
    fn large_randomish_workload_stays_balancedish() {
        let mut t = Treap::with_seed(7);
        for i in 0..10_000 {
            t.insert((i * 2_654_435_761u64) % 65_536);
        }
        assert!(t.check_invariants());
        // Expected depth is O(log n); sanity-check via iteration length.
        let len = t.len();
        assert!(len > 9_000, "hash collisions should be rare, got {len}");
        for i in 0..5_000 {
            t.remove(&((i * 2_654_435_761u64) % 65_536));
        }
        assert!(t.check_invariants());
    }

    proptest! {
        /// Treap behaves exactly like a BTreeSet model under a random
        /// insert/remove/contains workload.
        #[test]
        fn treap_matches_btreeset(ops in prop::collection::vec((0u8..3, 0u16..64), 1..200)) {
            let mut treap = Treap::with_seed(99);
            let mut model = BTreeSet::new();
            for (op, key) in ops {
                match op {
                    0 => prop_assert_eq!(treap.insert(key), model.insert(key)),
                    1 => prop_assert_eq!(treap.remove(&key), model.remove(&key)),
                    _ => prop_assert_eq!(treap.contains(&key), model.contains(&key)),
                }
                prop_assert_eq!(treap.len(), model.len());
            }
            prop_assert!(treap.check_invariants());
            let a: Vec<u16> = treap.iter().copied().collect();
            let b: Vec<u16> = model.iter().copied().collect();
            prop_assert_eq!(a, b);
        }
    }
}
