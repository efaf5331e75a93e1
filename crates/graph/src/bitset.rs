//! Compact bit vectors, including an atomic variant for the lock-free
//! level-synchronous traversals (visited sets) described in the paper.

use std::sync::atomic::{AtomicU64, Ordering};

const WORD_BITS: usize = 64;

/// Plain (single-threaded) bitmap.
#[derive(Clone, Debug)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap over `len` bits.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// All-ones bitmap over `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        // Clear the tail beyond `len`.
        let tail = len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = b.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        b
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Set bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS] &= !(1 << (i % WORD_BITS));
    }

    /// Iterate over the indices of set bits in increasing order.
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * WORD_BITS + bit)
                }
            })
        })
    }
}

/// Bitmap with atomic test-and-set, shared across rayon workers.
#[derive(Debug)]
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// All-zeros atomic bitmap over `len` bits.
    pub fn new(len: usize) -> Self {
        let mut words = Vec::with_capacity(len.div_ceil(WORD_BITS));
        words.resize_with(len.div_ceil(WORD_BITS), || AtomicU64::new(0));
        AtomicBitmap { words, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `len() == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i` (relaxed).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / WORD_BITS].load(Ordering::Relaxed) >> (i % WORD_BITS) & 1 == 1
    }

    /// Atomically set bit `i`; returns `true` if this call changed it
    /// from 0 to 1 (i.e. the caller "won" the vertex). This is the
    /// fetch-or claim used by the lock-free BFS.
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % WORD_BITS);
        let prev = self.words[i / WORD_BITS].fetch_or(mask, Ordering::AcqRel);
        prev & mask == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(129));
        b.set(129);
        assert!(b.get(129));
        b.clear(129);
        assert!(!b.get(129));
    }

    #[test]
    fn ones_respects_length() {
        let b = Bitmap::ones(67);
        assert_eq!(b.iter_ones().count(), 67);
        assert!(b.get(66));
    }

    #[test]
    fn iter_ones_in_order() {
        let mut b = Bitmap::new(200);
        for i in [0, 63, 64, 128, 199] {
            b.set(i);
        }
        let v: Vec<usize> = b.iter_ones().collect();
        assert_eq!(v, vec![0, 63, 64, 128, 199]);
    }

    #[test]
    fn atomic_test_and_set_claims_once() {
        let b = AtomicBitmap::new(100);
        assert!(b.test_and_set(42));
        assert!(!b.test_and_set(42));
        assert!(b.get(42));
        assert_eq!((0..100).filter(|&i| b.get(i)).count(), 1);
    }

    #[test]
    fn atomic_parallel_claims_are_exclusive() {
        use std::sync::atomic::AtomicUsize;
        let b = AtomicBitmap::new(1024);
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1024 {
                        if b.test_and_set(i) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1024);
    }
}
