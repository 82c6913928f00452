//! A tiny growable bit set used for link/node masks.
//!
//! `Vec<bool>` would work, but masks are created and cleared in the inner
//! loops of Yen's algorithm; a word-packed set keeps that cheap and gives us
//! O(words) clearing. The set grows on demand: inserting past the current
//! capacity extends the word array, so a mask built for one graph keeps
//! working when the topology grows (the §8 growth experiment adds links to
//! existing grids, and failure masks outlive individual graph builds).

/// Growable bit set over `usize` indices.
///
/// Equality is semantic — two sets are equal when they contain the same
/// indices, regardless of how much capacity each happens to have grown to.
#[derive(Clone, Debug, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set pre-sized to hold indices `0..len` without
    /// reallocating. Inserts past `len` grow the set instead of panicking.
    pub fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)], len }
    }

    /// Number of indices the set can hold without growing.
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `idx`, growing the set if `idx` is past the current capacity.
    #[inline]
    pub fn insert(&mut self, idx: usize) {
        if idx >= self.len {
            self.len = idx + 1;
            let need = self.len.div_ceil(64);
            if need > self.words.len() {
                self.words.resize(need, 0);
            }
        }
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    /// Removes `idx`. Indices past the capacity are trivially absent.
    #[inline]
    pub fn remove(&mut self, idx: usize) {
        if idx < self.len {
            self.words[idx / 64] &= !(1u64 << (idx % 64));
        }
    }

    /// Tests membership. Indices past the capacity are absent, not errors —
    /// a mask sized for a small graph answers correctly on a grown one.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        idx < self.len && self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Makes this set a copy of `other`, reusing its words: the derived
    /// `clone_from` allocates a fresh array, and Yen's spur loop copies its
    /// base masks once per spur node.
    pub(crate) fn copy_from(&mut self, other: &BitSet) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
        self.len = other.len;
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// Number of elements currently in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }
}

impl Default for BitSet {
    /// An empty zero-capacity set (it grows on first insert).
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) =
            if self.words.len() <= other.words.len() { (self, other) } else { (other, self) };
        short.words.iter().zip(&long.words).all(|(a, b)| a == b)
            && long.words[short.words.len()..].iter().all(|&w| w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert_eq!(s.count(), 4);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn iter_in_order() {
        let mut s = BitSet::new(200);
        for i in [5usize, 9, 64, 65, 199] {
            s.insert(i);
        }
        let got: Vec<usize> = s.iter().collect();
        assert_eq!(got, vec![5, 9, 64, 65, 199]);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::new(10);
        s.insert(3);
        s.insert(7);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn grows_at_the_old_panic_boundary() {
        // Inserting at exactly `len` used to panic; now it grows the set.
        let mut s = BitSet::new(8);
        s.insert(8);
        assert!(s.contains(8));
        assert!(s.capacity() >= 9);
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn grows_across_word_boundaries() {
        let mut s = BitSet::new(0);
        assert_eq!(s.capacity(), 0);
        s.insert(5);
        s.insert(64);
        s.insert(1000);
        assert!(s.contains(5) && s.contains(64) && s.contains(1000));
        assert!(!s.contains(999) && !s.contains(1001));
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![5, 64, 1000]);
    }

    #[test]
    fn out_of_range_queries_are_absent_not_errors() {
        let mut s = BitSet::new(8);
        assert!(!s.contains(1000));
        s.remove(1000); // no-op, not a panic
        assert!(s.is_empty());
    }

    #[test]
    fn a_copy_holds_the_same_members_in_the_words_it_had() {
        let mut from = BitSet::new(130);
        for i in [0usize, 64, 129] {
            from.insert(i);
        }
        let mut to = BitSet::new(500);
        to.insert(300);
        let words = to.words.as_ptr();
        to.copy_from(&from);
        assert_eq!(to, from);
        assert_eq!(to.capacity(), 130);
        assert_eq!(to.iter().collect::<Vec<_>>(), [0, 64, 129]);
        assert_eq!(to.words.as_ptr(), words, "the copy reallocated");
        to.copy_from(&BitSet::default());
        assert!(to.is_empty() && !to.contains(129));
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(500);
        a.insert(3);
        b.insert(3);
        assert_eq!(a, b);
        b.insert(400);
        assert_ne!(a, b);
        b.remove(400);
        assert_eq!(b, a);
    }
}
