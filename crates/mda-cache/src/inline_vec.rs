//! A fixed-capacity, stack-allocated vector for the per-access hot path.
//!
//! [`Probe`](crate::level::Probe) results carry at most eight fill lines
//! (a dense 2P2L block fill) and at most eight policy writebacks (one per
//! word of a vector write hitting duplicates), so the demand path never
//! needs a heap `Vec` for them. `InlineVec` stores the elements inline
//! (`[T; N]` plus a length), dereferences to a slice, and panics on
//! overflow — capacity overruns are logic bugs, not runtime conditions.

/// A `Vec`-like container backed by a fixed inline array.
#[derive(Debug, Clone, Copy)]
pub struct InlineVec<T, const N: usize> {
    buf: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty vector.
    pub fn new() -> InlineVec<T, N> {
        InlineVec { buf: [T::default(); N], len: 0 }
    }

    /// Appends `value`.
    ///
    /// # Panics
    /// Panics if the vector is full — the hot-path producers are bounded
    /// by construction (≤ 8 lines per tile orientation), so overflow means
    /// a policy bug.
    pub fn push(&mut self, value: T) {
        assert!(self.len < N, "InlineVec capacity {N} exceeded");
        self.buf[self.len] = value;
        self.len += 1;
    }

    /// Drops all elements.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The elements as a slice.
    fn as_slice(&self) -> &[T] {
        &self.buf[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> InlineVec<T, N> {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> std::ops::Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_len_and_slice() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        v.push(7);
        v.push(9);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], 7);
        assert_eq!(&v[1..], &[9]);
        assert_eq!(v, vec![7, 9]);
        v.clear();
        assert!(v.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn overflow_panics() {
        let mut v: InlineVec<u8, 2> = InlineVec::new();
        v.push(0);
        v.push(1);
        v.push(2);
    }

    #[test]
    fn iterates_only_live_elements() {
        let mut v: InlineVec<u8, 8> = InlineVec::new();
        v.push(1);
        v.push(2);
        let collected: Vec<u8> = v.iter().copied().collect();
        assert_eq!(collected, vec![1, 2]);
        assert_eq!((&v).into_iter().count(), 2);
    }
}
