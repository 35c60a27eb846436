//! A small vector with inline storage and a heap spill.
//!
//! Most jobs split over two or three devices, so the per-job collections
//! of the dispatch → execute → release cycle (a job's partition, its
//! sub-executor handles, its per-device execution times and fidelities)
//! hold a handful of elements. A `Vec` pays one heap allocation for each
//! of them; [`InlineVec<T, N>`] keeps up to `N` elements in place and
//! moves to a `Vec` only when the `N + 1`-th is pushed, keeping order.
//! Copying a short one costs no allocation either.
//!
//! It is written in safe code. Without `unsafe` the inline array cannot
//! hold uninitialised slots, and a `Default` bound would need a filler
//! value for element types that have no meaningful default (a process
//! handle's default is a real handle). So the inline array is created by
//! the first push, filled with copies of that element; before it, the
//! vector is empty with no array at all. Elements are `Copy`, so the
//! filler slots are plain bits past `len`, never read.
//!
//! The vector dereferences to a slice and compares equal to slices and
//! `Vec`s with the same elements, so call sites read it like a `Vec`.

use std::ops::Deref;

/// A vector of `Copy` elements that stores up to `N` of them inline and
/// spills to the heap past that; see the module docs.
#[derive(Clone)]
pub struct InlineVec<T: Copy, const N: usize> {
    repr: Repr<T, N>,
}

#[derive(Clone)]
enum Repr<T: Copy, const N: usize> {
    /// Nothing pushed yet: no element to fill the inline array from.
    Empty,
    /// `buf[..len]` holds the elements, `len ≤ N`.
    Inline { len: usize, buf: [T; N] },
    /// More than `N` elements were pushed at some point.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty vector; allocates nothing.
    pub const fn new() -> Self {
        InlineVec { repr: Repr::Empty }
    }

    /// Appends `x`, moving every element to the heap when the inline
    /// array is full.
    pub fn push(&mut self, x: T) {
        const { assert!(N > 0, "an InlineVec needs inline capacity") };
        match &mut self.repr {
            Repr::Empty => {
                self.repr = Repr::Inline {
                    len: 1,
                    buf: [x; N],
                }
            }
            Repr::Inline { len, buf } if *len < N => {
                buf[*len] = x;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut v = Vec::with_capacity(2 * N);
                v.extend_from_slice(buf);
                v.push(x);
                self.repr = Repr::Heap(v);
            }
            Repr::Heap(v) => v.push(x),
        }
    }

    /// Removes every element, keeping any heap buffer for reuse.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Empty => {}
            Repr::Inline { len, .. } => *len = 0,
            Repr::Heap(v) => v.clear(),
        }
    }

    /// Whether the elements live on the heap.
    pub fn spilled(&self) -> bool {
        matches!(self.repr, Repr::Heap(_))
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            Repr::Empty => &[],
            Repr::Inline { len, buf } => &buf[..*len],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + std::fmt::Debug, const N: usize> std::fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        v.extend(iter);
        v
    }
}

/// Takes over the `Vec`'s buffer when it holds more than `N` elements.
impl<T: Copy, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        if v.len() > N {
            InlineVec {
                repr: Repr::Heap(v),
            }
        } else {
            v.into_iter().collect()
        }
    }
}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + PartialEq, const N: usize, const M: usize> PartialEq<InlineVec<T, M>>
    for InlineVec<T, N>
{
    fn eq(&self, other: &InlineVec<T, M>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq<[T]> for InlineVec<T, N> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq<InlineVec<T, N>> for Vec<T> {
    fn eq(&self, other: &InlineVec<T, N>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type V = InlineVec<(u32, u64), 4>;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v = V::new();
        assert!(v.is_empty());
        assert!(!v.spilled());
        for i in 0..4 {
            v.push((i, u64::from(i) * 10));
        }
        assert_eq!(v.len(), 4);
        assert!(!v.spilled());
        assert_eq!(v, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn spill_past_capacity_keeps_order() {
        let mut v = V::new();
        for i in 0..9 {
            v.push((i, u64::from(i)));
        }
        assert!(v.spilled());
        let expect: Vec<(u32, u64)> = (0..9).map(|i| (i, u64::from(i))).collect();
        assert_eq!(v, expect);
        v.clear();
        assert!(v.is_empty());
        v.push((7, 7));
        assert_eq!(v, vec![(7, 7)]);
    }

    #[test]
    fn compares_with_slices_and_vecs() {
        let v: V = vec![(1, 2), (3, 4)].into();
        let s: &[(u32, u64)] = &[(1, 2), (3, 4)];
        assert_eq!(v, *s);
        assert_eq!(v, vec![(1, 2), (3, 4)]);
        assert_eq!(vec![(1, 2), (3, 4)], v);
        assert_ne!(v, vec![(1, 2)]);
        assert_ne!(v, vec![(1, 2), (3, 5)]);
        // Equality ignores where the elements live.
        let narrow: InlineVec<(u32, u64), 1> = v.iter().copied().collect();
        assert!(narrow.spilled());
        assert_eq!(v, narrow);
        assert_eq!(V::new(), Vec::<(u32, u64)>::new());
        assert_eq!(format!("{v:?}"), format!("{:?}", s));
    }

    #[test]
    fn clones_are_independent() {
        let mut a: V = vec![(1, 1), (2, 2)].into();
        let b = a.clone();
        a.push((3, 3));
        assert_eq!(b, vec![(1, 1), (2, 2)]);
        let mut big: V = (0..6).map(|i| (i, 0)).collect();
        let big_copy = big.clone();
        big.clear();
        big.push((9, 9));
        assert_eq!(big_copy.len(), 6);
        assert_eq!(big_copy[5], (5, 0));
        assert_eq!(big, vec![(9, 9)]);
    }

    #[test]
    fn from_vec_keeps_a_long_buffer() {
        let long: Vec<(u32, u64)> = (0..5).map(|i| (i, 1)).collect();
        let v: V = long.clone().into();
        assert!(v.spilled());
        assert_eq!(v, long);
        let short: V = vec![(0, 1)].into();
        assert!(!short.spilled());
    }
}
