//! Collection strategies (`proptest::collection::vec`).

use std::fmt::Debug;
use std::ops::Range;

use crate::strategy::Strategy;
use crate::TestRng;

/// Strategy for `Vec`s of `element` values with a length drawn uniformly
/// from `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy { element, size }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Debug,
{
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}
