//! Per-thread scratch bundle for allocation-free bundling encoders.
//!
//! `RecordEncoder`, `SequenceEncoder` and `FeatureRecordEncoder` all encode
//! a sample as "bundle a handful of derived hypervectors, then take the
//! majority". Doing that with owned intermediates costs several heap
//! allocations per sample (one per bind/permute temporary, one for the
//! accumulator, one for the finalized vector) — which is exactly the cost
//! the batched `encode_into` path is supposed to avoid.
//!
//! This module keeps one reusable [`BitSlicedBundle`] per thread: its
//! counter planes (`⌊log2 n⌋ + 1` packed words per 64 dimensions for `n`
//! inputs — 785 words, 6.3 KB, for an 18-field record at d = 10 000) and
//! the one-input word buffer that bind and permute results pass through.
//! Encoders borrow it for the duration of one sample via [`with_bundle`];
//! after the first sample on a thread, encoding is allocation-free (the
//! bundle is only emptied, and zeroes a plane when a count first needs
//! it). Worker threads of the parallel `encode_batch` fan-out each get
//! their own bundle, so the batched path stays data-race-free without
//! locking.

use std::cell::RefCell;

use hdc_core::BitSlicedBundle;

thread_local! {
    static BUNDLE: RefCell<BitSlicedBundle> = RefCell::new(BitSlicedBundle::new(1));
}

/// Runs `f(bundle)` with this thread's scratch bundle, emptied and sized
/// for dimensionality `dim`.
pub(crate) fn with_bundle<R>(dim: usize, f: impl FnOnce(&mut BitSlicedBundle) -> R) -> R {
    BUNDLE.with(|cell| {
        let mut bundle = cell.borrow_mut();
        bundle.reset(dim);
        f(&mut bundle)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc_core::{BinaryHypervector, TieBreak};

    #[test]
    fn buffers_are_zeroed_and_sized_each_call() {
        let ones = BinaryHypervector::ones(100);
        with_bundle(100, |bundle| {
            assert_eq!(bundle.dim(), 100);
            for _ in 0..5 {
                bundle.push(ones.view());
            }
        });
        // A smaller follow-up call must not see the previous contents.
        let zeros = BinaryHypervector::zeros(65);
        with_bundle(65, |bundle| {
            assert_eq!(bundle.dim(), 65);
            assert!(bundle.is_empty());
            bundle.push(zeros.view());
            assert_eq!(bundle.finalize(TieBreak::One), zeros);
        });
    }
}
