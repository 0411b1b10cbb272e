//! A contiguous arena of equally sized hypervectors — the substrate of the
//! batched execution layer.
//!
//! [`HypervectorBatch`] stores `N` hypervectors of dimensionality `d` in a
//! **single** `Vec<u64>` (row-major, [`words_per_row`](HypervectorBatch::words_per_row)
//! words each) instead of `N` separately allocated
//! [`BinaryHypervector`]s. Rows are accessed as borrowed views —
//! [`HvRef`] (shared) and [`HvMut`] (exclusive) — that carry no allocation
//! and hit the same word-slice [`kernels`](crate::kernels) as the owned
//! type, so batched pipelines encode, bind and compare without a heap
//! allocation per sample and with cache-friendly sequential access.
//!
//! [`HypervectorBatch::rows_mut`] hands out disjoint exclusive row views,
//! which is what the workspace's parallel helpers fan out over (each worker
//! owns a contiguous run of rows; results are bit-identical to the serial
//! loop).
//!
//! ```
//! use hdc_core::{BinaryHypervector, HypervectorBatch};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let items: Vec<_> = (0..4).map(|_| BinaryHypervector::random(10_000, &mut rng)).collect();
//! let batch = HypervectorBatch::from_vectors(&items)?;
//! assert_eq!(batch.len(), 4);
//! // Rows are views over the arena, bit-identical to the source vectors.
//! assert_eq!(batch.row(2).hamming(items[2].view()), 0);
//! # Ok::<(), hdc_core::HdcError>(())
//! ```

use crate::{kernels, BinaryHypervector, HdcError, TieBreak};

const WORD_BITS: usize = 64;

/// Every view and row must keep bits at positions `>= dim` zero — the
/// popcount kernels would otherwise count phantom bits.
fn assert_tail_clean(dim: usize, words: &[u64]) {
    let rem = dim % WORD_BITS;
    if rem != 0 {
        if let Some(&last) = words.last() {
            assert!(
                last & !((1u64 << rem) - 1) == 0,
                "bits beyond dimension {dim} are set in the final word; \
                 zero or mask the tail before constructing a view"
            );
        }
    }
}

/// A borrowed, read-only view of one packed hypervector: a dimensionality
/// plus the `u64` words backing it (LSB-first, clean tail).
///
/// Obtained from [`HypervectorBatch::row`] or
/// [`BinaryHypervector::view`]; all comparisons funnel into the
/// word-slice [`kernels`](crate::kernels).
#[derive(Debug, Clone, Copy)]
pub struct HvRef<'a> {
    dim: usize,
    words: &'a [u64],
}

impl<'a> HvRef<'a> {
    /// Creates a view over externally packed words.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `words.len()` is not exactly
    /// `dim.div_ceil(64)`, or any bit at a position `>= dim` in the final
    /// word is set (the kernels rely on a clean tail; see
    /// [`BinaryHypervector::from_words`] for a constructor that masks
    /// instead).
    #[must_use]
    pub fn new(dim: usize, words: &'a [u64]) -> Self {
        assert!(dim > 0, "hypervector dimension must be at least 1");
        assert_eq!(
            words.len(),
            dim.div_ceil(WORD_BITS),
            "word count does not match dimension {dim}"
        );
        assert_tail_clean(dim, words);
        Self { dim, words }
    }

    /// The dimensionality `d` of the viewed hypervector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The packed words backing the view.
    #[must_use]
    pub fn as_words(&self) -> &'a [u64] {
        self.words
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.dim,
            "bit index {index} out of range for dimension {}",
            self.dim
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Number of one-bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        kernels::count_ones(self.words)
    }

    /// Hamming distance to another view.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn hamming(&self, other: HvRef<'_>) -> usize {
        assert_eq!(
            self.dim, other.dim,
            "dimension mismatch: expected {}, found {}",
            self.dim, other.dim
        );
        kernels::hamming(self.words, other.words)
    }

    /// Normalized Hamming distance `δ ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn normalized_hamming(&self, other: HvRef<'_>) -> f64 {
        self.hamming(other) as f64 / self.dim as f64
    }

    /// Similarity `1 − δ`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    #[must_use]
    pub fn similarity(&self, other: HvRef<'_>) -> f64 {
        1.0 - self.normalized_hamming(other)
    }

    /// Copies the view into an owned [`BinaryHypervector`].
    #[must_use]
    pub fn to_hypervector(&self) -> BinaryHypervector {
        BinaryHypervector::from_words(self.dim, self.words.to_vec())
    }
}

/// A borrowed, exclusive view of one packed hypervector — the write half of
/// [`HvRef`], handed to in-place encoders
/// (`Encoder::encode_into` in `hdc-encode`) and batch fillers.
#[derive(Debug)]
pub struct HvMut<'a> {
    dim: usize,
    words: &'a mut [u64],
}

impl<'a> HvMut<'a> {
    /// Creates a mutable view over externally packed words.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`, `words.len()` is not exactly
    /// `dim.div_ceil(64)`, or any bit at a position `>= dim` in the final
    /// word is set — zero the buffer (or mask its tail) before viewing it.
    #[must_use]
    pub fn new(dim: usize, words: &'a mut [u64]) -> Self {
        assert!(dim > 0, "hypervector dimension must be at least 1");
        assert_eq!(
            words.len(),
            dim.div_ceil(WORD_BITS),
            "word count does not match dimension {dim}"
        );
        assert_tail_clean(dim, words);
        Self { dim, words }
    }

    /// The dimensionality `d` of the viewed hypervector.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Reborrows as a shorter-lived exclusive view: how a worker holding a
    /// `&mut HvMut` passes the row to an API that takes it by value.
    #[must_use]
    pub fn reborrow(&mut self) -> HvMut<'_> {
        HvMut {
            dim: self.dim,
            words: self.words,
        }
    }

    /// Reborrows as a read-only view.
    #[must_use]
    pub fn as_ref(&self) -> HvRef<'_> {
        HvRef {
            dim: self.dim,
            words: self.words,
        }
    }

    /// Overwrites this row with the contents of `src`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn copy_from(&mut self, src: HvRef<'_>) {
        assert_eq!(
            self.dim,
            src.dim(),
            "dimension mismatch: expected {}, found {}",
            self.dim,
            src.dim()
        );
        self.words.copy_from_slice(src.as_words());
    }

    /// XORs `src` into this row in place (the binding operation `⊗`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn xor_assign(&mut self, src: HvRef<'_>) {
        assert_eq!(
            self.dim,
            src.dim(),
            "dimension mismatch: expected {}, found {}",
            self.dim,
            src.dim()
        );
        kernels::xor_into(self.words, src.as_words());
    }

    /// Clears the row to all zeros.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrites this row with the majority vote of signed per-dimension
    /// counters (bit `i` is 1 iff `counts[i] > 0`, ties resolve via `tie` —
    /// see [`kernels::majority_into`]). The row's tail stays clean.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len()` differs from the row's dimensionality.
    pub fn set_majority(&mut self, counts: &[i32], tie: TieBreak) {
        assert_eq!(
            self.dim,
            counts.len(),
            "dimension mismatch: expected {}, found {}",
            self.dim,
            counts.len()
        );
        kernels::majority_into(counts, self.words, |i| tie.bit(i));
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.dim()`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.dim,
            "bit index {index} out of range for dimension {}",
            self.dim
        );
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
    }
}

/// A contiguous, row-major arena of `N` hypervectors sharing one backing
/// `Vec<u64>`: one allocation for the whole batch, cache-friendly
/// sequential rows, and borrowed [`HvRef`]/[`HvMut`] row views instead of
/// per-sample owned vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypervectorBatch {
    dim: usize,
    words_per_row: usize,
    len: usize,
    words: Vec<u64>,
}

impl HypervectorBatch {
    /// Creates an empty batch for hypervectors of dimensionality `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        Self::with_capacity(dim, 0)
    }

    /// Creates an empty batch with arena capacity for `capacity` rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn with_capacity(dim: usize, capacity: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be at least 1");
        let words_per_row = dim.div_ceil(WORD_BITS);
        Self {
            dim,
            words_per_row,
            len: 0,
            words: Vec::with_capacity(capacity * words_per_row),
        }
    }

    /// Creates a batch of `len` all-zero rows.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    #[must_use]
    pub fn zeros(dim: usize, len: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be at least 1");
        let words_per_row = dim.div_ceil(WORD_BITS);
        Self {
            dim,
            words_per_row,
            len,
            words: vec![0; len * words_per_row],
        }
    }

    /// Copies a slice of owned hypervectors into a fresh contiguous arena.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::EmptyInput`] for an empty slice (the
    /// dimensionality would be unknown) and
    /// [`HdcError::DimensionMismatch`] if the members disagree on
    /// dimensionality.
    pub fn from_vectors(hvs: &[BinaryHypervector]) -> Result<Self, HdcError> {
        let first = hvs.first().ok_or(HdcError::EmptyInput)?;
        let dim = first.dim();
        let mut batch = Self::with_capacity(dim, hvs.len());
        for hv in hvs {
            if hv.dim() != dim {
                return Err(HdcError::DimensionMismatch {
                    expected: dim,
                    found: hv.dim(),
                });
            }
            batch.push(hv);
        }
        Ok(batch)
    }

    /// The dimensionality `d` shared by every row.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of `u64` words per row (`d.div_ceil(64)`).
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the batch holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole arena as one packed word slice (row-major).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Appends a copy of `hv` as a new row.
    ///
    /// # Panics
    ///
    /// Panics if `hv.dim()` differs from the batch's dimensionality.
    pub fn push(&mut self, hv: &BinaryHypervector) {
        self.push_row(hv.view());
    }

    /// Appends a copy of the viewed row.
    ///
    /// # Panics
    ///
    /// Panics if the view's dimensionality differs from the batch's.
    pub fn push_row(&mut self, row: HvRef<'_>) {
        assert_eq!(
            self.dim,
            row.dim(),
            "dimension mismatch: expected {}, found {}",
            self.dim,
            row.dim()
        );
        self.words.extend_from_slice(row.as_words());
        self.len += 1;
    }

    /// Appends an all-zero row and returns a mutable view of it.
    pub fn push_zero_row(&mut self) -> HvMut<'_> {
        self.words.resize(self.words.len() + self.words_per_row, 0);
        self.len += 1;
        self.row_mut(self.len - 1)
    }

    /// A read-only view of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn row(&self, index: usize) -> HvRef<'_> {
        assert!(
            index < self.len,
            "row {index} out of range for batch of {}",
            self.len
        );
        let start = index * self.words_per_row;
        HvRef {
            dim: self.dim,
            words: &self.words[start..start + self.words_per_row],
        }
    }

    /// A mutable view of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn row_mut(&mut self, index: usize) -> HvMut<'_> {
        assert!(
            index < self.len,
            "row {index} out of range for batch of {}",
            self.len
        );
        let start = index * self.words_per_row;
        HvMut {
            dim: self.dim,
            words: &mut self.words[start..start + self.words_per_row],
        }
    }

    /// Iterates over all rows as read-only views, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = HvRef<'_>> {
        let dim = self.dim;
        self.words
            .chunks_exact(self.words_per_row)
            .map(move |words| HvRef { dim, words })
    }

    /// Copies row `index` out into an owned [`BinaryHypervector`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn to_hypervector(&self, index: usize) -> BinaryHypervector {
        self.row(index).to_hypervector()
    }

    /// Copies every row out into owned hypervectors (the inverse of
    /// [`from_vectors`](Self::from_vectors)).
    #[must_use]
    pub fn to_vectors(&self) -> Vec<BinaryHypervector> {
        self.rows().map(|row| row.to_hypervector()).collect()
    }

    /// Iterates over all rows as exclusive views, in order. Collected into
    /// a `Vec`, the rows are the hand-off point to scoped worker threads
    /// (every [`HvMut`] is `Send`, and the views are disjoint).
    pub fn rows_mut(&mut self) -> impl ExactSizeIterator<Item = HvMut<'_>> {
        let dim = self.dim;
        self.words
            .chunks_exact_mut(self.words_per_row)
            .map(move |words| HvMut { dim, words })
    }

    /// Removes every row while keeping the arena's allocation, so the batch
    /// can be refilled without touching the allocator — the recycling path
    /// long-running ingestion loops use between micro-batches.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Resets the batch to exactly `len` all-zero rows, reusing the existing
    /// allocation where capacity allows. Equivalent to
    /// [`zeros`](Self::zeros) without the fresh `Vec` — combined with
    /// [`clear`](Self::clear) this lets one scratch arena serve an unbounded
    /// stream of differently sized micro-batches.
    pub fn resize_zeroed(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len * self.words_per_row, 0);
        self.len = len;
    }

    /// Number of rows the arena can hold before reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.words.capacity() / self.words_per_row
    }

    /// Runs `f(row_index, row)` over every row, serially and in order.
    pub fn fill_rows(&mut self, mut f: impl FnMut(usize, HvMut<'_>)) {
        for (index, row) in self.rows_mut().enumerate() {
            f(index, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBA7C)
    }

    #[test]
    fn round_trip_from_and_to_vectors() {
        let mut r = rng();
        for dim in [1usize, 63, 64, 65, 1000] {
            let items: Vec<_> = (0..5)
                .map(|_| BinaryHypervector::random(dim, &mut r))
                .collect();
            let batch = HypervectorBatch::from_vectors(&items).unwrap();
            assert_eq!(batch.len(), 5);
            assert_eq!(batch.dim(), dim);
            assert_eq!(batch.to_vectors(), items);
            for (i, item) in items.iter().enumerate() {
                assert_eq!(batch.row(i).hamming(item.view()), 0);
                assert_eq!(batch.to_hypervector(i), *item);
            }
        }
    }

    #[test]
    fn from_vectors_rejects_empty_and_mismatched() {
        assert!(matches!(
            HypervectorBatch::from_vectors(&[]),
            Err(HdcError::EmptyInput)
        ));
        let mut r = rng();
        let items = vec![
            BinaryHypervector::random(64, &mut r),
            BinaryHypervector::random(65, &mut r),
        ];
        assert!(matches!(
            HypervectorBatch::from_vectors(&items),
            Err(HdcError::DimensionMismatch {
                expected: 64,
                found: 65
            })
        ));
    }

    #[test]
    fn rows_iterate_in_order() {
        let mut r = rng();
        let items: Vec<_> = (0..7)
            .map(|_| BinaryHypervector::random(130, &mut r))
            .collect();
        let batch = HypervectorBatch::from_vectors(&items).unwrap();
        let collected: Vec<BinaryHypervector> =
            batch.rows().map(|row| row.to_hypervector()).collect();
        assert_eq!(collected, items);
        assert_eq!(batch.rows().len(), 7);
    }

    #[test]
    fn row_mut_edits_are_visible() {
        let mut batch = HypervectorBatch::zeros(100, 3);
        batch.row_mut(1).set(99, true);
        assert!(batch.row(1).get(99));
        assert!(!batch.row(0).get(99));
        assert_eq!(batch.row(1).count_ones(), 1);
        batch.row_mut(1).clear();
        assert_eq!(batch.row(1).count_ones(), 0);
    }

    #[test]
    fn push_zero_row_extends() {
        let mut r = rng();
        let mut batch = HypervectorBatch::new(70);
        let hv = BinaryHypervector::random(70, &mut r);
        {
            let mut row = batch.push_zero_row();
            row.copy_from(hv.view());
        }
        batch.push(&hv);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.row(0).hamming(batch.row(1)), 0);
    }

    #[test]
    fn view_operations_match_owned() {
        let mut r = rng();
        let a = BinaryHypervector::random(777, &mut r);
        let b = BinaryHypervector::random(777, &mut r);
        assert_eq!(a.view().hamming(b.view()), a.hamming(&b));
        assert_eq!(a.view().count_ones(), a.count_ones());
        assert_eq!(a.view().similarity(b.view()), a.similarity(&b));
        let mut bound = a.clone();
        bound.bind_assign(&b);
        let mut batch = HypervectorBatch::from_vectors(std::slice::from_ref(&a)).unwrap();
        batch.row_mut(0).xor_assign(b.view());
        assert_eq!(batch.to_hypervector(0), bound);
    }

    #[test]
    fn rows_mut_cover_all_rows_once() {
        let mut r = rng();
        let items: Vec<_> = (0..11)
            .map(|_| BinaryHypervector::random(200, &mut r))
            .collect();
        let mut batch = HypervectorBatch::zeros(200, 11);
        let mut rows: Vec<HvMut<'_>> = batch.rows_mut().collect();
        assert_eq!(rows.len(), 11);
        // Disjoint views: each can be written independently (as scoped
        // workers do), through a reborrow.
        for (row_index, row) in rows.iter_mut().enumerate().rev() {
            row.reborrow().copy_from(items[row_index].view());
        }
        assert_eq!(batch.to_vectors(), items);
    }

    #[test]
    fn fill_rows_visits_in_order() {
        let mut batch = HypervectorBatch::zeros(65, 4);
        let mut order = Vec::new();
        batch.fill_rows(|i, mut row| {
            order.push(i);
            row.set(i, true);
        });
        assert_eq!(order, vec![0, 1, 2, 3]);
        for i in 0..4 {
            assert!(batch.row(i).get(i));
        }
    }

    #[test]
    fn clear_and_resize_recycle_the_allocation() {
        let mut r = rng();
        let items: Vec<_> = (0..6)
            .map(|_| BinaryHypervector::random(130, &mut r))
            .collect();
        let mut batch = HypervectorBatch::from_vectors(&items).unwrap();
        let capacity = batch.capacity();
        assert!(capacity >= 6);

        // clear() drops the rows but keeps the arena.
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.capacity(), capacity);
        for hv in &items[..3] {
            batch.push(hv);
        }
        assert_eq!(batch.to_vectors(), items[..3].to_vec());

        // resize_zeroed() yields exactly `len` clean rows, no stale bits
        // from the previous occupancy.
        batch.resize_zeroed(5);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.capacity(), capacity);
        for i in 0..5 {
            assert_eq!(batch.row(i).count_ones(), 0, "row {i} must be zeroed");
        }
        // Growing past the old capacity still works.
        batch.resize_zeroed(64);
        assert_eq!(batch.len(), 64);
        assert!(batch.rows().all(|row| row.count_ones() == 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_out_of_range_panics() {
        let batch = HypervectorBatch::zeros(64, 2);
        let _ = batch.row(2);
    }

    #[test]
    #[should_panic(expected = "bits beyond dimension")]
    fn hv_ref_rejects_dirty_tail() {
        let words = [0u64, 1u64 << 63];
        let _ = HvRef::new(65, &words);
    }

    #[test]
    #[should_panic(expected = "bits beyond dimension")]
    fn hv_mut_rejects_dirty_tail() {
        let mut words = [1u64 << 40];
        let _ = HvMut::new(33, &mut words);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_dimension() {
        let mut r = rng();
        let mut batch = HypervectorBatch::new(64);
        batch.push(&BinaryHypervector::random(65, &mut r));
    }

    #[test]
    fn send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<HypervectorBatch>();
        assert_send_sync::<HvRef<'_>>();
        assert_send::<HvMut<'_>>();
    }
}
