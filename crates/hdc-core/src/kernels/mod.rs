//! Word-slice kernels: the hot inner loops of the three HDC operations,
//! expressed over raw `&[u64]` bit-packed words.
//!
//! Everything above this module — [`BinaryHypervector`](crate::BinaryHypervector)
//! methods, [`MajorityAccumulator`](crate::MajorityAccumulator), the
//! [`similarity`](crate::similarity) helpers and the batched
//! [`HypervectorBatch`](crate::HypervectorBatch) arena — funnels into these
//! functions, so owned vectors, borrowed rows of a batch, and externally
//! packed buffers all hit the same word-parallel code paths. The kernels
//! assume (and `debug_assert`) equal slice lengths; dimension checking is
//! the caller's job.
//!
//! The six hot entry points (`xor`/`xor_into`, `count_ones`/`hamming`,
//! `accumulate`, `dot_bipolar`, `masked_sum`, `majority_into`) route
//! through [`dispatch`]: a per-process function-pointer table resolved
//! once from runtime ISA detection (AVX2 on `x86_64`, NEON on `aarch64`,
//! scalar everywhere), overridable with `HDC_KERNEL=scalar|avx2|neon`.
//! Every backend is bit-identical to the scalar reference (the private
//! `scalar` module) — see the [`dispatch`] docs for the contract. The bit-copy
//! helpers (`for_each_set_bit`, `permute_into`) stay scalar: they are
//! either already sparse walks or memmove-shaped.
//!
//! Bit layout is LSB-first within each `u64`, matching
//! [`BinaryHypervector::as_words`](crate::BinaryHypervector::as_words), and
//! callers must keep bits at positions `>= dim` in the final word zero.

pub mod dispatch;
mod scalar;

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

/// What one packed word of [`accumulate`] (64 counter updates) costs in
/// the word-ops `minipool`'s fork rule counts, where one word-op is one
/// word of [`hamming`]: ≈18 ns against ≈0.9 ns with the AVX2 backend on
/// an x86-64 host. No batch path pays it per row: the encoders and the
/// trainers' batched folds bundle bit-sliced (see
/// [`BitSlicedBundle::PUSH_WORD_OPS`](crate::BitSlicedBundle::PUSH_WORD_OPS))
/// and pay it once per counter plane.
pub const ACCUMULATE_WORD_OPS: usize = 20;

/// XORs `src` into `dst` word by word (the binding operation `⊗`).
#[inline]
pub fn xor_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    (dispatch::selected().xor_into)(dst, src);
}

/// Writes `a ^ b` into `out` word by word (out-of-place binding).
#[inline]
pub fn xor(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert!(a.len() == b.len() && b.len() == out.len());
    (dispatch::selected().xor)(a, b, out);
}

/// Total population count of a packed word slice.
#[inline]
#[must_use]
pub fn count_ones(words: &[u64]) -> usize {
    (dispatch::selected().count_ones)(words)
}

/// Hamming distance between two packed word slices (popcount of the XOR).
#[inline]
#[must_use]
pub fn hamming(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    (dispatch::selected().hamming)(a, b)
}

/// Calls `f(bit_index)` for every set bit of the packed slice, in ascending
/// order — the one implementation of the `trailing_zeros` / `w &= w − 1`
/// set-bit walk that the sparse kernels (and the regression readout in
/// `hdc-learn`) share.
#[inline]
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (word_idx, &word) in words.iter().enumerate() {
        let base = word_idx * 64;
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            f(base + bit);
            w &= w - 1;
        }
    }
}

/// Adds a packed hypervector into signed per-dimension counters with the
/// given weight: `counts[i] += bit_i ? weight : -weight` (majority bundling).
///
/// Implemented (in the scalar backend) as a uniform `-weight` over all
/// counters followed by `+2·weight` at the set bits, so only ~`popcount`
/// positions are touched individually instead of every bit; the AVX2
/// backend selects `±weight` per 8-lane group instead. Both produce the
/// same counters.
///
/// `counts.len()` is the dimensionality `d`; `words` must hold exactly the
/// packed `d` bits with a clean tail.
///
/// It costs about [`ACCUMULATE_WORD_OPS`] times a [`hamming`] word.
pub fn accumulate(counts: &mut [i32], words: &[u64], weight: i32) {
    debug_assert_eq!(words.len(), counts.len().div_ceil(64));
    (dispatch::selected().accumulate)(counts, words, weight);
}

/// Signed agreement between per-dimension counters and a packed query:
/// `Σ_i (bit_i ? counts[i] : -counts[i])` — the bipolar dot product used for
/// integer-readout inference.
///
/// Computed as `2·Σ_{set bits} counts[i] − Σ_i counts[i]` in exact `i64`
/// arithmetic, so every backend returns the identical value.
#[must_use]
pub fn dot_bipolar(counts: &[i32], words: &[u64]) -> i64 {
    debug_assert_eq!(words.len(), counts.len().div_ceil(64));
    (dispatch::selected().dot_bipolar)(counts, words)
}

/// Counter sum over the intersection of two packed masks:
/// `Σ_{i : a_i = b_i = 1} counts[i]`.
///
/// This is the one walk the regression integer readout needs per
/// (label, query) pair: with the query-independent per-label sums
/// `Σ_{i ∈ L} counts[i]` precomputed at model build, the sign-flipped score
/// `Σ_{i ∈ L} (q_i ? -counts[i] : counts[i])` rewrites to
/// `label_sum − 2·masked_sum(counts, L, q)` — no per-query flipped-counter
/// buffer, and only the `L ∧ q` bits (≈ d/4 for dense vectors) are visited.
#[must_use]
pub fn masked_sum(counts: &[i32], a: &[u64], b: &[u64]) -> i64 {
    debug_assert_eq!(a.len(), counts.len().div_ceil(64));
    debug_assert_eq!(a.len(), b.len());
    (dispatch::selected().masked_sum)(counts, a, b)
}

/// Writes the cyclic rotation `Π^shift` of a packed `dim`-bit hypervector
/// into `dst`: bit `i` of `src` lands at position `(i + shift) mod dim`.
///
/// The shift must already be reduced to `0 <= shift < dim` (callers with
/// signed shifts reduce via `rem_euclid`). `dst` is fully overwritten and
/// its tail is left clean. This is the in-place form of
/// `BinaryHypervector::permute` that batched encoders rotate through a
/// reusable scratch buffer with, instead of allocating a fresh vector per
/// permutation.
pub fn permute_into(src: &[u64], dim: usize, shift: usize, dst: &mut [u64]) {
    debug_assert_eq!(src.len(), dim.div_ceil(64));
    debug_assert_eq!(src.len(), dst.len());
    debug_assert!(shift < dim.max(1));
    if shift == 0 {
        dst.copy_from_slice(src);
        return;
    }
    dst.fill(0);
    // dst[shift..dim) = src[0..dim-shift) and dst[0..shift) = src[dim-shift..dim)
    copy_bit_range(src, 0, dst, shift, dim - shift);
    copy_bit_range(src, dim - shift, dst, 0, shift);
}

/// Reads up to 64 bits starting at bit `start` of the packed slice.
fn read_bits(src: &[u64], start: usize, count: usize) -> u64 {
    debug_assert!(count <= 64);
    let word = start / 64;
    let off = start % 64;
    let mut value = src[word] >> off;
    if off != 0 && count > 64 - off && word + 1 < src.len() {
        value |= src[word + 1] << (64 - off);
    }
    if count < 64 {
        value &= (1u64 << count) - 1;
    }
    value
}

/// Copies `len` bits from `src` starting at bit `src_start` into `dst`
/// starting at bit `dst_start`. The ranges are assumed to be in bounds.
pub(crate) fn copy_bit_range(
    src: &[u64],
    src_start: usize,
    dst: &mut [u64],
    dst_start: usize,
    len: usize,
) {
    let mut copied = 0;
    while copied < len {
        let d_bit = dst_start + copied;
        let d_word = d_bit / 64;
        let d_off = d_bit % 64;
        let chunk = (64 - d_off).min(len - copied);
        let bits = read_bits(src, src_start + copied, chunk);
        let mask = if chunk == 64 {
            !0u64
        } else {
            (1u64 << chunk) - 1
        } << d_off;
        dst[d_word] = (dst[d_word] & !mask) | ((bits << d_off) & mask);
        copied += chunk;
    }
}

/// Resolves signed counters into packed majority bits:
/// bit `i` is 1 iff `counts[i] > 0`, 0 iff `counts[i] < 0`, and
/// `tie_bit(i)` on an exact tie. Ties are consulted in ascending index
/// order on every backend. The tail of the final word is left clean.
pub fn majority_into(counts: &[i32], out: &mut [u64], mut tie_bit: impl FnMut(usize) -> bool) {
    debug_assert_eq!(out.len(), counts.len().div_ceil(64));
    (dispatch::selected().majority_into)(counts, out, &mut tie_bit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_words(len: usize, rng: &mut StdRng) -> Vec<u64> {
        (0..len).map(|_| rng.random()).collect()
    }

    #[test]
    fn xor_matches_in_place_and_out_of_place() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_words(17, &mut rng);
        let b = random_words(17, &mut rng);
        let mut in_place = a.clone();
        xor_into(&mut in_place, &b);
        let mut out = vec![0u64; 17];
        xor(&a, &b, &mut out);
        assert_eq!(in_place, out);
        for i in 0..17 {
            assert_eq!(out[i], a[i] ^ b[i]);
        }
    }

    #[test]
    fn hamming_and_count_ones_agree_with_naive() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_words(9, &mut rng);
        let b = random_words(9, &mut rng);
        let naive: usize = (0..9 * 64)
            .filter(|&i| (a[i / 64] >> (i % 64)) & 1 != (b[i / 64] >> (i % 64)) & 1)
            .count();
        assert_eq!(hamming(&a, &b), naive);
        let zeros = [0u64; 9];
        assert_eq!(
            count_ones(&a) + count_ones(&b),
            hamming(&a, &zeros) + hamming(&zeros, &b)
        );
    }

    #[test]
    fn accumulate_matches_bitwise_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        for dim in [1usize, 63, 64, 65, 200] {
            let hv = crate::BinaryHypervector::random(dim, &mut rng);
            let mut fast = vec![0i32; dim];
            let mut reference = vec![0i32; dim];
            for weight in [1i32, -1, 3, -2] {
                accumulate(&mut fast, hv.as_words(), weight);
                for (i, bit) in hv.bits().enumerate() {
                    reference[i] += if bit { weight } else { -weight };
                }
                assert_eq!(fast, reference, "dim={dim} weight={weight}");
            }
        }
    }

    #[test]
    fn accumulate_survives_extreme_weights() {
        // |weight| >= 2^30 would overflow the doubling shortcut; the
        // fallback path must produce the plain per-bit sums.
        let mut rng = StdRng::seed_from_u64(5);
        let hv = crate::BinaryHypervector::random(100, &mut rng);
        for weight in [1i32 << 30, i32::MIN / 2, i32::MAX] {
            let mut fast = vec![0i32; 100];
            accumulate(&mut fast, hv.as_words(), weight);
            for (i, bit) in hv.bits().enumerate() {
                let expected = if bit { weight } else { weight.wrapping_neg() };
                assert_eq!(fast[i], expected, "bit {i} weight {weight}");
            }
        }
    }

    #[test]
    fn dot_bipolar_matches_bitwise_reference() {
        let mut rng = StdRng::seed_from_u64(4);
        for dim in [1usize, 64, 65, 130] {
            let hv = crate::BinaryHypervector::random(dim, &mut rng);
            let counts: Vec<i32> = (0..dim).map(|_| rng.random_range(-50i32..50)).collect();
            let reference: i64 = hv
                .bits()
                .enumerate()
                .map(|(i, bit)| {
                    let c = i64::from(counts[i]);
                    if bit {
                        c
                    } else {
                        -c
                    }
                })
                .sum();
            assert_eq!(dot_bipolar(&counts, hv.as_words()), reference, "dim={dim}");
        }
    }

    #[test]
    fn majority_resolves_signs_and_ties() {
        let counts = [3i32, -1, 0, 0, 2];
        let mut out = vec![0u64; 1];
        majority_into(&counts, &mut out, |i| i % 2 == 0);
        // bits: 1 (pos), 0 (neg), 1 (tie, even), 0 (tie, odd), 1 (pos)
        assert_eq!(out[0], 0b10101);
    }

    #[test]
    fn masked_sum_matches_bitwise_reference() {
        let mut rng = StdRng::seed_from_u64(6);
        for dim in [1usize, 63, 64, 65, 200] {
            let a = crate::BinaryHypervector::random(dim, &mut rng);
            let b = crate::BinaryHypervector::random(dim, &mut rng);
            let counts: Vec<i32> = (0..dim).map(|_| rng.random_range(-40i32..40)).collect();
            let reference: i64 = a
                .bits()
                .zip(b.bits())
                .enumerate()
                .filter(|(_, (x, y))| *x && *y)
                .map(|(i, _)| i64::from(counts[i]))
                .sum();
            assert_eq!(
                masked_sum(&counts, a.as_words(), b.as_words()),
                reference,
                "dim={dim}"
            );
            // The sign-flipped readout identity the regression model relies
            // on: Σ_{i∈a}(b_i ? -c_i : c_i) = Σ_{i∈a} c_i − 2·masked_sum.
            let masked_total: i64 = a
                .bits()
                .enumerate()
                .filter(|(_, bit)| *bit)
                .map(|(i, _)| i64::from(counts[i]))
                .sum();
            let signed_reference: i64 = a
                .bits()
                .zip(b.bits())
                .enumerate()
                .filter(|(_, (x, _))| *x)
                .map(|(i, (_, y))| {
                    let c = i64::from(counts[i]);
                    if y {
                        -c
                    } else {
                        c
                    }
                })
                .sum();
            assert_eq!(
                masked_total - 2 * masked_sum(&counts, a.as_words(), b.as_words()),
                signed_reference,
                "dim={dim}"
            );
        }
    }

    #[test]
    fn permute_into_matches_owned_permute() {
        let mut rng = StdRng::seed_from_u64(7);
        for dim in [1usize, 2, 63, 64, 65, 130] {
            let hv = crate::BinaryHypervector::random(dim, &mut rng);
            // Scratch starts dirty below the dimension to prove it is fully
            // overwritten (the tail must stay clean, so only in-range bits).
            for shift in [0usize, 1 % dim, dim / 2, dim - 1] {
                let mut dst = vec![0u64; dim.div_ceil(64)];
                crate::BinaryHypervector::random(dim, &mut rng)
                    .as_words()
                    .clone_into(&mut dst);
                permute_into(hv.as_words(), dim, shift, &mut dst);
                let expected = hv.permute(shift as isize);
                assert_eq!(dst, expected.as_words(), "dim={dim} shift={shift}");
            }
        }
    }
}
