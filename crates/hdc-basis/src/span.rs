//! Shared span-based interpolation machinery behind level and circular
//! basis-hypervector sets (paper §4.3 Algorithm 1, generalized by §5.2).
//!
//! A *span* is one run of Algorithm 1: two random endpoint hypervectors and
//! an interpolation filter `Φ ∈ [0, 1]^d`; intermediate levels copy each bit
//! from the first endpoint when `Φ(∂) < τ_l` and from the second otherwise.
//! The randomness hyperparameter `r` shortens the spans: with
//! `n = r + (1 − r)(m − 1)` transitions per span, `r = 0` yields a single
//! span (exactly Algorithm 1) and `r = 1` yields one span per transition
//! (an uncorrelated random set).

use hdc_core::BinaryHypervector;
use rand::Rng;

/// Generates `m` hypervectors of dimensionality `dim` by concatenating
/// interpolation spans, with `r ∈ [0, 1]` controlling the span length.
///
/// The last hypervector of one span is the first hypervector of the next
/// (paper §5.2); a fresh endpoint pair and a fresh filter `Φ` are drawn per
/// span so consecutive spans are statistically independent.
///
/// All randomness is drawn up front (endpoints, then filters, in span
/// order); the per-level interpolation is a pure function of that material,
/// so the levels are computed on the scoped worker pool (when the set is
/// large enough to pay for the fork) and the output is bit-identical to a
/// serial pass for any thread count.
///
/// Assumes `m >= 2`, `dim >= 1` and `r ∈ [0, 1]` (validated by the public
/// constructors that call this).
pub(crate) fn spanned_levels(
    m: usize,
    dim: usize,
    r: f64,
    rng: &mut impl Rng,
) -> Vec<BinaryHypervector> {
    debug_assert!(m >= 2 && dim >= 1 && (0.0..=1.0).contains(&r));
    // Transitions per span: n = r·1 + (1 − r)(m − 1)  (paper §5.2).
    let n = r + (1.0 - r) * (m as f64 - 1.0);
    let span_count = ((m as f64 - 1.0) / n).ceil().max(1.0) as usize;

    // Endpoint hypervectors E_0 … E_spans and one filter Φ per span.
    let endpoints: Vec<BinaryHypervector> = (0..=span_count)
        .map(|_| BinaryHypervector::random(dim, rng))
        .collect();
    let filters: Vec<Vec<f64>> = (0..span_count)
        .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
        .collect();

    let level = |l: usize| {
        let pos = l as f64;
        let span = ((pos / n).floor() as usize).min(span_count - 1);
        let within = pos - span as f64 * n;
        // τ_l = 1 − ((l − 1) mod n)/n in the paper's 1-based indexing.
        let tau = 1.0 - within / n;
        interpolate(&endpoints[span], &endpoints[span + 1], &filters[span], tau)
    };
    // Interpolation picks every bit through a closure (≈14 ns a bit), so a
    // packed word of a level costs about a thousand Hamming words.
    const INTERPOLATE_WORD_OPS: usize = 1_000;
    let work = m * dim.div_ceil(64) * INTERPOLATE_WORD_OPS;
    minipool::par_generate(m, work, level)
}

/// One step of Algorithm 1: bit `∂` comes from `first` when
/// `filter(∂) < tau`, otherwise from `second`.
fn interpolate(
    first: &BinaryHypervector,
    second: &BinaryHypervector,
    filter: &[f64],
    tau: f64,
) -> BinaryHypervector {
    BinaryHypervector::from_fn(first.dim(), |i| {
        if filter[i] < tau {
            first.get(i)
        } else {
            second.get(i)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(777)
    }

    #[test]
    fn r_zero_first_and_last_are_span_endpoints() {
        let mut r = rng();
        let levels = spanned_levels(9, 2_000, 0.0, &mut r);
        assert_eq!(levels.len(), 9);
        // Single span: endpoints quasi-orthogonal, interior between them.
        assert!((levels[0].normalized_hamming(&levels[8]) - 0.5).abs() < 0.05);
    }

    #[test]
    fn r_zero_expected_distance_is_linear() {
        // E[δ(L_i, L_j)] = (j − i) / (2(m − 1))  (Proposition 4.1).
        let mut r = rng();
        let m = 11;
        let levels = spanned_levels(m, 20_000, 0.0, &mut r);
        for i in 0..m {
            for j in (i + 1)..m {
                let expected = (j - i) as f64 / (2.0 * (m as f64 - 1.0));
                let actual = levels[i].normalized_hamming(&levels[j]);
                assert!(
                    (actual - expected).abs() < 0.03,
                    "i={i} j={j} expected={expected:.3} actual={actual:.3}"
                );
            }
        }
    }

    #[test]
    fn r_one_is_fully_random() {
        let mut r = rng();
        let levels = spanned_levels(8, 10_000, 1.0, &mut r);
        for i in 0..8 {
            for j in (i + 1)..8 {
                let d = levels[i].normalized_hamming(&levels[j]);
                assert!((d - 0.5).abs() < 0.05, "i={i} j={j} d={d}");
            }
        }
    }

    #[test]
    fn intermediate_r_keeps_local_correlation_but_decorrelates_far_pairs() {
        let mut r = rng();
        let m = 16;
        let levels = spanned_levels(m, 10_000, 0.5, &mut r);
        // Neighbours remain correlated…
        let neighbor = levels[0].normalized_hamming(&levels[1]);
        assert!(neighbor < 0.25, "neighbor distance {neighbor}");
        // …while the far end is quasi-orthogonal earlier than with r = 0.
        let far = levels[0].normalized_hamming(&levels[m - 1]);
        assert!((far - 0.5).abs() < 0.06, "far distance {far}");
    }

    #[test]
    fn two_levels_are_random_pair() {
        let mut r = rng();
        let levels = spanned_levels(2, 5_000, 0.0, &mut r);
        assert!((levels[0].normalized_hamming(&levels[1]) - 0.5).abs() < 0.05);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = spanned_levels(6, 512, 0.25, &mut StdRng::seed_from_u64(5));
        let b = spanned_levels(6, 512, 0.25, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
