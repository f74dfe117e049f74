//! Compile-time weight canonicalization: shared-magnitude (GCD) factoring
//! and canonical signed-digit (CSD) bit-edge recoding.
//!
//! A threshold gate's behaviour is invariant under two rewrites the batch
//! kernel can cash in on:
//!
//! * **GCD factoring.** If every weight magnitude shares a factor `g > 1`,
//!   then `Σ wᵢ·yᵢ ≥ t  ⟺  Σ (wᵢ/g)·yᵢ ≥ ⌈t/g⌉` (the left sum is an
//!   integer multiple of `g`). Dividing through can *reclassify* the gate —
//!   `{+5, −5, +5}` becomes the majority-style `{+1, −1, +1}` (Unit),
//!   `{+6, −12}` becomes `{+1, −2}` (Pow2) — moving it from the bit-edge
//!   loops onto a strictly faster kernel segment, and always shrinks the
//!   plane reach of whatever class remains.
//! * **CSD recoding.** A `General` weight is evaluated as one plane
//!   addition per *digit* of its magnitude. Binary digits (one per set bit)
//!   are not minimal: the canonical signed-digit (non-adjacent) form of,
//!   say, `7 = 8 − 1` has two digits where binary `111` has three. Since
//!   the kernel already keeps separate positive and negative accumulator
//!   planes, a negative digit is free to represent — so every weight is
//!   recoded to whichever of NAF/binary has strictly fewer digits.
//!
//! Both rewrites preserve the gate's output on every input, therefore also
//! the circuit's observable firing counts (no gates are added, removed, or
//! reordered) — the depth–energy measures of Uchizawa et al. survive
//! canonicalization exactly. The differential proptests in
//! `tests/proptest_canon.rs` pin this against an independent gate-list
//! oracle across every evaluator.
//!
//! Canonicalization runs inside [`Circuit::compile`](crate::Circuit):
//! classify (pre) → factor → reclassify (post) → renumber, so the class
//! segments the kernel walks reflect the *canonical* weights. The pre/post
//! class mixes are both observable ([`crate::CircuitStats`]).

/// Version of the canonicalization rules baked into compiled circuits.
///
/// Consumers that fingerprint compiled circuits (the runtime's auto-tuner
/// cache key) mix this in, so persisted decisions made under older rewrite
/// rules are invalidated instead of silently reused. Bump whenever the
/// compiled form — the rewrites, or what it decides about kernel cost —
/// changes for some circuit. Version 2 marks threshold-family sum reuse,
/// which changes what a pass costs for the same gates and bit-edges.
pub const CANON_VERSION: u32 = 2;

/// Greatest common divisor (Euclid; `gcd(0, x) = x`).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The canonical (GCD-factored) form of one gate, or `None` if the gate is
/// already canonical (no shared magnitude factor > 1).
///
/// When `Some((weights, threshold))` is returned, the rewritten gate fires
/// on exactly the same input sets as the original: all weight magnitudes
/// have been divided by their collective GCD `g` and the threshold replaced
/// by `⌈t/g⌉` (exact because the weighted sum is always a multiple of `g`).
/// Signs are preserved; zero weights stay zero.
pub fn canonical_gate(weights: &[i64], threshold: i64) -> Option<(Vec<i64>, i64)> {
    let g = weights
        .iter()
        .fold(0u64, |acc, w| gcd(acc, w.unsigned_abs()));
    if g <= 1 {
        return None;
    }
    let gw = g as i128;
    // lint:allow(narrowing-cast): |w|/g ≤ |w|, so the quotient fits i64
    let canon = weights.iter().map(|&w| ((w as i128) / gw) as i64).collect();
    // ⌈t/g⌉ in exact integer arithmetic (i128 covers i64::MIN).
    let q = (threshold as i128).div_euclid(gw);
    let r = (threshold as i128).rem_euclid(gw);
    // lint:allow(narrowing-cast): g ≥ 2, so |⌈t/g⌉| ≤ |t| fits i64
    let t = (q + (r != 0) as i128) as i64;
    Some((canon, t))
}

/// One signed digit of a weight-magnitude decomposition: the magnitude
/// contributes `±2^shift`.
pub(crate) type Digit = (u8, bool);

/// Appends the plain binary digits of `mag` (one positive digit per set
/// bit) to `out`.
pub(crate) fn binary_digits(mag: u64, out: &mut Vec<Digit>) {
    let mut bits = mag;
    while bits != 0 {
        // lint:allow(narrowing-cast): trailing_zeros of a nonzero u64 is ≤ 63
        out.push((bits.trailing_zeros() as u8, false));
        bits &= bits - 1;
    }
}

/// Appends the non-adjacent-form (canonical signed-digit) digits of `mag`
/// to `out`. The NAF of `n ≤ 2^63` has digits at shifts `≤ 63` only, and
/// never more digits than the binary form.
pub(crate) fn naf_digits(mag: u64, out: &mut Vec<Digit>) {
    // u128 working copy: the +1 rounding below may momentarily exceed u64
    // for magnitudes near 2^63.
    let mut n = mag as u128;
    let mut shift = 0u8;
    while n != 0 {
        if n & 1 == 1 {
            if n & 3 == 3 {
                // Digit −1: add one and let the carry create a run of zeros.
                out.push((shift, true));
                n += 1;
            } else {
                out.push((shift, false));
                n -= 1;
            }
        }
        n >>= 1;
        shift += 1;
    }
}

/// Appends the cheaper of the binary and NAF decompositions of `mag`: NAF
/// only when it has *strictly* fewer digits (ties keep binary, whose digit
/// magnitudes sum to exactly `mag` and therefore reach fewer planes).
pub(crate) fn weight_digits(mag: u64, out: &mut Vec<Digit>) {
    let start = out.len();
    naf_digits(mag, out);
    if (out.len() - start) >= mag.count_ones() as usize {
        out.truncate(start);
        binary_digits(mag, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digit_value(digits: &[Digit]) -> i128 {
        digits
            .iter()
            .map(|&(shift, neg)| {
                let v = 1i128 << shift;
                if neg {
                    -v
                } else {
                    v
                }
            })
            .sum()
    }

    #[test]
    fn gcd_factoring_divides_through_and_ceils_the_threshold() {
        let (w, t) = canonical_gate(&[6, -9, 12], 7).unwrap();
        assert_eq!(w, vec![2, -3, 4]);
        assert_eq!(t, 3); // ⌈7/3⌉
        let (w, t) = canonical_gate(&[5, -5, 5], 10).unwrap();
        assert_eq!(w, vec![1, -1, 1]);
        assert_eq!(t, 2);
        // Negative thresholds ceil towards zero.
        let (w, t) = canonical_gate(&[4, 8], -7).unwrap();
        assert_eq!(w, vec![1, 2]);
        assert_eq!(t, -1); // ⌈−7/4⌉
        let (_, t) = canonical_gate(&[4, 8], -8).unwrap();
        assert_eq!(t, -2);
    }

    #[test]
    fn already_canonical_gates_are_untouched() {
        assert!(canonical_gate(&[3, 5, 7], 8).is_none());
        assert!(canonical_gate(&[1, -1], 1).is_none());
        assert!(canonical_gate(&[], 5).is_none());
        assert!(canonical_gate(&[0, 0], 5).is_none());
        // A zero weight is ignored by the GCD but divided along.
        let (w, t) = canonical_gate(&[0, 6, -4], 3).unwrap();
        assert_eq!(w, vec![0, 3, -2]);
        assert_eq!(t, 2);
    }

    #[test]
    fn extreme_magnitudes_factor_exactly() {
        // i64::MIN has magnitude 2^63; gcd with itself is 2^63.
        let (w, t) = canonical_gate(&[i64::MIN, i64::MIN], i64::MIN).unwrap();
        assert_eq!(w, vec![-1, -1]);
        assert_eq!(t, -1);
        let (w, t) = canonical_gate(&[i64::MIN, 2], 5).unwrap();
        assert_eq!(w, vec![i64::MIN / 2, 1]);
        assert_eq!(t, 3);
        // gcd(i64::MAX, i64::MAX - 2) = 1 for the odd i64::MAX.
        assert!(canonical_gate(&[i64::MAX, i64::MAX - 2], 1).is_none());
    }

    #[test]
    fn naf_digits_reconstruct_and_are_nonadjacent() {
        for mag in (0u64..4096).chain([
            u64::MAX >> 1,
            (u64::MAX >> 1) + 1, // 2^63
            0x5555_5555_5555_5555,
            0x7FFF_FFFF_FFFF_FFFD,
        ]) {
            let mut digits = Vec::new();
            naf_digits(mag, &mut digits);
            assert_eq!(digit_value(&digits), mag as i128, "mag {mag}");
            assert!(
                digits.iter().all(|&(s, _)| s <= 63),
                "mag {mag} shift range"
            );
            // Non-adjacency: consecutive digits differ by >= 2 shifts.
            for pair in digits.windows(2) {
                assert!(pair[1].0 >= pair[0].0 + 2, "mag {mag} adjacency");
            }
            assert!(
                digits.len() <= mag.count_ones() as usize || mag.count_ones() <= 1,
                "mag {mag}: NAF ({}) longer than binary ({})",
                digits.len(),
                mag.count_ones()
            );
        }
    }

    #[test]
    fn weight_digits_prefer_strictly_shorter_naf() {
        // 7 = 8 - 1: NAF wins (2 digits vs 3).
        let mut d = Vec::new();
        weight_digits(7, &mut d);
        assert_eq!(d, vec![(0, true), (3, false)]);
        // 5 = 4 + 1 either way: binary kept.
        d.clear();
        weight_digits(5, &mut d);
        assert_eq!(d, vec![(0, false), (2, false)]);
        // Powers of two are single digits in both forms.
        d.clear();
        weight_digits(1 << 40, &mut d);
        assert_eq!(d, vec![(40, false)]);
        d.clear();
        weight_digits(0, &mut d);
        assert!(d.is_empty());
        // Reconstruction holds for a spread of magnitudes.
        for mag in [3u64, 47, 0xFFFF, 0b1011011101, u64::MAX >> 1] {
            d.clear();
            weight_digits(mag, &mut d);
            assert_eq!(digit_value(&d), mag as i128, "mag {mag}");
        }
    }
}
