//! Posit arithmetic on raw bit patterns.
//!
//! Every kernel is instantiated per format: `N` (width) and `ES`
//! (exponent-field size) are const generics, so shifts, masks and the
//! regime split compile to constants. All operations unpack to
//! sign/scale/Q1.63-significand form, compute in `u128` intermediates
//! wide enough for exact pattern rounding, and pack with
//! round-to-nearest-even. NaR propagates through every operation.

use crate::decode::{decode, mask, Decoded, Unpacked};
use crate::encode::pack;

#[inline]
const fn nar_bits<const N: u32>() -> u64 {
    1u64 << (N - 1)
}

/// Exact negation: two's complement of the pattern.
#[inline]
#[must_use]
pub fn neg_bits<const N: u32>(a: u64) -> u64 {
    a.wrapping_neg() & mask::<N>()
}

/// Posit addition.
#[inline]
#[must_use]
pub fn add_bits<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
    match (decode::<N, ES>(a), decode::<N, ES>(b)) {
        (Decoded::NaR, _) | (_, Decoded::NaR) => nar_bits::<N>(),
        (Decoded::Zero, _) => b,
        (_, Decoded::Zero) => a,
        (Decoded::Finite(x), Decoded::Finite(y)) => add_unpacked::<N, ES>(x, y),
    }
}

/// Posit subtraction (`a + (-b)`).
#[inline]
#[must_use]
pub fn sub_bits<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
    add_bits::<N, ES>(a, neg_bits::<N>(b))
}

#[inline]
fn add_unpacked<const N: u32, const ES: u32>(x: Unpacked, y: Unpacked) -> u64 {
    // Order by magnitude: |big| >= |small|.
    let (big, small) = if (x.scale, x.frac) >= (y.scale, y.frac) {
        (x, y)
    } else {
        (y, x)
    };
    let d = big.scale.abs_diff(small.scale);

    // Fixed point with the hidden bit of `big` at bit 126 (one headroom
    // bit at 127 for the same-sign carry).
    let abig = u128::from(big.frac) << 63;
    let asmall_full = u128::from(small.frac) << 63;
    let (asmall, small_sticky) = if d >= 127 {
        (0u128, true)
    } else {
        let shifted = asmall_full >> d;
        let lost = d > 0 && asmall_full & ((1u128 << d) - 1) != 0;
        (shifted, lost)
    };

    if big.negative == small.negative {
        let sum = abig + asmall;
        let (scale_adj, frac, mut sticky) = normalize_sum(sum);
        sticky |= small_sticky;
        pack::<N, ES>(big.negative, big.scale + scale_adj, frac, sticky)
    } else {
        let mut diff = abig - asmall;
        let mut sticky = false;
        if small_sticky {
            // True value is diff - epsilon, epsilon in (0,1) array ulps:
            // rewrite as (diff - 1) + (1 - epsilon) to keep the residue
            // positive for the sticky bit.
            diff -= 1;
            sticky = true;
        }
        if diff == 0 {
            return 0; // exact cancellation
        }
        // Renormalize the hidden bit to position 126 (the difference
        // cannot exceed the larger operand, so bit 127 is clear).
        let shift = diff.leading_zeros() - 1;
        let v = diff << shift;
        let frac = (v >> 63) as u64;
        sticky |= v & ((1u128 << 63) - 1) != 0;
        pack::<N, ES>(big.negative, big.scale - i64::from(shift), frac, sticky)
    }
}

/// Normalizes a sum with hidden bits at 126 (result top at 126 or 127).
#[inline]
fn normalize_sum(sum: u128) -> (i64, u64, bool) {
    if sum >> 127 != 0 {
        // Carry: top at 127 -> scale + 1.
        let frac = (sum >> 64) as u64;
        let sticky = sum as u64 != 0;
        (1, frac, sticky)
    } else {
        debug_assert!(sum >> 126 != 0);
        let frac = (sum >> 63) as u64;
        let sticky = sum & ((1u128 << 63) - 1) != 0;
        (0, frac, sticky)
    }
}

/// Posit multiplication.
#[inline]
#[must_use]
pub fn mul_bits<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
    match (decode::<N, ES>(a), decode::<N, ES>(b)) {
        (Decoded::NaR, _) | (_, Decoded::NaR) => nar_bits::<N>(),
        (Decoded::Zero, _) | (_, Decoded::Zero) => 0,
        (Decoded::Finite(x), Decoded::Finite(y)) => {
            let negative = x.negative != y.negative;
            // Q1.63 * Q1.63 = Q2.126: product in [2^126, 2^128).
            let p = u128::from(x.frac) * u128::from(y.frac);
            let (scale_adj, frac, sticky) = normalize_sum(p);
            pack::<N, ES>(negative, x.scale + y.scale + scale_adj, frac, sticky)
        }
    }
}

/// Posit division.
#[inline]
#[must_use]
pub fn div_bits<const N: u32, const ES: u32>(a: u64, b: u64) -> u64 {
    match (decode::<N, ES>(a), decode::<N, ES>(b)) {
        (Decoded::NaR, _) | (_, Decoded::NaR) => nar_bits::<N>(),
        // x/0 is NaR (no infinities in posit); 0/x is 0.
        (_, Decoded::Zero) => nar_bits::<N>(),
        (Decoded::Zero, Decoded::Finite(_)) => 0,
        (Decoded::Finite(x), Decoded::Finite(y)) => {
            let negative = x.negative != y.negative;
            // Compute fa/fb in (1/2, 2) with 64 quotient bits + remainder.
            let (num_shift, scale_adj) = if x.frac >= y.frac {
                (63u32, 0i64)
            } else {
                (64, -1)
            };
            let num = u128::from(x.frac) << num_shift;
            let q = num / u128::from(y.frac);
            let rem = num % u128::from(y.frac);
            debug_assert!(q >> 63 == 1, "quotient normalized to Q1.63");
            pack::<N, ES>(negative, x.scale - y.scale + scale_adj, q as u64, rem != 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAR8: u64 = 0x80;

    /// A posit(8,2) value times 2^27, exactly: every posit(8,2) value is
    /// an integer multiple of 2^-27 below 2^25, so products and scaled
    /// quotients of two values stay exact in `i128`. `None` for NaR.
    fn units(bits: u64) -> Option<i128> {
        match decode::<8, 2>(bits) {
            Decoded::Zero => Some(0),
            Decoded::NaR => None,
            Decoded::Finite(u) => {
                let shift = 36 - u.scale;
                assert!(
                    u.frac.trailing_zeros() >= shift as u32,
                    "{bits:#x} off grid"
                );
                let v = i128::from(u.frac >> shift);
                Some(if u.negative { -v } else { v })
            }
        }
    }

    fn all_p8() -> Vec<(u64, i128)> {
        (0..256u64)
            .filter(|&b| b != NAR8)
            .map(|b| (b, units(b).unwrap()))
            .collect()
    }

    /// Checks a posit(8,2) result `got` against the exact real result
    /// `num / den` (in 2^-27 units, `den > 0`). Zero iff the exact value
    /// is zero, never NaR, and the nearest posit by value unless pattern
    /// rounding picked the other neighbor of a value that sits between
    /// `got` and one of its pattern neighbors. All comparisons are exact
    /// integer cross-multiplications.
    fn assert_correctly_rounded(what: &str, got: u64, num: i128, den: i128, vals: &[(u64, i128)]) {
        assert!(den > 0);
        assert_ne!(got, NAR8, "{what} produced NaR");
        assert_eq!(got == 0, num == 0, "{what} = {got:#04x}, exact {num}/{den}");
        let dist = |v: i128| (v * den - num).abs();
        let best = vals.iter().map(|&(_, v)| dist(v)).min().unwrap();
        let gv = units(got).unwrap();
        if dist(gv) > best {
            // Pattern neighbors; stepping onto NaR is the open end.
            let lo = units(got.wrapping_sub(1) & 0xFF);
            let hi = units((got + 1) & 0xFF);
            let above_lo = lo.is_none_or(|lo| lo * den <= num);
            let below_hi = hi.is_none_or(|hi| num <= hi * den);
            assert!(
                above_lo && below_hi,
                "{what} = {got:#04x} ({gv}), exact {num}/{den}, best distance {best}"
            );
        }
    }

    #[test]
    fn exhaustive_add_posit8_matches_real_rounding() {
        let vals = all_p8();
        for &(ab, av) in &vals {
            for &(bb, bv) in &vals {
                let got = add_bits::<8, 2>(ab, bb);
                assert_correctly_rounded(&format!("add({ab:#x}, {bb:#x})"), got, av + bv, 1, &vals);
            }
        }
    }

    #[test]
    fn exhaustive_mul_posit8_matches_real_rounding() {
        let vals = all_p8();
        for &(ab, av) in &vals {
            for &(bb, bv) in &vals {
                let got = mul_bits::<8, 2>(ab, bb);
                // (av/2^27)(bv/2^27) = (av*bv / 2^27) units.
                assert_correctly_rounded(
                    &format!("mul({ab:#x}, {bb:#x})"),
                    got,
                    av * bv,
                    1 << 27,
                    &vals,
                );
            }
        }
    }

    #[test]
    fn exhaustive_div_posit8_matches_real_rounding() {
        let vals = all_p8();
        for &(ab, av) in &vals {
            for &(bb, bv) in &vals {
                let got = div_bits::<8, 2>(ab, bb);
                if bv == 0 {
                    assert_eq!(got, NAR8, "div({ab:#x}, 0)");
                    continue;
                }
                // (av/2^27)/(bv/2^27) = (av * 2^27 / bv) units; the
                // denominator's sign moves into the numerator.
                let num = av * (1 << 27) * bv.signum();
                assert_correctly_rounded(
                    &format!("div({ab:#x}, {bb:#x})"),
                    got,
                    num,
                    bv.abs(),
                    &vals,
                );
            }
        }
    }

    fn p8(units_wanted: i128) -> u64 {
        all_p8()
            .into_iter()
            .find(|&(_, v)| v == units_wanted)
            .map(|(b, _)| b)
            .expect("representable in posit(8,2)")
    }

    const ONE: i128 = 1 << 27;

    #[test]
    fn add_simple_values() {
        let (one, two, three) = (p8(ONE), p8(2 * ONE), p8(3 * ONE));
        assert_eq!(add_bits::<8, 2>(one, one), two);
        assert_eq!(add_bits::<8, 2>(one, two), three);
        assert_eq!(sub_bits::<8, 2>(three, two), one);
        assert_eq!(sub_bits::<8, 2>(one, one), 0);
    }

    #[test]
    fn mul_simple_values() {
        let (half, one, two, four) = (p8(ONE / 2), p8(ONE), p8(2 * ONE), p8(4 * ONE));
        assert_eq!(mul_bits::<8, 2>(two, two), four);
        assert_eq!(mul_bits::<8, 2>(two, half), one);
        assert_eq!(mul_bits::<8, 2>(0, two), 0);
        assert_eq!(div_bits::<8, 2>(four, two), two);
        assert_eq!(div_bits::<8, 2>(one, two), half);
    }

    #[test]
    fn div_by_zero_is_nar() {
        let (one, two) = (p8(ONE), p8(2 * ONE));
        assert_eq!(div_bits::<8, 2>(one, 0), NAR8);
        assert_eq!(div_bits::<8, 2>(0, 0), NAR8);
        assert_eq!(div_bits::<8, 2>(0, two), 0);
    }

    #[test]
    fn nar_propagates() {
        let one = p8(ONE);
        for op in [
            add_bits::<8, 2>,
            sub_bits::<8, 2>,
            mul_bits::<8, 2>,
            div_bits::<8, 2>,
        ] {
            assert_eq!(op(NAR8, one), NAR8);
            assert_eq!(op(one, NAR8), NAR8);
        }
        assert_eq!(neg_bits::<8>(NAR8), NAR8);
        assert_eq!(neg_bits::<8>(0), 0);
    }

    #[test]
    fn deep_product_chain_posit64() {
        // 0.5^k scales exactly: bits should decode back to scale -k while
        // in range.
        let half = pack::<64, 12>(false, -1, 1u64 << 63, false);
        let mut acc = pack::<64, 12>(false, 0, 1u64 << 63, false);
        for k in 1..=1000 {
            acc = mul_bits::<64, 12>(acc, half);
            if let Decoded::Finite(u) = decode::<64, 12>(acc) {
                assert_eq!(u.scale, -k, "iteration {k}");
                assert_eq!(u.frac, 1u64 << 63);
            } else {
                panic!("not finite at {k}");
            }
        }
    }
}
