//! Decoding posit bit patterns into sign/scale/significand form.

/// A decoded finite, nonzero posit value.
///
/// The represented magnitude is `1.f * 2^scale` where the significand
/// `1.f` is `frac` read as a Q1.63 fixed-point number (hidden bit at bit
/// 63, always set). `scale = k * 2^ES + e` combines the regime and
/// exponent fields, exactly Equation (4) of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unpacked {
    /// True for negative values (the magnitude fields describe `|x|`).
    pub negative: bool,
    /// Combined binary scale `k * 2^ES + e`.
    pub scale: i64,
    /// Significand in Q1.63: bit 63 is the hidden `1`.
    pub frac: u64,
}

/// Decoded posit: one of the two special encodings or a finite value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decoded {
    /// The all-zeros pattern.
    Zero,
    /// Not-a-Real: `1` followed by all zeros.
    NaR,
    /// Any other pattern.
    Finite(Unpacked),
}

/// Decodes a `posit(N, ES)` pattern.
///
/// `bits` must carry the pattern in its low `N` bits (upper bits zero).
#[inline]
#[must_use]
pub fn decode<const N: u32, const ES: u32>(bits: u64) -> Decoded {
    debug_assert!((3..=64).contains(&N));
    debug_assert!(ES <= 30);
    debug_assert!(N == 64 || bits >> N == 0, "stray bits above the pattern");
    if bits == 0 {
        return Decoded::Zero;
    }
    let sign_mask = 1u64 << (N - 1);
    if bits == sign_mask {
        return Decoded::NaR;
    }
    let negative = bits & sign_mask != 0;
    // Two's-complement negation within N bits yields the magnitude pattern.
    let mag = if negative {
        bits.wrapping_neg() & mask::<N>()
    } else {
        bits
    };
    // Left-align the N-1 body bits at bit 63; vacated low bits read as the
    // zero padding the posit standard prescribes for truncated fields.
    let body = mag << (65 - N);
    let ones = body >> 63 == 1;
    // Flipping a leading-ones body turns its run into leading zeros.
    let run = if ones { !body } else { body }.leading_zeros();
    // A run of ones can extend into the zero padding only for maxpos,
    // where the flipped padding reads as more ones; cap to the body width.
    let run = run.min(N - 1);
    let k = if ones {
        i64::from(run) - 1
    } else {
        -i64::from(run)
    };
    // Regime field: run + terminating bit, capped at the body width
    // (<= 63, so the shift below is in range).
    let rem = body << (run + 1).min(N - 1);
    let e = if ES == 0 { 0 } else { rem >> (64 - ES) };
    // Q1.63: hidden bit at 63, fraction below.
    let frac = (1u64 << 63) | ((rem << ES) >> 1);
    // `e < 2^ES <= 2^30`, so the conversion is exact.
    let scale = (k << ES) + e as i64;
    Decoded::Finite(Unpacked {
        negative,
        scale,
        frac,
    })
}

/// Mask of the low `N` bits (`N` in 1..=64).
#[inline]
#[must_use]
pub const fn mask<const N: u32>() -> u64 {
    if N == 64 {
        u64::MAX
    } else {
        (1u64 << N) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::unusual_byte_groupings)] // groups are posit fields: sign_regime_exp_frac
    fn paper_worked_example_posit_8_2() {
        // Section III: 0_0001_10_1 -> 1.5 * 2^-10.
        let bits = 0b0_0001_10_1u64;
        match decode::<8, 2>(bits) {
            Decoded::Finite(u) => {
                assert!(!u.negative);
                assert_eq!(u.scale, -10);
                assert_eq!(u.frac, (1u64 << 63) | (1u64 << 62)); // 1.1 binary
            }
            other => panic!("expected finite, got {other:?}"),
        }
    }

    #[test]
    fn specials() {
        assert_eq!(decode::<8, 2>(0), Decoded::Zero);
        assert_eq!(decode::<8, 2>(0x80), Decoded::NaR);
        assert_eq!(decode::<64, 9>(0), Decoded::Zero);
        assert_eq!(decode::<64, 9>(1u64 << 63), Decoded::NaR);
    }

    fn assert_one<const N: u32, const ES: u32>() {
        // 0b01000...0 is always 1.0.
        match decode::<N, ES>(1u64 << (N - 2)) {
            Decoded::Finite(u) => {
                assert!(!u.negative);
                assert_eq!(u.scale, 0, "posit({N},{ES})");
                assert_eq!(u.frac, 1u64 << 63);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn one_decodes_to_scale_zero() {
        assert_one::<8, 2>();
        assert_one::<16, 1>();
        assert_one::<32, 2>();
        assert_one::<64, 9>();
        assert_one::<64, 18>();
    }

    fn minpos_scale<const ES: u32>() -> i64 {
        match decode::<64, ES>(1) {
            Decoded::Finite(u) => {
                assert_eq!(u.frac, 1u64 << 63);
                u.scale
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn minpos_scale_matches_table_one() {
        // minpos pattern: 0...01. Table I: smallest positive of
        // posit(64,es) is 2^(-62 * 2^es).
        assert_eq!(minpos_scale::<6>(), -3_968);
        assert_eq!(minpos_scale::<9>(), -31_744);
        assert_eq!(minpos_scale::<12>(), -253_952);
        assert_eq!(minpos_scale::<15>(), -2_031_616);
        assert_eq!(minpos_scale::<18>(), -16_252_928);
        assert_eq!(minpos_scale::<21>(), -130_023_424);
    }

    #[test]
    fn maxpos_scale() {
        // maxpos pattern: 0111...1 -> k = n-2, e = 0, frac = 1.0.
        match decode::<8, 2>(0x7F) {
            Decoded::Finite(u) => assert_eq!(u.scale, 6 * 4),
            other => panic!("{other:?}"),
        }
        match decode::<64, 9>((1u64 << 63) - 1) {
            Decoded::Finite(u) => assert_eq!(u.scale, 62 * 512),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_patterns_decode_via_twos_complement() {
        // -1.0 is 0b11000...0 for any config.
        let bits = 0b11u64 << 6; // 8-bit: 0xC0
        match decode::<8, 2>(bits) {
            Decoded::Finite(u) => {
                assert!(u.negative);
                assert_eq!(u.scale, 0);
                assert_eq!(u.frac, 1u64 << 63);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[allow(clippy::unusual_byte_groupings)] // groups are posit fields: sign_regime_exp
    fn truncated_exponent_reads_as_high_bits() {
        // posit(8,2) pattern 0_000001_1: regime 000001 (k=-5, 7 bits with
        // terminator... run=5, regime_len=6), remaining 1 bit = exponent
        // MSB -> e = 0b10 = 2. scale = -5*4 + 2 = -18.
        let bits = 0b0_000001_1u64;
        match decode::<8, 2>(bits) {
            Decoded::Finite(u) => assert_eq!(u.scale, -18),
            other => panic!("{other:?}"),
        }
    }
}
