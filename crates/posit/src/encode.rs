//! Encoding (packing) real values into posit bit patterns, with the
//! standard's round-to-nearest-even on the bit pattern and saturation at
//! minpos/maxpos (a posit operation never rounds a nonzero value to zero
//! or to NaR).

use crate::decode::mask;

/// Packs a finite nonzero magnitude `1.f * 2^scale` (with `frac` in Q1.63,
/// hidden bit set) into a `posit(N, ES)` pattern.
///
/// `sticky` reports nonzero value bits below `frac`'s LSB (from a wider
/// intermediate result). `negative` selects the two's-complement encoding.
#[inline]
#[must_use]
pub fn pack<const N: u32, const ES: u32>(
    negative: bool,
    scale: i64,
    frac: u64,
    sticky: bool,
) -> u64 {
    debug_assert!((3..=64).contains(&N));
    debug_assert!(ES <= 30);
    debug_assert!(frac >> 63 == 1, "hidden bit must be set");

    let maxpos_scale = (i64::from(N) - 2) << ES;
    // Saturation: values at or beyond maxpos's binade clamp to maxpos;
    // values strictly below minpos's binade clamp to minpos (never zero).
    if scale >= maxpos_scale {
        return finish::<N>(mask::<N>() >> 1, negative);
    }
    if scale < -maxpos_scale {
        return finish::<N>(1, negative);
    }

    // scale = k * 2^ES + e with 0 <= e < 2^ES: an arithmetic shift and
    // a mask, since 2^ES is a power of two.
    let k = scale >> ES;
    let e = (scale & ((1i64 << ES) - 1)).unsigned_abs();
    debug_assert!((-(i64::from(N) - 2)..(i64::from(N) - 2)).contains(&k));

    // Regime: k >= 0 -> (k+1) ones then 0; k < 0 -> (-k) zeros then 1.
    // Its length is 2..=N-1, so at least one bit of the field below it
    // lands in the N-bit window (N-1 body bits plus the round bit).
    let (regime_len, regime) = if k >= 0 {
        let len = k as u32 + 2;
        (len, (1u64 << len) - 2)
    } else {
        ((-k) as u32 + 1, 1)
    };
    debug_assert!(regime_len < N);

    // Exponent ++ fraction, left-aligned in 64 bits; fraction bits pushed
    // out by the exponent field join the sticky bit.
    let fbits = frac << 1;
    let (tail, lost) = if ES == 0 {
        (fbits, false)
    } else {
        (
            (e << (64 - ES)) | (fbits >> ES),
            fbits & ((1u64 << ES) - 1) != 0,
        )
    };

    // The first N bits of regime ++ tail; both shifts are in 1..=63.
    let in_window = N - regime_len;
    let window = (regime << in_window) | (tail >> (64 - in_window));
    let sticky = sticky || lost || tail << in_window != 0;

    // Round the infinite pattern at N-1 body bits (RNE on the pattern,
    // as softposit/MArTo do).
    let mut kept = window >> 1;
    if window & 1 == 1 && (sticky || kept & 1 == 1) {
        kept += 1;
        // kept can never ripple into the sign bit: reaching the all-ones
        // body requires scale >= maxpos_scale, handled above.
        debug_assert!(kept >> (N - 1) == 0, "rounded into NaR");
    }
    debug_assert!(kept != 0, "rounded to zero");
    finish::<N>(kept, negative)
}

/// Applies the sign (two's complement within `N` bits).
#[inline]
fn finish<const N: u32>(body: u64, negative: bool) -> u64 {
    if negative {
        body.wrapping_neg() & mask::<N>()
    } else {
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, Decoded, Unpacked};

    fn roundtrip<const N: u32, const ES: u32>(bits: u64) -> u64 {
        match decode::<N, ES>(bits) {
            Decoded::Finite(Unpacked {
                negative,
                scale,
                frac,
            }) => pack::<N, ES>(negative, scale, frac, false),
            _ => panic!("not finite"),
        }
    }

    #[test]
    fn decode_encode_identity_posit8() {
        for bits in 1u64..256 {
            if bits == 0x80 {
                continue;
            }
            assert_eq!(roundtrip::<8, 2>(bits), bits, "pattern {bits:#010b}");
        }
    }

    #[test]
    fn decode_encode_identity_sampled_posit64() {
        // Every exact decode must re-encode to the same pattern.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bits = x;
            if bits == 0 || bits == 1u64 << 63 {
                continue;
            }
            assert_eq!(roundtrip::<64, 12>(bits), bits, "pattern {bits:#x}");
        }
    }

    #[test]
    #[allow(clippy::unusual_byte_groupings)] // groups are posit fields: sign_regime_exp_frac
    fn paper_example_packs_back() {
        // 1.5 * 2^-10 in posit(8,2) is 0_0001_10_1.
        let frac = (1u64 << 63) | (1u64 << 62);
        assert_eq!(pack::<8, 2>(false, -10, frac, false), 0b0_0001_10_1);
    }

    #[test]
    fn saturation_clamps_not_wraps() {
        let one_frac = 1u64 << 63;
        // Far beyond maxpos scale for posit(8,2) (24).
        assert_eq!(pack::<8, 2>(false, 100, one_frac, false), 0x7F);
        assert_eq!(pack::<8, 2>(true, 100, one_frac, false), 0x81);
        // Far below minpos scale (-24): clamps to minpos, never zero.
        assert_eq!(pack::<8, 2>(false, -100, one_frac, false), 0x01);
        assert_eq!(pack::<8, 2>(true, -100, one_frac, false), 0xFF);
    }

    #[test]
    fn rounding_down_drops_sub_ulp_bits() {
        // 1.0 + 2^-62 in posit(8,2): fraction bits way below the 3
        // available -> rounds to 1.0.
        let frac = (1u64 << 63) | 1;
        assert_eq!(pack::<8, 2>(false, 0, frac, false), 0b0100_0000);
        // sticky alone must not round up either
        assert_eq!(pack::<8, 2>(false, 0, 1u64 << 63, true), 0b0100_0000);
    }

    #[test]
    fn rounding_ties_to_even_pattern() {
        // posit(8,2) around 1.0: body 0b100_00_ff with 2 frac bits... For
        // scale 0: regime "10" (2 bits), e (2 bits) = 00, frac 3 bits.
        // 1 + 2^-4 is exactly the midpoint between 1.0 (frac 000) and
        // 1.0625 (frac 001): round bit 1, sticky 0, lsb 0 -> stays 1.0.
        let frac = (1u64 << 63) | (1u64 << 59);
        assert_eq!(pack::<8, 2>(false, 0, frac, false), 0b0100_0000);
        // 1 + 2^-4 + 2^-40: sticky breaks the tie upward.
        let frac = (1u64 << 63) | (1u64 << 59) | (1u64 << 23);
        assert_eq!(pack::<8, 2>(false, 0, frac, false), 0b0100_0001);
        // 3/16 past an odd lsb: 1 + 2^-3 + 2^-4 -> midpoint above odd
        // pattern 001 -> rounds up to even 010.
        let frac = (1u64 << 63) | (1u64 << 60) | (1u64 << 59);
        assert_eq!(pack::<8, 2>(false, 0, frac, false), 0b0100_0010);
    }

    #[test]
    fn values_between_minpos_and_next_round_by_pattern() {
        // posit(8,2): minpos = 2^-24 (pattern 0x01); next is pattern 0x02
        // = 2^-22 (regime 0000011? no: 0x02 body 0000010: run 5, k=-5,
        // terminator, remaining 0 -> e=0 (padded) -> 2^-20)... the
        // pattern-space neighbor decides rounding.
        let next = decode::<8, 2>(0x02);
        let Decoded::Finite(u) = next else { panic!() };
        // Halfway *in pattern space* between 0x01 and 0x02 is determined
        // by the first dropped bit; 2^-21 (scale -21) has k=-6, e=3 ->
        // regime 0000001 (7 bits) fills the body, e dropped: round bit =
        // e MSB = 1, sticky = 1 (e LSB) -> rounds up to 0x02.
        let got = pack::<8, 2>(false, -21, 1u64 << 63, false);
        assert_eq!(got, 0x02, "2^-21 rounds to {}", u.scale);
        // 2^-23: k=-6, e=1: round bit = 0 -> stays minpos.
        let got = pack::<8, 2>(false, -23, 1u64 << 63, false);
        assert_eq!(got, 0x01);
    }
}
