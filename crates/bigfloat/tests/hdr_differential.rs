//! Differential property tests for [`HdrFloat`].
//!
//! Contract under test: `HdrFloat` (hardware-`f64` mantissa, `i64`
//! exponent) produces **bit-identical** results to `Context::new(53)`
//! for `add`/`sub`/`mul`/`div` and left-fold sums on the same operands,
//! across the *entire* `i64` exponent range — including exponents
//! millions of binades outside binary64's reach — and converts to and
//! from [`BigFloat`] without moving a bit. This is what lets callers
//! select `HdrFloat` for any precision up to 53 bits.
//!
//! Inputs are decoded from a single `u64` seed per operand (the
//! vendored proptest has no tuple/`oneof` combinators): the seed fans
//! out through splitmix64 into a value class (normal / zero / ±inf /
//! NaN), a 53-bit mantissa, and an exponent drawn from binary64's
//! range, the HDR band the paper's likelihoods live in, or the `i64`
//! saturation edges.

use compstat_bigfloat::{bit_identical, BigFloat, Context, HdrFloat, Sign};
use proptest::prelude::*;

/// splitmix64: fans one seed into independent-looking streams.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A signed 53-bit mantissa in `±[1, 2)` from a seed.
fn decode_mantissa(s: u64) -> f64 {
    let m = 1.0 + (s >> 12) as f64 * (f64::EPSILON / 2.0);
    if s & 1 == 1 {
        -m
    } else {
        m
    }
}

/// An exponent anywhere in `i64`, weighted toward the interesting
/// regions: binary64's range, the HDR band, and the saturation edges.
fn decode_exponent(s: u64) -> i64 {
    let r = mix(s);
    match s % 10 {
        0..=3 => -600 + (r % 1200) as i64,
        4 | 5 => 1000 + (r % 3_999_000) as i64,
        6 | 7 => -1000 - (r % 3_999_000) as i64,
        8 => i64::MIN + (r % 2000) as i64,
        _ => i64::MAX - (r % 2000) as i64,
    }
}

/// A finite nonzero 53-bit `BigFloat` anywhere in the exponent range.
fn decode_normal(s: u64) -> BigFloat {
    BigFloat::from_f64(decode_mantissa(mix(s))).mul_pow2(decode_exponent(mix(mix(s))))
}

/// Normals plus the specials the arithmetic tables branch on.
fn decode_any(s: u64) -> BigFloat {
    match s % 16 {
        0 => BigFloat::zero(),
        1 => BigFloat::infinity(Sign::Pos),
        2 => BigFloat::infinity(Sign::Neg),
        3 => BigFloat::nan(),
        _ => decode_normal(s),
    }
}

fn bf_any() -> impl Strategy<Value = BigFloat> {
    proptest::num::u64::ANY.prop_map(decode_any)
}

/// Compares with 53-bit precision tags aligned (specials produced by
/// different constructors carry different tags; `round_to` canonicalizes
/// the tag without touching value bits).
fn same_bits(got: &BigFloat, want: &BigFloat) -> bool {
    bit_identical(&got.round_to(53), &want.round_to(53))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hdr_ops_match_context53_bit_for_bit(a in bf_any(), b in bf_any()) {
        let c = Context::new(53);
        let (ha, hb) = (HdrFloat::from_bigfloat(&a), HdrFloat::from_bigfloat(&b));
        for (name, got, want) in [
            ("add", ha + hb, c.add(&a, &b)),
            ("sub", ha - hb, c.sub(&a, &b)),
            ("mul", ha * hb, c.mul(&a, &b)),
            ("div", ha / hb, c.div(&a, &b)),
        ] {
            prop_assert!(
                same_bits(&got.to_bigfloat(), &want),
                "{}({:?}, {:?}) = {:?}, want {:?}", name, a, b, got, want
            );
        }
    }

    #[test]
    fn hdr_sum_matches_context53(xs in proptest::collection::vec(bf_any(), 0..12)) {
        let c = Context::new(53);
        let got = xs
            .iter()
            .fold(HdrFloat::ZERO, |acc, x| acc + HdrFloat::from_bigfloat(x))
            .to_bigfloat();
        let want = c.sum(xs.iter());
        prop_assert!(same_bits(&got, &want), "sum({:?}) = {:?}, want {:?}", xs, got, want);
    }

    #[test]
    fn hdr_bigfloat_round_trips_exactly(x in bf_any()) {
        // HdrFloat -> BigFloat -> HdrFloat is the identity on 53-bit
        // values, wherever the exponent lies.
        let h = HdrFloat::from_bigfloat(&x);
        let back = HdrFloat::from_bigfloat(&h.to_bigfloat());
        if x.is_nan() {
            prop_assert!(back.is_nan());
        } else {
            prop_assert_eq!(back, h);
            prop_assert!(same_bits(&back.to_bigfloat(), &h.to_bigfloat()));
        }
    }

    #[test]
    fn hdr_from_f64_is_exact(x in proptest::num::f64::NORMAL | proptest::num::f64::SUBNORMAL) {
        let h = HdrFloat::from_f64(x);
        prop_assert_eq!(h.to_f64(), x);
        prop_assert!(bit_identical(&h.to_bigfloat(), &BigFloat::from_f64(x)));
    }
}
