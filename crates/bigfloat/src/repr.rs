//! The [`BigFloat`] representation and the shared normalize-and-round core.

use crate::limb;

/// Maximum supported precision, in bits.
pub const MAX_PREC: u32 = 16_384;

/// Minimum supported precision, in bits.
pub const MIN_PREC: u32 = 2;

/// Default working precision (matches the paper's 256-bit MPFR oracle).
pub const DEFAULT_PREC: u32 = 256;

/// Sign of a [`BigFloat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Sign {
    /// Non-negative.
    Pos,
    /// Negative.
    Neg,
}

impl Sign {
    /// Flips the sign.
    #[must_use]
    pub fn negate(self) -> Sign {
        match self {
            Sign::Pos => Sign::Neg,
            Sign::Neg => Sign::Pos,
        }
    }

    /// XOR of two signs: the sign of a product or quotient.
    #[must_use]
    pub fn xor(self, other: Sign) -> Sign {
        if self == other {
            Sign::Pos
        } else {
            Sign::Neg
        }
    }

    /// `+1.0` or `-1.0`.
    #[must_use]
    pub fn to_f64(self) -> f64 {
        match self {
            Sign::Pos => 1.0,
            Sign::Neg => -1.0,
        }
    }
}

/// Classification of a [`BigFloat`] value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Exact zero (unsigned; `BigFloat` has a single zero, like posit).
    Zero,
    /// Finite nonzero number.
    Normal,
    /// Signed infinity (produced by overflow of the exponent range or
    /// division by zero).
    Inf,
    /// Not a number.
    Nan,
}

/// An arbitrary-precision binary floating-point number.
///
/// `BigFloat` plays the role of the 256-bit MPFR oracle in the paper: a
/// reference number system with enough precision and range that every
/// 64-bit format under study can be evaluated against it.
///
/// A `Normal` value is `(-1)^sign * 1.f * 2^exp` where the significand
/// `1.f` is stored in `limbs` (little-endian, most-significant bit of the
/// top limb always set) and carries `prec` significant bits. The exponent
/// is an `i64`, so magnitudes like `2^-2_900_000` (VICAR likelihoods) are
/// representable with room to spare.
///
/// # Examples
///
/// ```
/// use compstat_bigfloat::{BigFloat, Context};
///
/// let ctx = Context::new(256);
/// let x = BigFloat::from_f64(0.3);
/// let y = ctx.mul(&x, &x);
/// assert!((y.to_f64() - 0.09).abs() < 1e-15);
/// ```
#[derive(Clone, Debug)]
pub struct BigFloat {
    sign: Sign,
    kind: Kind,
    /// Binary exponent: value magnitude lies in `[2^exp, 2^(exp+1))`.
    exp: i64,
    /// Significand limbs, little-endian, top bit of the last limb set.
    limbs: Vec<u64>,
    /// Precision (significant bits) this value was rounded to.
    prec: u32,
}

impl BigFloat {
    /// The single zero value.
    #[must_use]
    pub fn zero() -> BigFloat {
        BigFloat {
            sign: Sign::Pos,
            kind: Kind::Zero,
            exp: 0,
            limbs: Vec::new(),
            prec: DEFAULT_PREC,
        }
    }

    /// Positive or negative infinity.
    #[must_use]
    pub fn infinity(sign: Sign) -> BigFloat {
        BigFloat {
            sign,
            kind: Kind::Inf,
            exp: 0,
            limbs: Vec::new(),
            prec: DEFAULT_PREC,
        }
    }

    /// Not-a-number.
    #[must_use]
    pub fn nan() -> BigFloat {
        BigFloat {
            sign: Sign::Pos,
            kind: Kind::Nan,
            exp: 0,
            limbs: Vec::new(),
            prec: DEFAULT_PREC,
        }
    }

    /// One, at default precision.
    #[must_use]
    pub fn one() -> BigFloat {
        BigFloat::from_u64(1)
    }

    /// The sign. Zero and NaN report [`Sign::Pos`].
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The value classification.
    #[must_use]
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// True if the value is exactly zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.kind == Kind::Zero
    }

    /// True if the value is finite (zero or normal).
    #[must_use]
    pub fn is_finite(&self) -> bool {
        matches!(self.kind, Kind::Zero | Kind::Normal)
    }

    /// True if the value is NaN.
    #[must_use]
    pub fn is_nan(&self) -> bool {
        self.kind == Kind::Nan
    }

    /// Binary exponent: the magnitude lies in `[2^exp, 2^(exp+1))`.
    ///
    /// This is the quantity plotted on the x-axes of Figures 1, 3 and 9 of
    /// the paper.
    ///
    /// Returns `None` for zero, infinity and NaN.
    #[must_use]
    pub fn exponent(&self) -> Option<i64> {
        match self.kind {
            Kind::Normal => Some(self.exp),
            _ => None,
        }
    }

    /// The precision (in significant bits) this value carries.
    #[must_use]
    pub fn precision(&self) -> u32 {
        self.prec
    }

    /// Read-only view of the significand limbs (little-endian).
    ///
    /// Empty for zero/inf/NaN; otherwise the top bit of the last limb is
    /// set (the explicit leading `1.` of the significand).
    #[must_use]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Negation (exact).
    #[must_use]
    pub fn neg(&self) -> BigFloat {
        let mut r = self.clone();
        if !matches!(r.kind, Kind::Zero | Kind::Nan) {
            r.sign = r.sign.negate();
        }
        r
    }

    /// Absolute value (exact).
    #[must_use]
    pub fn abs(&self) -> BigFloat {
        let mut r = self.clone();
        if r.kind != Kind::Nan {
            r.sign = Sign::Pos;
        }
        r
    }

    /// Multiplies by `2^k` (exact; adjusts the exponent only).
    ///
    /// Saturates if the `i64` exponent would overflow, mirroring the
    /// rounding core (`from_raw_wide`): positive overflow becomes the
    /// infinity *of the operand's sign*, while negative overflow
    /// becomes the single **unsigned** zero — `(-x).mul_pow2(i64::MIN)`
    /// loses the sign, because this `BigFloat` has no negative zero.
    /// Specials (zero, infinities, NaN) pass through unchanged for any
    /// `k`. [`HdrFloat`](crate::HdrFloat)'s conversions rely on both
    /// saturation directions being exactly these values.
    #[must_use]
    pub fn mul_pow2(&self, k: i64) -> BigFloat {
        let mut r = self.clone();
        if r.kind == Kind::Normal {
            match r.exp.checked_add(k) {
                Some(e) => r.exp = e,
                None if k > 0 => return BigFloat::infinity(r.sign),
                None => return BigFloat::zero(),
            }
        }
        r
    }

    /// Builds a `BigFloat` from raw parts, normalizing and rounding to
    /// `prec` bits (round to nearest, ties to even).
    ///
    /// `limbs` is an arbitrary (possibly unnormalized) magnitude; `exp` is
    /// the weight of bit `top` where `top` is the index of the highest set
    /// bit — i.e. the raw value is `limbs * 2^(exp - top)`. `sticky_in`
    /// reports whether nonzero bits were already discarded below the
    /// represented ones.
    ///
    /// This is the single rounding point shared by all arithmetic.
    #[must_use]
    pub(crate) fn from_raw(
        sign: Sign,
        exp_of_top_bit: i64,
        limbs: Vec<u64>,
        sticky_in: bool,
        prec: u32,
    ) -> BigFloat {
        BigFloat::from_raw_wide(sign, exp_of_top_bit as i128, limbs, sticky_in, prec)
    }

    /// [`BigFloat::from_raw`] with a wide exponent: arithmetic computes
    /// the exponent of the top bit in `i128` (sums and differences of
    /// `i64` exponents plus bit-index adjustments cannot overflow it)
    /// and the final value saturates to infinity/zero if it leaves the
    /// `i64` range, mirroring [`BigFloat::mul_pow2`].
    #[must_use]
    pub(crate) fn from_raw_wide(
        sign: Sign,
        exp_of_top_bit: i128,
        mut limbs: Vec<u64>,
        sticky_in: bool,
        prec: u32,
    ) -> BigFloat {
        debug_assert!((MIN_PREC..=MAX_PREC).contains(&prec));
        let Some(top) = limb::highest_bit(&limbs) else {
            // All bits zero. If sticky is set the true value was a tiny
            // nonzero residue; rounding to nearest still yields zero.
            return BigFloat::zero();
        };
        // Bit index (from LSB) of the lowest *kept* bit.
        // We keep bits [top - prec + 1 ..= top].
        let keep_low = top as i64 - prec as i64 + 1;
        let mut exp = exp_of_top_bit;
        let mut sticky = sticky_in;
        let mut round_up = false;
        if keep_low > 0 {
            let keep_low = keep_low as u64;
            let round_bit = limb::get_bit(&limbs, keep_low - 1);
            sticky |= limb::any_bit_below(&limbs, keep_low - 1);
            let lsb = limb::get_bit(&limbs, keep_low);
            round_up = round_bit && (sticky || lsb);
            limb::clear_bits_below(&mut limbs, keep_low);
            if round_up {
                let carry = limb::add_bit(&mut limbs, keep_low);
                if carry {
                    // 0.111..1 rounded up to 1.000..0: magnitude became a
                    // power of two one position higher.
                    debug_assert!(limb::is_zero(&limbs));
                    let n = limbs.len();
                    limbs[n - 1] = 1 << 63;
                    exp += 1;
                    // Renormalize below with the fresh top bit.
                    return BigFloat::finish(sign, exp, limbs, prec);
                }
                // Rounding may have rippled into a new top bit
                // (e.g. 1.111 -> 10.000): recompute.
                let new_top = limb::highest_bit(&limbs).expect("nonzero after round up");
                exp += new_top as i128 - top as i128;
                return BigFloat::finish(sign, exp, limbs, prec);
            }
        }
        let _ = round_up;
        BigFloat::finish(sign, exp, limbs, prec)
    }

    /// Final normalization: left/right aligns so the top bit sits at the
    /// MSB of the top limb, trims to `ceil(prec/64)` limbs. Exponents
    /// outside the `i64` range saturate to infinity (overflow) or the
    /// single unsigned zero (underflow).
    fn finish(sign: Sign, exp: i128, mut limbs: Vec<u64>, prec: u32) -> BigFloat {
        let top = limb::highest_bit(&limbs).expect("finish on zero magnitude");
        let nlimbs = prec.div_ceil(limb::LIMB_BITS) as usize;
        let want_top = nlimbs as u64 * 64 - 1;
        match want_top.cmp(&top) {
            core::cmp::Ordering::Greater => {
                let shift = want_top - top;
                if limbs.len() < nlimbs {
                    limbs.resize(nlimbs, 0);
                }
                limb::shl_in_place(&mut limbs, shift as u32);
            }
            core::cmp::Ordering::Less => {
                let shift = top - want_top;
                // All bits below keep_low were already cleared by rounding,
                // so this shift discards only zeros.
                let sticky = limb::shr_in_place_sticky(&mut limbs, shift as u32);
                debug_assert!(!sticky, "normalization discarded set bits");
            }
            core::cmp::Ordering::Equal => {}
        }
        limbs.truncate(nlimbs);
        debug_assert_eq!(limbs.len(), nlimbs);
        debug_assert!(limbs[nlimbs - 1] >> 63 == 1);
        let Ok(exp) = i64::try_from(exp) else {
            return if exp > 0 {
                BigFloat::special(Kind::Inf, sign, prec)
            } else {
                BigFloat::special(Kind::Zero, Sign::Pos, prec)
            };
        };
        BigFloat {
            sign,
            kind: Kind::Normal,
            exp,
            limbs,
            prec,
        }
    }

    /// Re-rounds this value to a (typically lower) precision.
    #[must_use]
    pub fn round_to(&self, prec: u32) -> BigFloat {
        assert!(
            (MIN_PREC..=MAX_PREC).contains(&prec),
            "precision out of range"
        );
        match self.kind {
            Kind::Normal => {
                BigFloat::from_raw(self.sign, self.exp, self.limbs.clone(), false, prec)
            }
            _ => {
                let mut r = self.clone();
                r.prec = prec;
                r
            }
        }
    }

    /// Constructs from an unsigned integer (exact; precision grows to fit
    /// if the default does not).
    #[must_use]
    pub fn from_u64(v: u64) -> BigFloat {
        if v == 0 {
            return BigFloat::zero();
        }
        let top = 63 - v.leading_zeros() as i64;
        BigFloat::from_raw(Sign::Pos, top, vec![v], false, DEFAULT_PREC)
    }

    /// Constructs from a signed integer (exact).
    #[must_use]
    pub fn from_i64(v: i64) -> BigFloat {
        if v >= 0 {
            BigFloat::from_u64(v as u64)
        } else {
            BigFloat::from_u64(v.unsigned_abs()).neg()
        }
    }

    /// `2^k` exactly.
    #[must_use]
    pub fn pow2(k: i64) -> BigFloat {
        let mut one = BigFloat::from_u64(1);
        one.exp = k;
        one
    }

    /// Internal accessor used by sibling modules.
    pub(crate) fn parts(&self) -> (Sign, Kind, i64, &[u64], u32) {
        (self.sign, self.kind, self.exp, &self.limbs, self.prec)
    }

    /// Internal constructor for special values carrying a precision tag.
    pub(crate) fn special(kind: Kind, sign: Sign, prec: u32) -> BigFloat {
        BigFloat {
            sign,
            kind,
            exp: 0,
            limbs: Vec::new(),
            prec,
        }
    }

    /// Exact reconstruction from already-validated parts — the
    /// deserialization path ([`crate::serial`]). The caller must have
    /// checked the invariants (`prec` in range; for `Normal`:
    /// `ceil(prec/64)` limbs, top bit of the last limb set, bits below
    /// the precision cleared); no normalization or rounding happens
    /// here, so a round-trip is bit-exact.
    pub(crate) fn from_parts_exact(
        sign: Sign,
        kind: Kind,
        exp: i64,
        limbs: Vec<u64>,
        prec: u32,
    ) -> BigFloat {
        BigFloat {
            sign,
            kind,
            exp,
            limbs,
            prec,
        }
    }
}

impl Default for BigFloat {
    fn default() -> Self {
        BigFloat::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_specials_classify() {
        assert!(BigFloat::zero().is_zero());
        assert!(BigFloat::zero().is_finite());
        assert!(BigFloat::nan().is_nan());
        assert!(!BigFloat::infinity(Sign::Neg).is_finite());
        assert_eq!(BigFloat::zero().exponent(), None);
    }

    #[test]
    fn from_u64_normalizes() {
        let x = BigFloat::from_u64(1);
        assert_eq!(x.exponent(), Some(0));
        let x = BigFloat::from_u64(6);
        assert_eq!(x.exponent(), Some(2)); // 6 = 1.5 * 2^2
        assert_eq!(x.limbs().last().copied(), Some(0b11u64 << 62));
    }

    #[test]
    fn pow2_is_exact() {
        let x = BigFloat::pow2(-2_900_000);
        assert_eq!(x.exponent(), Some(-2_900_000));
        let y = BigFloat::pow2(40);
        assert_eq!(y.to_f64(), (1u64 << 40) as f64);
    }

    #[test]
    fn rounding_ties_to_even() {
        // Value 0b1011 (11) rounded to 3 bits: keep 101|1, round bit 1,
        // sticky 0, lsb of kept = 1 -> round up to 0b110 << 1 = 12.
        let x = BigFloat::from_raw(Sign::Pos, 3, vec![0b1011], false, 3);
        assert_eq!(x.to_f64(), 12.0);
        // Value 0b1001 (9) to 3 bits: keep 100|1 round 1 sticky 0 lsb 0 ->
        // stay 0b100 << 1 = 8 (tie to even).
        let x = BigFloat::from_raw(Sign::Pos, 3, vec![0b1001], false, 3);
        assert_eq!(x.to_f64(), 8.0);
        // 0b10011 (19) to 3 bits: round bit 1, sticky 1 -> up -> 20.
        let x = BigFloat::from_raw(Sign::Pos, 4, vec![0b10011], false, 3);
        assert_eq!(x.to_f64(), 20.0);
    }

    #[test]
    fn rounding_carry_into_new_power_of_two() {
        // 0b1111 (15) rounded to 3 bits -> 16.
        let x = BigFloat::from_raw(Sign::Pos, 3, vec![0b1111], false, 3);
        assert_eq!(x.to_f64(), 16.0);
        assert_eq!(x.exponent(), Some(4));
    }

    #[test]
    fn round_to_lower_precision() {
        let x = BigFloat::from_f64(1.0 + f64::EPSILON);
        let y = x.round_to(10);
        assert_eq!(y.to_f64(), 1.0);
        assert_eq!(y.precision(), 10);
    }

    #[test]
    fn neg_abs() {
        let x = BigFloat::from_i64(-5);
        assert_eq!(x.sign(), Sign::Neg);
        assert_eq!(x.abs().to_f64(), 5.0);
        assert_eq!(x.neg().to_f64(), 5.0);
        assert_eq!(BigFloat::zero().neg().sign(), Sign::Pos);
    }

    #[test]
    fn mul_pow2_shifts_exponent() {
        let x = BigFloat::from_u64(3).mul_pow2(-10);
        assert_eq!(x.to_f64(), 3.0 / 1024.0);
    }

    #[test]
    fn mul_pow2_saturation_signs() {
        // Positive overflow keeps the operand's sign...
        let up = BigFloat::one().neg().mul_pow2(i64::MAX).mul_pow2(1);
        assert_eq!(up.kind(), Kind::Inf);
        assert_eq!(up.sign(), Sign::Neg);
        // ...negative overflow collapses to the single unsigned zero
        // (documented: there is no negative zero to preserve the sign).
        let down = BigFloat::one().neg().mul_pow2(i64::MIN).mul_pow2(-1);
        assert!(down.is_zero());
        assert_eq!(down.sign(), Sign::Pos);
        // Specials pass through unchanged at any shift.
        assert!(BigFloat::nan().mul_pow2(i64::MAX).is_nan());
        assert!(BigFloat::zero().mul_pow2(i64::MIN).is_zero());
        let inf = BigFloat::infinity(Sign::Neg).mul_pow2(i64::MIN);
        assert_eq!(inf.kind(), Kind::Inf);
        assert_eq!(inf.sign(), Sign::Neg);
    }
}
