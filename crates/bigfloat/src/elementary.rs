//! Elementary functions: natural logarithm and exponential.
//!
//! These are the two transcendental operations statistical log-space
//! computation rests on: the Log format is measured by converting each
//! operand into log space with [`Context::ln`] and each result back with
//! [`Context::exp`]. Results are faithfully rounded (within 1 ulp of the
//! exact value at the context precision `p`) by one rounding at the
//! end, through the same rounding point as `+ - * /`.
//!
//! Both functions evaluate a short series on a *fixed-point* scratch
//! buffer: `n = ceil((p + 128) / 64)` limbs of pure fraction, i.e.
//! `F = 64·n >= p + 128` bits, built from the [`crate::limb`] kernels
//! (one schoolbook multiply per term, keeping the high half, and a
//! one-limb division). The `BigFloat` operations around them run at
//! `p + 64` bits (`exp`'s reduction at `p + 32` plus the bits of the
//! argument's integer part, which the reduction cancels).
//!
//! * **exp.** `x = n·ln2 + r` with `n = round(x / ln2)` and
//!   `|r| <= ln2/2`, so `exp(x) = 2^n · (1 + expm1(r))`. The remainder is
//!   halved up to `K = 16` times, until `|r / 2^k| < 2^-17`; `expm1` of
//!   the halved value is a Taylor series of about `F / 20` terms, and
//!   `k` steps of `e <- e·(e + 2)` (`expm1(2y) = expm1(y)·(expm1(y) + 2)`)
//!   undo the halving. Each step about doubles the fixed-point error, so the
//!   `K` halvings cost about `K` of the 128 guard bits; the rest cover
//!   the series' truncations and the reduction.
//! * **ln.** `x = 2^e·m` with `m` in `[1, 2)`. `y0 = ln m` is taken in
//!   binary64, and `z = m·exp(-y0)` (the `exp` kernel above) lies within
//!   about `2^-50` of 1. Then `ln m = y0 + 2·atanh((z - 1) / (z + 1))`,
//!   where the `atanh` series needs about `F / 100` terms, and
//!   `ln x = ln m + e·ln2`.
//! * **ln near 1.** For `|x - 1| < 2^-8` the result can be far smaller
//!   than `ln 2`; just below 1 the split above would form it as
//!   `ln(2x) - ln 2` and cancel every bit. There the `atanh` series runs
//!   on `x` itself, with `(x - 1)/(x + 1)` formed in floating point, so
//!   the result keeps its precision relative to its own magnitude,
//!   however close `x` is to 1.
//!
//! The retired evaluations (a plain Taylor series for `exp` and an
//! `atanh` series with `t` up to 1/3 for `ln`, each term a `Context`
//! operation) stay callable as `testing::{exp_series, ln_series}`, the
//! differential reference for these kernels.

use crate::arith::Context;
use crate::limb;
use crate::repr::{BigFloat, Kind, Sign};
use std::sync::Mutex;

static LN2_CACHE: Mutex<Option<BigFloat>> = Mutex::new(None);

/// Guard bits the fixed-point buffers carry above the target precision.
const FIXED_GUARD_BITS: u32 = 128;

/// Halvings `K` applied to the reduced `exp` argument before its series.
const EXP_HALVINGS: i64 = 16;

/// `ln` runs its series on `x` directly when `|x - 1| < 2^NEAR_ONE_EXP`.
const NEAR_ONE_EXP: i64 = -8;

impl BigFloat {
    /// Divides by a small unsigned integer, correctly rounded to `prec`
    /// bits.
    ///
    /// Much cheaper than a full [`Context::div`]; used heavily by series
    /// evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    #[must_use]
    pub fn div_u64(&self, d: u64, prec: u32) -> BigFloat {
        assert!(d != 0, "division by zero");
        let (sign, kind, exp, limbs, _) = self.parts();
        match kind {
            Kind::Zero => return BigFloat::zero(),
            Kind::Inf => return BigFloat::infinity(sign),
            Kind::Nan => return BigFloat::nan(),
            Kind::Normal => {}
        }
        // Extend with low zero limbs so the quotient keeps `prec` bits
        // plus a round bit even after losing up to 63 bits to the
        // divisor; the remainder supplies the sticky bit.
        let pad = (prec.div_ceil(limb::LIMB_BITS) as usize + 2).saturating_sub(limbs.len());
        let mut ext = vec![0u64; pad.max(2)];
        ext.extend_from_slice(limbs);
        let top_before = ext.len() as i64 * 64 - 1;
        let rem = limb::div_small_in_place(&mut ext, d);
        let h = limb::highest_bit(&ext).expect("quotient of nonzero by small is nonzero");
        let exp_of_top = exp - (top_before - h as i64);
        BigFloat::from_raw(sign, exp_of_top, ext, rem != 0, prec)
    }
}

/// Computes `ln 2` to at least `prec` bits via `2·atanh(1/3)`.
fn compute_ln2(prec: u32) -> BigFloat {
    let wp = prec + 32;
    // atanh(1/3) = sum_{k>=0} (1/3)^(2k+1) / (2k+1); each term gains
    // log2(9) ~ 3.17 bits.
    let mut u = BigFloat::one().div_u64(3, wp); // (1/3)^(2k+1)
    let mut sum = u.clone();
    let mut k: u64 = 1;
    loop {
        u = u.div_u64(9, wp);
        let term = u.div_u64(2 * k + 1, wp);
        let Some(te) = term.exponent() else { break };
        sum = Context::new(wp).add(&sum, &term);
        if te < -(wp as i64) - 2 {
            break;
        }
        k += 1;
    }
    sum.mul_pow2(1).round_to(prec)
}

/// Returns `ln 2` rounded to `prec` bits (cached across calls).
#[must_use]
pub fn ln2(prec: u32) -> BigFloat {
    // The cached value is always a fully-constructed BigFloat, so a
    // panic elsewhere while the lock was held (e.g. an out-of-range
    // `prec` asserting inside `round_to` below) cannot leave it torn:
    // recover from poisoning instead of propagating it to every later
    // caller.
    {
        let guard = LN2_CACHE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(v) = &*guard {
            if v.precision() >= prec {
                return v.round_to(prec);
            }
        }
    }
    // Compute with headroom so repeated small bumps don't recompute.
    let fresh = compute_ln2(prec.max(320) + 64);
    let out = fresh.round_to(prec);
    *LN2_CACHE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(fresh);
    out
}

/// Number of limbs `n` of the fixed-point fractions used for a result at
/// `prec` bits: `F = 64·n >= prec + FIXED_GUARD_BITS` fraction bits.
fn fixed_limbs(prec: u32) -> usize {
    (prec + FIXED_GUARD_BITS).div_ceil(limb::LIMB_BITS) as usize
}

/// Bits `[lo, lo + 64)` of the magnitude `src` (zero outside it).
fn bits_at(src: &[u64], lo: i64) -> u64 {
    let word = |i: i64| {
        usize::try_from(i)
            .ok()
            .and_then(|i| src.get(i))
            .copied()
            .unwrap_or(0)
    };
    let (q, r) = (lo.div_euclid(64), lo.rem_euclid(64));
    if r == 0 {
        word(q)
    } else {
        (word(q) >> r) | (word(q + 1) << (64 - r))
    }
}

/// `|x|·2^shift` as an `n`-limb fixed-point fraction, truncated:
/// `floor(|x|·2^(shift + 64·n))`. The caller guarantees `|x|·2^shift < 1`.
fn to_fixed(x: &BigFloat, shift: i64, n: usize) -> Vec<u64> {
    let mut out = vec![0u64; n];
    let (_, _, exp, limbs, _) = x.parts();
    let Some(top) = limb::highest_bit(limbs) else {
        return out;
    };
    // Bit `i` of the result is bit `i - d` of the significand.
    let d = i128::from(exp) + i128::from(shift) + 64 * n as i128 - i128::from(top);
    if d <= -(64 * limbs.len() as i128) {
        return out; // every significand bit falls below 2^-F
    }
    let d = i64::try_from(d).expect("|x|·2^shift < 1 bounds the shift above");
    for (i, w) in out.iter_mut().enumerate() {
        *w = bits_at(limbs, 64 * i as i64 - d);
    }
    out
}

/// `2^scale·(1 ± a)` for an `n`-limb fraction `a < 1`, rounded once to
/// `prec` bits. The fixed-point value is a truncated approximation of an
/// irrational quantity, so the rounding sees a sticky bit.
fn one_plus_fixed(a: &[u64], neg: bool, scale: i64, prec: u32) -> BigFloat {
    let n = a.len();
    let mut one = vec![0u64; n + 1];
    one[n] = 1;
    let mut ext = a.to_vec();
    ext.push(0);
    let mut v = vec![0u64; n + 1];
    let overflow = if neg {
        limb::sub_same_len(&one, &ext, &mut v)
    } else {
        limb::add_same_len(&one, &ext, &mut v)
    };
    debug_assert!(!overflow, "1 ± a with a < 1 fits one integer limb");
    let top = limb::highest_bit(&v).expect("1 - a > 0 for a < 1");
    let exp_of_top = i128::from(scale) + i128::from(top) - 64 * n as i128;
    BigFloat::from_raw_wide(Sign::Pos, exp_of_top, v, true, prec)
}

/// High half of the product of two `n`-limb fractions: `a·b` truncated
/// to `n` limbs, written through the `2n`-limb scratch `wide`.
fn mul_hi<'w>(a: &[u64], b: &[u64], wide: &'w mut [u64]) -> &'w [u64] {
    limb::mul(a, b, wide);
    &wide[a.len()..]
}

/// `acc ± b` for `n`-limb fractions, through the scratch `tmp`.
fn add_fixed(acc: &mut Vec<u64>, b: &[u64], sub: bool, tmp: &mut Vec<u64>) {
    let overflow = if sub {
        limb::sub_same_len(acc, b, tmp)
    } else {
        limb::add_same_len(acc, b, tmp)
    };
    debug_assert!(!overflow, "fixed-point partial sums stay in [0, 1)");
    core::mem::swap(acc, tmp);
}

/// `|expm1(r)|` for `|r| < 1` as an `n`-limb fraction (`expm1(r)` has the
/// sign of `r`), with absolute error below `2^(EXP_HALVINGS + 8 - 64·n)`.
///
/// The series runs on `s = |r|/2^k < 2^-EXP_HALVINGS`; `k` doubling
/// steps `e <- 2e ± e^2` then rebuild `expm1(r)` from `expm1(±s)`.
fn expm1_fixed(r: &BigFloat, n: usize) -> Vec<u64> {
    let Some(er) = r.exponent() else {
        return vec![0; n];
    };
    let neg = r.sign() == Sign::Neg;
    // |r| < 2^(er+1), so s < 2^(er+1-k) <= 2^-EXP_HALVINGS.
    let k = (er + 1 + EXP_HALVINGS).max(0);
    let s = to_fixed(r, -k, n);
    let mut wide = vec![0u64; 2 * n];
    let mut tmp = vec![0u64; n];
    let mut term = s.clone();
    let mut sum = s.clone();
    // expm1(±s) = ±(s ± s^2/2! + s^3/3! ± s^4/4! + ...): the magnitude
    // alternates for negative arguments, and each partial sum stays
    // positive since the terms shrink.
    for j in 2u64.. {
        let p = mul_hi(&term, &s, &mut wide);
        term.copy_from_slice(p);
        limb::div_small_in_place(&mut term, j);
        if limb::is_zero(&term) {
            break;
        }
        add_fixed(&mut sum, &term, neg && j % 2 == 0, &mut tmp);
    }
    // expm1(2y) = 2·expm1(y) + expm1(y)^2; for a negative expm1(y) = -a
    // that is -(2a - a^2). Every intermediate magnitude is below 1/2.
    for _ in 0..k {
        let sq = mul_hi(&sum, &sum, &mut wide);
        limb::shl_in_place(&mut sum, 1);
        add_fixed(&mut sum, sq, neg, &mut tmp);
    }
    sum
}

/// `ln(1 + w)` for `|w| < 2^NEAR_ONE_EXP`, as `2·t·(1 + t^2/3 + t^4/5 + ...)`
/// with `t = w/(2 + w)`: `t` in floating point at the precision of `ctx`
/// (so the result is accurate relative to its own size), the bracket in
/// `n`-limb fixed point.
fn ln1p_near_zero(w: &BigFloat, ctx: &Context, n: usize) -> BigFloat {
    if w.is_zero() {
        return BigFloat::zero();
    }
    let t = ctx.div(w, &ctx.add(&BigFloat::from_u64(2), w));
    let t_fix = to_fixed(&t, 0, n);
    let mut wide = vec![0u64; 2 * n];
    let mut tmp = vec![0u64; n];
    let t2 = mul_hi(&t_fix, &t_fix, &mut wide).to_vec();
    let mut pow = t2.clone();
    let mut sum = vec![0u64; n];
    for k in 1u64.. {
        let mut term = pow.clone();
        limb::div_small_in_place(&mut term, 2 * k + 1);
        if limb::is_zero(&term) {
            break;
        }
        add_fixed(&mut sum, &term, false, &mut tmp);
        let p = mul_hi(&pow, &t2, &mut wide);
        pow.copy_from_slice(p);
    }
    let bracket = one_plus_fixed(&sum, false, 0, ctx.prec());
    ctx.mul(&t, &bracket).mul_pow2(1)
}

/// `x·2^-e` for `x`'s exponent `e`: the significand in `[1, 2)`.
fn significand(x: &BigFloat, e: i64) -> BigFloat {
    // `-e` overflows i64 negation at `e == i64::MIN` (reachable:
    // `2^(i64::MIN)` is a representable BigFloat), so split that one
    // shift into two exact halves.
    if e == i64::MIN {
        x.mul_pow2(i64::MAX).mul_pow2(1)
    } else {
        x.mul_pow2(-e)
    }
}

/// The `ln` special values: `Some(result)` unless `x` is a finite
/// nonzero number.
fn special_ln(x: &BigFloat) -> Option<BigFloat> {
    match x.kind() {
        Kind::Zero => Some(BigFloat::infinity(Sign::Neg)),
        Kind::Nan => Some(BigFloat::nan()),
        _ if x.sign() == Sign::Neg => Some(BigFloat::nan()),
        Kind::Inf => Some(BigFloat::infinity(Sign::Pos)),
        Kind::Normal => None,
    }
}

/// `exp` of arguments it cannot reduce: zero, specials, and magnitudes
/// past the `i64` exponent range.
fn special_exp(x: &BigFloat, prec: u32) -> Option<BigFloat> {
    match x.kind() {
        Kind::Zero => Some(BigFloat::one().round_to(prec)),
        Kind::Nan => Some(BigFloat::nan()),
        Kind::Inf => Some(saturated_exp(x)),
        // 2^(x/ln2) with |n| beyond i64 saturates.
        Kind::Normal if x.exponent().unwrap_or(0) > 62 => Some(saturated_exp(x)),
        Kind::Normal => None,
    }
}

/// `exp(x)` for `x` beyond `±i64::MAX·ln2`: infinity above the range,
/// the single unsigned zero below it.
fn saturated_exp(x: &BigFloat) -> BigFloat {
    if x.sign() == Sign::Neg {
        BigFloat::zero()
    } else {
        BigFloat::infinity(Sign::Pos)
    }
}

impl Context {
    /// Natural logarithm, faithfully rounded.
    ///
    /// `ln(0)` is negative infinity; `ln` of a negative number is NaN.
    /// This is the conversion *into* log-space: the paper converts
    /// operands to log-space in MPFR exactly this way.
    #[must_use]
    pub fn ln(&self, x: &BigFloat) -> BigFloat {
        if let Some(special) = special_ln(x) {
            return special;
        }
        let prec = self.prec();
        let e = x.exponent().expect("normal");
        let ctx = Context::new(prec + 64);
        let n = fixed_limbs(prec);
        let one = BigFloat::one();
        if e == 0 || e == -1 {
            let w = ctx.sub(x, &one);
            if w.exponent().is_none_or(|ew| ew < NEAR_ONE_EXP) {
                return ln1p_near_zero(&w, &ctx, n).round_to(prec);
            }
        }
        let m = significand(x, e);
        // ln m = y0 + ln z with z = m·exp(-y0) within ~2^-50 of 1.
        let y0 = BigFloat::from_f64(m.to_f64().ln());
        let exp_neg_y0 = one_plus_fixed(&expm1_fixed(&y0.neg(), n), true, 0, ctx.prec());
        let z = ctx.mul(&m, &exp_neg_y0);
        let lnm = ctx.add(&y0, &ln1p_near_zero(&ctx.sub(&z, &one), &ctx, n));
        // ln x = ln m + e ln 2.
        let result = if e == 0 {
            lnm
        } else {
            let eln2 = ctx.mul(&BigFloat::from_i64(e), &ln2(ctx.prec()));
            ctx.add(&lnm, &eln2)
        };
        result.round_to(prec)
    }

    /// Exponential function, faithfully rounded.
    ///
    /// Handles arguments of enormous magnitude (e.g. `exp(-2_010_127)`,
    /// the VICAR log-likelihood) by exact argument reduction
    /// `exp(x) = 2^n · exp(x - n ln 2)`.
    #[must_use]
    pub fn exp(&self, x: &BigFloat) -> BigFloat {
        let prec = self.prec();
        if let Some(special) = special_exp(x, prec) {
            return special;
        }
        // `x - n ln2` cancels the integer bits of x: carry them on top
        // of the guard bits.
        let int_bits = x.exponent().expect("normal").max(0) as u32;
        let ctx = Context::new(prec + 32 + int_bits);
        let l2 = ln2(ctx.prec());
        let n = ctx.div(x, &l2).to_i64_round();
        // r = x - n ln2, |r| <= ln2/2 + tiny.
        let r = ctx.sub(x, &ctx.mul(&BigFloat::from_i64(n), &l2));
        // When |x| > i64::MAX * ln2 (~6.39e18, exponent 62 — just under
        // the guard in `special_exp`), `to_i64_round` saturates and the
        // reduction leaves |r| up to ~2.8e18. A successful reduction
        // always has |r| <= ln2/2 + tiny (exponent <= -1), so any larger
        // remainder is the saturation artifact: the true result is far
        // past 2^(i64::MAX) / below 2^(i64::MIN) either way.
        if r.exponent().unwrap_or(i64::MIN) >= 0 {
            return saturated_exp(x);
        }
        let a = expm1_fixed(&r, fixed_limbs(prec));
        one_plus_fixed(&a, r.sign() == Sign::Neg, n, prec)
    }

    /// Base-2 logarithm, via `ln(x)/ln(2)`.
    #[must_use]
    pub fn log2(&self, x: &BigFloat) -> BigFloat {
        let wp = Context::new(self.prec() + 32);
        let l = wp.ln(x);
        if !l.is_finite() {
            return l;
        }
        wp.div(&l, &ln2(self.prec() + 32)).round_to(self.prec())
    }
}

/// The retired `exp`: reduction `x = n·ln2 + r` at `prec + 64` bits,
/// then a plain Taylor series of `exp(r)` with every term a `Context`
/// operation. Kept only as the differential reference for
/// [`Context::exp`] (see `testing`).
#[must_use]
pub fn exp_series(x: &BigFloat, prec: u32) -> BigFloat {
    if let Some(special) = special_exp(x, prec) {
        return special;
    }
    let wp = prec + 64;
    let ctx = Context::new(wp);
    let l2 = ln2(wp);
    let n = ctx.div(x, &l2).to_i64_round();
    let r = ctx.sub(x, &ctx.mul(&BigFloat::from_i64(n), &l2));
    if r.exponent().unwrap_or(i64::MIN) >= 0 {
        return saturated_exp(x);
    }
    let mut term = BigFloat::one();
    let mut sum = BigFloat::one();
    let mut k: u64 = 1;
    loop {
        term = ctx.mul(&term, &r).div_u64(k, wp);
        let Some(te) = term.exponent() else { break };
        sum = ctx.add(&sum, &term);
        if te < -(wp as i64) - 2 {
            break;
        }
        k += 1;
    }
    sum.mul_pow2(n).round_to(prec)
}

/// The retired `ln`: `ln x = 2·atanh((m - 1)/(m + 1)) + e·ln2` for
/// `x = 2^e·m`, `m` in `[1, 2)`, with every term a `Context` operation at
/// `prec + 64` bits. Not faithful just below 1, where `ln m` and
/// `e·ln2` cancel. Kept only as the differential reference for
/// [`Context::ln`] (see `testing`).
#[must_use]
pub fn ln_series(x: &BigFloat, prec: u32) -> BigFloat {
    if let Some(special) = special_ln(x) {
        return special;
    }
    let e = x.exponent().expect("normal");
    let wp = prec + 64;
    let ctx = Context::new(wp);
    let m = significand(x, e);
    let one = BigFloat::one();
    let num = ctx.sub(&m, &one);
    let lnm = if num.is_zero() {
        BigFloat::zero()
    } else {
        let den = ctx.add(&m, &one);
        let t = ctx.div(&num, &den);
        let t2 = ctx.mul(&t, &t);
        let mut u = t.clone();
        let mut sum = t;
        let mut k: u64 = 1;
        loop {
            u = ctx.mul(&u, &t2);
            let term = u.div_u64(2 * k + 1, wp);
            let Some(te) = term.exponent() else { break };
            sum = ctx.add(&sum, &term);
            if te < sum.exponent().unwrap_or(0) - wp as i64 - 2 {
                break;
            }
            k += 1;
        }
        sum.mul_pow2(1)
    };
    let result = if e == 0 {
        lnm
    } else {
        let eln2 = ctx.mul(&BigFloat::from_i64(e), &ln2(wp));
        ctx.add(&lnm, &eln2)
    };
    result.round_to(prec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::new(256)
    }

    #[test]
    fn ln2_matches_f64_constant() {
        let v = ln2(96);
        assert!((v.to_f64() - core::f64::consts::LN_2).abs() < 1e-16);
    }

    #[test]
    fn ln_matches_f64_ln() {
        for x in [1.0, 2.0, 0.5, 10.0, 0.3, 1e-300, 1e300, 1.0000001] {
            let l = ctx().ln(&BigFloat::from_f64(x));
            let expected = x.ln();
            if expected == 0.0 {
                assert_eq!(l.to_f64(), 0.0);
            } else {
                assert!(
                    (l.to_f64() - expected).abs() <= expected.abs() * 1e-15,
                    "ln({x}) = {} want {expected}",
                    l.to_f64()
                );
            }
        }
    }

    #[test]
    fn exp_matches_f64_exp() {
        for x in [0.0, 1.0, -1.0, 0.5, -20.0, 10.0, 700.0, -700.0] {
            let e = ctx().exp(&BigFloat::from_f64(x));
            let expected = x.exp();
            assert!(
                (e.to_f64() - expected).abs() <= expected.abs() * 1e-14,
                "exp({x}) = {} want {expected}",
                e.to_f64()
            );
        }
    }

    #[test]
    fn ln_exp_round_trip() {
        let c = ctx();
        for x in [0.3, 1.7, 42.0, 1e-10] {
            let b = BigFloat::from_f64(x);
            let back = c.exp(&c.ln(&b));
            let err = (&back - &b).abs();
            // Within ~2 ulp at 256 bits.
            assert!(
                err.is_zero() || err.exponent().unwrap() < b.exponent().unwrap() - 250,
                "round trip {x}"
            );
        }
    }

    #[test]
    fn ln_of_tiny_probability_is_paper_example() {
        // The paper: ln(2^-120_000) ~ -83177.66.
        let x = BigFloat::pow2(-120_000);
        let l = ctx().ln(&x);
        let approx = l.to_f64();
        assert!((approx + 83_177.66).abs() < 0.01, "got {approx}");
    }

    #[test]
    fn exp_of_huge_negative_argument() {
        // The paper: log of 2^-2_900_000 is about -2_010_126.824; exp of
        // that must come back with the right base-2 exponent.
        let l = BigFloat::from_f64(-2_010_126.824);
        let x = ctx().exp(&l);
        let e2 = x.exponent().unwrap();
        assert!((e2 - (-2_900_000)).abs() < 5, "exponent {e2}");
    }

    #[test]
    fn exp_at_the_i64_saturation_threshold() {
        let c = ctx();
        // i64::MAX * ln2 ~ 6.3938e18 (exponent 62). Arguments past it
        // make `to_i64_round` saturate; before the remainder check the
        // Taylor loop on the ~2.8e18 leftover never finished. On both
        // sides of the threshold exp must land on Inf / Zero.
        for mag in [6.4e18, 7.0e18, 9.2e18] {
            let pos = c.exp(&BigFloat::from_f64(mag));
            assert_eq!(pos.kind(), Kind::Inf, "exp({mag})");
            assert_eq!(pos.sign(), Sign::Pos);
            let neg = c.exp(&BigFloat::from_f64(-mag));
            assert!(neg.is_zero(), "exp(-{mag})");
            assert_eq!(neg.sign(), Sign::Pos, "single unsigned zero");
        }
        // Just below the threshold the reduction is legitimate: n is
        // near i64::MAX and the result's base-2 exponent is n exactly
        // (|r| < ln2/2 keeps exp(r) in [2^-1/2, 2^1/2)).
        let x = BigFloat::from_f64(6.3e18);
        let y = Context::new(64).exp(&x);
        let expected_n = (6.3e18 / core::f64::consts::LN_2).round() as i64;
        let got = y.exponent().unwrap();
        // expected_n carries f64 rounding error (~one 1024-ulp step at
        // this magnitude); the exact n is what matters, not its f64
        // estimate.
        assert!(
            (got - expected_n).abs() <= 4096,
            "got {got} want ~{expected_n}"
        );
        // Exponent-63-and-up arguments take the early guard.
        assert_eq!(c.exp(&BigFloat::pow2(63)).kind(), Kind::Inf);
        assert!(c.exp(&BigFloat::pow2(63).neg()).is_zero());
        assert_eq!(c.exp(&BigFloat::pow2(i64::MAX)).kind(), Kind::Inf);
        // And NaN stays NaN through every path.
        assert!(c.exp(&BigFloat::nan()).is_nan());
        assert!(c.ln(&BigFloat::nan()).is_nan());
    }

    #[test]
    fn ln_at_the_exponent_extremes() {
        let c = ctx();
        // 2^(i64::MIN) is representable; normalizing its mantissa used
        // to negate i64::MIN (debug-build panic). ln must return about
        // i64::MIN * ln2 ~ -6.39e18.
        let tiny = BigFloat::pow2(i64::MIN);
        let l = c.ln(&tiny);
        let want = i64::MIN as f64 * core::f64::consts::LN_2;
        let got = l.to_f64();
        assert!(
            ((got - want) / want).abs() < 1e-15,
            "ln(2^i64::MIN) = {got}, want {want}"
        );
        let huge = BigFloat::pow2(i64::MAX);
        let lh = c.ln(&huge).to_f64();
        assert!(((lh + want) / want).abs() < 1e-15, "ln(2^i64::MAX) = {lh}");
    }

    #[test]
    fn ln_specials() {
        let c = ctx();
        assert_eq!(c.ln(&BigFloat::zero()).kind(), Kind::Inf);
        assert_eq!(c.ln(&BigFloat::zero()).sign(), Sign::Neg);
        assert!(c.ln(&BigFloat::from_f64(-1.0)).is_nan());
        assert_eq!(c.ln(&BigFloat::infinity(Sign::Pos)).kind(), Kind::Inf);
        assert!(c.exp(&BigFloat::infinity(Sign::Neg)).is_zero());
        assert_eq!(c.exp(&BigFloat::zero()).to_f64(), 1.0);
    }

    #[test]
    fn log2_recovers_exponent() {
        let c = ctx();
        let x = BigFloat::pow2(-12345);
        assert_eq!(c.log2(&x).to_f64(), -12345.0);
    }

    #[test]
    fn div_u64_exactness() {
        let x = BigFloat::from_u64(12);
        assert_eq!(x.div_u64(4, 64).to_f64(), 3.0);
        // `one` carries fewer limbs than either quotient: the padding
        // must follow `prec`, not the operand.
        for (prec, bound) in [(256, -250), (1024, -1020)] {
            let third = BigFloat::one().div_u64(3, prec);
            assert_eq!(third.precision(), prec);
            let back = Context::new(prec + 64).mul(&third, &BigFloat::from_u64(3));
            let err = Context::new(prec + 64).sub(&back, &BigFloat::one()).abs();
            assert!(
                err.is_zero() || err.exponent().unwrap() < bound,
                "1/3 at {prec} bits is off by {err:?}"
            );
        }
    }

    /// `|got - want| <= 1 ulp` at `prec` bits, the ulp taken at `want`.
    fn within_one_ulp(got: &BigFloat, want: &BigFloat, prec: u32) -> bool {
        let ew = want.exponent().expect("nonzero reference");
        let diff = Context::new(2 * prec + 128).sub(got, want).abs();
        diff <= BigFloat::pow2(ew - i64::from(prec) + 1)
    }

    #[test]
    fn ln2_is_correct_at_every_cached_width() {
        // ln 2 = sum_{n>=1} 1/(n·2^n), each term a correctly rounded
        // `Context::div` (independent of `div_u64` and of the atanh
        // series `compute_ln2` uses).
        for q in [64u32, 256, 512, 1024, 4096] {
            let wp = Context::new(q + 64);
            let mut sum = BigFloat::zero();
            for n in 1..=u64::from(q) + 66 {
                let term = wp.div(&BigFloat::pow2(-(n as i64)), &BigFloat::from_u64(n));
                sum = wp.add(&sum, &term);
            }
            assert!(
                crate::bit_identical(&ln2(q), &sum.round_to(q)),
                "ln2({q}) differs from the series"
            );
        }
    }

    #[test]
    fn ln_is_faithful_next_to_one() {
        // ln(1 + y) = sum_{n>=1} (-1)^(n+1) y^n / n for y = ±2^-k, summed at
        // prec + 64 bits. Just below 1 the old `ln(2x) - ln 2` evaluation
        // cancelled to a handful of correct bits.
        for prec in [53u32, 192, 256] {
            let c = Context::new(prec);
            let wp = Context::new(prec + 64);
            let exact = Context::new(2 * prec + 2);
            for k in 1..=2 * i64::from(prec) {
                for below in [false, true] {
                    let y = if below {
                        BigFloat::pow2(-k).neg()
                    } else {
                        BigFloat::pow2(-k)
                    };
                    let x = exact.add(&BigFloat::one(), &y);
                    let mut series = BigFloat::zero();
                    for n in 1.. {
                        if k * n > i64::from(prec) + 66 + k {
                            break;
                        }
                        let mut term =
                            wp.div(&BigFloat::pow2(-k * n), &BigFloat::from_u64(n as u64));
                        if below || n % 2 == 0 {
                            term = term.neg();
                        }
                        series = wp.add(&series, &term);
                    }
                    let got = c.ln(&x);
                    assert!(
                        within_one_ulp(&got, &series, prec),
                        "ln(1 {} 2^-{k}) at prec {prec}: {got:?} vs {series:?}",
                        if below { '-' } else { '+' }
                    );
                }
            }
        }
    }
}
