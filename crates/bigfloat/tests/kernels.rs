//! Differential tests for the arithmetic kernels.
//!
//! Two independent cross-checks, both bit-exact:
//!
//! 1. **Correct rounding** — computing any of `+ - * /` at
//!    `2*prec + 64` working bits and then rounding to `prec` must equal
//!    the direct operation at `prec`. For correctly-rounded ops on
//!    `prec`-bit operands, double rounding through `q >= 2p + 2` bits
//!    is innocuous (Figueroa's theorem), so any divergence means one of
//!    the two paths rounded wrong.
//! 2. **Kernel equivalence** — the fixed-width fast paths and the
//!    Knuth-D division must agree bit-for-bit with the general slice
//!    kernels and the retired restoring division (`testing::*`) across
//!    operand widths 24..4096.

use compstat_bigfloat::{bit_identical, testing, BigFloat, Context};
use proptest::prelude::*;

/// Deterministic splitmix64 stream for the fixed-width sweeps.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random nonzero value with exactly `prec` significant bits, a random
/// exponent in ±2000, and a random sign — built exclusively through the
/// public exact-arithmetic API so the generator can't share bugs with
/// the kernels under test.
fn random_operand(state: &mut u64, prec: u32) -> BigFloat {
    let nl = (prec as usize).div_ceil(64);
    let build = Context::new((nl as u32) * 64);
    let mut acc = BigFloat::zero();
    for i in 0..nl {
        let mut l = splitmix(state);
        if i == 0 {
            // Top limb: keep the value full-width.
            l |= 1 << 63;
        }
        // acc = acc * 2^64 + l, exact at build precision.
        acc = build.add(&acc.mul_pow2(64), &BigFloat::from_u64(l));
    }
    let exp = (splitmix(state) % 4001) as i64 - 2000;
    let v = acc.round_to(prec).mul_pow2(exp);
    if splitmix(state) & 1 == 1 {
        v.neg()
    } else {
        v
    }
}

const WIDTHS: [u32; 12] = [24, 53, 64, 127, 128, 192, 256, 320, 512, 1024, 2048, 4096];

#[test]
fn double_rounding_differential_across_widths() {
    let mut st = 0x5EED_0001u64;
    for &p in &WIDTHS {
        let cp = Context::new(p);
        let cw = Context::new(2 * p + 64);
        for _ in 0..8 {
            let a = random_operand(&mut st, p);
            let b = random_operand(&mut st, p);
            let cases = [
                ("add", cp.add(&a, &b), cw.add(&a, &b)),
                ("sub", cp.sub(&a, &b), cw.sub(&a, &b)),
                ("mul", cp.mul(&a, &b), cw.mul(&a, &b)),
                ("div", cp.div(&a, &b), cw.div(&a, &b)),
            ];
            for (name, direct, wide) in cases {
                let double = cp.round(&wide);
                assert!(
                    bit_identical(&direct, &double),
                    "{name} at prec {p}: direct != wide-then-round for a={a:?} b={b:?}"
                );
            }
        }
    }
}

#[test]
fn fast_paths_match_general_kernels_across_widths() {
    let mut st = 0x5EED_0002u64;
    for &p in &WIDTHS {
        let cp = Context::new(p);
        for i in 0..8 {
            let a = random_operand(&mut st, p);
            // Every other round: mismatched operand widths, so the
            // unequal-limb-count paths (shifted alignment in add, the
            // general multiply) get exercised too.
            let b = if i % 2 == 0 {
                random_operand(&mut st, p)
            } else {
                random_operand(&mut st, 24.max(p / 2))
            };
            let pairs = [
                ("add", cp.add(&a, &b), testing::add_general(&a, &b, p)),
                ("sub", cp.sub(&a, &b), testing::sub_general(&a, &b, p)),
                ("mul", cp.mul(&a, &b), testing::mul_general(&a, &b, p)),
                ("div", cp.div(&a, &b), testing::div_restoring(&a, &b, p)),
            ];
            for (name, fast, general) in pairs {
                assert!(
                    bit_identical(&fast, &general),
                    "{name} at prec {p}: fast path != general kernel for a={a:?} b={b:?}"
                );
            }
        }
    }
}

#[test]
fn cancellation_and_near_equal_operands_stay_identical() {
    // Near-total cancellation is where the sticky/decrement logic in the
    // subtract path earns its keep; drive it explicitly at the fast-path
    // widths and one general width.
    let mut st = 0x5EED_0003u64;
    for &p in &[53u32, 128, 192, 256, 1024] {
        let cp = Context::new(p);
        let cw = Context::new(2 * p + 64);
        for _ in 0..16 {
            let a = random_operand(&mut st, p);
            // b agrees with a in all but the last few significant bits:
            // scale a perturbation to sit within a few ulps of a.
            let eps0 = random_operand(&mut st, p).abs();
            let shift = a.exponent().unwrap() - eps0.exponent().unwrap() - p as i64
                + (splitmix(&mut st) % 8) as i64
                - 3;
            let b = cp.add(&a, &eps0.mul_pow2(shift));
            let direct = cp.sub(&a, &b);
            let wide = cp.round(&cw.sub(&a, &b));
            assert!(
                bit_identical(&direct, &wide),
                "cancellation sub at prec {p} diverged"
            );
            let general = testing::sub_general(&a, &b, p);
            assert!(
                bit_identical(&direct, &general),
                "cancellation sub at prec {p}: fast != general"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ops_are_correctly_rounded_at_random_precision(
        x in proptest::num::f64::NORMAL,
        y in proptest::num::f64::NORMAL,
        ex in -2000i64..2000,
        ey in -2000i64..2000,
        prec in 24u32..512,
    ) {
        // Operands rounded to `prec` bits first, so the double-rounding
        // theorem's precondition (p-bit inputs) holds even below 53 bits.
        let a = BigFloat::from_f64(x).round_to(prec).mul_pow2(ex);
        let b = BigFloat::from_f64(y).round_to(prec).mul_pow2(ey);
        let cp = Context::new(prec);
        let cw = Context::new(2 * prec + 64);
        let cases = [
            ("add", cp.add(&a, &b), cw.add(&a, &b)),
            ("sub", cp.sub(&a, &b), cw.sub(&a, &b)),
            ("mul", cp.mul(&a, &b), cw.mul(&a, &b)),
            ("div", cp.div(&a, &b), cw.div(&a, &b)),
        ];
        for (name, direct, wide) in cases {
            let double = cp.round(&wide);
            prop_assert!(
                bit_identical(&direct, &double),
                "{} of {}*2^{} and {}*2^{} at prec {}", name, x, ex, y, ey, prec
            );
        }
    }

    #[test]
    fn fast_paths_match_general_at_random_precision(
        x in proptest::num::f64::NORMAL,
        y in proptest::num::f64::NORMAL,
        ex in -2000i64..2000,
        ey in -2000i64..2000,
        prec in 24u32..300,
    ) {
        let a = BigFloat::from_f64(x).round_to(prec).mul_pow2(ex);
        let b = BigFloat::from_f64(y).round_to(prec).mul_pow2(ey);
        let cp = Context::new(prec);
        let pairs = [
            ("add", cp.add(&a, &b), testing::add_general(&a, &b, prec)),
            ("sub", cp.sub(&a, &b), testing::sub_general(&a, &b, prec)),
            ("mul", cp.mul(&a, &b), testing::mul_general(&a, &b, prec)),
            ("div", cp.div(&a, &b), testing::div_restoring(&a, &b, prec)),
        ];
        for (name, fast, general) in pairs {
            prop_assert!(
                bit_identical(&fast, &general),
                "{} of {}*2^{} and {}*2^{} at prec {}", name, x, ex, y, ey, prec
            );
        }
    }
}

/// `|got - want| <= 1 ulp` at `prec` bits, the ulp taken at `want`
/// (a reference computed at `2·prec + 64` bits, so its own error is far
/// below the bound). Zero and the specials must match exactly.
fn within_one_ulp(got: &BigFloat, want: &BigFloat, prec: u32) -> bool {
    let Some(ew) = want.exponent() else {
        return got.kind() == want.kind() && got.sign() == want.sign();
    };
    if got.exponent().is_none() {
        return false;
    }
    // Both values carry at most 2·prec + 64 bits within a binade or two
    // of each other, so the difference is exact at 2·prec + 128 bits.
    let diff = Context::new(2 * prec + 128).sub(got, want).abs();
    diff <= BigFloat::pow2(ew.saturating_sub(i64::from(prec) - 1))
}

/// A uniform random significand of 256 bits in the binade `2^exp` — the
/// shape of the Figure 3 and hdr operand corpora.
fn corpus_operand(state: &mut u64, exp: i64) -> BigFloat {
    let a = random_operand(state, 256).abs();
    a.mul_pow2(exp - a.exponent().unwrap())
}

/// Checks `Context::{ln, exp}` at `prec` against the retired series run
/// at `2·prec + 64` bits on `count` seeded corpus arguments plus the
/// edge cases: exponent limits, both sides of the exp saturation
/// threshold, and `exp(±2^-k)` down to `k = 10^6`.
fn check_elementary_against_series(prec: u32, count: usize, seed: u64) {
    let c = Context::new(prec);
    let wide = 2 * prec + 64;
    let mut st = seed;
    let mut ln_args = Vec::new();
    let mut exp_args = Vec::new();
    for _ in 0..count {
        // ln: probabilities over the corpora's 2^-10050..2^0 range.
        let e = -((splitmix(&mut st) % 10_051) as i64);
        ln_args.push(corpus_operand(&mut st, e));
        // exp: binary64 log-space values over the same range (plus a
        // few positive ones), as `LogF64::to_bigfloat` passes them.
        let u = (splitmix(&mut st) >> 11) as f64 / (1u64 << 53) as f64;
        exp_args.push(BigFloat::from_f64(-6_980.0 + 7_000.0 * u));
    }
    for k in [
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        i64::MIN + 1,
        1_000_000,
        -1_000_000,
    ] {
        ln_args.push(BigFloat::pow2(k));
        ln_args.push(Context::new(wide).mul(&BigFloat::pow2(k), &BigFloat::from_f64(1.5)));
    }
    // i64::MAX·ln2 ~ 6.3931e18: saturation on one side, legal on the other.
    for mag in [6.3e18, 6.393e18, 6.3931e18, 6.3932e18, 6.4e18, 9.2e18] {
        exp_args.push(BigFloat::from_f64(mag));
        exp_args.push(BigFloat::from_f64(-mag));
    }
    for k in [1i64, 2, 8, 17, 60, 100, 200, 400, 1_000, 10_000, 1_000_000] {
        exp_args.push(BigFloat::pow2(-k));
        exp_args.push(BigFloat::pow2(-k).neg());
    }
    for x in &ln_args {
        let got = c.ln(x);
        let want = testing::ln_series(x, wide);
        assert!(
            within_one_ulp(&got, &want, prec),
            "ln at prec {prec}: {got:?} vs reference {want:?} for x={x:?}"
        );
    }
    for x in &exp_args {
        let got = c.exp(x);
        let want = testing::exp_series(x, wide);
        assert!(
            within_one_ulp(&got, &want, prec),
            "exp at prec {prec}: {got:?} vs reference {want:?} for x={x:?}"
        );
    }
}

#[test]
fn elementary_functions_match_the_retired_series_at_64_bit_widths() {
    for prec in [53, 64] {
        check_elementary_against_series(prec, 2_000, 0x5EED_0004 + u64::from(prec));
    }
}

#[test]
fn elementary_functions_match_the_retired_series_at_oracle_widths() {
    for prec in [192, 256] {
        check_elementary_against_series(prec, 2_000, 0x5EED_0004 + u64::from(prec));
    }
}

#[test]
fn elementary_functions_match_the_retired_series_at_1024_bits() {
    // The reference runs at 2112 bits, ~700 series terms per `ln`: a
    // smaller draw keeps the debug-build suite interactive.
    check_elementary_against_series(1024, 200, 0x5EED_0404);
}
