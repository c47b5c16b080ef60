//! The Poisson Binomial Distribution recurrence (Listing 2): PMF and
//! p-value computation in every number system under study, written once
//! over an [`Arith`] context.

use compstat_bigfloat::{BigFloat, Context};
use compstat_core::{Arith, Scalar, StatFloat};

/// Result of a p-value computation in format `T`.
#[derive(Clone, Debug)]
pub struct PbdResult<T> {
    /// `pr[k] = P(X = k)` for `k < K` after all `N` trials.
    pub pmf: Vec<T>,
    /// `P(X >= K)`: the tail mass that crossed the `K` boundary —
    /// LoFreq's p-value for the column.
    pub pvalue: T,
}

/// The PBD recurrence (Listing 2) in arithmetic `ar`, the one body
/// every kernel in this module runs.
///
/// States `0..k` are tracked exactly as in the paper's accelerator: the
/// inner loop is the multiply-and-add `pr[j]*(1-p) + pr[j-1]*p`, and mass
/// reaching state `k` is absorbed into the running p-value.
fn recurrence<A: Arith>(ar: &A, success_probs: &[f64], k: usize) -> PbdResult<A::V> {
    if k == 0 {
        return PbdResult {
            pmf: Vec::new(),
            pvalue: ar.one(),
        };
    }
    let mut pr = vec![ar.zero(); k];
    pr[0] = ar.one(); // zero successes after zero trials
    let mut pvalue = ar.zero();
    for &p in success_probs {
        debug_assert!((0.0..=1.0).contains(&p), "success probability out of range");
        let pn = ar.import(p);
        let qn = ar.import(1.0 - p);
        // Mass crossing from k-1 into >= k (Listing 2 line 7).
        pvalue = ar.add(&pvalue, &ar.mul(&pr[k - 1], &pn));
        // In-place reverse sweep == the paper's double-buffered update.
        for j in (1..k).rev() {
            pr[j] = ar.add(&ar.mul(&pr[j], &qn), &ar.mul(&pr[j - 1], &pn));
        }
        pr[0] = ar.mul(&pr[0], &qn);
    }
    PbdResult { pmf: pr, pvalue }
}

/// Computes `P(X >= k)` for a Poisson-binomial with the given per-trial
/// success probabilities (Listing 2 of the paper), in format `T` —
/// `T = LogF64` is the explicit log-space formulation (its `add` *is*
/// the binary LSE of Equation (2)) that LoFreq's software and the
/// paper's log-space column unit compute.
///
/// `k == 0` trivially yields p-value 1. With `k = N + 1` the p-value is
/// zero and `pmf` is the full distribution `P(X = j)`, `j in 0..=N`.
#[must_use]
pub fn pbd_pvalue<T: StatFloat>(success_probs: &[f64], k: usize) -> PbdResult<T> {
    recurrence(&Scalar::new(), success_probs, k)
}

/// The 256-bit oracle p-value — the "correct result" of Figures 9/11.
#[must_use]
pub fn pbd_pvalue_oracle(success_probs: &[f64], k: usize, ctx: &Context) -> BigFloat {
    recurrence(ctx, success_probs, k).pvalue
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_logspace::LogF64;
    use compstat_posit::{P64E12, P64E18, P64E9};

    /// Brute-force `P(X >= k)` by enumerating all outcome subsets.
    fn brute_pvalue(probs: &[f64], k: usize) -> f64 {
        let n = probs.len();
        let mut total = 0.0;
        for mask in 0u32..(1 << n) {
            let successes = mask.count_ones() as usize;
            if successes < k {
                continue;
            }
            let mut p = 1.0;
            for (i, &pi) in probs.iter().enumerate() {
                p *= if mask >> i & 1 == 1 { pi } else { 1.0 - pi };
            }
            total += p;
        }
        total
    }

    #[test]
    fn matches_brute_force() {
        let probs = [0.3, 0.1, 0.5, 0.25, 0.9, 0.05];
        for k in 0..=6 {
            let want = brute_pvalue(&probs, k);
            let got: PbdResult<f64> = pbd_pvalue(&probs, k);
            assert!(
                (got.pvalue - want).abs() < 1e-14,
                "k={k}: got {} want {want}",
                got.pvalue
            );
            let gp: PbdResult<P64E9> = pbd_pvalue(&probs, k);
            assert!((gp.pvalue.to_f64() - want).abs() < 1e-12, "posit k={k}");
            let gl: PbdResult<LogF64> = pbd_pvalue(&probs, k);
            assert!((gl.pvalue.to_f64() - want).abs() < 1e-12, "log k={k}");
            let ctx = Context::new(256);
            let go = pbd_pvalue_oracle(&probs, k, &ctx);
            assert!((go.to_f64() - want).abs() < 1e-15, "oracle k={k}");
        }
    }

    #[test]
    fn pmf_full_sums_to_one() {
        // k = N + 1 tracks every state: the full PMF P(X = j), j <= N.
        let probs = [0.2, 0.7, 0.4, 0.9, 0.01, 0.35, 0.5];
        let pmf: Vec<f64> = pbd_pvalue(&probs, probs.len() + 1).pmf;
        let sum: f64 = pmf.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // And matches the binomial closed form when all p equal.
        let equal = [0.3; 10];
        let pmf: Vec<f64> = pbd_pvalue(&equal, equal.len() + 1).pmf;
        for (k, &got) in pmf.iter().enumerate() {
            let binom = binomial(10, k) * 0.3f64.powi(k as i32) * 0.7f64.powi((10 - k) as i32);
            assert!((got - binom).abs() < 1e-12, "k={k}: {got} vs {binom}");
        }
    }

    fn binomial(n: usize, k: usize) -> f64 {
        let mut c = 1.0;
        for i in 0..k {
            c = c * (n - i) as f64 / (i + 1) as f64;
        }
        c
    }

    #[test]
    fn pvalue_is_monotone_in_k() {
        let probs: Vec<f64> = (0..20).map(|i| 0.1 + 0.03 * (i % 7) as f64).collect();
        let mut prev = 2.0;
        for k in 0..=20 {
            let r: PbdResult<f64> = pbd_pvalue(&probs, k);
            assert!(r.pvalue <= prev + 1e-15, "k={k}");
            prev = r.pvalue;
        }
    }

    #[test]
    fn k_zero_is_certain() {
        let r: PbdResult<f64> = pbd_pvalue(&[0.5, 0.5], 0);
        assert_eq!(r.pvalue, 1.0);
        let ctx = Context::new(128);
        assert_eq!(pbd_pvalue_oracle(&[0.5], 0, &ctx).to_f64(), 1.0);
    }

    #[test]
    fn paper_motivating_binomial_underflow() {
        // Section II: P = 0.3^N underflows binary64 for N > 618. The
        // probability of N successes in N trials is the full PMF's last
        // entry.
        let probs = vec![0.3; 700];
        let pmf: Vec<f64> = pbd_pvalue(&probs, probs.len() + 1).pmf;
        assert_eq!(pmf[700], 0.0, "binary64 underflows at 0.3^700");
        let pmf: Vec<P64E18> = pbd_pvalue(&probs, probs.len() + 1).pmf;
        let last = pmf[700];
        assert!(!last.is_zero(), "posit(64,18) holds 0.3^700");
        // 0.3^700 = 2^(700*log2(0.3)) ~ 2^-1215.6.
        let e = last.to_bigfloat().exponent().unwrap();
        assert_eq!(e, -1216);
    }

    #[test]
    fn deep_pvalue_magnitudes_survive_in_posit_and_log() {
        // A scaled-down "critical column": 60 trials with tiny success
        // probabilities, k=40 -> p-value far below 2^-1074.
        let probs: Vec<f64> = (0..60).map(|i| 2f64.powi(-40 - (i % 17))).collect();
        let ctx = Context::new(256);
        let oracle = pbd_pvalue_oracle(&probs, 40, &ctx);
        let oe = oracle.exponent().unwrap();
        assert!(oe < -1_400, "oracle exponent {oe}");
        let f: PbdResult<f64> = pbd_pvalue(&probs, 40);
        assert!(f.pvalue.is_zero(), "binary64 underflows");
        let p: PbdResult<P64E12> = pbd_pvalue(&probs, 40);
        let pe = p.pvalue.to_bigfloat().exponent().unwrap();
        assert!((pe - oe).abs() <= 1, "posit exponent {pe} vs oracle {oe}");
        let l: PbdResult<LogF64> = pbd_pvalue(&probs, 40);
        let le = (l.pvalue.ln_value() / core::f64::consts::LN_2).round() as i64;
        assert!((le - oe).abs() <= 1, "log exponent {le} vs oracle {oe}");
    }
}
