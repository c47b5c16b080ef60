//! The forward algorithm in every number system under study.
//!
//! The recurrence (Listing 1) is written once, over an [`Arith`]
//! context; the public kernels fix the arithmetic and what is observed
//! after each step:
//!
//! * [`forward`] — Listing 1, generic over [`StatFloat`] (binary64,
//!   posit configurations, HDR, and even log-space via its LSE `add`);
//! * [`forward_log`] — Listing 3, the explicit log-space formulation
//!   with n-ary LSE, as the paper's log accelerators implement it;
//! * [`forward_oracle`] — the 256-bit reference result;
//! * [`forward_scaled`] — the per-step rescaling baseline discussed in
//!   Section VII (Related Works), as an after-step hook;
//! * [`forward_trace`] — the Figure 1 experiment: the base-2 exponent of
//!   the `alpha` vector over iterations, tracked exactly, as an
//!   after-step snapshot hook.

use crate::model::{Hmm, PreparedHmm};
use compstat_bigfloat::{BigFloat, Context, HdrFloat, HDR_FAST_PREC};
use compstat_core::{Arith, LogSpace, Scalar, StatFloat};
use compstat_logspace::LogF64;
use compstat_runtime::Runtime;

/// The forward recurrence (Listing 1) in arithmetic `ar`, the one body
/// every kernel in this module runs.
///
/// `after_step(t, alpha_t)` sees (and may rescale) the alpha row after
/// each step, `t = 0` being the initialisation. Returns the final row,
/// or `None` for an empty sequence. Each path sum reduces a scratch row
/// of `alpha_prev[p] * a(p, q)` terms with [`Arith::reduce`], so
/// log-space runs its H-ary LSE and every other arithmetic a sequential
/// fold (the accelerator's reduction tree reassociates it, which is
/// measured separately by the FPGA model).
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
fn recurrence<A: Arith>(
    ar: &A,
    model: &PreparedHmm<A::V>,
    obs: &[usize],
    mut after_step: impl FnMut(usize, &mut [A::V]),
) -> Option<Vec<A::V>> {
    if obs.is_empty() {
        return None;
    }
    let (h, m) = (model.h, model.m);
    // `A` by columns, so each path sum reads its `a(., q)` contiguously.
    let a_by_col: Vec<A::V> = (0..h * h)
        .map(|i| model.a[(i % h) * h + i / h].clone())
        .collect();
    let mut alpha_prev = vec![ar.zero(); h];
    let mut alpha = vec![ar.zero(); h];
    let mut terms = vec![ar.zero(); h];
    for (t, &ot) in obs.iter().enumerate() {
        assert!(ot < m, "observation symbol out of range");
        if t == 0 {
            for q in 0..h {
                alpha_prev[q] = ar.mul(&model.pi[q], &model.b[q * m + ot]);
            }
        } else {
            for (q, a_col) in a_by_col.chunks_exact(h).enumerate() {
                for ((term, ap), a_pq) in terms.iter_mut().zip(&alpha_prev).zip(a_col) {
                    *term = ar.mul(ap, a_pq);
                }
                alpha[q] = ar.mul(&ar.reduce(&terms), &model.b[q * m + ot]);
            }
            core::mem::swap(&mut alpha, &mut alpha_prev);
        }
        after_step(t, &mut alpha_prev);
    }
    Some(alpha_prev)
}

/// `P(O | lambda)` in arithmetic `ar`: the reduced final row, or one
/// for the empty observation.
fn likelihood<A: Arith>(ar: &A, model: &PreparedHmm<A::V>, obs: &[usize]) -> A::V {
    recurrence(ar, model, obs, |_, _| {}).map_or_else(|| ar.one(), |alpha| ar.reduce(&alpha))
}

/// The forward algorithm (Listing 1): returns `P(O | lambda)`.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward<T: StatFloat>(model: &PreparedHmm<T>, obs: &[usize]) -> T {
    likelihood(&Scalar::new(), model, obs)
}

/// The forward algorithm in explicit log-space (Listing 3): `ln_A` and
/// `ln_B` are precomputed logs, the inner reduction is an H-ary LSE, and
/// the result is the log-likelihood.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward_log(model: &Hmm, obs: &[usize]) -> LogF64 {
    likelihood(&LogSpace, &model.prepare_in(&LogSpace), obs)
}

/// The 256-bit oracle forward pass: the baseline "correct value" for
/// every accuracy figure.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward_oracle(model: &Hmm, obs: &[usize], ctx: &Context) -> BigFloat {
    likelihood(ctx, &model.prepare_in(ctx), obs)
}

/// Result of the rescaling forward pass ([`forward_scaled`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScaledForward {
    /// Natural log of the likelihood, accumulated in `f64`.
    pub ln_likelihood: f64,
    /// Number of rescaling events (every step rescales by `1/sum`).
    pub rescales: usize,
}

/// The rescaling baseline (Section VII, "Rescaling ... prevents underflow
/// by multiplying small numbers with a scaling factor"): alpha is
/// renormalized to sum 1 after every step and the log of the scale is
/// accumulated. Works entirely in binary64.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward_scaled(model: &Hmm, obs: &[usize]) -> ScaledForward {
    let mut ln_likelihood = 0.0;
    let mut rescales = 0;
    recurrence(&Scalar::<f64>::new(), &model.prepare(), obs, |_, alpha| {
        let s: f64 = alpha.iter().sum();
        if s > 0.0 {
            ln_likelihood += s.ln();
            for x in alpha {
                *x /= s;
            }
            rescales += 1;
        }
    });
    ScaledForward {
        ln_likelihood,
        rescales,
    }
}

/// One point of the Figure 1 trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracePoint {
    /// Iteration `t`.
    pub t: usize,
    /// Base-2 exponent of `sum(alpha_t)`, computed exactly.
    pub exponent: i64,
}

/// Reproduces Figure 1: runs the oracle forward pass and records the
/// base-2 exponent of the alpha mass at each iteration ("the experiment
/// is done using the MPFR arbitrary precision library so that the exact
/// exponent can be tracked even when numbers become extremely small").
///
/// `stride` controls how often points are recorded (1 = every step).
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward_trace(model: &Hmm, obs: &[usize], ctx: &Context, stride: usize) -> Vec<TracePoint> {
    forward_trace_rt(model, obs, ctx, stride, &Runtime::serial())
}

/// [`forward_trace`] with an explicit runtime: the recurrence itself is
/// inherently sequential, but the per-snapshot exponent extraction
/// (a small-context oracle sum per recorded point) is an independent
/// map over snapshots and runs through `rt`. Point order and values are
/// bitwise-identical for every thread count.
///
/// The arithmetic is chosen once, by precision: a ladder rung at
/// `prec <= 53` ([`HDR_FAST_PREC`]) runs on [`HdrFloat`] (hardware
/// `f64` mantissa, bit-identical to the 53-bit [`Context`]), while
/// higher precisions — including the oracle-grade 192-bit trace of
/// Figure 1 — run on `ctx` itself. Snapshot masses are summed in
/// `Context::new(64)` either way.
///
/// # Panics
///
/// Panics if any observation symbol is out of range.
#[must_use]
pub fn forward_trace_rt(
    model: &Hmm,
    obs: &[usize],
    ctx: &Context,
    stride: usize,
    rt: &Runtime,
) -> Vec<TracePoint> {
    let mass = Context::new(64);
    if ctx.prec() <= HDR_FAST_PREC {
        trace(&Scalar::<HdrFloat>::new(), model, obs, stride, rt, |v| {
            mass.sum(&v.iter().map(HdrFloat::to_bigfloat).collect::<Vec<_>>())
        })
    } else {
        trace(ctx, model, obs, stride, rt, |v| mass.sum(v))
    }
}

/// The Figure 1 snapshot hook over [`recurrence`] in arithmetic `ar`;
/// `mass` sums one snapshot row exactly enough to read its exponent.
fn trace<A: Arith>(
    ar: &A,
    model: &Hmm,
    obs: &[usize],
    stride: usize,
    rt: &Runtime,
    mass: impl Fn(&[A::V]) -> BigFloat + Sync,
) -> Vec<TracePoint>
where
    A::V: Send + Sync,
{
    let stride = stride.max(1);
    // The sequential recurrence snapshots alpha at recorded iterations;
    // the exponent extraction (one small-context oracle sum per
    // snapshot) is an independent map and flushes through `rt` in
    // bounded batches, so memory stays O(batch * H) even at stride 1
    // while snapshot order keeps the output identical to a serial run.
    const FLUSH_BATCH: usize = 256;
    let mut snapshots: Vec<(usize, Vec<A::V>)> = Vec::new();
    let mut out: Vec<TracePoint> = Vec::new();
    let flush = |snapshots: &mut Vec<(usize, Vec<A::V>)>, out: &mut Vec<TracePoint>| {
        let points = rt.par_map(snapshots, |(t, v)| {
            mass(v)
                .exponent()
                .map(|exponent| TracePoint { t: *t, exponent })
        });
        out.extend(points.into_iter().flatten());
        snapshots.clear();
    };
    recurrence(ar, &model.prepare_in(ar), obs, |t, alpha| {
        if t % stride == 0 {
            snapshots.push((t, alpha.to_vec()));
            if snapshots.len() >= FLUSH_BATCH {
                flush(&mut snapshots, &mut out);
            }
        }
    });
    flush(&mut snapshots, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use compstat_posit::{P64E12, P64E18};

    /// The classic umbrella/weather textbook HMM with a hand-computable
    /// likelihood.
    fn toy() -> Hmm {
        Hmm::new(
            2,
            2,
            vec![0.7, 0.3, 0.3, 0.7],
            vec![0.9, 0.1, 0.2, 0.8],
            vec![0.5, 0.5],
        )
    }

    /// Brute-force likelihood: sum over all state paths.
    fn brute_force(m: &Hmm, obs: &[usize]) -> f64 {
        let h = m.num_states();
        let t = obs.len();
        let mut total = 0.0;
        let paths = h.pow(t as u32);
        for code in 0..paths {
            let mut states = Vec::with_capacity(t);
            let mut c = code;
            for _ in 0..t {
                states.push(c % h);
                c /= h;
            }
            let mut p = m.pi(states[0]) * m.b(states[0], obs[0]);
            for i in 1..t {
                p *= m.a(states[i - 1], states[i]) * m.b(states[i], obs[i]);
            }
            total += p;
        }
        total
    }

    #[test]
    fn matches_brute_force_enumeration() {
        let m = toy();
        let obs = [0usize, 1, 0, 0, 1];
        let want = brute_force(&m, &obs);
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        assert!((f - want).abs() < 1e-14, "f64 forward {f} vs brute {want}");
        let p: P64E12 = forward(&m.prepare(), &obs);
        assert!((p.to_f64() - want).abs() < 1e-12);
        let l = forward_log(&m, &obs);
        assert!((l.to_f64() - want).abs() < 1e-12);
        let ctx = Context::new(256);
        let o = forward_oracle(&m, &obs, &ctx);
        assert!((o.to_f64() - want).abs() < 1e-14);
        let s = forward_scaled(&m, &obs);
        assert!((s.ln_likelihood - want.ln()).abs() < 1e-12);
    }

    #[test]
    fn empty_observation_gives_probability_one() {
        let m = toy();
        assert_eq!(forward::<f64>(&m.prepare(), &[]), 1.0);
        assert_eq!(forward_log(&m, &[]).to_f64(), 1.0);
    }

    #[test]
    fn all_formats_agree_on_moderate_length() {
        let m = toy();
        let obs: Vec<usize> = (0..200).map(|i| (i * 7 + 3) % 2).collect();
        let ctx = Context::new(256);
        let oracle = forward_oracle(&m, &obs, &ctx);
        let oe = oracle.exponent().unwrap();
        // Likelihood of a 200-step sequence is small but within f64 range.
        assert!(oe < -100 && oe > -1000, "exponent {oe}");
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        let rel = (f / oracle.to_f64() - 1.0).abs();
        assert!(rel < 1e-10, "f64 rel err {rel}");
        let p: P64E18 = forward(&m.prepare(), &obs);
        let rel = (p.to_f64() / oracle.to_f64() - 1.0).abs();
        assert!(rel < 1e-8, "posit rel err {rel}");
        let l = forward_log(&m, &obs);
        let want_ln = forward_scaled(&m, &obs).ln_likelihood;
        assert!((l.ln_value() - want_ln).abs() < 1e-8);
    }

    #[test]
    fn binary64_underflows_on_long_sequences_but_posit_does_not() {
        // The paper's Section II story at miniature scale: after enough
        // iterations the f64 alpha hits zero while posit keeps going.
        let m = toy();
        let obs: Vec<usize> = (0..30_000).map(|i| (i * 13 + 1) % 2).collect();
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        assert_eq!(f, 0.0, "binary64 must underflow");
        let p: P64E18 = forward(&m.prepare(), &obs);
        assert!(!p.is_zero(), "posit must not underflow");
        let l = forward_log(&m, &obs);
        assert!(!l.is_zero());
        // And the two survivors agree.
        let p_ln = compstat_core::error::log10_abs(&p.to_bigfloat()) / core::f64::consts::LOG10_E;
        assert!(
            (p_ln - l.ln_value()).abs() / l.ln_value().abs() < 1e-6,
            "posit ln {p_ln} vs log-space {}",
            l.ln_value()
        );
    }

    #[test]
    fn trace_exponents_decrease_linearly() {
        let m = toy();
        let obs: Vec<usize> = (0..2_000).map(|i| (i * 13 + 1) % 2).collect();
        let ctx = Context::new(128);
        let trace = forward_trace(&m, &obs, &ctx, 100);
        assert_eq!(trace.len(), 20);
        // Strictly decreasing, roughly linear (Figure 1's shape).
        for w in trace.windows(2) {
            assert!(w[1].exponent < w[0].exponent);
        }
        let total_drop = trace[0].exponent - trace[19].exponent;
        let per_step = total_drop as f64 / 1_900.0;
        assert!(
            per_step > 0.3 && per_step < 3.0,
            "decay {per_step} bits/step"
        );
    }

    #[test]
    fn trace_fast_tier_tracks_the_oracle_trace() {
        // A prec <= 53 ladder rung runs the recurrence on HdrFloat
        // (hardware f64 + software exponent). Its exponents must track
        // the 128-bit trace to within accumulated-rounding slack even
        // thousands of binades below f64's range.
        let m = toy();
        let obs: Vec<usize> = (0..4_000).map(|i| (i * 13 + 1) % 2).collect();
        let fast = forward_trace(&m, &obs, &Context::new(53), 200);
        let big = forward_trace(&m, &obs, &Context::new(128), 200);
        assert_eq!(fast.len(), big.len());
        for (f, b) in fast.iter().zip(&big) {
            assert_eq!(f.t, b.t);
            assert!(
                (f.exponent - b.exponent).abs() <= 1,
                "t={} fast {} vs oracle {}",
                f.t,
                f.exponent,
                b.exponent
            );
        }
        // The tail is far outside binary64's reach, proving the fast
        // path was carrying an HDR exponent, not an f64.
        assert!(big.last().unwrap().exponent < -2_000);
    }

    #[test]
    fn hdr_forward_matches_oracle_where_binary64_underflows() {
        // forward::<HdrFloat> on the sequence that zeroes binary64:
        // same 53-bit mantissa arithmetic, but the likelihood survives
        // with the oracle's exponent.
        let m = toy();
        let obs: Vec<usize> = (0..30_000).map(|i| (i * 13 + 1) % 2).collect();
        let f: f64 = forward(&m.prepare::<f64>(), &obs);
        assert_eq!(f, 0.0);
        let h: HdrFloat = forward(&m.prepare(), &obs);
        assert!(!h.is_zero());
        let ctx = Context::new(256);
        let oracle = forward_oracle(&m, &obs, &ctx);
        let rel = compstat_core::error::relative_error(&oracle, &h.to_bigfloat(), &ctx);
        assert!(
            rel.within(-10.0),
            "hdr log10 rel err {} class {:?}",
            rel.log10_rel,
            rel.class
        );
    }

    #[test]
    fn hdr_forward_is_context53_bit_for_bit() {
        // The premise of forward_trace_rt's selection by precision, at
        // the level of the whole recurrence: on the sequence that zeroes
        // binary64, HdrFloat and Context::new(53) agree to the bit.
        let m = toy();
        let obs: Vec<usize> = (0..30_000).map(|i| (i * 13 + 1) % 2).collect();
        let h: HdrFloat = forward(&m.prepare(), &obs);
        assert!(!h.is_zero());
        let c = forward_oracle(&m, &obs, &Context::new(53));
        assert!(
            compstat_bigfloat::bit_identical(&h.to_bigfloat(), &c),
            "hdr {h:?} vs Context::new(53) {c:?}"
        );
    }

    #[test]
    fn scaled_forward_matches_oracle_log_likelihood() {
        let m = toy();
        let obs: Vec<usize> = (0..5_000).map(|i| (i * 13 + 1) % 2).collect();
        let ctx = Context::new(256);
        let oracle = forward_oracle(&m, &obs, &ctx);
        let s = forward_scaled(&m, &obs);
        let oracle_ln = ctx.ln(&oracle).to_f64();
        assert!(
            (s.ln_likelihood - oracle_ln).abs() < 1e-6 * oracle_ln.abs(),
            "scaled {} vs oracle {}",
            s.ln_likelihood,
            oracle_ln
        );
        assert_eq!(s.rescales, 5_000);
    }
}
