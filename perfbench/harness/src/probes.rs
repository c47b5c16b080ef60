//! Per-layer timings taken from outside each crate, through its public
//! functions, on seeded inputs of the workload's shapes. Each probe
//! runs inside a span so the trace shows where the traced run spent
//! its time.

use std::hint::black_box;
use std::path::Path;

use compstat_bench::timing::{oracle_suite, time_entry};
use compstat_bench::Scale;
use compstat_bigfloat::{BigFloat, Context, HdrFloat};
use compstat_core::bench_doc::BenchDoc;
use compstat_core::cache::{CacheKey, OracleCache};
use compstat_core::StatFloat;
use compstat_hmm::Hmm;
use compstat_logspace::LogF64;
use compstat_pbd::Column;
use compstat_posit::P64E18;
use compstat_runtime::{CacheMode, Runtime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spans::Recorder;
use crate::Metrics;

const POOL: usize = 64;

/// `count` seeded full-width `prec`-bit operands with exponents spread
/// over ±60, so every format under test holds them without
/// saturating.
#[must_use]
pub fn operand_pool(seed: u64, prec: u32, count: usize) -> Vec<BigFloat> {
    let mut rng = StdRng::seed_from_u64(seed);
    let limbs = (prec as usize).div_ceil(64);
    let ctx = Context::new((limbs * 64) as u32);
    (0..count)
        .map(|_| {
            let mut acc = BigFloat::zero();
            for i in 0..limbs {
                let mut limb: u64 = rng.gen();
                if i == 0 {
                    limb |= 1 << 63;
                }
                acc = ctx.add(&acc.mul_pow2(64), &BigFloat::from_u64(limb));
            }
            let exp: i64 = rng.gen_range(-60..=60);
            acc.round_to(prec).mul_pow2(exp - 64 * limbs as i64)
        })
        .collect()
}

/// Median ns per call of `op(i)` over `iters` calls, `i` cycling
/// through the operand pool.
fn ns_per_op(id: &str, iters: u64, mut op: impl FnMut(usize)) -> f64 {
    let mut i = 0usize;
    time_entry(id, iters, 5, || {
        op(i % POOL);
        i += 1;
    })
    .median_ns
}

fn format_ops<T: StatFloat>(pool: &[BigFloat], iters: u64, div: bool) -> [f64; 3] {
    let xs: Vec<T> = pool.iter().map(T::from_bigfloat).collect();
    let pair = |i: usize| (black_box(xs[i]), black_box(xs[(i + 7) % POOL]));
    let add = ns_per_op("add", iters, |i| {
        let (a, b) = pair(i);
        black_box(a.add(b));
    });
    let mul = ns_per_op("mul", iters, |i| {
        let (a, b) = pair(i);
        black_box(a.mul(b));
    });
    let div = if div {
        ns_per_op("div", iters, |i| {
            let (a, b) = pair(i);
            black_box(a.div(b));
        })
    } else {
        0.0
    };
    [add, mul, div]
}

/// Op-level rows: bigfloat `Context` add/mul/div at 192 and 256 bits,
/// the 64-bit formats' add/mul, and div for HdrFloat and posit.
pub fn ops(rec: &mut Recorder, seed: u64, m: &mut Metrics) {
    let pool = operand_pool(seed, 256, POOL);
    rec.span("probe.bigfloat", |_| {
        for prec in [192u32, 256] {
            let ctx = Context::new(prec);
            let xs: Vec<BigFloat> = pool.iter().map(|x| x.round_to(prec)).collect();
            let pair = |i: usize| (black_box(&xs[i]), black_box(&xs[(i + 7) % POOL]));
            for (op, iters) in [("add", 20_000u64), ("mul", 20_000), ("div", 5_000)] {
                let ns = ns_per_op(op, iters, |i| {
                    let (a, b) = pair(i);
                    black_box(match op {
                        "add" => ctx.add(a, b),
                        "mul" => ctx.mul(a, b),
                        _ => ctx.div(a, b),
                    });
                });
                m.push(format!("bigfloat.{op}.{prec}_ns"), ns, "ns");
            }
        }
    });
    rec.span("probe.formats", |_| {
        let [a, mu, d] = format_ops::<HdrFloat>(&pool, 200_000, true);
        m.push("bigfloat.hdr.add_ns", a, "ns");
        m.push("bigfloat.hdr.mul_ns", mu, "ns");
        m.push("bigfloat.hdr.div_ns", d, "ns");
        let [a, mu, d] = format_ops::<P64E18>(&pool, 200_000, true);
        m.push("posit.add_ns", a, "ns");
        m.push("posit.mul_ns", mu, "ns");
        m.push("posit.div_ns", d, "ns");
        let [a, mu, _] = format_ops::<LogF64>(&pool, 200_000, false);
        m.push("logspace.add_ns", a, "ns");
        m.push("logspace.mul_ns", mu, "ns");
        let [a, mu, _] = format_ops::<f64>(&pool, 1_000_000, false);
        m.push("binary64.add_ns", a, "ns");
        m.push("binary64.mul_ns", mu, "ns");
    });
}

/// Median seconds of `reps` calls of `f` (after one warm-up call).
fn median_secs(reps: u32, mut f: impl FnMut()) -> f64 {
    time_entry("kernel", 1, reps, &mut f).median_ns * 1e-9
}

fn forward_in<T: StatFloat + Send + Sync>(model: &Hmm, batch: &[Vec<usize>], reps: u32) -> f64 {
    let prepared = model.prepare::<T>();
    median_secs(reps, || {
        for obs in batch {
            black_box(compstat_hmm::forward(&prepared, obs));
        }
    }) / batch.len() as f64
}

/// Kernel rows: one forward pass per format on `batch` (ms per
/// sequence), and the PBD p-value per format on `columns` (µs per
/// column). The 256-bit oracle rows run on `oracle_columns`, a
/// subset, because they cost three orders of magnitude more.
pub fn kernels(
    rec: &mut Recorder,
    model: &Hmm,
    batch: &[Vec<usize>],
    columns: &[Column],
    oracle_columns: &[Column],
    m: &mut Metrics,
) {
    rec.span("probe.hmm.forward", |_| {
        let ms = |s: f64| s * 1e3;
        m.push(
            "hmm.forward.binary64_ms",
            ms(forward_in::<f64>(model, batch, 7)),
            "ms",
        );
        let log = median_secs(7, || {
            for obs in batch {
                black_box(compstat_hmm::forward_log(model, obs));
            }
        }) / batch.len() as f64;
        m.push("hmm.forward.log_ms", ms(log), "ms");
        m.push(
            "hmm.forward.posit64-18_ms",
            ms(forward_in::<P64E18>(model, batch, 7)),
            "ms",
        );
        m.push(
            "hmm.forward.hdr_ms",
            ms(forward_in::<HdrFloat>(model, batch, 7)),
            "ms",
        );
        let ctx = Context::new(256);
        let oracle = median_secs(3, || {
            for obs in batch {
                black_box(compstat_hmm::forward_oracle(model, obs, &ctx));
            }
        }) / batch.len() as f64;
        m.push("hmm.forward.oracle256_ms", ms(oracle), "ms");
    });
    rec.span("probe.pbd.pvalue", |_| {
        fn per_column<T: StatFloat>(columns: &[Column]) -> f64 {
            median_secs(5, || {
                for c in columns {
                    black_box(compstat_pbd::pbd_pvalue::<T>(&c.success_probs, c.k).pvalue);
                }
            }) * 1e6
                / columns.len() as f64
        }
        m.push("pbd.pvalue.binary64_us", per_column::<f64>(columns), "us");
        m.push("pbd.pvalue.log_us", per_column::<LogF64>(columns), "us");
        m.push(
            "pbd.pvalue.posit64-18_us",
            per_column::<P64E18>(columns),
            "us",
        );
        m.push("pbd.pvalue.hdr_us", per_column::<HdrFloat>(columns), "us");
        let ctx = Context::new(256);
        let oracle = median_secs(3, || {
            for c in oracle_columns {
                black_box(compstat_pbd::pbd_pvalue_oracle(&c.success_probs, c.k, &ctx));
            }
        }) * 1e6
            / oracle_columns.len() as f64;
        m.push("pbd.pvalue.oracle256_us", oracle, "us");
    });
}

fn suite_ms(doc: &BenchDoc, id: &str) -> f64 {
    doc.entries
        .iter()
        .find(|e| e.id == id)
        .map_or(0.0, |e| e.median_ns * 1e-6)
}

/// Sweep rows: the quick-scale oracle suite at one thread (`.t1`) and
/// at `threads` (`.tn`, the workloads' thread count), and the parallel
/// efficiency between them.
pub fn sweeps(rec: &mut Recorder, threads: usize, m: &mut Metrics) {
    let (one, many) = rec.span("probe.runtime.sweep", |_| {
        (
            oracle_suite(Scale::Quick, &Runtime::with_threads(1)),
            oracle_suite(Scale::Quick, &Runtime::with_threads(threads)),
        )
    });
    let mut serial = 0.0;
    let mut parallel = 0.0;
    for (id, row) in [
        ("oracle/fig09-fig11", "fig09-fig11"),
        ("oracle/fig10", "fig10"),
    ] {
        let (t1, tn) = (suite_ms(&one, id), suite_ms(&many, id));
        m.push(format!("runtime.sweep.{row}_ms.t1"), t1, "ms");
        m.push(format!("runtime.sweep.{row}_ms.tn"), tn, "ms");
        serial += t1;
        parallel += tn;
    }
    m.push(
        "runtime.par_eff",
        serial / (threads as f64 * parallel),
        "ratio",
    );
}

/// Cache-layer rows: store and load of one entry of `values` 256-bit
/// oracle values in a scratch cache directory (median of 15).
pub fn cache(rec: &mut Recorder, seed: u64, values: usize, dir: &Path, m: &mut Metrics) {
    let pool = operand_pool(seed ^ 0xCAC4E, 256, values);
    let cache = OracleCache::new(dir, CacheMode::ReadWrite);
    let key = CacheKey::new("perfbench/probe").field("values", values);
    let (store, load) = rec.span("probe.core.cache", |_| {
        let store = median_secs(15, || {
            black_box(cache.store(&key, &pool));
        });
        let load = median_secs(15, || {
            black_box(cache.load(&key));
        });
        (store, load)
    });
    m.push("core.cache.store_ms", store * 1e3, "ms");
    m.push("core.cache.load_ms", load * 1e3, "ms");
    let _ = std::fs::remove_dir_all(dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_pools_are_seeded_full_width_and_in_range() {
        let a = operand_pool(5, 192, 8);
        let b = operand_pool(5, 192, 8);
        for (x, y) in a.iter().zip(&b) {
            assert!(compstat_bigfloat::bit_identical(x, y));
            let e = x.exponent().unwrap();
            assert!((-61..=61).contains(&e), "{e}");
            assert!(f64::from_bigfloat(x).is_finite());
        }
        assert!(!compstat_bigfloat::bit_identical(&a[0], &a[1]));
    }
}
