//! Figure 3: relative error of individual add/multiply operations across
//! result-magnitude buckets, per format (box statistics).

use super::op_sweep::{op_accuracy, render_panel, OpFormat};
use crate::Scale;
use compstat_bigfloat::Context;
use compstat_core::accuracy::{figure3_buckets, OpKind};
use compstat_core::report::Report;
use compstat_core::sample::{sample_additions, sample_multiplications, SampledOp};
use compstat_logspace::LogF64;
use compstat_posit::{P64E12, P64E18, P64E9};
use compstat_runtime::Runtime;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FLOOR_LOG10: f64 = -18.5;

/// The Figure 3 format set.
fn formats() -> [OpFormat; 5] {
    [
        OpFormat::of::<f64>(),
        OpFormat::of::<LogF64>(),
        OpFormat::of::<P64E9>(),
        OpFormat::of::<P64E12>(),
        OpFormat::of::<P64E18>(),
    ]
}

/// Registry name of this experiment.
pub const NAME: &str = "fig03";
/// Registry title of this experiment.
pub const TITLE: &str = "Figure 3: relative error of individual operations by magnitude bucket";

/// Runs the full Figure 3 experiment (both panels) and builds box
/// statistics per bucket per format. Every `(format, op)` measurement
/// runs through `rt`; reports are bitwise-identical for every thread
/// count.
#[must_use]
pub fn report(scale: Scale, rt: &Runtime) -> Report {
    // Paper: 1,000,000 adds and 550,000 multiplies.
    let n_add = scale.pick(1_500, 24_000, 1_000_000);
    let n_mul = scale.pick(1_000, 16_000, 550_000);
    let ctx = Context::new(256);
    let mut rng = StdRng::seed_from_u64(3);
    let adds = sample_additions(&mut rng, n_add, -10_050, 0, 60, &ctx);
    let muls = sample_multiplications(&mut rng, n_mul, -10_050, 0, &ctx);

    let mut r = Report::new(NAME, TITLE, scale)
        .param("n_add", n_add)
        .param("n_mul", n_mul)
        .param("seed", 3);
    r.metric("n_add", n_add as f64);
    r.metric("n_mul", n_mul as f64);
    panel(&mut r, "(a) Addition", OpKind::Add, &adds, &ctx, rt);
    r.text("\n");
    panel(&mut r, "(b) Multiplication", OpKind::Mul, &muls, &ctx, rt);
    r
}

/// [`report`] rendered as text (the pre-engine report surface).
#[must_use]
pub fn figure3_report(scale: Scale, rt: &Runtime) -> String {
    report(scale, rt).render_text()
}

fn panel(
    r: &mut Report,
    title: &str,
    op: OpKind,
    corpus: &[SampledOp],
    ctx: &Context,
    rt: &Runtime,
) {
    let buckets = figure3_buckets();
    let results = op_accuracy(&formats(), op, corpus, &buckets, FLOOR_LOG10, ctx, rt);
    render_panel(r, title, &buckets, &results);
}

/// Extracts median log10 errors per (format, bucket) for assertions.
#[must_use]
pub fn figure3_medians(
    op: OpKind,
    n: usize,
    seed: u64,
    rt: &Runtime,
) -> Vec<(&'static str, Vec<Option<f64>>)> {
    let ctx = Context::new(256);
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = match op {
        OpKind::Add => sample_additions(&mut rng, n, -10_050, 0, 60, &ctx),
        OpKind::Mul => sample_multiplications(&mut rng, n, -10_050, 0, &ctx),
    };
    let buckets = figure3_buckets();
    op_accuracy(&formats(), op, &corpus, &buckets, FLOOR_LOG10, &ctx, rt)
        .into_iter()
        .map(|(name, acc)| {
            let medians = acc
                .iter()
                .map(|a| a.stats.as_ref().map(|s| s.p50))
                .collect();
            (name, medians)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_both_panels() {
        let r = figure3_report(Scale::Quick, &Runtime::with_threads(2));
        assert!(r.contains("(a) Addition"));
        assert!(r.contains("(b) Multiplication"));
        assert!(r.contains("[-10, 1)"));
        assert!(r.contains("(underflows)"));
    }

    #[test]
    fn paper_takeaways_hold_on_medians() {
        // Key takeaway 1: within binary64's normal range, log-space is
        // *less* accurate than binary64, and the gap grows as numbers
        // shrink. Key takeaway 2: outside the range, posits beat log.
        let med = figure3_medians(OpKind::Mul, 4_000, 17, &Runtime::from_env());
        let get = |name: &str| {
            med.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
                .expect("format present")
        };
        let b64 = get("binary64");
        let log = get("Log");
        let p18 = get("posit(64,18)");
        let p9 = get("posit(64,9)");
        // Bucket 7 = [-100, -10): binary64 more accurate than log.
        let (Some(b), Some(l)) = (b64[7], log[7]) else {
            panic!("missing medians")
        };
        assert!(b < l, "binary64 median {b} must beat log {l} in range");
        // Log accuracy degrades as magnitudes shrink within range:
        // bucket 5 [-1022,-500) worse than bucket 8 [-10, 1).
        let (Some(l5), Some(l8)) = (log[5], log[8]) else {
            panic!()
        };
        assert!(l5 > l8, "log error grows as numbers shrink: {l5} vs {l8}");
        // Outside binary64's range (bucket 2 = [-6000,-4000)): posit(64,18)
        // beats log.
        let (Some(p), Some(l2)) = (p18[2], log[2]) else {
            panic!()
        };
        assert!(p < l2, "posit(64,18) {p} must beat log {l2} out of range");
        // posit(64,9) is the most accurate format within binary64's range.
        let (Some(p9m), Some(bm)) = (p9[8], b64[8]) else {
            panic!()
        };
        assert!(
            p9m <= bm + 0.2,
            "posit(64,9) {p9m} ~ binary64 {bm} near 1.0"
        );
    }
}
