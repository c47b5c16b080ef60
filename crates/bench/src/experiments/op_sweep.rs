//! The op-accuracy sweep shared by `fig03`, `hdr` and `ablation-es`:
//! every sampled operation measured in every format against the
//! oracle, bucketed by result magnitude.
//!
//! Formats differ wildly in cost (a log-space add is a 192-bit
//! `ln`/`exp` round trip, a binary64 add is one instruction), so the
//! sweep is not mapped over formats. The formats run in turn, and
//! within each one every run of `OPS_PER_JOB` ops is a runtime job;
//! only one format's records are alive at a time. Each format's
//! records are aggregated in corpus order, which gives exactly the
//! one-pass [`bucketed_accuracy`](compstat_core::accuracy::bucketed_accuracy)
//! result at any thread count.

use compstat_bigfloat::Context;
use compstat_core::accuracy::{
    aggregate_records, op_records, BucketAccuracy, ExponentBucket, OpKind, OpRecord,
};
use compstat_core::report::{fmt_f64, Report, Table};
use compstat_core::sample::SampledOp;
use compstat_core::StatFloat;
use compstat_runtime::Runtime;

/// Sampled operations per runtime job.
const OPS_PER_JOB: usize = 256;

type RecordFn = fn(OpKind, &[SampledOp], &[ExponentBucket], &Context) -> Vec<OpRecord>;

/// One format of the sweep: its report name and its record pass.
#[derive(Clone, Copy)]
pub struct OpFormat {
    name: &'static str,
    records: RecordFn,
}

impl OpFormat {
    /// The sweep entry of format `T`, named [`StatFloat::NAME`].
    #[must_use]
    pub fn of<T: StatFloat>() -> OpFormat {
        OpFormat {
            name: T::NAME,
            records: op_records::<T>,
        }
    }
}

/// Per-bucket accuracy of each format, in `formats` order, each entry
/// tagged with the format's name.
#[must_use]
pub fn op_accuracy(
    formats: &[OpFormat],
    op: OpKind,
    corpus: &[SampledOp],
    buckets: &[ExponentBucket],
    floor_log10: f64,
    ctx: &Context,
    rt: &Runtime,
) -> Vec<(&'static str, Vec<BucketAccuracy>)> {
    let jobs: Vec<&[SampledOp]> = corpus.chunks(OPS_PER_JOB).collect();
    formats
        .iter()
        .map(|fmt| {
            let records = rt.par_map(&jobs, |ops| (fmt.records)(op, ops, buckets, ctx));
            let acc = aggregate_records(records.iter().flatten(), buckets, floor_log10);
            (fmt.name, acc)
        })
        .collect()
}

/// Renders one Figure 3-style panel: five-number summaries of
/// `log10(relative error)` per bucket per format.
pub fn render_panel(
    r: &mut Report,
    title: &str,
    buckets: &[ExponentBucket],
    results: &[(&str, Vec<BucketAccuracy>)],
) {
    let mut t = Table::new(vec![
        "bucket (result exp)".into(),
        "format".into(),
        "p5".into(),
        "p25".into(),
        "median".into(),
        "p75".into(),
        "p95".into(),
        "n".into(),
        "underflow".into(),
    ]);
    for (bi, bucket) in buckets.iter().enumerate() {
        for (name, acc) in results {
            let a = &acc[bi];
            let mut row = vec![bucket.label(), (*name).into()];
            // The paper omits binary64 outside its range (all underflow).
            if *name == "binary64" && a.total > 0 && a.underflows == a.total {
                row.push("(underflows)".into());
                row.extend(std::iter::repeat_n(String::new(), 4));
            } else if let Some(s) = &a.stats {
                row.extend([s.p5, s.p25, s.p50, s.p75, s.p95].map(|x| fmt_f64(x, 2)));
            } else {
                row.push("-".into());
                row.extend(std::iter::repeat_n(String::new(), 4));
            }
            row.extend([a.total.to_string(), a.underflows.to_string()]);
            t.row(row);
        }
    }
    r.text(format!(
        "{title} — log10(relative error), five-number summaries\n"
    ));
    r.table(t);
}

/// The median of `name`'s `bucket`, if the format is present and the
/// bucket holds samples.
#[must_use]
pub fn median_of(
    results: &[(&str, Vec<BucketAccuracy>)],
    name: &str,
    bucket: usize,
) -> Option<f64> {
    results
        .iter()
        .find(|(n, _)| *n == name)
        .and_then(|(_, acc)| acc[bucket].stats.as_ref().map(|s| s.p50))
}
