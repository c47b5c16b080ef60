//! The arithmetic-level accuracy experiment of Section IV-A / Figure 3:
//! individual add and multiply operations across result-magnitude
//! buckets, per number format, measured against the oracle.

use crate::error::{measure, ErrorClass, ErrorMeasurement};
use crate::sample::SampledOp;
use crate::statfloat::StatFloat;
use crate::stats::BoxStats;
use compstat_bigfloat::Context;

/// The two operations statistical kernels are built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Addition (log-space: LSE).
    Add,
    /// Multiplication (log-space: add).
    Mul,
}

/// A half-open base-2 exponent range `[lo, hi)` of operation *results* —
/// one x-axis bucket in Figure 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ExponentBucket {
    /// Inclusive lower exponent.
    pub lo: i64,
    /// Exclusive upper exponent.
    pub hi: i64,
}

impl ExponentBucket {
    /// True if `e` falls in this bucket.
    #[must_use]
    pub fn contains(&self, e: i64) -> bool {
        (self.lo..self.hi).contains(&e)
    }

    /// Label like `[-10000, -8000)` as printed under Figure 3.
    #[must_use]
    pub fn label(&self) -> String {
        format!("[{}, {})", self.lo, self.hi)
    }
}

/// The nine buckets of Figure 3 (note `[-10, 0]` is closed in the paper;
/// we use `[-10, 1)` which is identical for integer exponents).
#[must_use]
pub fn figure3_buckets() -> Vec<ExponentBucket> {
    [
        (-10_000, -8_000),
        (-8_000, -6_000),
        (-6_000, -4_000),
        (-4_000, -2_000),
        (-2_000, -1_022),
        (-1_022, -500),
        (-500, -100),
        (-100, -10),
        (-10, 1),
    ]
    .into_iter()
    .map(|(lo, hi)| ExponentBucket { lo, hi })
    .collect()
}

/// The eight buckets of Figure 9 (p-value magnitudes). The bucket edges
/// are format range boundaries: -31,744 is posit(64,9)'s minpos exponent,
/// -4,096 relates to posit(64,12) regime structure, -1,022 is binary64's
/// normal floor, -200 is LoFreq's significance threshold.
#[must_use]
pub fn figure9_buckets() -> Vec<ExponentBucket> {
    [
        (-440_000, -100_000),
        (-100_000, -31_744),
        (-31_744, -16_000),
        (-16_000, -4_096),
        (-4_096, -1_022),
        (-1_022, -500),
        (-500, -200),
        (-200, 1),
    ]
    .into_iter()
    .map(|(lo, hi)| ExponentBucket { lo, hi })
    .collect()
}

/// Per-bucket accuracy of one format: the box statistics of
/// `log10(relative error)` plus underflow/invalid counts.
#[derive(Clone, Debug)]
pub struct BucketAccuracy {
    /// The result-magnitude bucket.
    pub bucket: ExponentBucket,
    /// Five-number summary of `log10` relative error (`None` if no
    /// samples landed in the bucket).
    pub stats: Option<BoxStats>,
    /// Samples whose computed result underflowed to zero.
    pub underflows: usize,
    /// Samples whose computed result was NaN/NaR/inf.
    pub invalid: usize,
    /// Total samples in the bucket.
    pub total: usize,
}

/// One measured operation of an accuracy sweep: the index of the
/// bucket its exact result falls in, and the format's error on it.
pub type OpRecord = (usize, ErrorMeasurement);

/// Runs one format over a pre-sampled operation corpus, yielding one
/// [`OpRecord`] per operation whose exact-result exponent lands in a
/// bucket, in corpus order.
///
/// Each record depends only on its own operation, so a corpus may be
/// cut into any chunks and measured in parallel: concatenating the
/// chunks' records in order gives exactly the records of the whole.
pub fn op_records<T: StatFloat>(
    op: OpKind,
    corpus: &[SampledOp],
    buckets: &[ExponentBucket],
    ctx: &Context,
) -> Vec<OpRecord> {
    corpus
        .iter()
        .filter_map(|s| {
            let e = s.exact.exponent()?;
            let idx = buckets.iter().position(|b| b.contains(e))?;
            let a = T::from_bigfloat(&s.a);
            let b = T::from_bigfloat(&s.b);
            let r = match op {
                OpKind::Add => a.add(b),
                OpKind::Mul => a.mul(b),
            };
            Some((idx, measure(&s.exact, &r, ctx)))
        })
        .collect()
}

/// Folds records, in order, into per-bucket accuracy.
///
/// `Exact` measurements enter the statistics at `floor_log10` (the plot
/// floor), mirroring how a log-scale box plot would render them.
pub fn aggregate_records<'a>(
    records: impl IntoIterator<Item = &'a OpRecord>,
    buckets: &[ExponentBucket],
    floor_log10: f64,
) -> Vec<BucketAccuracy> {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); buckets.len()];
    let mut underflows = vec![0usize; buckets.len()];
    let mut invalid = vec![0usize; buckets.len()];
    let mut totals = vec![0usize; buckets.len()];

    for &(idx, m) in records {
        totals[idx] += 1;
        match m.class {
            ErrorClass::Exact => samples[idx].push(floor_log10),
            ErrorClass::Normal => samples[idx].push(m.log10_rel),
            ErrorClass::UnderflowToZero => {
                underflows[idx] += 1;
                samples[idx].push(0.0);
            }
            ErrorClass::Invalid => invalid[idx] += 1,
        }
    }

    buckets
        .iter()
        .enumerate()
        .map(|(i, &bucket)| BucketAccuracy {
            bucket,
            stats: BoxStats::from_samples(&samples[i]),
            underflows: underflows[i],
            invalid: invalid[i],
            total: totals[i],
        })
        .collect()
}

/// Runs one format over a pre-sampled operation corpus and buckets the
/// errors by exact-result exponent: [`op_records`] followed by
/// [`aggregate_records`].
pub fn bucketed_accuracy<T: StatFloat>(
    op: OpKind,
    corpus: &[SampledOp],
    buckets: &[ExponentBucket],
    floor_log10: f64,
    ctx: &Context,
) -> Vec<BucketAccuracy> {
    aggregate_records(
        &op_records::<T>(op, corpus, buckets, ctx),
        buckets,
        floor_log10,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{sample_additions, sample_multiplications};
    use compstat_logspace::LogF64;
    use compstat_posit::{P64E18, P64E9};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn buckets_cover_paper_ranges() {
        let b3 = figure3_buckets();
        assert_eq!(b3.len(), 9);
        assert_eq!(b3[0].label(), "[-10000, -8000)");
        assert!(b3[4].contains(-1_023));
        assert!(b3[5].contains(-1_022));
        assert!(b3[8].contains(0));
        assert!(!b3[8].contains(1));
        assert_eq!(figure9_buckets().len(), 8);
    }

    #[test]
    fn binary64_is_accurate_in_range_and_dead_outside() {
        let ctx = Context::new(256);
        let mut rng = StdRng::seed_from_u64(7);
        let corpus = sample_multiplications(&mut rng, 400, -4_000, 0, &ctx);
        let buckets = figure3_buckets();
        let acc = bucketed_accuracy::<f64>(OpKind::Mul, &corpus, &buckets, -18.5, &ctx);
        // In-range bucket [-500,-100): median error near 1 ulp (~1e-16).
        let in_range = &acc[6];
        if let Some(st) = &in_range.stats {
            assert!(st.p50 < -15.0, "median {}", st.p50);
        }
        // Out-of-range bucket [-4000,-2000): everything underflows.
        let out = &acc[3];
        assert!(out.total > 0);
        assert_eq!(
            out.underflows, out.total,
            "binary64 must underflow below 2^-1074"
        );
    }

    #[test]
    fn posit_beats_log_below_binary64_range() {
        // The paper's second key takeaway, in miniature: posit(64,18) has
        // lower median error than log-space in the [-6000,-4000) bucket.
        let ctx = Context::new(256);
        let mut rng = StdRng::seed_from_u64(11);
        let corpus = sample_additions(&mut rng, 300, -6_000, -4_000, 40, &ctx);
        let buckets = figure3_buckets();
        let log_acc = bucketed_accuracy::<LogF64>(OpKind::Add, &corpus, &buckets, -18.5, &ctx);
        let posit_acc = bucketed_accuracy::<P64E18>(OpKind::Add, &corpus, &buckets, -18.5, &ctx);
        let (lb, pb) = (&log_acc[2], &posit_acc[2]);
        let (ls, ps) = (lb.stats.as_ref().unwrap(), pb.stats.as_ref().unwrap());
        assert!(
            ps.p50 < ls.p50,
            "posit median {} should beat log median {}",
            ps.p50,
            ls.p50
        );
    }

    /// Records computed chunk by chunk and aggregated in order must
    /// reproduce the one-pass result exactly, for every chunking.
    fn assert_chunked_aggregation_is_exact<T: StatFloat>(corpus: &[SampledOp], ctx: &Context) {
        let buckets = figure3_buckets();
        for op in [OpKind::Add, OpKind::Mul] {
            let whole = bucketed_accuracy::<T>(op, corpus, &buckets, -18.5, ctx);
            assert!(
                whole.iter().any(|a| a.total > 0),
                "{} {op:?}: empty",
                T::NAME
            );
            for chunk in [1, 7, 64, corpus.len() - 1, corpus.len()] {
                let records: Vec<Vec<OpRecord>> = corpus
                    .chunks(chunk)
                    .map(|c| op_records::<T>(op, c, &buckets, ctx))
                    .collect();
                let got = aggregate_records(records.iter().flatten(), &buckets, -18.5);
                assert_eq!(got.len(), whole.len());
                for (g, w) in got.iter().zip(&whole) {
                    let what = format!("{} {op:?} chunk {chunk} {}", T::NAME, w.bucket.label());
                    assert_eq!(g.bucket, w.bucket, "{what}");
                    assert_eq!(
                        (g.total, g.underflows, g.invalid),
                        (w.total, w.underflows, w.invalid),
                        "{what}"
                    );
                    let bits = |a: &BucketAccuracy| {
                        a.stats.as_ref().map(|s| {
                            let q = [s.p5, s.p25, s.p50, s.p75, s.p95];
                            (q.map(f64::to_bits), s.count)
                        })
                    };
                    assert_eq!(bits(g), bits(w), "{what}");
                }
            }
        }
    }

    #[test]
    fn chunked_records_aggregate_to_the_one_pass_result() {
        // Magnitudes span binary64's range and well beyond it, so the
        // corpus exercises normal, exact, underflow and saturated
        // results in several buckets.
        let ctx = Context::new(256);
        let mut rng = StdRng::seed_from_u64(19);
        let mut corpus = sample_additions(&mut rng, 150, -10_050, 0, 60, &ctx);
        corpus.extend(sample_multiplications(&mut rng, 150, -10_050, 0, &ctx));
        assert_chunked_aggregation_is_exact::<f64>(&corpus, &ctx);
        assert_chunked_aggregation_is_exact::<LogF64>(&corpus, &ctx);
        assert_chunked_aggregation_is_exact::<P64E18>(&corpus, &ctx);
    }

    #[test]
    fn posit64_9_underflows_below_its_range() {
        let ctx = Context::new(256);
        let mut rng = StdRng::seed_from_u64(13);
        // Products near 2^-40000: below posit(64,9) minpos (2^-31744).
        let corpus = sample_multiplications(&mut rng, 50, -40_000, -35_000, &ctx);
        let bucket = [ExponentBucket {
            lo: -45_000,
            hi: -30_000,
        }];
        let acc = bucketed_accuracy::<P64E9>(OpKind::Mul, &corpus, &bucket, -18.5, &ctx);
        // posit never rounds to zero: it saturates at minpos, producing
        // huge relative errors instead of underflows.
        assert_eq!(acc[0].underflows, 0);
        let st = acc[0].stats.as_ref().unwrap();
        assert!(st.p50 > 0.0, "saturation errors exceed 100%: {}", st.p50);
    }
}
