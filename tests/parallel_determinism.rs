//! The differential test suite behind the parallel runtime's central
//! guarantee: for every wired experiment, the report produced with
//! `COMPSTAT_THREADS=1` is **bit-identical** to the one produced with
//! `COMPSTAT_THREADS=4` (and any other thread count).
//!
//! Thread counts are pinned through explicit [`Runtime`] values rather
//! than the environment variable so the cases are self-contained and
//! can run concurrently under the default test harness.

use compstat::runtime::Runtime;
use compstat_bench::experiments;
use compstat_bench::Scale;

fn serial() -> Runtime {
    Runtime::with_threads(1)
}

fn four() -> Runtime {
    Runtime::with_threads(4)
}

#[test]
fn fig01_trace_report_is_bitwise_identical_across_thread_counts() {
    let a = experiments::figure1_report(Scale::Quick, &serial());
    let b = experiments::figure1_report(Scale::Quick, &four());
    assert_eq!(a, b);
}

#[test]
fn fig03_op_accuracy_report_is_bitwise_identical_across_thread_counts() {
    let a = experiments::figure3_report(Scale::Quick, &serial());
    let b = experiments::figure3_report(Scale::Quick, &four());
    assert_eq!(a, b);
}

#[test]
fn fig06_forward_sweep_is_bitwise_identical_across_thread_counts() {
    // The sweep's deterministic payload (posit likelihood bit
    // patterns); the timing report around it is measurement, not data.
    let a = experiments::figure6_sweep_likelihoods(Scale::Quick, &serial());
    let b = experiments::figure6_sweep_likelihoods(Scale::Quick, &four());
    let c = experiments::figure6_sweep_likelihoods(Scale::Quick, &Runtime::with_threads(3));
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn fig09_pvalue_report_is_bitwise_identical_across_thread_counts() {
    let a = experiments::figure9_report(Scale::Quick, &serial());
    let b = experiments::figure9_report(Scale::Quick, &four());
    assert_eq!(a, b);
}

#[test]
fn fig10_vicar_report_is_bitwise_identical_across_thread_counts() {
    // The RNG-dependent sweep: every model and observation sequence is
    // drawn inside the parallel region from per-item split streams, so
    // even the sampled corpus must be independent of the thread count.
    let a = experiments::figure10_report(Scale::Quick, &serial());
    let b = experiments::figure10_report(Scale::Quick, &four());
    assert_eq!(a, b);
}

#[test]
fn fig10_error_samples_are_bitwise_identical_across_thread_counts() {
    // Stronger than string equality: the raw f64 error samples.
    let a = experiments::fig10_vicar::vicar_errors(1_200, 5, 4, 99, &serial());
    let b = experiments::fig10_vicar::vicar_errors(1_200, 5, 4, 99, &four());
    assert_eq!(a.log_errors.len(), 5);
    for (x, y) in a.log_errors.iter().zip(&b.log_errors) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    for (x, y) in a.posit_errors.iter().zip(&b.posit_errors) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn fig11_lofreq_report_is_bitwise_identical_across_thread_counts() {
    let a = experiments::figure11_report(Scale::Quick, &serial());
    let b = experiments::figure11_report(Scale::Quick, &four());
    assert_eq!(a, b);
}

#[test]
fn oversubscribed_runtimes_change_nothing() {
    // More threads than work items: chunking degenerates to one item
    // per thread and the merge order still reproduces the serial run.
    let a = experiments::figure9_report(Scale::Quick, &serial());
    let b = experiments::figure9_report(Scale::Quick, &Runtime::with_threads(64));
    assert_eq!(a, b);
}

#[test]
fn every_registered_experiment_emits_identical_json_across_thread_counts() {
    // The engine-wide guarantee behind `compstat run --out`: for every
    // experiment in the registry, the full JSON document (params,
    // metrics, tables, text — everything the CLI writes to disk) is
    // byte-identical between the serial fallback and 3- and 4-thread
    // runtimes. Three threads cuts every sweep at chunk boundaries
    // unlike the 4-thread ones, so no result may depend on where a
    // chunk starts or which worker claims it. This is the exact
    // property `diff -r reports-t1 reports-t4` checks in CI, run here
    // at the library level.
    for e in compstat_bench::registry() {
        let a = e.run(&serial(), Scale::Quick).to_json_string();
        for rt in [Runtime::with_threads(3), four()] {
            let b = e.run(&rt, Scale::Quick).to_json_string();
            assert_eq!(a, b, "{} JSON drifts at {} threads", e.name(), rt.threads());
        }
    }
}
