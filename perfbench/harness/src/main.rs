//! `perfbench-harness`: the compiled half of the compstat benchmark.
//! `perfbench/run.py` drives it; each subcommand prints one JSON
//! document as its last stdout line.
//!
//! ```text
//! perfbench-harness frames --seed S --closed N --open N --threads T --out DIR
//! perfbench-harness load   --addr H:P --frames DIR --seed S --conns C --rate R --out FILE
//! perfbench-harness trace  --seed S --threads T --scratch DIR --shapes registry|serve
//!                          --registry-scale quick|default --registry-cache on|off
//!                          --reference PATH --frames DIR --load FILE --spans FILE
//! ```
//!
//! * `frames` writes the seeded serve-mixed streams and their offline
//!   reference replies.
//! * `load` runs the closed-loop then the open-loop phase against a
//!   live `compstat serve`, checking every reply byte for byte.
//! * `trace` is the traced run: spans around the calls into each crate
//!   (registry entries, report encoding, `Responder::respond_line`,
//!   ops, kernels, sweeps, cache), self-times per layer, and the cache
//!   counters' deltas.

mod frames;
mod load;
mod probes;
mod spans;
mod stats;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use compstat_bench::experiments::{fig09_pvalues, fig10_vicar};
use compstat_bench::{registry, Scale};
use compstat_core::cache::{self, sha256_hex, CacheStats};
use compstat_core::json::{Json, ParseLimits};
use compstat_runtime::{CacheMode, Runtime};
use compstat_serve::{RequestLimits, Responder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use frames::Verb;
use load::Outcome;
use spans::Recorder;

/// Registry entries with a row of their own. The fpga-model entries
/// (fig04, fig05, tab01..tab04) each cost well under 10 ms; they are
/// still run, checked and traced, but have no rows.
pub const TIMED_EXPERIMENTS: [&str; 12] = [
    "fig01",
    "fig03",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "ablation-es",
    "ablation-lse",
    "ablation-scaled",
    "hdr",
];

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("value", Json::Num(*value)),
                            ("unit", Json::str(*unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

struct Args(HashMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.req(key)?
            .parse()
            .map_err(|_| format!("--{key} needs a number"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.req(key).map(PathBuf::from)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(argv.get(1..).unwrap_or(&[])).and_then(|args| {
        match argv.first().map(String::as_str) {
            Some("frames") => cmd_frames(&args),
            Some("load") => cmd_load(&args),
            Some("trace") => cmd_trace(&args),
            _ => Err("usage: perfbench-harness frames|load|trace [--flag value]...".into()),
        }
    });
    match result {
        Ok(doc) => {
            println!("{}", doc.to_json_string());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench-harness: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn num(x: f64) -> Json {
    Json::Num(x)
}

/// The open stream's seed: decorrelated from the closed stream's.
fn open_seed(seed: u64) -> u64 {
    seed ^ 0x0B5E_55ED_0F0E_4A11
}

fn cmd_frames(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.num("seed")?;
    let out = args.path("out")?;
    let threads: usize = args.num("threads")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let start = Instant::now();
    let closed = frames::stream(seed, "c", args.num("closed")?);
    let open = frames::stream(open_seed(seed), "o", args.num("open")?);
    let all: Vec<&String> = closed.iter().chain(&open).collect();
    let replies = frames::reference_replies(&all, threads);
    let ok = replies
        .values()
        .filter(|r| r.contains("\"ok\":true"))
        .count();
    frames::write_stream(&out, "closed", &closed, &replies).map_err(|e| e.to_string())?;
    frames::write_stream(&out, "open", &open, &replies).map_err(|e| e.to_string())?;
    Ok(Json::obj(vec![
        ("closed", num(closed.len() as f64)),
        ("open", num(open.len() as f64)),
        ("distinct", num(replies.len() as f64)),
        ("distinct_ok", num(ok as f64)),
        ("reference_s", num(start.elapsed().as_secs_f64())),
    ]))
}

fn outcome_json(o: &Outcome) -> Json {
    match o {
        Outcome::Ok => Json::str("ok"),
        Outcome::Busy => Json::str("busy"),
        Outcome::Mismatch(head) => Json::str(format!("mismatch: {head}")),
        Outcome::Dropped(why) => Json::str(format!("dropped: {why}")),
    }
}

fn failures<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> (usize, usize, Vec<Json>) {
    let (mut failed, mut busy, mut examples) = (0, 0, Vec::new());
    for o in outcomes {
        if *o != Outcome::Ok {
            failed += 1;
            busy += usize::from(*o == Outcome::Busy);
            if examples.len() < 5 {
                examples.push(outcome_json(o));
            }
        }
    }
    (failed, busy, examples)
}

fn cmd_load(args: &Args) -> Result<Json, String> {
    let addr = args.req("addr")?.to_string();
    let dir = args.path("frames")?;
    let seed: u64 = args.num("seed")?;
    let conns: usize = args.num("conns")?;
    let rate: f64 = args.num("rate")?;
    let (closed, closed_expect) = frames::read_stream(&dir, "closed")?;
    let (open, open_expect) = frames::read_stream(&dir, "open")?;

    let phase1 = load::closed_loop(&addr, conns, &closed, &closed_expect);
    let schedule = load::schedule(seed, rate, open.len());
    let start = Instant::now();
    let samples = load::open_loop(&schedule, start, |i| {
        load::one_shot(&addr, &open[i], &open_expect[i])
    });
    let open_wall = start.elapsed().as_secs_f64();

    let (c_failed, c_busy, mut examples) = failures(phase1.outcomes.iter());
    let (o_failed, o_busy, more) = failures(samples.iter().map(|s| &s.outcome));
    examples.extend(more);
    let latency_ms: Vec<f64> = samples.iter().map(|s| s.latency_s() * 1e3).collect();
    let late_ms: Vec<f64> = samples.iter().map(|s| s.late_s() * 1e3).collect();
    let completed = phase1.outcomes.len() - c_failed;
    let doc = Json::obj(vec![
        (
            "closed",
            Json::obj(vec![
                ("attempted", num(closed.len() as f64)),
                ("failed", num(c_failed as f64)),
                ("busy", num(c_busy as f64)),
                ("elapsed_s", num(phase1.elapsed_s)),
                ("rps", num(completed as f64 / phase1.elapsed_s)),
            ]),
        ),
        (
            "open",
            Json::obj(vec![
                ("attempted", num(open.len() as f64)),
                ("failed", num(o_failed as f64)),
                ("busy", num(o_busy as f64)),
                ("rate", num(rate)),
                ("elapsed_s", num(open_wall)),
                ("samples", num(latency_ms.len() as f64)),
                ("p50_ms", num(stats::median(&latency_ms))),
                (
                    "p95_ms",
                    num(stats::quantile(&latency_ms, 0.95).unwrap_or(0.0)),
                ),
                (
                    "beyond_p95",
                    num(stats::samples_beyond(&latency_ms, 0.95) as f64),
                ),
                (
                    "late_p95_ms",
                    num(stats::quantile(&late_ms, 0.95).unwrap_or(0.0)),
                ),
                (
                    "latency_ms",
                    Json::Arr(latency_ms.iter().map(|&x| num(x)).collect()),
                ),
            ]),
        ),
        ("wall_s", num(phase1.elapsed_s + open_wall)),
        ("failures", Json::Arr(examples)),
    ]);
    let out = args.req("out")?;
    std::fs::write(out, doc.to_json_string()).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(doc)
}

/// Reference report digests: a directory of reports (hashed here), or
/// a `{"reports": {name: sha256}}` file.
fn load_reference(path: &Path) -> Result<HashMap<String, String>, String> {
    if path.is_dir() {
        let mut out = HashMap::new();
        for e in registry() {
            let file = path.join(format!("{}.json", e.name()));
            let bytes = std::fs::read(&file).map_err(|err| format!("{}: {err}", file.display()))?;
            out.insert(e.name().to_string(), sha256_hex(&bytes));
        }
        return Ok(out);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("reports") {
        Some(Json::Obj(pairs)) => Ok(pairs
            .iter()
            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
            .collect()),
        _ => Err(format!("{}: no reports object", path.display())),
    }
}

struct Check {
    attempted: usize,
    failed: usize,
    notes: Vec<Json>,
}

impl Check {
    fn new() -> Check {
        Check {
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(Json::str(what()));
            }
        }
    }
}

fn cache_delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        writes: after.writes - before.writes,
        errors: after.errors - before.errors,
    }
}

/// The registry pass: every entry's `Experiment::run`, its report
/// encoding and the report write, once with spans and once without,
/// back to back and alternating which goes first, so slow drift of the
/// machine falls on both sides of the tracing-overhead difference.
/// Cache counts are the traced runs' `global_stats()` deltas. Returns
/// the traced and the untraced wall time.
fn registry_pass(
    rec: &mut Recorder,
    rt: &Runtime,
    scale: Scale,
    out: &Path,
    reference: &HashMap<String, String>,
    check: &mut Check,
    m: &mut Metrics,
) -> (f64, f64) {
    let _ = std::fs::create_dir_all(out);
    let mut verify = |name: &str, text: &str, wrote: std::io::Result<()>| {
        let digest = sha256_hex(text.as_bytes());
        check.record(
            wrote.is_ok() && reference.get(name) == Some(&digest),
            || format!("registry entry {name} differs from its reference"),
        );
    };
    let (mut traced, mut untraced) = (0.0, 0.0);
    let mut counts = CacheStats::default();
    rec.span("registry", |rec| {
        for (i, e) in registry().iter().enumerate() {
            let path = out.join(format!("{}.json", e.name()));
            for traced_turn in [i % 2 == 1, i % 2 == 0] {
                let before = cache::global_stats();
                let start = Instant::now();
                let (text, wrote) = if traced_turn {
                    let report = rec.span(format!("bench.{}", e.name()), |_| e.run(rt, scale));
                    let text = rec.span("core.report.encode", |_| report.to_json_string());
                    let wrote =
                        rec.span("cli.write", |_| cache::write_atomic(&path, text.as_bytes()));
                    (text, wrote)
                } else {
                    let text = e.run(rt, scale).to_json_string();
                    let wrote = cache::write_atomic(&path, text.as_bytes());
                    (text, wrote)
                };
                let secs = start.elapsed().as_secs_f64();
                if traced_turn {
                    traced += secs;
                    counts = counts.plus(&cache_delta(&before, &cache::global_stats()));
                } else {
                    untraced += secs;
                }
                verify(e.name(), &text, wrote);
            }
        }
    });
    let totals = spans::self_time_by_name(rec.spans());
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |&ns| ns as f64 * 1e-6);
    for name in TIMED_EXPERIMENTS {
        m.push(
            format!("bench.{name}_ms"),
            self_ms(&format!("bench.{name}")),
            "ms",
        );
    }
    m.push("core.report.encode_ms", self_ms("core.report.encode"), "ms");
    m.push("core.cache.hits", counts.hits as f64, "count");
    m.push("core.cache.misses", counts.misses as f64, "count");
    m.push("core.cache.writes", counts.writes as f64, "count");
    m.push("core.cache.errors", counts.errors as f64, "count");
    m.push(
        "core.cache.hit_ratio",
        counts.hits as f64 / (counts.hits + counts.misses).max(1) as f64,
        "ratio",
    );
    (traced, untraced)
}

/// Replays the serve streams through two in-process [`Responder`]s,
/// one traced and one not, each with a fresh cache directory of its
/// own and in stream order (closed, then open), so every frame meets
/// the cache state it met on the live server. The two take turns frame
/// by frame, alternating which goes first, so slow drift of the
/// machine falls on both sides of the tracing-overhead difference.
/// Returns the traced and untraced wall times and each frame's traced
/// respond time in seconds.
fn replay(
    rec: &mut Recorder,
    streams: &[(Vec<String>, Vec<String>)],
    scratch: &Path,
    check: &mut Check,
) -> (f64, f64, Vec<f64>) {
    let responder = |name: &str| {
        let dir = scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Responder::new(RequestLimits::default(), 1, CacheMode::ReadWrite, Some(dir))
    };
    let (traced_responder, plain_responder) =
        (responder("replay-traced"), responder("replay-plain"));
    let (mut traced, mut untraced, mut times) = (0.0, 0.0, Vec::new());
    let frames = streams.iter().flat_map(|(f, e)| f.iter().zip(e));
    for (i, (frame, want)) in frames.enumerate() {
        for traced_turn in [i % 2 == 1, i % 2 == 0] {
            let start = Instant::now();
            let reply = if traced_turn {
                let name = format!("serve.respond.{}", Verb::of_frame(frame).short());
                rec.span(name, |_| traced_responder.respond_line(frame))
            } else {
                plain_responder.respond_line(frame)
            };
            let secs = start.elapsed().as_secs_f64();
            if traced_turn {
                traced += secs;
                times.push(secs);
            } else {
                untraced += secs;
            }
            check.record(&reply == want, || {
                format!(
                    "offline replay of {} differs",
                    &frame[..frame.len().min(60)]
                )
            });
        }
    }
    for dir in ["replay-traced", "replay-plain"] {
        let _ = std::fs::remove_dir_all(scratch.join(dir));
    }
    (traced, untraced, times)
}

fn read_samples(path: &Path) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc
        .get("open")
        .and_then(|o| o.get("latency_ms"))
        .and_then(Json::as_arr)
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default())
}

/// Median queueing of the open loop: per request, its latency (from
/// the due time) minus the time the responder alone took on it.
fn queue_ms(latency_ms: &[f64], respond_s: &[f64]) -> f64 {
    let queue: Vec<f64> = latency_ms
        .iter()
        .zip(respond_s)
        .map(|(lat, resp)| lat - resp * 1e3)
        .collect();
    stats::median(&queue)
}

fn cmd_trace(args: &Args) -> Result<Json, String> {
    let seed: u64 = args.num("seed")?;
    let threads: usize = args.num("threads")?;
    let scratch = args.path("scratch")?;
    let shapes = args.req("shapes")?;
    let mut rec = Recorder::new();
    let mut m = Metrics::default();
    let mut check = Check::new();
    let mut extra: Vec<(&str, Json)> = Vec::new();

    // Layer probes on the workload's shapes.
    probes::ops(&mut rec, seed, &mut m);
    let mut rng = StdRng::seed_from_u64(seed);
    if shapes == "serve" {
        let model = frames::vicar_model(&mut rng);
        let batch: Vec<Vec<usize>> = (0..frames::SEQUENCES)
            .map(|_| frames::vicar_sequence(&mut rng))
            .collect();
        let columns: Vec<_> = (0..frames::COLUMNS)
            .map(|_| frames::lofreq_column(&mut rng))
            .collect();
        probes::kernels(&mut rec, &model, &batch, &columns, &columns, &mut m);
        probes::cache(
            &mut rec,
            seed,
            frames::COLUMNS,
            &scratch.join("cache-probe"),
            &mut m,
        );
    } else {
        let (t_len, _, _, h) = fig10_vicar::scale_params(Scale::Default);
        let model =
            compstat_hmm::dirichlet_hmm(&mut rng, h, fig10_vicar::SYMBOLS, fig10_vicar::ALPHA);
        let batch = vec![compstat_hmm::uniform_observations(
            &mut rng,
            fig10_vicar::SYMBOLS,
            t_len,
        )];
        let corpus = fig09_pvalues::corpus_for(Scale::Default);
        let sample: Vec<_> = corpus.iter().step_by(8).cloned().collect();
        probes::kernels(&mut rec, &model, &batch, &corpus, &sample, &mut m);
        probes::cache(
            &mut rec,
            seed,
            corpus.len(),
            &scratch.join("cache-probe"),
            &mut m,
        );
    }
    probes::sweeps(&mut rec, threads, &mut m);

    // The registry pass.
    let scale = args.req("registry-scale")?;
    let scale = Scale::parse(scale).ok_or_else(|| format!("unknown scale {scale:?}"))?;
    let mode = match args.req("registry-cache")? {
        "on" => CacheMode::ReadWrite,
        _ => CacheMode::Off,
    };
    let reference = load_reference(&args.path("reference")?)?;
    let rt = Runtime::with_threads(threads).with_cache_mode(mode);
    let (traced, untraced) = registry_pass(
        &mut rec,
        &rt,
        scale,
        &scratch.join("reports"),
        &reference,
        &mut check,
        &mut m,
    );
    extra.push(("registry_traced_s", num(traced)));
    extra.push(("registry_untraced_s", num(untraced)));

    // The serve replay, its JSON-parse probe, and queueing.
    let dir = args.path("frames")?;
    let streams = vec![
        frames::read_stream(&dir, "closed")?,
        frames::read_stream(&dir, "open")?,
    ];
    let limits = RequestLimits::default();
    let parse = ParseLimits {
        max_depth: limits.max_depth,
        max_bytes: Some(limits.max_frame_bytes),
    };
    rec.span("probe.core.json", |rec| {
        for f in streams.iter().flat_map(|s| &s.0) {
            let _ = rec.span("core.json.parse", |_| Json::parse_with_limits(f, &parse));
        }
    });
    let mean_us = |rec: &Recorder, name: &str| {
        let us: Vec<f64> = spans::durations_of(rec.spans(), name)
            .iter()
            .map(|&ns| ns as f64 * 1e-3)
            .collect();
        stats::mean(&us)
    };
    m.push("core.json.parse_us", mean_us(&rec, "core.json.parse"), "us");
    let (traced, untraced, respond) = rec.span("serve.replay", |rec| {
        replay(rec, &streams, &scratch, &mut check)
    });
    extra.push(("replay_traced_s", num(traced)));
    extra.push(("replay_untraced_s", num(untraced)));
    for verb in [Verb::CallColumns, Verb::ForwardBatch] {
        let name = format!("serve.respond.{}", verb.short());
        m.push(format!("{name}_us"), mean_us(&rec, &name), "us");
    }
    let latency = read_samples(&args.path("load")?)?;
    let open_respond = &respond[streams[0].0.len()..];
    m.push("serve.queue_ms", queue_ms(&latency, open_respond), "ms");

    let path = args.req("spans")?;
    let doc = Json::obj(vec![("spans", spans::to_json(rec.spans()))]);
    std::fs::write(path, doc.to_json_string()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let mut pairs = vec![
        ("metrics", m.to_json()),
        ("attempted", num(check.attempted as f64)),
        ("failed", num(check.failed as f64)),
        ("failures", Json::Arr(check.notes)),
        ("spans", num(rec.spans().len() as f64)),
    ];
    pairs.extend(extra);
    Ok(Json::obj(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queueing_is_latency_minus_respond_time() {
        // Latencies 30/12/50 ms against respond times 20/10/20 ms:
        // queueing 10/2/30 ms, median 10 ms.
        let q = queue_ms(&[30.0, 12.0, 50.0], &[0.020, 0.010, 0.020]);
        assert!((q - 10.0).abs() < 1e-9, "{q}");
    }

    #[test]
    fn metrics_serialize_as_value_and_unit() {
        let mut m = Metrics::default();
        m.push("a.b_ms", 1.5, "ms");
        m.push("c", 2.0, "ratio");
        assert_eq!(
            m.to_json().to_json_string(),
            r#"{"a.b_ms":{"value":1.5,"unit":"ms"},"c":{"value":2,"unit":"ratio"}}"#
        );
    }

    #[test]
    fn arguments_parse_as_flag_value_pairs() {
        let argv: Vec<String> = ["--seed", "3", "--out", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse(&argv).unwrap();
        assert_eq!(a.num::<u64>("seed"), Ok(3));
        assert_eq!(a.req("out"), Ok("x"));
        assert!(a.req("missing").is_err());
        assert!(Args::parse(&["--seed".to_string()]).is_err());
    }
}
