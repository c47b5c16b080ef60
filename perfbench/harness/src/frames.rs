//! The serve-mixed request mix: seeded `pbd/call_columns` and
//! `hmm/forward_batch` frames, and their offline reference replies.
//!
//! Columns are LoFreq-shaped (16 columns of about 200 reads, Phred
//! qualities 10..40, small variant counts) and forward batches are
//! VICAR-shaped (6 states, 16 symbols, 3 sequences of about 1000
//! steps), both at 256-bit oracle precision. Each stream has a fixed
//! share of repeats: a repeat is byte-identical to an earlier frame of
//! the same stream, id included, so the server answers it from its
//! oracle cache and its reference reply is the earlier one.

use std::collections::HashMap;
use std::path::Path;

use compstat_bench::experiments::fig10_vicar;
use compstat_core::json::Json;
use compstat_hmm::Hmm;
use compstat_pbd::Column;
use compstat_runtime::CacheMode;
use compstat_serve::{RequestLimits, Responder, SERVE_SCHEMA};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Wire names of the four formats the mix asks for.
pub const FORMATS: [&str; 4] = ["Log", "binary64", "posit(64,18)", "hdr(53)"];
/// Oracle precision of every frame.
pub const PREC: u32 = 256;
/// Columns per `call_columns` frame.
pub const COLUMNS: usize = 16;
/// Reads per column, before jitter.
pub const READS: usize = 200;
/// HMM states of a forward batch.
pub const STATES: usize = 6;
/// HMM symbols of a forward batch.
pub const SYMBOLS: usize = 16;
/// Sequences per forward batch.
pub const SEQUENCES: usize = 3;
/// Steps per sequence, before jitter.
pub const STEPS: usize = 1000;
/// Share of frames in a stream that repeat an earlier one. Kept off
/// one half so the median latency sits inside the miss cluster rather
/// than in the gap between hits and misses.
pub const REPEAT_SHARE: f64 = 0.4;

/// The two verbs of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `pbd/call_columns`.
    CallColumns,
    /// `hmm/forward_batch`.
    ForwardBatch,
}

impl Verb {
    /// The metric-name spelling (`call_columns` / `forward_batch`).
    #[must_use]
    pub fn short(self) -> &'static str {
        match self {
            Verb::CallColumns => "call_columns",
            Verb::ForwardBatch => "forward_batch",
        }
    }

    /// Recovers the verb of a generated frame.
    #[must_use]
    pub fn of_frame(frame: &str) -> Verb {
        if frame.contains("\"pbd/call_columns\"") {
            Verb::CallColumns
        } else {
            Verb::ForwardBatch
        }
    }
}

fn num(x: f64) -> Json {
    Json::Num(x)
}

/// One LoFreq-shaped column: about [`READS`] reads with Phred
/// qualities 10..40 and a variant count of 1..=16.
pub fn lofreq_column(rng: &mut StdRng) -> Column {
    let n = READS - 10 + rng.gen_range(0..=20);
    let probs = (0..n)
        .map(|_| {
            let phred: f64 = rng.gen_range(10.0..40.0);
            10f64.powf(-phred / 10.0)
        })
        .collect();
    Column::new(probs, rng.gen_range(1..=16))
}

/// One VICAR-shaped model: [`STATES`] states, [`SYMBOLS`] symbols,
/// Dirichlet rows at Figure 10's concentration.
pub fn vicar_model(rng: &mut StdRng) -> Hmm {
    compstat_hmm::dirichlet_hmm(rng, STATES, SYMBOLS, fig10_vicar::ALPHA)
}

/// One observation sequence of about [`STEPS`] symbols.
pub fn vicar_sequence(rng: &mut StdRng) -> Vec<usize> {
    let t = STEPS - 100 + rng.gen_range(0..=200);
    compstat_hmm::uniform_observations(rng, SYMBOLS, t)
}

fn nums(xs: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(xs.into_iter().map(Json::Num).collect())
}

fn call_columns_frame(rng: &mut StdRng, id: &str, format: &str) -> String {
    let columns = (0..COLUMNS)
        .map(|_| {
            let c = lofreq_column(rng);
            Json::obj(vec![
                ("probs", nums(c.success_probs)),
                ("k", num(c.k as f64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str(SERVE_SCHEMA)),
        ("id", Json::str(id)),
        ("verb", Json::str("pbd/call_columns")),
        ("format", Json::str(format)),
        ("prec", num(f64::from(PREC))),
        ("columns", Json::Arr(columns)),
    ])
    .to_json_string()
}

fn forward_batch_frame(rng: &mut StdRng, id: &str, format: &str) -> String {
    let model = vicar_model(rng);
    let a = (0..STATES).flat_map(|i| (0..STATES).map(move |j| (i, j)));
    let b = (0..STATES).flat_map(|i| (0..SYMBOLS).map(move |o| (i, o)));
    let a = nums(a.map(|(i, j)| model.a(i, j)));
    let b = nums(b.map(|(i, o)| model.b(i, o)));
    let pi = nums((0..STATES).map(|i| model.pi(i)));
    let sequences = (0..SEQUENCES)
        .map(|_| nums(vicar_sequence(rng).into_iter().map(|s| s as f64)))
        .collect();
    Json::obj(vec![
        ("schema", Json::str(SERVE_SCHEMA)),
        ("id", Json::str(id)),
        ("verb", Json::str("hmm/forward_batch")),
        ("format", Json::str(format)),
        ("prec", num(f64::from(PREC))),
        (
            "model",
            Json::obj(vec![
                ("states", num(STATES as f64)),
                ("symbols", num(SYMBOLS as f64)),
                ("a", a),
                ("b", b),
                ("pi", pi),
            ]),
        ),
        ("sequences", Json::Arr(sequences)),
    ])
    .to_json_string()
}

fn shuffled_flags(rng: &mut StdRng, n: usize, set: usize) -> Vec<bool> {
    let mut flags: Vec<bool> = (0..n).map(|i| i < set).collect();
    for i in (1..n).rev() {
        flags.swap(i, rng.gen_range(0..=i));
    }
    flags
}

/// One seeded stream of `n` frames whose ids start with `prefix`.
/// Exactly `round(n * REPEAT_SHARE)` frames repeat an earlier one
/// (the first frame never does), and the fresh frames split evenly
/// between the two verbs and across the four formats.
#[must_use]
pub fn stream(seed: u64, prefix: &str, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let repeats = ((n as f64 * REPEAT_SHARE).round() as usize).min(n.saturating_sub(1));
    let mut repeat = shuffled_flags(&mut rng, n.saturating_sub(1), repeats);
    repeat.insert(0, false);
    let fresh = n - repeats;
    let forward = shuffled_flags(&mut rng, fresh, fresh / 2);
    let mut formats: Vec<&str> = (0..fresh).map(|i| FORMATS[i % FORMATS.len()]).collect();
    for i in (1..fresh).rev() {
        formats.swap(i, rng.gen_range(0..=i));
    }
    let mut unique: Vec<String> = Vec::with_capacity(fresh);
    let mut out = Vec::with_capacity(n);
    for is_repeat in repeat {
        if is_repeat {
            let j = rng.gen_range(0..unique.len());
            out.push(unique[j].clone());
            continue;
        }
        let id = format!("{prefix}{}", unique.len());
        let format = formats[unique.len()];
        let frame = if forward[unique.len()] {
            forward_batch_frame(&mut rng, &id, format)
        } else {
            call_columns_frame(&mut rng, &id, format)
        };
        unique.push(frame.clone());
        out.push(frame);
    }
    out
}

/// The offline answer to every distinct frame, from
/// [`Responder::respond_line`] with the cache off, computed on
/// `threads` threads.
#[must_use]
pub fn reference_replies(frames: &[&String], threads: usize) -> HashMap<String, String> {
    let mut distinct: Vec<&String> = frames.to_vec();
    distinct.sort();
    distinct.dedup();
    let responder = Responder::new(RequestLimits::default(), 1, CacheMode::Off, None);
    let chunk = distinct.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = distinct
            .chunks(chunk)
            .map(|part| {
                let responder = &responder;
                scope.spawn(move || {
                    part.iter()
                        .map(|f| ((*f).clone(), responder.respond_line(f)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Writes `frames` to `<dir>/<name>.jsonl` and the matching reference
/// replies, line for line, to `<dir>/<name>.expect.jsonl`.
///
/// # Errors
///
/// Any I/O failure.
pub fn write_stream(
    dir: &Path,
    name: &str,
    frames: &[String],
    replies: &HashMap<String, String>,
) -> std::io::Result<()> {
    let mut lines = String::new();
    let mut expect = String::new();
    for f in frames {
        lines.push_str(f);
        lines.push('\n');
        expect.push_str(&replies[f]);
        expect.push('\n');
    }
    std::fs::write(dir.join(format!("{name}.jsonl")), lines)?;
    std::fs::write(dir.join(format!("{name}.expect.jsonl")), expect)
}

/// Reads a stream and its reference replies back.
///
/// # Errors
///
/// Any I/O failure, or a stream whose two files differ in length.
pub fn read_stream(dir: &Path, name: &str) -> Result<(Vec<String>, Vec<String>), String> {
    let read = |file: String| {
        std::fs::read_to_string(dir.join(&file))
            .map(|s| s.lines().map(str::to_string).collect::<Vec<_>>())
            .map_err(|e| format!("cannot read {file}: {e}"))
    };
    let frames = read(format!("{name}.jsonl"))?;
    let expect = read(format!("{name}.expect.jsonl"))?;
    if frames.len() != expect.len() {
        return Err(format!(
            "{name}: {} frames but {} replies",
            frames.len(),
            expect.len()
        ));
    }
    Ok((frames, expect))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_repeat_a_fixed_share() {
        let a = stream(7, "t", 10);
        assert_eq!(a, stream(7, "t", 10));
        assert_ne!(a, stream(8, "t", 10));
        let mut distinct = a.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), 6);
        let forward = distinct
            .iter()
            .filter(|f| Verb::of_frame(f) == Verb::ForwardBatch)
            .count();
        assert_eq!(forward, 3);
        for format in FORMATS {
            let tag = format!("\"format\":\"{format}\"");
            let count = distinct.iter().filter(|f| f.contains(&tag)).count();
            assert!((1..=2).contains(&count), "{format}: {count}");
        }
        for f in &a {
            assert!(Json::parse(f).is_ok(), "{f}");
        }
    }

    #[test]
    fn reference_replies_are_ok_frames() {
        let frames = stream(1, "r", 3);
        let refs: Vec<&String> = frames.iter().collect();
        let replies = reference_replies(&refs, 2);
        assert_eq!(replies.len(), 2);
        for reply in replies.values() {
            let doc = Json::parse(reply).unwrap();
            assert!(matches!(doc.get("ok"), Some(Json::Bool(true))), "{reply}");
        }
    }
}
