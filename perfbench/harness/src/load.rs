//! The serve-mixed load generator.
//!
//! Phase 1 is a closed loop: `conns` persistent connections, each
//! sending its next frame only after the previous reply arrived, which
//! gives requests per second. Phase 2 is an open loop: requests are due
//! on a seeded schedule at one fixed rate and each opens its own
//! connection when due, whether or not earlier requests have been
//! answered. Open-loop latency is timed from the due time, so a stall
//! also charges the requests queued behind it, and the generator's own
//! lateness is recorded beside it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What happened to one request.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The reply was byte-identical to the reference.
    Ok,
    /// The server refused the connection with a `busy` frame.
    Busy,
    /// A reply arrived but differed from the reference.
    Mismatch(String),
    /// The connection failed before a reply arrived.
    Dropped(String),
}

/// One open-loop request, times in seconds from the schedule start.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Index into the open stream.
    pub index: usize,
    /// When the request was due.
    pub due_s: f64,
    /// When the generator actually started sending it.
    pub sent_s: f64,
    /// When its reply had been read.
    pub done_s: f64,
    /// Its outcome.
    pub outcome: Outcome,
}

impl Sample {
    /// Latency as the user sees it: reply time minus due time.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.done_s - self.due_s
    }

    /// How late the generator started the request.
    #[must_use]
    pub fn late_s(&self) -> f64 {
        (self.sent_s - self.due_s).max(0.0)
    }
}

/// Seeded arrival times (seconds from start) of `n` requests at `rate`
/// per second: request `i` is due at `(i + j) / rate` with `j` drawn
/// uniformly from `[0, 0.5)`. Evenly spaced like a constant-rate load
/// generator, so the seed moves each arrival within its slot but never
/// bunches arrivals into bursts whose queueing would swamp the p95.
#[must_use]
pub fn schedule(seed: u64, rate: f64, n: usize) -> Vec<f64> {
    // Decorrelated from the frame streams, which use the bare seed.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6F70_656E_6C6F_6F70);
    (0..n)
        .map(|i| {
            let jitter: f64 = rng.gen_range(0.0..0.5);
            (i as f64 + jitter) / rate
        })
        .collect()
}

/// Sends one frame on `conn` and classifies the reply.
pub fn exchange(conn: &mut BufReader<TcpStream>, frame: &str, expect: &str) -> Outcome {
    let mut line = String::with_capacity(frame.len() + 1);
    line.push_str(frame);
    line.push('\n');
    if let Err(e) = conn.get_mut().write_all(line.as_bytes()) {
        return Outcome::Dropped(format!("send: {e}"));
    }
    let mut reply = String::new();
    match conn.read_line(&mut reply) {
        Ok(0) => Outcome::Dropped("connection closed before a reply".into()),
        Ok(_) => classify(reply.trim_end_matches('\n'), expect),
        Err(e) => Outcome::Dropped(format!("receive: {e}")),
    }
}

/// Compares a reply with its reference, byte for byte.
#[must_use]
pub fn classify(reply: &str, expect: &str) -> Outcome {
    if reply == expect {
        Outcome::Ok
    } else if reply.contains("\"code\":\"busy\"") {
        Outcome::Busy
    } else {
        let head: String = reply.chars().take(160).collect();
        Outcome::Mismatch(head)
    }
}

fn connect(addr: &str) -> Result<BufReader<TcpStream>, Outcome> {
    let conn = TcpStream::connect(addr).map_err(|e| Outcome::Dropped(format!("connect: {e}")))?;
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(Duration::from_secs(60)));
    Ok(BufReader::new(conn))
}

/// Result of the closed-loop phase.
#[derive(Clone, Debug, Default)]
pub struct ClosedResult {
    /// Outcome per frame, in stream order.
    pub outcomes: Vec<Outcome>,
    /// Wall time of the phase.
    pub elapsed_s: f64,
}

/// Drives `frames` through `conns` persistent connections, each
/// taking the next unsent frame as soon as its previous reply
/// arrived.
#[must_use]
pub fn closed_loop(addr: &str, conns: usize, frames: &[String], expect: &[String]) -> ClosedResult {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(vec![Outcome::Dropped("never sent".into()); frames.len()]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                let mut conn = connect(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= frames.len() {
                        return;
                    }
                    let outcome = match conn.as_mut() {
                        Ok(c) => exchange(c, &frames[i], &expect[i]),
                        Err(o) => o.clone(),
                    };
                    if outcome != Outcome::Ok {
                        // A refused or broken connection cannot carry
                        // the next frame; open a fresh one.
                        conn = connect(addr);
                    }
                    outcomes.lock().expect("outcome lock")[i] = outcome;
                }
            });
        }
    });
    ClosedResult {
        outcomes: outcomes.into_inner().expect("outcome lock"),
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// Runs an open loop: request `i` is started at `start + schedule[i]`
/// (or as soon after as the generator gets to it) on a thread of its
/// own, and `send(i)` performs it. Returns one [`Sample`] per request,
/// in schedule order.
pub fn open_loop<F>(schedule: &[f64], start: Instant, send: F) -> Vec<Sample>
where
    F: Fn(usize) -> Outcome + Sync,
{
    let samples = Mutex::new(Vec::with_capacity(schedule.len()));
    std::thread::scope(|scope| {
        for (index, &due_s) in schedule.iter().enumerate() {
            let due = start + Duration::from_secs_f64(due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (send, samples) = (&send, &samples);
            scope.spawn(move || {
                let sent_s = start.elapsed().as_secs_f64();
                let outcome = send(index);
                let done_s = start.elapsed().as_secs_f64();
                samples.lock().expect("sample lock").push(Sample {
                    index,
                    due_s,
                    sent_s,
                    done_s,
                    outcome,
                });
            });
        }
    });
    let mut samples = samples.into_inner().expect("sample lock");
    samples.sort_by_key(|s| s.index);
    samples
}

/// One open-loop request against a live server: a fresh connection,
/// one frame, one reply.
#[must_use]
pub fn one_shot(addr: &str, frame: &str, expect: &str) -> Outcome {
    match connect(addr) {
        Ok(mut conn) => exchange(&mut conn, frame, expect),
        Err(o) => o,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_evenly_spaced_and_at_the_rate() {
        let s = schedule(3, 100.0, 2000);
        assert_eq!(s, schedule(3, 100.0, 2000));
        assert_ne!(s, schedule(4, 100.0, 2000));
        // Never closer than half a slot, never further than one and a half.
        assert!(s
            .windows(2)
            .all(|w| w[1] - w[0] > 0.005 && w[1] - w[0] < 0.015));
        assert!(
            s[0] < 0.005 && (s[1999] - 19.99).abs() < 0.005,
            "{}",
            s[1999]
        );
    }

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        // The generator starts 80 ms behind schedule: every request is
        // already late when sent, and that wait is part of its latency.
        let start = Instant::now() - Duration::from_millis(80);
        let samples = open_loop(&[0.0, 0.01, 0.02], start, |_| {
            std::thread::sleep(Duration::from_millis(20));
            Outcome::Ok
        });
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!(s.late_s() >= 0.05, "{s:?}");
            assert!(s.latency_s() >= s.late_s() + 0.02, "{s:?}");
            assert!(s.done_s >= s.sent_s && s.sent_s >= s.due_s);
        }
    }

    #[test]
    fn open_loop_does_not_wait_for_earlier_replies() {
        // Three requests due together, each taking 50 ms: an open loop
        // overlaps them, so none waits behind another.
        let start = Instant::now();
        let samples = open_loop(&[0.0, 0.0, 0.0], start, |_| {
            std::thread::sleep(Duration::from_millis(50));
            Outcome::Ok
        });
        let last_done = samples.iter().map(|s| s.done_s).fold(0.0, f64::max);
        assert!(last_done < 0.14, "{samples:?}");
        assert_eq!(
            samples.iter().map(|s| s.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn replies_are_classified_byte_for_byte() {
        assert_eq!(classify("{\"ok\":true}", "{\"ok\":true}"), Outcome::Ok);
        assert!(matches!(
            classify("{\"ok\":true }", "{\"ok\":true}"),
            Outcome::Mismatch(_)
        ));
        assert_eq!(
            classify(
                "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"busy\",\"message\":\"x\"}}",
                "{}"
            ),
            Outcome::Busy
        );
    }
}
