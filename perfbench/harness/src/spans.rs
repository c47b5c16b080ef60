//! An in-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the span that was open when
//! it began. Spans are kept in memory while the workload runs and
//! written out once at the end, so recording costs two clock reads
//! and a `Vec` push. A span's *self time* is its duration minus the
//! part of that interval its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use compstat_core::json::Json;

/// One recorded interval, in nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `bench.fig09` or `core.report.encode`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start offset.
    pub start_ns: u64,
    /// End offset.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Summed self time (ns) per span name.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_default() += own;
    }
    out
}

/// The durations (ns) of every span called `name`, in start order.
#[must_use]
pub fn durations_of(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// The spans as a JSON array of `{name, parent, start_ns, end_ns,
/// self_ns}` objects.
#[must_use]
pub fn to_json(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, own)| {
                Json::obj(vec![
                    ("name", Json::str(s.name.as_str())),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children overlap each other and one runs past the parent's
        // end: covered = [10, 50) + [90, 100) = 50.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 90, 120),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30, 30]);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            span("root", None, 0, 100),
            span("child", Some(0), 0, 60),
            span("grandchild", Some(1), 10, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40]);
        assert_eq!(self_time_by_name(&spans)["child"], 20);
    }

    #[test]
    fn recorder_nests_and_totals_by_name() {
        let mut rec = Recorder::new();
        let out = rec.span("outer", |rec| {
            rec.span("inner", |_| 1) + rec.span("inner", |_| 2)
        });
        assert_eq!(out, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let own = self_times_ns(spans);
        assert_eq!(self_time_by_name(spans)["inner"], own[1] + own[2]);
        assert_eq!(own[0] + own[1] + own[2], spans[0].duration_ns());
        assert_eq!(durations_of(spans, "inner").len(), 2);
        let doc = to_json(spans).to_json_string();
        assert!(doc.contains("\"name\":\"outer\""), "{doc}");
    }
}
