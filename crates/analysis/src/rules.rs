//! The audit rules and the per-file analysis they run on.
//!
//! Each rule mechanizes one invariant this workspace previously
//! enforced only by convention (see CONTRIBUTING):
//!
//! * [`Rule::Nondeterminism`] — no wall-clock, hash-order, thread
//!   identity, or environment reads in kernel/report paths. Reports
//!   must be byte-identical across machines, thread counts, and cache
//!   states; each of these is a way for a byte to move.
//! * [`Rule::FloatFormat`] — no `{}` / `{:?}` formatting of floats in
//!   report-rendering paths. `Display` on `f64` picks the shortest
//!   round-trip spelling, which is stable but *layout-hostile* and has
//!   burned this project before; report cells go through
//!   [`fmt_f64`](https://docs.rs/)-style fixed-decimal helpers or the
//!   `to_sci_string` renderer.
//! * [`Rule::PowfExp2`] — no `2f64.powf(x)`. LLVM rewrites
//!   `pow(2, x)` to `exp2(x)` only at `opt-level > 0`, and the two
//!   differ by an ulp for some operands: the classic debug/release
//!   divergence. Call `f64::exp2` directly.
//! * [`Rule::LossyCast`] — no silent float↔int `as` casts in the
//!   numeric kernels (`crates/bigfloat`, `crates/hmm`, `crates/pbd`,
//!   `crates/posit`):
//!   `as` rounds, truncates, and saturates without a trace. Use the
//!   explicit conversion APIs, or carry a reasoned `allow` naming the
//!   bound that makes the cast exact.
//! * [`Rule::PanicInServe`] — no `unwrap`/`expect`/`panic!` reachable
//!   from the untrusted request path in `crates/serve`: a panic takes
//!   down a worker (and poisons shared locks) on hostile input.
//! * [`Rule::Suppression`] — malformed `compstat-audit:` comments
//!   (unknown rule, missing reason) are themselves violations.
//! * [`Rule::KernelTagGuard`] — implemented in [`crate::fingerprint`]:
//!   an oracle-kernel source change without an `ORACLE_KERNEL_TAG`
//!   bump (or fingerprint regeneration) is a hard violation.
//!
//! Rules match the token stream of [`crate::lexer`], skip
//! `#[cfg(test)]` regions (tests may print floats and unwrap freely),
//! and honor the inline suppressions of [`crate::suppress`].

use crate::lexer::{tokenize, Tok, TokKind};
use crate::suppress::{self, BadSuppression, Suppression};

/// The identity of one audit rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock / hash-order / thread-identity / env reads in
    /// deterministic paths.
    Nondeterminism,
    /// `{}` / `{:?}` on floats in report-rendering paths.
    FloatFormat,
    /// `2f64.powf(x)` — the debug/release `exp2` divergence class.
    PowfExp2,
    /// Silent float↔int `as` casts in numeric kernels.
    LossyCast,
    /// Panics reachable from the untrusted serve request path.
    PanicInServe,
    /// Malformed or reason-less suppression comments.
    Suppression,
    /// Oracle-kernel source drift without a tag bump (see
    /// [`crate::fingerprint`]).
    KernelTagGuard,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: [Rule; 7] = [
        Rule::Nondeterminism,
        Rule::FloatFormat,
        Rule::PowfExp2,
        Rule::LossyCast,
        Rule::PanicInServe,
        Rule::Suppression,
        Rule::KernelTagGuard,
    ];

    /// The kebab-case name used in findings, suppressions, and docs.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::Nondeterminism => "nondeterminism",
            Rule::FloatFormat => "float-format",
            Rule::PowfExp2 => "powf-exp2",
            Rule::LossyCast => "lossy-cast",
            Rule::PanicInServe => "panic-in-serve",
            Rule::Suppression => "suppression",
            Rule::KernelTagGuard => "kernel-tag-guard",
        }
    }

    /// Parses a rule name (the spelling used in `allow(...)`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.as_str() == name)
    }

    /// Whether an inline `allow` may waive this rule. The suppression
    /// and tag-guard rules guard the audit itself and cannot be
    /// waived at the site.
    #[must_use]
    pub fn suppressible(self) -> bool {
        !matches!(self, Rule::Suppression | Rule::KernelTagGuard)
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The trimmed source line.
    pub snippet: String,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// A suppressed (allowed) finding, kept for the audit document so
/// waivers stay visible.
#[derive(Clone, Debug)]
pub struct Allowed {
    /// The finding that was waived.
    pub finding: Finding,
    /// The reason given at the site.
    pub reason: String,
}

/// The tokenized, classified view of one source file that rules run
/// over.
pub struct FileAnalysis {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Source lines (for snippets).
    lines: Vec<String>,
    /// All tokens.
    toks: Vec<Tok>,
    /// Indices into `toks` of non-comment tokens outside
    /// `#[cfg(test)]` regions.
    code: Vec<usize>,
    /// Parsed inline suppressions.
    suppressions: Vec<Suppression>,
    /// Malformed suppression comments.
    bad_suppressions: Vec<BadSuppression>,
    /// Identifiers with file-local float-type evidence.
    float_idents: Vec<String>,
    /// Identifiers with file-local 64-bit-integer-type evidence.
    int64_idents: Vec<String>,
}

/// Method names whose receiver (or result) is a float in practice —
/// integer types have none of these.
const FLOAT_METHODS: &[&str] = &[
    "to_f64",
    "as_f64",
    "as_secs_f64",
    "ln",
    "ln_1p",
    "ln_value",
    "log2",
    "log10",
    "exp",
    "exp2",
    "exp_m1",
    "sqrt",
    "powf",
    "powi",
    "hypot",
    "to_degrees",
    "to_radians",
    "round",
    "floor",
    "ceil",
    "trunc",
    "fract",
];

const FLOAT_TYPES: &[&str] = &["f32", "f64"];
const INT64_TYPES: &[&str] = &["u64", "i64", "u128", "i128", "usize", "isize"];
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

impl FileAnalysis {
    /// Tokenizes and classifies one file.
    #[must_use]
    pub fn new(rel: &str, source: &str) -> FileAnalysis {
        let toks = tokenize(source);
        let (suppressions, bad_suppressions) = suppress::parse(&toks);
        let code = code_indices(&toks);
        let mut fa = FileAnalysis {
            rel: rel.to_string(),
            lines: source.lines().map(str::to_string).collect(),
            toks,
            code,
            suppressions,
            bad_suppressions,
            float_idents: Vec::new(),
            int64_idents: Vec::new(),
        };
        fa.collect_type_evidence();
        fa
    }

    fn tok(&self, code_idx: usize) -> &Tok {
        &self.toks[self.code[code_idx]]
    }

    fn text(&self, code_idx: usize) -> &str {
        &self.tok(code_idx).text
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    fn finding(&self, rule: Rule, code_idx: usize, message: String) -> Finding {
        let t = self.tok(code_idx);
        Finding {
            rule,
            file: self.rel.clone(),
            line: t.line,
            col: t.col,
            snippet: self.snippet(t.line),
            message,
        }
    }

    /// Scans `ident : Ty` ascriptions and `let x = …` initializers for
    /// float / 64-bit-int evidence used by the cast and format rules.
    fn collect_type_evidence(&mut self) {
        let n = self.code.len();
        for i in 0..n {
            // `name : Ty` — let bindings, fn params, struct fields.
            if self.tok(i).kind == TokKind::Ident
                && i + 2 < n
                && self.text(i + 1) == ":"
                && self.text(i + 2) != ":"
                && self.tok(i + 2).kind == TokKind::Ident
            {
                let name = self.text(i).to_string();
                let ty = self.text(i + 2);
                if FLOAT_TYPES.contains(&ty) {
                    self.float_idents.push(name);
                } else if INT64_TYPES.contains(&ty) {
                    self.int64_idents.push(name);
                }
                continue;
            }
            // `let [mut] name = <literal-or-cast …>;`
            if self.text(i) == "let" {
                let mut j = i + 1;
                if j < n && self.text(j) == "mut" {
                    j += 1;
                }
                if j + 1 < n && self.tok(j).kind == TokKind::Ident && self.text(j + 1) == "=" {
                    let name = self.text(j).to_string();
                    // First token of the initializer.
                    if let Some(first) = self.code.get(j + 2).map(|&k| &self.toks[k]) {
                        if first.kind == TokKind::Float {
                            self.float_idents.push(name.clone());
                        }
                    }
                    // Initializer ending in `as Ty;` pins the type.
                    let mut k = j + 2;
                    let mut depth = 0i32;
                    while k < n {
                        match self.text(k) {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth -= 1,
                            ";" if depth <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    if k < n && k >= 2 && self.text(k - 2) == "as" {
                        let ty = self.text(k - 1);
                        if FLOAT_TYPES.contains(&ty) {
                            self.float_idents.push(name);
                        } else if INT64_TYPES.contains(&ty) {
                            self.int64_idents.push(name);
                        }
                    }
                }
            }
        }
        self.float_idents.sort();
        self.float_idents.dedup();
        self.int64_idents.sort();
        self.int64_idents.dedup();
    }

    /// Collects the tokens of the primary expression ending just
    /// before code index `end` (exclusive) — the cast source of
    /// `<expr> as Ty`, walked backwards through call chains and
    /// balanced groups.
    fn primary_expr_before(&self, end: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut i = end;
        while i > 0 {
            i -= 1;
            let text = self.text(i);
            match text {
                ")" | "]" => {
                    // Walk to the matching opener, collecting.
                    let mut depth = 1i32;
                    out.push(i);
                    while i > 0 && depth > 0 {
                        i -= 1;
                        match self.text(i) {
                            ")" | "]" => depth += 1,
                            "(" | "[" => depth -= 1,
                            _ => {}
                        }
                        out.push(i);
                    }
                }
                "." => out.push(i),
                // Idents and literals are always consumed: backwards,
                // `name(args)` puts the callee after its argument
                // group, and stray keywords (`return`) carry no type
                // evidence.
                _ if matches!(
                    self.tok(i).kind,
                    TokKind::Ident | TokKind::Int | TokKind::Float
                ) =>
                {
                    out.push(i);
                }
                _ => break,
            }
        }
        out
    }

    /// Classifies an expression (a set of code-token indices) by its
    /// evidence: `(looks_float, looks_int64, looks_int)`.
    fn classify(&self, expr: &[usize]) -> (bool, bool, bool) {
        let mut float = false;
        let mut int64 = false;
        let mut int = false;
        for &i in expr {
            let t = self.tok(i);
            match t.kind {
                TokKind::Float => float = true,
                TokKind::Int => int = true,
                TokKind::Ident => {
                    let name = t.text.as_str();
                    if self.float_idents.iter().any(|f| f == name) {
                        float = true;
                    }
                    if self.int64_idents.iter().any(|f| f == name) {
                        int64 = true;
                    }
                    // `.method(` pattern with a float-only method.
                    if i > 0
                        && self.code_prev_is(i, ".")
                        && FLOAT_METHODS.contains(&name)
                        && self.code_next_is(i, "(")
                    {
                        float = true;
                    }
                }
                _ => {}
            }
        }
        (float, int64, int)
    }

    /// True when the code token before index `i` (by code order) has
    /// text `t`.
    fn code_prev_is(&self, i: usize, t: &str) -> bool {
        i > 0 && self.text(i - 1) == t
    }

    fn code_next_is(&self, i: usize, t: &str) -> bool {
        i + 1 < self.code.len() && self.text(i + 1) == t
    }
}

/// Indices of non-comment tokens lying outside `#[cfg(test)]` items.
fn code_indices(toks: &[Tok]) -> Vec<usize> {
    let non_comment: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
    let mut excluded = vec![false; toks.len()];
    let text = |ci: usize| toks[non_comment[ci]].text.as_str();
    let n = non_comment.len();
    let mut i = 0;
    while i < n {
        // `#[cfg(… test …)]`
        if text(i) == "#" && i + 4 < n && text(i + 1) == "[" && text(i + 2) == "cfg" {
            let mut j = i + 3;
            let mut depth = 0i32;
            let mut has_test = false;
            while j < n {
                match text(j) {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    "test" => has_test = true,
                    _ => {}
                }
                j += 1;
            }
            // Skip the closing `]`.
            if j + 1 < n && text(j + 1) == "]" {
                j += 2;
            }
            if has_test {
                // Skip any further attributes, then exclude the item:
                // through its braced body, or to the `;` of a bodiless
                // item.
                while j + 1 < n && text(j) == "#" && text(j + 1) == "[" {
                    let mut d = 0i32;
                    while j < n {
                        match text(j) {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                }
                let mut d = 0i32;
                while j < n {
                    match text(j) {
                        "{" => d += 1,
                        "}" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        ";" if d == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                for ci in i..=j.min(n - 1) {
                    excluded[non_comment[ci]] = true;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    non_comment.into_iter().filter(|&i| !excluded[i]).collect()
}

/// The outcome of running the token rules over one file.
pub struct FileReport {
    /// Live violations.
    pub findings: Vec<Finding>,
    /// Waived findings with their reasons.
    pub allowed: Vec<Allowed>,
}

/// Runs `rules` over `file`, honoring inline suppressions.
#[must_use]
pub fn check_file(file: &FileAnalysis, rules: &[Rule]) -> FileReport {
    let mut raw: Vec<Finding> = Vec::new();
    for &rule in rules {
        match rule {
            Rule::Nondeterminism => nondeterminism(file, &mut raw),
            Rule::FloatFormat => float_format(file, &mut raw),
            Rule::PowfExp2 => powf_exp2(file, &mut raw),
            Rule::LossyCast => lossy_cast(file, &mut raw),
            Rule::PanicInServe => panic_in_serve(file, &mut raw),
            // Handled globally / in crate::fingerprint.
            Rule::Suppression | Rule::KernelTagGuard => {}
        }
    }
    // Malformed suppressions are always findings, regardless of the
    // rule scope — a broken waiver anywhere is a policy violation.
    for bad in &file.bad_suppressions {
        raw.push(Finding {
            rule: Rule::Suppression,
            file: file.rel.clone(),
            line: bad.line,
            col: 1,
            snippet: file.snippet(bad.line),
            message: bad.message.clone(),
        });
    }
    let mut findings = Vec::new();
    let mut allowed = Vec::new();
    for f in raw {
        let waiver = file
            .suppressions
            .iter()
            .find(|s| s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line));
        match waiver {
            Some(s) if f.rule.suppressible() => allowed.push(Allowed {
                finding: f,
                reason: s.reason.clone(),
            }),
            _ => findings.push(f),
        }
    }
    FileReport { findings, allowed }
}

// ---------------------------------------------------------------------
// Individual rules
// ---------------------------------------------------------------------

fn nondeterminism(file: &FileAnalysis, out: &mut Vec<Finding>) {
    let n = file.code.len();
    let path2 = |i: usize, a: &str, b: &str| {
        i + 3 < n
            && file.text(i) == a
            && file.text(i + 1) == ":"
            && file.text(i + 2) == ":"
            && file.text(i + 3) == b
    };
    for i in 0..n {
        let t = file.text(i);
        let msg = match t {
            "Instant" | "SystemTime" if path2(i, t, "now") => Some(format!(
                "{t}::now() in a deterministic path — wall-clock reads belong in the \
                 declared-measured modules (timing.rs, bench_doc.rs, serve/bench.rs)"
            )),
            "HashMap" | "HashSet" => Some(format!(
                "{t} has nondeterministic iteration order — use BTreeMap/BTreeSet or a \
                 sorted Vec in kernel/report paths"
            )),
            "env"
                if path2(i, "env", "var")
                    || path2(i, "env", "var_os")
                    || path2(i, "env", "vars")
                    || path2(i, "env", "vars_os") =>
            {
                Some(
                    "environment read outside the sanctioned config modules (runtime, \
                     cache.rs, scale.rs) — reports must not depend on ambient state"
                        .to_string(),
                )
            }
            "thread" if path2(i, "thread", "current") => Some(
                "thread identity is nondeterministic — deterministic paths must not \
                 branch on which worker runs them"
                    .to_string(),
            ),
            "available_parallelism" => Some(
                "core-count detection varies by machine — deterministic paths take the \
                 thread budget from the Runtime, which validates COMPSTAT_THREADS"
                    .to_string(),
            ),
            "thread_rng" | "from_entropy" => Some(
                "OS-entropy RNG seeding is nondeterministic — use seeded StdRng streams"
                    .to_string(),
            ),
            _ => None,
        };
        if let Some(message) = msg {
            out.push(file.finding(Rule::Nondeterminism, i, message));
        }
    }
}

fn powf_exp2(file: &FileAnalysis, out: &mut Vec<Finding>) {
    let n = file.code.len();
    let is_two = |i: usize| {
        let raw = file.text(i).replace('_', "");
        let stripped = raw
            .trim_end_matches("f64")
            .trim_end_matches("f32")
            .trim_end_matches('.');
        matches!(stripped, "2" | "2.0")
    };
    for i in 0..n {
        if file.text(i) != "powf" {
            continue;
        }
        // `2f64.powf(x)` / `2.0_f64.powf(x)`
        let method_form = i >= 2
            && file.text(i - 1) == "."
            && matches!(file.tok(i - 2).kind, TokKind::Float | TokKind::Int)
            && is_two(i - 2);
        // `f64::powf(2.0, x)`
        let ufcs_form = i + 2 < n
            && file.text(i + 1) == "("
            && matches!(file.tok(i + 2).kind, TokKind::Float | TokKind::Int)
            && is_two(i + 2)
            && i >= 3
            && file.text(i - 1) == ":"
            && file.text(i - 2) == ":";
        if method_form || ufcs_form {
            out.push(
                file.finding(
                    Rule::PowfExp2,
                    i,
                    "pow(2, x) spelled with powf — LLVM rewrites it to exp2 only at \
                 opt-level > 0 and the two differ by an ulp for some operands \
                 (debug/release divergence); call f64::exp2(x) directly"
                        .to_string(),
                ),
            );
        }
    }
}

fn lossy_cast(file: &FileAnalysis, out: &mut Vec<Finding>) {
    let n = file.code.len();
    for i in 0..n {
        if file.text(i) != "as" || i + 1 >= n || i == 0 {
            continue;
        }
        let ty = file.text(i + 1);
        let to_float = FLOAT_TYPES.contains(&ty);
        let to_int = INT_TYPES.contains(&ty);
        if !to_float && !to_int {
            continue;
        }
        let expr = file.primary_expr_before(i);
        if expr.is_empty() {
            continue;
        }
        let (looks_float, looks_int64, _) = file.classify(&expr);
        if to_int && looks_float {
            out.push(file.finding(
                Rule::LossyCast,
                i,
                format!(
                    "float → {ty} `as` cast truncates toward zero and saturates \
                     silently — use an explicit rounding method plus try_from, or \
                     allow with the bound that makes it exact"
                ),
            ));
        } else if to_float && looks_int64 && !looks_float {
            out.push(file.finding(
                Rule::LossyCast,
                i,
                format!(
                    "64-bit integer → {ty} `as` cast rounds above 2^53 — convert \
                     through an exact path, or allow with the range bound"
                ),
            ));
        }
    }
}

fn panic_in_serve(file: &FileAnalysis, out: &mut Vec<Finding>) {
    let n = file.code.len();
    for i in 0..n {
        let t = file.text(i);
        let hit = match t {
            "unwrap" | "expect" => {
                i > 0 && file.text(i - 1) == "." && i + 1 < n && file.text(i + 1) == "("
            }
            "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
            | "assert_ne" => i + 1 < n && file.text(i + 1) == "!",
            _ => false,
        };
        if hit {
            out.push(file.finding(
                Rule::PanicInServe,
                i,
                format!(
                    "`{t}` reachable from the untrusted request path — a panic kills a \
                     worker and can poison shared locks; return a structured error \
                     frame instead, or allow with the reason it cannot fire"
                ),
            ));
        }
    }
}

fn float_format(file: &FileAnalysis, out: &mut Vec<Finding>) {
    const MACROS: &[&str] = &["format", "write", "writeln", "print", "println"];
    let n = file.code.len();
    for i in 0..n {
        if !MACROS.contains(&file.text(i))
            || i + 2 >= n
            || file.text(i + 1) != "!"
            || file.text(i + 2) != "("
        {
            continue;
        }
        // Collect the macro's top-level arguments.
        let mut depth = 0i32;
        let mut j = i + 2;
        let mut args: Vec<Vec<usize>> = vec![Vec::new()];
        while j < n {
            match file.text(j) {
                "(" | "[" | "{" => {
                    depth += 1;
                    if depth > 1 {
                        args.last_mut().expect("non-empty").push(j);
                    }
                }
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                    args.last_mut().expect("non-empty").push(j);
                }
                "," if depth == 1 => args.push(Vec::new()),
                _ if depth >= 1 => args.last_mut().expect("non-empty").push(j),
                _ => {}
            }
            j += 1;
        }
        // The format string is the first string-literal argument;
        // format args follow it.
        let Some(fmt_pos) = args.iter().position(|a| {
            a.len() == 1 && file.tok(a[0]).kind == TokKind::Str && !file.text(a[0]).starts_with('b')
        }) else {
            continue;
        };
        let fmt_tok_idx = args[fmt_pos][0];
        let fmt_text = file.text(fmt_tok_idx).to_string();
        let fmt_args = &args[fmt_pos + 1..];
        let mut positional = 0usize;
        for ph in placeholders(&fmt_text) {
            let (name, spec) = ph;
            // Only bare Display (`{}`/`{x}`) and Debug (`{:?}`/`{x:?}`)
            // are suspect; an explicit precision (`{x:.3}`) is a
            // deliberate fixed-decimal rendering.
            if !(spec.is_empty() || spec == "?") {
                if name.is_empty() {
                    positional += 1;
                }
                continue;
            }
            let is_float = if name.is_empty() {
                let arg = fmt_args.get(positional);
                positional += 1;
                arg.is_some_and(|a| {
                    let (f, _, _) = file.classify(a);
                    f || a
                        .windows(2)
                        .any(|w| file.text(w[0]) == "as" && FLOAT_TYPES.contains(&file.text(w[1])))
                })
            } else {
                // Named arg (`x = expr`) or inline capture (`{x}`).
                let named = fmt_args.iter().find(|a| {
                    a.len() >= 2 && file.text(a[0]) == name.as_str() && file.text(a[1]) == "="
                });
                match named {
                    Some(a) => {
                        let (f, _, _) = file.classify(&a[2..]);
                        f
                    }
                    None => file.float_idents.iter().any(|f| f == &name),
                }
            };
            if is_float {
                out.push(file.finding(
                    Rule::FloatFormat,
                    fmt_tok_idx,
                    format!(
                        "float rendered with `{{{name}{}}}` in a report path — Display \
                         picks the shortest round-trip spelling; use fmt_f64 / \
                         to_sci_string (the sci renderer) or an explicit precision",
                        if spec.is_empty() {
                            String::new()
                        } else {
                            format!(":{spec}")
                        }
                    ),
                ));
            }
        }
    }
}

/// Extracts `(name, spec)` pairs from a format string literal
/// (`"a {x:?} b {}"` → `[("x", "?"), ("", "")]`), honoring `{{`
/// escapes.
fn placeholders(lit: &str) -> Vec<(String, String)> {
    // Strip the quotes (and any raw-string guards).
    let inner = lit
        .trim_start_matches('r')
        .trim_matches('#')
        .trim_matches('"');
    let chars: Vec<char> = inner.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '{' if chars.get(i + 1) == Some(&'{') => i += 2,
            '}' if chars.get(i + 1) == Some(&'}') => i += 2,
            '{' => {
                let start = i + 1;
                let mut j = start;
                while j < chars.len() && chars[j] != '}' {
                    j += 1;
                }
                let body: String = chars[start..j].iter().collect();
                let (name, spec) = match body.split_once(':') {
                    Some((n, s)) => (n.to_string(), s.to_string()),
                    None => (body, String::new()),
                };
                out.push((name, spec));
                i = j + 1;
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str, rules: &[Rule]) -> FileReport {
        check_file(&FileAnalysis::new(rel, src), rules)
    }

    #[test]
    fn nondeterminism_catches_tokens_not_strings() {
        let rep = run(
            "x.rs",
            r#"
            fn f() {
                let t = std::time::Instant::now();
                let s = "Instant::now() in a string";
                // Instant::now() in a comment
            }
            "#,
            &[Rule::Nondeterminism],
        );
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert_eq!(rep.findings[0].line, 3);
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let rep = run(
            "x.rs",
            r"
            fn live() { let m: std::collections::HashMap<u32, u32> = Default::default(); }
            #[cfg(test)]
            mod tests {
                fn t() { let m: std::collections::HashMap<u32, u32> = Default::default(); }
            }
            ",
            &[Rule::Nondeterminism],
        );
        assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
        assert_eq!(rep.findings[0].line, 2);
    }

    #[test]
    fn suppressions_waive_with_reason() {
        let rep = run(
            "x.rs",
            "
            // compstat-audit: allow(nondeterminism): measured block, not in the report
            let t = std::time::Instant::now();
            let u = std::time::Instant::now();
            ",
            &[Rule::Nondeterminism],
        );
        // Line 3 waived (comment on line 2), line 4 not.
        assert_eq!(rep.allowed.len(), 1, "{:?}", rep.allowed);
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].line, 4);
    }

    #[test]
    fn powf_exp2_fires_on_base_two_only() {
        let rep = run(
            "x.rs",
            "
            let a = 2f64.powf(x);
            let b = 2.0.powf(x);
            let c = f64::powf(2.0, x);
            let d = y.powf(0.5);
            let e = u.powf(1.0 / alpha);
            ",
            &[Rule::PowfExp2],
        );
        let lines: Vec<u32> = rep.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [2, 3, 4], "{:?}", rep.findings);
    }

    #[test]
    fn lossy_cast_catches_float_to_int_and_int64_to_float() {
        let rep = run(
            "x.rs",
            "
            fn f(n: u64, h: usize) {
                let a = (309.0 * z.exp()).clamp(1.0, 2.0) as u64;
                let b = x.round() as i64;
                let c = n as f64;
                let d = 1.0 / h as f64;
                let small = idx as u32;
                let widen = small as u64;
            }
            ",
            &[Rule::LossyCast],
        );
        let lines: Vec<u32> = rep.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 4, 5, 6], "{:?}", rep.findings);
    }

    #[test]
    fn panic_in_serve_spares_unwrap_or_else() {
        let rep = run(
            "serve.rs",
            r#"
            fn f() {
                let a = x.unwrap();
                let b = x.expect("msg");
                let c = x.unwrap_or_else(default);
                let d = x.unwrap_or_default();
                panic!("boom");
            }
            "#,
            &[Rule::PanicInServe],
        );
        let lines: Vec<u32> = rep.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 4, 7], "{:?}", rep.findings);
    }

    #[test]
    fn float_format_flags_bare_display_and_debug_only() {
        let rep = run(
            "report.rs",
            r#"
            fn f(ratio: f64, count: u64) {
                let a = format!("{}", ratio);
                let b = format!("{ratio}");
                let c = format!("{:?}", ratio);
                let ok1 = format!("{ratio:.3}");
                let ok2 = format!("{}", count);
                let ok3 = format!("{}", "text");
            }
            "#,
            &[Rule::FloatFormat],
        );
        let lines: Vec<u32> = rep.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 4, 5], "{:?}", rep.findings);
    }

    #[test]
    fn float_format_resolves_named_args_and_methods() {
        let rep = run(
            "report.rs",
            r#"
            fn f(d: std::time::Duration) {
                let a = format!("{secs}", secs = d.as_secs_f64());
                let b = format!("{}", d.as_secs_f64());
            }
            "#,
            &[Rule::FloatFormat],
        );
        assert_eq!(rep.findings.len(), 2, "{:?}", rep.findings);
    }

    #[test]
    fn malformed_suppressions_are_findings_anywhere() {
        let rep = run(
            "x.rs",
            "// compstat-audit: allow(nondeterminism)\nfn f() {}",
            &[],
        );
        assert_eq!(rep.findings.len(), 1);
        assert_eq!(rep.findings[0].rule, Rule::Suppression);
    }
}
