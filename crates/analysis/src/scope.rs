//! Which files the audit walks, and which rules apply where.
//!
//! The default audit set is the workspace's own first-party sources:
//! the umbrella crate's `src/lib.rs` plus every `crates/<name>/src`
//! tree except `crates/vendor` (vendored third-party code is not held
//! to this project's invariants). Explicitly named paths — as used by
//! the fixture tests — are audited with **every** token rule, since
//! out-of-tree files carry no scoping information.
//!
//! Rule scoping encodes where each invariant actually binds:
//!
//! * `nondeterminism` applies everywhere except the declared-measured
//!   and sanctioned-config modules in [`MEASURED_ALLOWLIST`] — the
//!   places whose whole job is reading clocks, core counts, or
//!   `COMPSTAT_*` environment knobs, and whose outputs are declared
//!   non-deterministic (`compstat-bench/v1`) or never reach a report.
//! * `float-format` applies to report-rendering paths (the report and
//!   diff models, the CLI, the bench experiments, the serve wire
//!   encoder).
//! * `powf-exp2` applies everywhere; the divergence class is global.
//! * `lossy-cast` applies to the numeric kernels (`bigfloat`, `hmm`,
//!   `pbd`, `posit`).
//! * `panic-in-serve` applies to the untrusted request path
//!   (`crates/serve/src/proto.rs`, `server.rs`).

use crate::rules::Rule;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Modules allowed to read clocks, core counts, and `COMPSTAT_*`
/// environment variables — each with the reason it is sanctioned.
pub const MEASURED_ALLOWLIST: &[(&str, &str)] = &[
    (
        "crates/bench/src/timing.rs",
        "the measured-timing harness; its output is quarantined in compstat-bench/v1 docs",
    ),
    (
        "crates/core/src/bench_doc.rs",
        "the bench-doc model, explicitly declared non_deterministic",
    ),
    (
        "crates/serve/src/bench.rs",
        "the serve load harness; latency percentiles are measurements by definition",
    ),
    (
        "crates/runtime/src/lib.rs",
        "the runtime owns COMPSTAT_THREADS validation and core-count fallback",
    ),
    (
        "crates/core/src/cache.rs",
        "the oracle cache owns COMPSTAT_CACHE_DIR and mtime-based staleness checks",
    ),
    (
        "crates/core/src/scale.rs",
        "scale-profile selection reads the sanctioned COMPSTAT_SCALE knob",
    ),
];

/// Report-rendering paths where `float-format` binds.
const FLOAT_FORMAT_SCOPE: &[&str] = &[
    "crates/core/src/report.rs",
    "crates/core/src/diff.rs",
    "crates/core/src/bench_doc.rs",
    "crates/core/src/accuracy.rs",
    "crates/cli/src/",
    "crates/bench/src/",
    "crates/serve/src/proto.rs",
];

/// Numeric-kernel crates where `lossy-cast` binds.
const LOSSY_CAST_SCOPE: &[&str] = &[
    "crates/bigfloat/src/",
    "crates/hmm/src/",
    "crates/pbd/src/",
    "crates/posit/src/",
];

/// The untrusted serve request path where `panic-in-serve` binds.
const PANIC_SCOPE: &[&str] = &["crates/serve/src/proto.rs", "crates/serve/src/server.rs"];

/// True when `rel` (workspace-relative, forward slashes) is part of
/// the default audit set.
#[must_use]
pub fn in_default_set(rel: &str) -> bool {
    rel == "src/lib.rs"
        || (rel.starts_with("crates/")
            && !rel.starts_with("crates/vendor/")
            && rel.contains("/src/")
            && rel.ends_with(".rs"))
}

fn matches_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| {
        if p.ends_with('/') {
            rel.starts_with(p)
        } else {
            rel == *p
        }
    })
}

/// The token rules that bind for one file.
#[must_use]
pub fn rules_for(rel: &str) -> Vec<Rule> {
    if !in_default_set(rel) {
        // Explicitly named out-of-tree files (fixtures, ad-hoc audits)
        // get the full battery.
        return vec![
            Rule::Nondeterminism,
            Rule::FloatFormat,
            Rule::PowfExp2,
            Rule::LossyCast,
            Rule::PanicInServe,
        ];
    }
    let mut out = Vec::new();
    if !MEASURED_ALLOWLIST.iter().any(|(p, _)| *p == rel) {
        out.push(Rule::Nondeterminism);
    }
    if matches_scope(rel, FLOAT_FORMAT_SCOPE) {
        out.push(Rule::FloatFormat);
    }
    out.push(Rule::PowfExp2);
    if matches_scope(rel, LOSSY_CAST_SCOPE) {
        out.push(Rule::LossyCast);
    }
    if matches_scope(rel, PANIC_SCOPE) {
        out.push(Rule::PanicInServe);
    }
    out
}

/// The workspace-relative path of `path` under `root`, with forward
/// slashes (the spelling used in findings and fingerprints).
#[must_use]
pub fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Collects the default audit set under `root`, sorted for
/// deterministic output.
pub fn default_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let umbrella = root.join("src/lib.rs");
    if umbrella.is_file() {
        out.push(umbrella);
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in sorted_entries(&crates)? {
            if entry.file_name().and_then(|n| n.to_str()) == Some("vendor") {
                continue;
            }
            let src = entry.join("src");
            if src.is_dir() {
                walk_rs(&src, &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Expands explicitly named paths: files are taken as-is, directories
/// are walked for `.rs` files.
pub fn expand_paths(paths: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for p in paths {
        if p.is_dir() {
            walk_rs(p, &mut out)?;
        } else if p.is_file() {
            out.push(p.clone());
        } else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file or directory: {}", p.display()),
            ));
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in sorted_entries(dir)? {
        if entry.is_dir() {
            walk_rs(&entry, out)?;
        } else if entry.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(entry);
        }
    }
    Ok(())
}

fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_crates_get_lossy_cast() {
        assert!(rules_for("crates/bigfloat/src/arith.rs").contains(&Rule::LossyCast));
        assert!(rules_for("crates/hmm/src/forward.rs").contains(&Rule::LossyCast));
        assert!(rules_for("crates/posit/src/encode.rs").contains(&Rule::LossyCast));
        assert!(!rules_for("crates/fpga/src/pe.rs").contains(&Rule::LossyCast));
    }

    #[test]
    fn measured_modules_skip_nondeterminism_only() {
        let timing = rules_for("crates/bench/src/timing.rs");
        assert!(!timing.contains(&Rule::Nondeterminism));
        assert!(timing.contains(&Rule::PowfExp2));
        let kernel = rules_for("crates/hmm/src/batch.rs");
        assert!(kernel.contains(&Rule::Nondeterminism));
    }

    #[test]
    fn serve_request_path_gets_panic_rule() {
        assert!(rules_for("crates/serve/src/server.rs").contains(&Rule::PanicInServe));
        assert!(!rules_for("crates/serve/src/bench.rs").contains(&Rule::PanicInServe));
        assert!(!rules_for("crates/cli/src/main.rs").contains(&Rule::PanicInServe));
    }

    #[test]
    fn out_of_tree_paths_get_every_token_rule() {
        let fixture = rules_for("crates/analysis/tests/fixtures/lossy_cast.rs");
        assert!(fixture.contains(&Rule::LossyCast));
        assert!(fixture.contains(&Rule::PanicInServe));
        assert!(!in_default_set(
            "crates/analysis/tests/fixtures/lossy_cast.rs"
        ));
        assert!(!in_default_set("crates/vendor/rand/src/lib.rs"));
        assert!(in_default_set("crates/analysis/src/lexer.rs"));
        assert!(in_default_set("src/lib.rs"));
    }
}
