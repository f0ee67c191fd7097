//! `batsched-lint` — a dependency-free invariant linter for this
//! workspace.
//!
//! Nine PRs of scheduler-kernel and serving work accumulated invariants
//! that `cargo clippy` cannot see: panics are only safe inside the
//! solver's `catch_unwind` boundary, the sharded cache's locks are taken
//! sequentially and never nested, every wire-derived allocation is capped
//! before it happens, bit-identity modules must never iterate a hash
//! table, and every crate root forbids `unsafe_code`. This crate turns
//! those reviewer-memory rules into CI gates.
//!
//! Design: a comment/string/raw-string-aware lexer ([`lexer`]) feeds a
//! brace-tracking structural pass and a rule registry ([`rules`]); no
//! regex-over-source, no external dependencies, sub-second over the whole
//! workspace. Violations are suppressed only by a machine-checked
//! annotation — `// lint:allow(<rule>): <reason>` trailing the offending
//! line or on the comment block above it — and a suppression that no
//! longer matches a
//! violation is itself an error (stale-allow detection), so the
//! annotation inventory can only shrink.
//!
//! See `docs/LINT.md` for the rule catalogue and a how-to-add-a-rule
//! walkthrough.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

pub use rules::{Finding, META_MALFORMED_ALLOW, META_STALE_ALLOW, RULES};

/// Which rule families apply to a file, derived from its workspace path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Request-serving module: the `panic-path` rule applies.
    pub serving: bool,
    /// Wire/disk decoder module: `uncapped-wire-alloc` applies.
    pub decoder: bool,
    /// Bit-identity kernel / canonical-hash module:
    /// `nondeterministic-iter` applies.
    pub bit_identity: bool,
    /// Crate root (`lib.rs`, `main.rs`, `bin/*.rs`): must carry
    /// `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// `crates/cli` may call `std::process::exit`.
    pub exempt_exit: bool,
}

/// Request-serving modules of `crates/service`: a panic here escapes the
/// solver's `catch_unwind` and kills a connection/router/supervisor
/// thread (PR 6).
const SERVING: [&str; 12] = [
    "crates/service/src/http.rs",
    "crates/service/src/http/client.rs",
    "crates/service/src/fleet.rs",
    "crates/service/src/service.rs",
    "crates/service/src/cache.rs",
    "crates/service/src/disk.rs",
    "crates/service/src/wire.rs",
    "crates/service/src/wire_bin.rs",
    "crates/service/src/wire_json.rs",
    "crates/service/src/metrics.rs",
    "crates/service/src/trace.rs",
    VENDORED_JSON,
];

/// Modules that decode wire- or disk-derived bytes: allocations sized
/// from decoded values must be visibly capped (PR 8's `terms` DoS fix).
const DECODER: [&str; 7] = [
    "crates/service/src/wire.rs",
    "crates/service/src/wire_bin.rs",
    "crates/service/src/wire_json.rs",
    "crates/service/src/disk.rs",
    "crates/service/src/http.rs",
    "crates/service/src/http/client.rs",
    VENDORED_JSON,
];

/// Bit-identity kernel and canonical-hash modules (PRs 1–4, 8): hash
/// iteration order would silently break the bit-identity proptests.
const BIT_IDENTITY: [&str; 5] = [
    "crates/core/src/search.rs",
    "crates/battery/src/eval.rs",
    "crates/service/src/wire.rs",
    "crates/service/src/wire_bin.rs",
    "crates/service/src/wire_json.rs",
];

/// The vendored JSON lexer: the request path's parser, so the one
/// `vendor/` file the sweep covers.
const VENDORED_JSON: &str = "vendor/serde/src/json.rs";

/// Classifies a forward-slash workspace-relative path.
pub fn classify(rel: &str) -> FileClass {
    let crate_root = rel.ends_with("/src/lib.rs")
        || rel == "src/lib.rs"
        || rel.ends_with("/src/main.rs")
        || (rel.contains("/src/bin/") && rel.ends_with(".rs"));
    FileClass {
        serving: SERVING.contains(&rel),
        decoder: DECODER.contains(&rel),
        bit_identity: BIT_IDENTITY.contains(&rel),
        crate_root,
        exempt_exit: rel.starts_with("crates/cli/"),
    }
}

/// Sweep result: findings plus throughput counters.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files: usize,
    pub lines: u64,
}

/// The linter: the rule registry minus any rules disabled through the
/// test hook ([`Linter::disable`]).
#[derive(Debug, Default, Clone)]
pub struct Linter {
    disabled: BTreeSet<String>,
}

impl Linter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Test hook: disables one rule. Returns `false` (and disables
    /// nothing) for a name not in the registry.
    pub fn disable(&mut self, rule: &str) -> bool {
        if RULES.contains(&rule) {
            self.disabled.insert(rule.to_string());
            true
        } else {
            false
        }
    }

    fn enabled(&self, rule: &str) -> bool {
        !self.disabled.contains(rule)
    }

    /// Lints one source text under an explicit classification; `file` is
    /// the label findings carry. Returns findings sorted by line.
    pub fn lint_source(&self, file: &str, class: &FileClass, src: &str) -> Vec<Finding> {
        let lexed = lexer::lex(src);
        let ctx = rules::Ctx::build(src, &lexed);
        let mut raw = Vec::new();
        rules::run_rules(file, class, &ctx, |r| self.enabled(r), &mut raw);

        // Apply suppressions. An allow covers exactly one line of code:
        // its own line when it trails code (`stmt; // lint:allow…`), else
        // the first token-bearing line after it — so a standalone
        // annotation sits above the violation and its reason may wrap
        // over several comment lines. Track use for stale-allow checks.
        let tok_lines: Vec<u32> = lexed.toks.iter().map(|t| t.line).collect();
        let target_of = |allow_line: u32| -> u32 {
            if tok_lines.binary_search(&allow_line).is_ok() {
                return allow_line;
            }
            let after = tok_lines.partition_point(|&l| l <= allow_line);
            tok_lines.get(after).copied().unwrap_or(allow_line)
        };
        let mut used = vec![false; lexed.allows.len()];
        let mut out: Vec<Finding> = Vec::new();
        for f in raw {
            let mut suppressed = false;
            for (k, a) in lexed.allows.iter().enumerate() {
                if a.rule == f.rule && target_of(a.line) == f.line {
                    used[k] = true;
                    suppressed = true;
                }
            }
            if !suppressed {
                out.push(f);
            }
        }
        for (k, a) in lexed.allows.iter().enumerate() {
            if !RULES.contains(&a.rule.as_str()) {
                out.push(Finding {
                    file: file.to_string(),
                    line: a.line,
                    rule: META_MALFORMED_ALLOW.to_string(),
                    message: format!(
                        "lint:allow names unknown rule `{}` (known: {})",
                        a.rule,
                        RULES.join(", ")
                    ),
                });
            } else if !used[k] && self.enabled(&a.rule) {
                out.push(Finding {
                    file: file.to_string(),
                    line: a.line,
                    rule: META_STALE_ALLOW.to_string(),
                    message: format!(
                        "lint:allow({}) no longer matches a violation on the line it \
                         covers — delete it (reason was: {})",
                        a.rule, a.reason
                    ),
                });
            }
        }
        for (line, msg) in &lexed.allow_errors {
            out.push(Finding {
                file: file.to_string(),
                line: *line,
                rule: META_MALFORMED_ALLOW.to_string(),
                message: msg.clone(),
            });
        }
        out.sort();
        out
    }

    /// Lints one file on disk, classifying it by its path relative to
    /// `root`.
    pub fn lint_file(&self, root: &Path, rel: &str) -> std::io::Result<(Vec<Finding>, u64)> {
        let src = std::fs::read_to_string(root.join(rel))?;
        let class = classify(rel);
        let lines = src.lines().count() as u64;
        Ok((self.lint_source(rel, &class, &src), lines))
    }

    /// Sweeps the workspace rooted at `root`: `src/` plus every
    /// `crates/*/src/` tree (recursively, including `src/bin/`), plus the
    /// vendored JSON lexer. The other `vendor/` shims, `target/`,
    /// integration-test dirs and the lint fixture corpus are outside
    /// those trees and never scanned.
    pub fn lint_workspace(&self, root: &Path) -> std::io::Result<Report> {
        let mut rep = Report::default();
        for rel in workspace_files(root)? {
            let (findings, lines) = self.lint_file(root, &rel)?;
            rep.findings.extend(findings);
            rep.files += 1;
            rep.lines += lines;
        }
        rep.findings.sort();
        Ok(rep)
    }
}

/// The deterministic, sorted list of workspace-relative source paths the
/// sweep covers.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut rels: Vec<String> = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let p = entry?.path();
            if p.is_dir() {
                roots.push(p.join("src"));
            }
        }
    }
    for r in roots {
        if r.is_dir() {
            walk(&r, root, &mut rels)?;
        }
    }
    if root.join(VENDORED_JSON).is_file() {
        rels.push(VENDORED_JSON.to_string());
    }
    rels.sort();
    Ok(rels)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}
