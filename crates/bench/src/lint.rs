//! `foss-lint`: hand-rolled repo static checks (no parser dependencies).
//!
//! Five rules, each encoding an invariant this repo actually relies on:
//!
//! * **panic-habits** (`A`) — no `.unwrap()` / `.expect(` / `panic!(` in
//!   `crates/service` or `crates/executor/src/{cache,fused,probe}.rs`
//!   non-test code. The serving layer (and the latency cache every one of
//!   its executions passes through, the tier-2 fused engine it dispatches
//!   to and the join kernels that engine runs) must degrade (fallback,
//!   shed, wire error), never abort a worker thread.
//! * **sync-facade** (`B`) — no direct `std::sync` lock/atomic imports and
//!   no `parking_lot` anywhere outside the `foss_common::sync` facade, the
//!   `crates/analysis` checker (which implements the shims) and the vendor
//!   tree. Every primitive routed through the facade is model-checkable
//!   under `--features model-check`; a direct import silently escapes the
//!   scheduler. `Arc`, `Weak`, `mpsc`, `Once*` and `Barrier`-free helpers
//!   stay allowed — they are either immutable plumbing or have no
//!   instrumented equivalent on purpose.
//! * **wire-mapping** (`C`) — every `FossError` variant has an arm in
//!   `WireError::from_error`. A new variant that misses the mapping would
//!   not fail compilation anywhere near the wire (the match is on `&e`
//!   with struct patterns), it would fail at the first client.
//! * **unsafe-scope** (`D`) — the `unsafe` keyword appears only in
//!   `crates/analysis/src/sync.rs` (the checker's lock shims) and
//!   `crates/nn/src/matrix.rs` (the AVX2 and AVX-512 kernel builds and
//!   their dispatch), test code included, and every use carries a
//!   `// SAFETY:` comment on its own line or in the comment and attribute
//!   lines directly above it.
//! * **env-knobs** (`E`) — non-test code under `crates/` reads the
//!   environment (`std::env::var` / `var_os`) only in the files that
//!   resolve the repo's existing variables: `crates/common/src/faults.rs`
//!   (`FOSS_FAULTS`) and `crates/bench/src/{cli,lib}.rs` (`FOSS_SCALE`,
//!   `FOSS_ROUNDS`). A new environment knob is a new way for two runs of
//!   one binary to differ; it goes through one of those resolvers or not
//!   at all.
//!
//! The scanner is line-based: string/char literals and `//` comments are
//! stripped first, and `#[cfg(test)]` regions are tracked by brace depth so
//! test modules are exempt. That is deliberately simple — the repo's style
//! (rustfmt, tests in a trailing `mod tests`) keeps it sound, and the unit
//! tests below pin the corner cases (byte-literal braces, raw strings,
//! patterns quoted inside string literals).

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint violation, printable as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Short rule id (`panic-habits`, `sync-facade`, `wire-mapping`,
    /// `unsafe-scope`, `env-knobs`).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Strip `//` comments and the *contents* of string/char/byte literals from
/// one source line, so pattern matches and brace counting never fire inside
/// quoted text. Handles `"…"`, `b"…"`, `r"…"`/`r#"…"#`, `'c'`, `b'c'` and
/// escape sequences; lifetimes (`'a`) are left alone (no closing quote).
fn sanitize(line: &str) -> String {
    let bytes = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        // Comment: drop the rest of the line.
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            break;
        }
        // Raw string r"…" / r#"…"# (optionally b-prefixed).
        let raw_start = {
            let mut j = i;
            if bytes[j] == b'b' {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'r' {
                let mut hashes = 0;
                let mut k = j + 1;
                while k < bytes.len() && bytes[k] == b'#' {
                    hashes += 1;
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b'"' {
                    Some((k + 1, hashes))
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some((body, hashes)) = raw_start {
            out.push_str("\"\"");
            let closer: Vec<u8> = std::iter::once(b'"')
                .chain(std::iter::repeat_n(b'#', hashes))
                .collect();
            let mut j = body;
            while j < bytes.len() {
                if bytes[j..].starts_with(&closer) {
                    j += closer.len();
                    break;
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // Plain string "…" (optionally b-prefixed).
        if b == b'"' || (b == b'b' && i + 1 < bytes.len() && bytes[i + 1] == b'"') {
            let mut j = if b == b'b' { i + 2 } else { i + 1 };
            out.push_str("\"\"");
            while j < bytes.len() {
                match bytes[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            i = j;
            continue;
        }
        // Char / byte literal: a quote closed within a few bytes ('x', '\n',
        // b'{'). An unclosed quote is a lifetime and is kept verbatim.
        if b == b'\'' || (b == b'b' && i + 1 < bytes.len() && bytes[i + 1] == b'\'') {
            let start = if b == b'b' { i + 2 } else { i + 1 };
            let mut j = start;
            if j < bytes.len() && bytes[j] == b'\\' {
                j += 2;
            } else if j < bytes.len() {
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'\'' {
                out.push_str("' '");
                i = j + 1;
                continue;
            }
        }
        out.push(b as char);
        i += 1;
    }
    out
}

/// Line classifier tracking `#[cfg(test)]` regions by brace depth.
#[derive(Default)]
struct TestRegion {
    depth: i32,
    /// Depth at which the active `#[cfg(test)]` item opened, if any.
    test_at: Option<i32>,
    /// A `#[cfg(test)]` attribute was seen but its item hasn't opened yet.
    pending: bool,
}

impl TestRegion {
    /// Feed one *sanitized* line; returns true when the line belongs to
    /// test code (including the attribute line itself).
    fn is_test(&mut self, line: &str) -> bool {
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[cfg(test)") {
            self.pending = true;
            return true;
        }
        let in_test_before = self.test_at.is_some() || self.pending;
        let opens = line.matches('{').count() as i32;
        let closes = line.matches('}').count() as i32;
        if self.pending && opens > 0 {
            self.test_at = Some(self.depth);
            self.pending = false;
        }
        self.depth += opens - closes;
        if let Some(at) = self.test_at {
            if self.depth <= at {
                self.test_at = None;
            }
        }
        in_test_before || self.test_at.is_some()
    }
}

const PANIC_PATTERNS: &[(&str, &str)] = &[
    (
        ".unwrap()",
        "`.unwrap()` in service code (return a FossError instead)",
    ),
    (
        ".expect(",
        "`.expect(...)` in service code (return a FossError instead)",
    ),
    (
        "panic!(",
        "`panic!` in service code (return a FossError instead)",
    ),
];

/// Paths rule A covers: the whole serving layer, plus the latency cache,
/// the tier-2 fused engine and the join kernels it drives, the planner
/// snapshot and the query graph whose fingerprint keys serving state —
/// they run inside serving threads on the latency path, so they must
/// degrade (decline to compile, return `FossError`) rather than abort.
fn panic_rule_applies(rel_path: &str) -> bool {
    rel_path.starts_with("crates/service/")
        || rel_path == "crates/executor/src/cache.rs"
        || rel_path == "crates/executor/src/fused.rs"
        || rel_path == "crates/executor/src/probe.rs"
        || rel_path == "crates/core/src/snapshot.rs"
        || rel_path == "crates/query/src/graph.rs"
}

/// Rule A: panic habits in `crates/service` (and the executor files it
/// runs through) non-test code.
pub fn scan_panic_habits(rel_path: &str, source: &str) -> Vec<Finding> {
    if !panic_rule_applies(rel_path) {
        return Vec::new();
    }
    let mut region = TestRegion::default();
    let mut findings = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = sanitize(raw);
        if region.is_test(&line) {
            continue;
        }
        for (pat, msg) in PANIC_PATTERNS {
            if line.contains(pat) {
                findings.push(Finding {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule: "panic-habits",
                    message: (*msg).to_string(),
                });
            }
        }
    }
    findings
}

/// `std::sync` items that must go through `foss_common::sync` instead.
const BANNED_STD_SYNC: &[&str] = &[
    "Mutex",
    "MutexGuard",
    "RwLock",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "Condvar",
    "Barrier",
    "atomic",
    "TryLockError",
    "PoisonError",
];

/// Paths exempt from the sync-facade rule: the facade itself and the model
/// checker that implements the instrumented shims.
fn sync_rule_exempt(rel_path: &str) -> bool {
    rel_path == "crates/common/src/sync.rs" || rel_path.starts_with("crates/analysis/")
}

/// Rule B: direct `std::sync` lock/atomic or `parking_lot` usage outside
/// the facade, the checker and the vendor tree.
pub fn scan_sync_facade(rel_path: &str, source: &str) -> Vec<Finding> {
    if sync_rule_exempt(rel_path) {
        return Vec::new();
    }
    let mut region = TestRegion::default();
    let mut findings = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = sanitize(raw);
        if region.is_test(&line) {
            continue;
        }
        if line.contains("parking_lot::") || line.contains("use parking_lot") {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: idx + 1,
                rule: "sync-facade",
                message: "`parking_lot` outside the facade (use `foss_common::sync`)".to_string(),
            });
            continue;
        }
        'scan: for pos in line.match_indices("std::sync::").map(|(p, _)| p) {
            let rest = &line[pos + "std::sync::".len()..];
            // Either a single item (`std::sync::Mutex`) or a brace group
            // (`use std::sync::{Arc, Mutex}`) — check every leading
            // identifier in the group.
            let items: Vec<String> = if let Some(group) = rest.strip_prefix('{') {
                group
                    .split([',', '}'])
                    .map(|part| {
                        part.trim()
                            .chars()
                            .take_while(|c| c.is_alphanumeric() || *c == '_')
                            .collect()
                    })
                    .collect()
            } else {
                vec![rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect()]
            };
            for item in items {
                if BANNED_STD_SYNC.contains(&item.as_str()) {
                    findings.push(Finding {
                        file: rel_path.to_string(),
                        line: idx + 1,
                        rule: "sync-facade",
                        message: format!(
                            "`std::sync::{item}` outside the facade (use `foss_common::sync`)"
                        ),
                    });
                    break 'scan;
                }
            }
        }
    }
    findings
}

/// The files rule D lets use `unsafe`.
const UNSAFE_ALLOWED: &[&str] = &["crates/analysis/src/sync.rs", "crates/nn/src/matrix.rs"];

/// Whether the *sanitized* line uses the `unsafe` keyword (as a whole word,
/// so `UnsafeCell` and `unsafe_op` do not count).
fn uses_unsafe(line: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    line.match_indices("unsafe").any(|(pos, w)| {
        !ident(line[..pos].chars().next_back()) && !ident(line[pos + w.len()..].chars().next())
    })
}

/// Whether the `unsafe` on line `idx` is justified: `// SAFETY:` on that
/// line, or in the run of comment and attribute lines just above it.
fn has_safety_comment(lines: &[&str], idx: usize) -> bool {
    if lines[idx].contains("// SAFETY:") {
        return true;
    }
    lines[..idx]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//") || l.starts_with("#["))
        .any(|l| l.starts_with("// SAFETY:"))
}

/// Rule D: `unsafe` only in `crates/analysis/src/sync.rs` and
/// `crates/nn/src/matrix.rs`, and there only with a `// SAFETY:` comment.
/// Test code is not exempt.
pub fn scan_unsafe(rel_path: &str, source: &str) -> Vec<Finding> {
    let allowed = UNSAFE_ALLOWED.contains(&rel_path);
    let lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        if !uses_unsafe(&sanitize(raw)) {
            continue;
        }
        let message = if !allowed {
            format!(
                "`unsafe` outside {} (keep unsafe code in those files)",
                UNSAFE_ALLOWED.join(" and ")
            )
        } else if !has_safety_comment(&lines, idx) {
            "`unsafe` without a `// SAFETY:` comment saying why it is sound".to_string()
        } else {
            continue;
        };
        findings.push(Finding {
            file: rel_path.to_string(),
            line: idx + 1,
            rule: "unsafe-scope",
            message,
        });
    }
    findings
}

/// The files rule E lets read the environment.
const ENV_ALLOWED: &[&str] = &[
    "crates/common/src/faults.rs",
    "crates/bench/src/cli.rs",
    "crates/bench/src/lib.rs",
];

/// Whether the *sanitized* line names `env::var` or `env::var_os` (so
/// `env::vars`, `env::args` and the `env!` macro do not count).
fn reads_env_var(line: &str) -> bool {
    line.match_indices("env::var").any(|(pos, w)| {
        let rest: String = line[pos + w.len()..]
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        rest.is_empty() || rest == "_os"
    })
}

/// Rule E: `std::env::var` / `var_os` outside the resolver files in non-test
/// code (`#[cfg(test)]` regions and integration-test directories are
/// exempt).
pub fn scan_env_knobs(rel_path: &str, source: &str) -> Vec<Finding> {
    if ENV_ALLOWED.contains(&rel_path) || rel_path.contains("/tests/") {
        return Vec::new();
    }
    let mut region = TestRegion::default();
    let mut findings = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = sanitize(raw);
        if region.is_test(&line) || !reads_env_var(&line) {
            continue;
        }
        findings.push(Finding {
            file: rel_path.to_string(),
            line: idx + 1,
            rule: "env-knobs",
            message: format!(
                "environment read outside {} (no new env knobs)",
                ENV_ALLOWED.join(", ")
            ),
        });
    }
    findings
}

/// Extract the variant names of `pub enum FossError` from `error.rs`
/// source, with the 1-based line each is declared on.
fn foss_error_variants(error_src: &str) -> Vec<(String, usize)> {
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut in_enum = false;
    for (idx, raw) in error_src.lines().enumerate() {
        let line = sanitize(raw);
        if line.contains("pub enum FossError") {
            in_enum = true;
        }
        if in_enum {
            if depth == 1 {
                let t = line.trim_start();
                let name: String = t
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.is_empty() && name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    variants.push((name, idx + 1));
                }
            }
            depth += line.matches('{').count() as i32;
            depth -= line.matches('}').count() as i32;
            if depth <= 0 && line.contains('}') {
                break;
            }
        }
    }
    variants
}

/// Rule C: every `FossError` variant appears in the wire mapping
/// (`WireError::from_error` in `wire.rs`).
pub fn check_wire_mapping(error_src: &str, wire_src: &str) -> Vec<Finding> {
    let variants = foss_error_variants(error_src);
    let mut findings = Vec::new();
    if variants.is_empty() {
        findings.push(Finding {
            file: "crates/common/src/error.rs".to_string(),
            line: 1,
            rule: "wire-mapping",
            message: "could not locate `pub enum FossError` variants".to_string(),
        });
        return findings;
    }
    for (name, line) in variants {
        let pattern = format!("FossError::{name}");
        if !wire_src.contains(&pattern) {
            findings.push(Finding {
                file: "crates/common/src/error.rs".to_string(),
                line,
                rule: "wire-mapping",
                message: format!(
                    "`FossError::{name}` has no arm in `WireError::from_error` (crates/service/src/wire.rs)"
                ),
            });
        }
    }
    findings
}

/// Collect every `.rs` file under `root/crates`, skipping the vendor tree
/// and build artifacts; paths come back repo-relative with `/` separators.
fn rust_sources(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "vendor" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Run every rule against the repo at `root`; findings are sorted by file
/// then line. `Err` is an I/O-level problem (missing tree, unreadable file).
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = Vec::new();
    for (rel, path) in rust_sources(root)? {
        let source =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        findings.extend(scan_panic_habits(&rel, &source));
        findings.extend(scan_sync_facade(&rel, &source));
        findings.extend(scan_unsafe(&rel, &source));
        findings.extend(scan_env_knobs(&rel, &source));
    }
    let error_path = root.join("crates/common/src/error.rs");
    let wire_path = root.join("crates/service/src/wire.rs");
    let error_src = std::fs::read_to_string(&error_path)
        .map_err(|e| format!("read {}: {e}", error_path.display()))?;
    let wire_src = std::fs::read_to_string(&wire_path)
        .map_err(|e| format!("read {}: {e}", wire_path.display()))?;
    findings.extend(check_wire_mapping(&error_src, &wire_src));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_strips_strings_comments_and_byte_literals() {
        assert_eq!(sanitize(r#"let x = "a { b"; // panic!("#), "let x = \"\"; ");
        // Byte-literal braces must not unbalance depth tracking.
        assert_eq!(
            sanitize("self.expect_byte(b'{')?;"),
            "self.expect_byte(' ')?;"
        );
        assert_eq!(sanitize(r##"let s = r#"x } y"#;"##), "let s = \"\";");
        // Lifetimes survive.
        assert_eq!(
            sanitize("fn f<'a>(x: &'a str) {}"),
            "fn f<'a>(x: &'a str) {}"
        );
    }

    #[test]
    fn panic_habits_flags_non_test_and_exempts_tests() {
        let src = "fn f() {\n    x.unwrap();\n}\n#[cfg(test)]\nmod tests {\n    fn g() { y.unwrap(); }\n}\n";
        let found = scan_panic_habits("crates/service/src/lib.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);
        // The latency cache, the fused tier-2 engine, its join kernels, the
        // planner snapshot and the query graph are in scope too; the rest
        // of their crates is not.
        for path in [
            "crates/executor/src/cache.rs",
            "crates/executor/src/fused.rs",
            "crates/executor/src/probe.rs",
            "crates/core/src/snapshot.rs",
            "crates/query/src/graph.rs",
        ] {
            assert_eq!(scan_panic_habits(path, src).len(), 1, "{path}");
        }
        for path in [
            "crates/executor/src/exec.rs",
            "crates/core/src/trainer.rs",
            "crates/query/src/predicate.rs",
        ] {
            assert!(scan_panic_habits(path, src).is_empty(), "{path}");
        }
        // Same source outside crates/service is out of scope for rule A.
        assert!(scan_panic_habits("crates/core/src/lib.rs", src).is_empty());
    }

    #[test]
    fn panic_habits_ignores_quoted_patterns_and_comments() {
        let src =
            "fn f() {\n    // never .unwrap() here\n    let m = \".unwrap()\";\n    log(m);\n}\n";
        assert!(scan_panic_habits("crates/service/src/lib.rs", src).is_empty());
    }

    #[test]
    fn sync_facade_flags_std_locks_but_allows_arc_and_mpsc() {
        let src = "use std::sync::{Arc, Mutex};\nuse std::sync::mpsc;\nuse std::sync::atomic::AtomicU64;\n";
        let found = scan_sync_facade("crates/core/src/x.rs", src);
        let lines: Vec<usize> = found.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![1, 3]);
        let src_ok =
            "use std::sync::Arc;\nuse std::sync::mpsc::channel;\nuse std::sync::OnceLock;\n";
        assert!(scan_sync_facade("crates/core/src/x.rs", src_ok).is_empty());
    }

    #[test]
    fn sync_facade_flags_parking_lot_even_fully_qualified() {
        let src = "struct S { m: parking_lot::Mutex<u32> }\n";
        assert_eq!(scan_sync_facade("crates/rl/src/x.rs", src).len(), 1);
    }

    #[test]
    fn sync_facade_exempts_facade_checker_and_tests() {
        let src = "use std::sync::Mutex;\n";
        assert!(scan_sync_facade("crates/common/src/sync.rs", src).is_empty());
        assert!(scan_sync_facade("crates/analysis/src/sync.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::sync::Barrier;\n}\n";
        assert!(scan_sync_facade("crates/executor/src/cache.rs", test_src).is_empty());
    }

    #[test]
    fn wire_mapping_reports_missing_variant() {
        let error_src =
            "pub enum FossError {\n    Timeout { spent: u64 },\n    Brand(String),\n}\n";
        let wire_src = "FossError::Timeout { .. } => (504, \"timeout\", true),";
        let found = check_wire_mapping(error_src, wire_src);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("FossError::Brand"));
        assert_eq!(found[0].line, 3);
    }

    #[test]
    fn wire_mapping_clean_when_all_variants_mapped() {
        let error_src = "pub enum FossError {\n    A(String),\n    B { x: u64 },\n}\n";
        let wire_src = "FossError::A(_) => 1, FossError::B { .. } => 2,";
        assert!(check_wire_mapping(error_src, wire_src).is_empty());
    }

    #[test]
    fn unsafe_scope_flags_unsafe_outside_the_allowed_files() {
        let src = "fn f() {\n    // SAFETY: justified, but in the wrong file.\n    unsafe { g() }\n}\n#[cfg(test)]\nmod tests {\n    unsafe impl Send for T {}\n}\n";
        let lines: Vec<usize> = scan_unsafe("crates/core/src/x.rs", src)
            .iter()
            .map(|f| f.line)
            .collect();
        // Test code is not exempt.
        assert_eq!(lines, vec![3, 7]);
        for path in ["crates/analysis/src/sync.rs", "crates/nn/src/matrix.rs"] {
            assert_eq!(scan_unsafe(path, src).len(), 1, "{path}");
        }
    }

    #[test]
    fn unsafe_scope_requires_a_safety_comment() {
        let path = "crates/nn/src/matrix.rs";
        // Directly above, above an attribute, or on the same line.
        let ok = "// SAFETY: checked above.\nunsafe { f() }\n// SAFETY: host has AVX2.\n#[cfg(x)]\nX => unsafe { g() },\nlet v = unsafe { h() }; // SAFETY: in bounds.\n";
        assert!(scan_unsafe(path, ok).is_empty());
        // Not separated by code, not lower-case, not a doc comment.
        let bad = "// SAFETY: for the first only.\nunsafe impl Send for A {}\nunsafe impl Sync for A {}\n// Safety: wrong case.\nunsafe { f() }\n/// SAFETY: a doc comment.\nunsafe { g() }\n";
        let lines: Vec<usize> = scan_unsafe(path, bad).iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![3, 5, 7]);
    }

    #[test]
    fn unsafe_scope_ignores_identifiers_strings_and_comments() {
        let src = "use std::cell::UnsafeCell;\nlet m = \"unsafe { }\";\n// unsafe here is prose\nfn not_unsafe_op() {}\n";
        assert!(scan_unsafe("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn env_knobs_flags_env_reads_outside_the_resolvers() {
        let src = "fn f() {\n    let a = std::env::var(\"X\");\n    let b = env::var_os(\"Y\");\n    let c = std::env::args();\n    let d = env!(\"CARGO_MANIFEST_DIR\");\n    let e = std::env::vars();\n}\n#[cfg(test)]\nmod tests {\n    fn g() { std::env::var(\"Z\"); }\n}\n";
        let lines: Vec<usize> = scan_env_knobs("crates/service/src/tier.rs", src)
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![2, 3]);
        for path in ENV_ALLOWED {
            assert!(scan_env_knobs(path, src).is_empty(), "{path}");
        }
        // Integration tests and quoted or commented names are exempt.
        assert!(scan_env_knobs("crates/bench/tests/x.rs", src).is_empty());
        let quoted =
            "fn f() {\n    // std::env::var here is prose\n    let m = \"env::var_os\";\n}\n";
        assert!(scan_env_knobs("crates/core/src/x.rs", quoted).is_empty());
    }

    /// The repo itself must be clean — this is the same gate CI runs via
    /// the `foss-lint` binary, kept as a unit test so `cargo test` alone
    /// catches a regression.
    #[test]
    fn repo_is_lint_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = run(&root).expect("lint walk failed");
        assert!(
            findings.is_empty(),
            "foss-lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
