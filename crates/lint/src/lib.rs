//! `dibs-lint`: simulation-safety static analysis for the DIBS workspace.
//!
//! A discrete-event network simulator lives or dies by three properties
//! that the Rust compiler does not check for us:
//!
//! 1. **Determinism** — the same scenario and seed must produce the same
//!    packet trace, byte for byte. Hash-based collections iterate in a
//!    randomized order, wall-clock reads smuggle host time into results,
//!    and ambient RNGs (`thread_rng`) are seeded from the OS. Any of
//!    these silently breaks replayability.
//! 2. **Accounting soundness** — counters of packets, bytes, and buffer
//!    occupancy are `u64`s that must never underflow or truncate. An
//!    unchecked `a - b` or a narrowing `as` cast turns an off-by-one
//!    into a 2^64 buffer occupancy instead of a panic.
//! 3. **Panic hygiene** — `unwrap()`/`expect()` on the switch, transport
//!    and engine hot paths must be deliberate, documented invariants,
//!    not conveniences. Each one is either removed or allowlisted in
//!    `lint.toml` with a reason.
//!
//! This crate is a line-oriented scanner: no rustc plumbing, no external
//! dependencies, std only. It understands just enough Rust to skip
//! `#[cfg(test)]` modules and comments, which keeps it fast and makes
//! its findings easy to predict. False positives are handled explicitly
//! through the `lint.toml` allowlist, never by weakening a rule.
//!
//! Run it as `cargo run -p dibs-lint -- crates` from the workspace root;
//! it exits nonzero if any finding survives the allowlist.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Machine-readable identifier of a lint rule.
///
/// Every rule has a stable kebab-case name used in diagnostics and in
/// `lint.toml` `[[allow]]` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet` in simulation crates: iteration order is
    /// randomized per process, which breaks trace determinism.
    HashCollections,
    /// `Instant::now`/`SystemTime` outside `cli`/`bench`: wall-clock
    /// reads leak host time into simulation results.
    WallClock,
    /// `thread_rng`/`rand::random` anywhere: OS-seeded randomness is
    /// unreproducible; all randomness must flow from `SimRng`.
    AmbientRng,
    /// Float comparison (`.partial_cmp`/`.total_cmp`) in event/time
    /// ordering modules: ties and NaNs make event order unstable.
    FloatOrdering,
    /// Unchecked `-`/`-=` on counter-like values in accounting modules:
    /// a `u64` underflow corrupts occupancy and byte counts silently
    /// in release builds.
    UncheckedSub,
    /// Truncating `as` cast on time/byte/count values in accounting
    /// modules: high bits are dropped silently.
    TruncatingCast,
    /// `unwrap()`/`expect()` in hot-path crates (switch, transport,
    /// engine) outside tests and outside the `lint.toml` allowlist.
    PanicHygiene,
    /// `std::thread` spawning (`spawn`/`scope`/`Builder`) outside
    /// `crates/harness`: ad-hoc threads bypass the deterministic sweep
    /// executor and reintroduce schedule-dependent output.
    ThreadSpawn,
    /// `BinaryHeap` in simulation crates outside `crates/engine`: the
    /// engine's `EventQueue` (delay lanes merged with one heap, checked
    /// against its heap oracle) is the one sanctioned priority queue;
    /// ad-hoc heaps put O(log n) pushes back on the hot path and risk
    /// unstable tie-breaking.
    BinaryHeap,
    /// A dependency declared in `Cargo.toml` that no source file of the
    /// crate references.
    UnusedDep,
    /// `println!`/`eprintln!` (and the no-newline forms) in library
    /// sources: libraries return data; stdio belongs to binary targets
    /// (`src/bin/`, `main.rs`). Stray prints corrupt `--json` output and
    /// the digest lines `scripts/check.sh` diffs.
    PrintlnInLib,
    /// A raw numeric probability literal fed straight into a chance
    /// decision (`rng.chance(0.25)`, `rng.uniform() < 0.1`) in
    /// fault-decision files (`crates/fault`, the core event loop). Drop
    /// and corruption rates must flow from the parsed `FaultSpec`; a
    /// sampler definition site may carry an explicit `lint.toml` allow.
    RawProbability,
}

impl Rule {
    /// The stable kebab-case name used in diagnostics and `lint.toml`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::HashCollections => "hash-collections",
            Rule::WallClock => "wall-clock",
            Rule::AmbientRng => "ambient-rng",
            Rule::FloatOrdering => "float-ordering",
            Rule::UncheckedSub => "unchecked-sub",
            Rule::TruncatingCast => "truncating-cast",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::BinaryHeap => "binary-heap",
            Rule::UnusedDep => "unused-dep",
            Rule::PrintlnInLib => "println-in-lib",
            Rule::RawProbability => "raw-probability",
        }
    }

    /// All rules, in reporting order.
    pub fn all() -> &'static [Rule] {
        &[
            Rule::HashCollections,
            Rule::WallClock,
            Rule::AmbientRng,
            Rule::FloatOrdering,
            Rule::UncheckedSub,
            Rule::TruncatingCast,
            Rule::PanicHygiene,
            Rule::ThreadSpawn,
            Rule::BinaryHeap,
            Rule::UnusedDep,
            Rule::PrintlnInLib,
            Rule::RawProbability,
        ]
    }
}

/// One diagnostic produced by the scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Path of the offending file, relative to the scan root when
    /// possible.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// One `[[allow]]` entry from `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rule name the entry silences (kebab-case, e.g. `panic-hygiene`).
    pub rule: String,
    /// Path suffix the entry applies to, e.g. `crates/engine/src/lib.rs`.
    pub path: String,
    /// Why the finding is acceptable. Required: an allowlist entry
    /// without a rationale is a bug waiting to be forgotten.
    pub reason: String,
}

impl Allow {
    /// Does this entry silence `finding`?
    pub fn matches(&self, finding: &Finding) -> bool {
        self.rule == finding.rule.name()
            && (finding.path.ends_with(&self.path) || finding.path == self.path)
    }
}

/// Parse the `lint.toml` allowlist.
///
/// The accepted grammar is the TOML subset we actually use: `[[allow]]`
/// array-of-table headers followed by `key = "string"` pairs, with `#`
/// comments and blank lines. Every entry must provide `rule`, `path`,
/// and `reason`.
pub fn parse_allowlist(text: &str) -> Result<Vec<Allow>, String> {
    let mut allows: Vec<Allow> = Vec::new();
    let mut current: Option<(Option<String>, Option<String>, Option<String>)> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(entry) = current.take() {
                allows.push(finish_allow(entry, lineno)?);
            }
            current = Some((None, None, None));
            continue;
        }
        if line.starts_with('[') {
            return Err(format!("lint.toml:{lineno}: unknown table {line}"));
        }
        let (key, value) = parse_kv(line)
            .ok_or_else(|| format!("lint.toml:{lineno}: expected `key = \"value\"`, got {line}"))?;
        let entry = current
            .as_mut()
            .ok_or_else(|| format!("lint.toml:{lineno}: `{key}` outside an [[allow]] entry"))?;
        match key {
            "rule" => entry.0 = Some(value),
            "path" => entry.1 = Some(value),
            "reason" => entry.2 = Some(value),
            other => return Err(format!("lint.toml:{lineno}: unknown key `{other}`")),
        }
    }
    if let Some(entry) = current.take() {
        allows.push(finish_allow(entry, text.lines().count())?);
    }
    Ok(allows)
}

fn finish_allow(
    entry: (Option<String>, Option<String>, Option<String>),
    lineno: usize,
) -> Result<Allow, String> {
    match entry {
        (Some(rule), Some(path), Some(reason)) => {
            if !Rule::all().iter().any(|r| r.name() == rule) {
                return Err(format!(
                    "lint.toml (entry ending near line {lineno}): unknown rule `{rule}`"
                ));
            }
            Ok(Allow { rule, path, reason })
        }
        (rule, path, reason) => {
            let mut missing = Vec::new();
            if rule.is_none() {
                missing.push("rule");
            }
            if path.is_none() {
                missing.push("path");
            }
            if reason.is_none() {
                missing.push("reason");
            }
            Err(format!(
                "lint.toml (entry ending near line {lineno}): missing {}",
                missing.join(", ")
            ))
        }
    }
}

fn parse_kv(line: &str) -> Option<(&str, String)> {
    let eq = line.find('=')?;
    let key = line[..eq].trim();
    let rest = line[eq + 1..].trim();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some((key, rest[..end].to_string()))
}

/// Where a file sits in the workspace, which decides which rules apply.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Package name from the owning crate's `Cargo.toml`
    /// (e.g. `dibs-switch`), or `fixture` for loose files.
    pub crate_name: String,
    /// Path as reported in diagnostics, e.g.
    /// `crates/switch/src/buffer.rs`.
    pub rel_path: String,
}

impl FileCtx {
    /// Context for a loose file outside the workspace layout (fixtures,
    /// ad-hoc scans): every rule applies.
    pub fn strict(rel_path: &str) -> FileCtx {
        FileCtx {
            crate_name: "fixture".to_string(),
            rel_path: rel_path.to_string(),
        }
    }

    fn is_strict(&self) -> bool {
        self.crate_name == "fixture"
    }

    /// Crates whose sources must be deterministic: everything that can
    /// run inside a simulation.
    fn is_sim_crate(&self) -> bool {
        matches!(
            self.crate_name.as_str(),
            "dibs"
                | "dibs-engine"
                | "dibs-net"
                | "dibs-switch"
                | "dibs-transport"
                | "dibs-workload"
                | "dibs-stats"
                | "dibs-repro"
        ) || self.is_strict()
    }

    /// Crates allowed to read the wall clock (interactive frontends and
    /// benchmark harnesses measure real elapsed time by design).
    fn may_read_wall_clock(&self) -> bool {
        matches!(
            self.crate_name.as_str(),
            "dibs-cli" | "dibs-bench" | "dibs-lint"
        ) && !self.is_strict()
    }

    /// Hot-path crates where panics must be allowlisted invariants.
    fn is_hot_path(&self) -> bool {
        matches!(
            self.crate_name.as_str(),
            "dibs-switch" | "dibs-transport" | "dibs-engine"
        ) || self.is_strict()
    }

    /// Files that implement event/time ordering: float comparisons here
    /// can reorder the event loop.
    fn is_ordering_file(&self) -> bool {
        let p = &self.rel_path;
        self.is_strict()
            || ((p.ends_with("queue.rs") || p.ends_with("time.rs") || p.ends_with("sim.rs"))
                && self.is_sim_crate())
    }

    /// The one crate allowed to spawn OS threads: the deterministic
    /// sweep executor. Everyone else must go through it.
    fn may_spawn_threads(&self) -> bool {
        self.crate_name == "dibs-harness" && !self.is_strict()
    }

    /// Library sources, where stdio printing is forbidden. Binary
    /// targets (`src/bin/…`, `src/main.rs`) own stdout/stderr.
    fn is_library_source(&self) -> bool {
        let p = &self.rel_path;
        self.is_strict() || !(p.contains("/bin/") || p.ends_with("main.rs"))
    }

    /// Files that make probabilistic fault decisions: the fault crate
    /// and the core event loop that executes its plans. A raw probability
    /// literal here bypasses the `FaultSpec` grammar, so the rate neither
    /// appears in the run's spec nor survives a round-trip through it.
    fn is_fault_decision_file(&self) -> bool {
        self.is_strict()
            || self.crate_name == "dibs-fault"
            || (self.rel_path.ends_with("sim.rs") && self.is_sim_crate())
    }

    /// Files that account for packets, bytes, or buffer occupancy.
    fn is_accounting_file(&self) -> bool {
        let p = &self.rel_path;
        self.is_strict()
            || ((p.contains("buffer")
                || p.contains("counters")
                || p.ends_with("sim.rs")
                || p.ends_with("time.rs"))
                && self.is_sim_crate())
    }
}

/// Scan one Rust source string under the given context.
///
/// `#[cfg(test)]` items (modules, functions) and comment lines are
/// skipped; the allowlist is *not* applied here — callers that want it
/// filter with [`apply_allowlist`].
pub fn scan_str(src: &str, ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut skip_depth: i64 = -1; // -1: not skipping; >=0: brace depth of a cfg(test) region
    let mut awaiting_open = false;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let code = strip_line_comment(raw);
        let trimmed = code.trim();

        // --- #[cfg(test)] region skipping -------------------------------
        if skip_depth >= 0 || awaiting_open {
            let opens = trimmed.matches('{').count() as i64;
            let closes = trimmed.matches('}').count() as i64;
            if awaiting_open {
                if opens > 0 {
                    awaiting_open = false;
                    skip_depth = opens - closes;
                    if skip_depth <= 0 {
                        skip_depth = -1; // single-line item
                    }
                }
                continue;
            }
            skip_depth += opens - closes;
            if skip_depth <= 0 {
                skip_depth = -1;
            }
            continue;
        }
        if trimmed.contains("#[cfg(test)]") {
            awaiting_open = true;
            continue;
        }
        if trimmed.is_empty() {
            continue;
        }

        let mut push = |rule: Rule, message: String| {
            out.push(Finding {
                rule,
                path: ctx.rel_path.clone(),
                line: lineno,
                message,
            });
        };

        // --- determinism ------------------------------------------------
        if ctx.is_sim_crate() && (trimmed.contains("HashMap") || trimmed.contains("HashSet")) {
            push(
                Rule::HashCollections,
                "hash-based collection in a simulation crate; iteration order is \
                 nondeterministic — use BTreeMap/BTreeSet or a Vec arena"
                    .to_string(),
            );
        }
        if !ctx.may_read_wall_clock()
            && (trimmed.contains("Instant::now") || trimmed.contains("SystemTime"))
        {
            push(
                Rule::WallClock,
                "wall-clock read outside cli/bench; simulation time must come from \
                 the engine clock"
                    .to_string(),
            );
        }
        if trimmed.contains("thread_rng") || trimmed.contains("rand::random") {
            push(
                Rule::AmbientRng,
                "ambient OS-seeded RNG; all randomness must flow from a seeded SimRng".to_string(),
            );
        }
        if ctx.is_fault_decision_file() && has_raw_probability(trimmed) {
            push(
                Rule::RawProbability,
                "raw probability literal in fault-decision code; rates must \
                 come from the parsed FaultSpec — or allowlist the sampler \
                 definition site in lint.toml with a reason"
                    .to_string(),
            );
        }
        if ctx.is_ordering_file()
            && (trimmed.contains(".partial_cmp(") || trimmed.contains(".total_cmp("))
        {
            push(
                Rule::FloatOrdering,
                "float comparison in event/time ordering code; order ties and NaNs \
                 make the event loop unstable — compare integer nanoseconds"
                    .to_string(),
            );
        }

        // --- accounting -------------------------------------------------
        if ctx.is_accounting_file() && has_unchecked_sub(trimmed) {
            push(
                Rule::UncheckedSub,
                "unchecked subtraction on accounting state; underflow wraps silently \
                 in release builds — use checked_sub/saturating_sub with an explicit \
                 policy"
                    .to_string(),
            );
        }
        if ctx.is_accounting_file() {
            if let Some(cast) = find_truncating_cast(trimmed) {
                push(
                    Rule::TruncatingCast,
                    format!(
                        "truncating `as {cast}` cast on counter-like value; high bits \
                         are dropped silently — use try_from or widen the type"
                    ),
                );
            }
        }

        if ctx.is_sim_crate() && trimmed.contains("BinaryHeap") {
            push(
                Rule::BinaryHeap,
                "BinaryHeap outside crates/engine; the engine's EventQueue (delay \
                 lanes merged with one heap) is the one sanctioned priority queue — \
                 schedule through dibs_engine::EventQueue (engine/queue.rs, which \
                 holds it and its reference oracle, is allowlisted)"
                    .to_string(),
            );
        }

        // --- parallelism ------------------------------------------------
        if !ctx.may_spawn_threads()
            && (trimmed.contains("thread::spawn")
                || trimmed.contains("thread::scope")
                || trimmed.contains("thread::Builder"))
        {
            push(
                Rule::ThreadSpawn,
                "ad-hoc thread spawn outside crates/harness; all parallelism must \
                 go through dibs_harness::Executor so sweeps stay deterministic"
                    .to_string(),
            );
        }

        // --- stdio hygiene ----------------------------------------------
        // Checked longest-name-first: `eprintln!` contains `println!` as a
        // substring, so one line reports one macro, not two.
        if ctx.is_library_source() {
            let stdio_macro = if trimmed.contains("eprintln!") {
                Some("eprintln!")
            } else if trimmed.contains("println!") {
                Some("println!")
            } else if trimmed.contains("eprint!") {
                Some("eprint!")
            } else if trimmed.contains("print!") {
                Some("print!")
            } else {
                None
            };
            if let Some(mac) = stdio_macro {
                push(
                    Rule::PrintlnInLib,
                    format!(
                        "`{mac}` in library code; return data and let a binary \
                         target (src/bin, main.rs) print it, or allowlist the \
                         harness file in lint.toml with a reason"
                    ),
                );
            }
        }

        // --- panic hygiene ----------------------------------------------
        if ctx.is_hot_path() && (trimmed.contains(".unwrap()") || trimmed.contains(".expect(")) {
            push(
                Rule::PanicHygiene,
                "unwrap/expect on a hot path; either handle the case or allowlist \
                 the invariant in lint.toml with a reason"
                    .to_string(),
            );
        }
    }
    out
}

/// A chance decision fed a numeric literal: `.chance(` directly followed
/// by a digit or `.`, or `uniform()` compared (`<`/`<=`) against one.
/// Variables and spec-derived fields (`rng.chance(prof.p)`) never match.
fn has_raw_probability(code: &str) -> bool {
    let starts_with_number = |s: &str| matches!(s.trim_start().chars().next(), Some(c) if c.is_ascii_digit() || c == '.');
    for (i, pat) in code.match_indices(".chance(") {
        if starts_with_number(&code[i + pat.len()..]) {
            return true;
        }
    }
    for (i, pat) in code.match_indices("uniform()") {
        let rest = code[i + pat.len()..].trim_start();
        let operand = rest.strip_prefix("<=").or_else(|| rest.strip_prefix('<'));
        if operand.is_some_and(starts_with_number) {
            return true;
        }
    }
    false
}

/// Strip a trailing `//` line comment, approximately: the cut happens at
/// the first `//` that is not inside a string literal.
fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if !in_str => in_str = true,
            b'"' if in_str && (i == 0 || bytes[i - 1] != b'\\') => in_str = false,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

/// Identifiers whose subtraction we treat as accounting-sensitive.
const COUNTERY: &[&str] = &[
    "bytes",
    "pkts",
    "packets",
    "count",
    "occupancy",
    "buffered",
    "in_flight",
    "nanos",
    "len",
];

fn mentions_countery(s: &str) -> bool {
    COUNTERY.iter().any(|w| s.contains(w))
}

/// Detect a raw binary `-` / `-=` on counter-like operands, excluding
/// lines that already use a checked/saturating form or guard with an
/// assert.
fn has_unchecked_sub(code: &str) -> bool {
    if !mentions_countery(code) {
        return false;
    }
    const EXEMPT: &[&str] = &[
        "checked_sub",
        "saturating_sub",
        "wrapping_sub",
        "debug_assert",
        "assert!",
        "assert_eq!",
        "assert_ne!",
    ];
    if EXEMPT.iter().any(|e| code.contains(e)) {
        return false;
    }
    if code.contains("-=") {
        return true;
    }
    // Binary minus: previous non-space char ends an operand, next
    // non-space char starts one, and it is not `->` or a negative literal.
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'-' {
            continue;
        }
        if i + 1 < bytes.len() && (bytes[i + 1] == b'>' || bytes[i + 1] == b'=') {
            continue;
        }
        let prev = code[..i].trim_end().chars().last();
        let next = code[i + 1..].trim_start().chars().next();
        let prev_operand = matches!(prev, Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == ')' || c == ']');
        let next_operand =
            matches!(next, Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '(');
        if prev_operand && next_operand {
            return true;
        }
    }
    false
}

/// Detect `as u8` / `as u16` / `as u32` / `as i32` on a counter-like line.
fn find_truncating_cast(code: &str) -> Option<&'static str> {
    if !mentions_countery(code) {
        return None;
    }
    for narrow in ["u8", "u16", "u32", "i8", "i16", "i32"] {
        // Require a word boundary after the type name so `as u32` does not
        // match inside `as u32x4` or similar.
        let pat = format!("as {narrow}");
        if let Some(pos) = code.find(&pat) {
            let after = code[pos + pat.len()..].chars().next();
            let boundary = !matches!(after, Some(c) if c.is_ascii_alphanumeric() || c == '_');
            if boundary {
                return Some(match narrow {
                    "u8" => "u8",
                    "u16" => "u16",
                    "u32" => "u32",
                    "i8" => "i8",
                    "i16" => "i16",
                    _ => "i32",
                });
            }
        }
    }
    None
}

/// Scan a crate's `Cargo.toml` for declared-but-unused dependencies.
///
/// A dependency counts as used if its snake_case ident appears anywhere
/// in a `.rs` file under the crate directory (src, tests, benches,
/// examples). Path self-references and the `[workspace]` tables of a
/// virtual manifest are ignored.
pub fn scan_manifest(crate_dir: &Path, display_prefix: &str) -> Vec<Finding> {
    let manifest = crate_dir.join("Cargo.toml");
    let Ok(text) = fs::read_to_string(&manifest) else {
        return Vec::new();
    };
    let deps = declared_deps(&text);
    if deps.is_empty() {
        return Vec::new();
    }
    let mut sources = String::new();
    for sub in ["src", "tests", "benches", "examples"] {
        collect_rs_sources(&crate_dir.join(sub), &mut sources);
    }
    let mut out = Vec::new();
    for (name, line) in deps {
        let ident = name.replace('-', "_");
        if !sources.contains(&ident) {
            out.push(Finding {
                rule: Rule::UnusedDep,
                path: format!("{display_prefix}Cargo.toml"),
                line,
                message: format!(
                    "dependency `{name}` is declared but `{ident}` never appears in \
                     this crate's sources"
                ),
            });
        }
    }
    out
}

/// Extract `(dep_name, line_number)` pairs from the `[dependencies]`,
/// `[dev-dependencies]` and `[build-dependencies]` tables of a manifest.
fn declared_deps(manifest: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = matches!(
                line,
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(eq) = line.find('=') else { continue };
        let key = line[..eq].trim().trim_matches('"');
        // Dotted keys (`dep.workspace = true`, `dep.version = "1"`) name
        // the dependency in their first segment.
        let name = key.split('.').next().unwrap_or(key).trim_matches('"');
        if name.is_empty() {
            continue;
        }
        if out.iter().any(|(n, _): &(String, usize)| n == name) {
            continue;
        }
        out.push((name.to_string(), idx + 1));
    }
    out
}

fn collect_rs_sources(dir: &Path, into: &mut String) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs_sources(&p, into);
        } else if p.extension().is_some_and(|e| e == "rs") {
            if let Ok(s) = fs::read_to_string(&p) {
                into.push_str(&s);
                into.push('\n');
            }
        }
    }
}

/// Drop findings silenced by the allowlist.
pub fn apply_allowlist(findings: Vec<Finding>, allows: &[Allow]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| !allows.iter().any(|a| a.matches(f)))
        .collect()
}

/// Scan a whole workspace rooted at `root`.
///
/// Walks every crate under `root/crates` plus the root package itself,
/// scans all non-test Rust sources under each crate's `src/`, checks
/// each manifest for unused dependencies, and filters the result
/// through `root/lint.toml` (if present).
pub fn scan_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let allows = match fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => parse_allowlist(&text)?,
        Err(_) => Vec::new(),
    };
    let mut findings = Vec::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.join("Cargo.toml").exists())
        .collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        scan_crate(root, crate_dir, &mut findings)?;
    }
    // The root package: manifest hygiene plus its `src/` sources.
    scan_crate(root, root, &mut findings)?;

    Ok(apply_allowlist(findings, &allows))
}

fn scan_crate(root: &Path, crate_dir: &Path, findings: &mut Vec<Finding>) -> Result<(), String> {
    let manifest = fs::read_to_string(crate_dir.join("Cargo.toml"))
        .map_err(|e| format!("cannot read {}/Cargo.toml: {e}", crate_dir.display()))?;
    let crate_name = package_name(&manifest).unwrap_or_else(|| "unknown".to_string());
    let prefix = display_prefix(root, crate_dir);

    // The linter's own sources spell out the very patterns it hunts for;
    // scanning them is pure self-reference. Manifest hygiene still applies.
    if crate_name == "dibs-lint" {
        findings.extend(scan_manifest(crate_dir, &prefix));
        return Ok(());
    }

    let mut files = Vec::new();
    collect_rs_files(&crate_dir.join("src"), &mut files);
    files.sort();
    for file in files {
        let rel = format!(
            "{prefix}{}",
            file.strip_prefix(crate_dir)
                .unwrap_or(&file)
                .to_string_lossy()
        );
        let src = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let ctx = FileCtx {
            crate_name: crate_name.clone(),
            rel_path: rel,
        };
        findings.extend(scan_str(&src, &ctx));
    }
    findings.extend(scan_manifest(crate_dir, &prefix));
    Ok(())
}

fn display_prefix(root: &Path, crate_dir: &Path) -> String {
    match crate_dir.strip_prefix(root) {
        Ok(rel) if rel.as_os_str().is_empty() => String::new(),
        Ok(rel) => format!("{}/", rel.to_string_lossy()),
        Err(_) => format!("{}/", crate_dir.to_string_lossy()),
    }
}

fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package && line.starts_with("name") {
            let (_, v) = parse_kv(line)?;
            return Some(v);
        }
    }
    None
}

fn collect_rs_files(dir: &Path, into: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let p = entry.path();
        if p.is_dir() {
            collect_rs_files(&p, into);
        } else if p.extension().is_some_and(|e| e == "rs") {
            into.push(p);
        }
    }
}

/// Scan a single crate directory (its `src/` sources plus manifest
/// hygiene) without applying any allowlist. Used by the CLI when
/// pointed at one crate, e.g. a fixture crate.
pub fn scan_single_crate(crate_dir: &Path) -> Result<Vec<Finding>, String> {
    let root = crate_dir.parent().unwrap_or_else(|| Path::new("."));
    let mut findings = Vec::new();
    scan_crate(root, crate_dir, &mut findings)?;
    Ok(findings)
}

/// Scan a loose `.rs` file with the strict context (all rules apply).
/// Used by the CLI on fixture files.
pub fn scan_loose_file(path: &Path) -> Result<Vec<Finding>, String> {
    let src =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let ctx = FileCtx::strict(&path.to_string_lossy());
    Ok(scan_str(&src, &ctx))
}

/// Sanity check on the allowlist itself: report entries that silence
/// nothing, so stale allows do not accumulate.
pub fn stale_allows(allows: &[Allow], raw_findings: &[Finding]) -> Vec<Allow> {
    allows
        .iter()
        .filter(|a| !raw_findings.iter().any(|f| a.matches(f)))
        .cloned()
        .collect()
}

/// Distinct rule names that fired in `findings`, for summary output.
pub fn rules_fired(findings: &[Finding]) -> BTreeSet<&'static str> {
    findings.iter().map(|f| f.rule.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_ctx() -> FileCtx {
        FileCtx {
            crate_name: "dibs-switch".to_string(),
            rel_path: "crates/switch/src/buffer.rs".to_string(),
        }
    }

    #[test]
    fn flags_hashmap_in_sim_crate() {
        let f = scan_str("use std::collections::HashMap;\n", &sim_ctx());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HashCollections);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn ignores_hashmap_in_cli() {
        let ctx = FileCtx {
            crate_name: "dibs-cli".to_string(),
            rel_path: "crates/cli/src/main.rs".to_string(),
        };
        assert!(scan_str("use std::collections::HashMap;\n", &ctx).is_empty());
    }

    #[test]
    fn println_flagged_in_lib_but_not_in_bin() {
        let lib = FileCtx {
            crate_name: "dibs-cli".to_string(),
            rel_path: "crates/cli/src/report.rs".to_string(),
        };
        let f = scan_str("    eprintln!(\"oops\");\n    println!(\"hi\");\n", &lib);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|f| f.rule == Rule::PrintlnInLib));
        assert!(f[0].message.contains("eprintln!"), "{}", f[0].message);
        assert!(f[1].message.contains("println!"), "{}", f[1].message);

        for bin_path in ["crates/cli/src/bin/dibs_sim.rs", "crates/cli/src/main.rs"] {
            let bin = FileCtx {
                crate_name: "dibs-cli".to_string(),
                rel_path: bin_path.to_string(),
            };
            assert!(scan_str("println!(\"hi\");\n", &bin).is_empty());
        }
    }

    #[test]
    fn skips_cfg_test_regions() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    fn helper() { x.unwrap(); let t = std::time::Instant::now(); }
}
fn after() { y.unwrap(); }
";
        let f = scan_str(src, &sim_ctx());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::PanicHygiene);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn skips_comments() {
        let src = "// a.unwrap() inside a comment\nlet x = 1; // Instant::now\n";
        assert!(scan_str(src, &sim_ctx()).is_empty());
    }

    #[test]
    fn unchecked_sub_detection() {
        assert!(has_unchecked_sub("self.bytes -= pkt.len;"));
        assert!(has_unchecked_sub("let free = capacity_bytes - used_bytes;"));
        assert!(!has_unchecked_sub(
            "self.bytes = self.bytes.checked_sub(n).expect(\"x\");"
        ));
        assert!(!has_unchecked_sub("fn take(&mut self) -> u64 {"));
        assert!(!has_unchecked_sub("let x = a - b;"), "no countery ident");
        assert!(!has_unchecked_sub("let d = -5;"));
    }

    #[test]
    fn raw_probability_detection() {
        assert!(has_raw_probability("if rng.chance(0.25) {"));
        assert!(has_raw_probability("if rng.chance(.5) {"));
        assert!(has_raw_probability("rng.chance( 1e-3 )"));
        assert!(has_raw_probability("if rng.uniform() < 0.1 {"));
        assert!(has_raw_probability("rng.uniform() <= .01"));
        assert!(!has_raw_probability("rng.chance(prof.p)"));
        assert!(!has_raw_probability("rng.chance(DROP_WEIGHT)"));
        assert!(!has_raw_probability("let u = rng.uniform();"));
        assert!(!has_raw_probability("rng.uniform() < threshold"));
    }

    #[test]
    fn raw_probability_scoped_to_fault_decision_files() {
        let src = "fn f(rng: &mut SimRng) -> bool { rng.chance(0.25) }\n";
        let fault = FileCtx {
            crate_name: "dibs-fault".to_string(),
            rel_path: "crates/fault/src/random.rs".to_string(),
        };
        let core_sim = FileCtx {
            crate_name: "dibs".to_string(),
            rel_path: "crates/core/src/sim.rs".to_string(),
        };
        let harness = FileCtx {
            crate_name: "dibs-harness".to_string(),
            rel_path: "crates/harness/src/simtest.rs".to_string(),
        };
        for ctx in [&fault, &core_sim] {
            let f = scan_str(src, ctx);
            assert_eq!(f.len(), 1, "{}: {f:?}", ctx.rel_path);
            assert_eq!(f[0].rule, Rule::RawProbability);
        }
        assert!(
            scan_str(src, &harness).is_empty(),
            "workload generators may use inline mixture weights"
        );
    }

    #[test]
    fn truncating_cast_detection() {
        assert_eq!(
            find_truncating_cast("let x = byte_count as u32;"),
            Some("u32")
        );
        assert_eq!(find_truncating_cast("let x = nanos as u16;"), Some("u16"));
        assert_eq!(find_truncating_cast("let x = count as u64;"), None);
        assert_eq!(
            find_truncating_cast("let x = flag as u32;"),
            None,
            "no countery ident"
        );
    }

    #[test]
    fn allowlist_roundtrip() {
        let toml = "\
# comment
[[allow]]
rule = \"panic-hygiene\"
path = \"crates/engine/src/lib.rs\"
reason = \"pop follows a successful peek\"

[[allow]]
rule = \"unchecked-sub\"
path = \"crates/switch/src/buffer.rs\"
reason = \"guarded\"
";
        let allows = parse_allowlist(toml).unwrap();
        assert_eq!(allows.len(), 2);
        let finding = Finding {
            rule: Rule::PanicHygiene,
            path: "crates/engine/src/lib.rs".to_string(),
            line: 115,
            message: String::new(),
        };
        assert!(allows[0].matches(&finding));
        assert!(!allows[1].matches(&finding));
        assert_eq!(apply_allowlist(vec![finding], &allows).len(), 0);
    }

    #[test]
    fn allowlist_requires_reason() {
        let toml = "[[allow]]\nrule = \"panic-hygiene\"\npath = \"x.rs\"\n";
        let err = parse_allowlist(toml).unwrap_err();
        assert!(err.contains("missing reason"), "{err}");
    }

    #[test]
    fn allowlist_rejects_unknown_rule() {
        let toml = "[[allow]]\nrule = \"no-such\"\npath = \"x.rs\"\nreason = \"y\"\n";
        assert!(parse_allowlist(toml).is_err());
    }

    #[test]
    fn declared_deps_parses_tables() {
        let manifest = "\
[package]
name = \"x\"

[dependencies]
dibs-net = { workspace = true }
serde = \"1\"

[dev-dependencies]
proptest = \"1\"

[lints]
workspace = true
";
        let deps = declared_deps(manifest);
        let names: Vec<&str> = deps.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["dibs-net", "serde", "proptest"]);
    }

    #[test]
    fn flags_binary_heap_in_sim_crate() {
        let f = scan_str("use std::collections::BinaryHeap;\n", &sim_ctx());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::BinaryHeap);
    }

    #[test]
    fn ignores_binary_heap_in_cli() {
        let ctx = FileCtx {
            crate_name: "dibs-cli".to_string(),
            rel_path: "crates/cli/src/main.rs".to_string(),
        };
        assert!(scan_str("use std::collections::BinaryHeap;\n", &ctx).is_empty());
    }

    #[test]
    fn float_ordering_only_on_call_sites() {
        let ctx = FileCtx {
            crate_name: "dibs-engine".to_string(),
            rel_path: "crates/engine/src/queue.rs".to_string(),
        };
        // Definition delegating to Ord: fine.
        assert!(scan_str(
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n",
            &ctx
        )
        .is_empty());
        // Call site: flagged.
        let f = scan_str("let o = a.partial_cmp(&b);\n", &ctx);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::FloatOrdering);
    }
}
