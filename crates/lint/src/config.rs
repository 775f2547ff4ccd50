//! Lint configuration: which crates each check covers and the name
//! heuristics used by the token-level rules.

/// Tunable scope for the checks. [`LintConfig::default`] encodes the
/// workspace policy that the tier-1 self-host test enforces.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates whose non-test code must be panic-free (E001). These are the
    /// crates on the ingest path: a panic here aborts trace analysis.
    pub panic_crates: Vec<String>,
    /// Crates whose parser hot paths are checked for unchecked offset
    /// arithmetic and truncating casts (E002).
    pub arith_crates: Vec<String>,
    /// Substrings identifying parser hot-path function names for E002.
    pub hot_fn_markers: Vec<String>,
    /// Substrings identifying length/offset-carrying identifiers for E002.
    pub lenish_markers: Vec<String>,
    /// Workspace-relative paths of per-packet hot-path modules in which
    /// E002 also forbids constructing a std-SipHash `HashMap` (`new` /
    /// `default` / `with_capacity`): these maps were deliberately moved to
    /// the pre-sized fx-hash forms, and a reintroduced default map is a
    /// silent perf regression the compiler will not catch.
    pub hot_map_files: Vec<String>,
    /// Workspace-relative paths of per-packet emission modules in which
    /// E002 also forbids ad-hoc heap allocation (`Vec::new()` / `vec![..]`
    /// / `.to_vec()`): these paths were rebuilt around arena buffers, and
    /// a reintroduced per-packet `Vec` is a silent throughput regression
    /// the compiler will not catch.
    pub hot_alloc_files: Vec<String>,
    /// Crates whose analysis output must be bit-reproducible (E006): std
    /// unordered-map iteration reaching a sink, wall-clock reads and float
    /// accumulation over unordered iteration are flagged here.
    pub determinism_crates: Vec<String>,
    /// Substrings of fn names treated as determinism *sinks* for E006:
    /// anything these fns (transitively) call must not leak unordered-map
    /// iteration order.
    pub sink_fn_markers: Vec<String>,
    /// Tokens whose presence in the same statement marks an unordered-map
    /// iteration as order-insensitive (commutative reductions, set/sorted
    /// collection targets) and therefore E006-clean.
    pub order_insensitive_markers: Vec<String>,
    /// Files exempt from the E006 wall-clock rule: deliberate wall-clock
    /// observability (stage timers) lives here and never feeds results.
    pub wall_clock_files: Vec<String>,
    /// Crates whose code runs inside parallel trace workers (E007):
    /// no `static mut`, no non-`Sync` interior mutability, no locks in
    /// per-packet hot functions.
    pub worker_crates: Vec<String>,
    /// Crates whose public fallible API must use the typed error taxonomy
    /// (E008).
    pub error_crates: Vec<String>,
    /// Head identifiers of the approved error-taxonomy types for E008.
    pub taxonomy_errors: Vec<String>,
    /// Substrings of fn names that imply a fallible operation for E008's
    /// `bool`/`Option` smuggling rule (predicates like `is_*` stay legal).
    pub fallible_fn_markers: Vec<String>,
    /// Crates holding test/bench harness code, swept by the E001-lite pass
    /// (panic-surface rules outside `#[test]`/`#[cfg(test)]` regions).
    pub harness_crates: Vec<String>,
    /// File and struct holding the checkpoint payload for E009: every
    /// field of `(file, struct)` must appear in test code somewhere in the
    /// workspace.
    pub checkpoint_payload: (String, String),
    /// Files whose `ent-bench-*` JSON emitters are key-checked by E009.
    pub bench_emitter_files: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        LintConfig {
            panic_crates: v(&["wire", "pcap", "proto", "flow", "core"]),
            arith_crates: v(&["wire", "pcap", "proto"]),
            hot_fn_markers: v(&["parse", "read", "next", "decode", "feed", "recover", "resync", "merge", "ingest"]),
            lenish_markers: v(&["len", "off", "size", "total", "ihl", "cap", "snap", "pos", "idx", "count"]),
            hot_map_files: v(&[
                "crates/flow/src/table.rs",
                "crates/core/src/pipeline.rs",
            ]),
            hot_alloc_files: v(&[
                "crates/pcap/src/arena.rs",
                "crates/gen/src/synth.rs",
                "crates/wire/src/build.rs",
                "crates/gen/src/apps/mod.rs",
                "crates/gen/src/apps/backup.rs",
                "crates/gen/src/apps/bulk_interactive.rs",
                "crates/gen/src/apps/email.rs",
                "crates/gen/src/apps/mgmt.rs",
                "crates/gen/src/apps/name.rs",
                "crates/gen/src/apps/netfile.rs",
                "crates/gen/src/apps/nonip.rs",
                "crates/gen/src/apps/scanner.rs",
                "crates/gen/src/apps/streaming.rs",
                "crates/gen/src/apps/web.rs",
                "crates/gen/src/apps/windows.rs",
            ]),
            determinism_crates: v(&["flow", "proto", "core"]),
            sink_fn_markers: v(&["report", "render", "signature", "finalize", "finish", "emit", "summar"]),
            order_insensitive_markers: v(&[
                "sort", "sort_unstable", "sort_by", "sort_by_key", "sum", "count", "len",
                "max", "min", "max_by_key", "min_by_key", "all", "any", "contains",
                "contains_key", "fold_commutative", "HashSet", "BTreeMap", "BTreeSet", "Ecdf",
                "extend", "insert", "saturating_add", "wrapping_add",
            ]),
            wall_clock_files: v(&["crates/core/src/metrics.rs"]),
            worker_crates: v(&["flow", "core", "proto", "pcap"]),
            error_crates: v(&["wire", "pcap", "flow", "core"]),
            taxonomy_errors: v(&[
                "AnalysisError", "PcapError", "CheckpointError", "BenchJsonError", "Error",
                "io::Error", "fmt::Error",
            ]),
            fallible_fn_markers: v(&["load", "open", "save", "persist", "restore", "resume", "flush", "commit"]),
            harness_crates: v(&["tests", "bench"]),
            checkpoint_payload: ("crates/core/src/checkpoint.rs".to_string(), "Checkpoint".to_string()),
            bench_emitter_files: v(&["crates/core/src/metrics.rs"]),
        }
    }
}
