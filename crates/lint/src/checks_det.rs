//! Symbol-aware determinism and concurrency checks: E006–E009, plus the
//! harness-crate panic sweep that extends E001 over `tests`/`bench`.
//!
//! All four lints consume the [`crate::symbols`] layer rather than raw
//! token patterns: E006 needs to know whether a receiver *is* a std
//! unordered map and whether the enclosing fn can reach a report sink;
//! E007 needs fn/impl attribution; E008 reads parsed return types; E009
//! closes over the intra-crate call graph to find every JSON key an
//! `ent-bench-*` emitter can produce. The approximations inherited from
//! the symbol layer are deliberately one-sided: an unresolved binding or
//! missed call edge silences a finding, it never invents one.

use crate::config::LintConfig;
use crate::lexer::TokKind;
use crate::report::{Code, Finding, Severity};
use crate::source::SourceFile;
use crate::symbols::{generic_args, head_ident, FileSymbols, FnItem, WorkspaceSymbols};
use std::collections::BTreeSet;

/// Methods whose results surface std-map iteration order.
const UNORDERED_ITER: [&str; 9] = [
    "iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter", "into_keys",
    "into_values",
];

/// Wall-clock / ambient-state reads flagged by E006 in analysis crates:
/// `Owner::method` pairs.
const CLOCK_READS: [(&str, &str); 5] = [
    ("Instant", "now"),
    ("SystemTime", "now"),
    ("thread", "current"),
    ("env", "var"),
    ("env", "var_os"),
];

/// Truncating integer targets for E008's `as`-in-`Err` rule.
const TRUNCATING_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

fn finding(code: Code, file: &SourceFile, line: u32, message: String) -> Finding {
    Finding { code, severity: Severity::Error, file: file.rel.clone(), line, message }
}

/// Run every symbol-aware check over the loaded sources.
pub fn symbol_checks(sources: &[SourceFile], cfg: &LintConfig) -> Vec<Finding> {
    let ws = WorkspaceSymbols::build(sources);
    let mut out = Vec::new();
    out.extend(e006(sources, &ws, cfg));
    out.extend(e007(sources, &ws, cfg));
    out.extend(e008(sources, &ws, cfg));
    out.extend(e009(sources, &ws, cfg));
    out.extend(harness_sweep(sources, cfg));
    out
}

/// Is `ty` a std-`RandomState` unordered map/set? Hasher-explicit forms
/// (three-parameter `HashMap`, two-parameter `HashSet`) and types whose
/// import resolves outside `std` are not.
fn is_std_unordered(ty: &str, syms: &FileSymbols) -> bool {
    let head = head_ident(ty);
    let args = generic_args(ty);
    let default_hasher = match head {
        "HashMap" => args.len() <= 2 || args.get(2).is_some_and(|a| a.contains("RandomState")),
        "HashSet" => args.len() <= 1 || args.get(1).is_some_and(|a| a.contains("RandomState")),
        _ => return false,
    };
    if !default_hasher {
        return false;
    }
    match syms.import_path(head) {
        Some(path) => path.starts_with("std::collections") || path.starts_with("collections"),
        None => true, // unresolved: the std prelude-adjacent default
    }
}

/// Resolve the receiver of a `.method(` call at token `mi` (the method
/// ident) to a binding type: handles `name.method(` and
/// `self.field.method(`.
fn receiver_type<'a>(
    file: &SourceFile,
    syms: &'a FileSymbols,
    f: &'a FnItem,
    mi: usize,
) -> Option<&'a str> {
    let dot = file.prev_sig(mi)?;
    if file.toks[dot].kind != TokKind::Punct('.') {
        return None;
    }
    let recv = file.prev_sig(dot)?;
    if file.toks[recv].kind != TokKind::Ident {
        return None;
    }
    let name = file.text(recv);
    if name == "self" {
        return None;
    }
    syms.binding_type(f, &name)
}

/// Does the statement containing token `i` (bounded by `;`/`{`/`}`)
/// mention an order-insensitive marker?
fn statement_is_order_insensitive(file: &SourceFile, i: usize, cfg: &LintConfig) -> bool {
    let boundary = |k: TokKind| {
        matches!(k, TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}'))
    };
    let mut lo = i;
    while lo > 0 && !boundary(file.toks[lo - 1].kind) {
        lo -= 1;
    }
    let mut hi = i;
    while hi + 1 < file.toks.len() && !boundary(file.toks[hi].kind) {
        hi += 1;
    }
    (lo..=hi.min(file.toks.len() - 1)).any(|j| {
        file.toks[j].kind == TokKind::Ident
            && cfg.order_insensitive_markers.iter().any(|m| file.text(j) == *m)
    })
}

/// Does fn `f` sort anything (its own iteration results included)?
fn fn_sorts(f: &FnItem) -> bool {
    f.calls.iter().any(|c| c.starts_with("sort"))
}

/// E006 — nondeterminism hazards in analysis crates.
fn e006(sources: &[SourceFile], ws: &WorkspaceSymbols, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut flagged: BTreeSet<(usize, u32)> = BTreeSet::new();

    // (a) std-map iteration inside sink-reachable fns.
    for crate_name in &cfg.determinism_crates {
        for &(fi, gi) in &ws.reachable_from_markers(crate_name, &cfg.sink_fn_markers) {
            let file = &sources[fi];
            let syms = &ws.files[fi];
            let f = &syms.fns[gi];
            let Some((open, close)) = f.body else { continue };
            for j in open + 1..close {
                if file.toks[j].kind != TokKind::Ident {
                    continue;
                }
                let word = file.text(j);
                if !UNORDERED_ITER.contains(&word.as_ref()) {
                    continue;
                }
                if file.next_sig(j).map(|n| file.toks[n].kind) != Some(TokKind::Punct('(')) {
                    continue;
                }
                let Some(ty) = receiver_type(file, syms, f, j) else { continue };
                if !is_std_unordered(ty, syms) {
                    continue;
                }
                let line = file.toks[j].line;
                if file.is_test_line(line)
                    || fn_sorts(f)
                    || statement_is_order_insensitive(file, j, cfg)
                {
                    continue;
                }
                if flagged.insert((fi, line)) {
                    out.push(finding(
                        Code::E006,
                        file,
                        line,
                        format!(
                            "`.{word}()` over std `{}` in `{}`, which reaches a report/signature sink: iteration order is per-process random — sort first or use an order-insensitive reduction",
                            head_ident(ty),
                            f.name
                        ),
                    ));
                }
            }
        }
    }

    for (fi, file) in sources.iter().enumerate() {
        if !cfg.determinism_crates.contains(&file.crate_name) {
            continue;
        }
        let syms = &ws.files[fi];

        // (b) wall-clock / ambient-state reads.
        if !cfg.wall_clock_files.contains(&file.rel) {
            for j in 0..file.toks.len() {
                if file.toks[j].kind != TokKind::Ident {
                    continue;
                }
                let line = file.toks[j].line;
                if file.is_test_line(line) {
                    continue;
                }
                let method = file.text(j);
                for (owner, m) in CLOCK_READS {
                    if method != m {
                        continue;
                    }
                    // `Owner::method` — two `:` puncts then the owner ident.
                    let Some(c2) = file.prev_sig(j) else { continue };
                    let Some(c1) = file.prev_sig(c2) else { continue };
                    if file.toks[c2].kind != TokKind::Punct(':')
                        || file.toks[c1].kind != TokKind::Punct(':')
                    {
                        continue;
                    }
                    let Some(oi) = file.prev_sig(c1) else { continue };
                    if file.toks[oi].kind == TokKind::Ident && file.text(oi) == owner {
                        out.push(finding(
                            Code::E006,
                            file,
                            line,
                            format!(
                                "`{owner}::{m}` in analysis crate `{}`: wall-clock/ambient state must not influence analysis results",
                                file.crate_name
                            ),
                        ));
                        break;
                    }
                }
            }
        }

        // (c) float accumulation inside loops over unordered maps.
        for f in &syms.fns {
            let Some((open, close)) = f.body else { continue };
            let mut j = open + 1;
            while j < close {
                if file.toks[j].kind == TokKind::Ident && file.text(j) == "for" {
                    if let Some((body_open, body_close)) = for_loop_over_unordered(file, syms, f, j, close) {
                        for k in body_open + 1..body_close {
                            // `x += …` with a float-typed `x`.
                            if file.toks[k].kind != TokKind::Punct('+')
                                || file.toks.get(k + 1).map(|t| t.kind) != Some(TokKind::Punct('='))
                            {
                                continue;
                            }
                            let Some(lhs) = file.prev_sig(k) else { continue };
                            if file.toks[lhs].kind != TokKind::Ident {
                                continue;
                            }
                            let lhs_name = file.text(lhs);
                            let is_float = syms
                                .binding_type(f, &lhs_name)
                                .map(head_ident)
                                .is_some_and(|h| h == "f32" || h == "f64");
                            let line = file.toks[k].line;
                            if is_float && !file.is_test_line(line) {
                                out.push(finding(
                                    Code::E006,
                                    file,
                                    line,
                                    format!(
                                        "float `+=` on `{lhs_name}` inside iteration over a std unordered map in `{}`: summation order varies per process — sort keys first or accumulate integers",
                                        f.name
                                    ),
                                ));
                            }
                        }
                        j = body_close;
                        continue;
                    }
                }
                j += 1;
            }
        }
    }
    out
}

/// If token `fi` is a `for` whose `in`-expression involves a std unordered
/// map, return the loop body span.
fn for_loop_over_unordered(
    file: &SourceFile,
    syms: &FileSymbols,
    f: &FnItem,
    for_idx: usize,
    limit: usize,
) -> Option<(usize, usize)> {
    // Find the `in` keyword, then the body `{` at depth 0.
    let mut j = for_idx + 1;
    let mut in_idx = None;
    let mut depth = 0i64;
    while j < limit {
        match file.toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Ident if depth == 0 && file.text(j) == "in" => {
                in_idx = Some(j);
                break;
            }
            TokKind::Punct('{') => return None,
            _ => {}
        }
        j += 1;
    }
    let in_idx = in_idx?;
    let mut k = in_idx + 1;
    let mut depth = 0i64;
    let mut body_open = None;
    while k < limit {
        match file.toks[k].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => {
                body_open = Some(k);
                break;
            }
            _ => {}
        }
        k += 1;
    }
    let body_open = body_open?;
    let unordered = (in_idx + 1..body_open).any(|x| {
        file.toks[x].kind == TokKind::Ident
            && syms
                .binding_type(f, &file.text(x))
                .is_some_and(|ty| is_std_unordered(ty, syms))
    });
    if !unordered {
        return None;
    }
    let body_close = file.matching_close(body_open)?;
    Some((body_open, body_close))
}

/// E007 — shared-state discipline for code run by parallel trace workers.
fn e007(sources: &[SourceFile], ws: &WorkspaceSymbols, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in sources.iter().enumerate() {
        if !cfg.worker_crates.contains(&file.crate_name) {
            continue;
        }
        let syms = &ws.files[fi];

        // (a) mutable statics.
        for s in &syms.statics {
            if s.is_mut && !file.is_test_line(s.line) {
                out.push(finding(
                    Code::E007,
                    file,
                    s.line,
                    format!("`static mut {}` in worker crate `{}`: unsynchronized shared state is unsound across trace workers", s.name, file.crate_name),
                ));
            }
        }

        // (b) non-`Sync` interior mutability in type positions.
        for j in 0..file.toks.len() {
            if file.toks[j].kind != TokKind::Ident {
                continue;
            }
            let word = file.text(j);
            if word != "RefCell" && word != "Cell" && word != "Rc" {
                continue;
            }
            if file.next_sig(j).map(|n| file.toks[n].kind) != Some(TokKind::Punct('<')) {
                continue;
            }
            // Custom types with these names resolve via imports.
            if syms.import_path(&word).is_some_and(|p| !p.starts_with("std::") && !p.starts_with("core::") && !p.starts_with("alloc::")) {
                continue;
            }
            let line = file.toks[j].line;
            if !file.is_test_line(line) {
                out.push(finding(
                    Code::E007,
                    file,
                    line,
                    format!("`{word}<…>` in worker crate `{}`: non-`Sync` interior mutability blocks sharing across trace workers", file.crate_name),
                ));
            }
        }

        // (c) lock acquisition inside per-packet hot fns.
        let file_has_rwlock = syms.import_path("RwLock").is_some()
            || syms.imports.iter().any(|u| u.path.contains("RwLock"));
        for j in 0..file.toks.len() {
            if file.toks[j].kind != TokKind::Ident {
                continue;
            }
            let word = file.text(j);
            let is_lock = word == "lock" || (file_has_rwlock && (word == "read" || word == "write"));
            if !is_lock {
                continue;
            }
            let Some(dot) = file.prev_sig(j) else { continue };
            if file.toks[dot].kind != TokKind::Punct('.') {
                continue;
            }
            if file.next_sig(j).map(|n| file.toks[n].kind) != Some(TokKind::Punct('(')) {
                continue;
            }
            let line = file.toks[j].line;
            if file.is_test_line(line) {
                continue;
            }
            let Some(fn_name) = file.enclosing_fn(line) else { continue };
            let lower = fn_name.to_ascii_lowercase();
            if cfg.hot_fn_markers.iter().any(|m| lower.contains(m)) {
                out.push(finding(
                    Code::E007,
                    file,
                    line,
                    format!("`.{word}()` inside per-packet hot fn `{fn_name}`: lock acquisition on the packet path serializes the trace workers"),
                ));
            }
        }
    }
    out
}

/// E008 — error-taxonomy totality on public fallible APIs.
fn e008(sources: &[SourceFile], ws: &WorkspaceSymbols, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in sources.iter().enumerate() {
        if !cfg.error_crates.contains(&file.crate_name) {
            continue;
        }
        let syms = &ws.files[fi];
        for f in &syms.fns {
            if !f.is_pub || file.is_test_line(f.line) {
                continue;
            }
            if let Some(ret) = &f.ret {
                // (a) `Result<T, E>`: E must come from the taxonomy.
                if head_ident(ret) == "Result" {
                    let args = generic_args(ret);
                    if args.len() == 2 {
                        let err = &args[1];
                        let eh = head_ident(err);
                        let generic_param = eh.len() == 1 && eh.chars().all(|c| c.is_ascii_uppercase());
                        let typed = cfg.taxonomy_errors.iter().any(|t| t == eh || err.contains(t.as_str()));
                        if !typed && !generic_param {
                            out.push(finding(
                                Code::E008,
                                file,
                                f.line,
                                format!("pub fn `{}` returns `Result<_, {eh}>`: error type is outside the crate taxonomy (expected one of {})", f.name, cfg.taxonomy_errors.join("/")),
                            ));
                        }
                    }
                }
                // (b) bool/Option smuggling on fallible-verb names. The
                // marker must match a whole `_`-separated segment so
                // `has_payload` does not trip on `load`; predicate
                // prefixes stay legal by construction.
                let lower = f.name.to_ascii_lowercase();
                let fallible = lower
                    .split('_')
                    .any(|seg| cfg.fallible_fn_markers.iter().any(|m| m == seg));
                if fallible {
                    let smuggled = ret == "bool" || head_ident(ret) == "Option";
                    if smuggled {
                        out.push(finding(
                            Code::E008,
                            file,
                            f.line,
                            format!("pub fn `{}` is a fallible operation but returns `{ret}`: failure detail is smuggled instead of typed — return a taxonomy `Result`", f.name),
                        ));
                    }
                }
            }
        }

        // (c) truncating `as` casts inside `Err(..)` construction.
        for j in 0..file.toks.len() {
            if file.toks[j].kind != TokKind::Ident || file.text(j) != "Err" {
                continue;
            }
            let Some(open) = file.next_sig(j) else { continue };
            if file.toks[open].kind != TokKind::Punct('(') {
                continue;
            }
            let Some(close) = file.matching_close(open) else { continue };
            for k in open + 1..close {
                if file.toks[k].kind != TokKind::Ident || file.text(k) != "as" {
                    continue;
                }
                let Some(t) = file.next_sig(k) else { continue };
                if file.toks[t].kind == TokKind::Ident
                    && TRUNCATING_INTS.contains(&file.text(t).as_ref())
                {
                    let line = file.toks[k].line;
                    if !file.is_test_line(line) {
                        out.push(finding(
                            Code::E008,
                            file,
                            line,
                            format!("truncating `as {}` inside `Err(..)`: error-path values must not silently lose width — use `try_into` or widen the field", file.text(t)),
                        ));
                    }
                }
            }
        }
    }
    let _ = ws;
    out
}

/// E009 — checkpoint/bench schema hygiene: every payload field and every
/// emitted JSON key must be referenced from test code.
fn e009(sources: &[SourceFile], ws: &WorkspaceSymbols, cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    let covered = test_reference_words(sources);

    // (a) checkpoint payload fields.
    let (ckpt_file, ckpt_struct) = &cfg.checkpoint_payload;
    for (fi, file) in sources.iter().enumerate() {
        if &file.rel != ckpt_file {
            continue;
        }
        if let Some(s) = ws.files[fi].structs.iter().find(|s| &s.name == ckpt_struct) {
            for (fname, fline, _ty) in &s.fields {
                if !covered.contains(fname.as_str()) {
                    out.push(finding(
                        Code::E009,
                        file,
                        *fline,
                        format!("checkpoint payload field `{fname}` has no test reference: add it to a round-trip test before it silently rots"),
                    ));
                }
            }
        }
    }

    // (b) bench-emitter JSON keys, over the emitter call-graph closure.
    for (fi, file) in sources.iter().enumerate() {
        if !cfg.bench_emitter_files.contains(&file.rel) {
            continue;
        }
        let syms = &ws.files[fi];
        // Schema markers: `ent-bench-` may appear as a literal inside the
        // emitter body, or behind a module-level `const BENCH_SCHEMA: &str
        // = "ent-bench-…"` the emitter references by name.
        let mut schema_consts: BTreeSet<String> = BTreeSet::new();
        for j in 0..file.toks.len() {
            if file.toks[j].kind == TokKind::Str && file.text(j).contains("ent-bench-") {
                // Walk back to the owning `const`/`static` name, if any.
                for k in (0..j).rev() {
                    match file.toks[k].kind {
                        TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
                        TokKind::Ident if file.text(k) == "const" || file.text(k) == "static" => {
                            if let Some(ni) = file.next_sig(k) {
                                if file.toks[ni].kind == TokKind::Ident {
                                    schema_consts.insert(file.text(ni).into_owned());
                                }
                            }
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }
        // Roots: fns whose bodies contain the schema string or reference a
        // schema const.
        let mut queue: Vec<String> = Vec::new();
        let mut reached: BTreeSet<String> = BTreeSet::new();
        for f in &syms.fns {
            if file.is_test_line(f.line) {
                continue; // tests referencing the schema are consumers
            }
            let Some((open, close)) = f.body else { continue };
            let is_root = (open..close).any(|j| match file.toks[j].kind {
                // The const may be spliced via `format!` interpolation
                // (`"{BENCH_SCHEMA}"`), which lexes as part of the string.
                TokKind::Str => {
                    let t = file.text(j);
                    t.contains("ent-bench-") || schema_consts.iter().any(|c| t.contains(c.as_str()))
                }
                TokKind::Ident => schema_consts.contains(file.text(j).as_ref()),
                _ => false,
            });
            if is_root && reached.insert(f.name.clone()) {
                queue.push(f.name.clone());
            }
        }
        // Forward closure over the crate call graph (captures shared
        // helpers like `push_stat`).
        let by_name = ws.crate_fns.get(&file.crate_name);
        while let Some(name) = queue.pop() {
            let Some(refs) = by_name.and_then(|m| m.get(&name)) else { continue };
            for &(rfi, rgi) in refs {
                for callee in &ws.files[rfi].fns[rgi].calls {
                    if reached.insert(callee.clone()) {
                        queue.push(callee.clone());
                    }
                }
            }
        }
        // Collect emitted keys from every reached fn body in this crate.
        let mut seen_keys: BTreeSet<String> = BTreeSet::new();
        for (rfi, rfile) in sources.iter().enumerate() {
            if rfile.crate_name != file.crate_name {
                continue;
            }
            for f in &ws.files[rfi].fns {
                if !reached.contains(&f.name) || rfile.is_test_line(f.line) {
                    continue;
                }
                let Some((open, close)) = f.body else { continue };
                for j in open..close {
                    if rfile.toks[j].kind != TokKind::Str {
                        continue;
                    }
                    let text = rfile.text(j);
                    for key in emitted_json_keys(&text) {
                        if !seen_keys.insert(key.clone()) {
                            continue;
                        }
                        if !covered.contains(key.as_str()) {
                            out.push(finding(
                                Code::E009,
                                rfile,
                                rfile.toks[j].line,
                                format!("bench JSON key `{key}` is emitted but never referenced from test code: extend the obs-check/round-trip coverage"),
                            ));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Every identifier-shaped word visible from test context: idents on test
/// lines plus words inside string literals on test lines (tests reference
/// JSON keys as strings, struct fields as idents).
fn test_reference_words(sources: &[SourceFile]) -> BTreeSet<String> {
    let mut words = BTreeSet::new();
    for file in sources {
        for (j, t) in file.toks.iter().enumerate() {
            if !file.is_test_line(t.line) {
                continue;
            }
            match t.kind {
                TokKind::Ident => {
                    words.insert(file.text(j).into_owned());
                }
                TokKind::Str => {
                    let text = file.text(j).into_owned();
                    for w in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                        if !w.is_empty() {
                            words.insert(w.to_string());
                        }
                    }
                }
                _ => {}
            }
        }
    }
    words
}

/// Extract JSON keys from the raw text of a string literal in an emitter:
/// occurrences of `\"key\":` (the escaped form the hand-rolled writers
/// use). Interpolation braces (`{name}`) never match, so dynamic keys are
/// naturally skipped.
fn emitted_json_keys(raw: &str) -> Vec<String> {
    let bytes = raw.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        if bytes[i] == b'\\' && bytes[i + 1] == b'"' {
            let start = i + 2;
            let mut k = start;
            while k < bytes.len() && (bytes[k].is_ascii_alphanumeric() || bytes[k] == b'_') {
                k += 1;
            }
            if k > start
                && k + 2 < bytes.len()
                && bytes[k] == b'\\'
                && bytes[k + 1] == b'"'
                && bytes[k + 2] == b':'
            {
                // Guaranteed ASCII range by the byte checks above.
                out.push(raw[start..k].to_string());
                i = k + 3;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// E001-lite sweep over the harness crates (`tests`, `bench`): bare
/// `.unwrap()` / `todo!` / `unimplemented!` outside attribute-marked
/// `#[test]`/`#[cfg(test)]` regions. Harness code may panic, but shared
/// helpers must say why (`expect`/`assert!` with a message) — a bare
/// unwrap in a helper takes down every test that calls it with no
/// diagnostic.
fn harness_sweep(sources: &[SourceFile], cfg: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in sources {
        if !cfg.harness_crates.contains(&file.crate_name) {
            continue;
        }
        for j in 0..file.toks.len() {
            if file.toks[j].kind != TokKind::Ident {
                continue;
            }
            let line = file.toks[j].line;
            if file.is_attr_test_line(line) {
                continue;
            }
            let word = file.text(j);
            match word.as_ref() {
                "unwrap" => {
                    let dotted = file
                        .prev_sig(j)
                        .is_some_and(|p| file.toks[p].kind == TokKind::Punct('.'));
                    let called = file
                        .next_sig(j)
                        .is_some_and(|n| file.toks[n].kind == TokKind::Punct('('));
                    if dotted && called {
                        out.push(finding(
                            Code::E001,
                            file,
                            line,
                            "bare `.unwrap()` in harness helper code: use `.expect(\"why\")` so a failing fixture names its cause".to_string(),
                        ));
                    }
                }
                "todo" | "unimplemented"
                    if file
                        .next_sig(j)
                        .is_some_and(|n| file.toks[n].kind == TokKind::Punct('!')) =>
                {
                    out.push(finding(
                        Code::E001,
                        file,
                        line,
                        format!("`{word}!` in harness code: stubs must not ship in the test tree"),
                    ));
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(rel: &str, crate_name: &str, is_test: bool, text: &str) -> SourceFile {
        SourceFile::new(rel.into(), crate_name.into(), is_test, text.as_bytes().to_vec())
    }

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        symbol_checks(&files, &LintConfig::default())
    }

    #[test]
    fn e006_flags_sink_reachable_map_iteration() {
        let f = src(
            "crates/core/src/report.rs",
            "core",
            false,
            "use std::collections::HashMap;\npub fn render_report(m: &HashMap<u32, u64>) {\n    for (k, v) in m.iter() {\n        emit(k, v);\n    }\n}\nfn emit(_k: &u32, _v: &u64) {}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().any(|f| f.code == Code::E006 && f.line == 3), "{fs:#?}");
    }

    #[test]
    fn e006_respects_sort_and_order_insensitive_escapes() {
        let f = src(
            "crates/core/src/report.rs",
            "core",
            false,
            "use std::collections::HashMap;\npub fn render_sorted(m: &HashMap<u32, u64>) {\n    let mut ks: Vec<u32> = m.keys().copied().collect();\n    ks.sort_unstable();\n}\npub fn render_total(m: &HashMap<u32, u64>) -> u64 {\n    m.values().sum()\n}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().all(|f| f.code != Code::E006), "{fs:#?}");
    }

    #[test]
    fn e006_explicit_hasher_is_clean() {
        let f = src(
            "crates/core/src/report.rs",
            "core",
            false,
            "use std::collections::HashMap;\npub fn render_fx(m: &HashMap<u32, u64, FxBuildHasher>) {\n    for (k, v) in m.iter() {\n        let _ = (k, v);\n    }\n}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().all(|f| f.code != Code::E006), "{fs:#?}");
    }

    #[test]
    fn e006_wall_clock_flagged_and_exempt_file_quiet() {
        let hot = src(
            "crates/flow/src/clocky.rs",
            "flow",
            false,
            "use std::time::Instant;\npub fn tick() {\n    let _t = Instant::now();\n}\n",
        );
        let exempt = src(
            "crates/core/src/metrics.rs",
            "core",
            false,
            "use std::time::Instant;\npub fn stage() {\n    let _t = Instant::now();\n}\n",
        );
        let fs = run(vec![hot, exempt]);
        assert_eq!(fs.iter().filter(|f| f.code == Code::E006).count(), 1, "{fs:#?}");
        assert!(fs.iter().any(|f| f.file == "crates/flow/src/clocky.rs" && f.line == 3));
    }

    #[test]
    fn e006_float_accumulation_in_map_loop() {
        let f = src(
            "crates/proto/src/mix.rs",
            "proto",
            false,
            "use std::collections::HashMap;\npub fn mix(m: &HashMap<u32, f64>) -> f64 {\n    let mut total: f64 = 0.0;\n    for v in m.values() {\n        total += *v;\n    }\n    total\n}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().any(|f| f.code == Code::E006 && f.line == 5), "{fs:#?}");
    }

    #[test]
    fn e007_static_mut_refcell_and_hot_lock() {
        let f = src(
            "crates/flow/src/shard.rs",
            "flow",
            false,
            "use std::cell::RefCell;\nuse std::sync::Mutex;\nstatic mut PACKETS: u64 = 0;\npub struct S {\n    cache: RefCell<u64>,\n}\npub fn parse_next(m: &Mutex<u64>) {\n    let _g = m.lock();\n}\npub fn cold_report(m: &Mutex<u64>) {\n    let _g = m.lock();\n}\n",
        );
        let fs = run(vec![f]);
        let e7: Vec<u32> = fs.iter().filter(|f| f.code == Code::E007).map(|f| f.line).collect();
        assert_eq!(e7, vec![3, 5, 8], "{fs:#?}");
    }

    #[test]
    fn e008_string_error_and_option_smuggling() {
        let f = src(
            "crates/core/src/io.rs",
            "core",
            false,
            "pub fn parse_doc(s: &str) -> Result<u32, String> {\n    s.parse().map_err(|_| \"bad\".to_string())\n}\npub fn load_state(p: &str) -> Option<u32> {\n    let _ = p;\n    None\n}\npub fn open_typed(p: &str) -> Result<u32, AnalysisError> {\n    let _ = p;\n    Err(AnalysisError::bad(9999 as u16))\n}\n",
        );
        let fs = run(vec![f]);
        let e8: Vec<u32> = fs.iter().filter(|f| f.code == Code::E008).map(|f| f.line).collect();
        assert_eq!(e8, vec![1, 4, 10], "{fs:#?}");
    }

    #[test]
    fn e008_generic_and_io_errors_pass() {
        let f = src(
            "crates/pcap/src/rdr.rs",
            "pcap",
            false,
            "pub fn read_all(p: &str) -> Result<Vec<u8>, io::Error> {\n    std::fs::read(p)\n}\npub fn map_with<E>(f: fn() -> Result<u32, E>) -> Result<u32, E> {\n    f()\n}\n",
        );
        let fs = run(vec![f]);
        assert!(fs.iter().all(|f| f.code != Code::E008), "{fs:#?}");
    }

    #[test]
    fn e009_uncovered_field_and_key() {
        let ckpt = src(
            "crates/core/src/checkpoint.rs",
            "core",
            false,
            "pub struct Checkpoint {\n    pub epoch_index: u64,\n    pub ghost_field: u64,\n}\n",
        );
        let emitter = src(
            "crates/core/src/metrics.rs",
            "core",
            false,
            "pub fn bench_json() -> String {\n    let mut s = String::new();\n    s.push_str(\"{\\\"schema\\\": \\\"ent-bench-pipeline/1\\\", \\\"ghost_key\\\": 1}\");\n    push_tail(&mut s);\n    s\n}\nfn push_tail(s: &mut String) {\n    s.push_str(\"\\\"covered_key\\\": 2\");\n}\n",
        );
        let tests = src(
            "tests/tests/obs.rs",
            "tests",
            true,
            "fn check() {\n    let _ = \"schema covered_key\";\n    let c = Checkpoint { epoch_index: 1, ghost_field: 0 };\n    let _ = c.epoch_index;\n}\n",
        );
        // `ghost_field` appears in tests too — drop it from coverage by
        // renaming in the test source.
        let tests = {
            let _ = tests;
            src(
                "tests/tests/obs.rs",
                "tests",
                true,
                "fn check() {\n    let _ = \"schema covered_key\";\n    let _ = epoch_index;\n}\n",
            )
        };
        let fs = run(vec![ckpt, emitter, tests]);
        let e9: Vec<(String, u32)> = fs
            .iter()
            .filter(|f| f.code == Code::E009)
            .map(|f| (f.file.clone(), f.line))
            .collect();
        assert_eq!(
            e9,
            vec![
                ("crates/core/src/checkpoint.rs".to_string(), 3),
                ("crates/core/src/metrics.rs".to_string(), 3),
            ],
            "{fs:#?}"
        );
    }

    #[test]
    fn harness_sweep_flags_bare_unwrap_outside_test_regions() {
        let f = src(
            "tests/src/lib.rs",
            "tests",
            true,
            "pub fn helper(p: &str) -> u32 {\n    p.parse().unwrap()\n}\n#[test]\nfn ok_inside() {\n    let _: u32 = \"1\".parse().unwrap();\n}\n",
        );
        let fs = run(vec![f]);
        let e1: Vec<u32> = fs.iter().filter(|f| f.code == Code::E001).map(|f| f.line).collect();
        assert_eq!(e1, vec![2], "{fs:#?}");
    }

    #[test]
    fn emitted_json_key_extraction() {
        let raw = r#""{\"schema\": \"ent-bench-pipeline/1\", \"packets\": 0, \"{name}\": 1}""#;
        assert_eq!(emitted_json_keys(raw), vec!["schema", "packets"]);
    }
}
