//! Findings, lint-code metadata and report rendering (human + JSON).

use std::fmt;

/// The coded lints `ent-lint` enforces. See `DESIGN.md` for the rationale
/// behind each invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Panic surface in ingest crates: `unwrap`/`expect`/`panic!`/
    /// `unreachable!`/`todo!`/`unimplemented!` or computed slice indexing in
    /// non-test code of `wire`/`pcap`/`proto`/`flow`/`core`.
    E001,
    /// Unchecked offset arithmetic or truncating `as` casts on
    /// length-derived values inside parser hot paths of `wire`/`pcap`/
    /// `proto`.
    E002,
    /// Crate-hygiene totality: every crate root must carry
    /// `#![forbid(unsafe_code)]`, `#![deny(missing_docs)]` and the
    /// `cfg_attr(not(test))` unwrap/expect gate.
    E003,
    /// Protocol-registry totality: every analyzer module under
    /// `crates/proto/src/` must be listed in `registry.rs`'s
    /// `ANALYZER_MODULES`, and every listed module must exist.
    E004,
    /// Paper-artifact coverage: every `Table N`/`Figure N` claimed in
    /// `crates/core/src/analyses` must be referenced from test code.
    E005,
    /// Nondeterminism hazard in analysis code: iteration over a std
    /// `HashMap`/`HashSet` on a path that reaches report/signature/
    /// finalize sinks without an intervening sort or order-insensitive
    /// reduction; wall-clock/thread-id/env reads; float accumulation over
    /// unordered-map iteration.
    E006,
    /// Shared-state discipline for parallel trace workers: `static mut`
    /// items, non-`Sync` interior mutability (`RefCell`/`Cell`/`Rc`) in
    /// worker-side crates, or lock acquisition inside per-packet hot
    /// functions.
    E007,
    /// Error-taxonomy totality: public fallible functions in ingest crates
    /// must return a typed taxonomy error (no `Result<_, String>`, no
    /// `bool`/`Option` smuggling on fallible-verb names, no truncating
    /// `as` casts inside `Err(..)` construction).
    E008,
    /// Checkpoint/bench schema hygiene: every `Checkpoint` payload field
    /// and every key emitted by the `ent-bench-*` JSON writers must be
    /// referenced from test code (round-trip or obs-check coverage).
    E009,
}

/// All codes, in order.
pub const ALL_CODES: [Code; 9] = [
    Code::E001,
    Code::E002,
    Code::E003,
    Code::E004,
    Code::E005,
    Code::E006,
    Code::E007,
    Code::E008,
    Code::E009,
];

/// Version tag stamped into `ent-lint --json` output. Bumped whenever the
/// set of codes or the JSON shape changes, so downstream diffing tools can
/// refuse mismatched reports instead of mis-parsing them.
pub const JSON_SCHEMA: &str = "ent-lint/2";

impl Code {
    /// The code as printed in findings and written in suppressions.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::E001 => "E001",
            Code::E002 => "E002",
            Code::E003 => "E003",
            Code::E004 => "E004",
            Code::E005 => "E005",
            Code::E006 => "E006",
            Code::E007 => "E007",
            Code::E008 => "E008",
            Code::E009 => "E009",
        }
    }

    /// Short human title.
    pub fn title(self) -> &'static str {
        match self {
            Code::E001 => "panic surface in ingest crate",
            Code::E002 => "unchecked wire-length arithmetic in parser hot path",
            Code::E003 => "crate hygiene attributes missing",
            Code::E004 => "protocol analyzer not registered",
            Code::E005 => "paper artifact without test reference",
            Code::E006 => "nondeterminism hazard in analysis path",
            Code::E007 => "shared-state hazard for parallel workers",
            Code::E008 => "untyped error on public fallible function",
            Code::E009 => "checkpoint/bench schema field without test coverage",
        }
    }

    /// Parse a code written in a suppression comment.
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Finding severity. Every tier-1 lint reports at `Error`; the level is
/// carried separately so future advisory lints can ride the same report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Must be fixed or explicitly suppressed; fails the build gate.
    Error,
    /// Advisory only; never fails the gate.
    Warning,
}

impl Severity {
    /// Lower-case name used in output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// One lint finding, anchored to a workspace-relative `file:line`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which lint fired.
    pub code: Code,
    /// Severity of this finding.
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}]: {}",
            self.file, self.line, self.severity.as_str(), self.code, self.message
        )
    }
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, sorted by (file, line, code).
    pub findings: Vec<Finding>,
    /// Number of findings silenced by inline `ent-lint: allow(..)` comments.
    pub suppressed: usize,
}

impl Report {
    /// True when no error-severity finding survived suppression.
    pub fn is_clean(&self) -> bool {
        !self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// Count of findings for one code.
    pub fn count(&self, code: Code) -> usize {
        self.findings.iter().filter(|f| f.code == code).count()
    }

    /// Render the machine-readable JSON report (stable key order, no
    /// external dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.findings.len() * 128);
        out.push_str("{\n  \"schema\": \"");
        out.push_str(JSON_SCHEMA);
        out.push_str("\",\n  \"files_scanned\": ");
        out.push_str(&self.files_scanned.to_string());
        out.push_str(",\n  \"suppressed\": ");
        out.push_str(&self.suppressed.to_string());
        out.push_str(",\n  \"counts\": {");
        for (i, code) in ALL_CODES.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(code.as_str());
            out.push_str("\": ");
            out.push_str(&self.count(*code).to_string());
        }
        out.push_str("},\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"code\": \"");
            out.push_str(f.code.as_str());
            out.push_str("\", \"severity\": \"");
            out.push_str(f.severity.as_str());
            out.push_str("\", \"file\": \"");
            json_escape(&mut out, &f.file);
            out.push_str("\", \"line\": ");
            out.push_str(&f.line.to_string());
            out.push_str(", \"message\": \"");
            json_escape(&mut out, &f.message);
            out.push_str("\"}");
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for c in ALL_CODES {
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        assert_eq!(Code::parse("E999"), None);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut r = Report {
            files_scanned: 2,
            ..Default::default()
        };
        r.findings.push(Finding {
            code: Code::E001,
            severity: Severity::Error,
            file: "crates/wire/src/lib.rs".into(),
            line: 7,
            message: "call to `unwrap()` with \"quotes\"".into(),
        });
        let j = r.to_json();
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.contains("\\\"quotes\\\""));
        assert!(j.contains("\"E001\": 1"));
        assert!(j.contains("\"E005\": 0"));
    }

    #[test]
    fn display_format_is_clickable() {
        let f = Finding {
            code: Code::E003,
            severity: Severity::Error,
            file: "crates/gen/src/lib.rs".into(),
            line: 1,
            message: "missing gate".into(),
        };
        assert_eq!(f.to_string(), "crates/gen/src/lib.rs:1: error [E003]: missing gate");
    }

    #[test]
    fn clean_report() {
        let r = Report::default();
        assert!(r.is_clean());
        assert_eq!(r.count(Code::E002), 0);
    }
}
