//! Diagnostic types and rustc-style rendering.

use std::fmt::Write as _;

/// How a finding affects the exit status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run (non-zero exit).
    Deny,
    /// Printed but does not fail the run.
    Warn,
}

/// One finding: a rule violation at a file/line/column span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (e.g. `no-ambient-rng`).
    pub rule: &'static str,
    /// Whether this finding gates the exit status.
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Length in bytes of the offending token (caret underline width).
    pub len: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix or suppress it.
    pub help: String,
}

impl Diagnostic {
    /// Renders the diagnostic in rustc's style, with the offending source
    /// line (looked up by the caller, which owns the file contents).
    pub fn render(&self, source_line: Option<&str>) -> String {
        let level = match self.severity {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        };
        let mut out = String::new();
        let _ = writeln!(out, "{level}[{}]: {}", self.rule, self.message);
        let _ = writeln!(out, "  --> {}:{}:{}", self.path, self.line, self.col);
        if let Some(src) = source_line {
            let gutter = self.line.to_string();
            let pad = " ".repeat(gutter.len());
            let _ = writeln!(out, "{pad} |");
            let _ = writeln!(out, "{gutter} | {}", src.trim_end());
            let carets = "^".repeat((self.len.max(1)) as usize);
            let _ = writeln!(
                out,
                "{pad} | {}{carets}",
                " ".repeat(self.col.saturating_sub(1) as usize)
            );
        }
        if !self.help.is_empty() {
            let _ = writeln!(out, "  = help: {}", self.help);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_span_and_help() {
        let d = Diagnostic {
            rule: "no-wallclock",
            severity: Severity::Deny,
            path: "crates/x/src/a.rs".into(),
            line: 3,
            col: 13,
            len: 7,
            message: "wall-clock read".into(),
            help: "use the bench harness".into(),
        };
        let r = d.render(Some("    let t = Instant::now();"));
        assert!(r.starts_with("error[no-wallclock]: wall-clock read"));
        assert!(r.contains("--> crates/x/src/a.rs:3:13"));
        assert!(r.contains("3 |     let t = Instant::now();"));
        assert!(r.contains("^^^^^^^"));
        assert!(r.contains("= help: use the bench harness"));
        // The caret column lines up under `Instant`.
        let caret_line = r.lines().find(|l| l.contains('^')).unwrap();
        assert_eq!(caret_line.find('^').unwrap(), "  | ".len() + 12);
    }

    #[test]
    fn warning_level_renders_as_warning() {
        let d = Diagnostic {
            rule: "x",
            severity: Severity::Warn,
            path: "a.rs".into(),
            line: 1,
            col: 1,
            len: 1,
            message: "m".into(),
            help: String::new(),
        };
        assert!(d.render(None).starts_with("warning[x]:"));
    }

    #[test]
    fn without_source_or_help_only_the_header_renders() {
        let d = Diagnostic {
            rule: "no-wallclock",
            severity: Severity::Deny,
            path: "src/lib.rs".into(),
            line: 12,
            col: 1,
            len: 0,
            message: "wall clock".into(),
            help: String::new(),
        };
        assert_eq!(
            d.render(None),
            "error[no-wallclock]: wall clock\n  --> src/lib.rs:12:1\n"
        );
        // A zero-length span still gets one caret.
        assert!(d.render(Some("let t = now();")).contains("   | ^\n"));
    }
}
