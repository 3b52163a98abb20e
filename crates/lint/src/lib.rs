//! c4u-lint: the workspace invariant linter.
//!
//! A dependency-free static-analysis pass that enforces, at CI time, the
//! contracts the rest of the workspace can only check dynamically: the
//! determinism seam (seeded SplitMix64 stream splits, no ambient entropy,
//! no wall-clock reads, no unordered-map iteration reaching results), the
//! hot-path contract (marked sweep regions stay on the vectorised
//! `c4u_stats::vmath` layer rather than scalar libm), the no-panic
//! discipline of the numerical library crates, crate-root hygiene
//! (`#![forbid(unsafe_code)]` + a seam-naming `//!` overview), and a
//! workspace-wide pass that fails on a library `pub fn` no non-test code
//! calls.
//!
//! The pipeline is [`lexer`] (a lossless hand-rolled Rust lexer — raw
//! strings, nested block comments, lifetime/char disambiguation) feeding
//! [`rules`] (a token-stream rule engine with `#[cfg(test)]`-region
//! tracking and inline suppression via
//! `// c4u-lint: allow(<rule>, reason = "…")` comments), rendered by
//! [`diag`] in rustc style and driven over the tree by [`walk`].
//!
//! Run it with `cargo run -p c4u-lint`; it exits non-zero on any deny
//! finding. See ARCHITECTURE.md, "Static invariants", for the rule table.

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod walk;

use diag::Diagnostic;
use std::path::Path;

/// Lints every lintable file under `root`, returning `(rel_path, source,
/// diagnostics)` for each file that produced findings, in sorted path order.
pub fn run_workspace(root: &Path) -> Vec<(String, String, Vec<Diagnostic>)> {
    let files: Vec<(String, String)> = walk::lintable_files(root)
        .into_iter()
        .filter_map(|rel| {
            let source = std::fs::read_to_string(root.join(&rel)).ok()?;
            Some((rel, source))
        })
        .collect();
    let diags = rules::lint_files(&files);
    files
        .into_iter()
        .zip(diags)
        .filter(|(_, diags)| !diags.is_empty())
        .map(|((rel, source), diags)| (rel, source, diags))
        .collect()
}
