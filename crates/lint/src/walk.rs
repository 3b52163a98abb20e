//! Workspace discovery: find the root and enumerate the `.rs` files the
//! rules apply to, in a deterministic (sorted) order.

use std::fs;
use std::path::{Path, PathBuf};

/// Directories never descended into, anywhere in the tree.
const SKIP_DIRS: [&str; 4] = ["target", ".git", "vendor", "fixtures"];

/// Locates the workspace root: `C4U_LINT_ROOT` if set, else the nearest
/// ancestor of `CARGO_MANIFEST_DIR` (or the current directory) that holds a
/// `Cargo.toml` with a `[workspace]` table.
///
/// `C4U_LINT_ROOT` is registered in the knob table of `c4u-bench`'s `env`
/// module; the linter itself stays dependency-free and reads the variable
/// directly.
pub fn workspace_root() -> Option<PathBuf> {
    if let Ok(root) = std::env::var("C4U_LINT_ROOT") {
        return Some(PathBuf::from(root));
    }
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .ok()?;
    let mut dir: &Path = &start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(dir.to_path_buf());
            }
        }
        dir = dir.parent()?;
    }
}

/// All lintable `.rs` files under `root`, as workspace-relative paths with
/// `/` separators, sorted. Skips `target/`, `.git/`, `vendor/` (third-party
/// shims are outside the contracts), and any `fixtures/` directory (the
/// linter's own test corpus is full of intentional violations).
pub fn lintable_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    collect(root, root, &mut out);
    out.sort();
    out
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_workspace_and_skips_vendor_and_fixtures() {
        // The test binary runs with CARGO_MANIFEST_DIR = crates/lint.
        let root = workspace_root().expect("workspace root");
        assert!(root.join("Cargo.toml").exists());
        let files = lintable_files(&root);
        assert!(files.iter().any(|f| f == "crates/lint/src/lexer.rs"));
        assert!(files.iter().any(|f| f == "src/lib.rs"));
        assert!(!files.iter().any(|f| f.starts_with("vendor/")));
        assert!(!files.iter().any(|f| f.contains("/fixtures/")));
        assert!(!files.iter().any(|f| f.starts_with("target/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "file order must be deterministic");
    }
}
