//! Every document a source file or root document cites by name — `*.md` and
//! `BENCH_*.json` — must exist at the workspace root, so deleting or renaming
//! a document cannot leave dangling references behind.
//!
//! Scanned: every `.rs` file of the workspace, plus the root `README.md` and
//! `ARCHITECTURE.md`. Skipped: build output (`target/`), the vendored
//! stand-ins (`vendor/`), the standalone benchmark package (`perfbench/`) and
//! hidden directories. The history files (`CHANGES.md`, `ROADMAP.md`) are not
//! scanned: they cite what existed when each entry was written.

use std::fs;
use std::path::{Path, PathBuf};

const SKIPPED_DIRS: &[&str] = &["target", "vendor", "perfbench"];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if !name.starts_with('.') && !SKIPPED_DIRS.contains(&name.as_str()) {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn is_name_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'-'
}

/// The `*.md` and `BENCH_*.json` file names cited in `text`, without any
/// directory prefix.
fn cited_files(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for (at, _) in text.match_indices(".md") {
        let stem = text[..at]
            .bytes()
            .rev()
            .take_while(|&c| is_name_char(c))
            .count();
        let ends_word = text
            .as_bytes()
            .get(at + 3)
            .is_none_or(|&c| !is_name_char(c));
        if stem > 0 && ends_word {
            names.push(text[at - stem..at + 3].to_string());
        }
    }
    for (at, _) in text.match_indices("BENCH_") {
        let rest = &text[at..];
        let stem = rest.bytes().take_while(|&c| is_name_char(c)).count();
        if rest[stem..].starts_with(".json") {
            names.push(rest[..stem + ".json".len()].to_string());
        }
    }
    names
}

#[test]
fn cited_documents_exist_at_the_workspace_root() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = vec![root.join("README.md"), root.join("ARCHITECTURE.md")];
    rust_sources(root, &mut sources);
    let mut missing = Vec::new();
    for source in &sources {
        let text = fs::read_to_string(source).unwrap();
        for name in cited_files(&text) {
            if !root.join(&name).is_file() {
                let shown = source.strip_prefix(root).unwrap_or(source);
                missing.push(format!("{}: {name}", shown.display()));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "references to files that do not exist at the workspace root:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_scanner_finds_both_name_shapes() {
    // Report names are split with `concat!` so this file does not cite a
    // missing report itself.
    let report = concat!("BENCH_", "e2e.json");
    let text = format!("see `README.md`, ../x/ARCHITECTURE.md and {report}; not notes.mdx or *.md");
    assert_eq!(cited_files(&text), ["README.md", "ARCHITECTURE.md", report]);
}
