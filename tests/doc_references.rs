//! Every document a source file or root document cites by name — `*.md` and
//! `BENCH_*.json` — must exist at the workspace root, and every bench target
//! cited as `--bench <name>` (or listed in CI's `bench-smoke` matrix) must be
//! a `[[bench]]` of `crates/bench/Cargo.toml`, so deleting or renaming a
//! document or a bench cannot leave dangling references behind. Likewise the
//! crate lists of `ARCHITECTURE.md` and `README.md` must name exactly the
//! `crates/*` packages, and `default-members` must cover every member. The
//! prose documents (README, ARCHITECTURE, the verify skill and the CI
//! workflow) may cite a source path with a directory (`crates/x/src/y.rs`)
//! only if it exists relative to the workspace root, a `C4U_*` variable only
//! if it is registered in `c4u_bench::env::KNOBS`, a `c4u_<crate>::<item>`
//! path only if `<item>` is public at that crate's root, and a
//! `Type::<name>` for any `pub struct` or `pub enum Type` of the workspace
//! only if `<name>` is a field, enum variant, associated const or method of
//! that type (so `EstimationMode::X` and `StrategyKind::X` must name a
//! variant the enum's source declares, or one of its methods).
//!
//! Scanned: every `.rs` file of the workspace, plus the root `README.md` and
//! `ARCHITECTURE.md` (and, for bench names, source paths and knobs, the verify
//! skill; for the last two also the CI workflow). Skipped: build
//! output (`target/`), the vendored stand-ins (`vendor/`), the standalone
//! benchmark package (`perfbench/`) and hidden directories. The history files
//! (`CHANGES.md`, `ROADMAP.md`) are not scanned: they cite what existed when
//! each entry was written.

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

/// The `name = "..."` of every `[[bench]]` table in a Cargo manifest.
fn declared_benches(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_bench = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_bench = line == "[[bench]]";
        } else if let Some(value) = line.strip_prefix("name = ").filter(|_| in_bench) {
            names.push(value.trim_matches('"').to_string());
        }
    }
    names
}

/// The bench names cited as `--bench <name>` in `text` (placeholders such as
/// `<name>` or `${{ .. }}` yield no name).
fn cited_benches(text: &str) -> Vec<String> {
    text.match_indices("--bench ")
        .map(|(at, flag)| {
            let rest = &text[at + flag.len()..];
            let len = rest.bytes().take_while(|&c| is_name_char(c)).count();
            rest[..len].to_string()
        })
        .filter(|name| !name.is_empty())
        .collect()
}

/// The entries of the `bench: [..]` matrix of CI's `bench-smoke` job.
fn ci_bench_matrix(workflow: &str) -> Vec<String> {
    let job = &workflow[workflow.find("\n  bench-smoke:").expect("bench-smoke job")..];
    let line = job
        .lines()
        .map(str::trim)
        .find(|line| line.starts_with("bench: ["))
        .expect("bench-smoke matrix");
    line["bench: [".len()..]
        .trim_end_matches(']')
        .split(',')
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn cited_bench_targets_are_declared() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let declared =
        declared_benches(&fs::read_to_string(root.join("crates/bench/Cargo.toml")).unwrap());
    assert!(
        !declared.is_empty(),
        "no [[bench]] in crates/bench/Cargo.toml"
    );
    let mut sources = vec![
        root.join("README.md"),
        root.join("ARCHITECTURE.md"),
        // Split with `concat!` so the document scan above does not read
        // this path as a root document.
        root.join(concat!(".claude/skills/verify/SKILL", ".md")),
    ];
    sources.retain(|path| path.is_file());
    rust_sources(root, &mut sources);
    let mut unknown = Vec::new();
    for source in &sources {
        let shown = source.strip_prefix(root).unwrap_or(source).display();
        for name in cited_benches(&fs::read_to_string(source).unwrap()) {
            if !declared.contains(&name) {
                unknown.push(format!("{shown}: {name}"));
            }
        }
    }
    let workflow = fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap();
    let matrix = ci_bench_matrix(&workflow);
    for name in &matrix {
        if !declared.contains(name) {
            unknown.push(format!(
                ".github/workflows/ci.yml (bench-smoke matrix): {name}"
            ));
        }
    }
    assert!(
        unknown.is_empty(),
        "bench targets cited but not declared in crates/bench/Cargo.toml:\n{}",
        unknown.join("\n")
    );
    // And every declared bench runs in CI.
    let unrun: Vec<&String> = declared
        .iter()
        .filter(|name| !matrix.contains(name))
        .collect();
    assert!(
        unrun.is_empty(),
        "bench targets declared in crates/bench/Cargo.toml but missing from the \
         bench-smoke matrix of .github/workflows/ci.yml: {unrun:?}"
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

/// The quoted entries of the `key = [..]` array in a Cargo manifest.
fn manifest_array(manifest: &str, key: &str) -> Vec<String> {
    let start = manifest
        .lines()
        .position(|line| line.starts_with(&format!("{key} = [")))
        .unwrap_or_else(|| panic!("no `{key}` array"));
    manifest
        .lines()
        .skip(start + 1)
        .take_while(|line| !line.starts_with(']'))
        .map(|line| {
            line.trim()
                .trim_end_matches(',')
                .trim_matches('"')
                .to_string()
        })
        .collect()
}

fn sorted(mut names: Vec<String>) -> Vec<String> {
    names.sort();
    names
}

/// The `crates/*` packages as `(package name, crate directory)`.
fn workspace_packages(root: &Path) -> Vec<(String, PathBuf)> {
    fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| {
            let dir = entry.unwrap().path();
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            let name = manifest
                .lines()
                .find_map(|line| line.strip_prefix("name = "))
                .expect("package name");
            (name.trim_matches('"').to_string(), dir)
        })
        .collect()
}

#[test]
fn crate_lists_match_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &str| fs::read_to_string(root.join(path)).unwrap();
    let packages = sorted(
        workspace_packages(root)
            .into_iter()
            .map(|(name, _)| name)
            .collect(),
    );

    // ARCHITECTURE.md: the first column of the crate-map table.
    let architecture = read("ARCHITECTURE.md");
    let map = architecture
        .split("\n## ")
        .find(|section| section.starts_with("Crate map"))
        .expect("ARCHITECTURE.md crate map");
    let mapped = map
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .map(|row| row[..row.find('`').unwrap()].to_string())
        .collect();
    assert_eq!(sorted(mapped), packages, "ARCHITECTURE.md crate map");

    // README.md: the `(c4u-*)` labels of the `crates/` tree.
    let readme = read("README.md");
    let tree = &readme[readme.find("\ncrates/\n").expect("README.md crates/ tree")..];
    let listed = tree
        .lines()
        .skip(2)
        .take_while(|line| line.starts_with("  "))
        .map(|line| {
            let label = &line[line.rfind('(').expect("(c4u-*) label") + 1..];
            label.trim_end_matches(')').to_string()
        })
        .collect();
    assert_eq!(sorted(listed), packages, "README.md crates/ tree");

    // Plain `cargo test` from the root covers every member.
    let manifest = read("Cargo.toml");
    let mut members = manifest_array(&manifest, "members");
    members.push(".".to_string());
    assert_eq!(
        sorted(manifest_array(&manifest, "default-members")),
        sorted(members)
    );
}

/// The prose documents whose source paths and knob names are checked.
fn prose_documents(root: &Path) -> Vec<PathBuf> {
    let mut documents = vec![
        root.join("README.md"),
        root.join("ARCHITECTURE.md"),
        root.join(concat!(".claude/skills/verify/SKILL", ".md")),
        root.join(".github/workflows/ci.yml"),
    ];
    documents.retain(|path| path.is_file());
    documents
}

fn is_path_char(c: u8) -> bool {
    is_name_char(c) || matches!(c, b'.' | b'/' | b'*')
}

/// The `*.rs` paths with a directory cited in `text`. Glob patterns such as
/// `examples/*.rs` are skipped.
fn cited_source_paths(text: &str) -> Vec<String> {
    let mut paths = Vec::new();
    for (at, _) in text.match_indices(".rs") {
        let ends_word = text
            .as_bytes()
            .get(at + 3)
            .is_none_or(|&c| !is_name_char(c));
        let start = at
            - text[..at]
                .bytes()
                .rev()
                .take_while(|&c| is_path_char(c))
                .count();
        let path = &text[start..at + 3];
        if ends_word && path.contains('/') && !path.contains('*') {
            paths.push(path.to_string());
        }
    }
    paths
}

/// The `C4U_*` variable names cited in `text` (the bare family name `C4U_*`
/// yields none).
fn cited_knobs(text: &str) -> Vec<String> {
    text.match_indices("C4U_")
        .filter_map(|(at, _)| {
            let rest = &text[at..];
            let len = rest
                .bytes()
                .take_while(|&c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == b'_')
                .count();
            (len > "C4U_".len()).then(|| rest[..len].to_string())
        })
        .collect()
}

#[test]
fn cited_source_paths_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for document in prose_documents(root) {
        let shown = document.strip_prefix(root).unwrap_or(&document).display();
        for path in cited_source_paths(&fs::read_to_string(&document).unwrap()) {
            if !root.join(&path).is_file() {
                missing.push(format!("{shown}: {path}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "source paths cited but missing (paths are relative to the workspace root):\n{}",
        missing.join("\n")
    );
}

#[test]
fn cited_knobs_are_registered() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut unknown = Vec::new();
    for document in prose_documents(root) {
        let shown = document.strip_prefix(root).unwrap_or(&document).display();
        for name in cited_knobs(&fs::read_to_string(&document).unwrap()) {
            if !c4u_bench::env::is_registered(&name) {
                unknown.push(format!("{shown}: {name}"));
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "C4U_* variables cited but not registered in c4u_bench::env::KNOBS:\n{}",
        unknown.join("\n")
    );
}

#[test]
fn the_path_and_knob_scanners_find_what_they_should() {
    let text = "see `crates/x/src/y.rs:10`, (tests/z.rs), lib.rs, examples/*.rs, a.rsx";
    assert_eq!(
        cited_source_paths(text),
        ["crates/x/src/y.rs", "tests/z.rs"]
    );
    let text = "set C4U_TRIALS=2 and `C4U_QUAD_MATH`; every C4U_* name; c4u_trials";
    assert_eq!(cited_knobs(text), ["C4U_TRIALS", "C4U_QUAD_MATH"]);
}

/// The identifier at the start of `text`.
fn leading_ident(text: &str) -> &str {
    let len = text
        .bytes()
        .take_while(|&c| c.is_ascii_alphanumeric() || c == b'_')
        .count();
    &text[..len]
}

/// The `prefix<ident>::<ident>` paths cited in `text`, as `(first, second)`
/// identifiers with `prefix` kept on the first; a match inside a longer
/// identifier (`myc4u_x::y`) is skipped.
fn cited_paths(text: &str, prefix: &str) -> Vec<(String, String)> {
    text.match_indices(prefix)
        .filter(|&(at, _)| {
            !text[..at]
                .bytes()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        })
        .filter_map(|(at, _)| {
            let rest = &text[at..];
            let first = prefix.len() + leading_ident(&rest[prefix.len()..]).len();
            let second = leading_ident(rest[first..].strip_prefix("::")?);
            (!second.is_empty()).then(|| (rest[..first].to_string(), second.to_string()))
        })
        .collect()
}

/// The names a crate root (`lib.rs`) makes public: its `pub` items and the
/// leaf (or `as`) names of its `pub use` trees. Glob re-exports are not
/// followed.
fn public_root_names(lib: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = lib;
    while let Some(at) = rest.find("\npub ") {
        let item = &rest[at + "\npub ".len()..];
        if let Some(tree) = item.strip_prefix("use ") {
            let tree = &tree[..tree.find(';').expect("`pub use` ends with `;`")];
            for leaf in tree.split(['{', '}', ',']) {
                let leaf = leaf.trim();
                let name = match leaf.split_once(" as ") {
                    Some((_, alias)) => alias.trim(),
                    None => leaf.rsplit("::").next().unwrap_or(""),
                };
                if !name.is_empty() && name != "self" {
                    names.push(name.to_string());
                }
            }
        } else {
            let declaration = item.lines().next().unwrap_or("");
            let keyword_end = match declaration.find("fn ") {
                Some(at) => at + "fn ".len(),
                None => declaration.find(' ').map_or(0, |at| at + 1),
            };
            names.push(leading_ident(&declaration[keyword_end..]).to_string());
        }
        rest = item;
    }
    names
}

/// The names of the `pub struct`s and `pub enum`s declared in `source`, the
/// types whose members prose may cite as `Type::member`.
fn pub_types(source: &str) -> Vec<String> {
    source
        .lines()
        .filter_map(|line| {
            let line = line.trim_start();
            line.strip_prefix("pub struct ")
                .or_else(|| line.strip_prefix("pub enum "))
        })
        .map(|rest| leading_ident(rest).to_string())
        .collect()
}

/// The type an `impl` header line (`impl<..> T<..> {` or
/// `impl<..> Trait<..> for T<..> {`) implements, without its path and
/// generic arguments.
fn impl_self_type(line: &str) -> Option<&str> {
    let mut header = line.strip_prefix("impl")?.strip_suffix(" {")?;
    if header.starts_with('<') {
        // Skip the impl's own generic parameters (`->` is not a bracket).
        let mut depth = 0usize;
        let bytes = header.as_bytes();
        let close = (0..bytes.len()).find(|&i| {
            match bytes[i] {
                b'<' => depth += 1,
                b'>' if i == 0 || bytes[i - 1] != b'-' => depth -= 1,
                _ => {}
            }
            depth == 0
        })?;
        header = &header[close + 1..];
    }
    let self_type = header.rsplit_once(" for ").map_or(header, |(_, ty)| ty);
    let self_type = self_type.trim().split('<').next()?;
    self_type.rsplit("::").next()
}

/// The fields, variants, associated consts and methods of the type `name`
/// declared in `source`: the `pub` fields of its `struct` body, the variants
/// of its `enum` body (unit, tuple or struct-like), and every `fn`/`const` of
/// its `impl` blocks (inherent or trait, generic or not), as rustfmt lays
/// them out.
fn type_members(source: &str, name: &str) -> Vec<String> {
    let mut members = Vec::new();
    let (mut in_struct, mut in_enum, mut in_impl) = (false, false, false);
    let header_of = |line: &str, keyword: &str| {
        line.strip_prefix(keyword)
            .is_some_and(|rest| leading_ident(rest) == name && line.ends_with(" {"))
    };
    for line in source.lines() {
        if header_of(line, "pub struct ") {
            in_struct = true;
        } else if header_of(line, "pub enum ") {
            in_enum = true;
        } else if impl_self_type(line) == Some(name) {
            in_impl = true;
        } else if line == "}" {
            (in_struct, in_enum, in_impl) = (false, false, false);
        } else if in_struct {
            if let Some(field) = line.trim_start().strip_prefix("pub ") {
                members.push(leading_ident(field).to_string());
            }
        } else if in_enum {
            // A variant starts at the body's indentation; doc comments,
            // attributes, fields and closing braces start with no identifier.
            let variant = line.strip_prefix("    ").map_or("", leading_ident);
            if !variant.is_empty() {
                members.push(variant.to_string());
            }
        } else if in_impl {
            let Some(member) = line.strip_prefix("    ") else {
                continue;
            };
            // Any visibility: prose may cite crate-private methods too.
            let member = match member.strip_prefix("pub(") {
                Some(restricted) => restricted.split_once(") ").map_or(member, |(_, m)| m),
                None => member.strip_prefix("pub ").unwrap_or(member),
            };
            for keyword in ["fn ", "const "] {
                if let Some(declared) = member.strip_prefix(keyword) {
                    members.push(leading_ident(declared).to_string());
                }
            }
        }
    }
    members
}

#[test]
fn cited_api_names_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut crate_names = Vec::new();
    let mut library_sources = Vec::new();
    for (package, dir) in workspace_packages(root) {
        let mut sources = Vec::new();
        rust_sources(&dir.join("src"), &mut sources);
        library_sources.extend(sources.iter().map(|s| fs::read_to_string(s).unwrap()));
        let lib = fs::read_to_string(dir.join("src/lib.rs")).unwrap_or_default();
        crate_names.push((package.replace('-', "_"), public_root_names(&lib)));
    }
    let mut types: Vec<String> = library_sources.iter().flat_map(|t| pub_types(t)).collect();
    types.sort();
    types.dedup();
    let member_names: Vec<(&str, Vec<String>)> = types
        .iter()
        .map(|ty| {
            let members = library_sources.iter().flat_map(|t| type_members(t, ty));
            (ty.as_str(), members.collect())
        })
        .collect();
    assert!(
        member_names.iter().any(|(ty, _)| *ty == "SelectorConfig"),
        "the struct scan found no SelectorConfig"
    );
    // The two enums whose variants the documents cite most: the scan must
    // see every preset and every strategy.
    for (ty, variant) in [
        ("EstimationMode", "LgeOnly"),
        ("StrategyKind", "GroundTruth"),
    ] {
        assert!(
            member_names
                .iter()
                .any(|(name, members)| *name == ty && members.iter().any(|m| m == variant)),
            "the enum scan found no {ty}::{variant}"
        );
    }
    let mut unknown = Vec::new();
    for document in prose_documents(root) {
        let shown = document.strip_prefix(root).unwrap_or(&document).display();
        let text = fs::read_to_string(&document).unwrap();
        for (krate, item) in cited_paths(&text, "c4u_") {
            let public = crate_names
                .iter()
                .find(|(name, _)| *name == krate)
                .is_some_and(|(_, names)| names.contains(&item));
            if !public {
                unknown.push(format!("{shown}: {krate}::{item}"));
            }
        }
        for (ty, members) in &member_names {
            for (cited, member) in cited_paths(&text, ty) {
                // `cited_paths` extends a match to a longer identifier
                // (`PlatformConfig` for `Platform`); that is another type.
                if cited == *ty && !members.contains(&member) {
                    unknown.push(format!("{shown}: {ty}::{member}"));
                }
            }
        }
    }
    assert!(
        unknown.is_empty(),
        "API names cited but not public at the crate root, or not a member of the type:\n{}",
        unknown.join("\n")
    );
}

#[test]
fn the_api_scanners_find_what_they_should() {
    let text = "use `c4u_stats::vmath`, c4u_bench::env::KNOBS and myc4u_x::y; not c4u_bench.";
    assert_eq!(
        cited_paths(text, "c4u_"),
        [
            ("c4u_stats".to_string(), "vmath".to_string()),
            ("c4u_bench".to_string(), "env".to_string())
        ]
    );
    let lib = "//! Doc.\npub mod theory;\nmod cpe;\npub use cpe::kernel::{\n    a, b as c,\n};\n\
               pub use x::Y;\npub const fn z() {}\npub(crate) fn hidden() {}\n";
    assert_eq!(public_root_names(lib), ["theory", "a", "c", "Y", "z"]);
    let source = "pub struct T {\n    /// Doc.\n    pub a: usize,\n    b: f64,\n}\n\
                  impl Default for T {\n    fn default() -> Self {\n        todo!()\n    }\n}\n\
                  impl T {\n    pub const N: usize = 1;\n    pub fn with(self) {}\n}\n\
                  impl U {\n    pub fn other() {}\n}\n\
                  impl<'a, F: Fn() -> u8> Tr<'a> for crate::T<F> {\n    fn generic(&self) {}\n\
                  \x20   pub(crate) fn private(&self) {}\n}\n";
    assert_eq!(
        type_members(source, "T"),
        ["a", "default", "N", "with", "generic", "private"]
    );
    assert_eq!(pub_types(source), ["T"]);
    assert_eq!(impl_self_type("impl<T> Wrapper<T> {"), Some("Wrapper"));
    assert_eq!(impl_self_type("impl Display for Domain {"), Some("Domain"));
    assert_eq!(impl_self_type("impl<'a> Lexed<'a> {"), Some("Lexed"));
    assert_eq!(impl_self_type("fn impl_like() {"), None);
}

#[test]
fn the_enum_scanner_finds_every_variant_shape() {
    let source = "/// Doc.\n#[derive(Debug)]\npub enum Mode {\n    /// Unit.\n    Unit,\n\
                  \x20   #[allow(dead_code)]\n    Tuple(usize),\n    Struct {\n        /// Field.\n\
                  \x20       what: usize,\n    },\n}\n\
                  pub enum Other {\n    Elsewhere,\n}\n\
                  impl Mode {\n    pub fn all() -> Vec<Mode> {\n        vec![Mode::Unit]\n    }\n}\n";
    assert_eq!(pub_types(source), ["Mode", "Other"]);
    assert_eq!(
        type_members(source, "Mode"),
        ["Unit", "Tuple", "Struct", "all"]
    );
    assert_eq!(type_members(source, "Other"), ["Elsewhere"]);
    // A variant the source no longer declares is not a member.
    let text = "`Mode::Unit`, Mode::all() and Mode::Gone";
    let cited: Vec<(String, String)> = cited_paths(text, "Mode");
    let members = type_members(source, "Mode");
    let unknown: Vec<&str> = cited
        .iter()
        .filter(|(_, member)| !members.contains(member))
        .map(|(_, member)| member.as_str())
        .collect();
    assert_eq!(unknown, ["Gone"]);
}
