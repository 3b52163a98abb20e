//! Resumable per-cell evaluation cache.
//!
//! A paper-scale sweep evaluates hundreds of (dataset, strategy, seed) cells,
//! each worth seconds to minutes of selector runs. This module memoises every
//! finished [`Cell`] as one small JSON file keyed by the cell's full identity
//! — the dataset configuration's debug rendering, the strategy name, `k`,
//! epochs, `a_T`, and the answering-noise seeds — so an interrupted sweep
//! resumes where it stopped and a re-run with unchanged parameters
//! re-evaluates nothing.
//!
//! The directory is chosen by the `C4U_CELL_CACHE` environment variable
//! ([`cell_cache_dir`]); unset means no persistence (every cell is a miss and
//! nothing is written). CI sets it for the ablation bench and uploads the
//! directory as a workflow artifact, turning the cache into a per-PR
//! accuracy-trajectory record.
//!
//! The format is deliberately dependency-free: floats are rendered with
//! Rust's shortest round-trip formatting (`{:?}`) and parsed back with
//! `str::parse`, so a cache hit reproduces the evaluated cell **bit-for-bit**
//! (`NaN` is stored as JSON `null`). Unreadable, mismatched, or truncated
//! files are treated as misses and rewritten, never trusted.

use crate::{Cell, CellSpec};
use std::fs;
use std::path::{Path, PathBuf};

/// Hit/miss accounting of one resumable sweep
/// ([`crate::evaluate_cells_resumable`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Cells answered from the cache without re-evaluation.
    pub hits: usize,
    /// Cells evaluated (and, with a cache directory, persisted).
    pub misses: usize,
}

impl SweepStats {
    /// Total number of cells the sweep covered.
    pub fn total(&self) -> usize {
        self.hits + self.misses
    }
}

/// The cache directory named by `C4U_CELL_CACHE`, if set and non-empty.
pub fn cell_cache_dir() -> Option<PathBuf> {
    crate::env::C4uEnv::from_env().cell_cache
}

/// The full identity of a cell, rendered as a stable string.
///
/// Includes everything that can change the evaluated numbers: the dataset
/// configuration (its `Debug` rendering covers every field including the
/// generation seed), the strategy name, the selection size `k`, the CPE epoch
/// budget, `a_T`, and the answering-noise seeds. Deliberately **excludes**
/// execution-layout settings like the shard count, which are bit-for-bit
/// invisible in the results.
pub fn cell_key(spec: &CellSpec) -> String {
    let seeds: Vec<String> = spec.seeds.iter().map(u64::to_string).collect();
    format!(
        "config={:?}|strategy={}|k={}|epochs={}|a_t={:?}|seeds={}",
        spec.config,
        spec.strategy.name(),
        spec.k,
        spec.epochs,
        spec.initial_target_accuracy,
        seeds.join(",")
    )
}

/// FNV-1a 64-bit hash (file names must be short and shell-safe; the full key
/// is stored inside the file and verified on load, so collisions only cost a
/// re-evaluation).
fn fnv64(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in s.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Path of the cache file for a cell key.
pub fn cell_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("cell-{:016x}.json", fnv64(key)))
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn unescape_json(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// `f64` → JSON value: shortest round-trip decimal, `NaN`/infinities as `null`
/// (JSON has no non-finite numbers; a `null` parses back to `NaN`).
fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn parse_f64(raw: &str) -> Option<f64> {
    let raw = raw.trim();
    if raw == "null" {
        return Some(f64::NAN);
    }
    raw.parse().ok()
}

/// Extracts the raw (still escaped/unparsed) value of `"field": …` from a
/// one-object JSON document produced by [`render_cell`].
fn raw_field<'a>(json: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        // String value: scan to the closing unescaped quote.
        let mut escaped = false;
        for (i, c) in stripped.char_indices() {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => return Some(&stripped[..i]),
                _ => escaped = false,
            }
        }
        None
    } else {
        // Number / null: runs to the next comma or closing brace.
        let end = rest.find([',', '}', '\n'])?;
        Some(rest[..end].trim())
    }
}

/// Renders a cell (plus its verification key) as the cache-file JSON.
pub fn render_cell(key: &str, cell: &Cell) -> String {
    format!(
        "{{\n  \"version\": 1,\n  \"key\": \"{}\",\n  \"dataset\": \"{}\",\n  \"strategy\": \"{}\",\n  \"mean_accuracy\": {},\n  \"std_accuracy\": {}\n}}\n",
        escape_json(key),
        escape_json(&cell.dataset),
        escape_json(&cell.strategy),
        format_f64(cell.mean_accuracy),
        format_f64(cell.std_accuracy),
    )
}

/// Parses a cache file back into a cell, verifying the stored key. Any
/// mismatch or malformation yields `None` (treated as a miss).
pub fn parse_cell(json: &str, expected_key: &str) -> Option<Cell> {
    let key = unescape_json(raw_field(json, "key")?)?;
    if key != expected_key {
        return None;
    }
    Some(Cell {
        dataset: unescape_json(raw_field(json, "dataset")?)?,
        strategy: unescape_json(raw_field(json, "strategy")?)?,
        mean_accuracy: parse_f64(raw_field(json, "mean_accuracy")?)?,
        std_accuracy: parse_f64(raw_field(json, "std_accuracy")?)?,
    })
}

/// Loads a cell from the cache directory; `None` on any kind of miss.
pub fn load_cell(dir: &Path, spec: &CellSpec) -> Option<Cell> {
    let key = cell_key(spec);
    let json = fs::read_to_string(cell_path(dir, &key)).ok()?;
    parse_cell(&json, &key)
}

/// Persists an evaluated cell. Best-effort: an unwritable cache directory
/// degrades to a warning (the sweep's results are unaffected).
pub fn store_cell(dir: &Path, spec: &CellSpec, cell: &Cell) {
    let key = cell_key(spec);
    let path = cell_path(dir, &key);
    let write = || -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        // Write-then-rename so a killed sweep never leaves a truncated cell
        // (concurrent writers of the same key write identical bytes, so the
        // last rename winning is harmless).
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, render_cell(&key, cell))?;
        fs::rename(&tmp, &path)
    };
    if let Err(err) = write() {
        eprintln!(
            "warning: could not persist cell cache {}: {err}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrategyKind;
    use c4u_crowd_sim::DatasetConfig;

    fn spec() -> CellSpec {
        CellSpec::standard(
            DatasetConfig::rw1(),
            StrategyKind::MedianElimination,
            2,
            vec![1, 2],
        )
    }

    #[test]
    fn key_covers_every_evaluation_parameter() {
        let base = spec();
        let key = cell_key(&base);
        assert!(key.contains("strategy=ME"));
        let mut other = spec();
        other.seeds = vec![1, 3];
        assert_ne!(key, cell_key(&other));
        let mut other = spec();
        other.k = 3;
        assert_ne!(key, cell_key(&other));
        let mut other = spec();
        other.epochs = 7;
        assert_ne!(key, cell_key(&other));
        let mut other = spec();
        other.initial_target_accuracy = 0.3;
        assert_ne!(key, cell_key(&other));
        let mut other = spec();
        other.config = other.config.with_seed(99);
        assert_ne!(key, cell_key(&other));
    }

    #[test]
    fn render_parse_roundtrip_is_bit_for_bit() {
        let cell = Cell {
            dataset: "RW-1 \"quoted\"\n".into(),
            strategy: "ME".into(),
            mean_accuracy: 0.123_456_789_012_345_67,
            std_accuracy: 1e-300,
        };
        let key = "some|key with \\ and \"quotes\"";
        let parsed = parse_cell(&render_cell(key, &cell), key).unwrap();
        assert_eq!(parsed, cell);
        // f64 bit patterns survive exactly.
        assert_eq!(parsed.mean_accuracy.to_bits(), cell.mean_accuracy.to_bits());
    }

    #[test]
    fn non_finite_accuracies_roundtrip_as_null() {
        let cell = Cell {
            dataset: "X".into(),
            strategy: "Y".into(),
            mean_accuracy: f64::NAN,
            std_accuracy: f64::INFINITY,
        };
        let json = render_cell("k", &cell);
        assert!(json.contains("null"));
        let parsed = parse_cell(&json, "k").unwrap();
        assert!(parsed.mean_accuracy.is_nan());
        assert!(parsed.std_accuracy.is_nan());
    }

    #[test]
    fn mismatched_or_malformed_documents_are_misses() {
        let cell = Cell {
            dataset: "RW-1".into(),
            strategy: "ME".into(),
            mean_accuracy: 0.5,
            std_accuracy: 0.0,
        };
        let json = render_cell("key-a", &cell);
        assert!(parse_cell(&json, "key-b").is_none());
        assert!(parse_cell("{}", "key-a").is_none());
        assert!(parse_cell("not json at all", "key-a").is_none());
        assert!(parse_cell(&json[..json.len() / 2], "key-a").is_none());
    }

    #[test]
    fn cell_paths_are_stable_and_distinct() {
        let dir = Path::new("/tmp/cache");
        let a = cell_path(dir, &cell_key(&spec()));
        assert_eq!(a, cell_path(dir, &cell_key(&spec())));
        let mut other = spec();
        other.k = 4;
        assert_ne!(a, cell_path(dir, &cell_key(&other)));
        assert!(a
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("cell-"));
    }

    #[test]
    fn control_characters_roundtrip() {
        let cell = Cell {
            dataset: "tab\there\rcr\u{1}".into(),
            strategy: "back\\slash".into(),
            mean_accuracy: 0.25,
            std_accuracy: 0.0,
        };
        let parsed = parse_cell(&render_cell("k\n", &cell), "k\n").unwrap();
        assert_eq!(parsed, cell);
        assert_eq!(SweepStats { hits: 2, misses: 3 }.total(), 5);
    }

    #[test]
    fn file_names_use_the_standard_fnv1a_hash() {
        // Published FNV-1a 64-bit test vectors: file names stay stable across
        // builds, so an existing cache directory keeps hitting.
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            cell_path(Path::new("d"), "a"),
            Path::new("d").join("cell-af63dc4c8601ec8c.json")
        );
    }
}
