//! The single registry of every `C4U_*` environment knob the workspace
//! honours, plus the typed parser that replaces the per-crate ad-hoc
//! `std::env::var(..).parse()` chains.
//!
//! Three things live here:
//!
//! * **The registry** ([`KNOBS`]): one [`Knob`] row per variable — name,
//!   [`KnobKind`], rendered default, and a one-line effect.
//!   [`render_knob_table`] turns it into the Markdown table README embeds, so
//!   docs and parser cannot drift apart.
//! * **The typed snapshot** ([`C4uEnv::from_env`]): one call reads every
//!   registered knob into a plain struct. Callers keep their own defaults
//!   where the default depends on crate-local context; everything else
//!   defaults here, once.
//! * **The unknown-name warning**: the first [`C4uEnv::from_env`] of a
//!   process scans the environment for `C4U_*` names that are *not* in the
//!   registry and prints one `warning:` line each to stderr — a misspelled
//!   `C4U_TRAILS=8` fails loudly instead of silently benchmarking the
//!   default. The pure core is [`unknown_names`], so the policy is testable
//!   without touching the process environment.
//!
//! Parsing stays deliberately forgiving — unset, empty, or unparsable values
//! fall back to the default, exactly like the scattered readers this module
//! replaced — because a bench smoke run must never abort over a stray knob.
//! Only *unknown names* warn; known names with odd values keep the documented
//! fallback semantics.

use std::sync::OnceLock;

/// The canonical names of every registered knob, so call sites never embed a
/// string literal that can drift from the registry.
pub mod names {
    /// Gradient-descent epochs per CPE round.
    pub const CPE_EPOCHS: &str = "C4U_CPE_EPOCHS";
    /// Answering-noise seeds averaged per experiment cell.
    pub const TRIALS: &str = "C4U_TRIALS";
    /// Quadrature sweep math mode (`exact`, `fast_vector`, `both`).
    pub const QUAD_MATH: &str = "C4U_QUAD_MATH";
    /// Mask-group sizes swept by the `quadrature` roofline bench.
    pub const QUAD_WORKERS: &str = "C4U_QUAD_WORKERS";
    /// Gauss–Legendre orders swept by the `quadrature` roofline bench.
    pub const QUAD_NODES: &str = "C4U_QUAD_NODES";
    /// Timing samples per `quadrature` bench cell.
    pub const QUAD_SAMPLES: &str = "C4U_QUAD_SAMPLES";
    /// Workspace root override for `c4u-lint` (which stays dependency-free
    /// and reads this itself; registered here so the table documents it and
    /// the unknown-name scan accepts it).
    pub const LINT_ROOT: &str = "C4U_LINT_ROOT";
}

/// Default CPE epochs per round for the bench harness (the paper uses 50).
pub const DEFAULT_CPE_EPOCHS: usize = 10;
/// Default answering-noise seeds averaged per experiment cell.
pub const DEFAULT_TRIALS: usize = 2;
/// Default timing samples per quadrature bench cell.
pub const DEFAULT_QUAD_SAMPLES: usize = 7;
/// Default mask-group sizes of the quadrature roofline sweep.
pub const DEFAULT_QUAD_WORKERS: &[usize] = &[1_000, 10_000, 100_000, 1_000_000];
/// Default Gauss–Legendre orders of the quadrature roofline sweep.
pub const DEFAULT_QUAD_NODES: &[usize] = &[16, 32, 64];

/// The value shape of a knob, shown in the rendered table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobKind {
    /// A positive integer; non-positive or unparsable values keep the default.
    Count,
    /// A comma-separated list of positive integers.
    CountList,
    /// A filesystem path.
    Path,
    /// One of a small closed set of mode words.
    Mode,
}

impl KnobKind {
    /// Short lower-case label used in the rendered table.
    pub fn label(self) -> &'static str {
        match self {
            KnobKind::Count => "count",
            KnobKind::CountList => "count list",
            KnobKind::Path => "path",
            KnobKind::Mode => "mode",
        }
    }
}

/// One registered environment knob.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Variable name (always `C4U_*`).
    pub name: &'static str,
    /// Value shape.
    pub kind: KnobKind,
    /// Rendered default, as shown in the knob table.
    pub default: &'static str,
    /// One-line effect.
    pub doc: &'static str,
}

/// Every `C4U_*` knob the workspace honours, in table order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: names::CPE_EPOCHS,
        kind: KnobKind::Count,
        default: "10",
        doc: "Cap on the EM epochs per CPE round (the paper's G is 50).",
    },
    Knob {
        name: names::TRIALS,
        kind: KnobKind::Count,
        default: "2",
        doc: "Answering-noise seeds averaged per experiment cell.",
    },
    Knob {
        name: names::QUAD_MATH,
        kind: KnobKind::Mode,
        default: "fast_vector (tables) / both (roofline bench)",
        doc: "Quadrature sweep math: `exact`, `fast_vector`, or `both`.",
    },
    Knob {
        name: names::QUAD_WORKERS,
        kind: KnobKind::CountList,
        default: "1000,10000,100000,1000000",
        doc: "Mask-group sizes swept by the quadrature roofline bench.",
    },
    Knob {
        name: names::QUAD_NODES,
        kind: KnobKind::CountList,
        default: "16,32,64",
        doc: "Gauss-Legendre orders swept by the quadrature roofline bench.",
    },
    Knob {
        name: names::QUAD_SAMPLES,
        kind: KnobKind::Count,
        default: "7",
        doc: "Timing samples per quadrature cell (the median is reported).",
    },
    Knob {
        name: names::LINT_ROOT,
        kind: KnobKind::Path,
        default: "auto-discovered workspace root",
        doc: "Workspace root override for c4u-lint.",
    },
];

/// Looks a knob up by name.
pub fn knob(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// `true` when `name` is a registered knob.
pub fn is_registered(name: &str) -> bool {
    knob(name).is_some()
}

/// Renders the registry as the Markdown table README embeds.
// c4u-lint: allow(unused-pub-fn, reason = "README's knob table is its output; a unit test holds the two equal")
pub fn render_knob_table() -> String {
    let mut out = String::from("| Variable | Kind | Default | Effect |\n|---|---|---|---|\n");
    for k in KNOBS {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            k.name,
            k.kind.label(),
            k.default,
            k.doc
        ));
    }
    out
}

/// The `C4U_*` names in `candidates` that are **not** registered knobs,
/// sorted and deduplicated. Pure core of the unknown-name warning.
pub fn unknown_names<I, S>(candidates: I) -> Vec<String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut out: Vec<String> = candidates
        .into_iter()
        .filter(|n| n.as_ref().starts_with("C4U_") && !is_registered(n.as_ref()))
        .map(|n| n.as_ref().to_string())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Scans the process environment for unregistered `C4U_*` names (sorted).
pub fn unknown_in_process_env() -> Vec<String> {
    unknown_names(std::env::vars_os().map(|(name, _)| name.to_string_lossy().into_owned()))
}

/// Prints one `warning:` line per unregistered `C4U_*` variable to stderr —
/// once per process, no matter how many snapshots are taken — and returns the
/// offending names.
pub fn warn_unknown() -> Vec<String> {
    static WARNED: OnceLock<Vec<String>> = OnceLock::new();
    WARNED
        .get_or_init(|| {
            let unknown = unknown_in_process_env();
            for name in &unknown {
                eprintln!(
                    "warning: unknown environment variable `{name}` (not a registered C4U_* \
                     knob; see the knob table in README.md or c4u_bench::env::render_knob_table())"
                );
            }
            unknown
        })
        .clone()
}

/// The quadrature math-mode knob. `Default` covers unset *and* unrecognised
/// words; callers pick what that means (the table benches read it as `exact`,
/// the roofline bench as `both`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuadMathKnob {
    /// Unset or unrecognised: the call site's documented default applies.
    Default,
    /// Force the sweep that is bit-identical to the scalar oracle.
    Exact,
    /// Force the worker-major polynomial-`exp` sweep.
    FastVector,
    /// Time both modes side by side (only the roofline bench distinguishes).
    Both,
}

impl QuadMathKnob {
    pub(crate) fn parse(raw: Option<&str>) -> Self {
        match raw {
            Some("exact") => QuadMathKnob::Exact,
            Some("fast_vector") => QuadMathKnob::FastVector,
            Some("both") => QuadMathKnob::Both,
            _ => QuadMathKnob::Default,
        }
    }
}

/// Parses a positive integer; unset, unparsable, or non-positive keeps the
/// default.
pub(crate) fn parse_count(raw: Option<&str>, default: usize) -> usize {
    raw.and_then(|v| v.trim().parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Parses a comma-separated list of positive integers; unparsable or
/// non-positive entries are dropped, and a list left empty (unset, empty, or
/// no valid entry) keeps the default.
pub(crate) fn parse_count_list(raw: Option<&str>, default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> = raw
        .unwrap_or_default()
        .split(',')
        .filter_map(|item| item.trim().parse().ok())
        .filter(|&item| item > 0)
        .collect();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
    }
}

fn var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// One typed snapshot of every registered knob.
///
/// [`C4uEnv::from_env`] is the workspace's single environment entry point:
/// every field holds the parsed value (or this module's default).
#[derive(Debug, Clone, PartialEq)]
pub struct C4uEnv {
    /// `C4U_CPE_EPOCHS` — cap on the CPE EM epochs per round.
    pub cpe_epochs: usize,
    /// `C4U_TRIALS` — answering-noise seeds averaged per cell.
    pub trials: usize,
    /// `C4U_QUAD_MATH` — the quadrature sweep math mode.
    pub quad_math: QuadMathKnob,
    /// `C4U_QUAD_WORKERS` — quadrature-bench mask-group sizes.
    pub quad_workers: Vec<usize>,
    /// `C4U_QUAD_NODES` — quadrature-bench Gauss–Legendre orders.
    pub quad_nodes: Vec<usize>,
    /// `C4U_QUAD_SAMPLES` — timing samples per quadrature cell.
    pub quad_samples: usize,
}

impl C4uEnv {
    /// Reads every registered knob from the process environment. The first
    /// call of a process also warns (stderr) about unregistered `C4U_*`
    /// names — see [`warn_unknown`].
    pub fn from_env() -> Self {
        warn_unknown();
        Self {
            cpe_epochs: parse_count(var(names::CPE_EPOCHS).as_deref(), DEFAULT_CPE_EPOCHS),
            trials: parse_count(var(names::TRIALS).as_deref(), DEFAULT_TRIALS),
            quad_math: QuadMathKnob::parse(var(names::QUAD_MATH).as_deref()),
            quad_workers: parse_count_list(
                var(names::QUAD_WORKERS).as_deref(),
                DEFAULT_QUAD_WORKERS,
            ),
            quad_nodes: parse_count_list(var(names::QUAD_NODES).as_deref(), DEFAULT_QUAD_NODES),
            quad_samples: parse_count(var(names::QUAD_SAMPLES).as_deref(), DEFAULT_QUAD_SAMPLES),
        }
    }
}
