// Fixture: every library `pub fn` has a caller outside test code.
pub trait Stage {
    fn name(&self) -> &str;
}

pub struct Cpe;

impl Stage for Cpe {
    fn name(&self) -> &str {
        "cpe"
    }
}

/// Reaches the trait method through `dyn Stage`; the method itself is not a
/// `pub fn` item, and this function has a caller below.
pub fn stage_names(stages: &[&dyn Stage]) -> Vec<String> {
    stages.iter().map(|s| s.name().to_string()).collect()
}

/// `pub(crate)` items are left to rustc's `dead_code` lint.
pub(crate) fn crate_only() {}

fn report() -> usize {
    stage_names(&[&Cpe]).len()
}
