// Fixture: library `pub fn`s that no non-test code calls.
/// Only the `#[cfg(test)]` module below calls it.
pub fn only_tested() -> u8 {
    1
}

mod inner {
    /// Only the `pub use` below names it.
    pub fn only_reexported() {}
}
pub use inner::only_reexported;

#[cfg(test)]
mod tests {
    #[test]
    fn calls_it() {
        assert_eq!(super::only_tested(), 1);
    }
}
