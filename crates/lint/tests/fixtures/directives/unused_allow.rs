// Fixture: an `allow` that suppresses no finding is a directive error.
// c4u-lint: allow(no-wallclock, reason = "nothing here reads the clock")
fn a() {}
fn b() {
    // c4u-lint: allow(no-wallclock, reason = "the next line reads the clock")
    let _t = std::time::Instant::now();
}
// c4u-lint: allow(no-unwrap-in-lib, reason = "the rule does not cover this crate")
fn c() -> u8 { Some(1).unwrap() }
