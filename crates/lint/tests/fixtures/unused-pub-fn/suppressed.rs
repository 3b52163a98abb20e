// Fixture: a kept test oracle carries an allow; a stale allow is an error.
/// The reference form the fast path is pinned against.
// c4u-lint: allow(unused-pub-fn, reason = "test oracle the unit tests pin the fast path against")
pub fn oracle() -> u8 {
    1
}

// c4u-lint: allow(unused-pub-fn, reason = "stale: `fast` has a caller below")
pub fn fast() -> u8 {
    1
}

fn caller() -> u8 {
    fast()
}
