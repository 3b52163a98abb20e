// Fixture: scalar libm outside the region, vectorised math inside it.
fn log_prior(p: f64) -> f64 {
    p.ln()
}

// c4u-lint: hot-path
fn fold(buf: &[f64]) -> f64 {
    buf.iter().map(|&x| vexp_scalar(x)).sum()
}
// c4u-lint: end-hot-path
