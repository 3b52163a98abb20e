//! A member's sweep result does not depend on the batch it is swept in.
//!
//! The `FastVector` sweep runs worker-major over eight-member chunks and pads
//! a partial chunk, so a member can land in any lane of a full chunk, of a
//! padded tail or of a batch shorter than one chunk. Its `(log Z, E[h],
//! E[(h − mu)²])` must carry the same bits in each case as when it is swept
//! alone; the `Exact` sweep, which runs member by member, is held to the same
//! contract. The probes include the hard cells (boundary peaks, counts that
//! underflow the normaliser, a `NaN` mean, a sub-floor sigma) so that a
//! member whose lane falls back cannot disturb its neighbours.

use c4u_stats::{BinomialNormalBatch, BinomialNormalMoments, GaussLegendre, QuadratureMath};

const SIGMAS: [f64; 3] = [0.0, 0.02, 0.12];

/// Probe cells `(mu, c, x)`.
const PROBES: [(f64, f64, f64); 9] = [
    (0.55, 7.0, 3.0),
    (0.8, 0.0, 0.0),
    (0.2, 140.0, 2.0),
    (-0.5, 5.0, 5.0),
    (0.99, 100_000.0, 0.0),
    (0.01, 0.0, 100_000.0),
    (0.5, 500_000.0, 500_000.0),
    (f64::NAN, 4.0, 1.0),
    (1.3, 12.0, 30.0),
];

/// A well-scaled neighbour cell, distinct per index.
fn filler(i: usize) -> (f64, f64, f64) {
    (
        0.05 + 0.9 * ((i * 37) % 101) as f64 / 100.0,
        ((i * 7) % 23) as f64,
        ((i * 11) % 19) as f64,
    )
}

fn sweep(
    batch: &BinomialNormalBatch,
    sigma: f64,
    cells: &[(f64, f64, f64)],
) -> Vec<BinomialNormalMoments> {
    let mu: Vec<f64> = cells.iter().map(|c| c.0).collect();
    let c: Vec<f64> = cells.iter().map(|c| c.1).collect();
    let x: Vec<f64> = cells.iter().map(|c| c.2).collect();
    let mut out = vec![BinomialNormalMoments::default(); cells.len()];
    batch.moments(sigma, &mu, &c, &x, &mut out);
    out
}

fn bits(m: &BinomialNormalMoments) -> [u64; 3] {
    [m.log_z.to_bits(), m.mean.to_bits(), m.second.to_bits()]
}

fn batches() -> Vec<BinomialNormalBatch> {
    let quadrature = GaussLegendre::new(32);
    [QuadratureMath::FastVector, QuadratureMath::Exact]
        .map(|math| BinomialNormalBatch::new_with_math(&quadrature, math))
        .into()
}

#[test]
fn every_position_of_blocks_of_one_to_seventeen_matches_the_lone_sweep() {
    for batch in batches() {
        for sigma in SIGMAS {
            for probe in PROBES {
                let alone = bits(&sweep(&batch, sigma, &[probe])[0]);
                for len in 1..=17 {
                    for position in 0..len {
                        let mut cells: Vec<_> = (0..len).map(filler).collect();
                        cells[position] = probe;
                        let out = sweep(&batch, sigma, &cells);
                        assert_eq!(
                            bits(&out[position]),
                            alone,
                            "{:?} sigma {sigma} probe {probe:?}: position {position} of {len}",
                            batch.math()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_position_of_a_full_block_matches_the_lone_sweep() {
    for batch in batches() {
        for sigma in SIGMAS {
            // 1024 members, the E-step's block size: the probes repeat at
            // every lane offset between the fillers.
            let cells: Vec<_> = (0..1024)
                .map(|i| {
                    if i % 5 == 0 {
                        PROBES[(i / 5) % PROBES.len()]
                    } else {
                        filler(i)
                    }
                })
                .collect();
            let out = sweep(&batch, sigma, &cells);
            for (position, (cell, out)) in cells.iter().zip(&out).enumerate() {
                assert_eq!(
                    bits(out),
                    bits(&sweep(&batch, sigma, &[*cell])[0]),
                    "{:?} sigma {sigma}: position {position} ({cell:?})",
                    batch.math()
                );
            }
        }
    }
}
