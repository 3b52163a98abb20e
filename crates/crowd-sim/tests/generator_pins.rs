//! Pins the worker pools `generate` draws for every paper preset and every
//! robustness scenario.
//!
//! Each pool is reduced to one FNV-1a hash over every worker spec's f64 bits
//! and counts: latent prior accuracies, observed profile accuracies (a gap
//! hashes as its own tag), profile task counts, initial target accuracy and
//! learning aptitude. Any change to the generator's draws, or to their order,
//! moves a hash and fails here loudly, before it reaches a selection pin.

use c4u_crowd_sim::{generate, DatasetConfig, WorkerSpec};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn float(&mut self, value: f64) {
        self.word(value.to_bits());
    }
}

fn pool_hash(workers: &[WorkerSpec]) -> u64 {
    let mut h = Fnv::new();
    h.word(workers.len() as u64);
    for w in workers {
        h.word(w.latent_prior_accuracies.len() as u64);
        for &a in &w.latent_prior_accuracies {
            h.float(a);
        }
        h.word(w.profile.num_domains() as u64);
        for d in 0..w.profile.num_domains() {
            match w.profile.accuracy(d) {
                Some(a) => h.float(a),
                None => h.word(u64::MAX),
            }
            h.word(w.profile.task_count(d) as u64);
        }
        h.float(w.initial_target_accuracy);
        h.float(w.learning_aptitude);
    }
    h.0
}

#[test]
fn generated_pools_match_their_pins() {
    // Drift and churn act on the platform and the schedule, never on the
    // generated pool, so they share RW-1's hash.
    let pins: [(&str, u64); 11] = [
        ("RW-1", 0xfe77_6244_8b03_218e),
        ("RW-2", 0xdbdc_9599_49ac_6a70),
        ("S-1", 0x5396_2821_4ec7_04ea),
        ("S-2", 0x95a3_fb48_cb6b_5e2b),
        ("S-3", 0xdcca_f34a_9cd3_a660),
        ("S-4", 0x81fb_60cf_2efe_5366),
        ("RW-1", 0xfe77_6244_8b03_218e),
        ("RW-1-spam", 0xbe75_dc95_df4a_f902),
        ("RW-1-collude", 0xd4f5_5838_3c23_5774),
        ("RW-1-drift", 0xfe77_6244_8b03_218e),
        ("RW-1-churn", 0xfe77_6244_8b03_218e),
    ];
    let configs = DatasetConfig::all_paper_datasets()
        .into_iter()
        .chain(DatasetConfig::robustness_scenarios());
    let got: Vec<(String, u64)> = configs
        .map(|config| {
            let dataset = generate(&config).unwrap();
            (config.name, pool_hash(&dataset.workers))
        })
        .collect();
    let want: Vec<(String, u64)> = pins.iter().map(|&(n, h)| (n.to_string(), h)).collect();
    assert_eq!(got, want);
}
