//! Weight bit-error (fault) injection.
//!
//! The reason the paper can drop error-correcting codes (§II-B) is that
//! BNN accuracy degrades gracefully under rare weight bit flips once 2T2R
//! sensing has pushed the BER down. This module injects i.i.d. bit flips at
//! a chosen BER into packed weight matrices or whole deployed networks so
//! the accuracy-vs-BER relation can be swept (the `ext_ber_accuracy`
//! extension experiment, after refs \[15\], \[16\]).

use rand::Rng;

use rbnn_binary::BinaryNetwork;
use rbnn_tensor::BitMatrix;

/// Flips each bit of `matrix` independently with probability `ber`;
/// returns the number of flips.
///
/// # Panics
///
/// Panics unless `0 ≤ ber ≤ 1`.
pub fn inject_matrix(matrix: &mut BitMatrix, ber: f64, rng: &mut impl Rng) -> usize {
    assert!(
        (0.0..=1.0).contains(&ber),
        "BER must be a probability, got {ber}"
    );
    if ber == 0.0 {
        return 0;
    }
    let mut flips = 0;
    for r in 0..matrix.rows() {
        for c in 0..matrix.cols() {
            if rng.gen::<f64>() < ber {
                matrix.flip(r, c);
                flips += 1;
            }
        }
    }
    flips
}

/// Flips each stored weight bit of a deployed [`BinaryNetwork`]
/// independently with probability `ber`; returns the total number of flips.
///
/// # Panics
///
/// Panics unless `0 ≤ ber ≤ 1`.
pub fn inject_network(network: &mut BinaryNetwork, ber: f64, rng: &mut impl Rng) -> usize {
    let mut flips = 0;
    for layer in network.layers_mut() {
        flips += inject_matrix(layer.weights_mut(), ber, rng);
    }
    flips
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rbnn_binary::BinaryDense;

    #[test]
    fn zero_ber_flips_nothing() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = BitMatrix::zeros(16, 16);
        assert_eq!(inject_matrix(&mut m, 0.0, &mut rng), 0);
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    fn flip_count_tracks_ber() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = BitMatrix::zeros(100, 100);
        let flips = inject_matrix(&mut m, 0.05, &mut rng);
        // E = 500, σ ≈ 22.
        assert!((380..=620).contains(&flips), "flips {flips}");
        assert_eq!(
            m.count_ones() as usize,
            flips,
            "every flip must set a bit from zero"
        );
    }

    #[test]
    fn full_ber_flips_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = BitMatrix::zeros(8, 8);
        assert_eq!(inject_matrix(&mut m, 1.0, &mut rng), 64);
        assert_eq!(m.count_ones(), 64);
    }

    #[test]
    fn network_injection_touches_all_layers() {
        let mut rng = StdRng::seed_from_u64(3);
        let l1 = BinaryDense::new(BitMatrix::zeros(8, 16), vec![1.0; 8], vec![0.0; 8]);
        let l2 = BinaryDense::new(BitMatrix::zeros(2, 8), vec![1.0; 2], vec![0.0; 2]);
        let mut net = BinaryNetwork::new(vec![l1, l2]);
        let flips = inject_network(&mut net, 1.0, &mut rng);
        assert_eq!(flips, 8 * 16 + 2 * 8);
    }

    #[test]
    fn same_seed_produces_identical_flip_set() {
        // Seeded reproducibility is what makes fault campaigns auditable:
        // the same seed must flip exactly the same cells, across both odd
        // and word-aligned geometries.
        for (rows, cols) in [(37usize, 65usize), (64, 64), (5, 193)] {
            let run = |seed: u64| {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut m = BitMatrix::zeros(rows, cols);
                let flips = inject_matrix(&mut m, 0.03, &mut rng);
                (flips, m)
            };
            let (flips_a, a) = run(7);
            let (flips_b, b) = run(7);
            assert_eq!(flips_a, flips_b);
            assert_eq!(a, b, "flip sets diverge for identical seeds");
            // A different seed draws a different flip pattern (flip
            // *count* may collide; the set essentially cannot).
            let (_, c) = run(8);
            assert_ne!(a, c, "distinct seeds should flip distinct cells");
        }
    }

    #[test]
    fn flip_count_stays_within_binomial_bounds() {
        // Flips are i.i.d. Bernoulli per bit, so across many seeds the
        // count must track Binomial(n, ber): every draw within ±5σ of the
        // mean (a ~1e-6-level bound), and the empirical mean within 3
        // standard errors.
        let (rows, cols, ber) = (64usize, 129usize, 0.02f64);
        let n = (rows * cols) as f64;
        let mean = n * ber;
        let sigma = (n * ber * (1.0 - ber)).sqrt();
        let draws = 40;
        let mut total = 0f64;
        for seed in 0..draws {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let mut m = BitMatrix::zeros(rows, cols);
            let flips = inject_matrix(&mut m, ber, &mut rng) as f64;
            assert_eq!(
                m.count_ones() as usize,
                flips as usize,
                "each flip must toggle a distinct zero bit"
            );
            assert!(
                (flips - mean).abs() <= 5.0 * sigma,
                "seed {seed}: {flips} flips vs Binomial({n}, {ber}) mean {mean:.1} σ {sigma:.1}"
            );
            total += flips;
        }
        let empirical_mean = total / draws as f64;
        let se = sigma / (draws as f64).sqrt();
        assert!(
            (empirical_mean - mean).abs() <= 3.0 * se,
            "empirical mean {empirical_mean:.1} vs {mean:.1} (se {se:.2})"
        );
    }

    #[test]
    #[should_panic(expected = "BER must be a probability")]
    fn invalid_ber_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = BitMatrix::zeros(2, 2);
        let _ = inject_matrix(&mut m, 1.5, &mut rng);
    }
}
