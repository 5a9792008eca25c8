//! False discovery rate computation (Section IV-B, after Han et al.).
//!
//! Given an observed histogram (`M` bins) and `B` simulation datasets:
//!
//! ```text
//! p_i      = Σ_b  I(r_i ≤ r*_ib)                      (Eq. 4)
//! d_b      = Σ_i  I( Σ_b' I(r*_ib ≤ r*_ib') ≤ p_t )   (Eq. 5)
//! FDR(p_t) = (B⁻¹ Σ_b d_b) / Σ_i I(p_i ≤ p_t)         (Eq. 6)
//! ```
//!
//! Three implementations:
//! * [`fdr_direct`] — the literal two-quantity formulation;
//! * [`fdr_fused`] — the paper's *summation permutation* (Eq. 7–9): both
//!   numerator and denominator accumulate in a single pass over bins;
//! * [`fdr_parallel`] — Algorithm 2: bin-direction partitioning, fused
//!   local sums, one global reduction. A two-phase variant
//!   ([`fdr_parallel_two_phase`]) keeps the numerator and denominator
//!   reductions separate (two barriers) for the ablation the paper's
//!   Figure 12 commentary alludes to.
//!
//! [`fdr_simulated`] and [`fdr_simulated_two_phase`] run the same
//! per-rank sums under [`run_ranks_alone`] for the simulated-cluster
//! figures (DESIGN.md §4b).
//!
//! Complexity Θ(M·B²).

use std::ops::Range;
use std::time::Instant;

use ngs_cluster::{run_ranks, run_ranks_alone, SimTiming};

use crate::rank_bins;

/// The FDR inputs: one observed series and `B` simulated series, all of
/// equal length `M`.
#[derive(Debug, Clone)]
pub struct FdrInput {
    /// Observed reads per bin (`r_i`).
    pub observed: Vec<f64>,
    /// Simulated reads per bin per simulation (`r*_ib`), indexed
    /// `simulations[b][i]`.
    pub simulations: Vec<Vec<f64>>,
}

impl FdrInput {
    /// Validates shape and wraps the inputs.
    pub fn new(observed: Vec<f64>, simulations: Vec<Vec<f64>>) -> Self {
        for (b, s) in simulations.iter().enumerate() {
            assert_eq!(s.len(), observed.len(), "simulation {b} length mismatch");
        }
        FdrInput { observed, simulations }
    }

    /// Number of bins `M`.
    pub fn bins(&self) -> usize {
        self.observed.len()
    }

    /// Number of simulations `B`.
    pub fn rounds(&self) -> usize {
        self.simulations.len()
    }
}

/// The literal Eq. 4–6 evaluation (reference implementation).
pub fn fdr_direct(input: &FdrInput, p_t: f64) -> f64 {
    let m = input.bins();
    let b_count = input.rounds();
    assert!(b_count > 0 && m > 0);

    // Eq. 4: p_i per bin.
    let p: Vec<u64> = (0..m)
        .map(|i| {
            input
                .simulations
                .iter()
                .filter(|sim| input.observed[i] <= sim[i])
                .count() as u64
        })
        .collect();

    // Eq. 5: d_b per simulation round.
    let mut d_total = 0u64;
    for b in 0..b_count {
        let mut d_b = 0u64;
        for i in 0..m {
            let rank_count = input
                .simulations
                .iter()
                .filter(|other| input.simulations[b][i] <= other[i])
                .count() as f64;
            if rank_count <= p_t {
                d_b += 1;
            }
        }
        d_total += d_b;
    }

    // Eq. 6.
    let numerator = d_total as f64 / b_count as f64;
    let denominator = p.iter().filter(|&&pi| pi as f64 <= p_t).count() as f64;
    if denominator == 0.0 {
        f64::INFINITY
    } else {
        numerator / denominator
    }
}

/// `sum◇_i` of Eq. 7: for every simulation b, rank r*_ib among {r*_ib'}.
#[inline]
fn bin_diamond(input: &FdrInput, i: usize, p_t: f64) -> u64 {
    let sims = &input.simulations;
    sims.iter()
        .filter(|b| sims.iter().filter(|other| b[i] <= other[i]).count() as f64 <= p_t)
        .count() as u64
}

/// `sum*_i` of Eq. 8: the indicator on p_i.
#[inline]
fn bin_star(input: &FdrInput, i: usize, p_t: f64) -> u64 {
    let p_i = input.simulations.iter().filter(|sim| input.observed[i] <= sim[i]).count() as f64;
    u64::from(p_i <= p_t)
}

/// One rank's fused partial sums `(Σ sum◇_i, Σ sum*_i)` over `bins`, in
/// a single pass (the summation permutation).
fn fused_sums(input: &FdrInput, bins: Range<usize>, p_t: f64) -> (u64, u64) {
    let mut diamond = 0u64;
    let mut star = 0u64;
    for i in bins {
        diamond += bin_diamond(input, i, p_t);
        star += bin_star(input, i, p_t);
    }
    (diamond, star)
}

/// Phase 1 of the two-phase ablation: `Σ sum◇_i` over `bins`.
fn diamond_sum(input: &FdrInput, bins: Range<usize>, p_t: f64) -> u64 {
    bins.map(|i| bin_diamond(input, i, p_t)).sum()
}

/// Phase 2 of the two-phase ablation: `Σ sum*_i` over `bins`.
fn star_sum(input: &FdrInput, bins: Range<usize>, p_t: f64) -> u64 {
    bins.map(|i| bin_star(input, i, p_t)).sum()
}

/// The paper's fused single-pass formulation (Eq. 9), sequential.
pub fn fdr_fused(input: &FdrInput, p_t: f64) -> f64 {
    assert!(input.rounds() > 0 && input.bins() > 0);
    let (diamond, star) = fused_sums(input, 0..input.bins(), p_t);
    finish(diamond, star, input.rounds())
}

#[inline]
fn finish(diamond: u64, star: u64, b_count: usize) -> f64 {
    if star == 0 {
        f64::INFINITY
    } else {
        diamond as f64 / (b_count as f64 * star as f64)
    }
}

/// Algorithm 2: bin-direction partitioning; each rank computes fused
/// local sums; a single gather at the master computes both global sums at
/// once (one synchronization), and the result is broadcast back.
pub fn fdr_parallel(input: &FdrInput, p_t: f64, ranks: usize) -> f64 {
    const TAG_SUMS: u64 = 0x21;
    const TAG_RESULT: u64 = 0x22;
    assert!(ranks > 0 && input.rounds() > 0 && input.bins() > 0);
    let m = input.bins();
    let b_count = input.rounds();

    let results = run_ranks(ranks, |comm| {
        // Lines 1–3: even bin-direction partitioning; local sums, fused
        // in one pass.
        let (diamond, star) = fused_sums(input, rank_bins(comm.rank(), ranks, m), p_t);

        // Line 4: global barrier.
        comm.barrier();

        // Lines 5–8: one combined reduction at the master (both sums in a
        // single message — the optimization that removes a second
        // synchronization).
        let mut payload = Vec::with_capacity(16);
        payload.extend_from_slice(&diamond.to_le_bytes());
        payload.extend_from_slice(&star.to_le_bytes());
        let gathered = comm.gather(TAG_SUMS, payload);
        if let Some(all) = gathered {
            let mut total_d = 0u64;
            let mut total_s = 0u64;
            for msg in all {
                total_d += u64::from_le_bytes(msg[0..8].try_into().expect("u64"));
                total_s += u64::from_le_bytes(msg[8..16].try_into().expect("u64"));
            }
            let fdr = finish(total_d, total_s, b_count);
            comm.broadcast(TAG_RESULT, fdr.to_le_bytes().to_vec());
            fdr
        } else {
            let bytes = comm.broadcast(TAG_RESULT, Vec::new());
            f64::from_le_bytes(bytes[0..8].try_into().expect("f64"))
        }
    });
    results[0]
}

/// The unfused ablation: numerator and denominator are reduced in two
/// separate steps with an extra global synchronization between them —
/// what Algorithm 2's summation permutation avoids.
pub fn fdr_parallel_two_phase(input: &FdrInput, p_t: f64, ranks: usize) -> f64 {
    assert!(ranks > 0 && input.rounds() > 0 && input.bins() > 0);
    let m = input.bins();
    let b_count = input.rounds();

    let results = run_ranks(ranks, |comm| {
        let bins = rank_bins(comm.rank(), ranks, m);

        // Phase 1: numerator only.
        let diamond = diamond_sum(input, bins.clone(), p_t);
        comm.barrier();
        let total_d = comm.all_reduce_sum_u64(0x31, diamond);

        // Phase 2: denominator only (second sweep + second reduction).
        let star = star_sum(input, bins, p_t);
        comm.barrier();
        let total_s = comm.all_reduce_sum_u64(0x32, star);

        finish(total_d, total_s, b_count)
    });
    results[0]
}

/// Simulated-cluster Algorithm 2: each rank's fused sums run alone and
/// are timed; the single reduction is the serial time. Same result as
/// [`fdr_parallel`].
pub fn fdr_simulated(input: &FdrInput, p_t: f64, ranks: usize) -> (f64, SimTiming) {
    assert!(ranks > 0);
    let m = input.bins();
    reduce_timed(
        input,
        run_ranks_alone(ranks, |rank| fused_sums(input, rank_bins(rank, ranks, m), p_t)),
    )
}

/// Simulated-cluster two-phase FDR for the Figure 12 ablation: each rank
/// runs both sweeps alone; the reductions are the serial time. Same
/// result as [`fdr_parallel_two_phase`].
pub fn fdr_simulated_two_phase(input: &FdrInput, p_t: f64, ranks: usize) -> (f64, SimTiming) {
    assert!(ranks > 0);
    let m = input.bins();
    reduce_timed(
        input,
        run_ranks_alone(ranks, |rank| {
            let bins = rank_bins(rank, ranks, m);
            (diamond_sum(input, bins.clone(), p_t), star_sum(input, bins, p_t))
        }),
    )
}

/// The simulated runs' reduction: sums the per-rank `(◇, *)` partials
/// and records the time it takes as the run's serial time.
fn reduce_timed(
    input: &FdrInput,
    (partials, mut timing): (Vec<(u64, u64)>, SimTiming),
) -> (f64, SimTiming) {
    let t = Instant::now();
    let diamond = partials.iter().map(|p| p.0).sum();
    let star = partials.iter().map(|p| p.1).sum();
    let fdr = finish(diamond, star, input.rounds());
    timing.serial_time = t.elapsed();
    (fdr, timing)
}

/// Sweeps thresholds, returning `(p_t, FDR(p_t))` pairs — the curve used
/// to pick a region-selection threshold.
pub fn fdr_curve(input: &FdrInput, thresholds: &[f64], ranks: usize) -> Vec<(f64, f64)> {
    thresholds.iter().map(|&t| (t, fdr_parallel(input, t, ranks))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ngs_simgen::Rng;

    fn random_input(m: usize, b: usize, seed: u64) -> FdrInput {
        let mut rng = Rng::seed_from_u64(seed);
        let observed: Vec<f64> = (0..m)
            .map(|i| {
                // A few enriched bins stand out above the noise.
                if i % 37 == 0 {
                    40.0 + rng.poisson(20.0) as f64
                } else {
                    rng.poisson(8.0) as f64
                }
            })
            .collect();
        let mean = observed.iter().sum::<f64>() / m as f64;
        let simulations: Vec<Vec<f64>> = (0..b)
            .map(|_| (0..m).map(|_| rng.poisson(mean) as f64).collect())
            .collect();
        FdrInput::new(observed, simulations)
    }

    #[test]
    fn fused_equals_direct() {
        let input = random_input(300, 12, 1);
        for p_t in [0.0, 1.0, 3.0, 6.0, 12.0] {
            let a = fdr_direct(&input, p_t);
            let b = fdr_fused(&input, p_t);
            if a.is_infinite() {
                assert!(b.is_infinite(), "p_t {p_t}");
            } else {
                assert!((a - b).abs() < 1e-12, "p_t {p_t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn parallel_equals_fused() {
        let input = random_input(257, 10, 2);
        for ranks in [1, 2, 4, 8, 16] {
            for p_t in [1.0, 4.0] {
                let seq = fdr_fused(&input, p_t);
                let par = fdr_parallel(&input, p_t, ranks);
                let two = fdr_parallel_two_phase(&input, p_t, ranks);
                assert_eq!(seq.to_bits(), par.to_bits(), "ranks {ranks}, p_t {p_t}");
                assert_eq!(seq.to_bits(), two.to_bits(), "two-phase ranks {ranks}");
            }
        }
    }

    #[test]
    fn enriched_bins_lower_fdr_at_strict_threshold() {
        let input = random_input(1000, 20, 3);
        // Strict threshold (few simulations above observed) vs loose.
        let strict = fdr_fused(&input, 1.0);
        let loose = fdr_fused(&input, 15.0);
        assert!(strict.is_finite());
        assert!(strict <= loose * 1.5 + 1.0, "strict {strict}, loose {loose}");
    }

    #[test]
    fn no_selected_bins_gives_infinite_fdr() {
        // Observed values far above all simulations, threshold 0: p_i > 0
        // is false... p_i = 0 ≤ 0, so choose the inverse: observed far
        // below sims makes p_i = B > p_t → empty selection.
        let observed = vec![0.0; 50];
        let sims = vec![vec![100.0; 50]; 5];
        let input = FdrInput::new(observed, sims);
        assert!(fdr_fused(&input, 1.0).is_infinite());
    }

    #[test]
    fn all_identical_data() {
        // Every value equal: every indicator fires; FDR = M·B/(B·M) = 1.
        let input = FdrInput::new(vec![5.0; 40], vec![vec![5.0; 40]; 6]);
        let fdr = fdr_fused(&input, 6.0);
        assert!((fdr - 1.0).abs() < 1e-12, "fdr {fdr}");
    }

    #[test]
    fn curve_is_reported_per_threshold() {
        let input = random_input(120, 6, 4);
        let curve = fdr_curve(&input, &[1.0, 2.0, 3.0], 3);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].0, 1.0);
        for (t, v) in &curve {
            let reference = fdr_fused(&input, *t);
            if reference.is_finite() {
                assert!((v - reference).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fdr_simulated_matches_fused() {
        let input = crate::simulate::build_fdr_input(
            (0..300).map(|i| (i % 13) as f64).collect(),
            8,
            crate::simulate::NullModel::Poisson,
            2,
        );
        let reference = fdr_fused(&input, 2.0);
        for ranks in [1, 3, 7] {
            let (v, t) = fdr_simulated(&input, 2.0, ranks);
            assert_eq!(v.to_bits(), reference.to_bits());
            assert_eq!(t.rank_times.len(), ranks);
            let (v2, _) = fdr_simulated_two_phase(&input, 2.0, ranks);
            assert_eq!(v2.to_bits(), reference.to_bits());
            // Two-phase does two sweeps: at equal rank counts its work is
            // at least the fused version's. Each side is the least
            // `total_work` of five runs, so one descheduled run cannot
            // invert the comparison.
            let least_work = |run: &dyn Fn() -> SimTiming| {
                (0..5).map(|_| run().total_work()).min().unwrap()
            };
            let fused = least_work(&|| fdr_simulated(&input, 2.0, ranks).1);
            let two_phase = least_work(&|| fdr_simulated_two_phase(&input, 2.0, ranks).1);
            assert!(two_phase >= fused / 2, "ranks {ranks}: {two_phase:?} vs {fused:?}");
        }
    }

    #[test]
    fn makespan_below_total_work_for_multirank() {
        let input = crate::simulate::build_fdr_input(
            (0..2000).map(|i| (i % 9) as f64).collect(),
            10,
            crate::simulate::NullModel::Poisson,
            3,
        );
        let (_, t) = fdr_simulated(&input, 3.0, 8);
        assert!(t.makespan() <= t.total_work());
        assert!(t.makespan() >= *t.rank_times.iter().max().unwrap());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_mismatch_panics() {
        FdrInput::new(vec![1.0; 10], vec![vec![1.0; 9]]);
    }
}
