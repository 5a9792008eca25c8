//! Rank executors: [`run_ranks`] runs one closure per rank on its own OS
//! thread and collects results in rank order, like `mpirun` for a single
//! binary; [`run_ranks_alone`] runs the same per-rank work one rank at a
//! time and times each, for the simulated-cluster figures.

use std::time::{Duration, Instant};

use crate::comm::Communicator;

/// Runs `f(comm)` on `n` ranks (threads) and returns results in rank
/// order. Panics in any rank propagate after every rank is joined.
pub fn run_ranks<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Communicator) -> R + Sync,
{
    let comms = Communicator::create_world(n);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| scope.spawn(|| f(comm)))
            .collect();
        for (slot, handle) in results.iter_mut().zip(handles) {
            match handle.join() {
                Ok(v) => *slot = Some(v),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results.into_iter().map(|r| r.expect("every rank joined")).collect()
}

/// Timing of a simulated-cluster run (DESIGN.md §4b): each rank's work
/// timed alone, plus any serial section outside the rank loops.
#[derive(Debug, Clone, Default)]
pub struct SimTiming {
    /// Per-rank durations, in rank order.
    pub rank_times: Vec<Duration>,
    /// Serial time outside the rank loops (reductions, stitching).
    pub serial_time: Duration,
}

impl SimTiming {
    /// Simulated parallel makespan: the slowest rank plus the serial
    /// time.
    pub fn makespan(&self) -> Duration {
        self.rank_times.iter().max().copied().unwrap_or_default() + self.serial_time
    }

    /// Sum of all work (≈ the 1-rank time, used for speedup checks).
    pub fn total_work(&self) -> Duration {
        self.rank_times.iter().sum::<Duration>() + self.serial_time
    }
}

/// The simulated-cluster executor: runs `f(rank)` for ranks `0..n` one
/// after another on the calling thread, timing each call alone, so a
/// host with fewer cores than ranks still measures load balance and
/// serial bottlenecks without contention. Returns the results in rank
/// order and the per-rank times (`serial_time` zero).
pub fn run_ranks_alone<R>(n: usize, mut f: impl FnMut(usize) -> R) -> (Vec<R>, SimTiming) {
    let mut results = Vec::with_capacity(n);
    let mut rank_times = Vec::with_capacity(n);
    for rank in 0..n {
        let t = Instant::now();
        results.push(f(rank));
        rank_times.push(t.elapsed());
    }
    (results, SimTiming { rank_times, serial_time: Duration::ZERO })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let results = run_ranks(16, |c| c.rank() * 10);
        assert_eq!(results, (0..16).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn run_ranks_alone_times_each_rank_in_order() {
        let (results, timing) = run_ranks_alone(4, |rank| {
            std::thread::sleep(Duration::from_millis(2 * rank as u64));
            rank * 10
        });
        assert_eq!(results, vec![0, 10, 20, 30]);
        assert_eq!(timing.rank_times.len(), 4);
        assert!(timing.rank_times[3] >= Duration::from_millis(6));
        assert_eq!(timing.serial_time, Duration::ZERO);
        // No upper bounds: wall-clock assertions are flaky on loaded
        // hosts. The makespan is the slowest rank by definition.
        assert_eq!(timing.makespan(), *timing.rank_times.iter().max().unwrap());
        assert_eq!(timing.total_work(), timing.rank_times.iter().sum::<Duration>());
    }

    #[test]
    fn makespan_adds_serial_time_once() {
        let timing = SimTiming {
            rank_times: vec![Duration::from_millis(3), Duration::from_millis(5)],
            serial_time: Duration::from_millis(2),
        };
        assert_eq!(timing.makespan(), Duration::from_millis(7));
        assert_eq!(timing.total_work(), Duration::from_millis(10));
        assert_eq!(SimTiming::default().makespan(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "rank failure")]
    fn panics_propagate() {
        run_ranks(3, |c| {
            if c.rank() == 1 {
                panic!("rank failure");
            }
        });
    }
}
