//! The parallel deterministic trial harness (DESIGN.md §6).
//!
//! Every experiment is a batch of *independent* trials: each trial builds
//! its own [`Sim`](tsuru_sim::Sim) world from a seed and runs to a verdict,
//! never touching another trial's state. That makes the batch
//! embarrassingly parallel — but only worth having if parallelism cannot
//! change the results. [`TrialHarness`] guarantees that:
//!
//! - the seed of trial `i` is [`DetRng::trial_seed`]`(base_seed, i)` — a
//!   pure function of the batch seed and the trial index, independent of
//!   thread assignment or completion order;
//! - workers claim trial indices from a shared counter, so any number of
//!   threads covers exactly the same index set;
//! - results carry their trial index and are re-sorted into index order
//!   after the join, so the returned rows are **bit-identical to the
//!   serial runner at any thread count**.
//!
//! Wall-clock is measured per trial and for the whole batch, surfacing
//! through [`ThroughputReport`] (trials/sec, per-trial latency summary,
//! speedup vs a baseline run).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tsuru_sim::{DetRng, ThroughputReport};

/// Handed to each trial: which trial it is and the seed it must use.
#[derive(Debug, Clone, Copy)]
pub struct TrialCtx {
    /// Trial index in `0..trials`.
    pub index: usize,
    /// Deterministic per-trial seed, `DetRng::trial_seed(base_seed, index)`.
    pub seed: u64,
}

/// The rows of one harness run plus its wall-clock metrics.
#[derive(Debug, Clone)]
pub struct TrialSet<R> {
    /// One entry per trial, in trial-index order.
    pub rows: Vec<R>,
    /// Wall-clock throughput of the batch.
    pub stats: HarnessStats,
}

impl<R> TrialSet<R> {
    /// Replace the rows (e.g. aggregate per-trial rows into table rows)
    /// while keeping the wall-clock stats.
    pub fn map_rows<U>(self, f: impl FnOnce(Vec<R>) -> Vec<U>) -> TrialSet<U> {
        TrialSet {
            rows: f(self.rows),
            stats: self.stats,
        }
    }
}

/// Wall-clock metrics of one harness run.
#[derive(Debug, Clone)]
pub struct HarnessStats {
    /// Worker threads used.
    pub threads: usize,
    /// Aggregate throughput (batch wall-clock, trials/sec, per-trial
    /// latency distribution).
    pub throughput: ThroughputReport,
}

impl HarnessStats {
    /// One-line rendering for experiment output.
    pub fn display(&self) -> String {
        format!("threads={} {}", self.threads, self.throughput.display())
    }
}

/// Fans independent deterministic trials out over a scoped thread pool.
#[derive(Debug, Clone)]
pub struct TrialHarness {
    threads: usize,
}

impl Default for TrialHarness {
    fn default() -> Self {
        Self::auto()
    }
}

impl TrialHarness {
    /// A harness running on `threads` workers. `0` means one worker per
    /// available CPU.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        TrialHarness { threads }
    }

    /// The single-threaded harness: runs trials in a plain sequential loop
    /// on the calling thread.
    pub fn serial() -> Self {
        TrialHarness { threads: 1 }
    }

    /// One worker per available CPU.
    pub fn auto() -> Self {
        Self::new(0)
    }

    /// Worker threads this harness uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `trials` independent trials of `run_trial`, each seeded from
    /// `(base_seed, trial_index)`, and return the rows in trial-index
    /// order. The output is identical at any thread count.
    pub fn run<R, F>(&self, base_seed: u64, trials: usize, run_trial: F) -> TrialSet<R>
    where
        R: Send,
        F: Fn(TrialCtx) -> R + Sync,
    {
        #[allow(
            clippy::disallowed_methods,
            reason = "batch wall clock feeds ThroughputReport, never trial results"
        )]
        let batch_start = Instant::now();
        let mut indexed: Vec<(usize, u64, R)> = if self.threads <= 1 || trials <= 1 {
            // The serial path is the reference: a plain in-order loop.
            (0..trials)
                .map(|index| {
                    let ctx = TrialCtx {
                        index,
                        seed: DetRng::trial_seed(base_seed, index as u64),
                    };
                    #[allow(
                        clippy::disallowed_methods,
                        reason = "per-trial latency metric, reporting only"
                    )]
                    let t0 = Instant::now();
                    let row = run_trial(ctx);
                    (index, t0.elapsed().as_nanos() as u64, row)
                })
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let results: Mutex<Vec<(usize, u64, R)>> = Mutex::new(Vec::with_capacity(trials));
            let workers = self.threads.min(trials);
            #[allow(
                clippy::disallowed_methods,
                reason = "the trial harness is the one place that runs threads; rows are re-sorted by trial index below"
            )]
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        s.spawn(|| {
                            let mut local: Vec<(usize, u64, R)> = Vec::new();
                            loop {
                                let index = next.fetch_add(1, Ordering::Relaxed);
                                if index >= trials {
                                    break;
                                }
                                let ctx = TrialCtx {
                                    index,
                                    seed: DetRng::trial_seed(base_seed, index as u64),
                                };
                                #[allow(
                                    clippy::disallowed_methods,
                                    reason = "per-trial latency metric, reporting only"
                                )]
                                let t0 = Instant::now();
                                let row = run_trial(ctx);
                                local.push((index, t0.elapsed().as_nanos() as u64, row));
                            }
                            results.lock().unwrap().extend(local);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("trial worker panicked");
                }
            });
            results.into_inner().unwrap()
        };
        let wall_ns = batch_start.elapsed().as_nanos() as u64;
        // Re-sort by trial index: completion order depends on scheduling,
        // the returned rows must not.
        indexed.sort_by_key(|&(index, _, _)| index);
        let per_trial_ns: Vec<u64> = indexed.iter().map(|&(_, ns, _)| ns).collect();
        let rows = indexed.into_iter().map(|(_, _, row)| row).collect();
        TrialSet {
            rows,
            stats: HarnessStats {
                threads: self.threads,
                throughput: ThroughputReport::from_trials(wall_ns, &per_trial_ns),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_index_pure() {
        let a = DetRng::trial_seed(42, 7);
        let b = DetRng::trial_seed(42, 7);
        assert_eq!(a, b);
        assert_ne!(DetRng::trial_seed(42, 7), DetRng::trial_seed(42, 8));
        assert_ne!(DetRng::trial_seed(42, 7), DetRng::trial_seed(43, 7));
    }

    #[test]
    fn rows_are_identical_at_any_thread_count() {
        // A trial that does real (seed-dependent) work.
        let trial = |ctx: TrialCtx| {
            let mut rng = DetRng::new(ctx.seed);
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next());
            }
            (ctx.index, ctx.seed, acc)
        };
        let serial = TrialHarness::serial().run(99, 64, trial);
        for threads in [2, 3, 8] {
            let par = TrialHarness::new(threads).run(99, 64, trial);
            assert_eq!(serial.rows, par.rows, "divergence at {threads} threads");
            assert_eq!(par.stats.threads, threads);
        }
        assert_eq!(serial.stats.throughput.trials, 64);
    }

    #[test]
    fn auto_resolves_to_at_least_one_thread() {
        assert!(TrialHarness::auto().threads() >= 1);
        assert_eq!(TrialHarness::new(5).threads(), 5);
    }

    #[test]
    fn map_rows_keeps_stats() {
        let set = TrialHarness::serial().run(1, 4, |ctx| ctx.index as u64);
        let trials = set.stats.throughput.trials;
        let summed = set.map_rows(|rows| vec![rows.iter().sum::<u64>()]);
        assert_eq!(summed.rows, vec![6]);
        assert_eq!(summed.stats.throughput.trials, trials);
    }
}
