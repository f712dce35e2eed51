//! Deterministic parallel sweep executor.
//!
//! Every evaluation in the DIBS paper is a sweep of *independent* simulation
//! runs — buffer sizes, TTL limits, incast degrees, query rates. This crate
//! fans those runs across OS threads while keeping the merged output
//! **byte-identical for any `--jobs N`, including `N = 1`**:
//!
//! * Work is distributed by a work-stealing pool, so thread count and
//!   completion order are *scheduling* details only.
//! * Each run must derive its randomness from the run's *descriptor* (what
//!   the run is), never from which thread ran it or when it finished — see
//!   `dibs_engine::rng::derive_stream_seed` and `dibs::RunDescriptor`.
//! * Results land in slots indexed by the run's position in the input, and
//!   [`Executor::map`] returns them in input order, so the reduction is
//!   independent of execution interleaving.
//!
//! The [`Executor`] itself is pure `std` with no workspace dependencies,
//! so any crate (or dev-dependency graph) can use it without cycles — the
//! simulator crates this crate depends on pull it in only as a
//! *dev*-dependency, which Cargo keeps out of the normal dependency
//! graph. All other crates are forbidden from touching `std::thread`
//! directly — the `thread-spawn` rule in `dibs-lint` enforces this.
//!
//! The [`simtest`] module (and its `simtest` binary) layers a randomized
//! fault-injection soak harness on top of the executor: seeded random
//! topologies × workloads × fault schedules, with per-run invariant
//! checks. That module is why this crate now depends on the simulator
//! stack.
//!
//! ```
//! use dibs_harness::Executor;
//!
//! let seq = Executor::new(1).map((0..100).collect(), |x: u64| x * x);
//! let par = Executor::new(8).map((0..100).collect(), |x: u64| x * x);
//! assert_eq!(seq, par); // same bytes regardless of thread count
//! ```

pub mod simtest;

use std::collections::VecDeque;
use std::sync::Mutex;

/// Environment variable consulted by [`jobs`] for the worker count. A
/// `--jobs N` flag takes precedence.
pub const JOBS_ENV: &str = "DIBS_JOBS";

/// A fixed-width thread pool that maps a function over a batch of
/// independent items and returns the results **in input order**.
///
/// The executor is cheap to construct (threads are spawned per
/// [`map`](Executor::map) call and joined before it returns), carries no
/// state between calls, and never lets scheduling influence results: with a
/// correctly seeded work function, `map` output is byte-identical for every
/// `jobs` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// An executor running `jobs` worker threads. `jobs == 1` (or `0`,
    /// which is clamped to 1) runs inline on the calling thread with no
    /// thread machinery at all.
    pub fn new(jobs: usize) -> Self {
        Executor { jobs: jobs.max(1) }
    }

    /// A single-threaded executor; `map` degenerates to `Vec::into_iter().map()`.
    pub fn sequential() -> Self {
        Executor::new(1)
    }

    /// Worker count from the environment: `DIBS_JOBS` if set, otherwise
    /// [`std::thread::available_parallelism`].
    ///
    /// # Panics
    ///
    /// If `DIBS_JOBS` is set but not a positive integer. Binaries parse
    /// their worker count with [`jobs`] and report the error instead.
    pub fn from_env() -> Self {
        match jobs(&mut Vec::new(), |key| std::env::var(key).ok()) {
            Ok(n) => Executor::new(n),
            Err(e) => panic!("{e}"),
        }
    }

    /// The number of worker threads `map` will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every item and return the outputs in input order.
    ///
    /// Items are dealt round-robin to per-worker deques; each worker drains
    /// its own queue front-first and, when empty, steals from the *back* of
    /// its neighbours' queues. A worker retires only after a full scan of
    /// every queue finds nothing (tasks never enqueue new tasks, so an
    /// all-empty scan is a stable termination condition).
    ///
    /// `f` must not derive behaviour from thread identity, wall-clock time,
    /// or any other scheduling artifact — seed it from the item itself.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }

        // Round-robin deal into per-worker deques, remembering each item's
        // input position so its result can be slotted back in order.
        let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (idx, item) in items.into_iter().enumerate() {
            queues[idx % workers]
                .lock()
                .expect("executor queue poisoned")
                .push_back((idx, item));
        }

        // One slot per input item. Mutex<Option<R>> rather than OnceLock so
        // `R` only needs `Send`, matching what a plain sequential map would
        // require.
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for me in 0..workers {
                let queues = &queues;
                let slots = &slots;
                let f = &f;
                scope.spawn(move || loop {
                    let task = pop_own(&queues[me]).or_else(|| steal(queues, me));
                    match task {
                        Some((idx, item)) => {
                            let out = f(item);
                            *slots[idx].lock().expect("executor slot poisoned") = Some(out);
                        }
                        None => break,
                    }
                });
            }
        });

        slots
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| {
                slot.into_inner()
                    .expect("executor slot poisoned")
                    .unwrap_or_else(|| panic!("executor left slot {idx} unfilled"))
            })
            .collect()
    }
}

/// The worker count: a `--jobs N` / `--jobs=N` flag in `args` (removed
/// from it), else the `DIBS_JOBS` variable that `env` looks up (empty
/// counts as unset), else the host's available parallelism.
///
/// A flag without a value, or a value that is not a positive integer, is
/// an error naming the bad input rather than a silent fallback.
pub fn jobs(args: &mut Vec<String>, env: impl Fn(&str) -> Option<String>) -> Result<usize, String> {
    let parse = |what: &str, v: &str| match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{what} `{v}` is not a positive integer")),
    };
    if let Some(flag) = take_jobs_flag(args)? {
        return parse("--jobs", &flag);
    }
    match env(JOBS_ENV).filter(|v| !v.trim().is_empty()) {
        Some(v) => parse(JOBS_ENV, &v),
        None => Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)),
    }
}

/// Removes every `--jobs N` / `--jobs=N` flag from `args` and returns the
/// last one's raw value; `--jobs` as the final argument is an error.
fn take_jobs_flag(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--jobs" {
            if i + 1 == args.len() {
                return Err("--jobs needs a value".to_string());
            }
            value = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            value = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(value)
}

fn pop_own<T>(queue: &Mutex<VecDeque<(usize, T)>>) -> Option<(usize, T)> {
    queue.lock().expect("executor queue poisoned").pop_front()
}

fn steal<T>(queues: &[Mutex<VecDeque<(usize, T)>>], me: usize) -> Option<(usize, T)> {
    let n = queues.len();
    for off in 1..n {
        let victim = (me + off) % n;
        if let Some(task) = queues[victim]
            .lock()
            .expect("executor queue poisoned")
            .pop_back()
        {
            return Some(task);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        for jobs in [1, 2, 3, 8] {
            let out = Executor::new(jobs).map((0..64u64).collect(), |x| x * 10);
            assert_eq!(
                out,
                (0..64u64).map(|x| x * 10).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn jobs_count_never_changes_results() {
        let work = |x: u64| {
            // Unequal task sizes so stealing actually happens.
            let mut acc = x;
            for i in 0..(x % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        };
        let baseline = Executor::sequential().map((0..200u64).collect(), work);
        for jobs in [2, 4, 8, 16] {
            assert_eq!(
                Executor::new(jobs).map((0..200u64).collect(), work),
                baseline
            );
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let e = Executor::new(8);
        assert_eq!(e.map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(e.map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        assert_eq!(
            Executor::new(64).map(vec![1u32, 2, 3], |x| x * 2),
            vec![2, 4, 6]
        );
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        let e = Executor::new(0);
        assert_eq!(e.jobs(), 1);
        assert_eq!(e.map(vec![1u32, 2], |x| x), vec![1, 2]);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn take_jobs_flag_consumes_both_forms() {
        let no_env = |_: &str| None;
        let mut a = args(&["--quick", "--jobs", "4"]);
        assert_eq!(jobs(&mut a, no_env), Ok(4));
        assert_eq!(a, args(&["--quick"]));

        let mut a = args(&["--jobs=2", "x"]);
        assert_eq!(jobs(&mut a, no_env), Ok(2));
        assert_eq!(a, args(&["x"]));

        // Absent flag: the environment, then the host's parallelism.
        let mut a = args(&["--full"]);
        assert_eq!(jobs(&mut a, |_| Some("3".to_string())), Ok(3));
        assert!(jobs(&mut a, no_env).unwrap() >= 1);
        assert_eq!(a, args(&["--full"]));

        // Malformed inputs are errors naming the bad value.
        let err = jobs(&mut args(&["--jobs", "x"]), no_env).unwrap_err();
        assert!(err.contains("--jobs `x`"), "{err}");
        let err = jobs(&mut args(&["--quick", "--jobs"]), no_env).unwrap_err();
        assert!(err.contains("--jobs needs a value"), "{err}");
        let err = jobs(&mut args(&["--jobs=0"]), no_env).unwrap_err();
        assert!(err.contains("--jobs `0`"), "{err}");
        let err = jobs(&mut Vec::new(), |_| Some("abc".to_string())).unwrap_err();
        assert!(err.contains("DIBS_JOBS `abc`"), "{err}");
    }

    #[test]
    fn non_send_sync_closure_state_not_required() {
        // f only needs Sync; results only need Send.
        let table: Vec<u64> = (0..32).map(|i| i * 3).collect();
        let out = Executor::new(4).map((0..32usize).collect(), |i| table[i]);
        assert_eq!(out, table);
    }
}
