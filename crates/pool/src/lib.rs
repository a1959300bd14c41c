//! Scoped work-stealing thread pool for the temporal-convolution stack
//! (DESIGN.md §5.10).
//!
//! The rolling-shutter frame kernel is embarrassingly parallel across
//! output rows and kernels, but the workspace is vendored-only: no rayon,
//! no crossbeam. This crate provides the minimum pool the hot path needs,
//! built from `std` alone:
//!
//! * **Chunked-index scheduling.** [`Pool::run`] splits the index range
//!   `0..n` into one contiguous chunk per worker. Each worker drains its
//!   own chunk through a shared atomic cursor, then steals from the other
//!   chunks' cursors until a full pass over every chunk yields nothing.
//!   Contiguous chunks keep cache locality on the common path; stealing
//!   bounds the tail when per-index cost is skewed.
//! * **Scoped execution.** Workers run under [`std::thread::scope`], so
//!   closures may borrow from the caller's stack and a worker panic is
//!   re-raised on the caller (no poisoned state, no lost panics). When
//!   several workers panic in one `run`, propagation is deterministic:
//!   every worker is joined first, the panic of the lowest-index
//!   panicking worker is re-raised, and the rest are counted in
//!   `ta_pool_suppressed_panics_total` and logged as
//!   `pool.panic_suppressed` trace events.
//! * **Per-worker accumulators.** `run` gives every worker a private
//!   accumulator from `init()` and returns all of them, so hot loops
//!   update plain locals and the caller merges once at join — the
//!   pattern `exec::run_delay` uses to keep profiling counters exact.
//! * **Determinism contract.** The pool guarantees each index in `0..n`
//!   is executed exactly once, but on an unspecified worker in an
//!   unspecified order. Work closures must therefore be pure functions
//!   of their index (plus shared read-only state): any RNG draws must
//!   come from a stream derived from the index, never from a stream
//!   shared across indices. Under that contract results are bit-identical
//!   at every thread count, which `ta-core`'s golden determinism tests
//!   enforce.
//! * **Nested calls inline.** A `Pool::run` issued from inside a pool
//!   worker (or a thread marked with [`enter_worker`]) executes serially
//!   on the calling thread, so layered parallelism (batch supervisor →
//!   frame engine) cannot oversubscribe the machine or deadlock.
//!
//! Telemetry: each parallel `run` sets the `ta_pool_queue_depth` gauge,
//! counts cross-chunk steals in `ta_pool_steals_total`, and records
//! per-worker busy time in the `ta_pool_worker_busy_seconds` histogram.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

/// Process-global thread-count override; 0 means "use
/// `available_parallelism`". Set once at startup by `tconv --threads`.
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Sets the process-global worker count used by [`Pool::current`].
/// `0` restores the default (`std::thread::available_parallelism`).
pub fn set_threads(n: usize) {
    CONFIGURED_THREADS.store(n, Ordering::Relaxed);
}

/// The raw configured thread count: `0` if no override is installed.
pub fn configured_threads() -> usize {
    CONFIGURED_THREADS.load(Ordering::Relaxed)
}

/// The effective default worker count: the [`set_threads`] override if
/// one is installed, otherwise `available_parallelism` (1 if unknown).
pub fn default_threads() -> usize {
    match configured_threads() {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// True when the current thread is executing inside a [`Pool::run`]
/// worker (or under an [`enter_worker`] guard). Nested pool calls test
/// this and fall back to inline serial execution.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// RAII marker that flags the current thread as a pool worker until the
/// guard drops. The pool installs it on every worker automatically; it is
/// public so code that hops to a fresh named thread mid-task (the
/// supervisor's watchdog attempt threads) can propagate the flag, keeping
/// the no-nested-parallelism guarantee across the hop.
pub struct WorkerGuard {
    was: bool,
}

/// Marks the current thread as a pool worker for the guard's lifetime.
/// See [`WorkerGuard`].
pub fn enter_worker() -> WorkerGuard {
    let was = IN_WORKER.with(|f| f.replace(true));
    WorkerGuard { was }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let was = self.was;
        IN_WORKER.with(|f| f.set(was));
    }
}

/// A chunk of the index range: a claim cursor and an exclusive end.
/// `next` may overshoot `end` (every failed claim still increments it);
/// overshoot is harmless because claims test `i >= end`.
struct Chunk {
    next: AtomicUsize,
    end: usize,
}

/// A scoped work-stealing executor over the index range `0..n`.
///
/// `Pool` is a cheap value type — it holds only the worker count; all
/// threads are spawned per-[`run`](Pool::run) under `thread::scope`, so
/// there is no global executor state to shut down.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with `threads` workers; `0` means [`default_threads`].
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: if threads == 0 {
                default_threads()
            } else {
                threads
            },
        }
    }

    /// A pool sized from the process-global configuration
    /// ([`set_threads`], default `available_parallelism`).
    pub fn current() -> Self {
        Pool::new(0)
    }

    /// The worker count this pool will use for a sufficiently large run.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `work(i, &mut acc)` for every `i` in `0..n`, each index
    /// exactly once, and returns the per-worker accumulators (one per
    /// worker that ran; a single accumulator on the serial path).
    ///
    /// Each worker starts from a private `init()` accumulator. Index
    /// order and index→worker assignment are unspecified, so `work` must
    /// be deterministic per index and accumulator merging must not
    /// depend on visit order (or must carry the index, as
    /// [`map`](Pool::map) does).
    ///
    /// Runs inline on the calling thread when only one worker is useful
    /// (`n <= 1`, `threads == 1`) or when called from inside another
    /// pool worker. A panic in any worker is re-raised on the caller.
    pub fn run<A, I, W>(&self, n: usize, init: I, work: W) -> Vec<A>
    where
        A: Send,
        I: Fn() -> A + Sync,
        W: Fn(usize, &mut A) + Sync,
    {
        let workers = self.threads.min(n).max(1);
        if workers == 1 || in_worker() {
            let mut acc = init();
            for i in 0..n {
                work(i, &mut acc);
            }
            return vec![acc];
        }

        let metrics = ta_telemetry::metrics();
        metrics.gauge("ta_pool_queue_depth").set(n as f64);
        let steals = AtomicUsize::new(0);
        let per = n.div_ceil(workers);
        let chunks: Vec<Chunk> = (0..workers)
            .map(|w| Chunk {
                next: AtomicUsize::new((w * per).min(n)),
                end: ((w + 1) * per).min(n),
            })
            .collect();

        let accs = thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (chunks, steals) = (&chunks, &steals);
                    let (init, work) = (&init, &work);
                    s.spawn(move || {
                        let _guard = enter_worker();
                        let started = Instant::now();
                        let mut acc = init();
                        let mut stolen = 0usize;
                        // Drain own chunk, then sweep the others; stop
                        // once a full pass claims nothing.
                        loop {
                            let mut progressed = false;
                            for offset in 0..workers {
                                let victim = &chunks[(w + offset) % workers];
                                loop {
                                    let i = victim.next.fetch_add(1, Ordering::Relaxed);
                                    if i >= victim.end {
                                        break;
                                    }
                                    progressed = true;
                                    if offset != 0 {
                                        stolen += 1;
                                    }
                                    work(i, &mut acc);
                                }
                            }
                            if !progressed {
                                break;
                            }
                        }
                        steals.fetch_add(stolen, Ordering::Relaxed);
                        (acc, started.elapsed())
                    })
                })
                .collect();
            // Join *every* worker before re-raising anything: with the
            // short-circuiting `map(join → resume_unwind)` a panic on a
            // low-index worker unwound out of the scope body while later
            // workers were still running, and their panics were then
            // swallowed by the scope's implicit join (the body's payload
            // takes precedence). Collecting first makes propagation
            // deterministic: the panic of the lowest-index panicking
            // worker wins, every other panic is counted and logged as a
            // telemetry event, and the caller sees the same payload
            // regardless of thread scheduling.
            let mut first_panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
            let mut results = Vec::with_capacity(workers);
            for (index, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(acc) => results.push(acc),
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some((index, payload));
                        } else {
                            metrics.counter("ta_pool_suppressed_panics_total").inc();
                            ta_telemetry::tracer().event(
                                "pool.panic_suppressed",
                                vec![
                                    ("worker", (index as u64).into()),
                                    (
                                        "message",
                                        ta_telemetry::FieldValue::Str(panic_text(payload.as_ref())),
                                    ),
                                ],
                            );
                        }
                    }
                }
            }
            if let Some((index, payload)) = first_panic {
                ta_telemetry::tracer().event(
                    "pool.panic_propagated",
                    vec![("worker", (index as u64).into())],
                );
                resume_unwind(payload);
            }
            results
        });

        metrics.gauge("ta_pool_queue_depth").set(0.0);
        metrics
            .counter("ta_pool_steals_total")
            .add(steals.load(Ordering::Relaxed) as u64);
        let busy = metrics.histogram("ta_pool_worker_busy_seconds");
        accs.into_iter()
            .map(|(acc, elapsed)| {
                busy.observe_duration(elapsed);
                acc
            })
            .collect()
    }

    /// Applies `f` to every index in `0..n` in parallel and returns the
    /// results in index order, regardless of which worker computed each.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for pairs in self.run(n, Vec::new, |i, acc: &mut Vec<(usize, T)>| {
            acc.push((i, f(i)));
        }) {
            for (i, value) in pairs {
                slots[i] = Some(value);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| unreachable!("pool skipped index {i}")))
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::current()
    }
}

/// Best-effort rendering of a panic payload for telemetry events.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_index_order_at_any_width() {
        let expect: Vec<u64> = (0..257u64).map(|i| i * i + 7).collect();
        for threads in [1, 2, 3, 8] {
            let got = Pool::new(threads).map(257, |i| (i as u64) * (i as u64) + 7);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let n = 1000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let accs = Pool::new(8).run(
            n,
            || 0usize,
            |i, count| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                *count += 1;
            },
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
        assert_eq!(accs.iter().sum::<usize>(), n);
    }

    #[test]
    fn skewed_work_is_stolen_not_serialized() {
        // Index 0 is enormously slower than the rest; the other workers
        // must finish the remaining indices regardless. (On a 1-core
        // host this still passes — it just runs serially.)
        let slow = AtomicU64::new(0);
        let sums = Pool::new(4).run(
            64,
            || 0u64,
            |i, acc| {
                if i == 0 {
                    for _ in 0..200_000 {
                        slow.fetch_add(1, Ordering::Relaxed);
                    }
                }
                *acc += i as u64;
            },
        );
        assert_eq!(sums.iter().sum::<u64>(), (0..64u64).sum());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let caught = std::panic::catch_unwind(|| {
            Pool::new(4).run(
                16,
                || (),
                |i, ()| {
                    if i == 9 {
                        panic!("boom at {i}");
                    }
                },
            );
        });
        assert!(caught.is_err());
    }

    #[test]
    fn multi_worker_panics_propagate_lowest_worker_index() {
        // Four workers, four chunks of 0..64; every chunk's first index
        // panics, carrying the claiming worker's chunk ownership in the
        // message. Whatever the thread scheduling, the caller must see
        // the panic of the lowest-index *worker* — the others are
        // suppressed and counted. A barrier would be nicer, but chunk 0's
        // first claimed index is always worker 0's own chunk start, so
        // pinning on the payload is sound: each worker claims its own
        // chunk's start before stealing.
        let m = ta_telemetry::metrics();
        let suppressed_before = m.counter("ta_pool_suppressed_panics_total").get();
        for trial in 0..8 {
            let caught = std::panic::catch_unwind(|| {
                Pool::new(4).run(
                    64,
                    || (),
                    |i, ()| {
                        if i % 16 == 0 {
                            // One panic per chunk: indices 0, 16, 32, 48.
                            std::thread::sleep(std::time::Duration::from_millis(1));
                            panic!("chunk {} exploded", i / 16);
                        }
                    },
                );
            });
            let payload = match caught {
                Err(payload) => payload,
                Ok(()) => panic!("trial {trial}: the panic must propagate"),
            };
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert_eq!(msg, "chunk 0 exploded", "trial {trial}: got {msg:?}");
        }
        // Suppressed panics were logged, not lost: 3 per trial whenever
        // all four chunk-owners reached their panic index. Stealing can
        // beat an owner to its chunk start, so only a lower bound is
        // deterministic — but with a 1 ms pre-panic sleep every trial has
        // all four workers panic in practice; require at least one trial's
        // worth to prove the accounting path runs.
        let suppressed_after = m.counter("ta_pool_suppressed_panics_total").get();
        assert!(
            suppressed_after >= suppressed_before + 3,
            "suppressed counter must advance: {suppressed_before} -> {suppressed_after}"
        );
    }

    #[test]
    fn nested_run_inlines_on_worker_threads() {
        let nested_parallel = Pool::new(4).map(8, |_| {
            assert!(in_worker());
            // Inner call must not spawn: it returns exactly one
            // accumulator (the inline-serial signature).
            Pool::new(4).run(32, || 0usize, |_, acc| *acc += 1).len()
        });
        assert!(nested_parallel.iter().all(|&inner_accs| inner_accs == 1));
        assert!(!in_worker());
    }

    #[test]
    fn enter_worker_guard_restores_flag() {
        assert!(!in_worker());
        {
            let _g = enter_worker();
            assert!(in_worker());
            {
                let _g2 = enter_worker();
                assert!(in_worker());
            }
            assert!(in_worker());
        }
        assert!(!in_worker());
    }

    #[test]
    fn zero_threads_resolves_to_default_threads() {
        assert!(Pool::new(0).threads() >= 1);
        assert_eq!(Pool::new(5).threads(), 5);
    }

    #[test]
    fn current_pool_honours_set_threads() {
        // `Pool::new(0)` must read the `set_threads` override, or
        // `tconv --threads` changes nothing.
        let before = configured_threads();
        set_threads(1);
        let one = Pool::current().threads();
        set_threads(3);
        let three = Pool::new(0).threads();
        set_threads(before);
        assert_eq!(one, 1);
        assert_eq!(three, 3);
    }

    #[test]
    fn empty_range_returns_single_empty_accumulator() {
        let accs = Pool::new(4).run(0, Vec::<u8>::new, |_, _| {});
        assert_eq!(accs.len(), 1);
        assert!(accs[0].is_empty());
        assert!(Pool::new(4).map(0, |i| i).is_empty());
    }
}
