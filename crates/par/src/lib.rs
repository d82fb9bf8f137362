//! Deterministic parallel execution for the TACC workspace.
//!
//! Every hot path in TACC — per-server shortest-path fan-out,
//! routing-tree construction, multi-seed solver sweeps — is
//! *embarrassingly parallel over an index range with an order-sensitive
//! merge*: the result must be **bit-for-bit identical** to the serial
//! run no matter how many workers execute it or how they interleave.
//! This crate provides exactly that shape and nothing else:
//!
//! - [`par_map`] / [`par_map_with`] — map a function over a slice on a
//!   scoped worker pool; results come back **in input order**.
//! - [`par_chunks`] / [`par_chunks_with`] — one result per contiguous
//!   chunk, again merged in order.
//! - [`worker_count`] — the pool size, from the `TACC_THREADS`
//!   environment variable or [`std::thread::available_parallelism`].
//!
//! # Determinism contract
//!
//! Each input item is processed by a pure-per-item closure, and the
//! merge collects results by *input index*, never by completion order.
//! As long as the closure itself is deterministic (every TACC kernel
//! is: seeded RNGs, tie-broken heaps), the output is the same `Vec` the
//! serial `iter().map().collect()` would produce — verified bit-for-bit
//! by the property tests in this crate and in `tacc-topology`.
//!
//! # Why not rayon?
//!
//! The build environment resolves dependencies offline (see the
//! workspace `Cargo.toml`), so this is a first-party stand-in built on
//! [`std::thread::scope`]. Scoped threads let the closures borrow the
//! input slice directly; work is handed out as contiguous chunks
//! through an atomic cursor, so skewed per-item cost still load-balances.
//!
//! # Panics
//!
//! A panic in any worker closure is propagated to the caller when the
//! scope closes (the panic payload of one of the panicking workers is
//! re-raised), never swallowed.
//!
//! # Example
//!
//! ```
//! let squares = tacc_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Explicit worker count — oversubscription is fine.
//! let same = tacc_par::par_map_with(16, &[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(same, squares);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "TACC_THREADS";

/// The number of workers parallel calls use by default: `TACC_THREADS`
/// when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if that is unavailable).
pub fn worker_count() -> usize {
    resolve_worker_count(
        std::env::var(THREADS_ENV).ok().as_deref(),
        thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1),
    )
}

/// Pure resolution rule behind [`worker_count`], separated so tests can
/// cover it without mutating the process environment: a positive
/// integer in `env_value` wins; anything else (unset, empty, `0`,
/// non-numeric) falls back to `available`, clamped to at least 1.
pub fn resolve_worker_count(env_value: Option<&str>, available: usize) -> usize {
    match env_value.map(str::trim).and_then(|raw| raw.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => available.max(1),
    }
}

/// Maps `f` over `items` on [`worker_count`] workers; results are in
/// input order, bit-for-bit identical to `items.iter().map(f).collect()`.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(worker_count(), items, f)
}

/// [`par_map`] with an explicit worker count. `threads` is clamped to
/// `1..=items.len()`; 1 runs serially on the calling thread.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    // ~4 chunks per worker: enough slack for dynamic load balancing,
    // few enough that the per-chunk channel send stays negligible.
    let chunk = n.div_ceil(threads * 4).max(1);
    let num_chunks = n.div_ceil(chunk).max(1);
    let per_chunk = dispatch(threads, num_chunks, |c| {
        let lo = c * chunk;
        let hi = (lo + chunk).min(n);
        items[lo..hi].iter().map(&f).collect::<Vec<R>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Splits `items` into contiguous chunks of `chunk_size` (the last may
/// be shorter) and maps `f` over them on [`worker_count`] workers.
/// Returns one result per chunk, in chunk order; `f` also receives the
/// chunk's starting offset into `items`.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn par_chunks<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    par_chunks_with(worker_count(), items, chunk_size, f)
}

/// [`par_chunks`] with an explicit worker count.
///
/// # Panics
///
/// Panics if `chunk_size` is zero.
pub fn par_chunks_with<T, R, F>(threads: usize, items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n = items.len();
    let num_chunks = n.div_ceil(chunk_size);
    let threads = threads.max(1).min(num_chunks.max(1));
    dispatch(threads, num_chunks, |c| {
        let lo = c * chunk_size;
        let hi = (lo + chunk_size).min(n);
        f(lo, &items[lo..hi])
    })
}

/// The scheduling core: runs `job(0..num_jobs)` on `threads` scoped
/// workers pulling job indices from an atomic cursor, and returns the
/// results **indexed by job id** — completion order never shows.
fn dispatch<R, J>(threads: usize, num_jobs: usize, job: J) -> Vec<R>
where
    R: Send,
    J: Fn(usize) -> R + Sync,
{
    tacc_obs::counter_add("par.tasks", num_jobs as u64);
    if threads <= 1 || num_jobs <= 1 {
        return (0..num_jobs).map(job).collect();
    }
    let _span = tacc_obs::span!("par.dispatch");
    tacc_obs::counter_add("par.dispatches", 1);
    let obs_on = tacc_obs::enabled();
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(num_jobs).collect();
    thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let job = &job;
            scope.spawn(move || {
                let mut busy = std::time::Duration::ZERO;
                loop {
                    let j = cursor.fetch_add(1, Ordering::Relaxed);
                    if j >= num_jobs {
                        break;
                    }
                    if obs_on {
                        let started = std::time::Instant::now();
                        let result = job(j);
                        busy += started.elapsed();
                        let _ = tx.send((j, result));
                    } else {
                        // The receiver outlives every sender; a failed
                        // send only happens during unwinding, which the
                        // scope re-raises anyway.
                        let _ = tx.send((j, job(j)));
                    }
                }
                if obs_on {
                    tacc_obs::observe_time("par.worker_busy", busy);
                }
            });
        }
        drop(tx);
        // Receiving inside the scope ends exactly when every worker has
        // dropped its sender — normally or by unwinding. If a worker
        // panicked, the scope re-raises that panic when it closes, so
        // an unfilled slot below is unreachable.
        let merge_started = obs_on.then(std::time::Instant::now);
        for (j, result) in rx {
            slots[j] = Some(result);
        }
        if let Some(started) = merge_started {
            tacc_obs::observe_time("par.merge", started.elapsed());
        }
    });
    slots.into_iter().map(|slot| slot.expect("every job delivered a result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map_with(4, &[], |x: &u32| *x);
        assert!(out.is_empty());
        let out: Vec<usize> = par_chunks_with(4, &[] as &[u32], 3, |_, c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn results_arrive_in_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map_with(threads, &items, |&x| x * 2);
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>(), "t={threads}");
        }
    }

    #[test]
    fn skewed_work_still_merges_in_order() {
        // Early items are much slower than late ones; dynamic chunking
        // means late chunks finish first, yet order must hold.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_with(8, &items, |&x| {
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_carry_offsets_and_cover_the_slice() {
        let items: Vec<u32> = (0..10).collect();
        let out = par_chunks_with(3, &items, 4, |offset, chunk| (offset, chunk.to_vec()));
        assert_eq!(out, vec![(0, vec![0, 1, 2, 3]), (4, vec![4, 5, 6, 7]), (8, vec![8, 9])]);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let _ = par_chunks_with(2, &[1, 2, 3], 0, |_, c: &[i32]| c.len());
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            par_map_with(4, &(0..100).collect::<Vec<_>>(), |&x: &i32| {
                assert!(x != 57, "boom at {x}");
                x
            })
        });
        assert!(result.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn serial_path_panics_propagate_too() {
        let result = std::panic::catch_unwind(|| {
            par_map_with(1, &[1, 2, 3], |&x: &i32| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn resolve_worker_count_rules() {
        assert_eq!(resolve_worker_count(None, 8), 8);
        assert_eq!(resolve_worker_count(None, 0), 1);
        assert_eq!(resolve_worker_count(Some("3"), 8), 3);
        assert_eq!(resolve_worker_count(Some(" 12 "), 8), 12);
        assert_eq!(resolve_worker_count(Some("0"), 8), 8);
        assert_eq!(resolve_worker_count(Some(""), 8), 8);
        assert_eq!(resolve_worker_count(Some("lots"), 8), 8);
        assert_eq!(resolve_worker_count(Some("-2"), 8), 8);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn oversubscription_is_clamped_and_correct() {
        // More threads than items: must clamp, not spawn idle workers
        // that disturb the merge.
        let out = par_map_with(100, &[5u8, 6, 7], |&x| x as u16 + 1);
        assert_eq!(out, vec![6, 7, 8]);
    }

    #[test]
    fn float_reduction_is_bit_identical_to_serial() {
        // The canonical TACC shape: per-item f64 results merged in
        // order, then reduced left-to-right by the caller.
        let items: Vec<f64> = (0..257).map(|i| (i as f64) * 0.1 + 0.3).collect();
        let serial: Vec<f64> = items.iter().map(|&x| (x.sqrt() + 1.0) / 3.0).collect();
        for threads in [2, 5, 16] {
            let par = par_map_with(threads, &items, |&x| (x.sqrt() + 1.0) / 3.0);
            assert!(
                par.iter().zip(&serial).all(|(a, b)| a.to_bits() == b.to_bits()),
                "t={threads}"
            );
        }
    }
}
