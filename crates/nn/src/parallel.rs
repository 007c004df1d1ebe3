//! Data-parallel helpers on one process-wide pool of persistent
//! workers.
//!
//! One splitter serves training, parallel inference (batch embedding,
//! the store's shard fan-out) and the baselines. Siamese training uses
//! it in two phases per block of pairs: [`map_chunks`] runs each pair's
//! forward pass and delta-only backward pass, then `for_each_mut`
//! replays the parameter updates, with each worker owning a band of
//! every layer's gradient rows. Each gradient element sums the samples
//! in batch order, so the trained model is the same at every `threads`
//! (see `crate::siamese`).
//!
//! Every call splits its items into the same contiguous chunks for a
//! given `threads`, passes each chunk its index, and returns results in
//! chunk order, so results depend on the chunking, never on which
//! thread ran a chunk. Threads are reused, not spawned per call: the
//! pool grows to one less than the most chunks any call has split into
//! (at most that call's `threads - 1`), its workers live for the whole
//! process, and idle workers block on a condition variable rather than
//! spin. `threads <= 1` or a single item runs inline on the caller.
//!
//! Two rules keep the pool safe to call from anywhere, chunks
//! included:
//!
//! - **Own call only.** The caller runs chunks of its own call
//!   alongside the workers, then waits for the rest; a waiting caller
//!   never runs another call's chunk. So a caller that holds
//!   thread-local state across a call (the embedder's `RefCell`
//!   scratch) never re-enters it through a foreign chunk, and a nested
//!   call always finishes: its caller can run every chunk alone when no
//!   worker is free.
//! - **Panics surface on the caller.** A chunk that panics is caught;
//!   once every chunk of the call has finished, the caller re-raises
//!   the panic of the lowest-indexed chunk that panicked, with its
//!   original payload. The pool stays usable for later calls.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Number of worker threads to use when a knob is left at `0` (auto).
///
/// Honors the `TLSFP_THREADS` environment variable when it parses to a
/// positive integer — the hook the CI tier-1 matrix uses to run the
/// whole suite at fixed worker counts. Unset, empty, `0` or
/// unparseable values fall back to the machine's available
/// parallelism. Per-call knobs (`threads`/`query_workers` arguments)
/// always win over the environment: this function is only consulted
/// when they are `0`.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("TLSFP_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a worker-count knob: `0` means all cores
/// ([`default_threads`]); any other value is used as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        default_threads()
    } else {
        requested
    }
}

/// Splits `items` into at most `threads` contiguous chunks and runs `f`
/// on each chunk in parallel, returning per-chunk results in order.
///
/// `f` receives `(chunk_index, chunk_start_offset, chunk)`.
///
/// Falls back to a single inline call when `threads <= 1` or the input
/// is small. If a chunk panics, the panic is re-raised here once every
/// chunk has finished (see the module docs).
pub fn map_chunks<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &[T]) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 || items.len() < 2 {
        return vec![f(0, 0, items)];
    }
    let chunk_size = items.len().div_ceil(threads);
    let slots: Vec<Mutex<Option<R>>> = items.chunks(chunk_size).map(|_| Mutex::new(None)).collect();
    run_chunks(slots.len(), &|ci| {
        let offset = ci * chunk_size;
        let chunk = &items[offset..(offset + chunk_size).min(items.len())];
        let r = f(ci, offset, chunk);
        *lock(&slots[ci]) = Some(r);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every chunk ran")
        })
        .collect()
}

/// Parallel element-wise map preserving order.
pub fn map_elems<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let chunks = map_chunks(items, threads, |_, _, chunk| {
        chunk.iter().map(&f).collect::<Vec<R>>()
    });
    chunks.into_iter().flatten().collect()
}

/// Shards `items` across `workers.len()` chunks, handing each chunk its
/// own mutable worker state plus the matching `stride`-aligned slice of
/// `out`: chunk `w` receives items `[w·chunk, (w+1)·chunk)`, worker
/// state `w` and the output elements `[w·chunk·stride, ...)`.
///
/// This is the writer-side counterpart of [`map_chunks`], used by the
/// batched embedding engine: per-item work is independent, so results
/// are identical for every worker count — only wall-clock changes.
/// Runs inline when there is a single worker or a single chunk's worth
/// of items.
///
/// # Panics
///
/// Panics if `workers` is empty or `out.len() != items.len() * stride`,
/// and re-raises a panic from `f` once every chunk has finished.
pub fn scatter_chunks_mut<T, S, F>(
    items: &[T],
    workers: &mut [S],
    out: &mut [f32],
    stride: usize,
    f: F,
) where
    T: Sync,
    S: Send,
    F: Fn(&[T], &mut S, &mut [f32]) + Sync,
{
    assert!(
        !workers.is_empty(),
        "scatter_chunks_mut needs a worker state"
    );
    assert_eq!(out.len(), items.len() * stride, "output stride mismatch");
    let n_workers = workers.len().min(items.len().max(1));
    let chunk = items.len().div_ceil(n_workers).max(1);
    if n_workers <= 1 || items.len() <= chunk {
        f(items, &mut workers[0], out);
        return;
    }
    let mut rest_out = out;
    let mut pieces: Vec<_> = items
        .chunks(chunk)
        .zip(workers.iter_mut())
        .map(|(chunk_items, state)| {
            let (chunk_out, tail) =
                std::mem::take(&mut rest_out).split_at_mut(chunk_items.len() * stride);
            rest_out = tail;
            (chunk_items, state, chunk_out)
        })
        .collect();
    for_each_mut(&mut pieces, |(chunk_items, state, chunk_out)| {
        f(chunk_items, state, chunk_out)
    });
}

/// Runs `f` on every element of `parts` in parallel, one chunk per
/// part, each with its own mutable part. Use it when the parts are
/// disjoint pieces of one output, such as row bands of one gradient.
/// Runs inline when there is at most one part.
///
/// # Panics
///
/// Re-raises a panic from `f` once every part has finished.
pub(crate) fn for_each_mut<S, F>(parts: &mut [S], f: F)
where
    S: Send,
    F: Fn(&mut S) + Sync,
{
    if parts.len() <= 1 {
        parts.iter_mut().for_each(f);
        return;
    }
    // Whichever thread runs chunk `ci` takes part `ci`, exactly once.
    let slots: Vec<Mutex<Option<&mut S>>> = parts.iter_mut().map(|p| Mutex::new(Some(p))).collect();
    run_chunks(slots.len(), &|ci| {
        let part = lock(&slots[ci]).take().expect("each part runs once");
        f(part);
    });
}

/// Locks `m`, recovering the guard from poison. Every update made under
/// these locks is one push, retain, increment, take or store, so the
/// data is valid at every step; and a caller must not unwind between
/// publishing a call and waiting for it, which `expect` could make it
/// do.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A chunk runner whose borrow lifetime has been erased; see
/// [`Call::run`].
type ErasedRun = *const (dyn Fn(usize) + Sync + 'static);

/// The process-wide pool. Workers are spawned on demand and detached:
/// they block or run chunks until the process exits, and a chunk's
/// panic is caught and re-raised on its caller instead of ending one.
static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        calls: VecDeque::new(),
        workers: 0,
    }),
    work: Condvar::new(),
};

struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a call with unclaimed chunks is published.
    work: Condvar,
}

struct PoolState {
    /// Calls whose callers are still claiming chunks, oldest first.
    calls: VecDeque<Arc<Call>>,
    /// Workers spawned so far.
    workers: usize,
}

/// One call's chunks, shared between its caller and the workers.
struct Call {
    /// The caller's chunk runner, borrowed from the [`run_chunks`] frame
    /// with its lifetime erased. Dereferenced only in
    /// [`Call::run_claimed`], for an index [`Call::claim`] handed out.
    run: ErasedRun,
    n_chunks: usize,
    /// The next unclaimed chunk index; `>= n_chunks` once all are
    /// claimed.
    next: AtomicUsize,
    done: Mutex<Done>,
    /// Signalled when the last chunk finishes.
    all_done: Condvar,
}

#[derive(Default)]
struct Done {
    finished: usize,
    /// `(chunk index, payload)` of every chunk that panicked. All are
    /// kept until the caller has waited, so no payload's `Drop` runs
    /// (and perhaps panics) while the call's chunks still run.
    panics: Vec<(usize, Box<dyn Any + Send>)>,
}

// SAFETY: covers every field of `Call`. `n_chunks`, `next`, `done` and
// `all_done` are `Send + Sync` on their own (`Done` holds only `usize`
// and `Send` payloads behind a `Mutex`). `run` points at a `Sync`
// closure, so calling it from any thread is sound; it is dereferenced
// only while the `run_chunks` frame that owns the closure is blocked
// waiting for that very chunk, so the pointee is alive whichever thread
// holds the pointer (see `Call::run_claimed`).
unsafe impl Send for Call {}
// SAFETY: as for `Send` above; shared access to `Call` only reads `run`
// and `n_chunks` and goes through the atomic, mutex and condvar fields.
unsafe impl Sync for Call {}

impl Call {
    /// Claims the next unclaimed chunk, if any.
    ///
    /// `Relaxed` suffices: the counter publishes no data. The closure
    /// and its inputs reach a worker through the pool's mutex, and chunk
    /// results reach the caller through `done`'s.
    fn claim(&self) -> Option<usize> {
        let ci = self.next.fetch_add(1, Ordering::Relaxed);
        (ci < self.n_chunks).then_some(ci)
    }

    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n_chunks
    }

    /// Runs claimed chunk `ci`, catching a panic, and records it as
    /// finished.
    fn run_claimed(&self, ci: usize) {
        let outcome = {
            // SAFETY: `ci` came from `claim`, so it is below `n_chunks`
            // and its finish is not yet recorded. `run_chunks` returns
            // only after every chunk's finish is recorded, so the
            // closure `run` points to is still alive; the reference
            // does not outlive this block.
            let run = unsafe { &*self.run };
            panic::catch_unwind(AssertUnwindSafe(|| run(ci)))
        };
        let mut done = lock(&self.done);
        if let Err(payload) = outcome {
            done.panics.push((ci, payload));
        }
        done.finished += 1;
        if done.finished == self.n_chunks {
            self.all_done.notify_all();
        }
    }

    /// Blocks until every chunk has finished, then returns the panics.
    fn wait(&self) -> Vec<(usize, Box<dyn Any + Send>)> {
        let mut done = lock(&self.done);
        while done.finished < self.n_chunks {
            done = self
                .all_done
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
        std::mem::take(&mut done.panics)
    }
}

impl Pool {
    /// Makes `call` visible to the workers, first growing the pool to
    /// `n_chunks - 1` workers, and wakes as many as can help.
    fn publish(&'static self, call: &Arc<Call>) {
        let helpers = call.n_chunks - 1;
        let mut state = lock(&self.state);
        while state.workers < helpers {
            let spawned = std::thread::Builder::new()
                .name(format!("tlsfp-pool-{}", state.workers))
                .spawn(move || self.work_loop());
            if spawned.is_err() {
                // The caller can finish every chunk alone.
                break;
            }
            state.workers += 1;
        }
        let wake = helpers.min(state.workers);
        state.calls.push_back(Arc::clone(call));
        drop(state);
        for _ in 0..wake {
            self.work.notify_one();
        }
    }

    /// Removes `call` once its caller has claimed its last chunk.
    fn withdraw(&self, call: &Arc<Call>) {
        lock(&self.state).calls.retain(|c| !Arc::ptr_eq(c, call));
    }

    /// A worker: claim and run chunks of the oldest call that has any
    /// left, or block until one is published.
    fn work_loop(&self) {
        loop {
            let call = {
                let mut state = lock(&self.state);
                loop {
                    if let Some(call) = state.calls.iter().find(|c| c.has_unclaimed()) {
                        break Arc::clone(call);
                    }
                    state = self
                        .work
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            while let Some(ci) = call.claim() {
                call.run_claimed(ci);
            }
        }
    }
}

/// Runs `run(ci)` for every `ci` in `0..n_chunks` on the caller and the
/// pool, and returns once all have finished. Re-raises the panic of the
/// lowest-indexed chunk that panicked.
fn run_chunks(n_chunks: usize, run: &(dyn Fn(usize) + Sync + '_)) {
    // SAFETY: only the lifetime bound changes. The pointer is
    // dereferenced only for claimed chunks, and this function does not
    // return or unwind before every chunk has finished: chunk panics are
    // caught in `run_claimed`, and nothing else between `publish` and
    // `wait` can panic.
    let run: ErasedRun =
        unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), ErasedRun>(run) };
    let call = Arc::new(Call {
        run,
        n_chunks,
        next: AtomicUsize::new(0),
        done: Mutex::new(Done::default()),
        all_done: Condvar::new(),
    });
    POOL.publish(&call);
    while let Some(ci) = call.claim() {
        call.run_claimed(ci);
    }
    POOL.withdraw(&call);
    if let Some((_, payload)) = call.wait().into_iter().min_by_key(|&(ci, _)| ci) {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_chunks_covers_all_items_in_order() {
        let items: Vec<usize> = (0..103).collect();
        let sums = map_chunks(&items, 4, |_, _, chunk| chunk.iter().sum::<usize>());
        assert_eq!(sums.iter().sum::<usize>(), 103 * 102 / 2);
    }

    #[test]
    fn map_chunks_offsets_are_correct() {
        let items: Vec<usize> = (0..50).collect();
        let checks = map_chunks(&items, 3, |_, offset, chunk| {
            chunk.iter().enumerate().all(|(i, &v)| v == offset + i)
        });
        assert!(checks.into_iter().all(|ok| ok));
    }

    #[test]
    fn map_elems_preserves_order() {
        let items: Vec<i32> = (0..200).collect();
        let doubled = map_elems(&items, 8, |x| x * 2);
        assert_eq!(doubled, (0..200).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_and_empty_inputs() {
        let items: Vec<i32> = vec![];
        let out = map_elems(&items, 4, |x| *x);
        assert!(out.is_empty());
        let one = map_elems(&[7], 4, |x| *x);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert_eq!(resolve_threads(0), default_threads());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn scatter_chunks_writes_every_output_slot() {
        let items: Vec<f32> = (0..103).map(|i| i as f32).collect();
        for n_workers in [1usize, 2, 4, 7] {
            let mut workers = vec![0usize; n_workers];
            let mut out = vec![0.0f32; items.len() * 2];
            scatter_chunks_mut(&items, &mut workers, &mut out, 2, |chunk, state, o| {
                *state += chunk.len();
                for (i, v) in chunk.iter().enumerate() {
                    o[i * 2] = *v * 2.0;
                    o[i * 2 + 1] = *v * 3.0;
                }
            });
            assert_eq!(
                workers.iter().sum::<usize>(),
                items.len(),
                "{n_workers} workers"
            );
            for (i, v) in items.iter().enumerate() {
                assert_eq!(out[i * 2], v * 2.0);
                assert_eq!(out[i * 2 + 1], v * 3.0);
            }
        }
    }

    #[test]
    fn scatter_chunks_handles_empty_and_tiny_inputs() {
        let mut workers = vec![(); 4];
        let mut out: Vec<f32> = Vec::new();
        scatter_chunks_mut(&[] as &[f32], &mut workers, &mut out, 3, |_, _, _| {});
        let items = [5.0f32];
        let mut out = vec![0.0f32; 1];
        scatter_chunks_mut(&items, &mut workers, &mut out, 1, |c, _, o| o[0] = c[0]);
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn for_each_mut_visits_every_part_once() {
        for n in [0usize, 1, 2, 5] {
            let mut parts: Vec<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
            for_each_mut(&mut parts, |(i, visits)| {
                *visits += 1;
                *i *= 10;
            });
            assert_eq!(parts, (0..n).map(|i| (i * 10, 1)).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "needs a worker state")]
    fn scatter_chunks_rejects_empty_workers() {
        let items = [1.0f32, 2.0];
        let mut out = vec![0.0f32; 2];
        scatter_chunks_mut(&items, &mut [] as &mut [()], &mut out, 1, |c, _, o| {
            o.copy_from_slice(c)
        });
    }

    #[test]
    #[should_panic(expected = "output stride mismatch")]
    fn scatter_chunks_rejects_an_output_longer_than_the_items() {
        let items = [1.0f32, 2.0];
        let mut workers = vec![(); 2];
        let mut out = vec![0.0f32; 3];
        scatter_chunks_mut(&items, &mut workers, &mut out, 1, |c, _, o| {
            o[..c.len()].copy_from_slice(c)
        });
    }
}
