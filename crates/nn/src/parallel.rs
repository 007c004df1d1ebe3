//! Data-parallel helpers built on `std::thread::scope`.
//!
//! Training is embarrassingly parallel across a batch: each worker
//! accumulates gradients for its chunk into a private buffer, and the
//! buffers are merged before the optimizer step. The same splitter is
//! reused for parallel inference (embedding corpora, kNN queries).

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
/// is small.
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
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for (ci, chunk) in items.chunks(chunk_size).enumerate() {
            let f = &f;
            let offset = ci * chunk_size;
            handles.push(scope.spawn(move || f(ci, offset, chunk)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
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

/// Shards `items` across `workers.len()` threads, handing each worker
/// its own mutable state plus the matching `stride`-aligned slice of
/// `out`: worker `w` receives items `[w·chunk, (w+1)·chunk)` and the
/// output elements `[w·chunk·stride, ...)`.
///
/// This is the writer-side counterpart of [`map_chunks`], used by the
/// batched embedding engine: per-item work is independent, so results
/// are identical for every worker count — only wall-clock changes.
/// Runs inline when there is a single worker or a single chunk's worth
/// of items.
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
    debug_assert_eq!(out.len(), items.len() * stride, "output stride mismatch");
    let n_workers = workers.len().max(1).min(items.len().max(1));
    let chunk = items.len().div_ceil(n_workers.max(1)).max(1);
    if n_workers <= 1 || items.len() <= chunk {
        if let Some(state) = workers.first_mut() {
            f(items, state, out);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest_items = items;
        let mut rest_out = out;
        let mut rest_workers = workers;
        while !rest_items.is_empty() {
            let take = chunk.min(rest_items.len());
            let (ci, ri) = rest_items.split_at(take);
            let (co, ro) = rest_out.split_at_mut(take * stride);
            let (cw, rw) = rest_workers.split_at_mut(1);
            rest_items = ri;
            rest_out = ro;
            rest_workers = rw;
            let f = &f;
            let state = &mut cw[0];
            scope.spawn(move || f(ci, state, co));
        }
    });
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
}
