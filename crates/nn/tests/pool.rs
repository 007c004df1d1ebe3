//! The persistent worker pool behind `tlsfp_nn::parallel`: a chunk's
//! panic reaches its caller only after the sibling chunks finish, nested
//! calls finish with every worker busy, a waiting caller never runs a
//! foreign chunk, and concurrent callers each get their own results in
//! order. Interleavings are forced with barriers and channels; timeouts
//! only bound waits that a broken pool would never end.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::Duration;

use tlsfp_nn::embedding::{EmbedderConfig, SequenceEmbedder};
use tlsfp_nn::parallel::{map_chunks, map_elems};
use tlsfp_nn::seq::SeqInput;

/// Bound on a wait that only a deadlocked pool could exhaust.
const WATCHDOG: Duration = Duration::from_secs(60);

/// A panic payload the test can recognise after the re-raise.
#[derive(Debug, PartialEq)]
struct Payload(usize);

#[test]
fn a_chunk_panic_reaches_the_caller_after_its_siblings_finish() {
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (panicking_tx, panicking_rx) = mpsc::channel::<()>();
    let (raised_tx, raised_rx) = mpsc::channel::<()>();
    let (started_rx, panicking_rx, raised_rx) = (
        Mutex::new(started_rx),
        Mutex::new(panicking_rx),
        Mutex::new(raised_rx),
    );
    let (started_tx, panicking_tx) = (Mutex::new(started_tx), Mutex::new(panicking_tx));
    let sibling_finished = AtomicBool::new(false);
    let raised_early = AtomicBool::new(false);

    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        map_chunks(&[0usize, 1], 2, |ci, _, _| {
            if ci == 0 {
                // Panic only once chunk 1 is running.
                started_rx.lock().unwrap().recv().unwrap();
                panicking_tx.lock().unwrap().send(()).unwrap();
                panic::panic_any(Payload(0));
            }
            started_tx.lock().unwrap().send(()).unwrap();
            panicking_rx.lock().unwrap().recv().unwrap();
            // A pool that re-raised at the first panic would let the
            // caller send `raised` while this chunk still runs.
            let early = raised_rx
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_millis(200))
                .is_ok();
            raised_early.store(early, Ordering::SeqCst);
            sibling_finished.store(true, Ordering::SeqCst);
        })
    }));
    raised_tx.send(()).ok();

    let payload = outcome.expect_err("the chunk's panic reaches the caller");
    assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload(0)));
    assert!(sibling_finished.load(Ordering::SeqCst));
    assert!(!raised_early.load(Ordering::SeqCst));

    // The pool survives: the next call runs every chunk.
    assert_eq!(map_elems(&[1, 2, 3, 4], 2, |x| x * 2), vec![2, 4, 6, 8]);
}

#[test]
fn the_lowest_panicking_chunk_wins() {
    let items: Vec<usize> = (0..4).collect();
    let payload = panic::catch_unwind(|| {
        map_chunks(&items, 4, |ci, _, _| -> () {
            panic::panic_any(Payload(ci))
        })
    })
    .expect_err("every chunk panics");
    assert_eq!(payload.downcast_ref::<Payload>(), Some(&Payload(0)));
}

#[test]
fn a_chunk_that_calls_map_chunks_finishes() {
    let (done_tx, done_rx) = mpsc::channel();
    let outer = thread::spawn(move || {
        let items: Vec<u64> = (0..64).collect();
        // Every outer chunk waits here until all four run at once, so
        // the caller and three workers are busy when the nested calls
        // are published: each nested caller may have to run its whole
        // call alone.
        let all_busy = Barrier::new(4);
        let sums = map_chunks(&items, 4, |_, _, outer| {
            all_busy.wait();
            map_chunks(outer, 4, |_, _, inner| {
                map_elems(inner, 4, |x| x * 2).into_iter().sum::<u64>()
            })
            .into_iter()
            .sum::<u64>()
        });
        done_tx.send(sums.into_iter().sum::<u64>()).unwrap();
    });
    let total = done_rx.recv_timeout(WATCHDOG).expect("nested calls finish");
    outer.join().expect("the outer caller returns");
    assert_eq!(total, 2 * (0..64).sum::<u64>());
}

/// A deterministic trace of `steps` three-channel records.
fn trace(steps: usize, salt: usize) -> SeqInput {
    let data = (0..steps * 3)
        .map(|i| ((i * 31 + salt * 7) % 19) as f32 * 0.1 - 0.9)
        .collect();
    SeqInput::new(steps, 3, data).expect("shape by construction")
}

/// `embed_batch_with` holds the thread's `RefCell` scratch across its
/// parallel scatter, while `map_elems(.., |x| net.embed(x))` borrows the
/// scratch of whichever thread runs each chunk. A waiting caller that
/// ran a foreign chunk would borrow its own scratch twice and panic.
#[test]
fn a_waiting_caller_never_runs_a_foreign_chunk() {
    let net = SequenceEmbedder::new(EmbedderConfig::small(3), 42).expect("valid config");
    let xs: Vec<SeqInput> = (0..6).map(|i| trace(8 + i, i)).collect();
    let want: Vec<Vec<f32>> = xs.iter().map(|x| net.embed(x)).collect();
    let start = Barrier::new(4);
    thread::scope(|s| {
        for t in 0..4 {
            let (net, xs, want, start) = (&net, &xs, &want, &start);
            s.spawn(move || {
                start.wait();
                for _ in 0..300 {
                    let got = if t % 2 == 0 {
                        net.embed_batch_with(xs, 2, |rows| rows.to_vecs())
                    } else {
                        map_elems(xs, 2, |x| net.embed(x))
                    };
                    assert_eq!(&got, want);
                }
            });
        }
    });
}

#[test]
fn concurrent_callers_each_get_their_own_results_in_order() {
    let start = Barrier::new(8);
    thread::scope(|s| {
        for t in 0..8u64 {
            let start = &start;
            s.spawn(move || {
                let items: Vec<u64> = (0..100).map(|i| i * 8 + t).collect();
                start.wait();
                for round in 0..50 {
                    let got = map_elems(&items, 4, |x| x * 3 + round);
                    let want: Vec<u64> = items.iter().map(|x| x * 3 + round).collect();
                    assert_eq!(got, want, "caller {t}, round {round}");
                }
            });
        }
    });
}
