//! The pool reuses its workers instead of spawning per call. This test
//! is alone in its own test binary, so no other test grows the pool.

use std::collections::HashSet;
use std::sync::Mutex;
use std::thread;

use tlsfp_nn::parallel::map_chunks;

#[test]
fn two_chunk_calls_run_on_the_caller_and_one_worker() {
    let seen = Mutex::new(HashSet::new());
    let items = [0u64, 1];
    for _ in 0..1000 {
        let firsts = map_chunks(&items, 2, |_, _, chunk| {
            seen.lock().unwrap().insert(thread::current().id());
            chunk[0]
        });
        assert_eq!(firsts, vec![0, 1]);
    }
    // Every call asks for two threads, so the pool holds one worker:
    // at most the caller and that worker ever run a chunk.
    let threads = seen.lock().unwrap().len();
    assert!((1..=2).contains(&threads), "{threads} threads ran chunks");
}
