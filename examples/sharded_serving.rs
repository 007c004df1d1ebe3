//! The sharded reference store end to end: provision a deployment
//! whose classes are partitioned across shards, serve queries through
//! the shard fan-out, mutate a single shard (content drift + a
//! brand-new page), and query again — the serving layout that reaches
//! the paper's 13k-class regime.
//!
//! ```text
//! cargo run --release --example sharded_serving
//! ```
//!
//! See ARCHITECTURE.md for how the pieces fit (data flow, determinism
//! contract, scaling knobs).

use tlsfp::core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::tensorize::TensorConfig;
use tlsfp::web::corpus::CorpusSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const CLASSES: usize = 12;
    const TRACES_PER_CLASS: usize = 12;
    const SEED: u64 = 7;

    println!("== sharded reference store ==\n");

    // 1. Provision with the shard knob set. `shards: 0` would resolve
    //    to ⌈√classes⌉ automatically; here we pin 4 so the walkthrough
    //    is concrete. Provisioning embeds one shard's traces at a
    //    time, so peak memory tracks the largest shard, not the
    //    corpus.
    println!("[1/5] provisioning ({CLASSES} pages x {TRACES_PER_CLASS} visits, 4 shards)…");
    let spec = CorpusSpec::wiki_like(CLASSES, TRACES_PER_CLASS);
    let (_, dataset) = Dataset::generate(&spec, &TensorConfig::wiki(), SEED)?;
    let (reference, test) = dataset.split_per_class(0.25, SEED);
    let mut config = PipelineConfig::small();
    config.epochs = 18;
    config.pairs_per_epoch = 1024;
    config.batch_size = 96;
    config.shards = 4;
    let mut adversary = AdaptiveFingerprinter::provision(&reference, &config, SEED)?;
    let store = adversary.reference();
    println!(
        "      {} reference vectors across {} shards (sizes {:?})",
        store.len(),
        store.n_shards(),
        store.shard_sizes()
    );

    // 2. Serve queries: every fingerprint fans out across the shards
    //    and keeps one top-k under a fixed (distance, id) tie-break —
    //    decisions are identical to a one-shard store.
    println!("[2/5] serving queries through the shard fan-out…");
    let top1 = adversary.evaluate(&test).top_n_accuracy(1);
    let probe = adversary.reference().search_concurrent(
        &adversary.embed_all(&test.seqs()[..1])[0],
        adversary.k(),
        1,
    );
    println!(
        "      top-1 {:.3}; one query costs {} distance evals over {} vectors",
        top1,
        probe.distance_evals,
        store.len()
    );

    // 3. Mutate one shard: page 5 drifted (reference swap) and a
    //    brand-new page joins. Both route to their owning shard; no
    //    other shard is touched.
    let class = 5usize;
    let owner = adversary.reference().shard_of(class);
    println!("[3/5] adapting: swapping page {class} (shard {owner}), adding a new page…");
    let sizes_before = adversary.reference().shard_sizes();
    let fresh: Vec<_> = test
        .iter()
        .filter(|(l, _)| *l == class)
        .map(|(_, s)| s.clone())
        .collect();
    let swapped = adversary.update_class(class, &fresh)?;
    let (_, extra) = Dataset::generate(
        &CorpusSpec::wiki_like(CLASSES + 1, TRACES_PER_CLASS),
        &TensorConfig::wiki(),
        SEED + 1,
    )?;
    let new_traces: Vec<_> = extra
        .iter()
        .filter(|(l, _)| *l == CLASSES)
        .take(6)
        .map(|(_, s)| s.clone())
        .collect();
    let new_id = adversary.add_class(&new_traces)?;
    let sizes_after = adversary.reference().shard_sizes();
    println!(
        "      swapped {swapped} vectors of page {class}; page {new_id} joined shard {}",
        adversary.reference().shard_of(new_id)
    );
    println!("      shard sizes {sizes_before:?} -> {sizes_after:?}");

    // 4. Query again: the swapped class still resolves, the new page
    //    is findable, and the balance diagnostics aggregate across
    //    shards.
    println!("[4/5] querying the mutated store…");
    let recognized = new_traces
        .iter()
        .filter(|t| adversary.fingerprint(t).top() == Some(new_id))
        .count();
    let top1_after = adversary.evaluate(&test).top_n_accuracy(1);
    let balance = adversary.reference().balance_stats();
    println!(
        "      top-1 {:.3}; {recognized}/{} new-page traces recognized; shard skew {:.2}",
        top1_after,
        new_traces.len(),
        balance.shard_skew
    );

    // 5. Concurrent batch serving: `fingerprint_all` pipelines the
    //    batched embedder into the shard-parallel fan-out. The
    //    `query_workers` knob (0 = all cores, honoring TLSFP_THREADS)
    //    is pure throughput — decisions are bit-identical at every
    //    worker count, so we can prove it on the spot.
    println!("[5/5] batch serving through the concurrent fan-out…");
    adversary.set_query_workers(4);
    let batched = adversary.fingerprint_all(&test);
    adversary.set_query_workers(1);
    let serial = adversary.fingerprint_all(&test);
    assert_eq!(batched, serial, "worker count must never change decisions");
    println!(
        "      {} traces fingerprinted; 4-worker decisions == 1-worker decisions: {}",
        batched.len(),
        batched == serial
    );
    println!("\ndone.");
    Ok(())
}
