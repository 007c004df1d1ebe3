//! The index subsystem end to end: provision a deployment on the exact
//! flat backend, convert it to an IVF index, adapt it incrementally
//! (class swap + brand-new page), serve open-world queries, and
//! finally compress the store with product quantization — all without
//! retraining the embedder.
//!
//! ```text
//! cargo run --release --example ann_index
//! ```

use tlsfp::core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp::core::IndexConfig;
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::tensorize::TensorConfig;
use tlsfp::web::corpus::CorpusSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const CLASSES: usize = 10;
    const TRACES_PER_CLASS: usize = 14;
    const SEED: u64 = 7;

    println!("== nearest-neighbor index subsystem ==\n");

    // 1. Provision on a wiki-like corpus. The default serving index is
    //    the exact flat scan — every decision identical to brute force.
    println!("[1/5] provisioning ({CLASSES} pages x {TRACES_PER_CLASS} visits, flat index)…");
    let spec = CorpusSpec::wiki_like(CLASSES, TRACES_PER_CLASS);
    let (_, dataset) = Dataset::generate(&spec, &TensorConfig::wiki(), SEED)?;
    let (reference, test) = dataset.split_per_class(0.25, SEED);
    // A scaled-down training budget keeps the walkthrough in the
    // seconds range; accuracy is not the point here.
    let mut config = PipelineConfig::small();
    config.epochs = 10;
    config.pairs_per_epoch = 768;
    config.batch_size = 96;
    let mut adversary = AdaptiveFingerprinter::provision(&reference, &config, SEED)?;
    let flat_top1 = adversary.evaluate(&test).top_n_accuracy(1);
    println!(
        "      flat backend: {} reference vectors, top-1 {:.3}",
        adversary.reference().len(),
        flat_top1
    );

    // 2. Switch the serving path to an IVF index. The coarse quantizer
    //    trains once here; queries then probe a few inverted lists
    //    instead of scanning everything.
    println!("[2/5] converting to an IVF index…");
    adversary.set_index(IndexConfig::ivf_default());
    let ivf_top1 = adversary.evaluate(&test).top_n_accuracy(1);
    let probe_result = adversary.reference().search_concurrent(
        &adversary.embed_all(&test.seqs()[..1])[0],
        adversary.k(),
        1,
    );
    println!(
        "      IVF backend: top-1 {:.3} (flat {:.3}), one query costs {} distance evals of {} vectors",
        ivf_top1,
        flat_top1,
        probe_result.distance_evals,
        adversary.reference().len()
    );

    // 3. Adapt incrementally: page 3 changed its content (swap its
    //    reference embeddings), and a brand-new page joins the
    //    monitored set. The quantizer is untouched — vectors are
    //    reassigned to lists in place.
    println!("[3/5] adapting: swapping page 3, adding a new page…");
    let fresh: Vec<_> = test
        .iter()
        .filter(|(l, _)| *l == 3)
        .map(|(_, s)| s.clone())
        .collect();
    let swapped = adversary.update_class(3, &fresh)?;
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
    println!(
        "      swapped {swapped} embeddings of page 3; page {new_id} now monitored ({} vectors indexed)",
        adversary.reference().len()
    );

    // 4. Open-world queries through the pruned index: calibrate a
    //    rejection threshold, then fingerprint a monitored load and a
    //    foreign-site load.
    println!("[4/5] open-world queries through the IVF index…");
    let threshold = adversary.calibrate_rejection_threshold(&test, 95.0)?;
    let accepted = test
        .seqs()
        .iter()
        .filter(|t| adversary.fingerprint_open_world(t, &threshold).is_some())
        .count();
    println!(
        "      monitored loads   -> {accepted}/{} accepted and classified",
        test.len()
    );
    let (_, foreign) = Dataset::generate(
        &CorpusSpec::video_like(4, 2),
        &TensorConfig::wiki(),
        SEED + 2,
    )?;
    let rejected = foreign
        .seqs()
        .iter()
        .filter(|t| adversary.fingerprint_open_world(t, &threshold).is_none())
        .count();
    println!(
        "      foreign site      -> {rejected}/{} loads rejected as outliers",
        foreign.len()
    );

    // 5. Compress the store with product quantization. Each embedding
    //    shrinks from dim x 4 bytes to a few code bytes in the scan
    //    working set; an exact re-rank of the top ADC candidates keeps
    //    reported distances (and usually decisions) exact.
    println!("[5/5] compressing the store with product quantization…");
    // Exact baseline on the *adapted* store, so the comparison isolates
    // quantization (the step-1 number predates the class swap/add).
    adversary.set_index(IndexConfig::Flat);
    let exact_top1 = adversary.evaluate(&test).top_n_accuracy(1);
    adversary.set_index(IndexConfig::pq_default());
    let pq_top1 = adversary.evaluate(&test).top_n_accuracy(1);
    let dim = adversary.reference().dim();
    let code_bytes = tlsfp::index::PqParams::auto().resolved_m(dim);
    println!(
        "      PQ backend: top-1 {:.3} (exact {:.3}), {} -> {} bytes/embedding in the scan ({}x smaller)",
        pq_top1,
        exact_top1,
        dim * 4,
        code_bytes,
        dim * 4 / code_bytes.max(1)
    );

    Ok(())
}
