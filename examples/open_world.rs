//! Open-world fingerprinting (§VI-C): monitor a handful of pages of a
//! single-page application and reject loads of everything else —
//! other pages of the same site *and* a foreign video site.
//!
//! ```text
//! cargo run --release --example open_world
//! ```

use tlsfp::core::open_world::roc_auc;
use tlsfp::core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::tensorize::TensorConfig;
use tlsfp::web::corpus::{open_world_split, CorpusSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const CLASSES: usize = 20;
    const MONITORED: usize = 10;
    const TRACES_PER_CLASS: usize = 24;
    const SEED: u64 = 7;

    println!("== open-world fingerprinting: SPA corpus ==\n");

    // 1. Crawl an SPA-style site and partition its pages into a
    //    monitored set and an unmonitored open world.
    println!("[1/4] crawling a spa-like site ({CLASSES} pages x {TRACES_PER_CLASS} visits)…");
    let spec = CorpusSpec::spa_like(CLASSES, TRACES_PER_CLASS);
    let (_, dataset) = Dataset::generate(&spec, &TensorConfig::wiki(), SEED)?;
    let split = open_world_split(CLASSES, MONITORED, SEED)?;
    let monitored = dataset.subset_classes(&split.monitored)?;
    let unmonitored = dataset.subset_classes(&split.unmonitored)?;
    println!(
        "      monitoring {} pages; {} pages play the open world",
        split.monitored.len(),
        split.unmonitored.len()
    );

    // 2. Provision on monitored pages only; the unmonitored world is
    //    never seen in training.
    println!("[2/4] provisioning on the monitored set…");
    let (train, heldout) = monitored.split_per_class(0.3, SEED);
    let adversary = AdaptiveFingerprinter::provision(&train, &PipelineConfig::small(), SEED)?;

    // 3. Calibrate the rejection threshold on one half of the monitored
    //    hold-out, evaluate on the other half.
    let (eval, calib) = heldout.split_per_class(0.5, SEED + 1);
    let threshold = adversary.calibrate_rejection_threshold(&calib, 90.0)?;
    println!(
        "[3/4] calibrated rejection threshold: {:.6}",
        threshold.fallback
    );

    // 4. Open-world evaluation: same-site unmonitored pages, then a
    //    foreign site for contrast.
    println!("[4/4] evaluating detection…\n");
    let report = adversary.evaluate_open_world(&eval, &unmonitored, &threshold);
    println!(
        "      same-site open world: TPR={:.3} FPR={:.3} precision={:.3} AUC={:.3}",
        report.counts.tpr(),
        report.counts.fpr(),
        report.counts.precision(),
        roc_auc(&report.roc),
    );
    println!(
        "      accepted monitored loads classify at top-1 {:.3}",
        report.accepted_top1
    );

    let (_, foreign) = Dataset::generate(
        &CorpusSpec::video_like(10, 12),
        &TensorConfig::wiki(),
        SEED + 99,
    )?;
    let foreign_report = adversary.evaluate_open_world(&eval, &foreign, &threshold);
    println!(
        "      foreign-site open world: FPR={:.3} (easier: different theme and hosting)",
        foreign_report.counts.fpr()
    );
    Ok(())
}
