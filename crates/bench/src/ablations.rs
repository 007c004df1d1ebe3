//! Ablation studies over the design choices DESIGN.md calls out:
//! input encoding, byte-count scaling, quantization, kNN size,
//! contrastive margin, reference-set size and pair-mining strategy.

use serde::{Deserialize, Serialize};

use tlsfp_core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp_trace::dataset::Dataset;
use tlsfp_trace::tensorize::{ScaleMode, TensorConfig};
use tlsfp_web::corpus::{CorpusSpec, SyntheticCorpus};

use crate::experiments::Scale;

/// One ablation outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Study this row belongs to (e.g. "encoding").
    pub study: String,
    /// Variant label (e.g. "3-seq").
    pub variant: String,
    /// Top-1 accuracy.
    pub top1: f64,
    /// Top-3 accuracy.
    pub top3: f64,
}

fn eval_variant(
    study: &str,
    variant: &str,
    corpus: &SyntheticCorpus,
    tensor: &TensorConfig,
    pipeline: &PipelineConfig,
    test_fraction: f64,
    seed: u64,
) -> AblationRow {
    let ds = Dataset::from_corpus(corpus, tensor);
    let (train, test) = ds.split_per_class(test_fraction, seed);
    let fp = AdaptiveFingerprinter::provision(&train, pipeline, seed).expect("provision");
    let report = fp.evaluate(&test);
    AblationRow {
        study: study.into(),
        variant: variant.into(),
        top1: report.top_n_accuracy(1),
        top3: report.top_n_accuracy(3),
    }
}

/// Runs the full ablation grid; returns one row per variant.
pub fn run_ablations(scale: &Scale) -> Vec<AblationRow> {
    let classes = scale.known_sweep[scale.known_sweep.len() / 2];
    let corpus = SyntheticCorpus::generate(
        &CorpusSpec::wiki_like(classes, scale.traces_per_class),
        scale.seed + 8,
    )
    .expect("valid corpus");
    let base_tensor = TensorConfig::wiki();
    let base_pipeline = scale.pipeline.clone();
    let tf = scale.test_fraction;
    let seed = scale.seed;
    let mut rows = Vec::new();

    // 1. Encoding: multi-IP sequences vs collapsed up/down.
    rows.push(eval_variant(
        "encoding",
        "3-seq (per-IP)",
        &corpus,
        &base_tensor,
        &base_pipeline,
        tf,
        seed,
    ));
    let two = TensorConfig::two_seq();
    rows.push(eval_variant(
        "encoding",
        "2-seq (up/down)",
        &corpus,
        &two,
        &scale.pipeline_two_seq,
        tf,
        seed,
    ));

    // 2. Byte-count scaling.
    for (label, scale_mode) in [
        ("log cap 20M", ScaleMode::Log { cap: 20_000_000 }),
        ("linear cap 1M", ScaleMode::Linear { cap: 1_000_000 }),
    ] {
        let tensor = TensorConfig {
            scale: scale_mode,
            ..base_tensor
        };
        rows.push(eval_variant(
            "scaling",
            label,
            &corpus,
            &tensor,
            &base_pipeline,
            tf,
            seed,
        ));
    }

    // 3. Step order.
    for (label, reverse) in [("natural order", false), ("reversed", true)] {
        let tensor = TensorConfig {
            reverse,
            ..base_tensor
        };
        rows.push(eval_variant(
            "order",
            label,
            &corpus,
            &tensor,
            &base_pipeline,
            tf,
            seed,
        ));
    }

    // 4. Quantization bin.
    for bin in [1u32, 64, 4096] {
        let tensor = TensorConfig {
            quantize_bin: bin,
            ..base_tensor
        };
        rows.push(eval_variant(
            "quantization",
            &format!("bin {bin}"),
            &corpus,
            &tensor,
            &base_pipeline,
            tf,
            seed,
        ));
    }

    // 5. kNN size (classification only: reuse one trained model).
    {
        let ds = Dataset::from_corpus(&corpus, &base_tensor);
        let (train, test) = ds.split_per_class(tf, seed);
        let fp = AdaptiveFingerprinter::provision(&train, &base_pipeline, seed).expect("provision");
        for k in [3usize, 12, 50] {
            let mut variant = AdaptiveFingerprinter::from_trained(
                fp.embedder().clone(),
                k,
                base_pipeline.threads,
            )
            .expect("k > 0");
            variant.set_reference(&train).expect("reference");
            let report = variant.evaluate(&test);
            rows.push(AblationRow {
                study: "knn-k".into(),
                variant: format!("k = {k}"),
                top1: report.top_n_accuracy(1),
                top3: report.top_n_accuracy(3),
            });
        }

        // 6. Reference-set size (traces per class available to kNN).
        for per_class in [4usize, 8, usize::MAX] {
            let capped = if per_class == usize::MAX {
                train.clone()
            } else {
                train.cap_samples_per_class(per_class)
            };
            let mut variant = AdaptiveFingerprinter::from_trained(
                fp.embedder().clone(),
                base_pipeline.k,
                base_pipeline.threads,
            )
            .expect("k > 0");
            variant.set_reference(&capped).expect("reference");
            let report = variant.evaluate(&test);
            let label = if per_class == usize::MAX {
                "all reference traces".to_string()
            } else {
                format!("{per_class} refs/class")
            };
            rows.push(AblationRow {
                study: "reference-size".into(),
                variant: label,
                top1: report.top_n_accuracy(1),
                top3: report.top_n_accuracy(3),
            });
        }
    }

    // 7. Contrastive margin.
    for margin in [2.0f32, 4.0, 10.0] {
        let pipeline = PipelineConfig {
            margin,
            ..base_pipeline.clone()
        };
        rows.push(eval_variant(
            "margin",
            &format!("margin {margin}"),
            &corpus,
            &base_tensor,
            &pipeline,
            tf,
            seed,
        ));
    }

    // 8. Pair mining.
    for (label, semi_hard) in [("random pairs only", None), ("semi-hard after 6", Some(6))] {
        let pipeline = PipelineConfig {
            semi_hard_from_epoch: semi_hard,
            ..base_pipeline.clone()
        };
        rows.push(eval_variant(
            "pair-mining",
            label,
            &corpus,
            &base_tensor,
            &pipeline,
            tf,
            seed,
        ));
    }

    rows
}

/// Pretty-prints ablation rows grouped by study.
pub fn print_ablations(rows: &[AblationRow]) {
    let mut last_study = "";
    for row in rows {
        if row.study != last_study {
            println!("\n[{}]", row.study);
            last_study = &row.study;
        }
        println!(
            "  {:<24} top-1 {:.3}  top-3 {:.3}",
            row.variant, row.top1, row.top3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_smoke_covers_all_studies() {
        let mut scale = Scale::smoke();
        scale.known_sweep = vec![6];
        scale.pipeline.epochs = 4;
        scale.pipeline_two_seq.epochs = 4;
        let rows = run_ablations(&scale);
        let studies: std::collections::HashSet<&str> =
            rows.iter().map(|r| r.study.as_str()).collect();
        for s in [
            "encoding",
            "scaling",
            "order",
            "quantization",
            "knn-k",
            "reference-size",
            "margin",
            "pair-mining",
        ] {
            assert!(studies.contains(s), "missing study {s}");
        }
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.top1)));
    }
}
