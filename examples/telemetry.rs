//! The observability layer end to end: provision a sharded deployment,
//! serve a batch while the stage timers and backend counters record,
//! print the Prometheus exposition an operator would scrape, churn the
//! store and watch the per-shard gauges move, and prove on the spot
//! that switching telemetry off changes no decision.
//!
//! ```text
//! cargo run --release --example telemetry
//! ```
//!
//! See the "Observability" section of ARCHITECTURE.md for the full
//! metric inventory and the zero-perturbation contract.

use tlsfp::core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::tensorize::TensorConfig;
use tlsfp::web::corpus::CorpusSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const CLASSES: usize = 10;
    const TRACES_PER_CLASS: usize = 10;
    const SEED: u64 = 7;

    println!("== runtime telemetry ==\n");

    // 1. Provision a sharded deployment. Recording is on by default
    //    (one process-wide flag), so everything that follows records
    //    into the global registry.
    println!("[1/5] provisioning ({CLASSES} pages x {TRACES_PER_CLASS} visits, 3 shards)…");
    let spec = CorpusSpec::wiki_like(CLASSES, TRACES_PER_CLASS);
    let (_, dataset) = Dataset::generate(&spec, &TensorConfig::wiki(), SEED)?;
    let (reference, test) = dataset.split_per_class(0.25, SEED);
    let mut config = PipelineConfig::small();
    config.epochs = 12;
    config.pairs_per_epoch = 768;
    config.shards = 3;
    let mut adversary = AdaptiveFingerprinter::provision(&reference, &config, SEED)?;
    // Fresh window: observe serving, not training. Gauges are pushed on
    // mutation, so re-seed them from the store's current state.
    tlsfp::telemetry::reset();
    adversary.reference().publish_telemetry();

    // 2. Serve a batch through the concurrent fan-out. Every stage of
    //    the path — embed, fanout, shard_scan, merge, decide — runs
    //    under an RAII span, and each backend counts its queries and
    //    distance evaluations.
    println!("[2/5] serving {} traces…", test.len());
    adversary.set_query_workers(4);
    let n_served = adversary.fingerprint_all(&test).len();
    let snap = tlsfp::telemetry::global().snapshot();
    for stage in ["embed", "fanout", "shard_scan", "merge", "decide"] {
        if let Some(h) = snap.histogram(tlsfp::telemetry::STAGE_HISTOGRAM, &[("stage", stage)]) {
            println!(
                "      stage {stage:<10} spans={:<5} p50≈{:>9.0}ns p99≈{:>9.0}ns",
                h.count,
                h.percentile(50.0),
                h.percentile(99.0)
            );
        }
    }
    println!(
        "      {n_served} served; sharded queries: {}   distance evals: {}",
        snap.counter("tlsfp_queries_total", &[("backend", "sharded")])
            .unwrap_or(0),
        snap.counter("tlsfp_distance_evals_total", &[("backend", "sharded")])
            .unwrap_or(0),
    );

    // 3. Churn the store: drop one class, then watch the per-shard row
    //    gauges and the balance gauges follow the mutation — they are
    //    republished on every store mutation, allocation-free.
    let victim = 4usize;
    let owner = adversary.reference().shard_of(victim);
    println!("[3/5] removing page {victim} (shard {owner}) and re-reading the gauges…");
    let rows_before = snap
        .gauge("tlsfp_shard_rows", &[("shard", &owner.to_string())])
        .unwrap_or(0.0);
    let removed = adversary.remove_class(victim)?;
    let snap = tlsfp::telemetry::global().snapshot();
    let rows_after = snap
        .gauge("tlsfp_shard_rows", &[("shard", &owner.to_string())])
        .unwrap_or(0.0);
    println!(
        "      shard {owner} rows {rows_before} -> {rows_after} ({removed} removed); \
skew {:.2}, mutations {}",
        snap.gauge("tlsfp_store_shard_skew", &[]).unwrap_or(0.0),
        snap.counter("tlsfp_store_mutations_total", &[])
            .unwrap_or(0),
    );

    // 4. Export: the same snapshot renders as Prometheus text (what a
    //    scrape endpoint would serve) and as serde JSON (what the bench
    //    harness archives next to its figures).
    println!("[4/5] exporting the registry…");
    let text = snap.prometheus();
    let gauge_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("tlsfp_shard_rows") || l.contains("tlsfp_store_"))
        .collect();
    println!(
        "      Prometheus exposition ({} lines total):",
        text.lines().count()
    );
    for line in &gauge_lines {
        println!("        {line}");
    }
    let json = serde_json::to_string(&snap)?;
    println!("      JSON snapshot: {} bytes", json.len());

    // 5. The zero-perturbation contract, live: recording off, same
    //    bits. Only the recording is gated — nothing on the serving
    //    path ever branches on a recorded value.
    println!("[5/5] switching telemetry off and re-serving…");
    tlsfp::telemetry::set_enabled(false);
    let decisions_off = adversary.fingerprint_all(&test);
    tlsfp::telemetry::set_enabled(true);
    let decisions_on = adversary.fingerprint_all(&test);
    assert_eq!(decisions_off, decisions_on, "telemetry must never steer");
    println!(
        "      {} decisions, identical with recording on and off: true",
        decisions_off.len()
    );
    println!("\ndone.");
    Ok(())
}
