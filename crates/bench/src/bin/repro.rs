//! Regenerates every table and figure of the paper at a chosen scale.
//!
//! ```text
//! repro <target> [--smoke|--full] [--seed N] [--json DIR]
//!
//! targets: fig6 fig7 table2 fig8 fig9 fig10 fig11 fig12 fig13 table3
//!          fig_open_world fig_early fig_index fig_embed fig_shard
//!          fig_quant fig_concurrent fig_telemetry fig_batchscan
//!          ablations all
//! ```
//!
//! An unknown target, an unknown flag or a malformed `--seed`/`--json`
//! prints the usage to stderr and exits with status 2, so a typo never
//! passes for a run that produced nothing.

use std::fs;
use std::path::PathBuf;

use tlsfp_bench::ablations::{print_ablations, run_ablations};
use tlsfp_bench::experiments::{
    print_cdf, print_fig_batchscan, print_fig_concurrent, print_fig_early, print_fig_embed,
    print_fig_index, print_fig_quant, print_fig_shard, print_fig_telemetry, print_open_world,
    print_series, run_fig12_13, run_fig6, run_fig7, run_fig8, run_fig9_to_11, run_fig_batchscan,
    run_fig_concurrent, run_fig_early, run_fig_embed, run_fig_index, run_fig_open_world,
    run_fig_quant, run_fig_shard, run_fig_telemetry, run_table3, Scale,
};

/// Every target `repro` accepts; the usage message prints this list.
const TARGETS: &str = "fig6 fig7 table2 fig8 fig9 fig10 fig11 fig12 fig13 table3 \
                       fig_open_world fig_early fig_index fig_embed fig_shard fig_quant \
                       fig_concurrent fig_telemetry fig_batchscan ablations all";

/// The parsed command line: one known target (default `all`), the
/// scale (`--full` wins over `--smoke`), an optional seed override and
/// an optional JSON output directory.
fn parse_args(args: &[String]) -> Result<(String, Scale, Option<PathBuf>), String> {
    let mut target = None;
    let (mut full, mut smoke) = (false, false);
    let mut seed = None;
    let mut json_dir = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--smoke" => smoke = true,
            "--seed" => {
                let value = it.next().and_then(|s| s.parse().ok());
                seed = Some(value.ok_or("--seed needs an unsigned integer")?);
            }
            "--json" => {
                json_dir = Some(PathBuf::from(it.next().ok_or("--json needs a directory")?))
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            name if target.is_none() && TARGETS.split_whitespace().any(|t| t == name) => {
                target = Some(name.to_string())
            }
            other => return Err(format!("unknown target or extra argument `{other}`")),
        }
    }
    let mut scale = if full {
        Scale::full()
    } else if smoke {
        Scale::smoke()
    } else {
        Scale::default_scale()
    };
    if let Some(seed) = seed {
        scale.seed = seed;
    }
    Ok((target.unwrap_or_else(|| "all".into()), scale, json_dir))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (target, scale, json_dir) = parse_args(&args).unwrap_or_else(|err| {
        eprintln!("repro: {err}");
        eprintln!("usage: repro <target> [--smoke|--full] [--seed N] [--json DIR]");
        eprintln!("targets: {TARGETS}");
        std::process::exit(2);
    });
    if let Some(dir) = &json_dir {
        fs::create_dir_all(dir).expect("create json output dir");
    }

    let write_json = |name: &str, value: &dyn erased::Jsonable| {
        if let Some(dir) = &json_dir {
            let path = dir.join(format!("{name}.json"));
            fs::write(&path, value.to_json()).expect("write json artifact");
            println!("  -> {}", path.display());
        }
    };

    let run_all = target == "all";
    let started = std::time::Instant::now();

    if run_all || target == "fig6" {
        println!("\n=== Figure 6 — Exp. 1: static webpage classification (known classes) ===");
        let result = run_fig6(&scale);
        for s in &result.series {
            print_series(s);
        }
        println!("  -- TLS 1.3 evaluation of the TLS 1.2-trained model --");
        print_series(&result.tls13);
        println!("  (provisioning took {:.1}s)", result.train_seconds);
        write_json("fig6", &result);
    }

    let mut fig7_cache = None;
    if run_all || target == "fig7" || target == "table2" {
        let result = run_fig7(&scale);
        if run_all || target == "fig7" {
            println!(
                "\n=== Figure 7 — Exp. 2: classes never seen during training (trained on {}) ===",
                result.train_classes
            );
            for s in &result.series {
                print_series(s);
            }
            write_json("fig7", &result);
        }
        fig7_cache = Some(result);
    }

    if run_all || target == "table2" {
        let result = fig7_cache.expect("fig7 ran");
        println!("\n=== Table II — smallest n reaching ~89-92% top-n accuracy ===");
        println!(
            "  {:<10} {:<6} {:<12} n/#classes %",
            "#classes", "n", "top-n acc"
        );
        for (classes, n, acc, pct) in &result.table2 {
            println!("  {classes:<10} {n:<6} {acc:<12.3} {pct:.2}%");
        }
        if result.table2.len() >= 2 {
            let first = &result.table2[0];
            let last = &result.table2[result.table2.len() - 1];
            let sublinear = (last.1 as f64 / first.1 as f64) < (last.0 as f64 / first.0 as f64);
            println!(
                "  n grew {}x while classes grew {}x -> sublinear: {}",
                last.1 as f64 / first.1 as f64,
                last.0 as f64 / first.0 as f64,
                sublinear
            );
        }
        write_json("table2", &result.table2);
    }

    if run_all || target == "fig8" {
        println!("\n=== Figure 8 — Exp. 3: TLS version & theme sensitivity (2-seq model) ===");
        let result = run_fig8(&scale);
        print_series(&result.wiki_baseline);
        for s in &result.github {
            print_series(s);
        }
        write_json("fig8", &result);
    }

    if run_all || ["fig9", "fig10", "fig11"].contains(&target.as_str()) {
        let result = run_fig9_to_11(&scale);
        if run_all || target == "fig9" {
            println!("\n=== Figure 9 — guess CDF per class (known classes) ===");
            for c in &result.fig9 {
                print_cdf(c);
            }
        }
        if run_all || target == "fig10" {
            println!("\n=== Figure 10 — guess CDF per class (unseen classes) ===");
            for c in &result.fig10 {
                print_cdf(c);
            }
        }
        if run_all || target == "fig11" {
            println!("\n=== Figure 11 — guess CDF per class (FL-padded traces) ===");
            for c in &result.fig11 {
                print_cdf(c);
            }
        }
        write_json("fig9_to_11", &result);
    }

    if run_all || target == "fig12" || target == "fig13" {
        let result = run_fig12_13(&scale);
        if run_all || target == "fig12" {
            println!("\n=== Figure 12 — FL padding vs none (known classes) ===");
            for s in &result.fig12 {
                print_series(s);
            }
        }
        if run_all || target == "fig13" {
            println!("\n=== Figure 13 — FL padding vs none (unseen classes) ===");
            for s in &result.fig13 {
                print_series(s);
            }
        }
        println!("  (FL bandwidth overhead: {:.2}x)", result.overhead_factor);
        write_json("fig12_13", &result);
    }

    if run_all || target == "table3" {
        println!("\n=== Table III — operational costs ===");
        let result = run_table3(&scale);
        println!("  measured on this machine:");
        println!(
            "  {:<32} {:>10} {:>14} {:>12} {:>10}",
            "system", "train (s)", "infer (s/tr)", "update (s)", "retrains?"
        );
        for m in &result.measured {
            println!(
                "  {:<32} {:>10.2} {:>14.5} {:>12.3} {:>10}",
                m.name,
                m.train_seconds,
                m.infer_seconds_per_trace,
                m.update_compute_seconds,
                if m.retrained { "yes" } else { "no" }
            );
        }
        println!("\n  top-1 accuracy on the shared split:");
        for (name, acc) in &result.accuracies {
            println!("    {name:<32} {acc:.3}");
        }
        println!("\n  analytic lifetime update cost (s) under the paper's crawl economics:");
        for (name, cost) in &result.lifetime_updates {
            println!("    {name:<32} {cost:>14.0}");
        }
        println!("\n  full Table III roster (from the paper):");
        println!(
            "    {:<26} {:<6} {:<14} {:<7} {:<11} {:<10} {:<9}",
            "system", "proto", "classes", "drift", "instances", "complexity", "retrains"
        );
        for p in tlsfp_baselines::cost::table3_systems() {
            println!(
                "    {:<26} {:<6} {:<14} {:<7} {:<11} {:<10} {:<9}",
                p.name,
                p.protocol,
                p.classes,
                if p.handles_drift { "yes" } else { "no" },
                format!("{}-{}", p.train_instances.0, p.train_instances.1),
                p.complexity.to_string(),
                if p.retraining_on_update { "yes" } else { "no" }
            );
        }
        write_json("table3", &result);
    }

    if run_all || target == "fig_open_world" {
        println!("\n=== Open world — §VI-C: rejecting unmonitored pages, all profiles ===");
        let result = run_fig_open_world(&scale);
        for p in &result.profiles {
            print_open_world(p);
        }
        write_json("fig_open_world", &result);
    }

    if run_all || target == "fig_early" {
        println!(
            "\n=== Early — streaming prefix decisions and calibrated early stop, all profiles ==="
        );
        let result = run_fig_early(&scale);
        for p in &result.profiles {
            print_fig_early(p);
        }
        write_json("fig_early", &result);
    }

    if run_all || target == "fig_index" {
        println!("\n=== Index — IVF candidate pruning vs exact flat scan, all profiles ===");
        let result = run_fig_index(&scale);
        for p in &result.profiles {
            print_fig_index(p);
        }
        write_json("fig_index", &result);
    }

    if run_all || target == "fig_embed" {
        println!("\n=== Embed — batched engine vs per-query loop, all profiles ===");
        let result = run_fig_embed(&scale);
        for p in &result.profiles {
            print_fig_embed(p);
        }
        write_json("fig_embed", &result);
    }

    if run_all || target == "fig_shard" {
        println!("\n=== Shard — sharded reference store vs the flat monolith ===");
        let result = run_fig_shard(&scale);
        for p in &result.points {
            print_fig_shard(p);
        }
        write_json("fig_shard", &result);
    }

    if run_all || target == "fig_quant" {
        println!("\n=== Quant — product-quantized shards vs the full-precision flat scan ===");
        let result = run_fig_quant(&scale);
        for p in &result.points {
            print_fig_quant(p);
        }
        write_json("fig_quant", &result);
    }

    if run_all || target == "fig_concurrent" {
        println!("\n=== Concurrent — shard-parallel query throughput vs worker count ===");
        let result = run_fig_concurrent(&scale);
        println!(
            "  classes={} n={} q={} k={} cores={}",
            result.n_classes,
            result.n_reference,
            result.n_queries,
            result.k,
            result.available_cores
        );
        for p in &result.points {
            print_fig_concurrent(p);
        }
        write_json("fig_concurrent", &result);
    }

    if run_all || target == "fig_batchscan" {
        println!("\n=== Batch scan — blocked distance kernels vs single queries ===");
        let result = run_fig_batchscan(&scale);
        println!(
            "  k={} refs/class={} cores={}",
            result.k, result.refs_per_class, result.available_cores
        );
        for p in &result.points {
            print_fig_batchscan(p);
        }
        write_json("fig_batchscan", &result);
    }

    if run_all || target == "fig_telemetry" {
        println!("\n=== Telemetry — observability-layer overhead and stage latency ===");
        let result = run_fig_telemetry(&scale);
        print_fig_telemetry(&result);
        write_json("fig_telemetry", &result);
    }

    if run_all || target == "ablations" {
        println!("\n=== Ablations — design-choice studies ===");
        let rows = run_ablations(&scale);
        print_ablations(&rows);
        write_json("ablations", &rows);
    }

    println!(
        "\ntotal wall-clock: {:.1}s",
        started.elapsed().as_secs_f64()
    );
}

/// Tiny type-erasure helper so every result struct can be dumped to
/// JSON through one closure.
mod erased {
    pub trait Jsonable {
        fn to_json(&self) -> String;
    }
    impl<T: serde::Serialize> Jsonable for T {
        fn to_json(&self) -> String {
            serde_json::to_string_pretty(self).expect("serializable result")
        }
    }
}
