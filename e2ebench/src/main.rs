//! Pcap-to-decision benchmark for the tlsfp serving path.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload live|bulk_adapt|stream_early --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets up several times (reporting the median set-up
//! time), runs the workload through the front doors in several rounds
//! of `--seconds / ROUNDS` each, every round on a fresh copy of the
//! deployment, and prints the end-to-end metrics, each timing the best
//! of the rounds. `--trace 1` sets up once, runs one round
//! through the front doors and then again with every call split into
//! its layers under a span, checks the two agree bit for bit, and
//! prints the per-layer budget. The last stdout line is one JSON
//! object; a failed correctness check exits non-zero without it. See
//! `e2ebench/README.md` for the workloads and metrics.

mod bulk;
mod live;
mod serve;
mod setup;
mod spans;
mod stats;
mod stream;

use std::path::Path;
use std::time::Instant;

use tlsfp_core::open_world::PerClassThresholds;
use tlsfp_core::pipeline::AdaptiveFingerprinter;
use tlsfp_trace::tensorize::TensorConfig;

use crate::serve::{check_failed, merge_keep_ratio, Counters, Pass};
use crate::setup::Deployment;
use crate::spans::{Budget, Tracer};
use crate::stats::{mean, ratio, Samples};

const USAGE: &str =
    "usage: e2ebench --workload live|bulk_adapt|stream_early --seed N --seconds S --trace 0|1";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Measurement rounds per untraced run. Every timing is the best of its
/// per-round values, so machine noise that hits some rounds does not
/// move the result; the rounds' decisions must agree bit for bit.
const ROUNDS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Live,
    BulkAdapt,
    StreamEarly,
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = match name.as_str() {
        "live" => Workload::Live,
        "bulk_adapt" => Workload::BulkAdapt,
        "stream_early" => Workload::StreamEarly,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let number = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds,
        trace,
    })
}

/// A workload's generated traffic.
enum Inputs {
    Live(live::Inputs),
    BulkAdapt(bulk::Inputs),
    StreamEarly(stream::Inputs),
}

fn setup(w: Workload, seed: u64, seconds: f64) -> (Deployment, Inputs) {
    match w {
        Workload::Live => {
            let dep = Deployment::build(seed, &live::shape());
            let inputs = Inputs::Live(live::inputs(&dep, seed, seconds));
            (dep, inputs)
        }
        Workload::BulkAdapt => {
            let dep = Deployment::build(seed, &bulk::shape());
            let inputs = Inputs::BulkAdapt(bulk::inputs(&dep, seed, seconds));
            (dep, inputs)
        }
        Workload::StreamEarly => {
            let dep = Deployment::build(seed, &stream::shape());
            let inputs = Inputs::StreamEarly(stream::inputs(&dep, seed, seconds));
            (dep, inputs)
        }
    }
}

fn run(
    inputs: &Inputs,
    fp: &mut AdaptiveFingerprinter,
    radii: &PerClassThresholds,
    tensor: &TensorConfig,
    t: &mut Tracer,
) -> Pass {
    let pass = match inputs {
        Inputs::Live(i) => live::run(fp, radii, tensor, i, t),
        Inputs::BulkAdapt(i) => bulk::run(fp, radii, tensor, i, t),
        Inputs::StreamEarly(i) => stream::run(fp, radii, tensor, i, t),
    };
    if pass.refused != pass.injected {
        check_failed(&format!(
            "{} malformed pcaps injected but {} refused",
            pass.injected, pass.refused
        ));
    }
    pass
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            eprintln!("metric {name} is not finite ({value})");
            std::process::exit(1);
        }
        self.metrics.push((name, value, unit));
    }

    fn print(&self, attempted: usize, failed: usize) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.6} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

/// Peak resident set size (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

fn end_to_end(setup_s: &[f64], passes: &[Pass]) -> Report {
    for (i, pass) in passes.iter().enumerate() {
        println!("round {i}:");
        println!(
            "  {}",
            Samples::new(pass.latency_us.clone()).describe("latency", 99.0, "us")
        );
        println!(
            "  {}",
            Samples::new(pass.update_us.clone()).describe("update", 95.0, "us")
        );
    }
    let pass = &passes[0];
    println!(
        "decided {} loads ({} monitored, top-1 {:.4}; {} unmonitored) per round; set-ups {setup_s:?} s",
        pass.decided,
        pass.monitored,
        ratio(pass.correct as f64, pass.monitored as f64),
        pass.unmonitored,
    );
    // Every timing is the best of the rounds: a slowdown from outside
    // the program seldom hits every round, where a slowdown the program
    // causes does. The tails are printed above but not reported here:
    // the host's CPU steal moves them far more than any allowed bound,
    // so they are per-layer metrics of the traced run.
    let best_median = |f: fn(&Pass) -> &Vec<f64>| {
        passes
            .iter()
            .map(|x| Samples::new(f(x).clone()).pct(50.0))
            .fold(f64::INFINITY, f64::min)
    };
    let mut r = Report::default();
    r.add("setup_s", Samples::new(setup_s.to_vec()).pct(50.0), "s");
    r.add(
        "throughput_tps",
        passes
            .iter()
            .map(|x| ratio(x.decided as f64, x.busy_s))
            .fold(0.0, f64::max),
        "1/s",
    );
    r.add("latency_p50_us", best_median(|x| &x.latency_us), "us");
    r.add("update_p50_us", best_median(|x| &x.update_us), "us");
    r.add(
        "tpr",
        ratio(pass.accepted_monitored as f64, pass.monitored as f64),
        "fraction",
    );
    r.add(
        "fpr",
        ratio(pass.accepted_unmonitored as f64, pass.unmonitored as f64),
        "fraction",
    );
    r.add(
        "decision_fraction",
        ratio(pass.consumed_share, pass.decided as f64),
        "fraction",
    );
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    r
}

/// Stops the run unless two passes over the same inputs decided every
/// load, and left the store, identically.
fn check_agree(
    name: &str,
    what: &str,
    a: (&Pass, &AdaptiveFingerprinter),
    b: (&Pass, &AdaptiveFingerprinter),
) {
    if let Some(i) = (0..a.0.decisions.len().max(b.0.decisions.len()))
        .find(|&i| a.0.decisions.get(i) != b.0.decisions.get(i))
    {
        check_failed(&format!("{name}: decision {i} differs between {what}"));
    }
    if a.1.reference() != b.1.reference() {
        check_failed(&format!(
            "{name}: the store after the updates differs between {what}"
        ));
    }
}

/// The per-layer budget: span self times from the traced pass, counts
/// from the registry around the untraced pass.
fn per_layer(
    plain: &Pass,
    traced: &Pass,
    counters: &Counters,
    budget: &Budget,
    keep_ratio: f64,
) -> Report {
    let us = |name: &str| budget.self_us(name);
    let mut r = Report::default();
    for name in [
        "net.from_pcap",
        "trace.extract",
        "trace.tensorize",
        "nn.embed",
        "index.search",
        "core.vote",
        "core.decide_now",
    ] {
        println!("{}", us(name).describe(name, 99.0, "us"));
    }
    r.add("net.from_pcap_us_p50", us("net.from_pcap").pct(50.0), "us");
    r.add(
        "net.pcap_bytes_per_trace",
        ratio(traced.pcap_bytes as f64, traced.parsed as f64),
        "bytes",
    );
    r.add("net.pcaps_refused", traced.refused as f64, "count");
    r.add("trace.extract_us_p50", us("trace.extract").pct(50.0), "us");
    r.add(
        "trace.tensorize_us_p50",
        us("trace.tensorize").pct(50.0),
        "us",
    );
    r.add(
        "trace.steps_per_trace",
        ratio(traced.steps as f64, traced.parsed as f64),
        "steps",
    );
    r.add("nn.embed_us_p50", us("nn.embed").pct(50.0), "us");
    r.add("nn.embed_us_p99", us("nn.embed").pct(99.0), "us");
    let batch_embedded = (traced.batched + traced.update_traces) as f64;
    r.add(
        "nn.embed_batch_us_per_trace",
        ratio(us("nn.embed_batch").sum(), batch_embedded),
        "us",
    );
    r.add("nn.embed_traces", counters.embedded as f64, "count");
    let lookups = (counters.cache_hits + counters.cache_misses) as f64;
    r.add(
        "nn.weight_cache_hit_ratio",
        ratio(counters.cache_hits as f64, lookups),
        "ratio",
    );
    r.add("index.search_us_p50", us("index.search").pct(50.0), "us");
    r.add("index.search_us_p99", us("index.search").pct(99.0), "us");
    r.add("index.merge_keep_ratio", keep_ratio, "ratio");
    let queries = counters.sharded_queries as f64;
    r.add(
        "index.read_locks_per_query",
        ratio(counters.read_locks as f64, queries),
        "count",
    );
    r.add(
        "index.search_batch_us_per_query",
        ratio(us("index.search_batch").sum(), traced.batched as f64),
        "us",
    );
    r.add(
        "index.distance_evals_per_query",
        ratio(counters.distance_evals as f64, queries),
        "count",
    );
    r.add("index.sharded_queries", queries, "count");
    r.add("index.swap_us_p50", us("index.swap").pct(50.0), "us");
    r.add("index.swap_us_p95", us("index.swap").pct(95.0), "us");
    r.add("core.vote_us_p50", us("core.vote").pct(50.0), "us");
    r.add("core.vote_us_p99", us("core.vote").pct(99.0), "us");
    r.add(
        "core.feed_us_per_record",
        ratio(us("core.feed").sum(), traced.records_fed as f64),
        "us",
    );
    r.add(
        "core.finish_all_us_per_session",
        ratio(us("core.finish_all").sum(), traced.finished as f64),
        "us",
    );
    r.add(
        "core.decide_now_us_p50",
        us("core.decide_now").pct(50.0),
        "us",
    );
    r.add(
        "core.decide_now_us_p99",
        us("core.decide_now").pct(99.0),
        "us",
    );
    let sessions = traced.sessions as f64;
    r.add(
        "core.decides_per_session",
        ratio(traced.decides as f64, sessions),
        "count",
    );
    r.add(
        "core.latch_rate",
        ratio(traced.latched as f64, sessions),
        "fraction",
    );
    // Top-1 at k = 250 over thousands of unseen classes is a few
    // percent, so its spread across seeds is too wide to bound as an
    // end-to-end metric; it is reported here, unbounded.
    r.add(
        "core.top1_accuracy",
        ratio(traced.correct as f64, traced.monitored as f64),
        "fraction",
    );
    r.add(
        "loadgen.lag_p99_us",
        Samples::new(plain.lag_us.clone()).pct(99.0),
        "us",
    );
    // The end-to-end tails, from the untraced round.
    r.add(
        "e2e.latency_p99_us",
        Samples::new(plain.latency_us.clone()).pct(99.0),
        "us",
    );
    r.add(
        "e2e.update_p95_us",
        Samples::new(plain.update_us.clone()).pct(95.0),
        "us",
    );
    for (layer, name) in [
        ("net", "net.self_share"),
        ("trace", "trace.self_share"),
        ("nn", "nn.self_share"),
        ("index", "index.self_share"),
        ("core", "core.self_share"),
    ] {
        r.add(name, budget.layer_share(layer), "fraction");
    }
    r.add(
        "e2e.unaccounted_fraction",
        budget.unaccounted_fraction(),
        "fraction",
    );
    r.add(
        "e2e.trace_overhead_ratio",
        ratio(traced.work_s, plain.work_s),
        "ratio",
    );
    r
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let round_seconds = args.seconds as f64 / ROUNDS as f64;
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut built = None;
    for _ in 0..repeats {
        drop(built.take());
        let start = Instant::now();
        built = Some(setup(args.workload, args.seed, round_seconds));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (dep, inputs) = built.expect("at least one set-up");
    let Deployment { fp, radii, gen } = dep;
    let tensor = gen.tensor;
    drop(gen);

    if !args.trace {
        // Each round runs on a fresh copy; only the first round's store is
        // kept, and every later round is checked against it as it ends.
        let mut first_fp = fp.clone();
        let mut passes = vec![run(
            &inputs,
            &mut first_fp,
            &radii,
            &tensor,
            &mut Tracer::new(false),
        )];
        for _ in 1..ROUNDS {
            let mut round_fp = fp.clone();
            let pass = run(
                &inputs,
                &mut round_fp,
                &radii,
                &tensor,
                &mut Tracer::new(false),
            );
            check_agree(
                &args.name,
                "rounds",
                (&passes[0], &first_fp),
                (&pass, &round_fp),
            );
            passes.push(pass);
        }
        let attempted = passes.iter().map(|p| p.attempted).sum();
        let failed = passes.iter().map(|p| p.failed).sum();
        end_to_end(&setup_s, &passes).print(attempted, failed);
        return;
    }

    let keep_ratio = merge_keep_ratio(fp.k(), &fp.reference().shard_sizes());
    let mut plain_fp = fp.clone();
    let mut traced_fp = fp;
    let before = Counters::now();
    let plain = run(
        &inputs,
        &mut plain_fp,
        &radii,
        &tensor,
        &mut Tracer::new(false),
    );
    let counters = Counters::now().since(before);
    let mut tracer = Tracer::new(true);
    let traced = run(&inputs, &mut traced_fp, &radii, &tensor, &mut tracer);
    check_agree(
        &args.name,
        "the front door and the split calls",
        (&plain, &plain_fp),
        (&traced, &traced_fp),
    );
    let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", args.name));
    if let Err(e) = tracer.write_tsv(&spans_path) {
        eprintln!("could not write {}: {e}", spans_path.display());
    }
    let budget = Budget::new(tracer.spans());
    println!(
        "traced {} spans over {} requests; e2e {:.3} ms, unaccounted {:.3} ms; mean lag {:.1} us",
        tracer.spans().len(),
        tracer.spans().iter().filter(|s| s.parent.is_none()).count(),
        budget.e2e_ns as f64 / 1e6,
        budget.unaccounted_ns as f64 / 1e6,
        mean(&plain.lag_us),
    );
    per_layer(&plain, &traced, &counters, &budget, keep_ratio).print(
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
}
