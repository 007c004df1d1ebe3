//! `bulk_adapt`: offline batches of 64 pcaps through
//! `fingerprint_with_score_all` on the one-shard layout, with one
//! `update_class` between batches that swaps a class to loads of its
//! drifted page; later queries for that class come from the drifted
//! page. Batch embedding and the blocked scan do most of the work and
//! the merge is bypassed (one shard); the writes show whether a
//! read-side gain costs adaptation.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use tlsfp_core::knn::{rank_search, ScoredPrediction};
use tlsfp_core::open_world::PerClassThresholds;
use tlsfp_core::pipeline::AdaptiveFingerprinter;
use tlsfp_net::capture::Capture;
use tlsfp_trace::dataset::Dataset;
use tlsfp_trace::sequence::IpSequences;
use tlsfp_trace::tensorize::TensorConfig;

use crate::serve::{accept, check_failed, same, unobserved, update, Decision, Pass};
use crate::setup::{sub_seed, Deployment, Load, Shape, Update, THREADS};
use crate::spans::Tracer;

const BATCH: usize = 64;
/// Batches per second of `--seconds`; the work is fixed so quality
/// figures repeat exactly at a fixed seed.
const BATCHES_PER_S: f64 = 38.0;
/// Enough batches (and so updates) that p95 has ten samples beyond it.
const MIN_BATCHES: usize = 200;
/// Distinct page loads the batches cycle through.
const POOL: usize = 2048;
/// Positions of each batch re-checked against per-trace
/// `fingerprint_with_score`.
const CHECKED: [usize; 2] = [5, 42];

pub fn shape() -> Shape {
    Shape {
        shards: 1,
        ..crate::live::shape()
    }
}

/// A pooled query: the original load and, for monitored classes, a
/// load of the drifted page served once the class has been updated.
struct Query {
    load: Load,
    drifted: Option<Load>,
}

pub struct Inputs {
    pool: Vec<Query>,
    batches: usize,
    /// `updates[b]` runs after batch `b`.
    updates: Vec<Update>,
}

pub fn inputs(dep: &Deployment, seed: u64, seconds: f64) -> Inputs {
    let gen = &dep.gen;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 20));
    let pool: Vec<Query> = (0..POOL)
        .map(|i| {
            let label = gen.mixed_label(i, &mut rng);
            Query {
                load: gen.encoded(label, false, &mut rng),
                drifted: label.map(|_| gen.encoded(label, true, &mut rng)),
            }
        })
        .collect();
    let batches = ((BATCHES_PER_S * seconds).ceil() as usize).max(MIN_BATCHES);
    // Update the pool's monitored classes in order of appearance, so
    // the drift shows up in later batches.
    let mut classes: Vec<usize> = Vec::new();
    for q in &pool {
        if let Some(c) = q.load.label {
            if !classes.contains(&c) {
                classes.push(c);
            }
        }
    }
    let order: Vec<usize> = (0..batches).map(|b| classes[b % classes.len()]).collect();
    Inputs {
        pool,
        batches,
        updates: gen.updates(&order, &mut rng),
    }
}

/// One batch's decisions: through `fingerprint_with_score_all`, or
/// traced and split into the layers it calls.
fn serve(
    fp: &AdaptiveFingerprinter,
    tensor: &TensorConfig,
    loads: &[&Load],
    t: &mut Tracer,
    pass: &mut Pass,
) -> Option<(Dataset, Vec<ScoredPrediction>)> {
    // Labels are ignored by the batch path; unmonitored loads take 0.
    let mut ds = Dataset::new(
        fp.reference().n_classes(),
        tensor.channels,
        tensor.max_steps,
    );
    for load in loads {
        match t.span("net.from_pcap", || {
            Capture::from_pcap(&load.pcap, load.client)
        }) {
            Ok(capture) => {
                let ips = t.span("trace.extract", || IpSequences::extract(&capture));
                let seq = t.span("trace.tensorize", || tensor.tensorize(&ips));
                pass.parsed += 1;
                pass.pcap_bytes += load.pcap.len();
                pass.steps += seq.steps();
                ds.push(load.label.unwrap_or(0), seq)
                    .expect("label and shape in range");
            }
            Err(e) => {
                eprintln!("valid pcap refused: {e}");
                return None;
            }
        }
    }
    let scored = if t.is_on() {
        let embs = t.span("nn.embed_batch", || {
            fp.embedder()
                .embed_batch_with(ds.seqs(), THREADS, |rows| rows.to_vecs())
        });
        let results = t.span("index.search_batch", || {
            fp.reference()
                .search_batch_concurrent(&embs, fp.k(), THREADS)
        });
        results
            .into_iter()
            .map(|r| t.span("core.vote", || rank_search(r)))
            .collect()
    } else {
        fp.fingerprint_with_score_all(&ds)
    };
    Some((ds, scored))
}

pub fn run(
    fp: &mut AdaptiveFingerprinter,
    radii: &PerClassThresholds,
    tensor: &TensorConfig,
    inputs: &Inputs,
    t: &mut Tracer,
) -> Pass {
    let mut pass = Pass::default();
    let mut updated = vec![false; fp.reference().n_classes()];
    for b in 0..inputs.batches {
        let loads: Vec<&Load> = (0..BATCH)
            .map(|j| {
                let q = &inputs.pool[(b * BATCH + j) % POOL];
                match (&q.drifted, q.load.label) {
                    (Some(d), Some(c)) if updated[c] => d,
                    _ => &q.load,
                }
            })
            .collect();
        let began = Instant::now();
        t.enter("batch");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let out = serve(fp, tensor, &loads, t, &mut pass)?;
            let accepted: Vec<bool> = out
                .1
                .iter()
                .map(|s| t.span("core.accept", || accept(radii, s)))
                .collect();
            Some((out, accepted))
        }));
        t.close_all();
        let us = began.elapsed().as_secs_f64() * 1e6;
        pass.attempted += loads.len();
        pass.busy_s += us / 1e6;
        pass.work_s += us / 1e6;
        match outcome {
            Ok(Some(((ds, scored), accepted))) => {
                pass.batched += ds.len();
                for ((load, s), &ok) in loads.iter().zip(&scored).zip(&accepted) {
                    pass.latency_us.push(us);
                    pass.decide(load.label, s.prediction.top(), ok, 1.0);
                    pass.decisions.push(Decision::of(s, ok));
                }
                if !t.is_on() {
                    for &i in &CHECKED {
                        let single = unobserved(|| fp.fingerprint_with_score(&ds.seqs()[i]));
                        if !same(&single, &scored[i]) {
                            check_failed(&format!(
                                "bulk_adapt batch {b}: trace {i} differs from per-trace fingerprint_with_score"
                            ));
                        }
                    }
                }
            }
            _ => pass.failed += loads.len(),
        }
        // Writes sit between the reads, so they count against
        // throughput.
        let u = &inputs.updates[b];
        pass.busy_s += update(fp, u, t, &mut pass);
        updated[u.class] = true;
    }
    pass
}
