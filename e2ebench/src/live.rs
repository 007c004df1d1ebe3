//! `live`: an open loop. Single pcaps arrive on a fixed schedule from a
//! 1:1 mix of monitored and unmonitored page loads; each is parsed,
//! featurized, embedded alone and decided by `fingerprint_with_score`
//! plus the per-class-radius accept rule. Per-query fixed costs — the
//! fan-out over ~45 shards, the merge, the k = 250 vote and
//! batch-of-one embedding — do most of the work here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use tlsfp_core::knn::{rank_search, ScoredPrediction};
use tlsfp_core::open_world::PerClassThresholds;
use tlsfp_core::pipeline::AdaptiveFingerprinter;
use tlsfp_net::capture::Capture;
use tlsfp_net::NetError;
use tlsfp_trace::sequence::IpSequences;
use tlsfp_trace::tensorize::TensorConfig;

use crate::serve::{accept, update, Decision, Pass};
use crate::setup::{corrupt, sub_seed, Deployment, Load, Shape, Update, THREADS};
use crate::spans::Tracer;

/// Requests per second: well below the serving path's capacity on the
/// benchmark machine, so latency is service time plus small stalls.
const RATE_PER_S: f64 = 200.0;
/// Enough requests that, net of the malformed ones, p99 has ten
/// decisions beyond it.
const MIN_REQUESTS: usize = 1050;
/// Every this-many-th request carries a broken pcap (4%).
const MALFORMED_EVERY: usize = 25;
/// Updates timed per round, one after every [`UPDATE_EVERY`] requests.
const UPDATES: usize = 200;
const UPDATE_EVERY: usize = 5;

pub fn shape() -> Shape {
    Shape {
        monitored: 2000,
        unmonitored: 1000,
        ref_loads: 8,
        calib_loads: 3,
        k: 250,
        shards: 0,
    }
}

pub struct Inputs {
    requests: Vec<Load>,
    updates: Vec<Update>,
}

pub fn inputs(dep: &Deployment, seed: u64, seconds: f64) -> Inputs {
    let gen = &dep.gen;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 10));
    let n = ((RATE_PER_S * seconds).ceil() as usize).max(MIN_REQUESTS);
    let requests = (0..n)
        .map(|i| {
            let label = gen.mixed_label(i, &mut rng);
            let mut load = gen.encoded(label, false, &mut rng);
            if i % MALFORMED_EVERY == MALFORMED_EVERY - 1 {
                corrupt(&mut load, i / MALFORMED_EVERY);
            }
            load
        })
        .collect();
    let classes: Vec<usize> = (0..UPDATES).map(|u| u % gen.monitored()).collect();
    Inputs {
        requests,
        updates: gen.updates(&classes, &mut rng),
    }
}

/// What one request's parse produced, for the per-layer counts.
struct Parsed {
    bytes: usize,
    steps: usize,
}

/// Parse, featurize and decide one pcap: through the front door, or
/// traced and split into the layers the front door calls.
fn serve(
    fp: &AdaptiveFingerprinter,
    radii: &PerClassThresholds,
    tensor: &TensorConfig,
    req: &Load,
    t: &mut Tracer,
) -> Result<(ScoredPrediction, bool, Parsed), NetError> {
    let capture = t.span("net.from_pcap", || {
        Capture::from_pcap(&req.pcap, req.client)
    })?;
    let seqs = t.span("trace.extract", || IpSequences::extract(&capture));
    let seq = t.span("trace.tensorize", || tensor.tensorize(&seqs));
    let scored = if t.is_on() {
        let emb = t.span("nn.embed", || fp.embedder().embed(&seq));
        let result = t.span("index.search", || {
            fp.reference().search_concurrent(&emb, fp.k(), THREADS)
        });
        t.span("core.vote", || rank_search(result))
    } else {
        fp.fingerprint_with_score(&seq)
    };
    let accepted = t.span("core.accept", || accept(radii, &scored));
    let parsed = Parsed {
        bytes: req.pcap.len(),
        steps: seq.steps(),
    };
    Ok((scored, accepted, parsed))
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(400);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

pub fn run(
    fp: &mut AdaptiveFingerprinter,
    radii: &PerClassThresholds,
    tensor: &TensorConfig,
    inputs: &Inputs,
    t: &mut Tracer,
) -> Pass {
    let mut pass = Pass::default();
    let period = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let start = Instant::now() + period;
    for (i, req) in inputs.requests.iter().enumerate() {
        let due = start + period * i as u32;
        wait_until(due);
        let began = Instant::now();
        t.enter("request");
        let outcome = catch_unwind(AssertUnwindSafe(|| serve(fp, radii, tensor, req, t)));
        t.close_all();
        let end = Instant::now();
        pass.attempted += 1;
        pass.injected += usize::from(req.malformed);
        pass.busy_s += (end - began).as_secs_f64();
        pass.work_s += (end - began).as_secs_f64();
        pass.lag_us.push((began - due).as_secs_f64() * 1e6);
        match outcome {
            Err(_) => pass.failed += 1,
            Ok(Err(_)) if req.malformed => pass.refused += 1,
            Ok(Err(e)) => {
                eprintln!("request {i}: valid pcap refused: {e}");
                pass.failed += 1;
            }
            Ok(Ok(_)) if req.malformed => {
                eprintln!("request {i}: malformed pcap accepted");
                pass.failed += 1;
            }
            Ok(Ok((scored, accepted, parsed))) => {
                pass.latency_us.push((end - due).as_secs_f64() * 1e6);
                pass.parsed += 1;
                pass.pcap_bytes += parsed.bytes;
                pass.steps += parsed.steps;
                pass.decide(req.label, scored.prediction.top(), accepted, 1.0);
                pass.decisions.push(Decision::of(&scored, accepted));
            }
        }
        // An update runs in the idle time after every UPDATE_EVERY-th
        // request, so updates sample the whole round, not one burst.
        if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
            if let Some(u) = inputs.updates.get(i / UPDATE_EVERY) {
                update(fp, u, t, &mut pass);
            }
        }
    }
    pass
}
