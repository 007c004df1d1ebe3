//! `stream_early`: a watchlist of 100 monitored pages on one shard at
//! the small preset's k, with per-class radii. Waves of concurrent
//! sessions mix monitored and unmonitored loads; their records are
//! interleaved by capture timestamp and fed one at a time. Each session
//! calls `decide_now` under an `EarlyStopPolicy` every 16 of its
//! records and is fed nothing more once it latches; the rest settle
//! through `finish_all`. Streaming state, the batch-of-one dense stack
//! and many small scans do the work; large scans and the merge are
//! almost absent.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use tlsfp_core::knn::ScoredPrediction;
use tlsfp_core::open_world::PerClassThresholds;
use tlsfp_core::pipeline::AdaptiveFingerprinter;
use tlsfp_core::streaming::{EarlyStopPolicy, StreamingSession};
use tlsfp_net::capture::{Capture, Packet};
use tlsfp_trace::tensorize::TensorConfig;

use crate::serve::{accept, check_failed, same, unobserved, update, Decision, Pass};
use crate::setup::{featurize, sub_seed, Deployment, Load, Shape, Update};
use crate::spans::Tracer;

/// Concurrent sessions per wave.
const SESSIONS: usize = 32;
/// Each session's records are offset by this much trace time per
/// session index, so the wave's records interleave.
const STAGGER_US: u64 = 20_000;
/// A session decides after every this-many of its records.
const DECIDE_EVERY: usize = 16;
/// Waves per second of `--seconds`; fixed work, so quality figures
/// repeat exactly at a fixed seed.
const WAVES_PER_S: f64 = 45.0;
/// Distinct waves generated; the run cycles through them.
const DISTINCT_WAVES: usize = 128;
/// Updates timed per round, one after each of the first waves; also
/// the floor on waves per round.
const UPDATES: usize = 200;
/// The early-stop policy: the open-world accept rule (no extra margin)
/// once the prefix has two tensor steps.
const MARGIN: f32 = 0.0;
const MIN_STEPS: usize = 2;

pub fn shape() -> Shape {
    Shape {
        monitored: 100,
        unmonitored: 400,
        ref_loads: 16,
        // Many held-out loads per class: how early sessions latch
        // depends on the radii, so they must not vary across seeds.
        calib_loads: 16,
        k: tlsfp_core::pipeline::PipelineConfig::small().k,
        shards: 1,
    }
}

/// One wave: its loads and the order their records arrive in, as
/// `(session, record index)`.
struct Wave {
    loads: Vec<Load>,
    order: Vec<(usize, usize)>,
}

pub struct Inputs {
    waves: Vec<Wave>,
    /// Waves streamed, cycling through `waves`.
    streamed: usize,
    updates: Vec<Update>,
}

pub fn inputs(dep: &Deployment, seed: u64, seconds: f64) -> Inputs {
    let gen = &dep.gen;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 30));
    let streamed = ((WAVES_PER_S * seconds).ceil() as usize).max(UPDATES);
    let waves = (0..streamed.min(DISTINCT_WAVES))
        .map(|_| {
            let loads: Vec<Load> = (0..SESSIONS)
                .map(|s| {
                    let label = gen.mixed_label(s, &mut rng);
                    gen.encoded(label, false, &mut rng)
                })
                .collect();
            // The arrival order only depends on the generated captures,
            // so it is fixed here rather than on the timed path.
            let mut arrivals: Vec<(u64, usize, usize)> = Vec::new();
            for (s, load) in loads.iter().enumerate() {
                let capture = Capture::from_pcap(&load.pcap, load.client).expect("valid pcap");
                for (r, p) in capture.packets.iter().enumerate() {
                    arrivals.push((p.timestamp_us + s as u64 * STAGGER_US, s, r));
                }
            }
            arrivals.sort_unstable();
            Wave {
                loads,
                order: arrivals.into_iter().map(|(_, s, r)| (s, r)).collect(),
            }
        })
        .collect();
    let classes: Vec<usize> = (0..UPDATES).map(|u| u % gen.monitored()).collect();
    Inputs {
        waves,
        streamed,
        updates: gen.updates(&classes, &mut rng),
    }
}

/// What one wave produced: every session's decision with the share of
/// its records consumed, every parsed capture, and the sessions
/// `finish_all` settled, for the check.
struct WaveOut {
    outcomes: Vec<(Decision, f64)>,
    captures: Vec<Capture>,
    settled: Vec<(usize, ScoredPrediction)>,
}

fn wave(
    fp: &AdaptiveFingerprinter,
    policy: &EarlyStopPolicy,
    tensor: &TensorConfig,
    wave: &Wave,
    t: &mut Tracer,
    pass: &mut Pass,
) -> WaveOut {
    let mut captures: Vec<Capture> = Vec::with_capacity(wave.loads.len());
    let mut sessions: Vec<Option<StreamingSession>> = Vec::with_capacity(wave.loads.len());
    for load in &wave.loads {
        let capture = t
            .span("net.from_pcap", || {
                Capture::from_pcap(&load.pcap, load.client)
            })
            .expect("generated pcaps parse");
        pass.parsed += 1;
        pass.pcap_bytes += load.pcap.len();
        sessions.push(Some(t.span("core.start_session", || {
            fp.start_session(*tensor, load.client)
        })));
        captures.push(capture);
    }
    let n = sessions.len();
    let mut outcomes: Vec<Option<(Decision, f64)>> = vec![None; n];
    let mut fed = vec![0usize; n];
    for &(s, r) in &wave.order {
        let Some(session) = sessions[s].as_mut() else {
            continue;
        };
        let packet: Packet = captures[s].packets[r];
        t.span("core.feed", || fp.feed(session, packet));
        fed[s] += 1;
        pass.records_fed += 1;
        if fed[s].is_multiple_of(DECIDE_EVERY) {
            let start = Instant::now();
            let d = t.span("core.decide_now", || fp.decide_now(session, Some(policy)));
            pass.latency_us.push(start.elapsed().as_secs_f64() * 1e6);
            pass.decides += 1;
            if let (true, Some(e)) = (d.accepted, session.early_decision()) {
                let latched = Decision {
                    ranked: vec![e.class],
                    votes: Vec::new(),
                    score_bits: e.score.to_bits(),
                    accepted: true,
                    records: e.records,
                };
                outcomes[s] = Some((latched, e.records as f64 / captures[s].len() as f64));
                sessions[s] = None;
                pass.latched += 1;
            }
        }
    }
    let rest: Vec<usize> = (0..n).filter(|&s| sessions[s].is_some()).collect();
    let mut settled = Vec::with_capacity(rest.len());
    if !rest.is_empty() {
        let settling: Vec<StreamingSession> =
            rest.iter().filter_map(|&s| sessions[s].take()).collect();
        let scored = t.span("core.finish_all", || fp.finish_all(settling));
        pass.finished += rest.len();
        for (&s, scored) in rest.iter().zip(scored) {
            let accepted = t.span("core.accept", || accept(&policy.radii, &scored));
            let mut settled_bits = Decision::of(&scored, accepted);
            settled_bits.records = fed[s];
            outcomes[s] = Some((settled_bits, 1.0));
            settled.push((s, scored));
        }
    }
    pass.sessions += n;
    WaveOut {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every session decided"))
            .collect(),
        captures,
        settled,
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
    let policy = EarlyStopPolicy::new(radii.clone(), MARGIN, MIN_STEPS);
    for (w, wv) in inputs
        .waves
        .iter()
        .cycle()
        .take(inputs.streamed)
        .enumerate()
    {
        let began = Instant::now();
        t.enter("wave");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            wave(fp, &policy, tensor, wv, t, &mut pass)
        }));
        t.close_all();
        let secs = began.elapsed().as_secs_f64();
        pass.busy_s += secs;
        pass.work_s += secs;
        pass.attempted += wv.loads.len();
        let Ok(out) = outcome else {
            eprintln!("stream_early wave {w} panicked");
            pass.failed += wv.loads.len();
            continue;
        };
        for (load, (bits, share)) in wv.loads.iter().zip(out.outcomes) {
            pass.decide(
                load.label,
                bits.ranked.first().copied(),
                bits.accepted,
                share,
            );
            pass.decisions.push(bits);
        }
        // A session that never latched was fed its whole trace, so it
        // must settle exactly as the batch path scores that trace.
        for (s, scored) in &out.settled {
            let capture = &out.captures[*s];
            let batch = unobserved(|| fp.fingerprint_with_score(&featurize(tensor, capture)));
            if !same(&batch, scored) {
                check_failed(&format!(
                    "stream_early wave {w}: a session settled differently from the batch path"
                ));
            }
        }
        // One update between waves, so updates sample the whole round.
        if let Some(u) = inputs.updates.get(w) {
            update(fp, u, t, &mut pass);
        }
    }
    pass
}
