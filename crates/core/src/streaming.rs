//! Streaming early classification: fold TLS records into a per-session
//! incremental state as they arrive and decide at any prefix.
//!
//! The paper's serving story is an attacker observing records *as they
//! arrive*; all the other serving paths consume complete traces. A
//! [`StreamingSession`] replays the Figure 4 featurization
//! (`IpSequences::extract` → `to_channels` → `TensorConfig::tensorize`)
//! one record at a time, keeps a live LSTM fold
//! (`SequenceEmbedder::stream_fold`), and can emit a
//! `(classification, outlier score, confidence)` at any point —
//! [`AdaptiveFingerprinter::decide_now`] — without consuming the
//! session. Pair it with an [`EarlyStopPolicy`] (per-class radii
//! calibrated exactly like the open-world thresholds, minus a safety
//! margin) and the session latches its first confident decision.
//!
//! ## Determinism contract
//!
//! Chunking-invariance: however the trace's records are split across
//! [`AdaptiveFingerprinter::feed`] / [`AdaptiveFingerprinter::feed_chunk`]
//! calls, the session state after the last record is identical, and a
//! [`AdaptiveFingerprinter::decide_now`] at the full prefix is
//! **bit-identical** (ranked labels, votes, score bits, neighbor
//! order) to the batch [`AdaptiveFingerprinter::fingerprint_with_score`]
//! of the completed trace. [`AdaptiveFingerprinter::finish`] /
//! [`AdaptiveFingerprinter::finish_all`] route the accumulated capture
//! through the existing batched embed + sharded blocked-scan path, so
//! finished sessions are bit-identical to
//! [`AdaptiveFingerprinter::fingerprint_all`] by construction. The
//! proptest battery in `tests/streaming_props.rs` pins all of this
//! across the five corpus profiles × worker counts × shard counts.
//!
//! ## Why a mid-trace step is "pending"
//!
//! Figure 4 aggregates *consecutive* packets from one sender into a
//! single step — a step's byte count is only final once a different
//! sender transmits. The session therefore folds a step into the LSTM
//! only when it seals (sender change), and holds the still-growing tail
//! step as `pending`; [`AdaptiveFingerprinter::decide_now`] folds the
//! pending step on a *clone* of the stream, so the live state never
//! contains a value that later aggregation could contradict.

use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use tlsfp_net::capture::{Capture, Packet};
use tlsfp_nn::embedding::{EmbedStream, EmbedWeightsT, SequenceEmbedder};
use tlsfp_trace::sequence::IpSequences;
use tlsfp_trace::tensorize::TensorConfig;

use crate::knn::{RankedPrediction, ScoredPrediction};
use crate::open_world::PerClassThresholds;
use crate::pipeline::AdaptiveFingerprinter;

/// Calibrated early-stop rule: accept a prefix decision when the
/// outlier score clears the predicted class's radius with `margin` to
/// spare, after at least `min_steps` tensor steps.
///
/// The radii are [`PerClassThresholds`] — calibrate them with
/// [`AdaptiveFingerprinter::calibrate_rejection_radii`] on held-out
/// known traces, exactly like the open-world detector; `margin`
/// tightens the acceptance ball so a decision made mid-trace has slack
/// against the score drifting as more records arrive.
///
/// The decision itself is the open-world accept rule,
/// [`PerClassThresholds::accepts`], at this policy's margin: non-finite
/// scores and empty predictions never accept.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EarlyStopPolicy {
    /// Per-class acceptance radii (the open-world calibration).
    pub radii: PerClassThresholds,
    /// Extra slack subtracted from each radius: accept only when
    /// `score <= radius - margin`. Non-negative; `0.0` reproduces the
    /// open-world accept rule at every prefix.
    pub margin: f32,
    /// Minimum prefix length (tensor steps) before any acceptance.
    pub min_steps: usize,
}

impl EarlyStopPolicy {
    /// A policy from calibrated radii with the given margin and
    /// minimum prefix length.
    pub fn new(radii: PerClassThresholds, margin: f32, min_steps: usize) -> Self {
        EarlyStopPolicy {
            radii,
            margin,
            min_steps,
        }
    }

    /// Whether a prefix decision with this score and predicted class
    /// clears the policy at `prefix_steps` tensor steps.
    pub fn accepts(&self, score: f32, predicted: Option<usize>, prefix_steps: usize) -> bool {
        prefix_steps >= self.min_steps && self.radii.accepts(score, predicted, self.margin)
    }
}

/// The decision a session latched when an [`EarlyStopPolicy`] first
/// accepted: the class it committed to and where in the trace that
/// happened.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyDecision {
    /// The committed class.
    pub class: usize,
    /// Prefix length (tensor steps) at acceptance.
    pub prefix_steps: usize,
    /// Records fed when the policy accepted.
    pub records: usize,
    /// The outlier score that cleared the radius.
    pub score: f32,
}

/// One [`AdaptiveFingerprinter::decide_now`] outcome at the current
/// prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixDecision {
    /// The fresh evaluation of this prefix: ranked labels and outlier
    /// score, exactly as the batch path would score the prefix.
    pub scored: ScoredPrediction,
    /// Top-label vote share in `[0, 1]` (`0` for an empty prediction).
    pub confidence: f32,
    /// Prefix length in tensor steps (pending step included).
    pub prefix_steps: usize,
    /// Whether an early-stop acceptance is in effect — latched by this
    /// call or an earlier one.
    pub accepted: bool,
    /// The session's decision: the latched class once accepted
    /// (monotone — longer prefixes never flip it), otherwise the
    /// prefix's top label.
    pub decision: Option<usize>,
}

/// Incremental per-session serving state: the accumulating capture,
/// the Figure 4 featurizer replayed record-by-record, and a live LSTM
/// fold over sealed tensor steps. Create with
/// [`AdaptiveFingerprinter::start_session`], advance with
/// [`AdaptiveFingerprinter::feed`], peek with
/// [`AdaptiveFingerprinter::decide_now`], and settle with
/// [`AdaptiveFingerprinter::finish`].
#[derive(Debug, Clone)]
pub struct StreamingSession {
    tensor: TensorConfig,
    /// Every record fed, in arrival order — `finish` re-tensorizes this
    /// through the batch path, and reversed configs decide from it.
    capture: Capture,
    /// Transmitting IPs in first-transmission order (client first).
    ips: Vec<Ipv4Addr>,
    /// The still-aggregating tail step: `(sender index, bytes so far)`.
    pending: Option<(usize, u32)>,
    /// Sealed steps folded into the LSTM (stops at `tensor.max_steps`,
    /// mirroring tensorize's truncation).
    folded: usize,
    /// Frozen transposed weights shared across sessions.
    weights: Arc<EmbedWeightsT>,
    /// The live LSTM fold over sealed steps.
    stream: EmbedStream,
    /// Scratch row for one tensor step.
    xrow: Vec<f32>,
    /// First policy-accepted decision, if any (monotone latch).
    latched: Option<EarlyDecision>,
    /// Records fed so far.
    records: usize,
    /// Wall-clock start — sampled only when telemetry is enabled, so
    /// the disabled path never touches the clock.
    started: Option<Instant>,
}

impl StreamingSession {
    /// Records fed so far (zero-payload records included).
    pub fn records_fed(&self) -> usize {
        self.records
    }

    /// Current prefix length in tensor steps: sealed steps folded into
    /// the LSTM plus the pending tail step (floored at 1, matching
    /// tensorize's empty-capture convention).
    pub fn prefix_steps(&self) -> usize {
        let mut steps = self.folded;
        if self.pending.is_some() && steps < self.tensor.max_steps {
            steps += 1;
        }
        steps.max(1)
    }

    /// The early decision this session latched, if any.
    pub fn early_decision(&self) -> Option<&EarlyDecision> {
        self.latched.as_ref()
    }

    /// The records accumulated so far.
    pub fn capture(&self) -> &Capture {
        &self.capture
    }

    /// Ingests one record into the featurizer — the per-record body of
    /// `IpSequences::extract`.
    fn ingest(&mut self, embedder: &SequenceEmbedder, packet: Packet) {
        self.capture.push(packet);
        self.records += 1;
        if packet.payload_len == 0 {
            return;
        }
        let sender_idx = match self.ips.iter().position(|&ip| ip == packet.src) {
            Some(i) => i,
            None => {
                self.ips.push(packet.src);
                self.ips.len() - 1
            }
        };
        match &mut self.pending {
            // Consecutive packets from one sender aggregate into the
            // open step (saturating, as in the batch featurizer).
            Some((idx, bytes)) if *idx == sender_idx => {
                *bytes = bytes.saturating_add(packet.payload_len);
            }
            _ => {
                if let Some((idx, bytes)) = self.pending.take() {
                    self.seal(embedder, idx, bytes);
                }
                self.pending = Some((sender_idx, packet.payload_len));
            }
        }
    }

    /// Folds a sealed step into the live LSTM state (unless the prefix
    /// already hit tensorize's `max_steps` truncation).
    fn seal(&mut self, embedder: &SequenceEmbedder, sender_idx: usize, bytes: u32) {
        if self.folded >= self.tensor.max_steps || self.tensor.reverse {
            // Reversed configs feed newest-first: no incremental order
            // exists, so decisions rebuild from the capture instead.
            self.folded += usize::from(self.folded < self.tensor.max_steps);
            return;
        }
        self.fill_step_row(sender_idx, bytes);
        let xrow = std::mem::take(&mut self.xrow);
        embedder.stream_fold(&self.weights, &mut self.stream, &xrow);
        self.xrow = xrow;
        self.folded += 1;
    }

    /// Writes one quantized, scaled tensor step into `xrow` — the exact
    /// per-step arithmetic of `to_channels` + `tensorize`: the sender's
    /// channel (overflow senders merged into the last channel) carries
    /// `scale((bytes / bin) * bin)`, every other channel zero.
    fn fill_step_row(&mut self, sender_idx: usize, bytes: u32) {
        let bin = self.tensor.quantize_bin.max(1);
        self.xrow.clear();
        self.xrow.resize(self.tensor.channels, 0.0);
        let ch = sender_idx.min(self.tensor.channels - 1);
        self.xrow[ch] = self.tensor.scale.scale((bytes / bin) * bin);
    }

    /// The embedding of the current prefix, without consuming state:
    /// clones the stream, folds the pending step (or tensorize's single
    /// zero step for an empty prefix), and replays the dense stack.
    fn prefix_embedding(&mut self, embedder: &SequenceEmbedder) -> Vec<f32> {
        if self.tensor.reverse {
            // Newest-first feeds have no incremental order; rebuild the
            // prefix tensor from the capture (correct, just not O(1)).
            let seq = self.tensor.tensorize(&IpSequences::extract(&self.capture));
            return embedder.embed(&seq);
        }
        let mut stream = self.stream.clone();
        let mut steps = self.folded;
        if let Some((idx, bytes)) = self.pending {
            if steps < self.tensor.max_steps {
                self.fill_step_row(idx, bytes);
                embedder.stream_fold(&self.weights, &mut stream, &self.xrow);
                steps += 1;
            }
        }
        if steps == 0 {
            // An empty capture tensorizes to a single all-zero step.
            self.xrow.clear();
            self.xrow.resize(self.tensor.channels, 0.0);
            embedder.stream_fold(&self.weights, &mut stream, &self.xrow);
        }
        embedder.stream_embedding(&self.weights, &stream)
    }

    fn latch(&mut self, class: usize, prefix_steps: usize, score: f32) {
        if let Some(started) = self.started.filter(|_| tlsfp_telemetry::enabled()) {
            tlsfp_telemetry::histogram!(
                "tlsfp_time_to_decision_ns",
                "Wall-clock from session start to its decision (early latch, or finish)"
            )
            .observe(started.elapsed().as_nanos() as u64);
        }
        self.latched = Some(EarlyDecision {
            class,
            prefix_steps,
            records: self.records,
            score,
        });
    }

    /// Records the settle-time metrics: how much of the trace the
    /// decision consumed, and time-to-decision for sessions that never
    /// latched early. Observation-only, like every other metric.
    fn record_finish(&self) {
        if !tlsfp_telemetry::enabled() {
            return;
        }
        if self.latched.is_none() {
            if let Some(started) = self.started {
                tlsfp_telemetry::histogram!(
                    "tlsfp_time_to_decision_ns",
                    "Wall-clock from session start to its decision (early latch, or finish)"
                )
                .observe(started.elapsed().as_nanos() as u64);
            }
        }
        let permille = match (self.latched.as_ref(), self.records) {
            (Some(l), total) if total > 0 => (l.records as u128 * 1000 / total as u128) as u64,
            _ => 1000,
        };
        tlsfp_telemetry::histogram!(
            "tlsfp_prefix_fraction",
            "Fraction of the trace consumed at decision time, in permille"
        )
        .observe(permille);
    }
}

/// Top-label vote share — the session's confidence signal.
fn confidence_of(prediction: &RankedPrediction) -> f32 {
    let total: usize = prediction.votes.iter().sum();
    match (prediction.votes.first(), total) {
        (Some(&top), total) if total > 0 => top as f32 / total as f32,
        _ => 0.0,
    }
}

impl AdaptiveFingerprinter {
    /// Opens a streaming session for one page load observed at
    /// `client`, featurized under `tensor`. Sessions are independent:
    /// any number can be live against one fingerprinter, each a few
    /// LSTM panels plus its capture.
    pub fn start_session(&self, tensor: TensorConfig, client: Ipv4Addr) -> StreamingSession {
        let weights = self.embedder().stream_weights();
        let stream = self.embedder().stream_start(&weights);
        StreamingSession {
            tensor,
            capture: Capture::new(client),
            ips: vec![client],
            pending: None,
            folded: 0,
            weights,
            stream,
            xrow: Vec::new(),
            latched: None,
            records: 0,
            started: tlsfp_telemetry::enabled().then(Instant::now),
        }
    }

    /// Feeds one TLS record into the session. State after feeding is a
    /// pure function of the records fed so far — independent of how
    /// they were chunked across calls.
    pub fn feed(&self, session: &mut StreamingSession, packet: Packet) {
        session.ingest(self.embedder(), packet);
    }

    /// Feeds a chunk of records — exactly [`AdaptiveFingerprinter::feed`]
    /// per record.
    pub fn feed_chunk(&self, session: &mut StreamingSession, packets: &[Packet]) {
        for &packet in packets {
            session.ingest(self.embedder(), packet);
        }
    }

    /// Classifies the session's current prefix without consuming it:
    /// embeds the prefix incrementally and runs the same concurrent
    /// sharded search as [`AdaptiveFingerprinter::fingerprint_with_score`].
    /// At the full trace this is bit-identical to the batch path.
    ///
    /// With a `policy`, the first accepted prefix latches: the session
    /// commits to that class and later calls keep reporting it
    /// (`decision`), while `scored` continues to track the fresh
    /// prefix. Without a policy this is a pure peek.
    pub fn decide_now(
        &self,
        session: &mut StreamingSession,
        policy: Option<&EarlyStopPolicy>,
    ) -> PrefixDecision {
        let scored = self.decide(&session.prefix_embedding(self.embedder()));
        let confidence = confidence_of(&scored.prediction);
        let prefix_steps = session.prefix_steps();
        if session.latched.is_none() {
            if let Some(class) = scored.prediction.top() {
                let accept = policy.is_some_and(|p| {
                    p.accepts(scored.score, scored.prediction.top(), prefix_steps)
                });
                if accept {
                    session.latch(class, prefix_steps, scored.score);
                }
            }
        }
        let decision = session
            .latched
            .as_ref()
            .map(|l| l.class)
            .or_else(|| scored.prediction.top());
        PrefixDecision {
            scored,
            confidence,
            prefix_steps,
            accepted: session.latched.is_some(),
            decision,
        }
    }

    /// Settles a finished session through the batch serving path: the
    /// accumulated capture is featurized and classified exactly as
    /// [`AdaptiveFingerprinter::fingerprint_with_score`] would — so a
    /// session fed to completion returns bit-identical results to the
    /// batch evaluation of its trace.
    pub fn finish(&self, session: StreamingSession) -> ScoredPrediction {
        let seq = session
            .tensor
            .tensorize(&IpSequences::extract(&session.capture));
        let scored = self.fingerprint_with_score(&seq);
        session.record_finish();
        scored
    }

    /// Settles many sessions at once through the batched embed + sharded
    /// blocked-scan path ([`AdaptiveFingerprinter::embed_all`] +
    /// `ShardedStore::search_batch_concurrent`) — the exact calls behind
    /// [`AdaptiveFingerprinter::fingerprint_all`], so results are
    /// bit-identical to it at every worker count.
    pub fn finish_all(&self, sessions: Vec<StreamingSession>) -> Vec<ScoredPrediction> {
        let seqs: Vec<_> = sessions
            .iter()
            .map(|s| s.tensor.tensorize(&IpSequences::extract(&s.capture)))
            .collect();
        let scored = self.decide_all(&self.embed_all(&seqs));
        for session in &sessions {
            session.record_finish();
        }
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_rejects_non_finite_and_short_prefixes() {
        let policy = EarlyStopPolicy::new(
            PerClassThresholds {
                radii: vec![1.0, 2.0],
                fallback: 1.5,
            },
            0.5,
            3,
        );
        // Clears radius 2.0 with margin 0.5 at step 3.
        assert!(policy.accepts(1.4, Some(1), 3));
        // Same score, below min_steps.
        assert!(!policy.accepts(1.4, Some(1), 2));
        // Margin not cleared.
        assert!(!policy.accepts(1.6, Some(1), 3));
        // Non-finite scores never accept.
        assert!(!policy.accepts(f32::NAN, Some(1), 10));
        assert!(!policy.accepts(f32::INFINITY, Some(1), 10));
        // Empty predictions never accept.
        assert!(!policy.accepts(0.0, None, 10));
        // Out-of-range class uses the fallback radius.
        assert!(policy.accepts(0.9, Some(7), 3));
        assert!(!policy.accepts(1.2, Some(7), 3));
    }

    #[test]
    fn confidence_is_top_vote_share() {
        let p = RankedPrediction {
            ranked: vec![3, 1],
            votes: vec![6, 2],
        };
        assert_eq!(confidence_of(&p), 0.75);
        let empty = RankedPrediction {
            ranked: vec![],
            votes: vec![],
        };
        assert_eq!(confidence_of(&empty), 0.0);
    }
}
