//! # tlsfp-testkit — shared fixtures for fast, deterministic tests
//!
//! Integration tests across the workspace need the same expensive
//! artifacts: a small synthetic corpus, a tensorized dataset, and a
//! provisioned [`AdaptiveFingerprinter`]. This crate builds each one
//! **once per test process** behind a `OnceLock` and hands out clones,
//! so a test binary with a dozen `#[test]` functions pays the
//! generation/training cost a single time.
//!
//! ## Test tiers
//!
//! The workspace runs two tiers (documented in the root README):
//!
//! - **Tier 1** — `cargo test` — every un-ignored test. Tests in this
//!   tier use the `tiny_*` fixtures here and finish in seconds.
//! - **Tier 2** — `cargo test -- --ignored` — the paper-scale
//!   experiment tests, marked `#[ignore]` with a reason string. These
//!   regenerate larger corpora and train for more epochs.
//!
//! All fixtures are seeded with [`SEED`]; nothing here depends on time,
//! thread scheduling or environment.

use std::sync::OnceLock;

use tlsfp_core::open_world::PerClassThresholds;
use tlsfp_core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp_trace::dataset::Dataset;
use tlsfp_trace::tensorize::TensorConfig;
use tlsfp_web::corpus::{open_world_split, CorpusSpec};
use tlsfp_web::site::Website;

/// The seed every fixture derives from.
pub const SEED: u64 = 7;

/// Classes in the tiny corpus.
pub const TINY_CLASSES: usize = 8;

/// Traces per class in the tiny corpus.
pub const TINY_TRACES_PER_CLASS: usize = 8;

/// The tiny corpus specification: a Wikipedia-like site small enough to
/// crawl in well under a second.
pub fn tiny_spec() -> CorpusSpec {
    CorpusSpec::wiki_like(TINY_CLASSES, TINY_TRACES_PER_CLASS)
}

/// A pipeline preset sized for tier-1 tests: same architecture family
/// as [`PipelineConfig::small`] but with a handful of epochs, so
/// provisioning takes well under a second while still separating the
/// tiny corpus's classes.
pub fn tiny_pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::small();
    cfg.epochs = 10;
    cfg.pairs_per_epoch = 512;
    cfg.batch_size = 64;
    cfg.k = 5;
    cfg
}

fn tiny_cell() -> &'static (Website, Dataset) {
    static CELL: OnceLock<(Website, Dataset)> = OnceLock::new();
    CELL.get_or_init(|| {
        Dataset::generate(&tiny_spec(), &TensorConfig::wiki(), SEED).expect("tiny corpus generates")
    })
}

/// The tiny website (cached; cloned out).
pub fn tiny_website() -> Website {
    tiny_cell().0.clone()
}

/// The tiny tensorized dataset (cached; cloned out).
pub fn tiny_dataset() -> Dataset {
    tiny_cell().1.clone()
}

/// The tiny dataset split 80/20 per class (reference, test), seeded.
pub fn tiny_split() -> (Dataset, Dataset) {
    tiny_dataset().split_per_class(0.2, SEED)
}

/// A provisioned deployment trained on the tiny reference split
/// (cached; cloned out). Training runs once per test process.
pub fn tiny_adversary() -> AdaptiveFingerprinter {
    static CELL: OnceLock<AdaptiveFingerprinter> = OnceLock::new();
    CELL.get_or_init(|| {
        let (reference, _) = tiny_split();
        AdaptiveFingerprinter::provision(&reference, &tiny_pipeline(), SEED)
            .expect("tiny corpus provisions")
    })
    .clone()
}

/// The five scenario profiles, as fixture keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Wikipedia-like: TLS 1.2, three-IP page loads.
    Wiki,
    /// Github-like: TLS 1.3, variable server sets.
    Github,
    /// Single-page app: small documents, many XHR fetches.
    Spa,
    /// Video platform: large-media-dominated loads.
    Video,
    /// CDN-sharded: large edge pool with per-load rotation.
    Cdn,
}

impl Profile {
    /// Every profile, in presentation order.
    pub const ALL: [Profile; 5] = [
        Profile::Wiki,
        Profile::Github,
        Profile::Spa,
        Profile::Video,
        Profile::Cdn,
    ];

    /// The profile's corpus-spec name.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Wiki => "wiki-like",
            Profile::Github => "github-like",
            Profile::Spa => "spa-like",
            Profile::Video => "video-like",
            Profile::Cdn => "cdn-sharded",
        }
    }

    /// This profile's corpus spec at an arbitrary shape.
    pub fn spec(self, n_classes: usize, traces_per_class: usize) -> CorpusSpec {
        match self {
            Profile::Wiki => CorpusSpec::wiki_like(n_classes, traces_per_class),
            Profile::Github => CorpusSpec::github_like(n_classes, traces_per_class),
            Profile::Spa => CorpusSpec::spa_like(n_classes, traces_per_class),
            Profile::Video => CorpusSpec::video_like(n_classes, traces_per_class),
            Profile::Cdn => CorpusSpec::cdn_sharded(n_classes, traces_per_class),
        }
    }

    /// The open-world corpus spec for this profile
    /// ([`OPEN_WORLD_CLASSES`] × [`OPEN_WORLD_TRACES_PER_CLASS`]).
    pub fn open_world_spec(self) -> CorpusSpec {
        self.spec(OPEN_WORLD_CLASSES, OPEN_WORLD_TRACES_PER_CLASS)
    }
}

/// Classes in each per-profile open-world fixture corpus.
pub const OPEN_WORLD_CLASSES: usize = 10;

/// Traces per class in each per-profile open-world fixture corpus.
pub const OPEN_WORLD_TRACES_PER_CLASS: usize = 12;

/// Monitored classes in the per-profile open-world protocol; the
/// remaining [`OPEN_WORLD_CLASSES`]` - OPEN_WORLD_MONITORED` classes
/// play the unmonitored world.
pub const OPEN_WORLD_MONITORED: usize = 6;

/// The pipeline preset for open-world smoke runs: [`tiny_pipeline`]
/// with enough epochs that outlier scores separate monitored from
/// unmonitored loads on the fixture corpora.
pub fn open_world_pipeline() -> PipelineConfig {
    let mut cfg = tiny_pipeline();
    cfg.epochs = 20;
    cfg
}

/// One `OnceLock` cell per [`Profile::ALL`] entry, keyed by position.
fn per_profile_cache<T: Clone>(
    cells: &'static [OnceLock<T>; 5],
    profile: Profile,
    init: impl FnOnce() -> T,
) -> T {
    let idx = Profile::ALL
        .iter()
        .position(|p| *p == profile)
        .expect("profile listed in ALL");
    cells[idx].get_or_init(init).clone()
}

/// The tensorized open-world dataset for a scenario profile (cached
/// per profile; cloned out).
pub fn open_world_profile_dataset(profile: Profile) -> Dataset {
    static CELLS: [OnceLock<Dataset>; 5] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    per_profile_cache(&CELLS, profile, || {
        Dataset::generate(&profile.open_world_spec(), &TensorConfig::wiki(), SEED)
            .expect("open-world profile corpus generates")
            .1
    })
}

/// Labeled embeddings: one `Vec<f32>` per trace, aligned with labels.
pub type LabeledEmbeddings = (Vec<Vec<f32>>, Vec<usize>);

/// Labeled embeddings of a profile's open-world dataset under the
/// (cached) tiny adversary's embedder — the raw material for index
/// recall/pruning tests and the `fig_index` smoke run. Cached per
/// profile; cloned out. Embeddings are aligned with the dataset's
/// labels, in dataset order.
pub fn profile_embeddings(profile: Profile) -> LabeledEmbeddings {
    static CELLS: [OnceLock<LabeledEmbeddings>; 5] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    per_profile_cache(&CELLS, profile, || {
        let ds = open_world_profile_dataset(profile);
        let adversary = tiny_adversary();
        (adversary.embed_all(ds.seqs()), ds.labels().to_vec())
    })
}

/// Splits [`profile_embeddings`] into a reference side and a query
/// side (every fourth point becomes a query) — deterministic, label-
/// aligned, and balanced across the class-grouped dataset order.
#[allow(clippy::type_complexity)]
pub fn profile_embedding_split(
    profile: Profile,
) -> (Vec<Vec<f32>>, Vec<usize>, Vec<Vec<f32>>, Vec<usize>) {
    let (embs, labels) = profile_embeddings(profile);
    let mut ref_e = Vec::new();
    let mut ref_l = Vec::new();
    let mut query_e = Vec::new();
    let mut query_l = Vec::new();
    for (i, (e, l)) in embs.into_iter().zip(labels).enumerate() {
        if i % 4 == 3 {
            query_e.push(e);
            query_l.push(l);
        } else {
            ref_e.push(e);
            ref_l.push(l);
        }
    }
    (ref_e, ref_l, query_e, query_l)
}

/// Monitored classes in the tiny open-world fixture.
pub const TINY_MONITORED: usize = 5;

/// A tiny open-world scenario built from the wiki fixtures: a
/// deployment provisioned on the monitored classes only, the held-out
/// monitored test side, the unmonitored loads, and a threshold
/// calibrated at the 95th percentile of held-out monitored scores.
#[derive(Debug, Clone)]
pub struct OpenWorldFixture {
    /// Deployment trained and referenced on monitored classes only.
    pub fingerprinter: AdaptiveFingerprinter,
    /// Held-out loads of monitored pages (relabeled `0..TINY_MONITORED`).
    pub monitored_test: Dataset,
    /// Loads of pages outside the monitored set (never seen in
    /// training).
    pub unmonitored: Dataset,
    /// Calibrated global rejection threshold (one shared radius).
    pub threshold: PerClassThresholds,
}

/// The tiny open-world fixture (cached; cloned out). Provisioning runs
/// once per test process.
pub fn tiny_open_world() -> OpenWorldFixture {
    static CELL: OnceLock<OpenWorldFixture> = OnceLock::new();
    CELL.get_or_init(|| {
        let ds = tiny_dataset();
        let split =
            open_world_split(ds.n_classes(), TINY_MONITORED, SEED).expect("valid split shape");
        let monitored = ds
            .subset_classes(&split.monitored)
            .expect("monitored ids in range");
        let unmonitored = ds
            .subset_classes(&split.unmonitored)
            .expect("unmonitored ids in range");
        let (train, monitored_test) = monitored.split_per_class(0.25, SEED);
        let fingerprinter = AdaptiveFingerprinter::provision(&train, &tiny_pipeline(), SEED)
            .expect("tiny open-world corpus provisions");
        let threshold = fingerprinter
            .calibrate_rejection_threshold(&monitored_test, 95.0)
            .expect("non-empty calibration set");
        OpenWorldFixture {
            fingerprinter,
            monitored_test,
            unmonitored,
            threshold,
        }
    })
    .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_dataset_has_expected_shape() {
        let ds = tiny_dataset();
        assert_eq!(ds.n_classes(), TINY_CLASSES);
        assert_eq!(ds.len(), TINY_CLASSES * TINY_TRACES_PER_CLASS);
        assert!(!ds.is_empty());
    }

    #[test]
    fn tiny_split_is_disjoint_and_complete() {
        let (reference, test) = tiny_split();
        assert_eq!(reference.len() + test.len(), tiny_dataset().len());
        assert!(!reference.is_empty());
        assert!(!test.is_empty());
    }

    #[test]
    fn profile_fixtures_have_expected_shape() {
        for profile in Profile::ALL {
            let ds = open_world_profile_dataset(profile);
            assert_eq!(ds.n_classes(), OPEN_WORLD_CLASSES, "{}", profile.name());
            assert_eq!(
                ds.len(),
                OPEN_WORLD_CLASSES * OPEN_WORLD_TRACES_PER_CLASS,
                "{}",
                profile.name()
            );
            assert_eq!(profile.open_world_spec().site.name, profile.name());
        }
    }

    #[test]
    fn open_world_fixture_is_consistent() {
        let fx = tiny_open_world();
        assert_eq!(fx.monitored_test.n_classes(), TINY_MONITORED);
        assert_eq!(fx.unmonitored.n_classes(), TINY_CLASSES - TINY_MONITORED);
        assert!(fx.threshold.fallback.is_finite() && fx.threshold.fallback > 0.0);
        assert_eq!(
            fx.fingerprinter.reference().n_classes(),
            TINY_MONITORED,
            "reference must cover only monitored classes"
        );
    }

    #[test]
    fn fixtures_are_deterministic() {
        // Regenerate from scratch (bypassing the cache) to catch any
        // nondeterminism in corpus generation itself.
        let fresh = Dataset::generate(&tiny_spec(), &TensorConfig::wiki(), SEED)
            .expect("tiny corpus regenerates")
            .1;
        assert_eq!(fresh, tiny_dataset());
        let (a, b) = (tiny_split(), tiny_split());
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
