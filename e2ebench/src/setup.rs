//! Set-up shared by every workload: the load generator (the web crate)
//! makes every page load from the workload seed, query traffic is
//! encoded to pcap bytes ahead of time, the `PipelineConfig::small`
//! recipe is trained on classes disjoint from the reference classes,
//! and the store is built and calibrated on held-out monitored loads.

use std::net::Ipv4Addr;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use tlsfp_core::open_world::PerClassThresholds;
use tlsfp_core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp_net::capture::Capture;
use tlsfp_nn::seq::SeqInput;
use tlsfp_trace::dataset::Dataset;
use tlsfp_trace::sequence::IpSequences;
use tlsfp_trace::tensorize::TensorConfig;
use tlsfp_web::{load_page, BrowserConfig, DriftConfig, SiteSpec, Website};

/// Worker threads for embedding and for the query fan-out: the
/// benchmark machine's core count, set explicitly so the environment
/// (`TLSFP_THREADS`) never changes what is measured.
pub const THREADS: usize = 2;

/// Seed of the world every run shares: the site's pages, the training
/// corpus and the trained model. Fixing it keeps the model — and so how
/// much work early stopping saves — the same for every workload seed.
const WORLD_SEED: u64 = 0x7e57_f00d;
/// Training classes; disjoint from every reference class, so the store
/// holds pages the model never encountered.
const TRAIN_CLASSES: usize = 60;
/// Loads crawled per training class.
const TRAIN_LOADS: usize = 20;
/// Training epochs, down from the preset's 40: on this corpus the
/// shorter schedule generalises at least as well to unseen classes and
/// keeps set-up short enough to repeat within one run.
const TRAIN_EPOCHS: usize = 6;
/// Percentile of a class's held-out scores that becomes its acceptance
/// radius. The median of a few loads is stable across seeds, where the
/// 95th percentile of a few is their maximum.
const CALIB_PERCENTILE: f64 = 50.0;

/// A workload's store shape.
pub struct Shape {
    /// Monitored (reference) classes.
    pub monitored: usize,
    /// Unmonitored pages the open-world traffic draws from.
    pub unmonitored: usize,
    /// Reference loads per monitored class.
    pub ref_loads: usize,
    /// Held-out calibration loads per monitored class.
    pub calib_loads: usize,
    /// kNN neighbourhood size.
    pub k: usize,
    /// Shard knob (`0` = auto `⌈√classes⌉`).
    pub shards: usize,
}

/// The load generator: the site and its drifted copy, with the page
/// ranges of each role.
pub struct Generator {
    pub tensor: TensorConfig,
    site: Website,
    drifted: Website,
    monitored: usize,
    unmonitored: usize,
    ref_loads: usize,
}

/// A provisioned deployment plus the generator traffic is drawn from.
pub struct Deployment {
    pub fp: AdaptiveFingerprinter,
    pub radii: PerClassThresholds,
    pub gen: Generator,
}

/// One page load as the serving path receives it.
#[derive(Clone)]
pub struct Load {
    pub pcap: Vec<u8>,
    pub client: Ipv4Addr,
    /// The monitored class, or `None` for an unmonitored page.
    pub label: Option<usize>,
    /// Whether the bytes were deliberately broken; such a pcap must be
    /// refused.
    pub malformed: bool,
}

/// One adaptation: swap `class` to embeddings of `fresh` loads.
pub struct Update {
    pub class: usize,
    pub fresh: Vec<SeqInput>,
}

/// A sub-seed for one purpose, so each input stream is independent.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(purpose.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The Figure 4 featurization of a parsed capture.
pub fn featurize(tensor: &TensorConfig, capture: &Capture) -> SeqInput {
    tensor.tensorize(&IpSequences::extract(capture))
}

impl Deployment {
    /// Trains the model and builds and calibrates the store. The site,
    /// the training corpus and the model come from [`WORLD_SEED`]; every
    /// page load the store and the traffic are made of comes from
    /// `seed`.
    pub fn build(seed: u64, shape: &Shape) -> Self {
        let tensor = TensorConfig::wiki();
        let pages = TRAIN_CLASSES + shape.monitored + shape.unmonitored;
        let site = Website::generate(SiteSpec::wiki_like(pages), WORLD_SEED)
            .expect("the wiki profile is a valid site");
        let gen = Generator {
            tensor,
            drifted: site.drifted(DriftConfig::heavy(), sub_seed(seed, 1)),
            site,
            monitored: shape.monitored,
            unmonitored: shape.unmonitored,
            ref_loads: shape.ref_loads,
        };

        let mut world = StdRng::seed_from_u64(WORLD_SEED);
        let mut train = Dataset::new(TRAIN_CLASSES, tensor.channels, tensor.max_steps);
        for _ in 0..TRAIN_LOADS {
            for class in 0..TRAIN_CLASSES {
                let capture = load(&gen.site, class, &mut world);
                train
                    .push(class, featurize(&tensor, &capture))
                    .expect("label in range");
            }
        }
        let mut cfg = PipelineConfig::small();
        cfg.threads = THREADS;
        cfg.query_workers = THREADS;
        cfg.k = shape.k;
        cfg.shards = 1;
        cfg.epochs = TRAIN_EPOCHS;
        let mut fp = AdaptiveFingerprinter::provision(&train, &cfg, WORLD_SEED)
            .expect("provisioning succeeds");
        drop(train);

        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
        fp.set_reference(&gen.monitored_dataset(shape.ref_loads, &mut rng))
            .expect("reference fits");
        // Radii are calibrated on the one-shard layout and the store is
        // re-partitioned afterwards: scores are exact nearest distances,
        // identical at every shard count.
        let radii = fp
            .calibrate_rejection_radii(
                &gen.monitored_dataset(shape.calib_loads, &mut rng),
                CALIB_PERCENTILE,
                2,
            )
            .expect("non-empty calibration set");
        fp.set_shards(shape.shards);
        Deployment { fp, radii, gen }
    }
}

impl Generator {
    fn monitored_dataset(&self, loads: usize, rng: &mut StdRng) -> Dataset {
        let mut ds = Dataset::new(self.monitored, self.tensor.channels, self.tensor.max_steps);
        for _ in 0..loads {
            for class in 0..self.monitored {
                let capture = load(&self.site, TRAIN_CLASSES + class, rng);
                ds.push(class, featurize(&self.tensor, &capture))
                    .expect("label in range");
            }
        }
        ds
    }

    /// Monitored classes in the store.
    pub fn monitored(&self) -> usize {
        self.monitored
    }

    /// A page-load capture of monitored `class` (from its drifted page
    /// when `drifted`), or of a random unmonitored page for `None`.
    pub fn capture(&self, label: Option<usize>, drifted: bool, rng: &mut StdRng) -> Capture {
        let site = if drifted { &self.drifted } else { &self.site };
        let page = match label {
            Some(class) => TRAIN_CLASSES + class,
            None => TRAIN_CLASSES + self.monitored + rng.random_range(0..self.unmonitored),
        };
        load(site, page, rng)
    }

    /// The 1:1 monitored/unmonitored mix: even positions draw a random
    /// monitored class, odd positions an unmonitored page.
    pub fn mixed_label(&self, position: usize, rng: &mut StdRng) -> Option<usize> {
        position
            .is_multiple_of(2)
            .then(|| rng.random_range(0..self.monitored))
    }

    /// One page load encoded to pcap bytes.
    pub fn encoded(&self, label: Option<usize>, drifted: bool, rng: &mut StdRng) -> Load {
        let capture = self.capture(label, drifted, rng);
        Load {
            pcap: capture.to_pcap().to_vec(),
            client: capture.client,
            label,
            malformed: false,
        }
    }

    /// Updates swapping each of `classes` to fresh loads of its drifted
    /// page, as many as a class holds, so the store keeps its size.
    pub fn updates(&self, classes: &[usize], rng: &mut StdRng) -> Vec<Update> {
        classes
            .iter()
            .map(|&class| Update {
                class,
                fresh: (0..self.ref_loads)
                    .map(|_| featurize(&self.tensor, &self.capture(Some(class), true, rng)))
                    .collect(),
            })
            .collect()
    }
}

fn load(site: &Website, page: usize, rng: &mut StdRng) -> Capture {
    load_page(site, page, &BrowserConfig::crawler_default(), rng).expect("page in range")
}

/// Breaks a valid pcap so the parser must refuse it: odd `kind`s cut
/// the last record short, even ones overwrite the magic number.
pub fn corrupt(load: &mut Load, kind: usize) {
    if kind % 2 == 1 {
        let cut = load.pcap.len() - 7;
        load.pcap.truncate(cut);
    } else {
        load.pcap[0] ^= 0xff;
    }
    load.malformed = true;
}
