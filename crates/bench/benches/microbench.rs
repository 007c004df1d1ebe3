//! Component micro-benchmarks: the substrate operations every
//! experiment is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tlsfp_core::knn::{rank_search, Metric};
use tlsfp_index::{
    FlatIndex, IndexConfig, IvfIndex, IvfParams, PqIndex, PqParams, Rows, ShardedStore, VectorIndex,
};
use tlsfp_nn::embedding::{EmbedderConfig, SequenceEmbedder};
use tlsfp_nn::lstm::Lstm;
use tlsfp_nn::optim::Sgd;
use tlsfp_nn::pairs::{random_pairs, ClassIndex};
use tlsfp_nn::parallel::map_elems;
use tlsfp_nn::seq::SeqInput;
use tlsfp_nn::siamese::SiameseTrainer;
use tlsfp_trace::sequence::IpSequences;
use tlsfp_trace::tensorize::TensorConfig;
use tlsfp_web::browser::{load_page, BrowserConfig};
use tlsfp_web::site::{SiteSpec, Website};

fn bench_components(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);

    // Page-load simulation (the corpus generator's unit of work).
    let site = Website::generate(SiteSpec::wiki_like(20), 1).unwrap();
    let browser = BrowserConfig::crawler_default();
    c.bench_function("web/load_page", |b| {
        b.iter(|| std::hint::black_box(load_page(&site, 3, &browser, &mut rng).unwrap()))
    });

    // Sequence extraction + tensorization.
    let capture = load_page(&site, 3, &browser, &mut StdRng::seed_from_u64(1)).unwrap();
    c.bench_function("trace/extract_sequences", |b| {
        b.iter(|| std::hint::black_box(IpSequences::extract(&capture)))
    });
    let seqs = IpSequences::extract(&capture);
    let tensor = TensorConfig::wiki();
    c.bench_function("trace/tensorize", |b| {
        b.iter(|| std::hint::black_box(tensor.tensorize(&seqs)))
    });

    // pcap serialization round-trip.
    c.bench_function("net/pcap_round_trip", |b| {
        b.iter(|| {
            let bytes = capture.to_pcap();
            std::hint::black_box(
                tlsfp_net::capture::Capture::from_pcap(&bytes, capture.client).unwrap(),
            )
        })
    });

    // LSTM forward at the paper's size (30 hidden, 3 inputs).
    let lstm = Lstm::new(3, 30, &mut rng);
    let xs: Vec<f32> = (0..180).map(|i| (i % 7) as f32 * 0.1).collect(); // T=60
    c.bench_function("nn/lstm_forward_T60_H30", |b| {
        b.iter(|| std::hint::black_box(lstm.forward(&xs)))
    });

    // Embedding forward (paper-shaped network).
    let net = SequenceEmbedder::new(EmbedderConfig::paper(3), 7).unwrap();
    let trace = tensor.tensorize(&seqs);
    c.bench_function("nn/embed_paper_model", |b| {
        b.iter(|| std::hint::black_box(net.embed(&trace)))
    });

    // Batched embedding: the fused engine over ragged batches, scratch
    // reused across iterations (the serving/provisioning shape).
    let mut group = c.benchmark_group("nn/embed_batch");
    for &bs in &[8usize, 64] {
        let batch: Vec<SeqInput> = (0..bs)
            .map(|i| {
                let steps = 40 + (i * 7) % 21; // ragged 40..60
                let data: Vec<f32> = (0..steps * 3)
                    .map(|j| ((j * 13 + i) % 23) as f32 * 0.08)
                    .collect();
                SeqInput::new(steps, 3, data).unwrap()
            })
            .collect();
        let mut scratch = tlsfp_nn::embedding::EmbedScratch::new();
        group.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, _| {
            b.iter(|| std::hint::black_box(net.embed_batch(&batch, &mut scratch).len()))
        });
    }
    group.finish();

    // One siamese SGD batch.
    let pool: Vec<SeqInput> = (0..16)
        .map(|i| {
            let v = (i % 4) as f32 * 0.2;
            SeqInput::new(10, 3, vec![v; 30]).unwrap()
        })
        .collect();
    let labels: Vec<usize> = (0..16).map(|i| i % 4).collect();
    let index = ClassIndex::from_labels(&labels);
    let pairs = random_pairs(&index, 32, 0.5, &mut rng);
    let trainer = SiameseTrainer::new(4.0, 32);
    c.bench_function("nn/siamese_train_batch_32_pairs", |b| {
        let mut net = SequenceEmbedder::new(EmbedderConfig::small(3), 7).unwrap();
        let mut opt = Sgd::with_momentum(0.01, 0.9);
        b.iter(|| std::hint::black_box(trainer.train_batch(&mut net, &pool, &pairs, &mut opt, 0)))
    });

    // kNN query (search + vote) across reference-set sizes: the exact
    // flat scan, then the IVF backend pruning candidates over the same
    // rows.
    let sized_reference = |size: usize| {
        use rand::RngExt;
        let mut r = StdRng::seed_from_u64(9);
        let mut data = Vec::with_capacity(size * 32);
        let mut labels = Vec::with_capacity(size);
        for i in 0..size {
            // Class-dependent mean keeps the IVF quantizer honest.
            let center = (i % 100) as f32 / 25.0;
            data.extend((0..32).map(|_| center + r.random_range(-1.0..1.0)));
            labels.push(i % 100);
        }
        let query: Vec<f32> = (0..32).map(|_| r.random_range(-1.0..3.0)).collect();
        (data, labels, query)
    };

    let mut group = c.benchmark_group("core/knn_query");
    for &size in &[100usize, 1_000, 10_000] {
        let (data, labels, query) = sized_reference(size);
        let index = FlatIndex::from_rows(Metric::Euclidean, Rows::new(32, &data), &labels);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| std::hint::black_box(rank_search(index.search(&query, 50))))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("core/ivf_query");
    for &size in &[100usize, 1_000, 10_000] {
        let (data, labels, query) = sized_reference(size);
        let index = IvfIndex::build(
            IvfParams::auto(),
            Metric::Euclidean,
            Rows::new(32, &data),
            &labels,
        );
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, _| {
            b.iter(|| std::hint::black_box(rank_search(index.search(&query, 50))))
        });
    }
    group.finish();

    // Blocked batch-scan kernels over a 10k-row store: one pass over
    // the rows serves the whole query block, vs one pass per query.
    // The batch-64 entry times the *whole* block — divide by 64 for
    // per-query cost.
    {
        use rand::RngExt;
        let (data, labels, _) = sized_reference(10_000);
        let rows = Rows::new(32, &data);
        let mut r = StdRng::seed_from_u64(11);
        let queries: Vec<Vec<f32>> = (0..64)
            .map(|_| (0..32).map(|_| r.random_range(-1.0..3.0)).collect())
            .collect();
        let flat = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        let pq = PqIndex::build(PqParams::auto(), Metric::Euclidean, rows, &labels);
        let backends: [(&str, &dyn VectorIndex); 2] = [("flat", &flat), ("pq", &pq)];
        for (name, index) in backends {
            let mut group = c.benchmark_group(&format!("index/batch_scan/{name}"));
            for &bs in &[1usize, 64] {
                let block = &queries[..bs];
                group.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, _| {
                    b.iter(|| std::hint::black_box(index.search_block(block, 50).len()))
                });
            }
            group.finish();
        }
    }

    // One class swap (the paper's adaptation update) on the benchmark's
    // store shape: 16,000 rows × 24 dims, 2,000 classes × 8 rows. Each
    // iteration swaps the next class's 8 rows for 8 fresh ones, so the
    // compaction moves the rows behind them and the adds append.
    {
        use rand::RngExt;
        let mut r = StdRng::seed_from_u64(17);
        let (n_rows, dim, n_classes) = (16_000usize, 24usize, 2_000usize);
        let data: Vec<f32> = (0..n_rows * dim)
            .map(|_| r.random_range(-1.0..1.0))
            .collect();
        let labels: Vec<usize> = (0..n_rows).map(|i| i % n_classes).collect();
        let fresh: Vec<f32> = (0..8 * dim).map(|_| r.random_range(-1.0..1.0)).collect();
        let rows = Rows::new(dim, &data);
        let configs = [
            ("flat", IndexConfig::Flat),
            ("ivf", IndexConfig::ivf_default()),
        ];
        for (name, config) in configs {
            let mut index = config.build(Metric::Euclidean, rows, &labels);
            let mut class = 0usize;
            c.bench_function(&format!("index/swap_label/{name}"), |b| {
                b.iter(|| {
                    class = (class + 1) % n_classes;
                    index.swap_label(class, Rows::new(dim, &fresh))
                })
            });
        }
    }

    // The `live` serving shape: one query fanned out over 45 flat
    // shards on 2 workers, merged to k = 250, then voted.
    {
        use rand::RngExt;
        let mut r = StdRng::seed_from_u64(13);
        let (n_rows, dim, n_classes) = (16_000usize, 24usize, 2_000usize);
        let mut data = Vec::with_capacity(n_rows * dim);
        let mut labels = Vec::with_capacity(n_rows);
        for i in 0..n_rows {
            let center = (i % n_classes) as f32 / 500.0;
            data.extend((0..dim).map(|_| center + r.random_range(-1.0..1.0)));
            labels.push(i % n_classes);
        }
        let store = ShardedStore::build(
            &IndexConfig::Flat,
            Metric::Euclidean,
            Rows::new(dim, &data),
            &labels,
            n_classes,
            45,
        );
        let query: Vec<f32> = (0..dim).map(|_| r.random_range(-1.0..5.0)).collect();
        c.bench_function("index/sharded_search/live_shape", |b| {
            b.iter(|| std::hint::black_box(rank_search(store.search_concurrent(&query, 250, 2))))
        });
    }

    // Dispatch cost of one parallel call: 45 trivial items on 2
    // threads, the shape of the `live` shard fan-out.
    let items: Vec<u64> = (0..45).collect();
    c.bench_function("nn/map_elems_dispatch", |b| {
        b.iter(|| std::hint::black_box(map_elems(&items, 2, |x| x + 1)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_components
}
criterion_main!(benches);
