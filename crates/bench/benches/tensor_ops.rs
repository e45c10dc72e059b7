//! Benchmarks of the tensor substrate: matmul, full layer
//! forward/backward over a realistic sampled block, and one whole model
//! train step at the `sage-pl-cache` benchmark workload's shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnnlab_graph::gen::chung_lu;
use gnnlab_par::ThreadPool;
use gnnlab_sampling::{KHop, Kernel, Sample, SamplingAlgorithm, Selection};
use gnnlab_tensor::layers::{GnnLayer, LayerKind};
use gnnlab_tensor::{GnnModel, Matrix, ModelConfig, ModelKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut group = c.benchmark_group("matmul");
    for n in [64usize, 256] {
        let a = Matrix::xavier(n, n, &mut rng);
        let b = Matrix::xavier(n, n, &mut rng);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| a.matmul(&b));
        });
    }
    group.finish();
}

/// The pooled matmul at fixed thread counts, against the same inputs as
/// the sequential `matmul/256` case above.
fn bench_matmul_pooled(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let n = 256usize;
    let a = Matrix::xavier(n, n, &mut rng);
    let b = Matrix::xavier(n, n, &mut rng);
    let mut group = c.benchmark_group("matmul_pooled");
    group.throughput(Throughput::Elements((2 * n * n * n) as u64));
    for threads in [1usize, 2, 4, 8] {
        let pool = ThreadPool::new(threads);
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &pool,
            |bench, pool| {
                bench.iter(|| a.matmul_with(&b, pool));
            },
        );
    }
    group.finish();
}

fn sampled_batch() -> Sample {
    let g = chung_lu(20_000, 400_000, 2.0, 3).expect("valid parameters");
    let algo = KHop::new(vec![10, 5], Kernel::FisherYates, Selection::Uniform);
    let seeds: Vec<u32> = (0..64).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    algo.sample(&g, &seeds, &mut rng)
}

fn bench_layers(c: &mut Criterion) {
    let sample = sampled_batch();
    let block = &sample.blocks[0];
    let in_dim = 64;
    let x = Matrix::xavier(block.src_count(), in_dim, &mut ChaCha8Rng::seed_from_u64(5));
    let mut group = c.benchmark_group("layer_fwd_bwd");
    group.sample_size(20);
    for (name, kind) in [
        ("graph_conv", LayerKind::GraphConv),
        ("sage_conv", LayerKind::SageConv),
        ("pinsage_conv", LayerKind::PinSageConv),
    ] {
        group.bench_function(name, |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            let mut layer = GnnLayer::new(kind, in_dim, 64, true, &mut rng);
            b.iter(|| {
                let out = layer.forward(block, &x);
                let grad = Matrix::zeros(out.rows(), out.cols());
                layer.backward(&grad)
            });
        });
    }
    group.finish();
}

/// One `GnnModel::train_batch` (forward, loss, backward) plus the
/// gradient reset, at the `sage-pl-cache` workload's shape: GraphSAGE,
/// 256-dim input, hidden 16, 8 classes, a `[25,10]` sample of 64 seeds
/// spread over a skewed 100k-vertex, 1M-edge graph. The bottom block has
/// 311 dst and 1,394 src rows; the workload's averages 241 and 1,117.
fn bench_model_train_batch(c: &mut Criterion) {
    let g = chung_lu(100_000, 1_000_000, 2.0, 3).expect("valid parameters");
    let algo = KHop::new(vec![25, 10], Kernel::FisherYates, Selection::Uniform);
    let seeds: Vec<u32> = (0..64).map(|i| i * 1_531).collect();
    let sample = algo.sample(&g, &seeds, &mut ChaCha8Rng::seed_from_u64(4));
    let in_dim = 256;
    let feats = Matrix::xavier(
        sample.num_input_nodes(),
        in_dim,
        &mut ChaCha8Rng::seed_from_u64(7),
    );
    let labels: Vec<u32> = (0..64).map(|i| i % 8).collect();
    let mut model = GnnModel::new(ModelConfig {
        kind: ModelKind::GraphSage,
        in_dim,
        hidden_dim: 16,
        num_classes: 8,
        seed: 8,
    });
    let mut group = c.benchmark_group("model_train_batch");
    group.sample_size(20);
    group.bench_function("graphsage_256_16_8", |b| {
        b.iter(|| {
            let step = model.train_batch(&sample, &feats, &labels);
            model.zero_grad();
            step
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_pooled,
    bench_layers,
    bench_model_train_batch
);
criterion_main!(benches);
