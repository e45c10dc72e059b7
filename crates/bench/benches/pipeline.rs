//! SET-pipelining benchmarks: the depth-1 prefetch consumer loop against
//! the depth-0 serial reference at several extract:train cost ratios,
//! plus the register-tiled `matmul` and `matmul_transb` against an
//! in-bench scalar reference.
//!
//! The consumer loops here mirror the threaded runtime's shapes exactly —
//! a real `CachedFeatureStore` extract through `extract_to_buffer`
//! (double-buffered), a real dedicated [`Worker`] for the prefetch — but
//! model the train step as a sleep: on this host's single core a
//! busy-spin "train" would steal the cycles the overlapped extract needs,
//! which no real Trainer does (training runs on the device, extraction on
//! the copy engine/host). A sleep is the honest stand-in.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnnlab_cache::{load_cache, CachedFeatureStore};
use gnnlab_graph::{FeatureStore, VertexId};
use gnnlab_par::{JobHandle, ThreadPool, Worker};
use gnnlab_tensor::Matrix;
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 20_000;
const DIM: usize = 64;
const BATCH_ROWS: usize = 4_096;
const BATCHES: usize = 12;

fn store() -> Arc<CachedFeatureStore> {
    let data: Vec<f32> = (0..N * DIM).map(|i| (i % 977) as f32 * 0.5).collect();
    let host = FeatureStore::materialized(N, DIM, data);
    let hotness: Vec<f64> = (0..N).map(|v| ((v * 2_654_435_761) % N) as f64).collect();
    Arc::new(CachedFeatureStore::with_pool(
        host,
        load_cache(&hotness, 0.2, N),
        Arc::new(ThreadPool::new(1)),
    ))
}

/// One epoch's worth of mini-batch id lists (distinct batches, fixed
/// size), shared with the prefetch worker.
fn batches() -> Arc<Vec<Vec<VertexId>>> {
    Arc::new(
        (0..BATCHES)
            .map(|b| {
                (0..BATCH_ROWS as u32)
                    .map(|i| (i.wrapping_mul(37).wrapping_add(b as u32 * 101)) % N as u32)
                    .collect()
            })
            .collect(),
    )
}

/// The depth-0 reference: extract, then train, one batch fully at a time.
fn serial_epoch(store: &CachedFeatureStore, batches: &[Vec<VertexId>], train: Duration) {
    let mut buf: Vec<f32> = Vec::new();
    for ids in batches {
        store.extract_to_buffer(ids, &mut buf);
        std::thread::sleep(train);
    }
}

/// The depth-1 loop: a one-deep prefetch slot on a dedicated worker, two
/// recycled buffers — batch N+1's gather runs while batch N "trains".
fn pipelined_epoch(
    store: &Arc<CachedFeatureStore>,
    worker: &Worker,
    batches: &Arc<Vec<Vec<VertexId>>>,
    train: Duration,
) {
    let submit = |idx: usize, mut buf: Vec<f32>| -> JobHandle<Vec<f32>> {
        let store = Arc::clone(store);
        let batches = Arc::clone(batches);
        worker.submit(move || {
            store.extract_to_buffer(&batches[idx], &mut buf);
            buf
        })
    };
    let mut free: Vec<f32> = Vec::new();
    let mut pending: Option<JobHandle<Vec<f32>>> = None;
    for i in 0..batches.len() {
        let cur = match pending.take() {
            Some(h) => h,
            None => submit(i, std::mem::take(&mut free)),
        };
        if i + 1 < batches.len() {
            pending = Some(submit(i + 1, std::mem::take(&mut free)));
        }
        let buf = cur.join();
        std::thread::sleep(train);
        free = buf;
    }
}

/// Median wall time of one real extract, to anchor the train sleep at an
/// exact extract:train cost ratio.
fn calibrate_extract(store: &CachedFeatureStore, ids: &[VertexId]) -> Duration {
    let mut buf: Vec<f32> = Vec::new();
    store.extract_to_buffer(ids, &mut buf); // warm-up + buffer growth
    let mut samples: Vec<Duration> = (0..9)
        .map(|_| {
            let t = Instant::now();
            store.extract_to_buffer(ids, &mut buf);
            t.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn bench_pipeline(c: &mut Criterion) {
    let store = store();
    let batches = batches();
    let extract = calibrate_extract(&store, &batches[0]);
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    // extract:train cost ratios — extract-bound, balanced, train-bound.
    for (label, num, den) in [("e4t1", 1u32, 4u32), ("e1t1", 1, 1), ("e1t4", 4, 1)] {
        let train = extract * num / den;
        group.bench_with_input(BenchmarkId::new("serial", label), &train, |b, &train| {
            b.iter(|| serial_epoch(&store, &batches, train));
        });
        let worker = Worker::new(&format!("bench-pf-{label}"));
        group.bench_with_input(BenchmarkId::new("pipelined", label), &train, |b, &train| {
            b.iter(|| pipelined_epoch(&store, &worker, &batches, train));
        });
    }
    group.finish();
}

/// Scalar i-j-k reference matmul: what the kernels computed before they
/// were register-tiled, kept here so one run yields an honest
/// before/after.
fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.get(i, p) * b.get(p, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn bench_matmul_kernels(c: &mut Criterion) {
    // GraphSage-shaped operands: a tall activation block times a small
    // weight matrix (the hot shape of the training step).
    let a = Matrix::from_vec(
        1024,
        64,
        (0..1024 * 64).map(|i| (i % 113) as f32 * 0.01).collect(),
    );
    let b = Matrix::from_vec(
        64,
        32,
        (0..64 * 32).map(|i| (i % 89) as f32 * 0.02).collect(),
    );
    let mut group = c.benchmark_group("matmul_kernels");
    group.sample_size(20);
    group.bench_function("scalar_ref", |bch| {
        bch.iter(|| matmul_ref(&a, &b));
    });
    group.bench_function("tiled", |bch| {
        bch.iter(|| a.matmul(&b));
    });
    group.bench_function("tiled_transb", |bch| {
        // B^T has the same values transposed, so results stay comparable.
        let bt = Matrix::from_vec(32, 64, {
            let mut t = vec![0.0f32; 64 * 32];
            for r in 0..64 {
                for cc in 0..32 {
                    t[cc * 64 + r] = b.get(r, cc);
                }
            }
            t
        });
        bch.iter(|| a.matmul_transb(&bt));
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_matmul_kernels);
criterion_main!(benches);
