//! Benchmarks of the runtime co-simulations themselves: how fast one
//! simulated epoch runs for each system design, plus the global queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gnnlab_core::queue::GlobalQueue;
use gnnlab_core::runtime::{
    run_factored_epoch, run_single_gpu_epoch, run_timeshare_epoch, SimContext,
};
use gnnlab_core::trace::EpochTrace;
use gnnlab_core::{SystemKind, Workload};
use gnnlab_graph::{DatasetKind, Scale};
use gnnlab_tensor::ModelKind;

fn bench_epoch_sims(c: &mut Criterion) {
    let w = Workload::new(
        ModelKind::GraphSage,
        DatasetKind::Papers,
        Scale::new(4096),
        42,
    );
    let mut group = c.benchmark_group("epoch_sim");
    group.sample_size(20);
    for system in [SystemKind::DglLike, SystemKind::TSota] {
        let ctx = SimContext::new(&w, system);
        let trace = EpochTrace::record(&w, system.kernel(), ctx.epoch);
        group.bench_with_input(
            BenchmarkId::new("timeshare", system.label()),
            &(),
            |b, ()| {
                b.iter(|| run_timeshare_epoch(&ctx, &trace).expect("fits"));
            },
        );
    }
    let ctx = SimContext::new(&w, SystemKind::GnnLab);
    let trace = EpochTrace::record(&w, SystemKind::GnnLab.kernel(), ctx.epoch);
    group.bench_function("factored_2s6t", |b| {
        b.iter(|| run_factored_epoch(&ctx, &trace, 2, 6, true).expect("fits"));
    });
    let single_ctx = SimContext::new(&w, SystemKind::GnnLab).with_gpus(1);
    group.bench_function("single_gpu", |b| {
        b.iter(|| run_single_gpu_epoch(&single_ctx, &trace).expect("fits"));
    });
    group.finish();
}

fn bench_trace_recording(c: &mut Criterion) {
    let w = Workload::new(
        ModelKind::GraphSage,
        DatasetKind::Papers,
        Scale::new(4096),
        42,
    );
    let mut group = c.benchmark_group("trace_record");
    group.sample_size(10);
    group.bench_function("gsg_pa_epoch", |b| {
        b.iter(|| EpochTrace::record(&w, SystemKind::GnnLab.kernel(), 0));
    });
    group.finish();
}

fn bench_global_queue(c: &mut Criterion) {
    c.bench_function("global_queue_pingpong_1k", |b| {
        let q: GlobalQueue<u64> = GlobalQueue::bounded(1024);
        b.iter(|| {
            for i in 0..1000u64 {
                q.enqueue(i).expect("open queue");
            }
            let mut sum = 0u64;
            while let Ok(Some(lease)) = q.dequeue_leased_timeout(0, std::time::Duration::ZERO) {
                sum += *lease.task;
                q.complete(lease.id);
            }
            sum
        });
    });
    // The bounded handoff: producer and consumer threads coupled through a
    // small queue, so the backpressure path (blocking enqueue + condvar
    // wakeups) is what gets measured.
    c.bench_function("global_queue_handoff_cap8_1k", |b| {
        b.iter(|| {
            let q: std::sync::Arc<GlobalQueue<u64>> = std::sync::Arc::new(GlobalQueue::bounded(8));
            let producer = {
                let q = std::sync::Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        q.enqueue(i).expect("open queue");
                    }
                    q.close();
                })
            };
            let mut sum = 0u64;
            while let Ok(lease) = q.dequeue_leased(0) {
                sum += *lease.task;
                q.complete(lease.id);
            }
            producer.join().expect("producer");
            sum
        });
    });
}

criterion_group!(
    benches,
    bench_epoch_sims,
    bench_trace_recording,
    bench_global_queue
);
criterion_main!(benches);
