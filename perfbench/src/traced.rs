//! The traced driver: a single-threaded replay of one workload's SET
//! loop that calls each crate's public functions in the runtime's order
//! (sample → mark → queue round → extract → copy → forward → loss →
//! backward → optim) and times every call from outside the program.
//!
//! Spans are grouped under *step* spans: `setup` (split, plan, hotness,
//! host copy, fill, model init), `epoch` (the shuffle), `step` (one queue
//! burst of up to four batches), and `eval` (the held-out pass). Every
//! span keeps its name, start, end, the ordinal of its step and its batch
//! id; they stay in memory until the replay ends.

use crate::workload::Workload;
use gnnlab_cache::{load_cache_topk, CachePolicy, CacheStats, CachedFeatureStore, PolicyKind};
use gnnlab_core::memory::{
    live_sample_workspace_bytes, live_train_workspace_bytes, plan_live_run, LiveGraphBytes,
};
use gnnlab_core::queue::{GlobalQueue, DEFAULT_CAPACITY};
use gnnlab_core::train_real::sampler_for;
use gnnlab_graph::gen::SbmGraph;
use gnnlab_graph::{FeatureStore, VertexId};
use gnnlab_par::ThreadPool;
use gnnlab_sampling::{presample_rng, MinibatchIter, Sample, SampleBuffers};
use gnnlab_tensor::loss::{accuracy, softmax_cross_entropy};
use gnnlab_tensor::{Adam, GnnModel, Matrix, ModelConfig, Optimizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Names of the spans that group child spans.
pub const STEP_NAMES: [&str; 4] = ["setup", "epoch", "step", "eval"];

/// Learning rate of the replayed optimizer (the runtime's default).
const LR: f32 = 0.01;

/// One recorded span. For a step span `step` is its own ordinal; for a
/// child it is the ordinal of the step that contains it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub step: u32,
    pub batch: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; when off, runs the timed calls bare so the
/// two modes' wall times give the tracing overhead.
pub struct Tracer {
    on: bool,
    origin: Instant,
    step: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            step: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times one call as a child of the current step.
    fn time<R>(&mut self, name: &'static str, batch: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            step: self.step,
            batch,
        });
        out
    }

    /// Runs `f` as a new step whose children `f` records.
    fn step<R>(&mut self, name: &'static str, batch: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            step: self.step,
            batch,
        });
        self.step += 1;
        out
    }

    /// Writes the spans as CSV (`name,start_ns,end_ns,step,batch`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,start_ns,end_ns,step,batch")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.name, s.start_ns, s.end_ns, s.step, s.batch
            )?;
        }
        out.flush()
    }
}

/// What one replay computed, apart from its spans.
#[derive(Debug, Clone, Default)]
pub struct ReplayOut {
    pub batches: usize,
    pub input_rows: usize,
    /// Extracted rows that differed from a plain host gather.
    pub extract_mismatches: usize,
    /// Batches whose loss was not finite.
    pub bad_losses: usize,
    /// Statistics of the Trainer store over the training extracts.
    pub cache: CacheStats,
    /// Held-out accuracy of the replayed model.
    pub eval_acc: f64,
}

/// A sampled batch in flight between the Sampler and Trainer halves.
struct Task {
    id: u64,
    sample: Sample,
    labels: Vec<u32>,
}

/// Replays `w` on `g` once, recording into `tr`.
pub fn replay(w: &Workload, g: &SbmGraph, seed: u64, tr: &mut Tracer) -> ReplayOut {
    let n = g.csr.num_vertices();
    let dim = g.feat_dim;
    let algo = sampler_for(w.model);
    let pool = Arc::new(ThreadPool::new(1));
    let mut out = ReplayOut::default();

    let (train_set, test_set, store, mut master, mut replica, mut opt, queue) =
        tr.step("setup", 0, |tr| {
            let (train_set, test_set) = tr.time("split", 0, || {
                let train = gnnlab_graph::trainset::random_train_set(n, n / 2, seed);
                let in_train: HashSet<VertexId> = train.iter().copied().collect();
                let test: Vec<VertexId> = (0..n as VertexId)
                    .filter(|v| !in_train.contains(v))
                    .collect();
                (train, test)
            });
            let rows = tr.time("plan", 0, || {
                let live = LiveGraphBytes::new(n, g.csr.num_edges(), dim);
                let sample_ws = live_sample_workspace_bytes(w.model, w.batch_size, n);
                let train_ws = live_train_workspace_bytes(
                    w.model,
                    w.batch_size,
                    dim,
                    w.hidden_dim,
                    g.num_classes,
                    n,
                );
                plan_live_run(None, w.cache_alpha, &live, sample_ws, train_ws).trainer_rows
            });
            let hotness = tr.time("hotness", 0, || {
                CachePolicy::hotness_with_pool(
                    PolicyKind::PreSC { k: 1 },
                    &g.csr,
                    &train_set,
                    algo.as_ref(),
                    w.batch_size,
                    seed,
                    &pool,
                )
                .hotness
            });
            let host = tr.time("host_copy", 0, || {
                Arc::new(FeatureStore::materialized(n, dim, g.features.clone()))
            });
            let (store, _) = tr.time("fill", 0, || {
                let table = load_cache_topk(&hotness, rows, n);
                CachedFeatureStore::shared_with_pool(Arc::clone(&host), table, Arc::clone(&pool))
            });
            let (master, replica) = tr.time("model_init", 0, || {
                let cfg = |s: u64| ModelConfig {
                    kind: w.model,
                    in_dim: dim,
                    hidden_dim: w.hidden_dim,
                    num_classes: g.num_classes,
                    seed: s,
                };
                (
                    GnnModel::new(cfg(seed)),
                    GnnModel::new(cfg(seed.wrapping_add(1))),
                )
            });
            let queue: GlobalQueue<Task> = GlobalQueue::bounded(DEFAULT_CAPACITY);
            (
                train_set,
                test_set,
                store,
                master,
                replica,
                Adam::new(LR),
                queue,
            )
        });

    let bpe = w.batches_per_epoch(n);
    let burst = w.burst();
    let mut bufs = SampleBuffers::new();
    let mut spare: Vec<Sample> = Vec::new();
    let mut feat_buf: Vec<f32> = Vec::new();
    for epoch in 0..w.epochs {
        let batches: Vec<Vec<VertexId>> = tr.step("epoch", (epoch * bpe) as u64, |tr| {
            tr.time("shuffle", (epoch * bpe) as u64, || {
                MinibatchIter::new(&train_set, w.batch_size, seed, epoch as u64).collect()
            })
        });
        for (b, round) in batches.chunks(burst).enumerate() {
            let first = b * burst;
            let first_id = (epoch * bpe + first) as u64;
            tr.step("step", first_id, |tr| {
                let mut tasks = Vec::with_capacity(round.len());
                for (i, seeds) in (first..).zip(round) {
                    let id = (epoch * bpe + i) as u64;
                    let mut sample = spare.pop().unwrap_or_default();
                    tr.time("sample", id, || {
                        let mut rng = presample_rng(seed, epoch as u64, i as u64);
                        algo.sample_into(&g.csr, seeds, &mut rng, &mut bufs, &mut sample);
                    });
                    tr.time("mark", id, || {
                        sample.cache_mask = Some(store.table().mark(sample.input_nodes()));
                    });
                    let labels = tr.time("labels", id, || {
                        seeds.iter().map(|&v| g.labels[v as usize]).collect()
                    });
                    tasks.push(Task { id, sample, labels });
                }
                let n_tasks = tasks.len();
                let tasks: Vec<Task> = tr.time("queue", first_id, || {
                    queue
                        .enqueue_many(tasks)
                        .expect("the replay queue is never closed");
                    let leases = queue
                        .dequeue_leased_many(0, n_tasks)
                        .expect("the replay queue holds the burst just enqueued");
                    leases
                        .into_iter()
                        .map(|l| {
                            queue.complete(l.id);
                            Arc::try_unwrap(l.task)
                                .ok()
                                .expect("a completed lease leaves the task unshared")
                        })
                        .collect()
                });
                for task in tasks {
                    let id = task.id;
                    let ids = task.sample.input_nodes();
                    let rows = ids.len();
                    tr.time("extract", id, || {
                        store.extract_to_buffer(ids, &mut feat_buf)
                    });
                    out.extract_mismatches += tr.time("verify", id, || {
                        ids.iter()
                            .zip(feat_buf.chunks_exact(dim))
                            .filter(|(&v, row)| {
                                let host = &g.features[v as usize * dim..][..dim];
                                !row.iter()
                                    .zip(host)
                                    .all(|(a, b)| a.to_bits() == b.to_bits())
                            })
                            .count()
                    });
                    tr.time("copy", id, || {
                        for (r, m) in replica.params_mut().into_iter().zip(master.params_mut()) {
                            r.value = m.value.clone();
                        }
                    });
                    let (feats, logits) = tr.time("forward", id, || {
                        let feats = Matrix::from_vec(rows, dim, std::mem::take(&mut feat_buf));
                        let logits = replica.forward(&task.sample, &feats);
                        (feats, logits)
                    });
                    let (loss, grad) = tr.time("loss", id, || {
                        let (loss, grad) = softmax_cross_entropy(&logits, &task.labels);
                        black_box(accuracy(&logits, &task.labels));
                        (loss, grad)
                    });
                    tr.time("backward", id, || replica.backward(&grad));
                    tr.time("optim", id, || {
                        let grads: Vec<Matrix> = replica
                            .params_mut()
                            .iter()
                            .map(|p| p.grad.clone())
                            .collect();
                        replica.zero_grad();
                        let mut params = master.params_mut();
                        for (p, g) in params.iter_mut().zip(grads) {
                            p.grad.add_assign(&g);
                        }
                        opt.step(&mut params);
                    });
                    feat_buf = feats.into_vec();
                    out.bad_losses += usize::from(!loss.is_finite());
                    out.input_rows += rows;
                    out.batches += 1;
                    spare.push(task.sample);
                }
            });
        }
    }
    out.cache = store.stats();

    out.eval_acc = tr.step("eval", 0, |tr| {
        let (eval_store, _) = tr.time("fill", 0, || {
            CachedFeatureStore::shared_with_pool(
                Arc::new(FeatureStore::materialized(n, dim, g.features.clone())),
                store.table().clone(),
                Arc::clone(&pool),
            )
        });
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xE7A1);
        let mut correct = 0.0;
        for (c, chunk) in test_set.chunks(w.batch_size).enumerate() {
            let id = c as u64;
            let sample = tr.time("eval.sample", id, || algo.sample(&g.csr, chunk, &mut rng));
            let raw = tr.time("eval.extract", id, || {
                eval_store.extract(sample.input_nodes())
            });
            correct += tr.time("eval.forward", id, || {
                let feats = Matrix::from_vec(sample.num_input_nodes(), dim, raw);
                let logits = master.forward(&sample, &feats);
                let labels: Vec<u32> = chunk.iter().map(|&v| g.labels[v as usize]).collect();
                accuracy(&logits, &labels) * chunk.len() as f64
            });
        }
        correct / test_set.len().max(1) as f64
    });
    out
}

/// Per-step accounting of a trace: how much of each step span its
/// children cover.
#[derive(Debug, Clone, Copy)]
pub struct Accounting {
    /// Step time that no child span covers.
    pub gap_ns: u64,
    /// Total step time.
    pub step_ns: u64,
    /// Steps whose uncovered time exceeds the per-step tolerance.
    pub steps_over: usize,
    pub steps: usize,
}

/// A step passes when its children cover all but
/// `max(STEP_TOL_FRAC × step, STEP_TOL_NS)` of it. The absolute slack
/// absorbs one scheduler preemption landing between two child spans.
pub const STEP_TOL_FRAC: f64 = 0.05;
pub const STEP_TOL_NS: u64 = 10_000_000;
/// The whole trace passes when at most this share of step time is
/// uncovered.
pub const TOTAL_TOL_FRAC: f64 = 0.02;

/// Checks that child spans account for their step spans.
pub fn account(spans: &[Span]) -> Accounting {
    let steps: Vec<&Span> = spans
        .iter()
        .filter(|s| STEP_NAMES.contains(&s.name))
        .collect();
    let mut covered = vec![0u64; steps.len()];
    for s in spans.iter().filter(|s| !STEP_NAMES.contains(&s.name)) {
        covered[s.step as usize] += s.dur_ns();
    }
    let mut total = 0u64;
    let mut gap = 0u64;
    let mut steps_over = 0;
    for (step, &cov) in steps.iter().zip(&covered) {
        let d = step.dur_ns();
        let g = d.saturating_sub(cov);
        total += d;
        gap += g;
        let tol = ((d as f64 * STEP_TOL_FRAC) as u64).max(STEP_TOL_NS);
        steps_over += usize::from(g > tol);
    }
    Accounting {
        gap_ns: gap,
        step_ns: total,
        steps_over,
        steps: steps.len(),
    }
}
