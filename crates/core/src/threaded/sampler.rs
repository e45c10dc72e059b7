use super::{ewma_step, Shared, TrainTask};
use crate::faults::ExecutorRole;
use crate::sync::Ordering;
use crate::train_real::sampler_for;
use gnnlab_graph::VertexId;
use gnnlab_obs::{names, Executor, Stage};
use gnnlab_sampling::{presample_rng, MinibatchIter, SampleBuffers};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The sampler claim book (the dynamic global scheduler, §5.2).
// ---------------------------------------------------------------------------

/// Who is sampling what. One shared book replaces the old atomic cursor so
/// the close decision, in-flight claims and orphaned work of dead Samplers
/// stay consistent under crashes.
#[derive(Debug)]
pub(super) struct SamplerBook {
    /// Next unclaimed fresh batch index.
    pub(super) cursor: usize,
    /// Total batch indices in the run.
    total: usize,
    /// Indices claimed by Samplers that died before enqueueing them;
    /// survivors (or a respawn) re-sample these first.
    pub(super) orphans: Vec<usize>,
    /// In-flight claims: executor id → batch indices of its current burst
    /// (one entry at pipeline depth 0, up to [`SAMPLER_BURST`] otherwise).
    /// Entries are removed — never left empty — so `work_remains` and the
    /// checkpoint gate's `book_busy` check stay exact.
    pub(super) claims: HashMap<usize, Vec<usize>>,
    /// Executor ids currently in their sampling phase.
    pub(super) sampling: HashSet<usize>,
}

impl SamplerBook {
    pub(super) fn new(total: usize) -> Self {
        SamplerBook {
            cursor: 0,
            total,
            orphans: Vec::new(),
            claims: HashMap::new(),
            sampling: HashSet::new(),
        }
    }

    /// Claims up to `max` batches for `exec` under one lock: orphaned work
    /// first, then the fresh cursor. Empty when no work is left to claim.
    fn next_claims(&mut self, exec: usize, max: usize) -> Vec<usize> {
        let mut taken = Vec::with_capacity(max);
        for _ in 0..max {
            if let Some(i) = self.orphans.pop() {
                taken.push(i);
            } else if self.cursor < self.total {
                taken.push(self.cursor);
                self.cursor += 1;
            } else {
                break;
            }
        }
        if !taken.is_empty() {
            self.claims.insert(exec, taken.clone());
        }
        taken
    }

    /// Marks `exec`'s current burst of claims delivered to the queue.
    fn complete_claims(&mut self, exec: usize) {
        self.claims.remove(&exec);
    }

    /// Whether any batch index is still unclaimed or in flight.
    pub(super) fn work_remains(&self) -> bool {
        self.cursor < self.total || !self.orphans.is_empty() || !self.claims.is_empty()
    }

    /// Whether the producing side is finished: no sampler active and no
    /// work outstanding — time to close the queue.
    pub(super) fn should_close(&self) -> bool {
        self.sampling.is_empty() && !self.work_remains()
    }
}

/// How many batches a Sampler claims and enqueues per round when the run
/// is pipelined (`pipeline_depth > 0`): one `enqueue_many` lock/condvar
/// round-trip moves the whole burst. Small enough that a burst never
/// outlives the default queue capacity, large enough to amortize the
/// handoff.
const SAMPLER_BURST: usize = 4;

/// One Sampler's main loop: claim the next batch indices from the shared
/// book (one at pipeline depth 0, a burst of [`SAMPLER_BURST`] otherwise),
/// sample and mark each, then enqueue the burst in one round-trip
/// (blocking at the queue's capacity). Exits after closing the queue if it
/// was the last producer out.
pub(super) fn sampler_phase(sh: &Shared<'_>, slot: usize, exec: usize) {
    let cfg = sh.cfg;
    let algo = sampler_for(sh.kind);
    let device = slot as u32;
    let crash = cfg.faults.crash_for(ExecutorRole::Sampler, slot);
    let slowdown = cfg.faults.slowdown(ExecutorRole::Sampler, slot);
    let obs = &*sh.obs;
    let mut cached_epoch = usize::MAX;
    let mut batches: Vec<Vec<VertexId>> = Vec::new();
    let mut sampled = 0usize;
    // This executor's own batch-time EWMA, published as a gauge so the
    // straggler alert can compare it against the sampler fleet's median.
    let ewma_gauge = names::executor_ewma("sampler", slot);
    let mut my_ewma: Option<f64> = None;
    // Reusable sampling scratch: one set per Sampler thread, so the hot
    // loop allocates no per-batch intermediates.
    let mut bufs = SampleBuffers::new();
    // At pipeline depth 0 each round moves exactly one batch (the serial
    // reference path); pipelined runs amortize the queue handoff into one
    // enqueue_many round-trip per burst.
    let burst = if cfg.pipeline_depth == 0 {
        1
    } else {
        SAMPLER_BURST
    };
    loop {
        // Quiesce before claiming: a parked Sampler holds no claim, so
        // the checkpoint's cursor is exact.
        if let Some(c) = &sh.ckpt {
            if c.requested.load(Ordering::Relaxed) {
                sh.ckpt_park(c, true);
            }
        }
        let claims = sh.book.lock().next_claims(exec, burst);
        if claims.is_empty() {
            break;
        }
        let mut tasks = Vec::with_capacity(claims.len());
        for &i in &claims {
            if let Some((ci, after)) = crash {
                if sampled + tasks.len() >= after
                    && !sh.crash_fired[ci].swap(true, Ordering::AcqRel)
                {
                    sh.note_fault();
                    // The whole burst's claims stay registered: the
                    // supervisor orphans them all and survivors re-sample
                    // each batch (nothing sampled here was enqueued yet,
                    // so exactly-once holds).
                    panic!("injected fault: Sampler {slot} after {after} batches");
                }
            }
            let epoch = i / sh.batches_per_epoch;
            if epoch != cached_epoch {
                // Every Sampler derives the same shuffle for a given
                // epoch, so the global index space is consistent across
                // threads.
                batches =
                    MinibatchIter::new(sh.train_set, cfg.batch_size, sh.shuffle_seed, epoch as u64)
                        .collect();
                cached_epoch = epoch;
            }
            let batch = &batches[i % sh.batches_per_epoch];
            let id = i as u64;
            // Per-batch domain-tagged RNG: the sampler's random state is a
            // pure function of (seed, epoch, batch), so the batch cursor
            // IS the RNG position — resume replays nothing and skips
            // nothing, and it doesn't matter which executor samples which
            // batch (or in which burst).
            let mut rng = presample_rng(cfg.seed, epoch as u64, (i % sh.batches_per_epoch) as u64);
            let work_started = Instant::now();
            let mut sample = {
                let _g = obs.start_span(device, Executor::Sampler, Stage::SampleG, id);
                algo.sample_with(&sh.graph.csr, batch, &mut rng, &mut bufs)
            };
            // The M step (§5.2): the Sampler marks which input vertices
            // the Trainers' cache holds, so Trainers need no second
            // membership pass.
            {
                let _g = obs.start_span(device, Executor::Sampler, Stage::SampleM, id);
                sample.cache_mask = Some(sh.mark_table.mark(sample.input_nodes()));
            }
            let mut secs = work_started.elapsed().as_secs_f64();
            if slowdown > 1.0 {
                // A straggling device: stretch the batch to `slowdown`
                // times its natural duration.
                std::thread::sleep(Duration::from_secs_f64(secs * (slowdown - 1.0)));
                secs *= slowdown;
            }
            // T_s counts sampling *work* (G + M, stretched by any
            // straggler factor); the C step below may block on
            // backpressure, which is waiting, not work.
            sh.stats.update(
                &sh.stats.t_sample,
                names::SCHEDULER_EWMA_T_SAMPLE,
                secs,
                obs,
            );
            let est = ewma_step(my_ewma, secs);
            my_ewma = Some(est);
            obs.metrics.gauge_set(&ewma_gauge, est);
            let labels = batch.iter().map(|&v| sh.graph.labels[v as usize]).collect();
            tasks.push(TrainTask { id, sample, labels });
        }
        let n = tasks.len();
        let first_id = tasks[0].id;
        let enqueued = {
            let _g = obs.start_span(device, Executor::Sampler, Stage::SampleC, first_id);
            sh.queue.enqueue_many(tasks)
        };
        match enqueued {
            Ok(()) => {
                sh.book.lock().complete_claims(exec);
                sh.produced.fetch_add(n, Ordering::Relaxed);
                sampled += n;
                obs.metrics
                    .counter_add(names::THREADED_SAMPLES_PRODUCED, n as f64);
            }
            // Poisoned (a peer crashed beyond recovery): stop producing.
            Err(_) => {
                sh.book.lock().complete_claims(exec);
                return;
            }
        }
    }
    // Finished sampling; the last producer out closes the queue so
    // blocked consumers drain what remains and exit instead of spinning.
    let mut book = sh.book.lock();
    book.sampling.remove(&exec);
    let close = book.should_close();
    drop(book);
    if close {
        sh.queue.close();
    }
}
