use super::ckpt_gate::CKPT_POLL;
use super::params::{pull_params, push_grads};
use super::{
    ewma_step, stream_seed, ExecutorCacheReport, Shared, StreamRole, ThreadedError,
    ThreadedErrorKind, TrainTask,
};
use crate::checkpoint::BatchRecord;
use crate::faults::ExecutorRole;
use crate::queue::Lease;
use crate::schedule::{seed_standby_estimate, switch_profit};
use crate::sync::Ordering;
use gnnlab_cache::{CacheStats, CachedFeatureStore};
use gnnlab_obs::{names, Executor, Stage};
use gnnlab_par::{JobHandle, Worker};
use gnnlab_tensor::{GnnModel, Matrix, ModelConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Executor bodies.
// ---------------------------------------------------------------------------

/// A fresh model replica for executor `exec`, initialized from its own
/// `role` stream.
fn new_replica(sh: &Shared<'_>, role: StreamRole, exec: usize) -> GnnModel {
    GnnModel::new(ModelConfig {
        kind: sh.kind,
        in_dim: sh.graph.feat_dim,
        hidden_dim: sh.cfg.hidden_dim,
        num_classes: sh.graph.num_classes,
        seed: stream_seed(sh.cfg.seed, role, exec as u64),
    })
}

/// A Trainer's main loop: build its own memory-planned cache, then lease
/// tasks off the queue, retry transient faults in place, train, confirm
/// the lease.
pub(super) fn trainer_phase(
    sh: &Shared<'_>,
    slot: usize,
    exec: usize,
) -> Result<(), ThreadedError> {
    let cfg = sh.cfg;
    let device = (cfg.num_samplers + slot) as u32;
    let mut replica = new_replica(sh, StreamRole::Trainer, exec);
    let (store, refresh_ns) = sh.build_store(sh.plan.trainer_rows, device, Executor::Trainer);
    // Arc so a pipelined consumer can share the store with its extract
    // worker.
    let store = Arc::new(store);
    let crash = cfg.faults.crash_for(ExecutorRole::Trainer, slot);
    let slowdown = cfg.faults.slowdown(ExecutorRole::Trainer, slot);
    consume_loop(
        sh,
        exec,
        device,
        slot,
        &mut replica,
        &store,
        refresh_ns,
        crash,
        slowdown,
        false,
    )
}

/// The §5.3 switching decision a Sampler takes once its sampling work is
/// done: evaluate the live profit metric and, if positive, pay the
/// replica-init and cache-refresh cost, re-check, and train as a standby
/// Trainer until the queue drains.
pub(super) fn standby_phase(
    sh: &Shared<'_>,
    slot: usize,
    exec: usize,
) -> Result<(), ThreadedError> {
    let cfg = sh.cfg;
    let obs = &*sh.obs;
    let remaining = sh.queue.remaining();
    // Until estimates exist, fall back T_t ≈ T_s (same order of work per
    // batch here).
    let t_train = sh
        .stats
        .t_train
        .get()
        .or_else(|| sh.stats.t_sample.get())
        .unwrap_or(0.0);
    // T_t' is the measured standby EWMA once one exists; before that it
    // is *seeded* from the standby's planned cache shape and the measured
    // refresh cost (§5.3: the standby keeps topology, so its cache is
    // smaller and T_t' > T_t) — no hard-coded prior.
    let refresh = sh.refresh_secs.get().unwrap_or(0.0);
    let t_standby = sh.stats.t_standby.get().unwrap_or_else(|| {
        seed_standby_estimate(t_train, sh.standby_miss_ratio, refresh, remaining)
    });
    let n_t = sh.stats.active_trainers.load(Ordering::Relaxed);
    let profit = switch_profit(remaining, t_train, n_t, t_standby);
    obs.metrics
        .sample(names::SCHEDULER_SWITCH_PROFIT, obs.now_ns(), profit);
    obs.metrics.observe(names::SCHEDULER_SWITCH_PROFIT, profit);
    if profit <= 0.0 {
        obs.metrics.counter_inc(names::SCHEDULER_SWITCH_DENIED);
        return Ok(());
    }
    // Tentatively switch: register as a consumer, pay the replica init
    // and the cache refresh, then re-check the profit on a fresh queue
    // read — committing on the stale pre-init read both wasted the init
    // cost on a drained queue and overcounted `scheduler.switches`.
    sh.stats.active_trainers.fetch_add(1, Ordering::Relaxed);
    sh.consuming.lock().insert(exec);
    let mut replica = new_replica(sh, StreamRole::Standby, exec);
    let (store, refresh_ns) = sh.build_store(sh.plan.standby_rows, slot as u32, Executor::Standby);
    let store = Arc::new(store);
    let remaining_now = sh.queue.remaining();
    let peers = sh
        .stats
        .active_trainers
        .load(Ordering::Relaxed)
        .saturating_sub(1);
    let t_standby_now = sh.stats.t_standby.get().unwrap_or(t_standby);
    let profit_now = switch_profit(
        remaining_now,
        sh.stats.t_train.get().unwrap_or(t_train),
        peers,
        t_standby_now,
    );
    if profit_now <= 0.0 {
        // The queue drained (or peers multiplied) while this standby was
        // initializing: a futile wake, not a switch.
        obs.metrics.counter_inc(names::SCHEDULER_SWITCH_FUTILE);
        sh.stats.active_trainers.fetch_sub(1, Ordering::Relaxed);
        return Ok(());
    }
    obs.metrics.counter_inc(names::SCHEDULER_SWITCHES);
    sh.switches.fetch_add(1, Ordering::Relaxed);
    let slowdown = cfg.faults.slowdown(ExecutorRole::Sampler, slot);
    let res = consume_loop(
        sh,
        exec,
        slot as u32,
        slot,
        &mut replica,
        &store,
        refresh_ns,
        None,
        slowdown,
        true,
    );
    sh.stats.active_trainers.fetch_sub(1, Ordering::Relaxed);
    res
}

/// What the prefetch worker hands back: the filled feature buffer plus
/// the obs-clock interval of the extract, for overlap accounting.
struct PrefetchOut {
    buf: Vec<f32>,
    start_ns: u64,
    end_ns: u64,
}

/// The consumer loop every Trainer and standby runs, at every
/// [`ThreadedConfig::pipeline_depth`]. Each iteration
///
/// 1. takes batch N: the prefetched one, or a blocking leased dequeue;
/// 2. at depth 1, leases batch N+1 non-blocking and submits its extract
///    to the consumer's dedicated prefetch worker;
/// 3. maybe crashes (injected, at most once, while every in-flight batch
///    still holds its lease, so the replay trains each exactly once) and
///    retries transient faults in place with seeded backoff;
/// 4. gets batch N's features: at depth 0 it extracts inline under
///    [`Stage::Extract`]; at depth 1 it joins the prefetch, counting
///    `pipeline.prefetch_hit` when the extract had already finished,
///    `pipeline.stall_ns` for the residual wait and `pipeline.overlap_ns`
///    for the interval the extract shared with batch N−1's train;
/// 5. pulls, trains, pushes and confirms the lease.
///
/// Depth 0 is the serial reference: one lease at a time, no worker
/// thread, no `pipeline.*` counters. The training history is
/// bit-identical across depths, because extraction never reads or writes
/// model state. Features land in recycled buffers (`extract_to_buffer` +
/// `Matrix::into_vec`), so the steady state allocates none. The loop
/// streams the executor's own `cache.<role>.<slot>.*` counters per batch
/// and files its [`ExecutorCacheReport`] on exit.
///
/// While a checkpoint round is requested the prefetch slot is not topped
/// up, so the held leases drain to zero and the consumer can park.
#[allow(clippy::too_many_arguments)]
fn consume_loop(
    sh: &Shared<'_>,
    exec: usize,
    device: u32,
    slot: usize,
    replica: &mut GnnModel,
    store: &Arc<CachedFeatureStore>,
    refresh_ns: u64,
    crash: Option<(usize, usize)>,
    slowdown: f64,
    standby: bool,
) -> Result<(), ThreadedError> {
    let cfg = sh.cfg;
    let obs = &*sh.obs;
    let (role, role_name, cell, series) = if standby {
        let series = names::SCHEDULER_EWMA_T_STANDBY;
        (Executor::Standby, "standby", &sh.stats.t_standby, series)
    } else {
        let series = names::SCHEDULER_EWMA_T_TRAIN;
        (Executor::Trainer, "trainer", &sh.stats.t_train, series)
    };
    let who = format!("{} {slot}", if standby { "Standby" } else { "Trainer" });
    let ewma_gauge = names::executor_ewma(role_name, slot);
    let lookups_name = names::executor_cache(role_name, slot, "lookups");
    let hits_name = names::executor_cache(role_name, slot, "hits");
    let misses_name = names::executor_cache(role_name, slot, "misses");
    let hit_rate_name = names::executor_cache(role_name, slot, "hit_rate");
    let mut done = 0usize;
    // This executor's own batch-time EWMA (straggler-alert input).
    let mut my_ewma: Option<f64> = None;
    // Last published cache snapshot, so the per-executor counters stream
    // deltas instead of re-adding the running totals.
    let mut last_cache = CacheStats::default();
    // Files this executor's cache report whether the loop exits cleanly
    // or returns an unrecoverable error.
    let file_report = || {
        sh.cache_reports.lock().push(ExecutorCacheReport {
            role,
            slot,
            alpha: store.table().alpha(),
            rows: store.table().len(),
            refresh_ns,
            stats: store.stats(),
        });
    };
    // Depth 1 only: the dedicated extract worker, one FIFO thread per
    // consumer, so a prefetch never steals the consumer's own CPU
    // mid-train (the extract's data-parallel fan-out still goes through
    // the shared pool inside `extract_into`).
    let worker =
        (cfg.pipeline_depth > 0).then(|| Worker::new(&format!("gnnlab-pf-{role_name}-{slot}")));
    // The recycled feature buffers. At depth 1 one rides the in-flight
    // extract while the freed one waits here for the next submit; depth 0
    // needs only this one. `Vec::new()` never allocates, so the buffers
    // materialize lazily and are recycled forever after.
    let mut free_buf: Vec<f32> = Vec::new();
    // The one-deep prefetch slot: batch N+1's lease and its in-flight
    // extract. Leases stay outstanding until their batch trains and
    // confirms, so a consumer that dies with this slot full holds *two*
    // live leases, and the supervisor replays both in enqueue order.
    let mut pending: Option<(Lease<TrainTask>, JobHandle<PrefetchOut>)> = None;
    // Obs-clock interval of the previous batch's pull + train, for the
    // overlap intersection.
    let mut last_train: Option<(u64, u64)> = None;
    let feat_dim = sh.graph.feat_dim;
    // Starts a leased batch's extract on the worker, moving the free
    // buffer into the job.
    let submit = |w: &Worker, task: &Arc<TrainTask>, buf: &mut Vec<f32>| {
        let task = Arc::clone(task);
        let job_obs = Arc::clone(&sh.obs);
        let job_store = Arc::clone(store);
        let mut job_buf = std::mem::take(buf);
        w.submit(move || {
            let start_ns = job_obs.now_ns();
            let rows = task.sample.num_input_nodes();
            {
                let _g = job_obs.start_span(device, role, Stage::Prefetch, task.id);
                job_store.extract_to_buffer(task.sample.input_nodes(), &mut job_buf);
            }
            job_obs
                .metrics
                .counter_add(names::EXTRACT_PAR_ROWS, rows as f64);
            job_obs.metrics.counter_add(
                names::EXTRACT_PAR_CHUNKS,
                job_store.pool().partitions(rows) as f64,
            );
            PrefetchOut {
                buf: job_buf,
                start_ns,
                end_ns: job_obs.now_ns(),
            }
        })
    };
    'run: loop {
        // (1) Batch N: the slot's prefetched batch, or a fresh blocking
        // dequeue. At depth 1 a fresh batch's extract is submitted on the
        // spot and paid in full as stall: the cold path of the first
        // batch and of any burst the prefetch couldn't get ahead of. At
        // depth 0 `extract` stays `None`.
        let (lease, extract, prefetched) = match pending.take() {
            Some((lease, handle)) => (lease, Some(handle), true),
            None => {
                // The leased dequeue blocks until enqueue, reclaim, close
                // or poison, so idle consumers cost no CPU. With
                // checkpointing on it polls instead, so the consumer can
                // park at the quiesce gate, and parks only while no lease
                // is out, so the round sees a fully drained pipeline.
                let lease = loop {
                    let dequeued = match &sh.ckpt {
                        Some(c) => {
                            if c.requested.load(Ordering::Relaxed)
                                && sh.queue.remaining() == 0
                                && sh.queue.leased_count() == 0
                            {
                                sh.ckpt_park(c, false);
                            }
                            sh.queue.dequeue_leased_timeout(exec as u32, CKPT_POLL)
                        }
                        None => sh.queue.dequeue_leased(exec as u32).map(Some),
                    };
                    match dequeued {
                        Ok(Some(lease)) => break lease,
                        Ok(None) => continue,
                        // Drained, or poisoned by a fatal peer crash (whose
                        // thread records the error): exit.
                        Err(_) => break 'run,
                    }
                };
                let extract = worker
                    .as_ref()
                    .map(|w| submit(w, &lease.task, &mut free_buf));
                (lease, extract, false)
            }
        };
        // (2) Depth 1: top up the one-deep prefetch slot, leasing batch
        // N+1 now so its extract overlaps batch N's train. Skipped while a
        // checkpoint round is pending so the held leases drain.
        let ckpt_pending = sh
            .ckpt
            .as_ref()
            .is_some_and(|c| c.requested.load(Ordering::Relaxed));
        if let Some(w) = worker.as_ref().filter(|_| !ckpt_pending) {
            if let Ok(Some(lease)) = sh.queue.dequeue_leased_timeout(exec as u32, Duration::ZERO) {
                let handle = submit(w, &lease.task, &mut free_buf);
                pending = Some((lease, handle));
            }
        }
        // (3) Injected crash, with every in-flight batch leased and
        // untrained (one at depth 0, up to two at depth 1): the supervisor
        // reclaims them and survivors train each exactly once.
        if let Some((ci, after)) = crash {
            if done >= after && !sh.crash_fired[ci].swap(true, Ordering::AcqRel) {
                sh.note_fault();
                panic!("injected fault: {who} after {after} batches");
            }
        }
        let task = &*lease.task;
        // Seeded transient Extract/Train errors: this batch fails
        // `failures` consecutive times before succeeding; each retry backs
        // off (capped exponential + jitter).
        let failures = cfg.faults.transient_failures(task.id);
        for attempt in 0..failures {
            if attempt >= cfg.faults.retry.max_attempts {
                // Unrecoverable: fail the run through the poison path (no
                // respawn would help a deterministic fault).
                file_report();
                return Err(ThreadedError::new(
                    ThreadedErrorKind::UnrecoverableFault,
                    who.clone(),
                    format!(
                        "unrecoverable transient fault on batch {} after {attempt} retries",
                        task.id
                    ),
                ));
            }
            sh.note_fault();
            sh.recovery.lock().retries += 1;
            obs.metrics.counter_inc(names::RETRY_ATTEMPTS);
            let backoff = cfg.faults.backoff(attempt, task.id);
            obs.metrics
                .counter_add(names::RETRY_BACKOFF_NS, backoff.as_nanos() as f64);
            std::thread::sleep(backoff);
        }
        // (4) Batch N's features: the real two-tier Extract (device cache
        // + host, guided by the Sampler's marks).
        let rows = task.sample.num_input_nodes();
        debug_assert_eq!(
            task.sample.cache_mask.as_deref().map(<[bool]>::len),
            Some(rows),
            "Sampler must mark every input vertex"
        );
        // The per-batch time the EWMAs track runs from here to the end of
        // the train: the inline extract at depth 0, the join stall at
        // depth 1 (the hidden part of the extract is exactly what the
        // pipeline bought), plus pull + train.
        let started = Instant::now();
        let buf = match extract {
            None => {
                let _g = obs.start_span(device, role, Stage::Extract, task.id);
                store.extract_to_buffer(task.sample.input_nodes(), &mut free_buf);
                obs.metrics
                    .counter_add(names::EXTRACT_PAR_ROWS, rows as f64);
                obs.metrics.counter_add(
                    names::EXTRACT_PAR_CHUNKS,
                    store.pool().partitions(rows) as f64,
                );
                std::mem::take(&mut free_buf)
            }
            Some(handle) => {
                // Already done means the gather hid fully behind the
                // previous train.
                let hit = prefetched && handle.is_done();
                let out = handle.join();
                if hit {
                    obs.metrics.counter_inc(names::PIPELINE_PREFETCH_HIT);
                }
                obs.metrics.counter_add(
                    names::PIPELINE_STALL_NS,
                    started.elapsed().as_nanos() as f64,
                );
                if let Some((t0, t1)) = last_train {
                    // Interval intersection of this extract with the
                    // previous train: the serialized time the pipeline
                    // actually hid.
                    let overlap = t1.min(out.end_ns).saturating_sub(t0.max(out.start_ns));
                    if overlap > 0 {
                        obs.metrics
                            .counter_add(names::PIPELINE_OVERLAP_NS, overlap as f64);
                    }
                }
                out.buf
            }
        };
        // (5) Pull, train and push on the gathered features, then recycle
        // the buffer.
        let feats = Matrix::from_vec(rows, feat_dim, buf);
        let train_start = obs.now_ns();
        pull_params(replica, &sh.server);
        {
            let _g = obs.start_span(device, role, Stage::Train, task.id);
            if let Some(d) = cfg.trainer_delay {
                std::thread::sleep(d);
            }
            let (loss, acc) = replica.train_batch(&task.sample, &feats, &task.labels);
            push_grads(replica, &sh.server);
            sh.history.lock().push(BatchRecord {
                id: task.id,
                loss,
                acc,
            });
        }
        sh.trained.fetch_add(1, Ordering::Relaxed);
        last_train = Some((train_start, obs.now_ns()));
        let mut secs = started.elapsed().as_secs_f64();
        free_buf = feats.into_vec();
        if slowdown > 1.0 {
            std::thread::sleep(Duration::from_secs_f64(secs * (slowdown - 1.0)));
            secs *= slowdown;
        }
        sh.stats.update(cell, series, secs, obs);
        let est = ewma_step(my_ewma, secs);
        my_ewma = Some(est);
        obs.metrics.gauge_set(&ewma_gauge, est);
        // Stream this executor's own hit/miss deltas so the low-hit-rate
        // alert sees each store, not the fleet average.
        let snap = store.stats();
        obs.metrics
            .counter_add(&lookups_name, (snap.lookups - last_cache.lookups) as f64);
        obs.metrics
            .counter_add(&hits_name, (snap.hits - last_cache.hits) as f64);
        obs.metrics.counter_add(
            &misses_name,
            ((snap.lookups - snap.hits) - (last_cache.lookups - last_cache.hits)) as f64,
        );
        obs.metrics.gauge_set(&hit_rate_name, snap.hit_rate());
        last_cache = snap;
        sh.queue.complete(lease.id);
        done += 1;
        if let Some(c) = &sh.ckpt {
            sh.ckpt_request_if_due();
            // The chaos kill-point: after `k` batches trained this run, one
            // consumer dies abruptly — from the outside this is SIGKILL;
            // the run fails and only durable checkpoints survive.
            if let Some(k) = c.policy.chaos.kill_after_batches {
                if sh.trained.load(Ordering::Relaxed) >= k
                    && !c.kill_fired.swap(true, Ordering::AcqRel)
                {
                    file_report();
                    return Err(ThreadedError::new(
                        ThreadedErrorKind::Killed,
                        who.clone(),
                        format!("simulated process kill after {k} trained batches"),
                    ));
                }
            }
        }
    }
    file_report();
    Ok(())
}
