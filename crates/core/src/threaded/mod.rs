//! A real multi-threaded factored runtime.
//!
//! The co-simulations in [`crate::runtime`] model the paper's *timing* on
//! simulated GPUs; this module is the paper's *architecture* as an actual
//! concurrent program: Sampler threads pull mini-batches from a dynamic
//! global scheduler (a shared claim book over the epoch's batch indices,
//! §5.2), sample for real, and enqueue whole samples into the bounded
//! host-memory [`GlobalQueue`]; Trainer threads block on the queue (no
//! busy-spinning) and train real model replicas, publishing gradients to a
//! shared parameter server with bounded staleness ("GNNLab updates model
//! gradients with bounded staleness … which effectively mitigates the
//! convergence problem", §5.2).
//!
//! Dynamic executor switching (§5.3) runs live: every executor feeds EWMA
//! estimates of `T_s`, `T_t` and `T_t'` from its recorded batch times, and
//! a Sampler that finishes its share of the epoch flips into a standby
//! Trainer whenever the profit metric `P = M_r·T_t/N_t − T_t'` is
//! positive, training until the queue drains.
//!
//! Trainers and standbys all run one consumer loop whose lookahead depth
//! is [`ThreadedConfig::pipeline_depth`]. At depth 0 the consumer extracts
//! each batch inline and then trains it: the serial reference. At depth 1
//! a dedicated worker extracts batch N+1 while batch N trains.
//!
//! # Fault tolerance
//!
//! Failure behavior is driven by the run's [`FaultPlan`]
//! ([`ThreadedConfig::faults`]):
//!
//! * **Leases** — consumers dequeue under a lease and confirm each batch
//!   after training; when a consumer dies the supervisor reclaims its
//!   leases and the batches are replayed by survivors, so a crash loses
//!   no work and every batch still trains exactly once (injected crashes
//!   fire while the lease is held, *before* the batch trains).
//! * **Supervision** — a crashed executor's panic handler runs the
//!   recovery protocol: replay in-flight work, then either *respawn* a
//!   replacement on the same slot or *reassign* the role to survivors,
//!   decided by re-running the §5.2 allocation rule on the live EWMA
//!   stage times. Each absorbed crash consumes one unit of
//!   [`FaultPlan::max_respawns`]; past the budget the queue is poisoned
//!   and [`run_threaded`] fails fast — with the default empty plan
//!   (budget 0) any organic panic still unblocks every thread and
//!   surfaces as a [`ThreadedError`] in bounded time instead of
//!   deadlocking.
//! * **Retries** — seeded transient Extract/Train errors retry in place
//!   with capped exponential backoff plus deterministic jitter; a batch
//!   that exceeds [`crate::faults::RetryPolicy::max_attempts`] is
//!   unrecoverable and fails the run through the poison path (it does
//!   not consume respawn budget).
//! * **Stragglers** — per-slot slowdown factors stretch an executor's
//!   batch times; the EWMAs observe the stretched times, so the
//!   allocation rule and the switching metric see the straggler.
//!
//! Everything recovery does is counted in the run's
//! [`RecoveryReport`] and published under the `faults.*`, `recovery.*`
//! and `retry.*` metric names.

mod ckpt_gate;
mod consumer;
mod params;
mod sampler;
mod supervisor;

use crate::checkpoint::{self, BatchRecord, CheckpointPolicy};
use crate::faults::{splitmix64, FaultPlan};
use crate::memory::{
    live_sample_workspace_bytes, live_train_workspace_bytes, plan_live_run, LiveCachePlan,
    LiveGraphBytes,
};
use crate::queue::{GlobalQueue, DEFAULT_CAPACITY};
use crate::schedule::num_samplers;
use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Mutex, Ordering};
use crate::train_real::sampler_for;
use ckpt_gate::CkptRuntime;
use gnnlab_cache::{
    load_cache_topk, CachePolicy, CacheStats, CacheTable, CachedFeatureStore, PolicyKind,
};
use gnnlab_graph::gen::SbmGraph;
use gnnlab_graph::{FeatureStore, VertexId};
use gnnlab_obs::{names, Executor, Obs, Stage, Telemetry, TelemetryConfig};
use gnnlab_par::ThreadPool;
use gnnlab_sampling::Sample;
use gnnlab_tensor::loss::accuracy;
use gnnlab_tensor::{Adam, GnnModel, Matrix, ModelConfig, ModelKind};
use params::ParamServer;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sampler::SamplerBook;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use supervisor::{spawn_sampler, spawn_trainer};

/// Configuration of a threaded training run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Number of Sampler threads (the paper's Sampler executors).
    pub num_samplers: usize,
    /// Number of Trainer threads.
    pub num_trainers: usize,
    /// Epochs to run.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Hidden dimension.
    pub hidden_dim: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed; per-executor streams derive from it via SplitMix64 so no
    /// two consumers (Samplers, model inits, evaluation, shuffling) ever
    /// share a stream.
    pub seed: u64,
    /// Target feature-cache ratio for the dedicated Trainers' two-tier
    /// extraction; 0 disables caching (and skips the hotness pass
    /// entirely). Standby Trainers get a smaller cache per the §3 memory
    /// ledger: their device still holds topology and the sampling
    /// workspace.
    pub cache_alpha: f64,
    /// Hotness policy ranking vertices for every per-executor cache
    /// (default PreSC#1, the paper's).
    pub cache_policy: PolicyKind,
    /// Per-device memory budget in bytes the role planners allocate out
    /// of. `None` derives a budget from [`ThreadedConfig::cache_alpha`]
    /// so dedicated Trainers land exactly on that ratio; the standby
    /// shape then affords strictly fewer rows.
    pub device_budget: Option<u64>,
    /// Capacity of the bounded global queue: Samplers block once this many
    /// samples wait unconsumed (host-memory backpressure, §5.2).
    pub queue_capacity: usize,
    /// Whether finished Samplers may flip into standby Trainers when the
    /// profit metric is positive (§5.3).
    pub dynamic_switching: bool,
    /// Artificial per-batch Trainer delay, for tests and experiments that
    /// need slow Trainers (backpressure, switching).
    pub trainer_delay: Option<Duration>,
    /// The fault plan: injected crashes, stragglers, transient errors, and
    /// the supervisor's recovery budget. [`FaultPlan::none`] (the default)
    /// injects nothing and fails fast on any organic panic.
    pub faults: FaultPlan,
    /// Data-parallel width of the Extract path: feature gathering (and the
    /// PreSC pre-sampling during preprocessing) fans out over a pool of
    /// this many threads. 1 (the default) runs fully inline. Results are
    /// bit-identical at every width.
    pub threads: usize,
    /// Live-telemetry configuration: the wall-clock gauge-sampling
    /// interval and the alert-rule thresholds. Every run gets a telemetry
    /// thread; this only tunes it.
    pub telemetry: TelemetryConfig,
    /// Durable checkpoint/resume policy: where and how often to snapshot,
    /// whether to resume from the latest valid generation, and any chaos
    /// injection. The default is fully disabled.
    pub checkpoint: CheckpointPolicy,
    /// Lookahead depth of the one consumer loop every Trainer and standby
    /// runs: 0 or 1 (larger values are rejected). At `0` the consumer
    /// extracts each batch inline and then trains it: the serial
    /// reference. At `1` (the default) a dedicated extract worker gathers
    /// batch N+1's features into one of two recycled buffers while batch
    /// N trains, and Samplers push bursts through
    /// [`GlobalQueue::enqueue_many`]. Per-batch training history is
    /// bit-identical at both depths: extraction is pure with respect to
    /// model state, and reclaim replays a dead consumer's leases in their
    /// original enqueue order.
    pub pipeline_depth: usize,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            num_samplers: 2,
            num_trainers: 4,
            epochs: 10,
            batch_size: 32,
            hidden_dim: 16,
            lr: 0.01,
            seed: 0,
            cache_alpha: 0.2,
            cache_policy: PolicyKind::PreSC { k: 1 },
            device_budget: None,
            queue_capacity: DEFAULT_CAPACITY,
            dynamic_switching: true,
            trainer_delay: None,
            faults: FaultPlan::none(),
            threads: 1,
            telemetry: TelemetryConfig::default(),
            checkpoint: CheckpointPolicy::default(),
            pipeline_depth: 1,
        }
    }
}

/// Failure classes of a threaded run, each mapped to its own documented
/// CLI exit code so wrappers and CI can react without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadedErrorKind {
    /// An executor panicked with no respawn budget left to absorb it (the
    /// queue is poisoned, so this also covers every thread that died on
    /// the poisoned-queue path).
    ExecutorPanic,
    /// An executor panicked after the fault plan's respawn budget had
    /// already been spent.
    RespawnBudgetExhausted,
    /// A deterministic transient fault exceeded its retry budget.
    UnrecoverableFault,
    /// A checkpoint could not be written or a resume could not be applied.
    Checkpoint,
    /// A chaos kill-point terminated the run (simulated process kill).
    Killed,
}

impl ThreadedErrorKind {
    /// The documented `gnnlab threaded` exit code for this failure class.
    /// (1 = generic failure, 2 = usage, 3 = metrics endpoint.)
    pub fn exit_code(self) -> u8 {
        match self {
            ThreadedErrorKind::ExecutorPanic => 10,
            ThreadedErrorKind::RespawnBudgetExhausted => 11,
            ThreadedErrorKind::UnrecoverableFault => 12,
            ThreadedErrorKind::Checkpoint => 13,
            ThreadedErrorKind::Killed => 14,
        }
    }
}

/// An executor crash surfaced by [`run_threaded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadedError {
    /// Which failure class this is (drives the CLI exit code).
    pub kind: ThreadedErrorKind,
    /// Which executor crashed (e.g. `"Trainer 2"`).
    pub executor: String,
    /// The panic payload rendered as text.
    pub message: String,
}

impl ThreadedError {
    fn new(
        kind: ThreadedErrorKind,
        executor: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        ThreadedError {
            kind,
            executor: executor.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            ThreadedErrorKind::Checkpoint => {
                write!(f, "{} checkpoint failure: {}", self.executor, self.message)
            }
            ThreadedErrorKind::Killed => {
                write!(f, "{} killed: {}", self.executor, self.message)
            }
            _ => write!(f, "{} panicked: {}", self.executor, self.message),
        }
    }
}

impl std::error::Error for ThreadedError {}

/// What the supervisor did about faults during a run. All zeros when the
/// fault plan is empty and nothing crashed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Faults actually injected (crash firings, transient errors).
    pub faults_injected: usize,
    /// Batches replayed after their executor died: reclaimed consumer
    /// leases plus re-sampled producer claims.
    pub replayed_batches: usize,
    /// Replacement executors spawned on a dead executor's slot.
    pub respawns: usize,
    /// Crashes absorbed by survivors without a replacement.
    pub reassignments: usize,
    /// Transient-error retries performed.
    pub retries: usize,
    /// Nanoseconds between crash detection and recovery completion,
    /// summed over all absorbed crashes.
    pub downtime_ns: u64,
}

impl RecoveryReport {
    /// Crashes the supervisor absorbed (respawns plus reassignments).
    pub fn recovered(&self) -> usize {
        self.respawns + self.reassignments
    }
}

/// End-of-run accounting for one executor-owned feature cache: every
/// dedicated Trainer and every switched standby contributes one report,
/// plus one [`Executor::Host`] report for the end-of-run eval store.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorCacheReport {
    /// Role that owned the store: [`Executor::Trainer`],
    /// [`Executor::Standby`], or [`Executor::Host`] for the held-out
    /// evaluation pass (which routes through the same two-tier extraction
    /// so eval traffic shows up in the cache statistics).
    pub role: Executor,
    /// Executor slot within its role.
    pub slot: usize,
    /// Cache ratio α its memory plan afforded.
    pub alpha: f64,
    /// Cached feature rows.
    pub rows: usize,
    /// Measured wall nanoseconds of its cache fill (the refresh stage).
    pub refresh_ns: u64,
    /// Extraction statistics over the executor's lifetime.
    pub stats: CacheStats,
}

/// Outcome of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedResult {
    /// Mini-batches trained (across all trainers, standbys and epochs).
    pub batches_trained: usize,
    /// Samples produced by Samplers.
    pub samples_produced: usize,
    /// Final test accuracy of the shared model.
    pub final_accuracy: f64,
    /// Largest queue backlog observed. Enqueues never exceed the queue
    /// capacity, but a crash replay re-enqueues past it: the bound is the
    /// capacity plus the dead consumers' leases (up to one per crash at
    /// pipeline depth 0, two at depth 1).
    pub peak_queue_depth: usize,
    /// Aggregate cache hit rate across every executor-owned store.
    pub cache_hit_rate: f64,
    /// Per-executor cache reports, sorted Trainers first, then standbys,
    /// then the host-side eval store, each by slot.
    pub caches: Vec<ExecutorCacheReport>,
    /// Standby-Trainer switches performed by finished Samplers (§5.3).
    pub switches: usize,
    /// Total nanoseconds executors spent blocked on the global queue
    /// (producer backpressure + consumer waits).
    pub queue_blocked_ns: u64,
    /// What the supervisor did about faults.
    pub recovery: RecoveryReport,
    /// Per-batch training history (loss and accuracy per global batch
    /// index), sorted by id. With exactly-once training this has one
    /// record per batch; the kill–resume chaos harness holds it to
    /// bit-identity across restarts.
    pub history: Vec<BatchRecord>,
    /// The master model's final parameter values, flattened in
    /// `params_mut()` order — the second bit-identity anchor.
    pub final_params: Vec<f32>,
    /// Checkpoint generations successfully written during this run.
    pub checkpoints_written: usize,
    /// The generation this run resumed from, if any.
    pub resumed_from: Option<u64>,
}

/// One task flowing through the global queue.
struct TrainTask {
    /// Global schedule index (the span `batch` id).
    id: u64,
    sample: Sample,
    labels: Vec<u32>,
}

// ---------------------------------------------------------------------------
// Per-executor RNG streams.
// ---------------------------------------------------------------------------

/// The independent RNG consumers of a threaded run. Each `(role, index)`
/// pair gets its own stream; the seed's raw value is never used directly
/// (the old `seed ^ (index << 17)` scheme made Sampler 0, the model init
/// and the shuffle all share `cfg.seed`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StreamRole {
    /// Master model initialization.
    Model = 1,
    // 2 was a Sampler's per-*executor* stream. Batch sampling now draws
    // from per-*batch* domain-tagged streams (`sampling::presample_rng`
    // over `(seed, epoch, batch)`), so the sampling RNG "position" is a
    // pure function of the batch cursor: checkpoints persist the cursor
    // and resume replays the exact same draws, no matter which executor
    // samples which batch before or after the restart. It also puts
    // PreSC's pre-sampled epoch 0 in exact lockstep with the trained one.
    /// A Trainer replica's initialization.
    Trainer = 3,
    /// A standby Trainer replica's initialization.
    Standby = 4,
    /// Held-out evaluation sampling.
    Eval = 5,
    /// The train/test vertex split.
    Split = 6,
    /// The per-epoch mini-batch shuffle (shared by all Samplers).
    Shuffle = 7,
}

/// Derives the RNG stream for `(seed, role, index)`. Respawned executors
/// pass their unique executor id as `index`, so a replacement never
/// replays its predecessor's stream.
fn stream_seed(seed: u64, role: StreamRole, index: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ role as u64) ^ index)
}

// ---------------------------------------------------------------------------
// Live stage-time estimates (EWMA over recorded batch times).
// ---------------------------------------------------------------------------

/// EWMA smoothing factor for the live stage-time estimates.
const EWMA_ALPHA: f64 = 0.2;

/// One EWMA step: folds observation `x` into the estimate `prev` (the
/// first observation is taken as is).
fn ewma_step(prev: Option<f64>, x: f64) -> f64 {
    prev.map_or(x, |p| p + EWMA_ALPHA * (x - p))
}

/// A lock-free EWMA cell (f64 bits in an atomic; NaN = no samples yet).
#[derive(Debug)]
struct AtomicEwma(AtomicU64);

impl AtomicEwma {
    fn new() -> Self {
        AtomicEwma(AtomicU64::new(f64::NAN.to_bits()))
    }

    /// Overwrites the cell with a checkpointed estimate (`None` = the
    /// cell had never been updated).
    fn set(&self, value: Option<f64>) {
        self.0
            .store(value.unwrap_or(f64::NAN).to_bits(), Ordering::Relaxed);
    }

    /// Folds one observation in and returns the new estimate.
    fn update(&self, x: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = ewma_step((!old.is_nan()).then_some(old), x);
            match self.0.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return new,
                Err(seen) => cur = seen,
            }
        }
    }

    fn get(&self) -> Option<f64> {
        let v = f64::from_bits(self.0.load(Ordering::Relaxed));
        (!v.is_nan()).then_some(v)
    }
}

/// Live `T_s`/`T_t`/`T_t'` estimates plus the active-Trainer count, shared
/// by every executor of a run.
struct LiveStats {
    t_sample: AtomicEwma,
    t_train: AtomicEwma,
    t_standby: AtomicEwma,
    active_trainers: AtomicUsize,
}

impl LiveStats {
    fn new(num_trainers: usize) -> Self {
        LiveStats {
            t_sample: AtomicEwma::new(),
            t_train: AtomicEwma::new(),
            t_standby: AtomicEwma::new(),
            active_trainers: AtomicUsize::new(num_trainers),
        }
    }

    /// Folds a per-batch observation into `cell` and publishes the new
    /// estimate as an obs series point.
    fn update(&self, cell: &AtomicEwma, series: &str, secs: f64, obs: &Obs) {
        let est = cell.update(secs);
        obs.metrics.sample(series, obs.now_ns(), est);
    }
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/// Computes the shared hotness map every per-executor cache ranks by
/// ([`ThreadedConfig::cache_policy`]; pre-sampling fans out over `pool`).
///
/// Returns `None` when no planned role affords a single cache row: the
/// α = 0 path used to pay a full pre-sampling epoch for a cache nothing
/// would ever populate.
fn build_hotness(
    graph: &SbmGraph,
    train_set: &[VertexId],
    kind: ModelKind,
    cfg: &ThreadedConfig,
    plan: &LiveCachePlan,
    pool: &Arc<ThreadPool>,
) -> Option<Vec<f64>> {
    if plan.trainer_rows == 0 && plan.standby_rows == 0 {
        return None;
    }
    let algo = sampler_for(kind);
    Some(
        CachePolicy::hotness_with_pool(
            cfg.cache_policy,
            &graph.csr,
            train_set,
            algo.as_ref(),
            cfg.batch_size,
            cfg.seed,
            pool,
        )
        .hotness,
    )
}

/// How much more extraction traffic the standby's planned cache misses
/// relative to a dedicated Trainer's, estimated from the hotness mass
/// each planned cache captures: `(1 + miss_s) / (1 + miss_t)` where
/// `miss_r` is role r's expected miss fraction (hotness is proportional
/// to expected visits, so captured mass approximates the hit rate).
/// Always ≥ 1; exactly 1 with no hotness or equal shapes. Seeds the
/// standby `T_t'` estimate before any standby has run.
fn planned_miss_ratio(hotness: Option<&Vec<f64>>, trainer_rows: usize, standby_rows: usize) -> f64 {
    let Some(h) = hotness else { return 1.0 };
    let total: f64 = h.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let mut sorted = h.clone();
    sorted.sort_unstable_by(|a, b| b.total_cmp(a));
    let mass = |rows: usize| sorted.iter().take(rows).sum::<f64>() / total;
    let miss_t = 1.0 - mass(trainer_rows);
    let miss_s = 1.0 - mass(standby_rows);
    ((1.0 + miss_s) / (1.0 + miss_t)).max(1.0)
}

/// Builds a cache table of the `rows` hottest of `n` vertices: one
/// executor's planned store, or the Samplers' mark table.
fn plan_table(hotness: Option<&Vec<f64>>, rows: usize, n: usize) -> CacheTable {
    match hotness {
        Some(h) if rows > 0 => load_cache_topk(h, rows, n),
        _ => CacheTable::empty(n),
    }
}

/// Renders a caught panic payload as text.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---------------------------------------------------------------------------
// Shared run state.
// ---------------------------------------------------------------------------

/// Everything the executors and the supervisor share for one run. Lives on
/// the caller's stack outside the thread scope so respawned threads can
/// borrow it (`&'env Shared`).
struct Shared<'a> {
    cfg: &'a ThreadedConfig,
    kind: ModelKind,
    graph: &'a SbmGraph,
    train_set: &'a [VertexId],
    shuffle_seed: u64,
    batches_per_epoch: usize,
    queue: GlobalQueue<TrainTask>,
    obs: Arc<Obs>,
    /// The shared host feature tier every executor-owned store reads on a
    /// miss; materialized once per run.
    host_store: Arc<FeatureStore>,
    /// Shared PreSC hotness map the per-executor tables rank by; `None`
    /// when no planned role affords cache rows (α = 0 skips the pass).
    hotness: Option<Vec<f64>>,
    /// The per-role memory plans (§3 capacity accounting): Trainer budget
    /// minus train workspace; standby budget minus topology + sampling
    /// workspace + train workspace.
    plan: LiveCachePlan,
    /// The table the Samplers' M step marks against. Per-executor stores
    /// built at trainer rows share this exact layout; a standby's table is
    /// a prefix of it, so the mask stays a sound hint (it only feeds a
    /// length debug-assert plus the Sampler-side mark accounting).
    mark_table: CacheTable,
    /// The data-parallel pool behind Extract, pre-sampling and cache
    /// fills.
    pool: Arc<ThreadPool>,
    /// Planned standby/trainer extraction-traffic ratio (≥ 1), the
    /// `T_t'` seed before any standby has run.
    standby_miss_ratio: f64,
    /// EWMA of measured cache-refresh seconds, amortized into the `T_t'`
    /// seed.
    refresh_secs: AtomicEwma,
    /// One report per executor-owned store, pushed when its consume loop
    /// exits.
    cache_reports: Mutex<Vec<ExecutorCacheReport>>,
    server: Mutex<ParamServer>,
    stats: LiveStats,
    book: Mutex<SamplerBook>,
    /// Executor ids currently consuming (Trainers + switched standbys);
    /// the supervisor respawns a Trainer when a crash empties this set
    /// with work still queued.
    consuming: Mutex<HashSet<usize>>,
    /// Unique executor ids (also the lease owner ids and respawn RNG
    /// stream indices).
    next_exec: AtomicUsize,
    /// One fired flag per [`FaultPlan::crashes`] entry, so each injected
    /// crash fires exactly once across respawns.
    crash_fired: Vec<AtomicBool>,
    first_error: Mutex<Option<ThreadedError>>,
    produced: AtomicUsize,
    trained: AtomicUsize,
    switches: AtomicUsize,
    /// Per-batch training history, pushed by every consumer as batches
    /// train (preloaded with the checkpointed prefix on resume).
    history: Mutex<Vec<BatchRecord>>,
    /// Checkpoint runtime; `None` when the policy is disabled (executors
    /// then run the exact pre-checkpoint code paths).
    ckpt: Option<CkptRuntime>,
    respawns_used: AtomicUsize,
    /// The run's recovery accounting; only fault paths touch it.
    recovery: Mutex<RecoveryReport>,
}

impl Shared<'_> {
    /// Records `err` (first crash wins) and poisons the queue so every
    /// blocked executor unwinds promptly.
    fn fail_fatal(&self, err: ThreadedError) {
        let mut slot = self.first_error.lock();
        if slot.is_none() {
            *slot = Some(err.clone());
        }
        drop(slot);
        self.queue.poison(&err.to_string());
    }

    /// [`Shared::fail_fatal`] from a caught panic payload. A panic is
    /// fatal either because the run has no respawn budget at all, or
    /// because the budget ran out — the kinds (and exit codes) differ.
    fn fail(&self, who: String, payload: Box<dyn std::any::Any + Send>) {
        let kind = if self.cfg.faults.max_respawns > 0 {
            ThreadedErrorKind::RespawnBudgetExhausted
        } else {
            ThreadedErrorKind::ExecutorPanic
        };
        self.fail_fatal(ThreadedError::new(kind, who, panic_text(payload)));
    }

    /// Counts one injected fault.
    fn note_fault(&self) {
        self.recovery.lock().faults_injected += 1;
        self.obs.metrics.counter_inc(names::FAULTS_INJECTED);
    }

    /// Tries to consume one unit of the respawn budget; `false` means the
    /// budget is exhausted and the crash must fail the run.
    fn try_consume_budget(&self) -> bool {
        self.respawns_used
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |used| {
                (used < self.cfg.faults.max_respawns).then_some(used + 1)
            })
            .is_ok()
    }

    /// Whether the queue has nothing left for consumers, now or ever.
    fn queue_drained(&self) -> bool {
        self.queue.is_closed() && self.queue.remaining() == 0 && self.queue.leased_count() == 0
    }

    /// Books `elapsed` as supervisor downtime for one absorbed crash.
    fn note_downtime(&self, elapsed: Duration) {
        // Recovery is fast enough that a coarse clock can read 0; floor at
        // 1ns so "downtime was accounted" stays observable.
        let ns = (elapsed.as_nanos() as u64).max(1);
        self.recovery.lock().downtime_ns += ns;
        self.obs
            .metrics
            .counter_add(names::RECOVERY_DOWNTIME_NS, ns as f64);
    }

    /// The span-instrumented cache-refresh stage: fills a fresh
    /// executor-owned store with its planned `rows` hottest feature rows,
    /// measuring the cost into the `cache.refresh_ns` histogram and the
    /// refresh EWMA that amortizes into the `T_t'` seed. Returns the
    /// store and its measured refresh nanoseconds.
    fn build_store(&self, rows: usize, device: u32, role: Executor) -> (CachedFeatureStore, u64) {
        let table = plan_table(self.hotness.as_ref(), rows, self.graph.csr.num_vertices());
        let started = Instant::now();
        let store = {
            let _g = self
                .obs
                .start_span(device, role, Stage::LoadCache, u64::MAX);
            CachedFeatureStore::shared_with_pool(
                Arc::clone(&self.host_store),
                table,
                Arc::clone(&self.pool),
            )
            .0
        };
        // Tiny fills can round to 0 on a coarse clock; floor at 1ns so
        // "the refresh was measured" stays observable per store.
        let ns = (started.elapsed().as_nanos() as u64).max(1);
        self.obs.metrics.observe(names::CACHE_REFRESH_NS, ns as f64);
        self.refresh_secs.update(ns as f64 / 1e9);
        (store, ns)
    }

    /// The §5.2 allocation rule on live estimates: with `n_g` devices,
    /// how many should currently train.
    fn ideal_trainers(&self, n_g: usize) -> usize {
        let t_s = self.stats.t_sample.get().unwrap_or(1e-3).max(1e-9);
        let t_t = self.stats.t_train.get().unwrap_or(t_s).max(1e-9);
        n_g - num_samplers(n_g, t_s, t_t)
    }
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

/// Runs the factored architecture with real threads on real data.
///
/// Training vertices are the first half of the graph (deterministic
/// split); accuracy is evaluated on the second half after all epochs.
/// Records into a private wall-clock [`Obs`]; use [`run_threaded_obs`] to
/// keep the spans and metrics.
///
/// # Errors
///
/// Returns a [`ThreadedError`] if an executor panic exceeds the fault
/// plan's respawn budget, or a transient fault exhausts its retries: the
/// poisoned queue unblocks every thread, so the error surfaces in bounded
/// time instead of hanging the run. Crashes within the budget are
/// recovered (replay + respawn/reassignment) and reported in
/// [`ThreadedResult::recovery`] instead.
pub fn run_threaded(
    graph: &SbmGraph,
    kind: ModelKind,
    cfg: &ThreadedConfig,
) -> Result<ThreadedResult, ThreadedError> {
    run_threaded_obs(graph, kind, cfg, &Arc::new(Obs::wall()))
}

/// [`run_threaded`] with a caller-supplied observability hub: every
/// Sampler/Trainer records wall-clock spans (feeding the `stage.*.ns`
/// latency histograms), the global queue keeps a `queue.depth` gauge
/// plus blocked time, the live EWMA stage-time estimates publish under
/// `scheduler.ewma_*` and per-executor `executor.ewma.*` gauges, the
/// Trainers' cache statistics are published under `cache.*`, and fault
/// handling under `faults.*` / `recovery.*` / `retry.*`. A telemetry
/// thread ([`TelemetryConfig`] in the config) samples gauges into
/// bounded series on a wall-clock interval and evaluates the alert
/// rules; alerts land in the registry (`alerts.*` counters + structured
/// events in the snapshot).
///
/// # Errors
///
/// See [`run_threaded`].
pub fn run_threaded_obs(
    graph: &SbmGraph,
    kind: ModelKind,
    cfg: &ThreadedConfig,
    obs: &Arc<Obs>,
) -> Result<ThreadedResult, ThreadedError> {
    assert!(
        cfg.num_samplers >= 1 && cfg.num_trainers >= 1,
        "need executors"
    );
    assert!(cfg.pipeline_depth <= 1, "pipeline_depth must be 0 or 1");
    let n = graph.csr.num_vertices();
    let train_set: Vec<VertexId> = gnnlab_graph::trainset::random_train_set(
        n,
        n / 2,
        stream_seed(cfg.seed, StreamRole::Split, 0),
    );
    let in_train: std::collections::HashSet<VertexId> = train_set.iter().copied().collect();
    let test_set: Vec<VertexId> = (0..n as VertexId)
        .filter(|v| !in_train.contains(v))
        .collect();

    let batches_per_epoch = train_set.len().div_ceil(cfg.batch_size);
    let total_batches = batches_per_epoch * cfg.epochs;
    // The data-parallel pool behind Extract and pre-sampling; shared by
    // every Trainer through the feature store.
    let pool = Arc::new(ThreadPool::new(cfg.threads));
    obs.metrics
        .gauge_set(names::EXTRACT_PAR_THREADS, pool.threads() as f64);
    obs.metrics
        .gauge_set(names::FAULTS_RESPAWN_BUDGET, cfg.faults.max_respawns as f64);
    // The §3 memory plan: one role-appropriate cache budget per consumer.
    // Trainers spend budget minus the train workspace on cache rows; a
    // standby's device additionally keeps topology and the sampling
    // workspace, so its cache is strictly smaller.
    let live = LiveGraphBytes::new(n, graph.csr.num_edges(), graph.feat_dim);
    let sample_ws = live_sample_workspace_bytes(kind, cfg.batch_size, n);
    let train_ws = live_train_workspace_bytes(
        kind,
        cfg.batch_size,
        graph.feat_dim,
        cfg.hidden_dim,
        graph.num_classes,
        n,
    );
    let plan = plan_live_run(
        cfg.device_budget,
        cfg.cache_alpha,
        &live,
        sample_ws,
        train_ws,
    );
    obs.metrics
        .gauge_set(names::CACHE_TRAINER_ALPHA, plan.trainer.cache_alpha);
    obs.metrics
        .gauge_set(names::CACHE_STANDBY_ALPHA, plan.standby.cache_alpha);
    let hotness = build_hotness(graph, &train_set, kind, cfg, &plan, &pool);
    let standby_miss_ratio =
        planned_miss_ratio(hotness.as_ref(), plan.trainer_rows, plan.standby_rows);
    let mark_table = plan_table(hotness.as_ref(), plan.trainer_rows, n);
    let host_store = Arc::new(FeatureStore::materialized(
        n,
        graph.feat_dim,
        graph.features.clone(),
    ));
    // Live telemetry for the whole run: periodic gauge→series sampling
    // and alert evaluation. Stopped explicitly after the final cache
    // publish so the closing evaluation sees the complete end state
    // (dropped — and thus still joined — on the early error return).
    let telemetry = Telemetry::start(Arc::clone(obs), cfg.telemetry);
    let shared = Shared {
        cfg,
        kind,
        graph,
        train_set: &train_set,
        shuffle_seed: stream_seed(cfg.seed, StreamRole::Shuffle, 0),
        batches_per_epoch,
        queue: GlobalQueue::bounded_with_obs(cfg.queue_capacity, Arc::clone(obs)),
        obs: Arc::clone(obs),
        host_store,
        hotness,
        plan,
        mark_table,
        pool,
        standby_miss_ratio,
        refresh_secs: AtomicEwma::new(),
        cache_reports: Mutex::new(Vec::new()),
        server: Mutex::new(ParamServer {
            master: GnnModel::new(ModelConfig {
                kind,
                in_dim: graph.feat_dim,
                hidden_dim: cfg.hidden_dim,
                num_classes: graph.num_classes,
                seed: stream_seed(cfg.seed, StreamRole::Model, 0),
            }),
            opt: Adam::new(cfg.lr),
        }),
        stats: LiveStats::new(cfg.num_trainers),
        book: Mutex::new(SamplerBook::new(total_batches)),
        consuming: Mutex::new(HashSet::new()),
        next_exec: AtomicUsize::new(0),
        crash_fired: cfg
            .faults
            .crashes
            .iter()
            .map(|_| AtomicBool::new(false))
            .collect(),
        first_error: Mutex::new(None),
        produced: AtomicUsize::new(0),
        trained: AtomicUsize::new(0),
        switches: AtomicUsize::new(0),
        history: Mutex::new(Vec::new()),
        ckpt: cfg
            .checkpoint
            .enabled()
            .then(|| CkptRuntime::new(cfg.checkpoint.clone(), batches_per_epoch, 0)),
        respawns_used: AtomicUsize::new(0),
        recovery: Mutex::new(RecoveryReport::default()),
    };

    // Resume before any executor exists: pick the latest valid generation
    // (torn or corrupted files are skipped with fallback to the previous
    // one) and splice its state into the freshly-built run.
    let mut resumed_from = None;
    if cfg.checkpoint.resume && cfg.checkpoint.enabled() {
        let dir = cfg.checkpoint.dir.as_deref();
        let dir = gnnlab_par::invariant!(
            dir,
            "CheckpointPolicy::validate requires a dir when enabled"
        );
        let started = Instant::now();
        let outcome = checkpoint::load_latest(dir);
        if outcome.torn_detected > 0 {
            obs.metrics
                .counter_add(names::CKPT_TORN_DETECTED, outcome.torn_detected as f64);
        }
        if let Some((generation, state)) = outcome.loaded {
            shared.apply_resume(generation, state)?;
            obs.metrics
                .observe(names::CKPT_RESUME_NS, started.elapsed().as_nanos() as f64);
            resumed_from = Some(generation);
        }
    }

    std::thread::scope(|scope| {
        let sh = &shared;
        for s in 0..cfg.num_samplers {
            spawn_sampler(scope, sh, s);
        }
        for t in 0..cfg.num_trainers {
            spawn_trainer(scope, sh, t);
        }
    });

    if let Some(err) = shared.first_error.lock().take() {
        return Err(err);
    }

    // Evaluate the master model on the held-out half. The lock is held
    // only for the clone; evaluation runs on the snapshot. Eval feature
    // gathers route through a two-tier store shaped like a dedicated
    // Trainer's (same table, same host tier), so held-out traffic is
    // counted in the `cache.*` stats instead of bypassing the cache via
    // a raw host gather — the served bytes are identical either way, so
    // accuracy is unchanged.
    let mut master = shared.server.lock().master.clone();
    let algo = sampler_for(kind);
    let eval_fill_started = Instant::now();
    let (eval_store, _) = CachedFeatureStore::shared_with_pool(
        Arc::clone(&shared.host_store),
        plan_table(shared.hotness.as_ref(), shared.plan.trainer_rows, n),
        Arc::clone(&shared.pool),
    );
    let eval_refresh_ns = (eval_fill_started.elapsed().as_nanos() as u64).max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(cfg.seed, StreamRole::Eval, 0));
    let mut correct = 0.0f64;
    let mut total = 0usize;
    let mut buf = Vec::new();
    for chunk in test_set.chunks(cfg.batch_size.max(1)) {
        let sample = algo.sample(&graph.csr, chunk, &mut rng);
        eval_store.extract_to_buffer(sample.input_nodes(), &mut buf);
        let feats = Matrix::from_vec(sample.num_input_nodes(), graph.feat_dim, buf);
        let logits = master.forward(&sample, &feats);
        buf = feats.into_vec();
        let labels: Vec<u32> = chunk.iter().map(|&v| graph.labels[v as usize]).collect();
        correct += accuracy(&logits, &labels) * chunk.len() as f64;
        total += chunk.len();
    }
    shared.cache_reports.lock().push(ExecutorCacheReport {
        role: Executor::Host,
        slot: 0,
        alpha: eval_store.table().alpha(),
        rows: eval_store.table().len(),
        refresh_ns: eval_refresh_ns,
        stats: eval_store.stats(),
    });

    // Per-executor stores already streamed `cache.<role>.<slot>.*`; here
    // their end states roll up into the aggregate `cache.*` totals.
    let mut caches = std::mem::take(&mut *shared.cache_reports.lock());
    caches.sort_by_key(|c| {
        let rank = match c.role {
            Executor::Trainer => 0,
            Executor::Standby => 1,
            // The end-of-run eval store (and anything else host-side)
            // sorts last.
            _ => 2,
        };
        (rank, c.slot)
    });
    let mut cache_stats = CacheStats::default();
    for c in &caches {
        cache_stats.add(&c.stats);
    }
    cache_stats.publish(&obs.metrics);
    telemetry.stop();
    let mut history = std::mem::take(&mut *shared.history.lock());
    history.sort_by_key(|r| r.id);
    let recovery = *shared.recovery.lock();
    // The master's flattened parameters, in stable layer order — the
    // chaos harness compares these bit-for-bit across kill–resume runs.
    let final_params: Vec<f32> = {
        let mut guard = shared.server.lock();
        guard
            .master
            .params_mut()
            .iter()
            .flat_map(|p| p.value.data().iter().copied())
            .collect()
    };
    Ok(ThreadedResult {
        batches_trained: shared.trained.load(Ordering::Relaxed),
        samples_produced: shared.produced.load(Ordering::Relaxed),
        final_accuracy: if total == 0 {
            0.0
        } else {
            correct / total as f64
        },
        peak_queue_depth: shared.queue.peak_depth(),
        cache_hit_rate: cache_stats.hit_rate(),
        caches,
        switches: shared.switches.load(Ordering::Relaxed),
        queue_blocked_ns: shared.queue.blocked_ns(),
        recovery,
        history,
        final_params,
        checkpoints_written: shared
            .ckpt
            .as_ref()
            .map_or(0, |c| c.writes.load(Ordering::Relaxed)),
        resumed_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::ExecutorRole;
    use gnnlab_graph::gen::{sbm, SbmParams};
    use gnnlab_sampling::presample_rng;

    fn graph() -> SbmGraph {
        sbm(&SbmParams {
            num_vertices: 600,
            num_classes: 4,
            avg_degree: 10.0,
            intra_prob: 0.9,
            feat_dim: 8,
            noise: 0.6,
            seed: 3,
        })
        .unwrap()
    }

    #[test]
    fn threaded_run_trains_every_batch_exactly_once() {
        let g = graph();
        let cfg = ThreadedConfig {
            num_samplers: 2,
            num_trainers: 3,
            epochs: 4,
            batch_size: 25,
            ..Default::default()
        };
        let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
        let batches_per_epoch = (300usize).div_ceil(25);
        assert_eq!(res.samples_produced, batches_per_epoch * 4);
        assert_eq!(res.batches_trained, res.samples_produced);
        assert_eq!(res.recovery, RecoveryReport::default());
    }

    #[test]
    fn threaded_training_learns() {
        let g = graph();
        let res = run_threaded(
            &g,
            ModelKind::GraphSage,
            &ThreadedConfig {
                epochs: 12,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            res.final_accuracy > 0.7,
            "threaded accuracy {:.3}",
            res.final_accuracy
        );
    }

    #[test]
    fn two_tier_extraction_serves_hits() {
        let g = graph();
        let res = run_threaded(
            &g,
            ModelKind::GraphSage,
            &ThreadedConfig {
                epochs: 2,
                cache_alpha: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            res.cache_hit_rate > 0.3,
            "hit rate {:.3} too low for a 50% cache",
            res.cache_hit_rate
        );
        let uncached = run_threaded(
            &g,
            ModelKind::GraphSage,
            &ThreadedConfig {
                epochs: 2,
                cache_alpha: 0.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(uncached.cache_hit_rate, 0.0);
    }

    /// Both pipeline depths share the consumer loop's publishing code, so
    /// the whole observability surface is checked at each.
    #[test]
    fn threaded_run_populates_observability() {
        let g = graph();
        for depth in [0, 1] {
            populates_observability_at(&g, depth);
        }
    }

    fn populates_observability_at(g: &SbmGraph, depth: usize) {
        let obs = Arc::new(Obs::wall());
        let cfg = ThreadedConfig {
            epochs: 2,
            cache_alpha: 0.5,
            pipeline_depth: depth,
            ..Default::default()
        };
        let res = run_threaded_obs(g, ModelKind::GraphSage, &cfg, &obs).unwrap();

        // The telemetry thread sampled the depth gauge into a series (at
        // least the final stop-time tick), and the capacity gauge
        // reflects the bound.
        assert!(
            obs.metrics.series_len("queue.depth") > 0,
            "no depth samples"
        );
        assert!(obs.metrics.gauge("queue.depth").is_some());
        assert_eq!(
            obs.metrics.gauge("queue.capacity").unwrap().last,
            cfg.queue_capacity as f64
        );
        assert_eq!(
            obs.metrics.counter("queue.enqueued") as usize,
            res.samples_produced
        );
        assert_eq!(
            obs.metrics.counter("queue.dequeued") as usize,
            res.batches_trained
        );
        // Live stage-time estimates were published.
        assert!(obs.metrics.series_len("scheduler.ewma_t_sample") > 0);
        assert!(obs.metrics.series_len("scheduler.ewma_t_train") > 0);
        // Per-executor batch-time EWMAs (straggler-alert inputs): one
        // gauge per sampler and trainer slot.
        for s in 0..cfg.num_samplers {
            assert!(
                obs.metrics
                    .gauge(&names::executor_ewma("sampler", s))
                    .is_some(),
                "missing sampler {s} EWMA gauge"
            );
        }
        for t in 0..cfg.num_trainers {
            assert!(
                obs.metrics
                    .gauge(&names::executor_ewma("trainer", t))
                    .is_some(),
                "missing trainer {t} EWMA gauge"
            );
        }
        // Span recording fed the per-stage latency histograms, with live
        // quantiles.
        let train_ns = obs.metrics.histogram("stage.train.ns").unwrap();
        assert!(train_ns.count > 0);
        assert!(train_ns.p99().unwrap() >= train_ns.p50().unwrap());
        // The respawn budget is visible to the alert engine even on a
        // healthy run.
        assert!(obs.metrics.gauge(names::FAULTS_RESPAWN_BUDGET).is_some());
        // Cache hit/miss totals were published by the executors' stores.
        assert!(obs.metrics.counter("cache.lookups") > 0.0);
        assert!(obs.metrics.counter("cache.hits") > 0.0);
        assert!(obs.metrics.counter("cache.misses") > 0.0);
        // Each Trainer streamed its own per-executor cache family, and the
        // aggregate equals the sum of the per-executor counters.
        let mut lookup_sum = 0.0;
        for t in 0..cfg.num_trainers {
            let lk = obs
                .metrics
                .counter(&names::executor_cache("trainer", t, "lookups"));
            assert!(lk > 0.0, "trainer {t} published no cache lookups");
            assert!(
                obs.metrics
                    .gauge(&names::executor_cache("trainer", t, "hit_rate"))
                    .is_some(),
                "trainer {t} missing hit-rate gauge"
            );
            lookup_sum += lk;
        }
        // The aggregate rolls up every per-executor store (standby
        // families join the trainer ones when a switch happened).
        assert!(lookup_sum <= obs.metrics.counter("cache.lookups"));
        assert_eq!(
            res.caches.iter().map(|c| c.stats.lookups).sum::<u64>() as f64,
            obs.metrics.counter("cache.lookups")
        );
        // Every Trainer's cache fill was measured into the refresh
        // histogram, and the plan gauges carry the per-role ratios.
        let refresh = obs.metrics.histogram(names::CACHE_REFRESH_NS).unwrap();
        assert!(refresh.count >= cfg.num_trainers as u64);
        assert!(refresh.sum > 0.0);
        assert_eq!(
            obs.metrics.gauge(names::CACHE_TRAINER_ALPHA).unwrap().last,
            0.5
        );
        // One report per dedicated Trainer (no switch happened here or it
        // adds standby entries after the trainers).
        assert!(res.caches.len() >= cfg.num_trainers);
        for (t, c) in res.caches.iter().take(cfg.num_trainers).enumerate() {
            assert_eq!(c.role, Executor::Trainer);
            assert_eq!(c.slot, t);
            assert!(c.refresh_ns > 0);
        }
        // Every executor recorded wall-clock spans; none overlap on a lane.
        assert!(obs.span_count() > 0);
        assert!(gnnlab_obs::find_overlap(&obs.spans()).is_none());
    }

    #[test]
    #[should_panic(expected = "pipeline_depth must be 0 or 1")]
    fn pipeline_depth_above_one_is_rejected() {
        let cfg = ThreadedConfig {
            pipeline_depth: 2,
            ..Default::default()
        };
        let _ = run_threaded(&graph(), ModelKind::GraphSage, &cfg);
    }

    #[test]
    fn single_executor_degenerate_case_works() {
        let g = graph();
        let res = run_threaded(
            &g,
            ModelKind::GraphSage,
            &ThreadedConfig {
                num_samplers: 1,
                num_trainers: 1,
                epochs: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(res.batches_trained > 0);
    }

    #[test]
    fn stream_seeds_are_pairwise_distinct() {
        // Regression: `seed ^ (0 << 17) == seed` made Sampler 0 share its
        // stream with the model init and the shuffle. Every (role, index)
        // stream must be unique, and none may equal the raw seed.
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut seen = std::collections::HashSet::new();
            seen.insert(seed);
            for role in [
                StreamRole::Model,
                StreamRole::Trainer,
                StreamRole::Standby,
                StreamRole::Eval,
                StreamRole::Split,
                StreamRole::Shuffle,
            ] {
                for index in 0..8u64 {
                    assert!(
                        seen.insert(stream_seed(seed, role, index)),
                        "stream collision at seed={seed} role={role:?} index={index}"
                    );
                }
            }
            // Per-batch sampling streams live in their own domain: none
            // may collide with any executor stream or the raw seed.
            for epoch in 0..4u64 {
                for batch in 0..4u64 {
                    let mut rng = presample_rng(seed, epoch, batch);
                    let draw: u64 = rand::Rng::r#gen(&mut rng);
                    assert!(
                        seen.insert(draw),
                        "sampling stream collision at seed={seed} epoch={epoch} batch={batch}"
                    );
                }
            }
        }
    }

    #[test]
    fn slow_trainers_block_samplers_at_queue_capacity() {
        let g = graph();
        let obs = Arc::new(Obs::wall());
        let cfg = ThreadedConfig {
            num_samplers: 2,
            num_trainers: 1,
            epochs: 2,
            batch_size: 25,
            queue_capacity: 4,
            trainer_delay: Some(Duration::from_millis(3)),
            ..Default::default()
        };
        let res = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs).unwrap();
        assert_eq!(res.batches_trained, res.samples_produced);
        // Backpressure: the queue filled to exactly its capacity and the
        // Samplers spent real time blocked.
        assert_eq!(res.peak_queue_depth, 4, "queue never hit its bound");
        // The gauge's max catches the peak exactly (the sampled series
        // may miss the instant the queue was full).
        assert_eq!(obs.metrics.gauge("queue.depth").unwrap().max, 4.0);
        assert!(res.queue_blocked_ns > 0, "no blocked time recorded");
        assert!(obs.metrics.counter("queue.blocked_ns") > 0.0);
    }

    #[test]
    fn backlog_at_sampler_finish_triggers_standby_switch() {
        let g = graph();
        let obs = Arc::new(Obs::wall());
        let cfg = ThreadedConfig {
            num_samplers: 2,
            num_trainers: 1,
            epochs: 3,
            batch_size: 25,
            queue_capacity: 128,
            trainer_delay: Some(Duration::from_millis(3)),
            dynamic_switching: true,
            ..Default::default()
        };
        let res = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs).unwrap();
        // Slow Trainers leave a backlog when sampling ends, so the profit
        // metric wakes at least one standby Trainer — and every batch is
        // still trained exactly once.
        assert!(res.switches >= 1, "no standby switch despite backlog");
        assert_eq!(
            obs.metrics.counter("scheduler.switches") as usize,
            res.switches
        );
        assert_eq!(res.batches_trained, res.samples_produced);
        let batches_per_epoch = (300usize).div_ceil(25);
        assert_eq!(res.samples_produced, batches_per_epoch * 3);
        // The standby recorded spans under its own executor role.
        assert!(obs.spans().iter().any(|s| s.executor == Executor::Standby));
    }

    /// Satellite: under skewed hotness a switched standby's *measured*
    /// hit rate sits strictly below a dedicated Trainer's — its memory
    /// plan keeps topology and the sampling workspace, so it affords
    /// fewer cache rows — and every switch measured a cache refresh.
    #[test]
    fn standby_cache_is_smaller_and_hits_less_than_a_trainers() {
        let g = graph();
        let obs = Arc::new(Obs::wall());
        let cfg = ThreadedConfig {
            num_samplers: 2,
            num_trainers: 1,
            epochs: 3,
            batch_size: 25,
            cache_alpha: 0.5,
            queue_capacity: 128,
            trainer_delay: Some(Duration::from_millis(3)),
            ..Default::default()
        };
        let res = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs).unwrap();
        assert!(res.switches >= 1, "no standby switch despite backlog");
        let trainer = res
            .caches
            .iter()
            .find(|c| c.role == Executor::Trainer)
            .expect("a dedicated Trainer report");
        let standby = res
            .caches
            .iter()
            .find(|c| c.role == Executor::Standby && c.stats.lookups > 0)
            .expect("a switched standby that trained batches");
        assert!(
            standby.rows < trainer.rows,
            "standby rows {} not below trainer rows {}",
            standby.rows,
            trainer.rows
        );
        assert!(standby.alpha < trainer.alpha);
        assert!(
            standby.stats.hit_rate() < trainer.stats.hit_rate(),
            "standby hit rate {:.3} not strictly below trainer {:.3}",
            standby.stats.hit_rate(),
            trainer.stats.hit_rate()
        );
        // Every switched standby's refresh was measured (trainer fills +
        // one per standby store built).
        let refresh = obs.metrics.histogram(names::CACHE_REFRESH_NS).unwrap();
        assert!(refresh.count >= (cfg.num_trainers + res.switches) as u64);
        for c in &res.caches {
            assert!(c.refresh_ns > 0, "{:?} has unmeasured refresh", c.role);
        }
        // Exactly-once training still holds through the switch.
        assert_eq!(res.batches_trained, res.samples_produced);
    }

    #[test]
    fn switching_disabled_never_switches() {
        let g = graph();
        let res = run_threaded(
            &g,
            ModelKind::GraphSage,
            &ThreadedConfig {
                num_samplers: 2,
                num_trainers: 1,
                epochs: 2,
                trainer_delay: Some(Duration::from_millis(2)),
                dynamic_switching: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(res.switches, 0);
        assert_eq!(res.batches_trained, res.samples_produced);
    }

    // --- Fault injection and recovery -------------------------------------

    #[test]
    fn trainer_crash_without_budget_fails_the_run_in_bounded_time() {
        let g = graph();
        let cfg = ThreadedConfig {
            num_samplers: 2,
            num_trainers: 1,
            epochs: 4,
            batch_size: 25,
            // A tiny queue so Samplers are deep in blocked enqueues when
            // the only Trainer dies — the old unbounded/spinning runtime
            // would hang here.
            queue_capacity: 2,
            faults: FaultPlan::crash_trainer(0, 3).with_max_respawns(0),
            ..Default::default()
        };
        let started = Instant::now();
        let err = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "tear-down took {:?}",
            started.elapsed()
        );
        assert_eq!(err.executor, "Trainer 0");
        assert!(err.message.contains("injected fault"), "{err}");
    }

    /// The crashing Sampler is the only one, so it claims work by
    /// construction: with a peer, that peer could claim every burst first
    /// and the crash would never fire.
    #[test]
    fn sampler_crash_without_budget_fails_the_run() {
        let g = graph();
        let cfg = ThreadedConfig {
            num_samplers: 1,
            num_trainers: 2,
            epochs: 2,
            faults: FaultPlan::crash_sampler(0, 2).with_max_respawns(0),
            ..Default::default()
        };
        let err = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap_err();
        assert_eq!(err.executor, "Sampler 0");
        assert!(err.message.contains("injected fault"), "{err}");
    }

    #[test]
    fn trainer_crash_within_budget_recovers_and_trains_every_batch() {
        let g = graph();
        let cfg = ThreadedConfig {
            num_samplers: 2,
            num_trainers: 2,
            epochs: 3,
            batch_size: 25,
            faults: FaultPlan::crash_trainer(0, 2),
            ..Default::default()
        };
        let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
        let batches_per_epoch = (300usize).div_ceil(25);
        assert_eq!(res.samples_produced, batches_per_epoch * 3);
        assert_eq!(
            res.batches_trained, res.samples_produced,
            "exactly-once violated"
        );
        assert_eq!(res.recovery.faults_injected, 1);
        assert!(
            res.recovery.replayed_batches >= 1,
            "the crash fired while a lease was held: {:?}",
            res.recovery
        );
        assert!(res.recovery.recovered() >= 1, "{:?}", res.recovery);
        assert!(res.recovery.downtime_ns > 0);
    }

    #[test]
    fn sole_trainer_crash_forces_a_respawn() {
        let g = graph();
        let cfg = ThreadedConfig {
            num_samplers: 1,
            num_trainers: 1,
            epochs: 2,
            batch_size: 25,
            dynamic_switching: false,
            faults: FaultPlan::crash_trainer(0, 1),
            ..Default::default()
        };
        let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
        assert_eq!(res.batches_trained, res.samples_produced);
        // With zero surviving consumers the supervisor must respawn, or
        // the producers would block forever.
        assert_eq!(res.recovery.respawns, 1, "{:?}", res.recovery);
        assert!(res.recovery.replayed_batches >= 1);
    }

    #[test]
    fn sampler_crash_within_budget_recovers_every_batch() {
        let g = graph();
        for samplers in [1usize, 2] {
            let cfg = ThreadedConfig {
                num_samplers: samplers,
                num_trainers: 2,
                epochs: 2,
                batch_size: 25,
                faults: FaultPlan::crash_sampler(0, 2),
                ..Default::default()
            };
            let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
            let batches_per_epoch = (300usize).div_ceil(25);
            assert_eq!(
                res.samples_produced,
                batches_per_epoch * 2,
                "lost batches with {samplers} samplers: {:?}",
                res.recovery
            );
            assert_eq!(res.batches_trained, res.samples_produced);
            assert!(res.recovery.recovered() >= 1);
            // The sole-sampler case must respawn; the two-sampler case may
            // reassign to the survivor.
            if samplers == 1 {
                assert_eq!(res.recovery.respawns, 1, "{:?}", res.recovery);
            }
        }
    }

    #[test]
    fn transient_faults_retry_in_place_and_still_train_everything() {
        let g = graph();
        let cfg = ThreadedConfig {
            num_samplers: 2,
            num_trainers: 2,
            epochs: 2,
            batch_size: 25,
            // max_consecutive (2) ≤ max_attempts (4): always recoverable.
            faults: FaultPlan::none().with_transients(0.5, 2).with_seed(11),
            ..Default::default()
        };
        let res = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap();
        assert_eq!(res.batches_trained, res.samples_produced);
        assert!(res.recovery.retries > 0, "p=0.5 must trigger retries");
        assert_eq!(res.recovery.faults_injected, res.recovery.retries);
        assert_eq!(res.recovery.recovered(), 0, "retries are not crashes");
    }

    #[test]
    fn unrecoverable_transient_fault_fails_fast() {
        let g = graph();
        let mut faults = FaultPlan::none().with_transients(1.0, 10).with_seed(5);
        faults.retry.max_attempts = 2;
        let cfg = ThreadedConfig {
            num_samplers: 1,
            num_trainers: 1,
            epochs: 1,
            batch_size: 50,
            faults,
            ..Default::default()
        };
        let err = run_threaded(&g, ModelKind::GraphSage, &cfg).unwrap_err();
        assert!(
            err.message.contains("unrecoverable transient fault"),
            "{err}"
        );
    }

    #[test]
    fn stragglers_stretch_the_observed_stage_times() {
        let g = graph();
        let obs = Arc::new(Obs::wall());
        let cfg = ThreadedConfig {
            num_samplers: 1,
            num_trainers: 1,
            epochs: 1,
            batch_size: 25,
            dynamic_switching: false,
            faults: FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 20.0),
            ..Default::default()
        };
        let res = run_threaded_obs(&g, ModelKind::GraphSage, &cfg, &obs).unwrap();
        assert_eq!(res.batches_trained, res.samples_produced);
        // The straggling Trainer's EWMA saw the stretched times.
        let t_t = obs
            .metrics
            .series_max(names::SCHEDULER_EWMA_T_TRAIN)
            .unwrap();
        let t_s = obs
            .metrics
            .series_max(names::SCHEDULER_EWMA_T_SAMPLE)
            .unwrap();
        assert!(
            t_t > t_s * 2.0,
            "straggler not visible: T_t={t_t:.6} vs T_s={t_s:.6}"
        );
    }
}
