//! The repository benchmark: runs one workload of the threaded GNNLab
//! runtime and prints its metrics, the last line of stdout being one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--spans-out <path>]
//! ```
//!
//! `--trace 0` makes full calls of `run_threaded_obs` for `--seconds`,
//! the first three each preceded by a set-up-only call (`epochs: 0`), and
//! reports the end-to-end metrics as medians over the calls. `--trace 1`
//! makes one full and one set-up-only call for the metrics the runtime
//! itself reports, then replays the workload in the traced driver (spans
//! on, then off) for `--seconds` and reports the per-layer metrics. The
//! graph is generated from `--seed` and is not timed. The exit code is
//! non-zero when any correctness check failed.

mod e2e;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Fewest full calls an end-to-end run makes, however short `--seconds`
/// is; also the number of set-up-only calls it makes.
const MIN_CALLS: usize = 3;
const SETUP_CALLS: usize = 3;
/// Fewest spans-on/spans-off replay pairs a traced run makes.
const MIN_REPLAY_PAIRS: usize = 1;
/// Devices of the box the paper-terms line applies the allocation rule to.
const NUM_GPUS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let mut workload = workload::by_name(&name).ok_or(format!("unknown workload {name}"))?;
    if smoke {
        workload = workload.smoke();
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    Ok(Args {
        spans_out: spans_out
            .unwrap_or_else(|| PathBuf::from(format!("perfbench/out/spans-{name}-seed{seed}.csv"))),
        workload,
        seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    lines: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn print(&self, workload: &str) -> bool {
        let mut correct = self.errors.is_empty();
        for e in &self.errors {
            eprintln!("perfbench [{workload}]: CHECK FAILED: {e}");
        }
        for l in &self.lines {
            println!("{l}");
        }
        let mut json = Vec::new();
        for m in &self.metrics {
            println!("{workload:>15} {:<28} {:>16.6} {}", m.name, m.value, m.unit);
            let value = if m.value.is_finite() {
                m.value
            } else {
                eprintln!("perfbench [{workload}]: metric {} is not finite", m.name);
                correct = false;
                0.0
            };
            json.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        correct
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Nearest-rank quantile of unsorted samples.
fn quantile(xs: &[u64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// The end-to-end run: full calls until `--seconds` is spent, the first
/// [`SETUP_CALLS`] of them each preceded by a set-up-only call.
fn run_e2e(args: &Args, g: &gnnlab_graph::gen::SbmGraph) -> Report {
    let w = &args.workload;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let train_vertices = (g.csr.num_vertices() / 2) as f64;
    let scheduled = e2e::scheduled(w, g, w.epochs);
    let mut r = Report::default();
    let (mut setup, mut rate, mut acc, mut loss, mut full_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rss = Vec::new();
    for i in 0.. {
        if i < SETUP_CALLS {
            let s = e2e::call(w, g, args.seed, 0);
            eprintln!("{}: set-up call {}: {:.4} s", w.name, i + 1, s.wall_s);
            match s.result {
                Ok(_) => setup.push(s.wall_s),
                Err(e) => r.errors.push(format!("set-up call: {e}")),
            }
        }
        let f = e2e::call(w, g, args.seed, w.epochs);
        eprintln!(
            "{}: full call {}: {:.4} s, peak rss {:.1} MiB",
            w.name,
            i + 1,
            f.wall_s,
            f.peak_rss_mib
        );
        full_s.push(f.wall_s);
        r.attempted += scheduled;
        match f.result {
            Ok(res) => {
                rate.push(w.epochs as f64 * train_vertices / f.wall_s);
                acc.push(res.final_accuracy);
                loss.push(e2e::epoch_loss(w, g, &res, 0));
                rss.push(f.peak_rss_mib);
            }
            Err(e) => {
                r.failed += scheduled;
                r.errors.push(format!("full call: {e}"));
            }
        }
        let next = Duration::from_secs_f64(mean(&full_s));
        if !r.errors.is_empty() || (i + 1 >= MIN_CALLS && Instant::now() + next > deadline) {
            break;
        }
    }
    r.lines.push(format!(
        "{}: {} set-up and {} full calls of run_threaded_obs, {} batches each",
        w.name,
        setup.len(),
        rate.len(),
        scheduled
    ));
    r.put("seeds_per_s", median(&rate), "vertices/s");
    r.put("setup_s", median(&setup), "s");
    r.put("final_acc", median(&acc), "fraction");
    r.put("first_epoch_loss", median(&loss), "nats");
    // Freed memory the allocator keeps resident ratchets later calls'
    // peaks up by amounts that depend on thread interleaving; the least
    // per-call peak is the one closest to a single call's own footprint.
    r.put(
        "peak_rss_mb",
        rss.iter().copied().fold(f64::NAN, f64::min),
        "MiB",
    );
    r
}

/// Per-name span durations and per-replay sums pooled over replays.
#[derive(Default)]
struct Pooled {
    durs: BTreeMap<&'static str, Vec<u64>>,
    /// Per-replay total seconds of each span name.
    per_replay_s: BTreeMap<&'static str, Vec<f64>>,
    gap_ns: u64,
    step_ns: u64,
    steps_over: usize,
    steps: usize,
}

impl Pooled {
    fn add(&mut self, spans: &[traced::Span]) {
        let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in spans {
            self.durs.entry(s.name).or_default().push(s.dur_ns());
            *sums.entry(s.name).or_default() += s.dur_ns();
        }
        for (name, ns) in sums {
            self.per_replay_s
                .entry(name)
                .or_default()
                .push(ns as f64 / 1e9);
        }
        let a = traced::account(spans);
        self.gap_ns += a.gap_ns;
        self.step_ns += a.step_ns;
        self.steps_over += a.steps_over;
        self.steps += a.steps;
    }

    fn q(&self, name: &str, q: f64) -> f64 {
        self.durs.get(name).map_or(f64::NAN, |d| quantile(d, q))
    }

    fn mean_ns(&self, name: &str) -> f64 {
        self.durs.get(name).map_or(0.0, |d| {
            d.iter().sum::<u64>() as f64 / d.len().max(1) as f64
        })
    }

    /// Median over replays of the seconds spent in `names` per replay.
    fn replay_s(&self, names: &[&str]) -> f64 {
        let replays = self.per_replay_s.values().map(Vec::len).max().unwrap_or(0);
        let per: Vec<f64> = (0..replays)
            .map(|i| {
                names
                    .iter()
                    .filter_map(|n| self.per_replay_s.get(n).and_then(|v| v.get(i)))
                    .sum()
            })
            .collect();
        median(&per)
    }
}

/// The traced run: one full and one set-up call for the runtime's own
/// counters, then traced replays with spans on and off.
fn run_traced(args: &Args, g: &gnnlab_graph::gen::SbmGraph) -> Report {
    let w = &args.workload;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut r = Report::default();
    let full = e2e::call(w, g, args.seed, w.epochs);
    let setup = e2e::call(w, g, args.seed, 0);
    r.attempted += e2e::scheduled(w, g, w.epochs);
    let res = full.result.as_ref().ok();
    if let Err(e) = &full.result {
        r.failed += e2e::scheduled(w, g, w.epochs);
        r.errors.push(format!("full call: {e}"));
    }
    if let Err(e) = &setup.result {
        r.errors.push(format!("set-up call: {e}"));
    }

    let mut pooled = Pooled::default();
    let (mut overhead, mut pair_s) = (Vec::new(), Vec::new());
    let mut written = false;
    while pair_s.len() < MIN_REPLAY_PAIRS
        || Instant::now() + Duration::from_secs_f64(mean(&pair_s)) <= deadline
    {
        let pair_started = Instant::now();
        let mut on = traced::Tracer::new(true);
        let t0 = Instant::now();
        let out = traced::replay(w, g, args.seed, &mut on);
        let on_s = t0.elapsed().as_secs_f64();
        let mut off = traced::Tracer::new(false);
        let t1 = Instant::now();
        let out_off = traced::replay(w, g, args.seed, &mut off);
        let off_s = t1.elapsed().as_secs_f64();
        overhead.push(on_s / off_s - 1.0);
        eprintln!(
            "{}: replay pair {}: spans on {on_s:.4} s, off {off_s:.4} s",
            w.name,
            pair_s.len() + 1
        );
        for o in [&out, &out_off] {
            r.attempted += o.batches;
            if o.extract_mismatches > 0 {
                r.errors.push(format!(
                    "{} extracted rows differ from a plain host gather",
                    o.extract_mismatches
                ));
            }
            if !w.clears_floor(o.eval_acc) {
                r.errors.push(format!(
                    "replayed model's held-out accuracy {} is not above the floor {}",
                    o.eval_acc, w.acc_floor
                ));
            }
            if o.bad_losses > 0 {
                r.failed += o.bad_losses;
                r.errors.push(format!(
                    "{} replayed batches had a non-finite loss",
                    o.bad_losses
                ));
            }
        }
        pooled.add(&on.spans);
        if !written {
            if let Err(e) = on.write_csv(&args.spans_out) {
                r.errors.push(format!(
                    "cannot write spans to {}: {e}",
                    args.spans_out.display()
                ));
            }
            written = true;
        }
        if pair_s.is_empty() {
            put_replay_counts(&mut r, &out);
        }
        pair_s.push(pair_started.elapsed().as_secs_f64());
        if !r.errors.is_empty() {
            break;
        }
    }

    let unattributed = pooled.gap_ns as f64 / pooled.step_ns.max(1) as f64;
    if unattributed > traced::TOTAL_TOL_FRAC || pooled.steps_over > 0 {
        r.errors.push(format!(
            "child spans leave {:.2}% of step time uncovered (limit {:.0}%) and {} of {} steps \
             over the per-step limit of {:.0}% or {} ms",
            unattributed * 100.0,
            traced::TOTAL_TOL_FRAC * 100.0,
            pooled.steps_over,
            pooled.steps,
            traced::STEP_TOL_FRAC * 100.0,
            traced::STEP_TOL_NS / 1_000_000
        ));
    }

    let p = &pooled;
    r.put("sampling.sample_ns.p50", p.q("sample", 0.5), "ns");
    r.put("sampling.sample_ns.p99", p.q("sample", 0.99), "ns");
    r.put("sampling.mark_ns.p50", p.q("mark", 0.5), "ns");
    r.put("cache.hotness_s", p.replay_s(&["hotness"]), "s");
    r.put("cache.fill_s", p.replay_s(&["fill"]), "s");
    r.put("cache.extract_ns.p50", p.q("extract", 0.5), "ns");
    r.put("cache.extract_ns.p99", p.q("extract", 0.99), "ns");
    r.put("tensor.forward_ns.p50", p.q("forward", 0.5), "ns");
    r.put("tensor.forward_ns.p99", p.q("forward", 0.99), "ns");
    r.put("tensor.loss_ns.p50", p.q("loss", 0.5), "ns");
    r.put("tensor.backward_ns.p50", p.q("backward", 0.5), "ns");
    r.put("tensor.backward_ns.p99", p.q("backward", 0.99), "ns");
    r.put("tensor.optim_ns.p50", p.q("optim", 0.5), "ns");
    r.put("tensor.param_copy_ns.p50", p.q("copy", 0.5), "ns");
    r.put("queue.op_ns.p50", p.q("queue", 0.5), "ns");
    r.put("queue.op_ns.p99", p.q("queue", 0.99), "ns");
    r.put("setup.split_s", p.replay_s(&["split"]), "s");
    r.put(
        "setup.eval_s",
        p.replay_s(&["eval.sample", "eval.extract", "eval.forward"]),
        "s",
    );

    // K = T_t / T_s from the trace's mean per-batch stage costs.
    let t_s = p.mean_ns("sample") + p.mean_ns("mark");
    let t_t = ["extract", "copy", "forward", "loss", "backward", "optim"]
        .iter()
        .map(|n| p.mean_ns(n))
        .sum::<f64>();
    let k = t_t / t_s;
    let ns_rule = (NUM_GPUS as f64 / (k + 1.0)).ceil();
    r.put("threaded.k", k, "ratio");
    r.put("threaded.ns_rule", ns_rule, "count");
    if let Some(res) = res {
        let batches = res.batches_trained.max(1) as f64;
        r.put(
            "queue.blocked_frac",
            res.queue_blocked_ns as f64 / (full.wall_s * 1e9),
            "fraction",
        );
        r.put("queue.peak_depth", res.peak_queue_depth as f64, "count");
        r.put("threaded.switches", res.switches as f64, "count");
        r.put(
            "tensor.last_epoch_loss",
            e2e::epoch_loss(w, g, res, w.epochs - 1),
            "nats",
        );
        r.put(
            "obs.spans_per_batch",
            full.span_count as f64 / batches,
            "count",
        );
    }
    r.put("trace.unattributed_frac", unattributed, "fraction");
    r.put("trace.overhead_frac", median(&overhead), "fraction");

    r.lines.push(format!(
        "paper terms [{}]: K = T_t/T_s = {k:.3} (T_s = sample+mark {:.1} us, T_t = \
         extract+copy+forward+loss+backward+optim {:.1} us per batch); rule N_s = \
         ceil(N_g/(K+1)) = {ns_rule} for N_g = {NUM_GPUS} (clamped to keep a Trainer: {}); \
         ran 1S1T: 1 Sampler + 1 Trainer, threads 1, depth {}",
        w.name,
        t_s / 1e3,
        t_t / 1e3,
        gnnlab_core::schedule::num_samplers(NUM_GPUS, t_s.max(1.0), t_t.max(1.0)),
        w.pipeline_depth
    ));
    r.lines.push(character_line(w, p, &full, &setup));
    r.lines.push(format!(
        "{}: {} traced replay pairs, {} steps, spans written to {}",
        w.name,
        pair_s.len(),
        pooled.steps,
        args.spans_out.display()
    ));
    r
}

/// Work counts of one replay; identical in every replay of a run.
fn put_replay_counts(r: &mut Report, out: &traced::ReplayOut) {
    let batches = out.batches.max(1) as f64;
    r.put(
        "sampling.input_rows",
        out.input_rows as f64 / batches,
        "rows",
    );
    r.put("cache.hit_rate", out.cache.hit_rate(), "fraction");
    r.put(
        "cache.host_mb_per_batch",
        out.cache.miss_bytes as f64 / batches / 1e6,
        "MB",
    );
}

/// Checks the workload's stated character against the trace.
fn character_line(w: &Workload, p: &Pooled, full: &e2e::Call, setup: &e2e::Call) -> String {
    let sample = p.q("sample", 0.5);
    let extract = p.q("extract", 0.5);
    let tensor: f64 = ["forward", "loss", "backward", "optim", "copy"]
        .iter()
        .map(|n| p.q(n, 0.5))
        .sum();
    let setup_share = setup.wall_s / full.wall_s;
    let (claim, holds) = match w.name {
        "gcn-pl-sample" => (
            format!("sample p50 {sample:.0} ns > tensor total p50 {tensor:.0} ns"),
            sample > tensor,
        ),
        "sage-pl-cache" => (
            format!(
                "tensor total p50 {tensor:.0} ns >= 5x sample p50 {sample:.0} ns and >= 5x \
                 extract p50 {extract:.0} ns"
            ),
            tensor >= 5.0 * sample && tensor >= 5.0 * extract,
        ),
        _ => (
            format!(
                "set-up is {:.1}% (< 10%) of the full call",
                setup_share * 100.0
            ),
            setup_share < 0.10,
        ),
    };
    format!(
        "character [{}]: {claim}: {}",
        w.name,
        if holds { "holds" } else { "CONTRADICTED" }
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let g = args.workload.generate(args.seed);
    eprintln!(
        "{}: generated the graph in {:.2} s (not timed)",
        args.workload.name,
        started.elapsed().as_secs_f64()
    );
    let report = if args.trace {
        run_traced(&args, &g)
    } else {
        run_e2e(&args, &g)
    };
    if report.print(args.workload.name) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
