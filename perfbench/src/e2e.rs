//! Untraced calls of the real runtime, `run_threaded_obs`, with the
//! correctness gate every call must pass.

use crate::workload::Workload;
use gnnlab_core::threaded::{run_threaded_obs, RecoveryReport, ThreadedResult};
use gnnlab_graph::gen::SbmGraph;
use gnnlab_obs::Obs;
use std::sync::Arc;
use std::time::Instant;

/// One timed call.
pub struct Call {
    pub wall_s: f64,
    /// Spans the runtime's own hub recorded.
    pub span_count: usize,
    /// Peak resident set during the call, in MiB.
    pub peak_rss_mib: f64,
    /// The result, or why the call failed or was wrong.
    pub result: Result<ThreadedResult, String>,
}

/// Runs the workload for `epochs` epochs (0 = set-up only) and gates the
/// result.
pub fn call(w: &Workload, g: &SbmGraph, seed: u64, epochs: usize) -> Call {
    let cfg = w.config(seed, epochs);
    let obs = Arc::new(Obs::wall());
    reset_peak_rss();
    let started = Instant::now();
    let result = run_threaded_obs(g, w.model, &cfg, &obs);
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_mib().unwrap_or(f64::NAN);
    let result = match result {
        Ok(r) => gate(w, g, epochs, &r).map(|()| r),
        Err(e) => Err(format!("run failed: {e}")),
    };
    Call {
        wall_s,
        span_count: obs.span_count(),
        peak_rss_mib,
        result,
    }
}

/// Batches a call with `epochs` epochs schedules.
pub fn scheduled(w: &Workload, g: &SbmGraph, epochs: usize) -> usize {
    epochs * w.batches_per_epoch(g.csr.num_vertices())
}

/// The correctness gate: every scheduled batch sampled and trained once,
/// one finite-loss history record per batch id, no recovery activity,
/// and (after training) held-out accuracy above the workload's floor.
pub fn gate(w: &Workload, g: &SbmGraph, epochs: usize, r: &ThreadedResult) -> Result<(), String> {
    let want = scheduled(w, g, epochs);
    if r.batches_trained != want || r.samples_produced != want {
        return Err(format!(
            "trained {} and produced {} of {want} scheduled batches",
            r.batches_trained, r.samples_produced
        ));
    }
    if r.history.len() != want {
        return Err(format!(
            "{} history records for {want} batches",
            r.history.len()
        ));
    }
    if let Some((i, rec)) = r
        .history
        .iter()
        .enumerate()
        .find(|(i, rec)| rec.id != *i as u64 || !rec.loss.is_finite())
    {
        return Err(format!(
            "history record {i} has id {} and loss {}",
            rec.id, rec.loss
        ));
    }
    if r.recovery != RecoveryReport::default() {
        return Err(format!("unexpected recovery activity: {:?}", r.recovery));
    }
    if epochs > 0 && !w.clears_floor(r.final_accuracy) {
        return Err(format!(
            "final accuracy {} is not above the floor {}",
            r.final_accuracy, w.acc_floor
        ));
    }
    Ok(())
}

/// Mean loss over the batches of `epoch`.
pub fn epoch_loss(w: &Workload, g: &SbmGraph, r: &ThreadedResult, epoch: usize) -> f64 {
    let bpe = w.batches_per_epoch(g.csr.num_vertices()) as u64;
    let ids = epoch as u64 * bpe..(epoch as u64 + 1) * bpe;
    let losses: Vec<f64> = r
        .history
        .iter()
        .filter(|rec| ids.contains(&rec.id))
        .map(|rec| f64::from(rec.loss))
        .collect();
    losses.iter().sum::<f64>() / losses.len() as f64
}

/// Resets this process's peak resident set to its current one, so the
/// next [`peak_rss_mib`] covers one call rather than the whole process.
fn reset_peak_rss() {
    // Failing to reset only widens the peak to the whole process so far.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
