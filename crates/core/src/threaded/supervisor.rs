use super::consumer::{standby_phase, trainer_phase};
use super::sampler::sampler_phase;
use super::{Shared, ThreadedError};
use crate::sync::Ordering;
use gnnlab_obs::names;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::Scope;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Spawning and supervision.
// ---------------------------------------------------------------------------

/// Spawns a Sampler on `slot`, registering it in the claim book before the
/// thread starts (no window where the book looks idle). Also the respawn
/// path after a Sampler crash.
pub(super) fn spawn_sampler<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
) {
    let exec = sh.next_exec.fetch_add(1, Ordering::Relaxed);
    sh.book.lock().sampling.insert(exec);
    // Register with the quiesce gate before the thread exists, so a
    // pending round can never close in the window between spawn and the
    // first park check.
    sh.ckpt_enter();
    scope.spawn(move || {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| sampler_phase(sh, slot, exec))) {
            on_sampler_crash(scope, sh, slot, exec, payload);
            sh.ckpt_exit();
            return;
        }
        if sh.cfg.dynamic_switching {
            let outcome = catch_unwind(AssertUnwindSafe(|| standby_phase(sh, slot, exec)));
            on_consumer_exit(scope, sh, slot, exec, outcome, true);
        }
        sh.ckpt_exit();
    });
}

/// Spawns a Trainer on `slot`, registering it as a consumer before the
/// thread starts. Also the respawn path after a consumer crash.
pub(super) fn spawn_trainer<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
) {
    let exec = sh.next_exec.fetch_add(1, Ordering::Relaxed);
    sh.consuming.lock().insert(exec);
    sh.ckpt_enter();
    scope.spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| trainer_phase(sh, slot, exec)));
        on_consumer_exit(scope, sh, slot, exec, outcome, false);
        sh.ckpt_exit();
    });
}

/// The one exit path of a consumer phase (a Trainer, or a Sampler's
/// standby half): leave the consuming set, then fail the run on a fatal
/// error or hand a panic to [`on_consumer_crash`].
fn on_consumer_exit<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
    exec: usize,
    outcome: std::thread::Result<Result<(), ThreadedError>>,
    standby: bool,
) {
    sh.consuming.lock().remove(&exec);
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(fatal)) => sh.fail_fatal(fatal),
        Err(payload) => on_consumer_crash(scope, sh, slot, exec, payload, standby),
    }
}

/// The supervisor's handler for a dead Sampler: orphan its in-flight
/// claim so a survivor re-samples it, then — budget permitting — respawn
/// the slot if no other Sampler is left to absorb the work.
fn on_sampler_crash<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
    exec: usize,
    payload: Box<dyn std::any::Any + Send>,
) {
    let started = Instant::now();
    let mut book = sh.book.lock();
    book.sampling.remove(&exec);
    // A Sampler dies holding its whole current burst (nothing from it was
    // enqueued yet, so re-sampling each index keeps exactly-once).
    let orphaned = match book.claims.remove(&exec) {
        Some(burst) => {
            let n = burst.len();
            book.orphans.extend(burst);
            n
        }
        None => 0,
    };
    let work_remains = book.work_remains();
    let peers_sampling = book.sampling.len();
    let close = book.should_close();
    drop(book);
    if orphaned > 0 {
        sh.recovery.lock().replayed_batches += orphaned;
        sh.obs
            .metrics
            .counter_add(names::RECOVERY_REPLAYED_BATCHES, orphaned as f64);
    }
    if !sh.try_consume_budget() {
        sh.fail(format!("Sampler {slot}"), payload);
        return;
    }
    if work_remains && peers_sampling == 0 {
        // Nobody left to re-sample the orphans or advance the cursor.
        sh.recovery.lock().respawns += 1;
        sh.obs.metrics.counter_inc(names::RECOVERY_RESPAWNS);
        spawn_sampler(scope, sh, slot);
    } else {
        // Survivors absorb the role through the shared claim book.
        sh.recovery.lock().reassignments += 1;
        sh.obs.metrics.counter_inc(names::RECOVERY_REASSIGNMENTS);
        if close {
            sh.queue.close();
        }
    }
    sh.note_downtime(started.elapsed());
}

/// The supervisor's handler for a dead consumer (Trainer or switched
/// standby), already out of the consuming set: reclaim its leases so
/// survivors replay the batches, then — budget permitting — respawn the
/// slot or reassign per the allocation rule on live stage-time estimates.
fn on_consumer_crash<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
    exec: usize,
    payload: Box<dyn std::any::Any + Send>,
    standby: bool,
) {
    let started = Instant::now();
    // The queue re-enqueues the dead consumer's leases at the front and
    // publishes `recovery.replayed_batches` itself.
    let replayed = sh.queue.reclaim(exec as u32);
    sh.recovery.lock().replayed_batches += replayed;
    let who = if standby {
        format!("Standby {slot}")
    } else {
        format!("Trainer {slot}")
    };
    if !sh.try_consume_budget() {
        sh.fail(who, payload);
        return;
    }
    let survivors = sh.consuming.lock().len();
    let drained = sh.queue_drained();
    // A replacement is mandatory when the last consumer died with work
    // still queued; otherwise ask the §5.2 allocation rule whether the
    // surviving Trainer pool is already big enough.
    let respawn = !drained
        && (survivors == 0 || {
            let n_g = sh.book.lock().sampling.len() + survivors + 1;
            survivors < sh.ideal_trainers(n_g)
        });
    if respawn {
        sh.recovery.lock().respawns += 1;
        sh.obs.metrics.counter_inc(names::RECOVERY_RESPAWNS);
        spawn_trainer(scope, sh, slot);
    } else {
        sh.recovery.lock().reassignments += 1;
        sh.obs.metrics.counter_inc(names::RECOVERY_REASSIGNMENTS);
    }
    sh.note_downtime(started.elapsed());
}
