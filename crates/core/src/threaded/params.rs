use crate::sync::Mutex;
use gnnlab_tensor::{Adam, GnnModel, Matrix, Optimizer};

/// The shared parameter server: master weights plus the optimizer state.
pub(super) struct ParamServer {
    pub(super) master: GnnModel,
    pub(super) opt: Adam,
}

/// Copies master parameter values into a replica (the Trainer's pull).
pub(super) fn pull_params(replica: &mut GnnModel, server: &Mutex<ParamServer>) {
    let mut guard = server.lock();
    let masters: Vec<Matrix> = guard
        .master
        .params_mut()
        .iter()
        .map(|p| p.value.clone())
        .collect();
    drop(guard);
    for (p, m) in replica.params_mut().into_iter().zip(masters) {
        p.value = m;
    }
}

/// Pushes a replica's gradients into the master and steps the optimizer
/// (asynchronous update; staleness is bounded by the number of in-flight
/// Trainers).
pub(super) fn push_grads(replica: &mut GnnModel, server: &Mutex<ParamServer>) {
    let grads: Vec<Matrix> = replica
        .params_mut()
        .iter()
        .map(|p| p.grad.clone())
        .collect();
    replica.zero_grad();
    let mut guard = server.lock();
    let ParamServer { master, opt } = &mut *guard;
    let mut params = master.params_mut();
    for (p, g) in params.iter_mut().zip(grads) {
        p.grad.add_assign(&g);
    }
    opt.step(&mut params);
}
