//! Client-side local training.
//!
//! [`ClientEnv`] is everything a sampled client can see during one round.
//! [`run_local`] is the one local loop every algorithm trains through: the
//! sampler, the `local_epoch` spans, the SGD step, the delta and the mean
//! loss. A method specialises it with a *step hook* that writes one
//! mini-batch's step direction into the gradient buffer and returns the
//! loss to book (the SAM family's ascent, FedGrab's classifier-row
//! balancer, BalanceFL's inherited logits). Most need less:
//! [`run_local_sgd`] is the loop with "gradient of the loss, then a
//! *direction transform*" as the hook — identity for FedAvg, a prox
//! correction for FedProx, a control-variate correction for SCAFFOLD, ….
//! FedCM/FedWCM's client momentum is not a transform but the step itself:
//! [`run_local_momentum`] runs the same loop with the blend fused into
//! the step's one pass over the parameters.
//!
//! The last step is not taken in the arena: its pass writes the upload
//! `(x_r − stepped)·scale` instead, with the step's own arithmetic, so
//! each element is rounded exactly as if the step had been taken and
//! then subtracted. The model is left where that step starts.
//!
//! # Who owns the training buffers
//!
//! A client's fixed cost is a copy, not a build. The user's
//! [`ModelFactory`] runs once per [`crate::Simulation`]; what a client
//! receives through [`ClientEnv::factory`] clones that prototype. And
//! [`run_local`] does not even clone per client inside the engine: a
//! run owns one model + gradient buffer per outer worker and lends the
//! set to whichever client that worker trains next (a scoped
//! thread-local, like the span buffer and the intra-task thread budget
//! installed around the same call). The client overwrites both buffers
//! before reading them — `set_params(global)`, and `loss_grad` zeroes the
//! gradient — so no bit depends on which set it drew or on what the
//! previous client left there. On return the model's layer caches are
//! released: only the two arena-sized buffers outlive a client, and
//! everything is dropped when the run returns. Called outside the engine
//! (unit tests, a custom harness), the same loop trains in a temporary
//! set built from `env.factory`.

use crate::config::FlConfig;
use fedwcm_data::dataset::{ClientView, Dataset};
use fedwcm_data::sampler::{BalanceSampler, BatchSampler};
use fedwcm_nn::loss::Loss;
use fedwcm_nn::model::Model;
use fedwcm_nn::opt::LocalStep;
use fedwcm_parallel::sync::lock_recover;
use fedwcm_stats::rng::{stream, Xoshiro256pp};
use fedwcm_tensor::Tensor;
use fedwcm_trace::{local, Name, Value};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

/// Factory that builds a model instance. [`crate::Simulation::new`] calls
/// the user's factory **once** and keeps the result as a prototype; the
/// factory the simulation stores (and every [`ClientEnv`] carries) clones
/// it. Must be deterministic: the prototype's parameters are round 0's
/// global model.
pub type ModelFactory = dyn Fn() -> Model + Send + Sync;

/// What a sampled client sees during one round.
pub struct ClientEnv<'a> {
    /// Client id `k`.
    pub id: usize,
    /// Current round `r`.
    pub round: usize,
    /// The master dataset.
    pub dataset: &'a Dataset,
    /// This client's data view (`n_k`, `n_{k,c}`, indices).
    pub view: &'a ClientView,
    /// Simulation configuration.
    pub cfg: &'a FlConfig,
    /// Model constructor (inside a simulation: a clone of its prototype).
    pub factory: &'a ModelFactory,
}

impl<'a> ClientEnv<'a> {
    /// A model of the client's own, initialised to the given global
    /// parameters.
    pub fn model_from(&self, global: &[f32]) -> Model {
        let mut model = (self.factory)();
        model.set_params(global);
        model
    }

    /// The deterministic RNG stream for this `(round, client)` pair.
    pub fn rng(&self) -> Xoshiro256pp {
        Xoshiro256pp::stream(
            self.cfg.seed,
            &[stream::LOCAL, self.round as u64, self.id as u64],
        )
    }

    /// Mini-batches per epoch for this client: `ceil(n_k / batch_size)`,
    /// where `n_k` is the client's sample count (at least 1).
    pub fn batches_per_epoch(&self) -> usize {
        self.view.len().div_ceil(self.cfg.batch_size).max(1)
    }
}

/// The result of one client's local training.
#[derive(Clone, Debug)]
pub struct ClientUpdate {
    /// Client id `k`.
    pub client: usize,
    /// Gradient-scale normalised direction `(x_r − x_B) / (η_l·B_k)`;
    /// see the crate-level delta convention.
    pub delta: Vec<f32>,
    /// Local sample count `n_k`.
    pub num_samples: usize,
    /// Total local steps `B_k` (epochs × batches/epoch).
    pub num_batches: usize,
    /// Mean training loss across local steps.
    pub avg_loss: f32,
    /// Algorithm-specific payload (e.g. SCAFFOLD's control-variate delta).
    pub extra: Option<Vec<f32>>,
}

/// Configuration of the generic local SGD loop.
pub struct LocalSgdSpec<'a> {
    /// Classification loss to optimise.
    pub loss: &'a dyn Loss,
    /// Use the class-balanced resampler instead of shuffled epochs.
    pub balanced_sampler: bool,
    /// Local learning rate (usually `cfg.local_lr`; FedWCM-X rescales it).
    pub lr: f32,
    /// Local epochs (usually `cfg.local_epochs`).
    pub epochs: usize,
}

/// One worker's training buffers. Both are overwritten before they are
/// read, and the model holds no layer cache between clients.
struct TrainBuffers {
    model: Model,
    grads: Vec<f32>,
}

impl TrainBuffers {
    fn new(factory: &ModelFactory) -> Self {
        let model = factory();
        let grads = vec![0.0f32; model.param_len()];
        TrainBuffers { model, grads }
    }
}

/// The training buffers of one run: a set per outer worker, built from
/// the run's own factory and dropped with the run.
pub(crate) struct BufferPool(Mutex<Vec<TrainBuffers>>);

impl BufferPool {
    /// A set for each of `workers` concurrently training clients.
    pub(crate) fn new(factory: &ModelFactory, workers: usize) -> Arc<Self> {
        let sets = (0..workers).map(|_| TrainBuffers::new(factory)).collect();
        Arc::new(BufferPool(Mutex::new(sets)))
    }
}

std::thread_local! {
    static POOL: RefCell<Option<Arc<BufferPool>>> = const { RefCell::new(None) };
}

/// Run `f` with `pool` lending its sets to this thread's
/// [`run_local`] calls, restoring the previous state afterwards
/// (also on panic).
pub(crate) fn with_pool<R>(pool: &Arc<BufferPool>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<BufferPool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL.with(|p| *p.borrow_mut() = self.0.take());
        }
    }
    let prev = POOL.with(|p| p.borrow_mut().replace(Arc::clone(pool)));
    let _restore = Restore(prev);
    f()
}

/// Run local SGD from the global model, transforming each raw gradient via
/// `direction(grad, current_params, step_index)` before stepping.
///
/// Returns the normalised delta (see crate docs) so aggregation operates at
/// gradient scale regardless of `B_k`.
pub fn run_local_sgd(
    env: &ClientEnv<'_>,
    global: &[f32],
    spec: &LocalSgdSpec<'_>,
    mut direction: impl FnMut(&mut [f32], &[f32], usize),
) -> ClientUpdate {
    run_local(env, global, spec, |model, x, y, grads, step| {
        let l = model.loss_grad(x, y, spec.loss, grads);
        direction(grads, model.params(), step);
        l
    })
}

/// Local SGD with FedCM/FedWCM's client momentum (Eq. 2/6): each step
/// moves the parameters by `−lr·(α·g + (1−α)·Δ_r)` in one pass over
/// the gradient `g` of `spec.loss`, or by `−lr·(α·g)` while `momentum`
/// is empty (round 0's `Δ_0 = 0`; scaling by α only rescales the
/// effective first-round lr, matching the reference).
pub fn run_local_momentum(
    env: &ClientEnv<'_>,
    global: &[f32],
    spec: &LocalSgdSpec<'_>,
    momentum: &[f32],
    alpha: f32,
) -> ClientUpdate {
    let step = LocalStep::Momentum { momentum, alpha };
    train(env, global, spec, step, |model, x, y, grads, _| {
        model.loss_grad(x, y, spec.loss, grads)
    })
}

/// The client loop itself, for a method whose step is more than "gradient
/// of `spec.loss`, then a direction transform": per mini-batch `(x, y)`,
/// `step(model, x, y, grads, step_index)` writes the step direction at the
/// model's current parameters into `grads` and returns the loss to book
/// for the step; the loop then takes `x ← x − lr·grads`. The hook may move
/// the parameters while it works (a SAM ascent) but must leave them where
/// the step starts. `spec.loss` is not read here: it is the loss the hook
/// differentiates.
pub fn run_local(
    env: &ClientEnv<'_>,
    global: &[f32],
    spec: &LocalSgdSpec<'_>,
    step: impl FnMut(&mut Model, &Tensor, &[usize], &mut [f32], usize) -> f32,
) -> ClientUpdate {
    train(env, global, spec, LocalStep::Sgd, step)
}

/// [`run_local`]'s loop, each step moving the parameters by `update`
/// along the hook's direction. The last step is not taken: its pass
/// writes the upload instead, and the model is left where that step
/// starts (the next client's `set_params` overwrites it).
fn train(
    env: &ClientEnv<'_>,
    global: &[f32],
    spec: &LocalSgdSpec<'_>,
    update: LocalStep<'_>,
    mut step: impl FnMut(&mut Model, &Tensor, &[usize], &mut [f32], usize) -> f32,
) -> ClientUpdate {
    assert!(!env.view.is_empty(), "sampled an empty client");
    assert!(spec.lr > 0.0 && spec.epochs >= 1);
    // The worker's set when a run lends one, a temporary set otherwise.
    let pool = POOL.with(|p| p.borrow().clone());
    let mut bufs = pool
        .as_ref()
        .and_then(|p| lock_recover(&p.0).pop())
        .unwrap_or_else(|| TrainBuffers::new(env.factory));
    let TrainBuffers { model, grads } = &mut bufs;
    model.set_params(global);
    let rng = env.rng();

    let batches_per_epoch = env.batches_per_epoch();
    let total_steps = batches_per_epoch * spec.epochs;
    // delta = (x_r − x_B) / (lr · B_k): gradient-scale direction. Its
    // buffer is taken before the first step's layer caches: taken at the
    // last step, above them, it raised `reslite_2t`'s peak RSS by ≈ 0.6 MB
    // (2-core host).
    let scale = 1.0 / (spec.lr * total_steps as f32);
    let mut delta = Vec::with_capacity(global.len());
    let mut loss_acc = 0.0f64;

    // Both sampler paths run the same epochs × batches/epoch nest (the
    // balanced sampler draws a flat stream, so the epoch boundary is
    // only a bookkeeping notion there — the batch sequence is unchanged).
    // Each epoch is wrapped in a `local_epoch` span recorded into the
    // thread-local buffer the engine installs for traced runs; without a
    // buffer not even the span's fields are built.
    let traced = local::active();
    let mut n = 0usize;
    let mut run_epochs = |next_batch: &mut dyn FnMut() -> Vec<usize>| {
        for epoch in 0..spec.epochs {
            let _span = traced.then(|| {
                local::span(
                    Name::LOCAL_EPOCH,
                    vec![
                        ("client", Value::U64(env.id as u64)),
                        ("epoch", Value::U64(epoch as u64)),
                        ("batches", Value::U64(batches_per_epoch as u64)),
                    ],
                )
            });
            for _ in 0..batches_per_epoch {
                let idx = next_batch();
                let (x, y) = env.dataset.gather(&idx);
                loss_acc += step(model, &x, &y, grads, n) as f64;
                n += 1;
                if n < total_steps {
                    update.apply(model.params_mut(), grads, spec.lr);
                } else {
                    update.delta_into(global, model.params(), grads, spec.lr, scale, &mut delta);
                }
            }
        }
    };
    if spec.balanced_sampler {
        let mut sampler =
            BalanceSampler::new(env.view.indices(), env.dataset, env.cfg.batch_size, rng);
        run_epochs(&mut || sampler.next_batch());
    } else {
        let mut sampler = BatchSampler::new(env.view.indices(), env.cfg.batch_size, rng);
        run_epochs(&mut || sampler.next_batch());
    }

    model.release_caches();
    if let Some(pool) = pool {
        lock_recover(&pool.0).push(bufs);
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "mean loss is a bounded report value and f32 is its wire format"
    )]
    let avg_loss = (loss_acc / total_steps as f64) as f32;
    ClientUpdate {
        client: env.id,
        delta,
        num_samples: env.view.len(),
        num_batches: total_steps,
        avg_loss,
        extra: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedwcm_data::longtail::longtail_counts;
    use fedwcm_data::partition::paper_partition;
    use fedwcm_data::synth::DatasetPreset;
    use fedwcm_nn::loss::CrossEntropy;
    use fedwcm_nn::models::mlp;

    fn setup() -> (Dataset, Vec<ClientView>, FlConfig) {
        let spec = DatasetPreset::FashionMnist.spec();
        let counts = longtail_counts(10, 60, 0.5);
        let ds = spec.generate_train(&counts, 5);
        let part = paper_partition(&ds, 4, 0.5, 5);
        let views = part.views(&ds);
        let mut cfg = FlConfig::default_sim();
        cfg.clients = 4;
        cfg.batch_size = 16;
        cfg.local_epochs = 2;
        (ds, views, cfg)
    }

    fn factory() -> Model {
        let mut rng = Xoshiro256pp::seed_from(99);
        mlp(64, &[32], 10, &mut rng)
    }

    fn env<'a>(
        ds: &'a Dataset,
        views: &'a [ClientView],
        cfg: &'a FlConfig,
        id: usize,
        round: usize,
    ) -> ClientEnv<'a> {
        ClientEnv {
            id,
            round,
            dataset: ds,
            view: &views[id],
            cfg,
            factory: &factory,
        }
    }

    fn spec(lr: f32, epochs: usize) -> LocalSgdSpec<'static> {
        LocalSgdSpec {
            loss: &CrossEntropy,
            balanced_sampler: false,
            lr,
            epochs,
        }
    }

    #[test]
    fn local_sgd_produces_gradient_scale_delta() {
        let (ds, views, cfg) = setup();
        let env = env(&ds, &views, &cfg, 0, 0);
        let model = factory();
        let global = model.params().to_vec();
        let spec = spec(0.1, 2);
        let upd = run_local_sgd(&env, &global, &spec, |_, _, _| {});
        assert_eq!(upd.delta.len(), global.len());
        assert_eq!(upd.num_samples, views[0].len());
        assert_eq!(upd.num_batches, 2 * views[0].len().div_ceil(16));
        assert!(upd.avg_loss > 0.0);
        // Delta at gradient scale: norm comparable to a single gradient,
        // not to B_k gradients.
        let norm: f32 = upd.delta.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm > 1e-4 && norm < 100.0, "delta norm {norm}");
    }

    #[test]
    fn identity_direction_descends_locally() {
        let (ds, views, cfg) = setup();
        let env = env(&ds, &views, &cfg, 1, 3);
        let model = factory();
        let global = model.params().to_vec();
        let spec = spec(0.1, 5);
        let upd = run_local_sgd(&env, &global, &spec, |_, _, _| {});
        // Reconstruct final local params and verify loss decreased.
        let steps = upd.num_batches as f32;
        let finals: Vec<f32> = global
            .iter()
            .zip(&upd.delta)
            .map(|(g, d)| g - d * 0.1 * steps)
            .collect();
        let mut m = factory();
        let (x, y) = ds.gather(views[1].indices());
        m.set_params(&global);
        let logits = m.forward(&x, false);
        let (before, _) = CrossEntropy.loss_and_grad(&logits, &y);
        m.set_params(&finals);
        let logits = m.forward(&x, false);
        let (after, _) = CrossEntropy.loss_and_grad(&logits, &y);
        assert!(after < before, "local loss {before} -> {after}");
    }

    #[test]
    fn deterministic_for_same_round_and_client() {
        let (ds, views, cfg) = setup();
        let model = factory();
        let global = model.params().to_vec();
        let run = || {
            let env = env(&ds, &views, &cfg, 2, 7);
            let spec = spec(0.1, 1);
            run_local_sgd(&env, &global, &spec, |_, _, _| {})
        };
        let a = run();
        let b = run();
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.avg_loss, b.avg_loss);
    }

    #[test]
    fn direction_transform_is_applied() {
        let (ds, views, cfg) = setup();
        let env = env(&ds, &views, &cfg, 0, 0);
        let model = factory();
        let global = model.params().to_vec();
        let spec = spec(0.1, 1);
        // Zero direction ⇒ params never move ⇒ delta is exactly zero.
        let upd = run_local_sgd(&env, &global, &spec, |g, _, _| g.fill(0.0));
        assert!(upd.delta.iter().all(|&d| d == 0.0));
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A lent set whose every float is NaN trains the same bits as a
    /// temporary set: both buffers are overwritten before they are read.
    #[test]
    fn bits_do_not_depend_on_what_the_lent_buffers_held() {
        let (ds, views, cfg) = setup();
        let env = env(&ds, &views, &cfg, 1, 2);
        let global = factory().params().to_vec();
        let spec = spec(0.1, 2);
        let clean = run_local_sgd(&env, &global, &spec, |_, _, _| {});

        let pool = BufferPool::new(&factory, 1);
        for set in lock_recover(&pool.0).iter_mut() {
            set.model.params_mut().fill(f32::NAN);
            set.grads.fill(f32::NAN);
        }
        for _ in 0..2 {
            let lent = with_pool(&pool, || run_local_sgd(&env, &global, &spec, |_, _, _| {}));
            assert_eq!(bits(&lent.delta), bits(&clean.delta));
            assert_eq!(lent.avg_loss.to_bits(), clean.avg_loss.to_bits());
            assert_eq!(lock_recover(&pool.0).len(), 1, "the set went back");
        }
        assert!(POOL.with(|p| p.borrow().is_none()), "the loan is scoped");
    }

    /// What a client hands back is two arena-sized buffers and nothing
    /// else: the model's layer caches are gone, so it is as cold as a
    /// fresh clone (retaining them pinned training memory under
    /// evaluation).
    #[test]
    #[should_panic(expected = "dense backward without forward(train=true)")]
    fn a_model_returned_to_its_worker_holds_no_layer_cache() {
        let (ds, views, cfg) = setup();
        let env = env(&ds, &views, &cfg, 0, 0);
        let global = factory().params().to_vec();
        let spec = spec(0.1, 1);
        let pool = BufferPool::new(&factory, 1);
        let _ = with_pool(&pool, || run_local_sgd(&env, &global, &spec, |_, _, _| {}));
        let mut sets = lock_recover(&pool.0);
        let TrainBuffers { model, grads } = &mut sets[0];
        model.backward(&Tensor::zeros(&[1, 10]), grads);
    }

    #[test]
    fn balanced_sampler_path_runs() {
        let (ds, views, cfg) = setup();
        let env = env(&ds, &views, &cfg, 3, 1);
        let model = factory();
        let global = model.params().to_vec();
        let spec = LocalSgdSpec {
            balanced_sampler: true,
            ..spec(0.05, 1)
        };
        let upd = run_local_sgd(&env, &global, &spec, |_, _, _| {});
        assert!(upd.avg_loss.is_finite());
        assert!(upd.delta.iter().any(|&d| d != 0.0));
    }
}
