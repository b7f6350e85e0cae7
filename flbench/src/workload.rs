//! Building and running one repetition of a workload: a fresh experiment
//! on the run's seed — set-up (timed on its own) followed by a whole
//! `Simulation::run*` call (timed on its own).

use crate::alloc::{self, AllocCounts};
use crate::registry::{Net, Workload, CHAOS_FAULTS, CHAOS_NET};
use crate::spans::{SpanId, Spans};
use crate::timed::{Probe, ProbeTotals, Timed};
use fedwcm_core::FedWcm;
use fedwcm_data::dataset::{ClientView, Dataset};
use fedwcm_data::longtail::longtail_counts_with_total;
use fedwcm_data::partition::paper_partition;
use fedwcm_data::synth::DatasetPreset;
use fedwcm_faults::{FaultConfig, FaultPlan};
use fedwcm_fl::client::ModelFactory;
use fedwcm_fl::{
    sampled_clients_for, Cadence, FlConfig, History, NetConfig, NetPlan, ServerCheckpoint,
    Simulation,
};
use fedwcm_he::protocol::aggregate_distributions;
use fedwcm_he::rlwe::RlweParams;
use fedwcm_nn::model::Model;
use fedwcm_nn::models::{mlp, res_lite};
use fedwcm_stats::rng::split_seed;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_trace::{MetricsRegistry, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Imbalance factor of every workload.
pub const IMBALANCE: f64 = 0.1;
/// Dirichlet β of every workload.
pub const BETA: f64 = 0.1;
/// Classes of both presets.
pub const CLASSES: usize = 10;

/// The dataset preset of a model family.
pub fn preset(net: Net) -> DatasetPreset {
    match net {
        Net::ResLite => DatasetPreset::Cifar10,
        Net::Mlp => DatasetPreset::FashionMnist,
    }
}

/// A fresh model of the family; the initialisation seed is a constant,
/// as in `fedwcm-experiments`' factory.
pub fn build_model(net: Net) -> Model {
    let mut rng = Xoshiro256pp::seed_from(0xF_AC70 ^ CLASSES as u64);
    match net {
        Net::ResLite => res_lite(3, 8, 8, CLASSES, 12, &mut rng),
        Net::Mlp => mlp(64, &[256], CLASSES, &mut rng),
    }
}

/// The model factory handed to the engine.
pub fn factory(net: Net) -> Box<ModelFactory> {
    Box::new(move || build_model(net))
}

/// The engine configuration of a workload.
pub fn fl_config(w: &Workload, seed: u64, rounds: usize, threads: usize) -> FlConfig {
    FlConfig {
        clients: w.clients,
        participation: w.participation,
        rounds,
        local_epochs: w.local_epochs,
        batch_size: w.batch_size,
        local_lr: 0.1,
        global_lr: 1.0,
        seed,
        threads,
        eval_every: w.eval_every.min(rounds),
        cadence: match w.chaos {
            Some(c) => Cadence::BufferedK { k: c.buffer_k },
            None => Cadence::Sync,
        },
        ..FlConfig::default_sim()
    }
}

/// The chaos fault plan; its seed is derived from the run's seed.
pub fn chaos_fault_plan(seed: u64) -> FaultPlan {
    let (dropout, straggler, max_delay, corruption, replay) = CHAOS_FAULTS;
    FaultPlan::new(FaultConfig {
        seed: split_seed(seed, &[0xFA17]),
        dropout,
        straggler,
        max_delay,
        corruption,
        replay,
    })
}

/// The chaos net plan; its seed is derived from the run's seed.
pub fn chaos_net_plan(seed: u64) -> NetPlan {
    let mut cfg = NetConfig::parse(CHAOS_NET).expect("the chaos net spec is a valid constant");
    cfg.seed = split_seed(seed, &[0x4E7]);
    NetPlan::new(cfg)
}

/// Datasets and partition views of a workload on one seed.
pub struct Task {
    /// Long-tailed training set.
    pub train: Dataset,
    /// Balanced test set.
    pub test: Dataset,
    /// Per-client views.
    pub views: Vec<ClientView>,
}

impl Task {
    /// Generate the data and partition it, each call in its own span.
    pub fn build(w: &Workload, seed: u64, spans: &Spans, parent: Option<SpanId>) -> Task {
        let spec = preset(w.net).spec();
        let counts = longtail_counts_with_total(spec.classes, w.train_total, IMBALANCE);
        let train = spans.record("data.generate_train", parent, || {
            spec.generate_train(&counts, seed)
        });
        let test = spans.record("data.generate_test", parent, || spec.generate_test(seed));
        let partition = spans.record("data.paper_partition", parent, || {
            paper_partition(&train, w.clients, BETA, seed)
        });
        let views = spans.record("data.views", parent, || partition.views(&train));
        Task { train, test, views }
    }
}

/// The paper's §5.5 private path: aggregate the clients' class counts
/// under encryption; true when the result equals the plaintext counts.
pub fn he_aggregate_matches(views: &[ClientView], train: &Dataset, seed: u64) -> bool {
    let client_counts: Vec<Vec<usize>> = views.iter().map(|v| v.class_counts().to_vec()).collect();
    let (global, _report) = aggregate_distributions(
        &client_counts,
        RlweParams::default_params(),
        split_seed(seed, &[0x4E]),
    );
    global == train.class_counts()
}

/// `Σ` over rounds and sampled clients of `local_epochs · n_k`: the
/// samples one repetition trains on, a pure function of workload and
/// seed.
pub fn samples_per_repetition(views: &[ClientView], cfg: &FlConfig) -> u64 {
    (0..cfg.rounds)
        .flat_map(|r| sampled_clients_for(cfg, r))
        .map(|k| (cfg.local_epochs * views[k].len()) as u64)
        .sum()
}

/// The tracer and registry of an armed repetition.
pub struct Armed {
    /// Wall-clock tracer into an in-memory sink.
    pub tracer: Tracer,
    /// Registry receiving the `fl.*` histograms and counters.
    pub registry: Arc<MetricsRegistry>,
}

/// How one repetition runs.
pub struct RepOpts<'a> {
    /// Rounds of the repetition.
    pub rounds: usize,
    /// Kill after this many rounds, go through checkpoint bytes, resume.
    pub kill_round: Option<usize>,
    /// `cfg.threads`.
    pub threads: usize,
    /// Tracer and registry; `None` in every end-to-end repetition.
    pub armed: Option<Armed>,
    /// Count the run call's allocations; false in every timed repetition.
    pub count_allocs: bool,
    /// The benchmark's span recorder (disarmed unless traced).
    pub spans: &'a Arc<Spans>,
}

/// What one repetition measured and produced.
pub struct Rep {
    /// Set-up wall time.
    pub setup_s: f64,
    /// Wall time of the whole `Simulation::run*` call (with kill/resume:
    /// `run_until` + `to_bytes` + `from_bytes` + `resume`).
    pub run_s: f64,
    /// The run's history.
    pub history: History,
    /// Samples trained on.
    pub samples: u64,
    /// The `Timed` adapter's totals.
    pub probe: ProbeTotals,
    /// HE aggregate equalled the plaintext class counts (true when the
    /// workload has no HE step).
    pub he_ok: bool,
    /// `to_bytes(from_bytes(b)) == b` (true without kill/resume).
    pub checkpoint_ok: bool,
    /// Allocations during the run call, where they were counted.
    pub allocs: Option<AllocCounts>,
}

/// Run one repetition.
pub fn repetition(w: &Workload, seed: u64, opts: RepOpts<'_>) -> Rep {
    let spans = opts.spans;
    let counting = opts.count_allocs;
    let rep_span = spans.open("bench.repetition", None);

    // Set-up, timed on its own.
    let t_setup = Instant::now();
    let setup_span = spans.open("bench.setup", rep_span);
    let Task { train, test, views } = Task::build(w, seed, spans, setup_span);
    let he_ok = !w.he
        || spans.record("he.aggregate_distributions", setup_span, || {
            he_aggregate_matches(&views, &train, seed)
        });
    let mut fedwcm = FedWcm::new();
    spans.record("core.prepare", setup_span, || {
        fedwcm.prepare(&views, CLASSES)
    });
    let plans = w.chaos.map(|_| {
        spans.record("faults.plans", setup_span, || {
            (chaos_fault_plan(seed), chaos_net_plan(seed))
        })
    });
    let sim = spans.record("fl.simulation_new", setup_span, || {
        let cfg = fl_config(w, seed, opts.rounds, opts.threads);
        let mut sim = Simulation::new(cfg, &train, &test, views, factory(w.net));
        if let Some((faults, net)) = plans {
            sim = sim.with_fault_plan(faults).with_net_plan(net);
        }
        if let Some(a) = opts.armed {
            sim = sim.with_tracer(a.tracer).with_metrics(a.registry);
        }
        sim
    });
    let model = spans.record("nn.model_build", setup_span, || (sim.factory)());
    std::hint::black_box(&model);
    spans.close(setup_span);
    let setup_s = t_setup.elapsed().as_secs_f64();

    // The run, timed on its own.
    let probe = Arc::new(Probe::new(Arc::clone(spans)));
    let mut algo = Timed::new(fedwcm, Arc::clone(&probe));
    if counting {
        alloc::arm();
    }
    let t_run = Instant::now();
    let run_span = spans.open("fl.run", rep_span);
    probe.set_parent(run_span);
    let (history, checkpoint) = match opts.kill_round {
        None => (sim.run(&mut algo), None),
        Some(kill) => {
            let ckpt = spans
                .record("fl.run_until", run_span, || sim.run_until(&mut algo, kill))
                .expect("FedWCM implements state capture");
            let bytes = spans.record("fl.checkpoint.to_bytes", run_span, || ckpt.to_bytes());
            // The killed process is gone: only the bytes survive it.
            drop(ckpt);
            let back = spans
                .record("fl.checkpoint.from_bytes", run_span, || {
                    ServerCheckpoint::from_bytes(&bytes)
                })
                .expect("a checkpoint parses back from its own bytes");
            let mut fresh = Timed::new(FedWcm::new(), Arc::clone(&probe));
            let history = spans
                .record("fl.resume", run_span, || sim.resume(&mut fresh, &back))
                .expect("the checkpoint matches the simulation it came from");
            (history, Some((back, bytes)))
        }
    };
    spans.close(run_span);
    let run_s = t_run.elapsed().as_secs_f64();
    let allocs = counting.then(alloc::disarm);
    spans.close(rep_span);

    Rep {
        setup_s,
        run_s,
        samples: samples_per_repetition(&sim.views, &sim.cfg),
        history,
        probe: probe.totals(),
        he_ok,
        checkpoint_ok: checkpoint.is_none_or(|(back, bytes)| back.to_bytes() == bytes),
        allocs,
    }
}
