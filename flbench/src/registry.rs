//! The one registry that drives everything: the four workloads, the four
//! end-to-end metrics and the per-layer metrics. `flbench list`,
//! `flbench manifest` (= `BENCHMARK.json`), both result lines and the
//! tables in the README are all printed from these tables.

use fedwcm_obs::Json;

/// Which model and data preset a workload trains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// ResLite width 12 on the CIFAR-10 preset (3×8×8 images).
    ResLite,
    /// `mlp(64, [256], 10)` on the Fashion-MNIST preset (64 flat features).
    Mlp,
}

/// The lossy-wire half of `mlp_xdev_chaos`: fault plan, net plan, cadence
/// and the round the repetition is killed at.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Chaos {
    /// `Cadence::BufferedK { k }`.
    pub buffer_k: usize,
    /// The repetition is killed after this many rounds and resumed.
    pub kill_round: usize,
}

/// `FaultPlan` rates of the chaos plans (dropout, straggler, max delay,
/// corruption, replay).
pub const CHAOS_FAULTS: (f64, f64, usize, f64, f64) = (0.2, 0.15, 3, 0.05, 0.05);
/// `NetPlan` spec of the chaos plans.
pub const CHAOS_NET: &str = "drop:0.1,corrupt:0.05,dup:0.05,reorder:0.05,delayp:0.1,delay:2";

/// One workload: every number is a constant, never adapted to the host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: why the workload exists.
    pub why: &'static str,
    /// Model and preset.
    pub net: Net,
    /// Training samples.
    pub train_total: usize,
    /// Clients `K`.
    pub clients: usize,
    /// Share of clients sampled each round.
    pub participation: f64,
    /// Local epochs.
    pub local_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Rounds per repetition.
    pub rounds: usize,
    /// Evaluate every this many rounds (and at the end).
    pub eval_every: usize,
    /// `cfg.threads`, set explicitly: the environment never sizes the load.
    pub threads: usize,
    /// Set-up runs the §5.5 private distribution aggregation.
    pub he: bool,
    /// Buffered cadence, faults, lossy wire and kill/resume.
    pub chaos: Option<Chaos>,
    /// Floor the mean of the last three evaluations must clear (see the
    /// README for the seeds it was fixed on).
    pub acc_floor: Option<f64>,
}

impl Workload {
    /// Rounds and kill round of a repetition; `--smoke` divides both by 4.
    pub fn shape(&self, smoke: bool) -> (usize, Option<usize>) {
        let div = if smoke { 4 } else { 1 };
        (
            (self.rounds / div).max(1),
            self.chaos.map(|c| (c.kill_round / div).max(1)),
        )
    }

    /// Rows of one local mini-batch: the batch size, or the client's
    /// whole share when that is smaller (a constant of the workload).
    pub fn step_batch(&self) -> usize {
        self.batch_size.min(self.train_total.div_ceil(self.clients))
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }
}

const RESLITE_1T: Workload = Workload {
    name: "reslite_1t",
    why: "Paper-scale ResLite/CIFAR-10 on one worker: nn conv/residual and tensor GEMM/im2col are >90% of the time; the plain single-worker baseline.",
    net: Net::ResLite,
    train_total: 4_000,
    clients: 100,
    participation: 0.1,
    local_epochs: 5,
    batch_size: 50,
    rounds: 4,
    eval_every: 4,
    threads: 1,
    he: false,
    chaos: None,
    acc_floor: None,
};

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    RESLITE_1T,
    Workload {
        name: "reslite_2t",
        why: "reslite_1t on two workers: the same arithmetic through the parallel layer; its ratio to reslite_1t is the scaling number, and a kernel change must move both.",
        threads: 2,
        ..RESLITE_1T
    },
    MLP_XDEV,
    Workload {
        name: "mlp_xdev_chaos",
        why: "mlp_xdev through the other half of the engine: buffered cadence, fault plan, lossy wire with retries, kill at round 6 of 12 and resume from checkpoint bytes.",
        // Half of mlp_xdev's rounds: a repetition as short as the other
        // workloads' gives a 30 s run twice the samples to take the
        // third-smallest of, on the workload the host disturbs most.
        rounds: 12,
        chaos: Some(Chaos {
            buffer_k: 16,
            kill_round: 6,
        }),
        acc_floor: Some(0.35),
        ..MLP_XDEV
    },
];

const MLP_XDEV: Workload = Workload {
    name: "mlp_xdev",
    why: "Cross-device regime: 200 clients of 10 samples, 50 one-step uploads a round, tiny GEMMs; per-client fixed cost, evaluation and aggregation show, HE dominates set-up.",
    net: Net::Mlp,
    train_total: 2_000,
    clients: 200,
    participation: 0.25,
    local_epochs: 1,
    batch_size: 50,
    rounds: 24,
    eval_every: 1,
    threads: 1,
    he: true,
    chaos: None,
    acc_floor: Some(0.50),
};

/// Accuracy target of `fl.rounds_to_target` / `fl.time_to_target_s`: every
/// one of the 26 seeds the floors were fixed on crosses it before the last
/// round, on both `mlp_*` workloads (see the README).
pub const ACC_TARGET: f64 = 0.50;

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of either table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// What is measured, and (per layer) what it should move.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn hi(name: &'static str, unit: &'static str, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        what,
    }
}

const fn lo(name: &'static str, unit: &'static str, what: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        what,
    }
}

/// The end-to-end metrics: the same four on every workload.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25, "third-smallest set-up time: dataset generation (train + test), paper_partition, views, HE aggregation on mlp_*, FedWcm::prepare, plan construction, Simulation::new and one factory call"),
    e2e("rounds_per_s", "1/s", Better::Higher, 0.25, "rounds per repetition / third-smallest repetition time"),
    e2e("samples_per_s", "1/s", Better::Higher, 0.25, "sum over rounds and sampled clients of local_epochs x n_k in one repetition / third-smallest repetition time"),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25, "VmHWM of the process after the last repetition"),
];

/// The per-layer metrics (`--trace 1` only); layers are the repo's crates.
pub const PER_LAYER: [Metric; 77] = [
    // bench: how far the host was from quiet; they move nothing.
    hi("bench.reps", "count", "untraced reference repetitions timed"),
    lo("bench.rep_s_p50", "s", "median reference repetition time"),
    lo("bench.rep_s_p90", "s", "p90 reference repetition time"),
    lo("bench.noise_share", "share", "(p50 - third-smallest) / third-smallest of the reference repetitions"),
    // fl
    lo("fl.round_ms_p50", "ms", "median round duration over the armed repetitions' round spans"),
    lo("fl.round_ms_tail", "ms", "round duration at the highest percentile with at least 10 rounds beyond it"),
    hi("fl.phase.local_train_share", "share", "fl.phase.local_train / fl.round_ticks histogram sums; -> rounds_per_s everywhere"),
    lo("fl.phase.aggregate_share", "share", "fl.phase.aggregate share of the round; -> rounds_per_s on mlp_xdev*"),
    lo("fl.phase.evaluate_share", "share", "fl.phase.evaluate share of the round (armed: includes the per-class pass); -> rounds_per_s on mlp_xdev*"),
    lo("fl.engine_self_share", "share", "round total minus the three phases: sampling, fault, wire, buffer and record bookkeeping; -> rounds_per_s on mlp_xdev_chaos only"),
    lo("fl.client_overhead_share", "share", "(Timed local-train time - nn layer busy time in training) / round total; -> rounds_per_s on mlp_xdev*"),
    lo("fl.worker_idle_share", "share", "1 - sum of client busy time / (threads x local-train phase); -> rounds_per_s on reslite_2t only"),
    lo("fl.model_from_us", "us", "one ClientEnv::model_from; -> rounds_per_s on mlp_xdev*"),
    lo("fl.evaluate_ms", "ms", "one evaluate_accuracy_threads over the test set; -> rounds_per_s on mlp_xdev*"),
    lo("fl.wire.encode_us", "us", "one wire::encode_update; -> rounds_per_s on mlp_xdev_chaos only"),
    lo("fl.wire.decode_us", "us", "one wire::decode_update; -> rounds_per_s on mlp_xdev_chaos only"),
    lo("fl.checkpoint.to_bytes_ms", "ms", "one ServerCheckpoint::to_bytes; -> rounds_per_s on mlp_xdev_chaos only"),
    lo("fl.checkpoint.from_bytes_ms", "ms", "one ServerCheckpoint::from_bytes; -> rounds_per_s on mlp_xdev_chaos only"),
    lo("fl.checkpoint.bytes", "B", "size of that checkpoint; repeats exactly for a seed"),
    lo("fl.bytes_up_per_round", "B", "fl.bytes.up counter / rounds"),
    lo("fl.updates_lost_share", "share", "uploads dropped, exhausted on the wire or contained / uploads trained (scheduled from the chaos plans where the workload has none)"),
    lo("fl.rounds_to_target", "count", "first round whose last-3-evaluation mean reaches 0.50; the repetition's rounds when never"),
    lo("fl.time_to_target_s", "s", "rounds_to_target x third-smallest reference run time / rounds"),
    hi("fl.final_acc", "share", "mean of the last three evaluations"),
    hi("fl.tail_acc", "share", "accuracy on the 3 rarest classes at the last evaluation"),
    // core / algos
    lo("core.local_train_call_us", "us", "mean Timed local_train call in the reference repetitions; -> samples_per_s everywhere"),
    lo("core.aggregate_call_us", "us", "mean Timed aggregate call in the reference repetitions; -> rounds_per_s on mlp_xdev* by at most aggregate_share"),
    lo("core.prepare_us", "us", "one FedWcm::prepare; -> setup_s"),
    lo("core.state_roundtrip_us", "us", "save_state + load_state; -> rounds_per_s on mlp_xdev_chaos only"),
    lo("algos.fedcm.client_call_us", "us", "one FedCm::local_train on the same client; the baseline core.local_train_call_us is read against"),
    lo("algos.fedcm.aggregate_us", "us", "one FedCm::aggregate over the round's updates; baseline for core.aggregate_call_us"),
    // nn
    lo("nn.fwd.dense_ms", "ms", "trace::prof sum per armed repetition; -> samples_per_s on mlp_*"),
    lo("nn.bwd.dense_ms", "ms", "trace::prof sum per armed repetition; -> samples_per_s on mlp_*"),
    lo("nn.fwd.conv2d_ms", "ms", "per armed repetition (one direct ResLite step on mlp_*); -> samples_per_s on reslite_*"),
    lo("nn.bwd.conv2d_ms", "ms", "per armed repetition (one direct ResLite step on mlp_*); -> samples_per_s on reslite_*"),
    lo("nn.fwd.residual_ms", "ms", "per armed repetition (one direct ResLite step on mlp_*); -> samples_per_s on reslite_*"),
    lo("nn.bwd.residual_ms", "ms", "per armed repetition (one direct ResLite step on mlp_*); -> samples_per_s on reslite_*"),
    lo("nn.fwd.relu_ms", "ms", "trace::prof sum per armed repetition"),
    lo("nn.bwd.relu_ms", "ms", "trace::prof sum per armed repetition"),
    lo("nn.fwd.pool_ms", "ms", "avgpool2d + gap, per armed repetition (one direct ResLite step on mlp_*)"),
    lo("nn.bwd.pool_ms", "ms", "avgpool2d + gap, per armed repetition (one direct ResLite step on mlp_*)"),
    lo("nn.loss_grad_us", "us", "one Model::loss_grad at the workload's step batch; -> samples_per_s"),
    lo("nn.sgd_step_us", "us", "one sgd_step at param_len"),
    lo("nn.model_build_us", "us", "one factory call; -> samples_per_s on mlp_xdev* only"),
    // tensor
    hi("tensor.matmul_into_gflops", "GFLOP/s", "FLOP-weighted over the triples one training step passes to matmul_into; -> samples_per_s on reslite_*"),
    hi("tensor.matmul_a_bt_gflops", "GFLOP/s", "the same for matmul_a_bt_into"),
    hi("tensor.matmul_at_b_gflops", "GFLOP/s", "the same for matmul_at_b_into"),
    hi("tensor.matmul_par2_gflops", "GFLOP/s", "matmul_into 192x256x160 under with_intra_threads(2)"),
    hi("tensor.im2col_gbps", "GB/s", "im2col over the three ResLite conv geometries; -> samples_per_s on reslite_*"),
    hi("tensor.col2im_gbps", "GB/s", "col2im over the same geometries"),
    hi("tensor.axpy_gbps", "GB/s", "axpy at param_len; -> fl.phase.aggregate_share on mlp_xdev*"),
    hi("tensor.axpby_gbps", "GB/s", "axpby at param_len; -> fl.phase.aggregate_share on mlp_xdev*"),
    hi("tensor.dot_gbps", "GB/s", "dot at param_len"),
    // data
    lo("data.generate_ms", "ms", "generate_train + generate_test; -> setup_s on reslite_*"),
    lo("data.partition_ms", "ms", "paper_partition + views; -> setup_s on reslite_*"),
    lo("data.gather_us", "us", "one Dataset::gather of a step batch; -> samples_per_s on mlp_xdev*"),
    lo("data.sampler_us", "us", "BatchSampler::new + one next_batch; -> samples_per_s on mlp_xdev*"),
    // parallel
    lo("parallel.map_dispatch_us", "us", "parallel_map of a no-op over the round's sampled count at the workload's threads; -> rounds_per_s on reslite_2t"),
    hi("parallel.weighted_sum_gbps", "GB/s", "weighted_sum_into over the round's updates at param_len"),
    hi("parallel.cpu_per_wall", "ratio", "process CPU time / wall time of the armed repetitions; -> rounds_per_s on reslite_2t"),
    // faults / transport
    lo("faults.schedule_us", "us", "one FaultPlan::schedule over a round's cohort; -> rounds_per_s on mlp_xdev_chaos only"),
    lo("faults.injected_share", "share", "faults injected / uploads trained; a count, repeats exactly for a seed"),
    hi("transport.encode_gbps", "GB/s", "frame::encode of one upload; -> rounds_per_s on mlp_xdev_chaos only"),
    hi("transport.decode_gbps", "GB/s", "frame::decode of one upload frame"),
    hi("transport.crc32_gbps", "GB/s", "crc32 over one upload frame"),
    lo("transport.deliver_us", "us", "mean Courier::deliver of an upload over round 0's cohort under the chaos plan"),
    lo("transport.retry_share", "share", "retries / frames sent; a count, repeats exactly for a seed"),
    // he
    lo("he.keygen_ms", "ms", "SecretKey::generate; -> setup_s on mlp_* only"),
    lo("he.encrypt_us", "us", "one encrypt of a class-count vector; -> setup_s on mlp_* only"),
    lo("he.add_us", "us", "one ciphertext add_assign; -> setup_s on mlp_* only"),
    lo("he.decrypt_us", "us", "one decrypt; -> setup_s on mlp_* only"),
    // trace / obs / lint / alloc: tracing is off end to end, these are on record
    lo("trace.overhead_pct", "%", "armed against reference repetitions, third-smallest run times"),
    lo("trace.events_per_round", "count", "trace events of one armed repetition / rounds"),
    lo("obs.analyze_ms", "ms", "parse_trace + build_forest + analyze of one armed repetition's trace"),
    lo("lint.workspace_s", "s", "fedwcm-lint over crates/*/src"),
    lo("alloc.bytes_per_round", "B", "bytes requested during one untraced run call, counted in a repetition of its own / rounds; -> samples_per_s on mlp_xdev*, inversely peak_rss_mb"),
    lo("alloc.calls_per_round", "count", "allocation calls during that run call / rounds; -> samples_per_s on mlp_xdev*"),
];

/// The program and arguments of `BENCHMARK.json`; the driver appends
/// `--workload W --seed N --seconds S --trace T`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "flbench/Cargo.toml",
    "--",
];

fn s(x: &str) -> Json {
    Json::Str(x.to_string())
}

fn metric_json(m: &Metric) -> Json {
    let mut fields = vec![
        ("name".to_string(), s(m.name)),
        ("unit".to_string(), s(m.unit)),
        ("better".to_string(), s(m.better.as_str())),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound".to_string(), Json::F64(b)));
    }
    Json::Obj(fields)
}

/// `BENCHMARK.json`, exactly the keys the contract names.
pub fn manifest() -> Json {
    Json::Obj(vec![
        (
            "command".to_string(),
            Json::Arr(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths".to_string(), Json::Arr(vec![s("flbench")])),
        ("run_seconds".to_string(), Json::U64(RUN_SECONDS)),
        (
            "workloads".to_string(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".to_string(), s(w.name)),
                            ("why".to_string(), s(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer".to_string(),
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

/// The workload and metric tables as Markdown (`flbench list`; the README
/// embeds this text verbatim).
pub fn list() -> String {
    let mut out = String::new();
    out.push_str("| workload | model / data | clients x participation | epochs x batch | rounds | threads | extras | why |\n|---|---|---|---|---|---|---|---|\n");
    for w in &WORKLOADS {
        let net = match w.net {
            Net::ResLite => "ResLite w12 / CIFAR-10 preset",
            Net::Mlp => "mlp(64,[256],10) / Fashion-MNIST preset",
        };
        let extras = match (w.he, w.chaos) {
            (_, Some(c)) => format!(
                "HE set-up, BufferedK{{{}}}, faults, lossy wire, kill at {}",
                c.buffer_k, c.kill_round
            ),
            (true, None) => "HE set-up".to_string(),
            (false, None) => "-".to_string(),
        };
        out.push_str(&format!(
            "| `{}` | {net}, {} samples | {} x {} | {} x {} | {} | {} | {extras} | {} |\n",
            w.name,
            w.train_total,
            w.clients,
            w.participation,
            w.local_epochs,
            w.batch_size,
            w.rounds,
            w.threads,
            w.why
        ));
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics carry a bound"),
            m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | measured as; what it should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        ));
    }
    out
}
