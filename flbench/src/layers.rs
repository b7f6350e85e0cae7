//! The `--trace 1` run: per-layer metrics. A few untraced reference
//! repetitions, then direct calls into each layer at the workload's own
//! shapes, one repetition under the counting allocator alone, then
//! repetitions with everything else armed — the span recorder, a
//! wall-clock tracer into memory, a metrics registry, `trace::prof` —
//! which must reproduce the reference digest; then
//! `fedwcm-obs` over the trace and `fedwcm-lint` over `crates/*/src`.

use crate::e2e::{
    final_acc, noise_summary, plain_repetition, repeat_until, rounds_to_target, warmup, Args,
    Checker, Outcome,
};
use crate::registry::{Net, Workload, PER_LAYER};
use crate::spans::{self, Spans};
use crate::stats::{tail, third_smallest};
use crate::workload::{
    build_model, chaos_fault_plan, chaos_net_plan, factory, fl_config, preset, repetition, Armed,
    RepOpts, Task, BETA, CLASSES, IMBALANCE,
};
use fedwcm_algos::fedcm::FedCm;
use fedwcm_core::FedWcm;
use fedwcm_data::longtail::longtail_counts_with_total;
use fedwcm_data::partition::paper_partition;
use fedwcm_data::sampler::BatchSampler;
use fedwcm_faults::FaultKind;
use fedwcm_fl::{
    evaluate_accuracy_threads, per_class_accuracy_threads, sampled_clients_for, wire, ClientEnv,
    ClientUpdate, FederatedAlgorithm, FlConfig, History, RetryPolicy, RoundInput, ServerCheckpoint,
    Simulation,
};
use fedwcm_he::rlwe::{RlweParams, SecretKey};
use fedwcm_nn::loss::CrossEntropy;
use fedwcm_nn::model::Model;
use fedwcm_parallel::{parallel_map, weighted_sum_into, with_intra_threads};
use fedwcm_stats::describe::median;
use fedwcm_stats::Xoshiro256pp;
use fedwcm_tensor::im2col::{col2im, im2col, ConvGeom};
use fedwcm_tensor::matmul::{matmul_a_bt_into, matmul_at_b_into, matmul_into};
use fedwcm_tensor::ops;
use fedwcm_trace::{
    names, prof, Clock, MetricValue, MetricsRegistry, MetricsSnapshot, RingSink, Tracer,
};
use fedwcm_transport::courier::{Courier, Verdict};
use fedwcm_transport::frame::{self, Message};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A wall clock whose ticks (ns) are strictly increasing, as
/// `fedwcm-obs` requires of a trace: two reads inside the same
/// nanosecond get consecutive ticks.
struct StrictWallClock {
    base: Instant,
    // Relaxed: each clock instance is ticked by one logical owner (the
    // engine's round loop, or one forked task); the value publishes no
    // other data.
    last: AtomicU64,
}

impl StrictWallClock {
    fn new() -> Self {
        StrictWallClock {
            base: Instant::now(),
            last: AtomicU64::new(0),
        }
    }
}

impl Clock for StrictWallClock {
    fn tick(&self) -> u64 {
        let now = u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut prev = self.last.load(Ordering::Relaxed);
        loop {
            let t = now.max(prev.saturating_add(1));
            match self
                .last
                .compare_exchange_weak(prev, t, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return t,
                Err(p) => prev = p,
            }
        }
    }

    fn fork(&self) -> Box<dyn Clock> {
        Box::new(StrictWallClock::new())
    }
}

/// Seconds per call of `f`: the third-smallest of samples that together
/// take about `budget`; each sample is a batch sized to a sixteenth of it.
/// A call longer than that is sampled five times whatever the budget, so
/// that the third-smallest is the median and not the slowest.
fn time_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let iters = ((budget.as_secs_f64() / 16.0 / one) as usize).clamp(1, 1 << 20);
    let mut samples = Vec::new();
    let all = Instant::now();
    while samples.len() < 5 || (all.elapsed() < budget && samples.len() < 64) {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / iters as f64);
    }
    third_smallest(&samples)
}

/// `(m, k, n, calls)` of one GEMM shape in a training step.
type Gemm = (usize, usize, usize, usize);

/// The GEMMs one training step of `net` at `batch` rows passes to each
/// entry point (`matmul_into`, `matmul_a_bt_into`, `matmul_at_b_into`),
/// enumerated from layer geometry.
///
/// A 3×3 same-padding convolution `c_in → c_out` on an `h×w` map lowers,
/// per sample, to `into(c_out, 9·c_in, h·w)` forward and
/// `a_bt(c_out, h·w, 9·c_in)` + `at_b(c_out, 9·c_in, h·w)` backward. A
/// dense layer `i → o` at batch `b` is `a_bt(b, i, o)` forward and
/// `at_b(b, o, i)` + `into(b, o, i)` backward.
pub fn gemm_shapes(net: Net, batch: usize) -> [Vec<Gemm>; 3] {
    let (mut into, mut a_bt, mut at_b) = (Vec::new(), Vec::new(), Vec::new());
    let mut dense = |i: usize, o: usize| {
        a_bt.push((batch, i, o, 1));
        at_b.push((batch, o, i, 1));
        into.push((batch, o, i, 1));
    };
    match net {
        Net::Mlp => {
            dense(64, 256);
            dense(256, 10);
        }
        Net::ResLite => {
            dense(12, 10);
            // Stem 3→12 on 8×8; two convs 12→12 per block on 4×4 and 2×2.
            for (c_in, hw, convs) in [(3, 64, 1), (12, 16, 2), (12, 4, 2)] {
                into.push((12, 9 * c_in, hw, convs * batch));
                a_bt.push((12, hw, 9 * c_in, convs * batch));
                at_b.push((12, 9 * c_in, hw, convs * batch));
            }
        }
    }
    [into, a_bt, at_b]
}

/// The three convolution geometries of ResLite and how many convolutions
/// of a step use each.
const RESLITE_CONVS: [(ConvGeom, usize); 3] =
    [(conv3x3(3, 8), 1), (conv3x3(12, 4), 2), (conv3x3(12, 2), 2)];

const fn conv3x3(c_in: usize, hw: usize) -> ConvGeom {
    ConvGeom {
        c_in,
        h: hw,
        w: hw,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    }
}

fn filled(n: usize, phase: f32) -> Vec<f32> {
    (0..n)
        .map(|i| (i as f32 * 0.37 + phase).sin() + 1.5)
        .collect()
}

type GemmFn = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// FLOP-weighted GFLOP/s of `kernel` over `shapes`. `matmul_into` and
/// `matmul_a_bt_into` take operands of `m·k`, `k·n` and `m·n` elements;
/// `matmul_at_b_into` (`at_b`) takes `m·k`, `m·n` and `k·n`.
fn gemm_gflops(budget: Duration, kernel: GemmFn, at_b: bool, shapes: &[Gemm]) -> f64 {
    let (mut flops, mut secs) = (0.0f64, 0.0f64);
    for &(m, k, n, calls) in shapes {
        let (b_len, c_len) = if at_b { (m * n, k * n) } else { (k * n, m * n) };
        let (a, b) = (filled(m * k, 0.0), filled(b_len, 1.0));
        let mut c = vec![0.0f32; c_len];
        let t = time_call(budget, || {
            kernel(black_box(&a), black_box(&b), &mut c, m, k, n)
        });
        black_box(&c);
        flops += calls as f64 * 2.0 * (m * k * n) as f64;
        secs += calls as f64 * t;
    }
    flops / secs / 1e9
}

/// The repository root: the working directory when it holds `crates/`
/// and `flbench/` (the contract runs the command from the root of a
/// checkout), else the parent of this package at build time.
pub fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().expect("the working directory is readable");
    if cwd.join("crates").is_dir() && cwd.join("flbench").is_dir() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package directory has a parent")
        .to_path_buf()
}

/// Process CPU time (user + system, all threads) in seconds, from
/// `/proc/self/stat` at the kernel's 100 ticks per second.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat reads");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the name.
    let rest = stat.rsplit_once(')').expect("stat has a command name").1;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f[11].parse::<f64>().expect("utime") + f[12].parse::<f64>().expect("stime");
    ticks / 100.0
}

fn hist_sum(snap: &MetricsSnapshot, name: &str) -> f64 {
    match snap.get(name) {
        Some(MetricValue::Histogram(h)) => h.sum,
        _ => 0.0,
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    match snap.get(name) {
        Some(MetricValue::Counter(c)) => *c as f64,
        _ => 0.0,
    }
}

/// Nanoseconds `trace::prof` has recorded per `nn.<dir>.<layer>` so far.
fn prof_sums() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(snap) = prof::snapshot() {
        for e in snap.entries {
            if let MetricValue::Histogram(h) = e.value {
                out.insert(e.name, h.sum);
            }
        }
    }
    out
}

fn prof_delta(
    after: &BTreeMap<String, f64>,
    before: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Counts behind `faults.injected_share`, `fl.updates_lost_share` and
/// `transport.retry_share`.
struct PlanCounts {
    injected: u64,
    lost: u64,
    retries: u64,
    frames_sent: u64,
}

/// The counts when the chaos plans are scheduled over the workload's own
/// cohorts (for workloads that run no plan), delivering as the engine
/// does: one courier per round, dropouts and stragglers never sent.
fn scheduled_counts(cfg: &FlConfig, seed: u64) -> PlanCounts {
    let faults = chaos_fault_plan(seed);
    let net = chaos_net_plan(seed);
    let (mut injected, mut lost, mut ticks) = (0u64, 0u64, 0u64);
    let mut totals = fedwcm_fl::NetCounters::default();
    for round in 0..cfg.rounds {
        let mut courier = Courier::new(&net, RetryPolicy::default(), ticks);
        for client in sampled_clients_for(cfg, round) {
            let fault = faults.fault_for(round, client);
            injected += u64::from(fault.is_some());
            match fault {
                Some(FaultKind::Dropout) => lost += 1,
                Some(FaultKind::Straggler { .. }) => {}
                _ => {
                    let seq = ((round as u64) << 32) | client as u64;
                    let d = courier.deliver(round as u64, client as u64, seq, &[0u8; 64]);
                    lost += u64::from(matches!(d.verdict, Verdict::Exhausted));
                }
            }
        }
        totals.merge(&courier.counters());
        ticks = courier.ticks();
    }
    PlanCounts {
        injected,
        lost,
        retries: totals.retries,
        frames_sent: totals.frames_sent,
    }
}

/// The same counts from a history that ran the plans (there a contained
/// upload is lost too).
fn history_counts(h: &History) -> PlanCounts {
    let net = h.net_totals();
    PlanCounts {
        injected: h
            .records
            .iter()
            .map(|r| u64::from(r.faults.injected()))
            .sum(),
        lost: h
            .records
            .iter()
            .map(|r| u64::from(r.faults.dropouts) + r.net.degraded + r.dropped_updates as u64)
            .sum(),
        retries: net.retries,
        frames_sent: net.frames_sent,
    }
}

/// The client with the most samples and its indices cycled up to a step
/// batch, so that no seed can leave a direct call's batch short.
fn step_batch_of(w: &Workload, task: &Task) -> (usize, Vec<usize>) {
    let client = (0..w.clients)
        .max_by_key(|&k| (task.views[k].len(), std::cmp::Reverse(k)))
        .expect("at least one client");
    let idx = task.views[client]
        .indices()
        .iter()
        .copied()
        .cycle()
        .take(w.step_batch())
        .collect();
    (client, idx)
}

/// Direct calls into each layer at the workload's own shapes. Runs with
/// `trace::prof` not yet installed.
fn direct_calls(args: &Args, spans: &Spans, m: &mut BTreeMap<&'static str, f64>) {
    let w = args.workload;
    let seed = args.seed;
    let budget = Duration::from_millis(if args.smoke { 4 } else { 40 });
    let root = spans.open("bench.direct_calls", None);
    let timed = |span: &'static str, f: &mut dyn FnMut()| -> f64 {
        spans.record(span, root, || time_call(budget, &mut *f))
    };

    // data
    let spec = preset(w.net).spec();
    let counts = longtail_counts_with_total(spec.classes, w.train_total, IMBALANCE);
    let t = timed("data.generate", &mut || {
        black_box(spec.generate_train(&counts, seed));
        black_box(spec.generate_test(seed));
    });
    m.insert("data.generate_ms", t * 1e3);
    let task = Task::build(w, seed, spans, root);
    let t = timed("data.partition", &mut || {
        let p = paper_partition(&task.train, w.clients, BETA, seed);
        black_box(p.views(&task.train));
    });
    m.insert("data.partition_ms", t * 1e3);

    let (rounds, kill) = w.shape(args.smoke);
    let cfg = fl_config(w, seed, rounds, w.threads);
    let (client, batch_idx) = step_batch_of(w, &task);
    let view = &task.views[client];
    let t = timed("data.gather", &mut || {
        black_box(task.train.gather(&batch_idx));
    });
    m.insert("data.gather_us", t * 1e6);
    let rng = Xoshiro256pp::seed_from(seed);
    let t = timed("data.sampler", &mut || {
        let mut s = BatchSampler::new(view.indices(), w.batch_size, rng.clone());
        black_box(s.next_batch());
    });
    m.insert("data.sampler_us", t * 1e6);

    // nn
    let t = timed("nn.model_build", &mut || {
        black_box(build_model(w.net));
    });
    m.insert("nn.model_build_us", t * 1e6);
    let mut model = build_model(w.net);
    let n = model.param_len();
    let (x, y) = task.train.gather(&batch_idx);
    let mut grads = vec![0.0f32; n];
    let t = timed("nn.loss_grad", &mut || {
        black_box(model.loss_grad(&x, &y, &CrossEntropy, &mut grads));
    });
    m.insert("nn.loss_grad_us", t * 1e6);
    let mut params = model.params().to_vec();
    let t = timed("nn.sgd_step", &mut || {
        fedwcm_nn::opt::sgd_step(black_box(&mut params), &grads, 1e-6);
    });
    m.insert("nn.sgd_step_us", t * 1e6);

    // tensor
    let [into, a_bt, at_b] = gemm_shapes(w.net, w.step_batch());
    let kernels: [(&'static str, GemmFn, bool, &[Gemm]); 3] = [
        ("tensor.matmul_into_gflops", matmul_into, false, &into),
        ("tensor.matmul_a_bt_gflops", matmul_a_bt_into, false, &a_bt),
        ("tensor.matmul_at_b_gflops", matmul_at_b_into, true, &at_b),
    ];
    for (name, kernel, is_at_b, shapes) in kernels {
        let g = spans.record("tensor.matmul", root, || {
            gemm_gflops(budget, kernel, is_at_b, shapes)
        });
        m.insert(name, g);
    }
    let g = spans.record("tensor.matmul_par2", root, || {
        with_intra_threads(2, || {
            gemm_gflops(budget, matmul_into, false, &[(192, 256, 160, 1)])
        })
    });
    m.insert("tensor.matmul_par2_gflops", g);
    let (mut bytes, mut im_s, mut col_s) = (0.0f64, 0.0f64, 0.0f64);
    for (geom, convs) in RESLITE_CONVS {
        let input = filled(geom.input_len(), 0.0);
        let mut cols = vec![0.0f32; geom.patch_rows() * geom.patch_cols()];
        let mut back = vec![0.0f32; geom.input_len()];
        im_s += convs as f64
            * spans.record("tensor.im2col", root, || {
                time_call(budget, || im2col(&geom, black_box(&input), &mut cols))
            });
        col_s += convs as f64
            * spans.record("tensor.col2im", root, || {
                time_call(budget, || col2im(&geom, black_box(&cols), &mut back))
            });
        bytes += convs as f64 * 4.0 * (input.len() + cols.len()) as f64;
    }
    m.insert("tensor.im2col_gbps", bytes / im_s / 1e9);
    m.insert("tensor.col2im_gbps", bytes / col_s / 1e9);
    let (xs, mut ys) = (filled(n, 0.0), filled(n, 1.0));
    let t = timed("tensor.axpy", &mut || {
        ops::axpy(1e-6, black_box(&xs), &mut ys);
    });
    m.insert("tensor.axpy_gbps", 12.0 * n as f64 / t / 1e9);
    let t = timed("tensor.axpby", &mut || {
        ops::axpby(1e-6, black_box(&xs), 0.999, &mut ys);
    });
    m.insert("tensor.axpby_gbps", 12.0 * n as f64 / t / 1e9);
    let t = timed("tensor.dot", &mut || {
        black_box(ops::dot(black_box(&xs), &ys));
    });
    m.insert("tensor.dot_gbps", 8.0 * n as f64 / t / 1e9);

    // fl, core, algos: one simulation of the workload, called piecewise.
    let mut sim = Simulation::new(
        cfg.clone(),
        &task.train,
        &task.test,
        task.views.clone(),
        factory(w.net),
    );
    if w.chaos.is_some() {
        sim = sim
            .with_fault_plan(chaos_fault_plan(seed))
            .with_net_plan(chaos_net_plan(seed));
    }
    let global = model.params().to_vec();
    let env = ClientEnv {
        id: client,
        round: 0,
        dataset: &task.train,
        view,
        cfg: &sim.cfg,
        factory: sim.factory.as_ref(),
    };
    let t = timed("fl.model_from", &mut || {
        black_box(env.model_from(&global));
    });
    m.insert("fl.model_from_us", t * 1e6);
    let t = timed("fl.evaluate", &mut || {
        black_box(evaluate_accuracy_threads(&mut model, &task.test, w.threads));
    });
    m.insert("fl.evaluate_ms", t * 1e3);
    let t = timed("core.prepare", &mut || {
        let mut a = FedWcm::new();
        a.prepare(&task.views, CLASSES);
        black_box(&a);
    });
    m.insert("core.prepare_us", t * 1e6);
    let mut fedcm = FedCm::new(0.1);
    let mut update: Option<ClientUpdate> = None;
    let t = timed("algos.fedcm.local_train", &mut || {
        update = Some(fedcm.local_train(&env, &global));
    });
    m.insert("algos.fedcm.client_call_us", t * 1e6);
    let update = update.expect("the timed closure ran");
    let cohort = sampled_clients_for(&sim.cfg, 0);
    let input = RoundInput {
        round: 0,
        cfg: &sim.cfg,
        updates: cohort
            .iter()
            .map(|&k| ClientUpdate {
                client: k,
                ..update.clone()
            })
            .collect(),
        views: &task.views,
    };
    let mut scratch = global.clone();
    let t = timed("algos.fedcm.aggregate", &mut || {
        black_box(fedcm.aggregate(&mut scratch, &input));
    });
    m.insert("algos.fedcm.aggregate_us", t * 1e6);

    // wire, transport, faults
    let mut payload = Vec::new();
    let t = timed("fl.wire.encode", &mut || {
        payload = wire::encode_update(black_box(&update));
    });
    m.insert("fl.wire.encode_us", t * 1e6);
    let t = timed("fl.wire.decode", &mut || {
        black_box(wire::decode_update(&payload));
    });
    m.insert("fl.wire.decode_us", t * 1e6);
    let msg = Message::DeltaUp {
        seq: 1,
        payload: payload.clone(),
    };
    let mut framed = Vec::new();
    let t = timed("transport.encode", &mut || {
        framed = frame::encode(black_box(&msg)).expect("an upload fits a frame");
    });
    m.insert("transport.encode_gbps", framed.len() as f64 / t / 1e9);
    let t = timed("transport.decode", &mut || {
        black_box(frame::decode(&framed).expect("the frame is intact"));
    });
    m.insert("transport.decode_gbps", framed.len() as f64 / t / 1e9);
    let t = timed("transport.crc32", &mut || {
        black_box(frame::crc32(black_box(&framed)));
    });
    m.insert("transport.crc32_gbps", framed.len() as f64 / t / 1e9);
    let net_plan = chaos_net_plan(seed);
    let t = timed("transport.deliver", &mut || {
        let mut courier = Courier::new(&net_plan, RetryPolicy::default(), 0);
        for &k in &cohort {
            black_box(courier.deliver(0, k as u64, k as u64, &payload));
        }
    });
    m.insert("transport.deliver_us", t * 1e6 / cohort.len() as f64);
    let fault_plan = chaos_fault_plan(seed);
    let t = timed("faults.schedule", &mut || {
        black_box(fault_plan.schedule(0, &cohort));
    });
    m.insert("faults.schedule_us", t * 1e6);

    // parallel
    let t = timed("parallel.map", &mut || {
        black_box(parallel_map(cohort.len(), w.threads, |i| i));
    });
    m.insert("parallel.map_dispatch_us", t * 1e6);
    let parts: Vec<(&[f32], f32)> = input
        .updates
        .iter()
        .map(|u| (u.delta.as_slice(), 1e-3))
        .collect();
    let mut acc = vec![0.0f32; n];
    let t = timed("parallel.weighted_sum", &mut || {
        weighted_sum_into(&mut acc, black_box(&parts), w.threads);
    });
    m.insert(
        "parallel.weighted_sum_gbps",
        4.0 * (n * (parts.len() + 2)) as f64 / t / 1e9,
    );

    // he
    let he = RlweParams::default_params();
    let mut he_rng = Xoshiro256pp::seed_from(seed);
    let mut key = SecretKey::generate(he, &mut he_rng);
    let t = timed("he.keygen", &mut || {
        key = SecretKey::generate(he, &mut he_rng);
    });
    m.insert("he.keygen_ms", t * 1e3);
    let values: Vec<u64> = view.class_counts().iter().map(|&c| c as u64).collect();
    let mut enc_rng = Xoshiro256pp::seed_from(seed ^ 1);
    let mut ct = key.encrypt(&values, &mut enc_rng);
    let t = timed("he.encrypt", &mut || {
        ct = key.encrypt(black_box(&values), &mut enc_rng);
    });
    m.insert("he.encrypt_us", t * 1e6);
    let mut sum = ct.clone();
    let t = timed("he.add", &mut || {
        sum.add_assign(black_box(&ct));
    });
    m.insert("he.add_us", t * 1e6);
    let t = timed("he.decrypt", &mut || {
        black_box(key.decrypt(&ct, CLASSES));
    });
    m.insert("he.decrypt_us", t * 1e6);

    // checkpoint and algorithm state, from the workload's own simulation
    // stopped where the workload kills it (after round 1 where it never
    // does).
    let mut algo = FedWcm::new();
    let ckpt = spans
        .record("fl.run_until", root, || {
            sim.run_until(&mut algo, kill.unwrap_or(1))
        })
        .expect("FedWCM implements state capture");
    let mut bytes = Vec::new();
    let t = timed("fl.checkpoint.to_bytes", &mut || {
        bytes = ckpt.to_bytes();
    });
    m.insert("fl.checkpoint.to_bytes_ms", t * 1e3);
    let t = timed("fl.checkpoint.from_bytes", &mut || {
        black_box(ServerCheckpoint::from_bytes(&bytes).expect("the bytes parse back"));
    });
    m.insert("fl.checkpoint.from_bytes_ms", t * 1e3);
    m.insert("fl.checkpoint.bytes", bytes.len() as f64);
    let t = timed("core.state_roundtrip", &mut || {
        let blob = algo.save_state().expect("FedWCM saves its state");
        let mut fresh = FedWcm::new();
        fresh.load_state(&blob).expect("the blob loads back");
        black_box(&fresh);
    });
    m.insert("core.state_roundtrip_us", t * 1e6);

    // lint: one pass, it takes seconds.
    let root_dir = repo_root();
    let t0 = Instant::now();
    let lint = spans.record("lint.workspace", root, || {
        fedwcm_lint::lint_workspace(&root_dir, &fedwcm_lint::LintConfig::all())
    });
    let lint = lint.expect("crates/*/src is readable from the repository root");
    black_box(lint.diags.len());
    m.insert("lint.workspace_s", t0.elapsed().as_secs_f64());
    spans.close(root);
}

/// With `trace::prof` installed: the `nn` busy time of one evaluation as
/// the armed engine performs it (overall plus per-class pass), and — on
/// the MLP workloads, whose model has no image layers — one direct
/// ResLite training step so those layers are measured rather than 0.
fn prof_direct(w: &Workload, seed: u64) -> (f64, BTreeMap<String, f64>) {
    let spans = Spans::new();
    let task = Task::build(w, seed, &spans, None);
    let mut model = build_model(w.net);
    let before = prof_sums();
    const EVALS: usize = 3;
    for _ in 0..EVALS {
        black_box(evaluate_accuracy_threads(&mut model, &task.test, w.threads));
        black_box(per_class_accuracy_threads(
            &mut model, &task.test, w.threads,
        ));
    }
    let after = prof_sums();
    let eval_ns: f64 = prof_delta(&after, &before).values().sum::<f64>() / EVALS as f64;

    let mut foreign = BTreeMap::new();
    if w.net == Net::Mlp {
        let other = Workload::by_name("reslite_1t").expect("reslite_1t is a workload");
        let task = Task::build(other, seed, &spans, None);
        let (x, y) = task.train.gather(&step_batch_of(other, &task).1);
        let mut model: Model = build_model(Net::ResLite);
        let mut grads = vec![0.0f32; model.param_len()];
        const STEPS: usize = 5;
        let before = prof_sums();
        for _ in 0..STEPS {
            black_box(model.loss_grad(&x, &y, &CrossEntropy, &mut grads));
        }
        foreign = prof_delta(&prof_sums(), &before)
            .into_iter()
            .map(|(k, v)| (k, v / STEPS as f64))
            .collect();
    }
    (eval_ns, foreign)
}

/// The traced run.
pub fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let (rounds, kill_round) = w.shape(args.smoke);
    let spans = Arc::new(Spans::new());
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();

    // Untraced reference repetitions: a third of the time.
    let warm = warmup(args, &spans);
    let mut checker = Checker::new(args, &warm);
    let reference = repeat_until(args, args.seconds * 0.3, &mut checker, || {
        plain_repetition(args, &spans)
    });
    let ref_run_s: Vec<f64> = reference.iter().map(|r| r.run_s).collect();
    let ref_fast = third_smallest(&ref_run_s);
    let (p50, p90, noise) = noise_summary(&ref_run_s);
    m.insert("bench.reps", reference.len() as f64);
    m.insert("bench.rep_s_p50", p50);
    m.insert("bench.rep_s_p90", p90);
    m.insert("bench.noise_share", noise);
    let (ref_local_ns, ref_local_calls, ref_agg_ns, ref_agg_calls) =
        reference.iter().fold((0, 0, 0, 0), |a, r| {
            (
                a.0 + r.probe.local_ns,
                a.1 + r.probe.local_calls,
                a.2 + r.probe.aggregate_ns,
                a.3 + r.probe.aggregate_calls,
            )
        });
    m.insert(
        "core.local_train_call_us",
        ref_local_ns as f64 / ref_local_calls as f64 / 1e3,
    );
    m.insert(
        "core.aggregate_call_us",
        ref_agg_ns as f64 / ref_agg_calls as f64 / 1e3,
    );

    // Allocations of the run call, counted in a repetition of its own that
    // no timing sample is taken from, with nothing else armed: the tracer,
    // the registry and `trace::prof` allocate per event, and the count is
    // there to judge the training path.
    let counted = repetition(
        w,
        args.seed,
        RepOpts {
            rounds,
            kill_round,
            threads: w.threads,
            armed: None,
            count_allocs: true,
            spans: &spans,
        },
    );
    checker.check(&counted);
    let allocs = counted
        .allocs
        .expect("the repetition was asked to count its allocations");
    m.insert("alloc.bytes_per_round", allocs.bytes as f64 / rounds as f64);
    m.insert("alloc.calls_per_round", allocs.calls as f64 / rounds as f64);

    // Direct calls, then everything armed.
    spans.set_armed(true);
    direct_calls(args, &spans, &mut m);
    let prof_registry = Arc::new(MetricsRegistry::new());
    assert!(
        prof::install(Box::new(StrictWallClock::new()), prof_registry),
        "trace::prof is installed once per process"
    );
    let (eval_nn_ns, foreign) = prof_direct(w, args.seed);
    let prof_before = prof_sums();

    let mut registries: Vec<Arc<MetricsRegistry>> = Vec::new();
    let mut sinks: Vec<Arc<RingSink>> = Vec::new();
    let cpu0 = process_cpu_s();
    let wall0 = Instant::now();
    // Leave room for the analysis after the armed repetitions.
    let armed = repeat_until(args, args.seconds - 1.0, &mut checker, || {
        let registry = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(RingSink::new(1 << 22));
        let tracer = Tracer::new(Box::new(StrictWallClock::new()), sink.clone());
        registries.push(registry.clone());
        sinks.push(sink);
        repetition(
            w,
            args.seed,
            RepOpts {
                rounds,
                kill_round,
                threads: w.threads,
                armed: Some(Armed { tracer, registry }),
                count_allocs: false,
                spans: &spans,
            },
        )
    });
    let armed_wall = wall0.elapsed().as_secs_f64();
    let armed_cpu = process_cpu_s() - cpu0;
    spans.set_armed(false);
    let prof_armed = prof_delta(&prof_sums(), &prof_before);
    let reps = armed.len() as f64;

    // fl: phases from the registry histograms (the engine replays client
    // spans on its serial loop, so their trace durations are replay time).
    let snaps: Vec<MetricsSnapshot> = registries.iter().map(|r| r.snapshot()).collect();
    let sum_over = |name: &str| snaps.iter().map(|s| hist_sum(s, name)).sum::<f64>();
    let round_ns = sum_over(names::FL_ROUND_TICKS);
    let train_ns = sum_over(names::FL_PHASE_LOCAL_TRAIN);
    let agg_ns = sum_over(names::FL_PHASE_AGGREGATE);
    let eval_ns = sum_over(names::FL_PHASE_EVALUATE);
    m.insert("fl.phase.local_train_share", train_ns / round_ns);
    m.insert("fl.phase.aggregate_share", agg_ns / round_ns);
    m.insert("fl.phase.evaluate_share", eval_ns / round_ns);
    m.insert(
        "fl.engine_self_share",
        (round_ns - train_ns - agg_ns - eval_ns) / round_ns,
    );
    let busy_ns: f64 = armed.iter().map(|r| r.probe.local_ns as f64).sum();
    let evals = warm.history.accuracy_series().len() as f64 * reps;
    let nn_total_ns: f64 = prof_armed.values().sum();
    let nn_train_ns = (nn_total_ns - evals * eval_nn_ns).max(0.0);
    m.insert(
        "fl.client_overhead_share",
        (busy_ns - nn_train_ns).max(0.0) / round_ns,
    );
    m.insert(
        "fl.worker_idle_share",
        (1.0 - busy_ns / (w.threads as f64 * train_ns)).max(0.0),
    );
    m.insert(
        "fl.bytes_up_per_round",
        snaps
            .iter()
            .map(|s| counter(s, names::FL_BYTES_UP))
            .sum::<f64>()
            / (reps * rounds as f64),
    );
    let h = &warm.history;
    let to_target = rounds_to_target(h);
    m.insert("fl.rounds_to_target", to_target as f64);
    m.insert(
        "fl.time_to_target_s",
        to_target as f64 * ref_fast / rounds as f64,
    );
    m.insert("fl.final_acc", final_acc(h));
    let Some(MetricValue::Gauge(tail_acc)) = snaps[0].get(names::FL_ACC_TAIL) else {
        panic!("an armed run evaluates, so the tail-accuracy gauge is set");
    };
    m.insert("fl.tail_acc", *tail_acc);
    let cfg = fl_config(w, args.seed, rounds, w.threads);
    let counts = if w.chaos.is_some() {
        history_counts(&armed[0].history)
    } else {
        scheduled_counts(&cfg, args.seed)
    };
    let trained = (rounds * cfg.sampled_per_round()) as f64;
    m.insert("faults.injected_share", counts.injected as f64 / trained);
    m.insert("fl.updates_lost_share", counts.lost as f64 / trained);
    m.insert(
        "transport.retry_share",
        counts.retries as f64 / counts.frames_sent as f64,
    );

    // nn: trace::prof sums per armed repetition; layers the workload's
    // model lacks come from the direct step of the other model.
    let layer_ms = |dir: &str, layers: &[&str]| -> f64 {
        layers
            .iter()
            .map(|l| {
                let key = format!("nn.{dir}.{l}");
                match prof_armed.get(&key) {
                    Some(&ns) if ns > 0.0 => ns / reps,
                    _ => foreign.get(&key).copied().unwrap_or(0.0),
                }
            })
            .sum::<f64>()
            / 1e6
    };
    for (name, dir, layers) in [
        ("nn.fwd.dense_ms", "fwd", &["dense"][..]),
        ("nn.bwd.dense_ms", "bwd", &["dense"][..]),
        ("nn.fwd.conv2d_ms", "fwd", &["conv2d"][..]),
        ("nn.bwd.conv2d_ms", "bwd", &["conv2d"][..]),
        ("nn.fwd.residual_ms", "fwd", &["residual"][..]),
        ("nn.bwd.residual_ms", "bwd", &["residual"][..]),
        ("nn.fwd.relu_ms", "fwd", &["relu"][..]),
        ("nn.bwd.relu_ms", "bwd", &["relu"][..]),
        ("nn.fwd.pool_ms", "fwd", &["avgpool2d", "gap"][..]),
        ("nn.bwd.pool_ms", "bwd", &["avgpool2d", "gap"][..]),
    ] {
        m.insert(name, layer_ms(dir, layers));
    }

    // trace, obs
    let armed_fast = third_smallest(&armed.iter().map(|r| r.run_s).collect::<Vec<_>>());
    m.insert(
        "trace.overhead_pct",
        100.0 * (armed_fast - ref_fast) / ref_fast,
    );
    let mut round_ms: Vec<f64> = Vec::new();
    let mut analyze_s: Vec<f64> = Vec::new();
    let mut events = 0usize;
    for sink in &sinks {
        let evs = sink.events();
        events = evs.len();
        let text: String = evs.iter().map(|e| e.to_json_line() + "\n").collect();
        let t0 = Instant::now();
        let profile = spans.record("obs.analyze", None, || {
            let records = fedwcm_obs::parse_trace(&text).expect("the sink's own lines parse");
            let forest = fedwcm_obs::build_forest(&records).expect("the trace nests properly");
            round_ms.extend(
                forest
                    .roots
                    .iter()
                    .filter(|s| s.name == names::ROUND)
                    .map(|s| s.duration() as f64 / 1e6),
            );
            fedwcm_obs::analyze(&forest)
        });
        analyze_s.push(t0.elapsed().as_secs_f64());
        black_box(profile);
    }
    m.insert("trace.events_per_round", events as f64 / rounds as f64);
    m.insert("obs.analyze_ms", third_smallest(&analyze_s) * 1e3);
    m.insert("fl.round_ms_p50", median(&round_ms));
    m.insert("fl.round_ms_tail", tail(&round_ms));
    m.insert("parallel.cpu_per_wall", armed_cpu / armed_wall);

    // Cross-checks the README's coverage section reads.
    let armed_run_ns: f64 = armed.iter().map(|r| r.run_s).sum::<f64>() * 1e9;
    notes.push(format!(
        "armed: {} repetitions; histogram round total / armed run wall time {:.4}",
        armed.len(),
        round_ns / armed_run_ns
    ));
    let recorded = spans.snapshot();
    let top: Vec<String> = spans::self_time_by_name(&recorded)
        .iter()
        .take(6)
        .map(|(n, ns)| format!("{n} {:.1} ms", *ns as f64 / 1e6))
        .collect();
    notes.push(format!("top spans by self time: {}", top.join(", ")));
    let mut nn_top: Vec<(&String, &f64)> = prof_armed.iter().collect();
    nn_top.sort_by(|a, b| b.1.total_cmp(a.1));
    notes.push(format!(
        "top nn layers per armed repetition: {}",
        nn_top
            .iter()
            .take(3)
            .map(|(n, ns)| format!("{n} {:.1} ms", **ns / reps / 1e6))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let out_path = repo_root()
        .join("flbench/out")
        .join(format!("spans-{}-{}.jsonl", w.name, args.seed));
    match spans::write_jsonl(&recorded, &out_path) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            recorded.len(),
            out_path.display()
        )),
        Err(e) => notes.push(format!("spans not written to {}: {e}", out_path.display())),
    }

    let metrics = PER_LAYER
        .iter()
        .map(|metric| {
            let v = *m
                .get(metric.name)
                .unwrap_or_else(|| panic!("{} was not measured", metric.name));
            (metric, v)
        })
        .collect();
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
        digest: checker.digest,
        notes: [notes, checker.reasons.clone()].concat(),
    }
}
