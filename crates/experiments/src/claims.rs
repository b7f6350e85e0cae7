//! The paper's claims as one checked table ([`LEDGER`]).
//!
//! A row runs two sides, A and B, over the same paired seeds (one seed
//! gives both sides the same data and partition) and claims that the
//! per-seed difference A − B of one statistic is greater than −`margin`.
//! The 95 % Student-t interval of the differences decides the verdict.

use crate::cli::{Cli, Scale};
use crate::methods::{build_method, Method};
use crate::report::run_seeds;
use crate::setup::{ExpConfig, PreparedTask};
use fedwcm_core::{FedWcm, FedWcmOptions, ScoreForm};
use fedwcm_data::synth::DatasetPreset;
use fedwcm_fl::{FederatedAlgorithm, History};
use fedwcm_stats::describe::{mean, paired_diff_ci, sign_test};
use fedwcm_trace::{names, MetricValue};

/// What a row compares, per seed: `History::final_accuracy(3)`, the last
/// evaluation's `fl.acc.tail` gauge (the rarest third of the classes), or
/// the mean recorded momentum value α.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Stat {
    FinalAcc,
    TailAcc,
    MeanAlpha,
}

impl Stat {
    fn of(self, h: &History) -> f64 {
        match self {
            Stat::FinalAcc => h.final_accuracy(3),
            Stat::TailAcc => match h.metrics.get(names::FL_ACC_TAIL) {
                Some(MetricValue::Gauge(v)) => *v,
                other => panic!("run_seeds attaches a registry, yet fl.acc.tail is {other:?}"),
            },
            Stat::MeanAlpha => {
                let alphas: Vec<f64> = h.records.iter().filter_map(|r| r.alpha).collect();
                mean(&alphas)
            }
        }
    }
}

/// One side of a row: its condition at a scale and base seed, and its algorithm.
pub struct Side(
    pub fn(Scale, u64) -> ExpConfig,
    pub fn(&PreparedTask) -> Box<dyn FederatedAlgorithm>,
);

/// ✅ `Holds`: the interval's lower end is above −margin. ❌ `Fails`: its
/// upper end is at most −margin. 🟡 `Open`: the interval straddles −margin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Verdict {
    Holds,
    Open,
    Fails,
}

/// One claim of the paper.
pub struct Claim {
    /// Stable row id.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub paper: &'static str,
    /// The side claimed to be ahead.
    pub a: Side,
    /// The side it is compared with.
    pub b: Side,
    /// The statistic compared.
    pub stat: Stat,
    /// ε: the claim is A − B > −ε.
    pub margin: f64,
    /// The verdict `tests/claims.rs` pins at smoke scale: unanimous rows only.
    pub smoke: Option<Verdict>,
}

impl Claim {
    /// Run both sides over `cli.trials` paired seeds (2..=30) from
    /// `cli.seed`. Returns the verdict and the row's ledger line: the mean
    /// of A − B, its 95 % interval, the seeds where A − B > −margin, the
    /// sign test's p of A against B − margin.
    pub fn run(&self, cli: &Cli) -> (Verdict, String) {
        let values = |s: &Side| -> Vec<f64> {
            let runs = run_seeds(&(s.0)(cli.scale, cli.seed), cli, s.1);
            runs.iter().map(|h| self.stat.of(h)).collect()
        };
        let (id, paper, stat, margin) = (self.id, self.paper, self.stat, self.margin);
        let a = values(&self.a);
        let b: Vec<f64> = values(&self.b).iter().map(|y| y - margin).collect();
        // `lead` is the mean of A − B + margin: the claim's slack.
        let (lead, half) = paired_diff_ci(&a, &b);
        let (verdict, symbol) = if lead - half > 0.0 {
            (Verdict::Holds, "✅")
        } else if lead + half <= 0.0 {
            (Verdict::Fails, "❌")
        } else {
            (Verdict::Open, "🟡")
        };
        let (m, n, p) = (lead - margin, a.len(), sign_test(&a, &b));
        let wins = a.iter().zip(&b).filter(|(x, y)| x > y).count();
        let (lo, hi) = (m - half, m + half);
        let line = format!(
            "| {id} | {paper} | {stat:?} | {margin} | {m:+.4} | [{lo:+.4}, {hi:+.4}] \
             | {wins}/{n} | {p:.3} | {symbol} |"
        );
        (verdict, line)
    }
}

/// A row's condition: CIFAR-10 at [`ExpConfig::new`]'s sizes, except at
/// smoke scale, where that task sits at chance. There it is FashionMNIST
/// with 10 clients, 0.4 participation, 2 local epochs and 25 rounds (long
/// enough for momentum to get going).
fn condition(scale: Scale, seed: u64, imbalance: f64, beta: f64) -> ExpConfig {
    if scale != Scale::Smoke {
        return ExpConfig::new(DatasetPreset::Cifar10, imbalance, beta, scale, seed);
    }
    let mut e = ExpConfig::new(DatasetPreset::FashionMnist, imbalance, beta, scale, seed);
    (e.clients, e.participation, e.local_epochs, e.rounds) = (10, 0.4, 2, 25);
    e
}

/// Fig. 3's balanced panel: IF = 1, β = 0.1.
fn balanced(scale: Scale, seed: u64) -> ExpConfig {
    condition(scale, seed, 1.0, 0.1)
}

/// Figs. 8 and 9 and Table 3: IF = 0.1, β = 0.6.
fn longtail(scale: Scale, seed: u64) -> ExpConfig {
    condition(scale, seed, 0.1, 0.6)
}

/// The steepest tail of Tables 1 and 4: IF = 0.01, β = 0.1.
fn steep(scale: Scale, seed: u64) -> ExpConfig {
    condition(scale, seed, 0.01, 0.1)
}

/// Table 3's 10 % row, at its 20 clients below paper scale.
fn sparse(scale: Scale, seed: u64) -> ExpConfig {
    let mut e = longtail(scale, seed);
    (e.clients, e.participation) = (e.clients.max(20), 0.1);
    e
}

/// Fig. 9 at K ≥ 40, with its cohort of about five clients.
fn crowded(scale: Scale, seed: u64) -> ExpConfig {
    let mut e = longtail(scale, seed);
    e.clients = e.clients.max(40);
    e.participation = 5.0 / e.clients as f64;
    e
}

/// Table 5's FedGrab (quantity-skewed) partition at IF = 0.1, β = 0.1.
fn skewed(scale: Scale, seed: u64) -> ExpConfig {
    let mut e = condition(scale, seed, 0.1, 0.1);
    e.fedgrab_partition = true;
    e
}

/// FedWCM on `task`'s prior with `off` applied to its default options.
fn ablated(task: &PreparedTask, off: fn(&mut FedWcmOptions)) -> Box<dyn FederatedAlgorithm> {
    let mut options = FedWcmOptions::default();
    off(&mut options);
    let prior = task.class_prior(ScoreForm::Rectified);
    Box::new(FedWcm::with_options(options).with_prior(prior))
}

/// The claims, in paper order; the ablations switch off one
/// [`FedWcmOptions`] mechanism each, or score Eq. (3) as printed.
pub const LEDGER: [Claim; 13] = [
    Claim {
        id: "fig3-fedcm-beats-fedavg",
        paper: "Fig. 3, IF = 1",
        a: Side(balanced, |t| build_method(Method::FedCm, t)),
        b: Side(balanced, |t| build_method(Method::FedAvg, t)),
        stat: Stat::FinalAcc,
        margin: 0.0,
        smoke: None,
    },
    Claim {
        id: "fig3-fedwcm-near-fedavg",
        paper: "Fig. 3, IF = 1",
        a: Side(balanced, |t| build_method(Method::FedWcm, t)),
        b: Side(balanced, |t| build_method(Method::FedAvg, t)),
        stat: Stat::FinalAcc,
        margin: 0.05,
        smoke: Some(Verdict::Holds),
    },
    Claim {
        id: "table3-fedavg-beats-fedcm-sparse",
        paper: "Table 3, 10 % participation",
        a: Side(sparse, |t| build_method(Method::FedAvg, t)),
        b: Side(sparse, |t| build_method(Method::FedCm, t)),
        stat: Stat::FinalAcc,
        margin: 0.0,
        smoke: None,
    },
    Claim {
        id: "fig9-fedavg-beats-fedcm-crowded",
        paper: "Fig. 9, K ≥ 40",
        a: Side(crowded, |t| build_method(Method::FedAvg, t)),
        b: Side(crowded, |t| build_method(Method::FedCm, t)),
        stat: Stat::FinalAcc,
        margin: 0.0,
        smoke: None,
    },
    Claim {
        id: "table4-fedwcm-beats-fedcm",
        paper: "Table 4, IF = 0.01",
        a: Side(steep, |t| build_method(Method::FedWcm, t)),
        b: Side(steep, |t| build_method(Method::FedCm, t)),
        stat: Stat::FinalAcc,
        margin: 0.0,
        smoke: Some(Verdict::Fails),
    },
    Claim {
        id: "table1-fedwcm-near-fedavg",
        paper: "Tables 1 and 4, IF = 0.1",
        a: Side(longtail, |t| build_method(Method::FedWcm, t)),
        b: Side(longtail, |t| build_method(Method::FedAvg, t)),
        stat: Stat::FinalAcc,
        margin: 0.02,
        smoke: Some(Verdict::Holds),
    },
    Claim {
        id: "fig8-fedwcm-tail-beats-fedcm",
        paper: "Fig. 8, tail classes",
        a: Side(longtail, |t| build_method(Method::FedWcm, t)),
        b: Side(longtail, |t| build_method(Method::FedCm, t)),
        stat: Stat::TailAcc,
        margin: 0.0,
        smoke: None,
    },
    Claim {
        id: "eq5-alpha-rises-with-imbalance",
        paper: "Eq. (5), IF = 0.01 vs 1",
        a: Side(steep, |t| build_method(Method::FedWcm, t)),
        b: Side(balanced, |t| build_method(Method::FedWcm, t)),
        stat: Stat::MeanAlpha,
        margin: 0.0,
        smoke: Some(Verdict::Holds),
    },
    Claim {
        id: "table5-fedwcm-x-near-fedavg",
        paper: "Table 5, FedGrab partition",
        a: Side(skewed, |t| build_method(Method::FedWcmX, t)),
        b: Side(skewed, |t| build_method(Method::FedAvg, t)),
        stat: Stat::FinalAcc,
        margin: 0.02,
        smoke: None,
    },
    Claim {
        id: "ablate-adaptive-alpha",
        paper: "DESIGN §4, Eq. (5)",
        a: Side(longtail, |t| build_method(Method::FedWcm, t)),
        b: Side(longtail, |t| ablated(t, |o| o.adaptive_alpha = false)),
        stat: Stat::FinalAcc,
        margin: 0.0,
        smoke: None,
    },
    Claim {
        id: "ablate-weighted-aggregation",
        paper: "DESIGN §4, Eq. (4)",
        a: Side(longtail, |t| build_method(Method::FedWcm, t)),
        b: Side(longtail, |t| ablated(t, |o| o.weighted_aggregation = false)),
        stat: Stat::FinalAcc,
        margin: 0.0,
        smoke: None,
    },
    Claim {
        id: "ablate-adaptive-temperature",
        paper: "DESIGN §4, temperature",
        a: Side(longtail, |t| build_method(Method::FedWcm, t)),
        b: Side(longtail, |t| ablated(t, |o| o.adaptive_temperature = false)),
        stat: Stat::FinalAcc,
        margin: 0.0,
        smoke: None,
    },
    Claim {
        id: "ablate-literal-scores",
        paper: "DESIGN §4, Eq. (3)",
        a: Side(longtail, |t| build_method(Method::FedWcm, t)),
        b: Side(longtail, |t| {
            Box::new(FedWcm::new().with_prior(t.class_prior(ScoreForm::Literal)))
        }),
        stat: Stat::FinalAcc,
        margin: 0.0,
        smoke: None,
    },
];
