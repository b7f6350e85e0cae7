//! Offline shim for [criterion](https://crates.io/crates/criterion).
//!
//! The build environment cannot fetch crates.io dependencies, so this
//! workspace-local package provides the subset of the criterion API
//! `fedwcm-bench`'s `kernels` target uses: `Criterion`, `BenchmarkGroup`,
//! `BenchmarkId`, `Bencher::iter`, and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! It is a real (if simple) benchmark runner: each benchmark is
//! calibrated to a minimum batch duration, timed for `sample_size`
//! samples, and the median per-iteration time is printed. There is no
//! statistical analysis, HTML report, or baseline comparison.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Identifier for one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` id (criterion's grouped form).
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    sample_size: usize,
    /// Median per-iteration nanoseconds of the last `iter` call.
    last_median_ns: f64,
}

impl Bencher {
    /// Time `routine`, storing the median per-iteration cost.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: how many iterations fill ~2ms?
        let mut iters_per_sample = 1u64;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_millis(2) || iters_per_sample >= 1 << 20 {
                break;
            }
            iters_per_sample *= 4;
        }
        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size.max(1) {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(routine());
            }
            samples_ns.push(t0.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        self.last_median_ns = samples_ns[samples_ns.len() / 2];
    }
}

fn run_one(group: &str, id: &BenchmarkId, sample_size: usize, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher {
        sample_size,
        last_median_ns: 0.0,
    };
    f(&mut b);
    let full = format!("{group}/{}", id.id);
    println!(
        "bench: {full:<48} {:>14.1} ns/iter (median of {sample_size})",
        b.last_median_ns
    );
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Set the number of timing samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        run_one(&self.name, &id.into(), self.sample_size, f);
        self
    }

    /// Run one parameterised benchmark in this group.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: F,
    ) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        run_one(&self.name, &id.into(), self.sample_size, |b| f(b, input));
        self
    }

    /// End the group (printing happens eagerly; this is a no-op).
    pub fn finish(self) {}
}

/// Define a benchmark group function, mirroring criterion's macro form.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn target(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2u64)));
        group.bench_with_input(BenchmarkId::new("mul", 7), &7u64, |b, &x| {
            b.iter(|| black_box(x) * 3)
        });
        group.finish();
    }

    criterion_group!(
        name = shim_group;
        config = Criterion::default().sample_size(3);
        targets = target
    );

    #[test]
    fn group_runs() {
        shim_group();
    }
}
