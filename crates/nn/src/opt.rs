//! Parameter-update primitives shared by every FL algorithm.
//!
//! FL methods differ in *what direction* they step along, not in the
//! stepping mechanics, so this module exposes small composable pieces: a
//! plain SGD step, the client-momentum step of Eq. (2)/(6) with its blend
//! fused in, the upload a client's last step writes instead of stepping
//! ([`LocalStep::delta_into`]), and heavy-ball server momentum.

use fedwcm_tensor::ops;

/// `params -= lr * direction`.
#[inline]
pub fn sgd_step(params: &mut [f32], direction: &[f32], lr: f32) {
    ops::axpy(-lr, direction, params);
}

/// One local step of FedCM/FedWCM (Eq. 2/6) in one pass:
/// `params ← params + (−lr)·(α·grad + (1−α)·momentum)`, or
/// `params ← params + (−lr)·(α·grad)` while `momentum` is empty (round
/// 0's `Δ_0 = 0`). Each product and each sum is rounded once, as in the
/// blend followed by [`sgd_step`] that it fuses.
#[inline]
pub fn momentum_blend(params: &mut [f32], grad: &[f32], momentum: &[f32], alpha: f32, lr: f32) {
    check_blend(params, grad, momentum, alpha);
    let neg_lr = -lr;
    if momentum.is_empty() {
        for (p, g) in params.iter_mut().zip(grad) {
            *p += neg_lr * (alpha * g);
        }
    } else {
        let beta = 1.0 - alpha;
        for ((p, g), m) in params.iter_mut().zip(grad).zip(momentum) {
            *p += neg_lr * (alpha * g + beta * m);
        }
    }
}

/// The shape and range [`momentum_blend`] requires.
fn check_blend(params: &[f32], grad: &[f32], momentum: &[f32], alpha: f32) {
    assert!(
        (0.0..=1.0).contains(&alpha),
        "momentum value must be in [0,1], got {alpha}"
    );
    assert_eq!(params.len(), grad.len(), "params/grad length mismatch");
    assert!(
        momentum.is_empty() || momentum.len() == params.len(),
        "momentum length {} for {} params",
        momentum.len(),
        params.len()
    );
}

/// How a local step moves the parameters along the gradient.
#[derive(Clone, Copy, Debug)]
pub enum LocalStep<'m> {
    /// [`sgd_step`]: `p + (−lr)·g`.
    Sgd,
    /// [`momentum_blend`]: `p + (−lr)·(α·g + (1−α)·m)`, or
    /// `p + (−lr)·(α·g)` while `momentum` is empty.
    Momentum {
        /// The global momentum `Δ_r` (empty before the first aggregation).
        momentum: &'m [f32],
        /// The weight α on the fresh gradient, in `[0, 1]`.
        alpha: f32,
    },
}

impl LocalStep<'_> {
    /// Take the step in place.
    #[inline]
    pub fn apply(self, params: &mut [f32], grad: &[f32], lr: f32) {
        match self {
            LocalStep::Sgd => sgd_step(params, grad, lr),
            LocalStep::Momentum { momentum, alpha } => {
                momentum_blend(params, grad, momentum, alpha, lr);
            }
        }
    }

    /// Overwrite `out` with `(origin − stepped)·scale` in one pass, where
    /// `stepped` is what [`LocalStep::apply`] would leave in `params`, bit
    /// for bit; `params` itself is not written. This is the upload of a
    /// client whose last step this is.
    pub fn delta_into(
        self,
        origin: &[f32],
        params: &[f32],
        grad: &[f32],
        lr: f32,
        scale: f32,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(origin.len(), params.len(), "origin/params length mismatch");
        out.clear();
        let neg_lr = -lr;
        let up = move |x: &f32, stepped: f32| (x - stepped) * scale;
        let each = origin.iter().zip(params).zip(grad);
        match self {
            LocalStep::Sgd => {
                assert_eq!(params.len(), grad.len(), "params/grad length mismatch");
                out.extend(each.map(move |((x, p), g)| up(x, p + neg_lr * g)));
            }
            LocalStep::Momentum { momentum, alpha } => {
                check_blend(params, grad, momentum, alpha);
                if momentum.is_empty() {
                    out.extend(each.map(move |((x, p), g)| up(x, p + neg_lr * (alpha * g))));
                } else {
                    let beta = 1.0 - alpha;
                    out.extend(
                        each.zip(momentum).map(move |(((x, p), g), m)| {
                            up(x, p + neg_lr * (alpha * g + beta * m))
                        }),
                    );
                }
            }
        }
    }
}

/// Classic heavy-ball server momentum: `buf = beta*buf + delta`, returning
/// a reference to the updated buffer (FedAvgM / SlowMo-style).
#[inline]
pub fn server_momentum(buf: &mut [f32], delta: &[f32], beta: f32) {
    assert_eq!(buf.len(), delta.len());
    for (b, d) in buf.iter_mut().zip(delta) {
        *b = beta * *b + d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut p = vec![1.0, 2.0];
        sgd_step(&mut p, &[0.5, -0.5], 0.1);
        assert!((p[0] - 0.95).abs() < 1e-6);
        assert!((p[1] - 2.05).abs() < 1e-6);
    }

    #[test]
    fn momentum_blend_endpoints() {
        let (g, m) = ([1.0, 2.0], [10.0, 20.0]);
        let mut p = [0.0f32; 2];
        momentum_blend(&mut p, &g, &m, 1.0, 1.0);
        assert_eq!(p, [-1.0, -2.0]);
        let mut p = [0.0f32; 2];
        momentum_blend(&mut p, &g, &m, 0.0, 1.0);
        assert_eq!(p, [-10.0, -20.0]);
        let mut p = [0.0f32; 2];
        momentum_blend(&mut p, &g, &m, 0.25, 1.0);
        assert!((p[0] + (0.25 + 7.5)).abs() < 1e-6);
    }

    /// An f32 from 32 random bits: a quarter NaN payloads, signed zeros,
    /// infinities, subnormals and one; a quarter ordinary magnitudes; the
    /// rest the raw bit pattern.
    fn float(bits: u32) -> f32 {
        const SPECIAL: [u32; 10] = [
            0x7fc0_0000,
            0x7fa0_0001,
            0xffc0_0123,
            0x0000_0000,
            0x8000_0000,
            0x7f80_0000,
            0xff80_0000,
            0x0000_0001,
            0x807f_ffff,
            0x3f80_0000,
        ];
        match bits & 3 {
            0 => f32::from_bits(SPECIAL[(bits >> 2) as usize % SPECIAL.len()]),
            1 => (bits >> 2) as f32 / (1u32 << 30) as f32 * 8.0 - 4.0,
            _ => f32::from_bits(bits),
        }
    }

    /// The bits of each value, every NaN as one: which NaN an operation
    /// on two NaNs returns depends on the order of its operands, and the
    /// compiler may order a commutative operation's operands differently
    /// in two loops that compute the same expression.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// `(p, g, m, x)` rows: parameters, gradient, momentum, origin.
    fn rows() -> impl Strategy<Value = Vec<(f32, f32, f32, f32)>> {
        prop::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            0..70,
        )
        .prop_map(|rows| {
            rows.into_iter()
                .map(|(p, g, m, x)| (float(p), float(g), float(m), float(x)))
                .collect()
        })
    }

    /// α in `[0, 1]`, its two ends drawn often.
    fn alpha() -> impl Strategy<Value = f32> {
        (0u32..5, 0.0f32..=1.0).prop_map(|(end, a)| match end {
            0 => 0.0,
            1 => 1.0,
            _ => a,
        })
    }

    /// The two passes the fused step replaced: blend the direction, then
    /// `p + (−lr)·v`.
    fn two_pass(p: &[f32], g: &[f32], m: &[f32], alpha: f32, lr: f32) -> Vec<f32> {
        let v: Vec<f32> = if m.is_empty() {
            g.iter().map(|g| alpha * g).collect()
        } else {
            g.iter()
                .zip(m)
                .map(|(g, m)| alpha * g + (1.0 - alpha) * m)
                .collect()
        };
        p.iter().zip(&v).map(|(p, v)| p + (-lr) * v).collect()
    }

    fn unzip4(rows: &[(f32, f32, f32, f32)]) -> [Vec<f32>; 4] {
        [
            rows.iter().map(|r| r.0).collect(),
            rows.iter().map(|r| r.1).collect(),
            rows.iter().map(|r| r.2).collect(),
            rows.iter().map(|r| r.3).collect(),
        ]
    }

    /// Equal as values: both NaN, or `==` (so `-0 == +0`).
    fn same_value(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| (x.is_nan() && y.is_nan()) || x == y)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The fused step, in place and as a last step's upload, is the
        /// two-pass reference bit for bit (NaN where it is NaN), with and
        /// without a momentum.
        #[test]
        fn fused_step_and_upload_match_the_two_pass_reference_bitwise(
            rows in rows(),
            alpha in alpha(),
            lr in 1e-4f32..4.0,
            scale in 0.01f32..100.0,
            empty in any::<bool>(),
        ) {
            let [p, g, m, x] = unzip4(&rows);
            let m = if empty { Vec::new() } else { m };
            let expected = two_pass(&p, &g, &m, alpha, lr);
            let mut stepped = p.clone();
            momentum_blend(&mut stepped, &g, &m, alpha, lr);
            prop_assert_eq!(bits(&stepped), bits(&expected));

            let step = LocalStep::Momentum { momentum: &m, alpha };
            let mut delta = Vec::new();
            step.delta_into(&x, &p, &g, lr, scale, &mut delta);
            let upload: Vec<f32> = x.iter().zip(&expected).map(|(x, s)| (x - s) * scale).collect();
            prop_assert_eq!(bits(&delta), bits(&upload));

            let mut sgd = p.clone();
            sgd_step(&mut sgd, &g, lr);
            let upload: Vec<f32> = x.iter().zip(&sgd).map(|(x, s)| (x - s) * scale).collect();
            LocalStep::Sgd.delta_into(&x, &p, &g, lr, scale, &mut delta);
            prop_assert_eq!(bits(&delta), bits(&upload));
        }

        /// Under a zero gradient the step moves by the decayed momentum
        /// alone: `p + (−lr)·((1−α)·m)`.
        #[test]
        fn zero_gradient_moves_by_the_decayed_momentum(
            rows in rows(),
            alpha in alpha(),
            lr in 1e-4f32..4.0,
        ) {
            let [p, _, m, _] = unzip4(&rows);
            let mut stepped = p.clone();
            momentum_blend(&mut stepped, &vec![0.0; p.len()], &m, alpha, lr);
            let decayed: Vec<f32> =
                p.iter().zip(&m).map(|(p, m)| p + (-lr) * ((1.0 - alpha) * m)).collect();
            prop_assert!(same_value(&stepped, &decayed));
        }

        /// At α = 1 the fused step is `sgd_step`: bit for bit (NaN where
        /// it is NaN) before the first aggregation, as a value under any
        /// finite momentum.
        #[test]
        fn alpha_one_is_sgd_step(rows in rows(), lr in 1e-4f32..4.0) {
            let [p, g, m, _] = unzip4(&rows);
            let mut sgd = p.clone();
            sgd_step(&mut sgd, &g, lr);
            let mut stepped = p.clone();
            momentum_blend(&mut stepped, &g, &[], 1.0, lr);
            prop_assert_eq!(bits(&stepped), bits(&sgd));
            let m: Vec<f32> = m.into_iter().map(|m| if m.is_finite() { m } else { 0.5 }).collect();
            let mut stepped = p.clone();
            momentum_blend(&mut stepped, &g, &m, 1.0, lr);
            prop_assert!(same_value(&stepped, &sgd));
        }
    }

    #[test]
    fn server_momentum_accumulates() {
        let mut buf = vec![0.0, 0.0];
        server_momentum(&mut buf, &[1.0, 2.0], 0.9);
        server_momentum(&mut buf, &[1.0, 2.0], 0.9);
        assert!((buf[0] - 1.9).abs() < 1e-6);
        assert!((buf[1] - 3.8).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "momentum value must be in [0,1]")]
    fn momentum_blend_rejects_bad_alpha() {
        momentum_blend(&mut [1.0], &[1.0], &[1.0], 1.5, 0.1);
    }
}
