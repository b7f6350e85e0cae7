//! The staleness discount as a move: a client upload the server holds
//! but has not yet applied is an [`Undiscounted`], and the only way to
//! turn one into the [`ClientUpdate`] an aggregation consumes is
//! [`Undiscounted::apply`], which takes `self`.
//!
//! Both halves of the discount-once protocol are therefore type errors
//! rather than findings: an upload that skips the discount is still an
//! `Undiscounted` and does not fit `RoundInput::updates`, and one that
//! is discounted twice is a use after move. The delta is reachable only
//! through `&[f32]`, so nothing can pre-scale it on the side either.

use crate::client::ClientUpdate;
use crate::codec::{ByteReader, Wire};
use fedwcm_faults::staleness_discount;

/// A received client upload whose delta still has its original strength.
///
/// Re-queueing, buffering, caching for replay, crossing the wire and
/// checkpointing all handle the upload in this form; [`apply`] is the
/// single exit.
///
/// A second discount does not compile (the PR 6 regression: the
/// buffered cadence discounted at buffer time *and* at apply time) —
/// `apply` consumed the upload the first time:
///
/// ```compile_fail,E0382
/// # use fedwcm_fl::{ClientUpdate, Undiscounted};
/// # let upload = ClientUpdate { client: 0, delta: vec![1.0], num_samples: 1,
/// #     num_batches: 1, avg_loss: 0.0, extra: None };
/// let late = Undiscounted::new(upload);
/// let buffered = late.apply(2, 1.0);
/// let applied = late.apply(2, 1.0); // use of moved value: `late`
/// # let _ = (buffered, applied);
/// ```
///
/// Neither does skipping it — an `Undiscounted` is not a `ClientUpdate`:
///
/// ```compile_fail,E0308
/// # use fedwcm_fl::{ClientUpdate, Undiscounted};
/// # let upload = ClientUpdate { client: 0, delta: vec![1.0], num_samples: 1,
/// #     num_batches: 1, avg_loss: 0.0, extra: None };
/// let late = Undiscounted::new(upload);
/// let updates: Vec<ClientUpdate> = vec![late]; // expected `ClientUpdate`
/// ```
///
/// The compiling twin differs only in the offending line:
///
/// ```
/// # use fedwcm_fl::{ClientUpdate, Undiscounted};
/// # let upload = ClientUpdate { client: 0, delta: vec![1.0], num_samples: 1,
/// #     num_batches: 1, avg_loss: 0.0, extra: None };
/// let late = Undiscounted::new(upload);
/// let updates: Vec<ClientUpdate> = vec![late.apply(2, 1.0)];
/// assert_eq!(updates[0].delta, [1.0 / 3.0]);
/// ```
///
/// [`apply`]: Undiscounted::apply
#[derive(Clone, Debug)]
pub struct Undiscounted(ClientUpdate);

impl Undiscounted {
    /// Wrap an upload exactly as the client (or an injected fault)
    /// emitted it.
    pub fn new(update: ClientUpdate) -> Self {
        Undiscounted(update)
    }

    /// Id of the client that produced the upload.
    pub fn client(&self) -> usize {
        self.0.client
    }

    /// The client's mean local training loss.
    pub fn avg_loss(&self) -> f32 {
        self.0.avg_loss
    }

    /// The delta at its original strength, read-only.
    pub fn delta(&self) -> &[f32] {
        &self.0.delta
    }

    /// Consume the upload at application time: scale its delta by
    /// `staleness_discount(staleness) * scale` in one pass and hand back
    /// the update to aggregate. `scale` is 1 for a barrier or buffer
    /// flush and `1/n` for an async apply among `n`. Algorithm payloads
    /// (`extra`) ride along unscaled — they are not step directions.
    pub fn apply(self, staleness: usize, scale: f32) -> ClientUpdate {
        let mut update = self.0;
        // A fresh upload at unit scale has weight exactly 1: skip the pass.
        if staleness > 0 || scale != 1.0 {
            let weight = staleness_discount(staleness) * scale;
            for d in update.delta.iter_mut() {
                *d *= weight;
            }
        }
        update
    }
}

impl Wire for Undiscounted {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn get(r: &mut ByteReader<'_>) -> Option<Self> {
        ClientUpdate::get(r).map(Undiscounted)
    }
    fn wire_len(&self) -> usize {
        self.0.wire_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upload(delta: Vec<f32>) -> Undiscounted {
        Undiscounted::new(ClientUpdate {
            client: 3,
            delta,
            num_samples: 8,
            num_batches: 2,
            avg_loss: 0.5,
            extra: Some(vec![4.0]),
        })
    }

    #[test]
    fn apply_is_one_fused_multiply_and_spares_the_payload() {
        let delta = vec![1.0f32, -0.3, 7.5e-3];
        let fresh = upload(delta.clone()).apply(0, 1.0);
        assert_eq!(fresh.delta, delta, "fresh at unit scale is the identity");
        let late = upload(delta.clone()).apply(3, 1.0);
        let asynced = upload(delta.clone()).apply(3, 0.5);
        for (i, d) in delta.iter().enumerate() {
            assert_eq!(
                late.delta[i].to_bits(),
                (d * staleness_discount(3)).to_bits()
            );
            let weight = staleness_discount(3) * 0.5;
            assert_eq!(asynced.delta[i].to_bits(), (d * weight).to_bits());
        }
        assert_eq!(asynced.extra, Some(vec![4.0]));
    }
}
