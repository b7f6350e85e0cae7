//! The digest of one run that `tests/method_digests.rs` and
//! `crates/fl/tests/replay_cache.rs` pin: the CRC32 of every
//! `RoundRecord` field, one text line a record with floats as bit
//! patterns, followed by the final parameters' bits. Both files pull it
//! in with `#[path]`.

use fedwcm_fl::RoundRecord;
use fedwcm_transport::frame::crc32;

pub fn record_digest(records: &[RoundRecord], params: &[f32]) -> u32 {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let mut bytes = Vec::new();
    for r in records {
        let line = format!(
            "{} {:?} {} {:?} {:?} {} {} {:?} {:?}\n",
            r.round,
            bits(r.train_loss),
            r.update_norm.to_bits(),
            bits(r.test_acc),
            bits(r.alpha),
            r.aggregations,
            r.dropped_updates,
            r.faults,
            r.net,
        );
        bytes.extend_from_slice(line.as_bytes());
    }
    for p in params {
        bytes.extend_from_slice(&p.to_bits().to_le_bytes());
    }
    crc32(&bytes)
}
