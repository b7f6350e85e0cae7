//! Golden bytes of the two formats a lossy round writes, pinned (as
//! `golden_bytes/*` in `results/golden.tsv`) by the bytewise reference
//! CRC (`crates/transport/tests/support/reference.rs`) and not by
//! `frame::crc32`, so they also judge a change to the checksum itself:
//!
//! * the canonical FWTP frame of a fixed `DeltaUp` carrying a fixed
//!   [`ClientUpdate`] (NaN and ∞ bit patterns; `extra` absent and
//!   present);
//! * the FWCK bytes `run_until` hands back on a buffered-cadence run
//!   with every fault and every frame fault switched on (re-blessed when
//!   the replay cache started holding only uploads a later replay reads:
//!   95,338 B before, every client's last upload carried).

mod support;

#[path = "../../transport/tests/support/reference.rs"]
mod reference;

#[path = "../../../tests/support/golden.rs"]
mod golden;
use golden::Golden;

use fedwcm_fl::client::ClientUpdate;
use fedwcm_fl::{wire, Cadence, NetPlan, ServerCheckpoint};
use fedwcm_transport::frame::{self, Message, TRAILER_LEN};
use reference::crc32_bytewise;

const SEQ: u64 = (3 << 32) | 7;

fn fixed_update(extra: Option<Vec<f32>>) -> ClientUpdate {
    ClientUpdate {
        client: 7,
        delta: vec![
            1.0,
            -2.5,
            f32::NAN,
            f32::from_bits(0xFFC0_1234), // a negative NaN with a payload
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // the smallest subnormal
            f32::MAX,
            3.0e-7,
            -1.5e9,
        ],
        num_samples: 128,
        num_batches: 4,
        avg_loss: 0.75,
        extra,
    }
}

/// `(length, reference CRC of header + payload)` of `msg`'s canonical
/// frame, after checking that the trailer the codec wrote is that CRC
/// and that the frame decodes back to `msg`. (The CRC of a whole frame,
/// trailer included, is the same residue for every frame, so it pins
/// nothing.)
fn pin(msg: &Message) -> (usize, u32) {
    let bytes = frame::encode(msg).expect("encodable");
    let body_end = bytes.len() - TRAILER_LEN;
    let body_crc = crc32_bytewise(&bytes[..body_end]);
    let trailer: [u8; 4] = bytes[body_end..].try_into().expect("four trailer bytes");
    assert_eq!(u32::from_le_bytes(trailer), body_crc);
    assert_eq!(crc32_bytewise(&bytes), 0x2144_DF1C, "the CRC-32 residue");
    assert_eq!(frame::decode(&bytes).as_ref(), Ok(msg));
    (bytes.len(), body_crc)
}

#[test]
fn fwtp_frames_match_the_golden_crcs() {
    let delta_up = |extra| Message::DeltaUp {
        seq: SEQ,
        payload: wire::encode_update(&fixed_update(extra)),
    };
    let got = [
        pin(&delta_up(None)),
        pin(&delta_up(Some(vec![
            0.5,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FA0_0001),
        ]))),
    ];
    let mut golden = Golden::new("golden_bytes/frame");
    for (name, (len, crc)) in ["delta_up", "delta_up_extra"].into_iter().zip(got) {
        golden.check(name, format!("{len} {crc:08X}"));
    }
    golden.finish();
}

/// The FWCK bytes of a run killed after round 5 of 8: momentum state,
/// buffered cadence, the busy fault plan (replays included) and the
/// lossy wire, so the straggler buffer, the aggregation buffer, the
/// replay cache and the courier clock are all in the bytes.
fn chaos_checkpoint() -> ServerCheckpoint {
    let (train, test) = support::make_data(0xC4A05);
    let mut cfg = support::make_cfg(8);
    cfg.participation = 1.0;
    cfg.cadence = Cadence::BufferedK { k: 4 };
    support::build_sim(&train, &test, cfg)
        .with_fault_plan(support::busy_plan(31))
        .with_net_plan(NetPlan::new(support::lossy_cfg(32)))
        .run_until(&mut support::MiniMomentum::new(), 5)
        .expect("capture")
}

#[test]
fn run_until_checkpoint_bytes_match_the_golden_crc() {
    let ckpt = chaos_checkpoint();
    let dbg = format!("{ckpt:?}");
    for needle in [
        "pending: [PendingUpdate",
        "agg_buffer: [BufferedUpdate",
        "Some([",
    ] {
        assert!(dbg.contains(needle), "checkpoint lacks `{needle}`");
    }
    let bytes = ckpt.to_bytes();
    let mut golden = Golden::new("golden_bytes/fwck");
    golden.check("len", bytes.len());
    golden.check("crc", format!("{:#010X}", crc32_bytewise(&bytes)));
    golden.finish();
    let back = ServerCheckpoint::from_bytes(&bytes).expect("own bytes parse");
    assert_eq!(back.to_bytes(), bytes);
}
