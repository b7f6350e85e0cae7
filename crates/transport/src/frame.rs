//! Length-prefixed frame codec with a CRC32 integrity trailer.
//!
//! Every frame is `header ‖ payload ‖ crc32(header ‖ payload)`:
//!
//! | offset | size | field                                  |
//! |-------:|-----:|----------------------------------------|
//! | 0      | 4    | magic `b"FWTP"`                        |
//! | 4      | 1    | protocol version (currently 1)         |
//! | 5      | 1    | message type (1, `DeltaUp`)            |
//! | 6      | 2    | reason (0)                             |
//! | 8      | 8    | sequence number (LE)                   |
//! | 16     | 4    | payload length in bytes (LE)           |
//! | 20     | n    | payload                                |
//! | 20+n   | 4    | CRC32 (IEEE) over header + payload (LE)|
//!
//! [`crc32`] has three instances with the same value on every input —
//! folding by 512- or 128-bit carry-less multiplies where the CPU offers
//! them, slice-by-8 everywhere else; the one-table bytewise loop lives in
//! `tests/support/reference.rs` as the reference each is tested against.
//!
//! The wire carries one message, a client's upload ([`Message::DeltaUp`]);
//! the type byte and the reason field are fixed, and what a receiver
//! says back is the courier's verdict, not a frame.
//!
//! The codec's contract is **byte-exact round-tripping**: for every
//! [`Message`], `decode(encode(m)) == Ok(m)`, and every frame
//! [`decode`] accepts is exactly the canonical [`encode`] output of its
//! message — a checksummed frame with another type byte or a nonzero
//! reason is rejected. Any single flipped bit anywhere in a frame makes
//! [`decode`] return an error (never a mis-parse): flips in the magic,
//! version, or length prefix fail their structural check, and every
//! other flip fails the checksum.

/// Frame magic: "FedWcm Transport Protocol".
pub const MAGIC: [u8; 4] = *b"FWTP";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Fixed header size in bytes (everything before the payload).
pub const HEADER_LEN: usize = 20;

/// CRC trailer size in bytes.
pub const TRAILER_LEN: usize = 4;

/// Maximum payload size a frame may carry. Far above any model delta in
/// the workspace, but small enough that a corrupted length prefix can
/// never drive a pathological allocation.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// The type byte of the one message, [`Message::DeltaUp`].
const TYPE_DELTA_UP: u8 = 1;

/// The one message the wire carries: a client's upload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Client → server: one local-training delta upload.
    DeltaUp {
        /// Delivery sequence number.
        seq: u64,
        /// Serialized upload payload.
        payload: Vec<u8>,
    },
}

/// Why a byte buffer failed to decode as a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than its header + declared payload + trailer.
    Truncated,
    /// The magic bytes are wrong: not a frame at all.
    BadMagic,
    /// A protocol version this codec does not speak.
    UnsupportedVersion,
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized,
    /// Bytes remain past the declared frame end.
    TrailingBytes,
    /// The CRC32 trailer does not match the frame contents.
    ChecksumMismatch,
    /// A message-type byte other than [`Message::DeltaUp`]'s.
    UnknownType,
    /// A nonzero reason field: checksummed but non-canonical.
    Malformed,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let what = match self {
            FrameError::Truncated => "truncated frame",
            FrameError::BadMagic => "bad frame magic",
            FrameError::UnsupportedVersion => "unsupported protocol version",
            FrameError::Oversized => "declared payload exceeds the frame size cap",
            FrameError::TrailingBytes => "trailing bytes past the frame end",
            FrameError::ChecksumMismatch => "frame checksum mismatch",
            FrameError::UnknownType => "unknown message type",
            FrameError::Malformed => "structurally inconsistent frame",
        };
        write!(f, "{what}")
    }
}

/// Slice-by-8 tables of the reflected polynomial `0xEDB88320`:
/// `tables[0]` is the classic bytewise table, and `tables[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes.
#[expect(
    clippy::cast_possible_truncation,
    reason = "`i` counts to 256 (`TryFrom` is not const)"
)]
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Advance the raw (un-inverted) CRC state over `data`, slice-by-8:
/// eight bytes a step through eight tables, then a bytewise tail.
fn update_portable(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The portable instance: slice-by-8 over the whole input.
fn crc32_portable(data: &[u8]) -> u32 {
    !update_portable(!0, data)
}

/// The carry-less-multiply instance (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009):
/// the input is a polynomial over GF(2), and 128 bits of it can be
/// *folded* onto the 128 bits `d` bits further on by two carry-less
/// multiplies with the constants `x^(d±32) mod P` without changing the
/// remainder. Four independent 128-bit lanes fold 512 bits ahead a step,
/// then onto one lane, then lane by lane over what 16-byte blocks are
/// left; a Barrett reduction takes the last 128 bits to the 32-bit
/// state. Below 64 bytes, and for the last `len % 16` bytes, the state
/// goes through [`update_portable`], so the instances agree by
/// construction there and by `tests::every_instance_*` everywhere.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Bit-reflected `x^n mod P` for the IEEE polynomial, `(low, high)`
    // halves of one register each: n = 512 ± 32 (the four-lane step),
    // n = 128 ± 32 (one lane onto the next), n = 64 (128 → 64 bits),
    // then P itself and the Barrett quotient constant `x^64 / P`.
    const FOLD_512: (i64, i64) = (0x01_5444_2BD4, 0x01_C6E4_1596);
    const FOLD_128: (i64, i64) = (0x01_7519_97D0, 0x00_CCAA_009E);
    const FOLD_64: i64 = 0x01_63CD_6124;
    const POLY_MU: (i64, i64) = (0x01_DB71_0641, 0x01_F701_1641);

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15] = *block;
        _mm_set_epi64x(
            i64::from_le_bytes([b8, b9, b10, b11, b12, b13, b14, b15]),
            i64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]),
        )
    }

    /// `lane` moved `d` bits ahead (`k` holds `x^(d±32) mod P`) and
    /// added to `next`, the data it lands on.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(lane: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
        let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the raw CRC state over `blocks`; at least four of them.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = blocks.split_at(4);
        let x = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(state.cast_signed())),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        finish(x, rest)
    }

    /// Fold the blocks of `rest` into the four lanes `x` (the 64 bytes
    /// before them, `x[0]` first, the CRC state already added) and reduce
    /// all of it to the raw 32-bit state.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn finish(mut x: [__m128i; 4], rest: &[[u8; 16]]) -> u32 {
        let k = _mm_set_epi64x(FOLD_512.1, FOLD_512.0);
        let mut steps = rest.chunks_exact(4);
        for step in &mut steps {
            for (lane, block) in x.iter_mut().zip(step) {
                *lane = fold(*lane, k, load(block));
            }
        }
        let k = _mm_set_epi64x(FOLD_128.1, FOLD_128.0);
        let mut acc = x[0];
        for lane in &x[1..] {
            acc = fold(acc, k, *lane);
        }
        for block in steps.remainder() {
            acc = fold(acc, k, load(block));
        }
        // 128 → 64 bits, then Barrett: 64 → 32.
        let low32 = _mm_set_epi64x(0xFFFF_FFFF, 0xFFFF_FFFF);
        let t = _mm_clmulepi64_si128::<0x10>(acc, k);
        let acc = _mm_xor_si128(_mm_srli_si128::<8>(acc), t);
        let t = _mm_srli_si128::<4>(acc);
        let acc = _mm_and_si128(acc, low32);
        let acc = _mm_clmulepi64_si128::<0x00>(acc, _mm_set_epi64x(0, FOLD_64));
        let acc = _mm_xor_si128(acc, t);
        let pm = _mm_set_epi64x(POLY_MU.1, POLY_MU.0);
        let t = _mm_and_si128(acc, low32);
        let t = _mm_clmulepi64_si128::<0x10>(t, pm);
        let t = _mm_and_si128(t, low32);
        let t = _mm_clmulepi64_si128::<0x00>(t, pm);
        _mm_extract_epi32::<1>(_mm_xor_si128(acc, t)).cast_unsigned()
    }
}

/// The 512-bit carry-less instance: [`clmul`]'s folding with VPCLMULQDQ,
/// each 512-bit register four 128-bit lanes. Four registers fold 2,048
/// bits ahead a step (256 bytes, constants `x^(2048±32) mod P` in every
/// lane), then onto one register 512 bits at a time (`clmul`'s four-lane
/// constants), over what 64-byte lines are left too; the register's four
/// lanes are then exactly the four lanes of [`clmul::finish`], which
/// folds the last 16-byte blocks and reduces.
#[cfg(target_arch = "x86_64")]
mod vpclmul {
    use super::clmul;
    use core::arch::x86_64::{
        __m512i, _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32, _mm512_set_epi64,
        _mm512_ternarylogic_epi64, _mm512_xor_si512,
    };

    // `(low, high)` halves of each 128-bit lane, as in `clmul`: n = 2048
    // ± 32 (four registers, 256 bytes), n = 512 ± 32 (one onto the next).
    const FOLD_2048: (i64, i64) = (0x01_1542_778A, 0x01_322D_1430);
    const FOLD_512: (i64, i64) = (0x01_5444_2BD4, 0x01_C6E4_1596);

    /// One 64-byte load: the words gathered into an array first, which
    /// LLVM reads as one `vmovdqu64` (set from the words directly, it
    /// assembled the register with three permutes on the port the
    /// multiplies run on).
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(line: &[u8; 64]) -> __m512i {
        let words = line.as_chunks::<8>().0;
        let w: [i64; 8] = core::array::from_fn(|i| i64::from_le_bytes(words[i]));
        _mm512_set_epi64(w[7], w[6], w[5], w[4], w[3], w[2], w[1], w[0])
    }

    /// A constant pair in every 128-bit lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat((low, high): (i64, i64)) -> __m512i {
        _mm512_set_epi64(high, low, high, low, high, low, high, low)
    }

    /// Each lane of `reg` moved `d` bits ahead (`k` holds `x^(d±32) mod
    /// P`) and added to `next`, the data it lands on.
    #[inline]
    #[target_feature(enable = "avx512f,vpclmulqdq")]
    fn fold(reg: __m512i, k: __m512i, next: __m512i) -> __m512i {
        let lo = _mm512_clmulepi64_epi128::<0x00>(reg, k);
        let hi = _mm512_clmulepi64_epi128::<0x11>(reg, k);
        // 0x96: the three-way exclusive or.
        _mm512_ternarylogic_epi64::<0x96>(lo, hi, next)
    }

    /// Advance the raw CRC state over `lines` (at least four) and then
    /// `blocks`, the 16-byte blocks after them.
    #[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, lines: &[[u8; 64]], blocks: &[[u8; 16]]) -> u32 {
        let (first, rest) = lines.split_at(4);
        let state = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, i64::from(state));
        let mut x = [
            _mm512_xor_si512(load(&first[0]), state),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        let k = splat(FOLD_2048);
        let mut steps = rest.chunks_exact(4);
        for step in &mut steps {
            for (reg, line) in x.iter_mut().zip(step) {
                *reg = fold(*reg, k, load(line));
            }
        }
        let k = splat(FOLD_512);
        let mut acc = x[0];
        for reg in &x[1..] {
            acc = fold(acc, k, *reg);
        }
        for line in steps.remainder() {
            acc = fold(acc, k, load(line));
        }
        let lanes = [
            _mm512_extracti32x4_epi32::<0>(acc),
            _mm512_extracti32x4_epi32::<1>(acc),
            _mm512_extracti32x4_epi32::<2>(acc),
            _mm512_extracti32x4_epi32::<3>(acc),
        ];
        clmul::finish(lanes, blocks)
    }
}

/// The 512-bit instance over a whole input: [`vpclmul::update`] over the
/// 64-byte lines and 16-byte blocks when there are at least four lines,
/// slice-by-8 over the rest; below 256 bytes, the 128-bit instance.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,vpclmulqdq,pclmulqdq,sse4.1")]
fn crc32_vpclmul(data: &[u8]) -> u32 {
    let (lines, rest) = data.as_chunks::<64>();
    if lines.len() < 4 {
        return crc32_clmul(data);
    }
    let (blocks, tail) = rest.as_chunks::<16>();
    !update_portable(vpclmul::update(!0, lines, blocks), tail)
}

/// The carry-less instance over a whole input: [`clmul::update`] over
/// the 16-byte blocks when there are at least four, slice-by-8 over the
/// rest.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_clmul(data: &[u8]) -> u32 {
    let (blocks, tail) = data.as_chunks::<16>();
    let state = if blocks.len() >= 4 {
        clmul::update(!0, blocks)
    } else {
        update_portable(!0, blocks.as_flattened())
    };
    !update_portable(state, tail)
}

/// The instances of [`crc32`]. Holding `Clmul` or `Vpclmul` is the
/// licence to run that carry-less instance: its token is minted only by
/// [`Crc::detect`], directly under the feature tests of the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Crc {
    /// Slice-by-8; runs everywhere.
    Portable,
    /// Folding by 128-bit carry-less multiplies.
    #[cfg(target_arch = "x86_64")]
    Clmul(Detected),
    /// Folding by 512-bit carry-less multiplies.
    #[cfg(target_arch = "x86_64")]
    Vpclmul(Detected),
}

/// Proof that the features of the instance holding it were detected:
/// `pclmulqdq` and `sse4.1` for `Clmul`, those and `avx512f` and
/// `vpclmulqdq` for `Vpclmul`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Detected(());

impl Crc {
    /// The instance this machine runs (`std` caches the feature tests).
    #[inline]
    fn detect() -> Crc {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("vpclmulqdq")
            {
                return Crc::Vpclmul(Detected(()));
            }
            return Crc::Clmul(Detected(()));
        }
        Crc::Portable
    }

    #[inline]
    fn crc32(self, data: &[u8]) -> u32 {
        match self {
            Crc::Portable => crc32_portable(data),
            #[cfg(target_arch = "x86_64")]
            Crc::Clmul(Detected(())) | Crc::Vpclmul(Detected(())) => {
                #[expect(
                    unsafe_code,
                    reason = "calling into a #[target_feature] instance is the one step safe code cannot take"
                )]
                // SAFETY: `crc32_clmul` may only run on a CPU with
                // PCLMULQDQ and SSE4.1, `crc32_vpclmul` on one with those
                // and AVX-512F and VPCLMULQDQ; the `Detected` of each
                // variant is minted nowhere but under a passed
                // `is_x86_feature_detected!` of each feature it names.
                unsafe {
                    if matches!(self, Crc::Vpclmul(_)) {
                        crc32_vpclmul(data)
                    } else {
                        crc32_clmul(data)
                    }
                }
            }
        }
    }
}

/// CRC32 (IEEE 802.3 polynomial, reflected) of `data`.
///
/// Three instances compute it, with the same value on every input:
/// folding by 512-bit carry-less multiplies where the CPU has `avx512f`,
/// `vpclmulqdq`, `pclmulqdq` and `sse4.1`, by 128-bit ones where it has
/// the last two (read from the machine; nothing selects or reports it),
/// slice-by-8 everywhere else.
pub fn crc32(data: &[u8]) -> u32 {
    Crc::detect().crc32(data)
}

/// Encode `msg` into its canonical frame bytes: [`encode_delta_up`] of
/// its payload. Fails only when the payload exceeds [`MAX_PAYLOAD`].
pub fn encode(msg: &Message) -> Result<Vec<u8>, FrameError> {
    let Message::DeltaUp { seq, payload } = msg;
    // Refused before a byte of it is copied.
    if payload.len() > MAX_PAYLOAD {
        return Err(FrameError::Oversized);
    }
    encode_delta_up(*seq, payload.len(), |out| out.extend_from_slice(payload))
}

/// The canonical `DeltaUp` frame of the payload `write_payload`
/// **appends** to the buffer it is handed — the bytes of
/// `encode(&Message::DeltaUp { seq, payload })`, written in place: the
/// payload is serialized straight into the frame and crosses memory
/// once. `payload_hint` is its expected length in bytes; exact, it makes
/// the frame a single allocation. The header goes first, the payload
/// length is patched in once it is known, the CRC of all of it last.
pub fn encode_delta_up(
    seq: u64,
    payload_hint: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_hint.min(MAX_PAYLOAD) + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(TYPE_DELTA_UP);
    out.extend_from_slice(&[0; 2]);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    write_payload(&mut out);
    // A writer that cut into the header wrote no frame at all.
    let payload_len = out.len().checked_sub(HEADER_LEN);
    let payload_len = payload_len.ok_or(FrameError::Malformed)?;
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Oversized);
    }
    let declared = u32::try_from(payload_len).map_err(|_| FrameError::Oversized)?;
    out[16..HEADER_LEN].copy_from_slice(&declared.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

fn le_u32(frame: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([frame[at], frame[at + 1], frame[at + 2], frame[at + 3]])
}

fn le_u64(frame: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&frame[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// Decode one frame without copying it: its sequence number and its
/// payload, a slice of `frame`. Accepts exactly the canonical [`encode`]
/// output; every damaged, truncated, extended, or non-canonical buffer
/// is rejected with a specific [`FrameError`].
pub fn decode_ref(frame: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    if frame.len() < HEADER_LEN + TRAILER_LEN {
        return Err(FrameError::Truncated);
    }
    if frame[..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if frame[4] != VERSION {
        return Err(FrameError::UnsupportedVersion);
    }
    let payload_len = usize::try_from(le_u32(frame, 16)).map_err(|_| FrameError::Oversized)?;
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Oversized);
    }
    let total = HEADER_LEN + payload_len + TRAILER_LEN;
    if frame.len() < total {
        return Err(FrameError::Truncated);
    }
    if frame.len() > total {
        return Err(FrameError::TrailingBytes);
    }
    let body_end = HEADER_LEN + payload_len;
    if crc32(&frame[..body_end]) != le_u32(frame, body_end) {
        return Err(FrameError::ChecksumMismatch);
    }
    if frame[6..8] != [0, 0] {
        return Err(FrameError::Malformed);
    }
    if frame[5] != TYPE_DELTA_UP {
        return Err(FrameError::UnknownType);
    }
    Ok((le_u64(frame, 8), &frame[HEADER_LEN..body_end]))
}

/// A whole frame the receiver accepted: the sender's buffer, whose intact
/// copy [`decode_ref`] verified where it lay, handed back as it is — the
/// payload is lent from it, not shifted to its front. Only the courier
/// makes one, from a frame [`encode_delta_up`] wrote.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Verified(Vec<u8>);

impl Verified {
    /// Wrap a canonical frame whose intact copy was accepted.
    pub(crate) fn accepted(frame: Vec<u8>) -> Self {
        debug_assert!(
            decode_ref(&frame).is_ok(),
            "only an intact frame is verified"
        );
        Verified(frame)
    }

    /// The frame's payload, where it lies: header and trailer excluded.
    pub fn payload(&self) -> &[u8] {
        &self.0[HEADER_LEN..self.0.len() - TRAILER_LEN]
    }

    /// The capacity of the frame's buffer: what the sender reserved.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.0.capacity()
    }
}

/// [`decode_ref`], owning the payload: one copy of it, made after every
/// check passed.
pub fn decode(frame: &[u8]) -> Result<Message, FrameError> {
    decode_ref(frame).map(|(seq, payload)| Message::DeltaUp {
        seq,
        payload: payload.to_vec(),
    })
}

// The bytewise loop every instance is tested against; shared with the
// integration tests.
#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::DeltaUp {
                seq: u64::MAX,
                payload: (0..=255).collect(),
            },
            Message::DeltaUp {
                seq: 7,
                payload: Vec::new(),
            },
        ]
    }

    use super::reference::crc32_bytewise;

    /// Every instance this machine runs, not only the one `crc32` picks:
    /// under a 512-bit `detect`, the 128-bit instance too.
    fn instances() -> Vec<Crc> {
        let mut all = vec![Crc::Portable];
        #[cfg(target_arch = "x86_64")]
        if let Crc::Vpclmul(token) = Crc::detect() {
            all.push(Crc::Clmul(token));
        }
        if Crc::detect() != Crc::Portable {
            all.push(Crc::detect());
        }
        all
    }

    /// Bytes with no period a 16- or 64-byte step could hide behind.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[3]
            })
            .collect()
    }

    #[test]
    fn crc32_known_answer() {
        // The canonical CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
        for crc in instances() {
            assert_eq!(crc.crc32(b"123456789"), 0xCBF4_3926, "{crc:?}");
            assert_eq!(crc.crc32(&[]), 0, "{crc:?}");
        }
    }

    /// Each instance against the bytewise reference at every length
    /// 0..=1,100 (no block, the first 64- and 256-byte steps, four of the
    /// latter, and every count of smaller steps, single blocks and tail
    /// bytes after them) at every start offset 0..64 (every alignment of
    /// the first load, up to a cache line).
    #[test]
    fn every_instance_matches_the_bytewise_reference_at_every_length_and_offset() {
        let buf = noise(1_100 + 64);
        for crc in instances() {
            for offset in 0..64 {
                for len in 0..=1_100 {
                    let data = &buf[offset..offset + len];
                    assert_eq!(
                        crc.crc32(data),
                        crc32_bytewise(data),
                        "{crc:?}, offset {offset}, length {len}"
                    );
                }
            }
        }
    }

    /// The same on one real upload frame (76,904 B) and one byte either
    /// side of each seam of the carry-less instances around it: the
    /// 256- and 64-byte steps, the 16-byte block, the bytewise tail.
    #[test]
    fn every_instance_matches_the_bytewise_reference_on_an_upload_frame_and_its_seams() {
        const UPLOAD_FRAME: usize = 76_904;
        let buf = noise(UPLOAD_FRAME + 256 + 1);
        let mut lengths = vec![UPLOAD_FRAME];
        for seam in [256, 64, 16, 8] {
            let at = UPLOAD_FRAME / seam * seam;
            lengths.extend([at - 1, at, at + 1, at + seam - 1, at + seam, at + seam + 1]);
        }
        for crc in instances() {
            for &len in &lengths {
                for offset in [0, 1] {
                    let data = &buf[offset..offset + len];
                    assert_eq!(
                        crc.crc32(data),
                        crc32_bytewise(data),
                        "{crc:?}, offset {offset}, length {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn detect_is_portable_exactly_where_the_features_are_missing() {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            let clmul = has!("pclmulqdq") && has!("sse4.1");
            let vpclmul = clmul && has!("avx512f") && has!("vpclmulqdq");
            assert_eq!(Crc::detect() != Crc::Portable, clmul);
            assert_eq!(matches!(Crc::detect(), Crc::Vpclmul(_)), vpclmul);
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(Crc::detect(), Crc::Portable);
    }

    #[test]
    fn round_trip_is_identity() {
        for msg in sample_messages() {
            let frame = encode(&msg).expect("encodable");
            let back = decode(&frame).expect("decodable");
            assert_eq!(back, msg);
            // Re-encoding the decoded message reproduces the bytes.
            assert_eq!(encode(&back).expect("encodable"), frame);
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let msg = Message::DeltaUp {
            seq: 0x0123_4567_89AB_CDEF,
            payload: vec![0xAA; 33],
        };
        let frame = encode(&msg).expect("encodable");
        for byte_index in 0..frame.len() {
            for bit in 0..8u8 {
                let mut damaged = frame.clone();
                damaged[byte_index] ^= 1 << bit;
                let got = decode(&damaged);
                assert!(
                    got.is_err(),
                    "flip at byte {byte_index} bit {bit} parsed as {got:?}"
                );
            }
        }
    }

    #[test]
    fn flips_outside_structural_fields_fail_the_checksum() {
        let frame = encode(&Message::DeltaUp {
            seq: 3,
            payload: Vec::new(),
        })
        .expect("encodable");
        // Bytes 8..16 are the sequence number: covered only by the CRC.
        for byte_index in 8..16 {
            let mut damaged = frame.clone();
            damaged[byte_index] ^= 0x80;
            assert_eq!(decode(&damaged), Err(FrameError::ChecksumMismatch));
        }
    }

    #[test]
    fn truncation_and_extension_rejected() {
        let frame = encode(&Message::DeltaUp {
            seq: 1,
            payload: vec![9; 16],
        })
        .expect("encodable");
        for keep in 0..frame.len() {
            assert!(decode(&frame[..keep]).is_err(), "prefix of {keep} accepted");
        }
        let mut extended = frame.clone();
        extended.push(0);
        assert_eq!(decode(&extended), Err(FrameError::TrailingBytes));
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut frame = encode(&Message::DeltaUp {
            seq: 1,
            payload: vec![0; 4],
        })
        .expect("encodable");
        // Declare a payload far past the cap; the length field is at 16.
        frame[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&frame), Err(FrameError::Oversized));
    }

    #[test]
    fn oversized_payload_refused_at_encode() {
        // Construct without materialising MAX_PAYLOAD+1 real bytes is not
        // possible through the typed API, so this allocates briefly.
        let msg = Message::DeltaUp {
            seq: 0,
            payload: vec![0u8; MAX_PAYLOAD + 1],
        };
        assert_eq!(encode(&msg), Err(FrameError::Oversized));
    }

    /// Header byte `at` set to `value`, the CRC fixed up: checksummed but
    /// non-canonical.
    fn rewritten(at: usize, value: u8) -> Vec<u8> {
        let mut frame = encode(&Message::DeltaUp {
            seq: 5,
            payload: vec![1, 2],
        })
        .expect("encodable");
        frame[at] = value;
        let body_end = frame.len() - TRAILER_LEN;
        let crc = crc32(&frame[..body_end]);
        frame[body_end..].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    #[test]
    fn non_canonical_frames_rejected() {
        // A nonzero reason (either byte), then every other type byte.
        assert_eq!(decode(&rewritten(6, 1)), Err(FrameError::Malformed));
        assert_eq!(decode(&rewritten(7, 0x80)), Err(FrameError::Malformed));
        for msg_type in (0..=u8::MAX).filter(|&t| t != TYPE_DELTA_UP) {
            assert_eq!(
                decode(&rewritten(5, msg_type)),
                Err(FrameError::UnknownType),
                "type {msg_type}"
            );
        }
    }

    #[test]
    fn decode_ref_lends_the_payload_where_it_lies() {
        let frame = encode(&Message::DeltaUp {
            seq: 9,
            payload: vec![4, 5, 6],
        })
        .expect("encodable");
        let (seq, payload) = decode_ref(&frame).expect("decodable");
        assert_eq!((seq, payload), (9, &[4u8, 5, 6][..]));
        assert_eq!(payload.as_ptr(), frame[HEADER_LEN..].as_ptr());
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let frame = encode(&Message::DeltaUp {
            seq: 1,
            payload: Vec::new(),
        })
        .expect("encodable");
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode(&bad_magic), Err(FrameError::BadMagic));
        let mut bad_version = frame;
        bad_version[4] = VERSION + 1;
        assert_eq!(decode(&bad_version), Err(FrameError::UnsupportedVersion));
    }
}
