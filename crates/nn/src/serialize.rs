//! Little-endian byte helpers ([`put_u32`], [`put_f32s`], [`ByteReader`],
//! …) that `fedwcm-fl`'s wire codec and `FWCK` server checkpoints build
//! on. Floats keep their bit patterns, NaN payloads included.

/// Append a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian f32 (bit pattern preserved exactly, NaN
/// payloads included).
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian f64 (bit pattern preserved exactly).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed (u64 count) little-endian f32 slice: one
/// bulk conversion, not a call per float (the compiler turns the
/// flattened `to_le_bytes` into a block copy on little-endian targets).
pub fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    put_u64(out, vs.len() as u64);
    out.reserve(vs.len() * 4);
    out.extend(vs.iter().flat_map(|v| v.to_le_bytes()));
}

/// Append a length-prefixed (u64 count) UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Append a length-prefixed (u64 count) opaque byte blob.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Sequential reader over a serialized byte buffer.
///
/// Every accessor returns `None` on exhaustion (or malformed UTF-8 for
/// [`ByteReader::str`]) instead of panicking, so deserializers can
/// surface truncation as a typed error.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader starting at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// True once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian f32 (any bit pattern, NaNs included).
    pub fn f32(&mut self) -> Option<f32> {
        let b = self.take(4)?;
        Some(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian f64.
    pub fn f64(&mut self) -> Option<f64> {
        let b = self.take(8)?;
        Some(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a length-prefixed f32 slice written by [`put_f32s`].
    pub fn f32s(&mut self) -> Option<Vec<f32>> {
        let n = usize::try_from(self.u64()?).ok()?;
        // Guard against a corrupt length before allocating: `take` fails
        // unless all `4 n` bytes are there.
        let bytes = self.take(n.checked_mul(4)?)?;
        let floats = bytes.as_chunks::<4>().0;
        Some(floats.iter().map(|b| f32::from_le_bytes(*b)).collect())
    }

    /// Read a length-prefixed UTF-8 string written by [`put_str`].
    pub fn str(&mut self) -> Option<String> {
        let n = usize::try_from(self.u64()?).ok()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).ok()
    }

    /// Read a length-prefixed opaque byte blob written by [`put_bytes`].
    pub fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = usize::try_from(self.u64()?).ok()?;
        Some(self.take(n)?.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_helpers_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 3);
        put_f32(&mut buf, f32::NAN);
        put_f64(&mut buf, -0.0);
        put_f32s(&mut buf, &[1.5, -2.5]);
        put_str(&mut buf, "Δ-résilience");
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32(), Some(7));
        assert_eq!(r.u64(), Some(u64::MAX - 3));
        assert_eq!(r.f32().map(f32::to_bits), Some(f32::NAN.to_bits()));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.f32s(), Some(vec![1.5, -2.5]));
        assert_eq!(r.str().as_deref(), Some("Δ-résilience"));
        assert!(r.is_exhausted());
        assert_eq!(r.u32(), None, "reads past the end return None");
        let mut blob = Vec::new();
        put_bytes(&mut blob, &[0xde, 0xad]);
        let mut r = ByteReader::new(&blob);
        assert_eq!(r.bytes(), Some(vec![0xde, 0xad]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn byte_reader_rejects_corrupt_lengths() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // absurd element count
        put_f32(&mut buf, 1.0);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.f32s(), None);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.str(), None);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.bytes(), None);
    }
}
