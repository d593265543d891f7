//! Hand-rolled binary codec for engine state.
//!
//! A tiny deterministic codec with exactly one byte representation per
//! value:
//!
//! * all integers are little-endian and fixed-width;
//! * `f64` is stored as its raw IEEE-754 bit pattern (`to_bits`), so
//!   negative zero, subnormals and NaN payloads survive a round trip
//!   untouched — a requirement for byte-identical resume, where the
//!   restored state must be *bit*-equal, not merely `==`;
//! * variable-size data (strings, sequences) is length-prefixed with a
//!   `u64` count;
//! * framing (done by the journal and checkpoint layers) wraps each
//!   payload in a `u32` length prefix and a CRC-32 trailer.
//!
//! Decoding is strict: reading past the end of the buffer or leaving
//! trailing bytes is a [`PersistError::Corrupt`], never a panic.

use super::PersistError;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`)
/// slicing-by-8 lookup tables, built at compile time. Table 0 is the
/// classic byte-at-a-time table; tables 1..8 extend each entry by one
/// more zero byte, letting [`crc32`] fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
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
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the checksum guarding every journal
/// record and checkpoint payload. Processes eight bytes per step
/// (slicing-by-8): the journal pays this on every served request, so
/// the byte-at-a-time loop would dominate the append hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only byte-buffer writer for the persistence wire format.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An encoder writing into `buf` (cleared first) — lets hot paths
    /// reuse one allocation across many small encodes.
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its raw IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a boolean as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes a sequence length prefix; the caller then writes each of
    /// the `n` elements.
    pub fn put_seq_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Writes a length-prefixed slice of `f64` bit patterns.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_seq_len(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Writes a length-prefixed slice of `u64` values.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_seq_len(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Writes a length-prefixed slice of booleans.
    pub fn put_bool_slice(&mut self, vs: &[bool]) {
        self.put_seq_len(vs.len());
        for &v in vs {
            self.put_bool(v);
        }
    }
}

/// Strict reader over wire-format bytes produced by [`Encoder`].
#[derive(Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// What is being decoded, for error messages.
    context: &'static str,
}

impl<'a> Decoder<'a> {
    /// A decoder over `bytes`; `context` names the structure being
    /// decoded and appears in corruption errors.
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Self {
            bytes,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn corrupt(&self, what: &str) -> PersistError {
        PersistError::Corrupt {
            context: format!(
                "{}: {what} at byte {} of {}",
                self.context,
                self.pos,
                self.bytes.len()
            ),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(self.corrupt("unexpected end of input"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, PersistError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a boolean; any byte other than `0`/`1` is corruption.
    pub fn get_bool(&mut self) -> Result<bool, PersistError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.corrupt("invalid boolean byte")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PersistError> {
        let len = self.get_seq_len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt("invalid utf-8 string"))
    }

    /// Reads a sequence length prefix, bounds-checked against the
    /// remaining input so corrupt lengths fail instead of allocating.
    pub fn get_seq_len(&mut self) -> Result<usize, PersistError> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(self.corrupt("sequence length exceeds remaining input"));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, PersistError> {
        let n = self.get_seq_len()?;
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, PersistError> {
        let n = self.get_seq_len()?;
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Reads a length-prefixed boolean slice.
    pub fn get_bool_vec(&mut self) -> Result<Vec<bool>, PersistError> {
        let n = self.get_seq_len()?;
        (0..n).map(|_| self.get_bool()).collect()
    }

    /// Asserts that every byte has been consumed.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(self.corrupt("trailing bytes after decoded value"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_i64(-42);
        e.put_f64(-0.0);
        e.put_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        e.put_bool(true);
        e.put_str("façade");
        e.put_f64_slice(&[1.5, f64::INFINITY]);
        e.put_u64_slice(&[1, 2, 3]);
        e.put_bool_slice(&[true, false]);
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes, "test");
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.get_f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "façade");
        assert_eq!(d.get_f64_vec().unwrap(), vec![1.5, f64::INFINITY]);
        assert_eq!(d.get_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.get_bool_vec().unwrap(), vec![true, false]);
        d.finish().unwrap();
    }

    #[test]
    fn strict_decoding_rejects_bad_input() {
        // Underrun.
        let mut d = Decoder::new(&[1, 2], "test");
        assert!(matches!(d.get_u32(), Err(PersistError::Corrupt { .. })));

        // Trailing bytes.
        let d = Decoder::new(&[0], "test");
        assert!(matches!(d.finish(), Err(PersistError::Corrupt { .. })));

        // Absurd sequence length does not allocate, just errors.
        let mut e = Encoder::new();
        e.put_u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "test");
        assert!(matches!(d.get_f64_vec(), Err(PersistError::Corrupt { .. })));

        // Invalid boolean byte.
        let mut d = Decoder::new(&[2], "test");
        assert!(matches!(d.get_bool(), Err(PersistError::Corrupt { .. })));
    }
}
