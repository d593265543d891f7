//! The persistence wire format: one [`Wire`] impl per persisted type.
//!
//! A tiny deterministic codec with exactly one byte representation per
//! value:
//!
//! * all integers are little-endian and fixed-width (`usize` as `u64`);
//! * `f64` is stored as its raw IEEE-754 bit pattern (`to_bits`), so
//!   negative zero, subnormals and NaN payloads survive a round trip
//!   untouched — a requirement for byte-identical resume, where the
//!   restored state must be *bit*-equal, not merely `==`;
//! * variable-size data (strings, sequences) is length-prefixed with a
//!   `u64` count, `Option` with a presence byte;
//! * a struct is its fields in the order its `wire_struct!` lists them,
//!   an enum a `u8` tag followed by the variant's fields;
//! * framing (done by the journal and checkpoint layers) wraps each
//!   payload in a `u32` length prefix and a CRC-32 trailer.
//!
//! Decoding is strict: reading past the end of the buffer, a length
//! longer than the remaining input, an unknown tag or leaving trailing
//! bytes is a [`PersistError::Corrupt`], never a panic or an unbounded
//! allocation.

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

/// A value with exactly one wire representation. `put` and `get` are
/// each other's inverse: `get` reads back exactly the bytes `put`
/// wrote, and re-encoding a decoded value reproduces them.
pub trait Wire: Sized {
    /// Appends the value's bytes.
    fn put(&self, e: &mut Encoder);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`] on truncated or malformed input.
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError>;
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

    /// Writes one value.
    #[inline]
    pub fn put<T: Wire>(&mut self, v: &T) {
        v.put(self);
    }
}

/// The wire image of one value.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put(v);
    e.into_bytes()
}

/// Decodes one value that must span all of `bytes`; `context` names
/// it in corruption errors.
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] on malformed input or trailing
/// bytes.
pub fn decode<T: Wire>(bytes: &[u8], context: &'static str) -> Result<T, PersistError> {
    let mut d = Decoder::new(bytes, context);
    let v = d.get()?;
    d.finish()?;
    Ok(v)
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

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`] on truncated or malformed input.
    #[inline]
    pub fn get<T: Wire>(&mut self) -> Result<T, PersistError> {
        T::get(self)
    }

    /// A corruption error at the current position.
    pub(crate) fn invalid(&self, what: impl std::fmt::Display) -> PersistError {
        PersistError::Corrupt {
            context: format!(
                "{}: {what} at byte {} of {}",
                self.context,
                self.pos,
                self.bytes.len()
            ),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(self.invalid("unexpected end of input"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a sequence length prefix, bounded by the remaining input
    /// (every element takes at least one byte), so a corrupt length
    /// fails instead of allocating.
    #[inline]
    pub(crate) fn seq_len(&mut self) -> Result<usize, PersistError> {
        let n: u64 = self.get()?;
        if n > self.remaining() as u64 {
            return Err(self.invalid("sequence length exceeds remaining input"));
        }
        Ok(n as usize)
    }

    /// Reads a record tag and checks it is `tag`.
    pub(crate) fn expect_tag(&mut self, tag: u8) -> Result<(), PersistError> {
        match self.get::<u8>()? {
            found if found == tag => Ok(()),
            found => Err(self.invalid(format_args!("record tag {found}, expected {tag}"))),
        }
    }

    /// Asserts that every byte has been consumed.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`] when bytes are left over.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(self.invalid("trailing bytes after decoded value"));
        }
        Ok(())
    }
}

// The primitives and `Decoder` helpers are `#[inline]`: they run per
// field of every journal record, and without the hint they stay calls
// across codegen units instead of folding into each record's codec.
macro_rules! wire_le_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, e: &mut Encoder) {
                e.buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
                Ok(<$t>::from_le_bytes(d.take_array()?))
            }
        }
    )*};
}

wire_le_int!(u8, u32, u64);

impl Wire for usize {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put(&(*self as u64));
    }
    #[inline]
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let v: u64 = d.get()?;
        usize::try_from(v).map_err(|_| d.invalid(format_args!("index {v} overflows usize")))
    }
}

impl Wire for f64 {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put(&self.to_bits());
    }
    #[inline]
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok(f64::from_bits(d.get()?))
    }
}

impl Wire for bool {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put(&u8::from(*self));
    }
    #[inline]
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        match d.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(d.invalid("invalid boolean byte")),
        }
    }
}

impl Wire for String {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put(&self.len());
        e.buf.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let len = d.seq_len()?;
        let bytes = d.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| d.invalid("invalid utf-8 string"))
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put(&self.len());
        for v in self {
            v.put(e);
        }
    }
    #[inline]
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let n = d.seq_len()?;
        (0..n).map(|_| d.get()).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put(&self.is_some());
        if let Some(v) = self {
            v.put(e);
        }
    }
    #[inline]
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok(if d.get()? { Some(d.get()?) } else { None })
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        self.0.put(e);
        self.1.put(e);
    }
    #[inline]
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        Ok((d.get()?, d.get()?))
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    #[inline]
    fn put(&self, e: &mut Encoder) {
        for v in self {
            v.put(e);
        }
    }
    #[inline]
    fn get(d: &mut Decoder<'_>) -> Result<Self, PersistError> {
        let items = (0..N).map(|_| d.get()).collect::<Result<Vec<T>, _>>()?;
        items
            .try_into()
            .map_err(|_| d.invalid("fixed-size array length"))
    }
}

/// Implements [`Wire`] for a struct with named fields: its layout is
/// the listed fields in order, optionally after a `u8` record tag
/// (`Type tag TAG { .. }`). Each field names its type, so the whole
/// layout is spelled out here and a type edit elsewhere fails to
/// compile instead of silently changing the bytes. Fields under
/// `skip { .. }` are not persisted and decode as `Default::default()`;
/// a `check` predicate rejects decoded values that break the type's
/// invariants.
macro_rules! wire_struct {
    (
        $ty:ident $(tag $tag:ident)? { $($field:ident: $fty:ty),* $(,)? }
        $(skip { $($skip:ident),* })?
        $(check $check:expr)?
    ) => {
        impl $crate::persist::wire::Wire for $ty {
            fn put(&self, e: &mut $crate::persist::wire::Encoder) {
                $(e.put(&$tag);)?
                $(e.put::<$fty>(&self.$field);)*
            }
            fn get(
                d: &mut $crate::persist::wire::Decoder<'_>,
            ) -> Result<Self, $crate::persist::PersistError> {
                $(d.expect_tag($tag)?;)?
                let value = Self {
                    $($field: d.get::<$fty>()?,)*
                    $($($skip: Default::default(),)*)?
                };
                $(if !($check)(&value) {
                    return Err(d.invalid(concat!("inconsistent ", stringify!($ty))));
                })?
                Ok(value)
            }
        }
    };
}

/// Implements [`Wire`] for a fieldless enum as one `u8` tag per
/// variant (`Type { Variant = tag, .. }`).
macro_rules! wire_enum {
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl $crate::persist::wire::Wire for $ty {
            fn put(&self, e: &mut $crate::persist::wire::Encoder) {
                let tag: u8 = match self {
                    $($ty::$variant => $tag,)*
                };
                e.put(&tag);
            }
            fn get(
                d: &mut $crate::persist::wire::Decoder<'_>,
            ) -> Result<Self, $crate::persist::PersistError> {
                match d.get::<u8>()? {
                    $($tag => Ok($ty::$variant),)*
                    other => Err(d.invalid(format_args!(
                        concat!("unknown ", stringify!($ty), " tag {}"),
                        other
                    ))),
                }
            }
        }
    };
}

pub(crate) use {wire_enum, wire_struct};

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
        let nan = f64::from_bits(0x7FF8_0000_0000_1234); // NaN payload
        let mut e = Encoder::new();
        e.put(&7u8);
        e.put(&0xDEAD_BEEFu32);
        e.put(&u64::MAX);
        e.put(&42usize);
        e.put(&-0.0f64);
        e.put(&nan);
        e.put(&true);
        e.put(&String::from("façade"));
        e.put(&vec![1.5, f64::INFINITY]);
        e.put(&vec![vec![1u64, 2], vec![], vec![3]]);
        e.put(&vec![true, false]);
        e.put(&(Some(3u32), None::<u32>));
        e.put(&[9u64, 8, 7, 6]);
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes, "test");
        assert_eq!(d.get::<u8>().unwrap(), 7);
        assert_eq!(d.get::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get::<u64>().unwrap(), u64::MAX);
        assert_eq!(d.get::<usize>().unwrap(), 42);
        assert_eq!(d.get::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.get::<f64>().unwrap().to_bits(), nan.to_bits());
        assert!(d.get::<bool>().unwrap());
        assert_eq!(d.get::<String>().unwrap(), "façade");
        assert_eq!(d.get::<Vec<f64>>().unwrap(), vec![1.5, f64::INFINITY]);
        assert_eq!(
            d.get::<Vec<Vec<u64>>>().unwrap(),
            vec![vec![1, 2], vec![], vec![3]]
        );
        assert_eq!(d.get::<Vec<bool>>().unwrap(), vec![true, false]);
        assert_eq!(
            d.get::<(Option<u32>, Option<u32>)>().unwrap(),
            (Some(3), None)
        );
        assert_eq!(d.get::<[u64; 4]>().unwrap(), [9, 8, 7, 6]);
        d.finish().unwrap();
    }

    #[test]
    fn strict_decoding_rejects_bad_input() {
        // Underrun.
        let mut d = Decoder::new(&[1, 2], "test");
        assert!(matches!(d.get::<u32>(), Err(PersistError::Corrupt { .. })));

        // Trailing bytes.
        let d = Decoder::new(&[0], "test");
        assert!(matches!(d.finish(), Err(PersistError::Corrupt { .. })));

        // Absurd sequence length does not allocate, just errors.
        let bytes = encode(&u64::MAX);
        assert!(matches!(
            decode::<Vec<f64>>(&bytes, "test"),
            Err(PersistError::Corrupt { .. })
        ));

        // Invalid boolean and option presence bytes.
        assert!(matches!(
            decode::<bool>(&[2], "test"),
            Err(PersistError::Corrupt { .. })
        ));
        assert!(matches!(
            decode::<Option<u8>>(&[2, 0], "test"),
            Err(PersistError::Corrupt { .. })
        ));
    }
}
