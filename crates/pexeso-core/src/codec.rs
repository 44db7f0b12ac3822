//! The one little-endian byte codec behind every binary format of the
//! system: the index file ([`crate::persist`]), the delta log
//! (`pexeso-delta`'s `wal`) and the wire protocol (`pexeso-serve`'s
//! `protocol`).
//!
//! It knows how a field is laid out in bytes and nothing else:
//!
//! * integers and floats are little-endian, a `bool` is one byte `0|1`;
//! * a `str` is a `u32` byte length followed by UTF-8 bytes;
//! * an `opt T` is a tag byte `0|1`, followed by `T` when `1`;
//! * an `f32` array is its elements back to back, its length stored (or
//!   implied) by the format that owns it;
//! * two checksums, each stamped by the formats it suits:
//!   - [`crc32c`] (Castagnoli, RFC 3720) closes the index file. A
//!     partition file runs to megabytes and is checked on every load, so
//!     its checksum must run at memory speed: one `crc32` instruction per
//!     8 bytes where SSE4.2 is present, a slicing-by-8 table otherwise.
//!     CRC32C also detects every burst of up to 32 bits and, in a file
//!     under 256 MiB, every error of up to 3 bits.
//!   - [`fnv64`] (FNV-1a 64) closes the delta log's header and each of
//!     its records, and keys the daemon's result cache
//!     (`query_fingerprint`). Those inputs are a few hundred bytes, where
//!     FNV's serial chain costs nothing, and their golden tests pin it.
//!
//! Magic numbers, versions, field order and caps belong to each format.
//! [`Dec`] treats its input as hostile: every read is bounds-checked
//! before anything is allocated for it, every length is checked against
//! the caller's limit, and [`Dec::finish`] refuses trailing bytes. Its
//! [`DecodeError`] converts into the owning format's error
//! ([`PexesoError::Corrupt`] here, `WireError::Malformed` on the wire), so
//! call sites use `?`.

use std::fmt;
use std::io::{self, Read};
#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

use crate::error::PexesoError;

/// The longest table or column name any format stores. The index file
/// and the delta log refuse a longer one on read, so the delta log's
/// writer refuses it before a byte is written.
pub const MAX_NAME_BYTES: u32 = 1 << 16;

/// FNV-1a 64 of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// CRC32C (Castagnoli, RFC 3720) of `bytes`: the reflected polynomial
/// `0x82f63b78`, initial value and final xor `0xffffffff`. Runs the SSE4.2
/// `crc32` instruction where the CPU has it (detected once and cached;
/// `PEXESO_FORCE_SCALAR` turns it off), else a bit-identical
/// slicing-by-8 table loop.
pub fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if crc32c_hw() {
        // SAFETY: `crc32c_hw` holds only where the CPU reports SSE4.2.
        return unsafe { crc32c_sse42(bytes) };
    }
    crc32c_table(bytes)
}

/// Whether [`crc32c`] takes the hardware path in this process.
#[cfg(target_arch = "x86_64")]
fn crc32c_hw() -> bool {
    static HW: OnceLock<bool> = OnceLock::new();
    *HW.get_or_init(|| {
        !crate::kernel::force_scalar() && std::arch::is_x86_feature_detected!("sse4.2")
    })
}

/// The hardware path: one stream of `crc32` over 8-byte words, then over
/// the tail bytes.
///
/// # Safety
///
/// The CPU must support SSE4.2.
// SAFETY: needs SSE4.2 (`crc32c_hw`); any slice is valid. CI's both tiers
// run `crc32c_hardware_path_equals_table_path` and
// `simd_differential.rs::crc32c_matches_a_bitwise_reference`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut crc = u64::from(!0u32);
    for w in &mut words {
        crc = _mm_crc32_u64(
            crc,
            u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes")),
        );
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// `CRC32C_TABLES[0]` is the byte-at-a-time table; `CRC32C_TABLES[k][b]`
/// is the CRC of byte `b` followed by `k` zero bytes, so eight lookups
/// advance the register by a whole 8-byte word.
static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ 0x82f63b78
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// The portable path: slicing-by-8.
fn crc32c_table(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut words = bytes.chunks_exact(8);
    let mut crc = !0u32;
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// A `Vec<u8>`-backed encoder. Encoding never fails: a format's caps are
/// checked by its writer before it encodes.
#[derive(Debug, Default)]
pub struct Enc(Vec<u8>);

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }
    pub fn with_capacity(bytes: usize) -> Self {
        Enc(Vec::with_capacity(bytes))
    }
    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn bool(&mut self, v: bool) {
        self.0.push(v as u8);
    }
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn f32(&mut self, v: f32) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }
    /// `u32` byte length, then the UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    /// The elements back to back, no length.
    pub fn f32s(&mut self, data: &[f32]) {
        self.0.reserve(data.len() * 4);
        for v in data {
            self.bytes(&v.to_le_bytes());
        }
    }
    /// Tag `0`, or tag `1` followed by what `put` writes.
    pub fn opt<T>(&mut self, v: Option<T>, put: impl FnOnce(&mut Self, T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                put(self, x);
            }
        }
    }
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Bytes that do not decode: truncated, over a limit, not canonical, or
/// followed by trailing bytes.
#[derive(Debug, PartialEq, Eq)]
pub struct DecodeError(String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<DecodeError> for PexesoError {
    fn from(e: DecodeError) -> Self {
        PexesoError::Corrupt(e.0)
    }
}

type DecResult<T> = std::result::Result<T, DecodeError>;

/// A bounds-checked reader over one slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }
    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let left = self.buf.len() - self.pos;
        if n > left {
            return Err(DecodeError(format!(
                "truncated: {n} bytes wanted at offset {}, {left} left",
                self.pos
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn array<const N: usize>(&mut self) -> DecResult<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.bytes(N)?);
        Ok(a)
    }
    pub fn u8(&mut self) -> DecResult<u8> {
        Ok(self.bytes(1)?[0])
    }
    /// Exactly `0` or `1`, as [`Enc::bool`] writes it.
    pub fn bool(&mut self) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError(format!("flag byte {b} is not 0|1"))),
        }
    }
    pub fn u32(&mut self) -> DecResult<u32> {
        self.array().map(u32::from_le_bytes)
    }
    pub fn u64(&mut self) -> DecResult<u64> {
        self.array().map(u64::from_le_bytes)
    }
    pub fn f32(&mut self) -> DecResult<f32> {
        self.array().map(f32::from_le_bytes)
    }
    pub fn f64(&mut self) -> DecResult<f64> {
        self.array().map(f64::from_le_bytes)
    }
    /// A `str` of at most `limit` bytes; a longer length is refused before
    /// anything is read or allocated for it.
    pub fn str(&mut self, limit: u32) -> DecResult<String> {
        let len = self.u32()?;
        if len > limit {
            return Err(DecodeError(format!(
                "string of {len} bytes exceeds limit {limit}"
            )));
        }
        let bytes = self.bytes(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| DecodeError(format!("invalid utf-8: {e}")))
    }
    /// `n` `f32`s; allocates only once the bytes are known to be there.
    pub fn f32_vec(&mut self, n: usize) -> DecResult<Vec<f32>> {
        let n_bytes = n
            .checked_mul(4)
            .ok_or_else(|| DecodeError(format!("f32 array of {n} elements overflows")))?;
        Ok(self
            .bytes(n_bytes)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
    /// Tag `0` is `None`; tag `1` is followed by what `take` reads.
    pub fn opt<T, E: From<DecodeError>>(
        &mut self,
        take: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Option<T>, E> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(take(self)?)),
            t => Err(DecodeError(format!("unknown option tag {t}")).into()),
        }
    }
    /// Every byte read so far.
    pub fn consumed(&self) -> &'a [u8] {
        &self.buf[..self.pos]
    }
    /// The input must end here.
    pub fn finish(&self) -> DecResult<()> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(DecodeError(format!("{n} trailing bytes"))),
        }
    }
}

/// The rows of `width` `f32`s that `bytes` holds back to back (as
/// [`Enc::f32s`] wrote them), in the order `rows` lists their indexes.
/// Panics when an index names no whole row.
pub fn f32_rows(bytes: &[u8], width: usize, rows: &[u32]) -> Vec<f32> {
    let row_bytes = width * 4;
    let mut out = Vec::with_capacity(rows.len() * width);
    for &row in rows {
        let at = row as usize * row_bytes;
        let floats = bytes[at..at + row_bytes].chunks_exact(4);
        out.extend(floats.map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])));
    }
    out
}

/// Read a `u32` length prefix from a stream. `Ok(None)` is a clean end of
/// stream before its first byte; an end inside it is a [`DecodeError`],
/// any other I/O failure stays an I/O error.
pub fn read_len_prefix<E>(r: &mut impl Read) -> Result<Option<u32>, E>
where
    E: From<io::Error> + From<DecodeError>,
{
    let mut buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(DecodeError(format!("eof after {got} of 4 prefix bytes")).into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Some(u32::from_le_bytes(buf)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of each primitive, edge values included.
    fn sample() -> Vec<u8> {
        let mut w = Enc::new();
        w.bytes(b"MAGC");
        w.u8(0xfe);
        w.bool(true);
        w.bool(false);
        w.u32(u32::MAX);
        w.u64(0x0123_4567_89ab_cdef);
        w.f32(-0.0);
        w.f64(f64::MIN_POSITIVE);
        w.str("");
        w.str("tab\u{e9}");
        w.f32s(&[1.0, f32::INFINITY, -2.5]);
        w.opt(None::<u64>, Enc::u64);
        w.opt(Some(7u32), Enc::u32);
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> DecResult<()> {
        let mut r = Dec::new(bytes);
        assert_eq!(r.bytes(4)?, b"MAGC");
        assert_eq!(r.u8()?, 0xfe);
        assert!(r.bool()?);
        assert!(!r.bool()?);
        assert_eq!(r.u32()?, u32::MAX);
        assert_eq!(r.u64()?, 0x0123_4567_89ab_cdef);
        assert_eq!(r.f32()?.to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64()?, f64::MIN_POSITIVE);
        assert_eq!(r.str(0)?, "");
        assert_eq!(r.str(5)?, "tab\u{e9}");
        assert_eq!(r.f32_vec(3)?, vec![1.0, f32::INFINITY, -2.5]);
        assert_eq!(r.opt(Dec::u64)?, None);
        assert_eq!(r.opt(Dec::u32)?, Some(7));
        r.finish()
    }

    #[test]
    fn every_primitive_round_trips() {
        let bytes = sample();
        decode(&bytes).unwrap();
        assert_eq!(
            bytes.len(),
            4 + 1 + 2 + 4 + 8 + 4 + 8 + 4 + (4 + 5) + 12 + 1 + 5
        );
    }

    #[test]
    fn every_strict_prefix_is_an_error() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "{cut}-byte prefix decoded");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode(&long), Err(DecodeError("1 trailing bytes".into())));
    }

    #[test]
    fn lengths_are_checked_before_allocation() {
        let huge = u32::MAX.to_le_bytes();
        let err = Dec::new(&huge).str(16).unwrap_err();
        assert!(err.to_string().contains("exceeds limit 16"), "{err}");
        // Within the limit but past the end: refused by the bounds check,
        // not by a 4 GiB allocation.
        assert!(Dec::new(&huge).str(u32::MAX).is_err());
        assert!(Dec::new(&[]).f32_vec(usize::MAX).is_err());
        assert!(Dec::new(&[0; 7]).f32_vec(2).is_err());
        assert!(Dec::new(&[2, 0, 0, 0, 0xff, 0xfe]).str(2).is_err()); // not utf-8
    }

    #[test]
    fn tags_and_flags_are_canonical() {
        assert!(Dec::new(&[2]).bool().is_err());
        assert!(Dec::new(&[2, 0, 0, 0, 0]).opt(Dec::u32).is_err());
        let err: PexesoError = Dec::new(&[]).u8().unwrap_err().into();
        assert!(matches!(err, PexesoError::Corrupt(_)));
    }

    #[test]
    fn fnv64_is_fnv1a() {
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    /// RFC 3720, appendix B.4.
    #[test]
    fn crc32c_matches_the_rfc_3720_vectors() {
        let up: Vec<u8> = (0..32).collect();
        let down: Vec<u8> = (0..32).rev().collect();
        let cases: [(&[u8], u32); 6] = [
            (&[], 0),
            (&[0x00; 32], 0x8A9136AA),
            (&[0xFF; 32], 0x62A8AB43),
            (&up, 0x46DD794E),
            (&down, 0x113FDB5C),
            (b"123456789", 0xE3069283),
        ];
        for (bytes, want) in cases {
            assert_eq!(crc32c(bytes), want, "{bytes:02x?}");
            assert_eq!(crc32c_table(bytes), want, "{bytes:02x?}");
        }
    }

    /// Both paths are called directly, so this means the same whether or
    /// not `PEXESO_FORCE_SCALAR` is set. Every length up to 1024 at every
    /// start offset in a word covers each tail length and alignment.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn crc32c_hardware_path_equals_table_path() {
        if !std::arch::is_x86_feature_detected!("sse4.2") {
            return;
        }
        let data: Vec<u8> = (0u32..1032)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for off in 0..8 {
            for len in 0..=1024 {
                let s = &data[off..off + len];
                // SAFETY: the CPU reports SSE4.2 (checked above).
                let hw = unsafe { crc32c_sse42(s) };
                assert_eq!(hw, crc32c_table(s), "offset {off}, length {len}");
            }
        }
    }

    /// Hands out one byte per `read`, failing once with `Interrupted`.
    struct Trickle<'a>(&'a [u8], bool);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.1 {
                self.1 = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn len_prefix_tells_a_clean_end_from_a_torn_one() {
        let read = |bytes: &[u8]| read_len_prefix::<PexesoError>(&mut Trickle(bytes, false));
        assert!(read(&[]).unwrap().is_none());
        assert_eq!(read(&[5, 0, 0, 0, 9]).unwrap(), Some(5));
        for cut in 1..4 {
            assert!(matches!(read(&[1; 3][..cut]), Err(PexesoError::Corrupt(_))));
        }
        assert!(matches!(
            read_len_prefix::<PexesoError>(&mut Failing),
            Err(PexesoError::Io(_))
        ));
    }

    struct Failing;

    impl Read for Failing {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }
}
