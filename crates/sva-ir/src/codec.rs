//! The one codec behind every wire format (DESIGN.md §4.12).
//!
//! Bytecode, machine snapshots (`SVA1`), crash bundles (`SVAB`) and
//! coordinated multi-vCPU images (`SVAQ`) are all written with
//! [`Writer`] and read back with [`Reader`]; the three containers share
//! one header, written by [`frame`] and checked by [`unframe`]. Every
//! decoding rule therefore lives here once:
//!
//! * **Counts.** A length or element count passes [`Reader::count`],
//!   which rejects `n` elements of at least `min_elem_bytes` each when
//!   the remaining input cannot hold them — before anything is sized by
//!   the count. Arithmetic on untrusted numbers is checked.
//! * **Tags.** Bool and option tags are exactly 0 or 1.
//! * **Ends.** [`Reader::finish`] rejects trailing bytes, and
//!   [`unframe`] rejects bytes after the advertised payload.
//! * **Prefix width.** Length prefixes are `u32` in bytecode and `u64`
//!   in machine images. The width is the const parameter `P` of the
//!   reader and writer, so each format fixes it in code.
//!
//! All integers are little-endian.

use std::ops::RangeInclusive;

/// Why bytes did not decode. Each format maps it into its own error
/// type with `From`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends before `need` bytes; it holds `have`.
    Truncated {
        /// Bytes the reader needed (saturating).
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// A count of `n` elements the remaining input cannot hold.
    Count {
        /// The count read.
        n: u64,
        /// Bytes left when it was read.
        remaining: usize,
    },
    /// A tag, length or index outside what its field allows.
    Invalid {
        /// The field.
        what: &'static str,
        /// The offending value.
        value: u64,
    },
    /// A string that is not UTF-8.
    BadUtf8,
    /// Bytes left over after the last field.
    Trailing(usize),
    /// A container header's magic differs from the expected one.
    BadMagic([u8; 4]),
    /// A container header's version is outside the accepted range.
    BadVersion {
        /// Version in the header.
        found: u32,
        /// Newest version the caller accepts.
        newest: u32,
    },
    /// The payload checksum does not match.
    Corrupt {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated: need {need} bytes, have {have}")
            }
            CodecError::Count { n, remaining } => {
                write!(f, "count {n} exceeds the {remaining} remaining bytes")
            }
            CodecError::Invalid { what, value } => write!(f, "invalid {what} {value}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 string"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes"),
            CodecError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            CodecError::BadVersion { found, newest } => {
                write!(f, "format version {found}, newest supported {newest}")
            }
            CodecError::Corrupt { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit, the repo's content hash: container checksums, code
/// identities and manifests.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The length-prefix width `P`; any width but 4 (`u32`) or 8 (`u64`)
/// fails to compile.
struct Width<const P: usize>;

impl<const P: usize> Width<P> {
    const BYTES: usize = {
        assert!(P == 4 || P == 8, "length prefixes are u32 or u64");
        P
    };
}

/// Appends little-endian fields to a buffer; `P` is the byte width of
/// length prefixes.
#[derive(Default)]
pub struct Writer<const P: usize> {
    buf: Vec<u8>,
}

impl<const P: usize> Writer<P> {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes as they are, with no prefix.
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// A byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A bool as a 0/1 byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    /// An `i64`.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.raw(&v.to_le_bytes());
    }

    /// A length or element count, `P` bytes wide.
    #[inline]
    pub fn prefix(&mut self, n: usize) {
        if Width::<P>::BYTES == 4 {
            self.u32(n as u32);
        } else {
            self.u64(n as u64);
        }
    }

    /// Length-prefixed bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.prefix(b.len());
        self.raw(b);
    }

    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A bool tag, then the value through `f` when present.
    #[inline]
    pub fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Self, T)) {
        self.bool(v.is_some());
        if let Some(x) = v {
            f(self, x);
        }
    }

    /// An element count, then each element through `f`.
    #[inline]
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.prefix(items.len());
        for x in items {
            f(self, x);
        }
    }
}

/// Reads little-endian fields from a borrowed buffer, never past its
/// end; `P` is the byte width of length prefixes.
pub struct Reader<'a, const P: usize> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a, const P: usize> Reader<'a, P> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated {
                need: self.pos.saturating_add(n),
                have: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    /// A byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A bool: exactly 0 or 1.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::Invalid {
                what: "bool",
                value: v as u64,
            }),
        }
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// `N` consecutive `u64`s, such as a fixed block of counters.
    #[inline]
    pub fn u64s<const N: usize>(&mut self) -> Result<[u64; N], CodecError> {
        let b = self.take(8 * N)?;
        Ok(std::array::from_fn(|i| {
            u64::from_le_bytes(b[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        }))
    }

    /// Checks a count of `n` elements, each encoded in at least
    /// `min_elem_bytes` bytes, against the remaining input. The one
    /// guard every count passes before it sizes anything.
    #[inline]
    pub fn count(&self, n: u64, min_elem_bytes: usize) -> Result<usize, CodecError> {
        debug_assert!(min_elem_bytes > 0);
        usize::try_from(n)
            .ok()
            .filter(|&k| {
                k.checked_mul(min_elem_bytes)
                    .is_some_and(|b| b <= self.remaining())
            })
            .ok_or(CodecError::Count {
                n,
                remaining: self.remaining(),
            })
    }

    /// A `P`-byte length prefix, checked by [`Reader::count`].
    #[inline]
    pub fn prefix(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = if Width::<P>::BYTES == 4 {
            self.u32()? as u64
        } else {
            self.u64()?
        };
        self.count(n, min_elem_bytes)
    }

    /// Length-prefixed bytes, borrowed from the input.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.prefix(1)?;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    /// A bool tag, then the value through `f` when present.
    #[inline]
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        if self.bool()? {
            f(self).map(Some)
        } else {
            Ok(None)
        }
    }

    /// A prefixed count of elements of at least `min_elem_bytes` bytes
    /// each, read through `f`.
    #[inline]
    pub fn vec<T>(
        &mut self,
        min_elem_bytes: usize,
        mut f: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.prefix(min_elem_bytes)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(f(self)?);
        }
        Ok(v)
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }
}

/// Size of a container header with `extra_len` format-specific bytes.
pub const fn header_len(extra_len: usize) -> usize {
    4 + 4 + extra_len + 8 + 8
}

/// Wraps `payload` in the shared container header:
/// `magic | version u32 | extra | payload_len u64 | checksum u64`,
/// the checksum being [`fnv64`] of the payload.
pub fn frame(magic: [u8; 4], version: u32, extra: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::<8> {
        buf: Vec::with_capacity(header_len(extra.len()) + payload.len()),
    };
    w.raw(&magic);
    w.u32(version);
    w.raw(extra);
    w.u64(payload.len() as u64);
    w.u64(fnv64(payload));
    w.raw(payload);
    w.buf
}

/// A container [`unframe`] accepted.
#[derive(Debug)]
pub struct Framed<'a> {
    /// Format version from the header.
    pub version: u32,
    /// The format-specific header bytes.
    pub extra: &'a [u8],
    /// The checksummed payload.
    pub payload: &'a [u8],
}

/// Checks a container written by [`frame`], in this order: header
/// length, magic, version within `versions`, payload length, no bytes
/// after the payload, checksum.
pub fn unframe<'a>(
    bytes: &'a [u8],
    magic: [u8; 4],
    versions: RangeInclusive<u32>,
    extra_len: usize,
) -> Result<Framed<'a>, CodecError> {
    let header = header_len(extra_len);
    if bytes.len() < header {
        return Err(CodecError::Truncated {
            need: header,
            have: bytes.len(),
        });
    }
    let mut r = Reader::<8>::new(bytes);
    let found = r.array()?;
    if found != magic {
        return Err(CodecError::BadMagic(found));
    }
    let version = r.u32()?;
    if !versions.contains(&version) {
        return Err(CodecError::BadVersion {
            found: version,
            newest: *versions.end(),
        });
    }
    let extra = r.take(extra_len)?;
    let payload_len = r.u64()?;
    let stored = r.u64()?;
    let payload = r.take(usize::try_from(payload_len).unwrap_or(usize::MAX))?;
    r.finish()?;
    let computed = fnv64(payload);
    if computed != stored {
        return Err(CodecError::Corrupt { stored, computed });
    }
    Ok(Framed {
        version,
        extra,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_rejects_what_the_input_cannot_hold() {
        let r = Reader::<8>::new(&[0; 16]);
        assert_eq!(r.count(16, 1), Ok(16));
        assert_eq!(r.count(2, 8), Ok(2));
        assert_eq!(
            r.count(3, 8),
            Err(CodecError::Count {
                n: 3,
                remaining: 16
            })
        );
        assert_eq!(
            r.count(17, 1).unwrap_err(),
            CodecError::Count {
                n: 17,
                remaining: 16
            }
        );
        // n × min_elem_bytes overflows: rejected, not wrapped.
        assert!(r.count(u64::MAX, 1).is_err());
        assert!(r.count(1 << 62, 8).is_err());
        assert!(r.count((usize::MAX / 2 + 1) as u64, 2).is_err());
        // The same rule guards prefixed counts of either width.
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 12]);
        assert_eq!(Reader::<4>::new(&bytes).prefix(4), Ok(3));
        assert!(Reader::<4>::new(&bytes).prefix(5).is_err());
        assert!(Reader::<8>::new(&u64::MAX.to_le_bytes()).bytes().is_err());
    }

    #[test]
    fn tags_are_exactly_zero_or_one() {
        assert_eq!(Reader::<8>::new(&[1]).bool(), Ok(true));
        assert_eq!(
            Reader::<8>::new(&[2]).bool(),
            Err(CodecError::Invalid {
                what: "bool",
                value: 2
            })
        );
        let mut r = Reader::<8>::new(&[7, 9]);
        assert!(r.opt(|r| r.u8()).is_err());
    }

    #[test]
    fn take_is_bounded_and_finish_rejects_leftovers() {
        let mut r = Reader::<4>::new(&[1, 2, 3]);
        assert_eq!(
            r.take(usize::MAX),
            Err(CodecError::Truncated {
                need: usize::MAX,
                have: 3
            })
        );
        assert_eq!(r.take(2), Ok(&[1u8, 2][..]));
        assert_eq!(r.finish(), Err(CodecError::Trailing(1)));
        r.u8().unwrap();
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn unframe_checks_in_order() {
        let framed = frame(*b"TEST", 2, &[9; 4], b"payload");
        assert_eq!(framed.len(), header_len(4) + 7);
        let f = unframe(&framed, *b"TEST", 1..=2, 4).unwrap();
        assert_eq!(
            (f.version, f.extra, f.payload),
            (2, &[9u8; 4][..], &b"payload"[..])
        );

        let short = unframe(&framed[..27], *b"TEST", 1..=2, 4);
        assert_eq!(
            short.unwrap_err(),
            CodecError::Truncated { need: 28, have: 27 }
        );
        assert!(matches!(
            unframe(&framed, *b"TESU", 1..=2, 4),
            Err(CodecError::BadMagic(_))
        ));
        assert_eq!(
            unframe(&framed, *b"TEST", 3..=3, 4).unwrap_err(),
            CodecError::BadVersion {
                found: 2,
                newest: 3
            }
        );
        let mut long = framed.clone();
        long.push(0);
        assert_eq!(
            unframe(&long, *b"TEST", 1..=2, 4).unwrap_err(),
            CodecError::Trailing(1)
        );
        let mut flipped = framed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            unframe(&flipped, *b"TEST", 1..=2, 4),
            Err(CodecError::Corrupt { .. })
        ));
        // Payload lengths near 2^64 are truncation, never an overflow.
        for len in [u64::MAX, u64::MAX - 27, 1 << 63] {
            let mut hostile = framed[..28].to_vec();
            hostile[12..20].copy_from_slice(&len.to_le_bytes());
            assert!(matches!(
                unframe(&hostile, *b"TEST", 1..=2, 4),
                Err(CodecError::Truncated { .. })
            ));
        }
    }
}
