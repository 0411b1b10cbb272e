//! The workspace's one set of binary encode/decode primitives, shared by
//! every durable byte format: this crate's log records, segment headers
//! and page files, and the serving crate's wire protocol, `PipelineSpec`
//! canonical encoding and `Snapshot` file format.
//!
//! The conventions: big-endian integers, `u16`-length-prefixed UTF-8
//! strings (`u64`-prefixed where keys are unbounded), `u32`-dimension
//! hypervectors with clean-tail validation, and bounds-checked decoding
//! whose preallocations are clamped by the bytes actually present. Every
//! read goes through the panic-free [`be_u16`]/[`be_u32`]/[`be_u64`], so
//! truncated or corrupt input is an `InvalidData` error, never a panic.

use std::io;

use hdc_core::BinaryHypervector;

/// Appends a big-endian `u16`.
#[inline]
pub fn put_u16(buf: &mut Vec<u8>, value: u16) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Appends a big-endian `u32`.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Appends a big-endian `u64`.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, value: u64) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Appends a big-endian `i32`.
#[inline]
pub fn put_i32(buf: &mut Vec<u8>, value: i32) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Appends a big-endian `i64`.
#[inline]
pub fn put_i64(buf: &mut Vec<u8>, value: i64) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Appends a big-endian IEEE-754 `f64`.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, value: f64) {
    buf.extend_from_slice(&value.to_be_bytes());
}

/// Appends a string with a `u16` length prefix — the wire protocol's key
/// format.
pub fn put_string(buf: &mut Vec<u8>, value: &str) -> io::Result<()> {
    let len = u16::try_from(value.len()).map_err(|_| {
        invalid(format!(
            "key of {} bytes exceeds the u16 limit",
            value.len()
        ))
    })?;
    put_u16(buf, len);
    buf.extend_from_slice(value.as_bytes());
    Ok(())
}

/// Appends a string with a `u64` length prefix — for formats whose keys
/// are not bounded by the wire protocol's `u16` limit (log records and
/// snapshot item memories: local inserts accept any key length, so
/// serialization must too).
pub fn put_long_string(buf: &mut Vec<u8>, value: &str) {
    put_u64(buf, value.len() as u64);
    buf.extend_from_slice(value.as_bytes());
}

/// Appends an opaque byte blob with a `u32` length prefix — the wire
/// carrier for embedded formats with their own framing (snapshot bytes).
pub fn put_bytes(buf: &mut Vec<u8>, value: &[u8]) -> io::Result<()> {
    let len = u32::try_from(value.len()).map_err(|_| {
        invalid(format!(
            "blob of {} bytes exceeds the u32 limit",
            value.len()
        ))
    })?;
    put_u32(buf, len);
    buf.extend_from_slice(value);
    Ok(())
}

/// Appends a hypervector: `u32` dimension, then its packed `u64` words.
pub fn put_hv(buf: &mut Vec<u8>, hv: &BinaryHypervector) -> io::Result<()> {
    let dim = u32::try_from(hv.dim()).map_err(|_| invalid("dimension exceeds u32"))?;
    put_u32(buf, dim);
    for word in hv.as_words() {
        put_u64(buf, *word);
    }
    Ok(())
}

/// Appends an LEB128 varint — the compressed record codec's integer
/// format, where gap-encoded bit indices are usually one byte.
pub fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// An `InvalidData` error carrying `message`.
pub fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads a big-endian `u16` at byte offset `at`, or `None` when the
/// slice ends first — the panic-free form the durability paths use
/// instead of `bytes[a..b].try_into().expect(..)`, which would turn a
/// truncated or corrupt file into a process abort instead of an
/// [`HdcError`](hdc_core::HdcError).
#[must_use]
#[inline]
pub fn be_u16(bytes: &[u8], at: usize) -> Option<u16> {
    let arr: [u8; 2] = bytes.get(at..at.checked_add(2)?)?.try_into().ok()?;
    Some(u16::from_be_bytes(arr))
}

/// Reads a big-endian `u32` at byte offset `at` (see [`be_u16`]).
#[must_use]
#[inline]
pub fn be_u32(bytes: &[u8], at: usize) -> Option<u32> {
    let arr: [u8; 4] = bytes.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_be_bytes(arr))
}

/// Reads a big-endian `u64` at byte offset `at` (see [`be_u16`]).
#[must_use]
#[inline]
pub fn be_u64(bytes: &[u8], at: usize) -> Option<u64> {
    let arr: [u8; 8] = bytes.get(at..at.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_be_bytes(arr))
}

/// A bounds-checked reader over one decoded body: every read validates
/// the remaining length, and [`finish`](Cursor::finish) rejects trailing
/// garbage so a well-formed prefix cannot smuggle extra bytes.
#[derive(Debug)]
pub struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `body`.
    #[must_use]
    pub fn new(body: &'a [u8]) -> Self {
        Self { body, at: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.body.len())
            .ok_or_else(truncated)?;
        let slice = &self.body[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// Reads one big-endian integer through its panic-free `be_u*`.
    #[inline]
    fn fixed<T>(&mut self, read: fn(&[u8], usize) -> Option<T>) -> io::Result<T> {
        let value = read(self.body, self.at).ok_or_else(truncated)?;
        self.at += std::mem::size_of::<T>();
        Ok(value)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> io::Result<u16> {
        self.fixed(be_u16)
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> io::Result<u32> {
        self.fixed(be_u32)
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> io::Result<u64> {
        self.fixed(be_u64)
    }

    /// Reads a big-endian `i32`.
    #[inline]
    pub fn i32(&mut self) -> io::Result<i32> {
        Ok(i32::from_be_bytes(self.u32()?.to_be_bytes()))
    }

    /// Reads a big-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> io::Result<i64> {
        Ok(i64::from_be_bytes(self.u64()?.to_be_bytes()))
    }

    /// Reads a big-endian IEEE-754 `f64`.
    #[inline]
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Bytes left unread — the bound every length-driven preallocation
    /// must respect, so a corrupt declared count cannot trigger a giant
    /// reservation before the first failed read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.body.len() - self.at
    }

    /// Reads an LEB128 varint (see [`put_varint`]).
    pub fn varint(&mut self) -> io::Result<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(invalid("varint exceeds u64"))
    }

    /// Reads a `u16`-length-prefixed string (see [`put_string`]).
    pub fn string(&mut self) -> io::Result<String> {
        let len = self.u16()? as usize;
        utf8(self.take(len)?)
    }

    /// Reads a `u64`-length-prefixed string (see [`put_long_string`]).
    pub fn long_string(&mut self) -> io::Result<String> {
        let len = self.u64()?;
        let len = usize::try_from(len).map_err(|_| invalid("string length exceeds usize"))?;
        utf8(self.take(len)?)
    }

    /// Reads a `u32`-length-prefixed byte blob (see [`put_bytes`]).
    pub fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a hypervector (see [`put_hv`]), refusing dimension 0 and bits
    /// set beyond the dimension.
    pub fn hv(&mut self) -> io::Result<BinaryHypervector> {
        let dim = self.u32()? as usize;
        if dim == 0 {
            return Err(invalid("hypervector dimension 0"));
        }
        let words = dim.div_ceil(64);
        // Capacity clamped by the bytes actually present: a corrupt dim
        // fails on the first missing word instead of reserving gigabytes.
        let mut packed = Vec::with_capacity(words.min(self.remaining() / 8 + 1));
        for _ in 0..words {
            packed.push(self.u64()?);
        }
        let rem = dim % 64;
        if rem != 0 && packed.last().is_some_and(|&last| last >> rem != 0) {
            return Err(invalid("bits set beyond the hypervector dimension"));
        }
        Ok(BinaryHypervector::from_words(dim, packed))
    }

    /// Ends the read.
    pub fn finish(self) -> io::Result<()> {
        if self.at != self.body.len() {
            return Err(invalid("trailing bytes after frame body"));
        }
        Ok(())
    }
}

fn truncated() -> io::Error {
    invalid("truncated frame body")
}

fn utf8(bytes: &[u8]) -> io::Result<String> {
    String::from_utf8(bytes.to_vec()).map_err(|_| invalid("key is not valid UTF-8"))
}
