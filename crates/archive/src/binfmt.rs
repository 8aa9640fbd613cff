//! Versioned, self-describing **binary** archive format (`.gar`), specified
//! in `docs/ARCHIVE_FORMAT.md`.
//!
//! The JSON envelope of [`crate::format`] is the sharing format; this module
//! is the *serving* format: stores are archived once and re-queried many
//! times without re-simulation, so loading them must not pay JSON
//! tokenization costs.
//!
//! A v3 file is a header (magic `b"GRNA"`, version `u32` LE), a RUN frame
//! (the run header), one JOB frame per archive, a TRAILER frame (the
//! per-job offset table) and a 16-byte footer (the trailer's offset, its
//! CRC32C, and `b"GREN"`). Every frame is checksummed on its own:
//!
//! ```text
//! frame := kind u8 | payload_len u32 LE | payload | crc32c u32 LE
//! ```
//!
//! where the CRC32C ([`crate::crc`]) covers `kind + payload_len + payload`.
//! A bit flip, torn write, or truncation therefore damages *frames*, not
//! the file. Every reader checks frames through one function,
//! `check_frame`: the strict walk behind [`store_from_bytes`] and
//! [`frame_table`], the salvage layer ([`crate::salvage`]), and the mmap'd
//! reader ([`crate::zerocopy`]), which finds per-job extents through the
//! trailer, reachable from the footer even when mid-file frames are
//! mangled. Only v3 is read: the retired unframed v1/v2 headers are
//! [`BinError::UnsupportedVersion`].
//!
//! A payload is one tagged value (all lengths/counts are LEB128 varints):
//!
//! | tag  | variant | body                                        |
//! |------|---------|---------------------------------------------|
//! | 0x00 | Null    | —                                           |
//! | 0x01 | Bool    | 1 byte (0/1)                                |
//! | 0x02 | Int     | zig-zag varint                              |
//! | 0x03 | UInt    | varint                                      |
//! | 0x04 | Float   | 8 bytes, `f64::to_bits` LE (bit for bit)    |
//! | 0x05 | Str     | varint byte length + UTF-8 bytes            |
//! | 0x06 | Array   | varint count + that many values             |
//! | 0x07 | Object  | varint count + that many (Str-body, value)  |
//!
//! Payloads take the serde shim's direct path: the derived
//! [`Serialize::write_to`] writes a type straight into the file buffer,
//! and [`Deserialize::read_from`] reads it back, with no [`serde::Value`]
//! tree in between. The bytes are those of the tree (fields in declaration
//! order, map keys sorted), so equal stores give byte-identical files.
//! The decoder treats every length, count, and tag as **hostile**: counts
//! are capped by the bytes remaining before any allocation, nesting by
//! [`MAX_VALUE_DEPTH`] (also inside a skipped unknown key's value), and
//! every malformed shape is a structured [`BinError`], never a panic.

use std::fmt;
use std::fs;
use std::path::Path;

use serde::{DeError, Deserialize, Serialize, Sink, Source, Token};

use crate::crc::crc32c;
use crate::durable;
use crate::store::ArchiveStore;

/// File magic: "GRanula Native Archive".
pub const MAGIC: [u8; 4] = *b"GRNA";

/// End-of-file magic closing the footer.
pub const END_MAGIC: [u8; 4] = *b"GREN";

/// Current binary format version (v3: checksummed frames + trailer).
pub const BIN_FORMAT_VERSION: u32 = 3;

/// Maximum nesting depth of a decoded value tree. Archives serialize
/// flat (operations are arrays indexed by id, not recursive structures),
/// so real payloads stay under ~16 levels; the cap only exists to turn a
/// forged `[[[[…` chain into an error instead of a stack overflow.
pub const MAX_VALUE_DEPTH: usize = 64;

const TAG_NULL: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_INT: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_ARRAY: u8 = 0x06;
const TAG_OBJECT: u8 = 0x07;

/// Frame kinds of format v3.
pub const FRAME_RUN: u8 = 0x01;
/// One serialized [`crate::archive::JobArchive`].
pub const FRAME_JOB: u8 = 0x02;
/// The per-job offset table closing the frame sequence.
pub const FRAME_TRAILER: u8 = 0x03;

/// Frame header bytes (`kind u8` + `payload_len u32`).
pub const FRAME_HEADER_LEN: usize = 5;
/// Bytes a frame adds around its payload (header + trailing CRC).
pub const FRAME_OVERHEAD: usize = FRAME_HEADER_LEN + 4;
/// Footer bytes (`trailer offset u64` + CRC + end magic).
pub const FOOTER_LEN: usize = 16;
/// File header bytes (magic + version).
pub const HEADER_LEN: usize = 8;

/// Errors raised while encoding/decoding binary archives.
#[derive(Debug)]
pub enum BinError {
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The file header names a format version other than
    /// [`BIN_FORMAT_VERSION`] (the retired v1/v2, or a future one).
    UnsupportedVersion(u32),
    /// The payload ended before a complete value was read.
    Truncated,
    /// Bytes remain after a payload's value, the trailer's table, or the
    /// footer.
    TrailingBytes(usize),
    /// An unknown value tag was encountered.
    BadTag(u8),
    /// A string body was not valid UTF-8.
    BadUtf8,
    /// A value nested deeper than [`MAX_VALUE_DEPTH`].
    TooDeep(usize),
    /// A varint ran past 64 bits.
    VarintOverflow,
    /// A frame's CRC32C did not match its bytes.
    FrameChecksum {
        /// Byte offset of the frame within the file.
        offset: usize,
    },
    /// A frame header carried an unknown or out-of-order kind byte.
    BadFrameKind {
        /// Byte offset of the frame within the file.
        offset: usize,
        /// The kind byte found.
        kind: u8,
    },
    /// The frame sequence, trailer, or footer is structurally invalid
    /// (mismatched offset table, bad footer, duplicate job id, …).
    Malformed(String),
    /// The decoded value tree did not have the expected shape.
    De(DeError),
    /// Underlying filesystem error.
    Io(std::io::Error),
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinError::BadMagic(m) => write!(f, "bad archive magic {m:?} (expected {MAGIC:?})"),
            BinError::UnsupportedVersion(v) => write!(
                f,
                "binary archive version {v} is not supported: only version \
                 {BIN_FORMAT_VERSION} is read"
            ),
            BinError::Truncated => write!(f, "binary archive truncated"),
            BinError::TrailingBytes(n) => write!(f, "{n} trailing bytes after archive payload"),
            BinError::BadTag(t) => write!(f, "unknown value tag 0x{t:02x}"),
            BinError::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            BinError::TooDeep(d) => {
                write!(f, "value nesting exceeds depth limit {d}")
            }
            BinError::VarintOverflow => write!(f, "varint overflows 64 bits"),
            BinError::FrameChecksum { offset } => {
                write!(f, "frame at byte {offset} failed its CRC32C check")
            }
            BinError::BadFrameKind { offset, kind } => {
                write!(f, "unexpected frame kind 0x{kind:02x} at byte {offset}")
            }
            BinError::Malformed(what) => write!(f, "malformed archive: {what}"),
            BinError::De(e) => write!(f, "archive shape error: {e}"),
            BinError::Io(e) => write!(f, "archive I/O error: {e}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<DeError> for BinError {
    fn from(e: DeError) -> Self {
        BinError::De(e)
    }
}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        BinError::Io(e)
    }
}

// ------------------------------------------------------------- primitives

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, BinError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*pos).ok_or(BinError::Truncated)?;
        *pos += 1;
        // The tenth byte carries bit 63 only; anything above it overflows.
        if shift == 63 && byte > 1 {
            return Err(BinError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads a varint length and the bytes it covers. The length is
/// untrusted: the slice is checked against the input before any copy.
fn get_bytes<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a [u8], BinError> {
    let len = get_varint(bytes, pos)? as usize;
    let end = pos.checked_add(len).ok_or(BinError::Truncated)?;
    let slice = bytes.get(*pos..end).ok_or(BinError::Truncated)?;
    *pos = end;
    Ok(slice)
}

fn get_str<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<&'a str, BinError> {
    std::str::from_utf8(get_bytes(bytes, pos)?).map_err(|_| BinError::BadUtf8)
}

// ---------------------------------------------------------------- values

/// Appends tagged values to a buffer: the serde shim's direct path.
struct Writer<'a>(&'a mut Vec<u8>);

impl Sink for Writer<'_> {
    fn null(&mut self) {
        self.0.push(TAG_NULL);
    }
    fn bool(&mut self, v: bool) {
        self.0.extend_from_slice(&[TAG_BOOL, u8::from(v)]);
    }
    fn int(&mut self, v: i64) {
        self.0.push(TAG_INT);
        put_varint(self.0, ((v << 1) ^ (v >> 63)) as u64); // zig-zag
    }
    fn uint(&mut self, v: u64) {
        self.0.push(TAG_UINT);
        put_varint(self.0, v);
    }
    fn float(&mut self, v: f64) {
        self.0.push(TAG_FLOAT);
        self.0.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, v: &str) {
        self.0.push(TAG_STR);
        self.key(v);
    }
    fn array(&mut self, len: usize) {
        self.0.push(TAG_ARRAY);
        put_varint(self.0, len as u64);
    }
    fn object(&mut self, len: usize) {
        self.0.push(TAG_OBJECT);
        put_varint(self.0, len as u64);
    }
    fn key(&mut self, key: &str) {
        put_varint(self.0, key.len() as u64);
        self.0.extend_from_slice(key.as_bytes());
    }
}

/// Reads tagged values from a payload, treating every byte as hostile:
/// counts are capped by the bytes remaining (each array element costs at
/// least one byte, each object pair two) and nesting by
/// [`MAX_VALUE_DEPTH`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers entered and not yet left.
    depth: usize,
}

impl Reader<'_> {
    /// The next `N` bytes.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], BinError> {
        let bytes = self.bytes.get(self.pos..self.pos + N);
        let bytes = bytes.ok_or(BinError::Truncated)?;
        self.pos += N;
        Ok(bytes.try_into().expect("N bytes"))
    }

    /// Reads a container count that `min_bytes` per element must fit in.
    fn count(&mut self, min_bytes: usize) -> Result<usize, BinError> {
        let n = get_varint(self.bytes, &mut self.pos)? as usize;
        if n > (self.bytes.len() - self.pos) / min_bytes {
            return Err(BinError::Truncated);
        }
        self.depth += 1;
        Ok(n)
    }
}

impl Source for Reader<'_> {
    type Error = BinError;

    fn token(&mut self) -> Result<Token<'_>, BinError> {
        if self.depth >= MAX_VALUE_DEPTH {
            return Err(BinError::TooDeep(MAX_VALUE_DEPTH));
        }
        let [tag] = self.take()?;
        Ok(match tag {
            TAG_NULL => Token::Null,
            TAG_BOOL => Token::Bool(self.take()? != [0]),
            TAG_INT => {
                let zz = get_varint(self.bytes, &mut self.pos)?;
                Token::Int(((zz >> 1) as i64) ^ -((zz & 1) as i64))
            }
            TAG_UINT => Token::UInt(get_varint(self.bytes, &mut self.pos)?),
            TAG_FLOAT => Token::Float(f64::from_le_bytes(self.take()?)),
            TAG_STR => Token::Str(get_str(self.bytes, &mut self.pos)?),
            TAG_ARRAY => Token::Array(self.count(1)?),
            TAG_OBJECT => Token::Object(self.count(2)?),
            other => return Err(BinError::BadTag(other)),
        })
    }

    fn null(&mut self) -> Result<bool, BinError> {
        // A null past the depth cap is not taken: `token` reports it.
        let null = self.depth < MAX_VALUE_DEPTH && self.bytes.get(self.pos) == Some(&TAG_NULL);
        self.pos += usize::from(null);
        Ok(null)
    }

    fn key(&mut self) -> Result<&[u8], BinError> {
        get_bytes(self.bytes, &mut self.pos)
    }

    fn end(&mut self) {
        self.depth -= 1;
    }
}

// ---------------------------------------------------------------- frames

/// Appends one checksummed frame whose payload `write` appends in place,
/// returning the frame's byte offset in `out`. The length field is
/// reserved, then patched once the payload is written.
fn push_frame(out: &mut Vec<u8>, kind: u8, write: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[kind, 0, 0, 0, 0]);
    write(out);
    let len = out.len() - start - FRAME_HEADER_LEN;
    assert!(len < u32::MAX as usize, "frame payloads are u32-sized");
    out[start + 1..start + FRAME_HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32c(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    start
}

/// What [`check_frame`] found at a frame offset.
#[derive(Debug)]
pub(crate) enum Frame<'a> {
    /// The frame verifies.
    Intact {
        /// The frame's kind byte.
        kind: u8,
        /// The frame's payload bytes.
        payload: &'a [u8],
    },
    /// The frame fits in the file but fails its CRC32C check.
    BadChecksum {
        /// Where the frame's declared length ends. The length may itself
        /// be the damaged bytes, so a walk that resumes here can desync.
        next: usize,
    },
    /// The frame header, or the length it declares, runs past the end of
    /// the file.
    PastEnd,
}

/// Checks the frame claimed at `offset` without trusting any of its
/// bytes. This is the one frame check every reader shares: the strict
/// walk, [`frame_table`], salvage's walk and trailer rescue, and
/// [`crate::zerocopy::MappedStore::job_payload`].
pub(crate) fn check_frame(bytes: &[u8], offset: usize) -> Frame<'_> {
    let Some(header) = offset
        .checked_add(FRAME_HEADER_LEN)
        .and_then(|end| bytes.get(offset..end))
    else {
        return Frame::PastEnd;
    };
    let payload_len = u32::from_le_bytes(header[1..5].try_into().expect("4-byte slice")) as usize;
    let payload_at = offset + FRAME_HEADER_LEN;
    let Some((crc_at, stored)) = payload_at
        .checked_add(payload_len)
        .and_then(|crc_at| Some((crc_at, bytes.get(crc_at..crc_at.checked_add(4)?)?)))
    else {
        return Frame::PastEnd;
    };
    if crc32c(&bytes[offset..crc_at]) != u32::from_le_bytes(stored.try_into().expect("4 bytes")) {
        return Frame::BadChecksum { next: crc_at + 4 };
    }
    Frame::Intact {
        kind: header[0],
        payload: &bytes[payload_at..crc_at],
    }
}

/// [`check_frame`] for the strict readers: reads the frame at `pos`,
/// advancing past it, and turns damage into an error.
pub(crate) fn read_frame<'a>(bytes: &'a [u8], pos: &mut usize) -> Result<(u8, &'a [u8]), BinError> {
    match check_frame(bytes, *pos) {
        Frame::Intact { kind, payload } => {
            *pos += FRAME_OVERHEAD + payload.len();
            Ok((kind, payload))
        }
        Frame::BadChecksum { .. } => Err(BinError::FrameChecksum { offset: *pos }),
        Frame::PastEnd => Err(BinError::Truncated),
    }
}

/// One row of the trailer's per-job offset table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrailerEntry {
    /// Job id of the archive the frame holds.
    pub job_id: String,
    /// Byte offset of the job's frame within the file.
    pub offset: usize,
    /// Whole frame length in bytes (header + payload + CRC).
    pub len: usize,
}

fn encode_trailer(entries: &[TrailerEntry], out: &mut Vec<u8>) {
    put_varint(out, entries.len() as u64);
    for e in entries {
        Writer(out).key(&e.job_id);
        put_varint(out, e.offset as u64);
        put_varint(out, e.len as u64);
    }
}

pub(crate) fn decode_trailer(payload: &[u8]) -> Result<Vec<TrailerEntry>, BinError> {
    let mut pos = 0;
    let n = get_varint(payload, &mut pos)? as usize;
    if n > payload.len().saturating_sub(pos) / 3 {
        // Each entry costs at least 3 bytes (empty id + two varints).
        return Err(BinError::Truncated);
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let job_id = get_str(payload, &mut pos)?.to_owned();
        let offset = get_varint(payload, &mut pos)? as usize;
        let len = get_varint(payload, &mut pos)? as usize;
        entries.push(TrailerEntry {
            job_id,
            offset,
            len,
        });
    }
    if pos != payload.len() {
        return Err(BinError::TrailingBytes(payload.len() - pos));
    }
    Ok(entries)
}

fn push_footer(out: &mut Vec<u8>, trailer_offset: usize) {
    let offset_bytes = (trailer_offset as u64).to_le_bytes();
    out.extend_from_slice(&offset_bytes);
    out.extend_from_slice(&crc32c(&offset_bytes).to_le_bytes());
    out.extend_from_slice(&END_MAGIC);
}

/// Parses the fixed footer at `bytes[pos..pos + FOOTER_LEN]`, returning
/// the trailer offset it points at.
fn read_footer(bytes: &[u8], pos: usize) -> Result<usize, BinError> {
    let footer = bytes
        .get(pos..pos + FOOTER_LEN)
        .ok_or(BinError::Truncated)?;
    if footer[12..16] != END_MAGIC {
        return Err(BinError::Malformed("footer end magic missing".into()));
    }
    let stored = u32::from_le_bytes(footer[8..12].try_into().expect("4-byte slice"));
    if crc32c(&footer[..8]) != stored {
        return Err(BinError::Malformed("footer checksum mismatch".into()));
    }
    Ok(u64::from_le_bytes(footer[..8].try_into().expect("8-byte slice")) as usize)
}

/// Locates the trailer through the footer at the file's end, independent
/// of the frames before it. Used by the salvage path when the sequential
/// walk dies mid-file, and by the mmap read path to find per-job extents
/// without touching the payloads.
pub(crate) fn trailer_via_footer(bytes: &[u8]) -> Result<(Vec<TrailerEntry>, usize), BinError> {
    let footer_at = bytes
        .len()
        .checked_sub(FOOTER_LEN)
        .ok_or(BinError::Truncated)?;
    let trailer_offset = read_footer(bytes, footer_at)?;
    if trailer_offset < HEADER_LEN || trailer_offset >= footer_at {
        return Err(BinError::Malformed(format!(
            "footer points outside the file (trailer at {trailer_offset})"
        )));
    }
    let mut pos = trailer_offset;
    let (kind, payload) = read_frame(bytes, &mut pos)?;
    if kind != FRAME_TRAILER {
        return Err(BinError::BadFrameKind {
            offset: trailer_offset,
            kind,
        });
    }
    Ok((decode_trailer(payload)?, trailer_offset))
}

/// Checks the 8-byte file header: [`MAGIC`], then [`BIN_FORMAT_VERSION`].
pub(crate) fn check_header(bytes: &[u8]) -> Result<(), BinError> {
    let header = bytes.get(..HEADER_LEN).ok_or(BinError::Truncated)?;
    let magic: [u8; 4] = header[..4].try_into().expect("4-byte slice");
    if magic != MAGIC {
        return Err(BinError::BadMagic(magic));
    }
    let version = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
    if version != BIN_FORMAT_VERSION {
        return Err(BinError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Summary of one frame of a v3 file, as reported by [`frame_table`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Frame kind ([`FRAME_RUN`], [`FRAME_JOB`], [`FRAME_TRAILER`]).
    pub kind: u8,
    /// Byte offset of the frame within the file.
    pub offset: usize,
    /// Whole frame length (header + payload + CRC).
    pub len: usize,
    /// Job id, for [`FRAME_JOB`] frames listed in the trailer.
    pub job_id: Option<String>,
}

/// The strict sequential walk behind [`store_from_bytes`] and
/// [`frame_table`]. From the header it reads the RUN frame, every JOB
/// frame and the TRAILER frame, handing each to `visit(kind, offset,
/// payload)` in file order, then the footer. Every frame must verify, the
/// trailer must list exactly the JOB frames' extents, the footer must
/// point at the trailer, and nothing may follow the footer. Returns the
/// trailer's rows.
fn walk<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(u8, usize, &'a [u8]) -> Result<(), BinError>,
) -> Result<Vec<TrailerEntry>, BinError> {
    check_header(bytes)?;
    let mut pos = HEADER_LEN;
    let mut extents = Vec::new();
    let (trailer, trailer_offset) = loop {
        let offset = pos;
        let (kind, payload) = read_frame(bytes, &mut pos)?;
        // The RUN frame comes first and only first.
        let in_order = (kind == FRAME_RUN) == (offset == HEADER_LEN);
        if !in_order || !matches!(kind, FRAME_RUN | FRAME_JOB | FRAME_TRAILER) {
            return Err(BinError::BadFrameKind { offset, kind });
        }
        visit(kind, offset, payload)?;
        match kind {
            FRAME_JOB => extents.push((offset, pos - offset)),
            FRAME_TRAILER => break (decode_trailer(payload)?, offset),
            _ => {}
        }
    };
    if !trailer.iter().map(|e| (e.offset, e.len)).eq(extents) {
        return Err(BinError::Malformed(format!(
            "trailer lists {} job(s) that do not match the job frames of the file",
            trailer.len()
        )));
    }
    let footer_target = read_footer(bytes, pos)?;
    if footer_target != trailer_offset {
        return Err(BinError::Malformed(format!(
            "footer points at byte {footer_target}, trailer is at {trailer_offset}"
        )));
    }
    let after_footer = pos + FOOTER_LEN;
    if after_footer != bytes.len() {
        return Err(BinError::TrailingBytes(bytes.len() - after_footer));
    }
    Ok(trailer)
}

/// Strictly walks a file and returns its frame layout without decoding
/// any payload but the trailer's: the cheap structural view the
/// corruption tests use. Any integrity violation is an error, exactly as
/// in [`store_from_bytes`].
pub fn frame_table(bytes: &[u8]) -> Result<Vec<FrameInfo>, BinError> {
    let mut frames = Vec::new();
    let trailer = walk(bytes, |kind, offset, payload| {
        frames.push(FrameInfo {
            kind,
            offset,
            len: payload.len() + FRAME_OVERHEAD,
            job_id: None,
        });
        Ok(())
    })?;
    let jobs = frames.iter_mut().filter(|f| f.kind == FRAME_JOB);
    for (frame, entry) in jobs.zip(trailer) {
        frame.job_id = Some(entry.job_id);
    }
    Ok(frames)
}

// -------------------------------------------------------------- envelopes

/// Appends `value` as one tagged value: a frame payload.
pub fn encode_payload<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    value.write_to(&mut Writer(out));
}

/// Decodes one frame payload: exactly one tagged value, nothing after it.
/// Accepts and rejects exactly what decoding the payload to a
/// [`serde::Value`] and then `T::from_value` would.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, BinError> {
    let mut reader = Reader {
        bytes: payload,
        pos: 0,
        depth: 0,
    };
    let value = T::read_from(&mut reader)?;
    match payload.len() - reader.pos {
        0 => Ok(value),
        trailing => Err(BinError::TrailingBytes(trailing)),
    }
}

/// Serializes a whole store (all archives) to the binary format.
pub fn store_to_bytes(store: &ArchiveStore) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 * 1024);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&BIN_FORMAT_VERSION.to_le_bytes());
    push_frame(&mut out, FRAME_RUN, |out| encode_payload(store.run(), out));
    let mut entries = Vec::with_capacity(store.len());
    for archive in store.iter() {
        let offset = push_frame(&mut out, FRAME_JOB, |out| encode_payload(archive, out));
        entries.push(TrailerEntry {
            job_id: archive.meta.job_id.clone(),
            offset,
            len: out.len() - offset,
        });
    }
    let trailer_offset = push_frame(&mut out, FRAME_TRAILER, |out| encode_trailer(&entries, out));
    push_footer(&mut out, trailer_offset);
    out
}

/// Reads a store back from [`store_to_bytes`] output. Every frame must
/// verify; use [`crate::salvage::salvage_from_bytes`] to recover what it
/// can from a file this function rejects.
pub fn store_from_bytes(bytes: &[u8]) -> Result<ArchiveStore, BinError> {
    let mut store = ArchiveStore::new();
    let trailer = walk(bytes, |kind, _, payload| {
        match kind {
            FRAME_RUN => store.set_run(decode_payload(payload)?),
            FRAME_JOB => store
                .add(decode_payload(payload)?)
                .map_err(|dup| BinError::Malformed(format!("duplicate job id `{}`", dup.0)))?,
            _ => {}
        }
        Ok(())
    })?;
    if let Some((entry, archive)) = trailer
        .iter()
        .zip(store.iter())
        .find(|(entry, archive)| entry.job_id != archive.meta.job_id)
    {
        return Err(BinError::Malformed(format!(
            "trailer names job `{}` where the frame holds `{}`",
            entry.job_id, archive.meta.job_id
        )));
    }
    Ok(store)
}

impl ArchiveStore {
    /// Persists the store to `path` in the binary format. The write is
    /// atomic and durable ([`crate::durable::write_atomic`]): a crash
    /// mid-save leaves either the previous file or the new one, never a
    /// torn mix.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), BinError> {
        let _span = granula_trace::span!("archiving", "store.save");
        durable::write_atomic(path, &store_to_bytes(self))?;
        Ok(())
    }

    /// Loads a store persisted with [`ArchiveStore::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, BinError> {
        let _span = granula_trace::span!("archiving", "store.load");
        store_from_bytes(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{JobArchive, JobMeta};
    use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};

    fn sample_store() -> ArchiveStore {
        let mut store = ArchiveStore::new();
        for (job, plat) in [("g0", "Giraph"), ("p0", "PowerGraph")] {
            let mut t = OperationTree::new();
            let root = t
                .add_root(Actor::new("Job", "0"), Mission::new("Job", "0"))
                .unwrap();
            t.set_info(root, Info::raw(names::START_TIME, InfoValue::Int(0)))
                .unwrap();
            t.set_info(root, Info::raw(names::END_TIME, InfoValue::Int(81_900_000)))
                .unwrap();
            let c = t
                .add_child(
                    root,
                    Actor::new("Worker", "1"),
                    Mission::new("Compute", "0"),
                )
                .unwrap();
            t.set_info(c, Info::raw("Rate", InfoValue::Float(0.1 + 0.2)))
                .unwrap();
            t.set_info(
                c,
                Info::raw(
                    "Cpu",
                    InfoValue::Series(vec![(0, 1.5), (10, f64::MIN_POSITIVE)]),
                ),
            )
            .unwrap();
            store
                .add(JobArchive::new(
                    JobMeta {
                        job_id: job.into(),
                        platform: plat.into(),
                        algorithm: "BFS".into(),
                        dataset: "dg".into(),
                        nodes: 8,
                        model: "m".into(),
                    },
                    t,
                ))
                .unwrap();
        }
        store
    }

    fn payload<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        encode_payload(value, &mut out);
        out
    }

    /// A complete, CRC-valid file around hand-made payloads: `run` as the
    /// RUN frame and one JOB frame per `jobs` row, each listed in the
    /// trailer. Hostile payloads built this way reach the value decoder
    /// through the frame path, the only path a reader has.
    fn framed_file(run: &[u8], jobs: &[(&str, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&BIN_FORMAT_VERSION.to_le_bytes());
        push_frame(&mut out, FRAME_RUN, |o| o.extend_from_slice(run));
        let entries: Vec<_> = jobs
            .iter()
            .map(|(id, payload)| TrailerEntry {
                job_id: id.to_string(),
                offset: push_frame(&mut out, FRAME_JOB, |o| o.extend_from_slice(payload)),
                len: payload.len() + FRAME_OVERHEAD,
            })
            .collect();
        let trailer_offset = push_frame(&mut out, FRAME_TRAILER, |o| encode_trailer(&entries, o));
        push_footer(&mut out, trailer_offset);
        out
    }

    #[test]
    fn store_roundtrips_exactly() {
        let store = sample_store();
        let bytes = store_to_bytes(&store);
        let back = store_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), store.len());
        for (a, b) in store.iter().zip(back.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let store = sample_store();
        let a = store_to_bytes(&store);
        let b = store_to_bytes(&store_from_bytes(&a).unwrap());
        assert_eq!(a, b, "save -> load -> save must be byte-identical");
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = ArchiveStore::new().with_run(crate::store::RunMeta::new("r0", 7, "empty"));
        let bytes = store_to_bytes(&store);
        let back = store_from_bytes(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.run(), store.run());
        assert_eq!(bytes, store_to_bytes(&back));
    }

    #[test]
    fn header_is_validated() {
        let store = sample_store();
        let bytes = store_to_bytes(&store);

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            store_from_bytes(&bad_magic),
            Err(BinError::BadMagic(_))
        ));

        let mut future = bytes.clone();
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            store_from_bytes(&future),
            Err(BinError::UnsupportedVersion(99))
        ));

        // Chopping into the footer: structurally invalid, never a panic.
        let mut torn = bytes.clone();
        torn.truncate(torn.len() - 3);
        assert!(store_from_bytes(&torn).is_err());

        // Chopping mid-frame is a truncation.
        let mut torn = bytes;
        torn.truncate(40);
        assert!(matches!(store_from_bytes(&torn), Err(BinError::Truncated)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = store_to_bytes(&sample_store());
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            store_from_bytes(&bytes),
            Err(BinError::TrailingBytes(4))
        ));
    }

    #[test]
    fn frame_corruption_is_a_checksum_error() {
        let store = sample_store();
        let bytes = store_to_bytes(&store);
        // Flip one bit inside the first job frame's payload.
        let frames = frame_table(&bytes).unwrap();
        let job = frames.iter().find(|f| f.kind == FRAME_JOB).unwrap();
        let mut corrupt = bytes.clone();
        corrupt[job.offset + FRAME_HEADER_LEN + 10] ^= 0x04;
        match store_from_bytes(&corrupt) {
            Err(BinError::FrameChecksum { offset }) => assert_eq!(offset, job.offset),
            other => panic!("expected FrameChecksum, got {other:?}"),
        }
    }

    #[test]
    fn trailer_must_match_the_job_frames() {
        let run = payload(&crate::store::RunMeta::default());
        let job = payload(sample_store().get("g0").unwrap());
        let build = |id: &str, shift: usize| {
            let mut out = MAGIC.to_vec();
            out.extend_from_slice(&BIN_FORMAT_VERSION.to_le_bytes());
            push_frame(&mut out, FRAME_RUN, |o| o.extend_from_slice(&run));
            let entries = [TrailerEntry {
                job_id: id.into(),
                offset: push_frame(&mut out, FRAME_JOB, |o| o.extend_from_slice(&job)) + shift,
                len: job.len() + FRAME_OVERHEAD,
            }];
            let trailer_offset =
                push_frame(&mut out, FRAME_TRAILER, |o| encode_trailer(&entries, o));
            push_footer(&mut out, trailer_offset);
            out
        };
        assert_eq!(store_from_bytes(&build("g0", 0)).unwrap().len(), 1);
        // A row that misplaces the frame fails the walk both readers share.
        let shifted = build("g0", 1);
        assert!(matches!(
            store_from_bytes(&shifted),
            Err(BinError::Malformed(_))
        ));
        assert!(matches!(frame_table(&shifted), Err(BinError::Malformed(_))));
        // A row naming another job passes the walk; only the load, which
        // decodes the frame, can see the mismatch.
        let renamed = build("p0", 0);
        assert_eq!(
            frame_table(&renamed).unwrap()[1].job_id.as_deref(),
            Some("p0")
        );
        assert!(matches!(
            store_from_bytes(&renamed),
            Err(BinError::Malformed(_))
        ));
    }

    #[test]
    fn frame_table_reports_the_layout() {
        let store = sample_store();
        let bytes = store_to_bytes(&store);
        let frames = frame_table(&bytes).unwrap();
        let kinds: Vec<u8> = frames.iter().map(|f| f.kind).collect();
        assert_eq!(kinds, [FRAME_RUN, FRAME_JOB, FRAME_JOB, FRAME_TRAILER]);
        let ids: Vec<_> = frames.iter().filter_map(|f| f.job_id.as_deref()).collect();
        assert_eq!(ids, ["g0", "p0"]);
        // Frames tile the file exactly: header..frames..footer.
        assert_eq!(frames[0].offset, HEADER_LEN);
        for w in frames.windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
        let last = frames.last().unwrap();
        assert_eq!(last.offset + last.len + FOOTER_LEN, bytes.len());
    }

    #[test]
    fn forged_giant_length_prefixes_fail_without_allocating() {
        // A CRC-valid frame whose payload claims a 4-billion-element
        // value: the decoder must bound `with_capacity` by the bytes
        // remaining and return Truncated instead of attempting the
        // allocation, in the RUN frame and in a JOB frame alike.
        let empty_run = payload(&crate::store::RunMeta::default());
        for tag in [TAG_ARRAY, TAG_OBJECT, TAG_STR] {
            let mut forged = vec![tag];
            put_varint(&mut forged, 4_000_000_000);
            for bytes in [
                framed_file(&forged, &[]),
                framed_file(&empty_run, &[("j", &forged)]),
            ] {
                assert!(frame_table(&bytes).is_ok(), "every frame verifies");
                assert!(
                    matches!(store_from_bytes(&bytes), Err(BinError::Truncated)),
                    "tag 0x{tag:02x} with forged length must be Truncated"
                );
            }
        }
    }

    #[test]
    fn hostile_nesting_depth_is_an_error_not_a_stack_overflow() {
        let nested = |levels: usize| {
            let mut out = [TAG_ARRAY, 1].repeat(levels); // count = 1 each
            out.push(TAG_NULL);
            out
        };
        // The chain as the value of an unknown key in the run header: the
        // decoder walks it while it skips the key, one level below the
        // header object, so 62 arrays load and 63 reach the cap.
        let run = payload(&crate::store::RunMeta::default());
        assert_eq!(run[..2], [TAG_OBJECT, 3]);
        let with_chain = |levels: usize| {
            [
                [TAG_OBJECT, 4, 1, b'x'].as_slice(),
                &nested(levels),
                &run[2..],
            ]
            .concat()
        };
        assert!(store_from_bytes(&framed_file(&with_chain(62), &[])).is_ok());
        for levels in [63, 10_000] {
            let bytes = framed_file(&with_chain(levels), &[]);
            assert!(frame_table(&bytes).is_ok(), "every frame verifies");
            assert!(matches!(
                store_from_bytes(&bytes),
                Err(BinError::TooDeep(MAX_VALUE_DEPTH))
            ));
        }
        assert!(matches!(
            decode_payload::<serde::Value>(&nested(10_000)),
            Err(BinError::TooDeep(MAX_VALUE_DEPTH))
        ));
    }

    #[test]
    fn floats_survive_bit_for_bit() {
        for f in [0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1e308, f64::NAN] {
            let back: f64 = decode_payload(&payload(&f)).unwrap();
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn varints_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
        }
        for v in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert_eq!(decode_payload::<i64>(&payload(&v)).unwrap(), v);
        }
    }

    #[test]
    fn varints_past_64_bits_are_rejected() {
        // Ten bytes hold 70 bits; the tenth may only carry bit 63.
        let max = [[0xFF; 9].as_slice(), &[0x01]].concat();
        assert_eq!(get_varint(&max, &mut 0).unwrap(), u64::MAX);
        for last in [0x02, 0x7F] {
            let long = [[0xFF; 9].as_slice(), &[last]].concat();
            assert!(matches!(
                get_varint(&long, &mut 0),
                Err(BinError::VarintOverflow)
            ));
            let uint = [[TAG_UINT].as_slice(), &long].concat();
            assert!(matches!(
                decode_payload::<serde::Value>(&uint),
                Err(BinError::VarintOverflow)
            ));
        }
    }

    #[test]
    fn legacy_headers_name_their_version_to_every_reader() {
        // A v1/v2 header in front of otherwise current bytes: the strict
        // loader, the frame table and the mmap reader all refuse it with
        // the same structured error.
        let mut bytes = store_to_bytes(&sample_store());
        for version in [1u32, 2] {
            bytes[4..8].copy_from_slice(&version.to_le_bytes());
            let path = std::env::temp_dir().join(format!(
                "granula-binfmt-v{version}-{}.gar",
                std::process::id()
            ));
            std::fs::write(&path, &bytes).unwrap();
            let errors = [
                ArchiveStore::load(&path).unwrap_err(),
                frame_table(&bytes).unwrap_err(),
                crate::zerocopy::MappedStore::open(&path).unwrap_err(),
            ];
            for e in errors {
                assert!(matches!(e, BinError::UnsupportedVersion(v) if v == version));
                assert_eq!(
                    e.to_string(),
                    format!(
                        "binary archive version {version} is not supported: only version 3 is read"
                    )
                );
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn run_header_survives_binary_roundtrip() {
        let mut store = sample_store();
        store.set_run(crate::store::RunMeta::new("r3", 42_000_000, "ci"));
        let back = store_from_bytes(&store_to_bytes(&store)).unwrap();
        assert_eq!(back.run(), store.run());
        // Determinism holds with the header present.
        assert_eq!(store_to_bytes(&store), store_to_bytes(&back));
    }

    #[test]
    fn store_file_io_roundtrips() {
        let store = sample_store();
        let path = std::env::temp_dir().join(format!("granula-binfmt-{}.gar", std::process::id()));
        store.save(&path).unwrap();
        let loaded = ArchiveStore::load(&path).unwrap();
        assert_eq!(loaded.len(), store.len());
        let _ = std::fs::remove_file(&path);
    }
}
