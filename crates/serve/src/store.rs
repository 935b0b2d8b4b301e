//! The versioned binary embedding store: write once, then verify and load
//! into owned memory.
//!
//! # Format (v1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic "TRNSEMB\0"
//!      8     4  version            u32 (1 = plain, 2 = quantized)
//!     12     4  dim                u32 (embedding dimension, ≥ 1)
//!     16     8  count              u64 (number of node rows)
//!     24     8  payload_off        u64 (= 64 in v1: payload after header)
//!     32     8  type_table_off     u64 (= payload_off + count·stride)
//!     40     8  type_table_len     u64 (bytes; 0 = absent, else 4·count)
//!     48     8  checksum           u64 (FNV-1a64 over every byte past 64)
//!     56     8  reserved           must be zero (checked at load)
//!     64     …  payload: count rows, each dim f32 (LE) zero-padded to
//!               stride = ceil(4·dim / 8) · 8 bytes (8-byte row alignment)
//!      …     …  type table: count u32 (LE) node-type ids, if present
//! ```
//!
//! # Format v2 (i8-quantized sections; DESIGN.md §15)
//!
//! v2 keeps the base header bit-for-bit (version = 2, `payload_off` =
//! 128) and inserts a 64-byte extension header at offset 64 describing
//! two extra sections that follow the type table, each 8-byte aligned:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!     64     4  quant_kind         u32 (1 = i8 codes; any other value is
//!                                       rejected)
//!     68     4  reserved           must be zero (checked at load)
//!     72     8  scale_table_off    u64 (8-aligned, after the type table)
//!     80     8  scale_table_len    u64 (8·count)
//!     88     8  qrows_off          u64 (8-aligned)
//!     96     8  qrows_len          u64 (count · quantized row stride)
//!    104    24  reserved           must be zero (checked at load)
//!    128     …  f32 payload + type table exactly as v1, then:
//!      …     …  scale table: count × (scale f32 LE, zero f32 LE)
//!      …     …  qrows: count rows of i8 codes, zero-padded to an 8-byte
//!               stride
//! ```
//!
//! The base-header `checksum` definition is unchanged — FNV-1a64 over
//! every byte after the fixed 64-byte header — so in v2 it also covers
//! the extension header, the quantized sections, and their padding. A v1
//! reader that sees a v2 file fails cleanly on the version field, and v1
//! files load byte-for-byte unchanged (pinned by the golden fixture).
//!
//! The 8-byte stride keeps every on-disk row 8-byte aligned; the padding
//! bytes are zero and covered by the checksum.
//!
//! # Loading
//!
//! [`EmbStore::open`] is the one load path. It reads the file, checks
//! both headers against its length, and verifies the checksum over every
//! byte after the base header. Only then does it decode each section into
//! an exactly sized owned buffer: the f32 rows as one contiguous `|V| × d`
//! matrix without the row padding ([`EmbStore::rows`]), the type table,
//! and a v2 store's scale table and i8 codes. No section is larger in
//! memory than on disk, so no header can make it allocate more than the
//! file holds. A file shorter than its headers require is
//! [`ServeError::Truncated`] and a body that does not hash to the header's
//! checksum is [`ServeError::ChecksumMismatch`] — a typed error, never a
//! panic. The loaded store owns what it serves, so rewriting, truncating
//! or replacing the file afterwards cannot change or fault an open store.
//!
//! Writers stream: [`EmbStore::write`] and [`EmbStore::write_quant`] share
//! one serializer that makes two passes over the source table (pass 1
//! folds the checksum, pass 2 writes), so serializing never materializes a
//! second copy of the table — peak memory is one row buffer regardless of
//! node count.

use crate::error::ServeError;
use std::io::Write;
use std::path::Path;
use transn_graph::{NodeEmbeddings, NodeId};
use transn_nn::kernels::{quantize_row_i8, QuantParams};

/// The store checksum (re-exported from `transn-graph`, whose delta log
/// uses the same hash).
pub use transn_graph::{fnv1a64, Fnv1a64};

/// First 8 bytes of every store file.
pub const MAGIC: [u8; 8] = *b"TRNSEMB\0";
/// Format version written for plain f32 stores.
pub const VERSION: u32 = 1;
/// Format version written for stores carrying quantized sections.
pub const VERSION_QUANT: u32 = 2;
/// Fixed base header size in bytes.
pub const HEADER_LEN: usize = 64;
/// Fixed v2 extension header size in bytes (at offset [`HEADER_LEN`]).
pub const EXT_HEADER_LEN: usize = 64;
/// Payload offset of a v2 store: base + extension header.
pub const PAYLOAD_OFF_V2: usize = HEADER_LEN + EXT_HEADER_LEN;

/// Row stride in bytes: `dim` f32s rounded up to an 8-byte boundary.
pub fn row_stride(dim: usize) -> usize {
    (dim * 4).div_ceil(8) * 8
}

/// Round a byte offset up to the next 8-byte boundary.
pub fn align8(off: u64) -> u64 {
    off.div_ceil(8) * 8
}

/// Which quantized payload a v2 store carries (the extension header's
/// `quant_kind` wire tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantKind {
    /// Per-row symmetric i8 codes with a `(scale, zero)` table.
    I8,
}

/// Scale-table bytes per row: one `(scale, zero)` pair of f32s.
const SCALE_ENTRY_LEN: u64 = 8;

impl QuantKind {
    /// Wire value in the extension header.
    pub fn as_u32(self) -> u32 {
        match self {
            QuantKind::I8 => 1,
        }
    }

    /// Parse the wire value.
    pub fn from_u32(v: u32) -> Option<QuantKind> {
        match v {
            1 => Some(QuantKind::I8),
            _ => None,
        }
    }

    /// Parse a CLI spelling (`i8`).
    pub fn parse(s: &str) -> Option<QuantKind> {
        match s {
            "i8" => Some(QuantKind::I8),
            _ => None,
        }
    }

    /// Quantized row stride in bytes, zero-padded to an 8-byte boundary.
    pub fn qrow_stride(self, dim: usize) -> usize {
        match self {
            QuantKind::I8 => dim.div_ceil(8) * 8,
        }
    }
}

impl std::fmt::Display for QuantKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            QuantKind::I8 => "i8",
        })
    }
}

/// Reject a nonzero reserved byte range, naming it in the error detail.
fn check_reserved(
    bytes: &[u8],
    field: &str,
    mismatch: impl Fn(String) -> ServeError,
) -> Result<(), ServeError> {
    if bytes.iter().any(|&b| b != 0) {
        return Err(mismatch(format!("{field} must be zero")));
    }
    Ok(())
}

/// The decoded fixed-size header of a store file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreHeader {
    /// Format version.
    pub version: u32,
    /// Embedding dimension.
    pub dim: u32,
    /// Number of node rows.
    pub count: u64,
    /// Byte offset of the payload (64 in v1).
    pub payload_off: u64,
    /// Byte offset of the type table.
    pub type_table_off: u64,
    /// Type table length in bytes (0 = absent).
    pub type_table_len: u64,
    /// FNV-1a64 over payload + type table.
    pub checksum: u64,
}

impl StoreHeader {
    /// Encode to the fixed 64-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(&MAGIC);
        h[8..12].copy_from_slice(&self.version.to_le_bytes());
        h[12..16].copy_from_slice(&self.dim.to_le_bytes());
        h[16..24].copy_from_slice(&self.count.to_le_bytes());
        h[24..32].copy_from_slice(&self.payload_off.to_le_bytes());
        h[32..40].copy_from_slice(&self.type_table_off.to_le_bytes());
        h[40..48].copy_from_slice(&self.type_table_len.to_le_bytes());
        h[48..56].copy_from_slice(&self.checksum.to_le_bytes());
        h
    }

    /// Decode and structurally validate a 64-byte header.
    ///
    /// Checks magic, version, and internal consistency of dim/count/offsets
    /// — but not the checksum (that needs the body; see [`EmbStore::open`]).
    pub fn decode(h: &[u8; HEADER_LEN]) -> Result<StoreHeader, ServeError> {
        let mut magic = [0u8; 8];
        magic.copy_from_slice(&h[0..8]);
        if magic != MAGIC {
            return Err(ServeError::BadMagic { found: magic });
        }
        let le32 = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().unwrap());
        let le64 = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().unwrap());
        let version = le32(8);
        if version != VERSION && version != VERSION_QUANT {
            return Err(ServeError::UnsupportedVersion { found: version });
        }
        let header = StoreHeader {
            version,
            dim: le32(12),
            count: le64(16),
            payload_off: le64(24),
            type_table_off: le64(32),
            type_table_len: le64(40),
            checksum: le64(48),
        };
        let mismatch = |detail: String| ServeError::DimCountMismatch {
            dim: header.dim,
            count: header.count,
            detail,
        };
        check_reserved(&h[56..64], "reserved header bytes 56..64", mismatch)?;
        if header.dim == 0 {
            return Err(mismatch("dim must be at least 1".into()));
        }
        let want_payload = if version == VERSION {
            HEADER_LEN as u64
        } else {
            PAYLOAD_OFF_V2 as u64
        };
        if header.payload_off != want_payload {
            return Err(mismatch(format!(
                "payload_off {} != expected {want_payload} for version {version}",
                header.payload_off
            )));
        }
        let stride = row_stride(header.dim as usize) as u64;
        // The largest layout this geometry allows (v2: per node an f32
        // row, a type id, a scale entry and a code row no longer than the
        // f32 row, plus two paddings) must fit in a u64, so no section
        // offset computed from it can overflow.
        header
            .count
            .checked_mul(2 * stride + 4 + SCALE_ENTRY_LEN)
            .and_then(|len| len.checked_add(PAYLOAD_OFF_V2 as u64 + 16))
            .ok_or_else(|| mismatch("section layout overflows u64".into()))?;
        let want_table_off = header.payload_off + header.count * stride;
        if header.type_table_off != want_table_off {
            return Err(mismatch(format!(
                "type_table_off {} != payload_off + count·stride = {want_table_off}",
                header.type_table_off
            )));
        }
        if header.type_table_len != 0 && header.type_table_len != 4 * header.count {
            return Err(mismatch(format!(
                "type_table_len {} is neither 0 nor 4·count = {}",
                header.type_table_len,
                4 * header.count
            )));
        }
        Ok(header)
    }

    /// End of the base sections (payload + type table). For a v1 store
    /// this is the file size; a v2 store appends quantized sections after
    /// it (see [`QuantExt::file_len`]).
    pub fn file_len(&self) -> u64 {
        self.type_table_off + self.type_table_len
    }
}

/// The decoded v2 extension header describing the quantized sections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuantExt {
    /// Which quantized payload the store carries.
    pub kind: QuantKind,
    /// Byte offset of the per-row `(scale, zero)` table (8-aligned).
    pub scale_table_off: u64,
    /// Scale-table length in bytes (`8·count`).
    pub scale_table_len: u64,
    /// Byte offset of the quantized rows (8-aligned).
    pub qrows_off: u64,
    /// Quantized-rows length in bytes (`count · qrow_stride`).
    pub qrows_len: u64,
}

impl QuantExt {
    /// Lay out the quantized sections for a given base header, placing
    /// them 8-byte aligned after the type table.
    pub fn layout(kind: QuantKind, base: &StoreHeader) -> QuantExt {
        let scale_table_off = align8(base.file_len());
        let scale_table_len = base.count * SCALE_ENTRY_LEN;
        let qrows_off = align8(scale_table_off + scale_table_len);
        let qrows_len = base.count * kind.qrow_stride(base.dim as usize) as u64;
        QuantExt {
            kind,
            scale_table_off,
            scale_table_len,
            qrows_off,
            qrows_len,
        }
    }

    /// Encode to the fixed 64-byte wire form.
    pub fn encode(&self) -> [u8; EXT_HEADER_LEN] {
        let mut h = [0u8; EXT_HEADER_LEN];
        h[0..4].copy_from_slice(&self.kind.as_u32().to_le_bytes());
        h[8..16].copy_from_slice(&self.scale_table_off.to_le_bytes());
        h[16..24].copy_from_slice(&self.scale_table_len.to_le_bytes());
        h[24..32].copy_from_slice(&self.qrows_off.to_le_bytes());
        h[32..40].copy_from_slice(&self.qrows_len.to_le_bytes());
        h
    }

    /// Decode and validate a 64-byte extension header against its base
    /// header: the kind must be known, the reserved bytes zero, and the
    /// section offsets and lengths exactly the canonical
    /// [`QuantExt::layout`] for the base dim/count, so a scale table that
    /// disagrees with the row count is a typed error, not a bad read.
    pub fn decode(h: &[u8; EXT_HEADER_LEN], base: &StoreHeader) -> Result<QuantExt, ServeError> {
        let le32 = |at: usize| u32::from_le_bytes(h[at..at + 4].try_into().unwrap());
        let le64 = |at: usize| u64::from_le_bytes(h[at..at + 8].try_into().unwrap());
        let mismatch = |detail: String| ServeError::DimCountMismatch {
            dim: base.dim,
            count: base.count,
            detail,
        };
        let kind_raw = le32(0);
        let kind = QuantKind::from_u32(kind_raw)
            .ok_or_else(|| mismatch(format!("unknown quant_kind {kind_raw}")))?;
        check_reserved(&h[4..8], "reserved extension bytes 68..72", mismatch)?;
        check_reserved(&h[40..64], "reserved extension bytes 104..128", mismatch)?;
        let got = QuantExt {
            kind,
            scale_table_off: le64(8),
            scale_table_len: le64(16),
            qrows_off: le64(24),
            qrows_len: le64(32),
        };
        let want = QuantExt::layout(kind, base);
        if got != want {
            return Err(mismatch(format!(
                "quant sections {got:?} disagree with canonical layout {want:?}"
            )));
        }
        Ok(got)
    }

    /// Total file size of a v2 store with these sections.
    pub fn file_len(&self) -> u64 {
        self.qrows_off + self.qrows_len
    }
}

/// A loaded embedding store: the validated headers and every section,
/// decoded into owned memory by [`EmbStore::open`].
pub struct EmbStore {
    header: StoreHeader,
    ext: Option<QuantExt>,
    /// The f32 rows as one row-major `count × dim` matrix.
    rows: Vec<f32>,
    /// One node-type id per row; empty when the store has no type table.
    types: Vec<u32>,
    /// Per-row i8 dequantization affines (v2 only).
    qparams: Vec<QuantParams>,
    /// The i8 codes as one row-major `count × dim` matrix (v2 only).
    codes: Vec<i8>,
}

/// The little-endian f32 at the start of `b`.
fn le_f32(b: &[u8]) -> f32 {
    f32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

impl EmbStore {
    /// Serialize an embedding table (plus optional per-node type ids) in
    /// the v1 format.
    ///
    /// Streams in two passes — pass 1 folds the checksum, pass 2 writes —
    /// so peak memory is one row buffer, never a second table copy.
    ///
    /// # Panics
    /// Panics if `types` is given with a length other than the node count,
    /// or if `emb.dim() == 0`.
    pub fn write(
        emb: &NodeEmbeddings,
        types: Option<&[u32]>,
        out: impl Write,
    ) -> std::io::Result<()> {
        Self::write_sections(emb, types, None, out)
    }

    /// [`EmbStore::write`] to a file path.
    pub fn write_file(
        emb: &NodeEmbeddings,
        types: Option<&[u32]>,
        path: impl AsRef<Path>,
    ) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        Self::write(emb, types, std::io::BufWriter::new(file))
    }

    /// Serialize in the v2 format with quantized sections of the given
    /// kind alongside the full-precision payload (DESIGN.md §15).
    ///
    /// Streams like [`EmbStore::write`]: two passes over the table, one
    /// row buffer of peak memory. Quantization is deterministic, so both
    /// passes produce identical bytes.
    ///
    /// # Panics
    /// Panics if `types` is given with a length other than the node count,
    /// or if `emb.dim() == 0`.
    pub fn write_quant(
        emb: &NodeEmbeddings,
        types: Option<&[u32]>,
        kind: QuantKind,
        out: impl Write,
    ) -> std::io::Result<()> {
        Self::write_sections(emb, types, Some(kind), out)
    }

    /// The one streaming serializer behind [`EmbStore::write`] (v1,
    /// `quant = None`) and [`EmbStore::write_quant`] (v2). The section
    /// body is emitted twice through a byte sink — pass 1 folds it into
    /// the checksum, pass 2 writes it after the finished header — so the
    /// only scratch is one row buffer and one code row.
    fn write_sections(
        emb: &NodeEmbeddings,
        types: Option<&[u32]>,
        quant: Option<QuantKind>,
        mut out: impl Write,
    ) -> std::io::Result<()> {
        assert!(emb.dim() > 0, "cannot store zero-dimensional embeddings");
        if let Some(t) = types {
            assert_eq!(t.len(), emb.num_nodes(), "type table length mismatch");
        }
        let dim = emb.dim();
        let count = emb.num_nodes();
        let stride = row_stride(dim);
        let (version, payload_off) = match quant {
            None => (VERSION, HEADER_LEN),
            Some(_) => (VERSION_QUANT, PAYLOAD_OFF_V2),
        };
        let header = StoreHeader {
            version,
            dim: dim as u32,
            count: count as u64,
            payload_off: payload_off as u64,
            type_table_off: (payload_off + count * stride) as u64,
            type_table_len: types.map_or(0, |t| 4 * t.len() as u64),
            checksum: 0,
        };
        let ext = quant.map(|kind| QuantExt::layout(kind, &header));
        // A quantized row never outgrows the f32 row stride (`dim` bytes of
        // codes vs `4·dim` bytes of f32), so one row buffer serves both.
        let mut row_buf = vec![0u8; stride];
        let mut codes = vec![0i8; dim];
        let pad = [0u8; 8];
        let body = |sink: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
                    row_buf: &mut [u8],
                    codes: &mut [i8]|
         -> std::io::Result<()> {
            if let Some(ext) = &ext {
                sink(&ext.encode())?;
            }
            for n in 0..count {
                row_buf[dim * 4..].fill(0);
                for (chunk, &v) in row_buf.chunks_exact_mut(4).zip(emb.get(NodeId(n as u32))) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                sink(row_buf)?;
            }
            if let Some(t) = types {
                for &ty in t {
                    sink(&ty.to_le_bytes())?;
                }
            }
            let Some(ext) = &ext else {
                return Ok(());
            };
            let at = header.file_len();
            sink(&pad[..(align8(at) - at) as usize])?;
            for n in 0..count {
                let p = quantize_row_i8(emb.get(NodeId(n as u32)), codes);
                sink(&p.scale.to_le_bytes())?;
                sink(&p.zero.to_le_bytes())?;
            }
            let at = ext.scale_table_off + ext.scale_table_len;
            sink(&pad[..(align8(at) - at) as usize])?;
            let qstride = ext.kind.qrow_stride(dim);
            for n in 0..count {
                quantize_row_i8(emb.get(NodeId(n as u32)), codes);
                row_buf[..qstride].fill(0);
                for (b, &c) in row_buf.iter_mut().zip(codes.iter()) {
                    *b = c as u8;
                }
                sink(&row_buf[..qstride])?;
            }
            Ok(())
        };
        let mut hash = Fnv1a64::new();
        body(
            &mut |bytes| {
                hash.update(bytes);
                Ok(())
            },
            &mut row_buf,
            &mut codes,
        )?;
        let header = StoreHeader {
            checksum: hash.finish(),
            ..header
        };
        out.write_all(&header.encode())?;
        body(&mut |bytes| out.write_all(bytes), &mut row_buf, &mut codes)?;
        out.flush()
    }

    /// [`EmbStore::write_quant`] to a file path.
    pub fn write_quant_file(
        emb: &NodeEmbeddings,
        types: Option<&[u32]>,
        kind: QuantKind,
        path: impl AsRef<Path>,
    ) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        Self::write_quant(emb, types, kind, std::io::BufWriter::new(file))
    }

    /// Load a store: read the file, check both headers against its
    /// length, verify the checksum over every byte after the base header,
    /// then decode each section into owned memory and drop the file bytes.
    ///
    /// Errors are typed: a file shorter than its headers require is
    /// [`ServeError::Truncated`], a body that does not hash to the header's
    /// checksum is [`ServeError::ChecksumMismatch`], and inconsistent
    /// headers fail before any section is decoded.
    pub fn open(path: impl AsRef<Path>) -> Result<EmbStore, ServeError> {
        let bytes = std::fs::read(path)?;
        let truncated = |expected: u64| ServeError::Truncated {
            expected,
            actual: bytes.len() as u64,
        };
        let head = bytes
            .get(..HEADER_LEN)
            .and_then(|h| h.try_into().ok())
            .ok_or_else(|| truncated(HEADER_LEN as u64))?;
        let header = StoreHeader::decode(head)?;
        let ext = if header.version == VERSION_QUANT {
            let ext = bytes
                .get(HEADER_LEN..PAYLOAD_OFF_V2)
                .and_then(|h| h.try_into().ok())
                .ok_or_else(|| truncated(PAYLOAD_OFF_V2 as u64))?;
            Some(QuantExt::decode(ext, &header)?)
        } else {
            None
        };
        let need = ext.map_or_else(|| header.file_len(), |e| e.file_len());
        if need > bytes.len() as u64 {
            return Err(truncated(need));
        }
        // The checksum covers every byte after the base header.
        let actual = fnv1a64(&bytes[HEADER_LEN..need as usize]);
        if actual != header.checksum {
            return Err(ServeError::ChecksumMismatch {
                expected: header.checksum,
                actual,
            });
        }
        // The file holds every section, so each decoded section, no longer
        // than its bytes on disk, is bounded by the file's size.
        let (n, dim) = (header.count as usize, header.dim as usize);
        let records =
            |off: u64, stride: usize| bytes[off as usize..][..n * stride].chunks_exact(stride);
        let mut rows = Vec::with_capacity(n * dim);
        for rec in records(header.payload_off, row_stride(dim)) {
            rows.extend(rec[..4 * dim].chunks_exact(4).map(le_f32));
        }
        let types = bytes[header.type_table_off as usize..header.file_len() as usize]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let (mut qparams, mut codes) = (Vec::new(), Vec::new());
        if let Some(ext) = ext {
            qparams = records(ext.scale_table_off, SCALE_ENTRY_LEN as usize)
                .map(|rec| QuantParams {
                    scale: le_f32(rec),
                    zero: le_f32(&rec[4..]),
                })
                .collect();
            codes.reserve_exact(n * dim);
            for rec in records(ext.qrows_off, ext.kind.qrow_stride(dim)) {
                codes.extend(rec[..dim].iter().map(|&b| b as i8));
            }
        }
        Ok(EmbStore {
            header,
            ext,
            rows,
            types,
            qparams,
            codes,
        })
    }

    /// The validated header.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// Number of node rows.
    pub fn num_nodes(&self) -> usize {
        self.header.count as usize
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.header.dim as usize
    }

    /// The embedding of node `n`.
    ///
    /// # Panics
    /// Panics if `n >= num_nodes()`.
    #[inline]
    pub fn row(&self, n: usize) -> &[f32] {
        assert!(n < self.num_nodes(), "row {n} out of range");
        &self.rows[n * self.dim()..(n + 1) * self.dim()]
    }

    /// Every row as one contiguous row-major `|V| × d` matrix, the input
    /// the blocked GEMM query path consumes directly.
    pub fn rows(&self) -> &[f32] {
        &self.rows
    }

    /// Which quantized payload this store carries (`None` for v1).
    pub fn quant_kind(&self) -> Option<QuantKind> {
        self.ext.map(|e| e.kind)
    }

    /// The i8 code row of node `n`.
    ///
    /// # Panics
    /// Panics if the store carries no i8 section or `n` is out of range.
    #[inline]
    pub fn qrow_i8(&self, n: usize) -> &[i8] {
        assert!(self.ext.is_some(), "store carries no i8 section");
        assert!(n < self.num_nodes(), "row {n} out of range");
        &self.codes[n * self.dim()..(n + 1) * self.dim()]
    }

    /// The `(scale, zero)` dequantization affine of node `n`'s i8 row.
    ///
    /// # Panics
    /// Panics if the store carries no i8 section or `n` is out of range.
    #[inline]
    pub fn qparams(&self, n: usize) -> QuantParams {
        assert!(self.ext.is_some(), "store carries no i8 section");
        assert!(n < self.num_nodes(), "row {n} out of range");
        self.qparams[n]
    }

    /// Bytes the quantized scan path touches per query pass: the code
    /// rows plus the scale table. For a v1 store this is the f32 rows
    /// (what the exact brute path streams).
    pub fn scan_bytes(&self) -> usize {
        match self.ext {
            Some(_) => {
                std::mem::size_of_val(&self.codes[..]) + std::mem::size_of_val(&self.qparams[..])
            }
            None => std::mem::size_of_val(&self.rows[..]),
        }
    }

    /// The type id of node `n`, if the store carries a type table.
    pub fn node_type(&self, n: usize) -> Option<u32> {
        self.types.get(n).copied()
    }

    /// Copy the store back into an owned [`NodeEmbeddings`] table.
    pub fn to_embeddings(&self) -> NodeEmbeddings {
        NodeEmbeddings::from_flat(self.num_nodes(), self.dim(), self.rows.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, dim: usize) -> NodeEmbeddings {
        let data: Vec<f32> = (0..n * dim).map(|i| i as f32 * 0.25 - 1.0).collect();
        NodeEmbeddings::from_flat(n, dim, data)
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("transn-store-{name}-{}", std::process::id()))
    }

    #[test]
    fn stride_is_eight_byte_aligned() {
        assert_eq!(row_stride(1), 8);
        assert_eq!(row_stride(2), 8);
        assert_eq!(row_stride(3), 16);
        assert_eq!(row_stride(64), 256);
        for d in 1..100 {
            assert_eq!(row_stride(d) % 8, 0);
            assert!(row_stride(d) >= 4 * d);
        }
    }

    #[test]
    fn roundtrip_preserves_rows_and_types() {
        for dim in [3usize, 8] {
            let emb = toy(7, dim);
            let types: Vec<u32> = (0..7).map(|i| i % 3).collect();
            let path = temp(&format!("roundtrip-{dim}"));
            EmbStore::write_file(&emb, Some(&types), &path).unwrap();
            let store = EmbStore::open(&path).unwrap();
            assert_eq!(store.num_nodes(), 7);
            assert_eq!(store.dim(), dim);
            for (n, &ty) in types.iter().enumerate() {
                assert_eq!(store.row(n), emb.get(NodeId(n as u32)));
                assert_eq!(store.node_type(n), Some(ty));
            }
            assert_eq!(store.to_embeddings(), emb);
            // Rows are contiguous at every dim: the row padding stays on disk.
            assert_eq!(store.rows(), emb.data());
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn missing_type_table_reads_as_none() {
        let path = temp("no-types");
        EmbStore::write_file(&toy(4, 4), None, &path).unwrap();
        let store = EmbStore::open(&path).unwrap();
        assert_eq!(store.node_type(0), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_decode_rejects_each_corruption() {
        let emb = toy(5, 4);
        let mut buf = Vec::new();
        EmbStore::write(&emb, None, &mut buf).unwrap();
        let good: [u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().unwrap();
        assert!(StoreHeader::decode(&good).is_ok());

        let mut bad = good;
        bad[0] = b'X';
        assert!(matches!(
            StoreHeader::decode(&bad),
            Err(ServeError::BadMagic { .. })
        ));

        let mut bad = good;
        bad[8] = 9;
        assert!(matches!(
            StoreHeader::decode(&bad),
            Err(ServeError::UnsupportedVersion { found: 9 })
        ));

        let mut bad = good;
        bad[12..16].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            StoreHeader::decode(&bad),
            Err(ServeError::DimCountMismatch { .. })
        ));

        let mut bad = good;
        bad[16..24].copy_from_slice(&99u64.to_le_bytes());
        assert!(matches!(
            StoreHeader::decode(&bad),
            Err(ServeError::DimCountMismatch { .. })
        ));

        // Reserved bytes sit outside the checksum, so decode checks them.
        for at in [56, 63] {
            let mut bad = good;
            bad[at] = 1;
            match StoreHeader::decode(&bad) {
                Err(ServeError::DimCountMismatch { detail, .. }) => {
                    assert!(detail.contains("reserved header bytes 56..64"), "{detail}")
                }
                other => panic!("byte {at}: expected DimCountMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn header_decode_rejects_a_layout_that_overflows_u64() {
        // count·stride fits in a u64 here, but the offsets after it do not.
        for count in [u64::MAX / 8, u64::MAX / 16] {
            let mut h = [0u8; HEADER_LEN];
            h[..8].copy_from_slice(&MAGIC);
            h[8..12].copy_from_slice(&VERSION_QUANT.to_le_bytes());
            h[12..16].copy_from_slice(&1u32.to_le_bytes());
            h[16..24].copy_from_slice(&count.to_le_bytes());
            h[24..32].copy_from_slice(&(PAYLOAD_OFF_V2 as u64).to_le_bytes());
            h[32..40].copy_from_slice(
                &(PAYLOAD_OFF_V2 as u64)
                    .wrapping_add(8 * count)
                    .to_le_bytes(),
            );
            match StoreHeader::decode(&h) {
                Err(ServeError::DimCountMismatch { detail, .. }) => {
                    assert!(detail.contains("overflows"), "{detail}")
                }
                other => panic!("count {count}: expected DimCountMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_store_with_the_largest_dim_opens_empty() {
        // An empty store's checksummed body does not depend on `dim` (v1:
        // nothing; v2: the extension header), so this header is valid.
        for quant in [false, true] {
            let mut bytes = Vec::new();
            let empty = NodeEmbeddings::from_flat(0, 1, Vec::new());
            if quant {
                EmbStore::write_quant(&empty, None, QuantKind::I8, &mut bytes).unwrap();
            } else {
                EmbStore::write(&empty, None, &mut bytes).unwrap();
            }
            bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
            let path = temp(&format!("empty-max-dim-{quant}"));
            std::fs::write(&path, &bytes).unwrap();
            let store = EmbStore::open(&path).unwrap();
            assert_eq!((store.num_nodes(), store.dim()), (0, u32::MAX as usize));
            assert!(store.rows().is_empty());
            assert_eq!(store.quant_kind().is_some(), quant);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn truncated_file_is_typed_not_a_panic() {
        let path = temp("trunc");
        EmbStore::write_file(&toy(6, 4), None, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for keep in [0usize, 10, HEADER_LEN, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            match EmbStore::open(&path) {
                Err(ServeError::Truncated { .. }) => {}
                Err(other) => panic!("keep {keep}: expected Truncated, got {other:?}"),
                Ok(_) => panic!("keep {keep}: expected Truncated, got Ok"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_fails_checksum() {
        let path = temp("cksum");
        EmbStore::write_file(&toy(6, 4), None, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN + 5] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            EmbStore::open(&path),
            Err(ServeError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io() {
        assert!(matches!(
            EmbStore::open(temp("does-not-exist")),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn quant_roundtrip_preserves_f32_rows_and_codes() {
        use transn_nn::kernels::dequantize_row_i8;
        for dim in [3usize, 8, 17] {
            let emb = toy(9, dim);
            let types: Vec<u32> = (0..9).map(|i| i % 4).collect();
            let path = temp(&format!("quant-{dim}"));
            EmbStore::write_quant_file(&emb, Some(&types), QuantKind::I8, &path).unwrap();
            let store = EmbStore::open(&path).unwrap();
            assert_eq!(store.header().version, VERSION_QUANT);
            assert_eq!(store.quant_kind(), Some(QuantKind::I8));
            assert_eq!(store.num_nodes(), 9);
            assert_eq!(store.dim(), dim);
            for (n, &ty) in types.iter().enumerate() {
                // Full-precision payload and type table are intact.
                assert_eq!(store.row(n), emb.get(NodeId(n as u32)));
                assert_eq!(store.node_type(n), Some(ty));
                let p = store.qparams(n);
                let mut codes = vec![0i8; dim];
                let want = quantize_row_i8(emb.get(NodeId(n as u32)), &mut codes);
                assert_eq!(p, want);
                assert_eq!(store.qrow_i8(n), &codes[..]);
                let mut back = vec![0.0f32; dim];
                dequantize_row_i8(store.qrow_i8(n), p, &mut back);
                for (v, b) in store.row(n).iter().zip(&back) {
                    assert!((v - b).abs() <= 0.5 * p.scale + 1e-6);
                }
            }
            // Strictly smaller once real lanes (not stride padding)
            // dominate; tiny dims can tie on the 8-byte row floor.
            assert!(store.scan_bytes() <= 9 * row_stride(dim));
            if dim >= 8 {
                assert!(store.scan_bytes() < 9 * row_stride(dim));
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn quant_store_detects_each_corruption() {
        let emb = toy(8, 6);
        let path = temp("quant-faults");
        EmbStore::write_quant_file(&emb, None, QuantKind::I8, &path).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Truncated inside the quantized sections.
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        assert!(matches!(
            EmbStore::open(&path),
            Err(ServeError::Truncated { .. })
        ));

        // Scale table length that disagrees with count.
        let mut bad = full.clone();
        bad[HEADER_LEN + 16..HEADER_LEN + 24].copy_from_slice(&12u64.to_le_bytes());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            EmbStore::open(&path),
            Err(ServeError::DimCountMismatch { .. })
        ));

        // An unknown quant_kind (only 1 = i8 is defined) and nonzero
        // reserved extension bytes are rejected before the checksum pass.
        for (at, value, field) in [
            (HEADER_LEN, 2u8, "unknown quant_kind 2"),
            (HEADER_LEN + 4, 1, "reserved extension bytes 68..72"),
            (HEADER_LEN + 63, 1, "reserved extension bytes 104..128"),
        ] {
            let mut bad = full.clone();
            bad[at] = value;
            std::fs::write(&path, &bad).unwrap();
            match EmbStore::open(&path) {
                Err(ServeError::DimCountMismatch { detail, .. }) => {
                    assert!(detail.contains(field), "{detail}")
                }
                Err(other) => panic!("byte {at}: expected DimCountMismatch, got {other:?}"),
                Ok(_) => panic!("byte {at}: expected DimCountMismatch, got Ok"),
            }
        }

        // Flipped code byte fails the v2 checksum.
        let mut bad = full.clone();
        let at = bad.len() - 3;
        bad[at] ^= 0x11;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            EmbStore::open(&path),
            Err(ServeError::ChecksumMismatch { .. })
        ));

        std::fs::write(&path, &full).unwrap();
        assert!(EmbStore::open(&path).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn quant_layout_is_aligned_and_canonical() {
        for (dim, count) in [(3usize, 5u64), (8, 4), (64, 100)] {
            let base = StoreHeader {
                version: VERSION_QUANT,
                dim: dim as u32,
                count,
                payload_off: PAYLOAD_OFF_V2 as u64,
                type_table_off: PAYLOAD_OFF_V2 as u64 + count * row_stride(dim) as u64,
                type_table_len: 4 * count,
                checksum: 0,
            };
            let ext = QuantExt::layout(QuantKind::I8, &base);
            assert_eq!(ext.scale_table_off % 8, 0);
            assert_eq!(ext.qrows_off % 8, 0);
            assert_eq!(ext.qrows_len, count * QuantKind::I8.qrow_stride(dim) as u64);
            let enc = ext.encode();
            assert_eq!(QuantExt::decode(&enc, &base).unwrap(), ext);
        }
    }
}
