//! The versioned binary embedding store: write once, `mmap` forever.
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
//! The 8-byte row stride means every row starts at an 8-byte boundary of
//! the mapping, so on little-endian targets a row is readable as `&[f32]`
//! **zero-copy** — no parsing, no allocation, no per-row work at load time.
//! When `dim · 4` is already a multiple of 8 (every even `dim`) the rows
//! are contiguous and the whole payload doubles as one `|V| × d` matrix
//! for the blocked GEMM query path ([`EmbStore::rows_contiguous`]).
//!
//! Loading validates the header *before* trusting any field: length checks
//! precede every read, so a truncated or hostile file produces a typed
//! [`ServeError`] — never a panic and never an out-of-bounds access of the
//! mapping.
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

/// Incremental FNV-1a64 state, so writers can checksum a stream without
/// buffering it.
#[derive(Clone, Copy)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// Fresh state (the FNV-1a offset basis).
    pub fn new() -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold more bytes into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a64 over a byte stream (the workspace's fingerprint hash).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(bytes);
    h.finish()
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
        let payload_len = header
            .count
            .checked_mul(stride)
            .ok_or_else(|| mismatch("count·stride overflows u64".into()))?;
        let want_table_off = header.payload_off + payload_len;
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

/// Read-only bytes backing a store: a private file mapping on Unix, a
/// heap buffer elsewhere (and as fallback). The heap buffer is allocated
/// as `u64`s so both backings give the 8-byte base alignment the row
/// layout is designed around.
enum Backing {
    #[cfg(unix)]
    Mmap {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    Heap {
        buf: Vec<u64>,
        len: usize,
    },
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated; sharing
// immutable bytes across threads is sound.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: ptr/len come from a successful mmap of exactly `len`
            // bytes that stays mapped until Drop.
            Backing::Mmap { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            Backing::Heap { buf, len } => {
                // SAFETY: `buf` owns at least `len` initialized bytes.
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len) }
            }
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mmap { ptr, len } = self {
            // SAFETY: exactly one munmap for the one successful mmap.
            unsafe {
                sys::munmap(*ptr, *len);
            }
        }
    }
}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

#[cfg(unix)]
fn map_file(file: &std::fs::File, len: usize) -> Option<Backing> {
    use std::os::unix::io::AsRawFd;
    if len == 0 {
        return None;
    }
    // SAFETY: fd is open for the duration of the call; a failed map
    // returns MAP_FAILED which we reject, falling back to a heap read.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr.is_null() || ptr as isize == -1 {
        return None;
    }
    Some(Backing::Mmap { ptr, len })
}

fn read_heap(path: &Path, len: usize) -> Result<Backing, ServeError> {
    let bytes = std::fs::read(path)?;
    debug_assert_eq!(bytes.len(), len);
    let mut buf = vec![0u64; len.div_ceil(8)];
    // SAFETY: the u64 buffer spans at least `len` bytes.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr() as *mut u8, bytes.len());
    }
    Ok(Backing::Heap {
        buf,
        len: bytes.len(),
    })
}

/// A loaded embedding store: validated header plus zero-copy row access
/// into the backing bytes.
pub struct EmbStore {
    header: StoreHeader,
    ext: Option<QuantExt>,
    backing: Backing,
    /// Rows decoded once at load time on big-endian targets, where the
    /// on-disk LE payload cannot be viewed as native `f32` directly.
    #[cfg(not(target_endian = "little"))]
    decoded: Vec<f32>,
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

    /// Load a store: map (or read) the file, validate the header against
    /// the actual file length, and verify the checksum.
    pub fn open(path: impl AsRef<Path>) -> Result<EmbStore, ServeError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN as u64 {
            return Err(ServeError::Truncated {
                expected: HEADER_LEN as u64,
                actual: file_len,
            });
        }
        let backing = {
            #[cfg(unix)]
            {
                match map_file(&file, file_len as usize) {
                    Some(b) => b,
                    None => read_heap(path, file_len as usize)?,
                }
            }
            #[cfg(not(unix))]
            {
                read_heap(path, file_len as usize)?
            }
        };
        drop(file);
        let bytes = backing.bytes();
        let header = StoreHeader::decode(bytes[..HEADER_LEN].try_into().unwrap())?;
        let ext = if header.version == VERSION_QUANT {
            if file_len < PAYLOAD_OFF_V2 as u64 {
                return Err(ServeError::Truncated {
                    expected: PAYLOAD_OFF_V2 as u64,
                    actual: file_len,
                });
            }
            Some(QuantExt::decode(
                bytes[HEADER_LEN..PAYLOAD_OFF_V2].try_into().unwrap(),
                &header,
            )?)
        } else {
            None
        };
        let need = ext.map_or_else(|| header.file_len(), |e| e.file_len());
        if need > file_len {
            return Err(ServeError::Truncated {
                expected: need,
                actual: file_len,
            });
        }
        let body = &bytes[HEADER_LEN..need as usize];
        let actual = fnv1a64(body);
        if actual != header.checksum {
            return Err(ServeError::ChecksumMismatch {
                expected: header.checksum,
                actual,
            });
        }
        #[cfg(not(target_endian = "little"))]
        let decoded = {
            let stride = row_stride(header.dim as usize);
            let mut rows = Vec::with_capacity(header.count as usize * header.dim as usize);
            for n in 0..header.count as usize {
                let at = header.payload_off as usize + n * stride;
                for c in bytes[at..at + header.dim as usize * 4].chunks_exact(4) {
                    rows.push(f32::from_le_bytes(c.try_into().unwrap()));
                }
            }
            rows
        };
        Ok(EmbStore {
            header,
            ext,
            backing,
            #[cfg(not(target_endian = "little"))]
            decoded,
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

    /// The embedding of node `n`, zero-copy from the mapping.
    ///
    /// # Panics
    /// Panics if `n >= num_nodes()`.
    #[inline]
    pub fn row(&self, n: usize) -> &[f32] {
        assert!(n < self.num_nodes(), "row {n} out of range");
        #[cfg(target_endian = "little")]
        {
            let stride = row_stride(self.dim());
            let at = self.header.payload_off as usize + n * stride;
            let bytes = &self.backing.bytes()[at..at + self.dim() * 4];
            // SAFETY: the slice is 8-byte aligned (8-aligned base + 8-byte
            // aligned payload_off + 8-byte stride), in-bounds (validated at
            // open), and on little-endian targets the LE payload *is*
            // native f32.
            unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f32, self.dim()) }
        }
        #[cfg(not(target_endian = "little"))]
        {
            &self.decoded[n * self.dim()..(n + 1) * self.dim()]
        }
    }

    /// The whole payload as one contiguous `|V| × d` matrix, when the row
    /// stride carries no padding (every even `dim`). This is the input the
    /// blocked GEMM query path consumes directly.
    pub fn rows_contiguous(&self) -> Option<&[f32]> {
        if self.dim() * 4 != row_stride(self.dim()) || self.num_nodes() == 0 {
            return None;
        }
        #[cfg(target_endian = "little")]
        {
            let at = self.header.payload_off as usize;
            let bytes = &self.backing.bytes()[at..at + self.num_nodes() * self.dim() * 4];
            // SAFETY: same alignment/bounds/endianness argument as `row`.
            Some(unsafe {
                std::slice::from_raw_parts(
                    bytes.as_ptr() as *const f32,
                    self.num_nodes() * self.dim(),
                )
            })
        }
        #[cfg(not(target_endian = "little"))]
        {
            Some(&self.decoded)
        }
    }

    /// Which quantized payload this store carries (`None` for v1).
    pub fn quant_kind(&self) -> Option<QuantKind> {
        self.ext.map(|e| e.kind)
    }

    /// The i8 code row of node `n`, zero-copy from the mapping.
    ///
    /// # Panics
    /// Panics if the store carries no i8 section or `n` is out of range.
    #[inline]
    pub fn qrow_i8(&self, n: usize) -> &[i8] {
        let ext = self.ext.expect("store carries no i8 section");
        assert!(n < self.num_nodes(), "row {n} out of range");
        let at = ext.qrows_off as usize + n * ext.kind.qrow_stride(self.dim());
        let bytes = &self.backing.bytes()[at..at + self.dim()];
        // SAFETY: i8 and u8 share layout and i8 has no endianness; bounds
        // were validated at open.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const i8, self.dim()) }
    }

    /// The `(scale, zero)` dequantization affine of node `n`'s i8 row.
    ///
    /// # Panics
    /// Panics if the store carries no i8 section or `n` is out of range.
    #[inline]
    pub fn qparams(&self, n: usize) -> QuantParams {
        let ext = self.ext.expect("store carries no i8 section");
        assert!(n < self.num_nodes(), "row {n} out of range");
        let at = ext.scale_table_off as usize + 8 * n;
        let bytes = self.backing.bytes();
        QuantParams {
            scale: f32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()),
            zero: f32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()),
        }
    }

    /// Bytes the quantized scan path touches per query pass: the code
    /// rows plus any scale table. For a v1 store this is the f32 payload
    /// (what the exact brute path streams).
    pub fn scan_bytes(&self) -> usize {
        match self.ext {
            Some(e) => (e.scale_table_len + e.qrows_len) as usize,
            None => self.num_nodes() * row_stride(self.dim()),
        }
    }

    /// The type id of node `n`, if the store carries a type table.
    pub fn node_type(&self, n: usize) -> Option<u32> {
        if self.header.type_table_len == 0 || n >= self.num_nodes() {
            return None;
        }
        let at = self.header.type_table_off as usize + 4 * n;
        let bytes = self.backing.bytes();
        Some(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()))
    }

    /// Copy the store back into an owned [`NodeEmbeddings`] table.
    pub fn to_embeddings(&self) -> NodeEmbeddings {
        let mut data = Vec::with_capacity(self.num_nodes() * self.dim());
        for n in 0..self.num_nodes() {
            data.extend_from_slice(self.row(n));
        }
        NodeEmbeddings::from_flat(self.num_nodes(), self.dim(), data)
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
            // Contiguity only without row padding.
            assert_eq!(store.rows_contiguous().is_some(), dim % 2 == 0);
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
