//! Typed errors for the serving layer.
//!
//! Every way a store file can be malformed maps to a distinct variant, so
//! callers (and the fault-injection sweep) can assert on the *root cause*
//! rather than pattern-matching error strings. A short, truncated, or
//! corrupted file must surface here — never as a panic.

/// Why a store file failed to load (or a query failed to validate).
#[derive(Debug)]
pub enum ServeError {
    /// An operating-system I/O failure (open, read).
    Io(std::io::Error),
    /// The file is shorter than its own header claims.
    Truncated {
        /// Bytes the header (or the fixed header size) requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The first 8 bytes are not the `TRNSEMB\0` magic.
    BadMagic {
        /// The bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The format version is not one this build understands.
    UnsupportedVersion {
        /// Version number found in the header.
        found: u32,
    },
    /// The FNV-1a64 checksum over payload + type table does not match.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed from the bytes on disk.
        actual: u64,
    },
    /// The header's dim/count/offset fields are mutually inconsistent.
    DimCountMismatch {
        /// Declared embedding dimension.
        dim: u32,
        /// Declared node count.
        count: u64,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// A query referenced a node id outside `0..count`.
    NodeOutOfRange {
        /// The offending node id.
        node: u64,
        /// The store's node count.
        count: u64,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "store i/o error: {e}"),
            ServeError::Truncated { expected, actual } => write!(
                f,
                "store truncated: header requires {expected} bytes, file has {actual}"
            ),
            ServeError::BadMagic { found } => {
                write!(f, "bad magic: expected \"TRNSEMB\\0\", found {found:02x?}")
            }
            ServeError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported store version {found} (this build reads v1 and v2)"
                )
            }
            ServeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header says {expected:#018x}, payload hashes to {actual:#018x}"
            ),
            ServeError::DimCountMismatch { dim, count, detail } => write!(
                f,
                "inconsistent header (dim {dim}, count {count}): {detail}"
            ),
            ServeError::NodeOutOfRange { node, count } => {
                write!(f, "node {node} out of range (store holds 0..{count})")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
