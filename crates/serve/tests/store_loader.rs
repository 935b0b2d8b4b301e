//! The store loader against the ways files really fail: a file changed
//! under an open store, and arbitrary byte mutations of valid v1 and v2
//! stores (truncations, bit flips, splices from another store).
//!
//! `EmbStore::open` must return a typed `ServeError` or exactly the store
//! the file's bytes encode, and never panic. CI runs the mutation
//! property at `TRANSN_CHECK_CASES=10000`, 10k cases per format.

use transn_graph::{NodeEmbeddings, NodeId};
use transn_nn::kernels::{quantize_row_i8, QuantParams};
use transn_rng::{check, Rng};
use transn_serve::store::row_stride;
use transn_serve::{EmbStore, QuantExt, QuantKind, ServeError, HEADER_LEN};

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("transn-store-loader-{name}-{}", std::process::id()))
}

/// A table, its optional type ids, and the store bytes written from them.
struct Sample {
    emb: NodeEmbeddings,
    types: Option<Vec<u32>>,
    quant: bool,
    bytes: Vec<u8>,
}

impl Sample {
    fn new(emb: NodeEmbeddings, types: Option<Vec<u32>>, quant: bool) -> Sample {
        let mut bytes = Vec::new();
        if quant {
            EmbStore::write_quant(&emb, types.as_deref(), QuantKind::I8, &mut bytes)
        } else {
            EmbStore::write(&emb, types.as_deref(), &mut bytes)
        }
        .expect("write to memory");
        Sample {
            emb,
            types,
            quant,
            bytes,
        }
    }

    fn random(rng: &mut Rng, quant: bool) -> Sample {
        let n = rng.random_range(0usize..12);
        let dim = rng.random_range(1usize..11);
        let data = (0..n * dim)
            .map(|_| rng.random_range(-2.0f32..2.0))
            .collect();
        let types = rng
            .random::<bool>()
            .then(|| (0..n).map(|_| rng.random_range(0u32..5)).collect());
        Sample::new(NodeEmbeddings::from_flat(n, dim, data), types, quant)
    }

    /// Every row, type, scale and code of `store` equals this sample's.
    fn assert_loaded_as(&self, store: &EmbStore) {
        let (n, dim) = (self.emb.num_nodes(), self.emb.dim());
        assert_eq!((store.num_nodes(), store.dim()), (n, dim));
        assert_eq!(store.rows(), self.emb.data());
        assert_eq!(store.quant_kind().is_some(), self.quant);
        let mut codes = vec![0i8; dim];
        for i in 0..n {
            let row = self.emb.get(NodeId(i as u32));
            assert_eq!(store.row(i), row, "row {i}");
            assert_eq!(store.node_type(i), self.types.as_ref().map(|t| t[i]));
            if self.quant {
                let p: QuantParams = quantize_row_i8(row, &mut codes);
                assert_eq!(store.qparams(i), p, "scale {i}");
                assert_eq!(store.qrow_i8(i), &codes[..], "codes {i}");
            }
        }
    }
}

/// The file bytes `store` stands for, laid out again from its loaded
/// sections: a store that loads must be exactly what its bytes encode.
fn encode(store: &EmbStore) -> Vec<u8> {
    let (n, dim) = (store.num_nodes(), store.dim());
    let header = *store.header();
    let ext = store
        .quant_kind()
        .map(|kind| QuantExt::layout(kind, &header));
    let mut out = header.encode().to_vec();
    out.extend(ext.map_or(Vec::new(), |e| e.encode().to_vec()));
    for i in 0..n {
        out.extend(store.row(i).iter().flat_map(|v| v.to_le_bytes()));
        out.resize(out.len() + row_stride(dim) - 4 * dim, 0);
    }
    out.extend(
        (0..n)
            .filter_map(|i| store.node_type(i))
            .flat_map(u32::to_le_bytes),
    );
    if let Some(ext) = ext {
        out.resize(ext.scale_table_off as usize, 0);
        for i in 0..n {
            let p = store.qparams(i);
            out.extend(
                p.scale
                    .to_le_bytes()
                    .into_iter()
                    .chain(p.zero.to_le_bytes()),
            );
        }
        out.resize(ext.qrows_off as usize, 0);
        for i in 0..n {
            out.extend(store.qrow_i8(i).iter().map(|&c| c as u8));
            out.resize(out.len() + ext.kind.qrow_stride(dim) - dim, 0);
        }
    }
    out
}

/// Rows `i·100 + j + 1` (row 7 starts at 701); the rewrite negates them.
fn ramp(sign: f32) -> NodeEmbeddings {
    let (n, dim) = (16, 5);
    let data = (0..n * dim)
        .map(|x| sign * ((x / dim) * 100 + x % dim + 1) as f32)
        .collect();
    NodeEmbeddings::from_flat(n, dim, data)
}

#[test]
fn open_store_is_unchanged_when_its_file_is_truncated_or_rewritten() {
    let path = temp("replace");
    let types: Vec<u32> = (0..16).map(|i| i % 3).collect();
    for quant in [false, true] {
        for rewrite in [false, true] {
            let before = Sample::new(ramp(1.0), Some(types.clone()), quant);
            std::fs::write(&path, &before.bytes).unwrap();
            let store = EmbStore::open(&path).unwrap();
            if rewrite {
                // In place, through the same file the store was opened from.
                let after = Sample::new(ramp(-1.0), Some(types.clone()), quant);
                let written = if quant {
                    EmbStore::write_quant_file(&after.emb, Some(&types), QuantKind::I8, &path)
                } else {
                    EmbStore::write_file(&after.emb, Some(&types), &path)
                };
                written.unwrap();
                assert_eq!(std::fs::read(&path).unwrap(), after.bytes);
            } else {
                std::fs::File::create(&path).unwrap();
                assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
            }
            before.assert_loaded_as(&store);
            assert_eq!(store.row(7)[0], 701.0);
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mutated_stores_load_as_typed_errors_or_unchanged() {
    let path = temp("mutation");
    check(|rng| {
        for quant in [false, true] {
            let original = Sample::random(rng, quant);
            let donor_quant = rng.random();
            let donor = Sample::random(rng, donor_quant);
            let mut bytes = original.bytes.clone();
            match rng.random_range(0u8..3) {
                0 => bytes.truncate(rng.random_range(0..bytes.len())),
                1 => {
                    for _ in 0..rng.random_range(1usize..4) {
                        let at = rng.random_range(0..bytes.len());
                        bytes[at] ^= 1 << rng.random_range(0u32..8);
                    }
                }
                _ => {
                    // Overwrite (and possibly extend) at `at` with a run of
                    // the donor's bytes.
                    let len = rng.random_range(1..=donor.bytes.len());
                    let from = rng.random_range(0..=donor.bytes.len() - len);
                    let at = rng.random_range(0..=bytes.len());
                    bytes.resize(bytes.len().max(at + len), 0);
                    bytes[at..at + len].copy_from_slice(&donor.bytes[from..from + len]);
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            match EmbStore::open(&path) {
                Ok(store) => {
                    // What loads is what the bytes encode, and its
                    // checksummed body is the original's or the donor's:
                    // only the 64-byte base header, which the format leaves
                    // outside the checksum, may differ (a `dim` change that
                    // keeps the row stride, or any `dim` of an empty store,
                    // is a valid header for the same body).
                    let encoded = encode(&store);
                    assert!(
                        bytes.starts_with(&encoded),
                        "loaded sections differ from the file"
                    );
                    assert!(
                        [&original, &donor]
                            .iter()
                            .any(|s| s.bytes[HEADER_LEN..] == encoded[HEADER_LEN..]),
                        "a mutated body passed the checksum"
                    );
                }
                Err(
                    ServeError::Truncated { .. }
                    | ServeError::BadMagic { .. }
                    | ServeError::UnsupportedVersion { .. }
                    | ServeError::ChecksumMismatch { .. }
                    | ServeError::DimCountMismatch { .. },
                ) => {}
                Err(other) => panic!("unexpected error class: {other}"),
            }
        }
    });
    std::fs::remove_file(&path).ok();
}
