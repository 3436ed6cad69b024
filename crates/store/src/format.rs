//! The on-disk format: a versioned, checksummed superblock naming the
//! sealed generation, plus per-storage-node stripe files of fixed-size,
//! individually tagged and checksummed block slots.
//!
//! Layout on disk (all integers little-endian):
//!
//! ```text
//! <dir>/superblock            the seal: which generation is complete
//! <dir>/node<k>.g<gen>.stripe one stripe file per storage node per gen
//! ```
//!
//! **Superblock** — `magic "FLOSUPER" | version u32 | generation u64 |
//! layout_hash u64 | block_bytes u32 | storage_nodes u32 | file_count u32
//! | (file u32, blocks u64)* | fnv1a64 checksum u64`. The checksum covers
//! every preceding byte, so truncation and bit flips in the block map are
//! both detected before any stripe file is trusted.
//!
//! **Stripe header** — `magic "FLOSTRIP" | version u32 | node u32 |
//! generation u64 | layout_hash u64 | block_bytes u32 | slot_count u64 |
//! fnv1a64 checksum u64`, zero-padded to [`STRIPE_HEADER_LEN`].
//!
//! **Block slot** — `file u32 | index u64 | fnv1a64(data) u64 |
//! data[block_bytes]`. The tag makes a misdirected write (right bytes,
//! wrong slot) as detectable as a flipped bit.
//!
//! Decoding never panics: every read is bounds-checked and every
//! mismatch surfaces as a typed [`StoreError`] — the format-fuzz suite
//! drives mutated images through these decoders.

use crate::error::StoreError;
use flo_sim::BlockAddr;
use std::path::Path;

/// Magic of the superblock file.
pub const SUPER_MAGIC: [u8; 8] = *b"FLOSUPER";
/// Magic of a stripe file.
pub const STRIPE_MAGIC: [u8; 8] = *b"FLOSTRIP";
/// On-disk format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// Fixed size of the stripe header (content + zero padding).
pub const STRIPE_HEADER_LEN: usize = 64;
/// Per-slot metadata bytes preceding the block data.
pub const SLOT_META: usize = 4 + 8 + 8;
/// Largest block size the decoders will believe (a fuzzed length field
/// must not provoke a gigantic allocation).
pub const MAX_BLOCK_BYTES: u32 = 1 << 26;

/// FNV-1a over a byte slice, the format's checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Block count of one file in a generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileBlocks {
    /// File id (one per disk-resident array).
    pub file: u32,
    /// Number of data blocks the file holds.
    pub blocks: u64,
}

/// What one generation of the store contains: the layout fingerprint it
/// was materialized from, the block geometry, and the per-file block map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreSpec {
    /// Fingerprint of the `FileLayout`s this generation materializes.
    pub layout_hash: u64,
    /// Bytes per data block.
    pub block_bytes: u32,
    /// Storage nodes the blocks stripe across.
    pub storage_nodes: u32,
    /// Per-file block counts, sorted by file id.
    pub files: Vec<FileBlocks>,
}

impl StoreSpec {
    /// Validate the spec's structural constraints.
    pub fn validate(&self) -> Result<(), StoreError> {
        let fail = |why: String| Err(StoreError::Invalid(why));
        if self.storage_nodes == 0 {
            return fail("storage_nodes must be positive".into());
        }
        if self.block_bytes == 0 || self.block_bytes > MAX_BLOCK_BYTES {
            return fail(format!("block_bytes {} out of range", self.block_bytes));
        }
        if self.files.is_empty() {
            return fail("a store spec needs at least one file".into());
        }
        for w in self.files.windows(2) {
            if w[1].file <= w[0].file {
                return fail("files must be sorted by strictly increasing id".into());
            }
        }
        if self.files.iter().any(|f| f.blocks == 0) {
            return fail("every file needs at least one block".into());
        }
        Ok(())
    }

    /// Total blocks across all files.
    pub fn total_blocks(&self) -> u64 {
        self.files.iter().map(|f| f.blocks).sum()
    }

    /// The storage node holding `block` — identical to
    /// [`Topology::storage_node_of_block`](flo_sim::Topology::storage_node_of_block)'s
    /// PVFS round-robin striping,
    /// restated here so a store can be opened from its superblock alone.
    pub fn node_of_block(&self, block: BlockAddr) -> usize {
        (block.index % u64::from(self.storage_nodes)) as usize
    }

    /// The blocks stored on `node`, in slot order (file-major, index
    /// ascending) — the deterministic order materializer and reader
    /// share, so slot offsets are computable without scanning.
    pub fn slots_for_node(&self, node: usize) -> Vec<BlockAddr> {
        let mut slots = Vec::new();
        for f in &self.files {
            for index in 0..f.blocks {
                let b = BlockAddr::new(f.file, index);
                if self.node_of_block(b) == node {
                    slots.push(b);
                }
            }
        }
        slots
    }
}

/// Deterministic content of one block: a xorshift64* stream seeded from
/// `(layout_hash, file, index)`, so any byte of any block is verifiable
/// without storing anything besides the seed inputs.
pub fn block_fill(layout_hash: u64, block: BlockAddr, block_bytes: u32) -> Vec<u8> {
    let mut x = layout_hash
        ^ u64::from(block.file).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ block.index.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x |= 1;
    let mut out = Vec::with_capacity(block_bytes as usize);
    while out.len() < block_bytes as usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let word = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let bytes = word.to_le_bytes();
        let take = (block_bytes as usize - out.len()).min(8);
        out.extend_from_slice(&bytes[..take]);
    }
    out
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reads; `None` means truncated.
fn rd_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes.get(at..at + 4).map(|s| {
        let mut a = [0u8; 4];
        a.copy_from_slice(s);
        u32::from_le_bytes(a)
    })
}

fn rd_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes.get(at..at + 8).map(|s| {
        let mut a = [0u8; 8];
        a.copy_from_slice(s);
        u64::from_le_bytes(a)
    })
}

/// Serialize a superblock for `generation` of `spec`.
pub fn encode_superblock(generation: u64, spec: &StoreSpec) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + spec.files.len() * 12 + 8);
    out.extend_from_slice(&SUPER_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u64(&mut out, generation);
    put_u64(&mut out, spec.layout_hash);
    put_u32(&mut out, spec.block_bytes);
    put_u32(&mut out, spec.storage_nodes);
    put_u32(&mut out, spec.files.len() as u32);
    for f in &spec.files {
        put_u32(&mut out, f.file);
        put_u64(&mut out, f.blocks);
    }
    let sum = fnv1a64(&out);
    put_u64(&mut out, sum);
    out
}

/// Decode and verify a superblock image. `path` is carried into errors.
pub fn decode_superblock(bytes: &[u8], path: &Path) -> Result<(u64, StoreSpec), StoreError> {
    let truncated = |need: usize| StoreError::Truncated {
        what: "superblock",
        path: path.to_path_buf(),
        need,
        got: bytes.len(),
    };
    let corrupt = |why: &str| StoreError::Corrupt {
        why: format!("superblock: {why}"),
        path: path.to_path_buf(),
    };
    if bytes.len() < 8 {
        return Err(truncated(8));
    }
    if bytes[..8] != SUPER_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = rd_u32(bytes, 8).ok_or_else(|| truncated(12))?;
    if version != FORMAT_VERSION {
        return Err(StoreError::VersionSkew {
            what: "superblock",
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let generation = rd_u64(bytes, 12).ok_or_else(|| truncated(20))?;
    let layout_hash = rd_u64(bytes, 20).ok_or_else(|| truncated(28))?;
    let block_bytes = rd_u32(bytes, 28).ok_or_else(|| truncated(32))?;
    let storage_nodes = rd_u32(bytes, 32).ok_or_else(|| truncated(36))?;
    let file_count = rd_u32(bytes, 36).ok_or_else(|| truncated(40))? as usize;
    let body_len = 40 + file_count * 12;
    if bytes.len() < body_len + 8 {
        return Err(truncated(body_len + 8));
    }
    let stored_sum = rd_u64(bytes, body_len).ok_or_else(|| truncated(body_len + 8))?;
    if fnv1a64(&bytes[..body_len]) != stored_sum {
        return Err(corrupt("checksum mismatch"));
    }
    let mut files = Vec::with_capacity(file_count);
    for i in 0..file_count {
        let at = 40 + i * 12;
        files.push(FileBlocks {
            file: rd_u32(bytes, at).ok_or_else(|| truncated(at + 4))?,
            blocks: rd_u64(bytes, at + 4).ok_or_else(|| truncated(at + 12))?,
        });
    }
    let spec = StoreSpec {
        layout_hash,
        block_bytes,
        storage_nodes,
        files,
    };
    spec.validate()
        .map_err(|e| corrupt(&format!("invalid spec ({e})")))?;
    Ok((generation, spec))
}

/// Serialize a stripe header for `node` of `generation`.
pub fn encode_stripe_header(
    node: u32,
    generation: u64,
    spec: &StoreSpec,
    slot_count: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(STRIPE_HEADER_LEN);
    out.extend_from_slice(&STRIPE_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, node);
    put_u64(&mut out, generation);
    put_u64(&mut out, spec.layout_hash);
    put_u32(&mut out, spec.block_bytes);
    put_u64(&mut out, slot_count);
    let sum = fnv1a64(&out);
    put_u64(&mut out, sum);
    out.resize(STRIPE_HEADER_LEN, 0);
    out
}

/// A decoded stripe header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeHeader {
    /// Storage node this stripe belongs to.
    pub node: u32,
    /// Generation the stripe was written for.
    pub generation: u64,
    /// Layout fingerprint of that generation.
    pub layout_hash: u64,
    /// Bytes per block slot's data region.
    pub block_bytes: u32,
    /// Number of block slots following the header.
    pub slot_count: u64,
}

/// Decode and verify a stripe header image.
pub fn decode_stripe_header(bytes: &[u8], path: &Path) -> Result<StripeHeader, StoreError> {
    let truncated = |need: usize| StoreError::Truncated {
        what: "stripe header",
        path: path.to_path_buf(),
        need,
        got: bytes.len(),
    };
    let corrupt = |why: &str| StoreError::Corrupt {
        why: format!("stripe header: {why}"),
        path: path.to_path_buf(),
    };
    if bytes.len() < STRIPE_HEADER_LEN {
        return Err(truncated(STRIPE_HEADER_LEN));
    }
    if bytes[..8] != STRIPE_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = rd_u32(bytes, 8).ok_or_else(|| truncated(12))?;
    if version != FORMAT_VERSION {
        return Err(StoreError::VersionSkew {
            what: "stripe header",
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let node = rd_u32(bytes, 12).ok_or_else(|| truncated(16))?;
    let generation = rd_u64(bytes, 16).ok_or_else(|| truncated(24))?;
    let layout_hash = rd_u64(bytes, 24).ok_or_else(|| truncated(32))?;
    let block_bytes = rd_u32(bytes, 32).ok_or_else(|| truncated(36))?;
    let slot_count = rd_u64(bytes, 36).ok_or_else(|| truncated(44))?;
    let stored_sum = rd_u64(bytes, 44).ok_or_else(|| truncated(52))?;
    if fnv1a64(&bytes[..44]) != stored_sum {
        return Err(corrupt("checksum mismatch"));
    }
    if block_bytes == 0 || block_bytes > MAX_BLOCK_BYTES {
        return Err(corrupt("block_bytes out of range"));
    }
    Ok(StripeHeader {
        node,
        generation,
        layout_hash,
        block_bytes,
        slot_count,
    })
}

/// Serialize one block slot: tag, data checksum, data.
pub fn encode_slot(block: BlockAddr, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SLOT_META + data.len());
    put_u32(&mut out, block.file);
    put_u64(&mut out, block.index);
    put_u64(&mut out, fnv1a64(data));
    out.extend_from_slice(data);
    out
}

/// Verify a slot image against the block it should hold and return its
/// data region.
pub fn decode_slot<'a>(
    bytes: &'a [u8],
    expect: BlockAddr,
    block_bytes: u32,
    path: &Path,
) -> Result<&'a [u8], StoreError> {
    let need = SLOT_META + block_bytes as usize;
    if bytes.len() < need {
        return Err(StoreError::Truncated {
            what: "block slot",
            path: path.to_path_buf(),
            need,
            got: bytes.len(),
        });
    }
    let corrupt = |why: String| StoreError::Corrupt {
        why,
        path: path.to_path_buf(),
    };
    let file = rd_u32(bytes, 0).expect("checked length");
    let index = rd_u64(bytes, 4).expect("checked length");
    if file != expect.file || index != expect.index {
        return Err(corrupt(format!(
            "slot tag ({file},{index}) where block ({},{}) belongs",
            expect.file, expect.index
        )));
    }
    let stored_sum = rd_u64(bytes, 12).expect("checked length");
    let data = &bytes[SLOT_META..need];
    if fnv1a64(data) != stored_sum {
        return Err(corrupt(format!(
            "data checksum mismatch in block ({},{})",
            expect.file, expect.index
        )));
    }
    Ok(data)
}

/// Byte size of one slot for `block_bytes`-sized blocks.
pub fn slot_len(block_bytes: u32) -> u64 {
    SLOT_META as u64 + u64::from(block_bytes)
}

/// File name of the superblock within a store directory.
pub fn superblock_name() -> &'static str {
    "superblock"
}

/// File name of node `n`'s stripe for `generation`.
pub fn stripe_name(node: usize, generation: u64) -> String {
    format!("node{node}.g{generation}.stripe")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flo_sim::Topology;
    use std::path::PathBuf;

    fn spec() -> StoreSpec {
        StoreSpec {
            layout_hash: 0xDEAD_BEEF,
            block_bytes: 128,
            storage_nodes: 2,
            files: vec![
                FileBlocks { file: 0, blocks: 5 },
                FileBlocks { file: 2, blocks: 3 },
            ],
        }
    }

    fn p() -> PathBuf {
        PathBuf::from("test")
    }

    #[test]
    fn superblock_round_trips() {
        let s = spec();
        let img = encode_superblock(7, &s);
        let (gen, back) = decode_superblock(&img, &p()).unwrap();
        assert_eq!(gen, 7);
        assert_eq!(back, s);
    }

    #[test]
    fn superblock_rejects_every_single_bit_flip() {
        let img = encode_superblock(3, &spec());
        for byte in 0..img.len() {
            for bit in 0..8 {
                let mut bad = img.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_superblock(&bad, &p()).is_err(),
                    "flip at byte {byte} bit {bit} must not decode"
                );
            }
        }
    }

    #[test]
    fn superblock_rejects_every_truncation() {
        let img = encode_superblock(3, &spec());
        for len in 0..img.len() {
            assert!(
                decode_superblock(&img[..len], &p()).is_err(),
                "truncation to {len} must not decode"
            );
        }
    }

    #[test]
    fn version_skew_is_typed() {
        let mut img = encode_superblock(1, &spec());
        img[8] = 9; // version field
        let tail = img.len() - 8;
        let sum = fnv1a64(&img[..tail]);
        img[tail..].copy_from_slice(&sum.to_le_bytes());
        match decode_superblock(&img, &p()) {
            Err(StoreError::VersionSkew { found: 9, .. }) => {}
            other => panic!("expected VersionSkew, got {other:?}"),
        }
    }

    #[test]
    fn stripe_header_round_trips_and_detects_flips() {
        let s = spec();
        let img = encode_stripe_header(1, 4, &s, 17);
        assert_eq!(img.len(), STRIPE_HEADER_LEN);
        let h = decode_stripe_header(&img, &p()).unwrap();
        assert_eq!(h.node, 1);
        assert_eq!(h.generation, 4);
        assert_eq!(h.slot_count, 17);
        for byte in 0..52 {
            let mut bad = img.clone();
            bad[byte] ^= 0x80;
            assert!(decode_stripe_header(&bad, &p()).is_err(), "byte {byte}");
        }
    }

    #[test]
    fn slot_verifies_tag_and_checksum() {
        let b = BlockAddr::new(2, 9);
        let data = block_fill(0xABCD, b, 64);
        let img = encode_slot(b, &data);
        assert_eq!(img.len() as u64, slot_len(64));
        assert_eq!(decode_slot(&img, b, 64, &p()).unwrap(), &data[..]);
        // Wrong expected block → tag mismatch.
        assert!(decode_slot(&img, BlockAddr::new(2, 8), 64, &p()).is_err());
        // Data flip → checksum mismatch.
        let mut bad = img.clone();
        bad[SLOT_META + 10] ^= 1;
        assert!(decode_slot(&bad, b, 64, &p()).is_err());
        // Short slot → truncated.
        assert!(matches!(
            decode_slot(&img[..10], b, 64, &p()),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn block_fill_is_deterministic_and_distinct() {
        let a = block_fill(1, BlockAddr::new(0, 0), 96);
        assert_eq!(a.len(), 96);
        assert_eq!(a, block_fill(1, BlockAddr::new(0, 0), 96));
        assert_ne!(a, block_fill(1, BlockAddr::new(0, 1), 96));
        assert_ne!(a, block_fill(2, BlockAddr::new(0, 0), 96));
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        let mut s = spec();
        s.storage_nodes = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.files[1].file = 0;
        assert!(s.validate().is_err(), "unsorted files");
        let mut s = spec();
        s.files[0].blocks = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.block_bytes = MAX_BLOCK_BYTES + 1;
        assert!(s.validate().is_err());
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn slot_order_partitions_all_blocks() {
        let s = spec();
        let a = s.slots_for_node(0);
        let b = s.slots_for_node(1);
        assert_eq!(a.len() as u64 + b.len() as u64, s.total_blocks());
        // Slot order is file-major, index-ascending.
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
    }

    #[test]
    fn node_of_block_matches_topology_striping() {
        // The spec's restated striping rule must agree with the
        // simulator's for every storage-node count the sim accepts.
        for nodes in [1u32, 2, 3, 4, 5, 8] {
            let mut s = spec();
            s.storage_nodes = nodes;
            let topo = Topology {
                storage_nodes: nodes as usize,
                ..Topology::paper_default()
            };
            for file in [0u32, 2] {
                for index in 0..64 {
                    let b = BlockAddr::new(file, index);
                    assert_eq!(
                        s.node_of_block(b),
                        topo.storage_node_of_block(b),
                        "nodes={nodes} block=({file},{index})"
                    );
                }
            }
        }
    }
}
