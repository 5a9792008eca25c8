//! Byte-identity contract of the BAMX v2 writer (DESIGN.md §14).
//!
//! A v2 shard's bytes — column streams, block offsets, footer and
//! trailer — must not depend on how or where its columns were
//! compressed. This suite pins `(length, crc32)` of the whole shard for a
//! seeded dataset at several block sizes, each with a ragged last block.
//! The expected values were recorded from the reference writer and must
//! never be edited to make a change pass.

use ngs_bamx::{BamxFile, BamxLayout, V2Writer};
use ngs_bgzf::crc32::crc32;
use ngs_formats::header::{ReferenceSequence, SamHeader};
use ngs_formats::record::AlignmentRecord;
use ngs_formats::sam;
use tempfile::tempdir;

/// Records in the dataset: 2500 = 2·1024 + 452 = 357·7 + 1.
const N_RECORDS: usize = 2500;

/// splitmix64, local so the dataset never depends on a generator crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn header() -> SamHeader {
    SamHeader::from_references(vec![
        ReferenceSequence { name: b"chr1".to_vec(), length: 2_000_000 },
        ReferenceSequence { name: b"chr2".to_vec(), length: 1_000_000 },
    ])
}

/// Coordinate-sorted paired reads over two references drawn from one
/// seeded genome, with tags, soft clips and a tail of unmapped reads.
fn records(seed: u64) -> Vec<AlignmentRecord> {
    let mut rng = Rng(seed);
    let genome: Vec<u8> = (0..20_000).map(|_| b"ACGT"[rng.below(4) as usize]).collect();
    let mut pos = 1000u64;
    (0..N_RECORDS)
        .map(|i| {
            let read_len = 60 + rng.below(41) as usize;
            let start = rng.below((genome.len() - read_len) as u64) as usize;
            let seq = std::str::from_utf8(&genome[start..start + read_len]).unwrap();
            let qual: String =
                (0..read_len).map(|_| (b'!' + 10 + rng.below(31) as u8) as char).collect();
            let line = if i >= N_RECORDS - 40 {
                format!("u{i}\t4\t*\t0\t0\t*\t*\t0\t0\t{seq}\t{qual}")
            } else {
                pos += rng.below(300);
                let rname = if i < N_RECORDS / 2 { "chr1" } else { "chr2" };
                if i == N_RECORDS / 2 {
                    pos = 500;
                }
                let clip = rng.below(4) as usize;
                let cigar = if clip > 0 {
                    format!("{clip}S{}M", read_len - clip)
                } else {
                    format!("{read_len}M")
                };
                let flag = [99u16, 147, 83, 163, 0, 16, 1024 + 99][rng.below(7) as usize];
                let tlen = 200 + rng.below(300) as i64;
                let tlen = if flag & 16 != 0 { -tlen } else { tlen };
                format!(
                    "SRR{}.{i}\t{flag}\t{rname}\t{pos}\t{}\t{cigar}\t=\t{}\t{tlen}\t{seq}\t{qual}\tNM:i:{}\tRG:Z:grp{}",
                    100 + i / 300,
                    [60u8, 60, 0, 37][rng.below(4) as usize],
                    pos + rng.below(400),
                    rng.below(4),
                    rng.below(3),
                )
            };
            sam::parse_record(line.as_bytes(), i as u64 + 1).unwrap()
        })
        .collect()
}

fn shard_bytes(records: &[AlignmentRecord], records_per_block: u32) -> Vec<u8> {
    let layout = BamxLayout::compute(records).unwrap();
    let mut w = V2Writer::with_block_size(Vec::new(), header(), layout, records_per_block).unwrap();
    for r in records {
        w.write_record(r).unwrap();
    }
    w.finish().unwrap()
}

/// `(records_per_block, shard length, crc32 of the shard bytes)`.
const EXPECTED: &[(u32, usize, u32)] = &[
    (1, 555463, 0x4bd9e528),
    (7, 310330, 0x175648bf),
    (1024, 256844, 0xa5c08193),
];

#[test]
fn v2_shard_bytes_are_pinned() {
    let recs = records(42);
    let dir = tempdir().unwrap();
    let mut actual = Vec::new();
    for rpb in [1u32, 7, 1024] {
        let bytes = shard_bytes(&recs, rpb);
        // The pinned bytes must also be a readable shard.
        let path = dir.path().join(format!("rpb{rpb}.bamx"));
        std::fs::write(&path, &bytes).unwrap();
        let f = BamxFile::open(&path).unwrap();
        assert_eq!(f.len(), N_RECORDS as u64);
        assert_eq!(f.read_record(N_RECORDS as u64 - 1).unwrap(), recs[N_RECORDS - 1]);
        actual.push((rpb, bytes.len(), crc32(&bytes)));
    }
    let table: String = actual
        .iter()
        .map(|(rpb, len, crc)| format!("    ({rpb}, {len}, 0x{crc:08x}),\n"))
        .collect();
    assert_eq!(actual, EXPECTED, "v2 shard bytes changed; actual:\n{table}");
}
