//! Seeded input generation. Every input is a pure function of the
//! `--seed` argument; the program under test only ever sees the bytes.

use ngs_simgen::{Dataset, DatasetSpec, ReadProfile};

/// Records in the `sam_analyze` SAM (about 50 MB of text).
pub const SAM_RECORDS: usize = 195_000;
/// Records in the `bam_convert` BAM.
pub const BAM_RECORDS: usize = 100_000;
/// Datasets served by `region_serve`: more than the engine's default
/// shard-cache capacity of 8, so the cold tail misses.
pub const SERVE_DATASETS: usize = 12;
/// Records per served dataset.
pub const SERVE_RECORDS: usize = 20_000;
/// Largest chromosome of the served datasets' genome: smaller than the
/// batch workloads', so region windows hold enough reads to convert.
const SERVE_CHR1_LEN: u64 = 500_000;
/// Largest chromosome of every generated genome (mm9-shaped, three
/// chromosomes: about 5.5 Mbp in all).
pub const CHR1_LEN: u64 = 2_000_000;

fn spec(seed: u64, salt: u64, n_records: usize, sorted: bool, duplicate_rate: f64) -> DatasetSpec {
    DatasetSpec {
        chr1_len: CHR1_LEN,
        n_chroms: 3,
        n_records,
        profile: ReadProfile {
            duplicate_rate,
            ..ReadProfile::default()
        },
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt,
        coordinate_sorted: sorted,
    }
}

/// The unsorted SAM text of `sam_analyze`.
pub fn sam_text(seed: u64) -> Vec<u8> {
    Dataset::generate(&spec(seed, 0x5A4, SAM_RECORDS, false, 0.0)).to_sam_bytes()
}

/// The coordinate-sorted BAM of `bam_convert`, with PCR duplicates so
/// duplicate marking has groups to resolve.
pub fn bam_bytes(seed: u64) -> Vec<u8> {
    Dataset::generate(&spec(seed, 0xBA4, BAM_RECORDS, true, 0.05))
        .to_bam_bytes()
        .expect("encoding generated records as BAM")
}

/// The `i`-th coordinate-sorted dataset of `region_serve`.
pub fn serve_dataset(seed: u64, i: usize) -> Dataset {
    let spec = spec(seed, 0x5E7 + i as u64, SERVE_RECORDS, true, 0.0);
    Dataset::generate(&DatasetSpec {
        chr1_len: SERVE_CHR1_LEN,
        ..spec
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        // Full-size generation is what the benchmark uses; check it, not
        // a scaled-down stand-in.
        assert_eq!(sam_text(1), sam_text(1));
        assert_ne!(sam_text(1), sam_text(2));
        assert_eq!(bam_bytes(1), bam_bytes(1));
        assert_ne!(bam_bytes(1), bam_bytes(2));
        let a = serve_dataset(1, 3).to_bam_bytes().unwrap();
        assert_eq!(a, serve_dataset(1, 3).to_bam_bytes().unwrap());
        assert_ne!(a, serve_dataset(2, 3).to_bam_bytes().unwrap());
        assert_ne!(a, serve_dataset(1, 4).to_bam_bytes().unwrap());
    }
}
