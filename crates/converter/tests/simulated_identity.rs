//! Simulated-cluster identity: every `*_simulated` entry point runs the
//! same setup and per-rank body as its threaded twin with only the
//! executor swapped, so it must write the same bytes — shard files and
//! manifest included.

use std::path::Path;

use ngs_bamx::repo::ShardRepo;
use ngs_bamx::{BamxCompression, BamxFile, BamxVersion, Region};
use ngs_converter::{
    BamConverter, ConvertConfig, ConvertReport, MemSource, SamConverter, SamxConverter,
    TargetFormat,
};
use ngs_simgen::{Dataset, DatasetSpec};
use tempfile::tempdir;

fn cat(report: &ConvertReport) -> Vec<u8> {
    let mut all = Vec::new();
    for p in &report.outputs {
        all.extend_from_slice(&std::fs::read(p).unwrap());
    }
    all
}

/// Every file in `dir` as `(name, bytes)` pairs, sorted by name.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn simulated_sam_matches_threaded() {
    let ds = Dataset::generate(&DatasetSpec { n_records: 400, ..Default::default() });
    let src = MemSource::new(ds.to_sam_bytes());
    let dir = tempdir().unwrap();
    let conv = SamConverter::new(ConvertConfig::with_ranks(4));
    let threaded =
        conv.convert_source(&src, TargetFormat::Bed, &dir.path().join("t"), "o").unwrap();
    let simulated = conv
        .convert_source_simulated(&src, TargetFormat::Bed, &dir.path().join("s"), "o")
        .unwrap();
    assert_eq!(cat(&threaded), cat(&simulated));
    assert!(simulated.convert_time > std::time::Duration::ZERO);
}

#[test]
fn simulated_bamx_matches_threaded() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 300,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam = dir.path().join("in.bam");
    ds.write_bam(&bam).unwrap();
    let conv = BamConverter::new(ConvertConfig::with_ranks(3));
    let prep = conv.preprocess(&bam, dir.path()).unwrap();
    let threaded =
        conv.convert_bamx(&prep.bamx_path, TargetFormat::Json, dir.path().join("t")).unwrap();
    let simulated = conv
        .convert_bamx_simulated(&prep.bamx_path, TargetFormat::Json, dir.path().join("s"))
        .unwrap();
    assert_eq!(cat(&threaded), cat(&simulated));
}

#[test]
fn simulated_partial_matches_threaded() {
    let ds = Dataset::generate(&DatasetSpec {
        n_records: 500,
        coordinate_sorted: true,
        ..Default::default()
    });
    let dir = tempdir().unwrap();
    let bam = dir.path().join("in.bam");
    ds.write_bam(&bam).unwrap();
    let conv = BamConverter::new(ConvertConfig::with_ranks(2));
    let prep = conv.preprocess(&bam, dir.path()).unwrap();
    let header = ds.header();
    let region = Region::new("chr1", 0, header.references[0].length as i64 / 3).unwrap();
    let threaded = conv
        .convert_partial(&prep.bamx_path, &prep.baix_path, &region, TargetFormat::Bed, dir.path().join("t"))
        .unwrap();
    let simulated = conv
        .convert_partial_simulated(&prep.bamx_path, &prep.baix_path, &region, TargetFormat::Bed, dir.path().join("s"))
        .unwrap();
    assert_eq!(cat(&threaded), cat(&simulated));
}

#[test]
fn simulated_samx_matches_threaded() {
    let ds = Dataset::generate(&DatasetSpec { n_records: 350, ..Default::default() });
    let src = MemSource::new(ds.to_sam_bytes());
    let dir = tempdir().unwrap();
    let conv = SamxConverter::new(ConvertConfig::with_ranks(3));
    let prep_t = conv.preprocess_source(&src, &dir.path().join("pt"), "x").unwrap();
    let prep_s =
        conv.preprocess_source_simulated(&src, &dir.path().join("ps"), "x").unwrap();
    assert_eq!(prep_t.records(), prep_s.records());
    let rt =
        conv.convert_shards(&prep_t.shards, TargetFormat::Fastq, dir.path().join("t")).unwrap();
    let rs = conv
        .convert_shards_simulated(&prep_s.shards, TargetFormat::Fastq, dir.path().join("s"))
        .unwrap();
    assert_eq!(cat(&rt), cat(&rs));
    assert_eq!(rt.outputs.len(), 9);
}

/// Simulated preprocessing honours `format_version` and
/// `bamx_compression` and publishes through the shard repository exactly
/// like the threaded path: same file list (`MANIFEST` included), same
/// bytes. Reruns into a used directory — even one left by a different
/// rank count — rebuild rather than resume.
#[test]
fn simulated_samx_v2_bgzf_preprocess_matches_threaded() {
    let ds = Dataset::generate(&DatasetSpec { n_records: 350, ..Default::default() });
    let src = MemSource::new(ds.to_sam_bytes());
    let dir = tempdir().unwrap();
    let configure = |ranks| {
        let mut conv = SamxConverter::new(ConvertConfig::with_ranks(ranks));
        conv.format_version = BamxVersion::V2;
        conv.bamx_compression = BamxCompression::Bgzf;
        conv
    };
    let conv = configure(3);
    let (pt, ps) = (dir.path().join("pt"), dir.path().join("ps"));
    let threaded = conv.preprocess_source(&src, &pt, "x").unwrap();

    configure(4).preprocess_source_simulated(&src, &ps, "x").unwrap();
    for _ in 0..2 {
        let simulated = conv.preprocess_source_simulated(&src, &ps, "x").unwrap();
        assert!(simulated.shards.iter().all(|s| !s.resumed), "a rerun rebuilds");
        assert_eq!(simulated.records(), threaded.records());
        for shard in &simulated.shards {
            assert_eq!(BamxFile::open(&shard.bamx_path).unwrap().version(), BamxVersion::V2);
        }
        let (t_files, s_files) = (dir_contents(&pt), dir_contents(&ps));
        let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
            files.iter().map(|(name, _)| name.clone()).collect()
        };
        assert_eq!(names(&t_files), names(&s_files));
        assert!(names(&s_files).iter().any(|n| n == "MANIFEST"));
        for ((name, t_bytes), (_, s_bytes)) in t_files.iter().zip(&s_files) {
            assert_eq!(t_bytes, s_bytes, "{name} differs");
        }
        assert!(ShardRepo::open(&ps).unwrap().verify().unwrap().is_clean());
    }
}
