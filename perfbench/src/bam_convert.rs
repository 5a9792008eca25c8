//! `bam_convert`: the binary path on a coordinate-sorted BAM.
//!
//! One iteration runs sequential `BamConverter::preprocess` to BAMX v1
//! and v2; full conversions v1→SAM, v1→BAM, v2→SAM (every column) and
//! v2→BED (projected); one `StreamConverter` run of v1→SAM, which the
//! batch path also produces; `convert_partial` at three region widths;
//! and duplicate marking through `Collator` under a spill budget small
//! enough to force spilled runs. BGZF inflate and deflate, the BAM
//! codec and BAMX writes sit beside full scans of one input, and every
//! v2 block is decoded exactly once per conversion.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ngs_bamx::{BamxFile, BamxVersion, Region};
use ngs_collate::CollateRun;
use ngs_converter::{BamConverter, ConvertConfig, ConvertReport, PreprocessReport, TargetFormat};
use ngs_formats::bam::{self, BamReader};
use ngs_formats::header::SamHeader;
use ngs_pipeline::{ConvertRun, PipelineConfig, ShardInput, StreamConverter};

use crate::trace::Trace;
use crate::util::{
    bytes_written, concat_files, flush_disks, median, peak_rss_mb, reset_peak_rss, secs, timed,
};
use crate::{err, inputs, iterate, layers, nproc, setup, Report, Run};

/// Region widths (bp) of the partial conversions, all starting at
/// `PARTIAL_START` on chr1.
const PARTIAL_WIDTHS: [i64; 3] = [10_000, 100_000, 1_000_000];
const PARTIAL_START: i64 = 200_000;
/// Regroup budget of the duplicate-marking run, in gauge bytes: a small
/// fraction of the input, so the shuffle spills several runs.
const SPILL_BUDGET: u64 = 8 << 20;

/// Outputs and phase times of one iteration.
struct Iteration {
    preprocess_s: f64,
    convert_s: f64,
    collate_s: f64,
    peak_rss_mb: f64,
    bytes_written: u64,
    v1: PreprocessReport,
    /// v1→SAM, v1→BAM, v2→SAM, v2→BED.
    full: Vec<(String, ConvertReport)>,
    stream: ConvertRun,
    markdup_path: PathBuf,
}

fn converter(version: BamxVersion, ranks: usize) -> BamConverter {
    let mut c = BamConverter::new(ConvertConfig::with_ranks(ranks));
    c.format_version = version;
    c
}

/// Duplicate marking of `bam_path` into `out`: BAM decode, the collate
/// engine, BAM encode. `spill_budget = 0` keeps everything in memory.
fn markdup(
    bam_path: &Path,
    out: &Path,
    spill_budget: u64,
    spill_dir: &Path,
) -> Result<CollateRun, String> {
    let file = std::fs::File::open(bam_path).map_err(err("open BAM"))?;
    let mut reader = BamReader::new(std::io::BufReader::new(file)).map_err(err("BAM header"))?;
    let header = reader.header().clone();
    let records = reader
        .records()
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("BAM decode"))?;
    layers::markdup(&header, records, out, spill_budget, spill_dir)
}

fn iteration(t: &Trace, bam_path: &Path, dir: &Path) -> Result<Iteration, String> {
    let ranks = nproc();
    reset_peak_rss().map_err(err("reset peak RSS"))?;
    let written0 = bytes_written();

    let t_pre = Instant::now();
    let (v1, v2) = t.span("preprocess", || -> Result<_, String> {
        let v1 = t.span("BamConverter::preprocess.v1", || {
            converter(BamxVersion::V1, ranks).preprocess(bam_path, dir.join("v1"))
        });
        let v2 = t.span("BamConverter::preprocess.v2", || {
            converter(BamxVersion::V2, ranks).preprocess(bam_path, dir.join("v2"))
        });
        Ok((
            v1.map_err(err("preprocess v1"))?,
            v2.map_err(err("preprocess v2"))?,
        ))
    })?;
    let preprocess_s = secs(t_pre);

    // Each phase starts with the previous phase's output on disk, so its
    // fsyncs do not pay for another phase's write-back.
    flush_disks();
    let t_conv = Instant::now();
    let (full, stream) = t.span("convert", || -> Result<_, String> {
        let mut full = Vec::new();
        for (name, shard, target) in [
            ("v1.sam", &v1, TargetFormat::Sam),
            ("v1.bam", &v1, TargetFormat::Bam),
            ("v2.sam", &v2, TargetFormat::Sam),
            ("v2.bed", &v2, TargetFormat::Bed),
        ] {
            let version = if name.starts_with("v1") {
                BamxVersion::V1
            } else {
                BamxVersion::V2
            };
            let report = t.span(&format!("BamConverter::convert_bamx.{name}"), || {
                converter(version, ranks).convert_bamx(
                    &shard.bamx_path,
                    target,
                    dir.join(format!("full-{name}")),
                )
            });
            full.push((name.to_string(), report.map_err(err("full conversion"))?));
        }
        let shard = Arc::new(BamxFile::open(&v1.bamx_path).map_err(err("open v1 shard"))?);
        let stream = t.span("StreamConverter::convert.v1.sam", || {
            StreamConverter::new(PipelineConfig::with_workers(ranks)).convert(
                vec![ShardInput {
                    name: "v1".into(),
                    bamx: shard,
                    indices: None,
                }],
                TargetFormat::Sam,
                &dir.join("stream"),
                "stream",
                0,
                true,
            )
        });
        let stream = stream.map_err(err("streaming conversion"))?;
        for width in PARTIAL_WIDTHS {
            let region = Region::new(b"chr1".to_vec(), PARTIAL_START, PARTIAL_START + width)
                .map_err(err("region"))?;
            let report = t.span(&format!("BamConverter::convert_partial.{width}"), || {
                converter(BamxVersion::V1, ranks).convert_partial(
                    &v1.bamx_path,
                    &v1.baix_path,
                    &region,
                    TargetFormat::Sam,
                    dir.join(format!("partial-{width}")),
                )
            });
            report.map_err(err("partial conversion"))?;
        }
        Ok((full, stream))
    })?;
    let convert_s = secs(t_conv);

    flush_disks();
    let spill_dir = dir.join("spill");
    let markdup_path = dir.join("markdup.bam");
    let (markdup, collate_s) = timed(|| {
        t.span("collate", || {
            t.span("Collator::run_records.markdup", || {
                markdup(bam_path, &markdup_path, SPILL_BUDGET, &spill_dir)
            })
        })
    });
    markdup?;

    Ok(Iteration {
        preprocess_s,
        convert_s,
        collate_s,
        peak_rss_mb: peak_rss_mb(),
        bytes_written: bytes_written() - written0,
        v1,
        full,
        stream,
        markdup_path,
    })
}

/// Records of every BAM part file, re-encoded as one byte stream.
fn bam_parts_records(paths: &[PathBuf], header: &SamHeader) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    for p in paths {
        let file = std::fs::File::open(p).map_err(err("open BAM part"))?;
        let mut reader = BamReader::new(std::io::BufReader::new(file)).map_err(err("BAM part"))?;
        while let Some(r) = reader.read_record().map_err(err("BAM part record"))? {
            bam::encode_record(&r, header, &mut out).map_err(err("encode"))?;
        }
    }
    Ok(out)
}

pub fn run(run: &Run, rep: &mut Report) -> Result<(), String> {
    let bam_path = run.work.path().join("input.bam");
    let (bam_bytes, setup_s) = setup(|| {
        let bytes = inputs::bam_bytes(run.seed);
        std::fs::write(&bam_path, &bytes).map_err(err("write BAM"))?;
        Ok(bytes)
    })?;
    let file = std::fs::File::open(&bam_path).map_err(err("open BAM"))?;
    let mut reader = BamReader::new(std::io::BufReader::new(file)).map_err(err("BAM header"))?;
    let header = reader.header().clone();
    let records = reader
        .records()
        .collect::<Result<Vec<_>, _>>()
        .map_err(err("BAM decode"))?;
    rep.fact("input_bam_bytes", bam_bytes.len());
    rep.fact("input_bam_records", records.len());

    let (plain, traced) = iterate(run, |t, dir| iteration(t, &bam_path, dir))?;
    // Per iteration: two preprocessings, four full, one streaming and
    // three partial conversions, one duplicate-marking run.
    rep.attempted += ((plain.len() + traced.len()) * 11) as u64;
    rep.fact("iterations", plain.len());
    let med = |f: &dyn Fn(&Iteration) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let total = |i: &Iteration| i.preprocess_s + i.convert_s + i.collate_s;
    if !run.trace.on() {
        rep.metric("setup_s", setup_s, "s");
        rep.metric("preprocess_s", med(&|i| i.preprocess_s), "s");
        rep.metric("convert_s", med(&|i| i.convert_s), "s");
        rep.metric("total_s", med(&total), "s");
        let ratio = med(&|i| i.bytes_written as f64) / bam_bytes.len() as f64;
        rep.metric("bytes_written_ratio", ratio, "ratio");
        rep.metric("peak_rss_mb", med(&|i| i.peak_rss_mb), "MiB");
    }

    // Output checks, after the timed section, on the last iteration.
    let last = plain
        .iter()
        .chain(&traced)
        .last()
        .ok_or("no iteration ran")?;
    let part = |name: &str| -> Result<Vec<u8>, String> {
        let (_, report) = last
            .full
            .iter()
            .find(|(n, _)| n == name)
            .ok_or("missing run")?;
        concat_files(&report.outputs).map_err(err("read outputs"))
    };
    let v1_sam = part("v1.sam")?;
    rep.checks
        .bytes("bam_convert.v1_eq_v2.sam", &v1_sam, &part("v2.sam")?);
    let v1_bed = converter(BamxVersion::V1, nproc())
        .convert_bamx(
            &last.v1.bamx_path,
            TargetFormat::Bed,
            run.work.path().join("check-v1-bed"),
        )
        .map_err(err("v1 BED reference"))?;
    let v1_bed = concat_files(&v1_bed.outputs).map_err(err("read outputs"))?;
    rep.checks
        .bytes("bam_convert.v1_eq_v2.bed", &part("v2.bed")?, &v1_bed);
    let bam_outputs = &last
        .full
        .iter()
        .find(|(n, _)| n == "v1.bam")
        .ok_or("missing run")?
        .1;
    let mut input_records = Vec::new();
    for r in &records {
        bam::encode_record(r, &header, &mut input_records).map_err(err("encode"))?;
    }
    rep.checks.bytes(
        "bam_convert.v1_bam_records_eq_input",
        &bam_parts_records(&bam_outputs.outputs, &header)?,
        &input_records,
    );
    let stream = std::fs::read(&last.stream.path).map_err(err("read stream output"))?;
    rep.checks
        .bytes("bam_convert.stream_eq_batch.sam", &stream, &v1_sam);
    let mem_path = run.work.path().join("markdup-mem.bam");
    markdup(&bam_path, &mem_path, 0, &run.work.path().join("spill-mem"))?;
    rep.checks.bytes(
        "bam_convert.markdup_spill_eq_memory",
        &std::fs::read(&last.markdup_path).map_err(err("read markdup output"))?,
        &std::fs::read(&mem_path).map_err(err("read markdup output"))?,
    );

    if run.trace.on() {
        let mut sample = records[..records.len().min(layers::PROBE_RECORDS)].to_vec();
        layers::sort(&mut sample, &header);
        let c = layers::probe(run, rep, &sample, &header)?;
        layers::serve_sample(run, rep, &header)?;
        rep.metric(
            "obs.trace_overhead_pct",
            layers::overhead_pct(&plain, &traced, total),
            "%",
        );
        // Phase time the layer numbers do not explain. Preprocessing is
        // sequential: per version, two inflate+decode passes over the
        // BAM and one BAMX write. Conversions split per-record costs
        // over the ranks: v1->SAM, v1->BAM, v2->SAM, v2->BED and the
        // streaming v1->SAM.
        let n = records.len() as f64;
        let pre_attr = n * (4.0 * (c.inflate + c.decode) + c.write[0] + c.write[1]);
        let (sam, bed) = (c.emit_of(TargetFormat::Sam), c.emit_of(TargetFormat::Bed));
        let conv_attr = n / nproc() as f64
            * (2.0 * (c.scan[0] + sam)
                + (c.scan[0] + c.encode + c.deflate)
                + (c.scan[1] + sam)
                + (c.scan[2] + bed));
        let tmed =
            |f: &dyn Fn(&Iteration) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        rep.metric(
            "preprocess.unattributed_s",
            tmed(&|i| i.preprocess_s) - pre_attr,
            "s",
        );
        rep.metric(
            "convert.unattributed_s",
            tmed(&|i| i.convert_s) - conv_attr,
            "s",
        );
    }
    Ok(())
}
