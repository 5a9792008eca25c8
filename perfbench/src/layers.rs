//! Per-layer numbers of a traced run.
//!
//! Every workload runs the same probes on a coordinate-sorted sample of
//! its own records (at most [`PROBE_RECORDS`]), so each per-layer
//! metric means the same thing on every workload and is printed by
//! each: the layer's public functions, timed call by call, on this
//! workload's data. Which end-to-end metric a layer moves on which
//! workload is in `perfbench/README.md`.

use std::io::{Cursor, Read};
use std::path::Path;
use std::sync::Arc;

use ngs_bamx::{
    AnyBamxWriter, Baix, BamxCompression, BamxFile, BamxLayout, BamxVersion, ColumnSet, Region,
};
use ngs_bgzf::{compress_sequential, decompress_sequential, Options};
use ngs_cluster::run_ranks;
use ngs_collate::{CollateConfig, CollateRun, Collator, Workload};
use ngs_converter::{
    partition_distributed, target, BamConverter, ConvertConfig, FileSource, TargetFormat, Variant,
};
use ngs_formats::bam::{self, BamWriter};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_formats::sam;
use ngs_pipeline::{PipelineConfig, ShardInput, StreamConverter};
use ngs_simgen::Rng;
use ngs_stats::{
    build_fdr_input, fdr_curve, fdr_direct, nlmeans_distributed, nlmeans_sequential,
    CoverageHistogram, NlMeansParams, NullModel,
};

use crate::sam_analyze::{BIN_SIZE, FDR_ROUNDS, THRESHOLDS};
use crate::serve::{self, Traffic};
use crate::util::{median, timed};
use crate::{err, nproc, Report, Run};

/// Records per probe sample.
pub const PROBE_RECORDS: usize = 40_000;
/// Random point reads and index lookups per probe.
const POINT_READS: usize = 2_000;
const LOCATES: usize = 10_000;
/// Region widths (bp) of the partial conversions, all starting at
/// `PARTIAL_START` on the first reference.
const PARTIAL_WIDTHS: [i64; 3] = [10_000, 100_000, 400_000];
const PARTIAL_START: i64 = 50_000;
/// Regroup budget of the spilled duplicate-marking run, in gauge bytes:
/// small enough that the sample spills several runs.
const PROBE_SPILL_BUDGET: u64 = 2 << 20;
/// Line-emitting targets whose per-record cost is probed.
const EMIT_TARGETS: [TargetFormat; 4] = [
    TargetFormat::Sam,
    TargetFormat::Bed,
    TargetFormat::BedGraph,
    TargetFormat::Fasta,
];

/// Per-record seconds of the probed layer calls, for the workloads'
/// `<phase>.unattributed_s`.
pub struct Costs {
    pub parse: f64,
    pub inflate: f64,
    pub deflate: f64,
    pub decode: f64,
    pub encode: f64,
    /// `AnyBamxWriter`, v1 then v2.
    pub write: [f64; 2],
    /// Full scans of v1 and v2, then the BED-projected v2 scan.
    pub scan: [f64; 3],
    /// Per target of [`EMIT_TARGETS`].
    pub emit: [f64; 4],
}

impl Costs {
    pub fn emit_of(&self, target: TargetFormat) -> f64 {
        let k = EMIT_TARGETS.iter().position(|&t| t == target);
        k.map_or(0.0, |k| self.emit[k])
    }
}

/// Sorts `records` by reference (in header order; unplaced last) and
/// position, as a coordinate-sorted file would hold them.
pub fn sort(records: &mut [AlignmentRecord], header: &SamHeader) {
    records.sort_by_cached_key(|r| (header.reference_id(&r.rname).unwrap_or(usize::MAX), r.pos));
}

const OBS: [&str; 3] = [
    "bgzf.blocks_inflated",
    "bgzf.blocks_deflated",
    "bamx.column_bytes_decoded",
];

fn obs_now() -> [u64; 3] {
    OBS.map(|name| ngs_obs::global().counter(name).get())
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Splits the decompressed record section of a BAM into record bodies.
fn record_bodies(cursor: &mut Cursor<&[u8]>) -> Result<Vec<Vec<u8>>, String> {
    let mut bodies = Vec::new();
    let mut len = [0u8; 4];
    while cursor.read_exact(&mut len).is_ok() {
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        cursor
            .read_exact(&mut body)
            .map_err(err("truncated BAM record"))?;
        bodies.push(body);
    }
    Ok(bodies)
}

/// Duplicate marking of `records` into the BAM file `out`: the collate
/// engine, then BAM encoding. `spill_budget = 0` keeps everything in
/// memory.
pub fn markdup(
    header: &SamHeader,
    records: Vec<AlignmentRecord>,
    out: &Path,
    spill_budget: u64,
    spill_dir: &Path,
) -> Result<CollateRun, String> {
    let collator = Collator::new(CollateConfig {
        pipeline: PipelineConfig::with_workers(nproc()),
        spill_budget,
        spill_dir: Some(spill_dir.to_path_buf()),
        ..CollateConfig::default()
    });
    let sink = std::io::BufWriter::new(std::fs::File::create(out).map_err(err("create output"))?);
    let mut writer = BamWriter::new(sink, header.clone()).map_err(err("BAM writer"))?;
    let run = collator
        .run_records(header, records, Workload::MarkDup, &mut |r| {
            writer.write_record(&r)
        })
        .map_err(err("markdup"))?;
    let sink = writer.finish().map_err(err("BAM finish"))?;
    sink.into_inner()
        .map_err(|e| format!("flush output: {}", e.error()))?;
    Ok(run)
}

/// Times `f` inside a span named `layer.<name>`.
fn layer<T>(run: &Run, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    timed(|| run.trace.span(&format!("layer.{name}"), f))
}

/// Runs every probe but the query engine's on `sample` and reports the
/// bgzf, formats, bamx, converter, pipeline, stats and collate metrics.
/// Leaves a v1 and a v2 shard pair of the sample, with BAIX, as
/// datasets 1 and 0 in `<work>/probe/serve`.
pub fn probe(
    run: &Run,
    rep: &mut Report,
    sample: &[AlignmentRecord],
    header: &SamHeader,
) -> Result<Costs, String> {
    let dir = run.work.fresh("probe").map_err(err("probe dir"))?;
    let n = sample.len() as f64;
    let ranks = nproc();

    // bgzf: the codec on the sample's BAM encoding.
    let bam_file = {
        let mut w = BamWriter::new(Vec::new(), header.clone()).map_err(err("BAM writer"))?;
        for r in sample {
            w.write_record(r).map_err(err("BAM write"))?;
        }
        w.finish().map_err(err("BAM finish"))?
    };
    let obs0 = obs_now();
    let (raw, inflate_s) = layer(run, "decompress_sequential", || {
        decompress_sequential(&bam_file)
    });
    let raw = raw.map_err(err("inflate"))?;
    let obs1 = obs_now();
    let (deflated, deflate_s) = layer(run, "compress_sequential", || {
        compress_sequential(&raw, Options::default())
    });
    let obs2 = obs_now();
    rep.metric("bgzf.inflate_mb_s", mb(raw.len()) / inflate_s, "MiB/s");
    rep.metric("bgzf.deflate_mb_s", mb(raw.len()) / deflate_s, "MiB/s");
    rep.metric(
        "bgzf.deflate_ratio",
        deflated.len() as f64 / raw.len() as f64,
        "ratio",
    );
    rep.metric("bgzf.blocks_inflated", (obs1[0] - obs0[0]) as f64, "count");
    rep.metric("bgzf.blocks_deflated", (obs2[1] - obs1[1]) as f64, "count");

    // formats: SAM parsing and the BAM record codec.
    let mut text = Vec::new();
    for r in sample {
        sam::write_record(r, &mut text);
        text.push(b'\n');
    }
    let lines: Vec<&[u8]> = text
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    let (parsed, parse_s) = layer(run, "sam::parse_record", || {
        lines
            .iter()
            .enumerate()
            .map(|(i, l)| sam::parse_record(l, i as u64 + 1))
            .collect::<Result<Vec<AlignmentRecord>, _>>()
    });
    parsed.map_err(err("parse SAM"))?;
    let mut cursor = Cursor::new(&raw[..]);
    bam::decode_header(&mut cursor).map_err(err("BAM header"))?;
    let bodies = record_bodies(&mut cursor)?;
    let (decoded, decode_s) = layer(run, "bam::decode_record", || {
        bodies
            .iter()
            .map(|b| bam::decode_record(b, header))
            .collect::<Result<Vec<_>, _>>()
    });
    decoded.map_err(err("BAM decode"))?;
    let (encoded, encode_s) = layer(run, "bam::encode_record", || {
        let mut out = Vec::with_capacity(raw.len());
        for r in sample {
            bam::encode_record(r, header, &mut out)?;
        }
        Ok::<_, ngs_formats::Error>(out.len())
    });
    encoded.map_err(err("BAM encode"))?;
    rep.metric("formats.sam_parse_ns_per_rec", parse_s * 1e9 / n, "ns");
    rep.metric("formats.bam_decode_ns_per_rec", decode_s * 1e9 / n, "ns");
    rep.metric("formats.bam_encode_ns_per_rec", encode_s * 1e9 / n, "ns");

    // bamx: writers, shard files, scans, point reads, index lookups.
    let layout = BamxLayout::compute(sample).map_err(err("layout"))?;
    let mut write = [0.0; 2];
    for (k, version) in [BamxVersion::V1, BamxVersion::V2].into_iter().enumerate() {
        let name = version.name();
        let (res, s) = layer(run, &format!("AnyBamxWriter.{name}"), || {
            let mut w = AnyBamxWriter::new(
                version,
                Vec::new(),
                header.clone(),
                layout,
                BamxCompression::Plain,
            )?;
            for r in sample {
                w.write_record(r)?;
            }
            Ok::<_, ngs_formats::Error>(w.finish()?.len())
        });
        res.map_err(err("BAMX write"))?;
        write[k] = s / n;
        rep.metric(format!("bamx.{name}_write_ns_per_rec"), s * 1e9 / n, "ns");
    }
    let serve_dir = dir.join("serve");
    std::fs::create_dir_all(&serve_dir).map_err(err("serve dir"))?;
    // Dataset 0 is v2 and dataset 1 is v1 (`serve::version_of`).
    for i in 0..2 {
        let bytes = serve::write_dataset(&serve_dir, i, header, sample)?;
        let name = serve::version_of(i).name();
        rep.metric(
            format!("bamx.shard_bytes_per_rec.{name}"),
            bytes as f64 / n,
            "bytes",
        );
    }
    let path = |i: usize, ext: &str| serve_dir.join(format!("{}.{ext}", serve::dataset_name(i)));
    let v1 = BamxFile::open(path(1, "bamx")).map_err(err("open v1"))?;
    let v2 = BamxFile::open(path(0, "bamx")).map_err(err("open v2"))?;
    let bed_columns = target::builtin(TargetFormat::Bed)
        .ok_or("no BED converter")?
        .columns();
    let scan = |name: &str, f: &BamxFile, cols: ColumnSet| -> Result<f64, String> {
        let (res, s) = layer(
            run,
            &format!("BamxFile::read_range_projected.{name}"),
            || {
                let mut lo = 0;
                while lo < f.len() {
                    let hi = (lo + 2048).min(f.len());
                    std::hint::black_box(f.read_range_projected(lo, hi, cols)?);
                    lo = hi;
                }
                Ok::<_, ngs_formats::Error>(())
            },
        );
        res.map_err(err("scan"))?;
        Ok(s)
    };
    let v1_scan = scan("v1", &v1, ColumnSet::ALL)?;
    let v2_scan = scan("v2", &v2, ColumnSet::ALL)?;
    let obs3 = obs_now();
    let v2_proj = scan("v2.bed", &v2, bed_columns)?;
    let obs4 = obs_now();
    rep.metric("bamx.v1_scan_ns_per_rec", v1_scan * 1e9 / n, "ns");
    rep.metric("bamx.v2_scan_ns_per_rec", v2_scan * 1e9 / n, "ns");
    rep.metric("bamx.v2_projected_scan_ns_per_rec", v2_proj * 1e9 / n, "ns");
    rep.metric(
        "bamx.column_bytes_decoded",
        (obs4[2] - obs3[2]) as f64,
        "bytes",
    );
    let mut rng = Rng::seed_from_u64(run.seed ^ 0x9017);
    let picks: Vec<u64> = (0..POINT_READS).map(|_| rng.next_below(v1.len())).collect();
    // A v2 point read inflates a whole block: far fewer of them.
    for (name, f, reads) in [("v1", &v1, POINT_READS), ("v2", &v2, POINT_READS / 10)] {
        let (res, s) = layer(run, &format!("BamxFile::read_record.{name}"), || {
            picks[..reads].iter().try_for_each(|&i| {
                f.read_record(i).map(|r| {
                    std::hint::black_box(r);
                })
            })
        });
        res.map_err(err("point read"))?;
        rep.metric(
            format!("bamx.{name}_point_read_us"),
            s * 1e6 / reads as f64,
            "us",
        );
    }
    let chr = &header.references[0];
    let baix = Baix::load(path(1, "baix")).map_err(err("load BAIX"))?;
    let windows: Vec<Region> = (0..LOCATES)
        .map(|_| {
            let s = rng.next_below(chr.length - 1_000) as i64;
            Region::new(chr.name.clone(), s, s + 1_000)
        })
        .collect::<Result<_, _>>()
        .map_err(err("region"))?;
    let (found, locate_s) = layer(run, "Baix::locate", || {
        windows
            .iter()
            .map(|w| baix.locate(0, w).len())
            .sum::<usize>()
    });
    std::hint::black_box(found);
    rep.metric("bamx.locate_ns", locate_s * 1e9 / LOCATES as f64, "ns");

    // converter: partitioning, per-target emit, rank balance, partial
    // conversions.
    let sam_path = dir.join("sample.sam");
    let mut sam_file = header.text.clone().into_bytes();
    sam_file.extend_from_slice(&text);
    std::fs::write(&sam_path, &sam_file).map_err(err("write SAM"))?;
    let source = FileSource::open(&sam_path).map_err(err("open SAM"))?;
    let (parts, partition_s) = layer(run, "partition_distributed", || {
        run_ranks(ranks, |comm| {
            partition_distributed(&source, comm, Variant::Forward)
        })
    });
    std::hint::black_box(parts);
    rep.metric("converter.partition_ms", partition_s * 1e3, "ms");
    let mut emit = [0.0; 4];
    for (k, target) in EMIT_TARGETS.into_iter().enumerate() {
        let conv = target::builtin(target).ok_or("no line converter")?;
        let ext = target.extension();
        let (_, s) = layer(run, &format!("emit.{ext}"), || {
            let mut buf = Vec::with_capacity(1 << 20);
            for r in sample {
                conv.convert(r, &mut buf);
                if buf.len() > 1 << 20 {
                    std::hint::black_box(&buf);
                    buf.clear();
                }
            }
            std::hint::black_box(buf.len())
        });
        emit[k] = s / n;
        rep.metric(
            format!("converter.emit_ns_per_rec.{ext}"),
            s * 1e9 / n,
            "ns",
        );
    }
    let converter = BamConverter::new(ConvertConfig::with_ranks(ranks));
    let (batch, batch_s) = layer(run, "BamConverter::convert_bamx.v1.sam", || {
        converter.convert_bamx(path(1, "bamx"), TargetFormat::Sam, dir.join("batch"))
    });
    let batch = batch.map_err(err("batch conversion"))?;
    let elapsed: Vec<f64> = batch
        .per_rank
        .iter()
        .map(|s| s.elapsed.as_secs_f64())
        .collect();
    rep.metric(
        "converter.rank_imbalance",
        elapsed.iter().cloned().fold(0.0, f64::max) * elapsed.len() as f64
            / elapsed.iter().sum::<f64>(),
        "ratio",
    );
    for width in PARTIAL_WIDTHS {
        let region = Region::new(chr.name.clone(), PARTIAL_START, PARTIAL_START + width)
            .map_err(err("region"))?;
        let (res, s) = layer(
            run,
            &format!("BamConverter::convert_partial.{width}"),
            || {
                converter.convert_partial(
                    path(1, "bamx"),
                    path(1, "baix"),
                    &region,
                    TargetFormat::Sam,
                    dir.join(format!("partial-{width}")),
                )
            },
        );
        res.map_err(err("partial conversion"))?;
        rep.metric(format!("converter.partial_ms.{width}"), s * 1e3, "ms");
    }

    // pipeline: streaming next to the batch run of the same target.
    let shard = Arc::new(BamxFile::open(path(1, "bamx")).map_err(err("open v1"))?);
    let (stream, stream_s) = layer(run, "StreamConverter::convert.v1.sam", || {
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
    rep.metric("pipeline.convert_s", stream_s, "s");
    rep.metric("pipeline.batch_convert_s", batch_s, "s");
    rep.metric(
        "pipeline.peak_buffered_mb",
        mb(stream.metrics.peak_buffered_bytes as usize),
        "MiB",
    );
    // The source stage keeps no busy time; the two transform stages do.
    for name in ["convert", "format-emit"] {
        let stage = stream
            .metrics
            .stages
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("pipeline stage {name} not reported"))?;
        rep.metric(
            format!("pipeline.{name}.busy_ms"),
            stage.busy.as_secs_f64() * 1e3,
            "ms",
        );
    }

    // stats: the analysis chain on the sample's coverage.
    let bedgraph = target::builtin(TargetFormat::BedGraph).ok_or("no BEDGRAPH converter")?;
    let mut coverage = Vec::new();
    for r in sample {
        bedgraph.convert(r, &mut coverage);
    }
    let (hist, histogram_s) = layer(run, "CoverageHistogram::add_bedgraph_text", || {
        let mut h = CoverageHistogram::new(header, BIN_SIZE);
        h.add_bedgraph_text(&coverage).map(|_| h.bins)
    });
    let hist = hist.map_err(err("BEDGRAPH"))?;
    let params = NlMeansParams::default();
    let (denoised, nlmeans_s) = layer(run, "nlmeans_distributed", || {
        nlmeans_distributed(&hist, &params, ranks)
    });
    let (_, nlmeans_seq_s) = layer(run, "nlmeans_sequential", || {
        nlmeans_sequential(&hist, &params)
    });
    let (fdr_input, fdr_input_s) = layer(run, "build_fdr_input", || {
        build_fdr_input(denoised, FDR_ROUNDS, NullModel::Poisson, run.seed)
    });
    let (_, fdr_s) = layer(run, "fdr_curve", || {
        fdr_curve(&fdr_input, &THRESHOLDS, ranks)
    });
    let (_, fdr_direct_s) = layer(run, "fdr_direct", || {
        THRESHOLDS
            .iter()
            .map(|&p| fdr_direct(&fdr_input, p))
            .collect::<Vec<_>>()
    });
    rep.metric("stats.histogram_s", histogram_s, "s");
    rep.metric("stats.nlmeans_s", nlmeans_s, "s");
    rep.metric("stats.nlmeans_seq_s", nlmeans_seq_s, "s");
    rep.metric("stats.fdr_input_s", fdr_input_s, "s");
    rep.metric("stats.fdr_s", fdr_s, "s");
    rep.metric("stats.fdr_direct_s", fdr_direct_s, "s");

    // collate: duplicate marking with a spill budget, and in memory.
    let (spilled, spill_s) = layer(run, "Collator::run_records.markdup.spill", || {
        markdup(
            header,
            sample.to_vec(),
            &dir.join("markdup-spill.bam"),
            PROBE_SPILL_BUDGET,
            &dir.join("spill"),
        )
    });
    let spilled = spilled?;
    let (in_memory, mem_s) = layer(run, "Collator::run_records.markdup.memory", || {
        markdup(
            header,
            sample.to_vec(),
            &dir.join("markdup-memory.bam"),
            0,
            &dir.join("spill-memory"),
        )
    });
    in_memory?;
    let restore = spilled.restore.clone().unwrap_or_default();
    let regroup = &spilled.regroup;
    rep.metric(
        "collate.spill_runs",
        (regroup.spill_runs + restore.spill_runs) as f64,
        "count",
    );
    rep.metric(
        "collate.spilled_mb",
        mb((regroup.spilled_bytes + restore.spilled_bytes) as usize),
        "MiB",
    );
    rep.metric(
        "collate.merge_fan_in",
        regroup.merge_fan_in.max(restore.merge_fan_in) as f64,
        "count",
    );
    rep.metric("collate.mem_s", mem_s, "s");
    rep.metric("collate.spill_s", spill_s, "s");

    Ok(Costs {
        parse: parse_s / n,
        inflate: inflate_s / n,
        deflate: deflate_s / n,
        decode: decode_s / n,
        encode: encode_s / n,
        write,
        scan: [v1_scan / n, v2_scan / n, v2_proj / n],
        emit,
    })
}

/// The query-engine probe of the batch workloads: the sample's v2 and
/// v1 shard pairs from [`probe`], each served under two names (four
/// datasets) by an engine whose shard cache is one LRU of two, so
/// requests both hit and miss the cache.
pub fn serve_sample(run: &Run, rep: &mut Report, header: &SamHeader) -> Result<(), String> {
    let serve_dir = run.work.path().join("probe").join("serve");
    for i in 0..2 {
        for ext in ["bamx", "baix"] {
            let from = serve_dir.join(format!("{}.{ext}", serve::dataset_name(i)));
            let to = serve_dir.join(format!("{}.{ext}", serve::dataset_name(i + 2)));
            std::fs::copy(from, to).map_err(err("copy shard"))?;
        }
    }
    let traffic = Traffic::new(4, header, &run.work.path().join("probe").join("out"));
    serve::probe(
        &run.trace,
        rep,
        run.seed,
        &serve_dir,
        &traffic,
        ngs_query::EngineConfig {
            cache_capacity: 2,
            // One segment makes the two slots one LRU: with one slot per
            // dataset's segment nothing would ever be evicted.
            segments: 1,
            ..ngs_query::EngineConfig::with_workers(nproc())
        },
    )
}

/// Median of `f` over the traced iterations against the untraced ones,
/// as a percentage overhead.
pub fn overhead_pct<I>(plain: &[I], traced: &[I], f: impl Fn(&I) -> f64) -> f64 {
    let p = median(&plain.iter().map(&f).collect::<Vec<_>>());
    let t = median(&traced.iter().map(&f).collect::<Vec<_>>());
    (t / p - 1.0) * 100.0
}
