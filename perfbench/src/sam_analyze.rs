//! `sam_analyze`: the paper's text path on an unsorted SAM of ~50 MB.
//!
//! One iteration runs instance 1 (Algorithm 1 conversion straight from
//! SAM) to BED, BEDGRAPH and FASTA; instance 3 (parallel SAMX
//! preprocessing, then conversion from the shards) to the same targets;
//! and the analysis chain histogram → NL-means → FDR input → FDR sweep.
//! No BGZF and no query engine run here.

use std::path::Path;
use std::time::Instant;

use ngs_converter::runtime::scan_sam_header;
use ngs_converter::{
    ConvertConfig, ConvertReport, FileSource, SamConverter, SamxConverter, TargetFormat,
};
use ngs_formats::record::AlignmentRecord;
use ngs_formats::sam;
use ngs_stats::{
    build_fdr_input, fdr_curve, fdr_direct, nlmeans_distributed, nlmeans_sequential,
    CoverageHistogram, FdrInput, NlMeansParams, NullModel,
};

use crate::trace::Trace;
use crate::util::{
    bytes_written, concat_files, flush_disks, median, peak_rss_mb, reset_peak_rss, secs, timed,
};
use crate::{err, inputs, iterate, layers, nproc, setup, Report, Run};

const TARGETS: [TargetFormat; 3] = [
    TargetFormat::Bed,
    TargetFormat::BedGraph,
    TargetFormat::Fasta,
];
/// Histogram bin width (the paper's 25 bp).
pub const BIN_SIZE: u32 = 25;
/// Simulation rounds behind the FDR input.
pub const FDR_ROUNDS: usize = 20;
/// FDR thresholds swept; the low end has no false discoveries, the
/// high end has some, so the sweep crosses from zero to non-zero.
pub const THRESHOLDS: [f64; 4] = [0.0, 1.0, 2.0, 4.0];

/// Phase times of one iteration.
struct Iteration {
    preprocess_s: f64,
    convert_s: f64,
    analyze_s: f64,
    peak_rss_mb: f64,
    bytes_written: u64,
}

/// What the output checks compare, from one iteration.
struct Outputs {
    instance1: Vec<ConvertReport>,
    instance3: Vec<ConvertReport>,
    histogram: Vec<f64>,
    denoised: Vec<f64>,
    fdr_input: FdrInput,
    curve: Vec<f64>,
}

fn iteration(
    t: &Trace,
    seed: u64,
    sam_path: &Path,
    dir: &Path,
) -> Result<(Iteration, Outputs), String> {
    let ranks = nproc();
    let config = ConvertConfig::with_ranks(ranks);
    let source = FileSource::open(sam_path).map_err(err("open SAM"))?;
    let (header, _) = scan_sam_header(&source).map_err(err("SAM header"))?;
    reset_peak_rss().map_err(err("reset peak RSS"))?;
    let written0 = bytes_written();

    let samx = SamxConverter::new(config.clone());
    let (prep, preprocess_s) = timed(|| {
        t.span("preprocess", || {
            t.span("SamxConverter::preprocess_source", || {
                samx.preprocess_source(&source, &dir.join("shards"), "input")
            })
        })
    });
    let prep = prep.map_err(err("SAMX preprocessing"))?;

    // Each phase starts with the previous phase's output on disk, so its
    // fsyncs do not pay for another phase's write-back.
    flush_disks();
    let sam_conv = SamConverter::new(config.clone());
    let t_conv = Instant::now();
    let mut instance1 = Vec::new();
    let mut instance3 = Vec::new();
    t.span("convert", || -> Result<(), String> {
        for target in TARGETS {
            let ext = target.extension();
            instance1.push(
                t.span(&format!("SamConverter::convert_source.{ext}"), || {
                    sam_conv.convert_source(
                        &source,
                        target,
                        &dir.join(format!("i1-{ext}")),
                        "input",
                    )
                })
                .map_err(err("instance 1 conversion"))?,
            );
            instance3.push(
                t.span(&format!("SamxConverter::convert_shards.{ext}"), || {
                    samx.convert_shards(&prep.shards, target, dir.join(format!("i3-{ext}")))
                })
                .map_err(err("instance 3 conversion"))?,
            );
        }
        Ok(())
    })?;
    let convert_s = secs(t_conv);

    flush_disks();
    let params = NlMeansParams::default();
    let bedgraph = &instance1[1].outputs;
    let (stages, analyze_s) = timed(|| {
        t.span("analyze", || -> Result<_, String> {
            let hist = t.span(
                "CoverageHistogram::add_bedgraph_text",
                || -> Result<_, String> {
                    let mut h = CoverageHistogram::new(&header, BIN_SIZE);
                    for part in bedgraph {
                        let text = std::fs::read(part).map_err(err("read BEDGRAPH"))?;
                        h.add_bedgraph_text(&text).map_err(err("BEDGRAPH"))?;
                    }
                    Ok(h.bins)
                },
            )?;
            let denoised = t.span("nlmeans_distributed", || {
                nlmeans_distributed(&hist, &params, ranks)
            });
            let fdr_input = t.span("build_fdr_input", || {
                build_fdr_input(denoised.clone(), FDR_ROUNDS, NullModel::Poisson, seed)
            });
            let curve = t.span("fdr_curve", || fdr_curve(&fdr_input, &THRESHOLDS, ranks));
            let curve = curve.into_iter().map(|(_, f)| f).collect::<Vec<_>>();
            Ok((hist, denoised, fdr_input, curve))
        })
    });
    let (histogram, denoised, fdr_input, curve) = stages?;

    let it = Iteration {
        preprocess_s,
        convert_s,
        analyze_s,
        peak_rss_mb: peak_rss_mb(),
        bytes_written: bytes_written() - written0,
    };
    Ok((
        it,
        Outputs {
            instance1,
            instance3,
            histogram,
            denoised,
            fdr_input,
            curve,
        },
    ))
}

pub fn run(run: &Run, rep: &mut Report) -> Result<(), String> {
    let sam_path = run.work.path().join("input.sam");

    let (text, setup_s) = setup(|| {
        let text = inputs::sam_text(run.seed);
        std::fs::write(&sam_path, &text).map_err(err("write SAM"))?;
        Ok(text)
    })?;
    let input_bytes = text.len() as f64;
    rep.fact("input_sam_bytes", text.len());
    rep.fact("input_sam_records", inputs::SAM_RECORDS);

    // Only the last iteration's outputs are kept for the checks. The
    // previous ones are dropped before the next iteration starts, so its
    // peak resident set does not grow with the number of iterations.
    let mut outputs = None;
    let (plain, traced) = iterate(run, |t, dir| {
        outputs = None;
        let (it, out) = iteration(t, run.seed, &sam_path, dir)?;
        outputs = Some(out);
        Ok(it)
    })?;
    // Per iteration: one preprocessing, six conversions, one analysis.
    rep.attempted += ((plain.len() + traced.len()) * (2 + 2 * TARGETS.len())) as u64;
    let med = |f: &dyn Fn(&Iteration) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let total = |i: &Iteration| i.preprocess_s + i.convert_s + i.analyze_s;
    rep.fact("iterations", plain.len());

    if !run.trace.on() {
        rep.metric("setup_s", setup_s, "s");
        rep.metric("preprocess_s", med(&|i| i.preprocess_s), "s");
        rep.metric("convert_s", med(&|i| i.convert_s), "s");
        rep.metric("total_s", med(&total), "s");
        rep.metric(
            "bytes_written_ratio",
            med(&|i| i.bytes_written as f64) / input_bytes,
            "ratio",
        );
        rep.metric("peak_rss_mb", med(&|i| i.peak_rss_mb), "MiB");
    }

    // Output checks against independent references, on the last
    // iteration's outputs, after the timed section.
    let last = outputs.ok_or("no iteration ran")?;
    for (k, target) in TARGETS.iter().enumerate() {
        let a = concat_files(&last.instance1[k].outputs).map_err(err("read outputs"))?;
        let b = concat_files(&last.instance3[k].outputs).map_err(err("read outputs"))?;
        rep.checks.bytes(
            &format!("sam_analyze.instance1_eq_instance3.{}", target.extension()),
            &a,
            &b,
        );
    }
    let seq = nlmeans_sequential(&last.histogram, &NlMeansParams::default());
    rep.checks.floats(
        "sam_analyze.nlmeans_distributed_eq_sequential",
        &last.denoised,
        &seq,
        0.0,
    );
    let direct: Vec<f64> = THRESHOLDS
        .iter()
        .map(|&p| fdr_direct(&last.fdr_input, p))
        .collect();
    rep.checks
        .fdr_sweep("sam_analyze.fdr_parallel_eq_direct", &last.curve, &direct);

    if run.trace.on() {
        let source = FileSource::open(&sam_path).map_err(err("open SAM"))?;
        let (header, _) = scan_sam_header(&source).map_err(err("SAM header"))?;
        let mut sample = text
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty() && l[0] != b'@')
            .take(layers::PROBE_RECORDS)
            .enumerate()
            .map(|(i, l)| sam::parse_record(l, i as u64 + 1))
            .collect::<Result<Vec<AlignmentRecord>, _>>()
            .map_err(err("parse SAM"))?;
        layers::sort(&mut sample, &header);
        let costs = layers::probe(run, rep, &sample, &header)?;
        layers::serve_sample(run, rep, &header)?;
        rep.metric(
            "obs.trace_overhead_pct",
            layers::overhead_pct(&plain, &traced, total),
            "%",
        );
        // Phase time the layer numbers do not explain. Ranks split every
        // per-record cost evenly, so a phase's attributed time is the
        // per-record costs times records, divided by ranks. SAMX makes
        // two parse passes (layout, then write) per rank; instance 1
        // parses and emits, instance 3 scans v1 shards and emits.
        let per_rank = inputs::SAM_RECORDS as f64 / nproc() as f64;
        let pre_attr = per_rank * (2.0 * costs.parse + costs.write[0]);
        let conv_attr: f64 = TARGETS
            .iter()
            .map(|&t| per_rank * (costs.parse + costs.scan[0] + 2.0 * costs.emit_of(t)))
            .sum();
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
