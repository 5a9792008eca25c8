//! `region_serve`: 12 datasets, half BAMX v1 and half v2, behind one
//! `QueryEngine` (default config, one worker per core). That is more
//! datasets than the default shard-cache capacity of 8, so a cold tail
//! misses.
//!
//! One iteration writes the 12 shard pairs (preprocessing), starts the
//! engine, warms it with one request of every kind for every dataset
//! and window, and then serves a fixed seeded batch closed-loop: the
//! same mix of interactive small-window converts, batch wide-window
//! converts and coverage requests, with hot-key skew, every iteration.
//! The batch is served three times per iteration; the median of its
//! wall times is the workload's `convert_s`: a shorter service time or a
//! better cache serves it sooner.

use std::path::Path;
use std::time::Duration;

use ngs_bamx::{BamxFile, Region};
use ngs_converter::{BamConverter, ConvertConfig, TargetFormat};
use ngs_formats::header::SamHeader;
use ngs_query::{Arrival, EngineConfig, QueryEngine, QueryKind, TrafficKind};
use ngs_simgen::Dataset;

use crate::serve::{self, Served, Traffic};
use crate::trace::Trace;
use crate::util::{bytes_written, flush_disks, median, peak_rss_mb, reset_peak_rss, timed};
use crate::{err, inputs, iterate, layers, nproc, setup, Report, Run};

/// Requests in the served batch: about half a second of the engine's
/// work on a 2-core host.
const BATCH_REQUESTS: usize = 2_000;
/// Times an iteration serves the batch; its `convert_s` is the median.
const BATCHES: usize = 3;

/// The generated datasets. Two set-ups are equal when their datasets
/// have the same fingerprints.
struct Inputs {
    datasets: Vec<Dataset>,
    fingerprints: Vec<u64>,
    /// Size of the datasets as SAM text.
    sam_bytes: u64,
}

impl PartialEq for Inputs {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprints == other.fingerprints
    }
}

struct Iteration {
    preprocess_s: f64,
    convert_s: f64,
    peak_rss_mb: f64,
    bytes_written: u64,
    /// Records written per layout: (v1, v2).
    records: [usize; 2],
    /// Every batch's responses.
    served: Vec<Vec<Served>>,
    /// Every batch's wall time.
    batch_s: Vec<f64>,
}

fn iteration(
    t: &Trace,
    seed: u64,
    inputs: &Inputs,
    header: &SamHeader,
    dir: &Path,
) -> Result<Iteration, String> {
    let shard_dir = dir.join("shards");
    std::fs::create_dir_all(&shard_dir).map_err(err("shard dir"))?;
    reset_peak_rss().map_err(err("reset peak RSS"))?;
    let written0 = bytes_written();
    let mut records = [0; 2];
    let (res, preprocess_s) = timed(|| {
        t.span("preprocess", || -> Result<(), String> {
            for (i, ds) in inputs.datasets.iter().enumerate() {
                let version = serve::version_of(i);
                t.span(
                    &format!("write_bamx+Baix::build.{}", version.name()),
                    || serve::write_dataset(&shard_dir, i, header, &ds.records),
                )?;
                records[usize::from(version == ngs_bamx::BamxVersion::V2)] += ds.records.len();
            }
            Ok(())
        })
    });
    res?;
    let preprocess_written = bytes_written() - written0;

    let engine = QueryEngine::new(&shard_dir, EngineConfig::with_workers(nproc()))
        .map_err(err("start engine"))?;
    let traffic = Traffic::new(inputs::SERVE_DATASETS, header, &dir.join("out"));
    serve::closed_loop(&engine, &traffic, &traffic.touch_all())?;
    // The shards and the warm-up's part files are on disk before the
    // batch starts, so its timing pays for no earlier write-back.
    flush_disks();
    let plan = serve::plan(seed, inputs::SERVE_DATASETS, BATCH_REQUESTS, 1e6);
    let (mut served, mut batch_s) = (Vec::new(), Vec::new());
    let mut batch_written = 0;
    for _ in 0..BATCHES {
        let written1 = bytes_written();
        let (responses, s) = t.span("convert", || serve::closed_loop(&engine, &traffic, &plan))?;
        // Every batch writes the same bytes; count one.
        batch_written = bytes_written() - written1;
        serve::record_spans(t, engine.clock().as_ref(), &responses);
        served.push(responses);
        batch_s.push(s);
    }
    engine.drain();
    Ok(Iteration {
        preprocess_s,
        convert_s: median(&batch_s),
        peak_rss_mb: peak_rss_mb(),
        bytes_written: preprocess_written + batch_written,
        records,
        served,
        batch_s,
    })
}

pub fn run(run: &Run, rep: &mut Report) -> Result<(), String> {
    let (inputs, setup_s) = setup(|| {
        let mut datasets = Vec::new();
        let mut fingerprints = Vec::new();
        let mut sam_bytes = 0;
        for i in 0..inputs::SERVE_DATASETS {
            let ds = inputs::serve_dataset(run.seed, i);
            let sam = ds.to_sam_bytes();
            sam_bytes += sam.len() as u64;
            fingerprints.push(crate::util::fnv1a(&sam, crate::util::FNV_OFFSET));
            datasets.push(ds);
        }
        Ok(Inputs {
            datasets,
            fingerprints,
            sam_bytes,
        })
    })?;
    let header = inputs.datasets[0].header();
    rep.fact("datasets", inputs::SERVE_DATASETS);
    rep.fact("records_per_dataset", inputs::SERVE_RECORDS);
    rep.fact("input_sam_bytes", inputs.sam_bytes);
    rep.fact("batch_requests", BATCH_REQUESTS);

    let (plain, traced) = iterate(run, |t, dir| iteration(t, run.seed, &inputs, &header, dir))?;
    let all: Vec<&Iteration> = plain.iter().chain(&traced).collect();
    for it in &all {
        for batch in &it.served {
            rep.attempted += batch.len() as u64;
            rep.failed += batch.iter().filter(|s| !s.ok).count() as u64;
        }
        rep.attempted += inputs::SERVE_DATASETS as u64;
    }
    rep.fact("iterations", plain.len());
    let med = |f: &dyn Fn(&Iteration) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    if !run.trace.on() {
        rep.metric("setup_s", setup_s, "s");
        rep.metric("preprocess_s", med(&|i| i.preprocess_s), "s");
        rep.metric("convert_s", med(&|i| i.convert_s), "s");
        rep.metric("total_s", med(&|i| i.preprocess_s + i.convert_s), "s");
        rep.metric(
            "bytes_written_ratio",
            med(&|i| i.bytes_written as f64) / inputs.sam_bytes as f64,
            "ratio",
        );
        rep.metric("peak_rss_mb", med(&|i| i.peak_rss_mb), "MiB");
    }

    // Output checks, after the timed section, on the last iteration's
    // shards and response files.
    let last_dir = run.work.path().join("iter");
    let traffic = Traffic::new(inputs::SERVE_DATASETS, &header, &last_dir.join("out"));
    check_responses(
        rep,
        &traffic,
        &last_dir.join("shards"),
        &run.work.path().join("reference"),
    )?;

    if run.trace.on() {
        let mut sample: Vec<_> = inputs.datasets[..2]
            .iter()
            .flat_map(|d| d.records.iter().cloned())
            .collect();
        layers::sort(&mut sample, &header);
        let costs = layers::probe(run, rep, &sample, &header)?;
        let shard_dir = last_dir.join("shards");
        serve::probe(
            &run.trace,
            rep,
            run.seed,
            &shard_dir,
            &traffic,
            EngineConfig::with_workers(nproc()),
        )?;
        let total = |i: &Iteration| i.preprocess_s + i.convert_s;
        let tmed =
            |f: &dyn Fn(&Iteration) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        rep.metric(
            "obs.trace_overhead_pct",
            layers::overhead_pct(&plain, &traced, total),
            "%",
        );
        // Preprocessing is one BAMX write per dataset; BAIX building and
        // file I/O are what remains. A served batch keeps every worker
        // busy: what its wall time does not spend in service is
        // unattributed.
        rep.metric(
            "preprocess.unattributed_s",
            tmed(&|i| {
                i.preprocess_s
                    - i.records[0] as f64 * costs.write[0]
                    - i.records[1] as f64 * costs.write[1]
            }),
            "s",
        );
        rep.metric(
            "convert.unattributed_s",
            tmed(&|i| {
                let idle: Vec<f64> = i
                    .served
                    .iter()
                    .zip(&i.batch_s)
                    .map(|(batch, wall)| {
                        let service: f64 = batch
                            .iter()
                            .map(|s| s.metrics.service_time.as_secs_f64())
                            .sum();
                        wall - service / nproc() as f64
                    })
                    .collect();
                median(&idle)
            }),
            "s",
        );
    }
    Ok(())
}

/// Every convert response file the run left behind, against a one-shot
/// single-rank `convert_partial` of the same region, one check per
/// dataset, computed after the timed section.
fn check_responses(
    rep: &mut Report,
    traffic: &Traffic,
    shard_dir: &Path,
    refs: &Path,
) -> Result<(), String> {
    let one_shot = BamConverter::new(ConvertConfig::with_ranks(1));
    for (d, name) in traffic.names.iter().enumerate() {
        let bamx = shard_dir.join(format!("{name}.bamx"));
        let baix = shard_dir.join(format!("{name}.baix"));
        let header = BamxFile::open(&bamx)
            .map_err(err("open BAMX"))?
            .header()
            .clone();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for kind in [TrafficKind::Query, TrafficKind::Convert] {
            for window in 0..serve::WINDOWS {
                let a = Arrival {
                    at: Duration::ZERO,
                    kind,
                    dataset: d,
                    window,
                    deadline: None,
                };
                let request = traffic.request(&a);
                let QueryKind::Convert { out_dir, .. } = &request.kind else {
                    continue;
                };
                let Ok(entries) = std::fs::read_dir(out_dir) else {
                    continue;
                };
                for entry in entries {
                    let path = entry.map_err(err("list responses"))?.path();
                    got.extend(std::fs::read(&path).map_err(err("read response"))?);
                    let region = Region::parse(&request.region, &header).map_err(err("region"))?;
                    let dir = refs.join(format!("{name}-{}-{window}", Traffic::width(kind)));
                    let reference = one_shot
                        .convert_partial(&bamx, &baix, &region, TargetFormat::Bed, &dir)
                        .map_err(err("one-shot conversion"))?;
                    want.extend(
                        std::fs::read(&reference.outputs[0]).map_err(err("read reference"))?,
                    );
                }
            }
        }
        rep.checks.bytes(
            &format!("region_serve.responses_eq_one_shot.{name}"),
            &got,
            &want,
        );
    }
    Ok(())
}
