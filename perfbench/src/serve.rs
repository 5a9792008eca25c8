//! Serving harness shared by `region_serve` and the query probe of
//! every traced run: shard pairs written from in-memory records, a
//! seeded request mix mapped onto them, closed-loop and open-loop
//! clients, and the query- and store-layer numbers of a served batch.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ngs_bamx::{Baix, BamxCompression, BamxFile, BamxVersion};
use ngs_formats::header::SamHeader;
use ngs_formats::record::AlignmentRecord;
use ngs_query::{
    generate_load, Arrival, CacheCounters, Clock, LoadProfile, QueryClass, QueryEngine, QueryError,
    QueryRequest, QueryResponse, RequestMetrics, ShardStore, TrafficKind,
};

use crate::err;
use crate::trace::Trace;
use crate::util::{median, rank_quantile_ns, timed};

/// Region windows per dataset and their widths: interactive requests
/// convert a small window, batch ones a wide one.
pub const WINDOWS: usize = 16;
const SMALL_WINDOW: i64 = 2_000;
const WIDE_WINDOW: i64 = 20_000;
/// Requests the closed-loop client keeps in flight: enough to keep
/// every worker busy and the queues non-empty, far below their bound.
const IN_FLIGHT: usize = 16;

pub fn dataset_name(i: usize) -> String {
    format!("ds{i:02}")
}

/// Even datasets are v2, so the hot key (dataset 0) is served from the
/// block-columnar layout.
pub fn version_of(i: usize) -> BamxVersion {
    if i.is_multiple_of(2) {
        BamxVersion::V2
    } else {
        BamxVersion::V1
    }
}

/// Writes dataset `i` as a BAMX shard in [`version_of`]`(i)` plus its
/// BAIX into `dir`. Returns the BAMX file's size.
pub fn write_dataset(
    dir: &Path,
    i: usize,
    header: &SamHeader,
    records: &[AlignmentRecord],
) -> Result<u64, String> {
    let bamx = dir.join(format!("{}.bamx", dataset_name(i)));
    ngs_bamx::file::write_bamx_file_versioned(
        &bamx,
        header,
        records,
        BamxCompression::Plain,
        version_of(i),
    )
    .map_err(err("write BAMX"))?;
    let file = BamxFile::open(&bamx).map_err(err("open BAMX"))?;
    Baix::build(&file)
        .and_then(|b| b.save(dir.join(format!("{}.baix", dataset_name(i)))))
        .map_err(err("write BAIX"))?;
    std::fs::metadata(&bamx)
        .map(|m| m.len())
        .map_err(err("stat BAMX"))
}

/// Maps planned arrivals onto requests against served datasets.
///
/// A convert response goes to a directory named after its dataset,
/// window width and window, so every repeat of one request rewrites one
/// part file: creating a new file costs several times more than
/// rewriting one on common filesystems, and would make latency track
/// how many distinct files a run had created. Repeats produce identical
/// bytes; `region_serve` checks every such file against a one-shot
/// conversion.
pub struct Traffic {
    pub names: Vec<String>,
    small: Vec<String>,
    wide: Vec<String>,
    out: PathBuf,
}

impl Traffic {
    /// Windows are spread evenly over the first reference of `header`.
    pub fn new(datasets: usize, header: &SamHeader, out: &Path) -> Self {
        let chr = &header.references[0];
        let name = String::from_utf8_lossy(&chr.name).into_owned();
        let stride = (chr.length as i64 - WIDE_WINDOW) / WINDOWS as i64;
        let windows = |width: i64| -> Vec<String> {
            (0..WINDOWS as i64)
                .map(|w| format!("{name}:{}-{}", 1 + w * stride, w * stride + width))
                .collect()
        };
        Traffic {
            names: (0..datasets).map(dataset_name).collect(),
            small: windows(SMALL_WINDOW),
            wide: windows(WIDE_WINDOW),
            out: out.to_path_buf(),
        }
    }

    /// Interactive requests convert a small window; batch converts and
    /// coverage requests a wide one.
    pub fn width(kind: TrafficKind) -> &'static str {
        if kind == TrafficKind::Query {
            "small"
        } else {
            "wide"
        }
    }

    pub fn request(&self, a: &Arrival) -> QueryRequest {
        let width = Self::width(a.kind);
        let regions = if width == "small" {
            &self.small
        } else {
            &self.wide
        };
        let root = self.out.join(format!("{}-{width}", self.names[a.dataset]));
        a.to_request(&self.names, regions, &root, a.window, None)
    }

    /// One request of every kind for every dataset and window: opens
    /// every dataset and writes every part file a plan can write.
    pub fn touch_all(&self) -> Vec<Arrival> {
        let mut plan = Vec::new();
        for dataset in 0..self.names.len() {
            for window in 0..WINDOWS {
                for kind in [
                    TrafficKind::Query,
                    TrafficKind::Convert,
                    TrafficKind::Analyze,
                ] {
                    plan.push(Arrival {
                        at: Duration::ZERO,
                        kind,
                        dataset,
                        window,
                        deadline: None,
                    });
                }
            }
        }
        plan
    }
}

/// The request mix: 70% interactive small-window converts, the rest
/// batch wide-window converts and coverage requests, half of all
/// traffic on a hot dataset. `rate` spaces the arrivals for the
/// open-loop client; the closed-loop client ignores it. No deadlines:
/// every request is answered.
pub fn plan(seed: u64, datasets: usize, requests: usize, rate: f64) -> Vec<Arrival> {
    generate_load(&LoadProfile {
        seed,
        requests,
        rate_per_sec: rate,
        datasets,
        windows: WINDOWS,
        hot_pct: 50,
        interactive_pct: 70,
        analyze_pct: 25,
        interactive_deadline: None,
        batch_deadline: None,
    })
}

/// One answered request.
pub struct Served {
    pub arrival: Arrival,
    pub ok: bool,
    pub metrics: RequestMetrics,
}

/// Closed loop: `plan` is sent with [`IN_FLIGHT`] requests outstanding,
/// each new one sent when the oldest returns. Returns every response
/// and the wall seconds from the first submission to the last answer.
pub fn closed_loop(
    engine: &QueryEngine,
    traffic: &Traffic,
    plan: &[Arrival],
) -> Result<(Vec<Served>, f64), String> {
    let mut inflight = std::collections::VecDeque::new();
    let mut served = Vec::with_capacity(plan.len());
    let take = |(arrival, ticket): (Arrival, ngs_query::Ticket)| {
        let QueryResponse { outcome, metrics } = ticket.wait();
        Served {
            arrival,
            ok: outcome.is_ok(),
            metrics,
        }
    };
    let start = Instant::now();
    for a in plan {
        if inflight.len() == IN_FLIGHT {
            served.push(take(inflight.pop_front().expect("non-empty")));
        }
        let ticket = engine.submit(traffic.request(a)).map_err(err("submit"))?;
        inflight.push_back((a.clone(), ticket));
    }
    served.extend(inflight.into_iter().map(take));
    Ok((served, start.elapsed().as_secs_f64()))
}

/// One open-loop request: due time, submission time and, when it was
/// answered successfully, completion time (engine clock).
struct Timed {
    due: Duration,
    submitted: Duration,
    finished: Option<Duration>,
}

/// Open loop: each request of `plan` is submitted at its due time by
/// this thread, whatever the engine's state; a collector thread waits
/// on the tickets. Refused requests are never answered.
fn open_loop(
    engine: &QueryEngine,
    traffic: &Traffic,
    plan: Vec<Arrival>,
) -> Result<Vec<Timed>, String> {
    let clock = std::sync::Arc::clone(engine.clock());
    let (tx, rx) = mpsc::channel::<(Timed, Option<ngs_query::Ticket>)>();
    let collector = std::thread::spawn(move || {
        rx.into_iter()
            .map(|(mut d, ticket)| {
                if let Some(ticket) = ticket {
                    let QueryResponse { outcome, metrics } = ticket.wait();
                    d.finished = outcome.is_ok().then_some(metrics.finished_at);
                }
                d
            })
            .collect::<Vec<_>>()
    });
    let start = clock.now();
    let mut failure = None;
    for arrival in plan {
        let due = start + arrival.at;
        // Sleep rather than spin: on a small host a spinning generator
        // would take a core from the engine. Lateness is measured.
        let now = clock.now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let submitted = clock.now();
        let ticket = match engine.submit(traffic.request(&arrival)) {
            Ok(t) => Some(t),
            Err(QueryError::Overloaded { .. } | QueryError::Shed { .. }) => None,
            Err(e) => {
                failure = Some(format!("submit: {e}"));
                break;
            }
        };
        let d = Timed {
            due,
            submitted,
            finished: None,
        };
        if tx.send((d, ticket)).is_err() {
            failure = Some("collector gone".into());
            break;
        }
    }
    drop(tx);
    let done = collector
        .join()
        .map_err(|_| "collector thread panicked".to_string())?;
    match failure {
        Some(e) => Err(e),
        None => Ok(done),
    }
}

fn ms(ns: u64) -> f64 {
    if ns == u64::MAX {
        f64::INFINITY
    } else {
        ns as f64 / 1e6
    }
}

/// Reports the exact p50 and p99 of `ns` as `<prefix>_p50_ms<suffix>`
/// and `<prefix>_p99_ms<suffix>`.
fn quantiles_ms(rep: &mut crate::Report, mut ns: Vec<u64>, prefix: &str, suffix: &str) {
    ns.sort_unstable();
    for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
        rep.metric(
            format!("{prefix}_{label}_ms{suffix}"),
            ms(rank_quantile_ns(&ns, q)),
            "ms",
        );
    }
}

/// Queue-wait and service percentiles of `served` by class and layout.
fn request_layers(rep: &mut crate::Report, served: &[Served]) -> Result<(), String> {
    for class in [QueryClass::Interactive, QueryClass::Batch] {
        for version in [BamxVersion::V1, BamxVersion::V2] {
            let pick: Vec<&RequestMetrics> = served
                .iter()
                .filter(|s| s.arrival.class() == class && version_of(s.arrival.dataset) == version)
                .map(|s| &s.metrics)
                .collect();
            if pick.is_empty() {
                return Err(format!(
                    "no {} request reached a {} dataset",
                    class.name(),
                    version.name()
                ));
            }
            let suffix = format!(".{}.{}", class.name(), version.name());
            let ns = |f: fn(&RequestMetrics) -> Duration| -> Vec<u64> {
                pick.iter().map(|m| f(m).as_nanos() as u64).collect()
            };
            quantiles_ms(rep, ns(|m| m.queue_wait), "query.queue_wait", &suffix);
            quantiles_ms(rep, ns(|m| m.service_time), "query.service", &suffix);
        }
    }
    Ok(())
}

/// Query- and store-layer numbers of an engine over `shard_dir`: a
/// warm-up pass, a closed-loop batch (queue wait and service by class
/// and layout, throughput, store counters), a short open-loop replay
/// at a fixed low rate (exact latency from due time, generator
/// lateness), and cold `ShardStore::get` calls.
pub fn probe(
    t: &Trace,
    rep: &mut crate::Report,
    seed: u64,
    shard_dir: &Path,
    traffic: &Traffic,
    config: ngs_query::EngineConfig,
) -> Result<(), String> {
    const BATCH: usize = 2_000;
    // About a twentieth of the engine's closed-loop rate, so the
    // default queue of 64 per class rides out a host stall of a third of
    // a second; 1,000 requests leave ten beyond the p99.
    const OPEN_RATE: f64 = 250.0;
    const OPEN_REQUESTS: usize = 1_000;
    let datasets = traffic.names.len();
    let capacity = config.cache_capacity;
    let engine = QueryEngine::new(shard_dir, config).map_err(err("start engine"))?;
    closed_loop(&engine, traffic, &traffic.touch_all())?;
    let store0 = engine.store().counters();
    let batch = plan(seed ^ 0x9B, datasets, BATCH, 1e6);
    let (served, wall_s) = t.span("layer.QueryEngine.closed_loop", || {
        closed_loop(&engine, traffic, &batch)
    })?;
    let store1 = engine.store().counters();
    if let Some(bad) = served.iter().find(|s| !s.ok) {
        return Err(format!(
            "query probe: a request to {} failed",
            traffic.names[bad.arrival.dataset]
        ));
    }
    request_layers(rep, &served)?;
    rep.metric("query.closed_loop_rps", served.len() as f64 / wall_s, "1/s");
    store_layers(rep, &store0, &store1);

    let open = t.span("layer.QueryEngine.open_loop", || {
        open_loop(
            &engine,
            traffic,
            plan(seed ^ 0x0B, datasets, OPEN_REQUESTS, OPEN_RATE),
        )
    })?;
    drop(engine);
    // Unanswered requests sort last as `u64::MAX`: never dropped.
    let latency: Vec<u64> = open
        .iter()
        .map(|d| {
            d.finished
                .map_or(u64::MAX, |f| f.saturating_sub(d.due).as_nanos() as u64)
        })
        .collect();
    quantiles_ms(rep, latency, "query.open_loop", "");
    let mut lag: Vec<u64> = open
        .iter()
        .map(|d| d.submitted.saturating_sub(d.due).as_nanos() as u64)
        .collect();
    lag.sort_unstable();
    rep.metric("loadgen.lag_p99_ms", ms(rank_quantile_ns(&lag, 0.99)), "ms");

    let store = ShardStore::open(shard_dir, capacity).map_err(err("open store"))?;
    let mut cold = Vec::new();
    for name in &traffic.names {
        let (res, s) = timed(|| t.span("layer.ShardStore::get.cold", || store.get(name)));
        res.map_err(err("store get"))?;
        cold.push(s * 1e3);
    }
    rep.metric("store.cold_get_ms", median(&cold), "ms");
    Ok(())
}

fn store_layers(rep: &mut crate::Report, c0: &CacheCounters, c1: &CacheCounters) {
    let (h, m) = (c1.hits - c0.hits, c1.misses - c0.misses);
    rep.metric("store.hit_ratio", h as f64 / (h + m).max(1) as f64, "ratio");
    rep.metric("store.decodes", (c1.decodes - c0.decodes) as f64, "count");
    rep.metric(
        "store.evictions",
        (c1.evictions - c0.evictions) as f64,
        "count",
    );
    rep.metric(
        "store.coalesced",
        (c1.coalesced - c0.coalesced) as f64,
        "count",
    );
}

/// One span tree per served request from the engine's own timestamps:
/// queue wait and service.
pub fn record_spans(t: &Trace, clock: &dyn Clock, served: &[Served]) {
    if !t.on() {
        return;
    }
    // The engine clock and `Instant` advance together; anchor one to
    // the other once.
    let (anchor_i, anchor_d) = (Instant::now(), clock.now());
    let at = |d: Duration| {
        anchor_i
            .checked_sub(anchor_d.saturating_sub(d))
            .unwrap_or(anchor_i)
    };
    for s in served {
        let m = &s.metrics;
        let op = t.new_op();
        let root = t.record("request", at(m.submitted_at), at(m.finished_at), None, op);
        t.record(
            "query.queue",
            at(m.submitted_at),
            at(m.started_at),
            root,
            op,
        );
        t.record(
            "query.service",
            at(m.started_at),
            at(m.finished_at),
            root,
            op,
        );
    }
}
