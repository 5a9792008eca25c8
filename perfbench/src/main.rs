//! Seeded end-to-end and per-layer benchmark of the ngs-parallel
//! workspace. See `perfbench/README.md` for the workloads, the metrics
//! and how to read the output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sam_analyze --seed 1 --seconds 20 --trace 0
//! ```

mod bam_convert;
mod checks;
mod inputs;
mod layers;
mod region_serve;
mod sam_analyze;
mod serve;
mod trace;
mod util;

use std::process::ExitCode;

use checks::Checks;
use trace::Trace;
use util::WorkDir;

/// Ranks, converter workers and engine workers: one per core.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Settings of one run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: Trace,
    pub work: WorkDir,
}

/// What a workload hands back: metrics, operation counts, checks and
/// descriptive facts (input sizes) for the host block.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    facts: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }
}

/// Maps an error to a message naming the step that failed.
pub fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Runs whole iterations of a batch workload until `run.seconds` have
/// passed (at least one). With tracing on, iterations alternate
/// untraced and traced (at least one of each), so the cost of recording
/// spans is measured inside one process. Each iteration gets an emptied
/// directory and a flushed disk. Returns the untraced and the traced
/// iterations.
pub fn iterate<I>(
    run: &Run,
    mut body: impl FnMut(&Trace, &std::path::Path) -> Result<I, String>,
) -> Result<(Vec<I>, Vec<I>), String> {
    let off = Trace::new(false);
    let start = std::time::Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty()
        || (run.trace.on() && traced.is_empty())
        || util::secs(start) < run.seconds
    {
        let dir = run.work.fresh("iter").map_err(err("work dir"))?;
        // Start every iteration with no write-back pending from the
        // previous one (outside the timed calls, inside the budget).
        util::flush_disks();
        if run.trace.on() && plain.len() > traced.len() {
            traced.push(body(&run.trace, &dir)?);
        } else {
            plain.push(body(&off, &dir)?);
        }
    }
    Ok((plain, traced))
}

/// Runs set-up `SETUP_REPEATS` times and returns its last result with
/// the median wall time. Each repeat must produce the same result: the
/// inputs depend on the seed alone.
pub fn setup<T: PartialEq>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPEATS {
        let (out, s) = util::timed(&mut f);
        let out = out?;
        times.push(s);
        if last.as_ref().is_some_and(|prev| *prev != out) {
            return Err("set-up is not deterministic: two repeats differ".into());
        }
        last = Some(out);
    }
    Ok((last.expect("SETUP_REPEATS > 0"), util::median(&times)))
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sam_analyze|bam_convert|region_serve> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?.max(0.0),
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The git revision when the checkout is a repository, else a
/// fingerprint of the library sources the benchmark was built from.
fn revision() -> String {
    // `GIT_DIR` keeps git from searching the directories above the
    // checkout for a repository.
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return format!("git:{}", String::from_utf8_lossy(&out.stdout).trim());
        }
    }
    let mut files = Vec::new();
    let mut stack = vec![
        std::path::PathBuf::from("crates"),
        std::path::PathBuf::from("shims"),
    ];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = util::FNV_OFFSET;
    for f in &files {
        h = util::fnv1a(f.to_string_lossy().as_bytes(), h);
        h = util::fnv1a(&std::fs::read(f).unwrap_or_default(), h);
    }
    format!("src:{h:016x}")
}

/// `(name, unit)` of every metric in the list `key` of a
/// `BENCHMARK.json` text: `end_to_end` or `per_layer`.
fn manifest_metrics(text: &str, key: &str) -> Option<Vec<(String, String)>> {
    let start = text.find(&format!("\"{key}\""))?;
    let open = start + text[start..].find('[')?;
    let close = open + text[open..].find(']')?;
    let field = |obj: &str, f: &str| -> Option<String> {
        let rest = &obj[obj.find(&format!("\"{f}\""))? + f.len() + 2..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(rest[..rest.find('"')?].to_string())
    };
    let metrics: Vec<(String, String)> = text[open..close]
        .split('}')
        .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
        .collect();
    (!metrics.is_empty()).then_some(metrics)
}

/// Every run prints exactly the metrics `BENCHMARK.json` lists for its
/// mode, in their units, whatever the workload.
fn check_manifest(report: &Report, trace: bool) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let mut want = manifest_metrics(&text, key).ok_or(format!("BENCHMARK.json: no {key} list"))?;
    let mut got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect();
    want.sort();
    got.sort();
    if got == want {
        return Ok(());
    }
    let missing: Vec<String> = want
        .iter()
        .filter(|m| !got.contains(m))
        .map(|(n, u)| format!("{n} [{u}]"))
        .collect();
    let extra: Vec<String> = got
        .iter()
        .filter(|m| !want.contains(m))
        .map(|(n, u)| format!("{n} [{u}]"))
        .collect();
    Err(format!(
        "metrics differ from the {key} list of BENCHMARK.json: missing {missing:?}, not listed {extra:?}"
    ))
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to report from a debug build (about 20x slower): build with --release");
        return ExitCode::from(2);
    }
    util::flush_disks();
    let work = match WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot create the work directory: {e}");
            return ExitCode::from(1);
        }
    };
    let run = Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: Trace::new(args.trace),
        work,
    };
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "sam_analyze" => sam_analyze::run(&run, &mut report),
        "bam_convert" => bam_convert::run(&run, &mut report),
        "region_serve" => region_serve::run(&run, &mut report),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    if let Err(e) = outcome.and_then(|()| check_manifest(&report, args.trace)) {
        eprintln!("{}: {e}", args.workload);
        return ExitCode::from(1);
    }
    if run.trace.on() {
        let path = std::path::PathBuf::from(".perfbench_traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match run.trace.write_jsonl(&path) {
            Ok(()) => eprintln!("trace: {} spans -> {}", run.trace.len(), path.display()),
            Err(e) => eprintln!("trace not written: {e}"),
        }
    }
    report.checks.report();

    let mut host = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), (args.trace as u8).to_string()),
        ("nproc".to_string(), nproc().to_string()),
        ("profile".to_string(), json_str("release")),
        ("revision".to_string(), json_str(&revision())),
    ];
    host.extend(report.facts.iter().map(|(k, v)| (k.clone(), json_str(v))));
    let host: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"host\":{{{}}}}}", host.join(","));

    let attempted = report.attempted + report.checks.len() as u64;
    let failed = report.failed + report.checks.failed() as u64;
    println!(
        "{:<44} {:>14} unit   (fail_frac {:.6} = {failed}/{attempted})",
        "metric",
        "value",
        failed as f64 / attempted.max(1) as f64
    );
    let mut fields = Vec::new();
    let mut finite = true;
    for (name, value, unit) in &report.metrics {
        println!("{name:<44} {value:>14.6} {unit}");
        finite &= value.is_finite();
        let v = if value.is_finite() {
            value.to_string()
        } else {
            "null".into()
        };
        fields.push(format!(
            "{}:{{\"value\":{v},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let correct = failed == 0 && finite && attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_lists_parse() {
        let text = include_str!("../../BENCHMARK.json");
        let e2e = manifest_metrics(text, "end_to_end").unwrap();
        assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
        let layers = manifest_metrics(text, "per_layer").unwrap();
        assert!(layers.iter().all(|m| !e2e.contains(m)));
    }
}
