//! One run of one benchmark workload, in this process.
//!
//! `perfbench/run.py` starts this binary once per run, so peak RSS and
//! CPU time belong to that run alone, and aggregates the runs. Prints
//! one JSON line with the measurements and the correctness digest.
//!
//! ```text
//! perfbench --workload NAME --seed N [--baseline PATH] [--trace-out DIR]
//! ```
//!
//! `--trace-out` makes the run traced: it records spans, counts
//! allocations, slices the drain, runs the replay microbenchmarks and
//! writes `trace.json`, `slices.json` and `layers.json` into `DIR`.

mod drain;
mod probe;
mod repro;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use decent_sim::json::Json;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

#[derive(Clone, Copy)]
enum Kind {
    Drain,
    Repro,
}

/// The workload table. Sharded workloads use 2 shards, the core count
/// of the host the benchmark was tuned on.
const WORKLOADS: [(&str, Kind, usize); 4] = [
    ("kad-drain", Kind::Drain, 1),
    ("kad-drain-sharded", Kind::Drain, 2),
    ("repro-quick", Kind::Repro, 1),
    ("repro-quick-sharded", Kind::Repro, 2),
];

/// What one run measured. Times are seconds.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub events: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the program's outputs, compared across runs.
    pub digest: String,
    /// Correctness failures found inside the run.
    pub problems: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<(String, f64)>,
    /// Inputs of the replay microbenchmarks (traced drains only).
    pub inputs: Vec<(&'static str, f64)>,
}

pub fn named(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// Median of a non-empty sample.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

struct Args {
    workload: &'static str,
    kind: Kind,
    shards: usize,
    seed: u64,
    baseline: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut baseline = PathBuf::from("baselines/claims_quick.json");
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.0 == value)
                    .ok_or(format!("unknown workload {value}"))?;
                workload = Some(*w);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--baseline" => baseline = value.into(),
            "--trace-out" => trace_out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (name, kind, shards) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: name,
        kind,
        shards,
        seed: seed.ok_or("--seed is required")?,
        baseline,
        trace_out,
    })
}

fn run(args: &Args) -> Result<Json, String> {
    let run_id = format!("{}-{}-{}", args.workload, args.seed, std::process::id());
    let mut tr = trace::Tracer::new(args.trace_out.is_some(), run_id);
    if tr.is_on() {
        probe::count_allocations();
    }
    let out = match args.kind {
        Kind::Drain => drain::run(args.seed, args.shards, &mut tr)?,
        Kind::Repro => repro::run(args.seed, args.shards, &args.baseline, &mut tr)?,
    };
    let cores = probe::logical_cores();
    let peak_rss_mb = probe::peak_rss_kb()? as f64 / 1024.0;
    let layers = Json::obj(out.layers.iter().map(|(k, v)| (k.clone(), Json::num(*v))));
    if let Some(dir) = &args.trace_out {
        tr.write(dir, args.workload, args.seed)?;
        let doc = Json::obj([
            ("workload", Json::str(args.workload)),
            ("seed", Json::str(args.seed.to_string())),
            ("shards", Json::int(args.shards as u64)),
            ("logical_cores", Json::int(cores as u64)),
            (
                "coordination_overhead_only",
                Json::Bool(args.shards > cores),
            ),
            ("layers", layers.clone()),
            (
                "replay_inputs",
                Json::obj(out.inputs.iter().map(|&(k, v)| (k, Json::num(v)))),
            ),
        ]);
        let path = dir.join("layers.json");
        std::fs::write(&path, doc.to_string_pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Json::obj([
        ("workload", Json::str(args.workload)),
        ("seed", Json::str(args.seed.to_string())),
        ("shards", Json::int(args.shards as u64)),
        ("logical_cores", Json::int(cores as u64)),
        // More shards than cores measures coordination cost, never a
        // speed-up.
        (
            "coordination_overhead_only",
            Json::Bool(args.shards > cores),
        ),
        ("setup_s", Json::num(out.setup_s)),
        ("wall_s", Json::num(out.wall_s)),
        ("cpu_s", Json::num(out.cpu_s)),
        ("events", Json::int(out.events)),
        ("peak_rss_mb", Json::num(peak_rss_mb)),
        ("attempted", Json::int(out.attempted)),
        ("failed", Json::int(out.failed)),
        ("digest", Json::str(out.digest)),
        (
            "problems",
            Json::arr(out.problems.into_iter().map(Json::str)),
        ),
        ("layers", layers),
    ]))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(doc) => {
            println!("{}", doc.to_string_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
