//! The `repro-quick` workloads: all registered scenarios at quick scale,
//! one after another, then the canonical JSON report — what
//! `repro --quick --format json` does with one job.
//!
//! Seed 0 keeps every scenario's built-in seed, which is the run that
//! `baselines/claims_quick.json` records; any other seed overrides all
//! of them, as `repro --seed` does.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use decent_core::report::{diff_verdicts, verdicts_from_json, ExperimentRun, RunReport};
use decent_core::scenario::{self, ExecPolicy, Scenario};
use decent_sim::json::Json;

use crate::probe::{self, Digest};
use crate::trace::Tracer;
use crate::{median, named, Outcome};

/// Set-up takes about a microsecond, so it is timed in batches and the
/// median batch kept.
const SETUP_BATCH: usize = 20_000;
const SETUP_REPS: usize = 9;

fn scenarios(seed: Option<u64>, shards: usize) -> Vec<Box<dyn Scenario>> {
    let mut all = scenario::all(true);
    for s in &mut all {
        if let Some(seed) = seed {
            s.set_seed(seed);
        }
        if shards > 1 {
            s.set_exec(ExecPolicy::sharded(shards));
        }
    }
    all
}

pub fn run(seed: u64, shards: usize, baseline: &Path, tr: &mut Tracer) -> Result<Outcome, String> {
    let seed = (seed != 0).then_some(seed);
    let setup_s = median(
        (0..SETUP_REPS)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..SETUP_BATCH {
                    black_box(scenarios(seed, shards));
                }
                t.elapsed().as_secs_f64() / SETUP_BATCH as f64
            })
            .collect(),
    );
    let all = scenarios(seed, shards);

    let cpu0 = probe::cpu_seconds()?;
    let t0 = Instant::now();
    let mut runs = Vec::with_capacity(all.len());
    for s in &all {
        let name = format!("scenario.{}.run", s.id());
        let t = Instant::now();
        let report = tr.span(&name, || s.run());
        runs.push(ExperimentRun {
            report,
            seed,
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
        });
    }
    let run = RunReport {
        mode: "quick".to_string(),
        runs,
    };
    let t = Instant::now();
    let text = tr.span("report.render", || run.to_json_text());
    let render_s = t.elapsed().as_secs_f64();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = probe::cpu_seconds()? - cpu0;

    let mut digest = Digest::new();
    digest.bytes(text.as_bytes());
    let events: u64 = run
        .runs
        .iter()
        .map(|r| r.report.metrics.counter("events_fired"))
        .sum();
    let mut out = Outcome {
        setup_s,
        wall_s,
        cpu_s,
        events,
        attempted: run.runs.len() as u64,
        failed: 0,
        digest: digest.hex(),
        ..Outcome::default()
    };
    if seed.is_none() {
        out.problems = baseline_mismatches(&run, baseline)?;
    }
    if tr.is_on() {
        let holding = run.verdicts().iter().filter(|v| v.holds).count();
        out.layers = named(&[
            ("report.render_s", render_s),
            ("report.json_bytes", text.len() as f64),
            ("report.claims_holding", holding as f64),
        ]);
        for r in &run.runs {
            let id = r.report.id;
            let events = r.report.metrics.counter("events_fired") as f64;
            out.layers
                .push((format!("scenario.{id}.run_s"), r.wall_ms / 1e3));
            out.layers.push((format!("scenario.{id}.events"), events));
        }
    }
    Ok(out)
}

/// Claim verdicts that differ from the committed quick baseline.
fn baseline_mismatches(run: &RunReport, baseline: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(baseline)
        .map_err(|e| format!("cannot read {}: {e}", baseline.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", baseline.display()))?;
    let expected = verdicts_from_json(&doc).map_err(|e| format!("{}: {e}", baseline.display()))?;
    Ok(diff_verdicts(&run.verdicts(), &expected))
}
