//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics; the last line of stdout is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! A traced run also writes its spans to `out/trace-<workload>-<seed>.json`
//! under the package directory. Exits 1 when a check fails, 2 on bad
//! arguments.

use std::process::ExitCode;

use perfbench::{run, RunConfig, Size, Workload};

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("want an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("want a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("want a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <flat_timing|ann_ivf|churn_ff> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let res = run(&cfg);
    let name = cfg.workload.name();

    if let Some(sim) = res.sim {
        println!(
            "{name} seed {}: {} rounds, {} queries attempted, {} failed; the simulated rounds \
             served {} latency samples ({} beyond p99); arrivals are virtual-time stamps, \
             so generator lateness is 0",
            cfg.seed,
            res.rounds,
            res.attempted,
            res.failed,
            sim.samples,
            sim.samples - (0.99 * sim.samples as f64).ceil() as usize,
        );
    }
    for m in &res.metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &res.failures {
        println!("CHECK FAILED: {f}");
    }
    if cfg.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{name}-{}.json", cfg.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, res.tracer.to_json()))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }

    let metrics: Vec<String> = res
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = res.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        res.attempted.max(1),
        res.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
