//! `dpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs repetitions of one workload for about `--seconds` of host time
//! and prints a table, then one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero,
//! printing no result, when any correctness check fails.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use dpbench::harness::{peak_rss_mb, Mode, Rep};
use dpbench::{metrics, sproc, Workload};

const USAGE: &str =
    "usage: dpbench --workload <kv_read_offload|kv_update_replicated|tenant_storm|sproc_compress> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Where the traced pass writes its spans, relative to the directory
/// the benchmark runs from (the repository root).
const TRACE_DIR: &str = "dpbench/out";

/// Measured repetitions every run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// The warm-up repetition runs 1/`WARMUP_SHARE` of the requests of a
/// measured one.
const WARMUP_SHARE: u64 = 8;
/// Traced cycles (untraced, traced, checker-off) every `--trace 1` run
/// makes.
const MIN_CYCLES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = num(&value)?,
            "--seconds" => seconds = num(&value)? as f64,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs one warm-up repetition at 1/[`WARMUP_SHARE`] of the size
/// (checked, but kept out of every figure: the first repetition in a
/// process pays for growing the heap), then full-size repetitions until
/// `seconds` of host time are used (at least `min` cycles), cycling
/// through `modes`. Returns the warm-up and the rest.
fn repeat(args: &Args, modes: &[Mode], min: usize) -> (Rep, Vec<Rep>) {
    let start = Instant::now();
    let run = |mode: Mode, size: u64, what: String| {
        let rep = args.workload.run(args.seed, mode, size);
        eprintln!(
            "dpbench: {what} {mode:?}: setup {:.3} s, run {:.3} s wall, {:.3} s cpu; \
             host {:.3}x slower than nominal ({} probes); at nominal speed: \
             setup {:.3} s, run {:.3} s wall, {:.3} s cpu",
            rep.setup_s,
            rep.run_wall_s,
            rep.run_cpu_s,
            rep.run_probes.wall_slowdown(),
            rep.run_probes.units,
            rep.setup_s_nominal(),
            rep.run_wall_s_nominal(),
            rep.run_cpu_s_nominal(),
        );
        rep
    };
    let size = args.workload.default_size();
    let warmup = run(modes[0], (size / WARMUP_SHARE).max(1), "warm-up".into());
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        for &mode in modes {
            let rep = run(mode, size, format!("rep {}", reps.len()));
            reps.push(rep);
        }
        let cycles = reps.len() / modes.len();
        let per_cycle = start.elapsed().as_secs_f64() / cycles as f64;
        if cycles >= min && start.elapsed().as_secs_f64() + per_cycle > args.seconds {
            return (warmup, reps);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dpbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (warmup, reps) = if args.trace {
        repeat(
            &args,
            &[Mode::MEASURE, Mode::TRACED, Mode::UNCHECKED],
            MIN_CYCLES,
        )
    } else {
        repeat(&args, &[Mode::MEASURE], MIN_REPS)
    };
    let mut failures = warmup.out.failures;
    failures.extend(metrics::verify(&reps));
    let deflate = if args.trace && args.workload == Workload::SprocCompress {
        match sproc::deflate_direct(args.seed) {
            Ok(d) => Some(d),
            Err(e) => {
                failures.push(e);
                None
            }
        }
    } else {
        None
    };
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("dpbench: FAILED: {f}");
        }
        return ExitCode::from(1);
    }
    let rows = if args.trace {
        if let Some(traced) = reps.iter().find(|r| r.mode == Mode::TRACED) {
            // One file per workload: the latest traced run's spans.
            let path = format!("{TRACE_DIR}/spans-{}.jsonl", args.workload.name());
            let written = std::fs::create_dir_all(TRACE_DIR)
                .and_then(|_| std::fs::write(&path, &traced.out.spans_jsonl));
            match written {
                Ok(()) => eprintln!("dpbench: spans written to {path}"),
                Err(e) => eprintln!("dpbench: could not write {path}: {e}"),
            }
        }
        metrics::per_layer(&reps, deflate)
    } else {
        metrics::end_to_end(&reps, peak_rss_mb())
    };
    print!("{}", metrics::table(args.workload, &rows));
    // The requests behind the figures: every repetition repeats the same
    // simulated requests exactly (verified above), so they are one
    // repetition's, and the same on every run with this seed.
    let attempted = reps[0].out.sim.scoped_issued;
    let failed = reps[0].out.sim.scoped_failed;
    let mut body = BTreeMap::new();
    for r in &rows {
        body.insert(
            r.name,
            format!(
                "{{\"value\": {}, \"unit\": \"{}\"}}",
                json_num(r.value),
                r.unit
            ),
        );
    }
    let entries: Vec<String> = body.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    );
    ExitCode::SUCCESS
}

/// A JSON number with every digit the measurement has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
