//! Turning repetitions into the reported metrics, and the run-wide
//! correctness and determinism checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::harness::{Mode, Rep};
use crate::Workload;

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall or CPU time of the simulator itself.
    Host,
    /// Virtual time and counters of the modelled hardware.
    Sim,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Clock it is read from.
    pub clock: Clock,
    /// Reported value (a median for host-clock metrics).
    pub value: f64,
    /// Samples behind the value: repetitions for host-clock medians,
    /// requests for latency percentiles.
    pub samples: usize,
    /// Interquartile range over the median, for host-clock medians.
    pub spread: Option<f64>,
}

/// Every per-layer metric: name, unit, which direction is better, and
/// the clock it is read from.
pub const PER_LAYER: &[(&str, &str, &str, Clock)] = &[
    ("des.polls_per_op", "count", "lower", Clock::Sim),
    ("des.polls_per_host_s", "1/s", "higher", Clock::Host),
    ("hw.host_cpu.util", "frac", "lower", Clock::Sim),
    ("hw.host_cpu.queue_mean", "count", "lower", Clock::Sim),
    ("hw.dpu_cpu.util", "frac", "lower", Clock::Sim),
    ("hw.dpu_cpu.queue_mean", "count", "lower", Clock::Sim),
    ("hw.ssd.reads_per_op", "count", "lower", Clock::Sim),
    ("hw.ssd.writes_per_op", "count", "lower", Clock::Sim),
    ("hw.ssd.util", "frac", "lower", Clock::Sim),
    ("hw.ssd.queue_mean", "count", "lower", Clock::Sim),
    ("hw.pcie.host_dpu.bytes_per_op", "B", "lower", Clock::Sim),
    ("hw.pcie.host_dpu.util", "frac", "lower", Clock::Sim),
    ("hw.accel.compress.util", "frac", "higher", Clock::Sim),
    ("hw.accel.compress.queue_mean", "count", "lower", Clock::Sim),
    ("net.tcp.segments_per_op", "count", "lower", Clock::Sim),
    ("net.tcp.retransmits", "count", "lower", Clock::Sim),
    ("net.tcp.rto_fires", "count", "lower", Clock::Sim),
    ("cluster.call_us.p50", "us", "lower", Clock::Sim),
    ("cluster.call_us.p99", "us", "lower", Clock::Sim),
    ("cluster.retries_per_op", "count", "lower", Clock::Sim),
    ("cluster.timeouts_per_op", "count", "lower", Clock::Sim),
    ("cluster.failures", "count", "lower", Clock::Sim),
    ("cluster.admission_shed", "count", "lower", Clock::Sim),
    ("cluster.hot_shard_share", "frac", "lower", Clock::Sim),
    ("director.dpu_frac", "frac", "higher", Clock::Sim),
    ("director.host_fallbacks", "count", "lower", Clock::Sim),
    ("server.dup_replays", "count", "lower", Clock::Sim),
    ("repl.chained_per_write", "count", "higher", Clock::Sim),
    ("repl.solo_commits", "count", "lower", Clock::Sim),
    ("repl.stale_rejections", "count", "lower", Clock::Sim),
    ("repl.promotions", "count", "lower", Clock::Sim),
    ("gateway.queued_mean", "count", "lower", Clock::Sim),
    ("gateway.slots_busy_mean", "count", "lower", Clock::Sim),
    ("gateway.storm.shed_frac", "frac", "lower", Clock::Sim),
    ("gateway.victim.call_us.p99", "us", "lower", Clock::Sim),
    ("sproc.invoke_us.p50", "us", "lower", Clock::Sim),
    ("sproc.invoke_self_us.p50", "us", "lower", Clock::Sim),
    ("storage.read_us.p50", "us", "lower", Clock::Sim),
    ("storage.read_us.p99", "us", "lower", Clock::Sim),
    ("compute.run_us.p50", "us", "lower", Clock::Sim),
    ("compute.run_us.p99", "us", "lower", Clock::Sim),
    ("compute.asic_frac", "frac", "higher", Clock::Sim),
    ("compute.host_frac", "frac", "lower", Clock::Sim),
    (
        "kernels.deflate.compress_MBps",
        "MB/s",
        "higher",
        Clock::Host,
    ),
    (
        "kernels.deflate.decompress_MBps",
        "MB/s",
        "higher",
        Clock::Host,
    ),
    ("kernels.deflate.ratio", "x", "higher", Clock::Host),
    ("check.host_frac", "frac", "lower", Clock::Host),
    ("check.host_frac.iqr", "frac", "lower", Clock::Host),
    ("telemetry.overhead", "frac", "lower", Clock::Host),
    ("telemetry.overhead.iqr", "frac", "lower", Clock::Host),
    ("telemetry.spans_per_op", "count", "lower", Clock::Sim),
];

/// Run-wide checks: every repetition's own correctness failures, and
/// that the simulated clock repeated exactly across repetitions and
/// passes (traced, untraced and checker-off alike).
pub fn verify(reps: &[Rep]) -> Vec<String> {
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.out.failures.clone()).collect();
    let first = &reps[0];
    for (i, r) in reps.iter().enumerate().skip(1) {
        if r.out.sim != first.out.sim {
            failures.push(format!(
                "repetition {i} ({:?}) changed the simulated outputs: {:?} vs {:?}",
                r.mode,
                summary(r),
                summary(first)
            ));
        }
        if r.out.layers != first.out.layers
            || (r.polls_setup, r.polls_run) != (first.polls_setup, first.polls_run)
        {
            failures.push(format!(
                "repetition {i} ({:?}) changed the per-layer counters",
                r.mode
            ));
        }
    }
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.mode == Mode::TRACED).collect();
    if traced
        .windows(2)
        .any(|w| w[0].out.traced != w[1].out.traced)
    {
        failures.push("traced passes disagree on their simulated-clock layer figures".into());
    }
    failures
}

fn summary(r: &Rep) -> (u64, u64, u64, u64, f64, f64) {
    let s = &r.out.sim;
    (
        s.issued,
        s.ok,
        s.elapsed_ns,
        s.latencies.len() as u64,
        s.p50_us(),
        s.p99_us(),
    )
}

/// Median and interquartile range of `v` (quartiles as Python's
/// `statistics.quantiles(v, n=4)` computes them).
pub fn median_iqr(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    if n < 2 {
        return (median, 0.0);
    }
    // Python's default "exclusive" method, in its exact integer form.
    let m = n as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (median, q(3) - q(1))
}

fn host_row(name: &'static str, unit: &'static str, v: &[f64]) -> Row {
    let (median, iqr) = median_iqr(v);
    Row {
        name,
        unit,
        clock: Clock::Host,
        value: median,
        samples: v.len(),
        spread: Some(if median != 0.0 { iqr / median } else { 0.0 }),
    }
}

fn sim_row(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Row {
    Row {
        name,
        unit,
        clock: Clock::Sim,
        value,
        samples,
        spread: None,
    }
}

/// The end-to-end metrics of a `--trace 0` run.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Row> {
    let per = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let ops = |r: &Rep| r.out.sim.issued.max(1) as f64;
    let s = &reps[0].out.sim;
    let n = s.latencies.len();
    vec![
        host_row("setup_s", "s", &per(&|r| r.setup_s_nominal())),
        host_row(
            "host_us_per_op",
            "us",
            &per(&|r| r.run_wall_s_nominal() * 1e6 / ops(r)),
        ),
        host_row(
            "cpu_us_per_op",
            "us",
            &per(&|r| r.run_cpu_s_nominal() * 1e6 / ops(r)),
        ),
        Row {
            samples: 1,
            spread: None,
            ..host_row("peak_rss_mb", "MiB", &[peak_rss_mb])
        },
        sim_row("p50_us", "us", s.p50_us(), n),
        sim_row("p99_us", "us", s.p99_us(), n),
        sim_row("goodput_kops", "kops/s", s.goodput_kops(), s.ok as usize),
        sim_row(
            "host_cyc_per_op",
            "cycles",
            s.host_cyc_per_op(),
            s.ok as usize,
        ),
        sim_row(
            "dpu_cyc_per_op",
            "cycles",
            s.dpu_cyc_per_op(),
            s.ok as usize,
        ),
        sim_row("ok_frac", "frac", s.ok_frac(), s.scoped_issued as usize),
    ]
}

/// The per-layer metrics of a `--trace 1` run: reps cycle through
/// untraced, traced and checker-off passes.
pub fn per_layer(reps: &[Rep], deflate: Option<[f64; 3]>) -> Vec<Row> {
    let mut values: BTreeMap<&'static str, (f64, usize, Option<f64>)> = BTreeMap::new();
    let first = &reps[0];
    for (k, v) in &first.out.layers {
        values.insert(k, (*v, 1, None));
    }
    if let Some(t) = reps.iter().find(|r| r.mode == Mode::TRACED) {
        for (k, v) in &t.out.traced {
            values.insert(k, (*v, 1, None));
        }
    }
    let measured: Vec<&Rep> = reps.iter().filter(|r| r.mode == Mode::MEASURE).collect();
    values.insert(
        "des.polls_per_op",
        (
            first.polls_run as f64 / first.out.sim.issued.max(1) as f64,
            1,
            None,
        ),
    );
    let rate = host_row(
        "des.polls_per_host_s",
        "1/s",
        &measured
            .iter()
            .map(|r| r.polls_run as f64 / r.run_wall_s_nominal().max(1e-9))
            .collect::<Vec<f64>>(),
    );
    values.insert(rate.name, (rate.value, rate.samples, rate.spread));
    let cycles: Vec<&[Rep]> = reps.chunks_exact(3).collect();
    let check: Vec<f64> = cycles
        .iter()
        .map(|c| 1.0 - c[2].run_wall_s_nominal() / c[0].run_wall_s_nominal())
        .collect();
    let tele: Vec<f64> = cycles
        .iter()
        .map(|c| c[1].run_wall_s_nominal() / c[0].run_wall_s_nominal() - 1.0)
        .collect();
    let (check_med, check_iqr) = median_iqr(&check);
    let (tele_med, tele_iqr) = median_iqr(&tele);
    values.insert("check.host_frac", (check_med, check.len(), None));
    values.insert("check.host_frac.iqr", (check_iqr, check.len(), None));
    values.insert("telemetry.overhead", (tele_med, tele.len(), None));
    values.insert("telemetry.overhead.iqr", (tele_iqr, tele.len(), None));
    if let Some([c, d, ratio]) = deflate {
        values.insert("kernels.deflate.compress_MBps", (c, 1, None));
        values.insert("kernels.deflate.decompress_MBps", (d, 1, None));
        values.insert("kernels.deflate.ratio", (ratio, 1, None));
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit, _, clock)| {
            let (value, samples, spread) = values.get(name).copied().unwrap_or((0.0, 0, None));
            Row {
                name,
                unit,
                clock,
                value,
                samples,
                spread,
            }
        })
        .collect()
}

/// A human-readable table of `rows`.
pub fn table(workload: Workload, rows: &[Row]) -> String {
    let mut out = format!("# dpbench {}\n", workload.name());
    let _ = writeln!(
        out,
        "{:<34} {:>5} {:>16} {:<8} {:>8} {:>8}",
        "metric", "clock", "value", "unit", "samples", "iqr/med"
    );
    for r in rows {
        let clock = match r.clock {
            Clock::Host => "host",
            Clock::Sim => "sim",
        };
        let spread = r
            .spread
            .map(|s| format!("{s:.3}"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<34} {:>5} {:>16.4} {:<8} {:>8} {:>8}",
            r.name, clock, r.value, r.unit, r.samples, spread
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (median, iqr) = median_iqr(&v);
        assert_eq!(median, 5.5);
        assert!((iqr - 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(median_iqr(&[3.0, 1.0, 2.0]), (2.0, 2.0));
    }

    #[test]
    fn per_layer_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }
}
