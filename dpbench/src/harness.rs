//! One repetition of a workload: a fresh simulation under the strict
//! checker (or not, for the ablation pass), with host-clock marks at the
//! set-up/run boundary, the executor poll count split across them, and
//! host-speed probes interleaved with the simulation steps.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::future::Future;
use std::rc::Rc;
use std::time::Instant;

use dpdpu_core::DpdpuError;
use dpdpu_des::Sim;
use dpdpu_telemetry::Telemetry;

use crate::calib::{process_cpu_s, ProbeTotals, Prober};
use crate::trace::{quantile, Spans};

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Telemetry installed and the benchmark's spans recorded.
    pub traced: bool,
    /// Strict `dpdpu-check` session installed.
    pub checked: bool,
}

impl Mode {
    /// The end-to-end configuration: checker on, tracing off.
    pub const MEASURE: Mode = Mode {
        traced: false,
        checked: true,
    };
    /// The traced pass.
    pub const TRACED: Mode = Mode {
        traced: true,
        checked: true,
    };
    /// The checker-off ablation pass.
    pub const UNCHECKED: Mode = Mode {
        traced: false,
        checked: false,
    };
}

/// Host-clock marks a workload sets from inside the simulation. The
/// host-speed probes that ran inside each phase are taken out of its
/// times and kept beside them.
#[derive(Default)]
pub struct Marks {
    phase: Cell<u8>,
    /// Probe totals so far, kept current by [`run_rep`].
    probes: Cell<ProbeTotals>,
    t0: Cell<Option<(Instant, ProbeTotals)>>,
    run_start: Cell<Option<(Instant, f64, ProbeTotals)>>,
    setup_s: Cell<f64>,
    setup_probes: Cell<ProbeTotals>,
    run_wall_s: Cell<f64>,
    run_cpu_s: Cell<f64>,
    run_probes: Cell<ProbeTotals>,
}

impl Marks {
    /// Call first thing, before any component is constructed.
    pub fn begin_setup(&self) {
        self.t0.set(Some((Instant::now(), self.probes.get())));
    }

    /// Call right before the first measured request.
    pub fn begin_run(&self) {
        let t = Instant::now();
        let probes = self.probes.get();
        let (t0, p0) = self.t0.get().expect("begin_setup first");
        let setup_probes = probes.since(p0);
        self.setup_s
            .set((t - t0).as_secs_f64() - setup_probes.wall_s);
        self.setup_probes.set(setup_probes);
        self.run_start.set(Some((t, process_cpu_s(), probes)));
        self.phase.set(1);
    }

    /// Call once the last measured request has resolved.
    pub fn end_run(&self) {
        let (t, cpu, p0) = self.run_start.get().expect("begin_run first");
        let run_probes = self.probes.get().since(p0);
        self.run_wall_s
            .set(t.elapsed().as_secs_f64() - run_probes.wall_s);
        self.run_cpu_s.set(process_cpu_s() - cpu - run_probes.cpu_s);
        self.run_probes.set(run_probes);
        self.phase.set(2);
    }
}

/// What a workload's measured phase produced on the simulated clock.
/// Everything here is a pure function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOut {
    /// Requests issued in the measured phase.
    pub issued: u64,
    /// Requests completed successfully.
    pub ok: u64,
    /// Requests refused by admission control.
    pub shed: u64,
    /// Requests failed with any other error.
    pub errors: u64,
    /// Latency samples (virtual ns) of completed requests in the metric
    /// scope, sorted.
    pub latencies: Vec<u64>,
    /// Requests in the latency / failure scope (all, or victims only).
    pub scoped_issued: u64,
    /// Of those, shed or failed.
    pub scoped_failed: u64,
    /// Virtual ns the measured phase took.
    pub elapsed_ns: u64,
    /// Server host-CPU busy cycles in the measured phase.
    pub host_cycles: f64,
    /// Server DPU-core busy cycles in the measured phase.
    pub dpu_cycles: f64,
}

impl SimOut {
    /// Median completed-request latency, µs (mid-distribution quantile,
    /// see [`quantile`]).
    pub fn p50_us(&self) -> f64 {
        quantile(&self.latencies, 0.50) / 1e3
    }

    /// 99th-percentile completed-request latency, µs.
    pub fn p99_us(&self) -> f64 {
        quantile(&self.latencies, 0.99) / 1e3
    }

    /// Completed requests (all scopes) per simulated second, ×10⁻³.
    pub fn goodput_kops(&self) -> f64 {
        self.ok as f64 / (self.elapsed_ns.max(1) as f64 / 1e9) / 1e3
    }

    /// Server host cycles per completed request.
    pub fn host_cyc_per_op(&self) -> f64 {
        self.host_cycles / self.ok.max(1) as f64
    }

    /// Server DPU cycles per completed request.
    pub fn dpu_cyc_per_op(&self) -> f64 {
        self.dpu_cycles / self.ok.max(1) as f64
    }

    /// Share of scoped requests that completed (1 − fail fraction).
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.scoped_failed as f64 / self.scoped_issued.max(1) as f64
    }
}

/// A workload's result: simulated outputs, per-layer values and any
/// correctness failures.
pub struct WorkOut {
    /// Simulated-clock end-to-end outputs.
    pub sim: SimOut,
    /// Per-layer values that are pure functions of the seed (counters
    /// and simulated-clock figures); compared across every pass.
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-layer values only the traced pass measures.
    pub traced: BTreeMap<&'static str, f64>,
    /// Correctness violations (empty when the run is correct).
    pub failures: Vec<String>,
    /// The traced pass's spans as JSON lines (empty when untraced).
    pub spans_jsonl: String,
}

/// One repetition: the workload's outputs plus host-clock figures.
/// Every time here leaves out the host-speed probes' own time.
pub struct Rep {
    /// How it ran.
    pub mode: Mode,
    /// Host seconds from construction to the first measured request.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub run_wall_s: f64,
    /// Process CPU seconds (user + sys) in the measured phase.
    pub run_cpu_s: f64,
    /// Host-speed probes run during set-up.
    pub setup_probes: ProbeTotals,
    /// Host-speed probes run during the measured phase.
    pub run_probes: ProbeTotals,
    /// Executor polls before the first measured request.
    pub polls_setup: u64,
    /// Executor polls in the measured phase.
    pub polls_run: u64,
    /// The workload's outputs.
    pub out: WorkOut,
}

impl Rep {
    /// [`Rep::setup_s`] at the nominal host speed.
    pub fn setup_s_nominal(&self) -> f64 {
        self.setup_s / self.setup_probes.wall_slowdown()
    }

    /// [`Rep::run_wall_s`] at the nominal host speed.
    pub fn run_wall_s_nominal(&self) -> f64 {
        self.run_wall_s / self.run_probes.wall_slowdown()
    }

    /// [`Rep::run_cpu_s`] at the nominal host speed.
    pub fn run_cpu_s_nominal(&self) -> f64 {
        self.run_cpu_s / self.run_probes.cpu_slowdown()
    }
}

/// Virtual ns between the run loop's looks at the phase marks. The
/// set-up/run poll split is exact to within one step, and the same on
/// every pass because the step boundaries are in virtual time.
const STEP_NS: u64 = 20_000;

/// Runs `body` in a fresh simulation under `mode`. `body` must call
/// [`Marks::begin_setup`], [`Marks::begin_run`] and [`Marks::end_run`]
/// in order and drop every component it built before returning.
pub fn run_rep<F, Fut>(mode: Mode, body: F) -> Rep
where
    F: FnOnce(Rc<Marks>, Rc<Spans>) -> Fut,
    Fut: Future<Output = WorkOut> + 'static,
{
    // Declared before the Sim so the checker's balance sweeps run after
    // teardown; a violation panics, which fails the run.
    let check = mode.checked.then(dpdpu_check::CheckGuard::new);
    let telemetry = mode.traced.then(Telemetry::install);
    let marks = Rc::new(Marks::default());
    let spans = Rc::new(Spans::new(mode.traced));
    let out: Rc<RefCell<Option<WorkOut>>> = Rc::new(RefCell::new(None));
    let mut sim = Sim::new();
    {
        let out = out.clone();
        let fut = body(marks.clone(), spans);
        sim.spawn(async move {
            let r = fut.await;
            *out.borrow_mut() = Some(r);
        });
    }
    let mut prober = Prober::new();
    let mut polls_setup = None;
    loop {
        prober.tick();
        marks.probes.set(prober.totals());
        let t = sim.now();
        sim.run_until(t + STEP_NS);
        let phase = marks.phase.get();
        if phase >= 1 && polls_setup.is_none() {
            polls_setup = Some(sim.polls());
        }
        if phase >= 2 {
            break;
        }
        assert!(
            sim.has_runnable() || sim.next_timer_deadline().is_some(),
            "simulation went idle before the measured phase ended"
        );
    }
    let polls_end = sim.polls();
    sim.run();
    drop(sim);
    if telemetry.is_some() {
        Telemetry::uninstall();
    }
    drop(check);
    let polls_setup = polls_setup.expect("measured phase started");
    let out = out
        .borrow_mut()
        .take()
        .expect("workload task must complete");
    Rep {
        mode,
        setup_s: marks.setup_s.get(),
        run_wall_s: marks.run_wall_s.get(),
        run_cpu_s: marks.run_cpu_s.get(),
        setup_probes: marks.setup_probes.get(),
        run_probes: marks.run_probes.get(),
        polls_setup,
        polls_run: polls_end - polls_setup,
        out,
    }
}

/// Conservation split of one load source, plus the latencies of its
/// completed requests.
#[derive(Default)]
pub struct Tally {
    /// Requests issued.
    pub issued: Cell<u64>,
    /// Completed.
    pub ok: Cell<u64>,
    /// Refused by admission control.
    pub shed: Cell<u64>,
    /// Failed otherwise.
    pub errors: Cell<u64>,
    /// Virtual latency of each completed request.
    pub latencies: RefCell<Vec<u64>>,
    /// Wrong answers (a read that is not the written pattern, a page
    /// that does not round-trip): each one fails the run.
    pub wrong: RefCell<Vec<String>>,
}

impl Tally {
    /// Records one resolved request.
    pub fn record<T>(&self, result: &Result<T, DpdpuError>, latency_ns: u64) {
        self.issued.set(self.issued.get() + 1);
        match result {
            Ok(_) => {
                self.ok.set(self.ok.get() + 1);
                self.latencies.borrow_mut().push(latency_ns);
            }
            Err(DpdpuError::Unavailable(_)) => self.shed.set(self.shed.get() + 1),
            Err(_) => self.errors.set(self.errors.get() + 1),
        }
    }

    /// Records a wrong answer.
    pub fn wrong(&self, what: String) {
        let mut w = self.wrong.borrow_mut();
        if w.len() < 8 {
            w.push(what);
        } else if w.len() == 8 {
            w.push("... more wrong answers".into());
        }
    }

    /// Appends conservation and wrong-answer failures to `failures`.
    pub fn check(&self, label: &str, expected_issued: u64, failures: &mut Vec<String>) {
        let (i, o, s, e) = (
            self.issued.get(),
            self.ok.get(),
            self.shed.get(),
            self.errors.get(),
        );
        if i != expected_issued {
            failures.push(format!("{label}: issued {i}, expected {expected_issued}"));
        }
        if i != o + s + e {
            failures.push(format!(
                "{label}: conservation broken: issued {i} != ok {o} + shed {s} + errors {e}"
            ));
        }
        for w in self.wrong.borrow().iter() {
            failures.push(format!("{label}: {w}"));
        }
    }
}

/// Peak resident set (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Spans the library layers have recorded into the installed telemetry
/// session so far; `None` when no session is installed.
pub fn library_spans() -> Option<usize> {
    Telemetry::current().map(|t| t.tracer().len())
}
