//! Host-speed calibration: a fixed reference workload, timed in short
//! probes interleaved with the simulation, that tells how fast the host
//! core ran while the simulator was being measured.
//!
//! On a shared host the same repetition of the same binary takes up to
//! twice as long in some minutes as in others, because neighbouring
//! guests contend for the core. The probes run between simulation steps,
//! every [`PROBE_EVERY_S`] of host time, so they see the contention the
//! steps around them saw. The simulator's time divided by the probes'
//! slowdown is its time at the nominal host speed: a figure that moves
//! when the simulator's code changes and much less when the neighbours
//! do. The raw times stay in every repetition's record beside it.
//!
//! The reference is this file's code only (no repository crate), so a
//! change to the simulator does not change the reference's code; it
//! allocates nothing, so the simulator's heap does not change its speed.

use std::time::Instant;

/// Host seconds between probes.
pub const PROBE_EVERY_S: f64 = 0.005;

/// Wall seconds one [`reference_unit`] takes at the nominal host speed:
/// about its time on a quiet 2-vCPU Intel Xeon (Sapphire Rapids) KVM
/// guest, the machine the benchmark's bounds were set on. It only sets
/// the scale: every normalised figure is "host time on that machine,
/// when quiet".
pub const NOMINAL_UNIT_S: f64 = 40.0e-6;

/// Bytes of the buffer each unit fills and sums: within a core's L1 and
/// L2, so the sweeps run at the core's own speed.
pub const BUF_BYTES: usize = 16 * 1024;
/// Fill-and-sum sweeps over the buffer per unit.
const SWEEPS: usize = 8;
/// Elements of each array a unit generates and sorts.
const SORT_LEN: usize = 256;
/// Arrays sorted per unit.
const SORTS: u64 = 4;

/// One unit of the reference workload: vectorised fill-and-sum sweeps
/// over a small buffer, and sorts of small arrays, on fixed data. Both
/// are throughput-bound, like the simulator, so they slow down when a
/// neighbour contends for the core. Of the candidates tried (pointer
/// chases over 1-16 MiB, a dependent arithmetic chain, ordered-map
/// churn, allocations of payload-sized buffers), these two tracked the
/// simulator's swings most closely while staying the same across the
/// traced, untraced and checker-off passes. Returns a checksum so none
/// of it is optimised away.
pub fn reference_unit(buf: &mut [u8]) -> u64 {
    let mut sum = 0u64;
    for k in 0..SWEEPS {
        buf.fill(k as u8);
        std::hint::black_box(&mut *buf);
        sum = sum.wrapping_add(buf.iter().map(|&x| x as u64).sum::<u64>());
    }
    for k in 0..SORTS {
        let mut state = (sum ^ k) | 1;
        let mut v = [0u32; SORT_LEN];
        for x in v.iter_mut() {
            state = xorshift(state);
            *x = state as u32;
        }
        v.sort_unstable();
        sum = sum.wrapping_add(v[SORT_LEN / 3] as u64);
    }
    std::hint::black_box(sum)
}

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// Probe totals: units run and the wall and CPU seconds they took.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeTotals {
    /// Units run.
    pub units: u64,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

impl ProbeTotals {
    /// Totals since `earlier`.
    pub fn since(self, earlier: ProbeTotals) -> ProbeTotals {
        ProbeTotals {
            units: self.units - earlier.units,
            wall_s: self.wall_s - earlier.wall_s,
            cpu_s: self.cpu_s - earlier.cpu_s,
        }
    }

    /// How much slower than nominal the probes ran on the wall clock
    /// (1.0 = nominal; 1.0 when no probe ran).
    pub fn wall_slowdown(self) -> f64 {
        slowdown(self.wall_s, self.units)
    }

    /// The same on the process CPU clock.
    pub fn cpu_slowdown(self) -> f64 {
        slowdown(self.cpu_s, self.units)
    }
}

fn slowdown(s: f64, units: u64) -> f64 {
    if units == 0 || s <= 0.0 {
        1.0
    } else {
        s / units as f64 / NOMINAL_UNIT_S
    }
}

/// Runs a probe whenever [`PROBE_EVERY_S`] has passed since the last.
pub struct Prober {
    buf: Vec<u8>,
    last: Instant,
    totals: ProbeTotals,
}

impl Prober {
    /// A prober whose first probe is due now.
    pub fn new() -> Self {
        Prober {
            buf: vec![0; BUF_BYTES],
            last: Instant::now() - std::time::Duration::from_secs_f64(PROBE_EVERY_S),
            totals: ProbeTotals::default(),
        }
    }

    /// Runs one probe if one is due.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() < PROBE_EVERY_S {
            return;
        }
        let cpu = process_cpu_s();
        let t = Instant::now();
        reference_unit(&mut self.buf);
        let end = Instant::now();
        self.totals.units += 1;
        self.totals.wall_s += (end - t).as_secs_f64();
        self.totals.cpu_s += process_cpu_s() - cpu;
        self.last = end;
    }

    /// Totals so far.
    pub fn totals(&self) -> ProbeTotals {
        self.totals
    }
}

impl Default for Prober {
    fn default() -> Self {
        Prober::new()
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // The C library's clock_gettime; std links the C library already.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process user + system CPU seconds, to the nanosecond.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        let mut buf = vec![0; BUF_BYTES];
        assert_eq!(reference_unit(&mut buf), reference_unit(&mut buf));
    }

    #[test]
    fn slowdown_is_probe_time_over_nominal() {
        let twice = ProbeTotals {
            units: 10,
            wall_s: 20.0 * NOMINAL_UNIT_S,
            cpu_s: 10.0 * NOMINAL_UNIT_S,
        };
        assert!((twice.wall_slowdown() - 2.0).abs() < 1e-9);
        assert!((twice.cpu_slowdown() - 1.0).abs() < 1e-9);
        assert_eq!(ProbeTotals::default().wall_slowdown(), 1.0);
        let later = ProbeTotals {
            units: 15,
            wall_s: 25.0 * NOMINAL_UNIT_S,
            cpu_s: 15.0 * NOMINAL_UNIT_S,
        };
        assert_eq!(later.since(twice).units, 5);
        assert!((later.since(twice).wall_slowdown() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn process_cpu_clock_advances() {
        let t0 = process_cpu_s();
        let mut buf = vec![0; BUF_BYTES];
        for _ in 0..1_000 {
            reference_unit(&mut buf);
        }
        assert!(process_cpu_s() > t0);
    }
}
