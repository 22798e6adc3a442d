//! Two-clock end-to-end benchmark of the DPDPU simulator.
//!
//! Every workload runs closed-loop clients through the public APIs of
//! the DDS, core, compute, storage and net crates, in one process on one
//! simulation thread, under the strict `dpdpu-check` session. Each
//! repetition reports the simulator's host cost (wall and CPU time per
//! request, set-up time) and the modelled hardware's performance
//! (virtual latency, goodput, server host and DPU cycles per request),
//! plus per-layer figures read from outside each layer.

pub mod calib;
pub mod cluster_stats;
pub mod gen;
pub mod harness;
pub mod kv;
pub mod metrics;
pub mod sproc;
pub mod tenants;
pub mod trace;

use harness::{run_rep, Mode, Rep};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DDS fast path: DPU offload engine over DPU-issued RDMA.
    KvReadOffload,
    /// Write path: chain replication, host-path puts, TCP, retries.
    KvUpdateReplicated,
    /// Gateway admission, DRR dispatch and scan fan-out under a storm.
    TenantStorm,
    /// Storage engine, compute engine and the real DEFLATE kernel.
    SprocCompress,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::KvReadOffload,
        Workload::KvUpdateReplicated,
        Workload::TenantStorm,
        Workload::SprocCompress,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvReadOffload => "kv_read_offload",
            Workload::KvUpdateReplicated => "kv_update_replicated",
            Workload::TenantStorm => "tenant_storm",
            Workload::SprocCompress => "sproc_compress",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per client (per round, for `tenant_storm`) in one
    /// repetition of the benchmark proper.
    pub fn default_size(self) -> u64 {
        match self {
            Workload::KvReadOffload => 8_192,
            Workload::KvUpdateReplicated => 2_048,
            Workload::TenantStorm => 36,
            Workload::SprocCompress => 32,
        }
    }

    /// Runs one repetition with `size` as in [`Workload::default_size`].
    pub fn run(self, seed: u64, mode: Mode, size: u64) -> Rep {
        match self {
            Workload::KvReadOffload => {
                run_rep(mode, |m, s| kv::run(kv::READ_OFFLOAD, seed, size, m, s))
            }
            Workload::KvUpdateReplicated => run_rep(mode, |m, s| {
                kv::run(kv::UPDATE_REPLICATED, seed, size, m, s)
            }),
            Workload::TenantStorm => run_rep(mode, |m, s| tenants::run(seed, size, m, s)),
            Workload::SprocCompress => run_rep(mode, |m, s| sproc::run(seed, size, m, s)),
        }
    }
}
