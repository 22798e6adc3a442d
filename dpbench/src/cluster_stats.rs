//! Counters read from outside the cluster's layers, snapshotted at the
//! start and end of the measured phase.

use std::rc::Rc;

use dpdpu_dds::cluster::{ClusterClient, DdsCluster};
use dpdpu_hw::{CpuPool, Platform};

/// Busy cycles of a core pool.
fn busy_cycles(cpu: &CpuPool) -> f64 {
    cpu.busy_ns() as f64 * cpu.clock_hz() as f64 / 1e9
}

/// Cumulative counters of one platform's hardware.
#[derive(Debug, Clone, Copy, Default)]
pub struct HwCounters {
    /// Platforms summed.
    pub platforms: u64,
    /// Host cores summed over platforms.
    pub host_cores: u64,
    /// DPU cores summed over platforms.
    pub dpu_cores: u64,
    /// Host busy cycles.
    pub host_cycles: f64,
    /// DPU busy cycles.
    pub dpu_cycles: f64,
    /// Host busy ns.
    pub host_busy_ns: u64,
    /// DPU busy ns.
    pub dpu_busy_ns: u64,
    /// SSD reads.
    pub ssd_reads: u64,
    /// SSD writes.
    pub ssd_writes: u64,
    /// SSD busy ns.
    pub ssd_busy_ns: u64,
    /// Host↔DPU PCIe bytes.
    pub pcie_bytes: u64,
    /// Host↔DPU PCIe busy ns.
    pub pcie_busy_ns: u64,
    /// Compression-ASIC busy ns.
    pub compress_busy_ns: u64,
    /// Compression ASICs summed.
    pub compress_units: u64,
}

impl HwCounters {
    /// Adds one platform's counters.
    pub fn add(&mut self, p: &Platform) {
        self.platforms += 1;
        self.host_cores += p.host_cpu.cores() as u64;
        self.dpu_cores += p.dpu_cpu.cores() as u64;
        self.host_cycles += busy_cycles(&p.host_cpu);
        self.dpu_cycles += busy_cycles(&p.dpu_cpu);
        self.host_busy_ns += p.host_cpu.busy_ns();
        self.dpu_busy_ns += p.dpu_cpu.busy_ns();
        self.ssd_reads += p.ssd.reads.get();
        self.ssd_writes += p.ssd.writes.get();
        self.ssd_busy_ns += p.ssd.busy_ns();
        self.pcie_bytes += p.host_dpu_pcie.bytes_moved.get();
        self.pcie_busy_ns += p.host_dpu_pcie.busy_ns();
        if let Some(a) = p.accel(dpdpu_hw::AccelKind::Compression) {
            self.compress_busy_ns += a.busy_ns();
            self.compress_units += 1;
        }
    }

    /// Counters of one platform.
    pub fn of(p: &Platform) -> Self {
        let mut c = HwCounters::default();
        c.add(p);
        c
    }

    /// Per-layer hardware metrics for the interval `self → end`, over
    /// `elapsed_ns` of virtual time and `ops` requests.
    pub fn layer_metrics(
        &self,
        end: &HwCounters,
        elapsed_ns: u64,
        ops: u64,
    ) -> Vec<(&'static str, f64)> {
        let el = elapsed_ns.max(1) as f64;
        let ops = ops.max(1) as f64;
        let util =
            |busy: u64, busy0: u64, units: u64| (busy - busy0) as f64 / el / units.max(1) as f64;
        vec![
            (
                "hw.host_cpu.util",
                util(end.host_busy_ns, self.host_busy_ns, end.host_cores),
            ),
            (
                "hw.dpu_cpu.util",
                util(end.dpu_busy_ns, self.dpu_busy_ns, end.dpu_cores),
            ),
            (
                "hw.ssd.reads_per_op",
                (end.ssd_reads - self.ssd_reads) as f64 / ops,
            ),
            (
                "hw.ssd.writes_per_op",
                (end.ssd_writes - self.ssd_writes) as f64 / ops,
            ),
            (
                "hw.ssd.util",
                util(end.ssd_busy_ns, self.ssd_busy_ns, end.platforms),
            ),
            (
                "hw.pcie.host_dpu.bytes_per_op",
                (end.pcie_bytes - self.pcie_bytes) as f64 / ops,
            ),
            (
                "hw.pcie.host_dpu.util",
                util(end.pcie_busy_ns, self.pcie_busy_ns, end.platforms),
            ),
            (
                "hw.accel.compress.util",
                util(
                    end.compress_busy_ns,
                    self.compress_busy_ns,
                    end.compress_units,
                ),
            ),
        ]
    }
}

/// Every server's hardware counters, summed over all replicas.
pub fn cluster_hw(cluster: &DdsCluster) -> HwCounters {
    let mut c = HwCounters::default();
    for g in 0..cluster.shards() {
        for dds in &cluster.group(g).members {
            c.add(dds.platform());
        }
    }
    c
}

/// Registers queue-depth probes over every server platform.
pub fn probe_platforms(spans: &crate::trace::Spans, platforms: Vec<Rc<Platform>>) {
    let ps = Rc::new(platforms);
    let p = ps.clone();
    spans.probe("hw.host_cpu.queue_mean", move || {
        p.iter().map(|p| p.host_cpu.queue_len() as f64).sum()
    });
    let p = ps.clone();
    spans.probe("hw.dpu_cpu.queue_mean", move || {
        p.iter().map(|p| p.dpu_cpu.queue_len() as f64).sum()
    });
    let p = ps.clone();
    spans.probe("hw.ssd.queue_mean", move || {
        p.iter().map(|p| p.ssd.queue_len() as f64).sum()
    });
    let p = ps;
    spans.probe("hw.accel.compress.queue_mean", move || {
        p.iter()
            .filter_map(|p| p.accel(dpdpu_hw::AccelKind::Compression))
            .map(|a| a.queue_len() as f64)
            .sum()
    });
}

/// All server platforms of a cluster (primaries and backups).
pub fn cluster_platforms(cluster: &DdsCluster) -> Vec<Rc<Platform>> {
    (0..cluster.shards())
        .flat_map(|g| {
            cluster
                .group(g)
                .members
                .iter()
                .map(|d| d.platform().clone())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Cumulative request-path counters of the DDS servers and the client.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathCounters {
    served_dpu: u64,
    served_host: u64,
    host_fallbacks: u64,
    dup_replays: u64,
    retries: u64,
    timeouts: u64,
    failures: u64,
    shed: u64,
    chained: u64,
    solo_commits: u64,
    stale_rejections: u64,
    promotions: u64,
}

impl PathCounters {
    /// Reads the counters now.
    pub fn read(cluster: &DdsCluster, client: &ClusterClient) -> Self {
        let mut c = PathCounters {
            shed: client.total_shed(),
            ..Default::default()
        };
        for dds in cluster.primaries() {
            c.served_dpu += dds.served_dpu.get();
            c.served_host += dds.served_host.get();
        }
        for g in 0..cluster.shards() {
            let sc = client.shard_client(g);
            c.retries += sc.retries.get();
            c.timeouts += sc.timeouts.get();
            c.failures += sc.failures.get();
            if let Some(ctl) = cluster.ctl(g) {
                c.promotions += ctl.promotions.get();
            }
            for dds in &cluster.group(g).members {
                c.host_fallbacks += dds.host_fallbacks.get();
                c.dup_replays += dds.dup_replays.get();
                if let Some(role) = dds.replication() {
                    c.chained += role.chained.get();
                    c.solo_commits += role.solo_commits.get();
                    c.stale_rejections += role.stale_rejections.get();
                }
            }
        }
        c
    }

    /// Requests shed by client admission control since `start`.
    pub fn shed_delta(&self, start: &PathCounters) -> u64 {
        self.shed - start.shed
    }

    /// Per-layer metrics for the interval `self → end` over `ops`
    /// requests of which `writes` were updates.
    pub fn layer_metrics(
        &self,
        end: &PathCounters,
        ops: u64,
        writes: u64,
    ) -> Vec<(&'static str, f64)> {
        let ops = ops.max(1) as f64;
        let d = |a: u64, b: u64| (b - a) as f64;
        let dpu = d(self.served_dpu, end.served_dpu);
        let host = d(self.served_host, end.served_host);
        vec![
            ("director.dpu_frac", dpu / (dpu + host).max(1.0)),
            (
                "director.host_fallbacks",
                d(self.host_fallbacks, end.host_fallbacks),
            ),
            ("server.dup_replays", d(self.dup_replays, end.dup_replays)),
            ("cluster.retries_per_op", d(self.retries, end.retries) / ops),
            (
                "cluster.timeouts_per_op",
                d(self.timeouts, end.timeouts) / ops,
            ),
            ("cluster.failures", d(self.failures, end.failures)),
            ("cluster.admission_shed", d(self.shed, end.shed)),
            (
                "repl.chained_per_write",
                d(self.chained, end.chained) / writes.max(1) as f64,
            ),
            ("repl.solo_commits", d(self.solo_commits, end.solo_commits)),
            (
                "repl.stale_rejections",
                d(self.stale_rejections, end.stale_rejections),
            ),
            ("repl.promotions", d(self.promotions, end.promotions)),
        ]
    }
}

/// Largest shard's share of the generated keys.
pub fn hot_shard_share(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    counts.iter().copied().max().unwrap_or(0) as f64 / total.max(1) as f64
}
