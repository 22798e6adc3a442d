//! Domain-partitioned DDS cluster on the parallel simulation core.
//!
//! The serial cluster model ([`dpdpu_dds::cluster`]) puts every shard
//! platform inside one `Sim`, so a 64-server fleet is one giant event
//! heap on one core. This module partitions the same shape across
//! [`dpdpu_des::DomainSet`] time domains: each domain owns one tagged
//! DDS platform plus its local client fleet, and cross-shard requests
//! ride epoch-stamped inter-domain links whose latency *is* the
//! conservative lookahead ([`NetConfig::lookahead_ns`] — the physical
//! link's propagation floor, which no queueing can undercut).
//!
//! Every domain installs its own [`Telemetry`] and
//! [`dpdpu_check::CheckSession`], swapped in and out around each
//! execution slice by [`ParHooks`], so probe streams never interleave
//! across domains. The per-domain traces are merged deterministically by
//! (virtual time, domain index, event index) via
//! [`dpdpu_telemetry::merge_traces`], and the whole run — summary lines,
//! conformance reports, merged trace — is a pure function of
//! (configuration, seed): `run_par(cfg, 1)` and `run_par(cfg, N)` must
//! be byte-identical, which the `par_cluster` scenario and the
//! determinism auditor enforce.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use dpdpu_dds::cluster::HashRing;
use dpdpu_dds::kv::INDEX_ENTRY_BYTES;
use dpdpu_dds::server::{Dds, DdsClient, DdsConfig};
use dpdpu_des::{
    now, oneshot, sleep_until, spawn, DomainHooks, DomainSet, Histogram, OneshotSender, Semaphore,
    Sim, Time, XReceiver, XSender,
};
use dpdpu_hw::{CpuPool, DpuSpec, HostSpec, Platform};
use dpdpu_net::fabric::Endpoint;
use dpdpu_net::NetConfig;
use dpdpu_telemetry::{merge_traces, Telemetry};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Virtual time at which every domain's clients start issuing: far
/// enough past t=0 that each domain's local preload (a handful of puts,
/// microseconds of virtual time) has certainly quiesced fleet-wide.
const CLIENT_START_NS: Time = 2_000_000;

/// Shape of the partitioned cluster and its workload.
#[derive(Debug, Clone, Copy)]
pub struct ParClusterConfig {
    /// Shard platforms — one time domain each.
    pub domains: usize,
    /// Load-generating clients co-resident in each domain.
    pub clients_per_domain: usize,
    /// Requests each client issues.
    pub ops_per_client: u64,
    /// Keys per domain; the global population is `domains *
    /// keys_per_domain`, partitioned by consistent hashing.
    pub keys_per_domain: u64,
    /// Value payload size.
    pub value_bytes: usize,
    /// Percentage of reads (the rest are updates).
    pub read_pct: u32,
    /// Per-client in-flight window.
    pub pipeline: usize,
    /// Virtual nodes per shard on the routing ring.
    pub vnodes: usize,
    /// Seeds every client RNG.
    pub seed: u64,
}

impl Default for ParClusterConfig {
    fn default() -> Self {
        ParClusterConfig {
            domains: 4,
            clients_per_domain: 4,
            ops_per_client: 32,
            keys_per_domain: 16,
            value_bytes: 128,
            read_pct: 80,
            pipeline: 4,
            vnodes: 32,
            seed: 42,
        }
    }
}

/// A cross-domain request: served by the key's owning domain against
/// its local DDS server, answered on the paired response link.
struct ParReq {
    req_id: u64,
    write: bool,
    key: u64,
    value: Vec<u8>,
}

/// The answer to a [`ParReq`]: `ok` means the operation succeeded (and,
/// for reads, found the key).
struct ParResp {
    req_id: u64,
    ok: bool,
}

/// One domain's cross-domain endpoints, indexed by peer domain.
struct Ports {
    req_out: Vec<Option<XSender<ParReq>>>,
    req_in: Vec<(usize, XReceiver<ParReq>)>,
    resp_out: Vec<Option<XSender<ParResp>>>,
    resp_in: Vec<(usize, XReceiver<ParResp>)>,
}

/// Workload counters one domain accumulates (single-threaded within the
/// domain's `Sim`, hence `Cell`s).
struct DomainStats {
    issued: Cell<u64>,
    ok: Cell<u64>,
    errors: Cell<u64>,
    local: Cell<u64>,
    remote: Cell<u64>,
    latency: Histogram,
    end_ns: Cell<u64>,
}

impl DomainStats {
    fn new() -> Rc<Self> {
        Rc::new(DomainStats {
            issued: Cell::new(0),
            ok: Cell::new(0),
            errors: Cell::new(0),
            local: Cell::new(0),
            remote: Cell::new(0),
            latency: Histogram::new(),
            end_ns: Cell::new(0),
        })
    }
}

/// What one domain publishes at teardown.
struct DomainOut {
    line: String,
    report: String,
    trace: String,
    polls: u64,
    issued: u64,
    ok: u64,
    remote: u64,
    /// Every successful request's latency, for the fleet quantiles.
    latency_ns: Vec<u64>,
}

/// Binds a domain's telemetry and conformance sessions to its execution
/// slices, and exports everything observable at teardown.
struct ParHooks {
    domain: usize,
    telemetry: Rc<Telemetry>,
    check: Rc<dpdpu_check::CheckSession>,
    stats: Rc<DomainStats>,
    out: Arc<Mutex<Option<DomainOut>>>,
    polls: u64,
}

impl DomainHooks for ParHooks {
    fn enter(&mut self) {
        Telemetry::reinstall(&self.telemetry);
        dpdpu_check::CheckSession::reinstall(&self.check);
    }

    fn exit(&mut self) {
        Telemetry::uninstall();
        dpdpu_check::CheckSession::uninstall();
    }

    fn before_teardown(&mut self, sim: &Sim) {
        self.polls = sim.polls();
    }

    fn finish(self: Box<Self>) {
        let violations = self.check.finish();
        let report = self.check.report();
        assert!(
            violations.is_empty(),
            "domain pd{}: conformance violations — {report}",
            self.domain
        );
        let s = &self.stats;
        let line = format!(
            "domain=pd{} issued={} ok={} errors={} local={} remote={} \
             p50_us={:.1} p99_us={:.1} end_us={}",
            self.domain,
            s.issued.get(),
            s.ok.get(),
            s.errors.get(),
            s.local.get(),
            s.remote.get(),
            s.latency.p50().unwrap_or(0) as f64 / 1e3,
            s.latency.p99().unwrap_or(0) as f64 / 1e3,
            s.end_ns.get() / 1_000,
        );
        *self.out.lock().unwrap_or_else(|e| e.into_inner()) = Some(DomainOut {
            line,
            report,
            trace: self.telemetry.chrome_trace(),
            polls: self.polls,
            issued: s.issued.get(),
            ok: s.ok.get(),
            remote: s.remote.get(),
            latency_ns: s.latency.samples(),
        });
        Telemetry::uninstall();
        dpdpu_check::CheckSession::uninstall();
    }
}

/// Everything observable about one partitioned-cluster run.
pub struct ParRun {
    /// Per-domain summary + conformance lines, domain order.
    pub stdout: String,
    /// Deterministically merged Chrome trace across all domains.
    pub trace: String,
    /// Final virtual time per domain.
    pub finals: Vec<Time>,
    /// Synchronization windows the run took — identical at every job
    /// count.
    pub windows: u64,
    /// Total task polls across every domain (the events/s numerator).
    pub polls: u64,
    /// Requests issued fleet-wide.
    pub issued: u64,
    /// Requests completed successfully fleet-wide.
    pub ok: u64,
    /// Cross-domain requests fleet-wide.
    pub remote: u64,
    /// Latest domain clock at quiesce, ns.
    pub elapsed_ns: u64,
    /// Median latency over every successful request fleet-wide, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency over every successful request
    /// fleet-wide, ns.
    pub p99_ns: u64,
}

/// Runs the partitioned cluster on `jobs` worker threads. The output is
/// a pure function of `cfg` — byte-identical at every job count.
pub fn run_par(cfg: ParClusterConfig, jobs: usize) -> ParRun {
    assert!(cfg.domains >= 2, "partitioning needs at least two domains");
    assert!(
        cfg.clients_per_domain > 0 && cfg.pipeline > 0,
        "degenerate workload"
    );
    let lookahead = NetConfig::default().lookahead_ns();
    let ring = HashRing::new(cfg.domains, cfg.vnodes);
    let mut set = DomainSet::new();
    let ids: Vec<usize> = (0..cfg.domains)
        .map(|d| set.add_domain(format!("pd{d}")))
        .collect();
    let mut ports: Vec<Ports> = (0..cfg.domains)
        .map(|_| Ports {
            req_out: (0..cfg.domains).map(|_| None).collect(),
            req_in: Vec::new(),
            resp_out: (0..cfg.domains).map(|_| None).collect(),
            resp_in: Vec::new(),
        })
        .collect();
    for i in 0..cfg.domains {
        for j in 0..cfg.domains {
            if i == j {
                continue;
            }
            let (tx, rx) = set.link::<ParReq>(ids[i], ids[j], lookahead);
            ports[i].req_out[j] = Some(tx);
            ports[j].req_in.push((i, rx));
            let (tx, rx) = set.link::<ParResp>(ids[i], ids[j], lookahead);
            ports[i].resp_out[j] = Some(tx);
            ports[j].resp_in.push((i, rx));
        }
    }
    let slots: Vec<Arc<Mutex<Option<DomainOut>>>> = (0..cfg.domains)
        .map(|_| Arc::new(Mutex::new(None)))
        .collect();
    for (d, port) in ports.into_iter().enumerate() {
        let ring = ring.clone();
        let out = slots[d].clone();
        set.set_root(ids[d], move || {
            // Sessions first, then the Sim, so the executor epoch and
            // every setup-time probe land inside this domain's sessions.
            let telemetry = Telemetry::install();
            let check = dpdpu_check::CheckSession::install_collecting();
            let stats = DomainStats::new();
            let sim = Sim::new();
            let st = stats.clone();
            sim.spawn(domain_root(d, cfg, ring, port, st));
            let hooks = ParHooks {
                domain: d,
                telemetry,
                check,
                stats,
                out,
                polls: 0,
            };
            (sim, Box::new(hooks) as Box<dyn DomainHooks>)
        });
    }
    let run = set.run(jobs);
    let outs: Vec<DomainOut> = slots
        .iter()
        .map(|s| {
            s.lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("every domain publishes its output at teardown")
        })
        .collect();
    let mut stdout = String::new();
    for out in &outs {
        let _ = writeln!(stdout, "{}", out.line);
        let _ = writeln!(stdout, "{}", out.report);
    }
    let named: Vec<(String, String)> = outs
        .iter()
        .enumerate()
        .map(|(d, o)| (format!("pd{d}"), o.trace.clone()))
        .collect();
    let fleet = Histogram::new();
    for &ns in outs.iter().flat_map(|o| &o.latency_ns) {
        fleet.record(ns);
    }
    ParRun {
        stdout,
        trace: merge_traces(&named),
        polls: outs.iter().map(|o| o.polls).sum(),
        issued: outs.iter().map(|o| o.issued).sum(),
        ok: outs.iter().map(|o| o.ok).sum(),
        remote: outs.iter().map(|o| o.remote).sum(),
        elapsed_ns: run.finals.iter().copied().max().unwrap_or(0),
        p50_ns: fleet.p50().unwrap_or(0),
        p99_ns: fleet.p99().unwrap_or(0),
        finals: run.finals,
        windows: run.windows,
    }
}

/// One domain's root: platform + DDS server + local client, ingress
/// service for peer requests, response dispatch, and the local fleet.
async fn domain_root(
    d: usize,
    cfg: ParClusterConfig,
    ring: HashRing,
    ports: Ports,
    stats: Rc<DomainStats>,
) {
    let total_keys = cfg.domains as u64 * cfg.keys_per_domain;
    let platform = Platform::new_tagged(
        HostSpec::epyc(),
        DpuSpec::bluefield2(),
        &format!("pnode{d}"),
    );
    if let Some(t) = Telemetry::current() {
        platform.register_telemetry(&t);
    }
    let dds = Dds::build(
        platform.clone(),
        DdsConfig {
            kv_index_budget: 2 * total_keys * INDEX_ENTRY_BYTES,
            ..DdsConfig::default()
        },
    )
    .await;
    let transport = NetConfig::default().transport();
    let server_ep = Endpoint::offloaded(
        platform.host_cpu.clone(),
        platform.dpu_cpu.clone(),
        platform.host_dpu_pcie.clone(),
    );
    let client_ep = Endpoint::host(CpuPool::new(format!("parfleet{d}"), 16, 3_000_000_000));
    let (cconn, sconn) = transport.connect(&client_ep, &server_ep, &format!("pd{d}-local"));
    let (stx, srx) = sconn.split();
    dds.serve(srx, stx);
    let (ctx, crx) = cconn.split();
    let local = DdsClient::new(ctx, crx);

    // Preload the keys this domain owns; every domain does the same at
    // its own t≈0, so by CLIENT_START_NS the whole population exists.
    for key in 0..total_keys {
        if ring.shard_for(key) != d {
            continue;
        }
        local
            .kv_put(key, Bytes::from(vec![key as u8; cfg.value_bytes]))
            .await
            .expect("preload put must succeed");
    }

    // Ingress: serve each peer's requests against the local DDS and
    // answer on the paired response link. The loops park forever once
    // traffic drains; the executor drops them at teardown.
    let mut resp_out = ports.resp_out;
    for (src, mut rx) in ports.req_in {
        let back = resp_out[src].take().expect("response link to peer");
        let local = local.clone();
        spawn(async move {
            loop {
                let req = rx.recv().await;
                let local = local.clone();
                let back = back.clone();
                spawn(async move {
                    let ok = if req.write {
                        local.kv_put(req.key, Bytes::from(req.value)).await.is_ok()
                    } else {
                        matches!(local.kv_get(req.key).await, Ok(Some(_)))
                    };
                    back.send(ParResp {
                        req_id: req.req_id,
                        ok,
                    });
                });
            }
        });
    }

    // Response dispatch: resolve each answer to its waiting oneshot.
    let pending: Rc<RefCell<HashMap<u64, OneshotSender<ParResp>>>> =
        Rc::new(RefCell::new(HashMap::new()));
    for (_src, mut rx) in ports.resp_in {
        let pending = pending.clone();
        spawn(async move {
            loop {
                let resp = rx.recv().await;
                if let Some(tx) = pending.borrow_mut().remove(&resp.req_id) {
                    let _ = tx.send(resp);
                }
            }
        });
    }

    let req_out = Rc::new(ports.req_out);
    let next_id = Rc::new(Cell::new(0u64));
    let mut clients = Vec::with_capacity(cfg.clients_per_domain);
    for c in 0..cfg.clients_per_domain {
        let local = local.clone();
        let ring = ring.clone();
        let pending = pending.clone();
        let req_out = req_out.clone();
        let next_id = next_id.clone();
        let stats = stats.clone();
        clients.push(spawn(async move {
            // Fixed global start plus a deterministic stagger, so the
            // fleet's shape is independent of preload duration.
            sleep_until(CLIENT_START_NS + c as u64 * 7_919).await;
            let mut rng =
                StdRng::seed_from_u64(cfg.seed.wrapping_mul(1_000) + (d as u64) * 64 + c as u64);
            let window = Semaphore::new(cfg.pipeline);
            let mut in_flight = Vec::with_capacity(cfg.ops_per_client as usize);
            for _ in 0..cfg.ops_per_client {
                let permit = window.acquire().await;
                let key = rng.random_range(0..total_keys);
                let write = rng.random_range(0..100u32) >= cfg.read_pct;
                let owner = ring.shard_for(key);
                let local = local.clone();
                let pending = pending.clone();
                let req_out = req_out.clone();
                let next_id = next_id.clone();
                let stats = stats.clone();
                in_flight.push(spawn(async move {
                    let _slot = permit;
                    let t0 = now();
                    stats.issued.set(stats.issued.get() + 1);
                    let ok = if owner == d {
                        stats.local.set(stats.local.get() + 1);
                        if write {
                            local
                                .kv_put(key, Bytes::from(vec![key as u8; cfg.value_bytes]))
                                .await
                                .is_ok()
                        } else {
                            matches!(local.kv_get(key).await, Ok(Some(_)))
                        }
                    } else {
                        stats.remote.set(stats.remote.get() + 1);
                        let req_id = next_id.get();
                        next_id.set(req_id + 1);
                        let (otx, orx) = oneshot();
                        pending.borrow_mut().insert(req_id, otx);
                        let value = if write {
                            vec![key as u8; cfg.value_bytes]
                        } else {
                            Vec::new()
                        };
                        req_out[owner]
                            .as_ref()
                            .expect("link to every peer")
                            .send(ParReq {
                                req_id,
                                write,
                                key,
                                value,
                            });
                        match orx.await {
                            Ok(resp) => resp.ok,
                            Err(_) => false,
                        }
                    };
                    if ok {
                        stats.ok.set(stats.ok.get() + 1);
                        stats.latency.record(now() - t0);
                    } else {
                        stats.errors.set(stats.errors.get() + 1);
                    }
                }));
            }
            for h in in_flight {
                h.await;
            }
        }));
    }
    for h in clients {
        h.await;
    }
    stats.end_ns.set(now());
}

/// Scenario: the partitioned cluster replayed serially and in parallel
/// from the same seed; any divergence — a summary byte, a trace byte —
/// fails the run. The emitted output is the (identical) serial run's.
pub fn par_cluster(seed: u64) -> crate::scenarios::ScenarioRun {
    let cfg = ParClusterConfig {
        domains: 3,
        clients_per_domain: 2,
        ops_per_client: 8,
        keys_per_domain: 12,
        value_bytes: 64,
        pipeline: 2,
        seed,
        ..ParClusterConfig::default()
    };
    let serial = run_par(cfg, 1);
    let parallel = run_par(cfg, 2);
    assert_eq!(
        serial.stdout, parallel.stdout,
        "par_cluster: serial vs parallel stdout diverged"
    );
    assert_eq!(
        serial.trace, parallel.trace,
        "par_cluster: serial vs parallel trace diverged"
    );
    let mut stdout = String::new();
    let _ = writeln!(stdout, "## scenario par_cluster (seed {seed})");
    stdout.push_str(&serial.stdout);
    let _ = writeln!(
        stdout,
        "parallel_replay=identical jobs_checked=1,2 domains={} issued={} ok={} remote={} \
         elapsed_us={} polls={}",
        cfg.domains,
        serial.issued,
        serial.ok,
        serial.remote,
        serial.elapsed_ns / 1_000,
        serial.polls,
    );
    crate::scenarios::ScenarioRun {
        stdout,
        trace: serial.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ParClusterConfig {
        ParClusterConfig {
            domains: 3,
            clients_per_domain: 2,
            ops_per_client: 6,
            keys_per_domain: 8,
            value_bytes: 64,
            pipeline: 2,
            ..ParClusterConfig::default()
        }
    }

    #[test]
    fn parallel_replay_is_byte_identical_across_job_counts() {
        let a = run_par(small(), 1);
        let b = run_par(small(), 2);
        let c = run_par(small(), 3);
        assert_eq!(a.stdout, b.stdout, "jobs=2 stdout diverged");
        assert_eq!(a.trace, b.trace, "jobs=2 trace diverged");
        assert_eq!(a.stdout, c.stdout, "jobs=3 stdout diverged");
        assert_eq!(a.trace, c.trace, "jobs=3 trace diverged");
        assert_eq!(a.finals, b.finals);
        assert_eq!(a.polls, b.polls);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.windows, c.windows);
        assert!(!a.trace.is_empty(), "domains must emit telemetry");
    }

    #[test]
    fn every_request_terminates_and_some_cross_domains() {
        let r = run_par(small(), 2);
        assert_eq!(r.issued, 3 * 2 * 6);
        assert_eq!(r.ok, r.issued, "all keys preloaded: every op must land");
        assert!(
            r.remote > 0,
            "consistent hashing must route some ops off-domain"
        );
        assert!(r.remote < r.issued, "some ops must stay local");
        assert!(r.elapsed_ns > CLIENT_START_NS);
        assert!(r.p99_ns >= r.p50_ns);
    }

    #[test]
    fn seeds_steer_the_workload() {
        let mut a_cfg = small();
        a_cfg.seed = 1;
        let mut b_cfg = small();
        b_cfg.seed = 2;
        let a = run_par(a_cfg, 2);
        let b = run_par(b_cfg, 2);
        assert_ne!(a.stdout, b.stdout, "seed must change the key stream");
    }

    #[test]
    fn scenario_emits_stable_shape() {
        let r = par_cluster(7);
        assert!(r.stdout.contains("## scenario par_cluster (seed 7)"));
        assert!(r.stdout.contains("parallel_replay=identical"));
        assert!(r.stdout.contains("domain=pd2"));
        assert!(r.stdout.contains("conformance:"));
        assert!(!r.trace.is_empty());
    }
}
