//! `tenant_storm`: three tenants behind a `Gateway` (16 dispatch slots)
//! over a 4-shard unreplicated TCP cluster. `storm-kv` saturates its
//! token bucket and in-flight cap; `steady-kv` and `batch-scan` are the
//! victims whose latency and failures the end-to-end metrics report.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dpdpu_core::TenantSpec;
use dpdpu_dds::cluster::{ClusterConfig, DdsCluster};
use dpdpu_dds::gateway::{Gateway, GatewayConfig, TenantId};
use dpdpu_des::{join_all, now, spawn};
use dpdpu_hw::CpuPool;
use rand::RngExt;

use crate::cluster_stats::{cluster_hw, cluster_platforms, probe_platforms, PathCounters};
use crate::gen::{closed_loop, is_value_for, value_for, KeySampler, LoopShape};
use crate::harness::{library_spans, Marks, SimOut, Tally, WorkOut};
use crate::kv::{KEYS, SHARDS, THETA, VALUE_BYTES};
use crate::trace::{quantile, Spans};

/// Gateway dispatch concurrency: small enough that the storm contends
/// with the victims in the scheduler.
pub const DISPATCH_SLOTS: usize = 16;
/// Keys per batch-scan request.
pub const SCAN_LEN: u32 = 16;

/// The three tenants: the storm carries the admission limits, the
/// victims are protected by DRR weight.
pub fn specs() -> Vec<TenantSpec> {
    vec![
        TenantSpec::latency("storm-kv", 1)
            .rate(200_000, 32)
            .in_flight(12),
        TenantSpec::latency("steady-kv", 4),
        TenantSpec::batch("batch-scan", 2),
    ]
}

/// One tenant's request source.
#[derive(Clone, Copy)]
struct Source {
    shape: LoopShape,
    /// Zipf exponent of its keys (0 = uniform).
    theta: f64,
    read_pct: u32,
    scan: bool,
}

/// Load sources per tenant. `rounds` scales both victims' request
/// counts together (they finish close to one another); the storm runs
/// until both victims are done, offering 8 requests per 5 µs — about 8×
/// its token-bucket rate — so it overloads the gateway for the victims'
/// whole run.
fn sources(rounds: u64) -> [Source; 3] {
    [
        Source {
            shape: LoopShape {
                gap_ns: 5_000,
                ..LoopShape::new(8, 8, u64::MAX)
            },
            theta: THETA,
            read_pct: 95,
            scan: false,
        },
        Source {
            shape: LoopShape {
                gap_ns: 3_000,
                ..LoopShape::new(3, 2, 32 * rounds)
            },
            theta: 0.0,
            read_pct: 50,
            scan: false,
        },
        Source {
            shape: LoopShape {
                gap_ns: 10_000,
                pause_every: 4,
                pause_ns: 150_000,
                ..LoopShape::new(2, 1, 2 * rounds)
            },
            theta: 0.0,
            read_pct: 0,
            scan: true,
        },
    ]
}

const SPAN_NAMES: [&str; 3] = ["gateway.storm", "gateway.steady", "gateway.batch"];

/// Runs one repetition with `rounds` × the base request counts.
pub async fn run(seed: u64, rounds: u64, marks: Rc<Marks>, spans: Rc<Spans>) -> WorkOut {
    marks.begin_setup();
    let cluster = DdsCluster::build(ClusterConfig {
        shards: SHARDS,
        vnodes: 512,
        ..ClusterConfig::default()
    })
    .await;
    let client = cluster.connect(CpuPool::new("bench-gateway", 64, 3_000_000_000));
    for key in 0..KEYS {
        if let Err(e) = client.kv_put(key, value_for(key, VALUE_BYTES)).await {
            panic!("preload put of key {key} failed: {e}");
        }
    }
    let gw = Gateway::front(
        client.clone(),
        GatewayConfig {
            dispatch_slots: DISPATCH_SLOTS,
            ..GatewayConfig::new(specs())
        },
    );
    probe_platforms(&spans, cluster_platforms(&cluster));
    let g = gw.clone();
    spans.probe("gateway.queued_mean", move || g.queued() as f64);
    let g = gw.clone();
    spans.probe("gateway.slots_busy_mean", move || {
        (DISPATCH_SLOTS - g.slots_available()) as f64
    });

    let sources = sources(rounds);
    let tallies: Vec<Rc<Tally>> = (0..3).map(|_| Rc::new(Tally::default())).collect();
    let next_req = Rc::new(Cell::new(0u64));
    let hw0 = cluster_hw(&cluster);
    let path0 = PathCounters::read(&cluster, &client);
    let lib_spans0 = library_spans();
    let t0 = now();
    let victims_left = Rc::new(Cell::new(2u32));
    let storm_stop = Rc::new(Cell::new(false));
    marks.begin_run();
    let mut loops = Vec::new();
    for (t, src) in sources.iter().copied().enumerate() {
        let (gw, tally, spans, next_req) = (
            gw.clone(),
            tallies[t].clone(),
            spans.clone(),
            next_req.clone(),
        );
        let sampler = KeySampler::new(KEYS, src.theta);
        let op = Rc::new(move |_task: u64, rng: &mut rand::rngs::StdRng| {
            let key = sampler.sample(rng);
            let read = rng.random_range(0..100u32) < src.read_pct;
            let req = next_req.get();
            next_req.set(req + 1);
            let (gw, tally, spans) = (gw.clone(), tally.clone(), spans.clone());
            async move {
                let tenant = TenantId(t);
                let start = now();
                let span = spans.open(SPAN_NAMES[t], 0, req);
                if src.scan {
                    let r = gw.kv_scan(tenant, key, SCAN_LEN).await;
                    spans.close(span);
                    if let Ok(rows) = &r {
                        if rows.len() > SCAN_LEN as usize {
                            tally.wrong(format!("scan from {key} returned {} rows", rows.len()));
                        }
                        for (k, v) in rows {
                            if *k >= KEYS || !is_value_for(*k, VALUE_BYTES, v) {
                                tally.wrong(format!(
                                    "scan from {key} returned a wrong row for key {k}"
                                ));
                            }
                        }
                    }
                    tally.record(&r, now() - start);
                } else if read {
                    let r = gw.kv_get(tenant, key).await;
                    spans.close(span);
                    match &r {
                        Ok(Some(v)) if is_value_for(key, VALUE_BYTES, v) => {}
                        Ok(_) => tally.wrong(format!("key {key} read a wrong or missing value")),
                        Err(_) => {}
                    }
                    tally.record(&r, now() - start);
                } else {
                    let r = gw.kv_put(tenant, key, value_for(key, VALUE_BYTES)).await;
                    spans.close(span);
                    tally.record(&r, now() - start);
                }
            }
        });
        let (victims_left, storm_stop) = (victims_left.clone(), storm_stop.clone());
        let stop = (t == 0).then(|| storm_stop.clone());
        loops.push(spawn(async move {
            closed_loop(src.shape, seed, t as u64, op, stop).await;
            if t > 0 {
                victims_left.set(victims_left.get() - 1);
                storm_stop.set(victims_left.get() == 0);
            }
        }));
    }
    join_all(loops).await;
    marks.end_run();
    let elapsed_ns = now() - t0;
    let hw1 = cluster_hw(&cluster);
    let path1 = PathCounters::read(&cluster, &client);

    let mut failures = Vec::new();
    for (t, tally) in tallies.iter().enumerate() {
        let snap = gw.snapshot(t);
        // The storm's request count is set by how long the victims run.
        let expected = if t == 0 {
            tally.issued.get()
        } else {
            sources[t].shape.total_ops()
        };
        tally.check(&snap.name, expected, &mut failures);
        let seen = (
            tally.issued.get(),
            tally.ok.get(),
            tally.shed.get(),
            tally.errors.get(),
        );
        let counted = (snap.issued, snap.ok, snap.shed, snap.errors);
        if seen != counted {
            failures.push(format!(
                "{}: gateway counted (issued, ok, shed, errors) = {counted:?}, clients saw {seen:?}",
                snap.name
            ));
        }
    }
    let victims = &tallies[1..];
    let mut latencies: Vec<u64> = victims.iter().flat_map(|t| t.latencies.take()).collect();
    latencies.sort_unstable();
    let sum = |f: fn(&Tally) -> u64| tallies.iter().map(|t| f(t)).sum::<u64>();
    let issued = sum(|t| t.issued.get());
    let sim = SimOut {
        issued,
        ok: sum(|t| t.ok.get()),
        shed: sum(|t| t.shed.get()),
        errors: sum(|t| t.errors.get()),
        scoped_issued: victims.iter().map(|t| t.issued.get()).sum(),
        scoped_failed: victims.iter().map(|t| t.shed.get() + t.errors.get()).sum(),
        latencies,
        elapsed_ns,
        host_cycles: hw1.host_cycles - hw0.host_cycles,
        dpu_cycles: hw1.dpu_cycles - hw0.dpu_cycles,
    };
    let storm = gw.snapshot(0);
    let mut layers = BTreeMap::new();
    layers.extend(hw0.layer_metrics(&hw1, elapsed_ns, issued));
    layers.extend(path0.layer_metrics(&path1, issued, 0));
    layers.insert(
        "gateway.storm.shed_frac",
        storm.shed as f64 / storm.issued.max(1) as f64,
    );

    let mut traced = BTreeMap::new();
    if spans.enabled() {
        let mut calls = spans.durations(SPAN_NAMES[1]);
        calls.extend(spans.durations(SPAN_NAMES[2]));
        calls.sort_unstable();
        traced.insert("gateway.victim.call_us.p99", quantile(&calls, 0.99) / 1e3);
        traced.extend(spans.probe_means());
        if let (Some(a), Some(b)) = (lib_spans0, library_spans()) {
            traced.insert(
                "telemetry.spans_per_op",
                (b - a) as f64 / issued.max(1) as f64,
            );
        }
    }
    drop(gw);
    drop(client);
    drop(cluster);
    WorkOut {
        sim,
        layers,
        traced,
        failures,
        spans_jsonl: if spans.enabled() {
            spans.to_jsonl()
        } else {
            String::new()
        },
    }
}
