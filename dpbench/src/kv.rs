//! `kv_read_offload` and `kv_update_replicated`: 16 closed-loop clients
//! (window 4) over a 4-shard `DdsCluster`, zipfian keys, 1 KiB values.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use dpdpu_dds::cluster::{ClusterConfig, DdsCluster};
use dpdpu_dds::kv::INDEX_ENTRY_BYTES;
use dpdpu_dds::server::DdsConfig;
use dpdpu_des::now;
use dpdpu_hw::CpuPool;
use dpdpu_net::fabric::FabricKind;
use dpdpu_net::NetConfig;
use rand::RngExt;

use crate::cluster_stats::{
    cluster_hw, cluster_platforms, hot_shard_share, probe_platforms, PathCounters,
};
use crate::gen::{closed_loop, is_value_for, value_for, KeySampler, LoopShape};
use crate::harness::{library_spans, Marks, SimOut, Tally, WorkOut};
use crate::trace::{quantile, Spans};

/// Key population of every KV workload.
pub const KEYS: u64 = 4_096;
/// Zipf exponent (YCSB default).
pub const THETA: f64 = 0.99;
/// Value size in bytes.
pub const VALUE_BYTES: usize = 1_024;
/// Storage shards.
pub const SHARDS: usize = 4;
/// Closed-loop clients and their windows.
pub const CLIENTS: usize = 16;
/// Outstanding requests per client.
pub const WINDOW: usize = 4;

/// What distinguishes the two KV workloads.
#[derive(Debug, Clone, Copy)]
pub struct KvShape {
    /// Replicas per shard.
    pub replicas: usize,
    /// Shard fabric.
    pub fabric: FabricKind,
    /// Percent of requests that are reads (the rest are updates).
    pub read_pct: u32,
    /// DPU KV-index entries each server may hold.
    pub index_entries: u64,
}

/// The DDS fast path: unreplicated, DPU-issued RDMA, an index that holds
/// every key, 95/5 reads.
pub const READ_OFFLOAD: KvShape = KvShape {
    replicas: 1,
    fabric: FabricKind::RdmaOffload,
    read_pct: 95,
    index_entries: KEYS,
};

/// The write path: 2 replicas, TCP, a per-server index budget of a
/// quarter of the key set, 50/50.
pub const UPDATE_REPLICATED: KvShape = KvShape {
    replicas: 2,
    fabric: FabricKind::Tcp,
    read_pct: 50,
    index_entries: KEYS / 4,
};

/// Runs one repetition of a KV workload with `ops_per_client` requests
/// per client.
pub async fn run(
    shape: KvShape,
    seed: u64,
    ops_per_client: u64,
    marks: Rc<Marks>,
    spans: Rc<Spans>,
) -> WorkOut {
    marks.begin_setup();
    let cluster = DdsCluster::build(ClusterConfig {
        shards: SHARDS,
        replicas: shape.replicas,
        vnodes: 512,
        net: NetConfig::default().with_fabric(shape.fabric),
        dds: DdsConfig {
            kv_index_budget: shape.index_entries * INDEX_ENTRY_BYTES,
            ..DdsConfig::default()
        },
        ..ClusterConfig::default()
    })
    .await;
    let client = cluster.connect(CpuPool::new("bench-clients", 128, 3_000_000_000));
    for key in 0..KEYS {
        if let Err(e) = client.kv_put(key, value_for(key, VALUE_BYTES)).await {
            panic!("preload put of key {key} failed: {e}");
        }
    }
    probe_platforms(&spans, cluster_platforms(&cluster));

    let shape_loop = LoopShape::new(CLIENTS, WINDOW, ops_per_client);
    let tally = Rc::new(Tally::default());
    let shard_counts = Rc::new(RefCell::new(vec![0u64; SHARDS]));
    let writes = Rc::new(Cell::new(0u64));
    let sampler = Rc::new(KeySampler::new(KEYS, THETA));
    let next_req = Rc::new(Cell::new(0u64));
    let hw0 = cluster_hw(&cluster);
    let path0 = PathCounters::read(&cluster, &client);
    let lib_spans0 = library_spans();
    let t0 = now();
    marks.begin_run();
    {
        let (client, tally, spans) = (client.clone(), tally.clone(), spans.clone());
        let (shard_counts, writes) = (shard_counts.clone(), writes.clone());
        let op = Rc::new(move |_task: u64, rng: &mut rand::rngs::StdRng| {
            let key = sampler.sample(rng);
            let read = rng.random_range(0..100u32) < shape.read_pct;
            shard_counts.borrow_mut()[client.shard_for(key)] += 1;
            if !read {
                writes.set(writes.get() + 1);
            }
            let req = next_req.get();
            next_req.set(req + 1);
            let (client, tally, spans) = (client.clone(), tally.clone(), spans.clone());
            async move {
                let t = now();
                if read {
                    let span = spans.open("cluster.kv_get", 0, req);
                    let r = client.kv_get(key).await;
                    spans.close(span);
                    match &r {
                        Ok(Some(v)) if is_value_for(key, VALUE_BYTES, v) => {}
                        Ok(Some(v)) => {
                            tally.wrong(format!("key {key} read {} wrong bytes", v.len()))
                        }
                        Ok(None) => tally.wrong(format!("preloaded key {key} read as missing")),
                        Err(_) => {}
                    }
                    tally.record(&r, now() - t);
                } else {
                    let span = spans.open("cluster.kv_put", 0, req);
                    let r = client.kv_put(key, value_for(key, VALUE_BYTES)).await;
                    spans.close(span);
                    tally.record(&r, now() - t);
                }
            }
        });
        closed_loop(shape_loop, seed, 0, op, None).await;
    }
    marks.end_run();
    let elapsed_ns = now() - t0;
    let hw1 = cluster_hw(&cluster);
    let path1 = PathCounters::read(&cluster, &client);

    let issued = tally.issued.get();
    let mut failures = Vec::new();
    tally.check("kv", shape_loop.total_ops(), &mut failures);
    if path1.shed_delta(&path0) != tally.shed.get() {
        failures.push(format!(
            "kv: cluster shed {} requests but the clients saw {} sheds",
            path1.shed_delta(&path0),
            tally.shed.get()
        ));
    }
    let mut latencies = tally.latencies.take();
    latencies.sort_unstable();
    let sim = SimOut {
        issued,
        ok: tally.ok.get(),
        shed: tally.shed.get(),
        errors: tally.errors.get(),
        scoped_issued: issued,
        scoped_failed: tally.shed.get() + tally.errors.get(),
        latencies,
        elapsed_ns,
        host_cycles: hw1.host_cycles - hw0.host_cycles,
        dpu_cycles: hw1.dpu_cycles - hw0.dpu_cycles,
    };
    let mut layers = BTreeMap::new();
    layers.extend(hw0.layer_metrics(&hw1, elapsed_ns, issued));
    layers.extend(path0.layer_metrics(&path1, issued, writes.get()));
    layers.insert(
        "cluster.hot_shard_share",
        hot_shard_share(&shard_counts.borrow()),
    );

    let mut traced = BTreeMap::new();
    if spans.enabled() {
        let mut calls: Vec<u64> = spans.durations("cluster.kv_get");
        calls.extend(spans.durations("cluster.kv_put"));
        calls.sort_unstable();
        traced.insert("cluster.call_us.p50", quantile(&calls, 0.50) / 1e3);
        traced.insert("cluster.call_us.p99", quantile(&calls, 0.99) / 1e3);
        traced.extend(spans.probe_means());
        if let (Some(a), Some(b)) = (lib_spans0, library_spans()) {
            traced.insert(
                "telemetry.spans_per_op",
                (b - a) as f64 / issued.max(1) as f64,
            );
        }
    }
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
