//! `sproc_compress`: the Figure 6 sproc on a BlueField-2 runtime. Four
//! closed-loop clients, each on its own offloaded-TCP stream, invoke a
//! registered sproc that reads 16 random 8 KiB pages of a 4 MiB text
//! file through the file service, compresses each with scheduled
//! placement, and streams the results back; the client checks that
//! every page decompresses to its source bytes.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use dpdpu_compute::{KernelInput, KernelOp, Placement};
use dpdpu_core::{DpdpuBuilder, DpdpuError};
use dpdpu_des::{now, spawn};
use dpdpu_hw::{CpuPool, LinkConfig};
use dpdpu_net::tcp::{TcpConnector, TcpReceiver, TcpSender, TcpSide};
use rand::RngExt;

use crate::cluster_stats::{probe_platforms, HwCounters};
use crate::gen::{closed_loop, LoopShape};
use crate::harness::{library_spans, Marks, SimOut, Tally, WorkOut};
use crate::trace::{quantile, SpanId, Spans};

/// Page size of the file.
pub const PAGE: u64 = 8_192;
/// Pages in the file (4 MiB).
pub const PAGES: u64 = 512;
/// Pages each request reads and compresses.
pub const PAGES_PER_REQ: usize = 16;
/// Closed-loop clients, one request outstanding each.
pub const CLIENTS: usize = 4;

const SPROC: &str = "read_compress_send";

/// The file's contents for `seed`.
pub fn corpus(seed: u64) -> Vec<u8> {
    dpdpu_kernels::text::natural_text((PAGES * PAGE) as usize, seed)
}

/// A request: which client stream to answer on, the caller's span and
/// request id (so the sproc's spans get explicit parents), and pages.
fn encode_request(client: u64, parent: SpanId, req: u64, pages: &[u64]) -> Bytes {
    let mut b = Vec::with_capacity(24 + 8 * pages.len());
    b.extend_from_slice(&client.to_le_bytes());
    b.extend_from_slice(&u64::from(parent).to_le_bytes());
    b.extend_from_slice(&req.to_le_bytes());
    for p in pages {
        b.extend_from_slice(&p.to_le_bytes());
    }
    Bytes::from(b)
}

fn words(b: &[u8]) -> impl Iterator<Item = u64> + '_ {
    b.chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")))
}

/// The sproc body (Figure 6): per page, read → compress → send, pages
/// pipelined with no barrier between stages. Each message is the page
/// id followed by its compressed bytes (empty when a stage failed).
/// Returns the number of failed pages.
async fn read_compress_send(
    rt: Rc<dpdpu_core::Dpdpu>,
    arg: Bytes,
    file: dpdpu_storage::FileId,
    streams: Rc<Vec<TcpSender>>,
    spans: Rc<Spans>,
) -> Bytes {
    let mut w = words(&arg);
    let client = w.next().expect("client") as usize;
    let parent = w.next().expect("parent") as SpanId;
    let req = w.next().expect("req");
    let pages: Vec<u64> = w.collect();
    let mut handles = Vec::with_capacity(pages.len());
    for page in pages {
        let (rt, spans, tx) = (rt.clone(), spans.clone(), streams[client].clone());
        handles.push(spawn(async move {
            let span = spans.open("storage.read", parent, req);
            let data = rt.storage.read(file, page * PAGE, PAGE).await;
            spans.close(span);
            let compressed = match data {
                Ok(data) => {
                    let span = spans.open("compute.run", parent, req);
                    let out = rt
                        .compute
                        .run(
                            &KernelOp::Compress,
                            &KernelInput::Bytes(Bytes::from(data)),
                            Placement::Scheduled,
                        )
                        .await;
                    spans.close(span);
                    out.ok().map(|o| o.into_bytes())
                }
                Err(_) => None,
            };
            let failed = compressed.is_none();
            let mut msg = page.to_le_bytes().to_vec();
            msg.extend_from_slice(&compressed.unwrap_or_default());
            let span = spans.open("net.send", parent, req);
            tx.send(Bytes::from(msg));
            spans.close(span);
            failed
        }));
    }
    let mut failed = 0u64;
    for h in handles {
        failed += u64::from(h.await);
    }
    Bytes::from(failed.to_le_bytes().to_vec())
}

/// Runs one repetition with `reqs_per_client` requests per client.
pub async fn run(seed: u64, reqs_per_client: u64, marks: Rc<Marks>, spans: Rc<Spans>) -> WorkOut {
    marks.begin_setup();
    // The benchmark's own session decides whether the run is checked;
    // boot would otherwise install one behind the checker-off pass.
    let outer_check = dpdpu_check::CheckSession::current().is_some();
    let rt = DpdpuBuilder::new().bluefield2().boot();
    if !outer_check {
        dpdpu_check::CheckSession::uninstall();
    }
    let source = Rc::new(corpus(seed));
    let file = rt.storage.create("pages.db").await.expect("create file");
    rt.storage.write(file, 0, &source).await.expect("seed file");
    let client_cpu = CpuPool::new("bench-clients", 8, 3_000_000_000);
    let p = &rt.platform;
    let (txs, rxs): (Vec<TcpSender>, Vec<TcpReceiver>) = TcpConnector::new(LinkConfig::rack_100g())
        .streams(
            TcpSide::offloaded(
                p.host_cpu.clone(),
                p.dpu_cpu.clone(),
                p.host_dpu_pcie.clone(),
            ),
            TcpSide::host(client_cpu),
            CLIENTS,
        )
        .into_iter()
        .unzip();
    let stats: Vec<_> = txs.iter().map(|t| t.stats.clone()).collect();
    let streams = Rc::new(txs);
    {
        let (streams, spans) = (streams.clone(), spans.clone());
        rt.register_sproc(SPROC, move |rt, arg| {
            read_compress_send(rt, arg, file, streams.clone(), spans.clone())
        })
        .expect("register sproc");
    }
    drop(streams);
    probe_platforms(&spans, vec![rt.platform.clone()]);

    let rxs: Rc<Vec<RefCell<Option<TcpReceiver>>>> =
        Rc::new(rxs.into_iter().map(|r| RefCell::new(Some(r))).collect());
    let tally = Rc::new(Tally::default());
    let received: Rc<RefCell<Vec<(u64, Bytes)>>> = Rc::new(RefCell::new(Vec::new()));
    let next_req = Rc::new(Cell::new(0u64));
    let shape = LoopShape::new(CLIENTS, 1, reqs_per_client);
    let hw0 = HwCounters::of(&rt.platform);
    let jobs0 = (
        rt.compute.asic_jobs.get(),
        rt.compute.dpu_jobs.get(),
        rt.compute.host_jobs.get(),
    );
    let tcp = |s: &[Rc<dpdpu_net::tcp::TcpStats>]| {
        s.iter().fold((0, 0, 0), |a, s| {
            (
                a.0 + s.segments_sent.get(),
                a.1 + s.retransmits.get(),
                a.2 + s.rto_fires.get(),
            )
        })
    };
    let tcp0 = tcp(&stats);
    let lib_spans0 = library_spans();
    let t0 = now();
    marks.begin_run();
    {
        let (rt, rxs, tally, received, spans) = (
            rt.clone(),
            rxs.clone(),
            tally.clone(),
            received.clone(),
            spans.clone(),
        );
        let op = Rc::new(move |client: u64, rng: &mut rand::rngs::StdRng| {
            let pages: Vec<u64> = (0..PAGES_PER_REQ)
                .map(|_| rng.random_range(0..PAGES))
                .collect();
            let req = next_req.get();
            next_req.set(req + 1);
            let (rt, rxs, tally, received, spans) = (
                rt.clone(),
                rxs.clone(),
                tally.clone(),
                received.clone(),
                spans.clone(),
            );
            async move {
                let start = now();
                let root = spans.open("client.request", 0, req);
                let span = spans.open("sproc.invoke", root, req);
                let arg = encode_request(client, span, req, &pages);
                let r = rt.invoke_sproc(SPROC, arg).await;
                spans.close(span);
                let r = r.and_then(|b| match words(&b).next() {
                    Some(0) => Ok(()),
                    _ => Err(DpdpuError::Unavailable("sproc stage failed")),
                });
                // The sproc sends every page, failed or not, so the
                // client always drains exactly its request's pages.
                let mut rx = rxs[client as usize].take().expect("one request per client");
                let span = spans.open("client.recv", root, req);
                for _ in 0..PAGES_PER_REQ {
                    let msg = rx.recv().await.expect("stream open while requests run");
                    let page = words(&msg[..8]).next().expect("page id");
                    received.borrow_mut().push((page, msg.slice(8..)));
                }
                spans.close(span);
                rxs[client as usize].replace(Some(rx));
                spans.close(root);
                tally.record(&r, now() - start);
            }
        });
        closed_loop(shape, seed, 0, op, None).await;
    }
    marks.end_run();
    let elapsed_ns = now() - t0;
    let hw1 = HwCounters::of(&rt.platform);
    let tcp1 = tcp(&stats);
    let jobs = (
        rt.compute.asic_jobs.get() - jobs0.0,
        rt.compute.dpu_jobs.get() - jobs0.1,
        rt.compute.host_jobs.get() - jobs0.2,
    );

    let mut failures = Vec::new();
    tally.check("sproc", shape.total_ops(), &mut failures);
    for (page, compressed) in received.borrow().iter() {
        let src = &source[(page * PAGE) as usize..((page + 1) * PAGE) as usize];
        match dpdpu_kernels::deflate::decompress(compressed) {
            Ok(d) if d == src => {}
            _ => {
                failures.push(format!(
                    "sproc: page {page} does not decompress to its source"
                ));
                break;
            }
        }
    }
    let issued = tally.issued.get();
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
    let ops = issued.max(1) as f64;
    let all_jobs = (jobs.0 + jobs.1 + jobs.2).max(1) as f64;
    let mut layers = BTreeMap::new();
    layers.extend(hw0.layer_metrics(&hw1, elapsed_ns, issued));
    layers.insert("compute.asic_frac", jobs.0 as f64 / all_jobs);
    layers.insert("compute.host_frac", jobs.2 as f64 / all_jobs);
    layers.insert("net.tcp.segments_per_op", (tcp1.0 - tcp0.0) as f64 / ops);
    layers.insert("net.tcp.retransmits", (tcp1.1 - tcp0.1) as f64);
    layers.insert("net.tcp.rto_fires", (tcp1.2 - tcp0.2) as f64);

    let mut traced = BTreeMap::new();
    if spans.enabled() {
        let sorted = |name: &str| {
            let mut d = spans.durations(name);
            d.sort_unstable();
            d
        };
        let (inv, rd, ce) = (
            sorted("sproc.invoke"),
            sorted("storage.read"),
            sorted("compute.run"),
        );
        traced.insert("sproc.invoke_us.p50", quantile(&inv, 0.50) / 1e3);
        let mut own: Vec<u64> = spans
            .self_times()
            .into_iter()
            .filter(|(name, _)| *name == "sproc.invoke")
            .map(|(_, t)| t)
            .collect();
        own.sort_unstable();
        traced.insert("sproc.invoke_self_us.p50", quantile(&own, 0.50) / 1e3);
        traced.insert("storage.read_us.p50", quantile(&rd, 0.50) / 1e3);
        traced.insert("storage.read_us.p99", quantile(&rd, 0.99) / 1e3);
        traced.insert("compute.run_us.p50", quantile(&ce, 0.50) / 1e3);
        traced.insert("compute.run_us.p99", quantile(&ce, 0.99) / 1e3);
        traced.extend(spans.probe_means());
        if let (Some(a), Some(b)) = (lib_spans0, library_spans()) {
            traced.insert("telemetry.spans_per_op", (b - a) as f64 / ops);
        }
    }
    drop(rxs);
    drop(rt);
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

/// Host-time throughput of the DEFLATE kernel called directly on the
/// file's pages, outside any timed end-to-end phase: compress MB/s,
/// decompress MB/s and the compression ratio (input / output bytes).
pub fn deflate_direct(seed: u64) -> Result<[f64; 3], String> {
    let source = corpus(seed);
    let pages: Vec<&[u8]> = source.chunks(PAGE as usize).collect();
    let t = Instant::now();
    let compressed: Vec<Vec<u8>> = pages
        .iter()
        .map(|p| dpdpu_kernels::deflate::compress(std::hint::black_box(p)))
        .collect();
    let compress_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (c, p) in compressed.iter().zip(&pages) {
        let d = dpdpu_kernels::deflate::decompress(std::hint::black_box(c))
            .map_err(|e| format!("direct decompress failed: {e:?}"))?;
        if d != *p {
            return Err("direct DEFLATE round trip changed a page".into());
        }
    }
    let decompress_s = t.elapsed().as_secs_f64();
    let mb = source.len() as f64 / 1e6;
    let out: usize = compressed.iter().map(Vec::len).sum();
    Ok([
        mb / compress_s,
        mb / decompress_s,
        source.len() as f64 / out as f64,
    ])
}
