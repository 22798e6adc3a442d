//! # Conservative parallel time domains
//!
//! Partitions a simulation into independent [`Sim`]s — one *time domain*
//! per shard platform — that run on worker threads and only interact
//! through latency-stamped inter-domain channels. A window synchronizer
//! in the style of YAWNS (Nicol, 1993) moves every domain through the
//! same barrier-separated windows, so the merged event order is a pure
//! function of (topology, seeds): `DomainSet::run(jobs=1)` and
//! `run(jobs=N)` replay byte-identically.
//!
//! ## The window protocol
//!
//! * A message sent at local time `t` arrives stamped `t + latency`; the
//!   smallest link latency `L` is the lookahead.
//! * Before each window, every domain publishes its earliest pending
//!   event: its clock if a task is runnable, otherwise the earliest of
//!   its next timer and its earliest undelivered inbound message. `T` is
//!   the minimum over all domains; `T == Time::MAX` ends the run.
//! * Every domain then runs its events strictly below `T + L`. No event
//!   runs below `T`, so every send is stamped at least `T + L`: the
//!   messages due in a window were all queued before it started, and a
//!   second barrier makes the window's sends visible to the next one.
//! * Deliveries happen at exact event times (`Sim::advance_to`),
//!   messages at `t` go before local timers at `t`, and same-timestamp
//!   deliveries are ordered by global link id.
//! * A panic inside a domain raises a shared abort flag; its worker still
//!   reaches the barrier, so every worker leaves at the same window and
//!   [`DomainSet::run`] resumes the payload on the caller.
//!
//! At every window start, an inbound message stamped at or before the
//! receiver's clock means its sender broke the lookahead (or forged a
//! timestamp): the domain panics with a "lookahead violation".

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

use crate::executor::{now, Sim};
use crate::time::Time;

/// Per-domain lifecycle callbacks, so higher layers (telemetry, the
/// conformance checker) can bind thread-local sessions to a domain
/// without this crate depending on them.
///
/// `enter`/`exit` bracket every slice of domain execution on the worker
/// thread (multiple domains can share one thread, so sessions must swap
/// in and out). `finish` runs once, *entered*, after the domain's `Sim`
/// has been dropped — the place to finalize sessions and export results.
pub trait DomainHooks {
    /// Called before the domain's tasks run on the current thread.
    fn enter(&mut self) {}
    /// Called after the domain's tasks yield the current thread.
    fn exit(&mut self) {}
    /// Called once at teardown, entered, just before the `Sim` drops —
    /// the last chance to read executor-level statistics (final clock,
    /// poll count) out of the live simulation.
    fn before_teardown(&mut self, _sim: &Sim) {}
    /// Called once at teardown, after `enter` and the `Sim` drop.
    fn finish(self: Box<Self>) {}
}

/// Hooks that do nothing — for domains without per-domain sessions.
pub struct NoHooks;

impl DomainHooks for NoHooks {}

/// One direction of an inter-domain channel.
struct LinkShared<T> {
    q: Mutex<VecDeque<(Time, T)>>,
    /// Authorization watermark: the receiving *tasks* may pop entries
    /// with `ts <= auth`; everything above is invisible to them until
    /// the domain driver has advanced the clock to the entry's time.
    auth: AtomicU64,
    waker: Mutex<Option<Waker>>,
    latency: Time,
}

impl<T> LinkShared<T> {
    fn queue(&self) -> MutexGuard<'_, VecDeque<(Time, T)>> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Driver-side view of an inbound link, type-erased over the payload.
trait InPort: Send + Sync {
    /// Earliest timestamp above the authorization watermark, if any.
    /// Full scan on purpose: the queue is sorted only if every sender
    /// honoured the lookahead, which is exactly what we must not assume.
    fn front(&self) -> Option<Time>;
    /// Raises the watermark to `ts`, wakes the receiver, and returns the
    /// new front.
    fn authorize(&self, ts: Time) -> Option<Time>;
}

impl<T: Send> InPort for LinkShared<T> {
    fn front(&self) -> Option<Time> {
        let auth = self.auth.load(Ordering::Acquire);
        self.queue()
            .iter()
            .map(|&(ts, _)| ts)
            .filter(|&ts| ts > auth)
            .min()
    }

    fn authorize(&self, ts: Time) -> Option<Time> {
        self.auth.store(ts, Ordering::Release);
        if let Some(w) = self.waker.lock().unwrap_or_else(|e| e.into_inner()).take() {
            w.wake();
        }
        self.front()
    }
}

/// Sending half of an inter-domain channel. Clonable; sends are
/// immediate and stamped `now() + latency`.
pub struct XSender<T> {
    link: Arc<LinkShared<T>>,
}

impl<T> Clone for XSender<T> {
    fn clone(&self) -> Self {
        XSender {
            link: self.link.clone(),
        }
    }
}

impl<T: Send> XSender<T> {
    /// Sends `value` to the peer domain; it arrives at
    /// `now() + latency`. Must be called from inside a running domain.
    pub fn send(&self, value: T) {
        self.send_with_timestamp(now().saturating_add(self.link.latency), value);
    }

    /// The link's latency — the lookahead this channel contributes.
    pub fn latency(&self) -> Time {
        self.link.latency
    }

    /// Test hook: forge an arrival timestamp, bypassing the latency
    /// stamp. This is how the meta-test plants a lookahead violation and
    /// proves the synchronizer catches it.
    #[doc(hidden)]
    pub fn send_with_timestamp(&self, ts: Time, value: T) {
        self.link.queue().push_back((ts, value));
    }
}

/// Receiving half of an inter-domain channel. Single consumer.
pub struct XReceiver<T> {
    link: Arc<LinkShared<T>>,
}

impl<T: Send> XReceiver<T> {
    /// Waits for the next authorized message. There is no close
    /// signal: a receiver whose senders went quiet simply stays parked
    /// and is dropped at teardown, exactly like a task awaiting a timer
    /// that never fires in a serial [`Sim`]. (A wall-clock-timed close
    /// edge would be observable — and nondeterministic.)
    pub fn recv(&mut self) -> Recv<'_, T> {
        Recv { link: &self.link }
    }
}

/// Future returned by [`XReceiver::recv`].
pub struct Recv<'a, T> {
    link: &'a LinkShared<T>,
}

impl<T: Send> std::future::Future for Recv<'_, T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        // No lost-wakeup race here: `authorize` runs on this same thread
        // (the domain driver), never concurrently with a poll.
        let auth = self.link.auth.load(Ordering::Acquire);
        let mut q = self.link.queue();
        if let Some(pos) = q.iter().position(|&(ts, _)| ts <= auth) {
            let (_, value) = q.remove(pos).expect("position came from this queue");
            return Poll::Ready(value);
        }
        drop(q);
        *self.link.waker.lock().unwrap_or_else(|e| e.into_inner()) = Some(cx.waker().clone());
        Poll::Pending
    }
}

struct InLink {
    /// Global creation-order id — the deterministic tie-break for
    /// same-timestamp deliveries across links.
    id: usize,
    from: usize,
    port: Arc<dyn InPort>,
    /// Earliest undelivered timestamp: scanned at window start and
    /// refreshed by every delivery.
    front: Option<Time>,
}

type DomainSetup = Box<dyn FnOnce() -> (Sim, Box<dyn DomainHooks>) + Send>;

struct DomainSlot {
    name: String,
    setup: Option<DomainSetup>,
    in_links: Vec<InLink>,
}

/// What [`DomainSet::run`] reports.
#[derive(Debug)]
pub struct DomainRun {
    /// Each domain's final virtual time, in domain order.
    pub finals: Vec<Time>,
    /// Synchronization windows executed. The window sequence is a pure
    /// function of simulation state, so this is identical at every job
    /// count.
    pub windows: u64,
}

/// A set of time domains plus the links between them. Build the
/// topology first (`add_domain`, `link`), install each domain's root
/// (`set_root` — the closure runs *on the worker thread* so thread-local
/// sessions it installs belong to the domain), then [`DomainSet::run`].
#[derive(Default)]
pub struct DomainSet {
    domains: Vec<DomainSlot>,
    links: usize,
    /// Smallest link latency: how far past the earliest pending event a
    /// window may run. `None` until the first link.
    lookahead: Option<Time>,
}

impl DomainSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a domain and returns its index.
    pub fn add_domain(&mut self, name: impl Into<String>) -> usize {
        self.domains.push(DomainSlot {
            name: name.into(),
            setup: None,
            in_links: Vec::new(),
        });
        self.domains.len() - 1
    }

    /// Creates a directed channel `from → to` with the given latency.
    /// The latency must be positive: it *is* the conservative lookahead,
    /// and a zero-latency link would force the domains into lockstep.
    pub fn link<T: Send + 'static>(
        &mut self,
        from: usize,
        to: usize,
        latency: Time,
    ) -> (XSender<T>, XReceiver<T>) {
        assert!(
            latency > 0,
            "cross-domain links need a positive latency: it is the conservative lookahead"
        );
        assert!(from < self.domains.len(), "unknown source domain {from}");
        assert!(to < self.domains.len(), "unknown target domain {to}");
        assert_ne!(from, to, "links connect distinct domains");
        let link = Arc::new(LinkShared::<T> {
            q: Mutex::new(VecDeque::new()),
            auth: AtomicU64::new(0),
            waker: Mutex::new(None),
            latency,
        });
        self.domains[to].in_links.push(InLink {
            id: self.links,
            from,
            port: link.clone(),
            front: None,
        });
        self.links += 1;
        self.lookahead = Some(self.lookahead.map_or(latency, |l| l.min(latency)));
        (XSender { link: link.clone() }, XReceiver { link })
    }

    /// Installs the domain's root. The closure runs on the worker thread
    /// that hosts the domain; it must create the [`Sim`] (spawning the
    /// root tasks) and may install thread-local sessions first so the
    /// `Sim`'s epoch lands inside them. The hooks re-enter/exit those
    /// sessions around every execution slice.
    pub fn set_root(
        &mut self,
        domain: usize,
        setup: impl FnOnce() -> (Sim, Box<dyn DomainHooks>) + Send + 'static,
    ) {
        self.domains[domain].setup = Some(Box::new(setup));
    }

    /// Runs every domain to completion on `jobs` worker threads
    /// (clamped to the domain count; `jobs = 1` is the serial
    /// reference) and returns each domain's final virtual time plus the
    /// window count. Domains are assigned round-robin, and even
    /// `jobs = 1` uses a worker thread, so thread-local state behaves
    /// identically at every job count. Panics inside a domain (including
    /// lookahead violations) are resumed on the caller.
    pub fn run(self, jobs: usize) -> DomainRun {
        let n = self.domains.len();
        let threads = jobs.clamp(1, n.max(1));
        let mut buckets: Vec<Vec<(usize, DomainSlot)>> = (0..threads).map(|_| Vec::new()).collect();
        for (idx, mut slot) in self.domains.into_iter().enumerate() {
            // Deterministic same-timestamp merge order needs the links
            // scanned in global-id order.
            slot.in_links.sort_by_key(|l| l.id);
            buckets[idx % threads].push((idx, slot));
        }
        let shared = Shared {
            barrier: WindowBarrier {
                threads,
                arrived: AtomicUsize::new(0),
                round: AtomicU64::new(0),
            },
            earliest: (0..threads).map(|_| AtomicU64::new(Time::MAX)).collect(),
            abort: AtomicBool::new(false),
            lookahead: self.lookahead.unwrap_or(Time::MAX),
        };
        // A worker that caught a domain's panic resumes it once every
        // worker has left the window loop; `join` hands the payload back.
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .enumerate()
                .map(|(w, bucket)| {
                    let shared = &shared;
                    scope.spawn(move || worker(w, bucket, shared))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut run = DomainRun {
            finals: vec![0; n],
            windows: 0,
        };
        for r in results {
            let (windows, finals) = r.unwrap_or_else(|payload| resume_unwind(payload));
            run.windows = windows;
            for (idx, t) in finals {
                run.finals[idx] = t;
            }
        }
        run
    }
}

/// State every worker thread shares. `earliest` and `abort` are accessed
/// `Relaxed`: each write is ordered before each read by the barrier
/// between them (the `AcqRel` chain on `arrived`, then `round`'s
/// `Release` store and `Acquire` load).
struct Shared {
    barrier: WindowBarrier,
    /// Each worker's earliest pending event for the coming window.
    earliest: Vec<AtomicU64>,
    /// Raised by a worker whose domain panicked; every worker leaves at
    /// the next window start.
    abort: AtomicBool,
    lookahead: Time,
}

/// A counting barrier with a round number. Windows are often only a few
/// microseconds of work per domain, so parking in the kernel at every
/// barrier would cost more than the window itself. Waiters yield instead
/// of spinning, so a worker that still has work gets the core even when
/// there are more workers than cores.
struct WindowBarrier {
    threads: usize,
    arrived: AtomicUsize,
    round: AtomicU64,
}

impl WindowBarrier {
    /// Blocks until every worker has called `wait` for this round. All
    /// writes made before any worker's call are visible after every
    /// worker's return.
    fn wait(&self) {
        let round = self.round.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            self.arrived.store(0, Ordering::Relaxed);
            self.round.store(round.wrapping_add(1), Ordering::Release);
            return;
        }
        while self.round.load(Ordering::Acquire) == round {
            std::thread::yield_now();
        }
    }
}

/// One domain resident on a worker thread.
struct DomainRt {
    idx: usize,
    name: String,
    sim: Sim,
    hooks: Box<dyn DomainHooks>,
    in_links: Vec<InLink>,
    /// Earliest pending event as of the last window start.
    next: Time,
}

impl DomainRt {
    /// Scans every inbound link, checks the lookahead, and records and
    /// returns the domain's earliest pending event.
    fn earliest_event(&mut self) -> Time {
        let now = self.sim.now();
        let mut earliest = self.sim.next_timer_deadline().unwrap_or(Time::MAX);
        for l in &mut self.in_links {
            l.front = l.port.front();
            if let Some(f) = l.front {
                assert!(
                    f > now,
                    "lookahead violation: domain '{}' holds an inbound event stamped t={f} \
                     on link {} from domain {} with its clock already at t={now} — the sender \
                     broke the lookahead (forged timestamp or zero-lookahead path)",
                    self.name,
                    l.id,
                    l.from,
                );
                earliest = earliest.min(f);
            }
        }
        self.next = if self.sim.has_runnable() {
            now
        } else {
            earliest
        };
        self.next
    }
}

/// Runs one worker's domains through every window, then tears them down.
/// Returns the window count and each hosted domain's final clock.
fn worker(
    w: usize,
    bucket: Vec<(usize, DomainSlot)>,
    shared: &Shared,
) -> (u64, Vec<(usize, Time)>) {
    let mut rts = Vec::with_capacity(bucket.len());
    let mut failure: Option<Box<dyn Any + Send>> = catch_unwind(AssertUnwindSafe(|| {
        for (idx, slot) in bucket {
            let setup = slot
                .setup
                .expect("every domain needs a root: call set_root");
            let (sim, mut hooks) = setup();
            hooks.exit();
            rts.push(DomainRt {
                idx,
                name: slot.name,
                sim,
                hooks,
                in_links: slot.in_links,
                next: 0,
            });
        }
    }))
    .err();

    let mut windows = 0;
    loop {
        // A worker that caught a panic keeps meeting the barriers and
        // raises the abort flag here. The flag is written only between
        // the window-end and window-start barriers and read only after
        // the latter, so every worker leaves at the same window.
        let mut earliest = Time::MAX;
        if failure.is_none() {
            match catch_unwind(AssertUnwindSafe(|| {
                rts.iter_mut().map(DomainRt::earliest_event).min()
            })) {
                Ok(e) => earliest = e.unwrap_or(Time::MAX),
                Err(payload) => failure = Some(payload),
            }
        }
        if failure.is_some() {
            shared.abort.store(true, Ordering::Relaxed);
        }
        shared.earliest[w].store(earliest, Ordering::Relaxed);
        shared.barrier.wait();
        if shared.abort.load(Ordering::Relaxed) {
            break;
        }
        let earliest = shared.earliest.iter().map(|e| e.load(Ordering::Relaxed));
        let t = earliest.min().unwrap_or(Time::MAX);
        if t == Time::MAX {
            break;
        }
        windows += 1;
        let horizon = t.saturating_add(shared.lookahead);
        // A domain with nothing below the horizon sits the window out:
        // its segment would run nothing, so skipping it changes nothing.
        for rt in rts.iter_mut().filter(|rt| rt.next < horizon) {
            rt.hooks.enter();
            let ran = catch_unwind(AssertUnwindSafe(|| {
                segment(&mut rt.sim, &mut rt.in_links, horizon)
            }));
            rt.hooks.exit();
            if let Err(payload) = ran {
                failure = Some(payload);
                break;
            }
        }
        shared.barrier.wait();
    }

    if let Some(payload) = failure {
        resume_unwind(payload);
    }
    if shared.abort.load(Ordering::Relaxed) {
        // Another worker failed: the run is over, and its domains are
        // dropped without finishing their hooks.
        return (windows, Vec::new());
    }
    let mut finals = Vec::with_capacity(rts.len());
    for mut rt in rts {
        finals.push((rt.idx, rt.sim.now()));
        // Teardown runs entered: dropping the `Sim` drops parked tasks,
        // whose destructors may emit probe events that must land in the
        // domain's own session.
        rt.hooks.enter();
        rt.hooks.before_teardown(&rt.sim);
        drop(rt.sim);
        rt.hooks.finish();
    }
    (windows, finals)
}

/// Runs one domain's events strictly below `horizon`, in timestamp
/// order, with messages-before-timers at equal times. The clock only
/// ever lands on *actual* event times (`run_until` to a real timer
/// deadline, `advance_to` to a real message timestamp) — never on the
/// horizon — so the probe stream cannot pick up values that depend on
/// how the run was cut into windows.
fn segment(sim: &mut Sim, in_links: &mut [InLink], horizon: Time) {
    loop {
        // Quiesce at the current instant first: deliveries and timer
        // fires below may have woken tasks that send or sleep again.
        let t = sim.now();
        sim.run_until(t);
        let next_msg = in_links
            .iter()
            .filter_map(|l| l.front)
            .min()
            .filter(|&f| f < horizon);
        let next_timer = sim.next_timer_deadline().filter(|&d| d < horizon);
        match (next_msg, next_timer) {
            (Some(m), d) if d.is_none_or(|d| m <= d) => {
                sim.advance_to(m);
                for l in in_links.iter_mut().filter(|l| l.front == Some(m)) {
                    l.front = l.port.authorize(m);
                }
            }
            (_, Some(d)) => {
                sim.run_until(d);
            }
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{sleep, sleep_until};
    use std::fmt::Write as _;

    type Log = Arc<Mutex<String>>;

    fn log(slot: &Log, line: std::fmt::Arguments<'_>) {
        let mut s = slot.lock().unwrap();
        s.write_fmt(line).unwrap();
        s.push('\n');
    }

    /// Two domains ping-pong a counter; returns (logs, final times,
    /// window count).
    fn ping_pong(jobs: usize) -> (Vec<String>, Vec<Time>, u64) {
        let logs: Vec<Log> = (0..2)
            .map(|_| Arc::new(Mutex::new(String::new())))
            .collect();
        let mut set = DomainSet::new();
        let a = set.add_domain("a");
        let b = set.add_domain("b");
        let (ab_tx, mut ab_rx) = set.link::<u64>(a, b, 1_000);
        let (ba_tx, mut ba_rx) = set.link::<u64>(b, a, 500);
        let la = logs[0].clone();
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                for i in 0..5u64 {
                    ab_tx.send(i);
                    let echo = ba_rx.recv().await;
                    log(&la, format_args!("a t={} echo={echo}", now()));
                }
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let lb = logs[1].clone();
        set.set_root(b, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                loop {
                    let v = ab_rx.recv().await;
                    log(&lb, format_args!("b t={} got={v}", now()));
                    ba_tx.send(v * 10);
                }
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let run = set.run(jobs);
        let out = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
        (out, run.finals, run.windows)
    }

    #[test]
    fn ping_pong_timing_and_values() {
        let (logs, finals, _) = ping_pong(2);
        // A sends at 0, B receives at 1000, echo arrives at 1500; each
        // round trip costs 1500 ns of virtual time.
        assert_eq!(
            logs[0],
            "a t=1500 echo=0\na t=3000 echo=10\na t=4500 echo=20\n\
             a t=6000 echo=30\na t=7500 echo=40\n"
        );
        assert_eq!(
            logs[1],
            "b t=1000 got=0\nb t=2500 got=1\nb t=4000 got=2\n\
             b t=5500 got=3\nb t=7000 got=4\n"
        );
        assert_eq!(finals, vec![7_500, 7_000]);
    }

    #[test]
    fn parallel_replays_serial_byte_identically() {
        let serial = ping_pong(1);
        for jobs in [2, 4] {
            let par = ping_pong(jobs);
            assert_eq!(par.2, serial.2, "jobs={jobs}: window count diverged");
            assert_eq!(par, serial, "jobs={jobs} diverged from serial");
        }
    }

    /// A three-domain ring relaying a token with per-hop sleeps; checks
    /// the merged behaviour is identical at every thread count. Returns
    /// the logs and the window count.
    fn ring(jobs: usize) -> (Vec<String>, u64) {
        let n = 3;
        let logs: Vec<Log> = (0..n)
            .map(|_| Arc::new(Mutex::new(String::new())))
            .collect();
        let mut set = DomainSet::new();
        let ids: Vec<usize> = (0..n).map(|d| set.add_domain(format!("r{d}"))).collect();
        let mut txs = Vec::new();
        let mut rxs = Vec::new();
        for d in 0..n {
            let (tx, rx) = set.link::<u64>(ids[d], ids[(d + 1) % n], 700 + d as Time * 13);
            txs.push(tx);
            rxs.push(rx);
        }
        for (d, mut rx) in rxs.into_iter().enumerate() {
            // rx here is the link *into* domain d+1.
            let to = (d + 1) % n;
            let tx = txs[to].clone();
            let l = logs[to].clone();
            set.set_root(ids[to], move || {
                let sim = Sim::new();
                sim.spawn(async move {
                    if to == 0 {
                        // Domain 0 starts the token.
                        tx.send(1);
                    }
                    loop {
                        let v = rx.recv().await;
                        log(&l, format_args!("d{to} t={} v={v}", now()));
                        if v >= 40 {
                            break;
                        }
                        sleep(100 + v * 3).await;
                        tx.send(v + 1);
                    }
                });
                (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
            });
        }
        let windows = set.run(jobs).windows;
        let logs = logs.iter().map(|l| l.lock().unwrap().clone()).collect();
        (logs, windows)
    }

    #[test]
    fn ring_is_thread_count_invariant() {
        let (serial, windows) = ring(1);
        assert!(serial[0].lines().count() > 10, "ring should actually relay");
        for jobs in [2, 3] {
            let (logs, w) = ring(jobs);
            assert_eq!(logs, serial, "jobs={jobs} diverged from serial");
            assert_eq!(w, windows, "jobs={jobs}: window count diverged");
        }
    }

    #[test]
    fn parked_receivers_terminate() {
        // Both domains only wait on each other: nothing can ever happen,
        // and the set must detect that instead of deadlocking — the
        // parallel analogue of Sim::run returning with parked tasks.
        let mut set = DomainSet::new();
        let a = set.add_domain("a");
        let b = set.add_domain("b");
        let (_tx_ab, mut rx_ab) = set.link::<u8>(a, b, 100);
        let (_tx_ba, mut rx_ba) = set.link::<u8>(b, a, 100);
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                let _ = rx_ba.recv().await;
                unreachable!("nobody sends to a");
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        set.set_root(b, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                let _ = rx_ab.recv().await;
                unreachable!("nobody sends to b");
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let run = set.run(2);
        assert_eq!(run.finals, vec![0, 0]);
        // One window runs both roots to their parked receivers; the next
        // finds nothing pending anywhere and ends the run.
        assert_eq!(run.windows, 1);
    }

    #[test]
    fn idle_ring_jumps_a_far_future_timer() {
        // One domain sleeps 10 ms before sending; two others form an
        // idle cycle with 100 ns lookahead. The next window must start
        // at the timer itself instead of stepping 100k windows of one
        // lookahead each.
        let mut set = DomainSet::new();
        let a = set.add_domain("a");
        let b = set.add_domain("b");
        let c = set.add_domain("c");
        let (ab_tx, mut ab_rx) = set.link::<u64>(a, b, 100);
        let (bc_tx, mut bc_rx) = set.link::<u64>(b, c, 100);
        let (_cb_tx, mut cb_rx) = set.link::<u64>(c, b, 100);
        let got = Arc::new(Mutex::new(Vec::new()));
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                sleep_until(10 * crate::time::MILLIS).await;
                ab_tx.send(7);
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let got_b = got.clone();
        set.set_root(b, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                let v = ab_rx.recv().await;
                got_b.lock().unwrap().push((now(), v));
                bc_tx.send(v + 1);
            });
            sim.spawn(async move {
                let _ = cb_rx.recv().await;
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let got_c = got.clone();
        set.set_root(c, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                let v = bc_rx.recv().await;
                got_c.lock().unwrap().push((now(), v));
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        let run = set.run(3);
        // The jump takes 3 windows: the roots at t=0, the 10 ms timer
        // itself, and the delivery of its message at b. The relay hop
        // to c is the 4th.
        assert_eq!(run.windows, 4);
        assert_eq!(
            *got.lock().unwrap(),
            vec![
                (10 * crate::time::MILLIS + 100, 7),
                (10 * crate::time::MILLIS + 200, 8)
            ]
        );
    }

    fn violation_run(jobs: usize) {
        let mut set = DomainSet::new();
        let a = set.add_domain("forger");
        let b = set.add_domain("victim");
        let (tx, mut rx) = set.link::<u64>(a, b, 100_000);
        // Reverse link with a tiny lookahead: windows are at most 100 ns
        // wide, so the victim's clock is within one window of the
        // forger's 1 ms timer when the forged stamp lands — far beyond
        // it, regardless of thread scheduling.
        let (_back_tx, _back_rx) = set.link::<u64>(b, a, 100);
        set.set_root(a, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                sleep(1_000_000).await;
                // Forged: stamped far in the victim's past.
                tx.send_with_timestamp(10, 7);
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        set.set_root(b, move || {
            let sim = Sim::new();
            sim.spawn(async move {
                // Keep the victim's clock moving so the forged stamp is
                // unambiguously in its past when it lands.
                for _ in 0..40 {
                    sleep(50_000).await;
                }
                let _ = rx.recv().await;
            });
            (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
        });
        set.run(jobs);
    }

    #[test]
    fn forged_timestamp_is_caught() {
        for jobs in [1, 2] {
            let err = catch_unwind(AssertUnwindSafe(|| violation_run(jobs)))
                .expect_err("a forged timestamp must not pass silently");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("lookahead violation"),
                "jobs={jobs}: wrong panic: {msg}"
            );
        }
    }

    /// Three domains on a ring of 100 ns links whose tasks step their
    /// clocks forever, so the run only ends if the abort path works.
    /// Domain `b` panics: in its task at t=1000, or in its root closure
    /// before it builds a `Sim`.
    fn aborted_run(jobs: usize, in_task: bool) -> String {
        let mut set = DomainSet::new();
        let ids: Vec<usize> = ["a", "b", "c"].map(|n| set.add_domain(n)).to_vec();
        for d in 0..3 {
            let _ = set.link::<u8>(ids[d], ids[(d + 1) % 3], 100);
        }
        for d in ids {
            set.set_root(d, move || {
                if d == 1 && !in_task {
                    panic!("root boom in b");
                }
                let sim = Sim::new();
                sim.spawn(async move {
                    loop {
                        sleep(50).await;
                        if d == 1 && now() >= 1_000 {
                            panic!("task boom in b");
                        }
                    }
                });
                (sim, Box::new(NoHooks) as Box<dyn DomainHooks>)
            });
        }
        let err = catch_unwind(AssertUnwindSafe(|| set.run(jobs)))
            .expect_err("a panicking domain must fail the run");
        err.downcast_ref::<&str>()
            .expect("the payload is resumed as it was raised")
            .to_string()
    }

    #[test]
    fn task_panic_aborts_every_worker() {
        for jobs in [1, 2, 3] {
            assert_eq!(aborted_run(jobs, true), "task boom in b", "jobs={jobs}");
        }
    }

    #[test]
    fn root_panic_aborts_every_worker() {
        for jobs in [1, 2, 3] {
            assert_eq!(aborted_run(jobs, false), "root boom in b", "jobs={jobs}");
        }
    }

    #[test]
    fn advance_to_rejects_jumping_a_timer() {
        let mut sim = Sim::new();
        sim.spawn(async {
            sleep(500).await;
        });
        sim.run_until(0);
        assert_eq!(sim.next_timer_deadline(), Some(500));
        let err = catch_unwind(AssertUnwindSafe(|| sim.advance_to(600)));
        assert!(
            err.is_err(),
            "advance_to must not jump over a pending timer"
        );
    }
}
