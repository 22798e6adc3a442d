//! Load generation: seeded key samplers, the value pattern every write
//! carries, and the closed-loop request loop all workloads share.

use std::cell::Cell;
use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use dpdpu_des::{sleep, spawn, Semaphore};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Zipfian (or uniform, `theta == 0`) key popularity over `0..keys`.
///
/// The rank→key map is a fixed odd-multiplier permutation, so which keys
/// are hot does not depend on the seed: the seed only changes the order
/// and mix of requests, and the per-shard load shape stays the same
/// across seeds.
pub struct KeySampler {
    keys: u64,
    /// Cumulative weights per rank; empty for uniform.
    cum: Vec<f64>,
}

impl KeySampler {
    /// Builds the sampler (O(keys) for zipfian).
    pub fn new(keys: u64, theta: f64) -> Self {
        assert!(keys > 0, "empty key population");
        let mut cum = Vec::new();
        if theta > 0.0 {
            let mut total = 0.0f64;
            for rank in 1..=keys {
                total += 1.0 / (rank as f64).powf(theta);
                cum.push(total);
            }
        }
        KeySampler { keys, cum }
    }

    /// Draws one key.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        let Some(&total) = self.cum.last() else {
            return rng.random_range(0..self.keys);
        };
        let u = rng.random::<u64>() as f64 / u64::MAX as f64 * total;
        let rank = self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1) as u64;
        self.key_of_rank(rank)
    }

    /// The key holding popularity rank `rank` (0 = hottest).
    fn key_of_rank(&self, rank: u64) -> u64 {
        // 0x9E37... is odd, so this is a bijection whenever `keys` is a
        // power of two, and a spread-out map otherwise.
        rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.keys
    }
}

/// The value every write of `key` stores, so any read can be checked.
pub fn value_for(key: u64, len: usize) -> Bytes {
    Bytes::from(vec![key as u8; len])
}

/// True when `value` is exactly what [`value_for`] writes for `key`.
pub fn is_value_for(key: u64, len: usize, value: &[u8]) -> bool {
    value.len() == len && value.iter().all(|&b| b == key as u8)
}

/// A per-stream RNG: `stream` separates tenants or roles, `task` the
/// generator within one.
pub fn rng_for(seed: u64, stream: u64, task: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (stream << 32) ^ task.wrapping_add(1),
    )
}

/// Shape of one closed-loop load source: `tasks` generators, each with
/// at most `window` requests outstanding. A generator launches its next
/// request only when a window slot frees, optionally `gap_ns` after the
/// previous launch, and goes silent for `pause_ns` after every
/// `pause_every` launches (an on/off source).
#[derive(Debug, Clone, Copy)]
pub struct LoopShape {
    /// Concurrent generators.
    pub tasks: usize,
    /// Outstanding requests per generator.
    pub window: usize,
    /// Requests each generator issues.
    pub ops_per_task: u64,
    /// Virtual ns between launches (0 = launch as soon as a slot frees).
    pub gap_ns: u64,
    /// Launches per on-phase (0 = always on).
    pub pause_every: u64,
    /// Off-phase length, virtual ns.
    pub pause_ns: u64,
}

impl LoopShape {
    /// `tasks` generators with `window` slots each, always on, no gap.
    pub fn new(tasks: usize, window: usize, ops_per_task: u64) -> Self {
        LoopShape {
            tasks,
            window,
            ops_per_task,
            gap_ns: 0,
            pause_every: 0,
            pause_ns: 0,
        }
    }

    /// Requests the whole source issues.
    pub fn total_ops(&self) -> u64 {
        self.tasks as u64 * self.ops_per_task
    }
}

/// Runs one closed-loop source to completion. `op(task, rng)` draws one
/// request from the generator's RNG and returns the future that issues
/// it and records its outcome. A generator stops early, before its next
/// launch, once `stop` is set.
pub async fn closed_loop<F, Fut>(
    shape: LoopShape,
    seed: u64,
    stream: u64,
    op: Rc<F>,
    stop: Option<Rc<Cell<bool>>>,
) where
    F: Fn(u64, &mut StdRng) -> Fut + 'static,
    Fut: Future<Output = ()> + 'static,
{
    assert!(
        shape.tasks > 0 && shape.window > 0,
        "degenerate load source"
    );
    let mut generators = Vec::with_capacity(shape.tasks);
    for task in 0..shape.tasks as u64 {
        let (op, stop) = (op.clone(), stop.clone());
        generators.push(spawn(async move {
            // A fixed stagger so generators are not launched in lock
            // step; lock-step starts measure a burst drain, not a steady
            // state.
            sleep((stream * 131 + task) * 7_919).await;
            let mut rng = rng_for(seed, stream, task);
            let window = Semaphore::new(shape.window);
            for i in 0..shape.ops_per_task {
                if stop.as_ref().is_some_and(|s| s.get()) {
                    break;
                }
                if shape.pause_every > 0 && i > 0 && i % shape.pause_every == 0 {
                    sleep(shape.pause_ns).await;
                }
                let permit = window.acquire().await;
                let request = op(task, &mut rng);
                spawn(async move {
                    let _slot = permit;
                    request.await;
                });
                if shape.gap_ns > 0 {
                    sleep(shape.gap_ns).await;
                }
            }
            // Every request holds a window slot until it has resolved,
            // so owning all slots means the generator has drained.
            let mut drained = Vec::with_capacity(shape.window);
            for _ in 0..shape.window {
                drained.push(window.acquire().await);
            }
        }));
    }
    for g in generators {
        g.await;
    }
}
