//! Deterministic fault-injection for in-process shard fleets.
//!
//! A [`FaultPlan`] is a **pure function of its seed**: a schedule of
//! kill / restart / compact events against a fleet of `shards`, placed
//! at workload steps by a seeded RNG so the same seed always produces
//! the byte-identical schedule ([`FaultPlan::encode`] is the proof
//! artifact the durability experiment gates on). A [`FaultFleet`] is the
//! thing the plan runs against: real `antlayer serve` processes-in-
//! threads on real sockets, each with its own segment-log directory,
//! where *kill* is [`ServerHandle::shutdown`] — listeners closed and
//! live connections severed, exactly what clients and routers observe
//! when a shard dies — and *restart* re-binds the **same** address over
//! the **same** cache directory, so a revived shard proves it can serve
//! its pre-crash entries from disk.
//!
//! ```no_run
//! use antlayer_bench::faultplan::{FaultFleet, FaultPlan};
//!
//! let plan = FaultPlan::seeded(42, 3, 100, 8);
//! let mut fleet = FaultFleet::boot(3, 2);
//! for step in 0..100 {
//!     for event in plan.events_at(step) {
//!         fleet.apply(event);
//!     }
//!     // ... drive one workload request against the fleet ...
//! }
//! fleet.shutdown();
//! ```

use antlayer_service::{Scheduler, SchedulerConfig, Server, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a fault event does to its shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultAction {
    /// Shut the shard down (listeners closed, connections severed).
    Kill,
    /// Re-bind the shard on its original address and cache directory.
    Restart,
    /// Trigger a segment-log compaction on a live shard.
    Compact,
    /// Elastic: boot a fresh shard at this (new) index and `shard_join`
    /// it through the router. Executed by the experiment driver — only
    /// the router can re-key its ring; the fleet side is
    /// [`FaultFleet::grow`].
    Join,
    /// Elastic: `shard_drain` this shard through the router, then kill
    /// its process — the zero-loss proof is that nothing cached on it
    /// is ever recomputed afterwards. Driver-executed, like `Join`.
    Drain,
    /// Slow-shard robustness: every request this shard serves from now
    /// on stalls by the given milliseconds before its reply (injected
    /// at the in-process transport via
    /// `ServerHandle::set_respond_delay`).
    Delay(u64),
}

impl FaultAction {
    fn name(self) -> &'static str {
        match self {
            FaultAction::Kill => "kill",
            FaultAction::Restart => "restart",
            FaultAction::Compact => "compact",
            FaultAction::Join => "join",
            FaultAction::Drain => "drain",
            FaultAction::Delay(_) => "delay",
        }
    }
}

/// One scheduled fault: `action` on `shard`, applied **before** workload
/// step `step`.
#[derive(Clone, Copy, Debug)]
pub struct FaultEvent {
    /// Zero-based workload step the event fires before.
    pub step: usize,
    /// Target shard index.
    pub shard: usize,
    /// What happens to it.
    pub action: FaultAction,
}

/// A seeded, deterministic schedule of fault events.
///
/// Generation maintains the fleet's up/down state, so every plan is
/// *applicable by construction*: a kill never targets a down shard and
/// never downs the last live one (the workload must stay servable), a
/// restart only revives a dead shard, a compact only fires on a live
/// one. Step 0 is never faulted — the workload gets at least one clean
/// step to warm caches before the first fault.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The seed the schedule is derived from.
    pub seed: u64,
    /// Fleet size the plan was built for.
    pub shards: usize,
    /// Workload steps the events are spread over.
    pub steps: usize,
    /// Whether this is an elastic (`faultplan/v2`) schedule — join /
    /// drain / delay events over a growable fleet — or a classic crash
    /// schedule. Changes only the [`encode`](Self::encode) header; the
    /// two constructors draw from independent RNG layouts either way.
    pub elastic: bool,
    /// The schedule, in firing order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Derives the schedule for `faults` events over `steps` workload
    /// steps against `shards` shards. Pure in `seed`: the same arguments
    /// always yield the byte-identical [`encode`](Self::encode) output.
    pub fn seeded(seed: u64, shards: usize, steps: usize, faults: usize) -> FaultPlan {
        assert!(shards > 0, "a fault plan needs at least one shard");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut up = vec![true; shards];
        let mut events = Vec::new();
        let mut remaining = faults.min(steps.saturating_sub(1));
        for step in 1..steps {
            if remaining == 0 {
                break;
            }
            // Sequential sampling: each remaining step carries
            // remaining/steps_left odds, so exactly `remaining` events
            // land, spread across the step range.
            let steps_left = steps - step;
            if rng.gen_range(0..steps_left) >= remaining {
                continue;
            }
            remaining -= 1;
            let action = loop {
                let roll = match rng.gen_range(0..3u8) {
                    0 => FaultAction::Kill,
                    1 => FaultAction::Restart,
                    _ => FaultAction::Compact,
                };
                let valid = match roll {
                    // Keep at least one shard serving.
                    FaultAction::Kill => up.iter().filter(|&&u| u).count() > 1,
                    FaultAction::Restart => up.iter().any(|&u| !u),
                    // Always valid: the kill rule keeps one shard up.
                    _ => true,
                };
                if valid {
                    break roll;
                }
            };
            let eligible: Vec<usize> = up
                .iter()
                .enumerate()
                .filter(|&(_, &u)| match action {
                    FaultAction::Restart => !u,
                    _ => u,
                })
                .map(|(i, _)| i)
                .collect();
            let shard = eligible[rng.gen_range(0..eligible.len())];
            if action == FaultAction::Kill {
                up[shard] = false;
            } else if action == FaultAction::Restart {
                up[shard] = true;
            }
            events.push(FaultEvent {
                step,
                shard,
                action,
            });
        }
        FaultPlan {
            seed,
            shards,
            steps,
            elastic: false,
            events,
        }
    }

    /// Derives an **elastic** schedule: joins, drains, respond-delays,
    /// and compactions over a fleet that starts at `shards` members and
    /// may grow to twice that. Pure in `seed`, like
    /// [`seeded`](Self::seeded) — the byte-identical
    /// [`encode`](Self::encode) output is what `experiments reshard`
    /// gates on. Applicable by construction: a join always targets the
    /// next fresh index (matching what [`FaultFleet::grow`] will hand
    /// back), a drain never removes the last active member and never
    /// targets an already-drained one (drained shards stay gone), and
    /// delays/compactions only land on active members. No crashes: at
    /// replication factor 1 a kill would conflate crash loss with
    /// handoff loss, and this plan exists to prove the handoff alone
    /// loses nothing.
    pub fn seeded_elastic(seed: u64, shards: usize, steps: usize, faults: usize) -> FaultPlan {
        assert!(shards > 0, "a fault plan needs at least one shard");
        let mut rng = StdRng::seed_from_u64(seed);
        // Membership over time: initial members active, joins append,
        // drains retire for good (tombstones — indices never reused).
        let mut active: Vec<bool> = vec![true; shards];
        let mut events = Vec::new();
        let mut remaining = faults.min(steps.saturating_sub(1));
        for step in 1..steps {
            if remaining == 0 {
                break;
            }
            let steps_left = steps - step;
            if rng.gen_range(0..steps_left) >= remaining {
                continue;
            }
            remaining -= 1;
            let action = loop {
                let roll = match rng.gen_range(0..4u8) {
                    0 => FaultAction::Join,
                    1 => FaultAction::Drain,
                    // Large enough to be observable, small enough that a
                    // generous io_timeout never misreads it as death.
                    2 => FaultAction::Delay(20 + rng.gen_range(0..41)),
                    _ => FaultAction::Compact,
                };
                let valid = match roll {
                    FaultAction::Join => active.len() < shards * 2,
                    FaultAction::Drain => active.iter().filter(|&&u| u).count() > 1,
                    _ => true,
                };
                if valid {
                    break roll;
                }
            };
            let shard = if action == FaultAction::Join {
                active.push(true);
                active.len() - 1
            } else {
                let eligible: Vec<usize> = active
                    .iter()
                    .enumerate()
                    .filter(|&(_, &u)| u)
                    .map(|(i, _)| i)
                    .collect();
                let shard = eligible[rng.gen_range(0..eligible.len())];
                if action == FaultAction::Drain {
                    active[shard] = false;
                }
                shard
            };
            events.push(FaultEvent {
                step,
                shard,
                action,
            });
        }
        FaultPlan {
            seed,
            shards,
            steps,
            elastic: true,
            events,
        }
    }

    /// The events scheduled to fire before workload step `step`.
    pub fn events_at(&self, step: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.step == step)
    }

    /// The canonical text form of the schedule — the determinism
    /// artifact: two plans from the same seed must encode byte-identically.
    pub fn encode(&self) -> String {
        let version = if self.elastic { 2 } else { 1 };
        let mut out = format!(
            "faultplan/v{version} seed={} shards={} steps={}\n",
            self.seed, self.shards, self.steps
        );
        for e in &self.events {
            match e.action {
                FaultAction::Delay(ms) => out.push_str(&format!(
                    "delay shard={} step={} ms={ms}\n",
                    e.shard, e.step
                )),
                action => out.push_str(&format!(
                    "{} shard={} step={}\n",
                    action.name(),
                    e.shard,
                    e.step
                )),
            }
        }
        out
    }
}

/// Fleet-level uniqueness for cache-dir roots: tests in one process may
/// boot many fleets.
static FLEET_SEQ: AtomicU64 = AtomicU64::new(0);

struct ShardSlot {
    addr: String,
    cache_dir: PathBuf,
    handle: Option<ServerHandle>,
}

/// A fleet of in-process shards a [`FaultPlan`] runs against: each shard
/// owns a fixed loopback address (stable across restarts) and a private
/// segment-log directory under a per-fleet temp root.
pub struct FaultFleet {
    shards: Vec<ShardSlot>,
    threads: usize,
    root: PathBuf,
}

impl FaultFleet {
    /// Boots `n` shards (`threads` scheduler workers each), every one
    /// persisting its cache to its own directory.
    pub fn boot(n: usize, threads: usize) -> FaultFleet {
        let root = std::env::temp_dir().join(format!(
            "antlayer-faultfleet-{}-{}",
            std::process::id(),
            FLEET_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let shards = (0..n)
            .map(|i| {
                let cache_dir = root.join(format!("shard-{i}"));
                // Bind port 0 once to pick a free port; the shard keeps
                // that exact address for every later restart, so routers
                // and probes find it where they left it.
                let handle = bind_shard("127.0.0.1:0", threads, &cache_dir)
                    .expect("boot fleet shard on a free port");
                ShardSlot {
                    addr: handle.addr().to_string(),
                    cache_dir,
                    handle: Some(handle),
                }
            })
            .collect();
        FaultFleet {
            shards,
            threads,
            root,
        }
    }

    /// Every shard's fixed address, in index order.
    pub fn addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// Shard `i`'s fixed address.
    pub fn addr(&self, i: usize) -> &str {
        &self.shards[i].addr
    }

    /// Whether shard `i` is currently serving.
    pub fn is_up(&self, i: usize) -> bool {
        self.shards[i].handle.is_some()
    }

    /// Shard `i`'s scheduler, when it is up.
    pub fn scheduler(&self, i: usize) -> Option<&Arc<Scheduler>> {
        self.shards[i].handle.as_ref().map(|h| h.scheduler())
    }

    /// Kills shard `i` — real shutdown semantics: listeners closed and
    /// live connections severed, so clients and routers observe the
    /// same EOF/reset a crashed process would give them. Idempotent.
    pub fn kill(&mut self, i: usize) {
        if let Some(handle) = self.shards[i].handle.take() {
            handle.shutdown();
        }
    }

    /// Restarts shard `i` on its original address over its original
    /// cache directory (the segment log replays on boot). Idempotent.
    pub fn restart(&mut self, i: usize) {
        if self.shards[i].handle.is_some() {
            return;
        }
        let slot = &self.shards[i];
        // std's listeners set SO_REUSEADDR on Unix, so re-binding the
        // port succeeds even with old client connections in TIME_WAIT; a
        // short retry absorbs any lag releasing the previous listener.
        let mut last_err = None;
        for _ in 0..100 {
            match bind_shard(&slot.addr, self.threads, &slot.cache_dir) {
                Ok(handle) => {
                    self.shards[i].handle = Some(handle);
                    return;
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        panic!(
            "restart shard {i} on {}: {}",
            self.shards[i].addr,
            last_err.expect("retried at least once")
        );
    }

    /// Boots one additional shard (the fleet side of a `Join` event)
    /// and returns its index — always the next fresh one, matching what
    /// [`FaultPlan::seeded_elastic`] schedules for the join.
    pub fn grow(&mut self) -> usize {
        let i = self.shards.len();
        let cache_dir = self.root.join(format!("shard-{i}"));
        let handle =
            bind_shard("127.0.0.1:0", self.threads, &cache_dir).expect("boot joined shard");
        self.shards.push(ShardSlot {
            addr: handle.addr().to_string(),
            cache_dir,
            handle: Some(handle),
        });
        i
    }

    /// Number of shard slots ever booted (live or not).
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the fleet has no shards (it never does after `boot`).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Stalls every reply shard `i` serves from now on by `ms`
    /// milliseconds (the `Delay` fault); `false` when the shard is down.
    pub fn set_delay(&mut self, i: usize, ms: u64) -> bool {
        match self.shards[i].handle.as_ref() {
            Some(h) => {
                h.set_respond_delay(Duration::from_millis(ms));
                true
            }
            None => false,
        }
    }

    /// Compacts shard `i`'s segment log; `false` when the shard is down
    /// or persistence is off.
    pub fn compact(&mut self, i: usize) -> bool {
        self.shards[i]
            .handle
            .as_ref()
            .is_some_and(|h| h.scheduler().compact_cache())
    }

    /// Applies one plan event's **fleet-side** effect. `Join` and
    /// `Drain` are intentionally not handled here: membership is the
    /// router's to change, so the experiment driver executes them —
    /// [`grow`](Self::grow) + the router's `shard_join` for a join,
    /// the router's `shard_drain` + [`kill`](Self::kill) for a drain.
    pub fn apply(&mut self, event: &FaultEvent) {
        match event.action {
            FaultAction::Kill => self.kill(event.shard),
            FaultAction::Restart => self.restart(event.shard),
            FaultAction::Compact => {
                self.compact(event.shard);
            }
            FaultAction::Delay(ms) => {
                self.set_delay(event.shard, ms);
            }
            FaultAction::Join | FaultAction::Drain => {}
        }
    }

    /// Shuts every live shard down and removes the fleet's cache-dir
    /// root.
    pub fn shutdown(mut self) {
        for i in 0..self.shards.len() {
            self.kill(i);
        }
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn bind_shard(addr: &str, threads: usize, cache_dir: &Path) -> std::io::Result<ServerHandle> {
    Server::bind(ServerConfig {
        addr: addr.into(),
        http_addr: None,
        scheduler: SchedulerConfig {
            threads,
            cache_dir: Some(cache_dir.to_path_buf()),
            ..Default::default()
        },
        ..Default::default()
    })?
    .spawn()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_encodes_byte_identical_plans() {
        let a = FaultPlan::seeded(7, 3, 50, 8);
        let b = FaultPlan::seeded(7, 3, 50, 8);
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.events.len(), 8);
        let c = FaultPlan::seeded(8, 3, 50, 8);
        assert_ne!(a.encode(), c.encode(), "seeds differentiate plans");
    }

    #[test]
    fn plans_are_applicable_by_construction() {
        for seed in 0..32 {
            let plan = FaultPlan::seeded(seed, 4, 200, 40);
            let mut up = vec![true; plan.shards];
            for e in &plan.events {
                assert!(e.step > 0, "step 0 is never faulted");
                match e.action {
                    FaultAction::Kill => {
                        assert!(up[e.shard], "kill targets a live shard");
                        up[e.shard] = false;
                        assert!(up.iter().any(|&u| u), "one shard always stays up");
                    }
                    FaultAction::Restart => {
                        assert!(!up[e.shard], "restart targets a dead shard");
                        up[e.shard] = true;
                    }
                    FaultAction::Compact => {
                        assert!(up[e.shard], "compact targets a live shard");
                    }
                    other => panic!("classic plans never schedule {other:?}"),
                }
            }
        }
    }

    #[test]
    fn same_seed_encodes_byte_identical_elastic_plans() {
        let a = FaultPlan::seeded_elastic(7, 3, 60, 10);
        let b = FaultPlan::seeded_elastic(7, 3, 60, 10);
        assert_eq!(a.encode(), b.encode());
        assert!(a.encode().starts_with("faultplan/v2 "), "{}", a.encode());
        let c = FaultPlan::seeded_elastic(8, 3, 60, 10);
        assert_ne!(a.encode(), c.encode(), "seeds differentiate plans");
        // The classic constructor keeps its v1 header and RNG stream —
        // BENCH_8's recorded plans must stay byte-identical.
        let classic = FaultPlan::seeded(7, 3, 50, 8);
        assert!(classic.encode().starts_with("faultplan/v1 "));
    }

    #[test]
    fn elastic_plans_are_applicable_by_construction() {
        for seed in 0..32 {
            let plan = FaultPlan::seeded_elastic(seed, 3, 120, 24);
            let mut active = vec![true; plan.shards];
            for e in &plan.events {
                assert!(e.step > 0, "step 0 is never faulted");
                match e.action {
                    FaultAction::Join => {
                        assert_eq!(
                            e.shard,
                            active.len(),
                            "a join always targets the next fresh index"
                        );
                        assert!(active.len() < plan.shards * 2, "growth is capped");
                        active.push(true);
                    }
                    FaultAction::Drain => {
                        assert!(active[e.shard], "drain targets an active shard");
                        active[e.shard] = false;
                        assert!(active.iter().any(|&u| u), "one shard always stays active");
                    }
                    FaultAction::Delay(ms) => {
                        assert!(active[e.shard], "delay targets an active shard");
                        assert!((20..=60).contains(&ms), "delay {ms}ms out of band");
                    }
                    FaultAction::Compact => {
                        assert!(active[e.shard], "compact targets an active shard");
                    }
                    FaultAction::Kill | FaultAction::Restart => {
                        panic!("elastic plans never crash shards");
                    }
                }
            }
        }
    }

    #[test]
    fn fleet_grows_and_injects_delays() {
        let mut fleet = FaultFleet::boot(1, 1);
        assert_eq!(fleet.len(), 1);
        let joined = fleet.grow();
        assert_eq!(joined, 1);
        assert!(fleet.is_up(joined));
        assert!(fleet.set_delay(joined, 5));
        fleet.kill(joined);
        assert!(!fleet.set_delay(joined, 5), "a dead shard takes no delay");
        fleet.shutdown();
    }

    #[test]
    fn fleet_survives_kill_restart_on_the_same_address() {
        let mut fleet = FaultFleet::boot(1, 1);
        let addr = fleet.addr(0).to_string();
        assert!(fleet.is_up(0));
        fleet.kill(0);
        assert!(!fleet.is_up(0));
        fleet.restart(0);
        assert!(fleet.is_up(0));
        assert_eq!(fleet.addr(0), addr, "restart keeps the address");
        assert!(fleet.compact(0), "live shard with a cache dir compacts");
        fleet.shutdown();
    }
}
