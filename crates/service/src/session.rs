//! Live-session bookkeeping for the live listener: who is subscribed,
//! what version they have seen, what edits are waiting, and how much
//! output they have not drained yet.
//!
//! The live tier in [`crate::live`] owns the [`SessionTable`]; the loop
//! in [`crate::transport`] owns one [`OutboundQueue`] per connection.
//! Everything here is plain single-threaded state — the loop thread is
//! the only writer — so the structures carry no locks. The interesting invariants:
//!
//! * **Versions are per-session and strictly monotonic.** The base
//!   layout is version 0; every pushed `session_update` increments by
//!   exactly one. A client that sees a gap knows the stream is broken.
//! * **Edits coalesce while a solve is in flight.** A burst of
//!   `session_delta`s during one re-solve folds into a single composed
//!   [`GraphDelta`] (net effect, order-preserving — see
//!   `GraphDelta::compose`) and costs one re-solve, not N.
//! * **Epochs guard stale completions.** Re-opening or closing a
//!   session bumps its epoch; a solve completion carrying an old epoch
//!   is dropped instead of corrupting the successor session.
//! * **Slow consumers are evicted, not buffered forever.** Each
//!   session may have at most [`OutboundQueue::session_cap`] frames
//!   queued; pushing past the cap signals eviction and the session's
//!   queued frames are dropped (minus any partially-written front
//!   frame, which must finish or the stream desyncs).

use crate::digest::Digest;
use crate::protocol::Json;
use crate::scheduler::AlgoSpec;
use antlayer_graph::GraphDelta;
use antlayer_obs::{Counter, Histogram, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A session is addressed by (connection token, encoded envelope `id`):
/// ids are scoped to their connection, so two clients may both use
/// `"id":1` without colliding.
pub type SessionKey = (u64, String);

/// Edits that arrived while a solve was in flight, folded into one
/// net-effect delta.
#[derive(Debug)]
pub struct PendingDeltas {
    /// The composed edit (`d1 ∘ d2 ∘ …` — net effect of all of them).
    pub delta: GraphDelta,
    /// How many `session_delta` requests were folded in.
    pub count: u64,
    /// Arrival time of the *earliest* folded delta: push latency is
    /// measured from the moment the client asked, not from when the
    /// server got around to solving.
    pub since: Instant,
}

/// One open streaming session.
#[derive(Debug)]
pub struct Session {
    /// The envelope `id` the client opened with, echoed verbatim on
    /// every frame pushed for this session.
    pub id: Json,
    /// Stale-completion guard: bumped on every open/replace; a solve
    /// completion whose epoch mismatches is dropped.
    pub epoch: u64,
    /// Algorithm of the open request; every delta re-solve repeats it.
    pub algo: AlgoSpec,
    /// Width model of the open request.
    pub nd_width: f64,
    /// Per-solve deadline of the open request.
    pub deadline: Option<Duration>,
    /// Canonical digest of the session's *current* graph — the base the
    /// next delta solve warm-starts from. `None` until the base layout
    /// lands.
    pub digest: Option<Digest>,
    /// Last version pushed (base layout = 0).
    pub version: u64,
    /// Whether a solve for this session is currently running.
    pub in_flight: bool,
    /// Edits waiting for the in-flight solve to finish.
    pub pending: Option<PendingDeltas>,
    /// The layer lists of the last pushed layout, kept so the next push
    /// can carry only the layers that changed.
    pub layers: Vec<Vec<u32>>,
    /// Last time the client did anything (open/delta) — idle-session
    /// accounting.
    pub last_activity: Instant,
}

impl Session {
    /// Folds one more edit into the pending set (the in-flight case).
    /// Returns the number of edits now pending.
    pub fn queue_delta(&mut self, delta: GraphDelta, now: Instant) -> u64 {
        self.last_activity = now;
        let pending = match self.pending.take() {
            None => PendingDeltas {
                delta,
                count: 1,
                since: now,
            },
            Some(p) => PendingDeltas {
                delta: p.delta.compose(&delta),
                count: p.count + 1,
                since: p.since,
            },
        };
        let count = pending.count;
        self.pending = Some(pending);
        count
    }
}

/// Every open session, keyed by (connection token, envelope id).
pub struct SessionTable {
    sessions: HashMap<SessionKey, Session>,
    /// Global epoch counter; never reused, so a completion from a
    /// session's previous life can never match its successor.
    next_epoch: u64,
    metrics: Arc<SessionMetrics>,
}

impl SessionTable {
    /// An empty table reporting into `metrics`.
    pub fn new(metrics: Arc<SessionMetrics>) -> SessionTable {
        SessionTable {
            sessions: HashMap::new(),
            next_epoch: 0,
            metrics,
        }
    }

    /// Opens (or re-opens, bumping the epoch) the session under `key`.
    /// Returns the new epoch.
    pub fn open(
        &mut self,
        key: SessionKey,
        id: Json,
        algo: AlgoSpec,
        nd_width: f64,
        deadline: Option<Duration>,
        now: Instant,
    ) -> u64 {
        self.next_epoch += 1;
        let epoch = self.next_epoch;
        let fresh = self
            .sessions
            .insert(
                key,
                Session {
                    id,
                    epoch,
                    algo,
                    nd_width,
                    deadline,
                    digest: None,
                    version: 0,
                    in_flight: true,
                    pending: None,
                    layers: Vec::new(),
                    last_activity: now,
                },
            )
            .is_none();
        if fresh {
            self.metrics.open.fetch_add(1, Ordering::Relaxed);
        }
        epoch
    }

    /// The session under `key`, if open.
    pub fn get_mut(&mut self, key: &SessionKey) -> Option<&mut Session> {
        self.sessions.get_mut(key)
    }

    /// Removes the session under `key`, returning it.
    pub fn remove(&mut self, key: &SessionKey) -> Option<Session> {
        let removed = self.sessions.remove(key);
        if removed.is_some() {
            self.metrics.open.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Drops every session belonging to connection `conn` (the client
    /// hung up). Returns how many were dropped.
    pub fn remove_conn(&mut self, conn: u64) -> usize {
        let before = self.sessions.len();
        self.sessions.retain(|(c, _), _| *c != conn);
        let dropped = before - self.sessions.len();
        self.metrics
            .open
            .fetch_sub(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether no session is open.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// How many open sessions have been idle (no open/delta) for at
    /// least `for_at_least`, as of `now`.
    pub fn idle_count(&self, now: Instant, for_at_least: Duration) -> usize {
        self.sessions
            .values()
            .filter(|s| now.duration_since(s.last_activity) >= for_at_least)
            .count()
    }
}

/// The session tier's observability handles, registered on the
/// process-wide [`Registry`] so `GET /metrics` and the `stats` op see
/// them alongside the scheduler's.
pub struct SessionMetrics {
    /// Currently open sessions (rendered by a `gauge_fn` reading this).
    open: Arc<AtomicU64>,
    /// Of those, how many have been idle past the reactor's threshold —
    /// refreshed lazily by the reactor loop (an `idle_count` scan is
    /// O(sessions), too dear to run per event).
    idle: Arc<AtomicU64>,
    /// Push frames enqueued (`session_update`s).
    pub pushes: Arc<Counter>,
    /// Deltas folded into an already-pending re-solve instead of
    /// costing their own.
    pub coalesced: Arc<Counter>,
    /// Sessions evicted for not draining their outbound queue.
    pub evicted: Arc<Counter>,
    /// Microseconds from a delta's arrival (the earliest of a coalesced
    /// burst) to its `session_update` frame entering the outbound queue.
    pub push_us: Arc<Histogram>,
}

impl SessionMetrics {
    /// Registers the session metrics on `registry`.
    pub fn new(registry: &Registry) -> Arc<SessionMetrics> {
        let open = Arc::new(AtomicU64::new(0));
        let open_reader = open.clone();
        registry.gauge_fn(
            "sessions_open",
            "currently open live edit sessions",
            move || open_reader.load(Ordering::Relaxed),
        );
        let idle = Arc::new(AtomicU64::new(0));
        let idle_reader = idle.clone();
        registry.gauge_fn(
            "sessions_idle",
            "open sessions with no client activity past the idle threshold",
            move || idle_reader.load(Ordering::Relaxed),
        );
        Arc::new(SessionMetrics {
            open,
            idle,
            pushes: registry.counter(
                "session_pushes_total",
                "session_update frames pushed to live subscribers",
            ),
            coalesced: registry.counter(
                "session_coalesced_total",
                "session deltas folded into an in-flight re-solve",
            ),
            evicted: registry.counter(
                "session_evicted_total",
                "sessions evicted for not draining their outbound queue",
            ),
            push_us: registry.histogram(
                "session_push_us",
                "microseconds from delta arrival to the update frame entering the outbound queue",
            ),
        })
    }

    /// Currently open sessions.
    pub fn open_count(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    /// Publishes the latest idle-session scan.
    pub fn set_idle(&self, n: u64) {
        self.idle.store(n, Ordering::Relaxed);
    }

    /// The last published idle-session count.
    pub fn idle_value(&self) -> u64 {
        self.idle.load(Ordering::Relaxed)
    }
}

/// One queued outbound frame: its owning session (for the per-session
/// cap and targeted drops) and its encoded bytes, newline included.
struct Frame {
    session: Option<String>,
    bytes: Vec<u8>,
}

/// A connection's outbound byte queue with per-session bounds.
///
/// Frames are written in FIFO order; a frame may be written across
/// several readiness events, so the queue tracks a byte offset into the
/// front frame. Control frames (replies to `ping`, errors without a
/// session, …) are never dropped; session frames count against
/// [`session_cap`](Self::session_cap) and pushing past it reports a
/// slow consumer instead of buffering without bound.
pub struct OutboundQueue {
    frames: VecDeque<Frame>,
    /// Bytes of the front frame already written to the socket.
    front_offset: usize,
    per_session: HashMap<String, usize>,
    session_cap: usize,
}

impl OutboundQueue {
    /// An empty queue allowing at most `session_cap` queued frames per
    /// session.
    pub fn new(session_cap: usize) -> OutboundQueue {
        OutboundQueue {
            frames: VecDeque::new(),
            front_offset: 0,
            per_session: HashMap::new(),
            session_cap,
        }
    }

    /// The per-session queued-frame bound.
    pub fn session_cap(&self) -> usize {
        self.session_cap
    }

    /// Queues a frame that belongs to no session (always accepted).
    pub fn push_control(&mut self, bytes: Vec<u8>) {
        self.frames.push_back(Frame {
            session: None,
            bytes,
        });
    }

    /// Queues a frame for session `key`. Returns `false` — without
    /// queueing — when the session already has `session_cap` frames
    /// waiting: the consumer is not draining and should be evicted.
    pub fn push_session(&mut self, key: &str, bytes: Vec<u8>) -> bool {
        let count = self.per_session.entry(key.to_string()).or_insert(0);
        if *count >= self.session_cap {
            return false;
        }
        *count += 1;
        self.frames.push_back(Frame {
            session: Some(key.to_string()),
            bytes,
        });
        true
    }

    /// Drops every queued frame of session `key`, except a front frame
    /// that is already partially on the wire (truncating it would
    /// desync the stream; it finishes, then the drop holds). Returns
    /// the number of frames removed.
    pub fn drop_session(&mut self, key: &str) -> usize {
        let keep_front = self.front_offset > 0;
        let mut removed = 0;
        let mut idx = 0;
        self.frames.retain(|f| {
            let is_first = idx == 0;
            idx += 1;
            if f.session.as_deref() == Some(key) && !(is_first && keep_front) {
                removed += 1;
                false
            } else {
                true
            }
        });
        if let Some(count) = self.per_session.get_mut(key) {
            *count -= removed.min(*count);
            if *count == 0 {
                self.per_session.remove(key);
            }
        }
        removed
    }

    /// The unwritten bytes of the front frame, if any.
    pub fn front(&self) -> Option<&[u8]> {
        self.frames.front().map(|f| &f.bytes[self.front_offset..])
    }

    /// Consumes `n` bytes of the front frame (they reached the socket).
    /// A fully-written frame is popped and its session count released.
    pub fn advance(&mut self, n: usize) {
        let Some(front) = self.frames.front() else {
            return;
        };
        self.front_offset += n;
        if self.front_offset < front.bytes.len() {
            return;
        }
        let done = self.frames.pop_front().expect("front exists");
        self.front_offset = 0;
        if let Some(key) = done.session {
            if let Some(count) = self.per_session.get_mut(&key) {
                *count -= 1;
                if *count == 0 {
                    self.per_session.remove(&key);
                }
            }
        }
    }

    /// Whether nothing is waiting to be written.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Queued frames (for tests and debugging).
    pub fn len(&self) -> usize {
        self.frames.len()
    }
}

/// The changed-layer diff between two bottom-up layer lists: every
/// index of `new` whose membership differs from `old` (including
/// indices past `old`'s end). Layers `old` had above `new`'s height are
/// implied removed by the frame's `height` member and not listed.
pub fn diff_layers(old: &[Vec<u32>], new: &[Vec<u32>]) -> Vec<(u32, Vec<u32>)> {
    new.iter()
        .enumerate()
        .filter(|(i, layer)| old.get(*i) != Some(layer))
        .map(|(i, layer)| (i as u32, layer.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Arc<SessionMetrics> {
        SessionMetrics::new(&Registry::default())
    }

    fn spec() -> AlgoSpec {
        AlgoSpec::parse("lpl", 0).unwrap()
    }

    #[test]
    fn open_replace_close_tracks_the_gauge_and_epochs() {
        let m = metrics();
        let mut table = SessionTable::new(m.clone());
        let now = Instant::now();
        let key: SessionKey = (3, "1".into());
        let first = table.open(key.clone(), Json::Num(1.0), spec(), 1.0, None, now);
        assert_eq!(m.open_count(), 1);
        // Re-opening the same key replaces the session and bumps the
        // epoch, but the gauge still counts one session.
        let second = table.open(key.clone(), Json::Num(1.0), spec(), 1.0, None, now);
        assert!(second > first);
        assert_eq!(m.open_count(), 1);
        assert!(table.remove(&key).is_some());
        assert_eq!(m.open_count(), 0);
        assert!(table.remove(&key).is_none());
        assert_eq!(m.open_count(), 0);
    }

    #[test]
    fn remove_conn_drops_only_that_connections_sessions() {
        let m = metrics();
        let mut table = SessionTable::new(m.clone());
        let now = Instant::now();
        table.open(
            (1, "a".into()),
            Json::Str("a".into()),
            spec(),
            1.0,
            None,
            now,
        );
        table.open(
            (1, "b".into()),
            Json::Str("b".into()),
            spec(),
            1.0,
            None,
            now,
        );
        table.open(
            (2, "a".into()),
            Json::Str("a".into()),
            spec(),
            1.0,
            None,
            now,
        );
        assert_eq!(table.remove_conn(1), 2);
        assert_eq!(table.len(), 1);
        assert_eq!(m.open_count(), 1);
        assert!(table.get_mut(&(2, "a".into())).is_some());
    }

    #[test]
    fn queued_deltas_compose_and_keep_the_earliest_arrival() {
        let m = metrics();
        let mut table = SessionTable::new(m);
        let t0 = Instant::now();
        let key: SessionKey = (1, "s".into());
        table.open(key.clone(), Json::Str("s".into()), spec(), 1.0, None, t0);
        let s = table.get_mut(&key).unwrap();
        let d1 = GraphDelta::new(vec![(0, 1)], vec![]);
        let d2 = GraphDelta::new(vec![(1, 2)], vec![(0, 1)]);
        assert_eq!(s.queue_delta(d1, t0), 1);
        let t1 = t0 + Duration::from_millis(5);
        assert_eq!(s.queue_delta(d2, t1), 2);
        let pending = s.pending.take().unwrap();
        assert_eq!(pending.count, 2);
        assert_eq!(pending.since, t0);
        // add (0,1) then remove (0,1) cancels; add (1,2) survives.
        assert_eq!(pending.delta.added, vec![(1, 2)]);
        assert!(pending.delta.removed.is_empty());
    }

    #[test]
    fn idle_count_splits_hot_from_idle() {
        let m = metrics();
        let mut table = SessionTable::new(m);
        let t0 = Instant::now();
        table.open(
            (1, "idle".into()),
            Json::Str("idle".into()),
            spec(),
            1.0,
            None,
            t0,
        );
        let t1 = t0 + Duration::from_secs(10);
        table.open(
            (1, "hot".into()),
            Json::Str("hot".into()),
            spec(),
            1.0,
            None,
            t1,
        );
        assert_eq!(table.idle_count(t1, Duration::from_secs(5)), 1);
        assert_eq!(table.idle_count(t1, Duration::ZERO), 2);
    }

    #[test]
    fn queue_caps_per_session_and_signals_eviction() {
        let mut q = OutboundQueue::new(2);
        assert!(q.push_session("s", b"1\n".to_vec()));
        assert!(q.push_session("s", b"2\n".to_vec()));
        // Third frame for the same session: over the cap, not queued.
        assert!(!q.push_session("s", b"3\n".to_vec()));
        assert_eq!(q.len(), 2);
        // A different session and control frames are unaffected.
        assert!(q.push_session("t", b"t\n".to_vec()));
        q.push_control(b"c\n".to_vec());
        assert_eq!(q.len(), 4);
        // Draining releases the cap.
        q.advance(2);
        assert!(q.push_session("s", b"4\n".to_vec()));
    }

    #[test]
    fn drop_session_keeps_a_partially_written_front_frame() {
        let mut q = OutboundQueue::new(8);
        q.push_session("s", b"first\n".to_vec());
        q.push_session("s", b"second\n".to_vec());
        q.push_control(b"ctl\n".to_vec());
        q.push_session("s", b"third\n".to_vec());
        // Two bytes of "first\n" are on the wire: dropping the session
        // must keep the rest of that frame or the stream desyncs.
        q.advance(2);
        assert_eq!(q.drop_session("s"), 2);
        assert_eq!(q.front(), Some(&b"rst\n"[..]));
        q.advance(4);
        assert_eq!(q.front(), Some(&b"ctl\n"[..]));
        q.advance(4);
        assert!(q.is_empty());
        // The cap bookkeeping survived the partial drop.
        assert!(q.push_session("s", b"again\n".to_vec()));
    }

    #[test]
    fn drop_session_with_clean_front_removes_everything() {
        let mut q = OutboundQueue::new(8);
        q.push_session("s", b"a\n".to_vec());
        q.push_control(b"c\n".to_vec());
        q.push_session("s", b"b\n".to_vec());
        assert_eq!(q.drop_session("s"), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.front(), Some(&b"c\n"[..]));
    }

    #[test]
    fn advance_across_frame_boundaries_releases_session_slots() {
        let mut q = OutboundQueue::new(1);
        assert!(q.push_session("s", b"abc\n".to_vec()));
        assert!(!q.push_session("s", b"over\n".to_vec()));
        // Written in three chunks.
        q.advance(1);
        q.advance(2);
        assert!(!q.is_empty());
        q.advance(1);
        assert!(q.is_empty());
        assert!(q.push_session("s", b"next\n".to_vec()));
    }

    #[test]
    fn diff_layers_reports_changed_and_new_indices_only() {
        let old = vec![vec![0, 1], vec![2], vec![3]];
        let new = vec![vec![0, 1], vec![2, 4], vec![3], vec![5]];
        assert_eq!(diff_layers(&old, &new), vec![(1, vec![2, 4]), (3, vec![5])]);
        // Pure truncation: nothing changed below the new height; the
        // frame's `height` member carries the removal.
        assert_eq!(diff_layers(&new, &new[..2]), vec![]);
        assert_eq!(
            diff_layers(&[], &old),
            vec![(0, vec![0, 1]), (1, vec![2]), (2, vec![3]),]
        );
    }
}
