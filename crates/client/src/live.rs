//! The client side of streaming edit sessions (`antlayer serve --live`).
//!
//! A [`LiveConn`] multiplexes many sessions over one reactor
//! connection: each session is keyed by the envelope `id` it was opened
//! with, and every frame the server pushes — base layouts, incremental
//! `session_update`s, close acks, errors — comes back stamped with the
//! owning session's id. Because updates are *pushed* (not answers to
//! reads), a caller waiting for one specific session's frame may
//! receive another session's first; [`LiveConn`] buffers those and
//! hands them out in arrival order from
//! [`next_event`](LiveConn::next_event).
//!
//! [`Session`] is the client-side mirror of the server's per-session
//! state: it holds the layer lists, applies the changed-layer diffs
//! from update frames (truncate/extend to `height`, overwrite the
//! changed indices), and enforces the version contract — every update
//! must carry exactly `version + 1`, so a lost or duplicated push is
//! detected at the first frame after it.

use crate::{ClientError, Connection, LayoutOptions, Transport};
use antlayer_graph::DiGraph;
use antlayer_service::protocol::{self, Json, LayoutReply, Response, SessionUpdate, WireError};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// One frame pushed (or acked) for a session.
#[derive(Clone, Debug)]
pub enum LiveEvent {
    /// An incremental re-layout push.
    Update(SessionUpdate),
    /// The `session_close` ack, echoing the last pushed version.
    Closed {
        /// The session's final version.
        version: u64,
    },
    /// A server-side error addressed to this session (e.g.
    /// `base_not_found` after the session's base left the cache: the
    /// session is gone server-side; re-open with the full graph).
    Error(WireError),
}

/// A connection to the live (reactor) listener, multiplexing streaming
/// edit sessions. Line-TCP only: push frames have no place in HTTP/1.1
/// request/reply framing.
pub struct LiveConn {
    conn: Connection,
    /// Frames that arrived while waiting for a specific session's
    /// reply, in arrival order.
    buffered: VecDeque<(Json, LiveEvent)>,
}

impl LiveConn {
    /// Connects to a live listener (1-second connect timeout).
    pub fn connect(addr: &str) -> std::io::Result<LiveConn> {
        LiveConn::connect_timeout(addr, Duration::from_secs(1))
    }

    /// Connects with an explicit connect timeout.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> std::io::Result<LiveConn> {
        let conn = Connection::connect_timeout(addr, Transport::Tcp, timeout)?;
        Ok(LiveConn {
            conn,
            buffered: VecDeque::new(),
        })
    }

    /// Opens a session under `id` and blocks for its base layout
    /// (buffering any other session's frames that arrive first).
    /// Returns the starting version (0) and the base [`LayoutReply`].
    pub fn open(
        &mut self,
        id: &Json,
        graph: &DiGraph,
        options: &LayoutOptions,
    ) -> Result<(u64, LayoutReply), ClientError> {
        let line = protocol::encode_op_v2("session_open", Some(id), options.layout_body(graph)?);
        self.conn.send(&line).map_err(ClientError::Io)?;
        loop {
            let (frame_id, response) = self.recv_frame(None)?.expect("blocking recv");
            if &frame_id != id {
                self.buffer(frame_id, response)?;
                continue;
            }
            match response {
                Response::SessionOpened { version, reply } => return Ok((version, *reply)),
                Response::Error(e) => return Err(ClientError::Server(e)),
                other => {
                    return Err(ClientError::BadReply(format!(
                        "expected session_open reply, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Streams one edit into session `id` — fire and forget: the server
    /// answers with a pushed `session_update` frame (possibly covering
    /// several edits), read via [`next_event`](Self::next_event).
    pub fn send_delta(
        &mut self,
        id: &Json,
        add: &[(u32, u32)],
        remove: &[(u32, u32)],
    ) -> Result<(), ClientError> {
        let pairs = |edges: &[(u32, u32)]| {
            Json::Arr(
                edges
                    .iter()
                    .map(|&(u, v)| Json::Arr(vec![Json::Num(u as f64), Json::Num(v as f64)]))
                    .collect(),
            )
        };
        let mut body = BTreeMap::new();
        body.insert("add".to_string(), pairs(add));
        body.insert("remove".to_string(), pairs(remove));
        let line = protocol::encode_op_v2("session_delta", Some(id), Json::Obj(body));
        self.conn.send(&line).map_err(ClientError::Io)
    }

    /// Closes session `id`, blocking for the ack (buffering unrelated
    /// frames). Returns the last pushed version.
    pub fn close(&mut self, id: &Json) -> Result<u64, ClientError> {
        let line = protocol::encode_op_v2("session_close", Some(id), Json::Obj(BTreeMap::new()));
        self.conn.send(&line).map_err(ClientError::Io)?;
        loop {
            let (frame_id, response) = self.recv_frame(None)?.expect("blocking recv");
            if &frame_id != id {
                self.buffer(frame_id, response)?;
                continue;
            }
            match response {
                Response::SessionClosed { version } => return Ok(version),
                Response::Error(e) => return Err(ClientError::Server(e)),
                other => {
                    return Err(ClientError::BadReply(format!(
                        "expected session_close ack, got {other:?}"
                    )))
                }
            }
        }
    }

    /// The next pushed frame for *any* session on this connection:
    /// buffered frames first, then the wire. `Ok(None)` when `timeout`
    /// elapses with nothing to read (`None` blocks forever).
    pub fn next_event(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<(Json, LiveEvent)>, ClientError> {
        if let Some(buffered) = self.buffered.pop_front() {
            return Ok(Some(buffered));
        }
        match self.recv_frame(timeout)? {
            None => Ok(None),
            Some((id, response)) => Ok(Some((id, classify(response)?))),
        }
    }

    /// Reads one frame, returning its session id and decoded response.
    /// `Ok(None)` only when a timeout was set and elapsed.
    fn recv_frame(
        &mut self,
        timeout: Option<Duration>,
    ) -> Result<Option<(Json, Response)>, ClientError> {
        self.conn
            .set_read_timeout(timeout)
            .map_err(ClientError::Io)?;
        let line = match self.conn.recv() {
            Ok(line) => line,
            Err(e)
                if timeout.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(None)
            }
            Err(e) => return Err(ClientError::Io(e)),
        };
        let (response, env) = protocol::parse_response(&line).map_err(ClientError::BadReply)?;
        match env.id {
            Some(id) => Ok(Some((id, response))),
            // A frame without an id is connection-level (a malformed
            // line's error reply): surface it, no session owns it.
            None => match response {
                Response::Error(e) => Err(ClientError::Server(e)),
                other => Err(ClientError::BadReply(format!(
                    "push frame without a session id: {other:?}"
                ))),
            },
        }
    }

    fn buffer(&mut self, id: Json, response: Response) -> Result<(), ClientError> {
        let event = classify(response)?;
        self.buffered.push_back((id, event));
        Ok(())
    }
}

fn classify(response: Response) -> Result<LiveEvent, ClientError> {
    match response {
        Response::SessionUpdate(update) => Ok(LiveEvent::Update(*update)),
        Response::SessionClosed { version } => Ok(LiveEvent::Closed { version }),
        Response::Error(e) => Ok(LiveEvent::Error(e)),
        other => Err(ClientError::BadReply(format!(
            "unexpected push frame: {other:?}"
        ))),
    }
}

/// The client-side state of one open session: the layer lists as of the
/// last applied update, plus the version counter that proves no push
/// was lost or duplicated.
#[derive(Clone, Debug)]
pub struct Session {
    id: Json,
    version: u64,
    digest: String,
    layers: Vec<Vec<u32>>,
}

impl Session {
    /// Wraps the result of [`LiveConn::open`].
    pub fn new(id: Json, version: u64, base: &LayoutReply) -> Session {
        Session {
            id,
            version,
            digest: base.digest.clone(),
            layers: base.layers.clone(),
        }
    }

    /// The session's envelope id.
    pub fn id(&self) -> &Json {
        &self.id
    }

    /// The last applied version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The digest of the session's current graph (a valid
    /// `layout_delta` base after the session ends).
    pub fn digest(&self) -> &str {
        &self.digest
    }

    /// The layer lists as of the last applied update.
    pub fn layers(&self) -> &[Vec<u32>] {
        &self.layers
    }

    /// Applies one pushed update: enforces the version contract
    /// (`update.version == version + 1` — anything else means the
    /// stream lost, duplicated, or reordered a push), truncates or
    /// extends to `height`, and overwrites the changed layers.
    pub fn apply_update(&mut self, update: &SessionUpdate) -> Result<(), String> {
        if update.version != self.version + 1 {
            return Err(format!(
                "session {}: update version {} after {} (a push was lost or duplicated)",
                self.id.encode(),
                update.version,
                self.version
            ));
        }
        self.layers.resize(update.height as usize, Vec::new());
        for (idx, ids) in &update.changed {
            let idx = *idx as usize;
            if idx >= self.layers.len() {
                return Err(format!(
                    "session {}: changed layer {idx} above height {}",
                    self.id.encode(),
                    update.height
                ));
            }
            self.layers[idx] = ids.clone();
        }
        if self.layers.iter().any(Vec::is_empty) {
            return Err(format!(
                "session {}: update v{} left an empty layer",
                self.id.encode(),
                update.version
            ));
        }
        self.version = update.version;
        self.digest = update.digest.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_reply() -> LayoutReply {
        LayoutReply {
            digest: "a".repeat(32),
            source: "computed".into(),
            height: 2,
            width: 2.0,
            dummies: 0,
            reversed_edges: 0,
            stopped_early: false,
            seeded: false,
            certified: false,
            winner: None,
            members: vec![],
            compute_micros: 10,
            layers: vec![vec![0, 1], vec![2]],
        }
    }

    fn update(version: u64, height: u64, changed: Vec<(u32, Vec<u32>)>) -> SessionUpdate {
        SessionUpdate {
            version,
            digest: "b".repeat(32),
            source: "warm".into(),
            height,
            changed,
            coalesced: 0,
            refreshed: false,
            compute_micros: 5,
        }
    }

    #[test]
    fn updates_apply_changed_layers_and_track_versions() {
        let mut s = Session::new(Json::Num(1.0), 0, &base_reply());
        assert_eq!(s.version(), 0);
        // Grow by one layer; layer 1 changes.
        s.apply_update(&update(1, 3, vec![(1, vec![2, 3]), (2, vec![4])]))
            .unwrap();
        assert_eq!(s.version(), 1);
        assert_eq!(s.layers(), &[vec![0, 1], vec![2, 3], vec![4]]);
        assert_eq!(s.digest(), &"b".repeat(32));
        // Shrink back; the truncated layers just disappear.
        s.apply_update(&update(2, 2, vec![(1, vec![2])])).unwrap();
        assert_eq!(s.layers(), &[vec![0, 1], vec![2]]);
    }

    #[test]
    fn version_gaps_and_repeats_are_rejected() {
        let mut s = Session::new(Json::Num(1.0), 0, &base_reply());
        let err = s.apply_update(&update(2, 2, vec![])).unwrap_err();
        assert!(err.contains("lost or duplicated"), "{err}");
        s.apply_update(&update(1, 2, vec![])).unwrap();
        let err = s.apply_update(&update(1, 2, vec![])).unwrap_err();
        assert!(err.contains("lost or duplicated"), "{err}");
    }

    #[test]
    fn malformed_updates_are_rejected() {
        let mut s = Session::new(Json::Num(1.0), 0, &base_reply());
        // A changed index above the new height.
        let err = s
            .apply_update(&update(1, 2, vec![(5, vec![9])]))
            .unwrap_err();
        assert!(err.contains("above height"), "{err}");
        // Growth without membership for the new layer leaves it empty.
        let err = s.apply_update(&update(1, 4, vec![])).unwrap_err();
        assert!(err.contains("empty layer"), "{err}");
    }
}
