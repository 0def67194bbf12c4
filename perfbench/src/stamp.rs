//! The benchmark's [`ConcurrentBackend`]: the sharded engine behind the
//! repository's first-match driver, with every engine call stamped.
//!
//! The driver calls the backend once per engine operation, so request
//! boundaries are recovered here, per client thread: a request opens
//! at its first call (a tracking sweep the driver runs before the
//! request, or its first search) and closes when a booking succeeds or
//! a ride creation returns. Its *decision latency* runs from its first
//! search to that close.
//!
//! **Pacing.** The driver deals trips round-robin but does not keep its
//! clients in step, so one client can run far ahead of the other in
//! simulated time; how far depends on scheduling, and it changed the
//! share rate and the cost of a replay from run to run. The backend
//! therefore starts a client's request only once every other client has
//! reached the request `PACE_SLACK` positions earlier in the stream (a
//! client that has finished its slice never holds anyone back). The
//! wait precedes the request's first search, so it is not part of the
//! decision latency; traced, it is the request's `pace` child.
//!
//! Untraced, a call costs two clock reads and two uncontended locks of
//! the client's own log. Traced, every call also becomes a child span
//! of the request's root span, kept in memory in the client's log;
//! roots and children share the request id.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use xar_core::{Reason, RideMatch, SearchExplain, ShardedXarEngine};
use xar_obs::Registry;
use xar_workload::{BookResult, Candidate, ConcurrentBackend, ShardedXarBackend, SimConfig, Trip};

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A whole request (the root).
    Request,
    /// `search_into_explained`.
    Search,
    /// `book_checked`.
    Book,
    /// `create_ride`.
    Create,
    /// `track_all`.
    Track,
    /// Waiting for the other clients to catch up (see the module docs).
    Pace,
}

impl Kind {
    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Request => "request",
            Kind::Search => "search",
            Kind::Book => "book",
            Kind::Create => "create",
            Kind::Track => "track",
            Kind::Pace => "pace",
        }
    }
}

/// One span. Every child's parent is the root span of its request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request id, shared by the root and its children.
    pub req: u64,
    /// What was timed.
    pub kind: Kind,
    /// Start, nanoseconds since the backend's anchor.
    pub start_ns: u64,
    /// End, nanoseconds since the backend's anchor.
    pub end_ns: u64,
    /// Search: candidates examined. Book: 1 if the booking failed.
    pub arg: u32,
    /// Search only: matches returned.
    pub matches: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The request a client has open.
struct Open {
    req: u64,
    /// Index of the root span in `ClientLog::spans` (traced only).
    root: usize,
    /// First search of the request, when it has had one.
    decided_from: Option<Instant>,
    /// Position of the request's trip in the stream.
    pos: usize,
}

/// One client thread's record of a replay.
#[derive(Default)]
pub struct ClientLog {
    open: Option<Open>,
    next_req: u64,
    /// Decision latency of every closed request, nanoseconds.
    pub decision_ns: Vec<u64>,
    /// Requests whose search the engine refused with an error.
    pub search_errors: u64,
    /// Spans of this client, in call order (traced only).
    pub spans: Vec<Span>,
}

/// How many stream positions a client may run ahead of the slowest
/// other client.
const PACE_SLACK: usize = 16;

/// A client's stream position once it has finished its slice.
const DONE: usize = usize::MAX;

static BACKEND_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(backend id, slot)` this thread last bound to.
    static SLOT: Cell<(u64, usize)> = const { Cell::new((u64::MAX, 0)) };
}

/// The repository's [`ShardedXarBackend`] (which calls
/// `ShardedXarEngine::{search_into_explained, book_checked, create_ride,
/// track_all}`), stamping each call.
pub struct Stamped {
    inner: ShardedXarBackend,
    traced: bool,
    anchor: Instant,
    id: u64,
    next_slot: AtomicUsize,
    slots: Vec<Mutex<ClientLog>>,
    /// Stream position of each trip id.
    position: HashMap<u64, usize>,
    /// Stream position of each slot's current request (`DONE` after
    /// its last).
    at: Vec<AtomicUsize>,
}

impl Stamped {
    /// Wrap `engine` for `clients` client threads replaying `trips`.
    pub fn new(engine: ShardedXarEngine, trips: &[Trip], clients: usize, traced: bool) -> Self {
        let clients = clients.max(1);
        Self {
            inner: ShardedXarBackend::new(engine),
            traced,
            anchor: Instant::now(),
            id: BACKEND_SEQ.fetch_add(1, Ordering::Relaxed),
            next_slot: AtomicUsize::new(0),
            slots: (0..clients)
                .map(|_| Mutex::new(ClientLog::default()))
                .collect(),
            position: trips.iter().enumerate().map(|(i, t)| (t.id, i)).collect(),
            at: (0..clients).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// The per-client logs, slot order (slot = order of first call).
    pub fn into_logs(self) -> (ShardedXarEngine, Vec<ClientLog>) {
        let logs = self
            .slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("a client thread panicked while logging")
            })
            .collect();
        (self.inner.engine, logs)
    }

    /// This thread's log; binds the thread to a free slot on first use.
    fn log(&self) -> (usize, MutexGuard<'_, ClientLog>) {
        let slot = SLOT.with(|s| {
            let (id, slot) = s.get();
            if id == self.id {
                return slot;
            }
            let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
            s.set((self.id, slot));
            slot
        });
        let guard = self
            .slots
            .get(slot)
            .expect("more client threads than the backend was sized for")
            .lock()
            .expect("a client thread panicked while logging");
        (slot, guard)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.anchor).as_nanos() as u64
    }

    /// Open a request if none is open; `search` marks the start of the
    /// decision latency.
    fn begin(&self, slot: usize, log: &mut ClientLog, t: Instant, search: bool) {
        if log.open.is_none() {
            let req = ((slot as u64) << 48) | log.next_req;
            log.next_req += 1;
            let root = log.spans.len();
            if self.traced {
                let start_ns = self.ns(t);
                log.spans.push(Span {
                    req,
                    kind: Kind::Request,
                    start_ns,
                    end_ns: start_ns,
                    arg: 0,
                    matches: 0,
                });
            }
            log.open = Some(Open {
                req,
                root,
                decided_from: None,
                pos: 0,
            });
        }
        if search {
            let open = log.open.as_mut().expect("opened above");
            open.decided_from.get_or_insert(t);
        }
    }

    /// Record a child span of the open request (traced only).
    fn child(
        &self,
        log: &mut ClientLog,
        kind: Kind,
        t0: Instant,
        t1: Instant,
        arg: u32,
        matches: u32,
    ) {
        if self.traced {
            let req = log.open.as_ref().map_or(u64::MAX, |o| o.req);
            log.spans.push(Span {
                req,
                kind,
                start_ns: self.ns(t0),
                end_ns: self.ns(t1),
                arg,
                matches,
            });
        }
    }

    /// Publish that `slot` is at stream position `pos`, then wait until
    /// no other client is more than [`PACE_SLACK`] positions behind it.
    fn pace(&self, slot: usize, pos: usize) {
        // Release/Acquire: a client that sees another's position also
        // sees everything that client did before publishing it.
        self.at[slot].store(pos, Ordering::Release);
        let floor = pos.saturating_sub(PACE_SLACK);
        while self.at.iter().any(|a| a.load(Ordering::Acquire) < floor) {
            std::thread::yield_now();
        }
    }

    /// Close the open request at `t`.
    fn finish(&self, slot: usize, log: &mut ClientLog, t: Instant) {
        let open = log.open.take().expect("a decision closes an open request");
        // Round-robin dealing: a client's next trip is `clients` further on.
        if open.pos + self.slots.len() >= self.position.len() {
            self.at[slot].store(DONE, Ordering::Release);
        }
        let from = open.decided_from.expect("every decision follows a search");
        log.decision_ns
            .push(t.duration_since(from).as_nanos() as u64);
        if self.traced {
            log.spans[open.root].end_ns = self.ns(t);
        }
    }
}

impl ConcurrentBackend for Stamped {
    type Match = RideMatch;

    fn search(&self, trip: &Trip, cfg: &SimConfig) -> Vec<RideMatch> {
        self.search_explained(trip, cfg).0
    }

    fn search_explained(&self, trip: &Trip, cfg: &SimConfig) -> (Vec<RideMatch>, SearchExplain) {
        let tw = Instant::now();
        let (slot, first) = {
            let (slot, mut log) = self.log();
            self.begin(slot, &mut log, tw, false);
            (
                slot,
                log.open.as_ref().is_some_and(|o| o.decided_from.is_none()),
            )
        };
        let pos = *self
            .position
            .get(&trip.id)
            .expect("the trip is in the replayed stream");
        if first {
            self.pace(slot, pos);
        }
        let t0 = Instant::now();
        {
            let (_, mut log) = self.log();
            if first {
                self.child(&mut log, Kind::Pace, tw, t0, 0, 0);
                log.open.as_mut().expect("opened above").pos = pos;
            }
            self.begin(slot, &mut log, t0, true);
        }
        let (out, explain) = self.inner.search_explained(trip, cfg);
        let t1 = Instant::now();
        let (_, mut log) = self.log();
        // The engine sets `hard` exactly when it refuses the request;
        // count each refused request once, not once per look.
        if first && explain.hard.is_some() {
            log.search_errors += 1;
        }
        self.child(
            &mut log,
            Kind::Search,
            t0,
            t1,
            explain.candidates,
            out.len() as u32,
        );
        (out, explain)
    }

    fn book(&self, m: &RideMatch, cfg: &SimConfig) -> BookResult {
        self.book_checked(m, cfg)
    }

    fn book_checked(&self, m: &RideMatch, cfg: &SimConfig) -> BookResult {
        let t0 = Instant::now();
        let res = self.inner.book_checked(m, cfg);
        let t1 = Instant::now();
        let (slot, mut log) = self.log();
        let booked = matches!(res, BookResult::Booked { .. });
        self.child(&mut log, Kind::Book, t0, t1, u32::from(!booked), 0);
        if booked {
            self.finish(slot, &mut log, t1);
        }
        res
    }

    fn describe(m: &RideMatch) -> Candidate {
        ShardedXarBackend::describe(m)
    }

    fn create(&self, trip: &Trip, cfg: &SimConfig) -> Result<(), Reason> {
        let t0 = Instant::now();
        let res = self.inner.create(trip, cfg);
        let t1 = Instant::now();
        let (slot, mut log) = self.log();
        self.child(&mut log, Kind::Create, t0, t1, 0, 0);
        self.finish(slot, &mut log, t1);
        res
    }

    fn track(&self, now_s: f64) {
        let t0 = Instant::now();
        {
            let (slot, mut log) = self.log();
            self.begin(slot, &mut log, t0, false);
        }
        self.inner.track(now_s);
        let t1 = Instant::now();
        let (_, mut log) = self.log();
        self.child(&mut log, Kind::Track, t0, t1, 0, 0);
    }

    fn registry(&self) -> Option<Arc<Registry>> {
        self.inner.registry()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
