//! Blocking event-loop TCP frontend over [`ServeCore`].
//!
//! One I/O thread owns the listener and every connection. Sockets are
//! nonblocking; the thread blocks in `poll(2)` with no timeout over the
//! listener, a waker descriptor and every connection, and runs only
//! when one of them has work: a client connected, request bytes
//! arrived, a socket that refused bytes can take them again, or a
//! worker finished a request and rang the waker. There is no idle
//! sleep and no polling of tickets, so an idle server performs no
//! passes at all and a reply leaves as soon as it exists.
//!
//! Interest is level-triggered and follows backpressure: a connection
//! is polled for input only while it may read — fewer than
//! `MAX_INFLIGHT_PER_CONN` replies owed, less than `MAX_WRITE_BUFFER`
//! unsent, less than `MAX_READ_BUFFER` unparsed, peer still open — and
//! for output only while it has unsent bytes. A client that pipelines
//! without reading therefore stalls itself, costs the loop nothing
//! while stalled, and resumes when it reads.
//!
//! Submission is pipelined: a connection keeps admitting requests while
//! earlier tickets are still in flight. Replies to one connection are
//! always written in request order; a reply with nothing owed before it
//! is encoded straight into the connection's write buffer.
//!
//! Two wire formats share the frontend: the compact length-prefixed
//! binary protocol of [`crate::binwire`] (the default) and the
//! JSON-lines protocol of [`crate::wire`] (kept for debugging — pass
//! [`WireFormat::Json`] or `--wire json` on the bench CLI).
//!
//! Unix only: readiness is `poll(2)`, declared here against the C
//! library std already links, and the waker is a
//! [`std::os::unix::net::UnixStream`] pair.

use std::collections::VecDeque;
use std::ffi::c_int;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::binwire;
use crate::core::{Reply, ServeCore, Ticket};
use crate::error::ServeError;
use crate::wire::{self, StatsView, WireRequest};

/// In-flight requests per connection before the loop stops reading from
/// its socket (kernel backpressure toward the client).
const MAX_INFLIGHT_PER_CONN: usize = 256;

/// Pending write bytes per connection before reading pauses.
const MAX_WRITE_BUFFER: usize = 4 << 20;

/// Read-buffer bytes per connection before reading pauses (a single
/// frame may legitimately be large; this caps *unparsed* backlog).
const MAX_READ_BUFFER: usize = binwire::MAX_FRAME_LEN + (16 << 10);

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks, with no timeout, until at least one of `fds` is ready.
fn wait_ready(fds: &mut [PollFd]) -> std::io::Result<()> {
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // records laid out as `struct pollfd`, and `nfds` is its length;
        // `poll` reads `fd`/`events` and writes only `revents` of those
        // records, all before it returns.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, -1) };
        if ready >= 0 {
            return Ok(());
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The I/O thread's doorbell: a nonblocking socket pair whose read end
/// sits in the event loop's poll set. Rings coalesce — only the ring
/// that finds the bell silent writes a byte — so a burst of completions
/// costs one syscall and one wakeup.
pub(crate) struct Waker {
    tx: UnixStream,
    rx: UnixStream,
    rung: AtomicBool,
}

impl Waker {
    fn new() -> std::io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Self {
            tx,
            rx,
            rung: AtomicBool::new(false),
        })
    }

    /// Makes the event loop run a pass. Whatever the caller published
    /// before this call (a reply on a ticket, the shutdown flag) is
    /// visible to that pass: either this ring writes the byte that wakes
    /// the loop, or the bell was already rung and the loop has yet to
    /// [`Self::silence`] it — which it does before it looks.
    pub(crate) fn wake(&self) {
        if !self.rung.swap(true, Ordering::SeqCst) {
            // Cannot fill up: at most one byte is ever outstanding.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Event-loop side: swallows the byte, then re-arms the bell. The
    /// caller must scan for completed work only *after* this returns, so
    /// a completion racing the scan rings again instead of being lost.
    fn silence(&self) {
        let mut byte = [0u8; 8];
        let _ = (&self.rx).read(&mut byte);
        self.rung.store(false, Ordering::SeqCst);
    }
}

/// Which wire protocol a server speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// Length-prefixed binary frames ([`crate::binwire`]) — the default.
    Binary,
    /// JSON-lines ([`crate::wire`]) — debugging and manual poking.
    Json,
}

impl WireFormat {
    /// Parses the CLI spelling (`"binary"` or `"json"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "binary" | "bin" => Some(WireFormat::Binary),
            "json" => Some(WireFormat::Json),
            _ => None,
        }
    }
}

/// Snapshot of the core's counters for a stats reply.
pub fn stats_view(core: &ServeCore) -> StatsView {
    let cache = core.cache_stats();
    let plan = core.plan_source_counts();
    let shard = core.shard_stats();
    let dispatch = core.dispatch_counts();
    let durable = core.durable_stats();
    StatsView {
        queue_depth: core.queue_depth(),
        shed: core.shed_count(),
        degrade_level: core.degrade_level(),
        max_degrade_level: core.max_degrade_level(),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        plan_scratch: plan.scratch,
        plan_cached: plan.cached,
        plan_incremental: plan.incremental,
        plan_fallbacks: plan.fallbacks,
        dispatch_dense: dispatch.dense,
        dispatch_spmm: dispatch.spmm,
        dispatch_delta_skip: dispatch.delta_skip,
        dispatch_density: core.dispatch_density(),
        shard_routed: shard.routed,
        shard_queue_depths: shard.queue_depths,
        cross_shard_edges: shard.cross_shard_edges,
        durability_enabled: durable.enabled,
        wal_appends: durable.wal_appends,
        wal_fsyncs: durable.wal_fsyncs,
        checkpoints_written: durable.checkpoints_written,
        replayed_events: durable.replayed_events,
        replay_us: durable.replay_us,
        truncated_tail_bytes: durable.truncated_tail_bytes,
    }
}

/// State shared between a [`Server`] handle and its I/O thread.
struct Shared {
    shutdown: AtomicBool,
    active: AtomicUsize,
    wakeups: AtomicU64,
    waker: Arc<Waker>,
}

/// A running TCP server.
pub struct Server {
    addr: SocketAddr,
    core: Arc<ServeCore>,
    shared: Arc<Shared>,
    io: Option<JoinHandle<()>>,
    wire: WireFormat,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) speaking
    /// the default binary protocol.
    pub fn bind(core: ServeCore, addr: &str) -> std::io::Result<Self> {
        Self::bind_with(core, addr, WireFormat::Binary)
    }

    /// Binds `addr` speaking `wire`.
    pub fn bind_with(core: ServeCore, addr: &str, wire: WireFormat) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let core = Arc::new(core);
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            wakeups: AtomicU64::new(0),
            waker: Arc::new(Waker::new()?),
        });
        let io = {
            let core = Arc::clone(&core);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tagnn-serve-io".into())
                .spawn(move || event_loop(&listener, &core, &shared, wire))
                .expect("spawn io loop")
        };
        Ok(Self {
            addr,
            core,
            shared,
            io: Some(io),
            wire,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wire format this server speaks.
    pub fn wire_format(&self) -> WireFormat {
        self.wire
    }

    /// The serving core behind this frontend (for stats/bench readouts).
    pub fn core(&self) -> &ServeCore {
        &self.core
    }

    /// Connections the event loop is currently tracking. Bounded server
    /// state: this returns to zero once clients disconnect and their
    /// replies flush — nothing accumulates per past connection.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Passes the event loop has run since boot: one per return from its
    /// blocking `poll(2)`. It stays flat while the server is idle and
    /// while every connection is stalled on its own backpressure.
    pub fn io_wakeups(&self) -> u64 {
        self.shared.wakeups.load(Ordering::Relaxed)
    }

    /// Stops the I/O loop (draining in-flight replies onto their
    /// sockets), then shuts the core down.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
        if let Ok(core) = Arc::try_unwrap(self.core) {
            core.shutdown();
        }
    }
}

/// What a connection owes its client, in request order.
enum Outgoing {
    /// Encoded reply bytes queued behind an unresolved ticket.
    Ready(Vec<u8>),
    /// A ticket still in flight; encoded when it resolves.
    Infer(u64, Ticket),
}

/// A reply before it is encoded.
enum Response<'a> {
    Reply(&'a Reply),
    Error(&'a ServeError),
    Stats(&'a StatsView),
    Pong,
}

/// Appends `resp` to `out` in the wire format `fmt`.
fn encode_response(out: &mut Vec<u8>, fmt: WireFormat, id: u64, resp: Response<'_>) {
    match fmt {
        WireFormat::Binary => match resp {
            Response::Reply(reply) => binwire::encode_reply(out, id, reply),
            Response::Error(err) => binwire::encode_error(out, id, err),
            Response::Stats(stats) => binwire::encode_stats(out, id, stats),
            Response::Pong => binwire::encode_pong(out, id),
        },
        WireFormat::Json => {
            let line = match resp {
                Response::Reply(reply) => wire::encode_reply(id, reply),
                Response::Error(err) => wire::encode_error(id, err),
                Response::Stats(stats) => wire::encode_stats(id, stats),
                Response::Pong => wire::encode_pong(id),
            };
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
    }
}

fn encode_outcome(
    out: &mut Vec<u8>,
    fmt: WireFormat,
    id: u64,
    outcome: &Result<Reply, ServeError>,
) {
    let resp = match outcome {
        Ok(reply) => Response::Reply(reply),
        Err(err) => Response::Error(err),
    };
    encode_response(out, fmt, id, resp);
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes at the front of `wbuf` the socket has already taken.
    wpos: usize,
    outgoing: VecDeque<Outgoing>,
    /// Peer sent EOF or committed a fatal framing error: stop reading,
    /// flush what is owed, then drop.
    peer_closed: bool,
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            outgoing: VecDeque::new(),
            peer_closed: false,
            dead: false,
        }
    }

    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether the connection may take more input: the peer is still
    /// there and no backpressure cap is hit.
    fn wants_read(&self) -> bool {
        !self.peer_closed
            && self.outgoing.len() < MAX_INFLIGHT_PER_CONN
            && self.unsent() < MAX_WRITE_BUFFER
            && self.rbuf.len() < MAX_READ_BUFFER
    }

    /// The events to poll this connection for. Level-triggered, so it
    /// must name only what [`service`] would act on, or the loop spins.
    fn interest(&self) -> i16 {
        let mut events = 0;
        if self.wants_read() {
            events |= POLLIN;
        }
        if self.unsent() > 0 {
            events |= POLLOUT;
        }
        events
    }

    /// Whether a finished ticket could move this connection forward.
    fn awaits_ticket(&self) -> bool {
        matches!(self.outgoing.front(), Some(Outgoing::Infer(..)))
    }

    /// Queues a reply that needs no ticket: straight into the write
    /// buffer when nothing is owed before it, else behind the tickets.
    fn respond(&mut self, fmt: WireFormat, id: u64, resp: Response<'_>) {
        if self.outgoing.is_empty() {
            encode_response(&mut self.wbuf, fmt, id, resp);
        } else {
            let mut bytes = Vec::new();
            encode_response(&mut bytes, fmt, id, resp);
            self.outgoing.push_back(Outgoing::Ready(bytes));
        }
    }
}

/// What every pass needs besides the connection it is servicing.
struct LoopCtx<'a> {
    core: &'a ServeCore,
    waker: &'a Arc<Waker>,
    fmt: WireFormat,
}

/// Turns one parsed request (or parse failure, which still carries the
/// best-effort id) into the connection's next outgoing item.
fn handle_request(
    conn: &mut Conn,
    parsed: Result<WireRequest, (u64, ServeError)>,
    ctx: &LoopCtx<'_>,
) {
    match parsed {
        Ok(WireRequest::Infer { id, req }) => match ctx.core.submit_waking(req, ctx.waker) {
            Ok(ticket) => conn.outgoing.push_back(Outgoing::Infer(id, ticket)),
            Err(e) => conn.respond(ctx.fmt, id, Response::Error(&e)),
        },
        Ok(WireRequest::Stats { id }) => {
            conn.respond(ctx.fmt, id, Response::Stats(&stats_view(ctx.core)))
        }
        Ok(WireRequest::Ping { id }) => conn.respond(ctx.fmt, id, Response::Pong),
        Err((id, e)) => conn.respond(ctx.fmt, id, Response::Error(&e)),
    }
}

/// Handles every complete binary frame in the read buffer, advancing a
/// cursor and compacting the buffer once at the end. A framing error
/// (bad length/version — the byte stream is unrecoverable) answers with
/// an error frame and closes after flushing.
fn parse_binary(conn: &mut Conn, ctx: &LoopCtx<'_>) {
    let mut pos = 0;
    loop {
        let parsed = match binwire::try_decode_frame(&conn.rbuf[pos..]) {
            Ok(None) => break,
            Ok(Some(frame)) => {
                pos += frame.consumed;
                binwire::decode_request(&frame)
            }
            Err(e) => {
                conn.respond(ctx.fmt, 0, Response::Error(&e));
                conn.peer_closed = true;
                pos = conn.rbuf.len();
                break;
            }
        };
        handle_request(conn, parsed, ctx);
    }
    conn.rbuf.drain(..pos);
}

/// Handles every complete JSON line in the read buffer (same cursor
/// discipline). Malformed lines are answered (with the best-effort id)
/// and the connection survives.
fn parse_json(conn: &mut Conn, ctx: &LoopCtx<'_>) {
    let mut pos = 0;
    while let Some(len) = conn.rbuf[pos..].iter().position(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(&conn.rbuf[pos..pos + len]);
        let parsed = Some(line.trim())
            .filter(|line| !line.is_empty())
            .map(wire::parse_request);
        pos += len + 1;
        if let Some(parsed) = parsed {
            handle_request(conn, parsed, ctx);
        }
    }
    conn.rbuf.drain(..pos);
}

/// One pass over a connection: read and parse if its socket reported
/// input, move resolved tickets from the front of the queue into the
/// write buffer, and write as much as the socket takes.
fn service(conn: &mut Conn, readable: bool, ctx: &LoopCtx<'_>) {
    if readable {
        let mut chunk = [0u8; 16384];
        while conn.wants_read() {
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.peer_closed = true,
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    // A short read drained the socket; if more arrives,
                    // level-triggered poll says so.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        match ctx.fmt {
            WireFormat::Binary => parse_binary(conn, ctx),
            WireFormat::Json => parse_json(conn, ctx),
        }
    }

    // Resolve finished tickets at the queue front — replies stay in
    // request order; an unresolved ticket blocks those behind it.
    while let Some(front) = conn.outgoing.front() {
        match front {
            Outgoing::Ready(bytes) => conn.wbuf.extend_from_slice(bytes),
            Outgoing::Infer(id, ticket) => match ticket.try_wait() {
                None => break,
                Some(outcome) => encode_outcome(&mut conn.wbuf, ctx.fmt, *id, &outcome),
            },
        }
        conn.outgoing.pop_front();
    }

    // Write as much as the socket accepts; the taken prefix is cut off
    // when everything went out or it outgrows what is left.
    while conn.unsent() > 0 {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    if conn.wpos > conn.unsent() {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }

    if conn.peer_closed && conn.outgoing.is_empty() && conn.unsent() == 0 {
        conn.dead = true;
    }
}

fn event_loop(listener: &TcpListener, core: &ServeCore, shared: &Shared, fmt: WireFormat) {
    let waker = &shared.waker;
    let ctx = LoopCtx { core, waker, fmt };
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // Cleared by an `accept` that fails for want of resources (EMFILE):
    // the listener would stay readable and spin the loop, so it sits out
    // one poll — by the next pass a descriptor may have been freed.
    let mut accepting = true;
    loop {
        fds.clear();
        fds.push(PollFd::new(waker.rx.as_raw_fd(), POLLIN));
        let listen = if accepting { POLLIN } else { 0 };
        fds.push(PollFd::new(listener.as_raw_fd(), listen));
        fds.extend(
            conns
                .iter()
                .map(|c| PollFd::new(c.stream.as_raw_fd(), c.interest())),
        );
        wait_ready(&mut fds).expect("poll(2) over the server's own descriptors");
        shared.wakeups.fetch_add(1, Ordering::Relaxed);

        let rung = fds[0].revents != 0;
        if rung {
            waker.silence();
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            drain_on_shutdown(conns, fmt);
            shared.active.store(0, Ordering::Relaxed);
            return;
        }

        for (conn, fd) in conns.iter_mut().zip(&fds[2..]) {
            if fd.revents & !(POLLIN | POLLOUT) != 0 {
                // POLLERR/POLLHUP/POLLNVAL: reset or fully closed — no
                // reply can reach this peer any more.
                conn.dead = true;
            } else if fd.revents != 0 || (rung && conn.awaits_ticket()) {
                service(conn, fd.revents & POLLIN != 0, &ctx);
            }
        }
        conns.retain(|c| !c.dead);

        accepting = true;
        if fds[1].revents != 0 {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        conns.push(Conn::new(stream));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                        ) => {}
                    Err(_) => {
                        accepting = false;
                        break;
                    }
                }
            }
        }
        shared.active.store(conns.len(), Ordering::Relaxed);
    }
}

/// On shutdown, every connection's in-flight tickets still complete:
/// wait them out, encode, and push the bytes with blocking writes so no
/// accepted request vanishes without a reply.
fn drain_on_shutdown(conns: Vec<Conn>, fmt: WireFormat) {
    for mut conn in conns {
        let _ = conn.stream.set_nonblocking(false);
        for out in conn.outgoing.drain(..) {
            match out {
                Outgoing::Ready(bytes) => conn.wbuf.extend_from_slice(&bytes),
                Outgoing::Infer(id, ticket) => {
                    encode_outcome(&mut conn.wbuf, fmt, id, &ticket.wait())
                }
            }
        }
        let _ = conn.stream.write_all(&conn.wbuf[conn.wpos..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use crate::core::InferRequest;
    use crate::event::EdgeEvent;
    use std::io::{BufRead, BufReader};
    use std::time::Duration;

    /// Blocking client-side frame reader. Pipelined replies can coalesce
    /// into one TCP segment, so leftover bytes carry across calls.
    struct FrameReader {
        buf: Vec<u8>,
    }

    impl FrameReader {
        fn new() -> Self {
            FrameReader { buf: Vec::new() }
        }

        fn next(&mut self, stream: &mut TcpStream) -> (u8, u64, Vec<u8>) {
            let mut chunk = [0u8; 4096];
            loop {
                if let Some(frame) = binwire::try_decode_frame(&self.buf).expect("well-formed") {
                    let out = (frame.kind, frame.id, frame.body.to_vec());
                    self.buf.drain(..frame.consumed);
                    return out;
                }
                let n = stream.read(&mut chunk).expect("server open");
                assert!(n > 0, "server closed mid-frame");
                self.buf.extend_from_slice(&chunk[..n]);
            }
        }
    }

    fn read_frame(stream: &mut TcpStream) -> (u8, u64, Vec<u8>) {
        FrameReader::new().next(stream)
    }

    #[test]
    fn binary_ping_stats_infer_over_loopback() {
        let core = ServeCore::start(ServeConfig::default());
        let server = Server::bind(core, "127.0.0.1:0").unwrap();
        assert_eq!(server.wire_format(), WireFormat::Binary);
        let addr = server.local_addr();

        let mut conn = TcpStream::connect(addr).unwrap();
        let mut out = Vec::new();
        binwire::encode_ping(&mut out, 1);
        conn.write_all(&out).unwrap();
        let (kind, id, _) = read_frame(&mut conn);
        assert_eq!((kind, id), (binwire::kind::PONG, 1));

        // Two ticks on K=4: events accumulate, no window yet.
        let events = [EdgeEvent::AddEdge { src: 0, dst: 1 }, EdgeEvent::Tick];
        let mut out = Vec::new();
        binwire::encode_infer(&mut out, 2, 0, &events, false);
        conn.write_all(&out).unwrap();
        let (kind, id, body) = read_frame(&mut conn);
        assert_eq!((kind, id), (binwire::kind::INFER_REPLY, 2));
        let reply = binwire::decode_reply(&body).unwrap();
        assert_eq!(reply.accepted_events, 2);
        assert!(reply.windows.is_empty());

        // Flush seals the tail into a window.
        let mut out = Vec::new();
        binwire::encode_infer(&mut out, 3, 0, &[EdgeEvent::Tick], true);
        conn.write_all(&out).unwrap();
        let (_, _, body) = read_frame(&mut conn);
        let reply = binwire::decode_reply(&body).unwrap();
        assert_eq!(reply.windows.len(), 1);
        assert_eq!(reply.windows[0].snapshots, 2);

        let mut out = Vec::new();
        binwire::encode_stats_request(&mut out, 4);
        conn.write_all(&out).unwrap();
        let (kind, _, body) = read_frame(&mut conn);
        assert_eq!(kind, binwire::kind::STATS_REPLY);
        let stats = binwire::decode_stats(&body).unwrap();
        assert_eq!(
            stats.shard_routed.len(),
            server.core().config().shards,
            "stats must expose per-shard counters"
        );

        drop(conn);
        server.shutdown();
    }

    #[test]
    fn binary_pipelined_requests_reply_in_order() {
        let core = ServeCore::start(ServeConfig::default());
        let server = Server::bind(core, "127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();

        // Fire an infer and two pings back to back without reading.
        let mut out = Vec::new();
        binwire::encode_infer(&mut out, 10, 0, &[EdgeEvent::Tick], false);
        binwire::encode_ping(&mut out, 11);
        binwire::encode_ping(&mut out, 12);
        conn.write_all(&out).unwrap();
        let mut reader = FrameReader::new();
        let ids: Vec<u64> = (0..3).map(|_| reader.next(&mut conn).1).collect();
        assert_eq!(ids, vec![10, 11, 12], "replies must keep request order");
        drop(conn);
        server.shutdown();
    }

    #[test]
    fn binary_framing_error_answers_then_closes() {
        let core = ServeCore::start(ServeConfig::default());
        let server = Server::bind(core, "127.0.0.1:0").unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        // A frame with a stomped version byte: unrecoverable framing.
        let mut out = Vec::new();
        binwire::encode_ping(&mut out, 1);
        out[4] = 99;
        conn.write_all(&out).unwrap();
        let (kind, _, body) = read_frame(&mut conn);
        assert_eq!(kind, binwire::kind::ERROR);
        let (code, _) = binwire::decode_error(&body).unwrap();
        assert_eq!(code, "protocol");
        // ...and the server hangs up.
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        server.shutdown();
    }

    #[test]
    fn json_mode_still_speaks_lines() {
        let core = ServeCore::start(ServeConfig::default());
        let server = Server::bind_with(core, "127.0.0.1:0", WireFormat::Json).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();

        conn.write_all(b"{\"id\":1,\"type\":\"ping\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"pong\":true"), "got {line}");

        // Malformed line yields a typed protocol error; connection lives,
        // and a parseable id on an invalid body is echoed back.
        line.clear();
        conn.write_all(b"this is not json\n").unwrap();
        reader.read_line(&mut line).unwrap();
        let doc = crate::json::parse(line.trim()).unwrap();
        assert_eq!(doc.get("error").unwrap().as_str(), Some("protocol"));
        assert_eq!(doc.get("id").unwrap().as_u64(), Some(0));

        line.clear();
        conn.write_all(b"{\"id\":42,\"type\":\"infer\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        let doc = crate::json::parse(line.trim()).unwrap();
        assert_eq!(doc.get("error").unwrap().as_str(), Some("protocol"));
        assert_eq!(
            doc.get("id").unwrap().as_u64(),
            Some(42),
            "body errors must echo the request id"
        );

        line.clear();
        conn.write_all(b"{\"id\":5,\"type\":\"ping\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"pong\""), "connection must survive");

        drop(conn);
        drop(reader);
        server.shutdown();
    }

    #[test]
    fn submit_still_works_through_core_reference() {
        let core = ServeCore::start(ServeConfig::default());
        let server = Server::bind(core, "127.0.0.1:0").unwrap();
        let reply = server
            .core()
            .submit(InferRequest {
                stream: 0,
                events: vec![EdgeEvent::Tick],
                flush: false,
            })
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(reply.accepted_events, 1);
        server.shutdown();
    }

    #[test]
    fn many_short_connections_leave_no_residue() {
        // Regression for the connection-handle leak: the old frontend
        // pushed one JoinHandle per connection into a vec it never
        // drained, so every past connection cost memory until shutdown.
        // The event loop tracks only live connections.
        let core = ServeCore::start(ServeConfig::default());
        let server = Server::bind(core, "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        for i in 0..100u64 {
            let mut conn = TcpStream::connect(addr).unwrap();
            let mut out = Vec::new();
            binwire::encode_ping(&mut out, i);
            conn.write_all(&out).unwrap();
            let (kind, id, _) = read_frame(&mut conn);
            assert_eq!((kind, id), (binwire::kind::PONG, i));
        }
        // All 100 connections are closed; the loop must notice and drop
        // them (bounded state), even though no new connection arrives.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.active_connections() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "stale connections: {}",
                server.active_connections()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
    }
}
