//! The TCP frontend blocks in `poll(2)` with no timeout, so two things
//! must hold that a sleep-polling loop got for free: it never spins
//! (level-triggered interest has to be dropped under backpressure) and
//! it never misses a wake (every completion path has to ring the
//! waker). Both are checked by counting event-loop passes
//! ([`Server::io_wakeups`]) and replies, not by timing; watchdogs turn
//! a hang into a fast failure.
//!
//! The blocking `queue-stress` CI job runs this file in release mode.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use tagnn_serve::binwire::{self, FrameReader};
use tagnn_serve::{EdgeEvent, ServeConfig, ServeCore, Server};

const WINDOW: usize = 3;

fn server() -> Server {
    let cfg = ServeConfig {
        window: WINDOW,
        queue_capacity: 1 << 16,
        ..ServeConfig::default()
    };
    Server::bind(ServeCore::start(cfg), "127.0.0.1:0").expect("bind an ephemeral port")
}

/// Polls `done` until it returns true or the deadline passes.
fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let limit = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < limit, "watchdog: {what} did not finish");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Runs `work` on its own thread and fails if it outlives `deadline`.
fn within<T: Send + 'static>(
    what: &str,
    deadline: Duration,
    work: impl FnOnce() -> T + Send + 'static,
) -> T {
    let handle = std::thread::spawn(work);
    wait_until(what, deadline, || handle.is_finished());
    handle.join().expect("watched thread panicked")
}

/// An infer request that seals one window (a full window of ticks).
fn window_request(out: &mut Vec<u8>, id: u64, stream: u64) {
    binwire::encode_infer(out, id, stream, &vec![EdgeEvent::Tick; WINDOW], false);
}

/// Reads `count` frames and returns their ids.
fn read_ids(conn: &mut TcpStream, frames: &mut FrameReader, count: usize) -> Vec<u64> {
    (0..count)
        .map(|_| {
            let (_, id, _) = frames
                .read_frame(conn)
                .expect("well-formed reply")
                .expect("server open");
            id
        })
        .collect()
}

/// Blocks until the event loop has made no pass for `quiet`, then
/// returns the pass count it settled at.
fn settled_wakeups(server: &Server, quiet: Duration) -> u64 {
    let mut last = server.io_wakeups();
    let mut since = Instant::now();
    wait_until("event loop to go quiet", Duration::from_secs(60), || {
        let now = server.io_wakeups();
        if now != last {
            last = now;
            since = Instant::now();
        }
        since.elapsed() >= quiet
    });
    last
}

#[test]
fn idle_server_with_open_connections_makes_no_passes() {
    let server = server();
    let conns: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    // `active_connections` is stored at the end of the pass that
    // accepted, so once it reads 2 nothing is left to wake the loop.
    wait_until("both accepts", Duration::from_secs(10), || {
        server.active_connections() == 2
    });
    let before = server.io_wakeups();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        server.io_wakeups(),
        before,
        "an idle server must block, not poll"
    );
    drop(conns);
    within("idle shutdown", Duration::from_secs(10), move || {
        server.shutdown()
    });
}

/// A client pipelines far more than the server may buffer and reads
/// nothing. The server must stop reading (write-buffer cap) and stop
/// asking to write (kernel send buffer full): zero passes while stalled.
/// Once the client reads, every reply arrives, in request order.
#[test]
fn backpressured_pipeliner_stalls_the_loop_then_drains() {
    const REQUESTS: u64 = 150_000;
    let server = server();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();

    // Mostly stats requests (14 bytes in, ~240 out); every 64th is an
    // infer sealing a window, so tickets interleave with ready replies
    // and the in-flight cap is in play while the worker catches up.
    let mut probe = Vec::new();
    binwire::encode_stats_request(&mut probe, 0);
    conn.write_all(&probe).unwrap();
    let mut frames = FrameReader::new();
    let (_, _, body) = frames.read_frame(&mut conn).unwrap().unwrap();
    let reply_bytes = body.len() as u64; // plus the frame header
    assert!(
        REQUESTS * reply_bytes > 24 << 20,
        "owed replies must exceed the 4 MiB write cap plus any loopback buffering"
    );

    let mut writer_conn = conn.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let mut out = Vec::new();
        for id in 0..REQUESTS {
            if id % 64 == 0 {
                window_request(&mut out, id, id % 16);
            } else {
                binwire::encode_stats_request(&mut out, id);
            }
            if out.len() >= 64 << 10 {
                writer_conn.write_all(&out).unwrap();
                out.clear();
            }
        }
        writer_conn.write_all(&out).unwrap();
    });

    // The client has read nothing since the probe, so when the loop goes
    // quiet it is stalled on backpressure with replies still owed...
    let stalled = settled_wakeups(&server, Duration::from_millis(300));
    // ...and must stay blocked: not one more pass.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        server.io_wakeups(),
        stalled,
        "a stalled connection must not wake the loop"
    );

    let ids = within("drain", Duration::from_secs(120), move || {
        let ids = read_ids(&mut conn, &mut frames, REQUESTS as usize);
        writer.join().expect("writer thread");
        ids
    });
    assert!(
        ids.iter().copied().eq(0..REQUESTS),
        "every reply, in request order"
    );
    assert!(
        server.io_wakeups() > stalled,
        "the drain ran through the loop"
    );
    server.shutdown();
}

/// Shutdown while replies are owed: every request the core admitted is
/// answered before the socket closes.
#[test]
fn shutdown_under_load_delivers_every_accepted_reply() {
    const REQUESTS: u64 = 300;
    let server = server();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    let mut out = Vec::new();
    for id in 0..REQUESTS {
        window_request(&mut out, id, id % 8);
    }
    conn.write_all(&out).unwrap();
    // All admitted (the counter is bumped by `submit`), none read back.
    wait_until("admission", Duration::from_secs(30), || {
        let trace = server.core().recorder().snapshot();
        trace.counters.get("serve.requests").copied() == Some(REQUESTS)
    });
    let ids = within("shutdown drain", Duration::from_secs(60), move || {
        let closer = std::thread::spawn(move || server.shutdown());
        let mut frames = FrameReader::new();
        let mut ids = Vec::new();
        while let Some((kind, id, _)) = frames.read_frame(&mut conn).expect("clean frames") {
            assert_eq!(kind, binwire::kind::INFER_REPLY);
            ids.push(id);
        }
        closer.join().expect("shutdown thread");
        ids
    });
    assert!(
        ids.iter().copied().eq(0..REQUESTS),
        "got {} replies",
        ids.len()
    );
}

/// A client that half-closes after pipelining still gets every reply;
/// only then does the server drop the connection.
#[test]
fn half_closed_client_receives_all_in_flight_replies() {
    const REQUESTS: u64 = 200;
    let server = server();
    let mut conn = TcpStream::connect(server.local_addr()).unwrap();
    let mut out = Vec::new();
    for id in 0..REQUESTS {
        window_request(&mut out, id, id % 4);
    }
    conn.write_all(&out).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let (ids, rest) = within("half-closed drain", Duration::from_secs(60), move || {
        let mut frames = FrameReader::new();
        let ids = read_ids(&mut conn, &mut frames, REQUESTS as usize);
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).expect("clean EOF");
        (ids, rest)
    });
    assert!(ids.iter().copied().eq(0..REQUESTS));
    assert!(rest.is_empty(), "nothing after the last reply");
    wait_until("connection reaped", Duration::from_secs(10), || {
        server.active_connections() == 0
    });
    server.shutdown();
}

/// Lost-wake stress: no-window requests complete on the batcher thread,
/// the shortest path from submit to reply, pipelined deep enough to hit
/// the in-flight cap. With an infinite poll timeout, one completion
/// that fails to ring the waker hangs its connection.
#[test]
fn pipelined_acks_are_never_lost() {
    const CONNS: u64 = 4;
    const REQUESTS: u64 = 2_000;
    let server = server();
    let addr = server.local_addr();
    let clients: Vec<_> = (0..CONNS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                let mut out = Vec::new();
                for id in 0..REQUESTS {
                    binwire::encode_infer(&mut out, id, c, &[], false);
                }
                conn.write_all(&out).unwrap();
                read_ids(&mut conn, &mut FrameReader::new(), REQUESTS as usize)
            })
        })
        .collect();
    wait_until("all acks", Duration::from_secs(60), || {
        clients.iter().all(|h| h.is_finished())
    });
    for h in clients {
        let ids = h.join().expect("client thread");
        assert!(ids.iter().copied().eq(0..REQUESTS));
    }
    server.shutdown();
}
