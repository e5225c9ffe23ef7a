//! Stress tests for the bounded queue's close/shutdown races and for
//! full-stack server shutdown under load.
//!
//! These back the blocking `queue-stress` CI job: each scenario is a
//! race that once deadlocked (close() waking only `not_empty`) or could
//! plausibly regress into one. A watchdog pattern keeps a regression
//! from hanging CI — the racing work runs on spawned threads and the
//! test polls completion against a hard deadline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tagnn_serve::{BoundedQueue, PushOutcome};

/// Polls `done` until it returns true or the deadline passes.
fn wait_until(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
    let limit = Instant::now() + deadline;
    while !done() {
        assert!(Instant::now() < limit, "watchdog: {what} did not finish");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Every producer parked in a blocking `push()` at capacity must be
/// woken by `close()` and get its item back — with MANY producers, not
/// just the single-waiter case the unit test covers (notify_one-style
/// bugs only show up with a crowd).
#[test]
fn close_unblocks_a_crowd_of_blocked_producers() {
    let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(1));
    q.push(0).unwrap(); // fill to capacity
    let producers: Vec<_> = (1..=16u64)
        .map(|i| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(i))
        })
        .collect();
    // Let the crowd reach the not_full wait.
    std::thread::sleep(Duration::from_millis(50));
    q.close();
    wait_until("16 blocked producers", Duration::from_secs(10), || {
        producers.iter().all(|h| h.is_finished())
    });
    let mut returned: Vec<u64> = producers
        .into_iter()
        .map(|h| h.join().unwrap().expect_err("queue closed at capacity"))
        .collect();
    returned.sort_unstable();
    assert_eq!(returned, (1..=16).collect::<Vec<_>>(), "every item returns");
    assert_eq!(q.pop_batch(8), vec![0], "the pre-close item still drains");
    assert!(q.pop_batch(8).is_empty(), "closed and drained");
}

/// A crowd of producers blocked at capacity against one `pop_batch`
/// consumer: every batch frees several slots at once, so the consumer's
/// `not_full` wake must reach the whole crowd. Each batch holds between
/// one item and `max_batch`, and every pushed item comes out exactly
/// once, in per-producer order.
#[test]
fn pop_batch_drains_a_crowd_of_blocked_producers() {
    const PRODUCERS: u64 = 16;
    const PER_PRODUCER: u64 = 200;
    let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(4));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.push(p << 32 | i).expect("queue stays open");
                }
            })
        })
        .collect();
    let consumer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            let mut next = vec![0u64; PRODUCERS as usize];
            let mut seen = 0;
            while seen < PRODUCERS * PER_PRODUCER {
                let batch = q.pop_batch(8);
                assert!((1..=8).contains(&batch.len()), "batch of {}", batch.len());
                for item in batch {
                    let (p, i) = ((item >> 32) as usize, item & 0xFFFF_FFFF);
                    assert_eq!(i, next[p], "producer {p} out of order");
                    next[p] += 1;
                    seen += 1;
                }
            }
        })
    };
    wait_until("crowd drained", Duration::from_secs(30), || {
        consumer.is_finished() && producers.iter().all(|h| h.is_finished())
    });
    consumer.join().unwrap();
    for h in producers {
        h.join().unwrap();
    }
    assert_eq!(q.depth(), 0);
}

/// Producers, consumers, and a mid-flight `close()` racing on one tiny
/// queue: no deadlock, and every successfully-pushed item is popped
/// exactly once (closed-queue drain semantics).
#[test]
fn concurrent_close_loses_no_items() {
    for round in 0..20 {
        let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(4));
        let pushed = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(AtomicU64::new(0));

        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                let pushed = Arc::clone(&pushed);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let item = (p as u64) << 32 | i;
                        match q.try_push(item) {
                            (PushOutcome::Queued { .. }, None) => {
                                pushed.fetch_add(1, Ordering::SeqCst);
                            }
                            (PushOutcome::Full, Some(item)) => {
                                // Escalate to the blocking path half the
                                // time so both push flavors race close().
                                if i % 2 == 0 && q.push(item).is_ok() {
                                    pushed.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            (PushOutcome::Closed, Some(_)) => return,
                            other => panic!("impossible outcome {other:?}"),
                        }
                    }
                })
            })
            .collect();

        let consumers: Vec<_> = (0..3)
            .map(|c| {
                let q = Arc::clone(&q);
                let popped = Arc::clone(&popped);
                std::thread::spawn(move || loop {
                    // Mix single pops and micro-batches across consumers.
                    let got = if c == 0 {
                        q.pop().map(|_| 1).unwrap_or(0)
                    } else {
                        q.pop_batch(8).len() as u64
                    };
                    if got == 0 {
                        return; // closed and drained
                    }
                    popped.fetch_add(got, Ordering::SeqCst);
                })
            })
            .collect();

        // Close somewhere in the middle of the melee; vary the cut
        // point across rounds to move the race window.
        std::thread::sleep(Duration::from_millis(round % 5));
        q.close();

        wait_until("stress round threads", Duration::from_secs(20), || {
            producers.iter().all(|h| h.is_finished()) && consumers.iter().all(|h| h.is_finished())
        });
        for h in producers {
            h.join().unwrap();
        }
        for h in consumers {
            h.join().unwrap();
        }
        assert_eq!(
            pushed.load(Ordering::SeqCst),
            popped.load(Ordering::SeqCst),
            "round {round}: every accepted item must be popped exactly once"
        );
    }
}

/// Consumers parked in `pop_batch` while producers are parked in `push`
/// on the SAME full queue — close() must wake both sides.
#[test]
fn close_wakes_both_condvars_at_once() {
    let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(1));
    q.push(0).unwrap();
    let producer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || q.push(1))
    };
    // Drain so the consumer side can park on an EMPTY queue: pop the
    // item, which also lets the blocked producer slide in.
    assert_eq!(q.pop(), Some(0));
    wait_until("producer handoff", Duration::from_secs(10), || {
        producer.is_finished()
    });
    producer.join().unwrap().unwrap();
    assert_eq!(q.pop(), Some(1));

    // Now park a consumer (empty queue) and a producer (full queue
    // after one push) simultaneously.
    q.push(2).unwrap();
    let blocked_producer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || q.push(3))
    };
    let blocked_consumer = {
        let q = Arc::clone(&q);
        std::thread::spawn(move || {
            // First batch takes {2} (and possibly 3); keep popping until
            // the queue reports closed-and-drained.
            let mut total = 0u64;
            loop {
                let batch = q.pop_batch(1);
                if batch.is_empty() {
                    return total;
                }
                total += batch.len() as u64;
            }
        })
    };
    std::thread::sleep(Duration::from_millis(30));
    q.close();
    wait_until("both blocked sides", Duration::from_secs(10), || {
        blocked_producer.is_finished() && blocked_consumer.is_finished()
    });
    let produced_3 = blocked_producer.join().unwrap().is_ok();
    let consumed = blocked_consumer.join().unwrap();
    // Item 2 always arrives; item 3 arrives iff its push won the race.
    assert_eq!(consumed, 1 + produced_3 as u64);
}

/// Full-stack shutdown under load: a server with in-flight requests and
/// live connections must shut down within the watchdog window, and the
/// io thread must drain in-flight replies rather than drop them.
#[test]
fn server_shutdown_under_load_terminates() {
    use tagnn_serve::{binwire, EdgeEvent, ServeConfig, ServeCore, Server};

    let cfg = ServeConfig {
        window: 3,
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let server = Server::bind(ServeCore::start(cfg), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Clients hammer infer requests until the socket dies.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                use std::io::Write;
                let mut conn = match std::net::TcpStream::connect(addr) {
                    Ok(c) => c,
                    Err(_) => return 0u64,
                };
                let mut frames = binwire::FrameReader::new();
                let mut replies = 0u64;
                for i in 0..10_000u64 {
                    let events = [EdgeEvent::AddEdge { src: 0, dst: 1 }, EdgeEvent::Tick];
                    let mut out = Vec::new();
                    binwire::encode_infer(&mut out, i, c as u64, &events, false);
                    if conn.write_all(&out).is_err() {
                        break;
                    }
                    match frames.read_frame(&mut conn) {
                        Ok(Some(_)) => replies += 1,
                        _ => break,
                    }
                }
                replies
            })
        })
        .collect();

    // Let load build, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(150));
    let shutdown = std::thread::spawn(move || server.shutdown());
    wait_until(
        "server shutdown under load",
        Duration::from_secs(30),
        || shutdown.is_finished(),
    );
    shutdown.join().unwrap();
    for h in clients {
        // Clients see either clean replies then EOF or an error —
        // never a hang.
        let _ = h.join().unwrap();
    }
}
