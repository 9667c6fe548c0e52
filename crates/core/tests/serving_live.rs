//! Concurrent + durability integration tests for the online serving layer.
//!
//! Three properties, matching the serving design (DESIGN.md §16):
//!
//! 1. **No duplicate ids under concurrency** — while writers upsert and
//!    delete over live HTTP, every `/query` response names each ranking id
//!    at most once (the tombstoned-slot upsert keeps "one live slot per id"
//!    true at every instant a reader can observe).
//! 2. **Deterministic convergence** — writers owning disjoint id ranges
//!    interleave arbitrarily, yet the final state equals each writer's
//!    operations replayed serially.
//! 3. **Kill-and-restart equivalence** — a server restarted from its WAL
//!    (even with a torn tail appended) answers every query bit-identically
//!    to a server that never went down.
//! 4. **Persistent connections** — a client keeps one socket for a whole
//!    session (writes, `Expect: 100-continue`, pipelined requests), more
//!    such clients than workers all make progress, and a request the server
//!    cannot frame ends the connection without touching the index.

// The library-code rules of `[workspace.lints.clippy]` do not bind test code.
#![allow(clippy::cast_possible_truncation, clippy::let_underscore_must_use)]

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use minispark::Json;
use topk_rankings::{Ranking, RankingId};
use topk_simjoin::serving::FOREIGN_QUERY_ID;
use topk_simjoin::{ServingConfig, ServingIndex, ServingServer};

type TestResult = Result<(), Box<dyn std::error::Error>>;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "topk-serving-live-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A k=6 ranking: a permutation of `0..6` rotated by `seed`, with one
/// adjacent transposition chosen by `seed` — every pair of such rankings
/// is close, so queries return rich result sets.
fn permuted(id: RankingId, seed: u64) -> Ranking {
    let mut items: Vec<u32> = (0..6).map(|i| (i + seed as u32) % 6).collect();
    let swap = (seed as usize) % 5;
    items.swap(swap, swap + 1);
    Ranking::new(id, items).expect("rotation of distinct items stays distinct")
}

fn http(addr: SocketAddr, head: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let payload = body.unwrap_or("");
    let request = format!(
        "{head} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn upsert_body(rankings: &[Ranking]) -> String {
    let docs: Vec<String> = rankings
        .iter()
        .map(|r| {
            let items: Vec<String> = r.items().iter().map(u32::to_string).collect();
            format!(r#"{{"id": {}, "items": [{}]}}"#, r.id(), items.join(","))
        })
        .collect();
    format!("[{}]", docs.join(","))
}

/// Extracts the match ids from a `/query` or `/nearest` JSON response.
fn match_ids(body: &str) -> Vec<u64> {
    let doc = Json::parse(body).expect("response is JSON");
    doc.get("matches")
        .and_then(Json::as_arr)
        .expect("matches array")
        .iter()
        .map(|m| m.get("id").and_then(Json::as_u64).expect("numeric id"))
        .collect()
}

#[test]
fn concurrent_writers_and_readers_see_no_duplicate_ids() -> TestResult {
    const WRITERS: usize = 3;
    const READERS: usize = 3;
    const OPS_PER_WRITER: u64 = 40;
    const IDS_PER_WRITER: u64 = 8;

    let service = Arc::new(ServingIndex::ephemeral(
        // Aggressive compaction so readers also race rebuilds.
        ServingConfig::new(0.5).with_compact_ratio(0.2),
    )?);
    let server = ServingServer::start(0, Arc::clone(&service), 4)?;
    let addr = server.addr();

    let mut handles = Vec::new();
    for w in 0..WRITERS as u64 {
        handles.push(std::thread::spawn(move || {
            // Each writer owns ids [w*IDS, (w+1)*IDS): re-upserting its own
            // ids over and over forces constant replacement, and every
            // third op deletes (then later revives) an id.
            for op in 0..OPS_PER_WRITER {
                let id = w * IDS_PER_WRITER + (op % IDS_PER_WRITER);
                if op % 3 == 2 {
                    http(addr, &format!("DELETE /rankings/{id}"), None);
                } else {
                    let r = permuted(id, op + w * 100);
                    let (status, body) = http(addr, "POST /rankings", Some(&upsert_body(&[r])));
                    assert_eq!(status, 200, "writer upsert failed: {body}");
                }
            }
        }));
    }
    for _ in 0..READERS {
        handles.push(std::thread::spawn(move || {
            for probe in 0..60u64 {
                let (status, body) = http(
                    addr,
                    &format!("GET /query?theta=0.5&items=0,1,2,3,4,5&id={FOREIGN_QUERY_ID}"),
                    None,
                );
                assert_eq!(status, 200, "{body}");
                let ids = match_ids(&body);
                let unique: HashSet<u64> = ids.iter().copied().collect();
                assert_eq!(
                    unique.len(),
                    ids.len(),
                    "duplicate ids in a concurrent query response: {ids:?}"
                );
                if probe % 10 == 0 {
                    let (status, metrics) = http(addr, "GET /metrics", None);
                    assert_eq!(status, 200);
                    assert!(metrics.contains("serving_queries_total"), "{metrics}");
                }
            }
        }));
    }
    for handle in handles {
        handle.join().expect("workload thread");
    }

    // Deterministic convergence: each id's final state depends only on its
    // owning writer's (serial) op sequence, so replay it.
    let mut expected: HashMap<u64, Option<Ranking>> = HashMap::new();
    for w in 0..WRITERS as u64 {
        for op in 0..OPS_PER_WRITER {
            let id = w * IDS_PER_WRITER + (op % IDS_PER_WRITER);
            if op % 3 == 2 {
                expected.insert(id, None);
            } else {
                expected.insert(id, Some(permuted(id, op + w * 100)));
            }
        }
    }
    let live_expected = expected.values().flatten().count();
    assert_eq!(service.len(), live_expected);
    for (id, want) in &expected {
        assert_eq!(service.get(*id).as_ref(), want.as_ref(), "id {id}");
    }
    Ok(())
}

/// Applies the shared workload to a service: interleaved upserts (some
/// replacing), deletes, and batch writes.
fn apply_workload(service: &ServingIndex, ops: &[(u64, u64, bool)]) {
    for &(id, seed, delete) in ops {
        if delete {
            service.delete(id).expect("delete");
        } else {
            service.upsert_batch(&[permuted(id, seed)]).expect("upsert");
        }
    }
}

fn workload() -> Vec<(u64, u64, bool)> {
    (0..120u64)
        .map(|op| {
            let id = op % 17;
            (id, op * 7 + 3, op % 5 == 4)
        })
        .collect()
}

#[test]
fn killed_and_restarted_server_answers_identically() -> TestResult {
    let dir = temp_dir("restart-equivalence");
    // Small snapshot cadence so the workload crosses several
    // snapshot-then-truncate cycles before the "crash".
    let config = ServingConfig::new(0.5).with_snapshot_every(25);
    let ops = workload();
    let (first_half, second_half) = ops.split_at(ops.len() / 2);

    // Reference: one service that never restarts.
    let reference = ServingIndex::ephemeral(config.clone())?;
    apply_workload(&reference, &ops);

    // Victim: restarted twice mid-workload — dropped without any shutdown
    // hook, so recovery runs purely from snapshot + WAL.
    {
        let (victim, _) = ServingIndex::open(&dir, config.clone())?;
        apply_workload(&victim, first_half);
    }
    {
        let (victim, replay) = ServingIndex::open(&dir, config.clone())?;
        assert!(
            replay.snapshot_rankings > 0 || replay.wal_records > 0,
            "the first half must have left durable state"
        );
        apply_workload(&victim, second_half);
    }
    // Simulate a torn final append before the last restart.
    let wal_path = dir.join("wal.log");
    let mut bytes = std::fs::read(&wal_path)?;
    bytes.extend_from_slice(&[42, 42, 42]);
    std::fs::write(&wal_path, &bytes)?;

    let (victim, replay) = ServingIndex::open(&dir, config)?;
    assert_eq!(
        replay.dropped_bytes, 3,
        "the torn tail is dropped, not fatal"
    );

    // Bit-identical answers across the full query surface.
    assert_eq!(victim.len(), reference.len());
    for probe in 0..23u64 {
        let query = permuted(FOREIGN_QUERY_ID, probe);
        for theta in [0.1, 0.3, 0.5] {
            let got = victim.query(&query, theta)?;
            let want = reference.query(&query, theta)?;
            assert_eq!(got, want, "theta {theta} probe {probe}");
        }
        assert_eq!(victim.nearest(&query, 5)?, reference.nearest(&query, 5)?);
    }
    for id in 0..17u64 {
        assert_eq!(victim.get(id), reference.get(id), "id {id}");
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

#[test]
fn http_server_restart_preserves_every_response() -> TestResult {
    let dir = temp_dir("http-restart");
    let config = ServingConfig::new(0.4).with_snapshot_every(10);

    let queries: Vec<String> = (0..6)
        .map(|i| {
            format!(
                "GET /query?theta=0.4&items={},{},{},{},{},{}",
                i % 6,
                (i + 1) % 6,
                (i + 2) % 6,
                (i + 3) % 6,
                (i + 4) % 6,
                (i + 5) % 6
            )
        })
        .collect();

    let before: Vec<String> = {
        let (service, _) = ServingIndex::open(&dir, config.clone())?;
        let server = ServingServer::start(0, Arc::new(service), 2)?;
        let addr = server.addr();
        for op in 0..30u64 {
            let r = permuted(op % 11, op);
            let (status, body) = http(addr, "POST /rankings", Some(&upsert_body(&[r])));
            assert_eq!(status, 200, "{body}");
            if op % 4 == 3 {
                http(addr, &format!("DELETE /rankings/{}", (op + 2) % 11), None);
            }
        }
        queries
            .iter()
            .map(|q| {
                let (status, body) = http(addr, q, None);
                assert_eq!(status, 200, "{body}");
                body
            })
            .collect()
        // server + service drop here: the "kill".
    };

    let (service, replay) = ServingIndex::open(&dir, config)?;
    assert!(replay.snapshot_rankings > 0 || replay.wal_records > 0);
    let server = ServingServer::start(0, Arc::new(service), 2)?;
    let addr = server.addr();
    for (q, expected) in queries.iter().zip(&before) {
        let (status, body) = http(addr, q, None);
        assert_eq!(status, 200);
        assert_eq!(&body, expected, "response to {q} changed across restart");
    }
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

/// Answers carry ids as JSON numbers (`f64`), so an id above 2^53 − 1 used
/// to come back as a neighbouring id when the corpus was preloaded
/// (`topk-serve --data`, `upsert_batch`) rather than posted. It is refused
/// at every door now, and the largest accepted id comes back exact.
#[test]
fn an_id_json_cannot_carry_is_refused_not_rounded() -> TestResult {
    let too_big: RankingId = (1 << 53) + 1;
    let largest: RankingId = (1 << 53) - 1;
    let service = ServingIndex::ephemeral(ServingConfig::new(0.4))?;
    let err = service
        .upsert_batch(&[permuted(1, 0), permuted(too_big, 1)])
        .expect_err("the preload path refuses the id");
    assert!(err.to_string().contains(&too_big.to_string()), "{err}");
    assert_eq!(service.stats().live, 0, "a refused batch changes nothing");
    service.upsert_batch(&[permuted(largest, 0)])?;

    let server = ServingServer::start(0, Arc::new(service), 2)?;
    let addr = server.addr();
    let posted = upsert_body(&[permuted(too_big, 1)]);
    let (status, body) = http(addr, "POST /rankings", Some(&posted));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("2^53"), "{body}");

    let items: Vec<String> = permuted(0, 0).items().iter().map(u32::to_string).collect();
    let query = format!("GET /query?theta=0.4&items={}", items.join(","));
    let (status, body) = http(addr, &query, None);
    assert_eq!(status, 200, "{body}");
    assert_eq!(match_ids(&body), vec![largest]);
    let (status, body) = http(addr, &format!("GET /rankings/{largest}"), None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&largest.to_string()), "{body}");

    // `/nearest` echoes `n` the same way, so the same bound holds for it.
    let nearest = |n: u64| format!("GET /nearest?n={n}&items={}", items.join(","));
    let (status, body) = http(addr, &nearest(u64::MAX), None);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("2^53"), "{body}");
    let (status, body) = http(addr, &nearest(largest), None);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(&format!("\"n\":{largest}")), "{body}");
    Ok(())
}

/// `URLSearchParams`, Python `requests` and `curl --data-urlencode -G` send
/// `items=1,2,3` as `items=1%2C2%2C3`: both spellings are the same request.
#[test]
fn percent_encoded_and_literal_queries_get_identical_answers() -> TestResult {
    let service = ServingIndex::ephemeral(ServingConfig::new(0.3))?;
    service.upsert_batch(&(0..12).map(|i| permuted(i, i)).collect::<Vec<_>>())?;
    let server = ServingServer::start(0, Arc::new(service), 2)?;
    let addr = server.addr();

    let items: Vec<String> = permuted(0, 0).items().iter().map(u32::to_string).collect();
    for (plain, escaped) in [
        ("/query?theta=0.3&items=", "/query?theta=0%2e3&%69tems="),
        ("/nearest?n=5&items=", "/nearest?n=%35&items="),
    ] {
        let literal = http(addr, &format!("GET {plain}{}", items.join(",")), None);
        let encoded = http(addr, &format!("GET {escaped}{}", items.join("%2C")), None);
        assert_eq!(literal.0, 200, "{plain}: {}", literal.1);
        assert!(!match_ids(&literal.1).is_empty(), "{plain}: {}", literal.1);
        assert_eq!(encoded, literal, "{plain}");
    }

    // A θ above the server's bound is told so, with both values.
    let above = format!("GET /query?theta=0.31&items={}", items.join("%2C"));
    let (status, body) = http(addr, &above, None);
    assert_eq!(status, 400, "{body}");
    assert!(
        body.contains("0.31") && body.contains("theta_max = 0.3"),
        "{body}"
    );

    // A malformed escape is a 400 that ends the connection; the server
    // keeps answering on the next one.
    let mut session = Session::connect(addr);
    let (status, _, _) = session.request("GET /query?theta=0.3&items=1%2", None);
    assert_eq!(status, 400);
    assert!(session.closed());
    assert_eq!(http(addr, "GET /stats", None).0, 200);
    Ok(())
}

/// A client that keeps its connection open and reads one response at a time
/// off it.
struct Session {
    reader: BufReader<TcpStream>,
}

impl Session {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Self {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, raw: &str) {
        self.reader
            .get_mut()
            .write_all(raw.as_bytes())
            .expect("write request");
    }

    /// One whole response: `(status, head, body)`.
    fn recv(&mut self) -> (u16, String, String) {
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            let n = self.reader.read_line(&mut head).expect("read head line");
            assert!(n > 0, "connection closed mid-head: {head:?}");
        }
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .map_or(0, |v| v.parse::<usize>().expect("numeric length"));
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).expect("read body");
        (status, head, String::from_utf8(body).expect("UTF-8 body"))
    }

    /// `head` is the request line without the version, as for [`http`].
    fn request(&mut self, head: &str, body: Option<&str>) -> (u16, String, String) {
        self.send(&render(head, body.unwrap_or("")));
        self.recv()
    }

    fn closed(&mut self) -> bool {
        match self.reader.read(&mut [0u8; 1]) {
            Ok(n) => n == 0,
            // Closed with bytes of ours unread.
            Err(e) => e.kind() == ErrorKind::ConnectionReset,
        }
    }
}

/// A request with no `Connection` header: HTTP/1.1 keeps the socket.
fn render(head: &str, payload: &str) -> String {
    format!(
        "{head} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len()
    )
}

#[test]
fn one_connection_carries_a_whole_session() -> TestResult {
    let service = Arc::new(ServingIndex::ephemeral(ServingConfig::new(0.5))?);
    let server = ServingServer::start(0, Arc::clone(&service), 2)?;
    let mut session = Session::connect(server.addr());

    // A batch large enough that curl would announce it with
    // `Expect: 100-continue` and wait for the go-ahead.
    let batch: Vec<Ranking> = (0..60).map(|id| permuted(id, id)).collect();
    let payload = upsert_body(&batch);
    assert!(payload.len() > 1024);
    session.send(&format!(
        "POST /rankings HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nExpect: 100-continue\r\n\r\n",
        payload.len()
    ));
    let (status, _, _) = session.recv();
    assert_eq!(status, 100);
    session.send(&payload);
    let (status, head, body) = session.recv();
    assert_eq!(status, 200, "{body}");
    assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
    assert!(body.contains("\"inserted\":60"), "{body}");

    // The rest of the session rides the same socket, and every answer
    // equals the in-process one.
    for probe in 0..20u64 {
        let query = permuted(FOREIGN_QUERY_ID, probe);
        let items: Vec<String> = query.items().iter().map(u32::to_string).collect();
        let (status, head, body) = session.request(
            &format!("GET /query?theta=0.3&items={}", items.join(",")),
            None,
        );
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Connection: keep-alive\r\n"), "{head}");
        let want: Vec<u64> = service
            .query(&query, 0.3)?
            .iter()
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(match_ids(&body), want, "probe {probe}");
        let (status, _, _) = session.request(&format!("DELETE /rankings/{probe}"), None);
        assert_eq!(status, 200);
        let (status, _, _) = session.request(&format!("GET /rankings/{probe}"), None);
        assert_eq!(status, 404, "a status other than 200 keeps the socket too");
    }
    assert_eq!(service.len(), 40);

    // Two requests in one write: the query is answered after the upsert
    // it follows, and sees it.
    let revived = permuted(3, 3);
    let items: Vec<String> = revived.items().iter().map(u32::to_string).collect();
    session.send(&format!(
        "{}{}",
        render("POST /rankings", &upsert_body(&[revived])),
        render(&format!("GET /query?theta=0&items={}", items.join(",")), "")
    ));
    assert_eq!(session.recv().0, 200);
    let (status, _, body) = session.recv();
    assert_eq!(status, 200, "{body}");
    assert!(match_ids(&body).contains(&3), "{body}");

    // The client ends the session.
    session.send("GET /stats HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
    let (status, head, _) = session.recv();
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close\r\n"), "{head}");
    assert!(session.closed());
    Ok(())
}

#[test]
fn more_sessions_than_workers_all_make_progress() -> TestResult {
    const WORKERS: usize = 2;
    const SESSIONS: u64 = 4;
    const ROUNDS: u64 = 100;
    let service = Arc::new(ServingIndex::ephemeral(
        ServingConfig::new(0.5).with_compact_ratio(0.2),
    )?);
    let server = ServingServer::start(0, Arc::clone(&service), WORKERS)?;
    let addr = server.addr();

    // Two sessions that stay attached and silent throughout.
    let mut idle: Vec<Session> = (0..2).map(|_| Session::connect(addr)).collect();
    for session in &mut idle {
        assert_eq!(session.request("GET /stats", None).0, 200);
    }
    // Each session upserts then queries, `ROUNDS` times, on its own socket
    // and its own ids; nobody passes a barrier until everybody has reached
    // it, so a server that served only `WORKERS` sockets at a time would
    // strand the others there until their reads time out.
    let barrier = Barrier::new(SESSIONS as usize);
    std::thread::scope(|scope| {
        for s in 0..SESSIONS {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut session = Session::connect(addr);
                for round in 0..ROUNDS {
                    if round % 10 == 0 {
                        barrier.wait();
                    }
                    let r = permuted(s * 8 + round % 8, round + s * 100);
                    let (status, _, body) =
                        session.request("POST /rankings", Some(&upsert_body(&[r])));
                    assert_eq!(status, 200, "{body}");
                    let (status, _, body) = session.request(
                        &format!("GET /query?theta=0.5&items=0,1,2,3,4,5&id={FOREIGN_QUERY_ID}"),
                        None,
                    );
                    assert_eq!(status, 200, "{body}");
                    let ids = match_ids(&body);
                    let unique: HashSet<u64> = ids.iter().copied().collect();
                    assert_eq!(unique.len(), ids.len(), "duplicate ids: {ids:?}");
                }
            });
        }
    });
    for session in &mut idle {
        assert_eq!(session.request("GET /stats", None).0, 200);
    }
    // Every session's last write to each of its ids is what is stored.
    assert_eq!(service.len(), (SESSIONS * 8) as usize);
    for s in 0..SESSIONS {
        for round in ROUNDS - 8..ROUNDS {
            let id = s * 8 + round % 8;
            assert_eq!(service.get(id), Some(permuted(id, round + s * 100)));
        }
    }
    Ok(())
}

#[test]
fn an_unframeable_write_ends_the_connection_and_changes_nothing() -> TestResult {
    let service = Arc::new(ServingIndex::ephemeral(ServingConfig::new(0.5))?);
    let server = ServingServer::start(0, Arc::clone(&service), 1)?;
    let mut session = Session::connect(server.addr());
    let first = upsert_body(&[permuted(1, 1)]);
    assert_eq!(session.request("POST /rankings", Some(&first)).0, 200);

    // A chunked body whose chunk spells a second, smuggled request.
    let smuggled = render("POST /rankings", &upsert_body(&[permuted(2, 2)]));
    session.send(&format!(
        "POST /rankings HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{smuggled}\r\n0\r\n\r\n",
        smuggled.len()
    ));
    let (status, head, _) = session.recv();
    assert_eq!(status, 501);
    assert!(head.contains("Connection: close\r\n"), "{head}");
    assert!(session.closed(), "the chunk was read as a request");
    assert_eq!(service.len(), 1);
    assert!(service.get(2).is_none());
    Ok(())
}
