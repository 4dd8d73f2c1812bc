//! Wire-path regression guards for the networked PlanDoctor: decisions
//! served over the socket must be identical (fingerprint, fallback flag,
//! fallback reason, error codes) to in-process `submit()`, and a
//! serving-only process booted from a saved [`PlannerSnapshot`] file must
//! plan bit-identically to the trainer that wrote it.

use std::sync::Arc;

use foss_repro::prelude::*;
use foss_repro::service::wire::reason_str;

/// A trained snapshot plus everything needed to serve it.
struct Trained {
    exp: Experiment,
    snapshot: PlannerSnapshot,
}

fn train_tiny(seed: u64) -> Trained {
    let exp = Experiment::new("tpcdslite", WorkloadSpec::tiny(seed)).unwrap();
    let cfg = FossConfig {
        episodes_per_update: 6,
        seed,
        ..FossConfig::tiny()
    };
    let mut adapter = FossAdapter::new(exp.foss(cfg));
    let train: Vec<_> = exp.workload.train.iter().take(4).cloned().collect();
    adapter.train_round(&train).unwrap();
    adapter.train_round(&train).unwrap();
    let snapshot = adapter.snapshot().as_ref().clone();
    Trained { exp, snapshot }
}

#[test]
fn socket_decisions_match_in_process_submit() {
    let t = train_tiny(7);
    // Two doctors built from the same snapshot: one behind the socket, one
    // driven directly. They share the executor, so both see the same data.
    let served = Arc::new(PlanDoctor::new(
        t.snapshot.clone(),
        t.exp.executor.clone(),
        ServiceConfig::default(),
    ));
    let direct = PlanDoctor::new(
        t.snapshot.clone(),
        t.exp.executor.clone(),
        ServiceConfig::default(),
    );
    let pool = t.exp.workload.all_queries();
    let server = PlanServer::start(served, pool.clone(), "127.0.0.1:0").unwrap();
    let client = server.client();

    for (idx, q) in pool.iter().enumerate().take(8) {
        let outcome = client.plan(&PlanRequest::for_index(idx)).unwrap();
        let reply = match outcome {
            PlanOutcome::Decision(reply) => reply,
            PlanOutcome::Rejected(r) => panic!("query {idx} rejected over the wire: {r:?}"),
        };
        let local = direct.submit(QueryRequest::new(q.clone())).unwrap();
        assert_eq!(
            reply.fingerprint,
            local.plan.fingerprint(),
            "query {idx}: socket-served plan diverged from in-process submit"
        );
        assert_eq!(reply.fallback, local.fallback, "query {idx}: fallback flag");
        assert_eq!(
            reply.reason,
            reason_str(local.reason),
            "query {idx}: fallback reason"
        );
        assert_eq!(reply.selected_step, local.selected_step);
    }

    // A zero planning budget forces the planning-timeout fallback on both
    // paths — and the wire reports the same stable reason string.
    let starved = client
        .plan(&PlanRequest {
            planning_budget_us: Some(0.0),
            ..PlanRequest::for_index(0)
        })
        .unwrap();
    let local = direct
        .submit(QueryRequest::new(pool[0].clone()).with_planning_budget_us(0.0))
        .unwrap();
    match starved {
        PlanOutcome::Decision(reply) => {
            assert!(reply.fallback);
            assert_eq!(reply.reason, "planning_timeout");
            assert_eq!(reply.reason, reason_str(local.reason));
            assert_eq!(reply.fingerprint, local.plan.fingerprint());
        }
        PlanOutcome::Rejected(r) => panic!("budget-starved request rejected: {r:?}"),
    }

    // Error surface: an out-of-pool index maps to the documented typed code,
    // exactly as `FossError::UnknownName` does in process.
    match client
        .plan(&PlanRequest::for_index(pool.len() + 3))
        .unwrap()
    {
        PlanOutcome::Rejected(r) => {
            assert_eq!(r.status, 404);
            assert_eq!(r.code, "unknown_name");
            assert!(!r.retryable);
        }
        PlanOutcome::Decision(_) => panic!("out-of-pool index must be rejected"),
    }

    server.shutdown();
}

#[test]
fn snapshot_survives_save_load_serve_round_trip() {
    let t = train_tiny(13);
    let path = std::env::temp_dir().join(format!("foss-wire-parity-{}.fsnp", std::process::id()));
    t.snapshot.save(&path).unwrap();

    // A serving-only process: no trainer, just the snapshot file and the
    // deterministically rebuilt expert optimizer for the same workload.
    let loaded = PlannerSnapshot::load(&path, t.exp.workload.optimizer.clone()).unwrap();
    std::fs::remove_file(&path).unwrap();

    let doctor = Arc::new(PlanDoctor::new(
        loaded,
        t.exp.executor.clone(),
        ServiceConfig::default(),
    ));
    let pool = t.exp.workload.all_queries();
    let server = PlanServer::start(doctor, pool.clone(), "127.0.0.1:0").unwrap();
    let client = server.client();

    for (idx, q) in pool.iter().enumerate().take(8) {
        let reply = match client.plan(&PlanRequest::for_index(idx)).unwrap() {
            PlanOutcome::Decision(reply) => reply,
            PlanOutcome::Rejected(r) => panic!("query {idx} rejected: {r:?}"),
        };
        // Bit-identical to what the trainer's in-memory snapshot plans.
        let expert = t.snapshot.expert_plan(q).unwrap();
        let trained = t.snapshot.optimize_detailed_from(q, &expert).unwrap();
        assert_eq!(
            reply.fingerprint,
            trained.plan.fingerprint(),
            "query {idx}: loaded-snapshot plan diverged from the trainer's"
        );
        assert_eq!(reply.generation, 0);
    }

    let health = client.healthz().unwrap();
    assert_eq!(
        health
            .get("queries")
            .and_then(foss_repro::service::Json::as_usize),
        Some(pool.len())
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Persistent connections: one socket, many requests
// ---------------------------------------------------------------------------

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

use foss_repro::service::Json;
use proptest::prelude::*;

/// One server for every keep-alive case below (training it is the slow part).
fn shared_server() -> &'static (PlanServer, Vec<PlanDecision>) {
    static SERVER: OnceLock<(PlanServer, Vec<PlanDecision>)> = OnceLock::new();
    SERVER.get_or_init(|| {
        let t = train_tiny(17);
        let doctor = |t: &Trained| {
            PlanDoctor::new(
                t.snapshot.clone(),
                t.exp.executor.clone(),
                ServiceConfig::default(),
            )
        };
        let pool = t.exp.workload.all_queries();
        let direct = doctor(&t);
        let local = pool
            .iter()
            .take(4)
            .map(|q| direct.submit(QueryRequest::new(q.clone())).unwrap())
            .collect();
        let server = PlanServer::start(Arc::new(doctor(&t)), pool, "127.0.0.1:0").unwrap();
        (server, local)
    })
}

/// One HTTP response cut off the front of `raw`: (status, `connection`
/// header, body), or `None` when `raw` is exhausted.
fn next_response(raw: &mut &[u8]) -> Option<(u16, String, String)> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end])
        .unwrap()
        .to_lowercase();
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let header = |name: &str| {
        head.lines()
            .find_map(|l| l.strip_prefix(name))
            .map(|v| v.trim().to_string())
    };
    let len: usize = header("content-length:").unwrap().parse().unwrap();
    let body = &raw[head_end + 4..head_end + 4 + len];
    let out = (
        status,
        header("connection:").unwrap(),
        String::from_utf8(body.to_vec()).unwrap(),
    );
    *raw = &raw[head_end + 4 + len..];
    Some(out)
}

/// Write `stream` to the server in the pieces `cuts` delimit and collect
/// every response until the server closes. A reply's `planning_us` is wall
/// time; it is zeroed so that replies compare.
fn replies_to(stream: &[u8], cuts: &[usize]) -> Vec<(u16, String, String)> {
    let (server, _) = shared_server();
    let mut socket = TcpStream::connect(server.addr()).unwrap();
    socket.set_nodelay(true).unwrap();
    let mut cuts: Vec<usize> = cuts.iter().map(|c| c % stream.len()).collect();
    cuts.sort_unstable();
    let mut from = 0;
    for to in cuts.into_iter().chain([stream.len()]) {
        socket.write_all(&stream[from..to]).unwrap();
        // Let the piece arrive on its own (a nicety, not a synchronisation:
        // coalesced pieces are just another split).
        std::thread::sleep(std::time::Duration::from_micros(300));
        from = to;
    }
    let mut raw = Vec::new();
    socket.read_to_end(&mut raw).unwrap();
    let mut rest = raw.as_slice();
    let mut replies = Vec::new();
    while let Some((status, connection, body)) = next_response(&mut rest) {
        let mut body = Json::parse(&body).unwrap();
        if let Json::Obj(fields) = &mut body {
            for (key, value) in fields {
                if key == "planning_us" {
                    *value = Json::num(0.0);
                }
            }
        }
        let body = body.to_string();
        replies.push((status, connection, body));
    }
    assert!(rest.is_empty(), "trailing bytes after the last response");
    replies
}

/// Plans, a health check, a request that frames but does not parse, an
/// unknown route, and a final `connection: close`.
fn request_stream() -> Vec<u8> {
    let plan = |idx: usize, extra: &str| {
        let body = format!(r#"{{"query":{idx}}}"#);
        format!(
            "POST /plan HTTP/1.1\r\nhost: x\r\n{extra}content-length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    [
        plan(0, ""),
        plan(1, ""),
        "GET /healthz HTTP/1.1\r\n\r\n".to_string(),
        "POST /plan HTTP/1.1\r\ncontent-length: 5\r\n\r\n{nope".to_string(),
        plan(2, "x-foss-priority: high\r\n"),
        "GET /nowhere HTTP/1.1\r\n\r\n".to_string(),
        plan(3, "connection: close\r\n"),
    ]
    .concat()
    .into_bytes()
}

#[test]
fn one_connection_serves_a_request_stream_like_in_process_submit() {
    let (_, local) = shared_server();
    let replies = replies_to(&request_stream(), &[]);
    let statuses: Vec<u16> = replies.iter().map(|r| r.0).collect();
    assert_eq!(statuses, [200, 200, 200, 400, 200, 404, 200]);
    // Every reply but the one to `connection: close` keeps the connection.
    let connections: Vec<&str> = replies.iter().map(|r| r.1.as_str()).collect();
    assert_eq!(connections[..6], ["keep-alive"; 6]);
    assert_eq!(connections[6], "close");
    // The four plans, in request order, are what in-process submit decides.
    for (reply, local) in [0, 1, 4, 6].into_iter().zip(local) {
        let reply = PlanReply::from_json(&Json::parse(&replies[reply].2).unwrap());
        let reply = reply.unwrap();
        assert_eq!(reply.fingerprint, local.plan.fingerprint());
        assert_eq!(reply.fallback, local.fallback);
        assert_eq!(reply.reason, reason_str(local.reason));
        assert_eq!(reply.selected_step, local.selected_step);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// However the bytes of a valid request stream are split across writes,
    /// the replies are the same.
    #[test]
    fn replies_do_not_depend_on_where_the_stream_is_split(
        cuts in prop::collection::vec(0usize..100_000, 0..8),
    ) {
        let stream = request_stream();
        let whole = replies_to(&stream, &[]);
        prop_assert_eq!(whole.len(), 7);
        prop_assert_eq!(replies_to(&stream, &cuts), whole);
    }
}
