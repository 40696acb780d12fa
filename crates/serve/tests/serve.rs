//! End-to-end tests of the detection service over real sockets: wire
//! protocol edge cases, concurrent clients vs. a direct engine scan,
//! hot-reload, backpressure, and graceful shutdown.

use adt_core::{save_model, AutoDetectConfig, ScanEngine};
use adt_corpus::{generate_corpus, Column, Corpus, CorpusProfile, SourceTag};
use adt_serve::testutil::{tiny_model, tiny_model_one_language};
use adt_serve::{json, Client, ClientError, Json, LearnConfig, ModelRegistry, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmp_models(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("adt_serve_tests").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    save_model(&tiny_model(), dir.join("default.bin")).unwrap();
    dir
}

fn start(name: &str, config: ServeConfig) -> (Client, adt_serve::ServerHandle, ServerJoin) {
    let registry = ModelRegistry::open(tmp_models(name)).unwrap();
    let server = Server::bind(config, registry).unwrap();
    let (addr, handle, join) = server.spawn();
    let client = Client::new(&addr.to_string())
        .unwrap()
        .with_timeout(Duration::from_secs(10));
    let guard = ServerJoin {
        handle: handle.clone(),
        join: Some(join),
    };
    (client, handle, guard)
}

/// Stops and joins the server on drop, so a failing assertion unwinds
/// into a clean teardown instead of deadlocking on a live accept loop.
struct ServerJoin {
    handle: adt_serve::ServerHandle,
    join: Option<std::thread::JoinHandle<Result<(), adt_core::AdtError>>>,
}

impl ServerJoin {
    fn finish(mut self) -> Result<(), adt_core::AdtError> {
        self.join.take().unwrap().join().unwrap()
    }
}

impl Drop for ServerJoin {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.handle.shutdown();
            let _ = join.join();
        }
    }
}

fn dirty_columns() -> Vec<Column> {
    let mut date = Column::from_strs(
        &["2011-01-01", "2012-02-02", "2013-03-03", "2014/04/04"],
        SourceTag::Local,
    );
    date.header = Some("date".into());
    let mut amount = Column::from_strs(&["1", "2", "3,000"], SourceTag::Local);
    amount.header = Some("amount".into());
    vec![date, amount]
}

#[test]
fn scan_round_trip_matches_direct_engine() {
    let (client, handle, join) = start("round_trip", ServeConfig::default());
    let columns = dirty_columns();
    let response = client.scan(None, &columns).unwrap();
    assert_eq!(response.model, "default");
    assert_eq!(response.generation, 1);
    assert_eq!(response.columns.len(), 2);
    assert_eq!(response.columns[0].header.as_deref(), Some("date"));

    let direct = ScanEngine::from_model(tiny_model())
        .with_threads(1)
        .scan_columns(&columns)
        .unwrap();
    assert_eq!(response.findings.len(), direct.findings.len());
    for (remote, local) in response.findings.iter().zip(&direct.findings) {
        assert_eq!(remote.column, local.column_index);
        assert_eq!(remote.suspect, local.finding.suspect);
        assert_eq!(remote.witness, local.finding.witness);
        assert_eq!(remote.confidence, local.finding.confidence);
        assert_eq!(remote.score, local.finding.score);
    }
    assert_eq!(response.findings[0].suspect, "2014/04/04");

    // The scan's decode, engine and encode phases are all timed.
    let stats = client.get("/v1/stats").unwrap();
    let phases = stats.get("scan_phases").expect("scan_phases missing");
    for key in ["decode_us", "scan_us", "encode_us"] {
        let us = phases.get(key).and_then(Json::as_f64);
        assert!(us.is_some_and(|us| us > 0.0), "scan_phases.{key} = {us:?}");
    }

    handle.shutdown();
    join.finish().unwrap();
}

#[test]
fn sequential_scans_reuse_the_pooled_cache() {
    let config = ServeConfig {
        workers: 2,
        engine_threads: 1,
        ..ServeConfig::default()
    };
    let (client, handle, join) = start("pooled_cache", config);
    let counters = |client: &Client| {
        let stats = client.get("/v1/stats").unwrap();
        let get = |key| stats.get(key).and_then(Json::as_u64).unwrap();
        (get("npmi_probes"), get("npmi_memo_hits"))
    };
    let columns = dirty_columns();
    client.scan(None, &columns).unwrap();
    let (cold_probes, cold_hits) = counters(&client);
    assert!(cold_probes > 0, "a cold scan must probe");
    // The same request again, on whichever worker takes it, resumes the
    // server's cache pool: every score comes from the memo.
    client.scan(None, &columns).unwrap();
    let (probes, hits) = counters(&client);
    assert_eq!(probes, cold_probes, "the warm scan recomputed scores");
    assert_eq!(hits - cold_hits, cold_probes + cold_hits);
    // The pooled cache holds each distinct value of the request once,
    // and `/v1/stats` reports how many and how many bytes of text.
    let stats = client.get("/v1/stats").unwrap();
    let get = |key| stats.get(key).and_then(Json::as_u64).unwrap();
    let distinct: Vec<&str> = columns.iter().flat_map(|c| c.non_empty_values()).collect();
    assert_eq!(get("cache_values"), distinct.len() as u64);
    let bytes: usize = distinct.iter().map(|v| v.len()).sum();
    assert_eq!(get("cache_bytes"), bytes as u64);

    handle.shutdown();
    join.finish().unwrap();
}

#[test]
fn wire_protocol_rejects_bad_requests_with_correct_codes() {
    let config = ServeConfig {
        max_body_bytes: 4096,
        ..ServeConfig::default()
    };
    let (client, handle, join) = start("wire_protocol", config);

    let status_of = |err: ClientError| match err {
        ClientError::Status { status, .. } => status,
        other => panic!("expected status error, got {other}"),
    };

    // Unknown route and wrong method.
    assert_eq!(status_of(client.get("/v1/nope").unwrap_err()), 404);
    assert_eq!(status_of(client.get("/v1/scan").unwrap_err()), 405);

    // Unknown model.
    let err = client.scan(Some("missing"), &dirty_columns()).unwrap_err();
    match err {
        ClientError::Status { status, message } => {
            assert_eq!(status, 404);
            assert!(message.contains("missing"), "{message}");
        }
        other => panic!("{other}"),
    }

    // Hand-rolled requests for the byte-level cases.
    let raw = |payload: &str| -> u16 {
        let mut s = TcpStream::connect(client.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(payload.as_bytes()).unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        buf.split_whitespace()
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no status in {buf:?}"))
    };

    // Malformed JSON body → 400.
    let body = "{not json";
    assert_eq!(
        raw(&format!(
            "POST /v1/scan HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )),
        400
    );
    // Valid JSON, invalid message shape → 400.
    let body = r#"{"columns": 7}"#;
    assert_eq!(
        raw(&format!(
            "POST /v1/scan HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )),
        400
    );
    // A column with both a non-string value and a non-string header:
    // values are checked first, so the value is what the 400 names.
    let bad_column = json::parse(r#"{"columns": [{"header": 7, "values": ["a", 1]}]}"#).unwrap();
    let resp = client
        .connect()
        .unwrap()
        .request("POST", "/v1/scan", Some(&bad_column))
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(
        resp.body.get("error").and_then(Json::as_str),
        Some("invalid message: columns[0] has a non-string value")
    );
    // Oversized body → 413 without reading it.
    assert_eq!(
        raw("POST /v1/scan HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"),
        413
    );
    // Garbage request line → 400.
    assert_eq!(raw("EHLO hi\r\n\r\n"), 400);
    // Chunked framing → 411.
    assert_eq!(
        raw("POST /v1/scan HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
        411
    );

    // The server is still healthy after all of that.
    let health = client.get("/v1/healthz").unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    handle.shutdown();
    join.finish().unwrap();
}

#[test]
fn ensemble_scan_reports_lanes_and_rejects_unknown_detectors() {
    let (client, handle, join) = start("ensemble", ServeConfig::default());
    let columns = dirty_columns();
    let names = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };

    // Unknown detector → 400 naming the offender and every known name.
    let err = client
        .scan_ensemble(None, &columns, &names(&["autodetect", "x"]), None)
        .unwrap_err();
    match err {
        ClientError::Status { status, message } => {
            assert_eq!(status, 400);
            assert_eq!(
                message,
                "invalid configuration: unknown detector 'x' (known: autodetect, fregex, \
                 pwheel, dboost, linear, linearp, cdm, lsa, svdd, dbod, lof, union)"
            );
        }
        other => panic!("expected status error, got {other}"),
    }
    // Duplicate detectors → 400.
    let err = client
        .scan_ensemble(None, &columns, &names(&["fregex", "f-regex"]), None)
        .unwrap_err();
    match err {
        ClientError::Status { status, message } => {
            assert_eq!(status, 400);
            assert!(message.contains("duplicate"), "{message}");
        }
        other => panic!("expected status error, got {other}"),
    }
    // Vote threshold above the set size → 400.
    let err = client
        .scan_ensemble(None, &columns, &names(&["autodetect"]), Some("vote:3"))
        .unwrap_err();
    match err {
        ClientError::Status { status, message } => {
            assert_eq!(status, 400);
            assert!(message.contains("vote"), "{message}");
        }
        other => panic!("expected status error, got {other}"),
    }
    // A removed merge policy → 400 naming the policies left.
    let err = client
        .scan_ensemble(
            None,
            &columns,
            &names(&["autodetect", "fregex"]),
            Some("calibrated"),
        )
        .unwrap_err();
    match err {
        ClientError::Status { status, message } => {
            assert_eq!(status, 400);
            assert!(message.contains("union, vote:k"), "{message}");
        }
        other => panic!("expected status error, got {other}"),
    }
    // `merge` without `detectors` is rejected at the protocol layer.
    let body = r#"{"columns": [{"values": ["a"]}], "merge": "union"}"#;
    let mut s = TcpStream::connect(client.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(
        format!(
            "POST /v1/scan HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .as_bytes(),
    )
    .unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 400"), "{buf:?}");

    // Happy path: two detectors, union merge, per-detector lanes.
    let response = client
        .scan_ensemble(None, &columns, &names(&["autodetect", "fregex"]), None)
        .unwrap();
    assert_eq!(response.model, "default");
    assert_eq!(response.columns.len(), 2);
    let ensemble = response.ensemble.expect("ensemble section missing");
    assert_eq!(ensemble.merge, "union");
    let lane_names: Vec<&str> = ensemble.detectors.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(lane_names, ["Auto-Detect", "F-Regex"]);
    for lane in &ensemble.detectors {
        assert_eq!(lane.columns, 2, "{}", lane.name);
    }
    assert!(!response.findings.is_empty());
    assert!(
        response.findings.iter().any(|f| f.suspect == "2014/04/04"),
        "union of autodetect+fregex should keep the model's top suspect"
    );
    for f in &response.findings {
        assert!(
            f.witness.is_empty(),
            "rank-pooled findings carry no witness"
        );
        assert_eq!(f.score, 0.0);
    }
    // Plain scans keep the old shape.
    let plain = client.scan(None, &columns).unwrap();
    assert!(plain.ensemble.is_none());

    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.get("ensemble_scans").and_then(Json::as_u64), Some(1));
    let lanes = stats.get("detectors").unwrap();
    assert!(
        lanes
            .get("Auto-Detect")
            .and_then(|l| l.get("columns"))
            .and_then(Json::as_u64)
            >= Some(2)
    );
    assert!(lanes.get("F-Regex").is_some());

    handle.shutdown();
    join.finish().unwrap();
}

#[test]
fn concurrent_clients_get_engine_identical_results() {
    let config = ServeConfig {
        workers: 4,
        engine_threads: 2,
        ..ServeConfig::default()
    };
    let (client, handle, join) = start("concurrency", config);

    // Each client thread scans a distinct column set; expectations come
    // from a direct single-threaded engine scan of the same columns.
    let model = Arc::new(tiny_model());
    let cases: Vec<Vec<Column>> = (0..8)
        .map(|i| {
            let mut cols = dirty_columns();
            cols[0].values.push(format!("20{:02}-05-05", (i * 3) % 30));
            if i % 2 == 0 {
                cols.push(Column::from_strs(
                    &["2011/01/01", "2011-02-02", "2011/03/03"],
                    SourceTag::Local,
                ));
            }
            cols
        })
        .collect();
    let expected: Vec<Vec<String>> = cases
        .iter()
        .map(|cols| {
            ScanEngine::new(Arc::clone(&model))
                .with_threads(1)
                .scan_columns(cols)
                .unwrap()
                .findings
                .iter()
                .map(|f| {
                    format!(
                        "{}|{}|{}|{}|{}",
                        f.column_index,
                        f.finding.suspect,
                        f.finding.witness,
                        f.finding.confidence,
                        f.finding.score
                    )
                })
                .collect()
        })
        .collect();

    const ROUNDS: usize = 5;
    let mut threads = Vec::new();
    for (case, want) in cases.into_iter().zip(expected) {
        let client = client.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let response = client.scan(None, &case).expect("scan failed");
                let got: Vec<String> = response
                    .findings
                    .iter()
                    .map(|f| {
                        format!(
                            "{}|{}|{}|{}|{}",
                            f.column, f.suspect, f.witness, f.confidence, f.score
                        )
                    })
                    .collect();
                assert_eq!(got, want, "served findings diverged from direct engine");
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }

    let stats = client.get("/v1/stats").unwrap();
    let scans = stats.get("scans_ok").and_then(Json::as_u64).unwrap();
    assert_eq!(scans, 8 * ROUNDS as u64);
    let batches = stats.get("batches").and_then(Json::as_u64).unwrap();
    assert_eq!(batches, scans, "one engine dispatch per scan");
    assert!(stats.get("scan_latency_p50_us").unwrap().as_u64().is_some());
    assert_eq!(
        stats
            .get("model_hits")
            .and_then(|m| m.get("default"))
            .and_then(Json::as_u64),
        Some(scans)
    );

    handle.shutdown();
    join.finish().unwrap();
}

#[test]
fn hot_reload_swaps_model_between_requests() {
    let (client, handle, join) = start("hot_reload", ServeConfig::default());
    let path = {
        // Recover the registry dir from the test helper's convention.
        std::env::temp_dir()
            .join("adt_serve_tests")
            .join("hot_reload")
            .join("default.bin")
    };

    let before = client.scan(None, &dirty_columns()).unwrap();
    assert_eq!(before.generation, 1);
    let models = client.get("/v1/models").unwrap();
    let row = &models.get("models").unwrap().as_arr().unwrap()[0];
    assert_eq!(row.get("languages").and_then(Json::as_u64), Some(2));

    // Retrain (atomically) to a distinguishable model.
    save_model(&tiny_model_one_language(), &path).unwrap();

    let after = client.scan(None, &dirty_columns()).unwrap();
    assert_eq!(after.generation, 2, "hot-reload should bump generation");
    let models = client.get("/v1/models").unwrap();
    let row = &models.get("models").unwrap().as_arr().unwrap()[0];
    assert_eq!(row.get("languages").and_then(Json::as_u64), Some(1));
    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.get("model_reloads").and_then(Json::as_u64), Some(1));

    // Corrupt file: keeps serving the generation-2 model.
    std::fs::write(&path, b"garbage").unwrap();
    let stale = client.scan(None, &dirty_columns()).unwrap();
    assert_eq!(stale.generation, 2);
    let stats = client.get("/v1/stats").unwrap();
    assert!(stats.get("model_reload_errors").and_then(Json::as_u64) >= Some(1));

    handle.shutdown();
    join.finish().unwrap();
}

#[test]
fn full_queue_rejects_with_503_and_drains_after() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        io_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    };
    let (client, handle, join) = start("busy", config);

    // Occupy the single worker with an idle connection, fill the
    // one-slot queue with another, then watch the third get shed.
    let hold_worker = TcpStream::connect(client.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // let the worker adopt it
    let hold_queue = TcpStream::connect(client.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let mut shed = TcpStream::connect(client.addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = String::new();
    shed.read_to_string(&mut buf).unwrap();
    assert!(buf.starts_with("HTTP/1.1 503"), "expected 503, got {buf:?}");
    assert!(buf.contains("busy"), "{buf:?}");

    drop(hold_worker);
    drop(hold_queue);
    // The worker frees up (idle holders closed) and normal service
    // resumes — retry through the tail of the drain.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let response = loop {
        match client.scan(None, &dirty_columns()) {
            Ok(r) => break r,
            Err(ClientError::Status { status: 503, .. })
                if std::time::Instant::now() < deadline =>
            {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(other) => panic!("scan did not recover after drain: {other}"),
        }
    };
    assert!(!response.findings.is_empty());
    let stats = client.get("/v1/stats").unwrap();
    assert!(stats.get("rejected_busy").and_then(Json::as_u64) >= Some(1));

    handle.shutdown();
    join.finish().unwrap();
}

/// Shed connections must each read a whole 503, never a reset: the
/// acceptor drains the request it is refusing before it closes, so no
/// unread bytes turn the close into an RST.
#[test]
fn every_shed_request_reads_a_complete_503() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        // Longer than the test: the idle holders must keep the worker
        // and the queue slot busy until they are dropped.
        io_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let (client, handle, join) = start("shed", config);
    let hold_worker = TcpStream::connect(client.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // let the worker adopt it
    let hold_queue = TcpStream::connect(client.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let body = r#"{"columns": [{"values": ["2011-01-01", "2011/01/02", "2012-03-04"]}]}"#;
    let request = format!(
        "POST /v1/scan HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    for i in 0..100 {
        let mut s = TcpStream::connect(client.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        if let Err(e) = s.write_all(request.as_bytes()) {
            panic!("request {i}: sending failed: {e}");
        }
        let mut buf = String::new();
        if let Err(e) = s.read_to_string(&mut buf) {
            panic!("request {i}: reading failed: {e} after {buf:?}");
        }
        assert!(buf.starts_with("HTTP/1.1 503"), "request {i}: {buf:?}");
        assert!(buf.contains("busy"), "request {i}: {buf:?}");
    }

    drop(hold_worker);
    drop(hold_queue);
    handle.shutdown();
    join.finish().unwrap();
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    let (client, handle, join) = start("shutdown", config);

    // Clients hammer the server while another thread pulls the plug;
    // every request that got a connection must get a complete response.
    let mut threads = Vec::new();
    for _ in 0..4 {
        let client = client.clone();
        threads.push(std::thread::spawn(move || {
            let mut completed = 0usize;
            for _ in 0..20 {
                match client.scan(None, &dirty_columns()) {
                    Ok(response) => {
                        assert_eq!(response.columns.len(), 2);
                        completed += 1;
                    }
                    // Connection refused/reset after shutdown is fine;
                    // a *served* request must never be half-answered.
                    Err(ClientError::Io(_)) => break,
                    Err(ClientError::Status { status: 503, .. }) => continue,
                    Err(other) => panic!("unexpected failure: {other}"),
                }
            }
            completed
        }));
    }
    std::thread::sleep(Duration::from_millis(150));
    client.shutdown().unwrap();
    join.finish().unwrap();

    let completed: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(completed > 0, "no request completed before shutdown");
    // The listener is gone.
    assert!(TcpStream::connect_timeout(&client.addr(), Duration::from_millis(500)).is_err());
    // Idempotent from the handle side too.
    handle.shutdown();
}

fn clean_web_corpus(columns: usize) -> Corpus {
    let mut p = CorpusProfile::web(columns);
    p.dirty_rate = 0.0;
    generate_corpus(&p)
}

#[test]
fn learn_loop_retrains_and_swaps_under_concurrent_scans() {
    let corpus = clean_web_corpus(600);
    let split = 400;
    let seed = Corpus::from_columns(corpus.columns()[..split].to_vec());
    let delta: Vec<Column> = corpus.columns()[split..].to_vec();

    let train = AutoDetectConfig {
        training_examples: 2_000,
        train_threads: 2,
        ..AutoDetectConfig::small()
    };
    let learn = LearnConfig {
        absorb_columns: 150,
        // Long enough that only the column threshold can fire, so the
        // test sees exactly one retrain.
        absorb_interval: Duration::from_secs(3_600),
        queue_capacity: 16,
        seed_corpus: Some(seed),
        ..LearnConfig::new(train)
    };
    let config = ServeConfig {
        workers: 4,
        learn: Some(learn),
        ..ServeConfig::default()
    };
    let (client, handle, join) = start("learn_loop", config);

    let before = client.scan(None, &dirty_columns()).unwrap();
    assert_eq!(before.generation, 1);

    // Scan continuously while the learner ingests, retrains, and swaps:
    // every scan must succeed, on generation 1 or 2 and nothing else —
    // a half-installed model would surface here as a failure or a
    // generation outside the set.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut scanners = Vec::new();
    for _ in 0..3 {
        let client = client.clone();
        let stop = Arc::clone(&stop);
        scanners.push(std::thread::spawn(move || {
            let mut seen = std::collections::BTreeSet::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let r = client
                    .scan(None, &dirty_columns())
                    .expect("scan during retrain");
                assert!(
                    r.generation == 1 || r.generation == 2,
                    "mixed/unknown generation {}",
                    r.generation
                );
                seen.insert(r.generation);
            }
            seen
        }));
    }

    // Stream the delta through both ingest paths: explicit uploads and
    // the scan tap. 200 columns crosses the 150-column threshold.
    let mut sent = 0u64;
    for chunk in delta.chunks(50) {
        let accepted = client.learn(chunk).unwrap();
        assert_eq!(accepted, chunk.len() as u64);
        sent += accepted;
    }
    assert!(sent >= 150, "sent {sent}");
    let tapped = client.scan_and_learn(None, &dirty_columns()).unwrap();
    assert!(tapped.generation >= 1);

    // Wait for the retrain + swap to land.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    let learn_stats = loop {
        let stats = client.get("/v1/stats").unwrap();
        let learn = stats
            .get("learn")
            .expect("stats carry a learn section")
            .clone();
        if learn.get("swaps").and_then(Json::as_u64) >= Some(1) {
            break learn;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "learner never swapped: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(learn_stats.get("errors").and_then(Json::as_u64), Some(0));
    assert_eq!(learn_stats.get("skipped").and_then(Json::as_u64), Some(0));
    assert!(learn_stats.get("retrains").and_then(Json::as_u64) >= Some(1));
    assert!(learn_stats.get("ingested_columns").and_then(Json::as_u64) >= Some(sent));
    assert!(learn_stats.get("requests").and_then(Json::as_u64) >= Some(4));

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut seen = std::collections::BTreeSet::new();
    for t in scanners {
        seen.extend(t.join().unwrap());
    }
    assert!(seen.contains(&1), "generations observed: {seen:?}");

    // The swap is already live: the very next scan serves generation 2,
    // and the model is the retrained one (not the 2-language tiny seed).
    let after = client.scan(None, &dirty_columns()).unwrap();
    assert_eq!(after.generation, 2);
    let models = client.get("/v1/models").unwrap();
    let row = &models.get("models").unwrap().as_arr().unwrap()[0];
    assert!(row.get("languages").and_then(Json::as_u64) >= Some(1));

    handle.shutdown();
    join.finish().unwrap();
}

#[test]
fn bind_rejects_zero_absorb_thresholds() {
    let zero_columns = LearnConfig {
        absorb_columns: 0,
        ..LearnConfig::default()
    };
    let zero_interval = LearnConfig {
        absorb_interval: Duration::ZERO,
        ..LearnConfig::default()
    };
    for (learn, knob) in [
        (zero_columns, "absorb_columns"),
        (zero_interval, "absorb_interval"),
    ] {
        let config = ServeConfig {
            learn: Some(learn),
            ..ServeConfig::default()
        };
        let registry = ModelRegistry::open(tmp_models(&format!("bind_zero_{knob}"))).unwrap();
        match Server::bind(config, registry) {
            Err(adt_core::AdtError::Config(m)) => assert!(m.contains(knob), "{m}"),
            other => panic!("zero {knob} should be a Config error, got {other:?}"),
        }
    }
}

#[test]
fn learn_endpoints_reject_when_learning_is_disabled() {
    let (client, handle, join) = start("learn_disabled", ServeConfig::default());

    // POST /v1/learn without a learn loop → 409.
    match client.learn(&dirty_columns()).unwrap_err() {
        ClientError::Status { status, message } => {
            assert_eq!(status, 409);
            assert!(message.contains("disabled"), "{message}");
        }
        other => panic!("expected status error, got {other}"),
    }
    // `"learn": true` on a scan is an explicit request, not a hint — it
    // fails loudly rather than silently not learning.
    match client.scan_and_learn(None, &dirty_columns()).unwrap_err() {
        ClientError::Status { status, message } => {
            assert_eq!(status, 400);
            assert!(message.contains("learn"), "{message}");
        }
        other => panic!("expected status error, got {other}"),
    }
    // Plain scans are untouched.
    assert!(client.scan(None, &dirty_columns()).is_ok());

    handle.shutdown();
    join.finish().unwrap();
}

#[test]
fn shutdown_endpoint_alone_stops_the_server() {
    let (client, _handle, join) = start("shutdown_endpoint", ServeConfig::default());
    client.shutdown().unwrap();
    join.finish().unwrap();
}
