//! End-to-end tests for the request-scoped observability layer:
//! `X-Irf-Request-Id` response headers, the flight recorder behind
//! `GET /v1/debug/requests`, and per-request attribution of stage-cache
//! and solver telemetry. Kept in its own test binary so its traffic
//! doesn't perturb the process-global metrics registry other e2e
//! tests assert exact counts against.

use ir_fusion::FusionConfig;
use irf_data::Dataset;
use irf_models::ModelKind;
use irf_serve::json::{parse, Json};
use irf_serve::recorder::RequestId;
use irf_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one HTTP/1.1 request with `Connection: close` and returns
/// `(status, request_id_header, body)`. The id is `None` when the
/// response carried no `X-Irf-Request-Id` header.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Option<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, payload) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let id = head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case("x-irf-request-id")
            .then(|| value.trim().to_string())
    });
    (status, id, payload.to_string())
}

/// Fetches one recorded request from the flight recorder and parses it.
fn debug_record(addr: SocketAddr, id: &str) -> Json {
    let (status, _, body) = request(addr, "GET", &format!("/v1/debug/requests/{id}"), "");
    assert_eq!(status, 200, "record {id} missing: {body}");
    parse(&body).expect("valid record json")
}

fn field_u64(record: &Json, name: &str) -> u64 {
    record
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("numeric field {name} missing in {record:?}"))
}

/// Collects every span name in a span tree, depth first.
fn span_names(node: &Json, out: &mut Vec<String>) {
    if let Some(name) = node.get("name").and_then(Json::as_str) {
        out.push(name.to_string());
    }
    if let Some(Json::Arr(children)) = node.get("children") {
        for child in children {
            span_names(child, out);
        }
    }
}

fn modelless_server(recorder_capacity: usize) -> Server {
    Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 8,
            read_timeout: Duration::from_secs(120),
            // Snapshot the span tree for every request so the tests
            // below can assert on it deterministically.
            slow_threshold: Duration::ZERO,
            recorder_capacity,
        },
        FusionConfig::tiny(),
        None,
    )
    .expect("bind ephemeral port")
}

#[test]
fn request_ids_round_trip_and_attribute_stage_events() {
    let server = modelless_server(64);
    let addr = server.addr();

    // Every response carries a parseable 16-hex request id.
    let (status, id, body) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3}}"#,
    );
    assert_eq!(status, 200, "predict failed: {body}");
    let predict_id = id.expect("predict response carries X-Irf-Request-Id");
    assert_eq!(predict_id.len(), 16, "id is 16 hex chars: {predict_id}");
    let parsed = RequestId::parse(&predict_id).expect("id parses back");
    assert_eq!(parsed.to_string(), predict_id);
    let base = parse(&body)
        .expect("valid json")
        .get("design")
        .and_then(Json::as_str)
        .expect("design fingerprint")
        .to_string();

    // A /whatif against the warm base: its record must attribute the
    // stage-cache hits (base artifacts) AND misses (edited design)
    // plus the PCG iterations of its incremental re-solve to its own
    // request id — the core acceptance criterion of this layer.
    let whatif_body = format!(r#"{{"base":"{base}","deltas":[{{"node":1,"amps":0.002}}]}}"#);
    let (status, id, body) = request(addr, "POST", "/v1/whatif", &whatif_body);
    assert_eq!(status, 200, "whatif failed: {body}");
    let whatif_id = id.expect("whatif response carries X-Irf-Request-Id");
    assert_ne!(whatif_id, predict_id, "ids are distinct per request");

    let record = debug_record(addr, &whatif_id);
    assert_eq!(
        record.get("request").and_then(Json::as_str),
        Some(whatif_id.as_str())
    );
    assert_eq!(
        record.get("endpoint").and_then(Json::as_str),
        Some("whatif")
    );
    assert_eq!(field_u64(&record, "status"), 200);
    assert!(
        field_u64(&record, "cache_hits") >= 1,
        "warm base artifacts must register as hits: {record:?}"
    );
    assert!(
        field_u64(&record, "cache_misses") >= 1,
        "the edited design computes fresh stages: {record:?}"
    );
    assert!(
        field_u64(&record, "pcg_iterations") >= 1,
        "the incremental re-solve runs PCG: {record:?}"
    );
    assert!(field_u64(&record, "pcg_solves") >= 1);

    // slow_threshold == 0 snapshots the span tree for every request:
    // the whatif's tree holds its request span, the stage-cache walk,
    // and the solver spans, all tagged to this id.
    assert_eq!(record.get("has_spans").and_then(Json::as_bool), Some(true));
    let spans = match record.get("spans") {
        Some(Json::Arr(spans)) => spans,
        other => panic!("expected spans array, got {other:?}"),
    };
    let mut names = Vec::new();
    for span in spans {
        span_names(span, &mut names);
    }
    assert!(
        names.iter().any(|n| n == "whatif_request"),
        "missing request span in {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "stage_cache"),
        "missing stage-cache span in {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "pcg_solve"),
        "missing solver span in {names:?}"
    );

    // The predict's own record exists too, and did NOT absorb the
    // whatif's telemetry (the cold predict has no cache hits).
    let record = debug_record(addr, &predict_id);
    assert_eq!(
        record.get("endpoint").and_then(Json::as_str),
        Some("predict")
    );
    assert_eq!(field_u64(&record, "cache_hits"), 0);
    assert!(field_u64(&record, "cache_misses") >= 1);

    // The list endpoint summarizes both, newest first.
    let (status, _, body) = request(addr, "GET", "/v1/debug/requests", "");
    assert_eq!(status, 200);
    let listing = parse(&body).expect("valid listing json");
    assert_eq!(field_u64(&listing, "capacity"), 64);
    let summaries = match listing.get("requests") {
        Some(Json::Arr(records)) => records,
        other => panic!("expected requests array, got {other:?}"),
    };
    let listed: Vec<_> = summaries
        .iter()
        .filter_map(|r| r.get("request").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert!(listed.contains(&predict_id), "{listed:?}");
    assert!(listed.contains(&whatif_id), "{listed:?}");
    let seqs: Vec<_> = summaries.iter().map(|r| field_u64(r, "seq")).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(seqs, sorted, "listing is newest first");

    // Malformed and unknown ids are rejected cleanly.
    let (status, _, _) = request(addr, "GET", "/v1/debug/requests/not-hex", "");
    assert_eq!(status, 400);
    let (status, _, _) = request(addr, "GET", "/v1/debug/requests/ffffffffffffffff", "");
    assert_eq!(status, 404);

    let (status, _, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}

#[test]
fn concurrent_requests_get_distinct_ids_with_their_own_stats() {
    // A trained model, so every predict runs a forward of its own.
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(2, 2, 1, 7);
    let trained = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 3,
            cache_capacity: 8,
            read_timeout: Duration::from_secs(120),
            slow_threshold: Duration::ZERO,
            recorder_capacity: 64,
        },
        config,
        Some(trained),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Distinct designs from concurrent connections: each must come
    // back with a unique id whose record carries that request's own
    // pipeline work (every cold design computes its own stages).
    let workers: Vec<_> = (0..6)
        .map(|seed| {
            std::thread::spawn(move || {
                let body = format!(r#"{{"spec":{{"class":"fake","seed":{}}}}}"#, 100 + seed);
                let (status, id, body) = request(addr, "POST", "/v1/predict", &body);
                assert_eq!(status, 200, "predict failed: {body}");
                id.expect("response carries X-Irf-Request-Id")
            })
        })
        .collect();
    let ids: Vec<String> = workers
        .into_iter()
        .map(|w| w.join().expect("predict thread"))
        .collect();

    let mut unique = ids.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "duplicate request ids in {ids:?}");

    for id in &ids {
        let record = debug_record(addr, id);
        assert_eq!(
            record.get("request").and_then(Json::as_str),
            Some(id.as_str())
        );
        assert_eq!(
            record.get("endpoint").and_then(Json::as_str),
            Some("predict")
        );
        assert_eq!(field_u64(&record, "status"), 200);
        assert!(
            field_u64(&record, "cache_misses") >= 1,
            "each cold design computes its own stages: {record:?}"
        );
    }

    let (status, _, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}

/// The subtree rooted at the first span named `name`, depth first.
fn find_span<'a>(node: &'a Json, name: &str) -> Option<&'a Json> {
    if node.get("name").and_then(Json::as_str) == Some(name) {
        return Some(node);
    }
    match node.get("children") {
        Some(Json::Arr(children)) => children.iter().find_map(|c| find_span(c, name)),
        _ => None,
    }
}

#[test]
fn a_fused_predict_records_its_forward_under_the_request_span() {
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(2, 2, 1, 7);
    let trained = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 8,
            read_timeout: Duration::from_secs(120),
            slow_threshold: Duration::ZERO,
            recorder_capacity: 64,
        },
        config,
        Some(trained),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // The span collector is process-wide: while another test's request
    // holds it, a predict keeps its record but no span tree, so try a
    // few times for a record that has one.
    let record = (0..20)
        .find_map(|_| {
            let (status, id, body) = request(
                addr,
                "POST",
                "/v1/predict",
                r#"{"spec":{"class":"fake","seed":3}}"#,
            );
            assert_eq!(status, 200, "predict failed: {body}");
            let source = parse(&body).expect("valid json");
            assert_eq!(source.get("source").and_then(Json::as_str), Some("fused"));
            let record = debug_record(addr, &id.expect("response carries an id"));
            let has_spans = record.get("has_spans").and_then(Json::as_bool);
            (has_spans == Some(true)).then_some(record)
        })
        .expect("one of the predicts keeps its span tree");

    let Some(Json::Arr(roots)) = record.get("spans") else {
        panic!("expected spans array in {record:?}");
    };
    let request_span = roots
        .iter()
        .find_map(|root| find_span(root, "predict_request"))
        .unwrap_or_else(|| panic!("no predict_request span in {record:?}"));
    let mut below = Vec::new();
    span_names(request_span, &mut below);
    assert!(
        below.iter().any(|n| n == "nn_forward"),
        "the forward runs inside the request: {below:?}"
    );

    let (status, _, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}

#[test]
fn flight_recorder_stays_within_its_fixed_capacity() {
    let server = modelless_server(4);
    let addr = server.addr();

    let mut first_id = None;
    for _ in 0..10 {
        let (status, id, _) = request(addr, "GET", "/v1/healthz", "");
        assert_eq!(status, 200);
        let id = id.expect("even /healthz responses carry an id");
        first_id.get_or_insert(id);
    }

    let (status, _, body) = request(addr, "GET", "/v1/debug/requests", "");
    assert_eq!(status, 200);
    let listing = parse(&body).expect("valid listing json");
    assert_eq!(field_u64(&listing, "capacity"), 4);
    assert_eq!(
        field_u64(&listing, "count"),
        4,
        "ring keeps exactly the newest `capacity` records: {body}"
    );

    // The newest retained request answers 200. (Debug requests are
    // themselves recorded after their response is written, so older
    // summaries may be evicted by the very act of fetching them.)
    let summaries = match listing.get("requests") {
        Some(Json::Arr(records)) => records,
        other => panic!("expected requests array, got {other:?}"),
    };
    let newest = summaries[0]
        .get("request")
        .and_then(Json::as_str)
        .expect("summary id");
    let (status, _, _) = request(addr, "GET", &format!("/v1/debug/requests/{newest}"), "");
    assert_eq!(status, 200);

    // The first request of the burst was evicted long ago: 404.
    let first_id = first_id.expect("captured first id");
    let (status, _, _) = request(addr, "GET", &format!("/v1/debug/requests/{first_id}"), "");
    assert_eq!(status, 404, "oldest record must have been evicted");

    let (status, _, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}

/// `/v1/metrics` reads the process's resident and peak resident bytes
/// at scrape time, after a predict has grown the heap.
#[cfg(target_os = "linux")]
#[test]
fn metrics_carry_the_process_resident_memory() {
    let server = modelless_server(4);
    let addr = server.addr();
    let (status, _, _) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3}}"#,
    );
    assert_eq!(status, 200);
    let (status, _, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    let gauge = |name: &str| -> f64 {
        assert!(
            metrics.contains(&format!("# TYPE {name} gauge")),
            "{name} is not typed as a gauge"
        );
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} has no sample"))
    };
    let resident = gauge("irf_process_resident_bytes");
    let peak = gauge("irf_process_peak_resident_bytes");
    assert!(resident > 0.0, "resident {resident}");
    assert!(peak >= resident, "peak {peak} below resident {resident}");

    let (status, _, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}
