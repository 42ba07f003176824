//! End-to-end test: boot the server on an ephemeral port, drive it
//! with raw TCP requests, and check the JSON responses and metrics.

use ir_fusion::FusionConfig;
use irf_data::Dataset;
use irf_models::ModelKind;
use irf_serve::json::{parse, Json};
use irf_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Sends one HTTP/1.1 request with `Connection: close` and returns
/// the raw response text (status line, headers and body).
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
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
    response
}

/// `raw_request` reduced to `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let response = raw_request(addr, method, path, body);
    let status: u16 = response
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let payload = response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1
        .to_string();
    (status, payload)
}

/// Collects every span name in a flight-recorder span tree, depth
/// first.
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

/// `true` when a span named `request` in `record`'s span tree has an
/// `nn_forward` span somewhere beneath it.
fn forward_under_request(record: &Json, request: &str) -> bool {
    fn find(node: &Json, request: &str) -> bool {
        if node.get("name").and_then(Json::as_str) == Some(request) {
            let mut below = Vec::new();
            span_names(node, &mut below);
            return below.iter().any(|n| n == "nn_forward");
        }
        match node.get("children") {
            Some(Json::Arr(children)) => children.iter().any(|c| find(c, request)),
            _ => false,
        }
    }
    match record.get("spans") {
        Some(Json::Arr(roots)) => roots.iter().any(|root| find(root, request)),
        _ => false,
    }
}

/// Reads exactly one response (head + `Content-Length` body) off a
/// persistent connection. Returns `(status, connection_header, body)`.
fn read_one_response(reader: &mut BufReader<TcpStream>) -> (u16, String, String) {
    let mut status = 0u16;
    let mut connection = String::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if line.starts_with("HTTP/1.1 ") {
            status = line
                .split(' ')
                .nth(1)
                .expect("status")
                .parse()
                .expect("numeric");
        } else if let Some((name, value)) = line.split_once(':') {
            match name.to_ascii_lowercase().as_str() {
                "connection" => connection = value.trim().to_string(),
                "content-length" => content_length = value.trim().parse().expect("length"),
                _ => {}
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("read body");
    (
        status,
        connection,
        String::from_utf8(body).expect("utf8 body"),
    )
}

fn metric_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics}"))
}

#[test]
fn server_answers_predicts_and_reuses_the_cache() {
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(2, 2, 1, 7);
    let trained = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);

    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 8,
            read_timeout: Duration::from_secs(120),
            // Every request snapshots its span tree into the flight
            // recorder, so the lookup below is deterministic.
            slow_threshold: Duration::ZERO,
            ..ServerConfig::default()
        },
        config,
        Some(trained),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    let (status, body) = request(addr, "GET", "/v1/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // There is no trace endpoint: a request's spans live in the flight
    // recorder (looked up below).
    let (status, _) = request(addr, "GET", "/v1/trace", "");
    assert_eq!(status, 404, "the flight recorder is the one trace store");

    // Two predicts of the SAME design: the second must hit the cache.
    let predict_body = r#"{"spec":{"class":"fake","seed":11}}"#;
    for _ in 0..2 {
        let (status, body) = request(addr, "POST", "/v1/predict", predict_body);
        assert_eq!(status, 200, "predict failed: {body}");
        let json = parse(&body).expect("valid json");
        assert_eq!(json.get("source").and_then(Json::as_str), Some("fused"));
        assert_eq!(json.get("width").and_then(Json::as_u64), Some(16));
        assert_eq!(json.get("height").and_then(Json::as_u64), Some(16));
        assert!(
            json.get("max_drop")
                .and_then(Json::as_f64)
                .expect("max_drop")
                > 0.0
        );
        assert!(json.get("hotspot_count").and_then(Json::as_u64).is_some());
        assert_eq!(
            json.get("design").and_then(Json::as_str).map(str::len),
            Some(16),
            "design fingerprint is 16 hex chars"
        );
        assert!(json.get("map").is_none(), "map only on request");
    }

    // Malformed and unknown requests are rejected, not crashed on.
    let (status, _) = request(addr, "POST", "/v1/predict", "{not json");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "POST", "/v1/predict", "{}");
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    // include_map returns width*height values. Its request id is
    // looked up in the flight recorder below.
    let response = raw_request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":11},"include_map":true}"#,
    );
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let (head, body) = response.split_once("\r\n\r\n").expect("separator");
    let predict_id = head
        .lines()
        .find_map(|line| line.strip_prefix("X-Irf-Request-Id: "))
        .expect("request id header")
        .to_string();
    let json = parse(body).expect("valid json");
    match json.get("map") {
        Some(Json::Arr(values)) => assert_eq!(values.len(), 16 * 16),
        other => panic!("expected map array, got {other:?}"),
    }

    let (status, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    // Three predicts of the same design: the cold walk computed each
    // of the six stage artifacts (stack, assembled system, solver
    // setup, rough solve, geometry maps, resistance maps) exactly
    // once; the two warm predicts short-circuited on the stack
    // artifact.
    assert_eq!(metric_value(&metrics, "irf_cache_misses_total"), 6.0);
    assert_eq!(metric_value(&metrics, "irf_cache_hits_total"), 2.0);
    assert!(metrics.contains("irf_stage_cache_events_total{stage=\"stack\",event=\"miss\"} 1"));
    assert!(metrics.contains("irf_stage_cache_events_total{stage=\"stack\",event=\"hit\"} 2"));
    assert!(
        metrics.contains("irf_stage_cache_events_total{stage=\"solver_setup\",event=\"miss\"} 1")
    );
    assert!(metric_value(&metrics, "irf_cache_hit_rate") > 0.2);
    // One forward per fused predict, run on the handler's thread.
    assert_eq!(
        metric_value(&metrics, "irf_stage_requests_total{stage=\"forward\"}"),
        3.0
    );
    assert!(metrics.contains("irf_requests_total{route=\"predict\",status=\"200\"} 3"));
    assert!(metrics.contains("irf_requests_total{route=\"predict\",status=\"400\"} 2"));
    assert!(metrics.contains("irf_stage_seconds_total{stage=\"prepare\"}"));
    assert!(metrics.contains("irf_stage_seconds_total{stage=\"forward\"}"));
    // Solver telemetry published deep in the pipeline surfaces on the
    // same endpoint: the cache miss above ran a full rough solve.
    assert!(metric_value(&metrics, "irf_pcg_iterations") >= 1.0);
    assert!(metric_value(&metrics, "irf_pcg_iterations_total") >= 1.0);
    assert!(metric_value(&metrics, "irf_amg_levels") >= 1.0);
    assert!(metrics.contains("irf_stage_seconds_total{stage=\"amg_setup\"}"));
    assert!(metrics.contains("irf_stage_seconds_total{stage=\"pcg_solve\"}"));
    assert!(metrics.contains("irf_stage_seconds_total{stage=\"rough_solve\"}"));

    // The flight recorder resolves that predict's id back to its span
    // tree: the request-level span, and under it the model forward,
    // run on the request's own thread.
    let (status, record) = request(addr, "GET", &format!("/v1/debug/requests/{predict_id}"), "");
    assert_eq!(status, 200, "{record}");
    let record = parse(&record).expect("record is valid json");
    let mut names = Vec::new();
    match record.get("spans") {
        Some(Json::Arr(roots)) => roots.iter().for_each(|root| span_names(root, &mut names)),
        other => panic!("expected a span tree, got {other:?}"),
    }
    assert!(
        forward_under_request(&record, "predict_request"),
        "nn_forward must sit under predict_request in {names:?}"
    );

    // netlist_path streams the file into the same grid the spec
    // produced: identical design fingerprint, warm cache hit.
    let dir = std::env::temp_dir().join("irf_serve_e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let netlist_path = dir.join("design.sp");
    std::fs::write(
        &netlist_path,
        irf_data::export::to_netlist(&irf_data::fake::generate(11)),
    )
    .expect("write netlist file");
    let (status, body) = request(
        addr,
        "POST",
        "/v1/predict",
        &format!(r#"{{"netlist_path":"{}"}}"#, netlist_path.display()),
    );
    assert_eq!(status, 200, "netlist_path predict failed: {body}");
    let json = parse(&body).expect("valid json");
    let by_path = json
        .get("design")
        .and_then(Json::as_str)
        .map(str::to_string);
    let (_, body) = request(addr, "POST", "/v1/predict", predict_body);
    let json = parse(&body).expect("valid json");
    assert_eq!(
        by_path,
        json.get("design")
            .and_then(Json::as_str)
            .map(str::to_string),
        "streamed file and inline spec must resolve to the same design"
    );

    // An oversized netlist file is refused up front with the
    // structured payload_too_large envelope (sparse file: no disk).
    let big_path = dir.join("huge.sp");
    let big = std::fs::File::create(&big_path).expect("create sparse file");
    big.set_len(257 * 1024 * 1024).expect("set sparse length");
    drop(big);
    let (status, body) = request(
        addr,
        "POST",
        "/v1/predict",
        &format!(r#"{{"netlist_path":"{}"}}"#, big_path.display()),
    );
    assert_eq!(status, 413, "oversized file must be refused: {body}");
    let json = parse(&body).expect("valid json");
    let error = json.get("error").expect("error envelope");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("payload_too_large")
    );
    assert_eq!(
        error
            .get("details")
            .and_then(|d| d.get("actual_bytes"))
            .and_then(Json::as_u64),
        Some(257 * 1024 * 1024)
    );
    let _ = std::fs::remove_file(&big_path);
    let _ = std::fs::remove_file(&netlist_path);

    // One keep-alive connection serves several requests, and a small
    // response is not held back for the client's delayed ACK (~40 ms
    // per exchange when head and body left as two writes on a socket
    // without TCP_NODELAY). The first exchange is left out: on a fresh
    // connection the kernel acks at once, so it never showed the stall.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    let mut reader = BufReader::new(stream);
    let mut fastest = Duration::MAX;
    for exchange in 0..6 {
        let sent = Instant::now();
        reader
            .get_mut()
            .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            .expect("write request");
        let (status, connection, body) = read_one_response(&mut reader);
        if exchange > 0 {
            fastest = fastest.min(sent.elapsed());
        }
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        assert_eq!(connection, "keep-alive");
    }
    assert!(
        fastest < Duration::from_millis(10),
        "fastest of 5 keep-alive healthz round trips took {fastest:?}"
    );
    reader
        .get_mut()
        .write_all(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let (status, connection, _) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(connection, "close");

    // Graceful shutdown over HTTP; wait() must join every thread.
    let (status, body) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200, "{body}");
    server.wait();
}
