//! Requests that must end in a typed error and a live server: a design
//! whose solve panics answers a counted, recorded 500 `internal`, a
//! body of nested brackets too deep to parse answers a 400
//! `invalid_json`, and a present optional member of the wrong type
//! answers a 400 `invalid_<member>` carrying the value as sent, never
//! its default.
//! Kept in its own test binary because the server publishes into the
//! process-global metrics registry and log sink.

use ir_fusion::FusionConfig;
use irf_serve::json::{parse, Json};
use irf_serve::{log, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Two pieces of wire with no path between them: the island
/// (`n1_m1_2000_0`–`n1_m1_3000_0`, carrying the load) floats, and its
/// singular block panics in the AMG setup.
const ISLAND: &str = r#"{"netlist":"V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_1000_0 1.0\nR2 n1_m1_2000_0 n1_m1_3000_0 1.0\nI1 n1_m1_3000_0 0 1m\n"}"#;

/// Writes `raw` to a fresh connection and reads until the server
/// closes it: `(head, body)`.
fn exchange(addr: SocketAddr, raw: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("the server answers and closes");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("head/body separator");
    (head.to_string(), body.to_string())
}

/// One `Connection: close` request: `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (head, body) = exchange(
        addr,
        &format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    let status = head
        .split(' ')
        .nth(1)
        .expect("status")
        .parse()
        .expect("numeric");
    (status, body)
}

fn start() -> Server {
    Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 8,
            read_timeout: Duration::from_secs(60),
            slow_threshold: Duration::ZERO,
            ..ServerConfig::default()
        },
        FusionConfig::tiny(),
        None,
    )
    .expect("bind ephemeral port")
}

fn stop(server: Server) {
    assert_eq!(request(server.addr(), "POST", "/v1/shutdown", "").0, 200);
    server.wait();
}

/// A model-free server with the fake seed-3 design predicted, and that
/// design's fingerprint.
fn start_with_base() -> (Server, String) {
    let server = start();
    let (status, reply) = request(
        server.addr(),
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3}}"#,
    );
    assert_eq!(status, 200, "{reply}");
    let base = parse(&reply)
        .expect("json")
        .get("design")
        .and_then(Json::as_str)
        .expect("design")
        .to_string();
    (server, base)
}

/// Asserts a 400 `invalid_<key>` whose `details.value` is `value`, and
/// that the message names `place`.
fn assert_refused(reply: (u16, String), key: &str, place: &str, value: &str) {
    let (status, body) = reply;
    assert_eq!(status, 400, "{body}");
    let error = parse(&body)
        .expect("json")
        .get("error")
        .cloned()
        .expect("envelope");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some(format!("invalid_{key}").as_str()),
        "{body}"
    );
    let message = error
        .get("message")
        .and_then(Json::as_str)
        .expect("message");
    assert!(message.starts_with(place), "{body}");
    let details = error.get("details").expect("details");
    assert_eq!(
        details.get("value").map(Json::render).as_deref(),
        Some(value),
        "{body}"
    );
}

/// A sink for the server's log lines.
#[derive(Clone, Default)]
struct Captured(Arc<Mutex<Vec<u8>>>);

impl Write for Captured {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("log buffer").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_panicking_request_answers_500_and_the_server_lives_on() {
    let logs = Captured::default();
    log::set_writer(Some(Box::new(logs.clone())));
    let server = start();
    let addr = server.addr();

    // Keep-alive is asked for, but the panicking request's connection
    // is answered and then closed (`exchange` reads to EOF).
    let (head, body) = exchange(
        addr,
        &format!(
            "POST /v1/predict HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{ISLAND}",
            ISLAND.len()
        ),
    );
    assert!(head.starts_with("HTTP/1.1 500 "), "{head}");
    assert!(
        head.to_ascii_lowercase().contains("connection: close"),
        "{head}"
    );
    let id = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Irf-Request-Id: "))
        .unwrap_or_else(|| panic!("no request id: {head}"))
        .to_string();
    assert_eq!(
        body,
        r#"{"error":{"code":"internal","message":"internal error while answering","details":{}}}"#
    );

    // The server is alive, and a clean design still answers.
    assert_eq!(
        request(addr, "GET", "/v1/healthz", ""),
        (200, "ok\n".to_string())
    );
    let (status, reply) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3}}"#,
    );
    assert_eq!(status, 200, "{reply}");

    // Counted, recorded and logged like any other request.
    let (_, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert!(
        metrics.contains("irf_requests_total{route=\"predict\",status=\"500\"} 1\n"),
        "{metrics}"
    );
    let (_, recent) = request(addr, "GET", "/v1/debug/requests", "");
    let recent = parse(&recent).expect("json");
    let Some(Json::Arr(records)) = recent.get("requests") else {
        panic!("no requests array");
    };
    assert!(
        records.iter().any(|r| {
            r.get("endpoint").and_then(Json::as_str) == Some("predict")
                && r.get("status").and_then(Json::as_u64) == Some(500)
        }),
        "{}",
        recent.render()
    );
    // Its full record carries the panic message.
    let (status, record) = request(addr, "GET", &format!("/v1/debug/requests/{id}"), "");
    assert_eq!(status, 200, "{record}");
    let panic = parse(&record)
        .expect("json")
        .get("panic")
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_else(|| panic!("no panic member: {record}"));
    assert!(
        panic.contains("amg coarse operator is not positive definite"),
        "{panic}"
    );
    stop(server);
    log::set_writer(None);
    let logs = String::from_utf8(logs.0.lock().expect("log buffer").clone()).expect("utf-8");
    let panics: Vec<&str> = logs
        .lines()
        .filter(|l| l.contains(r#""event":"request_panic""#))
        .collect();
    assert_eq!(panics.len(), 1, "{logs}");
    assert!(panics[0].contains(r#""level":"warn""#), "{}", panics[0]);
    assert!(
        panics[0].contains(r#""endpoint":"predict""#),
        "{}",
        panics[0]
    );
    assert!(panics[0].contains("positive definite"), "{}", panics[0]);
}

/// Ten thousand open brackets: a parser with no depth bound overflows
/// the worker's stack, which aborts the whole process. The body is
/// refused like any other malformed JSON, and the server keeps
/// answering on a new connection.
#[test]
fn a_nesting_bomb_answers_400_and_the_server_lives_on() {
    let server = start();
    let addr = server.addr();
    let (status, body) = request(addr, "POST", "/v1/predict", &"[".repeat(10_000));
    assert_eq!(status, 400, "{body}");
    let error = parse(&body).expect("json").get("error").cloned();
    let error = error.expect("envelope");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("invalid_json"),
        "{body}"
    );
    assert!(
        error
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("nesting deeper than 128 levels")),
        "{body}"
    );
    assert_eq!(
        request(addr, "GET", "/v1/healthz", ""),
        (200, "ok\n".to_string())
    );
    stop(server);
}

#[test]
fn a_mistyped_include_map_is_refused() {
    let (server, base) = start_with_base();
    let addr = server.addr();
    assert_refused(
        request(
            addr,
            "POST",
            "/v1/predict",
            r#"{"include_map":"yes","spec":{"seed":1}}"#,
        ),
        "include_map",
        "include_map must be a boolean",
        r#""yes""#,
    );
    let whatif = format!(r#"{{"base":"{base}","deltas":[],"include_map":1}}"#);
    assert_refused(
        request(addr, "POST", "/v1/whatif", &whatif),
        "include_map",
        "include_map must be a boolean",
        "1",
    );
    stop(server);
}

#[test]
fn a_mistyped_hotspot_threshold_is_refused() {
    let (server, base) = start_with_base();
    let addr = server.addr();
    assert_refused(
        request(
            addr,
            "POST",
            "/v1/predict",
            r#"{"hotspot_threshold":"0.001","spec":{"seed":1}}"#,
        ),
        "hotspot_threshold",
        "hotspot_threshold must be a number",
        r#""0.001""#,
    );
    let whatif = format!(r#"{{"base":"{base}","deltas":[],"hotspot_threshold":null}}"#);
    assert_refused(
        request(addr, "POST", "/v1/whatif", &whatif),
        "hotspot_threshold",
        "hotspot_threshold must be a number",
        "null",
    );
    let sweep =
        format!(r#"{{"base":"{base}","candidates":[{{"deltas":[]}}],"hotspot_threshold":[1]}}"#);
    assert_refused(
        request(addr, "POST", "/v1/sweep", &sweep),
        "hotspot_threshold",
        "hotspot_threshold must be a number",
        "[1]",
    );
    stop(server);
}

#[test]
fn a_mistyped_warm_start_is_refused() {
    let (server, base) = start_with_base();
    let addr = server.addr();
    let sweep = format!(r#"{{"base":"{base}","candidates":[{{"deltas":[]}}],"warm_start":1}}"#);
    assert_refused(
        request(addr, "POST", "/v1/sweep", &sweep),
        "warm_start",
        "warm_start must be a boolean",
        "1",
    );
    let optimize = format!(
        r#"{{"base":"{base}","target_max_drop":0.001,"metal_budget":1,"warm_start":"no"}}"#
    );
    assert_refused(
        request(addr, "POST", "/v1/optimize", &optimize),
        "warm_start",
        "warm_start must be a boolean",
        r#""no""#,
    );
    stop(server);
}

#[test]
fn a_mistyped_candidate_label_is_refused() {
    let (server, base) = start_with_base();
    let sweep =
        format!(r#"{{"base":"{base}","candidates":[{{"deltas":[]}},{{"label":7,"deltas":[]}}]}}"#);
    let reply = request(server.addr(), "POST", "/v1/sweep", &sweep);
    assert!(reply.1.contains(r#""candidate":1"#), "{}", reply.1);
    assert_refused(reply, "label", "candidates[1]: label must be a string", "7");
    stop(server);
}

#[test]
fn a_mistyped_delta_kind_is_refused() {
    let (server, base) = start_with_base();
    let addr = server.addr();
    // Read as "current", this delta would be a valid current edit: a
    // non-string kind must be refused, not defaulted.
    let deltas = r#"[{"kind":["strap"],"node":1,"amps":0.002}]"#;
    assert_refused(
        request(
            addr,
            "POST",
            "/v1/whatif",
            &format!(r#"{{"base":"{base}","deltas":{deltas}}}"#),
        ),
        "kind",
        "deltas[0]: kind must be a string",
        r#"["strap"]"#,
    );
    let sweep = format!(r#"{{"base":"{base}","candidates":[{{"label":"x","deltas":{deltas}}}]}}"#);
    let reply = request(addr, "POST", "/v1/sweep", &sweep);
    assert!(
        reply.1.contains(r#""candidate":0,"label":"x""#),
        "{}",
        reply.1
    );
    assert_refused(
        reply,
        "kind",
        "candidates[0] (x): deltas[0]: kind must be a string",
        r#"["strap"]"#,
    );
    stop(server);
}
