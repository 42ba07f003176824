//! End-to-end test for the incremental `/whatif` route, in its own
//! test binary so its requests don't perturb the process-global
//! metrics registry the main e2e test asserts exact counts against.

use ir_fusion::FusionConfig;
use irf_serve::json::{parse, Json};
use irf_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one HTTP/1.1 request with `Connection: close` and returns
/// `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
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

fn metric_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing in:\n{metrics}"))
}

#[test]
fn whatif_rides_warm_artifacts() {
    // Modelless server: responses carry the rough map, which is all
    // the incremental path needs exercising (the forward pass is the
    // same call either way).
    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 8,
            read_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        FusionConfig::tiny(),
        None,
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Base prediction registers the parsed design under its
    // fingerprint.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3}}"#,
    );
    assert_eq!(status, 200, "predict failed: {body}");
    let json = parse(&body).expect("valid json");
    let base = json
        .get("design")
        .and_then(Json::as_str)
        .expect("design fingerprint")
        .to_string();
    let base_max = json.get("max_drop").and_then(Json::as_f64).expect("max");

    // A what-if against an unknown base is a 404, not a crash.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/whatif",
        r#"{"base":"0000000000000000","deltas":[{"node":1,"amps":0.001}]}"#,
    );
    assert_eq!(status, 404);
    // ...and a malformed delta list is a 400.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/whatif",
        &format!(r#"{{"base":"{base}"}}"#),
    );
    assert_eq!(status, 400);
    let (status, _) = request(
        addr,
        "POST",
        "/v1/whatif",
        &format!(r#"{{"base":"{base}","deltas":[{{"node":999999,"amps":0.1}}]}}"#),
    );
    assert_eq!(status, 400);

    // The real what-if: bump one cell's current and re-analyze.
    let whatif_body = format!(r#"{{"base":"{base}","deltas":[{{"node":1,"amps":0.002}}]}}"#);
    let (status, body) = request(addr, "POST", "/v1/whatif", &whatif_body);
    assert_eq!(status, 200, "whatif failed: {body}");
    let json = parse(&body).expect("valid json");
    assert_eq!(json.get("base").and_then(Json::as_str), Some(base.as_str()));
    assert_eq!(json.get("deltas_applied").and_then(Json::as_u64), Some(1));
    let design = json
        .get("design")
        .and_then(Json::as_str)
        .expect("new fingerprint")
        .to_string();
    assert_ne!(design, base, "a current edit must change the fingerprint");
    let whatif_max = json.get("max_drop").and_then(Json::as_f64).expect("max");
    assert!(
        whatif_max > base_max,
        "more current must deepen the worst drop ({whatif_max} vs {base_max})"
    );

    // Re-issuing the identical what-if lands a warm stack hit, and
    // the edited design is itself a valid base for further what-ifs.
    let (status, body2) = request(addr, "POST", "/v1/whatif", &whatif_body);
    assert_eq!(status, 200);
    assert_eq!(body2, body, "idempotent what-if");
    let chained = format!(r#"{{"base":"{design}","deltas":[{{"node":1,"amps":-0.001}}]}}"#);
    let (status, body) = request(addr, "POST", "/v1/whatif", &chained);
    assert_eq!(status, 200, "chained whatif failed: {body}");

    let (status, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    // The warm walks reused the topology-keyed artifacts: the
    // assembled system and solver setup were computed once (by the
    // base predict) and only ever hit afterwards.
    assert!(
        metrics.contains("irf_stage_cache_events_total{stage=\"assembled\",event=\"miss\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("irf_stage_cache_events_total{stage=\"solver_setup\",event=\"miss\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("irf_stage_cache_events_total{stage=\"structural\",event=\"miss\"} 1"),
        "{metrics}"
    );
    let setup_hits = metric_value(
        &metrics,
        "irf_stage_cache_events_total{stage=\"solver_setup\",event=\"hit\"}",
    );
    assert!(setup_hits >= 2.0, "warm what-ifs must hit the solver setup");
    assert!(metrics.contains("irf_requests_total{route=\"whatif\",status=\"200\"} 3"));
    assert!(metrics.contains("irf_requests_total{route=\"whatif\",status=\"404\"} 1"));
    assert!(metrics.contains("irf_stage_seconds_total{stage=\"whatif_prepare\"}"));

    let (status, body) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200, "{body}");
    server.wait();
}

#[test]
fn read_timeouts_close_idle_connections_and_408_half_requests() {
    // Model-free server: these connections never reach the pipeline.
    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 2,
            read_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        },
        FusionConfig::tiny(),
        None,
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // A connection that sends part of a request and stalls gets 408.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stalled
        .write_all(b"POST /v1/predict HTTP/1.1\r\nContent-Le")
        .expect("write partial head");
    let mut response = String::new();
    stalled
        .read_to_string(&mut response)
        .expect("server answers before closing");
    assert!(
        response.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
        "expected 408, got: {response}"
    );
    assert!(response.contains("Connection: close\r\n"));

    // An idle connection is closed silently: EOF, zero bytes.
    let mut idle = TcpStream::connect(addr).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut buf = Vec::new();
    idle.read_to_end(&mut buf).expect("clean close");
    assert!(buf.is_empty(), "idle close must not write a response");

    // A model-free server has nothing for /reload to swap.
    let (status, body) = request(
        addr,
        "POST",
        "/v1/models/default/reload",
        r#"{"model_path":"x"}"#,
    );
    assert_eq!(status, 409, "{body}");

    let (status, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}
