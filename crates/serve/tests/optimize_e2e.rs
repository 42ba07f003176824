//! End-to-end tests for `POST /v1/optimize` and the hardened `/v1/sweep`
//! input validation, in their own test binary so their requests don't
//! perturb the process-global metrics registry other e2e binaries
//! assert exact counts against.

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

fn start_server(num_threads: usize) -> Server {
    let mut fusion = FusionConfig::tiny();
    fusion.num_threads = num_threads;
    Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            // The optimizer keeps a beam of designs warm per stage.
            cache_capacity: 128,
            read_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        fusion,
        None,
    )
    .expect("bind ephemeral port")
}

fn predict_base(addr: SocketAddr) -> String {
    let (status, body) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3}}"#,
    );
    assert_eq!(status, 200, "predict failed: {body}");
    parse(&body)
        .expect("valid json")
        .get("design")
        .and_then(Json::as_str)
        .expect("design fingerprint")
        .to_string()
}

fn baseline_max_drop(addr: SocketAddr) -> f64 {
    let (status, body) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3}}"#,
    );
    assert_eq!(status, 200, "predict failed: {body}");
    parse(&body)
        .expect("valid json")
        .get("max_drop")
        .and_then(Json::as_f64)
        .expect("max_drop")
}

#[test]
fn optimize_closes_the_loop_and_registers_the_winner() {
    let server = start_server(0);
    let addr = server.addr();
    let base = predict_base(addr);
    let baseline = baseline_max_drop(addr);
    let target = baseline * 0.9;

    let body = format!(
        r#"{{"base":"{base}","target_max_drop":{target},"metal_budget":1e9,"beam":2,"max_iterations":3,"max_evaluations":24}}"#
    );
    let (status, reply) = request(addr, "POST", "/v1/optimize", &body);
    assert_eq!(status, 200, "optimize failed: {reply}");
    let json = parse(&reply).expect("valid json");
    assert_eq!(json.get("target_met").and_then(Json::as_bool), Some(true));
    assert_eq!(
        json.get("stop_reason").and_then(Json::as_str),
        Some("target_met")
    );
    assert_eq!(json.get("source").and_then(Json::as_str), Some("rough"));
    let winner = json.get("winner").expect("winner");
    let winner_drop = winner.get("max_drop").and_then(Json::as_f64).expect("drop");
    assert!(winner_drop <= target, "{winner_drop} > target {target}");
    assert!(
        winner
            .get("metal_cost")
            .and_then(Json::as_f64)
            .expect("cost")
            > 0.0
    );
    let Some(Json::Arr(trajectory)) = json.get("trajectory") else {
        panic!("trajectory missing: {reply}");
    };
    assert!(!trajectory.is_empty());
    let Some(Json::Arr(deltas)) = winner.get("deltas") else {
        panic!("winner deltas missing: {reply}");
    };
    assert!(!deltas.is_empty());

    // The winner is registered: its design fingerprint is a valid
    // /whatif base, and replaying its deltas from the original base
    // reproduces the same design fingerprint.
    let design = winner
        .get("design")
        .and_then(Json::as_str)
        .expect("winner design")
        .to_string();
    let whatif = format!(r#"{{"base":"{design}","deltas":[{{"node":0,"amps":0.0001}}]}}"#);
    let (status, reply) = request(addr, "POST", "/v1/whatif", &whatif);
    assert_eq!(status, 200, "winner not registered as base: {reply}");

    let replay_deltas: Vec<String> = deltas.iter().map(Json::render).collect();
    let replay = format!(
        r#"{{"base":"{base}","deltas":[{}]}}"#,
        replay_deltas.join(",")
    );
    let (status, reply) = request(addr, "POST", "/v1/whatif", &replay);
    assert_eq!(status, 200, "replaying winner deltas failed: {reply}");
    let replayed = parse(&reply).expect("valid json");
    assert_eq!(
        replayed.get("design").and_then(Json::as_str),
        Some(design.as_str()),
        "replayed plan landed on a different design"
    );

    // The loop's work is visible on /metrics.
    let (status, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains("irf_opt_iterations_total"));
    assert!(metrics.contains("irf_opt_evaluations_total"));
    let iterations = metric_value(&metrics, "irf_opt_iterations_total");
    assert!(iterations >= 1.0, "no optimizer iterations recorded");

    server.shutdown();
    server.wait();
}

/// Reads an unlabelled counter's value out of a Prometheus text page.
fn metric_value(page: &str, name: &str) -> f64 {
    page.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

#[test]
fn optimize_rejects_bad_inputs_with_structured_bodies() {
    let server = start_server(0);
    let addr = server.addr();
    let base = predict_base(addr);

    // Unknown base.
    let (status, reply) = request(
        addr,
        "POST",
        "/v1/optimize",
        r#"{"base":"00000000deadbeef","target_max_drop":0.001,"metal_budget":1.0}"#,
    );
    assert_eq!(status, 404, "unexpected: {reply}");

    // Missing / invalid target and budget.
    for (body, code) in [
        (format!(r#"{{"base":"{base}"}}"#), "missing_target"),
        (
            format!(r#"{{"base":"{base}","target_max_drop":-0.5,"metal_budget":1.0}}"#),
            "invalid_target",
        ),
        (
            format!(r#"{{"base":"{base}","target_max_drop":0.001}}"#),
            "missing_budget",
        ),
        (
            format!(r#"{{"base":"{base}","target_max_drop":0.001,"metal_budget":0.0}}"#),
            "invalid_budget",
        ),
        (
            format!(r#"{{"base":"{base}","target_max_drop":0.001,"metal_budget":1.0,"beam":99}}"#),
            "invalid_beam",
        ),
        (
            format!(
                r#"{{"base":"{base}","target_max_drop":0.001,"metal_budget":1.0,"max_iterations":0}}"#
            ),
            "invalid_max_iterations",
        ),
        (
            format!(
                r#"{{"base":"{base}","target_max_drop":0.001,"metal_budget":1.0,"max_evaluations":1000}}"#
            ),
            "invalid_max_evaluations",
        ),
    ] {
        let (status, reply) = request(addr, "POST", "/v1/optimize", &body);
        assert_eq!(status, 400, "expected 400 for {code}: {reply}");
        let json = parse(&reply).expect("valid json");
        assert_eq!(
            json.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(code),
            "wrong code in {reply}"
        );
    }

    server.shutdown();
    server.wait();
}

#[test]
fn sweep_rejects_empty_and_oversized_candidate_lists_with_counts() {
    let server = start_server(0);
    let addr = server.addr();
    let base = predict_base(addr);

    // Empty candidate list: structured body carrying the count.
    let (status, reply) = request(
        addr,
        "POST",
        "/v1/sweep",
        &format!(r#"{{"base":"{base}","candidates":[]}}"#),
    );
    assert_eq!(status, 400, "unexpected: {reply}");
    let json = parse(&reply).expect("valid json");
    let error = json.get("error").expect("error envelope");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("empty_candidates")
    );
    let details = error.get("details").expect("details member");
    assert_eq!(details.get("count").and_then(Json::as_f64), Some(0.0));
    assert_eq!(details.get("limit").and_then(Json::as_f64), Some(64.0));

    // 65 candidates: structured body carrying count and limit.
    let candidate = r#"{"deltas":[{"node":0,"amps":0.0001}]}"#;
    let oversized = format!(
        r#"{{"base":"{base}","candidates":[{}]}}"#,
        vec![candidate; 65].join(",")
    );
    let (status, reply) = request(addr, "POST", "/v1/sweep", &oversized);
    assert_eq!(status, 400, "unexpected: {reply}");
    let json = parse(&reply).expect("valid json");
    let error = json.get("error").expect("error envelope");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("too_many_candidates")
    );
    let details = error.get("details").expect("details member");
    assert_eq!(details.get("count").and_then(Json::as_f64), Some(65.0));
    assert_eq!(details.get("limit").and_then(Json::as_f64), Some(64.0));

    // A valid sweep is counted on the candidates metric.
    let ok = format!(r#"{{"base":"{base}","candidates":[{candidate},{candidate}]}}"#);
    let (status, reply) = request(addr, "POST", "/v1/sweep", &ok);
    assert_eq!(status, 200, "sweep failed: {reply}");
    let (status, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metric_value(&metrics, "irf_sweep_candidates_total"), 2.0);

    server.shutdown();
    server.wait();
}

/// `warm_start` sweeps evaluate the same candidates to the same
/// untagged design fingerprints as cold sweeps, and are themselves
/// deterministic. (The *ranking* may legitimately differ for near-tied
/// candidates: a seeded solve stops at the seed's achieved residual, so
/// its drops are not bitwise the cold drops — that is exactly why warm
/// results live under seed-tagged stage keys.)
#[test]
fn warm_start_sweep_matches_cold_identities() {
    let server = start_server(0);
    let addr = server.addr();
    let base = predict_base(addr);

    let candidates = concat!(
        r#"[{"label":"thicken-m1","deltas":[{"kind":"strap","layer":1,"scale":0.5}]},"#,
        r#"{"label":"thicken-m2","deltas":[{"kind":"strap","layer":2,"scale":0.7}]},"#,
        r#"{"label":"better-vias","deltas":[{"kind":"via","layers":[1,2],"scale":0.6}]}]"#
    );
    let cold_body = format!(r#"{{"base":"{base}","candidates":{candidates}}}"#);
    let warm_body = format!(r#"{{"base":"{base}","warm_start":true,"candidates":{candidates}}}"#);

    let (status, cold) = request(addr, "POST", "/v1/sweep", &cold_body);
    assert_eq!(status, 200, "cold sweep failed: {cold}");
    let (status, warm) = request(addr, "POST", "/v1/sweep", &warm_body);
    assert_eq!(status, 200, "warm sweep failed: {warm}");

    let identities = |reply: &str| -> Vec<(String, String)> {
        let json = parse(reply).expect("valid json");
        let Some(Json::Arr(rows)) = json.get("candidates") else {
            panic!("candidates missing: {reply}");
        };
        let mut rows: Vec<(String, String)> = rows
            .iter()
            .map(|row| {
                (
                    row.get("label")
                        .and_then(Json::as_str)
                        .expect("label")
                        .to_string(),
                    row.get("design")
                        .and_then(Json::as_str)
                        .expect("design")
                        .to_string(),
                )
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(
        identities(&cold),
        identities(&warm),
        "warm-start sweep changed the candidates' design identities"
    );

    // The warm path is itself deterministic: the same warm sweep twice
    // reproduces every ranking metric bitwise (cache stats differ —
    // the repeat is a pure stack-stage hit).
    let (status, warm2) = request(addr, "POST", "/v1/sweep", &warm_body);
    assert_eq!(status, 200, "second warm sweep failed: {warm2}");
    let ranking = |reply: &str| -> Vec<(String, String, Option<f64>, Option<f64>)> {
        let json = parse(reply).expect("valid json");
        let Some(Json::Arr(rows)) = json.get("candidates") else {
            panic!("candidates missing: {reply}");
        };
        rows.iter()
            .map(|row| {
                (
                    row.get("label")
                        .and_then(Json::as_str)
                        .expect("label")
                        .to_string(),
                    row.get("design")
                        .and_then(Json::as_str)
                        .expect("design")
                        .to_string(),
                    row.get("max_drop").and_then(Json::as_f64),
                    row.get("delta_max_drop").and_then(Json::as_f64),
                )
            })
            .collect()
    };
    assert_eq!(
        ranking(&warm),
        ranking(&warm2),
        "warm sweep must be reproducible"
    );

    server.shutdown();
    server.wait();
}
