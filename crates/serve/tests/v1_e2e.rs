//! End-to-end tests of the versioned `/v1` surface: the unified error
//! envelope on every endpoint, the retired unversioned paths (404
//! `unknown_route`, no deprecation header), the named model registry
//! (list / reload round-trip), and the one numeric mode of a predict:
//! `"precision":"f32"` changes nothing, any other value is refused.
//! Kept in its own test binary because the server publishes into the
//! process-global metrics registry.

use ir_fusion::FusionConfig;
use irf_data::Dataset;
use irf_models::ModelKind;
use irf_serve::json::{parse, Json};
use irf_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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

/// Asserts `body` is the unified envelope and returns its code.
fn envelope_code(body: &str) -> String {
    let json = parse(body).expect("error body is json");
    let error = json.get("error").unwrap_or_else(|| {
        panic!("missing error envelope in: {body}");
    });
    let code = error
        .get("code")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing error.code in: {body}"));
    assert!(
        error.get("message").and_then(Json::as_str).is_some(),
        "missing error.message in: {body}"
    );
    assert!(
        error.get("details").is_some(),
        "missing error.details in: {body}"
    );
    code.to_string()
}

/// `true` when a response mentions a deprecation anywhere — the
/// retired response header or the retired per-endpoint counter.
fn advertises_deprecation(response: &str) -> bool {
    response.to_ascii_lowercase().contains("deprecat")
}

fn map_values(body: &str) -> Vec<f64> {
    match parse(body).expect("valid json").get("map") {
        Some(Json::Arr(values)) => values
            .iter()
            .map(|v| v.as_f64().expect("numeric map entry"))
            .collect(),
        other => panic!("expected map array, got {other:?}"),
    }
}

fn metric_value(metrics: &str, line_prefix: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(line_prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {line_prefix} missing in:\n{metrics}"))
}

#[test]
fn v1_surface_envelope_registry_and_f32_only_predicts() {
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(2, 2, 1, 7);
    let model = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);

    // A differently trained checkpoint for the registry round-trip:
    // the entry it loads into must answer with its own map.
    let mut longer = config;
    longer.train.epochs += 2;
    let second = ir_fusion::train(ModelKind::IrEdge, &dataset, &longer);
    let checkpoint = std::env::temp_dir().join(format!("irf-v1-{}.bin", std::process::id()));
    let mut model_cfg = config.model;
    model_cfg.in_channels = 11; // 5 shared + 3 layer-current + 3 layer-solution
    model_cfg.linear_head = second.residual;
    let file = std::fs::File::create(&checkpoint).expect("create checkpoint");
    ir_fusion::save_model(&second, ModelKind::IrEdge, model_cfg, file).expect("save checkpoint");

    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 8,
            read_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        config,
        Some(model),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // --- `/v1` is the only surface: the retired unversioned paths
    // answer the `unknown_route` envelope, and nothing advertises a
    // deprecation any more. ---
    let v1_health = raw_request(addr, "GET", "/v1/healthz", "");
    assert!(v1_health.starts_with("HTTP/1.1 200"), "{v1_health}");
    assert!(!advertises_deprecation(&v1_health), "{v1_health}");
    for (method, path, body) in [
        ("GET", "/healthz", ""),
        ("POST", "/predict", r#"{"spec":{"class":"fake","seed":3}}"#),
        ("POST", "/reload", "{}"),
    ] {
        let response = raw_request(addr, method, path, body);
        assert!(response.starts_with("HTTP/1.1 404"), "{path}: {response}");
        assert!(!advertises_deprecation(&response), "{path}: {response}");
        let reply = response.split_once("\r\n\r\n").expect("separator").1;
        assert_eq!(envelope_code(reply), "unknown_route", "{path}: {reply}");
    }

    let predict_body = r#"{"spec":{"class":"fake","seed":3},"include_map":true}"#;
    let (status, v1_predict) = request(addr, "POST", "/v1/predict", predict_body);
    assert_eq!(status, 200, "v1 predict failed: {v1_predict}");
    let v1_json = parse(&v1_predict).expect("valid json");
    assert_eq!(
        v1_json.get("model").and_then(Json::as_str),
        Some("default"),
        "predict must echo the resolved model: {v1_predict}"
    );
    assert!(
        v1_json.get("precision").is_none(),
        "there is no precision to echo: {v1_predict}"
    );
    let (_, repeat_predict) = request(addr, "POST", "/v1/predict", predict_body);
    assert_eq!(
        v1_predict, repeat_predict,
        "a repeated predict must answer the identical bytes"
    );
    // Naming the one mode there is changes nothing.
    let (status, f32_predict) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3},"include_map":true,"precision":"f32"}"#,
    );
    assert_eq!(status, 200, "f32 predict failed: {f32_predict}");
    assert_eq!(
        f32_predict, v1_predict,
        "\"precision\":\"f32\" must answer the member-less bytes"
    );

    // --- The unified envelope on every endpoint's error path. ---
    for (method, path, body, status, code) in [
        ("POST", "/v1/predict", "{not json", 400, "invalid_json"),
        (
            "POST",
            "/v1/predict",
            r#"{"spec":{"class":"fake","seed":3},"precision":"fp64"}"#,
            400,
            "invalid_precision",
        ),
        (
            "POST",
            "/v1/predict",
            r#"{"spec":{"class":"fake","seed":3},"precision":"int8"}"#,
            400,
            "invalid_precision",
        ),
        (
            "POST",
            "/v1/predict",
            r#"{"spec":{"class":"fake","seed":3},"precision":16}"#,
            400,
            "invalid_precision",
        ),
        (
            "POST",
            "/v1/predict",
            r#"{"spec":{"class":"fake","seed":3},"model":"ghost"}"#,
            404,
            "unknown_model",
        ),
        // `1e400` parses to +inf: a typed ingest error, not a panic in
        // the solver's setup.
        (
            "POST",
            "/v1/predict",
            r#"{"netlist":"V1 a 0 1.0\nR1 a b 1.0\nR2 b c 1e400\nI1 c 0 1m\n"}"#,
            400,
            "invalid_design",
        ),
        ("POST", "/v1/whatif", "{}", 400, "missing_base"),
        (
            "POST",
            "/v1/whatif",
            r#"{"base":"zz"}"#,
            400,
            "invalid_base",
        ),
        // A sign is not a hex digit, even where the integer parser
        // would take one.
        (
            "POST",
            "/v1/whatif",
            r#"{"base":"+00000000000abcd"}"#,
            400,
            "invalid_base",
        ),
        (
            "POST",
            "/v1/whatif",
            r#"{"base":"0000000000000000"}"#,
            404,
            "unknown_base",
        ),
        ("POST", "/v1/sweep", "{}", 400, "missing_base"),
        ("POST", "/v1/optimize", "{}", 400, "missing_base"),
        (
            "GET",
            "/v1/debug/requests/zz",
            "",
            400,
            "invalid_request_id",
        ),
        (
            "GET",
            "/v1/debug/requests/+00000000000abcd",
            "",
            400,
            "invalid_request_id",
        ),
        (
            "POST",
            "/v1/models/bad%20name/reload",
            "{}",
            400,
            "invalid_model_name",
        ),
        (
            "POST",
            "/v1/models/default/reload",
            "{}",
            400,
            "missing_model_path",
        ),
        ("GET", "/v1/nonsense", "", 404, "unknown_route"),
        ("DELETE", "/v1/predict", "", 405, "method_not_allowed"),
    ] {
        let (got, reply) = request(addr, method, path, body);
        assert_eq!(got, status, "{method} {path}: {reply}");
        assert_eq!(
            envelope_code(&reply),
            code,
            "{method} {path} wrong code: {reply}"
        );
    }
    // A design request is read as written: a mistyped `spec` member is
    // refused by name, never replaced by its default (fake seed 0),
    // and inline SPICE rides the card stream, duplicate names and all.
    for (body, names) in [
        (r#"{"spec":{"class":"real","seed":"7"}}"#, r#""seed""#),
        (r#"{"spec":{"class":"fake","seed":-1}}"#, r#""seed""#),
        (r#"{"spec":{"seed":1.5}}"#, r#""seed""#),
        (r#"{"spec":{"class":7}}"#, r#""class""#),
        (r#"{"spec":5}"#, r#""spec""#),
        (
            r#"{"netlist":"V1 a 0 1.0\nR1 a b 1.0\nI1 b 0 1m\nr1 b a 2.0\n"}"#,
            "netlist parse error: line 4: duplicate element name 'r1'",
        ),
        (
            r#"{"netlist":"V1 a 0 1.0\nR1 a b 0\nI1 b 0 1m\n"}"#,
            "invalid power grid: resistor 'R1'",
        ),
        // An infinite load is named, never solved into an all-zero map.
        (
            r#"{"netlist":"V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_2000_0 1.0\nI1 n1_m1_2000_0 0 1e400\n"}"#,
            "invalid power grid: source 'I1' has non-finite value",
        ),
    ] {
        let (status, reply) = request(addr, "POST", "/v1/predict", body);
        assert_eq!(status, 400, "{body}: {reply}");
        assert_eq!(envelope_code(&reply), "invalid_design", "{body}: {reply}");
        let json = parse(&reply).expect("valid json");
        let message = json
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("error message");
        assert!(message.contains(names), "{body}: {message}");
    }

    // Edits are read as written too: an infinite current and a layer
    // number past u32 (which would wrap onto m1 or m2) are refused,
    // in a what-if and in a sweep candidate alike.
    let base = v1_json
        .get("design")
        .and_then(Json::as_str)
        .expect("design fingerprint");
    for deltas in [
        r#"[{"node":3,"amps":1e400}]"#,
        r#"[{"kind":"strap","layer":4294967297,"scale":0.8}]"#,
        r#"[{"kind":"via","layers":[1,4294967298],"scale":1.5}]"#,
    ] {
        let whatif = format!(r#"{{"base":"{base}","deltas":{deltas}}}"#);
        let sweep =
            format!(r#"{{"base":"{base}","candidates":[{{"label":"x","deltas":{deltas}}}]}}"#);
        for (path, body) in [("/v1/whatif", whatif), ("/v1/sweep", sweep)] {
            let (status, reply) = request(addr, "POST", path, &body);
            assert_eq!(status, 400, "{path} {deltas}: {reply}");
            assert_eq!(envelope_code(&reply), "invalid_deltas", "{path}: {reply}");
        }
    }

    // A valid one-layer design gives fewer feature channels than the
    // three-layer model was built for: a typed 400 naming both counts,
    // answered before the forward runs, and the server still answers.
    let one_layer = r#"{"netlist":"V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_2000_0 1.0\nI1 n1_m1_2000_0 0 1m\n"}"#;
    for _ in 0..3 {
        let (status, reply) = request(addr, "POST", "/v1/predict", one_layer);
        assert_eq!(status, 400, "{reply}");
        assert_eq!(envelope_code(&reply), "invalid_design", "{reply}");
        assert!(
            reply.contains("7 feature channels") && reply.contains("built for 11"),
            "{reply}"
        );
    }
    assert_eq!(request(addr, "GET", "/v1/healthz", "").0, 200);

    // unknown_model reports which models ARE loaded.
    let (_, reply) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3},"model":"ghost"}"#,
    );
    let loaded = parse(&reply)
        .expect("valid json")
        .get("error")
        .and_then(|e| e.get("details"))
        .and_then(|d| d.get("loaded"))
        .cloned()
        .expect("details.loaded");
    assert_eq!(loaded.render(), r#"["default"]"#, "{reply}");

    // invalid_precision says what was asked for and what is served.
    let (_, reply) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3},"model":"default","precision":"int8"}"#,
    );
    let error = parse(&reply)
        .expect("valid json")
        .get("error")
        .cloned()
        .expect("error envelope");
    assert_eq!(
        error.get("message").and_then(Json::as_str),
        Some("this server serves f32 only"),
        "{reply}"
    );
    assert_eq!(
        error
            .get("details")
            .and_then(|d| d.get("value"))
            .and_then(Json::as_str),
        Some("int8"),
        "{reply}"
    );

    // --- Registry: list, named reload. ---
    let (status, listing) = request(addr, "GET", "/v1/models", "");
    assert_eq!(status, 200, "{listing}");
    let json = parse(&listing).expect("valid json");
    assert_eq!(json.get("count").and_then(Json::as_u64), Some(1));
    let Some(Json::Arr(models)) = json.get("models") else {
        panic!("missing models array: {listing}");
    };
    assert_eq!(
        models[0].get("name").and_then(Json::as_str),
        Some("default")
    );
    // The whole row: name, architecture, params, reloads.
    let params = models[0]
        .get("params")
        .and_then(Json::as_u64)
        .expect("params");
    assert!(params > 0, "{listing}");
    assert_eq!(
        models[0].render(),
        format!(r#"{{"name":"default","architecture":"IREDGe","params":{params},"reloads":0}}"#),
        "{listing}"
    );

    let reload_body = format!(r#"{{"model_path":"{}"}}"#, checkpoint.display());
    let (status, reply) = request(addr, "POST", "/v1/models/alt/reload", &reload_body);
    assert_eq!(status, 200, "named reload failed: {reply}");
    let json = parse(&reply).expect("valid json");
    assert_eq!(json.get("model").and_then(Json::as_str), Some("alt"));
    assert!(json.get("precision").is_none(), "{reply}");
    assert_eq!(json.get("reloads").and_then(Json::as_u64), Some(0));

    let (_, listing) = request(addr, "GET", "/v1/models", "");
    let json = parse(&listing).expect("valid json");
    assert_eq!(
        json.get("count").and_then(Json::as_u64),
        Some(2),
        "{listing}"
    );

    // Reloading `default` by name bumps its reload count.
    let (status, reply) = request(addr, "POST", "/v1/models/default/reload", &reload_body);
    assert_eq!(status, 200, "default reload failed: {reply}");
    assert!(reply.contains("\"model\":\"default\""), "{reply}");
    let (_, listing) = request(addr, "GET", "/v1/models", "");
    let Some(Json::Arr(models)) = parse(&listing).expect("valid json").get("models").cloned()
    else {
        panic!("missing models array: {listing}");
    };
    let default = models
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("default"))
        .expect("default entry");
    assert_eq!(default.get("reloads").and_then(Json::as_u64), Some(1));

    // --- Two models, two answers: the named entry runs its own
    // weights, and `default` now runs them too. ---
    let (status, alt_reply) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":3},"model":"alt","include_map":true}"#,
    );
    assert_eq!(status, 200, "alt predict failed: {alt_reply}");
    assert!(alt_reply.contains("\"model\":\"alt\""), "{alt_reply}");
    assert_ne!(
        map_values(&alt_reply),
        map_values(&v1_predict),
        "the second checkpoint must answer differently from the startup model"
    );
    let (_, reloaded_default) = request(addr, "POST", "/v1/predict", predict_body);
    assert_eq!(
        map_values(&reloaded_default),
        map_values(&alt_reply),
        "default was reloaded from the same checkpoint"
    );

    // --- Metrics: registry gauge, the predict counter that is left,
    // and no trace of the retired per-precision and deprecation
    // counters. ---
    let (status, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metric_value(&metrics, "irf_model_registry_models "), 2.0);
    assert_eq!(
        metric_value(
            &metrics,
            "irf_requests_total{route=\"predict\",status=\"200\"} "
        ),
        5.0
    );
    assert!(
        !metrics.contains("irf_predict_requests_total"),
        "the per-precision counter is gone: {metrics}"
    );
    assert!(
        !advertises_deprecation(&metrics),
        "the deprecation counter is gone: {metrics}"
    );

    // An absent `spec` member still takes its default (after the
    // metrics above, which count every 200).
    let (status, seedless) = request(addr, "POST", "/v1/predict", r#"{"spec":{"class":"fake"}}"#);
    assert_eq!(status, 200, "{seedless}");
    let (_, seed_zero) = request(
        addr,
        "POST",
        "/v1/predict",
        r#"{"spec":{"class":"fake","seed":0}}"#,
    );
    assert_eq!(seedless, seed_zero);

    let (status, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
    let _ = std::fs::remove_file(&checkpoint);
}
