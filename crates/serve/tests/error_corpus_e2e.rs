//! The error corpus: one request for every error code a single request
//! can reach, and two representative 200s, each pinned to its exact
//! status and body bytes. A refactor of the server's decoding, handlers
//! or rendering must leave every byte here unchanged.
//!
//! Not covered: the transport's 408 `request_timeout` and 413
//! `body_too_large` (`whatif_e2e`, `http.rs`), the 503 `shutting_down`
//! of a drain, which no single request can reach, and `feature_error`,
//! which no request reaches at all: every grid that ingests has a pad
//! (a padless netlist is an `invalid_design` at ingest), so its bytes
//! are pinned by a unit test beside `ApiError`.
//! Kept in its own test binary because the server publishes into the
//! process-global metrics registry.

use ir_fusion::FusionConfig;
use irf_data::Dataset;
use irf_models::ModelKind;
use irf_serve::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Writes `raw` to a fresh connection and returns the response's
/// `(status, body)`.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    stream.write_all(raw).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1
        .to_string();
    (status, body)
}

/// One `Connection: close` request with `body`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    exchange(addr, &raw)
}

/// A corpus entry: method, path, body, then the pinned status and
/// body bytes.
type Case = (&'static str, String, Vec<u8>, u16, String);

fn case(method: &'static str, path: &str, body: &str, status: u16, reply: &str) -> Case {
    (
        method,
        path.to_string(),
        body.as_bytes().to_vec(),
        status,
        reply.to_string(),
    )
}

/// Sends every case and asserts its status and bytes; lists every
/// mismatch before failing.
fn check(addr: SocketAddr, cases: &[Case]) {
    let mut wrong = Vec::new();
    for (method, path, body, status, reply) in cases {
        let got = request(addr, method, path, body);
        if got != (*status, reply.clone()) {
            wrong.push(format!(
                "{method} {path} {}\n  want {status} {reply}\n  got  {} {}",
                String::from_utf8_lossy(body),
                got.0,
                got.1
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

fn start(model: Option<ir_fusion::TrainedModel>) -> Server {
    Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            cache_capacity: 8,
            read_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        FusionConfig::tiny(),
        model,
    )
    .expect("bind ephemeral port")
}

fn stop(server: Server) {
    assert_eq!(request(server.addr(), "POST", "/v1/shutdown", b"").0, 200);
    server.wait();
}

#[test]
fn every_error_code_answers_its_pinned_bytes() {
    let root = std::env::temp_dir().join(format!("irf-error-corpus-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("scratch dir");
    std::fs::write(
        root.join("dup.sp"),
        "V1 a 0 1.0\nR1 a b 1.0\nI1 b 0 1m\nr1 b a 2.0\n",
    )
    .expect("write");
    // Sparse: one byte over the ingest limit, no disk behind it.
    std::fs::File::create(root.join("huge.sp"))
        .and_then(|file| file.set_len(256 * 1024 * 1024 + 1))
        .expect("sparse file");
    std::fs::write(root.join("garbage.bin"), b"definitely not a checkpoint").expect("write");
    let dir = root.display();

    // --- A server without a model. The first case registers the base
    // design the what-if, sweep and optimize cases name. ---
    let server = start(None);
    let addr = server.addr();
    // A malformed request line is answered by the transport.
    assert_eq!(
        exchange(addr, b"GARBAGE\r\n\r\n"),
        (
            400,
            r#"{"error":{"code":"bad_request","message":"malformed request: missing target","details":{}}}"#
                .to_string()
        )
    );
    let many = format!(
        r#"{{"base":"e8c56e13bb9a0bcb","candidates":[{}]}}"#,
        vec![r#"{"deltas":[]}"#; 65].join(",")
    );
    let mut cases = vec![
        case(
            "POST",
            "/v1/predict",
            r#"{"spec":{"class":"fake","seed":3}}"#,
            200,
            r#"{"design":"e8c56e13bb9a0bcb","source":"rough","width":16,"height":16,"max_drop":0.0037471919786185026,"mean_drop":0.0027664245571941137,"hotspot_threshold":0.0033724727807566525,"hotspot_count":41,"nodes":2730}"#,
        ),
        case(
            "GET",
            "/v1/models",
            r#""#,
            200,
            r#"{"count":0,"models":[]}"#,
        ),
        case(
            "GET",
            "/v1/nonsense",
            r#""#,
            404,
            r#"{"error":{"code":"unknown_route","message":"no such route; the API lives under /v1/","details":{}}}"#,
        ),
        case(
            "GET",
            "/healthz",
            r#""#,
            404,
            r#"{"error":{"code":"unknown_route","message":"no such route; the API lives under /v1/","details":{}}}"#,
        ),
        case(
            "DELETE",
            "/v1/predict",
            r#""#,
            405,
            r#"{"error":{"code":"method_not_allowed","message":"method not allowed","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{not json"#,
            400,
            r#"{"error":{"code":"invalid_json","message":"json error at byte 1: expected '\"'","details":{}}}"#,
        ),
        case(
            "GET",
            "/v1/debug/requests/zz",
            r#""#,
            400,
            r#"{"error":{"code":"invalid_request_id","message":"request id must be 16 hex digits","details":{}}}"#,
        ),
        case(
            "GET",
            "/v1/debug/requests/00000000deadbeef",
            r#""#,
            404,
            r#"{"error":{"code":"not_recorded","message":"request not recorded (or already evicted)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/models/default/reload",
            r#"{}"#,
            409,
            r#"{"error":{"code":"no_model","message":"server is running without a model; reload has nothing to swap","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"spec":{"class":"fake","seed":3},"model":"default"}"#,
            409,
            r#"{"error":{"code":"no_model","message":"server is running without a model; model selection is unavailable","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"model":5}"#,
            400,
            r#"{"error":{"code":"invalid_model_name","message":"model must be a string","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"spec":{"class":"fake","seed":3},"precision":"int8"}"#,
            400,
            r#"{"error":{"code":"invalid_precision","message":"this server serves f32 only","details":{"value":"int8"}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{}"#,
            400,
            r#"{"error":{"code":"invalid_design","message":"request needs one of: netlist, netlist_path, spec","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"spec":5}"#,
            400,
            r#"{"error":{"code":"invalid_design","message":"\"spec\" must be an object","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"spec":{"class":7}}"#,
            400,
            r#"{"error":{"code":"invalid_design","message":"spec member \"class\" must be a string","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"spec":{"seed":"7"}}"#,
            400,
            r#"{"error":{"code":"invalid_design","message":"spec member \"seed\" must be a non-negative integer","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"spec":{"class":"huge"}}"#,
            400,
            r#"{"error":{"code":"invalid_design","message":"unknown design class \"huge\"","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"netlist":"V1 a 0 1.0\nR1 a b 1.0\nI1 b 0 1m\nr1 b a 2.0\n"}"#,
            400,
            r#"{"error":{"code":"invalid_design","message":"netlist parse error: line 4: duplicate element name 'r1'","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"netlist":"V1 a 0 1.0\nR1 a b 0\nI1 b 0 1m\n"}"#,
            400,
            r#"{"error":{"code":"invalid_design","message":"invalid power grid: resistor 'R1' has non-positive or non-finite resistance 0","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            r#"{"netlist":"R1 n1_m1_0_0 n1_m1_2000_0 1.0\nI1 n1_m1_2000_0 0 1m\n"}"#,
            400,
            r#"{"error":{"code":"invalid_design","message":"invalid power grid: design has no voltage source (floating grid)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/predict",
            &format!(r#"{{"netlist_path":"{dir}/missing.sp"}}"#),
            400,
            &format!(
                r#"{{"error":{{"code":"invalid_design","message":"cannot read {dir}/missing.sp: No such file or directory (os error 2)","details":{{}}}}}}"#
            ),
        ),
        case(
            "POST",
            "/v1/predict",
            &format!(r#"{{"netlist_path":"{dir}/dup.sp"}}"#),
            400,
            &format!(
                r#"{{"error":{{"code":"invalid_design","message":"cannot ingest {dir}/dup.sp: line 4: duplicate element name 'r1'","details":{{}}}}}}"#
            ),
        ),
        case(
            "POST",
            "/v1/predict",
            &format!(r#"{{"netlist_path":"{dir}/huge.sp"}}"#),
            413,
            &format!(
                r#"{{"error":{{"code":"payload_too_large","message":"netlist file {dir}/huge.sp exceeds the ingest limit","details":{{"limit_bytes":268435456,"actual_bytes":268435457}}}}}}"#
            ),
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{}"#,
            400,
            r#"{"error":{"code":"missing_base","message":"request needs base (a /v1/predict design fingerprint)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"zz"}"#,
            400,
            r#"{"error":{"code":"invalid_base","message":"base must be a hex fingerprint","details":{"value":"zz"}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"0000000000000000"}"#,
            404,
            r#"{"error":{"code":"unknown_base","message":"unknown base design; POST it to /v1/predict first","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb"}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"request needs deltas (an array of {kind?, node|name|layer|layers|segment, ...})","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"bogus"}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0]: unknown kind \"bogus\" (expected current, strap, via or segment)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"node":1}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0] needs a numeric amps","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"node":1,"amps":1e400}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0]: amps must be finite, got inf","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"node":999999,"amps":1e-3}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0]: node 999999 out of range (2730 nodes)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"name":"ghost","amps":1e-3}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0]: no node named \"ghost\"","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"amps":1e-3}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0] needs node (index) or name","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"strap","scale":0.5}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0] needs a numeric layer","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"strap","layer":4294967297,"scale":0.5}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0]: layer 4294967297 is out of range","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"strap","layer":1}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0] needs a numeric scale","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"via","scale":1.5}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0] needs layers (an array of two layers)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"via","layers":[1,2,3],"scale":1.5}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0]: layers must hold exactly two entries, got 3","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"via","layers":[1,"x"],"scale":1.5}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0]: layers entries must be numeric","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"via","layers":[1,2]}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0] needs a numeric scale","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"segment","ohms":0.3}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0] needs a numeric segment index","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"segment","segment":1}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"deltas[0] needs a numeric ohms","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"strap","layer":99,"scale":0.5}]}"#,
            400,
            r#"{"error":{"code":"no_strap_segments","message":"no strap segments on layer m99","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"via","layers":[1,9],"scale":1.5}]}"#,
            400,
            r#"{"error":{"code":"no_via_segments","message":"no via segments between layers m1 and m9","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"via","layers":[2,2],"scale":1.5}]}"#,
            400,
            r#"{"error":{"code":"degenerate_via","message":"via delta names layer m2 twice","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"segment","segment":1000000000,"ohms":0.3}]}"#,
            400,
            r#"{"error":{"code":"segment_out_of_range","message":"segment 1000000000 out of range (4021 segments)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/whatif",
            r#"{"base":"e8c56e13bb9a0bcb","deltas":[{"kind":"strap","layer":1,"scale":-1}]}"#,
            400,
            r#"{"error":{"code":"invalid_value","message":"scale must be positive and finite, got -1","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/sweep",
            r#"{}"#,
            400,
            r#"{"error":{"code":"missing_base","message":"request needs base (a /v1/predict design fingerprint)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/sweep",
            r#"{"base":"e8c56e13bb9a0bcb"}"#,
            400,
            r#"{"error":{"code":"missing_candidates","message":"request needs candidates (an array of {label?, deltas})","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/sweep",
            r#"{"base":"e8c56e13bb9a0bcb","candidates":[]}"#,
            400,
            r#"{"error":{"code":"empty_candidates","message":"candidates must not be empty","details":{"count":0,"limit":64}}}"#,
        ),
        case(
            "POST",
            "/v1/sweep",
            &many,
            400,
            r#"{"error":{"code":"too_many_candidates","message":"too many candidates (65, limit 64)","details":{"count":65,"limit":64}}}"#,
        ),
        case(
            "POST",
            "/v1/sweep",
            r#"{"base":"e8c56e13bb9a0bcb","candidates":[{"label":"x","deltas":[{"node":1,"amps":1e400}]}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"candidates[0] (x): deltas[0]: amps must be finite, got inf","details":{"candidate":0,"label":"x"}}}"#,
        ),
        case(
            "POST",
            "/v1/sweep",
            r#"{"base":"e8c56e13bb9a0bcb","candidates":[{"deltas":{}}]}"#,
            400,
            r#"{"error":{"code":"invalid_deltas","message":"candidates[0] (candidate-0): request needs deltas (an array of {kind?, node|name|layer|layers|segment, ...})","details":{"candidate":0,"label":"candidate-0"}}}"#,
        ),
        case(
            "POST",
            "/v1/sweep",
            r#"{"base":"e8c56e13bb9a0bcb","candidates":[{"label":"bogus","deltas":[{"kind":"strap","layer":99,"scale":0.5}]}]}"#,
            400,
            r#"{"error":{"code":"no_strap_segments","message":"no strap segments on layer m99","details":{"candidate":0,"label":"bogus"}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{}"#,
            400,
            r#"{"error":{"code":"missing_base","message":"request needs base (a /v1/predict design fingerprint)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{"base":"e8c56e13bb9a0bcb"}"#,
            400,
            r#"{"error":{"code":"missing_target","message":"request needs a numeric target_max_drop (volts)","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{"base":"e8c56e13bb9a0bcb","target_max_drop":-1}"#,
            400,
            r#"{"error":{"code":"invalid_target","message":"target_max_drop must be finite and non-negative","details":{"value":-1}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{"base":"e8c56e13bb9a0bcb","target_max_drop":0.001}"#,
            400,
            r#"{"error":{"code":"missing_budget","message":"request needs a numeric metal_budget","details":{}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{"base":"e8c56e13bb9a0bcb","target_max_drop":0.001,"metal_budget":0}"#,
            400,
            r#"{"error":{"code":"invalid_budget","message":"metal_budget must be finite and positive","details":{"value":0}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{"base":"e8c56e13bb9a0bcb","target_max_drop":0.001,"metal_budget":1,"beam":0}"#,
            400,
            r#"{"error":{"code":"invalid_beam","message":"beam must be an integer in [1, 8]","details":{"value":0,"min":1,"max":8}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{"base":"e8c56e13bb9a0bcb","target_max_drop":0.001,"metal_budget":1,"beam":"x"}"#,
            400,
            r#"{"error":{"code":"invalid_beam","message":"beam must be an integer in [1, 8]","details":{"value":null,"min":1,"max":8}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{"base":"e8c56e13bb9a0bcb","target_max_drop":0.001,"metal_budget":1,"max_iterations":33}"#,
            400,
            r#"{"error":{"code":"invalid_max_iterations","message":"max_iterations must be an integer in [1, 32]","details":{"value":33,"min":1,"max":32}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{"base":"e8c56e13bb9a0bcb","target_max_drop":0.001,"metal_budget":1,"max_evaluations":2.5}"#,
            400,
            r#"{"error":{"code":"invalid_max_evaluations","message":"max_evaluations must be an integer in [1, 256]","details":{"value":2.5,"min":1,"max":256}}}"#,
        ),
        case(
            "POST",
            "/v1/optimize",
            r#"{"base":"e8c56e13bb9a0bcb","target_max_drop":0.001,"metal_budget":1,"candidates_per_state":17}"#,
            400,
            r#"{"error":{"code":"invalid_candidates_per_state","message":"candidates_per_state must be an integer in [1, 16]","details":{"value":17,"min":1,"max":16}}}"#,
        ),
    ];
    // A body that is not UTF-8.
    cases.push((
        "POST",
        "/v1/predict".to_string(),
        vec![0xff, 0xfe],
        400,
        r#"{"error":{"code":"invalid_body","message":"body is not utf-8","details":{}}}"#
            .to_string(),
    ));
    check(addr, &cases);
    stop(server);

    // --- A server with a tiny model built for three-layer designs. ---
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(2, 2, 1, 7);
    let model = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
    let server = start(Some(model));
    let addr = server.addr();
    check(
        addr,
        &[
            case(
                "POST",
                "/v1/predict",
                r#"{"spec":{"class":"fake","seed":3},"model":"ghost"}"#,
                404,
                r#"{"error":{"code":"unknown_model","message":"no model named \"ghost\"","details":{"loaded":["default"]}}}"#,
            ),
            case(
                "POST",
                "/v1/predict",
                r#"{"netlist":"V1 n1_m1_0_0 0 1.0\nR1 n1_m1_0_0 n1_m1_2000_0 1.0\nI1 n1_m1_2000_0 0 1m\n"}"#,
                400,
                r#"{"error":{"code":"invalid_design","message":"the design gives 7 feature channels; the model was built for 11","details":{}}}"#,
            ),
            case(
                "POST",
                "/v1/models/bad%20name/reload",
                "{}",
                400,
                r#"{"error":{"code":"invalid_model_name","message":"model names are 1-64 characters of [A-Za-z0-9._-]","details":{"value":"bad%20name"}}}"#,
            ),
            case(
                "POST",
                "/v1/models/default/reload",
                "{}",
                400,
                r#"{"error":{"code":"missing_model_path","message":"request needs model_path","details":{}}}"#,
            ),
            case(
                "POST",
                "/v1/models/default/reload",
                &format!(r#"{{"model_path":"{dir}/absent.bin"}}"#),
                422,
                &format!(
                    r#"{{"error":{{"code":"checkpoint_error","message":"cannot open {dir}/absent.bin: No such file or directory (os error 2)","details":{{"model_path":"{dir}/absent.bin"}}}}}}"#
                ),
            ),
            case(
                "POST",
                "/v1/models/default/reload",
                &format!(r#"{{"model_path":"{dir}/garbage.bin"}}"#),
                422,
                &format!(
                    r#"{{"error":{{"code":"checkpoint_error","message":"cannot load {dir}/garbage.bin: not an IRFW checkpoint","details":{{"model_path":"{dir}/garbage.bin"}}}}}}"#
                ),
            ),
        ],
    );
    stop(server);
    let _ = std::fs::remove_dir_all(&root);
}
