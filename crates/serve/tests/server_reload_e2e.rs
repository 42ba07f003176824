//! End-to-end test of `POST /v1/models/default/reload`: checkpoint
//! swap under live traffic. Kept in its own test binary (= its own process) because
//! the server publishes into the process-global metrics registry, and
//! this test's predict traffic would pollute the counters asserted by
//! `server_e2e.rs`.

use ir_fusion::FusionConfig;
use irf_data::Dataset;
use irf_models::ModelKind;
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

fn map_values(body: &str) -> Vec<f64> {
    match parse(body).expect("valid json").get("map") {
        Some(Json::Arr(values)) => values
            .iter()
            .map(|v| v.as_f64().expect("numeric map entry"))
            .collect(),
        other => panic!("expected map array, got {other:?}"),
    }
}

#[test]
fn reload_swaps_the_model_without_dropping_requests() {
    let config = FusionConfig::tiny();
    let dataset = Dataset::generate(2, 2, 1, 7);
    let first = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
    let mut longer = config;
    longer.train.epochs += 2;
    let second = ir_fusion::train(ModelKind::IrEdge, &dataset, &longer);

    let checkpoint = std::env::temp_dir().join(format!("irf-reload-{}.bin", std::process::id()));
    let mut model_cfg = config.model;
    model_cfg.in_channels = 11; // 5 shared + 3 layer-current + 3 layer-solution
    model_cfg.linear_head = second.residual;
    let file = std::fs::File::create(&checkpoint).expect("create checkpoint");
    ir_fusion::save_model(&second, ModelKind::IrEdge, model_cfg, file).expect("save checkpoint");

    let server = Server::start(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 3,
            cache_capacity: 8,
            read_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        config,
        Some(first),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    let predict_body = r#"{"spec":{"class":"fake","seed":3},"include_map":true}"#;
    let (status, before) = request(addr, "POST", "/v1/predict", predict_body);
    assert_eq!(status, 200, "predict failed: {before}");

    // Bad reload requests are rejected without disturbing the model.
    let (status, _) = request(addr, "POST", "/v1/models/default/reload", "{}");
    assert_eq!(status, 400, "missing model_path");
    let (status, _) = request(
        addr,
        "POST",
        "/v1/models/default/reload",
        r#"{"model_path":"/nonexistent.bin"}"#,
    );
    assert_eq!(status, 422, "unreadable checkpoint");

    // Swap under concurrent predict traffic: every in-flight request
    // must still be answered (by the old model or the new one).
    let workers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..3 {
                    let (status, body) = request(addr, "POST", "/v1/predict", predict_body);
                    assert_eq!(status, 200, "in-flight predict dropped: {body}");
                }
            })
        })
        .collect();
    let reload_body = format!(r#"{{"model_path":"{}"}}"#, checkpoint.display());
    let (status, body) = request(addr, "POST", "/v1/models/default/reload", &reload_body);
    assert_eq!(status, 200, "reload failed: {body}");
    assert!(body.contains("\"reloaded\":true"), "{body}");
    for worker in workers {
        worker.join().expect("predict thread");
    }

    // The same design (served from the feature cache) now goes through
    // the new weights.
    let (status, after) = request(addr, "POST", "/v1/predict", predict_body);
    assert_eq!(status, 200, "predict after reload: {after}");
    assert_ne!(
        map_values(&before),
        map_values(&after),
        "prediction must change after the swap"
    );

    let (status, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(metric_value(&metrics, "irf_model_reloads_total"), 1.0);
    assert!(metrics.contains("irf_requests_total{route=\"reload\",status=\"200\"} 1"));
    assert!(metrics.contains("irf_requests_total{route=\"reload\",status=\"400\"} 1"));
    assert!(metrics.contains("irf_requests_total{route=\"reload\",status=\"422\"} 1"));

    let (status, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
    let _ = std::fs::remove_file(&checkpoint);
}
