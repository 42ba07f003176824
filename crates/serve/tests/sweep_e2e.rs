//! End-to-end tests for topology what-ifs and the `/sweep` route, in
//! their own test binary so their requests don't perturb the
//! process-global metrics registry other e2e binaries assert exact
//! counts against.

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
            // Generous: a sweep keeps base + 8 candidates warm per
            // stage, and per-shard LRU must not evict mid-test.
            cache_capacity: 64,
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

/// The eight-candidate sweep body used by both the ranking and the
/// thread-determinism tests. Synthesized grids use layers 1 (m1),
/// 2 (m2) and 4 (m4) with vias on (1,2) and (2,4).
fn sweep_body(base: &str) -> String {
    format!(
        concat!(
            r#"{{"base":"{}","candidates":["#,
            r#"{{"label":"thicken-m1","deltas":[{{"kind":"strap","layer":1,"scale":0.5}}]}},"#,
            r#"{{"label":"thin-m1","deltas":[{{"kind":"strap","layer":1,"scale":1.5}}]}},"#,
            r#"{{"label":"thicken-m2","deltas":[{{"kind":"strap","layer":2,"scale":0.7}}]}},"#,
            r#"{{"label":"better-vias","deltas":[{{"kind":"via","layers":[1,2],"scale":0.6}}]}},"#,
            r#"{{"label":"worse-vias","deltas":[{{"kind":"via","layers":[2,4],"scale":2.0}}]}},"#,
            r#"{{"label":"more-load","deltas":[{{"node":1,"amps":0.002}}]}},"#,
            r#"{{"label":"less-load","deltas":[{{"node":1,"amps":-0.0002}}]}},"#,
            r#"{{"label":"combo","deltas":[{{"kind":"strap","layer":1,"scale":0.8}},"#,
            r#"{{"kind":"via","layers":[1,2],"scale":0.9}},{{"node":2,"amps":0.0005}}]}}"#,
            r#"]}}"#
        ),
        base
    )
}

#[test]
fn topology_whatif_reuses_geometry_and_rejects_bad_deltas() {
    let server = start_server(0);
    let addr = server.addr();
    let base = predict_base(addr);

    // A strap edit re-analyzes successfully and moves the fingerprint.
    let strap =
        format!(r#"{{"base":"{base}","deltas":[{{"kind":"strap","layer":1,"scale":0.5}}]}}"#);
    let (status, body) = request(addr, "POST", "/v1/whatif", &strap);
    assert_eq!(status, 200, "strap whatif failed: {body}");
    let json = parse(&body).expect("valid json");
    assert_ne!(
        json.get("design").and_then(Json::as_str),
        Some(base.as_str()),
        "a strap edit must change the fingerprint"
    );
    assert_eq!(
        json.get("topology_deltas_applied").and_then(Json::as_u64),
        Some(1)
    );
    // Halving every m1 resistance must not deepen the worst drop.
    let base_max = {
        let (_, body) = request(
            addr,
            "POST",
            "/v1/whatif",
            &format!(r#"{{"base":"{base}","deltas":[]}}"#),
        );
        parse(&body)
            .expect("valid json")
            .get("max_drop")
            .and_then(Json::as_f64)
            .expect("max")
    };
    let strap_max = json.get("max_drop").and_then(Json::as_f64).expect("max");
    assert!(
        strap_max <= base_max,
        "halving m1 resistance must not worsen the drop ({strap_max} vs {base_max})"
    );
    // Identical edit → byte-identical response (warm, deterministic).
    let (_, body2) = request(addr, "POST", "/v1/whatif", &strap);
    assert_eq!(body2, body, "idempotent topology what-if");

    // Mixed kinds in one request work too.
    let mixed = format!(
        concat!(
            r#"{{"base":"{}","deltas":[{{"kind":"via","layers":[1,2],"scale":1.2}},"#,
            r#"{{"kind":"segment","segment":0,"ohms":0.75}},{{"node":1,"amps":0.001}}]}}"#
        ),
        base
    );
    let (status, body) = request(addr, "POST", "/v1/whatif", &mixed);
    assert_eq!(status, 200, "mixed whatif failed: {body}");
    let json = parse(&body).expect("valid json");
    assert_eq!(json.get("deltas_applied").and_then(Json::as_u64), Some(3));
    assert_eq!(
        json.get("topology_deltas_applied").and_then(Json::as_u64),
        Some(2)
    );

    // The geometry maps stayed warm across every topology edit: only
    // the very first predict computed them.
    let (_, metrics) = request(addr, "GET", "/v1/metrics", "");
    assert!(
        metrics.contains("irf_stage_cache_events_total{stage=\"structural\",event=\"miss\"} 1"),
        "geometry maps must be computed exactly once:\n{metrics}"
    );
    // Ohms-dependent stages recomputed per distinct topology.
    let resistance_misses = metrics
        .lines()
        .find(|l| {
            l.starts_with("irf_stage_cache_events_total{stage=\"resistance\",event=\"miss\"}")
        })
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("resistance miss counter");
    assert!(
        resistance_misses >= 3.0,
        "each distinct topology re-rasterizes resistance maps:\n{metrics}"
    );

    // Structured validation errors: each bad delta names its code and
    // leaves the session unapplied.
    for (deltas, code) in [
        (
            r#"[{"kind":"strap","layer":99,"scale":0.5}]"#,
            "no_strap_segments",
        ),
        (
            r#"[{"kind":"via","layers":[7,9],"scale":0.5}]"#,
            "no_via_segments",
        ),
        (
            r#"[{"kind":"via","layers":[1,1],"scale":0.5}]"#,
            "degenerate_via",
        ),
        (
            r#"[{"kind":"segment","segment":999999999,"ohms":1.0}]"#,
            "segment_out_of_range",
        ),
        (
            r#"[{"kind":"strap","layer":1,"scale":0.0}]"#,
            "invalid_value",
        ),
        (
            r#"[{"kind":"strap","layer":1,"scale":-2.0}]"#,
            "invalid_value",
        ),
        (
            r#"[{"kind":"segment","segment":0,"ohms":0.0}]"#,
            "invalid_value",
        ),
    ] {
        let (status, body) = request(
            addr,
            "POST",
            "/v1/whatif",
            &format!(r#"{{"base":"{base}","deltas":{deltas}}}"#),
        );
        assert_eq!(status, 400, "{deltas} must be rejected, got: {body}");
        let json = parse(&body).expect("error body is json");
        let error = json.get("error").expect("error envelope");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some(code),
            "wrong code for {deltas}: {body}"
        );
        assert!(error.get("message").and_then(Json::as_str).is_some());
    }
    // Malformed shapes are plain 400s.
    for deltas in [
        r#"[{"kind":"strap","scale":0.5}]"#,
        r#"[{"kind":"via","layers":[1],"scale":0.5}]"#,
        r#"[{"kind":"via","layers":[1,2,4],"scale":0.5}]"#,
        r#"[{"kind":"segment","segment":0}]"#,
        r#"[{"kind":"resistor","value":1.0}]"#,
    ] {
        let (status, _) = request(
            addr,
            "POST",
            "/v1/whatif",
            &format!(r#"{{"base":"{base}","deltas":{deltas}}}"#),
        );
        assert_eq!(status, 400, "{deltas} must be rejected");
    }

    let (status, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}

#[test]
fn sweep_ranks_candidates_deterministically() {
    let server = start_server(0);
    let addr = server.addr();
    let base = predict_base(addr);

    // Error paths first: unknown base, missing / empty candidates, and
    // a structurally invalid candidate plan.
    let (status, _) = request(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"base":"0000000000000000","candidates":[{"deltas":[]}]}"#,
    );
    assert_eq!(status, 404);
    let (status, _) = request(
        addr,
        "POST",
        "/v1/sweep",
        &format!(r#"{{"base":"{base}"}}"#),
    );
    assert_eq!(status, 400);
    let (status, _) = request(
        addr,
        "POST",
        "/v1/sweep",
        &format!(r#"{{"base":"{base}","candidates":[]}}"#),
    );
    assert_eq!(status, 400);
    let (status, body) = request(
        addr,
        "POST",
        "/v1/sweep",
        &format!(
            r#"{{"base":"{base}","candidates":[{{"label":"bogus","deltas":[{{"kind":"strap","layer":99,"scale":0.5}}]}}]}}"#
        ),
    );
    assert_eq!(status, 400, "{body}");
    let json = parse(&body).expect("error body is json");
    let error = json.get("error").expect("error envelope");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("no_strap_segments")
    );
    let details = error.get("details").expect("details member");
    assert_eq!(details.get("candidate").and_then(Json::as_u64), Some(0));
    assert_eq!(details.get("label").and_then(Json::as_str), Some("bogus"));

    // The real sweep: eight candidates, ranked best-first.
    let (status, body) = request(addr, "POST", "/v1/sweep", &sweep_body(&base));
    assert_eq!(status, 200, "sweep failed: {body}");
    let json = parse(&body).expect("valid json");
    assert_eq!(json.get("base").and_then(Json::as_str), Some(base.as_str()));
    assert!(json.get("baseline").is_some());
    let Some(Json::Arr(candidates)) = json.get("candidates") else {
        panic!("sweep must list candidates: {body}");
    };
    assert_eq!(candidates.len(), 8);
    let deltas: Vec<f64> = candidates
        .iter()
        .map(|c| {
            c.get("delta_max_drop")
                .and_then(Json::as_f64)
                .expect("delta_max_drop")
        })
        .collect();
    assert!(
        deltas.windows(2).all(|w| w[0] <= w[1]),
        "candidates must be sorted best-first: {deltas:?}"
    );
    for (i, c) in candidates.iter().enumerate() {
        assert_eq!(c.get("rank").and_then(Json::as_u64), Some(i as u64 + 1));
        assert!(c.get("label").and_then(Json::as_str).is_some());
        assert!(c.get("design").and_then(Json::as_str).is_some());
        let cache = c.get("cache").expect("per-candidate cache stats");
        assert!(cache.get("hits").and_then(Json::as_u64).is_some());
        assert!(cache.get("misses").and_then(Json::as_u64).is_some());
    }
    // Physics sanity on the extremes: the winner strengthens the PDN
    // (and actually lowers the worst drop), adding load ranks dead
    // last.
    let label_of = |c: &Json| c.get("label").and_then(Json::as_str).unwrap().to_string();
    assert!(
        ["thicken-m1", "thicken-m2", "better-vias", "combo"]
            .contains(&label_of(&candidates[0]).as_str()),
        "winner should strengthen the grid, got {}",
        label_of(&candidates[0])
    );
    assert!(deltas[0] < 0.0, "winner must improve the worst drop");
    assert_eq!(label_of(&candidates[7]), "more-load");

    // Re-issuing the identical sweep is warm and byte-identical —
    // cache statistics included, because every candidate stack is now
    // a stack-stage hit (1 hit, 0 misses per candidate).
    let (status, body2) = request(addr, "POST", "/v1/sweep", &sweep_body(&base));
    assert_eq!(status, 200);
    let json2 = parse(&body2).expect("valid json");
    let Some(Json::Arr(candidates2)) = json2.get("candidates") else {
        panic!("warm sweep must list candidates");
    };
    for (a, b) in candidates.iter().zip(candidates2) {
        assert_eq!(
            a.get("design").and_then(Json::as_str),
            b.get("design").and_then(Json::as_str)
        );
        assert_eq!(
            a.get("delta_max_drop").and_then(Json::as_f64),
            b.get("delta_max_drop").and_then(Json::as_f64),
            "warm sweep must reproduce the cold metrics bitwise"
        );
        assert_eq!(
            b.get("cache").unwrap().get("misses").and_then(Json::as_u64),
            Some(0)
        );
    }

    let (status, _) = request(addr, "POST", "/v1/shutdown", "");
    assert_eq!(status, 200);
    server.wait();
}

#[test]
fn sweep_is_bitwise_identical_across_thread_counts() {
    // One cold server per thread count, same request sequence; the
    // /sweep response (metrics, fingerprints, ranking and per-candidate
    // cache statistics) must be byte-identical.
    let run = |threads: usize| {
        let server = start_server(threads);
        let addr = server.addr();
        let base = predict_base(addr);
        let (status, body) = request(addr, "POST", "/v1/sweep", &sweep_body(&base));
        assert_eq!(status, 200, "sweep at {threads} threads failed: {body}");
        let (status, _) = request(addr, "POST", "/v1/shutdown", "");
        assert_eq!(status, 200);
        server.wait();
        body
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            run(threads),
            reference,
            "sweep response differs at {threads} threads"
        );
    }
}
