//! `serve_predict`: the HTTP path. An in-process server with the model
//! loaded answers one keep-alive client; cheap ops re-send the inline
//! netlist of a small registered design (a stack hit: HTTP, JSON,
//! SPICE parse, fingerprint, batcher, forward), costly ops name the
//! file of a large design the server has never seen (streaming ingest
//! and the whole cold path, through the server).

use crate::inputs::{fusion_config, load_model};
use crate::json;
use crate::layers::{
    forward_walk, layer_suite, same_f32, walked_same, Program, Replays, SuiteInputs,
};
use crate::measure::{
    fastest, run_untraced, set_metric, timed, Class, Metric, Ops, RunReport, REPLAY_PLAN, ROUNDS,
};
use crate::trace::Tracer;
use crate::Ctx;
use ir_fusion::{design_fingerprint, Stage, StageStore};
use irf_pg::grid_from_spice_path;
use irf_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Designs registered during set-up and re-sent by the cheap ops.
const REGISTERED: usize = 4;

/// One design as the client sends it and as the check reads it.
struct Design {
    file: PathBuf,
    /// The `POST /v1/predict` body, asking for the map.
    body: String,
}

/// A small design sent inline: the JSON layer reads the whole netlist
/// on every request.
fn registered_design(ctx: &Ctx, index: usize) -> Result<Design, String> {
    let text = ctx
        .inputs
        .netlist_text(ctx.inputs.sizes.serve_design, 400 + index as u64);
    let file = ctx.inputs.dir.join(format!("serve{index}.sp"));
    std::fs::write(&file, &text).map_err(|e| format!("write {}: {e}", file.display()))?;
    let mut body = String::with_capacity(text.len() + 64);
    body.push_str("{\"include_map\":true,\"netlist\":\"");
    json::escape_into(&text, &mut body);
    body.push_str("\"}");
    Ok(Design { file, body })
}

/// A large design sent as `netlist_path`, which the server streams
/// from disk: inline, the JSON layer's cost (quadratic in the body)
/// would bury the cold path this class is there to time.
fn first_sight_design(ctx: &Ctx, index: usize) -> Result<Design, String> {
    let file = ctx.inputs.netlist_file(
        &format!("first{index}.sp"),
        ctx.inputs.sizes.serve_first_sight,
        700 + index as u64,
    )?;
    let mut body = String::from("{\"include_map\":true,\"netlist_path\":\"");
    json::escape_into(&file.to_string_lossy(), &mut body);
    body.push_str("\"}");
    Ok(Design { file, body })
}

fn designs(
    range: std::ops::Range<usize>,
    make: impl Fn(usize) -> Result<Design, String>,
) -> Result<Vec<Design>, String> {
    range.map(make).collect()
}

/// One keep-alive HTTP/1.1 connection; every request leaves in a
/// single write.
pub struct Client {
    reader: BufReader<TcpStream>,
}

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        self.reader
            .get_mut()
            .write_all(&request)
            .map_err(|e| format!("send {path}: {e}"))?;

        let mut line = String::new();
        let read_line = |reader: &mut BufReader<TcpStream>, line: &mut String| {
            line.clear();
            match reader.read_line(line) {
                Ok(0) => Err(format!("{path}: connection closed")),
                Ok(_) => Ok(()),
                Err(e) => Err(format!("read {path}: {e}")),
            }
        };
        read_line(&mut self.reader, &mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| format!("{path}: bad status line {line:?}"))?;
        let mut length = 0usize;
        loop {
            read_line(&mut self.reader, &mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("{path}: bad length"))?;
                }
            }
        }
        let mut body = vec![0; length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| format!("read {path} body: {e}"))?;
        Ok(Response { status, body })
    }

    fn predict(&mut self, design: &Design) -> Result<Response, String> {
        self.request("POST", "/v1/predict", &design.body)
    }
}

/// The fused map of a `/v1/predict` or `/v1/whatif` response, and the
/// design fingerprint it reports.
fn decode(response: &Response) -> Result<(Vec<f32>, String), String> {
    let text = std::str::from_utf8(&response.body).map_err(|e| e.to_string())?;
    if response.status != 200 {
        return Err(format!("status {}: {text}", response.status));
    }
    let value = json::parse(text)?;
    let map = value
        .get("map")
        .and_then(json::Value::as_arr)
        .ok_or("response has no map")?
        .iter()
        .map(|v| {
            v.as_f64()
                .map(|v| v as f32)
                .ok_or("map entry is not a number")
        })
        .collect::<Result<Vec<f32>, _>>()?;
    let fingerprint = value
        .get("design")
        .and_then(json::Value::as_str)
        .ok_or("response has no design fingerprint")?
        .to_string();
    Ok((map, fingerprint))
}

/// The server as the set-up leaves it: started, healthy, the four
/// registered designs predicted once.
struct Serving {
    server: Server,
    client: Client,
}

impl Serving {
    fn start(model_file: &Path, registered: &[Design]) -> Result<Serving, String> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            // Far above what a run registers: the sharded store evicts
            // per shard, well before its nominal capacity.
            cache_capacity: 4096,
            ..ServerConfig::default()
        };
        let server = Server::start(&config, fusion_config(), Some(load_model(model_file)?))
            .map_err(|e| format!("start server: {e}"))?;
        let mut client = Client::connect(server.addr())?;
        let health = client.request("GET", "/v1/healthz", "")?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        for design in registered {
            let response = client.predict(design)?;
            if response.status != 200 {
                return Err(format!("first-sight predict answered {}", response.status));
            }
        }
        Ok(Serving { server, client })
    }

    /// Closes the connection, then drains and joins the server.
    fn stop(self) {
        drop(self.client);
        self.server.shutdown();
        self.server.wait();
    }

    fn store(&self) -> &Arc<StageStore> {
        self.server.cache()
    }
}

/// The fused map the program computes in process for a design file:
/// what every response for that design must carry.
fn in_process_map(program: &Program, file: &Path) -> Result<Vec<f32>, String> {
    let stack = program
        .pipeline
        .stack_builder()
        .bypass_cache()
        .prepare_spice_path(file)
        .map_err(|e| e.to_string())?;
    Ok(program.pipeline.predict(&program.model, &stack).into_vec())
}

struct ServeOps<'a> {
    serving: Serving,
    registered: &'a [Design],
    registered_maps: Vec<Vec<f32>>,
    first_sight: &'a [Design],
    first_sight_maps: Vec<Vec<f32>>,
    stack_before: (u64, u64),
    stack_hits: u64,
    hits_sent: u64,
}

fn stack_counts(store: &StageStore) -> (u64, u64) {
    let counters = store.stage_counters(Stage::Stack);
    (counters.hits, counters.misses)
}

impl Ops for ServeOps<'_> {
    type Output = Response;

    fn op(&mut self, class: Class, index: usize) -> Result<Response, String> {
        let design = match class {
            Class::Cheap => &self.registered[index % REGISTERED],
            Class::Costly => &self.first_sight[index],
        };
        self.serving.client.predict(design)
    }

    fn check(&mut self, class: Class, index: usize, response: Response) -> Result<(), String> {
        let now = stack_counts(self.serving.store());
        let (hits, misses) = (now.0 - self.stack_before.0, now.1 - self.stack_before.1);
        self.stack_before = now;
        let (map, _) = decode(&response)?;
        let want = match class {
            Class::Cheap => {
                self.hits_sent += 1;
                if (hits, misses) != (1, 0) {
                    return Err(format!(
                        "repeat predict: {hits} stack hits, {misses} misses"
                    ));
                }
                self.stack_hits += 1;
                &self.registered_maps[index % REGISTERED]
            }
            Class::Costly => {
                if (hits, misses) != (0, 1) {
                    return Err(format!(
                        "first-sight predict: {hits} stack hits, {misses} misses"
                    ));
                }
                &self.first_sight_maps[index]
            }
        };
        if !same_f32(&map, want) {
            return Err("response map differs from the in-process prediction".into());
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<RunReport, String> {
    let model_file = ctx.inputs.model_file()?;
    if ctx.trace {
        return run_traced(ctx, &model_file);
    }
    let registered = designs(0..REGISTERED, |i| registered_design(ctx, i))?;
    // One per round and one for the warm-up.
    let first_sight = designs(0..ROUNDS + 1, |i| first_sight_design(ctx, i))?;
    let program = Program::new(fusion_config(), load_model(&model_file)?);
    let maps = |designs: &[Design]| {
        designs
            .iter()
            .map(|d| in_process_map(&program, &d.file))
            .collect::<Result<Vec<_>, _>>()
    };
    let (registered_maps, first_sight_maps) = (maps(&registered)?, maps(&first_sight)?);
    drop(program);

    // Set-up: the checkpoint, the server, a health check, and the
    // first-sight predict of the four registered designs.
    let setup = || Serving::start(&model_file, &registered);
    let (ops, window) = run_untraced(setup, Serving::stop, |serving| ServeOps {
        stack_before: stack_counts(serving.store()),
        serving,
        registered: &registered,
        registered_maps,
        first_sight: &first_sight,
        first_sight_maps,
        stack_hits: 0,
        hits_sent: 0,
    })?;
    let note = format!(
        "{REGISTERED} registered designs of ~{} nodes, {} byte bodies; first-sight designs of ~{} nodes by path; {}/{} repeat predicts were stack hits (warm-up included)",
        ctx.inputs.sizes.serve_design,
        registered[0].body.len(),
        ctx.inputs.sizes.serve_first_sight,
        ops.stack_hits,
        ops.hits_sent
    );
    ops.serving.stop();
    Ok(RunReport::untraced(window, true, vec![note]))
}

/// Counters read off one `/v1/metrics` scrape. A series the server
/// does not expose reads as zero.
struct Scrape(String);

impl Scrape {
    fn take(client: &mut Client) -> Result<Scrape, String> {
        let response = client.request("GET", "/v1/metrics", "")?;
        String::from_utf8(response.body)
            .map(Scrape)
            .map_err(|e| e.to_string())
    }

    fn value(&self, series: &str) -> f64 {
        self.0
            .lines()
            .find_map(|line| {
                line.strip_prefix(series)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse()
                    .ok()
            })
            .unwrap_or(0.0)
    }

    fn stage_seconds(&self, stage: &str) -> f64 {
        self.value(&format!("irf_stage_seconds_total{{stage=\"{stage}\"}}"))
    }

    fn rejected(&self) -> f64 {
        self.0
            .lines()
            .filter(|line| {
                line.starts_with("irf_requests_total") && line.contains("status=\"429\"")
            })
            .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    }
}

/// The `serve.*` metrics every traced run reports, whatever its
/// workload: starts a server of its own, drives each kind of request
/// through it, reads what `/v1/metrics` says about batching, queueing
/// and the stage store, and stops it.
pub fn probe(ctx: &Ctx, model_file: &Path) -> Result<Vec<Metric>, String> {
    // Designs no workload's own ops or replays use.
    let repeated = [registered_design(ctx, REGISTERED)?];
    let first = ROUNDS + 1 + REPLAY_PLAN.len();
    let first_sight = designs(first..first + 3, |i| first_sight_design(ctx, i))?;
    let mut serving = Serving::start(model_file, &repeated)?;
    let client = &mut serving.client;
    let before_all = Scrape::take(client)?;

    let healthz: Vec<f64> = (0..5)
        .map(|_| timed(|| client.request("GET", "/v1/healthz", "")))
        .map(|(response, s)| response.map(|_| s))
        .collect::<Result<_, _>>()?;
    let mut miss = Vec::new();
    for design in &first_sight {
        let (response, s) = timed(|| client.predict(design));
        decode(&response?)?;
        miss.push(s);
    }

    let before_hits = Scrape::take(client)?;
    let mut hit = Vec::new();
    let mut response_bytes = 0;
    let mut base = String::new();
    for _ in 0..5 {
        let (response, s) = timed(|| client.predict(&repeated[0]));
        let response = response?;
        response_bytes = response.body.len();
        base = decode(&response)?.1;
        hit.push(s);
    }
    let after_hits = Scrape::take(client)?;
    let hits = hit.len() as f64;
    let per_hit =
        |stage: &str| (after_hits.stage_seconds(stage) - before_hits.stage_seconds(stage)) / hits;
    let cache_hits =
        after_hits.value("irf_cache_hits_total") - before_hits.value("irf_cache_hits_total");
    let cache_misses =
        after_hits.value("irf_cache_misses_total") - before_hits.value("irf_cache_misses_total");
    let batches = after_hits.value("irf_batch_size_bucket{le=\"+Inf\"}")
        - before_hits.value("irf_batch_size_bucket{le=\"+Inf\"}");
    let batched = after_hits.value("irf_batch_size_sum") - before_hits.value("irf_batch_size_sum");

    let mut whatif = Vec::new();
    for i in 0..6 {
        let body = format!(
            "{{\"base\":\"{base}\",\"deltas\":[{{\"node\":{i},\"amps\":{}}}]}}",
            1e-5 * f64::from(i + 1)
        );
        let (response, s) = timed(|| client.request("POST", "/v1/whatif", &body));
        let response = response?;
        if response.status != 200 {
            return Err(format!("whatif answered {}", response.status));
        }
        whatif.push(s);
    }
    let rejected_429 = Scrape::take(client)?.rejected() - before_all.rejected();
    serving.stop();

    let body = &repeated[0].body;
    let json_parse: Vec<f64> = (0..5)
        .map(|_| timed(|| irf_serve::json::parse(body).is_ok()).1)
        .collect();
    let (hit_s, json_parse_s) = (fastest(&hit), fastest(&json_parse));
    let metric = |name, value| Metric { name, value };
    Ok(vec![
        metric("serve.request_bytes", body.len() as f64),
        metric("serve.response_bytes", response_bytes as f64),
        metric("serve.json_parse_s", json_parse_s),
        metric("serve.healthz_s", fastest(&healthz)),
        metric("serve.hit_s", hit_s),
        metric("serve.miss_s", fastest(&miss)),
        metric("serve.whatif_s", fastest(&whatif)),
        // What a hit spends outside the JSON parse and the stages the
        // server times itself: HTTP, rendering, bookkeeping.
        metric(
            "serve.overhead_s",
            hit_s - json_parse_s - per_hit("parse") - per_hit("prepare") - per_hit("infer"),
        ),
        metric(
            "serve.batch_size_mean",
            if batches > 0.0 {
                batched / batches
            } else {
                0.0
            },
        ),
        metric("serve.queue_wait_s", per_hit("infer") - per_hit("forward")),
        metric(
            "serve.cache_hit_share",
            cache_hits / (cache_hits + cache_misses).max(1.0),
        ),
        metric("serve.rejected_429", rejected_429),
    ])
}

fn run_traced(ctx: &Ctx, model_file: &Path) -> Result<RunReport, String> {
    let registered = designs(0..REGISTERED, |i| registered_design(ctx, i))?;
    let costly_replays = REPLAY_PLAN
        .iter()
        .filter(|(class, _)| *class == Class::Costly)
        .count();
    let first_sight = designs(0..costly_replays, |i| first_sight_design(ctx, i))?;
    let program = Program::new(fusion_config(), load_model(model_file)?);
    let mut tr = Tracer::new();
    let mut metrics = layer_suite(
        &mut tr,
        &SuiteInputs {
            program: &program,
            file: &registered[0].file,
            ctx,
        },
    )?;
    metrics.extend(probe(ctx, model_file)?);

    let mut serving = Serving::start(model_file, &registered)?;
    // The in-process twin of the server: a store-attached pipeline
    // that has seen the registered designs once.
    let cached = program
        .pipeline
        .clone()
        .with_cache(Arc::new(StageStore::new(64)));
    for design in &registered {
        let grid = grid_from_spice_path(&design.file).map_err(|e| e.to_string())?;
        cached
            .stack_builder()
            .prepare(&grid)
            .map_err(|e| e.to_string())?;
    }
    let mut replays = Replays::default();
    for (class, index) in REPLAY_PLAN {
        let design = match class {
            Class::Cheap => &registered[index % REGISTERED],
            Class::Costly => &first_sight[index],
        };
        // The op itself, untraced, over the wire.
        let (response, untraced_s) = timed(|| serving.client.predict(design));
        let (served_map, _) = decode(&response?)?;

        // The same request walked in process: the JSON layer, ingest,
        // the fingerprint, the prepare (a stack hit for a registered
        // design once it has been walked) and the forward.
        let span = tr.begin_op(match class {
            Class::Cheap => "serve_predict.repeat",
            Class::Costly => "serve_predict.first_sight",
        });
        tr.time("serve.json_parse", || {
            irf_serve::json::parse(&design.body).is_ok()
        });
        let grid = tr
            .time("pg.ingest", || grid_from_spice_path(&design.file))
            .map_err(|e| e.to_string())?;
        tr.time("core.fingerprint", || {
            design_fingerprint(&grid, &program.config)
        });
        let prepared = tr
            .time("core.prepare", || cached.stack_builder().prepare(&grid))
            .map_err(|e| e.to_string())?;
        let walked_map = forward_walk(&mut tr, &program, &prepared);
        tr.end(span);

        let same = walked_same(same_f32(walked_map.data(), &served_map));
        replays.record((class, index), span, untraced_s, same);
    }
    let store = serving.store();
    set_metric(&mut metrics, "core.stage_hits", store.hits() as f64);
    set_metric(&mut metrics, "core.stage_misses", store.misses() as f64);
    set_metric(
        &mut metrics,
        "core.stage_evictions",
        store.evictions() as f64,
    );
    serving.stop();
    replays.finish(ctx, &tr, metrics, true)
}
