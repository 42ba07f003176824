//! Serving-throughput benchmark: batched vs serial forward passes.
//!
//! ```bash
//! # In-process measurement (feeds EXPERIMENTS.md):
//! cargo run -p irf-bench --bin serve_load --release -- [--designs N]
//!     [--reps R] [--json PATH]
//!
//! # HTTP load generation against a running irf-serve:
//! cargo run -p irf-bench --bin serve_load --release -- --addr HOST:PORT
//!     [--clients C] [--requests R]
//! ```
//!
//! The in-process mode trains a tiny model, prepares a pool of design
//! stacks, and times `predict` loops against single `predict_batch`
//! calls at batch sizes 1/2/4/8. Batching must not change results
//! (bitwise — verified here), so any speedup is free throughput for
//! the server's micro-batcher.

use ir_fusion::{train, FusionConfig, IrFusionPipeline, PreparedStack, TrainedModel};
use irf_data::Dataset;
use irf_models::ModelKind;
use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::time::Instant;

struct Args {
    addr: Option<String>,
    designs: usize,
    reps: usize,
    clients: usize,
    requests: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        designs: 8,
        reps: 20,
        clients: 4,
        requests: 32,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().expect("flag needs a value");
        match flag.as_str() {
            "--addr" => args.addr = Some(value()),
            "--designs" => args.designs = value().parse().expect("number"),
            "--reps" => args.reps = value().parse().expect("number"),
            "--clients" => args.clients = value().parse().expect("number"),
            "--requests" => args.requests = value().parse().expect("number"),
            "--json" => args.json = Some(value()),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

struct Row {
    batch: usize,
    serial_per_sec: f64,
    batched_per_sec: f64,
}

fn bench_in_process(args: &Args) -> Vec<Row> {
    let config = FusionConfig::tiny();
    println!(
        "training tiny model + preparing {} designs...",
        args.designs
    );
    let dataset = Dataset::generate(2, 2, 1, 7);
    let trained: TrainedModel = train(ModelKind::IrFusion, &dataset, &config);
    let pipeline = IrFusionPipeline::new(config);
    let stacks: Vec<PreparedStack> = (0..args.designs)
        .map(|i| {
            pipeline
                .prepare_stack(&irf_data::Design::fake(100 + i as u64).grid)
                .expect("fake designs have pads")
        })
        .collect();

    let mut rows = Vec::new();
    println!(
        "{:<6} | {:>14} | {:>15} | {:>7}",
        "batch", "serial sm/s", "batched sm/s", "speedup"
    );
    println!("{}", "-".repeat(52));
    for batch in [1usize, 2, 4, 8] {
        let refs: Vec<&PreparedStack> = (0..batch).map(|i| &stacks[i % stacks.len()]).collect();

        // Serial: one forward per sample.
        let start = Instant::now();
        for _ in 0..args.reps {
            for stack in &refs {
                std::hint::black_box(pipeline.predict(&trained, stack));
            }
        }
        let serial = start.elapsed().as_secs_f64();

        // Batched: one forward per batch; results are bitwise equal.
        let start = Instant::now();
        for _ in 0..args.reps {
            std::hint::black_box(pipeline.predict_batch(&trained, &refs));
        }
        let batched = start.elapsed().as_secs_f64();

        let serial_maps: Vec<_> = refs.iter().map(|s| pipeline.predict(&trained, s)).collect();
        let batched_maps = pipeline.predict_batch(&trained, &refs);
        assert_eq!(
            serial_maps, batched_maps,
            "batching must not change results"
        );

        let n = (batch * args.reps) as f64;
        let row = Row {
            batch,
            serial_per_sec: n / serial,
            batched_per_sec: n / batched,
        };
        println!(
            "{:<6} | {:>14.1} | {:>15.1} | {:>6.2}x",
            row.batch,
            row.serial_per_sec,
            row.batched_per_sec,
            row.batched_per_sec / row.serial_per_sec
        );
        rows.push(row);
    }
    rows
}

fn write_json(path: &str, rows: &[Row]) {
    let mut out = String::from("{\"benchmark\":\"serve_load\",\"rows\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"batch\":{},\"serial_samples_per_sec\":{:.3},\"batched_samples_per_sec\":{:.3}}}",
            r.batch, r.serial_per_sec, r.batched_per_sec
        ));
    }
    out.push_str("]}");
    std::fs::write(path, out).expect("write json report");
    println!("wrote {path}");
}

/// Fires `requests` POST /predict calls from `clients` threads at a
/// running server and reports wall-clock throughput.
fn bench_http(addr: &str, clients: usize, requests: usize) {
    let addr = addr.to_string();
    let start = Instant::now();
    let handles: Vec<_> = (0..clients.max(1))
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut ok = 0usize;
                let mut rejected = 0usize;
                for i in 0..requests {
                    // A small design pool so the feature cache gets hits.
                    let seed = (c * requests + i) % 4;
                    let body = format!("{{\"spec\":{{\"class\":\"fake\",\"seed\":{seed}}}}}");
                    match predict_once(&addr, &body) {
                        Some(200) => ok += 1,
                        Some(429) => rejected += 1,
                        _ => {}
                    }
                }
                (ok, rejected)
            })
        })
        .collect();
    let mut ok = 0;
    let mut rejected = 0;
    for h in handles {
        let (o, r) = h.join().expect("client thread");
        ok += o;
        rejected += r;
    }
    let seconds = start.elapsed().as_secs_f64();
    println!(
        "{ok} ok, {rejected} rejected (429) in {seconds:.2}s -> {:.1} req/s",
        ok as f64 / seconds
    );
}

fn predict_once(addr: &str, body: &str) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let head = format!(
        "POST /v1/predict HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).ok()?;
    stream.write_all(body.as_bytes()).ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    response.split(' ').nth(1)?.parse().ok()
}

fn main() {
    let args = parse_args();
    if let Some(addr) = &args.addr {
        println!(
            "load: {} clients x {} requests -> {addr}",
            args.clients, args.requests
        );
        bench_http(addr, args.clients, args.requests);
        return;
    }
    let rows = bench_in_process(&args);
    if let Some(path) = &args.json {
        write_json(path, &rows);
    }
}
