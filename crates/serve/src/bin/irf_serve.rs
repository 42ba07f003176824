//! `irf-serve` — the IR-Fusion inference server binary.
//!
//! ```text
//! irf-serve [--addr HOST:PORT] [--workers N] [--cache N]
//!           [--read-timeout-ms T]
//!           [--model CKPT | --no-model] [--full] [--threads N]
//!           [--log LEVEL] [--slow-ms T] [--recorder N]
//! ```
//!
//! Without `--model`, a tiny IR-Fusion model is trained at startup on
//! synthetic designs (deterministic, a few seconds) so the server is
//! self-contained; `--no-model` skips the model entirely and serves
//! rough numerical maps. `--full` uses the full-resolution pipeline
//! configuration instead of the test-scale one.
//!
//! Each of the `--workers` connection handlers runs its requests'
//! model forwards itself; there is no separate inference queue.
//!
//! Observability: all diagnostics are structured log records on
//! stderr, one JSON object per line, at `--log` level and above
//! (default `info`). Requests at or over `--slow-ms` (default 500)
//! snapshot their span tree into the flight recorder
//! (`GET /v1/debug/requests`), which retains the last `--recorder`
//! completed requests.
//!
//! Stop the server with `POST /v1/shutdown` (the dependency-free build
//! cannot trap SIGTERM; see the crate docs).

use ir_fusion::{load_model, train, FusionConfig, TrainedModel};
use irf_data::Dataset;
use irf_models::ModelKind;
use irf_serve::log::{self, Level};
use irf_serve::{Server, ServerConfig};
use std::time::Duration;

struct Args {
    server: ServerConfig,
    model_path: Option<String>,
    no_model: bool,
    full: bool,
    threads: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: irf-serve [--addr HOST:PORT] [--workers N] [--cache N]\n\
         \x20                [--read-timeout-ms T]\n\
         \x20                [--model CKPT | --no-model] [--full] [--threads N]\n\
         \x20                [--log off|error|warn|info|debug|trace]\n\
         \x20                [--slow-ms T] [--recorder N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        server: ServerConfig::default(),
        model_path: None,
        no_model: false,
        full: false,
        threads: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.server.addr = value("--addr"),
            "--workers" => args.server.workers = parse_num(&value("--workers")),
            "--read-timeout-ms" => {
                args.server.read_timeout =
                    Duration::from_millis(parse_num(&value("--read-timeout-ms")) as u64);
            }
            "--cache" => args.server.cache_capacity = parse_num(&value("--cache")),
            "--model" => args.model_path = Some(value("--model")),
            "--no-model" => args.no_model = true,
            "--full" => args.full = true,
            "--threads" => args.threads = parse_num(&value("--threads")),
            "--log" => {
                let raw = value("--log");
                let Some(level) = Level::parse(&raw) else {
                    log::error(
                        "bad_flag",
                        &[("flag", "--log".into()), ("value", raw.as_str().into())],
                    );
                    usage();
                };
                log::set_level(level);
            }
            "--slow-ms" => {
                args.server.slow_threshold =
                    Duration::from_millis(parse_num(&value("--slow-ms")) as u64);
            }
            "--recorder" => args.server.recorder_capacity = parse_num(&value("--recorder")),
            "--help" | "-h" => usage(),
            other => {
                log::error("unknown_flag", &[("flag", other.into())]);
                usage();
            }
        }
    }
    args
}

fn parse_num(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        log::error("not_a_number", &[("value", s.into())]);
        usage();
    })
}

fn startup_model(args: &Args, config: &FusionConfig) -> Option<TrainedModel> {
    if args.no_model {
        return None;
    }
    if let Some(path) = &args.model_path {
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            log::error(
                "checkpoint_open_failed",
                &[
                    ("path", path.as_str().into()),
                    ("error", e.to_string().as_str().into()),
                ],
            );
            std::process::exit(1);
        });
        let trained = load_model(std::io::BufReader::new(file)).unwrap_or_else(|e| {
            log::error(
                "checkpoint_load_failed",
                &[
                    ("path", path.as_str().into()),
                    ("error", e.to_string().as_str().into()),
                ],
            );
            std::process::exit(1);
        });
        log::info(
            "checkpoint_loaded",
            &[
                ("path", path.as_str().into()),
                ("model", format!("{trained:?}").as_str().into()),
            ],
        );
        return Some(trained);
    }
    log::info(
        "startup_training",
        &[(
            "hint",
            "pass --model CKPT or --no-model to skip startup training".into(),
        )],
    );
    let dataset = Dataset::generate(2, 2, 1, 7);
    let trained = train(ModelKind::IrFusion, &dataset, config);
    log::info(
        "startup_model_ready",
        &[("model", format!("{trained:?}").as_str().into())],
    );
    Some(trained)
}

fn main() {
    let args = parse_args();
    let mut config = if args.full {
        FusionConfig::default()
    } else {
        FusionConfig::tiny()
    };
    config.num_threads = args.threads;
    let model = startup_model(&args, &config);
    let server = Server::start(&args.server, config, model).unwrap_or_else(|e| {
        log::error(
            "bind_failed",
            &[
                ("addr", args.server.addr.as_str().into()),
                ("error", e.to_string().as_str().into()),
            ],
        );
        std::process::exit(1);
    });
    println!("listening on http://{}", server.addr());
    log::info(
        "listening",
        &[
            ("addr", server.addr().to_string().as_str().into()),
            ("workers", args.server.workers.into()),
            ("recorder_capacity", args.server.recorder_capacity.into()),
            (
                "slow_threshold_ms",
                u64::try_from(args.server.slow_threshold.as_millis())
                    .unwrap_or(u64::MAX)
                    .into(),
            ),
        ],
    );
    server.wait();
    log::info("drained", &[]);
}
