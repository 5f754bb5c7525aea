//! The `hilog-server` binary: serve a HiLog program over JSON/HTTP.
//!
//! ```text
//! hilog-server [--addr HOST:PORT] [--workers N]
//!              [--semantics wfs|stable|modular] [--program FILE]
//!              [--data-dir DIR] [--fsync batch|interval|never]
//!              [--no-final-checkpoint] [--timeout-ms N|none]
//!              [--max-backlog N] [--socket-timeout-ms N|none]
//! ```
//!
//! `--workers` bounds the requests that execute at once; `--max-backlog`
//! bounds the connections open at once, idle ones included (each has a
//! thread; arrivals beyond it are shed with `429`); `--socket-timeout-ms` is
//! how long an idle connection is kept and a stalled request waited for.
//!
//! Without `--program` the server starts on an empty program; populate it
//! with `POST /assert`.  With `--data-dir` every mutation batch is written
//! to a write-ahead log before it is applied, and a restart on the same
//! directory recovers the exact pre-crash state (`--program` then only
//! seeds a *fresh* directory).  The process serves until killed.

use hilog_engine::{HiLogDb, Semantics};
use hilog_server::{Server, ServerConfig};
use hilog_store::FsyncPolicy;
use hilog_syntax::parse_program;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: hilog-server [--addr HOST:PORT] [--workers N] \
         [--semantics wfs|stable|modular] [--program FILE] \
         [--data-dir DIR] [--fsync batch|interval|never] [--no-final-checkpoint] \
         [--timeout-ms N|none] [--max-backlog N] [--socket-timeout-ms N|none]\n  \
         --workers N      requests that may execute at once (connections are kept \
         alive and idle ones hold none)\n  \
         --max-backlog N  connections that may be open at once, one thread each; \
         arrivals beyond it are shed with 429"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut semantics = Semantics::WellFounded;
    let mut program_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| eprintln!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => match value("--addr") {
                Ok(addr) => config.addr = addr,
                Err(()) => return usage(),
            },
            "--workers" => match value("--workers").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) if n > 0 => config.workers = n,
                _ => {
                    eprintln!("--workers requires a positive integer");
                    return usage();
                }
            },
            "--semantics" => match value("--semantics").as_deref() {
                Ok("wfs" | "well-founded") => semantics = Semantics::WellFounded,
                Ok("stable") => semantics = Semantics::Stable,
                Ok("modular") => semantics = Semantics::ModularCheck,
                _ => {
                    eprintln!("--semantics must be wfs, stable, or modular");
                    return usage();
                }
            },
            "--program" => match value("--program") {
                Ok(path) => program_path = Some(path),
                Err(()) => return usage(),
            },
            "--data-dir" => match value("--data-dir") {
                Ok(dir) => config.data_dir = Some(dir.into()),
                Err(()) => return usage(),
            },
            "--fsync" => match value("--fsync").as_deref() {
                Ok("batch") => config.fsync = FsyncPolicy::PerBatch,
                // Bounds acknowledgement-to-durability at ~50ms while keeping
                // the fsync off the per-request path.
                Ok("interval") => config.fsync = FsyncPolicy::Interval(Duration::from_millis(50)),
                Ok("never") => config.fsync = FsyncPolicy::Never,
                _ => {
                    eprintln!("--fsync must be batch, interval, or never");
                    return usage();
                }
            },
            "--no-final-checkpoint" => config.checkpoint_on_shutdown = false,
            "--timeout-ms" => match value("--timeout-ms").as_deref() {
                Ok("none") => config.default_timeout_ms = None,
                Ok(raw) => match raw.parse::<u64>() {
                    Ok(ms) if ms > 0 => config.default_timeout_ms = Some(ms),
                    _ => {
                        eprintln!("--timeout-ms requires a positive integer or `none`");
                        return usage();
                    }
                },
                Err(()) => return usage(),
            },
            "--max-backlog" => match value("--max-backlog").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) if n > 0 => config.max_backlog = n,
                _ => {
                    eprintln!("--max-backlog requires a positive integer");
                    return usage();
                }
            },
            "--socket-timeout-ms" => match value("--socket-timeout-ms").as_deref() {
                Ok("none") => config.socket_timeout = None,
                Ok(raw) => match raw.parse::<u64>() {
                    Ok(ms) if ms > 0 => {
                        config.socket_timeout = Some(Duration::from_millis(ms));
                    }
                    _ => {
                        eprintln!("--socket-timeout-ms requires a positive integer or `none`");
                        return usage();
                    }
                },
                Err(()) => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag: {other}");
                return usage();
            }
        }
    }

    let program = match &program_path {
        None => hilog_core::Program::new(),
        Some(path) => {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parse_program(&source) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let db = HiLogDb::builder()
        .program(program)
        .semantics(semantics)
        .build();
    let server = match Server::bind(config.clone(), db) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    let recovery = server.recovery();
    if recovery.recovered {
        println!(
            "hilog-server recovered from checkpoint epoch {} (+{} WAL records, {} ops)",
            recovery.checkpoint_epoch.unwrap_or(0),
            recovery.replayed_records,
            recovery.replayed_ops,
        );
    }
    println!(
        "hilog-server listening on http://{} ({} workers, {} semantics{})",
        server.local_addr(),
        config.workers,
        semantics,
        match &config.data_dir {
            Some(dir) => format!(", durable under {}", dir.display()),
            None => String::new(),
        },
    );
    server.serve();
    ExitCode::SUCCESS
}
