//! `http_point_reads`: warm point reads through the front door.
//!
//! An in-process `Server` (2 workers, in-memory) serves the normal win/move
//! game of Example 6.1 on a random DAG of 300 nodes.  1,024 queries from
//! `serving_workload` (7/8 bound, 1/8 open) are all warmed, then eight callers
//! send a fixed number of requests in a closed loop, in bursts spread over
//! the window.  The engine answers from warm tables in microseconds, so
//! connect, accept, framing, JSON and query parsing do nearly all the work.
//! Sized by count: today every request is a connection, and more of them
//! would measure the kernel's TIME_WAIT table instead of the server.

use crate::check::{canon_response, canon_result};
use crate::http_client::{wait_for_time_wait, HttpClient, MAX_CONNECTIONS_PER_RUN};
use crate::report::{latency_tail, Outcome, RunConfig};
use crate::stats::{median, quantile, sliced_rate, Fnv};
use crate::trace::Tracer;
use crate::window::{LatencyOf, Window};
use hilog_engine::{HiLogDb, SnapshotHandle};
use hilog_server::api_types::{QueryRequest, QueryResponse};
use hilog_server::{Server, ServerConfig};
use hilog_syntax::parse_query;
use hilog_workloads::{serving_workload, ServingWorkloadConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const NODES: usize = 300;
const QUERIES: usize = 1_024;
const WORKERS: usize = 2;
/// Enough callers to keep both workers busy.  With two, the cores idle
/// between hand-offs and the time the virtual machine takes to wake a
/// sleeping thread, not the server, sets the numbers (the socket exchange
/// read 41 µs in one pass and 130–170 µs in the next).
const CALLERS: usize = 8;
/// The window is this many closed-loop bursts at the reference size, a pause
/// between them.  The machine's speed changes from one second to the next
/// (the rate of 3,000 requests, taken every 12 s in one process, read 8.0k
/// to 11.3k req/s), so 10,000 requests sent back to back measure the second
/// they fell in; spread over nine seconds they see the machine as it is on
/// the whole, and each burst has its own kernel samples beside it.
const BURSTS: usize = 40;
/// Requests in a burst (about 25 ms): 31 from each caller.
const BURST_REQUESTS: usize = 248;
const BURST_PAUSE: Duration = Duration::from_millis(200);
/// Kernel samples taken right before and right after each burst (see
/// [`Window`]).
const KERNEL_SAMPLES: usize = 3;
/// Requests per pass of the traced run.
const TRACED_REQUESTS: usize = 2_000;
/// Every n-th response in a loop is parsed and compared in full; the others
/// are checked by status.
const FULL_CHECK_EVERY: usize = 64;

/// FNV-1a digest of the generated inputs for the default seed.
const PINNED_INPUT_DIGEST: u64 = 0x578b_76bf_3dc2_164a;

fn workload_config(cfg: &RunConfig) -> ServingWorkloadConfig {
    ServingWorkloadConfig {
        nodes: NODES,
        avg_out_degree: 2.0,
        churn_pool: 40,
        batch_size: 4,
        write_batches: 1,
        queries: cfg.count(QUERIES, 64),
    }
}

/// A serving server and what the callers send it.
struct Served {
    program: hilog_core::Program,
    queries: Vec<String>,
    bodies: Vec<String>,
    addr: SocketAddr,
    snapshots: SnapshotHandle,
    shutdown: hilog_server::ServerHandle,
    thread: std::thread::JoinHandle<()>,
    eval_threads: usize,
}

impl Served {
    /// Set-up: generate the inputs, bind, load, and warm every query.
    fn start(cfg: &RunConfig) -> Served {
        let workload = serving_workload(&workload_config(cfg), cfg.seed);
        let bodies = workload
            .queries
            .iter()
            .map(|q| {
                let mut body = String::from("{\"query\":");
                serde::write_json_string(&mut body, q);
                body.push('}');
                body
            })
            .collect();
        let config = ServerConfig::ephemeral().workers(WORKERS);
        let eval_threads = config.eval_threads;
        let server = Server::bind(config, HiLogDb::new(workload.program.clone()))
            .expect("bind an ephemeral port on loopback");
        let addr = server.local_addr();
        let shutdown = server.handle();
        let snapshots = server.snapshots();
        let thread = std::thread::spawn(move || server.serve());
        for query in &workload.queries {
            let parsed = parse_query(query).expect("generated query parses");
            snapshots
                .current()
                .query(&parsed)
                .expect("generated query evaluates");
        }
        Served {
            program: workload.program,
            queries: workload.queries,
            bodies,
            addr,
            snapshots,
            shutdown,
            thread,
            eval_threads,
        }
    }

    fn stop(self) {
        self.shutdown.shutdown();
        self.thread.join().expect("server thread exits cleanly");
    }

    fn input_digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        fnv.write(self.program.to_string().as_bytes());
        for query in &self.queries {
            fnv.write(query.as_bytes());
        }
        fnv.finish()
    }
}

/// What one closed loop measured.
#[derive(Default)]
struct LoopResult {
    completions: Vec<f64>,
    latencies_ms: Vec<f64>,
    connect_us: Vec<f64>,
    exchange_us: Vec<f64>,
    body_bytes: Vec<f64>,
    connections: u64,
    requests: u64,
    failures: Vec<String>,
}

/// `callers` threads, each sending its share of `total` requests one after
/// the other; caller `c` sends queries `first + c, first + c + callers, …`
/// (mod the list).
fn closed_loop(
    served: &Served,
    expected: &[Vec<String>],
    callers: usize,
    first: usize,
    total: usize,
) -> LoopResult {
    let per_caller = total / callers;
    let start = Instant::now();
    let mut parts: Vec<LoopResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|caller| {
                scope.spawn(move || {
                    let mut client = HttpClient::new(served.addr);
                    let mut part = LoopResult::default();
                    for i in 0..per_caller {
                        let index = (first + i * callers + caller) % served.bodies.len();
                        let sent = Instant::now();
                        let response = client.post("/query", &served.bodies[index]);
                        let latency = sent.elapsed();
                        part.completions.push(start.elapsed().as_secs_f64());
                        part.latencies_ms.push(latency.as_secs_f64() * 1e3);
                        match response {
                            Ok(response) => {
                                if let Some(connect) = response.connect {
                                    part.connect_us.push(connect.as_secs_f64() * 1e6);
                                }
                                part.exchange_us.push(response.exchange.as_secs_f64() * 1e6);
                                part.body_bytes.push(response.body.len() as f64);
                                let ok = response.status == 200
                                    && (i % FULL_CHECK_EVERY != 0
                                        || canon_response(&response.body).as_ref()
                                            == Some(&expected[index]));
                                if !ok {
                                    part.failures.push(format!(
                                        "{}: status {} or wrong answers",
                                        served.queries[index], response.status
                                    ));
                                }
                            }
                            Err(error) => part
                                .failures
                                .push(format!("{}: {error}", served.queries[index])),
                        }
                    }
                    part.connections = client.connections_opened;
                    part.requests = client.requests;
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    let mut all = LoopResult::default();
    for part in &mut parts {
        all.completions.append(&mut part.completions);
        all.latencies_ms.append(&mut part.latencies_ms);
        all.connect_us.append(&mut part.connect_us);
        all.exchange_us.append(&mut part.exchange_us);
        all.body_bytes.append(&mut part.body_bytes);
        all.failures.append(&mut part.failures);
        all.connections += part.connections;
        all.requests += part.requests;
    }
    all.completions.sort_by(f64::total_cmp);
    all
}

fn count_loop(outcome: &mut Outcome, result: &LoopResult) {
    outcome.attempted += result.latencies_ms.len() as u64;
    outcome.failed += result.failures.len() as u64;
    for failure in result.failures.iter().take(4) {
        if outcome.failures.len() < 8 {
            outcome.failures.push(failure.clone());
        }
    }
}

/// Every distinct query over HTTP against a fresh `HiLogDb` over the same
/// program.  Returns the expected canonical answers per query index.
fn verify(served: &Served, outcome: &mut Outcome, client: &mut HttpClient) -> Vec<Vec<String>> {
    let mut oracle = HiLogDb::new(served.program.clone());
    let mut by_text: std::collections::HashMap<&str, Vec<String>> =
        std::collections::HashMap::new();
    let mut expected = Vec::with_capacity(served.queries.len());
    for (query, body) in served.queries.iter().zip(&served.bodies) {
        if let Some(known) = by_text.get(query.as_str()) {
            expected.push(known.clone());
            continue;
        }
        let parsed = parse_query(query).expect("generated query parses");
        let want = canon_result(&oracle.query(&parsed).expect("oracle evaluates"));
        let got = client
            .post("/query", body)
            .ok()
            .filter(|r| r.status == 200)
            .and_then(|r| canon_response(&r.body));
        outcome.check(got.as_ref() == Some(&want), || {
            format!("{query}: HTTP answer differs from a fresh HiLogDb")
        });
        by_text.insert(query, want.clone());
        expected.push(want);
    }
    outcome.note("distinct_queries", by_text.len());
    expected
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let mut outcome = Outcome::default();

    // One item, and one slice, per burst.
    let mut window = Window::new(cfg, BURST_REQUESTS as f64, 0, LatencyOf::Operations);
    let served = window.set_up(cfg, |_| Served::start(cfg), Served::stop);
    outcome.pin_inputs(served.input_digest(), PINNED_INPUT_DIGEST, cfg.pinned());
    outcome.note("nodes", NODES);
    outcome.note("queries", served.queries.len());
    outcome.note("workers", WORKERS);
    outcome.note("callers", CALLERS);
    outcome.note("eval_threads", served.eval_threads);

    // A long `--seconds` asks for more connections than a run may open.
    let budget = MAX_CONNECTIONS_PER_RUN as usize - served.queries.len() - 1;
    let bursts = cfg.count(BURSTS, 4).min(budget / BURST_REQUESTS);
    // The traced run makes three passes over its requests.
    let traced = cfg.count(TRACED_REQUESTS, 100).min(budget / 3);
    let planned = if cfg.trace {
        traced * 3
    } else {
        bursts * BURST_REQUESTS
    } + served.queries.len();
    let guard = wait_for_time_wait(planned as u64);
    outcome.check(guard.fits, || {
        format!(
            "{} sockets in TIME_WAIT and {planned} connections planned: the table did not drain",
            guard.at_start
        )
    });
    let mut verifier = HttpClient::new(served.addr);
    let expected = verify(&served, &mut outcome, &mut verifier);
    let mut connections = verifier.connections_opened;

    if cfg.trace {
        trace_run(
            cfg,
            &served,
            &expected,
            traced,
            &mut outcome,
            &mut connections,
        );
        outcome.set("harness.tw_at_start", guard.at_start as f64);
        outcome.set("harness.tw_wait_s", guard.waited_s);
        if let Some(stats) = verifier
            .get("/stats")
            .ok()
            .and_then(|r| serde_json::from_str(&r.body).ok())
        {
            let field = |name: &str| stats.get(name).and_then(|v| v.as_f64()).unwrap_or(0.0);
            outcome.set(
                "hilog-server.handlers.shed_requests",
                field("shed_requests"),
            );
            outcome.set(
                "hilog-server.handlers.query_timeouts",
                field("query_timeouts"),
            );
        }
        outcome.set(
            "hilog-server.http.connections_opened",
            (connections + 1) as f64,
        );
    } else {
        window.slices = bursts;
        for burst in 0..bursts {
            if burst > 0 {
                std::thread::sleep(BURST_PAUSE);
            }
            window.sample(KERNEL_SAMPLES);
            let result = closed_loop(
                &served,
                &expected,
                CALLERS,
                burst * BURST_REQUESTS,
                BURST_REQUESTS,
            );
            count_loop(&mut outcome, &result);
            connections += result.connections;
            window.item(result.completions.last().copied().unwrap_or(0.0));
            for ms in result.latencies_ms {
                window.operation(ms);
            }
            window.sample(KERNEL_SAMPLES);
        }
        window.end_to_end(&mut outcome);
        outcome.note("bursts", bursts);
        outcome.note("requests", window.latency_samples());
        outcome.note("connections_opened", connections);
        outcome.note("tw_at_start", guard.at_start);
        outcome.note("tw_wait_s", guard.waited_s);
    }
    served.stop();
    outcome
}

/// The per-layer numbers: a two-caller pass for the socket-side percentiles,
/// then the same requests one caller at a time — untraced, traced over the
/// socket (connect, exchange), and traced stage by stage in this process
/// (JSON parse, query parse, snapshot query, JSON serialise).
fn trace_run(
    cfg: &RunConfig,
    served: &Served,
    expected: &[Vec<String>],
    requests: usize,
    outcome: &mut Outcome,
    connections: &mut u64,
) {
    let concurrent = closed_loop(served, expected, CALLERS, 0, requests);
    count_loop(outcome, &concurrent);
    let (_, slice_iqr) = sliced_rate(&concurrent.completions, 1.0, requests / BURST_REQUESTS);
    outcome.set("harness.slice_rate_iqr_share", slice_iqr);
    outcome.set(
        "hilog-server.http.latency_p90_ms",
        quantile(&concurrent.latencies_ms, 0.90),
    );
    outcome.set(
        "hilog-server.http.latency_p99_ms",
        quantile(&concurrent.latencies_ms, 0.99),
    );
    latency_tail(outcome, &concurrent.latencies_ms);

    let untraced = closed_loop(served, expected, 1, 0, requests);
    count_loop(outcome, &untraced);
    let untraced_ns = median(&untraced.latencies_ms) * 1e6;
    outcome.set(
        "hilog-server.http.requests_per_connection",
        (concurrent.requests + untraced.requests) as f64
            / (concurrent.connections + untraced.connections).max(1) as f64,
    );
    outcome.set(
        "hilog-server.json.response_bytes",
        median(&untraced.body_bytes),
    );

    let mut tracer = Tracer::new();
    let mut client = HttpClient::new(served.addr);
    let mut live_symbols = 0;
    for i in 0..requests {
        let index = i % served.bodies.len();
        let op = i as u64;
        let body = &served.bodies[index];
        let response = tracer.span("request", op, |t| {
            t.span("hilog-server.http.connect", op, |_| {
                client.ensure_connected()
            })?;
            t.span("hilog-server.http.exchange", op, |_| {
                client.exchange("POST", "/query", body)
            })
        });
        outcome.check(matches!(&response, Ok(r) if r.status == 200), || {
            format!("{}: traced request failed", served.queries[index])
        });
    }

    // The same requests through the same calls the handler makes.
    for i in 0..requests {
        let index = i % served.bodies.len();
        let op = i as u64;
        let body = &served.bodies[index];
        let serialised = tracer.span("inproc", op, |t| {
            let request = t.span("hilog-server.json.parse", op, |_| {
                let value = serde_json::from_str(body).expect("request body is JSON");
                QueryRequest::from_json(&value).expect("request body is a query")
            });
            let query = t.span("hilog-syntax.parser.parse_query", op, |_| {
                parse_query(&request.query).expect("generated query parses")
            });
            let (epoch, result) = t.span("hilog-engine.snapshot.query_warm", op, |_| {
                let snapshot = served.snapshots.current();
                let result = snapshot.query(&query).expect("warm query evaluates");
                (snapshot.epoch(), result)
            });
            live_symbols = result.stats.live_symbols;
            t.span("hilog-server.json.serialize", op, |_| {
                serde_json::to_string(&QueryResponse { epoch, result })
                    .expect("responses serialise")
            })
        });
        if i % FULL_CHECK_EVERY == 0 {
            outcome.check(
                canon_response(&serialised).as_ref() == Some(&expected[index]),
                || format!("{}: staged answer differs", served.queries[index]),
            );
        }
    }
    *connections += concurrent.connections + untraced.connections + client.connections_opened;

    outcome.set(
        "hilog-server.http.connect_us",
        tracer.p50("hilog-server.http.connect", 1e3),
    );
    outcome.set(
        "hilog-server.http.exchange_us",
        tracer.p50("hilog-server.http.exchange", 1e3),
    );
    let (inproc_ns, _) = tracer.stage_cover("inproc");
    outcome.set(
        "hilog-server.http.residual_us",
        tracer.p50("hilog-server.http.exchange", 1e3) - median(&inproc_ns) / 1e3,
    );
    outcome.set(
        "hilog-server.json.parse_us",
        tracer.p50("hilog-server.json.parse", 1e3),
    );
    outcome.set(
        "hilog-server.json.serialize_us",
        tracer.p50("hilog-server.json.serialize", 1e3),
    );
    outcome.set(
        "hilog-syntax.parser.parse_query_us",
        tracer.p50("hilog-syntax.parser.parse_query", 1e3),
    );
    outcome.set(
        "hilog-engine.snapshot.query_warm_us",
        tracer.p50("hilog-engine.snapshot.query_warm", 1e3),
    );
    outcome.set("hilog-core.symbol.live_symbols", live_symbols as f64);
    outcome.note("traced_requests", requests);
    outcome.trace_report(cfg, "http_point_reads", &tracer, "request", untraced_ns);
}
