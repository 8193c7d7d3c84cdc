//! End-to-end SOAP call benchmark.
//!
//! One process, one caller thread, one call in flight: the caller makes
//! a real `SoapEngine` call through a real in-process server over
//! loopback, waits for the reply, checks it, and makes the next. Before
//! any server thread starts, the process confines itself (servers
//! included) to one CPU of its allowed set, so the reactor sizes itself
//! to one worker and the scheduler cannot reshuffle the load.
//!
//! ```text
//! cargo run --release --manifest-path callbench/Cargo.toml -- \
//!     --workload rpc-small --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs half the
//! time untraced and half traced, and prints the per-layer breakdown.
//! The last line of standard output is one JSON object. See README.md
//! for the metric definitions.

mod layers;
mod stats;
mod sys;
mod trace;
mod workload;

use std::time::{Duration, Instant};

use stats::{median, quantile, sorted, tail};
use trace::Kind;
use workload::{Caller, Dataset, Lane, Servers, Workload, ALL_LANES};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per run; `setup_s` is their median. The first one is kept
/// and measured. The others run after the measurement, each in a fresh
/// process (`--setup-only`), so every one of them is a cold set-up
/// (thread spawn, first touch of fresh memory), as a user pays it, and
/// none of them disturbs a measurement window.
const SETUP_REPS: usize = 9;

/// Pause before each extra set-up. The host's vCPU speed drifts in
/// episodes of about a second, and set-up is mostly CPU work, so set-ups
/// made back to back all land in one episode; spaced out, they sample
/// several.
const SETUP_GAP: Duration = Duration::from_millis(500);

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("calls_per_s", "1/s"),
    ("payload_mb_per_s", "MB/s"),
    ("call_p50_us", "us"),
    ("call_p90_us", "us"),
    ("cpu_us_per_call", "us"),
    ("ok_share", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics other than the per-lane medians, printed with
/// `--trace 1`.
const PER_LAYER: [(&str, &str); 29] = [
    ("envelope.build_us", "us"),
    ("envelope.extract_us", "us"),
    ("bxsa.encode_us", "us"),
    ("bxsa.decode_us", "us"),
    ("bxsa.typed_encode_us", "us"),
    ("bxsa.typed_decode_us", "us"),
    ("bxsa.crc_us", "us"),
    ("xmltext.write_us", "us"),
    ("xmltext.parse_us", "us"),
    ("stream.part_us", "us"),
    ("stream.parts_per_call", "count"),
    ("transport.exchange_us", "us"),
    ("transport.self_us", "us"),
    ("reactor.loop_iterations_per_request", "count"),
    ("server.service_us", "us"),
    ("service.self_us", "us"),
    ("handler_us", "us"),
    ("engine.self_us", "us"),
    ("engine.attempts_per_call", "count"),
    ("transport.reuse_share", "ratio"),
    ("pool.hit_share", "ratio"),
    ("wire.request_bytes", "bytes"),
    ("wire.response_bytes", "bytes"),
    ("client.allocs_per_call", "count"),
    ("client.alloc_bytes_per_call", "bytes"),
    ("server.allocs_per_request", "count"),
    ("server.alloc_bytes_per_request", "bytes"),
    ("residual_us", "us"),
    ("trace.overhead_share", "ratio"),
];

fn lane_metric(lane: Lane) -> String {
    format!("lane.{}.call_p50_us", lane.name())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up once, tear down, print the set-up time and exit: the
    /// child process behind each extra `setup_s` sample.
    setup_only: bool,
}

const USAGE: &str = "usage: callbench --workload <rpc-small|bulk-bxsa|xml-interop> \
                     --seed <n> --seconds <n> --trace <0|1>\n       \
                     callbench --setup-only --workload <name> --seed <n>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::workload(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?).filter(|&s| s >= 1),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: match setup_only {
            true => 0,
            false => seconds.ok_or("--seconds must be a whole number ≥ 1")?,
        },
        trace: match setup_only {
            true => false,
            false => trace.ok_or("--trace is required")?,
        },
        setup_only,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("callbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = if args.setup_only {
        set_up_once(&args)
    } else {
        run(&args)
    };
    if let Err(e) = result {
        eprintln!("callbench: {e}");
        std::process::exit(1);
    }
}

/// One measured stretch of the run, cut into equal windows.
struct Window {
    calls: u64,
    payload_bytes: u64,
    wall: Duration,
    cpu_ns: u64,
    /// Latencies of verified calls, ascending.
    latencies_us: Vec<f64>,
    /// The same, per lane of the rotation, each ascending.
    lane_latencies_us: Vec<Vec<f64>>,
}

impl Window {
    fn wall_s(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// The mean of the lanes' medians. Lanes differ in cost, so the
    /// pooled median of an even two-lane mix falls in the gap between
    /// the lanes, where the lanes' tails decide where it lands.
    fn p50(&self) -> f64 {
        let lanes = &self.lane_latencies_us;
        lanes.iter().map(|v| quantile(v, 0.5)).sum::<f64>() / lanes.len() as f64
    }
}

struct Phase {
    workload: Workload,
    windows: Vec<Window>,
    attempted: u64,
    failed: u64,
    attempts: u64,
    first_error: Option<String>,
    steal_share: Option<f64>,
}

/// Measurement windows per second of run.
const WINDOWS_PER_SECOND: u32 = 2;

/// Calls a window makes at least, however long they take, so that its
/// p90 has `stats::MIN_TAIL_SAMPLES` samples beyond it even when a host
/// stall cuts the calls made in half a second (bulk-bxsa makes about
/// 200 in one without a stall).
const MIN_WINDOW_CALLS: u64 = 10 * stats::MIN_TAIL_SAMPLES as u64;

/// Where in the spread of per-window values a run's figure is read: a
/// rate at its 10th percentile over windows, a cost at its 90th.
///
/// The host's vCPUs share physical cores with other tenants. Calls run
/// about 1.6 times slower while the core is shared, and the share of time
/// it is shared drifts over minutes, so a run's median or mean mostly
/// measures that share. Every run has windows in which the core is shared
/// throughout; read there, the figures repeat from run to run and still
/// scale with the work the stack does per call.
const CONTENDED_QUANTILE: f64 = 0.9;

impl Phase {
    /// A per-window cost (bigger is worse), read at the contended end.
    fn contended_cost(&self, f: impl Fn(&Window) -> f64) -> f64 {
        quantile(
            &sorted(self.windows.iter().map(f).collect()),
            CONTENDED_QUANTILE,
        )
    }

    /// A per-window rate (smaller is worse), read at the contended end.
    fn contended_rate(&self, f: impl Fn(&Window) -> f64) -> f64 {
        quantile(
            &sorted(self.windows.iter().map(f).collect()),
            1.0 - CONTENDED_QUANTILE,
        )
    }

    fn calls_per_s(&self) -> f64 {
        self.contended_rate(|w| w.calls as f64 / w.wall_s())
    }

    fn latency_sum_us(&self) -> f64 {
        self.windows.iter().flat_map(|w| &w.latencies_us).sum()
    }

    /// Median latency of `lane` over the whole phase (0 when the
    /// workload has no such lane).
    fn lane_p50(&self, lane: Lane) -> f64 {
        let Some(i) = self.workload.lanes.iter().position(|&l| l == lane) else {
            return 0.0;
        };
        let all = self
            .windows
            .iter()
            .flat_map(|w| w.lane_latencies_us[i].iter().copied());
        quantile(&sorted(all.collect()), 0.5)
    }
}

/// The live system under test.
struct Live {
    workload: Workload,
    corpus: Vec<Dataset>,
    servers: Servers,
    caller: Caller,
    next_call: u64,
}

impl Live {
    /// Generate the corpus, bind the servers, connect and warm up.
    fn set_up(w: Workload, seed: u64) -> Result<Live, String> {
        let corpus = workload::corpus(&w, seed);
        let servers = Servers::bind(&w, &corpus).map_err(|e| format!("binding servers: {e}"))?;
        let caller = Caller::new(&w, &servers);
        let mut live = Live {
            workload: w,
            corpus,
            servers,
            caller,
            next_call: 0,
        };
        layers::set_recompute_crc(true);
        for _ in 0..w.warmup_rounds * w.lanes.len() {
            let (lane, k) = w.schedule(live.next_call);
            live.next_call += 1;
            let r = live.caller.call(lane, &live.corpus[k]);
            r.verdict
                .map_err(|e| format!("warm-up {} call failed: {e}", lane.name()))?;
        }
        layers::set_recompute_crc(false);
        Ok(live)
    }

    fn tear_down(self) {
        drop(self.caller);
        self.servers.shutdown();
    }

    /// Run calls back to back for `length`, cut into `windows` windows.
    fn measure(&mut self, length: Duration, windows: u32, pinned_cpu: usize) -> Phase {
        let w = self.workload;
        let mut phase = Phase {
            workload: w,
            windows: Vec::new(),
            attempted: 0,
            failed: 0,
            attempts: 0,
            first_error: None,
            steal_share: None,
        };
        let ticks_before = sys::cpu_ticks(pinned_cpu);
        let window_len = length / windows;
        for _ in 0..windows {
            let mut win = Window {
                calls: 0,
                payload_bytes: 0,
                wall: Duration::ZERO,
                cpu_ns: 0,
                latencies_us: Vec::with_capacity(1 << 16),
                lane_latencies_us: vec![Vec::with_capacity(1 << 15); w.lanes.len()],
            };
            let cpu_start = sys::process_cpu_ns();
            let start = Instant::now();
            let mut attempted = 0;
            while start.elapsed() < window_len || attempted < MIN_WINDOW_CALLS {
                attempted += 1;
                let (lane, k) = w.schedule(self.next_call);
                self.next_call += 1;
                let r = self.caller.call(lane, &self.corpus[k]);
                phase.attempted += 1;
                phase.attempts += u64::from(r.attempts);
                let us = r.latency.as_secs_f64() * 1e6;
                match r.verdict {
                    Ok(()) => {
                        win.calls += 1;
                        win.payload_bytes += w.payload_bytes();
                        win.latencies_us.push(us);
                        let slot = w
                            .lanes
                            .iter()
                            .position(|&l| l == lane)
                            .expect("scheduled lane");
                        win.lane_latencies_us[slot].push(us);
                    }
                    Err(e) => {
                        phase.failed += 1;
                        phase
                            .first_error
                            .get_or_insert(format!("{} call: {e}", lane.name()));
                    }
                }
            }
            win.wall = start.elapsed();
            win.cpu_ns = sys::process_cpu_ns() - cpu_start;
            win.latencies_us = sorted(win.latencies_us);
            for v in &mut win.lane_latencies_us {
                *v = sorted(std::mem::take(v));
            }
            phase.windows.push(win);
        }
        phase.steal_share = sys::steal_share(ticks_before, sys::cpu_ticks(pinned_cpu));
        phase
    }
}

/// Sum of a counter family in the process-wide metrics registry.
fn counter(snapshot: &[obs::Sample], name: &str) -> u64 {
    snapshot
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            obs::SampleValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Event-loop workers per server transport, read from the registry.
fn worker_counts(snapshot: &[obs::Sample]) -> String {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for s in snapshot
        .iter()
        .filter(|s| s.name == "bx_server_worker_loop_iterations_total")
    {
        let transport = s
            .labels
            .split("transport=\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("?")
            .to_owned();
        match counts.iter_mut().find(|(t, _)| *t == transport) {
            Some((_, n)) => *n += 1,
            None => counts.push((transport, 1)),
        }
    }
    counts
        .iter()
        .map(|(t, n)| format!("{t}={n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// A metric line as printed: `metric <name> <value> <unit>`.
fn metric_line(name: &str, value: f64, unit: &str) -> String {
    format!("metric {name} {value} {unit}")
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Confine this process, and every thread it spawns afterwards, to the
/// first CPU of its allowed set. Must run before any other thread
/// exists.
fn pin() -> Result<(Vec<usize>, usize), String> {
    let allowed = sys::allowed_cpus().map_err(|e| format!("reading CPU affinity: {e}"))?;
    let cpu = *allowed.first().ok_or("no CPU allowed")?;
    sys::pin_to(cpu).map_err(|e| format!("pinning to CPU {cpu}: {e}"))?;
    Ok((allowed, cpu))
}

/// `--setup-only`: one cold set-up, timed as in `run`.
fn set_up_once(args: &Args) -> Result<(), String> {
    pin()?;
    let start = Instant::now();
    let live = Live::set_up(args.workload, args.seed)?;
    let elapsed = start.elapsed().as_secs_f64();
    live.tear_down();
    println!("setup_s {elapsed}");
    Ok(())
}

/// One cold set-up in a fresh process of this same program; waits for
/// it to end.
fn set_up_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own program: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--setup-only", "--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up process failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "set-up process printed no time".to_owned())
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    trace::mark_caller_thread();
    let (allowed, pinned) = pin()?;

    let obs_at_bind = obs::global().snapshot();
    let start = Instant::now();
    let mut live = Live::set_up(w, args.seed)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];

    let seconds = Duration::from_secs(args.seconds);
    let windows = args.seconds as u32 * WINDOWS_PER_SECOND;
    let (untraced, traced) = if args.trace {
        let half = seconds / 2;
        let half_windows = (windows / 2).max(1);
        let untraced = live.measure(half, half_windows, pinned);
        let obs_before = obs::global().snapshot();
        let totals_before = trace::Totals::now();
        trace::set_tracing(true);
        let traced = live.measure(half, half_windows, pinned);
        trace::set_tracing(false);
        let totals = trace::Totals::now().since(&totals_before);
        let obs_after = obs::global().snapshot();
        (untraced, Some((traced, totals, obs_before, obs_after)))
    } else {
        (live.measure(seconds, windows, pinned), None)
    };
    let obs_end = obs::global().snapshot();
    live.tear_down();
    if !args.trace {
        while setup_s.len() < SETUP_REPS {
            std::thread::sleep(SETUP_GAP);
            setup_s.push(set_up_in_child(args)?);
        }
    }

    // Header: diagnostics, not metrics.
    let samples: Vec<f64> = sorted(
        untraced
            .windows
            .iter()
            .flat_map(|w| w.latencies_us.iter().copied())
            .collect(),
    );
    let (p99, p99_supported) = tail(&samples, 0.99);
    let connections = counter(&obs_end, "bx_server_connections_total")
        - counter(&obs_at_bind, "bx_server_connections_total");
    let requests = counter(&obs_end, "bx_server_requests_total")
        - counter(&obs_at_bind, "bx_server_requests_total");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# allowed_cpus {allowed:?} pinned_cpu {pinned}");
    println!("# server_workers {}", worker_counts(&obs_end));
    println!("# connections {connections} (server requests {requests})");
    match untraced.steal_share {
        Some(s) => println!("# steal_share {s:.4} (cpu{pinned}, /proc/stat, untraced measurement)"),
        None => println!("# steal_share unavailable"),
    }
    println!(
        "# lanes {} pairs {} datasets {}",
        w.lanes
            .iter()
            .map(|l| l.name())
            .collect::<Vec<_>>()
            .join(","),
        w.pairs,
        w.datasets
    );
    println!(
        "# setup_s reps {:?}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    );

    let mut correct = untraced.failed == 0;
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut tail_ok = true;
    for (i, win) in untraced.windows.iter().enumerate() {
        let (p90, ok) = tail(&win.latencies_us, 0.9);
        let beyond = stats::count_beyond(&win.latencies_us, p90);
        println!(
            "# window {i} calls {} wall_s {:.4} p50_us {:.2} p90_us {:.2} beyond_p90 {beyond}",
            win.calls,
            win.wall_s(),
            win.p50(),
            p90
        );
        tail_ok &= ok;
    }
    println!(
        "# call_p99_us {p99:.2} (diagnostic; {} samples, {} beyond)",
        samples.len(),
        stats::count_beyond(&samples, p99)
    );
    if !p99_supported {
        println!(
            "# call_p99_us has fewer than {} samples beyond it",
            stats::MIN_TAIL_SAMPLES
        );
    }
    if !tail_ok {
        println!(
            "# a window has fewer than {} samples beyond its p90",
            stats::MIN_TAIL_SAMPLES
        );
        correct = false;
    }
    if let Some(e) = &untraced.first_error {
        println!("# first failure: {e}");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    match &traced {
        None => {
            let u = &untraced;
            let values = [
                u.calls_per_s(),
                u.contended_rate(|w| w.payload_bytes as f64 / w.wall_s() / 1e6),
                u.contended_cost(Window::p50),
                u.contended_cost(|w| quantile(&w.latencies_us, 0.9)),
                u.contended_cost(|w| w.cpu_ns as f64 / w.calls as f64 / 1e3),
                (untraced.attempted - untraced.failed) as f64 / untraced.attempted.max(1) as f64,
                median(&setup_s),
            ];
            for ((name, unit), value) in END_TO_END.iter().zip(values) {
                metrics.push((name.to_string(), value, unit));
            }
        }
        Some((phase, totals, obs_before, obs_after)) => {
            correct &= phase.failed == 0;
            attempted += phase.attempted;
            failed += phase.failed;
            if let Some(e) = &phase.first_error {
                println!("# first traced failure: {e}");
            }
            for lane in ALL_LANES {
                metrics.push((lane_metric(lane), untraced.lane_p50(lane), "us"));
            }
            for (name, value) in per_layer(
                phase,
                totals,
                obs_before,
                obs_after,
                connections,
                requests,
                &untraced,
            ) {
                let unit = PER_LAYER
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("declared metric")
                    .1;
                metrics.push((name.to_string(), value, unit));
            }
        }
    }
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            println!("# {name} is not a finite number");
            correct = false;
        }
        println!("{}", metric_line(name, *value, unit));
    }
    let metrics: Vec<(String, f64, &str)> = metrics
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    println!("{}", json_result(correct, attempted, failed, &metrics));
    Ok(())
}

/// The per-layer breakdown of the traced phase, as means per call.
fn per_layer(
    phase: &Phase,
    t: &trace::Totals,
    obs_before: &[obs::Sample],
    obs_after: &[obs::Sample],
    connections: u64,
    requests: u64,
    untraced: &Phase,
) -> Vec<(&'static str, f64)> {
    let calls = phase.windows.iter().map(|w| w.calls).sum::<u64>().max(1) as f64;
    let us = |ns: u64| ns as f64 / calls / 1e3;
    let delta = |name: &str| counter(obs_after, name) - counter(obs_before, name);
    let loops = delta("bx_server_worker_loop_iterations_total");
    let window_requests = delta("bx_server_requests_total");
    let (hits, misses) = (delta("bx_pool_hits_total"), delta("bx_pool_misses_total"));
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        ("envelope.build_us", us(t.self_of(Kind::EnvBuild))),
        ("envelope.extract_us", us(t.self_of(Kind::EnvExtract))),
        ("bxsa.encode_us", us(t.self_of(Kind::BxsaEncode))),
        ("bxsa.decode_us", us(t.self_of(Kind::BxsaDecode))),
        ("bxsa.typed_encode_us", us(t.self_of(Kind::TypedEncode))),
        ("bxsa.typed_decode_us", us(t.self_of(Kind::TypedDecode))),
        ("bxsa.crc_us", us(t.raw_of(Kind::Crc))),
        ("xmltext.write_us", us(t.self_of(Kind::XmlWrite))),
        ("xmltext.parse_us", us(t.self_of(Kind::XmlParse))),
        ("stream.part_us", us(t.self_of(Kind::PartSend))),
        (
            "stream.parts_per_call",
            t.spans_of(Kind::PartSend) as f64 / calls,
        ),
        ("transport.exchange_us", us(t.raw_of(Kind::Exchange))),
        ("transport.self_us", us(t.self_of(Kind::Exchange))),
        (
            "reactor.loop_iterations_per_request",
            share(loops, window_requests),
        ),
        ("server.service_us", us(t.server_busy_ns)),
        ("service.self_us", us(t.self_of(Kind::Service))),
        ("handler_us", us(t.self_of(Kind::Handler))),
        ("engine.self_us", us(t.self_of(Kind::Call))),
        (
            "engine.attempts_per_call",
            phase.attempts as f64 / phase.attempted.max(1) as f64,
        ),
        ("transport.reuse_share", 1.0 - share(connections, requests)),
        ("pool.hit_share", share(hits, hits + misses)),
        ("wire.request_bytes", t.wire_out as f64 / calls),
        ("wire.response_bytes", t.wire_in as f64 / calls),
        ("client.allocs_per_call", t.caller_allocs as f64 / calls),
        (
            "client.alloc_bytes_per_call",
            t.caller_alloc_bytes as f64 / calls,
        ),
        ("server.allocs_per_request", t.server_allocs as f64 / calls),
        (
            "server.alloc_bytes_per_request",
            t.server_alloc_bytes as f64 / calls,
        ),
        (
            "residual_us",
            phase.latency_sum_us() / calls - us(t.phase_sum_ns()),
        ),
        (
            "trace.overhead_share",
            1.0 - phase.calls_per_s() / untraced.calls_per_s(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric of one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let quoted = |after: &str, from: &str| -> Option<String> {
            let rest = &from[from.find(after)? + after.len()..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_owned())
        };
        body.split('{')
            .skip(1)
            .map(|obj| {
                (
                    quoted("\"name\":", obj).expect("name"),
                    quoted("\"unit\":", obj).expect("unit"),
                )
            })
            .collect()
    }

    fn parse_line(line: &str) -> (String, f64, String) {
        let f: Vec<&str> = line.split(' ').collect();
        assert_eq!(f.len(), 4, "{line}");
        assert_eq!(f[0], "metric");
        (
            f[1].to_owned(),
            f[2].parse().expect("numeric value"),
            f[3].to_owned(),
        )
    }

    #[test]
    fn printed_metric_lines_match_the_declared_names_and_units() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| {
                let (name, value, unit) = parse_line(&metric_line(n, 1234.5678, u));
                assert_eq!(value, 1234.5678);
                (name, unit)
            })
            .collect();
        assert_eq!(e2e, declared("end_to_end"));

        let mut layer: Vec<(String, String)> = ALL_LANES
            .iter()
            .map(|&l| {
                let (name, _, unit) = parse_line(&metric_line(&lane_metric(l), 0.5, "us"));
                (name, unit)
            })
            .collect();
        layer.extend(PER_LAYER.iter().map(|&(n, u)| {
            let (name, _, unit) = parse_line(&metric_line(n, 2.0, u));
            (name, unit)
        }));
        let mut want = declared("per_layer");
        let mut got = layer;
        want.sort();
        got.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn json_result_has_the_required_keys() {
        let s = json_result(true, 10, 0, &[("calls_per_s".into(), 1.5, "1/s")]);
        assert_eq!(
            s,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"calls_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload bulk-bxsa --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("bulk-bxsa", 3, 10, true)
        );
        assert!(parse_args(&a("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&a("--workload rpc-small --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&a("--workload rpc-small --seed 3 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&a("--workload rpc-small --seed 3")).is_err());
        let child = parse_args(&a("--setup-only --workload xml-interop --seed 4")).unwrap();
        assert!(child.setup_only);
        assert_eq!((child.workload.name, child.seed), ("xml-interop", 4));
        assert!(parse_args(&a("--setup-only --seed 4")).is_err());
    }
}
