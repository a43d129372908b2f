//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <drive_dense|table2_fan|chaos_campaign> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop over a job list generated from
//! `--seed`: a *round* runs every job once on at most `nproc` worker
//! threads, each job starting when a worker frees up, and rounds repeat
//! until `--seconds` have passed. Every round repeats the same inputs,
//! so every round must produce byte-identical outputs; an untimed
//! warm-up round's outputs also go through the workload's output checks.
//!
//! `--trace 0` prints the end-to-end metrics (host time, memory and
//! the simulated outcomes). `--trace 1` spends half the time on untraced
//! rounds and half on rounds recorded by the span recorder, and prints
//! the per-layer metrics, with the tracing overhead between the two.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.

mod chaos;
mod dense;
mod fan;
mod host;
mod stats;
mod trace;

use spider_workloads::RunResult;
use stats::{median, median_and_tail, Tail};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 21;

/// What one pass over a workload's job list produced.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// World runs attempted.
    pub attempted: u64,
    /// World runs that panicked or were flagged hung.
    pub failed: u64,
    /// Simulated seconds of results delivered, counted cold-equivalent
    /// (a forked run counts its whole drive).
    pub sim_s: f64,
    /// Events the engine executed.
    pub events: u64,
    /// Events a cold run of every result would execute.
    pub events_cold: u64,
    /// Events executed by worlds driven by Spider and by the stock
    /// driver.
    pub events_spider: u64,
    pub events_stock: u64,
    /// Digest of every output of the round.
    pub digest: u64,
    /// Worlds constructed and their total deployment size.
    pub worlds_built: u64,
    pub sites: u64,
    /// Checkpoint and campaign ledger.
    pub snapshots: u64,
    pub forks: u64,
    pub events_shared: u64,
    pub trials: u64,
    pub shrink_evals: u64,
    pub shrink_events: u64,
    pub episodes: u64,
}

/// Outcome of a workload's output checks.
#[derive(Default)]
pub struct Checked {
    /// World results the simulated-outcome metrics are computed from.
    pub runs: Vec<RunResult>,
    /// World runs the checks made, and checks that failed.
    pub attempted: u64,
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload: Sync {
    /// What a round hands to the output checks.
    type Output;
    /// Whether the benchmark's own closures run the jobs. When they do
    /// not (the campaign runs its trials inside its own sweep), job
    /// time is taken as the process CPU time of the round.
    const JOBS_VISIBLE: bool;
    /// One repetition of the set-up: scenario generation, world
    /// construction, fan bases, plan generation.
    fn setup(&self);
    /// One closed-loop pass over the job list.
    fn round(&self, workers: usize) -> (Round, Self::Output);
    /// Check the first round's outputs.
    fn check(&self, out: Self::Output) -> Checked;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} wants a whole number"))
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")? as f64,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    match args.workload.as_str() {
        "drive_dense" => run(&dense::DriveDense::new(seed), &args),
        "table2_fan" => run(&fan::Table2Fan::new(seed), &args),
        "chaos_campaign" => run(&chaos::ChaosCampaign::new(seed), &args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            ExitCode::from(2)
        }
    }
}

/// A round with its host timings.
struct Timed {
    round: Round,
    wall_s: f64,
    cpu_s: f64,
}

/// Run rounds until `budget_s` has passed (at least one).
fn rounds<W: Workload>(w: &W, workers: usize, budget_s: f64) -> Vec<Timed> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        trace::set_run(out.len() as u32);
        let cpu0 = host::cpu_seconds();
        let t = Instant::now();
        let (round, _) = trace::span("round", || w.round(workers));
        out.push(Timed {
            round,
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: host::cpu_seconds() - cpu0,
        });
    }
    out
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn run<W: Workload>(w: &W, args: &Args) -> ExitCode {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed {} ({} s, trace {}), {workers} workers",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // One untimed round first: it warms the allocator and caches, and
    // its outputs are the ones the checks inspect and every timed round
    // must reproduce.
    let (warmup, first) = w.round(workers);
    // Set-up is timed on the warmed-up process, so its median reflects
    // the work rather than first-touch page faults.
    let setup: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            w.setup();
            t.elapsed().as_secs_f64()
        })
        .collect();
    let timed = rounds(w, workers, budget);
    let traced = args.trace.then(|| {
        trace::enable(true);
        let traced = rounds(w, workers, budget);
        trace::enable(false);
        traced
    });

    let checked = w.check(first);
    let all: Vec<&Timed> = timed.iter().chain(traced.iter().flatten()).collect();
    let reference = &warmup;
    let diverged = all
        .iter()
        .filter(|t| t.round.digest != reference.digest)
        .count() as u64;
    let attempted =
        warmup.attempted + all.iter().map(|t| t.round.attempted).sum::<u64>() + checked.attempted;
    let failed =
        warmup.failed + all.iter().map(|t| t.round.failed).sum::<u64>() + diverged + checked.failed;

    println!(
        "rounds: 1 warm-up, {} timed{}; warm-up digest {:016x}, {} rounds diverged from it",
        timed.len(),
        traced
            .as_ref()
            .map_or(String::new(), |t| format!(", {} traced", t.len())),
        reference.digest,
        diverged
    );
    println!(
        "round wall/cpu (s): {}",
        all.iter()
            .map(|t| format!("{:.3}/{:.2}", t.wall_s, t.cpu_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "deterministic counts per round: {} events simulated, {} cold-equivalent events, {:.1} simulated s",
        reference.events, reference.events_cold, reference.sim_s
    );
    println!(
        "world runs: {attempted} attempted, {failed} failed (failed_runs_frac {:.6})",
        failed as f64 / attempted.max(1) as f64
    );

    let wall_s = median(&timed.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let runs = &checked.runs;
    let joins: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.join_log.join.iter().map(|s| s.took.as_secs_f64()))
        .collect();
    let detects: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.faults.detect_times_s.iter().copied())
        .collect();
    let join = median_and_tail(&joins);
    let detect = median_and_tail(&detects);
    let mut ok = failed == 0 && !runs.is_empty();
    if join.is_none() {
        println!(
            "check failed: {} join samples, too few for a tail",
            joins.len()
        );
        ok = false;
    }
    let show_tail = |what: &str, t: &Option<(f64, Tail)>| {
        if let Some((p50, tail)) = t {
            println!(
                "{what}: p50 {p50:.6} s, tail {:.6} s at p{:.3} of {} samples",
                tail.value, tail.percentile, tail.samples
            );
        }
    };
    show_tail("join latency", &join);
    show_tail("detect latency", &detect);

    let sim_total: f64 = runs.iter().map(|r| r.duration.as_secs_f64()).sum();
    let bytes: u64 = runs.iter().map(|r| r.bytes).sum();
    let connectivity = runs.iter().map(|r| r.connectivity).sum::<f64>() / runs.len().max(1) as f64;
    let (join_p50, join_tail) = join.map_or((0.0, None), |(p, t)| (p, Some(t)));

    let metrics = if let Some(traced) = &traced {
        per_layer::<W>(workers, &timed, traced, runs, join_tail, detect)
    } else {
        vec![
            m("wall_s", "s", wall_s),
            m(
                "sim_s_per_host_s",
                "s/s",
                reference.sim_s / wall_s.max(1e-9),
            ),
            m("setup_s", "s", median(&setup)),
            m("peak_rss_mb", "MiB", host::peak_rss_mb()),
            m(
                "sim.throughput_kbs",
                "KB/s",
                bytes as f64 / sim_total.max(1e-9) / 1000.0,
            ),
            m("sim.connectivity_pct", "%", connectivity * 100.0),
            m("sim.join_p50_s", "s", join_p50),
            m("sim.join_tail_s", "s", join_tail.map_or(0.0, |t| t.value)),
        ]
    };
    for x in &metrics {
        println!("{} = {} {}", x.name, x.value, x.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_num(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ok,
        attempted,
        failed,
        body.join(", ")
    );
    // A printed result is a finished run: a failed check is reported
    // through `correct` and `failed`, not the exit code.
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity; a metric that is not finite is a bug
/// in the benchmark, not a measurement.
fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x}")
}

/// Per-layer metrics from the traced rounds, averaged per round.
fn per_layer<W: Workload>(
    workers: usize,
    timed: &[Timed],
    traced: &[Timed],
    runs: &[RunResult],
    join_tail: Option<Tail>,
    detect: Option<(f64, Tail)>,
) -> Vec<Metric> {
    let spans = trace::drain();
    let totals = trace::totals(&spans);
    println!(
        "spans: {} recorded over {} traced rounds",
        spans.len(),
        traced.len()
    );
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "total_s", "self_s", "max_s"
    );
    for (name, t) in &totals {
        println!(
            "{name:<28} {:>8} {:>12.6} {:>12.6} {:>12.6}",
            t.count, t.total_s, t.self_s, t.max_s
        );
    }
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let path = std::path::Path::new(&dir).join("perfbench-spans.tsv");
    match trace::write_tsv(&path, &spans) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written to {}: {e}", path.display()),
    }

    let n = traced.len() as f64;
    let sum = |name: &str| -> f64 {
        totals
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|(_, t)| t.total_s)
            .sum::<f64>()
            / n
            + 0.0
    };
    let r = &traced[0].round;
    let wall = traced.iter().map(|t| t.wall_s).sum::<f64>() / n;
    let cpu = traced.iter().map(|t| t.cpu_s).sum::<f64>() / n;

    // Jobs are the spans a sweep or pool handed to a worker (`job.*`).
    // Busy time adds the fan's base clones, which the sweep makes before
    // it calls the job closure.
    let jobs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("job."))
        .map(trace::Span::secs)
        .collect();
    let make_s = sum("job.make_world");
    let busy = if W::JOBS_VISIBLE {
        jobs.iter().sum::<f64>() / n + sum("world.snapshot")
    } else {
        cpu
    };
    let job_max = jobs.iter().copied().fold(0.0, f64::max);

    // World run time by client type. The campaign runs its worlds
    // inside the library, so there it is the round's CPU time less the
    // world construction the benchmark timed itself.
    let (spider_run, stock_run) = if W::JOBS_VISIBLE {
        (sum("world.run:spider"), sum("world.run:stock"))
    } else {
        ((cpu - make_s).max(0.0), 0.0)
    };
    let run_s = spider_run + stock_run;
    let ns_per = |secs: f64, events: u64| {
        if events == 0 {
            0.0
        } else {
            secs * 1e9 / events as f64
        }
    };
    let sim_s: f64 = r.sim_s;

    let untraced_wall = median(&timed.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());

    let joins: u64 = runs.iter().map(|r| r.join_log.join.len() as u64).sum();
    let join_failures: u64 = runs.iter().map(|r| r.join_log.join_failures).sum();
    let runs_sim_s: f64 = runs.iter().map(|r| r.duration.as_secs_f64()).sum();
    let sum_runs = |f: &dyn Fn(&RunResult) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let drops = sum_runs(&|r| {
        let f = &r.faults;
        f.frames_dropped_blackout
            + f.packets_dropped_zombie
            + f.dhcp_dropped_silent
            + f.dhcp_naks_exhausted
            + f.icmp_dropped_filtered
            + f.frames_blackholed_arp
            + f.packets_hijacked_portal
            + f.uplink_dropped_asym
            + f.downlink_dropped_asym
    });
    let (detect_p50, detect_tail) = detect.map_or((0.0, None), |(p, t)| (p, Some(t)));

    vec![
        m("world.run_s", "s", run_s),
        m("world.events", "count", r.events as f64),
        m(
            "world.events_per_sim_s",
            "1/s",
            r.events_cold as f64 / sim_s.max(1e-9),
        ),
        m("world.ns_per_event", "ns", ns_per(run_s, r.events)),
        m("world.new_s", "s", sum("world.new")),
        m(
            "spider.ns_per_event",
            "ns",
            ns_per(spider_run, r.events_spider),
        ),
        m(
            "stock.ns_per_event",
            "ns",
            ns_per(stock_run, r.events_stock),
        ),
        m(
            "stock.run_share",
            "fraction",
            if run_s > 0.0 { stock_run / run_s } else { 0.0 },
        ),
        m("sweep.busy_s", "s", busy),
        m("sweep.idle_s", "s", (workers as f64 * wall - busy).max(0.0)),
        m("sweep.job_max_s", "s", job_max),
        m(
            "process.cpu_util",
            "fraction",
            cpu / (wall * workers as f64).max(1e-9),
        ),
        m(
            "checkpoint.events_ratio",
            "ratio",
            r.events_cold as f64 / r.events.max(1) as f64,
        ),
        m("checkpoint.events_cold", "count", r.events_cold as f64),
        m("checkpoint.snapshots", "count", r.snapshots as f64),
        m("checkpoint.forks", "count", r.forks as f64),
        m("checkpoint.events_shared", "count", r.events_shared as f64),
        m("campaign.trials", "count", r.trials as f64),
        m("campaign.shrink_evals", "count", r.shrink_evals as f64),
        m("campaign.shrink_events", "count", r.shrink_events as f64),
        m("report.emit_s", "s", sum("report.to_json")),
        m("faults.episodes", "count", r.episodes as f64),
        m("faults.drops", "count", drops),
        m(
            "faults.detects",
            "count",
            sum_runs(&|r| r.faults.detect_times_s.len() as u64),
        ),
        m("sim.detect_p50_s", "s", detect_p50),
        m(
            "sim.detect_tail_s",
            "s",
            detect_tail.map_or(0.0, |t| t.value),
        ),
        m(
            "sim.detect_tail_pct",
            "%",
            detect_tail.map_or(0.0, |t| t.percentile),
        ),
        m(
            "sim.join_tail_pct",
            "%",
            join_tail.map_or(0.0, |t| t.percentile),
        ),
        m(
            "sim.join_samples",
            "count",
            join_tail.map_or(0, |t| t.samples) as f64,
        ),
        m("mobility.scenario_s", "s", sum("mobility.town_scenario")),
        m(
            "mobility.sites",
            "count",
            r.sites as f64 / r.worlds_built.max(1) as f64,
        ),
        m(
            "radio.switches_per_sim_s",
            "1/s",
            sum_runs(&|r| r.switches) / runs_sim_s.max(1e-9),
        ),
        m("join.attempts", "count", (joins + join_failures) as f64),
        m(
            "join.success_ratio",
            "ratio",
            joins as f64 / (joins + join_failures).max(1) as f64,
        ),
        m(
            "dhcp.failures",
            "count",
            sum_runs(&|r| r.join_log.dhcp_failures),
        ),
        m(
            "assoc.failures",
            "count",
            sum_runs(&|r| r.join_log.assoc_failures),
        ),
        m("tcp.timeouts", "count", sum_runs(&|r| r.tcp_timeouts)),
        m("tcp.retransmits", "count", sum_runs(&|r| r.tcp_retransmits)),
        m(
            "trace.overhead_frac",
            "fraction",
            traced_wall / untraced_wall.max(1e-9) - 1.0,
        ),
    ]
}
