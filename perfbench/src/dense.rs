//! `drive_dense`: back-to-back single-channel multi-AP Spider drives
//! through the 1,000+-site dense downtown, each world built cold.
//!
//! Nearly all of the time is the engine's hot loop (event queue, medium
//! fan-out, mobility grid, beacons, TCP). No sweep, fork, fault,
//! campaign or baseline code runs: the jobs go through the benchmark's
//! own worker pool, so optimisations to those layers should leave this
//! workload unchanged.

use crate::stats::{fnv1a, fold};
use crate::{trace, Checked, Round, Workload};
use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_simcore::{SimDuration, SimRng};
use spider_wire::Channel;
use spider_workloads::scenarios::{town_scenario, ScenarioParams};
use spider_workloads::{RunResult, World};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Drives per round, each through its own town.
const DRIVES: usize = 16;
/// Simulated length of one drive.
const DRIVE_SECS: u64 = 300;
/// Open APs per km of road: the dense downtown of `bench_world`.
const DENSITY_PER_KM: f64 = 220.0;
/// Deployment size every drive must reach.
const MIN_SITES: usize = 1_000;

pub struct DriveDense {
    seeds: Vec<u64>,
}

/// One finished drive.
pub struct Drive {
    seed: u64,
    sites: usize,
    result: Option<RunResult>,
}

impl DriveDense {
    pub fn new(seed: u64) -> DriveDense {
        let root = SimRng::new(seed);
        DriveDense {
            seeds: (0..DRIVES)
                .map(|i| root.stream_indexed("perfbench-drive", i as u64).seed())
                .collect(),
        }
    }

    fn build(seed: u64) -> (World<SpiderDriver>, usize) {
        let params = ScenarioParams {
            duration: SimDuration::from_secs(DRIVE_SECS),
            seed,
            density_per_km: DENSITY_PER_KM,
            ..Default::default()
        };
        let cfg = trace::span("mobility.town_scenario", || town_scenario(&params));
        let sites = cfg.deployment.len();
        let driver = SpiderDriver::new(SpiderConfig::for_mode(
            OperationMode::SingleChannelMultiAp(Channel::CH6),
            1,
        ));
        (trace::span("world.new", || World::new(cfg, driver)), sites)
    }
}

/// Run `job` over `jobs` on `workers` threads, each taking the next job
/// as it frees up; results in job order. Each job is recorded as a span
/// under `parent` and flushed before the worker moves on.
fn pool<J: Sync, R: Send>(
    jobs: &[J],
    workers: usize,
    parent: u64,
    job: impl Fn(&J) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(jobs.len()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(jobs.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(j) = jobs.get(i) else { break };
                        done.push((i, trace::span_under(parent, "job.drive", || job(j))));
                        trace::flush();
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("pool jobs catch their own panics") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every job ran"))
        .collect()
}

impl Workload for DriveDense {
    type Output = Vec<Drive>;
    const JOBS_VISIBLE: bool = true;

    fn setup(&self) {
        for &seed in &self.seeds {
            std::hint::black_box(Self::build(seed));
        }
    }

    fn round(&self, workers: usize) -> (Round, Vec<Drive>) {
        let drives = trace::span("dense.sweep", || {
            let parent = trace::current();
            pool(&self.seeds, workers, parent, |&seed| {
                catch_unwind(AssertUnwindSafe(|| {
                    let (world, sites) = Self::build(seed);
                    let result = trace::span("world.run:spider", || world.run());
                    (sites, result)
                }))
                .map_or(
                    Drive {
                        seed,
                        sites: 0,
                        result: None,
                    },
                    |(sites, result)| Drive {
                        seed,
                        sites,
                        result: Some(result),
                    },
                )
            })
        });
        let mut round = Round {
            attempted: drives.len() as u64,
            ..Round::default()
        };
        // Rendering every result as JSON is the workload's report emission.
        trace::span("report.to_json", || {
            for d in &drives {
                round.worlds_built += 1;
                round.sites += d.sites as u64;
                match &d.result {
                    Some(r) => {
                        round.sim_s += r.duration.as_secs_f64();
                        round.events += r.events;
                        round.events_cold += r.events;
                        round.events_spider += r.events;
                        round.digest = fold(round.digest, fnv1a(r.to_json().pretty().as_bytes()));
                    }
                    None => round.failed += 1,
                }
            }
        });
        (round, drives)
    }

    fn check(&self, drives: Vec<Drive>) -> Checked {
        let mut checked = Checked::default();
        for d in drives {
            let Some(r) = d.result else { continue };
            let digest = fnv1a(r.to_json().pretty().as_bytes());
            let floor_ok = d.sites >= MIN_SITES;
            let bytes_ok = r.bytes > 0;
            println!(
                "drive seed {:#018x}: {} sites, {} bytes, {} events, result digest {digest:016x}{}{}",
                d.seed,
                d.sites,
                r.bytes,
                r.events,
                if floor_ok { "" } else { " BELOW SITE FLOOR" },
                if bytes_ok { "" } else { " NO BYTES" },
            );
            checked.failed += u64::from(!floor_ok) + u64::from(!bytes_ok);
            checked.runs.push(r);
        }
        checked
    }
}
