//! `table2_fan`: the paper's Table 2 batch as the forked seed fan, on
//! shortened drives.
//!
//! Mirrors `StdConfigs::table2_fan_scaled`'s forked leg: one base world
//! per row, built with the deployment pinned to `TABLE2_DEPLOY_SEED`,
//! and one seed-rebased fork per `(row, seed)` job, run through
//! `forked_sweep_with` in seed-major order. The benchmark builds the
//! rows itself so scenario generation, construction, snapshots, seed
//! rebases and runs can be timed apart; the output check compares a
//! sampled job with the repository's own cold `Table2Base` build.
//!
//! Rows 0–4 drive Spider (multi-channel switching, joins, DHCP); row 5
//! drives the stock baseline, which is far slower per simulated second,
//! so the sweep's slowest job sets the round's time.

use crate::stats::{fnv1a, fold};
use crate::{trace, Checked, Round, Workload};
use spider_baselines::{StockConfig, StockDriver};
use spider_bench::runs::{table2_params, Table2Base, TABLE2_DEPLOY_SEED};
use spider_bench::StdConfigs;
use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_simcore::{forked_sweep_with, SimDuration, SimRng};
use spider_wire::Channel;
use spider_workloads::scenarios::{boston_scenario, town_scenario};
use spider_workloads::{RunResult, World};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeds in the fan; each runs all six rows.
const SEEDS: usize = 64;
/// Simulated length of one drive.
const DRIVE_SECS: u64 = 60;
const ROWS: usize = StdConfigs::TABLE2_ROWS;
/// The row driven by the stock baseline.
const STOCK_ROW: usize = 5;

pub struct Table2Fan {
    seeds: Vec<u64>,
    /// The `(row, seed index)` job the output check rebuilds cold.
    sample: (usize, usize),
}

/// A fan base. Its clones are the `World::snapshot` each forked job
/// starts from, recorded as spans under the fan's sweep.
struct Base {
    world: Table2Base,
    sites: usize,
    parent: u64,
}

impl Clone for Base {
    fn clone(&self) -> Self {
        Base {
            world: trace::span_under(self.parent, "world.snapshot", || self.world.clone()),
            sites: self.sites,
            parent: self.parent,
        }
    }
}

/// One finished job of the fan.
pub struct Job {
    row: usize,
    seed: u64,
    sites: usize,
    result: Option<RunResult>,
}

fn duration() -> SimDuration {
    SimDuration::from_secs(DRIVE_SECS)
}

/// Build row `row`'s world under `seed`, as `Table2Base::build_scaled`
/// does.
fn build_row(row: usize, seed: u64) -> (Table2Base, usize) {
    let mut params = table2_params(seed);
    params.duration = duration();
    let period = StdConfigs::period();
    let mode = match row {
        0 => OperationMode::SingleChannelMultiAp(Channel::CH1),
        1 => OperationMode::SingleChannelSingleAp(Channel::CH1),
        2 => OperationMode::MultiChannelMultiAp { period },
        3 => OperationMode::MultiChannelSingleAp { period },
        _ => OperationMode::SingleChannelSingleAp(Channel::CH6),
    };
    let cfg = trace::span("mobility.town_scenario", || {
        if row == 4 {
            boston_scenario(&params)
        } else {
            town_scenario(&params)
        }
    });
    let sites = cfg.deployment.len();
    let base = trace::span("world.new", || {
        if row == STOCK_ROW {
            Table2Base::Stock(World::new(cfg, StockDriver::new(StockConfig::stock(1))))
        } else {
            Table2Base::Spider(World::new(
                cfg,
                SpiderDriver::new(SpiderConfig::for_mode(mode, 1)),
            ))
        }
    });
    (base, sites)
}

/// Rebase a base onto `seed` and run it.
fn run_seed(world: Table2Base, seed: u64) -> RunResult {
    match world {
        Table2Base::Spider(mut w) => {
            trace::span("world.rebase_seed", || w.rebase_seed(seed));
            trace::span("world.run:spider", || w.run())
        }
        Table2Base::Stock(mut w) => {
            trace::span("world.rebase_seed", || w.rebase_seed(seed));
            trace::span("world.run:stock", || w.run())
        }
    }
}

impl Table2Fan {
    pub fn new(seed: u64) -> Table2Fan {
        let root = SimRng::new(seed);
        Table2Fan {
            seeds: (0..SEEDS)
                .map(|i| root.stream_indexed("perfbench-fan", i as u64).seed())
                .collect(),
            sample: (
                (seed % ROWS as u64) as usize,
                (seed / ROWS as u64) as usize % SEEDS,
            ),
        }
    }
}

impl Workload for Table2Fan {
    type Output = Vec<Job>;
    const JOBS_VISIBLE: bool = true;

    fn setup(&self) {
        for row in 0..ROWS {
            std::hint::black_box(build_row(row, TABLE2_DEPLOY_SEED));
        }
    }

    fn round(&self, workers: usize) -> (Round, Vec<Job>) {
        // Seed-major, as the repository's fan orders its jobs.
        let jobs: Vec<(usize, (usize, u64))> = self
            .seeds
            .iter()
            .flat_map(|&seed| (0..ROWS).map(move |row| (row, (row, seed))))
            .collect();
        let rows: Vec<usize> = (0..ROWS).collect();
        let done = trace::span("fan.sweep", || {
            let parent = trace::current();
            forked_sweep_with(
                &rows,
                &jobs,
                |&row| {
                    let base = trace::span_under(parent, "job.fan_base", || {
                        let (world, sites) = build_row(row, TABLE2_DEPLOY_SEED);
                        Base {
                            world,
                            sites,
                            parent,
                        }
                    });
                    trace::flush();
                    base
                },
                |base: Base, &(row, seed)| {
                    let result = trace::span_under(parent, "job.fan_seed", || {
                        catch_unwind(AssertUnwindSafe(|| run_seed(base.world, seed))).ok()
                    });
                    trace::flush();
                    Job {
                        row,
                        seed,
                        sites: base.sites,
                        result,
                    }
                },
                workers,
            )
        });

        let mut round = Round {
            attempted: done.len() as u64,
            worlds_built: ROWS as u64,
            snapshots: done.len() as u64,
            forks: done.len() as u64,
            ..Round::default()
        };
        round.sites = done[..ROWS].iter().map(|j| j.sites as u64).sum();
        // Rendering every result as JSON is the workload's report emission.
        trace::span("report.to_json", || {
            for j in &done {
                match &j.result {
                    Some(r) => {
                        round.sim_s += r.duration.as_secs_f64();
                        round.events += r.events;
                        round.events_cold += r.events;
                        if j.row == STOCK_ROW {
                            round.events_stock += r.events;
                        } else {
                            round.events_spider += r.events;
                        }
                        round.digest = fold(round.digest, fnv1a(r.to_json().pretty().as_bytes()));
                    }
                    None => round.failed += 1,
                }
            }
        });
        (round, done)
    }

    fn check(&self, jobs: Vec<Job>) -> Checked {
        let mut checked = Checked::default();
        for row in 0..ROWS {
            let rs: Vec<&RunResult> = jobs
                .iter()
                .filter(|j| j.row == row)
                .filter_map(|j| j.result.as_ref())
                .collect();
            let n = rs.len().max(1) as f64;
            println!(
                "{:<40} {:>8.2} KB/s {:>6.2}% connectivity ({} seeds)",
                StdConfigs::table2_label(row),
                rs.iter().map(|r| r.throughput_kbs()).sum::<f64>() / n,
                rs.iter().map(|r| r.connectivity_pct()).sum::<f64>() / n,
                rs.len()
            );
        }
        let (row, k) = self.sample;
        let seed = self.seeds[k];
        let forked = jobs
            .iter()
            .find(|j| j.row == row && j.seed == seed)
            .and_then(|j| j.result.as_ref());
        checked.attempted += 1;
        let cold = Table2Base::build_scaled(row, seed, Some(duration())).run();
        let same = forked.is_some_and(|f| f.to_json().pretty() == cold.to_json().pretty());
        println!(
            "check: row {row} seed {seed:#018x} forked job {} its cold rebuild",
            if same { "matches" } else { "DIFFERS FROM" }
        );
        checked.failed += u64::from(!same);
        checked.runs = jobs.into_iter().filter_map(|j| j.result).collect();
        checked
    }
}
