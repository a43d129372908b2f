//! `chaos_campaign`: a forked adversarial-profile chaos campaign, set
//! up as the `chaos_campaign` binary sets up `--adversarial --tight`:
//! the town of world seed 7, the tight SLO table (any detection violates,
//! so ddmin shrinking and the checkpoint cache do real work) and the
//! 120 s per-trial watchdog armed. It differs from the binary in three
//! sizes: a denser town, 48 trials, and up to four shrunk trials (the
//! binary's default) instead of `--tight`'s one.
//!
//! It is the only workload that runs fault injection, mid-run
//! snapshot/fork with plan swaps, shrinking, the quarantining sweep and
//! its watchdog, and report emission. The trials run inside
//! `run_campaign_forked`'s own sweep, out of the benchmark's sight; the
//! benchmark times the world factory it hands in and the calls around.

use crate::stats::fnv1a;
use crate::{trace, Checked, Round, Workload};
use spider_core::{OperationMode, SpiderConfig, SpiderDriver};
use spider_simcore::{Json, SimDuration};
use spider_wire::Channel;
use spider_workloads::campaign::{
    chaos_plan, run_campaign_forked, CampaignConfig, CampaignReport, ChaosProfile, CheckpointCache,
    ForkStats, MinimizedRepro, SloMetric, SloRule, SloTable,
};
use spider_workloads::scenarios::{town_scenario, ScenarioParams};
use spider_workloads::{FaultPlan, World};
use std::sync::atomic::{AtomicU64, Ordering};

/// Trials per campaign.
const TRIALS: usize = 48;
/// Simulated length of each trial's drive (the binary's default).
const DRIVE_SECS: u64 = 300;
/// The binary's fixed world seed, here pinning the town's deployment:
/// campaigns explore fault-schedule space, not towns. The run seed sets
/// the world's RNG streams and the campaign's schedules.
const DEPLOY_SEED: u64 = 7;
/// Open APs per km: `bench_world`'s campaign-style town rather than the
/// binary's 15, so one town holds enough distinct APs for its join and
/// throughput statistics to be steady from seed to seed.
const DENSITY_PER_KM: f64 = 40.0;
/// The binary's shrink budget, shrink count and watchdog.
const SHRINK_BUDGET: usize = 120;
const MAX_SHRINKS: usize = 4;
const WATCHDOG_MS: u64 = 120_000;

pub struct ChaosCampaign {
    params: ScenarioParams,
    cfg: CampaignConfig,
    worlds_built: AtomicU64,
}

/// The binary's `--tight` table: any detection at all violates.
fn tight_table() -> SloTable {
    let rules = [
        "blackout",
        "zombie",
        "arp-poison",
        "captive-portal",
        "asymmetric-loss",
    ]
    .into_iter()
    .map(|class| SloRule {
        metric: SloMetric::MaxDetectS(class),
        budget: 0.0,
    })
    .collect();
    SloTable { rules }
}

impl ChaosCampaign {
    pub fn new(seed: u64) -> ChaosCampaign {
        let duration = SimDuration::from_secs(DRIVE_SECS);
        let params = ScenarioParams {
            duration,
            seed,
            deploy_seed: Some(DEPLOY_SEED),
            density_per_km: DENSITY_PER_KM,
            ..Default::default()
        };
        let num_aps = town_scenario(&params).deployment.len();
        ChaosCampaign {
            params,
            cfg: CampaignConfig {
                trials: TRIALS,
                seed,
                num_aps,
                duration,
                profile: ChaosProfile::adversarial(),
                slo: tight_table(),
                shrink_budget: SHRINK_BUDGET,
                max_shrinks: MAX_SHRINKS,
                workers: 0,
                watchdog_ms: Some(WATCHDOG_MS),
            },
            worlds_built: AtomicU64::new(0),
        }
    }

    /// The campaign's world factory: a pure function of the plan.
    fn make(&self, plan: &FaultPlan, parent: u64) -> World<SpiderDriver> {
        let world = trace::span_under(parent, "job.make_world", || {
            let mut cfg = trace::span("mobility.town_scenario", || town_scenario(&self.params));
            cfg.faults = plan.clone();
            let driver = SpiderDriver::new(SpiderConfig::for_mode(
                OperationMode::SingleChannelMultiAp(Channel::CH6),
                1,
            ));
            trace::span("world.new", || World::new(cfg, driver))
        });
        trace::flush();
        self.worlds_built.fetch_add(1, Ordering::Relaxed);
        world
    }

    /// The trial plans, derived from the campaign seed as
    /// `run_campaign_forked` derives them.
    fn plans(&self) -> Vec<FaultPlan> {
        let c = &self.cfg;
        let root = spider_simcore::SimRng::new(c.seed);
        (0..c.trials)
            .map(|t| {
                let plan_seed = root.stream_indexed("campaign-trial", t as u64).seed();
                chaos_plan(plan_seed, c.num_aps, c.duration, &c.profile)
            })
            .collect()
    }
}

/// What a campaign round hands to the checks.
pub struct Output {
    report: CampaignReport,
    json: String,
}

impl Workload for ChaosCampaign {
    type Output = Output;
    const JOBS_VISIBLE: bool = false;

    fn setup(&self) {
        std::hint::black_box(self.make(&FaultPlan::none(), 0));
        std::hint::black_box(self.plans());
    }

    fn round(&self, workers: usize) -> (Round, Output) {
        let cfg = CampaignConfig {
            workers,
            ..self.cfg.clone()
        };
        let built0 = self.worlds_built.load(Ordering::Relaxed);
        let (report, fs): (CampaignReport, ForkStats) = trace::span("campaign.run_forked", || {
            let parent = trace::current();
            run_campaign_forked(&cfg, |plan: &FaultPlan| self.make(plan, parent))
        });
        let json = trace::span("report.to_json", || report.to_json().pretty());

        let shrink_evals: usize = report.minimized.iter().map(|m| m.evals).sum();
        // Every trial, every shrink candidate and each minimized
        // schedule's final re-check is one world run.
        let attempted = (report.trials + shrink_evals + report.minimized.len()) as u64;
        let worlds_built = self.worlds_built.load(Ordering::Relaxed) - built0;
        let round = Round {
            attempted,
            failed: (report.job_failures.len() + report.hung.len()) as u64,
            sim_s: attempted as f64 * cfg.duration.as_secs_f64(),
            events: fs.events_simulated,
            events_cold: fs.events_cold,
            events_spider: fs.events_simulated,
            digest: fnv1a(json.as_bytes()),
            worlds_built,
            sites: worlds_built * cfg.num_aps as u64,
            snapshots: fs.checkpoints as u64,
            forks: fs.forks as u64,
            events_shared: fs.events_shared(),
            trials: report.trials as u64,
            shrink_evals: shrink_evals as u64,
            shrink_events: fs.shrink_events_simulated,
            episodes: report.outcomes.iter().map(|o| o.episodes as u64).sum(),
            ..Round::default()
        };
        (round, Output { report, json })
    }

    fn check(&self, out: Output) -> Checked {
        let mut checked = Checked::default();
        let slo = &self.cfg.slo;
        let report = &out.report;
        println!(
            "campaign: {} trials, {} violating, {} minimized in {} shrink evals, {} hung",
            report.trials,
            report.violating_trials(),
            report.minimized.len(),
            report.minimized.iter().map(|m| m.evals).sum::<usize>(),
            report.hung.len()
        );

        let round_trip = Json::parse(&out.json).map(|j| j.pretty());
        let json_ok = round_trip.as_deref() == Ok(out.json.as_str());
        println!(
            "check: report JSON round trip {}",
            if json_ok { "ok" } else { "FAILED" }
        );
        checked.failed += u64::from(!json_ok);

        // Replays share the fault-free prefix through one cache; each
        // is bit-identical to a cold run of its plan.
        let mut cache = CheckpointCache::new(|p: &FaultPlan| self.make(p, 0), FaultPlan::none());
        let c = &self.cfg;
        for o in &report.outcomes {
            let r = cache.run_plan(&chaos_plan(o.plan_seed, c.num_aps, c.duration, &c.profile));
            let same = r.bytes == o.bytes
                && r.connectivity == o.connectivity
                && slo.evaluate(&r) == o.violations;
            checked.attempted += 1;
            checked.failed += u64::from(!same);
            if !same {
                println!("check: trial {} replay DIFFERS from its record", o.trial);
            }
            checked.runs.push(r);
        }
        for m in &report.minimized {
            let text = m.to_json().pretty();
            let parsed = Json::parse(&text)
                .ok()
                .and_then(|j| MinimizedRepro::from_json(&j));
            let reproduces = parsed.is_some_and(|p| {
                let v = slo.evaluate(&cache.run_plan(&p.plan));
                !v.is_empty() && v == p.violations
            });
            checked.attempted += 1;
            checked.failed += u64::from(!reproduces);
            println!(
                "check: trial {} reproducer ({} -> {} episodes) {}",
                m.trial,
                m.original_episodes,
                m.plan.episodes.len(),
                if reproduces {
                    "reproduces"
                } else {
                    "DOES NOT REPRODUCE"
                }
            );
        }
        checked
    }
}
