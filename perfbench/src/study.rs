//! The two study drivers the benchmark times.
//!
//! [`untraced`] calls the program's own entry points and nothing else:
//! `RunState::build`, then the in-memory checkpoint round trip
//! (`RunState::checkpoint_bytes` → `Snapshot::decode`) and
//! `Study::resume`, the path `repro sweep` forks through.
//!
//! [`traced`] runs the same study stage by stage, timing every call into
//! a layer's public function from out here: world build, warmup and term
//! selection, each tick, each `DailyStage::run` of the default schedule,
//! attribution and the analysis scan. Between those calls it does what
//! `Study::resume` does, line for line; the self-test pins that both
//! drivers end on `Study::run`'s fingerprint and headline.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use search_seizure::analysis::scan::StudyScan;
use search_seizure::attribution;
use search_seizure::manifest::{self, DayRecord};
use search_seizure::pipeline::{DailyState, StageContext};
use search_seizure::state;
use search_seizure::{RunCheckpoint, RunState, Study, StudyConfig};
use ss_crawl::crawler::Crawler;
use ss_eco::World;
use ss_obs::Registry;
use ss_orders::purchasepair::OrderSampler;
use ss_orders::supplier_scrape;
use ss_orders::transactions;
use ss_types::snapshot::Snapshot;
use ss_types::{DomainName, SimDate};

use crate::layers::{Layers, Snap};
use crate::stats::median;

/// What one untraced iteration measured and produced.
pub struct Untraced {
    /// `RunState::build`: world build, warmup and term selection.
    pub setup_s: f64,
    /// `RunState::checkpoint_bytes` plus `Snapshot::decode`, median over
    /// the round trips.
    pub checkpoint_s: f64,
    /// `Study::resume` on the decoded checkpoint, up to `StudyOutput`.
    pub study_s: f64,
    /// The run's outputs, for the correctness checks.
    pub outcome: Outcome,
    /// The decoded checkpoint restores the built state's fingerprint.
    pub checkpoint_restores: bool,
}

/// The outputs both drivers must agree on.
#[derive(Debug)]
pub struct Outcome {
    /// `StudyOutput::run_fingerprint`.
    pub fingerprint: u64,
    /// The manifest headline, rendered.
    pub headline: String,
    /// PSR rows recorded.
    pub psrs: u64,
    /// Detected store domains.
    pub stores: u64,
    /// Calibration observables graded `fail` (empty for the traced run,
    /// which does not grade calibration).
    pub calibration_fails: Vec<String>,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Times one `RunState::build` of `cfg`, for set-up timing only.
pub fn setup(cfg: &StudyConfig) -> Result<f64, String> {
    let t = Instant::now();
    let state = RunState::build(cfg).map_err(|e| err("build", e))?;
    let setup_s = secs(t);
    drop(state);
    Ok(setup_s)
}

/// Runs one study through the program's own entry points, with
/// `checkpoint_reps` checkpoint round trips. Between encoding the last
/// checkpoint and decoding it, `serve` runs on the freshly built world
/// (which it may tick ahead); the study resumes from the state as built.
/// Returns the measurements and what `serve` returned.
pub fn untraced<S>(
    cfg: &StudyConfig,
    checkpoint_reps: usize,
    serve: impl FnOnce(&mut World) -> S,
) -> Result<(Untraced, S), String> {
    let t = Instant::now();
    let mut built = RunState::build(cfg).map_err(|e| err("build", e))?;
    let setup_s = secs(t);
    let built_fingerprint = built.run_fingerprint();

    // Small states round-trip several times, so their median is not one
    // ~30 ms sample; the last decode is the one the study resumes from.
    let mut round_trips = Vec::with_capacity(checkpoint_reps);
    for _ in 1..checkpoint_reps {
        let t = Instant::now();
        let bytes = built.checkpoint_bytes(cfg);
        let decoded = RunCheckpoint::decode(&bytes).map_err(|e| err("decode", e))?;
        round_trips.push(secs(t));
        drop(decoded);
    }
    let t = Instant::now();
    let bytes = built.checkpoint_bytes(cfg);
    let encode_s = secs(t);
    let served = serve(&mut built.world);
    drop(built);
    let t = Instant::now();
    let ckpt = RunCheckpoint::decode(&bytes).map_err(|e| err("decode", e))?;
    round_trips.push(encode_s + secs(t));
    drop(bytes);
    let checkpoint_restores =
        state::run_fingerprint(&ckpt.world, &ckpt.crawler) == built_fingerprint;

    let t = Instant::now();
    let out = Study::new(cfg.clone())
        .resume(ckpt)
        .map_err(|e| err("resume", e))?;
    let study_s = secs(t);

    let outcome = Outcome {
        fingerprint: out.run_fingerprint(),
        headline: format!("{:?}", out.manifest.headline),
        psrs: out.manifest.headline.psrs,
        stores: out.manifest.headline.detected_stores,
        calibration_fails: out
            .manifest
            .calibration
            .iter()
            .filter(|c| c.status == "fail")
            .map(|c| c.observable.clone())
            .collect(),
    };
    let run = Untraced {
        setup_s,
        checkpoint_s: median(&round_trips),
        study_s,
        outcome,
        checkpoint_restores,
    };
    Ok((run, served))
}

/// What the traced driver measured and produced.
pub struct Traced {
    /// Per-layer times and counts.
    pub layers: Layers,
    /// Wall clock from `RunState::restore` to the headline.
    pub study_s: f64,
    /// The run's outputs.
    pub outcome: Outcome,
    /// The decoded checkpoint restores the built state's fingerprint.
    pub checkpoint_restores: bool,
}

/// The layer metric a daily stage's time is booked under.
fn stage_metric(name: &str) -> &'static str {
    match name {
        "crawl" => "crawl.crawl_s",
        "enroll-stores" => "orders.enroll_s",
        "purchase-pairs" => "orders.sample_s",
        "purchases" => "orders.purchase_s",
        "awstats-sweep" => "orders.awstats_s",
        other => panic!("stage {other:?} has no layer metric"),
    }
}

/// Runs one study stage by stage, timing each layer call.
pub fn traced(cfg: &StudyConfig) -> Result<Traced, String> {
    let mut layers = Layers::default();
    let start = cfg.crawl_start;
    let end = cfg.crawl_end;

    // ---- set-up: what `RunState::build` does ----
    let mut world = layers
        .time("eco.build_s", || World::build(cfg.scenario.clone()))
        .map_err(|e| err("build", e))?;
    world.tick_threads = cfg.tick_threads;
    world.set_trace(cfg.trace_level);
    layers.time("eco.warmup_s", || world.run_until(start));
    let monitored = layers.time("crawl.select_terms_s", || {
        ss_crawl::terms::select_all(&world, start, cfg.monitored_terms, cfg.scenario.seed)
    });
    world.drain_engine_metrics();
    let built = RunState {
        daily: DailyState {
            crawler: Crawler::new(cfg.crawler.clone(), monitored.clone()),
            sampler: OrderSampler::new(cfg.sampler.clone()),
            transactions: Vec::new(),
            awstats: HashMap::new(),
            purchased: HashSet::new(),
        },
        world,
        monitored,
        obs: Registry::new(),
        day_records: Vec::new(),
        next_day: start + 1,
    };
    let built_fingerprint = built.run_fingerprint();

    // ---- checkpoint round trip ----
    let bytes = layers.time("state.encode_s", || built.checkpoint_bytes(cfg));
    layers.set("state.ckpt_mb", bytes.len() as f64 / (1024.0 * 1024.0));
    drop(built);
    let ckpt = layers
        .time("state.decode_s", || RunCheckpoint::decode(&bytes))
        .map_err(|e| err("decode", e))?;
    drop(bytes);
    let checkpoint_restores =
        state::run_fingerprint(&ckpt.world, &ckpt.crawler) == built_fingerprint;

    // ---- the study: what `Study::resume` does ----
    // Everything `Study::drive` does with tracing off runs here too, so
    // what the timed layer calls leave over (`study.unattributed_s`) is
    // the program's own work outside them: spans, day records, the
    // registry merge and the manifest sections. Only the calibration
    // grading is left out (`calibration_observables` is private).
    let study_clock = Instant::now();
    let mut run = RunState::restore(ckpt, cfg).map_err(|e| err("restore", e))?;
    let world_before = Snap::take(&run.world.metrics);
    let stages = Study::default_schedule();
    {
        let ctx = StageContext {
            cfg,
            start,
            obs: &run.obs,
        };
        for day in SimDate::range_inclusive(run.next_day, end) {
            let day_clock = Instant::now();
            {
                let _day_span = ctx.obs.span("study.day");
                ss_obs::time!(
                    ctx.obs,
                    "study.world_tick",
                    layers.time("eco.tick_s", || run.world.run_until(day))
                );
                for stage in &stages {
                    let _stage_span = ctx.obs.span(stage.span_name());
                    layers.time(stage_metric(stage.name()), || {
                        stage.run(&ctx, &mut run.daily, &mut run.world, day)
                    });
                }
            }
            run.world.drain_engine_metrics();
            run.day_records.push(DayRecord {
                day: day.day_index(),
                psrs: run.daily.crawler.db.psrs.len() as u64,
                test_orders: run.daily.sampler.orders_created as u64,
                purchases: run.daily.transactions.len() as u64,
                elapsed_ms: day_clock.elapsed().as_secs_f64() * 1_000.0,
            });
            run.next_day = day + 1;
        }
    }
    let RunState {
        mut world,
        daily,
        monitored,
        obs,
        day_records,
        ..
    } = run;
    let DailyState {
        crawler,
        sampler,
        mut transactions,
        ..
    } = daily;

    ss_obs::time!(
        obs,
        "study.supplier",
        layers.time("orders.supplier_s", || {
            discover_supplier(&mut world, &crawler, &mut transactions, end)
        })
    );
    let attribution = ss_obs::time!(
        obs,
        "study.attribution",
        layers.time("ml.attribute_s", || {
            attribution::attribute(&world, &crawler.db, &cfg.attribution, cfg.scenario.seed)
        })
    );
    let scan = ss_obs::time!(
        obs,
        "study.analysis_scan",
        layers.time("analysis.scan_s", || {
            StudyScan::compute(
                &crawler.db,
                &attribution,
                monitored.len(),
                (start + 1, end),
                cfg.analysis_threads,
                &obs,
            )
        })
    );
    world.drain_engine_metrics();
    obs.merge_from(&world.metrics);
    let stage_names: Vec<&'static str> = stages.iter().map(|s| s.name()).collect();
    let sections = (
        manifest::config_hash(cfg),
        manifest::stage_timings(&obs, &stage_names),
        manifest::trail_summary(&world.event_trail),
        day_records,
    );
    let headline = manifest::headline(&crawler.db, &sampler, &transactions, &attribution);
    let study_s = secs(study_clock);
    drop(std::hint::black_box(sections));
    layers.set("analysis.rows", scan.rows as f64);
    layers.set(
        "analysis.rows_per_s",
        scan.rows as f64 / layers.get("analysis.scan_s"),
    );

    // ---- counters the program exports ----
    // (The world counters merged into `obs` above share no name with
    // the study counters read from it.)
    let world_delta = Snap::take(&world.metrics).minus(&world_before);
    layers.study_counters(&obs, &world_delta);
    layers.set("ml.pool_stores", attribution.pool_domains.len() as f64);
    layers.set("ml.dict_features", attribution.dict.len() as f64);
    layers.set("ml.labeled", attribution.labeled_count as f64);
    layers.set("ml.oracle_queries", attribution.oracle_queries as f64);
    let outcome = Outcome {
        fingerprint: state::run_fingerprint(&world, &crawler),
        headline: format!("{headline:?}"),
        psrs: headline.psrs,
        stores: headline.detected_stores,
        calibration_fails: Vec::new(),
    };
    Ok(Traced {
        layers,
        study_s,
        outcome,
        checkpoint_restores,
    })
}

/// Supplier discovery via packing slips, exactly as `Study::resume`'s
/// post-crawl collection does it: probe the purchases' stores, and buy
/// once more from a partnered store if none of them led to the portal.
fn discover_supplier(
    world: &mut World,
    crawler: &Crawler,
    transactions: &mut Vec<transactions::Transaction>,
    end: SimDate,
) -> bool {
    for tx in transactions.iter() {
        let Ok(host) = DomainName::parse(&tx.store_domain) else {
            continue;
        };
        if let Some(portal) = world.packing_slip(&host) {
            if let Some(max) = supplier_scrape::probe_max_order(&*world, &portal) {
                supplier_scrape::scrape(&*world, &portal, max, 4);
                return true;
            }
            break;
        }
    }
    let partnered: Option<String> = crawler
        .db
        .detected_store_ids()
        .into_iter()
        .map(|id| crawler.db.domains.resolve(id))
        .find(|d| {
            DomainName::parse(d)
                .ok()
                .and_then(|h| world.packing_slip(&h))
                .is_some()
        })
        .map(str::to_owned);
    let Some(domain) = partnered else {
        return false;
    };
    if let Some(tx) = transactions::purchase(world, &domain, end) {
        transactions.push(tx);
    }
    let host = DomainName::parse(&domain).expect("validated above");
    let portal = world.packing_slip(&host).expect("checked above");
    match supplier_scrape::probe_max_order(&*world, &portal) {
        Some(max) => {
            supplier_scrape::scrape(&*world, &portal, max, 4);
            true
        }
        None => false,
    }
}
