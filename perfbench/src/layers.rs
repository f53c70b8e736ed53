//! Per-layer accounting: wall time of each timed layer call, plus the
//! counters the program already exports, turned into the benchmark's
//! per-layer metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use ss_obs::{Registry, WorkKind};

/// Accumulated per-layer values, keyed by metric name. Times are summed
/// over every call booked under the same name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

/// Layer times that together make up a traced study (restore to
/// headline); what they leave over, the program's own work between the
/// layer calls, is `study.unattributed_s`.
const STUDY_PHASES: [&str; 9] = [
    "eco.tick_s",
    "crawl.crawl_s",
    "orders.enroll_s",
    "orders.sample_s",
    "orders.purchase_s",
    "orders.awstats_s",
    "orders.supplier_s",
    "ml.attribute_s",
    "analysis.scan_s",
];

impl Layers {
    /// Runs `f`, adding its wall time in seconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.values.entry(name).or_insert(0.0) += t.elapsed().as_secs_f64();
        out
    }

    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value of `name`, 0 when nothing was booked under it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every booked value, by name.
    pub fn into_values(self) -> BTreeMap<&'static str, f64> {
        self.values
    }

    /// Derives the study's per-layer counts and ratios from the run's
    /// merged registry (`obs`) and the world registry's change over the
    /// study window (`world`).
    pub fn study_counters(&mut self, obs: &Registry, world: &Snap) {
        let docs = work(obs, "crawl/fetch", WorkKind::DocsFetched);
        let crawl_bytes: u64 = obs
            .costs()
            .iter()
            .filter(|(path, _)| path.starts_with("crawl/"))
            .map(|(_, s)| s.bytes)
            .sum();
        self.set("crawl.docs_fetched", docs as f64);
        self.set("crawl.docs_per_s", ratio(docs, self.get("crawl.crawl_s")));
        self.set("crawl.alloc_bytes_per_doc", ratio(crawl_bytes, docs as f64));
        self.set(
            "crawl.js_vm_steps",
            work(obs, "crawl/render", WorkKind::JsVmSteps) as f64,
        );
        let js_hits = obs.counter_total("simweb.js_cache_hit");
        let js_compiles = obs.counter_total("simweb.js_compile");
        self.set(
            "crawl.js_cache_hit_ratio",
            ratio(js_hits, (js_hits + js_compiles) as f64),
        );
        self.set("crawl.psrs", obs.counter_total("crawl.psrs") as f64);
        self.set(
            "crawl.cloak_yield",
            ratio(
                obs.counter_total("crawl.cloak_detections"),
                obs.counter_total("crawl.detector_runs") as f64,
            ),
        );

        self.set("eco.events_applied", world.events_applied as f64);
        self.set(
            "eco.us_per_event",
            ratio(1_000_000, world.events_applied as f64) * self.get("eco.tick_s"),
        );
        self.set("search.serp_queries", world.serp_queries as f64);
        self.set(
            "search.serp_cache_hit_ratio",
            ratio(world.serp_cache_hits, world.serp_queries as f64),
        );
        self.set(
            "search.postings_per_query",
            ratio(world.postings_walked, world.serp_queries as f64),
        );

        self.set(
            "orders.sample_yield",
            ratio(
                obs.counter_total("orders.samples"),
                obs.counter_total("orders.sample_attempts") as f64,
            ),
        );
        self.set(
            "orders.awstats_yield",
            ratio(
                obs.counter_total("pipeline.awstats_reports"),
                obs.counter_total("pipeline.awstats_probes") as f64,
            ),
        );
    }

    /// Books the traced study's remainder: `study_s` minus the timed
    /// layer calls, in seconds and as a share of `study_s`.
    pub fn study_remainder(&mut self, study_s: f64) {
        let timed: f64 = STUDY_PHASES.iter().map(|p| self.get(p)).sum();
        self.set("study.unattributed_s", study_s - timed);
        self.set("study.unattributed_share", (study_s - timed) / study_s);
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: u64, den: f64) -> f64 {
    if den > 0.0 {
        num as f64 / den
    } else {
        0.0
    }
}

/// One work column of one cost row.
fn work(reg: &Registry, path: &str, kind: WorkKind) -> u64 {
    reg.cost_stats(path).map_or(0, |s| s.work[kind as usize])
}

/// The world registry's query-plane and tick-plane totals at one moment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snap {
    /// `engine.serp_queries`.
    pub serp_queries: u64,
    /// `engine.serp_cache_hits`.
    pub serp_cache_hits: u64,
    /// Postings walked by SERP top-k walks (`engine/serp`).
    pub postings_walked: u64,
    /// Events applied by every tick planner (`tick/*`).
    pub events_applied: u64,
}

impl Snap {
    /// Reads the totals from a world registry.
    pub fn take(reg: &Registry) -> Snap {
        Snap {
            serp_queries: reg.counter_total("engine.serp_queries"),
            serp_cache_hits: reg.counter_total("engine.serp_cache_hits"),
            postings_walked: work(reg, "engine/serp", WorkKind::PostingsWalked),
            events_applied: reg
                .costs()
                .iter()
                .filter(|(path, _)| path.starts_with("tick/"))
                .map(|(_, s)| s.work[WorkKind::EventsApplied as usize])
                .sum(),
        }
    }

    /// The change from `before` to `self`.
    pub fn minus(&self, before: &Snap) -> Snap {
        Snap {
            serp_queries: self.serp_queries - before.serp_queries,
            serp_cache_hits: self.serp_cache_hits - before.serp_cache_hits,
            postings_walked: self.postings_walked - before.postings_walked,
            events_applied: self.events_applied - before.events_applied,
        }
    }
}
