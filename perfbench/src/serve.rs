//! The query plane under a live writer.
//!
//! One writer thread ticks the world a fixed number of days and
//! publishes `SearchEngine::epoch` after each commit. One reader thread
//! runs a seeded closed loop of `EngineEpoch::ranked` queries: a fixed
//! quota on each published epoch in turn, 7/8 of them for the epoch's
//! own day and 1/8 for a nearby day (the mix `repro serve` uses), and
//! each query reads every hit it is served, as `repro serve`'s workers
//! do. The hand-off is a rendezvous channel, so the writer's next tick
//! races the reader's quota and whichever side is slower waits for the
//! other.
//!
//! A serve phase runs in rounds, each with a reader thread of its own.
//! Each epoch's quota is summarised on its own (throughput, median and
//! 99th-percentile latency) and a round reports medians over its epochs,
//! so a short burst of machine noise moves few of them. On a 2-vCPU VM
//! a round's figures fall in one of two modes ~20% apart, most likely
//! from where the scheduler places its reader, so callers average over
//! rounds.
//!
//! A seeded sample of the served SERPs is re-walked with
//! `ranked_uncached` on the same epoch after the epoch's quota, outside
//! the timed window; every mismatch is a failed query.

use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

use ss_eco::World;
use ss_search::{EngineEpoch, RankedSerp};
use ss_types::rng::mix;
use ss_types::{SimDate, TermId};

use crate::stats::{median, quantile};

/// One in this many queries is re-checked against `ranked_uncached`.
const CHECK_EVERY: u64 = 97;

/// One epoch's quota as the reader saw it.
#[derive(Debug)]
struct EpochServe {
    /// Queries per second over the quota's timed window.
    qps: f64,
    /// Median query latency, microseconds.
    p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    p99_us: f64,
}

/// One round's figures: medians over its epochs and its days.
#[derive(Debug, Clone, Copy)]
pub struct RoundServe {
    /// Queries per second over an epoch's timed window.
    pub qps: f64,
    /// Median query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
    /// Writer tick plus publish, milliseconds.
    pub tick_ms: f64,
}

/// What a serve phase measured, summed over its rounds.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Per-round figures, in order.
    pub rounds: Vec<RoundServe>,
    /// Queries the reader issued.
    pub queries: u64,
    /// Reader time spent serving quotas (the timed windows), seconds.
    pub serve_s: f64,
    /// Reader time blocked waiting for the next epoch, seconds.
    pub reader_wait_s: f64,
    /// Writer time blocked handing an epoch to the reader, seconds.
    pub writer_wait_s: f64,
    /// Per-day `SearchEngine::epoch` call alone, milliseconds.
    pub publish_ms: Vec<f64>,
    /// Served SERPs re-checked against `ranked_uncached`.
    pub checked: u64,
    /// Re-checked SERPs that differed.
    pub mismatched: u64,
    /// Engine-side SERP queries over the run (reader and tick planners).
    pub engine_queries: u64,
    /// Engine-side SERP cache hits over the run.
    pub engine_cache_hits: u64,
    /// Engine-side postings walked over the run.
    pub engine_postings: u64,
}

/// The reader's side: serve `quota` queries on every epoch received.
/// Returns the tallies and the per-epoch figures.
fn reader(
    rx: std::sync::mpsc::Receiver<(u32, Arc<EngineEpoch>)>,
    quota: u64,
    seed: u64,
    terms: usize,
    depth: usize,
) -> (ServeRun, Vec<EpochServe>) {
    let mut run = ServeRun::default();
    let mut epochs = Vec::new();
    let mut sample: Vec<RankedSerp> = Vec::new();
    let mut latencies_us: Vec<f64> = Vec::with_capacity(quota as usize);
    let mut epoch_no = 0u64;
    let mut checksum = 0u64;
    loop {
        let waited = Instant::now();
        let Ok((day, epoch)) = rx.recv() else {
            break;
        };
        run.reader_wait_s += waited.elapsed().as_secs_f64();
        let serving = Instant::now();
        for q in 0..quota {
            let h = mix(seed, epoch_no, q);
            let term = TermId::from_index((h as usize) % terms);
            let qday = if h.is_multiple_of(8) {
                day + ((h >> 32) % 4) as u32
            } else {
                day
            };
            let t = Instant::now();
            let serp = epoch.ranked(term, SimDate::from_day_index(qday), depth);
            for hit in serp.results() {
                checksum ^= u64::from(hit.rank) ^ (u64::from(hit.domain.0) << 32);
            }
            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            if (h >> 16).is_multiple_of(CHECK_EVERY) {
                sample.push(serp);
            }
        }
        let serve_s = serving.elapsed().as_secs_f64();
        run.serve_s += serve_s;
        run.queries += quota;
        epochs.push(EpochServe {
            qps: quota as f64 / serve_s,
            p50_us: quantile(&latencies_us, 0.50),
            p99_us: quantile(&latencies_us, 0.99),
        });
        latencies_us.clear();
        for serp in sample.drain(..) {
            run.checked += 1;
            if epoch.ranked_uncached(serp.term, serp.day, depth) != serp.results() {
                run.mismatched += 1;
            }
        }
        epoch_no += 1;
    }
    // Keeps the optimizer from skipping the reads; the value is meaningless.
    std::hint::black_box(checksum);
    (run, epochs)
}

/// Runs `rounds` rounds of [`serve_round`] one after another, each with
/// its own query stream. The world is left `rounds × days` days further
/// along.
pub fn serve(world: &mut World, rounds: u32, days: u32, quota: u64, seed: u64) -> ServeRun {
    let mut total = ServeRun::default();
    for round in 0..rounds {
        let run = serve_round(world, days, quota, mix(seed, u64::from(round), 0));
        total.rounds.extend(run.rounds);
        total.queries += run.queries;
        total.serve_s += run.serve_s;
        total.reader_wait_s += run.reader_wait_s;
        total.writer_wait_s += run.writer_wait_s;
        total.publish_ms.extend(run.publish_ms);
        total.checked += run.checked;
        total.mismatched += run.mismatched;
        total.engine_queries += run.engine_queries;
        total.engine_cache_hits += run.engine_cache_hits;
        total.engine_postings += run.engine_postings;
    }
    total
}

/// Ticks `days` days under a reader issuing `quota` queries per epoch.
/// The world is left `days` days further along.
fn serve_round(world: &mut World, days: u32, quota: u64, seed: u64) -> ServeRun {
    let terms = world.engine.term_count().max(1);
    let depth = world.cfg.scale.serp_depth;
    world.drain_engine_metrics();
    let (tx, rx) = sync_channel::<(u32, Arc<EngineEpoch>)>(0);
    let mut tick_ms = Vec::with_capacity(days as usize);
    let mut publish_ms = Vec::with_capacity(days as usize);
    let mut writer_wait_s = 0.0;
    let (mut run, epochs) = std::thread::scope(|s| {
        let reader = s.spawn(move || reader(rx, quota, seed, terms, depth));
        let first = (world.day.day_index(), world.engine.epoch());
        let waited = Instant::now();
        let mut delivered = tx.send(first).is_ok();
        writer_wait_s += waited.elapsed().as_secs_f64();
        for _ in 0..days {
            if !delivered {
                break;
            }
            let tick = Instant::now();
            // `run_until` is inclusive: this ticks and commits one day.
            let today = world.day;
            world.run_until(today);
            let publish = Instant::now();
            let epoch = world.engine.epoch();
            publish_ms.push(publish.elapsed().as_secs_f64() * 1e3);
            tick_ms.push(tick.elapsed().as_secs_f64() * 1e3);
            let waited = Instant::now();
            delivered = tx.send((world.day.day_index(), epoch)).is_ok();
            writer_wait_s += waited.elapsed().as_secs_f64();
        }
        drop(tx);
        reader.join().expect("serve reader panicked")
    });
    let per_epoch = |f: fn(&EpochServe) -> f64| median(&epochs.iter().map(f).collect::<Vec<_>>());
    run.rounds.push(RoundServe {
        qps: per_epoch(|e| e.qps),
        p50_us: per_epoch(|e| e.p50_us),
        p99_us: per_epoch(|e| e.p99_us),
        tick_ms: median(&tick_ms),
    });
    run.publish_ms = publish_ms;
    run.writer_wait_s = writer_wait_s;
    let (queries, hits) = world.engine.take_serp_stats();
    let (postings, _) = world.engine.take_walk_work();
    run.engine_queries = queries;
    run.engine_cache_hits = hits;
    run.engine_postings = postings;
    run
}
