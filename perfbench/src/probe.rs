//! Every call the benchmark makes into the engine goes through [`Probe`].
//!
//! Untraced, a probe times only what the end-to-end metrics need (one clock
//! pair around a CP, a query, a relocation or a restart). Traced, it also
//! feeds a [`Tracer`]: per-call latencies and the public reports the calls
//! return (`CpReport`, `MaintenanceReport`, journal ring stats, device
//! counters), which become the per-layer metrics. All timing is done here,
//! in benchmark code, around the engine's public functions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use backlog::{BacklogConfig, BacklogEngine, BlockNo, JournalRecovery, Owner, QueryResult};
use blockdev::SimDisk;
use obs::Histogram;

use crate::samples::{Samples, TAIL_LADDER};

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Per-layer accumulators of one traced run.
#[derive(Debug, Default)]
struct Layers {
    fsim_self_ns: u64,
    cp_ns: Samples,
    cp_records: u64,
    /// prepare, flush, barrier, flip, retire.
    cp_phase_ns: [u64; 5],
    journal_groups: u64,
    journal_pages: u64,
    journal_sync_ns: u64,
    /// (next_seq, head, ring_pages) at the last ring sample.
    ring_prev: Option<(u64, u64, u64)>,
    runs_aged: u32,
    runs_maintained: u32,
    db_bytes: u64,
    bloom_bytes: u64,
    write_store_peak: u64,
    query_ns: Samples,
    query_pages: u64,
    range_ns: Samples,
    maintenance_passes: u64,
    maintenance_ns: u64,
    maintenance_reads: u64,
    maintenance_writes: u64,
    relocate_ns: Samples,
    refs_moved: u64,
    open_ns: Samples,
    replay_ns: Samples,
    replay_entries: u64,
    recovery_reads: u64,
    page_writes: u64,
    page_reads: u64,
    flushes: u64,
    max_in_flight: u64,
    lock_contentions: u64,
    modelled_ns: u64,
}

/// The per-layer record of one traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    callbacks: Histogram,
    /// Nanoseconds spent inside engine calls made on fsim's behalf
    /// (callbacks, CPs, lineage notifications): subtracted from the wall
    /// time of fsim-driven intervals to give fsim's self time.
    engine_ns: AtomicU64,
    layers: Mutex<Layers>,
}

impl Tracer {
    fn layers(&self) -> MutexGuard<'_, Layers> {
        self.layers.lock().expect("tracer lock poisoned")
    }

    fn sample_ring(l: &mut Layers, e: &BacklogEngine) {
        let Some(s) = e.journal_ring_stats() else {
            return;
        };
        if let Some((seq, head, pages)) = l.ring_prev {
            l.journal_groups += s.next_seq - seq;
            // Pages between the two heads, wrap gaps included; a CP interval
            // writes far less than one ring, so at most one wrap lies between.
            l.journal_pages += (s.head + pages - head) % pages;
        }
        l.ring_prev = Some((s.next_seq, s.head, s.ring_pages));
    }

    /// Every per-layer metric: (name, value, unit).
    pub fn metrics(&self, overhead: f64) -> Vec<(&'static str, f64, &'static str)> {
        let l = self.layers();
        let cb = self.callbacks.snapshot();
        let n = self.callbacks.count();
        // The same percentile ladder as `Samples::tail`, over the histogram.
        let cb_q = TAIL_LADDER
            .into_iter()
            .take_while(|q| n - ((q * n as f64).ceil() as u64).min(n) >= 10)
            .last();
        let cb_tail = cb_q.map_or(cb.p50, |q| self.callbacks.value_at_quantile(q)) as f64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let per_query = l.query_pages as f64 / (l.query_ns.len().max(1)) as f64;
        vec![
            ("fsim.self_s", l.fsim_self_ns as f64 / 1e9, "s"),
            ("core.callbacks", n as f64, "count"),
            ("core.callback_ns_p50", cb.p50 as f64, "ns"),
            ("core.callback_ns_tail", cb_tail, "ns"),
            ("core.cps", l.cp_ns.len() as f64, "count"),
            ("core.cp_busy_s", l.cp_ns.sum() as f64 / 1e9, "s"),
            ("core.cp_ms_p50", l.cp_ns.median() / 1e6, "ms"),
            ("core.records_flushed", l.cp_records as f64, "count"),
            ("core.cp_prepare_ms", ms(l.cp_phase_ns[0]), "ms"),
            ("core.cp_flush_ms", ms(l.cp_phase_ns[1]), "ms"),
            ("core.cp_barrier_ms", ms(l.cp_phase_ns[2]), "ms"),
            ("core.cp_flip_ms", ms(l.cp_phase_ns[3]), "ms"),
            ("core.cp_retire_ms", ms(l.cp_phase_ns[4]), "ms"),
            ("core.journal_groups", l.journal_groups as f64, "count"),
            ("core.journal_pages", l.journal_pages as f64, "count"),
            ("core.journal_sync_ms", ms(l.journal_sync_ns), "ms"),
            ("lsm.runs_aged", f64::from(l.runs_aged), "count"),
            ("lsm.runs_maintained", f64::from(l.runs_maintained), "count"),
            ("lsm.db_bytes", l.db_bytes as f64, "bytes"),
            ("lsm.bloom_bytes", l.bloom_bytes as f64, "bytes"),
            (
                "lsm.write_store_bytes_peak",
                l.write_store_peak as f64,
                "bytes",
            ),
            ("core.query_us_p50", l.query_ns.median() / 1e3, "us"),
            ("core.query_us_tail", l.query_ns.tail() / 1e3, "us"),
            ("core.query_pages_read", per_query, "pages/query"),
            ("core.range_query_us_p50", l.range_ns.median() / 1e3, "us"),
            (
                "core.maintenance_pages_read",
                l.maintenance_reads as f64,
                "count",
            ),
            (
                "core.maintenance_pages_written",
                l.maintenance_writes as f64,
                "count",
            ),
            (
                "core.maintenance_passes",
                l.maintenance_passes as f64,
                "count",
            ),
            (
                "core.maintenance_busy_s",
                l.maintenance_ns as f64 / 1e9,
                "s",
            ),
            ("core.relocate_us_p50", l.relocate_ns.median() / 1e3, "us"),
            ("core.relocate_us_tail", l.relocate_ns.tail() / 1e3, "us"),
            ("core.relocate_refs_moved", l.refs_moved as f64, "count"),
            ("core.open_ms", l.open_ns.median() / 1e6, "ms"),
            ("core.replay_ms", l.replay_ns.median() / 1e6, "ms"),
            ("core.replay_entries", l.replay_entries as f64, "count"),
            (
                "blockdev.recovery_pages_read",
                l.recovery_reads as f64,
                "count",
            ),
            ("blockdev.page_writes", l.page_writes as f64, "count"),
            ("blockdev.page_reads", l.page_reads as f64, "count"),
            ("blockdev.flushes", l.flushes as f64, "count"),
            ("blockdev.max_in_flight", l.max_in_flight as f64, "count"),
            (
                "blockdev.lock_contentions",
                l.lock_contentions as f64,
                "count",
            ),
            ("blockdev.modelled_busy_ms", ms(l.modelled_ns), "ms"),
            ("trace.overhead", overhead, "ratio"),
        ]
    }
}

/// The gate every engine call passes through; cheap to clone into threads.
#[derive(Debug, Clone)]
pub struct Probe {
    tracer: Option<Arc<Tracer>>,
}

impl Probe {
    pub fn untraced() -> Self {
        Probe { tracer: None }
    }

    pub fn traced(tracer: Arc<Tracer>) -> Self {
        Probe {
            tracer: Some(tracer),
        }
    }

    /// One reference callback, timed only when traced.
    pub fn callback(&self, f: impl FnOnce()) {
        match &self.tracer {
            None => f(),
            Some(t) => {
                let t0 = Instant::now();
                f();
                let ns = ns_since(t0);
                t.callbacks.record(ns);
                t.engine_ns.fetch_add(ns, Ordering::Relaxed);
            }
        }
    }

    /// An engine call made on fsim's behalf that is not a callback or a CP
    /// (snapshot and clone notifications): counted out of fsim's self time.
    pub fn engine_call(&self, f: impl FnOnce()) {
        match &self.tracer {
            None => f(),
            Some(t) => {
                let t0 = Instant::now();
                f();
                t.engine_ns.fetch_add(ns_since(t0), Ordering::Relaxed);
            }
        }
    }

    /// Runs an interval in which fsim drives the engine; traced, its wall
    /// time minus the engine time inside it is fsim's self time.
    pub fn fsim<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.tracer {
            None => f(),
            Some(t) => {
                let engine0 = t.engine_ns.load(Ordering::Relaxed);
                let t0 = Instant::now();
                let r = f();
                let wall = ns_since(t0);
                let inside = t.engine_ns.load(Ordering::Relaxed) - engine0;
                t.layers().fsim_self_ns += wall.saturating_sub(inside);
                r
            }
        }
    }

    /// A consistency point; returns its wall time.
    pub fn cp(&self, e: &BacklogEngine) -> backlog::Result<u64> {
        let ws = e.write_store_bytes();
        let t0 = Instant::now();
        let report = e.consistency_point()?;
        let ns = ns_since(t0);
        if let Some(t) = &self.tracer {
            t.engine_ns.fetch_add(ns, Ordering::Relaxed);
            let mut l = t.layers();
            l.cp_ns.push(ns);
            l.cp_records += report.records_flushed;
            let p = report.phases;
            for (sum, v) in l
                .cp_phase_ns
                .iter_mut()
                .zip([p.prepare, p.flush, p.barrier, p.flip, p.retire])
            {
                *sum += v;
            }
            l.write_store_peak = l.write_store_peak.max(ws);
            Tracer::sample_ring(&mut l, e);
        }
        Ok(ns)
    }

    pub fn journal_sync(&self, e: &BacklogEngine) -> backlog::Result<u64> {
        let t0 = Instant::now();
        e.journal_sync()?;
        let ns = ns_since(t0);
        if let Some(t) = &self.tracer {
            let mut l = t.layers();
            l.journal_sync_ns += ns;
            Tracer::sample_ring(&mut l, e);
        }
        Ok(ns)
    }

    /// `live_owners` of one block, with its latency.
    pub fn live_owners(
        &self,
        e: &BacklogEngine,
        block: BlockNo,
    ) -> backlog::Result<(Vec<Owner>, u64)> {
        let reads0 = self
            .tracer
            .as_ref()
            .map(|_| e.device().stats().snapshot().page_reads);
        let t0 = Instant::now();
        let owners = e.live_owners(block)?;
        let ns = ns_since(t0);
        if let (Some(t), Some(r0)) = (&self.tracer, reads0) {
            let reads = e.device().stats().snapshot().page_reads - r0;
            let mut l = t.layers();
            l.query_ns.push(ns);
            l.query_pages += reads;
        }
        Ok((owners, ns))
    }

    pub fn query_range(
        &self,
        e: &BacklogEngine,
        min: BlockNo,
        max: BlockNo,
    ) -> backlog::Result<QueryResult> {
        let t0 = Instant::now();
        let result = e.query_range(min, max)?;
        if let Some(t) = &self.tracer {
            t.layers().range_ns.push(ns_since(t0));
        }
        Ok(result)
    }

    /// One full maintenance pass; returns its wall time.
    pub fn maintenance(&self, e: &BacklogEngine) -> backlog::Result<u64> {
        let runs_before = e.run_count();
        let t0 = Instant::now();
        let report = e.maintenance()?;
        let ns = ns_since(t0);
        if let Some(t) = &self.tracer {
            let mut l = t.layers();
            l.runs_aged = l.runs_aged.max(runs_before);
            l.runs_maintained = e.run_count();
            l.maintenance_passes += 1;
            l.maintenance_ns += ns;
            l.maintenance_reads += report.io.reads;
            l.maintenance_writes += report.io.writes;
        }
        Ok(ns)
    }

    /// Relocates one block; returns the references moved and the latency.
    pub fn relocate(
        &self,
        e: &BacklogEngine,
        old: BlockNo,
        new: BlockNo,
    ) -> backlog::Result<(usize, u64)> {
        let t0 = Instant::now();
        let moved = e.relocate_block(old, new)?;
        let ns = ns_since(t0);
        if let Some(t) = &self.tracer {
            let mut l = t.layers();
            l.relocate_ns.push(ns);
            l.refs_moved += moved as u64;
        }
        Ok((moved, ns))
    }

    pub fn open(
        &self,
        disk: &Arc<SimDisk>,
        config: &BacklogConfig,
    ) -> backlog::Result<(BacklogEngine, u64)> {
        let reads0 = blockdev::Device::stats(disk.as_ref()).snapshot().page_reads;
        let t0 = Instant::now();
        let e = BacklogEngine::open(disk.clone(), config.clone())?;
        let ns = ns_since(t0);
        if let Some(t) = &self.tracer {
            let mut l = t.layers();
            l.open_ns.push(ns);
            l.recovery_reads =
                blockdev::Device::stats(disk.as_ref()).snapshot().page_reads - reads0;
        }
        Ok((e, ns))
    }

    pub fn replay(&self, e: &BacklogEngine) -> backlog::Result<(JournalRecovery, u64)> {
        let t0 = Instant::now();
        let rec = e.replay_recovered_journal()?;
        let ns = ns_since(t0);
        if let Some(t) = &self.tracer {
            let mut l = t.layers();
            l.replay_ns.push(ns);
            l.replay_entries += rec.recovered as u64;
        }
        Ok((rec, ns))
    }

    /// Marks a freshly created or opened engine, so journal counting starts
    /// from its ring.
    pub fn engine_started(&self, e: &BacklogEngine) {
        if let Some(t) = &self.tracer {
            let mut l = t.layers();
            l.ring_prev = None;
            Tracer::sample_ring(&mut l, e);
        }
    }

    /// Records the database's size at the end of a workload phase.
    pub fn database_size(&self, e: &BacklogEngine) {
        if let Some(t) = &self.tracer {
            let mut l = t.layers();
            l.db_bytes = e.database_disk_bytes();
            l.bloom_bytes = e.bloom_bytes();
        }
    }

    /// Adds a device's lifetime counters once the workload is done with it.
    pub fn device_done(&self, disk: &SimDisk) {
        if let Some(t) = &self.tracer {
            let s = blockdev::Device::stats(disk).snapshot();
            let mut l = t.layers();
            l.page_writes += s.page_writes;
            l.page_reads += s.page_reads;
            l.flushes += s.flushes;
            l.max_in_flight = l.max_in_flight.max(s.max_in_flight);
            l.lock_contentions += s.lock_contentions;
            l.modelled_ns += s.device_ns;
        }
    }
}
