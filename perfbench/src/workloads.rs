//! The three workloads. Each builds its starting state, runs its timed
//! phases, checks every answer against fsim's tree walk, and fills the
//! same set of end-to-end metrics (see README.md for what each means on
//! each workload).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use backlog::{BlockNo, LineId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{Restarted, Volume};
use crate::phases::{self, relocation_fault_case, ROUND};
use crate::probe::Probe;
use crate::samples::{median_f64, Samples};
use crate::truth::{restrict, same_owners, Truth, RELOCATION_BASE};
use crate::Res;

/// The work of a run is a function of its seed and `--seconds` alone, never
/// of how fast the machine runs it: the counts below are per 10 seconds
/// (about what each takes on a 2-core sandbox) and scale with `--seconds`.
fn scaled(per_10_seconds: u64, seconds: u64) -> u64 {
    (per_10_seconds * seconds).div_ceil(10).max(1)
}

/// Ingest rounds per 10 seconds.
const INGEST_ROUNDS: u64 = 25;
/// Warm-up CPs that make an ingest round's starting volume.
const INGEST_WARM_CPS: u64 = 10;
/// Timed CPs of one ingest round.
const INGEST_CPS: u64 = 100;
/// Age of the relocate workload's database, in CPs, with no maintenance.
const RELOCATE_AGE_CPS: u64 = 120;
/// Independent aged volumes per relocate run.
const RELOCATE_VOLUMES: u64 = 10;
/// Rounds of aged-database queries per volume per 10 seconds (twice as
/// many follow the maintenance pass, which makes queries ~3x faster).
const RELOCATE_QUERY_ROUNDS: u64 = 8;
/// Rounds of relocations (each followed by a CP) per volume per 10 seconds.
const RELOCATE_SHRINK_ROUNDS: u64 = 8;
/// Age of the mixed workload's database before the writer starts.
const MIXED_AGE_CPS: u64 = 150;
/// Independent volumes per mixed run.
const MIXED_VOLUMES: u64 = 6;
/// The mixed writer runs a full maintenance pass every this many CPs.
const MIXED_MAINTENANCE_EVERY: u64 = 50;
/// Writer cycles (CPs plus a pass) per volume per 10 seconds.
const MIXED_CYCLES: u64 = 4;
/// Reader queries between two checks of its answers.
const READER_BATCH: usize = 256;

/// The end-to-end metrics every workload reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct EndToEnd {
    pub ops_per_s: f64,
    pub cp_tail_ms: f64,
    pub writes_per_op: f64,
    pub query_per_s: f64,
    pub query_tail_us: f64,
    pub maintained_query_per_s: f64,
    pub space_overhead: f64,
    pub restart_ms: f64,
    pub setup_s: f64,
}

impl EndToEnd {
    pub fn named(&self) -> [(&'static str, f64, &'static str); 9] {
        [
            ("ops_per_s", self.ops_per_s, "1/s"),
            ("cp_tail_ms", self.cp_tail_ms, "ms"),
            ("writes_per_op", self.writes_per_op, "pages/op"),
            ("query_per_s", self.query_per_s, "1/s"),
            ("query_tail_us", self.query_tail_us, "us"),
            ("maintained_query_per_s", self.maintained_query_per_s, "1/s"),
            ("space_overhead", self.space_overhead, "ratio"),
            ("restart_ms", self.restart_ms, "ms"),
            ("setup_s", self.setup_s, "s"),
        ]
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: EndToEnd,
    pub attempted: u64,
    pub failed: u64,
    /// Whole-database checks that found a mismatch (must stay 0).
    pub whole_check_mismatches: u64,
    /// Human-readable lines, printed before the result.
    pub report: Vec<String>,
}

impl Outcome {
    fn note(&mut self, line: String) {
        self.report.push(line);
    }
}

fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ round.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// A report line for a tail, with its percentile and sample count.
fn tail_note(name: &str, samples: &Samples, ns_per_unit: f64, unit: &str) -> String {
    let (value, q) = samples.tail_with_percentile();
    format!(
        "  {name} = {:.4} {unit} (p{} of {} samples)",
        value / ns_per_unit,
        q * 100.0,
        samples.len()
    )
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The epilogue of ingest and mixed after their restart: a maintenance
/// pass, a round of queries on the maintained database, and a round of
/// relocations. Returns the maintained-database queries.
fn maintain_query_relocate(
    r: &Restarted,
    probe: &Probe,
    rng: &mut StdRng,
    query_rounds: u64,
    out: &mut Outcome,
) -> Res<phases::QueryPhase> {
    probe.maintenance(&r.engine)?;
    let maintained = phases::random_queries(&r.engine, probe, &r.truth, rng, query_rounds, || {})?;
    let mut target = RELOCATION_BASE;
    let cp = || probe.cp(&r.engine);
    let moved = phases::shrink(
        &r.engine,
        probe,
        &cp,
        &r.truth,
        &r.overridden,
        &mut target,
        1,
        || {},
    )?;
    out.attempted += maintained.queries + moved.moved;
    out.failed += maintained.failed + moved.failed;
    Ok(maintained)
}

/// `ingest`: rounds of the synthetic generator on a fresh young volume,
/// each ended by a crash and restart.
pub fn ingest(seed: u64, seconds: u64, probe: &Probe) -> Res<Outcome> {
    let mut out = Outcome::default();
    let rounds = scaled(INGEST_ROUNDS, seconds);
    let (mut ops, mut persistent, mut writes, mut ingest_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut cp_ns = Samples::default();
    let (mut fresh, mut maintained) =
        (phases::QueryPhase::default(), phases::QueryPhase::default());
    let (mut setup, mut space, mut restart) = (vec![], vec![], vec![]);
    for round in 0..rounds {
        let rseed = round_seed(seed, round);
        let mut rng = StdRng::seed_from_u64(rseed);
        let t0 = Instant::now();
        let mut v = Volume::aged(rseed, INGEST_WARM_CPS, probe.clone())?;
        setup.push(t0.elapsed().as_secs_f64());
        v.fs.provider().take_cp_ns();

        let engine = v.engine().clone();
        let (ops0, st0) = (v.fs.stats().block_ops, engine.stats());
        let writes0 = engine.device().stats().snapshot().page_writes;
        let t0 = Instant::now();
        v.run_cps(INGEST_CPS)?;
        let ns = t0.elapsed().as_nanos() as u64;
        ingest_ns += ns;
        ops += v.fs.stats().block_ops - ops0;
        persistent += engine.stats().persistent_ops() - st0.persistent_ops();
        writes += engine.device().stats().snapshot().page_writes - writes0;
        cp_ns.extend(&v.fs.provider().take_cp_ns());
        space.push(engine.database_disk_bytes() as f64 / v.fs.physical_data_bytes() as f64);
        probe.database_size(&engine);
        // After the last CP the database must match the tree walk.
        out.whole_check_mismatches +=
            Truth::from_walk(&v.fs.expected_refs()).verify_mismatches(&engine)?;
        drop(engine);

        v.tail(rseed)?;
        out.attempted += v.fs.stats().block_ops - ops0;
        let r = v.crash_and_restart(rseed)?;
        restart.push(r.restart_ms);
        // Every acknowledged callback survived the power cut.
        out.whole_check_mismatches += r.truth.sweep_mismatches(&r.engine)?;
        let q = phases::random_queries(&r.engine, probe, &r.truth, &mut rng, 1, || {})?;
        out.attempted += q.queries;
        out.failed += q.failed;
        let mq = maintain_query_relocate(&r, probe, &mut rng, 1, &mut out)?;
        fresh.absorb(q);
        maintained.absorb(mq);
        probe.device_done(&r.disk);
    }
    out.metrics = EndToEnd {
        ops_per_s: ops as f64 * 1e9 / ingest_ns as f64,
        cp_tail_ms: cp_ns.tail() / 1e6,
        writes_per_op: writes as f64 / persistent as f64,
        query_per_s: fresh.per_s(),
        query_tail_us: fresh.latency.tail() / 1e3,
        maintained_query_per_s: maintained.per_s(),
        space_overhead: median_f64(&space),
        restart_ms: median_f64(&restart),
        setup_s: median_f64(&setup),
    };
    let m = out.metrics;
    out.note(format!(
        "ingest: {rounds} rounds of {INGEST_CPS} CPs x {} ops after {INGEST_WARM_CPS} warm-up CPs; {ops} block ops, {} CPs",
        crate::host::OPS_PER_CP,
        cp_ns.len()
    ));
    out.note(format!("  ingest_ops_per_s = {:.1} 1/s", m.ops_per_s));
    out.note(tail_note("cp_tail_ms", &cp_ns, 1e6, "ms"));
    out.note(format!("  writes_per_op = {:.5} pages/op", m.writes_per_op));
    out.note(format!("  space_overhead = {:.5}", m.space_overhead));
    out.note(format!("  restart_ms = {:.4} ms", m.restart_ms));
    out.note(format!(
        "  queried blocks with live owners: {:.1}%",
        100.0 * fresh.owned as f64 / fresh.queries.max(1) as f64
    ));
    Ok(out)
}

/// `relocate`: on each of `RELOCATE_VOLUMES` aged, unmaintained volumes:
/// queries, one full maintenance pass, queries again, then a volume shrink,
/// a crash and a restart.
pub fn relocate(seed: u64, seconds: u64, probe: &Probe) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (query_rounds, shrink_rounds) = (
        scaled(RELOCATE_QUERY_ROUNDS, seconds),
        scaled(RELOCATE_SHRINK_ROUNDS, seconds),
    );
    let (mut aged, mut maintained) = (phases::QueryPhase::default(), phases::QueryPhase::default());
    let mut shrink = phases::ShrinkPhase::default();
    let (mut setup, mut maint, mut space, mut restart) = (vec![], vec![], vec![], vec![]);
    let (mut runs_aged, mut blocks) = (0u64, 0usize);
    // Every round of this workload also runs the relocation fault's fixed
    // minimal case, which fails until the fault is fixed.
    let mut fault_failures = 0u64;
    let mut after_round = || {
        let spurious =
            relocation_fault_case().expect("the fault case runs on a fault-free SimDisk");
        fault_failures += u64::from(!spurious.is_empty());
    };
    for volume in 0..RELOCATE_VOLUMES {
        let vseed = round_seed(seed, volume);
        let t0 = Instant::now();
        let mut v = Volume::aged(vseed, RELOCATE_AGE_CPS, probe.clone())?;
        setup.push(t0.elapsed().as_secs_f64());
        v.fs.provider().take_cp_ns();
        let engine = v.engine().clone();
        let truth = Truth::from_walk(&v.fs.expected_refs());
        let overridden = v.fs.provider().overridden();
        let mut rng = StdRng::seed_from_u64(vseed ^ 0x5eed);
        blocks += truth.block_count();

        let q = phases::random_queries(
            &engine,
            probe,
            &truth,
            &mut rng,
            query_rounds,
            &mut after_round,
        )?;
        aged.absorb(q);
        runs_aged += u64::from(engine.run_count());
        maint.push(secs(probe.maintenance(&engine)?));
        space.push(engine.database_disk_bytes() as f64 / v.fs.physical_data_bytes() as f64);
        let q = phases::random_queries(
            &engine,
            probe,
            &truth,
            &mut rng,
            2 * query_rounds,
            &mut after_round,
        )?;
        maintained.absorb(q);
        let mut target = RELOCATION_BASE;
        let provider = v.fs.provider();
        let cp = || provider.cp();
        let moved = phases::shrink(
            &engine,
            probe,
            &cp,
            &truth,
            &overridden,
            &mut target,
            shrink_rounds,
            &mut after_round,
        )?;
        probe.database_size(&engine);
        drop(engine);

        v.tail(vseed)?;
        let r = v.crash_and_restart(vseed)?;
        restart.push(r.restart_ms);
        // fsim does not know about the moves: its tail may share
        // (deduplicate) a block the shrink moved away, and that reference
        // stays at the old address. So the expected state is the moved
        // truth plus the tail.
        let mut expected = truth.clone();
        expected.relocated(&moved.moves);
        expected.add_changes(&truth, &r.truth);
        out.whole_check_mismatches += expected.sweep_mismatches(&r.engine)?;
        probe.device_done(&r.disk);
        shrink.absorb(moved);
    }
    let rounds = aged.rounds + maintained.rounds + shrink.rounds;
    out.attempted = rounds * (ROUND as u64 + 1);
    out.failed = aged.failed + maintained.failed + shrink.failed + fault_failures;
    out.metrics = EndToEnd {
        ops_per_s: shrink.per_s(),
        cp_tail_ms: shrink.cp_ns.tail() / 1e6,
        writes_per_op: shrink.page_writes as f64 / shrink.moved.max(1) as f64,
        query_per_s: aged.per_s(),
        query_tail_us: aged.latency.tail() / 1e3,
        maintained_query_per_s: maintained.per_s(),
        space_overhead: median_f64(&space),
        restart_ms: median_f64(&restart),
        setup_s: median_f64(&setup),
    };
    let m = out.metrics;
    out.note(format!(
        "relocate: {RELOCATE_VOLUMES} volumes aged {RELOCATE_AGE_CPS} CPs ({} runs, {} live blocks on average)",
        runs_aged / RELOCATE_VOLUMES,
        blocks / RELOCATE_VOLUMES as usize
    ));
    out.note(format!(
        "  aged_query_per_s = {:.1} 1/s ({} queries, {:.1}% with live owners)",
        m.query_per_s,
        aged.queries,
        100.0 * aged.owned as f64 / aged.queries.max(1) as f64
    ));
    out.note(format!(
        "  maintenance_s = {:.5} s (median of {} passes)",
        median_f64(&maint),
        maint.len()
    ));
    out.note(format!(
        "  maintained_query_per_s = {:.1} 1/s ({} queries)",
        m.maintained_query_per_s, maintained.queries
    ));
    out.note(format!(
        "  shrink_blocks_per_s = {:.1} 1/s ({} blocks moved in {} CPs; {} overridden blocks left out)",
        m.ops_per_s,
        shrink.moved,
        shrink.cp_ns.len(),
        shrink.left_out
    ));
    out.note(format!(
        "  relocation fault: {} of {} rounds' minimal cases failed",
        fault_failures, rounds
    ));
    Ok(out)
}

/// `mixed`: on each of `MIXED_VOLUMES` aged and maintained volumes, one
/// writer runs the generator (with periodic maintenance) on the shared
/// engine while one reader queries a frozen clone; then a crash, a restart
/// and a maintained-database epilogue.
pub fn mixed(seed: u64, seconds: u64, probe: &Probe) -> Res<Outcome> {
    let mut out = Outcome::default();
    let cycles = scaled(MIXED_CYCLES, seconds);
    let (mut writer, mut reader) = (WriterResult::default(), ReaderResult::default());
    let mut maintained = phases::QueryPhase::default();
    let mut cp_ns = Samples::default();
    let (mut setup, mut space, mut restart) = (vec![], vec![], vec![]);
    let (mut ops, mut persistent, mut writes, mut frozen_size) = (0u64, 0u64, 0u64, 0usize);
    for volume in 0..MIXED_VOLUMES {
        let vseed = round_seed(seed, volume);
        let t0 = Instant::now();
        let mut v = Volume::aged(vseed, MIXED_AGE_CPS, probe.clone())?;
        // Start the writer at the beginning of a maintenance cycle.
        probe.maintenance(v.engine())?;
        let snap = v.fs.take_snapshot(LineId::ROOT)?;
        let frozen = v.fs.create_clone(snap)?;
        // A snapshot stands for the state at the end of its CP interval, so
        // the CP comes before any further change.
        v.fs.take_consistency_point()?;
        setup.push(t0.elapsed().as_secs_f64());
        v.fs.provider().take_cp_ns();
        let view = Truth::from_walk(&v.fs.expected_refs()).line_view(frozen);
        let frozen_blocks: Vec<BlockNo> = view.keys().copied().collect();
        frozen_size += frozen_blocks.len();
        let engine = v.engine().clone();
        let stop = AtomicBool::new(false);

        let ops0 = v.fs.stats().block_ops;
        let (st0, writes0) = (
            engine.stats(),
            engine.device().stats().snapshot().page_writes,
        );
        let (w, r) = std::thread::scope(|s| {
            let reader = s.spawn(|| -> Res<ReaderResult> {
                let mut rng = StdRng::seed_from_u64(vseed ^ 0x4eade5);
                let mut res = ReaderResult::default();
                let mut batch: Vec<(BlockNo, Vec<backlog::Owner>)> =
                    Vec::with_capacity(READER_BATCH);
                while !stop.load(Ordering::Relaxed) {
                    batch.clear();
                    let t0 = Instant::now();
                    for _ in 0..READER_BATCH {
                        let block = frozen_blocks[rng.gen_range(0..frozen_blocks.len())];
                        let (owners, ns) = probe.live_owners(&engine, block)?;
                        res.latency.push(ns);
                        batch.push((block, owners));
                    }
                    res.wall_ns += t0.elapsed().as_nanos() as u64;
                    for (block, owners) in &batch {
                        res.failed +=
                            u64::from(!same_owners(&restrict(owners, frozen), &view[block]));
                    }
                    res.queries += READER_BATCH as u64;
                }
                Ok(res)
            });
            let writer = (|| -> Res<WriterResult> {
                let mut res = WriterResult::default();
                let t0 = Instant::now();
                for _ in 0..cycles {
                    v.run_cps(MIXED_MAINTENANCE_EVERY)?;
                    res.cps += MIXED_MAINTENANCE_EVERY;
                    probe.maintenance(&engine)?;
                    res.passes += 1;
                }
                res.wall_ns = t0.elapsed().as_nanos() as u64;
                Ok(res)
            })();
            stop.store(true, Ordering::Relaxed);
            (writer, reader.join().expect("reader thread panicked"))
        });
        writer.absorb(w?);
        reader.absorb(r?);
        ops += v.fs.stats().block_ops - ops0;
        persistent += engine.stats().persistent_ops() - st0.persistent_ops();
        writes += engine.device().stats().snapshot().page_writes - writes0;
        cp_ns.extend(&v.fs.provider().take_cp_ns());
        // The writer stopped right after a pass: a fixed point of the
        // sawtooth its periodic passes give the database size.
        space.push(engine.database_disk_bytes() as f64 / v.fs.physical_data_bytes() as f64);
        probe.database_size(&engine);
        drop(engine);
        out.attempted += v.fs.stats().block_ops - ops0;

        v.tail(vseed)?;
        let r = v.crash_and_restart(vseed)?;
        restart.push(r.restart_ms);
        out.whole_check_mismatches += r.truth.verify_mismatches(&r.engine)?;
        out.whole_check_mismatches += r.truth.sweep_mismatches(&r.engine)?;
        let mut rng = StdRng::seed_from_u64(vseed ^ 0xe911);
        let q = maintain_query_relocate(&r, probe, &mut rng, 4, &mut out)?;
        maintained.absorb(q);
        probe.device_done(&r.disk);
    }
    out.attempted += reader.queries;
    out.failed += reader.failed;
    out.metrics = EndToEnd {
        ops_per_s: ops as f64 * 1e9 / writer.wall_ns as f64,
        cp_tail_ms: cp_ns.tail() / 1e6,
        writes_per_op: writes as f64 / persistent as f64,
        query_per_s: reader.queries as f64 * 1e9 / reader.wall_ns.max(1) as f64,
        query_tail_us: reader.latency.tail() / 1e3,
        maintained_query_per_s: maintained.per_s(),
        space_overhead: median_f64(&space),
        restart_ms: median_f64(&restart),
        setup_s: median_f64(&setup),
    };
    let m = out.metrics;
    out.note(format!(
        "mixed: {MIXED_VOLUMES} volumes aged {MIXED_AGE_CPS} CPs, frozen clones of {} blocks on average; writer ran {} CPs with {} maintenance passes",
        frozen_size / MIXED_VOLUMES as usize,
        writer.cps,
        writer.passes
    ));
    out.note(format!("  mixed_ops_per_s = {:.1} 1/s", m.ops_per_s));
    out.note(format!(
        "  mixed_query_per_s = {:.1} 1/s ({} queries)",
        m.query_per_s, reader.queries
    ));
    out.note(tail_note("mixed_query_tail_us", &reader.latency, 1e3, "us"));
    Ok(out)
}

#[derive(Debug, Default)]
struct ReaderResult {
    queries: u64,
    wall_ns: u64,
    failed: u64,
    latency: Samples,
}

impl ReaderResult {
    fn absorb(&mut self, other: ReaderResult) {
        self.queries += other.queries;
        self.wall_ns += other.wall_ns;
        self.failed += other.failed;
        self.latency.extend(&other.latency);
    }
}

#[derive(Debug, Default)]
struct WriterResult {
    cps: u64,
    wall_ns: u64,
    passes: u64,
}

impl WriterResult {
    fn absorb(&mut self, other: WriterResult) {
        self.cps += other.cps;
        self.wall_ns += other.wall_ns;
        self.passes += other.passes;
    }
}
