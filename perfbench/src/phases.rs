//! Timed phases shared by the workloads. Each runs whole rounds of
//! `ROUND` operations, times the round, and checks the round's answers
//! after its clock has stopped.

use std::collections::HashSet;
use std::time::Instant;

use backlog::{BacklogEngine, BlockNo, LineId, Owner};
use rand::rngs::StdRng;
use rand::Rng;

use crate::probe::Probe;
use crate::samples::Samples;
use crate::truth::{relocation_ok, same_owners, Truth};
use crate::Res;

/// Operations per round: single-block queries, or relocations followed by
/// one CP (a host takes a CP after each ops-per-CP relocations).
pub const ROUND: usize = crate::host::OPS_PER_CP as usize;
/// Width of one `query_range` of the shrink sweep.
const SWEEP_WINDOW: BlockNo = 1024;

#[derive(Debug, Default)]
pub struct QueryPhase {
    pub queries: u64,
    pub wall_ns: u64,
    pub latency: Samples,
    pub failed: u64,
    pub rounds: u64,
    /// Queried blocks that had live owners.
    pub owned: u64,
}

impl QueryPhase {
    /// Adds another phase's queries to this one.
    pub fn absorb(&mut self, other: QueryPhase) {
        self.queries += other.queries;
        self.wall_ns += other.wall_ns;
        self.latency.extend(&other.latency);
        self.failed += other.failed;
        self.rounds += other.rounds;
        self.owned += other.owned;
    }

    pub fn per_s(&self) -> f64 {
        self.queries as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// `rounds` rounds of `live_owners` on blocks drawn uniformly from the
/// allocated block space, each answer checked against the tree walk.
/// `between_rounds` runs untimed after every round.
pub fn random_queries(
    e: &BacklogEngine,
    probe: &Probe,
    truth: &Truth,
    rng: &mut StdRng,
    rounds: u64,
    mut between_rounds: impl FnMut(),
) -> Res<QueryPhase> {
    let high = truth.high_water().max(1);
    let mut phase = QueryPhase::default();
    let mut answers: Vec<(BlockNo, Vec<Owner>)> = Vec::with_capacity(ROUND);
    while phase.rounds < rounds {
        answers.clear();
        let t0 = Instant::now();
        for _ in 0..ROUND {
            let block = rng.gen_range(1..=high);
            let (owners, ns) = probe.live_owners(e, block)?;
            phase.latency.push(ns);
            answers.push((block, owners));
        }
        phase.wall_ns += t0.elapsed().as_nanos() as u64;
        phase.rounds += 1;
        phase.queries += ROUND as u64;
        for (block, owners) in &answers {
            let expected = truth.owners(*block);
            phase.owned += u64::from(!expected.is_empty());
            phase.failed += u64::from(!same_owners(owners, expected));
        }
        between_rounds();
    }
    Ok(phase)
}

#[derive(Debug, Default)]
pub struct ShrinkPhase {
    pub moved: u64,
    pub wall_ns: u64,
    pub cp_ns: Samples,
    pub failed: u64,
    pub rounds: u64,
    /// Live blocks the sweep passed over because a clone overrode their
    /// inherited reference (see the clone-override fault).
    pub left_out: u64,
    pub page_writes: u64,
    pub moves: Vec<(BlockNo, BlockNo)>,
}

impl ShrinkPhase {
    /// Adds another shrink's relocations to this one.
    pub fn absorb(&mut self, other: ShrinkPhase) {
        self.moved += other.moved;
        self.wall_ns += other.wall_ns;
        self.cp_ns.extend(&other.cp_ns);
        self.failed += other.failed;
        self.rounds += other.rounds;
        self.left_out += other.left_out;
        self.page_writes += other.page_writes;
        self.moves.extend(other.moves);
    }

    pub fn per_s(&self) -> f64 {
        self.moved as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Volume shrink: `query_range` sweeps down from the top of the allocated
/// block space and every block with a live owner is relocated past the
/// high-water mark (to `*next_target` onwards), with a CP after each round
/// of `ROUND` relocations, for `rounds` rounds or until the sweep runs out. After each round, every moved block's owners at
/// the new address are checked against the tree walk's owners of the old
/// address, and the old address must have none. Blocks whose inherited
/// reference a clone overrode are left out (they would hit the
/// clone-override fault on seed-dependent blocks).
#[allow(clippy::too_many_arguments)]
pub fn shrink(
    e: &BacklogEngine,
    probe: &Probe,
    cp: &dyn Fn() -> backlog::Result<u64>,
    truth: &Truth,
    overridden: &HashSet<BlockNo>,
    next_target: &mut BlockNo,
    rounds: u64,
    mut between_rounds: impl FnMut(),
) -> Res<ShrinkPhase> {
    let mut phase = ShrinkPhase::default();
    let mut window_top = truth.high_water();
    let mut queue: Vec<BlockNo> = Vec::new();
    let writes0 = e.device().stats().snapshot().page_writes;
    let mut round: Vec<(BlockNo, BlockNo)> = Vec::with_capacity(ROUND);
    let mut swept_out = false;
    while phase.rounds < rounds {
        round.clear();
        let t0 = Instant::now();
        // Fill the queue with the next ROUND live blocks from the top down.
        while queue.len() < ROUND && !swept_out {
            let lo = window_top.saturating_sub(SWEEP_WINDOW - 1);
            let result = probe.query_range(e, lo, window_top)?;
            let mut live: Vec<BlockNo> = result
                .refs
                .iter()
                .filter(|r| r.is_live())
                .map(|r| r.block)
                .collect();
            live.sort_unstable_by(|a, b| b.cmp(a));
            live.dedup();
            for block in live {
                if overridden.contains(&block) {
                    phase.left_out += 1;
                } else {
                    queue.push(block);
                }
            }
            swept_out = lo == 0;
            window_top = lo.saturating_sub(1);
        }
        if queue.len() < ROUND {
            break; // The sweep ran out before a whole round.
        }
        for old in queue.drain(..ROUND) {
            let new = *next_target;
            *next_target += 1;
            probe.relocate(e, old, new)?;
            round.push((old, new));
        }
        phase.cp_ns.push(cp()?);
        phase.wall_ns += t0.elapsed().as_nanos() as u64;
        phase.rounds += 1;
        phase.moved += ROUND as u64;
        for &(old, new) in &round {
            let at_new = e.live_owners(new)?;
            let at_old = e.live_owners(old)?;
            phase.failed += u64::from(!relocation_ok(&at_new, &at_old, truth.owners(old)));
        }
        phase.moves.extend_from_slice(&round);
        between_rounds();
    }
    phase.page_writes = e.device().stats().snapshot().page_writes - writes0;
    Ok(phase)
}

/// The smallest case of the `relocate_block` clone-override fault: ROOT
/// adds (block 100, inode 5); CP; snapshot; clone; the clone removes its
/// inherited reference; CP; relocate block 100 to 900. Returns the owners
/// `live_owners(900)` reports beyond ROOT's (empty once the fault is
/// fixed). Its inputs are fixed, so it fails the same way on every seed.
pub fn relocation_fault_case() -> Res<Vec<Owner>> {
    let disk = blockdev::SimDisk::new_shared(blockdev::DeviceConfig::default());
    disk.set_write_cache(true);
    let e = BacklogEngine::create_durable(disk, crate::host::engine_config())?;
    let root = Owner::block(5, 0, LineId::ROOT);
    e.add_reference(100, root);
    e.consistency_point()?;
    let snap = e.take_snapshot(LineId::ROOT);
    let clone = e.create_clone(snap);
    e.remove_reference(100, Owner::block(5, 0, clone));
    e.consistency_point()?;
    e.relocate_block(100, 900)?;
    let mut spurious: Vec<Owner> = e.live_owners(900)?;
    spurious.retain(|o| *o != root);
    spurious.extend(e.live_owners(100)?);
    Ok(spurious)
}
