//! The host side: the benchmark's `BackrefProvider`, the volume it drives,
//! and the crash/restart sequence a host runs after a power cut.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};

use backlog::{BacklogConfig, BacklogEngine, BlockNo, CpNumber, LineId, Owner, SnapshotId};
use backlog_bench::{synthetic_config, synthetic_fs_config};
use blockdev::{DeviceConfig, PowerCutProfile, SimDisk};
use fsim::{BackrefProvider, FileSystem, ProviderCpStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::SyntheticWorkload;

use crate::probe::Probe;
use crate::samples::{median_f64, Samples};
use crate::truth::Truth;
use crate::Res;

/// Reference operations between two consistency points. The default
/// journal ring (256 pages) holds about two CP intervals of this size; at
/// the paper's 32,000 ops per CP it would fill before each CP truncates it.
pub const OPS_PER_CP: u64 = 2_048;
/// Consistency points per snapshot "hour" of the paper's rotation.
pub const CPS_PER_HOUR: u64 = 10;
/// Opens of a crashed image timed per restart; the median is reported.
const OPENS_PER_RESTART: usize = 5;
/// Files the host creates (and half of which it deletes again) after the
/// last CP and before the power cut: the callbacks only the journal holds.
const TAIL_FILES: u64 = 64;

/// The engine configuration under test: the library defaults plus the
/// on-device journal ring, on a durable engine.
pub fn engine_config() -> BacklogConfig {
    BacklogConfig::default().with_journaling()
}

/// A snapshot or clone notification, kept until a CP makes it durable so a
/// host can restore it after a crash.
#[derive(Debug, Clone, Copy)]
enum LineageEvent {
    SnapshotCreated(SnapshotId),
    SnapshotDeleted(SnapshotId),
    CloneCreated(SnapshotId, LineId),
    LineDeleted(LineId),
}

#[derive(Debug, Default)]
struct HostState {
    /// Lineage notifications since the last CP.
    pending: Vec<LineageEvent>,
    /// References clone lines added themselves (as opposed to inherited).
    clone_added: HashSet<(BlockNo, Owner)>,
    /// Blocks whose inherited reference some clone overrode: relocating
    /// them hits the `relocate_block` clone-override fault.
    overridden: HashSet<BlockNo>,
    /// Wall time of every CP since the workload last collected them.
    cp_ns: Samples,
}

/// The benchmark's provider: forwards every call to the engine through the
/// probe and keeps the host-side records a real host would have.
#[derive(Debug)]
pub struct BenchProvider {
    engine: Arc<BacklogEngine>,
    probe: Probe,
    state: Mutex<HostState>,
}

impl BenchProvider {
    fn state(&self) -> MutexGuard<'_, HostState> {
        self.state.lock().expect("host state lock poisoned")
    }

    pub fn engine(&self) -> &Arc<BacklogEngine> {
        &self.engine
    }

    /// Blocks that the clone-override fault would corrupt if relocated.
    pub fn overridden(&self) -> HashSet<BlockNo> {
        self.state().overridden.clone()
    }

    /// Takes the CP wall times recorded since the last call.
    pub fn take_cp_ns(&self) -> Samples {
        std::mem::take(&mut self.state().cp_ns)
    }

    /// A consistency point, from fsim or from the host directly.
    pub fn cp(&self) -> backlog::Result<u64> {
        let ns = self.probe.cp(&self.engine)?;
        let mut st = self.state();
        st.pending.clear();
        st.cp_ns.push(ns);
        Ok(ns)
    }

    fn log(&self, event: LineageEvent) {
        self.state().pending.push(event);
    }
}

impl BackrefProvider for BenchProvider {
    fn name(&self) -> &str {
        "backlog"
    }

    fn add_reference(&self, block: BlockNo, owner: Owner) {
        if owner.line != LineId::ROOT {
            self.state().clone_added.insert((block, owner));
        }
        self.probe
            .callback(|| self.engine.add_reference(block, owner));
    }

    fn remove_reference(&self, block: BlockNo, owner: Owner) {
        if owner.line != LineId::ROOT {
            let mut st = self.state();
            if !st.clone_added.remove(&(block, owner)) {
                st.overridden.insert(block);
            }
        }
        self.probe
            .callback(|| self.engine.remove_reference(block, owner));
    }

    fn consistency_point(&self, _cp: CpNumber) -> fsim::Result<ProviderCpStats> {
        self.cp().map_err(fsim::FsError::from)?;
        Ok(ProviderCpStats::default())
    }

    fn snapshot_created(&self, snap: SnapshotId) {
        self.log(LineageEvent::SnapshotCreated(snap));
        self.probe
            .engine_call(|| self.engine.register_snapshot(snap));
    }

    fn snapshot_deleted(&self, snap: SnapshotId) {
        self.log(LineageEvent::SnapshotDeleted(snap));
        self.probe.engine_call(|| self.engine.delete_snapshot(snap));
    }

    fn clone_created(&self, parent: SnapshotId, line: LineId) {
        self.log(LineageEvent::CloneCreated(parent, line));
        self.probe
            .engine_call(|| self.engine.register_clone(parent, line));
    }

    fn line_deleted(&self, line: LineId) {
        self.log(LineageEvent::LineDeleted(line));
        self.probe.engine_call(|| self.engine.delete_line(line));
    }
}

/// A simulated volume: the SimDisk, the durable engine on it, fsim driving
/// the engine, and the paper's synthetic generator driving fsim.
pub struct Volume {
    pub fs: FileSystem<BenchProvider>,
    disk: Arc<SimDisk>,
    generator: SyntheticWorkload,
    probe: Probe,
}

impl Volume {
    /// A volume aged by `cps` generator CPs: default SimDisk with its
    /// volatile write cache on, a durable journaling engine, fsim with the
    /// paper's synthetic set-up.
    pub fn aged(seed: u64, cps: u64, probe: Probe) -> Res<Self> {
        let disk = SimDisk::new_shared(DeviceConfig::default());
        disk.set_write_cache(true);
        let engine = BacklogEngine::create_durable(disk.clone(), engine_config())?;
        probe.engine_started(&engine);
        let provider = BenchProvider {
            engine: Arc::new(engine),
            probe: probe.clone(),
            state: Mutex::new(HostState::default()),
        };
        let fs = FileSystem::new(provider, synthetic_fs_config(CPS_PER_HOUR).with_seed(seed));
        let mut config = synthetic_config(OPS_PER_CP);
        config.seed = seed;
        let mut v = Volume {
            fs,
            disk,
            generator: SyntheticWorkload::new(config),
            probe,
        };
        v.run_cps(cps)?;
        Ok(v)
    }

    pub fn engine(&self) -> &Arc<BacklogEngine> {
        self.fs.provider().engine()
    }

    /// Runs `cps` generator consistency points.
    pub fn run_cps(&mut self, cps: u64) -> Res<()> {
        let (fs, generator) = (&mut self.fs, &mut self.generator);
        self.probe.fsim(|| -> Res<()> {
            for _ in 0..cps {
                generator.run_cp(fs)?;
            }
            Ok(())
        })
    }

    /// Callbacks after the last CP that only the journal will hold: files
    /// created on the root line, every other one deleted again.
    pub fn tail(&mut self, seed: u64) -> Res<()> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a11);
        let fs = &mut self.fs;
        self.probe.fsim(|| -> Res<()> {
            for i in 0..TAIL_FILES {
                let inode = fs.create_file(LineId::ROOT, rng.gen_range(1..=8))?;
                if i % 2 == 1 {
                    fs.delete_file(LineId::ROOT, inode)?;
                }
            }
            Ok(())
        })
    }

    /// The crash sequence: journal fence, tree walk, power cut that loses
    /// every unflushed page, then `open` (timed several times, median kept)
    /// and `replay_recovered_journal` after the host restores the lineage
    /// changes the last durable CP missed.
    pub fn crash_and_restart(self, seed: u64) -> Res<Restarted> {
        let engine = self.engine().clone();
        self.probe.journal_sync(&engine)?;
        let truth = Truth::from_walk(&self.fs.expected_refs());
        let overridden = self.fs.provider().overridden();
        let pending = std::mem::take(&mut self.fs.provider().state().pending);
        let probe = self.probe.clone();
        let disk = self.disk.clone();
        drop(engine);
        drop(self);
        disk.power_cut(&PowerCutProfile::lose_all(seed));

        let mut open_ms = Vec::with_capacity(OPENS_PER_RESTART);
        let mut engine = None;
        for _ in 0..OPENS_PER_RESTART {
            let (e, ns) = probe.open(&disk, &engine_config())?;
            open_ms.push(ns as f64 / 1e6);
            engine = Some(e);
        }
        let engine = engine.expect("at least one open");
        probe.engine_started(&engine);
        for event in pending {
            match event {
                LineageEvent::SnapshotCreated(s) => engine.register_snapshot(s),
                LineageEvent::SnapshotDeleted(s) => engine.delete_snapshot(s),
                LineageEvent::CloneCreated(p, l) => engine.register_clone(p, l),
                LineageEvent::LineDeleted(l) => engine.delete_line(l),
            }
        }
        let (_, replay_ns) = probe.replay(&engine)?;
        Ok(Restarted {
            engine: Arc::new(engine),
            disk,
            truth,
            overridden,
            restart_ms: median_f64(&open_ms) + replay_ns as f64 / 1e6,
        })
    }
}

/// The state after a crash and restart.
pub struct Restarted {
    pub engine: Arc<BacklogEngine>,
    pub disk: Arc<SimDisk>,
    /// The tree walk taken at the final journal fence.
    pub truth: Truth,
    pub overridden: HashSet<BlockNo>,
    pub restart_ms: f64,
}
