//! Ground truth from fsim's tree walk, and the checks that compare engine
//! answers with it. Answers are recorded while a phase is timed and
//! checked after it.

use std::collections::{BTreeMap, BTreeSet};

use backlog::{BacklogEngine, BlockNo, ExpectedRef, LineId, Owner};

use crate::Res;

/// Relocation targets start here, far past any block fsim allocates.
pub const RELOCATION_BASE: BlockNo = 1 << 40;

/// The owners of every referenced block, as the tree walk found them.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    owners: BTreeMap<BlockNo, Vec<Owner>>,
}

impl Truth {
    pub fn from_walk(refs: &[ExpectedRef]) -> Self {
        let mut owners: BTreeMap<BlockNo, Vec<Owner>> = BTreeMap::new();
        for r in refs {
            owners.entry(r.block).or_default().push(r.owner);
        }
        for v in owners.values_mut() {
            v.sort();
            v.dedup();
        }
        Truth { owners }
    }

    /// The expected live owners of `block` (empty if none).
    pub fn owners(&self, block: BlockNo) -> &[Owner] {
        self.owners.get(&block).map_or(&[], Vec::as_slice)
    }

    /// Number of blocks with live owners.
    pub fn block_count(&self) -> usize {
        self.owners.len()
    }

    /// Highest referenced block below the relocation area.
    pub fn high_water(&self) -> BlockNo {
        self.owners
            .range(..RELOCATION_BASE)
            .next_back()
            .map_or(0, |(&b, _)| b)
    }

    /// Blocks owned by `line`, each with the owners of that line alone.
    pub fn line_view(&self, line: LineId) -> BTreeMap<BlockNo, Vec<Owner>> {
        self.owners
            .iter()
            .filter_map(|(&b, owners)| {
                let mine: Vec<Owner> = owners.iter().copied().filter(|o| o.line == line).collect();
                (!mine.is_empty()).then_some((b, mine))
            })
            .collect()
    }

    /// The truth after the host moved blocks: each moved block's owners now
    /// sit at its new address.
    pub fn relocated(&mut self, moves: &[(BlockNo, BlockNo)]) {
        for &(old, new) in moves {
            if let Some(owners) = self.owners.remove(&old) {
                self.owners.insert(new, owners);
            }
        }
    }

    /// Adds the references `after` has and `before` lacks: the host's
    /// changes between two tree walks.
    pub fn add_changes(&mut self, before: &Truth, after: &Truth) {
        for (&b, owners) in &after.owners {
            for o in owners {
                if !before.owners(b).contains(o) {
                    let v = self.owners.entry(b).or_default();
                    v.push(*o);
                    v.sort();
                    v.dedup();
                }
            }
        }
    }

    pub fn refs(&self) -> Vec<ExpectedRef> {
        self.owners
            .iter()
            .flat_map(|(&b, owners)| owners.iter().map(move |&o| ExpectedRef::new(b, o)))
            .collect()
    }

    /// Compares the whole database with the truth: range queries tile the
    /// entire block-number space, so a spurious owner anywhere is found,
    /// not only on blocks the tree walk knows. Returns the mismatched
    /// references (missing plus spurious).
    pub fn sweep_mismatches(&self, e: &BacklogEngine) -> Res<u64> {
        const KEYS_PER_QUERY: usize = 4096;
        let keys: Vec<BlockNo> = self.owners.keys().copied().collect();
        let mut bounds: Vec<BlockNo> = keys.iter().step_by(KEYS_PER_QUERY).copied().collect();
        if bounds.first() != Some(&0) {
            bounds.insert(0, 0);
        }
        let mut actual: BTreeSet<(BlockNo, Owner)> = BTreeSet::new();
        for (i, &lo) in bounds.iter().enumerate() {
            let hi = bounds.get(i + 1).map_or(BlockNo::MAX, |&next| next - 1);
            for r in e.query_range(lo, hi)?.refs.iter().filter(|r| r.is_live()) {
                actual.insert((r.block, r.owner()));
            }
        }
        let expected: BTreeSet<(BlockNo, Owner)> = self
            .owners
            .iter()
            .flat_map(|(&b, owners)| owners.iter().map(move |&o| (b, o)))
            .collect();
        Ok(expected.symmetric_difference(&actual).count() as u64)
    }

    /// `backlog::verify` against the truth; returns missing plus spurious.
    pub fn verify_mismatches(&self, e: &BacklogEngine) -> Res<u64> {
        Ok(backlog::verify(e, &self.refs(), &[])?.mismatches())
    }
}

/// Whether an answer (as `live_owners` returns it: sorted, deduplicated)
/// equals the expected owner set.
pub fn same_owners(answer: &[Owner], expected: &[Owner]) -> bool {
    answer == expected
}

/// A relocation is right when the new address has exactly the old
/// address's owners and the old address has none.
pub fn relocation_ok(at_new: &[Owner], at_old: &[Owner], expected: &[Owner]) -> bool {
    at_old.is_empty() && same_owners(at_new, expected)
}

/// An answer restricted to one line, for the frozen-clone check.
pub fn restrict(answer: &[Owner], line: LineId) -> Vec<Owner> {
    answer.iter().copied().filter(|o| o.line == line).collect()
}
