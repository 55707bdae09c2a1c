//! Shows that every check the workloads rely on is live: each is fed the
//! engine's real answer (which it must accept) and the same answer with
//! one owner dropped and with one owner added (which it must reject).

use backlog::{ExpectedRef, LineId, Owner};

use crate::host::Volume;
use crate::probe::Probe;
use crate::truth::{relocation_ok, restrict, same_owners, Truth, RELOCATION_BASE};
use crate::Res;

/// An owner no file system block ever has.
fn stranger() -> Owner {
    Owner::block(u64::MAX - 1, 0, LineId::ROOT)
}

fn perturbed(answer: &[Owner]) -> [(&'static str, Vec<Owner>); 2] {
    let mut added = answer.to_vec();
    added.push(stranger());
    added.sort();
    [
        ("one owner dropped", answer[1..].to_vec()),
        ("one owner added", added),
    ]
}

/// Runs every check on real and perturbed answers; true when each real
/// answer passes and each perturbed one is caught.
pub fn run() -> Res<bool> {
    let mut v = Volume::aged(7, 30, Probe::untraced())?;
    let snap = v.fs.take_snapshot(LineId::ROOT)?;
    let frozen = v.fs.create_clone(snap)?;
    v.fs.take_consistency_point()?;
    v.run_cps(1)?;
    let engine = v.engine().clone();
    let refs = v.fs.expected_refs();
    let truth = Truth::from_walk(&refs);
    let overridden = v.fs.provider().overridden();
    let block = refs
        .iter()
        .map(|r| r.block)
        .find(|&b| truth.owners(b).len() >= 2 && !overridden.contains(&b))
        .ok_or("no block with two owners")?;
    let mut ok = true;
    let mut expect = |what: &str, accepted: bool, want: bool| {
        let verdict = if accepted == want { "ok" } else { "NOT CAUGHT" };
        println!(
            "  {what}: {} ({verdict})",
            if accepted { "accepted" } else { "rejected" }
        );
        ok &= accepted == want;
    };

    println!("query check (block {block}):");
    let answer = engine.live_owners(block)?;
    expect(
        "real answer",
        same_owners(&answer, truth.owners(block)),
        true,
    );
    for (what, bad) in perturbed(&answer) {
        expect(what, same_owners(&bad, truth.owners(block)), false);
    }

    println!("frozen-line check (line {}):", frozen.0);
    let view = truth.line_view(frozen);
    let (&fblock, fowners) = view
        .iter()
        .find(|(_, o)| !o.is_empty())
        .ok_or("empty clone")?;
    let mut fanswer = engine.live_owners(fblock)?;
    expect(
        "real answer",
        same_owners(&restrict(&fanswer, frozen), fowners),
        true,
    );
    fanswer.retain(|o| o.line != frozen);
    expect(
        "frozen owner dropped",
        same_owners(&restrict(&fanswer, frozen), fowners),
        false,
    );
    let mut extra = engine.live_owners(fblock)?;
    extra.push(Owner::block(u64::MAX - 1, 0, frozen));
    extra.sort();
    expect(
        "frozen owner added",
        same_owners(&restrict(&extra, frozen), fowners),
        false,
    );

    println!("relocation check (block {block} -> {RELOCATION_BASE}):");
    engine.relocate_block(block, RELOCATION_BASE)?;
    let at_new = engine.live_owners(RELOCATION_BASE)?;
    let at_old = engine.live_owners(block)?;
    expect(
        "real answer",
        relocation_ok(&at_new, &at_old, truth.owners(block)),
        true,
    );
    for (what, bad) in perturbed(&at_new) {
        expect(
            what,
            relocation_ok(&bad, &at_old, truth.owners(block)),
            false,
        );
    }
    expect(
        "owner left at old address",
        relocation_ok(&at_new, &[stranger()], truth.owners(block)),
        false,
    );

    println!("whole-database checks:");
    let mut moved = truth.clone();
    moved.relocated(&[(block, RELOCATION_BASE)]);
    // Drop one of the moved block's owners: `verify` only queries blocks
    // the tree walk lists, so the block must keep another owner.
    let moved_refs = moved.refs();
    let gone = moved_refs
        .iter()
        .position(|r| r.block == RELOCATION_BASE)
        .ok_or("moved block missing from the truth")?;
    let mut minus = moved_refs.clone();
    minus.remove(gone);
    let dropped = Truth::from_walk(&minus);
    let mut plus = moved_refs.clone();
    plus.push(ExpectedRef::new(block, stranger()));
    let added = Truth::from_walk(&plus);
    expect(
        "range sweep, real truth",
        moved.sweep_mismatches(&engine)? == 0,
        true,
    );
    expect(
        "range sweep, one owner dropped",
        dropped.sweep_mismatches(&engine)? == 0,
        false,
    );
    expect(
        "range sweep, one owner added",
        added.sweep_mismatches(&engine)? == 0,
        false,
    );
    expect(
        "verify, real truth",
        moved.verify_mismatches(&engine)? == 0,
        true,
    );
    expect(
        "verify, one owner dropped",
        dropped.verify_mismatches(&engine)? == 0,
        false,
    );
    expect(
        "verify, one owner added",
        added.verify_mismatches(&engine)? == 0,
        false,
    );
    Ok(ok)
}
