//! Quickstart: the scalable commutativity rule on a tiny interface.
//!
//! This example walks through the whole idea of the paper on the put/max
//! interface of §3.6:
//!
//! 1. check SIM commutativity of a region of a history against a reference
//!    model (the *interface-level* reasoning),
//! 2. build the constructive proof's machine for that region and verify its
//!    steps in the commutative region are conflict-free (the *rule*), and
//! 3. run a pair of commutative POSIX operations through the sv6 kernel on
//!    the simulated machine and show they are conflict-free there too (the
//!    *practice*).
//!
//! Run with `cargo run --example quickstart`.

use scalable_commutativity::kernel::api::{OpenFlags, SyscallApi};
use scalable_commutativity::kernel::Sv6Kernel;
use scalable_commutativity::mtrace::{on_core, Lines};
use scalable_commutativity::spec::commutativity::op_level_reorderings;
use scalable_commutativity::spec::conflict::find_conflicts;
use scalable_commutativity::spec::construction::{
    replay_history, steps_for_range, ReplayOutcome, Scalable,
};
use scalable_commutativity::spec::implementation::StepImplementation;
use scalable_commutativity::spec::model::{Det, PutMaxModel, PutMaxOp, PutMaxResp};
use scalable_commutativity::spec::{sim_commutes, Action, History};

fn seq_history(ops: &[(usize, PutMaxOp, PutMaxResp)]) -> History<PutMaxOp, PutMaxResp> {
    let mut h = History::new();
    for (tag, (thread, inv, resp)) in ops.iter().enumerate() {
        h.push(Action::invoke(*thread, tag as u64, *inv));
        h.push(Action::respond(*thread, tag as u64, *resp));
    }
    h
}

fn main() {
    // --- 1. Interface-level reasoning -----------------------------------
    let model = Det(PutMaxModel);
    let x = seq_history(&[(0, PutMaxOp::Put(3), PutMaxResp::Ok)]);
    let y = seq_history(&[
        (0, PutMaxOp::Put(1), PutMaxResp::Ok),
        (1, PutMaxOp::Put(1), PutMaxResp::Ok),
    ]);
    let report = sim_commutes(&model, &x, &y);
    println!("Y = [put(1)@t0, put(1)@t1] after X = [put(3)]");
    println!(
        "  SIM-commutes: {} ({} cases examined)",
        report.commutes, report.cases_examined
    );

    // --- 2. The rule: a conflict-free implementation exists --------------
    let machine = Scalable::new(PutMaxModel, x.clone(), y.clone(), 2);
    let (outcome, runner) = replay_history(&machine, &x.concat(&y));
    assert_eq!(outcome, ReplayOutcome::Matched);
    let y_steps = steps_for_range(runner.log(), x.len()..x.len() + y.len());
    let conflicts = find_conflicts(&y_steps, |c| machine.component_label(c));
    println!(
        "  constructed implementation: commutative region is conflict-free = {}",
        conflicts.is_conflict_free()
    );
    println!(
        "  (the region has {} reorderings, every one replayable conflict-free)",
        op_level_reorderings(&y).len()
    );

    // --- 3. The practice: sv6 makes commutative POSIX calls scale --------
    let kernel = Sv6Kernel::new(4);
    let pid_a = kernel.new_process();
    let pid_b = kernel.new_process();
    let m = kernel.lines().expect("a simulated kernel has a machine");
    m.begin_window();
    on_core(0, || {
        kernel
            .open(0, pid_a, "alpha", OpenFlags::create())
            .expect("create alpha");
    });
    on_core(1, || {
        kernel
            .open(1, pid_b, "bravo", OpenFlags::create())
            .expect("create bravo");
    });
    let report = m.end_window();
    println!("\ncreating two different files on two cores (sv6/ScaleFS):");
    println!("  conflict-free = {}", report.is_conflict_free());
    println!(
        "\nWhenever interface operations commute, they can be implemented in a way that scales."
    );
}
