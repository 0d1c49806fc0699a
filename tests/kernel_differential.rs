//! Property-based differential testing: random sequences of system calls
//! must produce identical observable results on the sv6 kernel and the
//! Linux-like baseline. Both are the one kernel body under its two sharing
//! policies, so what they share differs and what they return does not —
//! with two kept differences, neither of which this test compares:
//!
//! * inode numbers: the Linux-like policy numbers inodes from one counter,
//!   sv6 from one per core, so [`apply`] masks them;
//! * datagram sockets: the Linux-like policy orders every socket (this
//!   test draws no socket calls).

use proptest::prelude::*;
use scalable_commutativity::kernel::api::{
    perform, OpenFlags, Stat, SysOp, SysResult, SyscallApi, Whence, PAGE_SIZE,
};
use scalable_commutativity::kernel::Sv6Kernel;

/// Every op runs in the first process either kernel creates.
const PID: usize = 0;

fn name(n: u8) -> String {
    format!("file-{n}")
}

/// Write payloads: any length from one byte to a little over a page, so
/// writes start and end inside pages and cross page boundaries.
fn payload() -> impl Strategy<Value = Vec<u8>> {
    (any::<u8>(), 1..PAGE_SIZE as usize + 64).prop_map(|(byte, len)| vec![byte; len])
}

/// Offsets anywhere in the first three pages.
fn offset() -> impl Strategy<Value = u64> {
    0..3 * PAGE_SIZE
}

/// A randomly generated call. File names and descriptors are drawn from
/// small pools so sequences regularly hit both success and error paths.
fn op_strategy() -> impl Strategy<Value = SysOp> {
    prop_oneof![
        (0u8..4, any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
            |(n, create, excl, truncate)| SysOp::Open {
                pid: PID,
                name: name(n),
                flags: OpenFlags {
                    create,
                    excl,
                    truncate,
                    anyfd: false
                }
            }
        ),
        (0u32..6).prop_map(|fd| SysOp::Close { pid: PID, fd }),
        (0u8..4, 0u8..4).prop_map(|(old, new)| SysOp::Link {
            pid: PID,
            old: name(old),
            new: name(new)
        }),
        (0u8..4).prop_map(|n| SysOp::Unlink {
            pid: PID,
            name: name(n)
        }),
        (0u8..4, 0u8..4).prop_map(|(src, dst)| SysOp::Rename {
            pid: PID,
            src: name(src),
            dst: name(dst)
        }),
        (0u8..4).prop_map(|n| SysOp::StatPath {
            pid: PID,
            name: name(n)
        }),
        (0u32..6).prop_map(|fd| SysOp::Fstat { pid: PID, fd }),
        (0u32..6, offset(), any::<bool>()).prop_map(|(fd, offset, from_end)| SysOp::Lseek {
            pid: PID,
            fd,
            offset: offset as i64,
            whence: if from_end { Whence::End } else { Whence::Set }
        }),
        (0u32..6).prop_map(|fd| SysOp::Read {
            pid: PID,
            fd,
            len: 8
        }),
        (0u32..6, payload()).prop_map(|(fd, data)| SysOp::Write { pid: PID, fd, data }),
        (0u32..6, offset()).prop_map(|(fd, offset)| SysOp::Pread {
            pid: PID,
            fd,
            len: 8,
            offset
        }),
        (0u32..6, payload(), offset()).prop_map(|(fd, data, offset)| SysOp::Pwrite {
            pid: PID,
            fd,
            data,
            offset
        }),
        Just(SysOp::Pipe { pid: PID }),
    ]
}

/// The observable outcome of one op. Inode numbers are implementation
/// artefacts (both policies encode the allocating counter's shard, and
/// sv6 has one per core), so they are excluded — POSIX only promises
/// uniqueness, which other assertions cover.
fn apply(k: &impl SyscallApi, op: &SysOp) -> SysResult {
    match perform(k, 0, op) {
        SysResult::Meta(stat) => SysResult::Meta(Stat { ino: 0, ..stat }),
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sv6_and_the_baseline_agree_on_observable_results(ops in proptest::collection::vec(op_strategy(), 1..30)) {
        let sv6 = Sv6Kernel::new(2);
        let linux = Sv6Kernel::linuxlike(2);
        prop_assert_eq!(sv6.new_process(), PID);
        prop_assert_eq!(linux.new_process(), PID);
        for (step, op) in ops.iter().enumerate() {
            let a = apply(&sv6, op);
            let b = apply(&linux, op);
            prop_assert_eq!(a, b, "divergence at step {} on {:?}", step, op);
        }
    }
}
