//! Property-based differential testing: random sequences of system calls
//! must produce identical observable results on the sv6 kernel and the
//! Linux-like baseline. The two implementations differ (by design) only in
//! their memory-sharing behaviour, never in semantics.

use proptest::prelude::*;
use scalable_commutativity::kernel::api::{
    perform, OpenFlags, Stat, SysOp, SysResult, SyscallApi, Whence, PAGE_SIZE,
};
use scalable_commutativity::kernel::{LinuxLikeKernel, Sv6Kernel};

/// Every op runs in the first process either kernel creates.
const PID: usize = 0;

fn name(n: u8) -> String {
    format!("file-{n}")
}

/// Writes are whole pages so the two kernels' size accounting (byte
/// granular in the baseline, page granular in sv6/ScaleFS, as in the
/// paper's model) reports the same lengths.
fn page_of(byte: u8) -> Vec<u8> {
    vec![byte; PAGE_SIZE as usize]
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
        (0u32..6, 0i64..3, any::<bool>()).prop_map(|(fd, page, from_end)| SysOp::Lseek {
            pid: PID,
            fd,
            offset: page * PAGE_SIZE as i64,
            whence: if from_end { Whence::End } else { Whence::Set }
        }),
        (0u32..6).prop_map(|fd| SysOp::Read {
            pid: PID,
            fd,
            len: 8
        }),
        (0u32..6, any::<u8>()).prop_map(|(fd, byte)| SysOp::Write {
            pid: PID,
            fd,
            data: page_of(byte)
        }),
        (0u32..6, 0u64..3).prop_map(|(fd, page)| SysOp::Pread {
            pid: PID,
            fd,
            len: 8,
            offset: page * PAGE_SIZE
        }),
        (0u32..6, 0u64..3, any::<u8>()).prop_map(|(fd, page, byte)| SysOp::Pwrite {
            pid: PID,
            fd,
            data: page_of(byte),
            offset: page * PAGE_SIZE
        }),
        Just(SysOp::Pipe { pid: PID }),
    ]
}

/// The observable outcome of one op. Inode numbers are implementation
/// artefacts (sv6 never reuses them and encodes the allocating core; the
/// baseline hands them out sequentially), so they are excluded — POSIX only
/// promises uniqueness, which other assertions cover.
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
        let linux = LinuxLikeKernel::new(2);
        prop_assert_eq!(sv6.new_process(), PID);
        prop_assert_eq!(linux.new_process(), PID);
        for (step, op) in ops.iter().enumerate() {
            let a = apply(&sv6, op);
            let b = apply(&linux, op);
            prop_assert_eq!(a, b, "divergence at step {} on {:?}", step, op);
        }
    }
}
