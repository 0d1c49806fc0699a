//! The one forwarding table: `impl<L: Layer> SyscallApi for L`.
//!
//! A counting layer over a simulated kernel runs a fixed script that
//! covers every `SysOp` variant through `perform`, plus `fstatx` called
//! directly, beside a bare twin of the same kernel. The layer must be
//! invisible: the same results, the same traced access sequence, exactly
//! one `around` per call with the call's own `SyscallKind`, and no hook on
//! `new_process`.

use scr_kernel::api::{
    perform, KResult, Layer, MmapBacking, OpenFlags, Prot, SocketOrder, StatMask, SysOp,
    SyscallApi, SyscallKind, Whence, PAGE_SIZE,
};
use scr_kernel::Sv6Kernel;
use scr_mtrace::{on_core, AccessKind, CoreId, Lines};
use std::cell::RefCell;

/// Records every hooked call, then runs it once.
struct Counting<'k, K> {
    inner: &'k K,
    calls: RefCell<Vec<(CoreId, SyscallKind)>>,
}

impl<K: SyscallApi> Layer for Counting<'_, K> {
    type Inner = K;

    fn inner(&self) -> &K {
        self.inner
    }

    fn around<T>(
        &self,
        core: CoreId,
        kind: SyscallKind,
        call: impl Fn() -> KResult<T>,
    ) -> KResult<T> {
        self.calls.borrow_mut().push((core, kind));
        call()
    }
}

/// `(core, op, succeeds)`: every `SysOp` variant at least once, with a few
/// failing calls so error results forward too. Process 0 is the caller;
/// `fork` creates process 1 and `posix_spawn` process 2.
#[rustfmt::skip]
fn script() -> Vec<(CoreId, SysOp, bool)> {
    let (pid, addr, page) = (0, 16 * PAGE_SIZE, PAGE_SIZE);
    let name = |s: &str| s.to_string();
    vec![
        (0, SysOp::Open { pid, name: name("a"), flags: OpenFlags::create() }, true),
        (1, SysOp::Open { pid, name: name("zz"), flags: OpenFlags::plain() }, false),
        (0, SysOp::Write { pid, fd: 0, data: b"hello".to_vec() }, true),
        (1, SysOp::Lseek { pid, fd: 0, offset: 0, whence: Whence::Set }, true),
        (0, SysOp::Read { pid, fd: 0, len: 5 }, true),
        (1, SysOp::Pwrite { pid, fd: 0, data: b"x".to_vec(), offset: page }, true),
        (0, SysOp::Pread { pid, fd: 0, len: 1, offset: page }, true),
        (1, SysOp::Fstat { pid, fd: 0 }, true),
        (0, SysOp::Link { pid, old: name("a"), new: name("b") }, true),
        (1, SysOp::StatPath { pid, name: name("b") }, true),
        (0, SysOp::Rename { pid, src: name("b"), dst: name("c") }, true),
        (1, SysOp::Unlink { pid, name: name("c") }, true),
        (0, SysOp::Pipe { pid }, true),
        (1, SysOp::Mmap { pid, addr_hint: Some(addr), pages: 1, prot: Prot::rw(), backing: MmapBacking::Anon }, true),
        (0, SysOp::Memwrite { pid, addr, value: 7 }, true),
        (1, SysOp::Memread { pid, addr }, true),
        (0, SysOp::Mprotect { pid, addr, pages: 1, prot: Prot::ro() }, true),
        (1, SysOp::Memwrite { pid, addr, value: 8 }, false),
        (0, SysOp::Munmap { pid, addr, pages: 1 }, true),
        (1, SysOp::Socket { order: SocketOrder::Unordered }, true),
        (0, SysOp::Send { sock: 0, msg: b"m".to_vec() }, true),
        (0, SysOp::Recv { sock: 0 }, true),
        (1, SysOp::Recv { sock: 0 }, false),
        (0, SysOp::Fork { pid }, true),
        (1, SysOp::Spawn { pid, dup_fds: vec![0] }, true),
        (0, SysOp::Wait { pid, child: 1 }, true),
        (1, SysOp::Close { pid, fd: 0 }, true),
        (0, SysOp::Close { pid, fd: 0 }, false),
    ]
}

/// The kernel's traced window as `(core, label, kind)`.
fn trace(kernel: &Sv6Kernel) -> Vec<(CoreId, String, AccessKind)> {
    let machine = kernel.lines().unwrap();
    let window = machine.end_window();
    let log = window.accesses.into_iter();
    log.map(|a| (a.core, machine.label_of(a.line), a.kind))
        .collect()
}

fn check(kernel: Sv6Kernel, twin: Sv6Kernel) {
    let layered = Counting {
        inner: &kernel,
        calls: RefCell::new(Vec::new()),
    };
    assert_eq!(layered.new_process(), twin.new_process());
    kernel.lines().unwrap().begin_window();
    twin.lines().unwrap().begin_window();

    let mut hooks = Vec::new();
    for (step, (core, op, succeeds)) in script().into_iter().enumerate() {
        let got = on_core(core, || perform(&layered, core, &op));
        let want = on_core(core, || perform(&twin, core, &op));
        assert_eq!(got, want, "step {step}: {op:?}");
        assert_eq!(want.is_ok(), succeeds, "step {step}: {op:?} gave {want:?}");
        hooks.push((core, op.kind()));
    }

    // `fstatx` has no `SysOp`; it must reach the inner `fstatx`, not the
    // trait default (which reads the link count through `fstat`).
    let fd = twin.open(0, 0, "f", OpenFlags::create()).unwrap();
    assert_eq!(layered.open(0, 0, "f", OpenFlags::create()), Ok(fd));
    let mask = StatMask::all_but_nlink();
    let got = on_core(1, || layered.fstatx(1, 0, fd, mask));
    assert_eq!(got, on_core(1, || twin.fstatx(1, 0, fd, mask)));
    assert!(got.is_ok());
    hooks.extend([(0, SyscallKind::Open), (1, SyscallKind::Fstatx)]);

    // One hook per call, with the call's kind, and none for `new_process`.
    assert_eq!(*layered.calls.borrow(), hooks);
    for kind in SyscallKind::ALL {
        assert!(
            hooks.iter().any(|&(_, k)| k == kind),
            "{kind:?} not covered"
        );
    }
    let (got, want) = (trace(&kernel), trace(&twin));
    assert!(!want.is_empty());
    assert_eq!(got, want, "the layer changed the traced footprint");
}

#[test]
fn sv6_behind_a_layer_is_the_bare_kernel() {
    check(Sv6Kernel::new(2), Sv6Kernel::new(2));
}

#[test]
fn linux_like_behind_a_layer_is_the_bare_kernel() {
    check(Sv6Kernel::linuxlike(2), Sv6Kernel::linuxlike(2));
}
