//! Probe labels are named on demand, and they are the labels the kernel
//! always produced.
//!
//! An instrumented [`HostKernel`] allocates its per-index lines in blocks
//! and formats a label only when asked. These tests pin every label of a
//! kernel that has created files, written a page, made a pipe, mapped
//! memory, opened sockets and spawned children against the list an eager
//! per-line allocation produces — the same strings in the same line order —
//! and pin that building a kernel costs a handful of blocks, not one
//! allocation per line.

use scr_host::kernel::{host_kernel_with, HostKernel, HostMode, FDS_PER_CORE};
use scr_kernel::api::{MmapBacking, OpenFlags, Prot, SocketOrder, SyscallApi};
use scr_kernel::Sv6Options;
use scr_mtrace::{HostTraceSink, LineId, Lines};
use std::sync::Arc;

const CORES: usize = 4;
/// Interior and leaf fan-out of a probe radix.
const FANOUT: usize = 64;

fn instrumented(mode: HostMode) -> (Arc<HostTraceSink>, HostKernel) {
    let sink = HostTraceSink::new(CORES);
    let kernel = host_kernel_with(CORES, mode, Sv6Options::default(), Some(&sink));
    (sink, kernel)
}

/// Every allocated line's label, in line order.
fn all_labels(sink: &HostTraceSink) -> Vec<String> {
    (0..sink.line_count())
        .map(|line| sink.label_of(LineId(line)))
        .collect()
}

/// Runs the setup both kernels are checked on: two processes, a created
/// and written file, a pipe, an anonymous mapping, one socket of each
/// order, a spawned and a forked child.
fn run_setup(kernel: &HostKernel) {
    let p0 = kernel.new_process();
    let p1 = kernel.new_process();
    let fd = kernel.open(0, p0, "f", OpenFlags::create()).unwrap();
    kernel.write(0, p0, fd, b"x").unwrap();
    let (_, wfd) = kernel.pipe(0, p0).unwrap();
    kernel
        .mmap(0, p0, None, 1, Prot::rw(), MmapBacking::Anon)
        .unwrap();
    kernel.socket(0, SocketOrder::Unordered).unwrap();
    kernel.socket(0, SocketOrder::Ordered).unwrap();
    assert_eq!(kernel.posix_spawn(0, p0, &[wfd]).unwrap(), 2);
    assert_eq!(kernel.fork(0, p1).unwrap(), 3);
}

/// Appends `n` eagerly formatted labels.
fn per_index(labels: &mut Vec<String>, n: usize, label: impl Fn(usize) -> String) {
    labels.extend((0..n).map(label));
}

/// A process's lines: descriptor slots, address-space radix interior and
/// per-core bump allocators, then the Linux-like policy's locks and tables.
fn process(labels: &mut Vec<String>, pid: usize, linux: bool) {
    per_index(labels, CORES * FDS_PER_CORE, |fd| {
        format!("proc[{pid}].fd[{fd}]")
    });
    per_index(labels, FANOUT, |i| format!("proc[{pid}].as.interior[{i}]"));
    per_index(labels, CORES, |c| format!("proc[{pid}].next_vpn[{c}]"));
    if linux {
        for line in [
            "files.file_lock",
            "mm.mmap_sem",
            "files.fd_array",
            "mm.vma_table",
        ] {
            labels.push(format!("proc[{pid}].{line}"));
        }
    }
}

/// The labels one-allocation-per-line instrumentation gives the same
/// kernel and setup, in allocation order: each line formatted eagerly.
fn eager_labels(mode: HostMode) -> Vec<String> {
    let linux = mode == HostMode::Linuxlike;
    let mut labels = Vec::new();
    let l = &mut labels;
    // The kernel: root directory, inode allocator (one counter under the
    // Linux-like policy), defer queues, then the Linux-like policy's
    // directory lock and entries.
    per_index(l, 2 * 512, |i| {
        let line = if i % 2 == 0 { "lock" } else { "entries" };
        format!("scalefs.root.bucket[{}].{line}", i / 2)
    });
    per_index(l, if linux { 1 } else { CORES }, |c| {
        format!("scalefs.next_ino[{c}]")
    });
    per_index(l, CORES, |c| format!("scalefs.inode_gc.defer[{c}]"));
    if linux {
        l.push("root.i_mutex".into());
        l.push("root.entries".into());
    }
    process(l, 0, linux);
    process(l, 1, linux);
    // open(create): the lookup allocates the name's dentry; the first
    // inode on core 0 is 1 << 8.
    if linux {
        l.push("dentry[f].d_count".into());
        l.push("dentry[f].d_inode".into());
        l.push("inode[256].nlink.shared".into());
    } else {
        l.push("inode[256].nlink.global".into());
        per_index(l, CORES, |c| format!("inode[256].nlink.delta[{c}]"));
        l.push("inode[256].nlink.epoch".into());
    }
    l.push("inode[256].size.seq".into());
    l.push("inode[256].size.data".into());
    per_index(l, FANOUT, |i| format!("inode[256].pages.interior[{i}]"));
    l.push("proc[0].ofile[f].offset".into());
    if linux {
        l.push("proc[0].ofile[f].f_count".into());
    }
    // write: page 0 populates the first leaf.
    per_index(l, FANOUT, |i| format!("inode[256].pages.leaf[0][{i}]"));
    // pipe
    for line in ["buffer", "readers", "writers"] {
        l.push(format!("pipe[0:0].{line}"));
    }
    for end in ["r", "w"] {
        l.push(format!("pipe[0:0].{end}off"));
        if linux {
            l.push(format!("pipe[0:0].{end}count"));
        }
    }
    // mmap: core 0's first page is vpn 1, under interior slot 0.
    l.push("proc[0].page[1]".into());
    per_index(l, FANOUT, |i| format!("proc[0].as.leaf[0][{i}]"));
    // sockets: unordered (ordered under the Linux-like policy), then
    // ordered.
    if linux {
        l.push("socket[0].queue".into());
    } else {
        per_index(l, CORES, |c| format!("socket[0].queue[{c}]"));
    }
    l.push("socket[1].queue".into());
    // posix_spawn and fork each build a process.
    process(l, 2, linux);
    process(l, 3, linux);
    labels
}

#[test]
fn lazy_labels_are_the_eager_labels_on_both_kernels() {
    for mode in [HostMode::Sv6, HostMode::Linuxlike] {
        let (sink, kernel) = instrumented(mode);
        run_setup(&kernel);
        let labels = all_labels(&sink);
        assert_eq!(labels, eager_labels(mode), "{mode:?}");
        let past_the_end = sink.line_count();
        assert_eq!(
            sink.label_of(LineId(past_the_end)),
            format!("line#{past_the_end}")
        );
        let pinned: &[&str] = match mode {
            HostMode::Sv6 => &[
                "inode[256].nlink.delta[2]",
                "scalefs.next_ino[3]",
                "socket[0].queue[1]",
            ],
            HostMode::Linuxlike => &[
                "root.i_mutex",
                "dentry[f].d_count",
                "proc[3].files.fd_array",
                "proc[0].ofile[f].f_count",
            ],
        };
        for label in pinned.iter().chain(&[
            "scalefs.root.bucket[511].entries",
            "scalefs.root.bucket[0].lock",
            "proc[1].fd[63]",
            "proc[0].next_vpn[3]",
            "proc[0].as.interior[63]",
            "inode[256].pages.leaf[0][3]",
        ]) {
            assert!(labels.iter().any(|l| l == label), "{mode:?}: no {label}");
        }
    }
}

#[test]
fn building_costs_blocks_per_structure_not_allocations_per_line() {
    let (sink, kernel) = instrumented(HostMode::Sv6);
    kernel.new_process();
    kernel.new_process();
    // 1 024 directory lines plus 2 × (64 descriptor slots + 64 radix
    // interior slots + 4 bump allocators), and a few per-core lines.
    assert!(sink.line_count() >= 1_288, "{}", sink.line_count());
    // Directory, inode allocator, defer queues and three blocks per
    // process.
    assert_eq!(sink.block_count(), 9);
}
