//! Unix-domain datagram sockets in ordered and unordered flavours (§4
//! "permit weak ordering", §7.3).
//!
//! POSIX orders all messages on a local datagram socket, so `send` and
//! `recv` on the same socket never commute and an implementation needs a
//! single shared queue. If the application does not need ordering, `send`
//! and `recv` commute whenever there is both free space and pending
//! messages, and an implementation can use per-core message queues.
//! [`SocketTable`] provides both, selected per socket at creation time.
//!
//! Socket ids are dense from zero, and a socket's lines are named after its
//! id: `socket[s].queue` for an ordered socket, `socket[s].queue[c]` per
//! core for an unordered one. The queues are unbounded, so `send` has no
//! overflow error to report.

use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, RwLock};
use scr_mtrace::{Block, CoreId, Lines};
use std::collections::VecDeque;
use std::sync::Arc;

/// Whether a socket preserves FIFO ordering of datagrams (§4 "permit weak
/// ordering").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketOrder {
    /// All messages pass through one ordered queue.
    Ordered,
    /// Messages may be delivered in any order; the implementation may use
    /// per-core queues.
    Unordered,
}

/// Why a socket call failed; kernels report these as `EBADF` and `EAGAIN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketError {
    /// The socket id does not name a socket.
    BadSocket,
    /// No message is available on any queue the receiver may take from.
    Empty,
}

type Queue = Mutex<VecDeque<Vec<u8>>>;

/// One datagram socket.
#[derive(Debug)]
enum Socket<L> {
    /// A single FIFO queue shared by all cores.
    Ordered {
        queue: Queue,
        line: Option<Block<L>>,
    },
    /// Per-core queues; receivers drain their own queue first and then
    /// steal from others.
    Unordered {
        queues: Box<[CachePadded<Queue>]>,
        lines: Option<Block<L>>,
    },
}

/// The socket namespace of a kernel instance.
///
/// The unordered `recv` holds a queue's lock across its emptiness check
/// and the pop, so a message observed pending cannot be lost to a racing
/// receiver — every datagram is delivered exactly once.
#[derive(Debug)]
pub struct SocketTable<L> {
    cores: usize,
    lines: Option<L>,
    sockets: RwLock<Vec<Arc<Socket<L>>>>,
}

impl<L: Lines + Clone> SocketTable<L> {
    /// An empty socket table for `cores` cores.
    pub fn new(lines: Option<&L>, cores: usize) -> Self {
        SocketTable {
            cores: cores.max(1),
            lines: lines.cloned(),
            sockets: RwLock::new(Vec::new()),
        }
    }

    /// Creates a socket with the requested ordering and returns its id.
    /// Creation allocates the socket's lines but records no access.
    pub fn create(&self, order: SocketOrder) -> usize {
        let mut sockets = self.sockets.write();
        let id = sockets.len();
        let lines = self.lines.as_ref();
        let socket = match order {
            SocketOrder::Ordered => Socket::Ordered {
                queue: Mutex::new(VecDeque::new()),
                line: lines.map(|l| l.line(format!("socket[{id}].queue"))),
            },
            SocketOrder::Unordered => Socket::Unordered {
                queues: (0..self.cores)
                    .map(|_| CachePadded::new(Mutex::new(VecDeque::new())))
                    .collect(),
                lines: lines
                    .map(|l| l.block(self.cores, move |c| format!("socket[{id}].queue[{c}]"))),
            },
        };
        sockets.push(Arc::new(socket));
        id
    }

    fn socket(&self, sock: usize) -> Result<Arc<Socket<L>>, SocketError> {
        self.sockets
            .read()
            .get(sock)
            .cloned()
            .ok_or(SocketError::BadSocket)
    }

    /// Sends a datagram on `sock` from `core` (never blocks).
    pub fn send(&self, core: CoreId, sock: usize, msg: &[u8]) -> Result<(), SocketError> {
        let socket = self.socket(sock)?;
        let (queue, line) = match &*socket {
            Socket::Ordered { queue, line } => (queue, line.as_ref().map(|l| (l, 0))),
            Socket::Unordered { queues, lines } => {
                let local = core % queues.len();
                (&*queues[local], lines.as_ref().map(|l| (l, local)))
            }
        };
        if let Some((lines, i)) = line {
            lines.rmw(i);
        }
        queue.lock().push_back(msg.to_vec());
        Ok(())
    }

    /// Receives a datagram from `sock` on `core`: the local queue first
    /// (conflict-free in the common case), then stealing from other cores.
    /// Returns [`SocketError::Empty`] only when every queue was observed
    /// empty.
    pub fn recv(&self, core: CoreId, sock: usize) -> Result<Vec<u8>, SocketError> {
        match &*self.socket(sock)? {
            Socket::Ordered { queue, line } => {
                // The drain is a read-modify-write of the queue line even
                // when nothing is taken.
                if let Some(line) = line {
                    line.rmw(0);
                }
                queue.lock().pop_front().ok_or(SocketError::Empty)
            }
            Socket::Unordered { queues, lines } => {
                let local = core % queues.len();
                if let Some(lines) = lines {
                    lines.rmw(local);
                }
                if let Some(msg) = queues[local].lock().pop_front() {
                    return Ok(msg);
                }
                for (i, queue) in queues.iter().enumerate() {
                    if i == local {
                        continue;
                    }
                    // An optimistic emptiness check (a read) before writing
                    // the remote queue's line; the lock is held across check
                    // and pop.
                    let mut q = queue.lock();
                    if let Some(lines) = lines {
                        lines.read(i);
                    }
                    if let Some(msg) = q.pop_front() {
                        if let Some(lines) = lines {
                            lines.rmw(i);
                        }
                        return Ok(msg);
                    }
                }
                Err(SocketError::Empty)
            }
        }
    }

    /// Total queued messages on a socket (unrecorded).
    pub fn pending(&self, sock: usize) -> usize {
        match &*self.socket(sock).expect("socket exists") {
            Socket::Ordered { queue, .. } => queue.lock().len(),
            Socket::Unordered { queues, .. } => queues.iter().map(|q| q.lock().len()).sum(),
        }
    }

    /// Removes and returns every queued message (unrecorded; used by
    /// conservation checks).
    pub fn drain(&self, sock: usize) -> Vec<Vec<u8>> {
        match &*self.socket(sock).expect("socket exists") {
            Socket::Ordered { queue, .. } => queue.lock().drain(..).collect(),
            Socket::Unordered { queues, .. } => queues
                .iter()
                .flat_map(|q| q.lock().drain(..).collect::<Vec<_>>())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scr_mtrace::{on_core, HostTraceSink, SimMachine};
    use std::sync::atomic::{AtomicU64, Ordering};

    type HostTable = SocketTable<Arc<HostTraceSink>>;

    #[test]
    fn ordered_sockets_are_fifo_and_unordered_ones_steal() {
        let table: HostTable = SocketTable::new(None, 4);
        let ordered = table.create(SocketOrder::Ordered);
        table.send(0, ordered, b"a").unwrap();
        table.send(1, ordered, b"b").unwrap();
        assert_eq!(table.recv(2, ordered).unwrap(), b"a", "FIFO preserved");
        assert_eq!(table.recv(2, ordered).unwrap(), b"b");
        assert_eq!(table.recv(2, ordered), Err(SocketError::Empty));
        let unordered = table.create(SocketOrder::Unordered);
        table.send(0, unordered, b"only").unwrap();
        assert_eq!(table.recv(1, unordered).unwrap(), b"only");
        assert_eq!(table.pending(unordered), 0);
        assert_eq!(table.send(0, 7, b"x"), Err(SocketError::BadSocket));
        assert_eq!(table.recv(0, 7), Err(SocketError::BadSocket));
    }

    #[test]
    fn unordered_local_send_recv_are_conflict_free_and_ordered_ones_conflict() {
        // A local send and recv on each core's unordered queue, then, when
        // `ordered_too`, a send and a recv on the ordered socket.
        let window = |ordered_too: bool| {
            let m = SimMachine::new();
            let table = SocketTable::new(Some(&m), 2);
            let (ordered, unordered) = (
                table.create(SocketOrder::Ordered),
                table.create(SocketOrder::Unordered),
            );
            // Pre-load each core's queue so a local recv succeeds without
            // stealing.
            for core in 0..2 {
                table.send(core, unordered, b"m").unwrap();
                table.send(core, ordered, b"m").unwrap();
            }
            m.begin_window();
            for core in 0..2 {
                on_core(core, || {
                    table.send(core, unordered, b"x").unwrap();
                    table.recv(core, unordered).unwrap();
                });
            }
            if ordered_too {
                on_core(0, || table.send(0, ordered, b"z").unwrap());
                on_core(1, || table.recv(1, ordered).unwrap());
            }
            m.end_window()
        };
        assert!(window(false).is_conflict_free());
        assert_eq!(window(true).conflicting_labels(), ["socket[0].queue"]);
    }

    /// xorshift64*: seeds are printed in assertions so failures reproduce.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn unordered_sockets_deliver_exactly_once_under_seeded_contention() {
        // Senders pick target cores from the seed, receivers race to
        // drain: every message must be received exactly once.
        for seed in [0x5ca1ab1eu64, 0xdecafbad, 7] {
            let cores = 4;
            let table: HostTable = SocketTable::new(None, cores);
            let sock = table.create(SocketOrder::Unordered);
            let per_sender = 200u64;
            let total = cores as u64 * per_sender;
            let received = std::sync::Mutex::new(Vec::new());
            let taken = AtomicU64::new(0);
            std::thread::scope(|s| {
                for t in 0..cores {
                    let table = &table;
                    s.spawn(move || {
                        let mut state = seed ^ (t as u64).wrapping_mul(0x9E37);
                        for i in 0..per_sender {
                            let core = (xorshift(&mut state) % cores as u64) as usize;
                            table
                                .send(core, sock, format!("{t}-{i}").as_bytes())
                                .unwrap();
                        }
                    });
                }
                for r in 0..cores {
                    let (table, received, taken) = (&table, &received, &taken);
                    s.spawn(move || {
                        while taken.load(Ordering::Acquire) < total {
                            match table.recv(r, sock) {
                                Ok(msg) => {
                                    taken.fetch_add(1, Ordering::AcqRel);
                                    received.lock().unwrap().push(msg);
                                }
                                Err(SocketError::Empty) => std::thread::yield_now(),
                                Err(e) => panic!("seed {seed:#x}: unexpected {e:?}"),
                            }
                        }
                    });
                }
            });
            let mut got = received.into_inner().unwrap();
            got.sort();
            let mut want: Vec<Vec<u8>> = (0..cores)
                .flat_map(|t| (0..per_sender).map(move |i| format!("{t}-{i}").into_bytes()))
                .collect();
            want.sort();
            assert_eq!(got, want, "seed {seed:#x}: lost or duplicated");
            assert_eq!(table.pending(sock), 0);
        }
    }

    #[test]
    fn no_receiver_starves_while_another_cores_queue_is_nonempty() {
        // Every message lands in core 0's queue; receivers run only on
        // cores 1..4. If stealing ever skipped a non-empty remote queue,
        // this would spin forever or lose messages.
        let cores = 4;
        let table: HostTable = SocketTable::new(None, cores);
        let sock = table.create(SocketOrder::Unordered);
        let total = 300u64;
        for i in 0..total {
            table.send(0, sock, format!("m{i}").as_bytes()).unwrap();
        }
        let taken = AtomicU64::new(0);
        std::thread::scope(|s| {
            for r in 1..cores {
                let (table, taken) = (&table, &taken);
                s.spawn(move || {
                    while taken.load(Ordering::Acquire) < total {
                        match table.recv(r, sock) {
                            Ok(_) => {
                                taken.fetch_add(1, Ordering::AcqRel);
                            }
                            Err(SocketError::Empty) => {
                                // Empty may only be reported once
                                // everything was taken.
                                assert!(
                                    taken.load(Ordering::Acquire) + (cores as u64) >= total,
                                    "starved with messages pending"
                                );
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("unexpected {e:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(taken.load(Ordering::Acquire), total);
        assert_eq!(table.pending(sock), 0);
    }
}
