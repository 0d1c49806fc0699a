//! `scr-loadgen`: the open-loop mail load observatory.
//!
//! The Figure-7 harness answers "how fast can N closed-loop threads go?" —
//! every thread issues its next operation only after the previous one
//! finishes, so when the system slows down the load politely slows with
//! it and the latency numbers hide the stall (*coordinated omission*).
//! This crate asks the question a mail service actually faces: arrivals
//! keep their own schedule, and every nanosecond a message waits in a
//! backed-up queue is charged to its latency.
//!
//! The pieces:
//!
//! * [`rng`] — seeded SplitMix64 streams; every run is reproducible from
//!   its recorded seed.
//! * [`zipf`] — mailbox-popularity sampling (`s = 0` uniform, bigger `s`
//!   more skew), the knob that turns a balanced shard fan-out into a hot
//!   notification socket.
//! * [`schedule`] — fixed-rate and Poisson arrival schedules, decided in
//!   full before the first worker thread starts.
//! * [`openloop`] — the runner, a front end of `scr_host`'s pipeline
//!   engine: enqueuers release messages at their intended arrival times
//!   against a [`MailServer`] topology of N enqueuers × M qmans over
//!   sharded notification sockets, and the per-delivery hook measures
//!   latency *from the intended arrival*, via a timestamp stamped into the
//!   message body.
//!
//! Its callers are the benchmark's `mail_*` workloads, which read the
//! open-loop latency at two offered rates, and the `host_mail` gate, which
//! checks the exactly-once ledger of an open-loop run under every canned
//! fault plan.
//!
//! [`MailServer`]: scr_kernel::mail::MailServer

pub mod openloop;
pub mod rng;
pub mod schedule;
pub mod zipf;

pub use openloop::{
    parse_stamp, parse_stamp_index, run_open_loop, LoadConfig, LoadReport, ShardStats,
};
pub use rng::Rng64;
pub use schedule::{arrival_offsets, Arrival};
pub use zipf::ZipfSampler;
