//! Deterministic parallel work-claiming for sweep engines.
//!
//! The commuter pipeline, the host Figure 6 replay and the differential
//! campaign all sweep a pre-built list of independent work units (one call
//! pair × argument shape each). Workers claim units off a shared cursor —
//! cheap work-stealing over a known list — while the calling thread
//! consumes every outcome **in unit order**, regardless of completion
//! order. Aggregation therefore observes exactly the sequence a
//! single-threaded sweep would produce, which is what keeps corpora and
//! reports byte-identical across thread counts (workers share no solver
//! state, so a unit's outcome does not depend on which worker ran it).
//!
//! Symbolic expressions are `Rc`-based and must not cross threads; a unit
//! runs analysis, generation and replay entirely on one worker and returns
//! only plain concrete data (tests, counters, timings).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Resolves a configured worker count: `0` means one worker per available
/// hardware thread, anything else is taken literally.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Runs `work` over `units` on `threads` claiming workers, delivering each
/// unit's outcome to `consume` strictly in unit order. `consume` runs on
/// the calling thread while workers keep claiming, so in-order aggregation
/// overlaps with remaining work instead of waiting for the whole sweep.
///
/// With `threads <= 1` no workers are spawned: units run inline on the
/// calling thread, in order.
pub fn claim_in_order<U, R, W, C>(units: &[U], threads: usize, work: W, mut consume: C)
where
    U: Sync,
    R: Send,
    W: Fn(usize, &U) -> R + Sync,
    C: FnMut(usize, R),
{
    if threads <= 1 {
        for (idx, unit) in units.iter().enumerate() {
            let result = work(idx, unit);
            consume(idx, result);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let work = &work;
            scope.spawn(move || loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= units.len() {
                    break;
                }
                let result = work(idx, &units[idx]);
                if tx.send((idx, result)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(units.len());
        slots.resize_with(units.len(), || None);
        let mut cursor = 0;
        for (idx, result) in rx {
            slots[idx] = Some(result);
            while cursor < slots.len() {
                match slots[cursor].take() {
                    Some(ready) => {
                        consume(cursor, ready);
                        cursor += 1;
                    }
                    None => break,
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolves_to_hardware_parallelism() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn outcomes_arrive_in_unit_order_despite_racing_workers() {
        let units: Vec<usize> = (0..64).collect();
        let mut seen = Vec::new();
        claim_in_order(
            &units,
            4,
            |idx, &unit| {
                // Stagger completion so later units often finish first.
                std::thread::sleep(std::time::Duration::from_micros(
                    ((64 - idx) % 7) as u64 * 50,
                ));
                unit * 2
            },
            |idx, result| {
                assert_eq!(result, idx * 2);
                seen.push(idx);
            },
        );
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline() {
        let units = [10usize, 20, 30];
        let mut order = Vec::new();
        claim_in_order(&units, 1, |_, &u| u, |idx, r| order.push((idx, r)));
        assert_eq!(order, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn more_threads_than_units_is_fine() {
        let units = [1usize];
        let mut got = Vec::new();
        claim_in_order(&units, 8, |_, &u| u + 1, |_, r| got.push(r));
        assert_eq!(got, vec![2]);
    }
}
