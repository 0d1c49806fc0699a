//! Property-based tests: the scalable data structures must behave exactly
//! like their obvious sequential counterparts (their whole point is to
//! change the *sharing*, not the semantics).

use proptest::prelude::*;
use scr_mtrace::SimMachine;
use scr_scalable::{HashDir, PerCoreCounter, RadixArray, Refcache};
use std::collections::BTreeMap;

#[derive(Clone, Debug)]
enum DirOp {
    Insert(u8, u64),
    Upsert(u8, u64),
    Remove(u8),
    Get(u8),
}

fn dir_op() -> impl Strategy<Value = DirOp> {
    prop_oneof![
        (0u8..12, any::<u64>()).prop_map(|(k, v)| DirOp::Insert(k, v)),
        (0u8..12, any::<u64>()).prop_map(|(k, v)| DirOp::Upsert(k, v)),
        (0u8..12).prop_map(DirOp::Remove),
        (0u8..12).prop_map(DirOp::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_dir_matches_a_plain_map(ops in proptest::collection::vec(dir_op(), 1..60)) {
        let machine = SimMachine::new();
        let dir = HashDir::new(Some(&machine), "dir", 16);
        let mut reference: BTreeMap<String, u64> = BTreeMap::new();
        for op in ops {
            match op {
                DirOp::Insert(k, v) => {
                    let key = format!("k{k}");
                    let inserted = dir.insert_if_absent(&key, v);
                    let expected = !reference.contains_key(&key);
                    prop_assert_eq!(inserted, expected);
                    reference.entry(key).or_insert(v);
                }
                DirOp::Upsert(k, v) => {
                    let key = format!("k{k}");
                    dir.upsert(&key, v);
                    reference.insert(key, v);
                }
                DirOp::Remove(k) => {
                    let key = format!("k{k}");
                    prop_assert_eq!(dir.remove(&key), reference.remove(&key));
                }
                DirOp::Get(k) => {
                    let key = format!("k{k}");
                    prop_assert_eq!(dir.get(&key), reference.get(&key).copied());
                }
            }
            prop_assert_eq!(dir.len(), reference.len());
        }
    }

    #[test]
    fn radix_array_matches_a_plain_map(
        ops in proptest::collection::vec((0usize..300, any::<Option<u32>>()), 1..80)
    ) {
        let machine = SimMachine::new();
        let array = RadixArray::new(Some(&machine), "pages");
        let mut reference: BTreeMap<usize, u32> = BTreeMap::new();
        for (index, value) in ops {
            match value {
                Some(v) => {
                    array.set(index, v);
                    reference.insert(index, v);
                }
                None => {
                    prop_assert_eq!(array.take(index), reference.remove(&index));
                }
            }
            prop_assert_eq!(array.get(index), reference.get(&index).copied());
        }
        let mut expected: Vec<usize> = reference.keys().copied().collect();
        expected.sort_unstable();
        prop_assert_eq!(array.indices(), expected);
    }

    #[test]
    fn refcache_matches_an_integer(
        deltas in proptest::collection::vec((0usize..8, -3i64..4), 1..60),
        initial in 0i64..10
    ) {
        let machine = SimMachine::new();
        let rc = Refcache::new(Some(&machine), "count", 8, initial);
        let mut reference = initial;
        for (core, delta) in deltas {
            for _ in 0..delta.abs() {
                if delta > 0 {
                    rc.inc(core);
                } else {
                    rc.dec(core);
                }
            }
            reference += delta;
            prop_assert_eq!(rc.read_exact(), reference);
        }
        prop_assert_eq!(rc.flush_epoch(), reference);
        prop_assert_eq!(rc.read_reconciled(), reference);
    }

    #[test]
    fn per_core_counter_matches_an_integer(
        adds in proptest::collection::vec((0usize..6, -10i64..10), 1..60)
    ) {
        let machine = SimMachine::new();
        let counter = PerCoreCounter::new(Some(&machine), "ctr", 6);
        let mut reference = 0i64;
        for (core, delta) in adds {
            counter.add(core, delta);
            reference += delta;
        }
        prop_assert_eq!(counter.read(), reference);
    }

    #[test]
    fn per_core_updates_never_conflict(
        updates in proptest::collection::vec((0usize..4, 1i64..5), 1..40)
    ) {
        // Whatever sequence of per-core increments and decrements happens,
        // the Refcache delta lines stay core-private: the trace must be
        // conflict-free.
        let machine = SimMachine::new();
        let rc = Refcache::new(Some(&machine), "count", 4, 0);
        machine.start_tracing();
        for (core, delta) in updates {
            machine.on_core(core, || {
                for _ in 0..delta {
                    rc.inc(core);
                }
            });
        }
        machine.stop_tracing();
        prop_assert!(machine.conflict_report().is_conflict_free());
    }
}
