//! Protocol harness 5: the pool's split-node countdown.
//!
//! Mirrors `Pending` in `crates/core/src/parallel.rs`: a node whose
//! children were split off as tasks closes when the last child finishes,
//! and the worker that finishes it stores the node in its dominance table,
//! then counts the node finished in its own parent's countdown. Here node
//! `p` has child tasks `c0` and `c1`, and node `g` has children `p` and
//! the task `c2`; three workers finish the three tasks. Each child writes
//! its subtree's result before finishing. Every node must be stored
//! exactly once, and only after every child: the storing worker reads
//! each child's result, which must not race with the child's write (the
//! AcqRel decrement publishes it).

use std::sync::Arc;

use pipesched_check::model::cell::RaceCell;
use pipesched_check::model::sync::{AtomicUsize, Ordering};
use pipesched_check::model::{explore, thread, Builder};

struct Pending {
    left: AtomicUsize,
    stored: AtomicUsize,
    /// What the storer saw: every child's result.
    seen: RaceCell<u32>,
}

impl Pending {
    fn new(children: usize, name: &str) -> Self {
        Pending {
            left: AtomicUsize::new(children),
            stored: AtomicUsize::new(0),
            seen: RaceCell::named(name, 0),
        }
    }

    /// As in the pool: exactly one finisher reads 1.
    fn finish(&self) -> bool {
        self.left.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

struct Tree {
    results: Vec<RaceCell<u32>>,
    p: Pending,
    g: Pending,
}

/// Finish child task `c`: write its result, then close what closes.
fn finish_task(tree: &Tree, c: usize) {
    tree.results[c].set(1);
    let to_g = if c == 2 {
        true
    } else if tree.p.finish() {
        let seen = tree.results[0].get() + tree.results[1].get();
        tree.p.seen.set(seen);
        tree.p.stored.fetch_add(1, Ordering::Relaxed);
        true
    } else {
        false
    };
    if to_g && tree.g.finish() {
        let seen = tree.p.seen.get() + tree.results[2].get();
        tree.g.seen.set(seen);
        tree.g.stored.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn a_split_node_is_stored_once_after_every_child() {
    let builder = Builder::with_cap(5000);
    let report = explore(&builder, || {
        let tree = Arc::new(Tree {
            results: (0..3)
                .map(|c| RaceCell::named(&format!("result-{c}"), 0))
                .collect(),
            p: Pending::new(2, "p-seen"),
            g: Pending::new(2, "g-seen"),
        });
        let workers: Vec<_> = (0..2)
            .map(|c| {
                let t = Arc::clone(&tree);
                thread::spawn(move || finish_task(&t, c))
            })
            .collect();
        finish_task(&tree, 2);
        for w in workers {
            w.join();
        }
        assert_eq!(tree.p.stored.load(Ordering::Acquire), 1, "p stored once");
        assert_eq!(tree.g.stored.load(Ordering::Acquire), 1, "g stored once");
        assert_eq!(tree.p.seen.get(), 2, "p stored before a child finished");
        assert_eq!(tree.g.seen.get(), 3, "g stored before a child finished");
    });
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(
        report.interleavings >= 1000,
        "interleaving floor: got {}",
        report.interleavings
    );
}
