//! Independent schedule certification (codes `A03xx`).
//!
//! The workspace already has two implementations of the paper's timing
//! semantics: the scheduler's incremental engine (`pipesched-core`'s
//! `timing` module, §4.2.2) and the cycle-accurate simulator
//! (`pipesched-sim`'s busy-wait forward pass). This module is the **third**,
//! written against the paper's definitions and sharing no code with either:
//! issue times are derived *event-driven* — each instruction issues at
//!
//! ```text
//! cycle(t) = max(cycle(prev) + 1,                  // one issue per tick
//!                max over deps (d → t): cycle(d) + delay(d → t),
//!                free(σ(t)))                       // enqueue conflicts
//! ```
//!
//! with `free(p)` advanced to `cycle + enqueue(p)` after each issue — where
//! the simulator instead *searches* forward cycle by cycle and the engine
//! maintains incremental state with O(1) undo. Dependences are likewise
//! re-extracted here from the raw tuples (value uses, plus the
//! load/store orders on each variable) rather than taken from
//! [`pipesched_ir::DepDag`]. Agreement between three independently derived
//! answers is the certification.
//!
//! Unlike the other two, the certifier honors a claimed per-tuple pipeline
//! *assignment* (the search's pipeline-selection extension, §4.1
//! footnote 3): result delays and conflicts follow the assigned unit, not
//! the default one.

use pipesched_core::SearchOutcome;
use pipesched_ir::{BasicBlock, Op, TupleId};
use pipesched_machine::{Machine, PipelineId};

use crate::diag::{DiagCode, Diagnostic, Report};

/// A schedule as claimed by a scheduler, to be certified against `block`.
///
/// `etas` and `nops` are optional so that bare orders (e.g. a list
/// schedule, which claims no padding) can be certified for legality and
/// have their μ derived.
#[derive(Debug, Clone, Copy, Default)]
pub struct Claim<'a> {
    /// The claimed instruction order.
    pub order: &'a [TupleId],
    /// Claimed pipeline per tuple (indexed by tuple id); `None` ⇒ defaults.
    pub assignment: Option<&'a [Option<PipelineId>]>,
    /// Claimed η per position of `order`.
    pub etas: Option<&'a [u32]>,
    /// Claimed total NOP count μ.
    pub nops: Option<u32>,
}

/// The certifier's verdict: the report plus the independently derived
/// timing, when legality allowed deriving one.
#[derive(Debug, Clone)]
pub struct Certification {
    /// Diagnostics (certification fails iff this has errors).
    pub report: Report,
    /// Issue cycle per *position* of the claimed order.
    pub issue: Option<Vec<u64>>,
    /// Total NOPs the claimed order actually needs.
    pub derived_nops: Option<u64>,
}

impl Certification {
    /// True when the claim survived certification.
    pub fn is_certified(&self) -> bool {
        !self.report.has_errors()
    }
}

/// Certify a [`SearchOutcome`] produced by any search in the workspace.
pub fn certify_scheduled(
    block: &BasicBlock,
    machine: &Machine,
    scheduled: &SearchOutcome,
) -> Certification {
    certify(
        block,
        machine,
        Claim {
            order: &scheduled.order,
            assignment: Some(&scheduled.assignment),
            etas: Some(&scheduled.etas),
            nops: Some(scheduled.nops),
        },
    )
}

/// Certify an arbitrary claim against `block` on `machine`.
pub fn certify(block: &BasicBlock, machine: &Machine, claim: Claim<'_>) -> Certification {
    let mut report = Report::new(if block.name.is_empty() {
        "schedule".to_string()
    } else {
        format!("schedule of `{}` on `{}`", block.name, machine.name)
    });

    let Some(position) = check_permutation(block, claim.order, &mut report) else {
        return Certification {
            report,
            issue: None,
            derived_nops: None,
        };
    };
    let sigma = effective_assignment(block, machine, claim.assignment, &mut report);
    let deps = extract_deps(block, machine, &sigma);
    check_order(block, &position, &deps, &mut report);
    if report.has_errors() {
        return Certification {
            report,
            issue: None,
            derived_nops: None,
        };
    }

    let issue = derive_issue_times(machine, claim.order, &sigma, &deps);
    let derived_nops = issue.last().map_or(0, |&last| last + 1) - claim.order.len() as u64;
    check_claimed_padding(&claim, &issue, derived_nops, &mut report);

    Certification {
        report,
        issue: Some(issue),
        derived_nops: Some(derived_nops),
    }
}

/// `A0301`: the order must be a permutation of the block's tuple ids.
/// On success returns `position[tuple] = index in order`.
fn check_permutation(
    block: &BasicBlock,
    order: &[TupleId],
    report: &mut Report,
) -> Option<Vec<usize>> {
    let n = block.len();
    if order.len() != n {
        report.push(Diagnostic::new(
            DiagCode::NotAPermutation,
            format!("schedule has {} instructions, block has {n}", order.len()),
        ));
        return None;
    }
    let mut position = vec![usize::MAX; n];
    let mut ok = true;
    for (k, &t) in order.iter().enumerate() {
        if t.index() >= n {
            report.push(
                Diagnostic::new(
                    DiagCode::NotAPermutation,
                    format!("position {k} schedules tuple {t}, which is not in the block"),
                )
                .at(t),
            );
            ok = false;
        } else if position[t.index()] != usize::MAX {
            report.push(
                Diagnostic::new(
                    DiagCode::NotAPermutation,
                    format!("tuple {t} is scheduled twice"),
                )
                .at(t),
            );
            ok = false;
        } else {
            position[t.index()] = k;
        }
    }
    ok.then_some(position)
}

/// `A0305`: resolve the claimed assignment against the machine, falling
/// back to the default unit where no claim is made.
fn effective_assignment(
    block: &BasicBlock,
    machine: &Machine,
    claimed: Option<&[Option<PipelineId>]>,
    report: &mut Report,
) -> Vec<Option<PipelineId>> {
    let mut sigma: Vec<Option<PipelineId>> = block
        .tuples()
        .iter()
        .map(|t| machine.default_pipeline_for(t.op))
        .collect();
    let Some(claimed) = claimed else {
        return sigma;
    };
    if claimed.len() != block.len() {
        report.push(Diagnostic::new(
            DiagCode::IllegalAssignment,
            format!(
                "assignment covers {} tuples, block has {}",
                claimed.len(),
                block.len()
            ),
        ));
        return sigma;
    }
    for (i, &unit) in claimed.iter().enumerate() {
        let t = block.tuple(TupleId(i as u32));
        match unit {
            None => {
                // No claim for this tuple: the default unit stands. (The
                // searches emit `None` exactly for σ = ∅ ops, where the
                // default is also `None`.)
            }
            Some(p) => {
                if machine.pipelines_for(t.op).contains(&p) {
                    sigma[i] = Some(p);
                } else {
                    report.push(
                        Diagnostic::new(
                            DiagCode::IllegalAssignment,
                            format!("tuple {} ({}) is assigned pipeline {p}", t.id, t.op),
                        )
                        .at(t.id)
                        .with_hint(format!("σ({}) does not include that unit", t.op)),
                    );
                }
            }
        }
    }
    sigma
}

/// One merged dependence: `to` may not issue before `cycle(from) + delay`.
///
/// Public so the `pipesched-proof` certificate checker can replay prefix
/// timing against the same independently extracted dependences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// The producing (earlier) tuple.
    pub from: TupleId,
    /// Minimum ticks between issuing `from` and the dependent tuple.
    pub delay: u64,
    /// True when any merged constituent is a *flow* dependence (value use
    /// or load-after-store); anti and output dependences leave it false.
    pub flow: bool,
}

/// Every tuple's immediate predecessors, as [`extract_deps`] found them,
/// in one offset-indexed array: `deps[i]` is tuple `i`'s list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deps {
    /// `deps[i]` is `all[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    all: Vec<Dep>,
}

impl Deps {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for an empty block.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every dependence, grouped by dependent tuple in index order.
    pub fn all(&self) -> &[Dep] {
        &self.all
    }
}

impl std::ops::Index<usize> for Deps {
    type Output = [Dep];

    fn index(&self, i: usize) -> &[Dep] {
        &self.all[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// No tuple, in [`extract_deps`]'s per-variable tables.
const NONE: u32 = u32::MAX;

/// Re-extract dependences from the raw tuples, independent of `DepDag`.
///
/// Per the paper's model: a *flow* dependence (value use, or load after
/// store to the same variable) delays the consumer by the producer's
/// result latency; *anti* (store after load) and *output* (store after
/// store) dependences only force issue order, a delay of one tick.
/// Multiple dependences between the same pair merge by maximum delay
/// (and the union of their flow flags). Returns the immediate
/// predecessors of each tuple, indexed by tuple id.
pub fn extract_deps(block: &BasicBlock, machine: &Machine, sigma: &[Option<PipelineId>]) -> Deps {
    let result_delay = |t: TupleId| -> u64 {
        sigma[t.index()].map_or(1, |p| u64::from(machine.pipeline(p).latency))
    };
    let (n, nvars) = (block.len(), block.symbols().len());
    // Per variable, its last store and the last load since that store;
    // per load, the load of the same variable before it since that store,
    // so the loads since a store form a chain.
    let mut scratch = vec![NONE; 2 * nvars + n];
    let (last_store, rest) = scratch.split_at_mut(nvars);
    let (last_load, load_before) = rest.split_at_mut(nvars);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    // A value operand, a load after a store and a store after a store or
    // a load each add at most one list entry, so a well-formed block
    // needs no more than two per tuple.
    let mut all: Vec<Dep> = Vec::with_capacity(2 * n);

    for t in block.tuples() {
        let start = all.len();
        let add = |all: &mut Vec<Dep>, from: TupleId, delay: u64, flow: bool| match all[start..]
            .iter_mut()
            .find(|d| d.from == from)
        {
            Some(d) => {
                d.delay = d.delay.max(delay);
                d.flow |= flow;
            }
            None => all.push(Dep { from, delay, flow }),
        };
        for r in t.tuple_refs() {
            add(&mut all, r, result_delay(r), true);
        }
        match t.op {
            Op::Load => {
                if let Some(v) = t.a.as_var() {
                    let v = v.0 as usize;
                    if last_store[v] != NONE {
                        let s = TupleId(last_store[v]);
                        add(&mut all, s, result_delay(s), true);
                    }
                    load_before[t.id.index()] = last_load[v];
                    last_load[v] = t.id.0;
                }
            }
            Op::Store => {
                if let Some(v) = t.a.as_var() {
                    let v = v.0 as usize;
                    if last_store[v] != NONE {
                        add(&mut all, TupleId(last_store[v]), 1, false);
                    }
                    // The chain runs backwards: what it appends is put
                    // back in program order.
                    let appended = all.len();
                    let mut l = last_load[v];
                    while l != NONE {
                        add(&mut all, TupleId(l), 1, false);
                        l = load_before[l as usize];
                    }
                    all[appended..].reverse();
                    last_store[v] = t.id.0;
                    last_load[v] = NONE;
                }
            }
            _ => {}
        }
        offsets.push(all.len() as u32);
    }
    Deps { offsets, all }
}

/// `A0302`: every dependence must point backwards in the claimed order.
fn check_order(block: &BasicBlock, position: &[usize], deps: &Deps, report: &mut Report) {
    for t in block.ids() {
        for d in &deps[t.index()] {
            if position[d.from.index()] >= position[t.index()] {
                report.push(
                    Diagnostic::new(
                        DiagCode::DependenceViolation,
                        format!("tuple {t} is scheduled before its producer {}", d.from),
                    )
                    .at(t)
                    .with_hint(format!(
                        "{t} depends on {} and must issue at least {} tick(s) later",
                        d.from, d.delay
                    )),
                );
            }
        }
    }
}

/// Event-driven issue-time derivation (see the module docs for the
/// recurrence). Assumes the order already passed the legality checks.
/// Public so the certificate checker can reuse this third timing
/// implementation without touching the scheduler's engine.
pub fn derive_issue_times(
    machine: &Machine,
    order: &[TupleId],
    sigma: &[Option<PipelineId>],
    deps: &Deps,
) -> Vec<u64> {
    let mut issue_of: Vec<u64> = vec![0; sigma.len()];
    let mut free: Vec<u64> = vec![0; machine.pipeline_count()];
    let mut issue = Vec::with_capacity(order.len());
    for (k, &t) in order.iter().enumerate() {
        let mut cycle = if k == 0 { 0 } else { issue[k - 1] + 1 };
        for d in &deps[t.index()] {
            cycle = cycle.max(issue_of[d.from.index()] + d.delay);
        }
        if let Some(p) = sigma[t.index()] {
            cycle = cycle.max(free[p.index()]);
            free[p.index()] = cycle + u64::from(machine.pipeline(p).enqueue);
        }
        issue_of[t.index()] = cycle;
        issue.push(cycle);
    }
    issue
}

/// `A0303`/`A0304`: claimed η vector and μ versus the derived issue times.
fn check_claimed_padding(claim: &Claim<'_>, issue: &[u64], derived_nops: u64, report: &mut Report) {
    if let Some(etas) = claim.etas {
        if etas.len() != issue.len() {
            report.push(Diagnostic::new(
                DiagCode::EtaMismatch,
                format!(
                    "η vector has {} entries for {} instructions",
                    etas.len(),
                    issue.len()
                ),
            ));
        } else {
            for (k, &eta) in etas.iter().enumerate() {
                let actual = if k == 0 {
                    issue[0]
                } else {
                    issue[k] - issue[k - 1] - 1
                };
                if u64::from(eta) != actual {
                    report.push(
                        Diagnostic::new(
                            DiagCode::EtaMismatch,
                            format!("η at position {k} is claimed {eta}, derived {actual}"),
                        )
                        .at(claim.order[k]),
                    );
                }
            }
        }
        if let Some(nops) = claim.nops {
            let sum: u64 = etas.iter().map(|&e| u64::from(e)).sum();
            if sum != u64::from(nops) {
                report.push(Diagnostic::new(
                    DiagCode::NopCountMismatch,
                    format!("η entries sum to {sum} but μ is claimed as {nops}"),
                ));
            }
        }
    }
    if let Some(nops) = claim.nops {
        if u64::from(nops) != derived_nops {
            report.push(
                Diagnostic::new(
                    DiagCode::NopCountMismatch,
                    format!("μ is claimed as {nops}, derived {derived_nops}"),
                )
                .with_hint("μ(Π) counts every padding NOP the order needs (definition 4)"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipesched_core::Scheduler;
    use pipesched_ir::BlockBuilder;
    use pipesched_machine::presets;

    fn demo_block() -> BasicBlock {
        let mut b = BlockBuilder::new("demo");
        let x = b.load("x");
        let y = b.load("y");
        let m = b.mul(x, y);
        let s = b.add(m, x);
        b.store("r", s);
        b.finish().unwrap()
    }

    #[test]
    fn scheduler_output_certifies_clean() {
        let block = demo_block();
        for machine in presets::all_presets() {
            let scheduled = Scheduler::new(machine.clone()).schedule(&block);
            let cert = certify_scheduled(&block, &machine, &scheduled);
            assert!(cert.is_certified(), "{}:\n{}", machine.name, cert.report);
            assert_eq!(cert.derived_nops, Some(u64::from(scheduled.nops)));
        }
    }

    #[test]
    fn agrees_with_the_simulator() {
        // Third implementation versus second: same issue times.
        use pipesched_ir::DepDag;
        use pipesched_sim::{issue_times, TimingModel};
        let block = demo_block();
        for machine in presets::all_presets() {
            let scheduled = Scheduler::new(machine.clone()).schedule(&block);
            let dag = DepDag::build(&block);
            let tm = TimingModel::new(&block, &dag, &machine);
            let sim = issue_times(&tm, &scheduled.order);
            let cert = certify_scheduled(&block, &machine, &scheduled);
            assert_eq!(cert.issue.as_deref(), Some(&sim[..]), "{}", machine.name);
        }
    }

    #[test]
    fn program_order_is_legal_with_derived_mu() {
        let block = demo_block();
        let machine = presets::paper_simulation();
        let order: Vec<TupleId> = block.ids().collect();
        let cert = certify(
            &block,
            &machine,
            Claim {
                order: &order,
                ..Claim::default()
            },
        );
        assert!(cert.is_certified(), "{}", cert.report);
        assert!(
            cert.derived_nops.unwrap() > 0,
            "paper machine needs padding"
        );
    }

    #[test]
    fn rejects_non_permutations() {
        let block = demo_block();
        let machine = presets::paper_simulation();
        let short = [TupleId(0), TupleId(1)];
        let cert = certify(
            &block,
            &machine,
            Claim {
                order: &short,
                ..Claim::default()
            },
        );
        assert!(cert.report.has_code(DiagCode::NotAPermutation));

        let dup = [TupleId(0), TupleId(0), TupleId(2), TupleId(3), TupleId(4)];
        let cert = certify(
            &block,
            &machine,
            Claim {
                order: &dup,
                ..Claim::default()
            },
        );
        assert!(cert.report.has_code(DiagCode::NotAPermutation));
        assert!(cert.issue.is_none());
    }

    #[test]
    fn rejects_dependence_violation() {
        let block = demo_block();
        let machine = presets::paper_simulation();
        // Store before the Add it stores.
        let order = [TupleId(0), TupleId(1), TupleId(2), TupleId(4), TupleId(3)];
        let cert = certify(
            &block,
            &machine,
            Claim {
                order: &order,
                ..Claim::default()
            },
        );
        assert!(
            cert.report.has_code(DiagCode::DependenceViolation),
            "{}",
            cert.report
        );
    }

    #[test]
    fn rejects_wrong_eta_and_mu() {
        let block = demo_block();
        let machine = presets::paper_simulation();
        let scheduled = Scheduler::new(machine.clone()).schedule(&block);
        let mut etas = scheduled.etas.clone();
        etas[2] += 1;
        let cert = certify(
            &block,
            &machine,
            Claim {
                order: &scheduled.order,
                assignment: Some(&scheduled.assignment),
                etas: Some(&etas),
                nops: Some(scheduled.nops),
            },
        );
        assert!(
            cert.report.has_code(DiagCode::EtaMismatch),
            "{}",
            cert.report
        );
        assert!(cert.report.has_code(DiagCode::NopCountMismatch));

        let cert = certify(
            &block,
            &machine,
            Claim {
                order: &scheduled.order,
                assignment: Some(&scheduled.assignment),
                etas: Some(&scheduled.etas),
                nops: Some(scheduled.nops + 1),
            },
        );
        assert!(
            cert.report.has_code(DiagCode::NopCountMismatch),
            "{}",
            cert.report
        );
    }

    #[test]
    fn rejects_illegal_assignment() {
        let block = demo_block();
        let machine = presets::paper_simulation();
        let order: Vec<TupleId> = block.ids().collect();
        // Assign the first Load to the multiplier.
        let mut assignment: Vec<Option<PipelineId>> = vec![None; block.len()];
        let mul_unit = machine.pipelines_for(pipesched_ir::Op::Mul)[0];
        assignment[0] = Some(mul_unit);
        let cert = certify(
            &block,
            &machine,
            Claim {
                order: &order,
                assignment: Some(&assignment),
                ..Claim::default()
            },
        );
        assert!(
            cert.report.has_code(DiagCode::IllegalAssignment),
            "{}",
            cert.report
        );
    }

    #[test]
    fn memory_dependences_are_respected() {
        // store a; load a → flow through memory must delay the load.
        let mut b = BlockBuilder::new("mem");
        let c = b.constant(1);
        b.store("a", c);
        let l = b.load("a");
        b.store("b", l);
        let block = b.finish().unwrap();
        let machine = presets::paper_simulation();
        // Swap the load before the store of `a`: illegal.
        let order = [TupleId(0), TupleId(2), TupleId(1), TupleId(3)];
        let cert = certify(
            &block,
            &machine,
            Claim {
                order: &order,
                ..Claim::default()
            },
        );
        assert!(
            cert.report.has_code(DiagCode::DependenceViolation),
            "{}",
            cert.report
        );
    }

    /// The per-tuple lists the extraction is defined by, one `Vec` each.
    fn nested_deps(
        block: &BasicBlock,
        machine: &Machine,
        sigma: &[Option<PipelineId>],
    ) -> Vec<Vec<Dep>> {
        let result_delay = |t: TupleId| -> u64 {
            sigma[t.index()].map_or(1, |p| u64::from(machine.pipeline(p).latency))
        };
        let nvars = block.symbols().len();
        let mut last_store: Vec<Option<TupleId>> = vec![None; nvars];
        let mut loads_since: Vec<Vec<TupleId>> = vec![Vec::new(); nvars];
        let mut preds: Vec<Vec<Dep>> = vec![Vec::new(); block.len()];
        for t in block.tuples() {
            let mut add = |to: TupleId, from: TupleId, delay: u64, flow: bool| {
                let list = &mut preds[to.index()];
                match list.iter_mut().find(|d| d.from == from) {
                    Some(d) => {
                        d.delay = d.delay.max(delay);
                        d.flow |= flow;
                    }
                    None => list.push(Dep { from, delay, flow }),
                }
            };
            for r in t.tuple_refs() {
                add(t.id, r, result_delay(r), true);
            }
            let Some(v) = t.a.as_var() else { continue };
            let v = v.0 as usize;
            match t.op {
                Op::Load => {
                    if let Some(s) = last_store[v] {
                        add(t.id, s, result_delay(s), true);
                    }
                    loads_since[v].push(t.id);
                }
                Op::Store => {
                    if let Some(s) = last_store[v] {
                        add(t.id, s, 1, false);
                    }
                    for &l in &loads_since[v] {
                        add(t.id, l, 1, false);
                    }
                    last_store[v] = Some(t.id);
                    loads_since[v].clear();
                }
                _ => {}
            }
        }
        preds
    }

    /// A seeded block of loads, stores and arithmetic over three
    /// variables, so that loads and stores of one variable interleave.
    fn random_block(seed: u64) -> BasicBlock {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let vars = ["a", "b", "c"];
        let mut b = BlockBuilder::new("random");
        let mut values = Vec::new();
        for _ in 0..rng.gen_range(1..40usize) {
            let var = vars[rng.gen_range(0..vars.len())];
            match rng.gen_range(0..4u32) {
                0 if !values.is_empty() => {
                    b.store(var, values[rng.gen_range(0..values.len())]);
                }
                1 if !values.is_empty() => {
                    let l = values[rng.gen_range(0..values.len())];
                    let r = values[rng.gen_range(0..values.len())];
                    values.push(b.mul(l, r));
                }
                _ => values.push(b.load(var)),
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn flat_extraction_keeps_every_list_in_order() {
        let blocks = (0..2_000).map(random_block).chain([demo_block()]);
        for block in blocks {
            for machine in presets::all_presets() {
                let sigma: Vec<Option<PipelineId>> = block
                    .tuples()
                    .iter()
                    .map(|t| machine.default_pipeline_for(t.op))
                    .collect();
                let flat = extract_deps(&block, &machine, &sigma);
                let nested = nested_deps(&block, &machine, &sigma);
                assert_eq!(flat.len(), nested.len());
                for (i, list) in nested.iter().enumerate() {
                    assert_eq!(&flat[i], &list[..], "{} tuple {i}", block.name);
                }
                assert_eq!(flat.all().len(), nested.iter().map(Vec::len).sum::<usize>());
            }
        }
    }

    #[test]
    fn empty_block_certifies() {
        let block = BasicBlock::new("empty");
        let machine = presets::paper_simulation();
        let cert = certify(&block, &machine, Claim::default());
        assert!(cert.is_certified());
        assert_eq!(cert.derived_nops, Some(0));
    }
}
