//! Machine presets: every configuration the paper mentions plus a few
//! stress-test machines for the extended experiments.

use pipesched_ir::Op;

use crate::machine::Machine;

/// The paper's Table 2 / Table 3 example machine: two loaders, two adders,
/// one multiplier. `Add`/`Sub` share the adder pair; `Mul`/`Div` share the
/// multiplier. This machine exercises the pipeline-*selection* extension
/// because loads and adds can choose between two identical units.
pub fn table2_example() -> Machine {
    let mut b = Machine::builder("paper-table2");
    let l1 = b.pipeline("loader", 2, 1);
    let l2 = b.pipeline("loader", 2, 1);
    let a1 = b.pipeline("adder", 4, 3);
    let a2 = b.pipeline("adder", 4, 3);
    let m = b.pipeline("multiplier", 4, 2);
    b.map(Op::Load, &[l1, l2]);
    b.map(Op::Add, &[a1, a2]);
    b.map(Op::Sub, &[a1, a2]);
    b.map(Op::Mul, &[m]);
    b.map(Op::Div, &[m]);
    b.build().expect("preset is valid")
}

/// The machine used for all the paper's simulations (§5.1, Tables 4/5):
/// a "very straightforward pipeline design" with a **single pipeline unit
/// per function**.
///
/// The scanned TR truncates Table 4 after the loader (latency 2, enqueue 1)
/// and multiplier (latency 4, enqueue 2) rows and omits Table 5 entirely;
/// the adder row and the op→pipeline map are reconstructed here (see
/// DESIGN.md §5): adder latency 3, enqueue 1; `Load`→loader,
/// `Add`/`Sub`/`Neg`/`Mov`→adder, `Mul`/`Div`→multiplier; `Const` and
/// `Store` use no pipelined resource.
pub fn paper_simulation() -> Machine {
    let mut b = Machine::builder("paper-simulation");
    let loader = b.pipeline("loader", 2, 1);
    let adder = b.pipeline("adder", 3, 1);
    let mul = b.pipeline("multiplier", 4, 2);
    b.map(Op::Load, &[loader]);
    b.map(Op::Add, &[adder]);
    b.map(Op::Sub, &[adder]);
    b.map(Op::Neg, &[adder]);
    b.map(Op::Mov, &[adder]);
    b.map(Op::Mul, &[mul]);
    b.map(Op::Div, &[mul]);
    b.build().expect("preset is valid")
}

/// A machine with **no** pipelined resources: every instruction issues in
/// one cycle and every schedule needs zero NOPs. Useful as a degenerate
/// case in tests.
pub fn unpipelined() -> Machine {
    Machine::builder("unpipelined")
        .build()
        .expect("preset is valid")
}

/// A deeply pipelined RISC-style machine (longer latencies, classical
/// enqueue of 1 everywhere): stresses dependence-induced delays.
pub fn deep_pipeline() -> Machine {
    let mut b = Machine::builder("deep-pipeline");
    let loader = b.pipeline("loader", 5, 1);
    let alu = b.pipeline("alu", 4, 1);
    let mul = b.pipeline("multiplier", 8, 1);
    b.map(Op::Load, &[loader]);
    b.map(Op::Add, &[alu]);
    b.map(Op::Sub, &[alu]);
    b.map(Op::Neg, &[alu]);
    b.map(Op::Mov, &[alu]);
    b.map(Op::Mul, &[mul]);
    b.map(Op::Div, &[mul]);
    b.build().expect("preset is valid")
}

/// A machine of non-pipelined functional units (`enqueue == latency`,
/// §2.1's remark about modeling parallel functional units): stresses
/// conflict-induced delays.
pub fn functional_units() -> Machine {
    let mut b = Machine::builder("functional-units");
    let loader = b.pipeline("loader", 3, 3);
    let alu = b.pipeline("alu", 2, 2);
    let mul = b.pipeline("multiplier", 6, 6);
    b.map(Op::Load, &[loader]);
    b.map(Op::Add, &[alu]);
    b.map(Op::Sub, &[alu]);
    b.map(Op::Neg, &[alu]);
    b.map(Op::Mov, &[alu]);
    b.map(Op::Mul, &[mul]);
    b.map(Op::Div, &[mul]);
    b.build().expect("preset is valid")
}

/// A machine with a *recovery-time* multiplier: its result is ready after
/// 2 cycles but the unit needs 6 cycles before accepting another operation
/// (`enqueue > latency`, as in iterative dividers that must drain). This is
/// the configuration where cross-block pipeline state (footnote 1) visibly
/// matters: a block ending in a multiply leaves the unit recovering into
/// the next block.
pub fn recovery_unit() -> Machine {
    let mut b = Machine::builder("recovery-unit");
    let loader = b.pipeline("loader", 2, 1);
    let alu = b.pipeline("alu", 2, 1);
    let mul = b.pipeline("recovering-multiplier", 2, 6);
    b.map(Op::Load, &[loader]);
    b.map(Op::Add, &[alu]);
    b.map(Op::Sub, &[alu]);
    b.map(Op::Neg, &[alu]);
    b.map(Op::Mov, &[alu]);
    b.map(Op::Mul, &[mul]);
    b.map(Op::Div, &[mul]);
    b.build().expect("preset is valid")
}

/// The §2.1 worked-example machine: a loader whose latency is 4 (the
/// `Load`/`Add` dependence example needing 3 NOPs) and whose MAR is held
/// for 2 cycles (the `Load`/`Load` conflict example needing 1 NOP).
pub fn section2_example() -> Machine {
    let mut b = Machine::builder("section2-example");
    let loader = b.pipeline("loader", 4, 2);
    let adder = b.pipeline("adder", 1, 1);
    b.map(Op::Load, &[loader]);
    b.map(Op::Add, &[adder]);
    b.map(Op::Sub, &[adder]);
    b.build().expect("preset is valid")
}

/// The presets a machine argument or request may name, each by its
/// [`Machine::name`].
pub const NAMED: [fn() -> Machine; 6] = [
    paper_simulation,
    table2_example,
    deep_pipeline,
    functional_units,
    section2_example,
    unpipelined,
];

/// The preset of [`NAMED`] named `name`, if any.
pub fn by_name(name: &str) -> Option<Machine> {
    NAMED.iter().map(|make| make()).find(|m| m.name == name)
}

/// All named presets, for sweeping experiments over machines.
pub fn all_presets() -> Vec<Machine> {
    vec![
        table2_example(),
        paper_simulation(),
        unpipelined(),
        deep_pipeline(),
        functional_units(),
        recovery_unit(),
        section2_example(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineId;

    #[test]
    fn named_presets_are_found_by_name() {
        let names: Vec<String> = NAMED.iter().map(|make| make().name).collect();
        assert_eq!(
            names,
            [
                "paper-simulation",
                "paper-table2",
                "deep-pipeline",
                "functional-units",
                "section2-example",
                "unpipelined"
            ]
        );
        for name in &names {
            assert_eq!(by_name(name).map(|m| m.name).as_ref(), Some(name));
        }
        assert!(by_name("recovery-unit").is_none());
    }

    #[test]
    fn table2_matches_the_paper() {
        let m = table2_example();
        assert_eq!(m.pipeline_count(), 5);
        // Row 3 of Table 2: adder, id 3, latency 4, enqueue 3.
        let adder = m.pipeline(PipelineId(2));
        assert_eq!(adder.function, "adder");
        assert_eq!(adder.latency, 4);
        assert_eq!(adder.enqueue, 3);
        // Table 3: Add → {3, 4}; Mul → {5}.
        assert_eq!(m.pipelines_for(Op::Add), &[PipelineId(2), PipelineId(3)]);
        assert_eq!(m.pipelines_for(Op::Mul), &[PipelineId(4)]);
        assert!(m.has_pipeline_choice());
    }

    #[test]
    fn simulation_machine_is_single_unit_per_function() {
        let m = paper_simulation();
        for op in Op::BLOCK_OPS {
            assert!(
                m.pipelines_for(op).len() <= 1,
                "{op} must map to at most one unit"
            );
        }
        assert_eq!(m.latency_for(Op::Load), Some(2));
        assert_eq!(m.enqueue_for(Op::Load), Some(1));
        assert_eq!(m.latency_for(Op::Mul), Some(4));
        assert_eq!(m.enqueue_for(Op::Mul), Some(2));
        assert_eq!(m.latency_for(Op::Const), None);
        assert_eq!(m.latency_for(Op::Store), None);
        assert!(!m.has_pipeline_choice());
    }

    #[test]
    fn every_preset_validates() {
        for m in all_presets() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn functional_units_model_enqueue_equals_latency() {
        let m = functional_units();
        for p in m.pipelines() {
            assert!(p.is_unpipelined_unit());
        }
    }

    #[test]
    fn unpipelined_machine_has_no_resources() {
        let m = unpipelined();
        assert_eq!(m.pipeline_count(), 0);
        for op in Op::BLOCK_OPS {
            assert!(m.pipelines_for(op).is_empty());
        }
    }
}
