//! Basic blocks and variable interning.

use std::fmt;

use crate::error::IrError;
use crate::op::Op;
use crate::operand::Operand;
use crate::tuple::{Tuple, TupleId};

/// Interned index of a program variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Bidirectional interning table for variable names. The names are
/// stored back to back in one buffer; an open-addressing table of ids
/// finds a name again.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// Every distinct name, concatenated in id order.
    text: String,
    /// `ends[id]` is where name `id` ends in `text`.
    ends: Vec<u32>,
    /// Ids ([`EMPTY`] for a free slot), a power of two at least twice as
    /// long as `ends`, probed linearly.
    slots: Vec<u32>,
}

const EMPTY: u32 = u32::MAX;

/// Two tables are equal when they hold the same names in the same order.
impl PartialEq for SymbolTable {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text && self.ends == other.ends
    }
}

impl Eq for SymbolTable {}

/// A name's home slot: its bytes folded eight at a time through a 64×64 →
/// 128-bit multiply, which spreads every input bit over the low bits the
/// slot mask keeps.
fn slot_hash(name: &str) -> usize {
    let mut h = name.len() as u64;
    for chunk in name.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let m = u128::from(h ^ u64::from_le_bytes(word)) * 0x9E37_79B9_7F4A_7C15;
        h = (m as u64) ^ ((m >> 64) as u64);
    }
    h as usize
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The name of id `i`, which exists.
    fn name_at(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The slot holding `name`, or the free slot where it belongs.
    fn probe(&self, name: &str) -> (usize, Option<VarId>) {
        let mask = self.slots.len() - 1;
        let mut slot = slot_hash(name) & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return (slot, None),
                i if self.name_at(i as usize) == name => return (slot, Some(VarId(i))),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Intern `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> VarId {
        let len = self.ends.len();
        if self.slots.len() < 2 * (len + 1) {
            self.slots = vec![EMPTY; (2 * (len + 1)).next_power_of_two().max(32)];
            for i in 0..len {
                let (slot, _) = self.probe(self.name_at(i));
                self.slots[slot] = i as u32;
            }
        }
        let (slot, found) = self.probe(name);
        found.unwrap_or_else(|| {
            self.text.push_str(name);
            self.ends.push(self.text.len() as u32);
            self.slots[slot] = len as u32;
            VarId(len as u32)
        })
    }

    /// Look up a previously interned name.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(name).1
    }

    /// The name for `id`, if it exists.
    pub fn name(&self, id: VarId) -> Option<&str> {
        let i = id.0 as usize;
        (i < self.ends.len()).then(|| self.name_at(i))
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when no variables have been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

/// A straight-line sequence of tuples: the unit of scheduling.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BasicBlock {
    /// Optional label for diagnostics.
    pub name: String,
    tuples: Vec<Tuple>,
    symbols: SymbolTable,
}

impl BasicBlock {
    /// Create an empty block.
    pub fn new(name: impl Into<String>) -> Self {
        BasicBlock {
            name: name.into(),
            tuples: Vec::new(),
            symbols: SymbolTable::new(),
        }
    }

    /// Append a tuple with the given op and operands; returns its id.
    pub fn push(&mut self, op: Op, a: Operand, b: Operand) -> TupleId {
        let id = TupleId(self.tuples.len() as u32);
        self.tuples.push(Tuple::new(id, op, a, b));
        id
    }

    /// Intern a variable name in the block's symbol table.
    pub fn intern(&mut self, name: &str) -> VarId {
        self.symbols.intern(name)
    }

    /// The block's tuples in program order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// The tuple with the given id.
    pub fn tuple(&self, id: TupleId) -> &Tuple {
        &self.tuples[id.index()]
    }

    /// Number of tuples in the block.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the block has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The block's symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Iterate over tuple ids in program order.
    pub fn ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        (0..self.tuples.len() as u32).map(TupleId)
    }

    /// Replace the block's tuples wholesale (used by rewriting passes).
    ///
    /// The caller is responsible for id consistency; [`BasicBlock::verify`]
    /// checks it.
    pub fn replace_tuples(&mut self, tuples: Vec<Tuple>) {
        self.tuples = tuples;
    }

    /// Structural validity check: ids are sequential, operand arity matches
    /// each op, tuple references point strictly backwards and only at
    /// value-producing tuples, and no `Nop` appears.
    pub fn verify(&self) -> Result<(), IrError> {
        for (i, t) in self.tuples.iter().enumerate() {
            if t.id.index() != i {
                return Err(IrError::BadOperands {
                    tuple: t.id,
                    reason: format!("tuple id {} does not match position {}", t.id, i + 1),
                });
            }
            if t.op == Op::Nop {
                return Err(IrError::BadOperands {
                    tuple: t.id,
                    reason: "Nop is not a schedulable block instruction".into(),
                });
            }
            let present = [&t.a, &t.b].iter().filter(|o| !o.is_none()).count();
            if present != t.op.arity() {
                return Err(IrError::BadOperands {
                    tuple: t.id,
                    reason: format!(
                        "{} takes {} operand(s), found {}",
                        t.op,
                        t.op.arity(),
                        present
                    ),
                });
            }
            for target in t.tuple_refs() {
                if target.index() >= i {
                    return Err(IrError::ForwardReference {
                        tuple: t.id,
                        target,
                    });
                }
                if !self.tuples[target.index()].op.produces_value() {
                    return Err(IrError::ValuelessReference {
                        tuple: t.id,
                        target,
                    });
                }
            }
            match t.op {
                Op::Const if t.a.as_imm().is_none() => {
                    return Err(IrError::BadOperands {
                        tuple: t.id,
                        reason: "Const requires an immediate operand".into(),
                    });
                }
                Op::Load if t.a.as_var().is_none() => {
                    return Err(IrError::BadOperands {
                        tuple: t.id,
                        reason: "Load requires a variable operand".into(),
                    });
                }
                Op::Store if t.a.as_var().is_none() => {
                    return Err(IrError::BadOperands {
                        tuple: t.id,
                        reason: "Store requires a variable first operand".into(),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

impl fmt::Display for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tuples {
            // Render variable operands with their names where known.
            write!(f, "{}: {}", t.id, t.op)?;
            let mut first = true;
            for o in [t.a, t.b] {
                if o.is_none() {
                    continue;
                }
                let sep = if first { " " } else { ", " };
                first = false;
                match o {
                    Operand::Var(v) => match self.symbols.name(v) {
                        Some(name) => write!(f, "{sep}#{name}")?,
                        None => write!(f, "{sep}#v{}", v.0)?,
                    },
                    other => write!(f, "{sep}{other}")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the paper's Figure 3 block: `b = 15; a = b * a;`
    pub(crate) fn figure3_block() -> BasicBlock {
        let mut bb = BasicBlock::new("fig3");
        let a = bb.intern("a");
        let b = bb.intern("b");
        let c15 = bb.push(Op::Const, Operand::Imm(15), Operand::None);
        bb.push(Op::Store, Operand::Var(b), Operand::Tuple(c15));
        let la = bb.push(Op::Load, Operand::Var(a), Operand::None);
        let mul = bb.push(Op::Mul, Operand::Tuple(c15), Operand::Tuple(la));
        bb.push(Op::Store, Operand::Var(a), Operand::Tuple(mul));
        bb
    }

    #[test]
    fn figure3_verifies_and_prints() {
        let bb = figure3_block();
        bb.verify().unwrap();
        let text = bb.to_string();
        assert!(text.contains("1: Const 15"), "{text}");
        assert!(text.contains("2: Store #b, @1"), "{text}");
        assert!(text.contains("4: Mul @1, @3"), "{text}");
    }

    #[test]
    fn symbol_table_interns_stably() {
        let mut st = SymbolTable::new();
        let a1 = st.intern("alpha");
        let b = st.intern("beta");
        let a2 = st.intern("alpha");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(st.name(a1), Some("alpha"));
        assert_eq!(st.lookup("beta"), Some(b));
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn verify_rejects_forward_reference() {
        let mut bb = BasicBlock::new("bad");
        // Tuple 1 references tuple 2 (forward).
        bb.replace_tuples(vec![
            Tuple {
                id: TupleId(0),
                op: Op::Neg,
                a: Operand::Tuple(TupleId(1)),
                b: Operand::None,
            },
            Tuple {
                id: TupleId(1),
                op: Op::Const,
                a: Operand::Imm(1),
                b: Operand::None,
            },
        ]);
        assert!(matches!(bb.verify(), Err(IrError::ForwardReference { .. })));
    }

    #[test]
    fn verify_rejects_reference_to_store_result() {
        let mut bb = BasicBlock::new("bad");
        let v = bb.intern("x");
        let c = bb.push(Op::Const, Operand::Imm(1), Operand::None);
        let s = bb.push(Op::Store, Operand::Var(v), Operand::Tuple(c));
        bb.push(Op::Neg, Operand::Tuple(s), Operand::None);
        assert!(matches!(
            bb.verify(),
            Err(IrError::ValuelessReference { .. })
        ));
    }

    #[test]
    fn verify_rejects_wrong_arity() {
        let mut bb = BasicBlock::new("bad");
        bb.replace_tuples(vec![Tuple {
            id: TupleId(0),
            op: Op::Add,
            a: Operand::Imm(1),
            b: Operand::None,
        }]);
        assert!(matches!(bb.verify(), Err(IrError::BadOperands { .. })));
    }

    #[test]
    fn verify_rejects_const_without_imm() {
        let mut bb = BasicBlock::new("bad");
        let v = bb.intern("x");
        bb.replace_tuples(vec![Tuple {
            id: TupleId(0),
            op: Op::Const,
            a: Operand::Var(v),
            b: Operand::None,
        }]);
        assert!(bb.verify().is_err());
    }
}
