//! Operation types carried by tuples.

use std::fmt;
use std::str::FromStr;

use crate::error::IrError;

/// The operation performed by a tuple.
///
/// The set mirrors the paper's examples (Figure 3 and Tables 3/5/6):
/// `Const`, `Load`, `Store` plus the four arithmetic operations. `Neg` and
/// `Mov` are used by the front end (unary minus, copy propagation targets);
/// `Nop` appears only in *emitted* padded programs, never inside a basic
/// block handed to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    /// Materialize an immediate constant (`α` is [`crate::Operand::Imm`]).
    Const,
    /// Load a variable from memory (`α` is a variable).
    Load,
    /// Store a value to a variable (`α` is the variable, `β` the value).
    Store,
    /// Two's-complement addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer; division by zero is a front-end error).
    Div,
    /// Unary negation.
    Neg,
    /// Register-to-register copy.
    Mov,
    /// Null operation; only valid in padded output programs.
    Nop,
}

impl Op {
    /// Number of operations, `Nop` included: `op as usize` is always
    /// below it, so a table indexed by operation has this many slots.
    pub const COUNT: usize = Op::Nop as usize + 1;

    /// All operations a basic block may contain (everything except `Nop`).
    pub const BLOCK_OPS: [Op; 9] = [
        Op::Const,
        Op::Load,
        Op::Store,
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::Neg,
        Op::Mov,
    ];

    /// Number of operands the operation consumes (0, 1 or 2).
    pub fn arity(self) -> usize {
        match self {
            Op::Nop => 0,
            Op::Const | Op::Load => 1,
            Op::Neg | Op::Mov => 1,
            Op::Store => 2,
            Op::Add | Op::Sub | Op::Mul | Op::Div => 2,
        }
    }

    /// True for operations whose operand order does not matter.
    pub fn is_commutative(self) -> bool {
        matches!(self, Op::Add | Op::Mul)
    }

    /// True if the tuple produces a value other tuples may reference.
    pub fn produces_value(self) -> bool {
        !matches!(self, Op::Store | Op::Nop)
    }

    /// True if the operation touches memory (loads and stores).
    pub fn touches_memory(self) -> bool {
        matches!(self, Op::Load | Op::Store)
    }

    /// True if the operation has a side effect that makes it a DAG root
    /// (cannot be dead-code eliminated).
    pub fn has_side_effect(self) -> bool {
        matches!(self, Op::Store)
    }

    /// Assembly-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::Const => "Const",
            Op::Load => "Load",
            Op::Store => "Store",
            Op::Add => "Add",
            Op::Sub => "Sub",
            Op::Mul => "Mul",
            Op::Div => "Div",
            Op::Neg => "Neg",
            Op::Mov => "Mov",
            Op::Nop => "Nop",
        }
    }

    /// Apply the operation to constant inputs (used by constant folding).
    ///
    /// Returns `None` when the operation is not a pure arithmetic op or the
    /// evaluation is undefined (overflow, division by zero).
    pub fn fold(self, a: i64, b: i64) -> Option<i64> {
        match self {
            Op::Add => a.checked_add(b),
            Op::Sub => a.checked_sub(b),
            Op::Mul => a.checked_mul(b),
            Op::Div => {
                if b == 0 {
                    None
                } else {
                    a.checked_div(b)
                }
            }
            _ => None,
        }
    }

    /// Apply a unary operation to a constant input.
    pub fn fold_unary(self, a: i64) -> Option<i64> {
        match self {
            Op::Neg => a.checked_neg(),
            Op::Mov => Some(a),
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl FromStr for Op {
    type Err = IrError;

    /// A mnemonic as written (`Load`), in lower case or in upper case.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let candidates: &[Op] = match s.as_bytes().first().map(u8::to_ascii_lowercase) {
            Some(b'a') => &[Op::Add],
            Some(b'c') => &[Op::Const],
            Some(b'd') => &[Op::Div],
            Some(b'l') => &[Op::Load],
            Some(b'm') => &[Op::Mul, Op::Mov],
            Some(b'n') => &[Op::Neg, Op::Nop],
            Some(b's') => &[Op::Store, Op::Sub],
            _ => &[],
        };
        candidates
            .iter()
            .copied()
            .find(|op| {
                let m = op.mnemonic();
                s == m
                    || s.eq_ignore_ascii_case(m)
                        && (s.bytes().all(|b| b.is_ascii_lowercase())
                            || s.bytes().all(|b| b.is_ascii_uppercase()))
            })
            .ok_or_else(|| IrError::UnknownOp(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_matches_operand_count() {
        assert_eq!(Op::Const.arity(), 1);
        assert_eq!(Op::Load.arity(), 1);
        assert_eq!(Op::Store.arity(), 2);
        assert_eq!(Op::Add.arity(), 2);
        assert_eq!(Op::Neg.arity(), 1);
        assert_eq!(Op::Nop.arity(), 0);
    }

    #[test]
    fn commutativity() {
        assert!(Op::Add.is_commutative());
        assert!(Op::Mul.is_commutative());
        assert!(!Op::Sub.is_commutative());
        assert!(!Op::Div.is_commutative());
        assert!(!Op::Store.is_commutative());
    }

    #[test]
    fn store_has_side_effect_and_no_value() {
        assert!(Op::Store.has_side_effect());
        assert!(!Op::Store.produces_value());
        assert!(Op::Load.produces_value());
    }

    #[test]
    fn fold_arithmetic() {
        assert_eq!(Op::Add.fold(2, 3), Some(5));
        assert_eq!(Op::Sub.fold(2, 3), Some(-1));
        assert_eq!(Op::Mul.fold(4, 5), Some(20));
        assert_eq!(Op::Div.fold(10, 2), Some(5));
        assert_eq!(Op::Div.fold(10, 0), None);
        assert_eq!(Op::Add.fold(i64::MAX, 1), None);
        assert_eq!(Op::Load.fold(1, 2), None);
    }

    #[test]
    fn fold_unary_ops() {
        assert_eq!(Op::Neg.fold_unary(5), Some(-5));
        assert_eq!(Op::Mov.fold_unary(7), Some(7));
        assert_eq!(Op::Neg.fold_unary(i64::MIN), None);
        assert_eq!(Op::Add.fold_unary(1), None);
    }

    #[test]
    fn parse_round_trip() {
        for op in Op::BLOCK_OPS {
            let text = op.to_string();
            let back: Op = text.parse().unwrap();
            assert_eq!(back, op);
        }
        assert!("Frobnicate".parse::<Op>().is_err());
    }
}
