//! Textual tuple format, round-trippable with `BasicBlock`'s `Display`.
//!
//! Grammar (one tuple per line, `;` starts a comment):
//!
//! ```text
//! 1: Const 15
//! 2: Store #b, @1
//! 3: Load #a
//! 4: Mul @1, @3
//! 5: Store #a, @4
//! ```
//!
//! `#name` is a variable, `@k` the (1-based) result of tuple `k`, a bare
//! integer an immediate.

use crate::block::BasicBlock;
use crate::error::IrError;
use crate::op::Op;
use crate::operand::Operand;
use crate::tuple::{Tuple, TupleId};

/// Whether `text` is tuple text rather than expression source: a `;;
/// tuples` header, or a first line that is neither blank nor a `;`
/// comment and reads `<id>: …`, its id an unsigned integer as
/// [`parse_block`] reads one (`1`, ` 1 `, `01`, `+1`). The expression
/// language has no line of that shape.
pub fn is_tuple_text(text: &str) -> bool {
    for line in text.lines().map(str::trim) {
        if line.starts_with(";; tuples") {
            return true;
        }
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        return line.split_once(':').is_some_and(|(id, _)| {
            let id = id.trim();
            let digits = id.strip_prefix('+').unwrap_or(id);
            !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
        });
    }
    false
}

/// Parse the textual tuple format into a verified basic block.
///
/// The text is read byte by byte: one scan finds each line's end and its
/// comment, and the `:`, the mnemonic, the operand commas and the digits
/// are found within the line without splitting it into strings.
/// Whitespace is Unicode whitespace, as `str::trim` has it, so a CRLF line
/// ending trims like a space.
pub fn parse_block(name: &str, text: &str) -> Result<BasicBlock, IrError> {
    let mut block = BasicBlock::new(name);
    let bytes = text.as_bytes();
    let mut tuples = Vec::with_capacity(bytes.iter().filter(|&&b| b == b'\n').count() + 1);
    let (mut start, mut line) = (0, 0);
    while start <= bytes.len() {
        line += 1;
        let parse_error = |message: String| IrError::Parse { line, message };
        // One scan to the end of the line, noting where a `;` comment starts.
        let (mut end, mut cut) = (start, None);
        while end < bytes.len() && bytes[end] != b'\n' {
            if bytes[end] == b';' && cut.is_none() {
                cut = Some(end);
            }
            end += 1;
        }
        let content = trim(&text[start..cut.unwrap_or(end)]);
        start = end + 1;
        if content.is_empty() {
            continue;
        }
        let colon = content
            .bytes()
            .position(|b| b == b':')
            .ok_or_else(|| parse_error("expected `<id>: <Op> ...`".into()))?;
        let id_text = trim(&content[..colon]);
        let expected = tuples.len() as u32 + 1;
        match parse_u32(id_text) {
            Some(id) if id == expected => {}
            Some(id) => {
                return Err(parse_error(format!(
                    "tuple id {id} out of sequence (expected {expected})"
                )))
            }
            None => return Err(parse_error(format!("invalid tuple id `{id_text}`"))),
        }
        let rest = trim(&content[colon + 1..]);
        let op_end = whitespace_at(rest);
        let op: Op = rest[..op_end].parse()?;
        let mut operands = [Operand::None; 2];
        let mut list = Some(trim(&rest[op_end..])).filter(|l| !l.is_empty());
        for slot in &mut operands {
            let Some(text) = list else { break };
            let (first, more) = match text.bytes().position(|b| b == b',') {
                Some(comma) => (&text[..comma], Some(&text[comma + 1..])),
                None => (text, None),
            };
            *slot = parse_operand(trim(first), line, &mut block)?;
            list = more;
        }
        if list.is_some() {
            return Err(parse_error("more than two operands".into()));
        }
        // Not `BasicBlock::push`: its arity check is a debug assertion, and
        // a wrong operand count in untrusted text is `verify`'s diagnostic.
        tuples.push(Tuple {
            id: TupleId(expected - 1),
            op,
            a: operands[0],
            b: operands[1],
        });
    }
    block.replace_tuples(tuples);
    block.verify()?;
    Ok(block)
}

/// `char::is_whitespace` on an ASCII byte.
fn ascii_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\x0B' | b'\x0C' | b'\r')
}

/// `str::trim`, with ASCII whitespace stripped byte by byte; only an end
/// that is not ASCII goes through the Unicode trim.
fn trim(s: &str) -> &str {
    let b = s.as_bytes();
    let (mut start, mut end) = (0, b.len());
    while start < end && ascii_space(b[start]) {
        start += 1;
    }
    while end > start && ascii_space(b[end - 1]) {
        end -= 1;
    }
    let t = &s[start..end];
    if t.bytes().next().is_some_and(|c| !c.is_ascii())
        || t.bytes().next_back().is_some_and(|c| !c.is_ascii())
    {
        t.trim()
    } else {
        t
    }
}

/// The byte offset of the first whitespace character in `s`, or its length.
fn whitespace_at(s: &str) -> usize {
    match s.bytes().position(|b| ascii_space(b) || !b.is_ascii()) {
        Some(i) if !s.as_bytes()[i].is_ascii() => s[i..]
            .char_indices()
            .find(|&(_, c)| c.is_whitespace())
            .map_or(s.len(), |(j, _)| i + j),
        Some(i) => i,
        None => s.len(),
    }
}

/// At least one ASCII digit, read as a `u64` without overflow.
fn digits(s: &str) -> Option<u64> {
    if s.is_empty() {
        return None;
    }
    s.bytes().try_fold(0u64, |n, b| {
        let d = b.wrapping_sub(b'0');
        (d <= 9).then_some(())?;
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// A tuple id or reference as `u32::from_str` reads it: an optional `+`,
/// then digits, within `u32`.
fn parse_u32(s: &str) -> Option<u32> {
    u32::try_from(digits(s.strip_prefix('+').unwrap_or(s))?).ok()
}

/// An immediate as `i64::from_str` reads it: an optional sign, then
/// digits, within `i64`.
fn parse_i64(s: &str) -> Option<i64> {
    match s.as_bytes().first() {
        Some(b'-') => 0i64.checked_sub_unsigned(digits(&s[1..])?),
        Some(b'+') => i64::try_from(digits(&s[1..])?).ok(),
        _ => i64::try_from(digits(s)?).ok(),
    }
}

fn parse_operand(text: &str, line: usize, block: &mut BasicBlock) -> Result<Operand, IrError> {
    let parse_error = |message: String| IrError::Parse { line, message };
    match text.as_bytes().first() {
        Some(b'_') if text.len() == 1 => Ok(Operand::None),
        Some(b'#') if text.len() == 1 => Err(parse_error("empty variable name".into())),
        Some(b'#') => Ok(Operand::Var(block.intern(&text[1..]))),
        Some(b'@') => match parse_u32(&text[1..]) {
            Some(0) => Err(parse_error("tuple references are 1-based".into())),
            Some(k) => Ok(Operand::Tuple(TupleId(k - 1))),
            None => Err(parse_error(format!("invalid tuple reference `{text}`"))),
        },
        _ => parse_i64(text)
            .map(Operand::Imm)
            .ok_or_else(|| parse_error(format!("cannot parse operand `{text}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BlockBuilder;

    const FIG3: &str = "\
1: Const 15
2: Store #b, @1
3: Load #a
4: Mul @1, @3
5: Store #a, @4
";

    #[test]
    fn tuple_text_is_told_from_source_by_its_first_line() {
        assert!(is_tuple_text(FIG3));
        assert!(is_tuple_text(";; tuples\nanything"));
        assert!(is_tuple_text("; note\n\n +01 : Load #a"));
        assert!(!is_tuple_text("a = b * c;"));
        assert!(!is_tuple_text("label:\n1: Load #a"));
        assert!(!is_tuple_text("; only a comment\n"));
    }

    #[test]
    fn parses_figure3() {
        let bb = parse_block("fig3", FIG3).unwrap();
        assert_eq!(bb.len(), 5);
        assert_eq!(bb.tuple(TupleId(3)).op, Op::Mul);
        assert_eq!(bb.tuple(TupleId(0)).a, Operand::Imm(15));
    }

    #[test]
    fn round_trips_display() {
        let mut b = BlockBuilder::new("rt");
        let x = b.load("x");
        let y = b.load("y");
        let s = b.add(x, y);
        b.store("z", s);
        let bb = b.finish().unwrap();
        let text = bb.to_string();
        let back = parse_block("rt", &text).unwrap();
        assert_eq!(back.len(), bb.len());
        for (a, b) in back.tuples().iter().zip(bb.tuples()) {
            assert_eq!(a.op, b.op);
        }
        // And a second round trip is a fixpoint.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "; header comment\n\n1: Const 1 ; trailing\n\n2: Store #x, @1\n";
        let bb = parse_block("c", text).unwrap();
        assert_eq!(bb.len(), 2);
    }

    #[test]
    fn rejects_out_of_sequence_ids() {
        let text = "1: Const 1\n3: Store #x, @1\n";
        assert!(matches!(
            parse_block("bad", text),
            Err(IrError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_unknown_op_and_bad_operand() {
        assert!(parse_block("bad", "1: Fnord 1\n").is_err());
        assert!(parse_block("bad", "1: Const %x\n").is_err());
        assert!(parse_block("bad", "1: Const @0\n").is_err());
        assert!(parse_block("bad", "1: Add 1, 2, 3\n").is_err());
    }

    #[test]
    fn rejects_forward_reference_via_verify() {
        let text = "1: Neg @2\n2: Const 1\n";
        assert!(parse_block("bad", text).is_err());
    }
}
