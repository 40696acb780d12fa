//! Unchecked-arithmetic: raw integer operators in kernel scope.
//!
//! The bit-packing kernels (`run_word`'s tag|len|literal framing, the
//! pattern-hash kernel's tokens, the detector's memo keys, the pipeline's
//! intern ids) are exactly the code where a silent wrap or truncation
//! corrupts results instead of crashing. In files under
//! [`FileClass::arith_scope`](crate::FileClass) this rule flags:
//!
//! - binary `+` and `*` where at least one *immediate* operand is an
//!   integer literal (`self.pos + 1`, `threads * 4`) — the
//!   literal-operand requirement keeps trait bounds (`Clone + Send`) and
//!   generic variable math out of scope while catching the increment /
//!   scale patterns that overflow at the margins;
//! - every `<<` shift in expression position — shifted-out bits vanish
//!   silently, so each shift needs a width argument (`wrapping_shl`) or
//!   a justification;
//! - `as` casts to a type narrower than 64 bits (`u8`…`u32`, `i8`…`i32`)
//!   — `as` truncates without complaint; `try_from` or a marker saying
//!   why the value provably fits.
//!
//! The fix vocabulary is `wrapping_*` / `checked_*` / `saturating_*` /
//! `try_from` — all method calls, so fixed code stops matching the raw
//! operator patterns with no special-casing here. Anything intentional
//! carries a justified `adt-allow` + `(unchecked-arithmetic): <reason>`
//! marker (spelled split here so this comment is not itself a marker).

use crate::lexer::{TokKind, Token};
use crate::scopes::in_spans;
use crate::{FileClass, RawFinding};

/// Cast targets narrower than 64 bits.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

pub fn unchecked_arithmetic(
    tokens: &[Token],
    skip: &[(usize, usize)],
    class: &FileClass,
    out: &mut Vec<RawFinding>,
) {
    if !class.arith_scope {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if in_spans(skip, i) {
            continue;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "+" | "*" => binary_op(tokens, i, out),
                "<" => shift(tokens, i, out),
                _ => {}
            }
        }
        if t.is_ident("as") {
            narrowing_cast(tokens, i, out);
        }
    }
}

/// Flags `a + b` / `a * b` when one immediate operand is an int literal.
fn binary_op(tokens: &[Token], i: usize, out: &mut Vec<RawFinding>) {
    let op = &tokens[i];
    let (Some(prev), Some(next)) = (i.checked_sub(1).map(|p| &tokens[p]), tokens.get(i + 1)) else {
        return;
    };
    // Expression position: the left side must end an operand. Rules out
    // unary deref/ref positions and type syntax.
    let expr_pos = prev.kind == TokKind::Ident
        || prev.kind == TokKind::Num
        || prev.is_punct(')')
        || prev.is_punct(']');
    if !expr_pos {
        return;
    }
    // `+=` / `*=` are read-modify-write on an existing binding; the
    // overflow semantics question is the same but the idiomatic fix is a
    // different statement shape — out of scope for this rule.
    if next.is_punct('=') {
        return;
    }
    if op.text == "*" {
        // Right side must start an operand (rules out `*const` / `*mut`
        // raw-pointer types and deref chains).
        let operand = next.kind == TokKind::Num
            || next.is_punct('(')
            || (next.kind == TokKind::Ident && !next.is_ident("const") && !next.is_ident("mut"));
        if !operand {
            return;
        }
    }
    let literal = is_int_literal(prev) || is_int_literal(next);
    if !literal {
        return;
    }
    out.push(RawFinding {
        rule: "unchecked-arithmetic",
        line: op.line,
        message: format!(
            "raw `{}` with an integer-literal operand in kernel scope; use \
             `wrapping_*`/`checked_*`/`saturating_*` or justify the bound",
            op.text
        ),
    });
}

/// Flags `a << b`. The lexer emits `<<` as two adjacent `<` puncts;
/// generics never produce adjacent `<`s with an operand on the left
/// (`Vec<Vec<…>>` separates them with the inner type name), and
/// turbofish is excluded because its `<` follows `:`.
fn shift(tokens: &[Token], i: usize, out: &mut Vec<RawFinding>) {
    if !tokens.get(i + 1).is_some_and(|n| n.is_punct('<')) {
        return;
    }
    // `<<=` compound assign: same carve-out as `+=`.
    if tokens.get(i + 2).is_some_and(|n| n.is_punct('=')) {
        return;
    }
    let Some(prev) = i.checked_sub(1).map(|p| &tokens[p]) else {
        return;
    };
    let expr_pos = prev.kind == TokKind::Ident
        || prev.kind == TokKind::Num
        || prev.is_punct(')')
        || prev.is_punct(']');
    if !expr_pos {
        return;
    }
    out.push(RawFinding {
        rule: "unchecked-arithmetic",
        line: tokens[i].line,
        message: "raw `<<` shift in kernel scope; shifted-out bits vanish silently — \
                  use `wrapping_shl`/`checked_shl` or justify the width"
            .to_string(),
    });
}

/// Flags `expr as u32` and the other sub-64-bit integer targets.
fn narrowing_cast(tokens: &[Token], i: usize, out: &mut Vec<RawFinding>) {
    let Some(ty) = tokens.get(i + 1) else {
        return;
    };
    if ty.kind != TokKind::Ident || !NARROW_INTS.contains(&ty.text.as_str()) {
        return;
    }
    out.push(RawFinding {
        rule: "unchecked-arithmetic",
        line: tokens[i].line,
        message: format!(
            "truncating `as {}` cast in kernel scope; use `try_from` or justify \
             why the value fits",
            ty.text
        ),
    });
}

/// Typed integer suffixes — checked before the float heuristics because
/// `usize`/`isize` contain an `e` that would otherwise read as an
/// exponent.
const INT_SUFFIXES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Integer literal: a `Num` token that is not float-shaped. Prefixed
/// literals (`0x…`, `0o…`, `0b…`) and int-suffixed literals are always
/// integers; otherwise floats are recognized by a `.`, a decimal
/// exponent, or an `f32`/`f64` suffix.
fn is_int_literal(t: &Token) -> bool {
    if t.kind != TokKind::Num {
        return false;
    }
    let s = t.text.as_str();
    if s.starts_with("0x") || s.starts_with("0X") || s.starts_with("0o") || s.starts_with("0b") {
        return true;
    }
    if INT_SUFFIXES.iter().any(|suf| s.ends_with(suf)) {
        return true;
    }
    !(s.contains('.')
        || s.contains('e')
        || s.contains('E')
        || s.ends_with("f32")
        || s.ends_with("f64"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scopes::{test_spans, Braces};

    fn run(src: &str) -> Vec<RawFinding> {
        let lx = lex(src);
        let braces = Braces::build(&lx.tokens);
        let skip = test_spans(&lx.tokens, &braces);
        let class = FileClass {
            arith_scope: true,
            ..FileClass::default()
        };
        let mut out = Vec::new();
        unchecked_arithmetic(&lx.tokens, &skip, &class, &mut out);
        out
    }

    #[test]
    fn literal_add_and_mul_flagged() {
        let f = run("fn f(p: usize, t: usize) { let a = p + 1; let b = t * 4; }");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("raw `+`"));
        assert!(f[1].message.contains("raw `*`"));
    }

    #[test]
    fn variable_only_math_not_flagged() {
        let f = run("fn f(a: usize, b: usize) { let c = a + b; let d = a * b; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn trait_bounds_and_impl_sums_not_flagged() {
        let f = run("fn f<T: Clone + Send>(x: T) -> impl Iterator<Item = T> + '_ { once(x) }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wrapping_and_compound_assign_not_flagged() {
        let f = run("fn f(a: u64) { let b = a.wrapping_mul(3); let mut c = 0; c += 1; c <<= 2; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn shifts_flagged_regardless_of_operands() {
        let f = run("fn f(len: u64, lit: u64) { let w = 1u64 | len << 8 | lit << 40; }");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("raw `<<`"));
    }

    #[test]
    fn generics_and_turbofish_not_shifts() {
        let f = run(
            "fn f(v: Vec<Vec<u8>>) { let n = v.len(); let s = Vec::<u8>::new(); let c = n < 3; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn narrowing_casts_flagged_widening_not() {
        let f = run(
            "fn f(n: usize, c: char) { let a = n as u32; let b = n as u64; let d = c as usize; }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("as u32"));
    }

    #[test]
    fn float_literals_and_strings_not_flagged() {
        let f = run(
            "fn f(x: f64, s: String) { let a = x + 1.5; let b = x * 2.0e3; let c = s + \"x\"; }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn raw_pointer_types_not_mul() {
        let f = run("fn f(p: *const u8, q: *mut u8) { unsafe { let a = *p; } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn out_of_scope_is_silent() {
        let lx = lex("fn f(p: usize) { let a = p + 1; }");
        let braces = Braces::build(&lx.tokens);
        let skip = test_spans(&lx.tokens, &braces);
        let mut out = Vec::new();
        unchecked_arithmetic(&lx.tokens, &skip, &FileClass::default(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn test_spans_are_skipped() {
        let f = run("#[cfg(test)]\nmod tests { fn t() { let a = 1 + 1; } }");
        assert!(f.is_empty(), "{f:?}");
    }
}
