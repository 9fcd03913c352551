//! Textual form of programs: debugging dumps, `mcpart dump`, golden
//! tests, and the content hashes that tie checkpoints to programs.
//!
//! [`write_function`] and [`write_program`] are the one printer. They
//! write straight into any [`fmt::Write`] sink and build no
//! intermediate strings, so a caller that only needs a hash of the text
//! streams it into a hashing sink instead of materializing it.
//! [`function_to_string`] and [`program_to_string`] collect the same
//! bytes into a `String`.

use crate::block::Terminator;
use crate::func::Function;
use crate::program::Program;
use std::fmt::{self, Display, Write};

/// Writes `items` separated by `", "`.
fn write_list<W: Write + ?Sized>(out: &mut W, items: &[impl Display]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        write!(out, "{item}")?;
    }
    Ok(())
}

/// Writes the text of one function into `out`.
///
/// # Errors
///
/// Only what `out` itself returns.
pub fn write_function<W: Write + ?Sized>(out: &mut W, func: &Function) -> fmt::Result {
    write!(out, "func {}(", func.name)?;
    write_list(out, &func.params)?;
    out.write_str(") {\n")?;
    for (bid, block) in func.blocks.iter() {
        writeln!(out, "{bid} ({}):", block.label)?;
        for &op_id in &block.ops {
            let op = &func.ops[op_id];
            write!(out, "  {op_id}: ")?;
            if !op.dsts.is_empty() {
                write_list(out, &op.dsts)?;
                out.write_str(" = ")?;
            }
            write!(out, "{}", op.opcode)?;
            if !op.srcs.is_empty() {
                out.write_char(' ')?;
                write_list(out, &op.srcs)?;
            }
            out.write_char('\n')?;
        }
        match &block.term {
            Some(Terminator::Jump(t)) => writeln!(out, "  -> {t}")?,
            Some(Terminator::Branch { cond, then_block, else_block }) => {
                writeln!(out, "  -> if {cond} then {then_block} else {else_block}")?
            }
            Some(Terminator::Return(Some(v))) => writeln!(out, "  -> return {v}")?,
            Some(Terminator::Return(None)) => out.write_str("  -> return\n")?,
            None => out.write_str("  -> <unterminated>\n")?,
        }
    }
    out.write_str("}\n")
}

/// Writes the text of a whole program, including its data object
/// table, into `out`.
///
/// # Errors
///
/// Only what `out` itself returns.
pub fn write_program<W: Write + ?Sized>(out: &mut W, program: &Program) -> fmt::Result {
    writeln!(out, "program {}", program.name)?;
    writeln!(out, "entry {}", program.entry)?;
    for (oid, obj) in program.objects.iter() {
        writeln!(out, "  {oid}: {obj}")?;
    }
    for func in program.functions.values() {
        write_function(out, func)?;
    }
    Ok(())
}

/// Renders a function as readable text.
pub fn function_to_string(func: &Function) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write_function(&mut out, func);
    out
}

/// Renders a whole program, including its data object table.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    let _ = write_program(&mut out, program);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::object::DataObject;
    use crate::opcode::MemWidth;

    #[test]
    fn printing_mentions_everything() {
        let mut p = Program::new("demo");
        let obj = p.add_object(DataObject::global("tbl", 32));
        let mut b = FunctionBuilder::entry(&mut p);
        let a = b.addrof(obj);
        let v = b.load(MemWidth::B2, a);
        b.ret(Some(v));
        let text = program_to_string(&p);
        assert!(text.contains("program demo"));
        assert!(text.contains("tbl"));
        assert!(text.contains("load.2"));
        assert!(text.contains("return"));
    }

    #[test]
    fn printed_text_is_exact() {
        let mut p = Program::new("demo");
        let obj = p.add_object(DataObject::global("tbl", 32));
        let callee = {
            let mut b = FunctionBuilder::new_function(&mut p, "sum");
            let x = b.param();
            let y = b.param();
            let s = b.add(x, y);
            b.ret(Some(s));
            b.func_id()
        };
        let mut b = FunctionBuilder::entry(&mut p);
        let a = b.addrof(obj);
        b.fconst(-0.5);
        let v = b.load(MemWidth::B2, a);
        let r = b.call(callee, vec![v, v], 1);
        b.store(MemWidth::B4, a, r[0]);
        b.ret(None);
        let text = program_to_string(&p);
        assert_eq!(
            text,
            "program demo\nentry fn0\n  obj0: global tbl (32 bytes)\n\
             func main() {\nbb0 (entry):\n  op0: v0 = addrof obj0\n  op1: v1 = fconst -0.5\n\
             \x20 op2: v2 = load.2 v0\n  op3: v3 = call fn1 v2, v2\n  op4: store.4 v0, v3\n\
             \x20 op5: ret\n  -> return\n}\n\
             func sum(v0, v1) {\nbb0 (entry):\n  op0: v2 = add v0, v1\n  op1: ret v2\n\
             \x20 -> return v2\n}\n"
        );
        assert!(text.ends_with(&function_to_string(&p.functions[callee])));
    }
}
