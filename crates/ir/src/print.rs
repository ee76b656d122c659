//! Textual IR dumps in the paper's appendix format (A.6.2/A.6.3).

use crate::module::{Callee, Constant, Function, InlineValue, Instr, Operand, ProgramModule};
use std::fmt::Write as _;
use wolfram_types::Type;

impl Function {
    /// Renders the function in the paper's textual WIR/TWIR format:
    ///
    /// ```text
    /// Main : (Integer64)->Integer64
    /// start(1):
    ///  2 | %1:I64 = LoadArgument arg
    ///  3 | %7:I64 = Call Native`PrimitiveFunction[...]:(I64,I64)->I64 [%1, 1:I64]
    ///  4 | Return %7
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}::Information={{\"inlineInformation\"->{{\"inlineValue\"->{}, \"isTrivial\"->{}}}, \
             \"ArgumentAlias\"->{}, \"Profile\"->{}, \"AbortHandling\"->{}}}",
            self.name,
            match self.info.inline_value {
                InlineValue::Automatic => "Automatic",
                InlineValue::Never => "Never",
                InlineValue::Always => "Always",
            },
            bool_text(self.info.is_trivial),
            bool_text(self.info.argument_alias),
            bool_text(self.info.profile),
            bool_text(self.info.abort_handling),
        );
        match (&self.return_type, self.param_types_text()) {
            (Some(ret), Some(params)) => {
                let _ = writeln!(out, "{} : ({})->{}", self.name, params, short(ret));
            }
            _ => {
                let _ = writeln!(out, "{}", self.name);
            }
        }
        let mut line = 2usize;
        for (ix, block) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "{}({}):", block.label, ix + 1);
            for i in &block.instrs {
                let _ = writeln!(out, " {line} | {}", self.instr_text(i));
                line += 1;
            }
        }
        out
    }

    fn param_types_text(&self) -> Option<String> {
        let mut parts = Vec::new();
        for i in self.instrs() {
            if let Instr::LoadArgument { dst, index } = i {
                let ty = self.var_type(*dst)?;
                parts.push((*index, short(ty)));
            }
        }
        if parts.len() != self.arity {
            return (self.arity == 0).then(String::new);
        }
        parts.sort_by_key(|(ix, _)| *ix);
        Some(
            parts
                .into_iter()
                .map(|(_, t)| t)
                .collect::<Vec<_>>()
                .join(", "),
        )
    }

    fn var_text(&self, v: crate::module::VarId) -> String {
        match self.var_type(v) {
            Some(t) => format!("%{}:{}", v.0, short(t)),
            None => format!("%{}", v.0),
        }
    }

    fn operand_text(&self, o: &Operand) -> String {
        match o {
            Operand::Var(v) => format!("%{}", v.0),
            Operand::Const(c) => const_text(c),
        }
    }

    /// One instruction in dump form.
    pub fn instr_text(&self, i: &Instr) -> String {
        match i {
            Instr::LoadArgument { dst, index } => {
                let name = self
                    .param_names
                    .get(*index)
                    .cloned()
                    .unwrap_or_else(|| format!("arg{index}"));
                format!("{} = LoadArgument {name}", self.var_text(*dst))
            }
            Instr::LoadConst { dst, value } => {
                format!("{} = Constant {}", self.var_text(*dst), const_text(value))
            }
            Instr::Copy { dst, src } => format!("{} = Copy %{}", self.var_text(*dst), src.0),
            Instr::Call { dst, callee, args } => {
                let args: Vec<String> = args.iter().map(|a| self.operand_text(a)).collect();
                let sig = match callee {
                    Callee::Primitive { .. } | Callee::Function { .. } => {
                        match (self.call_sig(args.len()), self.var_type(*dst)) {
                            (Some(sig), Some(_)) => sig,
                            _ => String::new(),
                        }
                    }
                    _ => String::new(),
                };
                format!(
                    "{} = Call {}{} [{}]",
                    self.var_text(*dst),
                    callee.name(),
                    sig,
                    args.join(", ")
                )
            }
            Instr::MakeClosure {
                dst,
                func,
                captures,
            } => {
                let caps: Vec<String> = captures.iter().map(|c| self.operand_text(c)).collect();
                format!(
                    "{} = MakeClosure {func} [{}]",
                    self.var_text(*dst),
                    caps.join(", ")
                )
            }
            Instr::Phi { dst, incoming } => {
                let inc: Vec<String> = incoming
                    .iter()
                    .map(|(b, o)| format!("{}({})", self.operand_text(o), b.0 + 1))
                    .collect();
                format!("{} = Phi [{}]", self.var_text(*dst), inc.join(", "))
            }
            Instr::AbortCheck => "AbortCheck".into(),
            Instr::MemoryAcquire { var } => format!("MemoryAcquire %{}", var.0),
            Instr::MemoryRelease { var } => format!("MemoryRelease %{}", var.0),
            Instr::Jump { target } => format!(
                "Jump {}({})",
                self.blocks[target.0 as usize].label,
                target.0 + 1
            ),
            Instr::Branch {
                cond,
                then_block,
                else_block,
            } => format!(
                "Branch {} ? {}({}) : {}({})",
                self.operand_text(cond),
                self.blocks[then_block.0 as usize].label,
                then_block.0 + 1,
                self.blocks[else_block.0 as usize].label,
                else_block.0 + 1
            ),
            Instr::Return { value } => format!("Return {}", self.operand_text(value)),
        }
    }

    fn call_sig(&self, _nargs: usize) -> Option<String> {
        None // signature suffixes are cosmetic; omitted in instruction dumps
    }
}

fn bool_text(b: bool) -> &'static str {
    if b {
        "True"
    } else {
        "False"
    }
}

fn short(t: &Type) -> String {
    t.short_name()
}

fn const_text(c: &Constant) -> String {
    match c {
        Constant::I64(v) => format!("{v}:I64"),
        Constant::F64(v) => format!("{v}:R64"),
        Constant::Bool(b) => format!("{}:Bool", bool_text(*b)),
        Constant::Complex(re, im) => format!("({re}, {im}):C64"),
        Constant::Str(s) => format!("{s:?}:String"),
        Constant::I64Array(v) => format!("<{} x I64>", v.len()),
        Constant::F64Array(v) => format!("<{} x R64>", v.len()),
        Constant::Expr(e) => format!("<expr {}>", e.to_input_form()),
        Constant::Null => "Null".into(),
    }
}

impl ProgramModule {
    /// Renders every function of the module.
    pub fn to_text(&self) -> String {
        self.functions
            .iter()
            .map(Function::to_text)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::module::{Callee, Constant, Instr};
    use wolfram_types::{Prim, Type};

    #[test]
    fn paper_style_dump() {
        // The appendix's addOne: %1 = LoadArgument arg; %7 = Call ...
        let mut b = FunctionBuilder::new("Main", 1);
        let arg = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: arg, index: 0 });
        let sum = b.call(
            Callee::primitive(Prim::Plus, &[Type::integer64(), Type::integer64()]),
            vec![arg.into(), Constant::I64(1).into()],
        );
        b.ret(sum);
        let mut f = b.finish();
        f.param_names = vec!["arg".into()];
        f.var_types.insert(arg, Type::integer64());
        f.var_types.insert(sum, Type::integer64());
        f.return_type = Some(Type::integer64());
        let text = f.to_text();
        assert!(text.contains("Main : (I64)->I64"), "{text}");
        assert!(text.contains("%0:I64 = LoadArgument arg"), "{text}");
        assert!(
            text.contains(
                "Call Native`PrimitiveFunction[checked_binary_plus$Integer64$Integer64] [%0, 1:I64]"
            ),
            "{text}"
        );
        assert!(text.contains("Return %1"), "{text}");
        assert!(text.contains("\"AbortHandling\"->True"), "{text}");
    }

    #[test]
    fn untyped_dump_omits_signature() {
        let mut b = FunctionBuilder::new("Main", 1);
        let arg = b.func.fresh_var();
        b.push(Instr::LoadArgument { dst: arg, index: 0 });
        b.ret(arg);
        let f = b.finish();
        let text = f.to_text();
        assert!(text.contains("%0 = LoadArgument"), "{text}");
        assert!(!text.contains("(I64)"), "{text}");
    }
}
