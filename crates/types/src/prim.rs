//! Runtime primitives: the closed set of operations a resolved call can
//! name (the paper's ``Native`PrimitiveFunction[...]``, §4.5), one table
//! row each. A primitive is a [`Prim`] value from its declaration in the
//! builtin type environment to instruction selection. Its row is the only
//! statement of its effects, read through [`Prim::is_pure`] and
//! [`Prim::is_total`]: the passes ask nothing else of a call, and a call
//! resolution left unresolved is neither merged, removed nor folded.
//!
//! The set is closed because code generation must decide about every
//! member: instruction selection `match`es without a wildcard, so a row
//! added here is a compile error at the site that has to handle it.
//! Users extend the compiler through [`crate::FunctionImpl::Source`] and
//! [`crate::FunctionImpl::Kernel`].

use crate::ty::Type;
use std::fmt::Write as _;

/// What a call can do besides compute its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effects {
    /// Not pure (random numbers, symbolic evaluation, in-place updates):
    /// never merged, never removed.
    Impure,
    /// Pure but may raise (overflow, division by zero, `Part` range, `Dot`
    /// shape): identical calls may be merged, a dead one stays.
    Partial,
    /// Pure and unable to raise on well-typed input: a dead call may go.
    Total,
}
use Effects::{Impure, Partial, Total};

/// Declares [`Prim`], the payload enum of each family, [`Prim::ALL`] and
/// the row lookup from one listing. A family groups primitives that every
/// consumer treats alike up to the payload; its members are named by the
/// Wolfram head they are declared under.
macro_rules! prims {
    (
        { $( $unit:ident = $uname:literal, $ueff:ident; )* }
        $( family $fam:ident($payload:ident) {
            $( $member:ident = $mname:literal, $meff:ident; )*
        } )*
    ) => {
        /// A runtime primitive.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Prim {
            $( $unit, )*
            $( $fam($payload), )*
        }

        $(
            /// The members of a [`Prim`] family, named by Wolfram head.
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
                pub enum $payload {
                $( $member, )*
            }

            impl $payload {
                /// Every member, in table order.
                pub const ALL: &'static [$payload] = &[ $( $payload::$member, )* ];

                /// The Wolfram head the member is declared under.
                pub const fn head(self) -> &'static str {
                    match self {
                        $( $payload::$member => stringify!($member), )*
                    }
                }
            }
        )*

        impl Prim {
            /// Every primitive, in table order.
            pub const ALL: &'static [Prim] = &[
                $( Prim::$unit, )*
                $( $( Prim::$fam($payload::$member), )* )*
            ];

            /// `(base name, effects)`.
            const fn row(self) -> (&'static str, Effects) {
                match self {
                    $( Prim::$unit => ($uname, $ueff), )*
                    $( $( Prim::$fam($payload::$member) => ($mname, $meff), )* )*
                }
            }
        }
    };
}

prims! {
    {
    // variant        = base name,                 effects
    // ---- scalar arithmetic (checked: integer overflow, division by zero) ----
    Plus              = "checked_binary_plus",     Partial;
    Subtract          = "checked_binary_subtract", Partial;
    Times             = "checked_binary_times",    Partial;
    Divide            = "checked_binary_divide",   Partial;
    Power             = "checked_binary_power",    Partial;
    Mod               = "checked_binary_mod",      Partial;
    Quotient          = "checked_binary_quotient", Partial;
    Minus             = "checked_unary_minus",     Partial;
    Abs               = "checked_unary_abs",       Partial;
    Sign              = "unary_sign",              Total;
    Min               = "binary_min",              Total;
    Max               = "binary_max",              Total;
    Floor             = "unary_floor",             Partial;
    Ceiling           = "unary_ceiling",           Partial;
    Round             = "unary_round",             Partial;
    Convert           = "convert",                 Total;
    ArcTan2           = "binary_arctan2",          Total;
    // ---- logic ----
    Not               = "unary_not",               Total;
    Boole             = "boole",                   Total;
    // ---- bit operations and number theory (shifts, GCD, Factorial and
    // PowerMod raise on overflow or a missing modular inverse) ----
    BitAnd            = "bit_and",                 Total;
    BitOr             = "bit_or",                  Total;
    BitXor            = "bit_xor",                 Total;
    BitShiftLeft      = "bit_shift_left",          Partial;
    BitShiftRight     = "bit_shift_right",         Partial;
    Gcd               = "binary_gcd",              Partial;
    Factorial         = "unary_factorial",         Partial;
    PowerMod          = "power_mod",               Partial;
    // ---- complex numbers ----
    ComplexConstruct  = "complex_construct",       Total;
    ComplexRe         = "complex_re",              Total;
    ComplexIm         = "complex_im",              Total;
    ComplexConjugate  = "complex_conjugate",       Total;
    ComplexAbs        = "complex_abs",             Total;
    // ---- tensors ----
    TensorLength      = "tensor_length",           Total;
    TensorPart1       = "tensor_part_1",           Partial;
    TensorPart2       = "tensor_part_2",           Partial;
    // An update writes into its operand's storage when the operand is dead.
    TensorSet1        = "tensor_set_1",            Impure;
    TensorSet2        = "tensor_set_2",            Impure;
    TensorSetRow      = "tensor_set_row",          Impure;
    // A fresh tensor is copy-on-write, so two equal ones may be merged.
    TensorFill1       = "tensor_fill_1",           Partial;
    TensorFill2       = "tensor_fill_2",           Partial;
    ListConstruct     = "list_construct",          Partial;
    DotVector         = "dot_vector",              Partial;
    DotMatrix         = "dot_matrix",              Partial;
    DotMatrixVector   = "dot_matrix_vector",       Partial;
    TensorPlus        = "tensor_plus",             Partial;
    TensorSubtract    = "tensor_subtract",         Partial;
    TensorTimes       = "tensor_times",            Partial;
    TensorScalarPlus      = "tensor_scalar_plus",      Partial;
    TensorScalarSubtract  = "tensor_scalar_subtract",  Partial;
    TensorScalarTimes     = "tensor_scalar_times",     Partial;
    ScalarTensorPlus      = "scalar_tensor_plus",      Partial;
    ScalarTensorSubtract  = "scalar_tensor_subtract",  Partial;
    ScalarTensorTimes     = "scalar_tensor_times",     Partial;
    // ---- strings (immutable; a code outside Unicode raises) ----
    StringLength      = "string_length",           Total;
    StringToCodes     = "string_to_codes",         Total;
    StringFromCodes   = "string_from_codes",       Partial;
    StringJoin        = "string_join",             Total;
    // ---- random numbers ----
    RandomUnit        = "random_unit",             Impure;
    RandomRange       = "random_range",            Impure;
    // ---- symbolic arithmetic (F8), normalized by the hosting engine ----
    ExprPlus          = "expr_plus",               Impure;
    ExprSubtract      = "expr_subtract",           Impure;
    ExprTimes         = "expr_times",              Impure;
    ExprPower         = "expr_power",              Impure;
    }
    // Comparisons of two scalars of one type, to Boolean.
    family Compare(Cmp) {
        Less          = "compare_less",            Total;
        LessEqual     = "compare_less_equal",      Total;
        Greater       = "compare_greater",         Total;
        GreaterEqual  = "compare_greater_equal",   Total;
        Equal         = "compare_equal",           Total;
        Unequal       = "compare_unequal",         Total;
    }
    // Elementary functions, Real64 to Real64.
    family Elementary(Elementary) {
        Sin           = "unary_sin",               Total;
        Cos           = "unary_cos",               Total;
        Tan           = "unary_tan",               Total;
        Exp           = "unary_exp",               Total;
        Log           = "unary_log",               Partial;
        ArcTan        = "unary_arctan",            Total;
        ArcSin        = "unary_arcsin",            Partial;
        ArcCos        = "unary_arccos",            Partial;
    }
    // Symbolic application of a head to one boxed Expression (F8).
    family ExprUnary(ExprHead) {
        Sin           = "expr_unary_Sin",          Impure;
        Cos           = "expr_unary_Cos",          Impure;
        Tan           = "expr_unary_Tan",          Impure;
        Exp           = "expr_unary_Exp",          Impure;
        Log           = "expr_unary_Log",          Impure;
        ArcTan        = "expr_unary_ArcTan",       Impure;
        ArcSin        = "expr_unary_ArcSin",       Impure;
        ArcCos        = "expr_unary_ArcCos",       Impure;
        Abs           = "expr_unary_Abs",          Impure;
    }
}

impl Prim {
    /// Base of the rendered name (`checked_binary_plus`). For printing:
    /// nothing recovers a primitive from its name.
    pub const fn name(self) -> &'static str {
        self.row().0
    }

    /// No side effects: two identical calls may be merged.
    pub const fn is_pure(self) -> bool {
        !matches!(self.row().1, Impure)
    }

    /// Pure and unable to raise: a dead call may be removed.
    pub const fn is_total(self) -> bool {
        matches!(self.row().1, Total)
    }
}

/// Appends the mangled form of a type (`Integer64`, `TensorInteger64R1`).
fn mangle_type(out: &mut String, t: &Type) {
    match t {
        Type::Atomic(name) => out.push_str(name),
        Type::Constructor { name, args } if &**name == "Tensor" => {
            out.push_str("Tensor");
            if let Some(elem) = args.first() {
                mangle_type(out, elem);
            }
            match args.get(1) {
                Some(Type::Literal(r)) => write!(out, "R{r}").expect("writing to a String"),
                _ => out.push_str("RN"),
            }
        }
        Type::Arrow { params, ret } => {
            out.push_str("Fn");
            for p in params {
                mangle_type(out, p);
            }
            out.push_str("To");
            mangle_type(out, ret);
        }
        other => out.push_str(
            &other
                .to_string()
                .replace([' ', ',', '[', ']', '(', ')'], ""),
        ),
    }
}

/// The specialization name of a primitive or source function at concrete
/// parameter types: `checked_binary_plus$Integer64$Integer64`. The only
/// writer of the format, which has no reader.
pub fn mangle(base: &str, params: &[Type]) -> String {
    let mut out = base.to_owned();
    for p in params {
        out.push('$');
        mangle_type(&mut out, p);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique() {
        let names: HashSet<&str> = Prim::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Prim::ALL.len());
        let prims: HashSet<Prim> = Prim::ALL.iter().copied().collect();
        assert_eq!(prims.len(), Prim::ALL.len());
    }

    #[test]
    fn a_family_member_is_named_by_its_head() {
        for h in ExprHead::ALL {
            assert_eq!(
                Prim::ExprUnary(*h).name(),
                format!("expr_unary_{}", h.head())
            );
        }
    }

    #[test]
    fn mangling() {
        assert_eq!(
            mangle(Prim::Plus.name(), &[Type::integer64(), Type::integer64()]),
            "checked_binary_plus$Integer64$Integer64"
        );
        assert_eq!(
            mangle("f", &[Type::tensor(Type::real64(), 2)]),
            "f$TensorReal64R2"
        );
        assert_eq!(
            mangle(
                "f",
                &[Type::arrow(vec![Type::integer64()], Type::boolean())]
            ),
            "f$FnInteger64ToBoolean"
        );
    }
}
