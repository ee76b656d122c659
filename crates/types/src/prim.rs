//! Runtime primitives: the closed set of operations a resolved call can
//! name (the paper's ``Native`PrimitiveFunction[...]``, §4.5), one table
//! row each. A primitive is a [`Prim`] value from its declaration in the
//! builtin type environment to instruction selection; what a pass needs to
//! know about it is a column of its row, read through [`Prim::is_pure`],
//! [`Prim::is_total`] and [`Prim::fold_head`].
//!
//! The set is closed because code generation and the interval analysis
//! must decide about every member: both `match` without a wildcard, so a
//! row added here is a compile error at each site that has to handle it.
//! Users extend the compiler through [`crate::FunctionImpl::Source`] and
//! [`crate::FunctionImpl::Kernel`].

use crate::ty::Type;
use std::fmt::Write as _;

/// What a call can do besides compute its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effects {
    /// Not known to be pure (random numbers, symbolic evaluation, or
    /// simply unclassified): never merged, never removed.
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
        { $( $unit:ident = $uname:literal, $ufold:expr, $ueff:ident; )* }
        $( family $fam:ident($payload:ident) {
            $( $member:ident = $mname:literal, $mfold:expr, $meff:ident; )*
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

            /// `(base name, fold head, effects)`.
            const fn row(self) -> (&'static str, Option<&'static str>, Effects) {
                match self {
                    $( Prim::$unit => ($uname, $ufold, $ueff), )*
                    $( $( Prim::$fam($payload::$member) => ($mname, $mfold, $meff), )* )*
                }
            }
        }
    };
}

prims! {
    {
    // variant        = base name,                 fold head,            effects
    // ---- scalar arithmetic (checked: integer overflow, division by zero) ----
    Plus              = "checked_binary_plus",     Some("Plus"),         Partial;
    Subtract          = "checked_binary_subtract", Some("Subtract"),     Partial;
    Times             = "checked_binary_times",    Some("Times"),        Partial;
    Divide            = "checked_binary_divide",   Some("Divide"),       Partial;
    Power             = "checked_binary_power",    Some("Power"),        Partial;
    Mod               = "checked_binary_mod",      Some("Mod"),          Partial;
    Quotient          = "checked_binary_quotient", Some("Quotient"),     Partial;
    Minus             = "checked_unary_minus",     Some("Minus"),        Partial;
    Abs               = "checked_unary_abs",       Some("Abs"),          Partial;
    Sign              = "unary_sign",              None,                 Total;
    Min               = "binary_min",              Some("Min"),          Total;
    Max               = "binary_max",              Some("Max"),          Total;
    Floor             = "unary_floor",             None,                 Partial;
    Ceiling           = "unary_ceiling",           None,                 Partial;
    Round             = "unary_round",             None,                 Partial;
    Convert           = "convert",                 None,                 Total;
    ArcTan2           = "binary_arctan2",          None,                 Total;
    // ---- logic ----
    Not               = "unary_not",               Some("Not"),          Total;
    Boole             = "boole",                   None,                 Total;
    // ---- bit operations and number theory ----
    BitAnd            = "bit_and",                 None,                 Impure;
    BitOr             = "bit_or",                  None,                 Impure;
    BitXor            = "bit_xor",                 None,                 Impure;
    BitShiftLeft      = "bit_shift_left",          None,                 Impure;
    BitShiftRight     = "bit_shift_right",         None,                 Impure;
    Gcd               = "binary_gcd",              None,                 Partial;
    Factorial         = "unary_factorial",         None,                 Partial;
    PowerMod          = "power_mod",               None,                 Impure;
    // ---- complex numbers ----
    ComplexConstruct  = "complex_construct",       None,                 Impure;
    ComplexRe         = "complex_re",              None,                 Impure;
    ComplexIm         = "complex_im",              None,                 Impure;
    ComplexConjugate  = "complex_conjugate",       None,                 Impure;
    ComplexAbs        = "complex_abs",             None,                 Impure;
    // ---- tensors ----
    TensorLength      = "tensor_length",           None,                 Total;
    TensorPart1       = "tensor_part_1",           None,                 Partial;
    TensorPart2       = "tensor_part_2",           None,                 Partial;
    TensorSet1        = "tensor_set_1",            None,                 Impure;
    TensorSet2        = "tensor_set_2",            None,                 Impure;
    TensorSetRow      = "tensor_set_row",          None,                 Impure;
    TensorFill1       = "tensor_fill_1",           None,                 Impure;
    TensorFill2       = "tensor_fill_2",           None,                 Impure;
    ListConstruct     = "list_construct",          None,                 Partial;
    DotVector         = "dot_vector",              None,                 Partial;
    DotMatrix         = "dot_matrix",              None,                 Partial;
    DotMatrixVector   = "dot_matrix_vector",       None,                 Partial;
    TensorPlus        = "tensor_plus",             None,                 Impure;
    TensorSubtract    = "tensor_subtract",         None,                 Impure;
    TensorTimes       = "tensor_times",            None,                 Impure;
    TensorScalarPlus      = "tensor_scalar_plus",      None,             Impure;
    TensorScalarSubtract  = "tensor_scalar_subtract",  None,             Impure;
    TensorScalarTimes     = "tensor_scalar_times",     None,             Impure;
    ScalarTensorPlus      = "scalar_tensor_plus",      None,             Impure;
    ScalarTensorSubtract  = "scalar_tensor_subtract",  None,             Impure;
    ScalarTensorTimes     = "scalar_tensor_times",     None,             Impure;
    // ---- strings ----
    StringLength      = "string_length",           Some("StringLength"), Total;
    StringToCodes     = "string_to_codes",         None,                 Impure;
    StringFromCodes   = "string_from_codes",       None,                 Impure;
    StringJoin        = "string_join",             None,                 Impure;
    // ---- random numbers ----
    RandomUnit        = "random_unit",             None,                 Impure;
    RandomRange       = "random_range",            None,                 Impure;
    // ---- symbolic arithmetic (F8), normalized by the hosting engine ----
    ExprPlus          = "expr_plus",               None,                 Impure;
    ExprSubtract      = "expr_subtract",           None,                 Impure;
    ExprTimes         = "expr_times",              None,                 Impure;
    ExprPower         = "expr_power",              None,                 Impure;
    }
    // Comparisons of two scalars of one type, to Boolean.
    family Compare(Cmp) {
        Less          = "compare_less",            Some("Less"),         Total;
        LessEqual     = "compare_less_equal",      Some("LessEqual"),    Total;
        Greater       = "compare_greater",         Some("Greater"),      Total;
        GreaterEqual  = "compare_greater_equal",   Some("GreaterEqual"), Total;
        Equal         = "compare_equal",           Some("Equal"),        Total;
        Unequal       = "compare_unequal",         Some("Unequal"),      Total;
    }
    // Elementary functions, Real64 to Real64.
    family Elementary(Elementary) {
        Sin           = "unary_sin",               Some("Sin"),          Total;
        Cos           = "unary_cos",               Some("Cos"),          Total;
        Tan           = "unary_tan",               Some("Tan"),          Total;
        Exp           = "unary_exp",               Some("Exp"),          Total;
        Log           = "unary_log",               Some("Log"),          Partial;
        ArcTan        = "unary_arctan",            None,                 Partial;
        ArcSin        = "unary_arcsin",            None,                 Partial;
        ArcCos        = "unary_arccos",            None,                 Partial;
    }
    // Symbolic application of a head to one boxed Expression (F8).
    family ExprUnary(ExprHead) {
        Sin           = "expr_unary_Sin",          None,                 Impure;
        Cos           = "expr_unary_Cos",          None,                 Impure;
        Tan           = "expr_unary_Tan",          None,                 Impure;
        Exp           = "expr_unary_Exp",          None,                 Impure;
        Log           = "expr_unary_Log",          None,                 Impure;
        ArcTan        = "expr_unary_ArcTan",       None,                 Impure;
        ArcSin        = "expr_unary_ArcSin",       None,                 Impure;
        ArcCos        = "expr_unary_ArcCos",       None,                 Impure;
        Abs           = "expr_unary_Abs",          None,                 Impure;
    }
}

impl Prim {
    /// Base of the rendered name (`checked_binary_plus`). For printing:
    /// nothing recovers a primitive from its name.
    pub const fn name(self) -> &'static str {
        self.row().0
    }

    /// The Wolfram head under which constant folding evaluates a call whose
    /// arguments are all constants, if it folds at all.
    pub const fn fold_head(self) -> Option<&'static str> {
        self.row().1
    }

    /// No side effects: two identical calls may be merged.
    pub const fn is_pure(self) -> bool {
        !matches!(self.row().2, Impure)
    }

    /// Pure and unable to raise: a dead call may be removed.
    pub const fn is_total(self) -> bool {
        matches!(self.row().2, Total)
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
        for c in Cmp::ALL {
            assert_eq!(Prim::Compare(*c).fold_head(), Some(c.head()));
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
