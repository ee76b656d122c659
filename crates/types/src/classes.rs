//! Type classes (§4.4): "Type classes are used to group types implementing
//! the same methods (`"Integral"`, `"Ordered"`, `"Reals"`, `"Indexed"`,
//! `"MemoryManaged"`, etc.)".

use crate::ty::Type;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The registry of type classes. Users can extend it with their own classes
/// and memberships (F6).
#[derive(Debug, Clone)]
pub struct ClassRegistry {
    /// class name -> atomic member type names
    members: HashMap<Arc<str>, HashSet<Arc<str>>>,
}

impl Default for ClassRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl ClassRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        ClassRegistry {
            members: HashMap::new(),
        }
    }

    /// The builtin class hierarchy used by the default type environment.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        let integral = [
            "Integer8",
            "Integer16",
            "Integer32",
            "Integer64",
            "UnsignedInteger8",
            "UnsignedInteger16",
            "UnsignedInteger32",
            "UnsignedInteger64",
        ];
        let reals = ["Real32", "Real64"];
        for t in integral {
            r.add_member("Integral", t);
            r.add_member("Reals", t);
            r.add_member("Ordered", t);
            r.add_member("Number", t);
        }
        for t in reals {
            r.add_member("Reals", t);
            r.add_member("Ordered", t);
            r.add_member("Number", t);
        }
        r.add_member("Number", "ComplexReal64");
        r.add_member("Ordered", "String");
        r.add_member("MemoryManaged", "String");
        r.add_member("MemoryManaged", "Expression");
        r.add_member("Equatable", "Boolean");
        for t in integral
            .iter()
            .chain(&reals)
            .chain(&["ComplexReal64", "String"])
        {
            r.add_member("Equatable", t);
        }
        r
    }

    /// Declares a class (idempotent).
    pub fn declare_class(&mut self, class: &str) {
        self.members.entry(Arc::from(class)).or_default();
    }

    /// Adds an atomic type to a class.
    pub fn add_member(&mut self, class: &str, member: &str) {
        self.members
            .entry(Arc::from(class))
            .or_default()
            .insert(Arc::from(crate::ty::normalize_name(member)));
    }

    /// Whether the class exists.
    pub fn has_class(&self, class: &str) -> bool {
        self.members.contains_key(class)
    }

    /// Class membership test. Structural classes (`Indexed`, `Container`,
    /// `MemoryManaged`) also match tensor constructors.
    pub fn is_member(&self, ty: &Type, class: &str) -> bool {
        match ty {
            Type::Atomic(name) => self
                .members
                .get(class)
                .is_some_and(|set| set.contains(name)),
            Type::Constructor { name, .. } if &**name == "Tensor" => {
                matches!(class, "Indexed" | "Container" | "MemoryManaged")
            }
            Type::Arrow { .. } => false,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_hierarchy() {
        let r = ClassRegistry::builtin();
        assert!(r.is_member(&Type::integer64(), "Integral"));
        assert!(r.is_member(&Type::integer64(), "Ordered"));
        assert!(r.is_member(&Type::real64(), "Reals"));
        assert!(!r.is_member(&Type::real64(), "Integral"));
        // Complex numbers are numbers but not ordered (the paper's Min
        // example: "integer and reals, but not complex").
        assert!(r.is_member(&Type::complex(), "Number"));
        assert!(!r.is_member(&Type::complex(), "Ordered"));
        assert!(r.is_member(&Type::string(), "Ordered"));
    }

    #[test]
    fn structural_classes() {
        let r = ClassRegistry::builtin();
        let t = Type::tensor(Type::real64(), 2);
        assert!(r.is_member(&t, "Container"));
        assert!(r.is_member(&t, "Indexed"));
        assert!(r.is_member(&t, "MemoryManaged"));
        assert!(!r.is_member(&t, "Integral"));
        assert!(r.is_member(&Type::string(), "MemoryManaged"));
        assert!(!r.is_member(&Type::integer64(), "MemoryManaged"));
    }

    #[test]
    fn user_extension() {
        let mut r = ClassRegistry::builtin();
        r.declare_class("MyClass");
        assert!(r.has_class("MyClass"));
        assert!(!r.is_member(&Type::integer64(), "MyClass"));
        r.add_member("MyClass", "Integer64");
        assert!(r.is_member(&Type::integer64(), "MyClass"));
    }
}
