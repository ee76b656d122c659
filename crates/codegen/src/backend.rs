//! The backend plug-in API (F4): "Multiple backends are supported by the
//! compiler and an API for users to plugin their own backend."

use std::collections::HashMap;
use std::sync::Arc;
use wolfram_ir::ProgramModule;

/// A code-generation backend: consumes a fully-typed TWIR program module
/// and produces a textual artifact (source, listing, serialized form).
///
/// The native backend produces an executable program instead and has its
/// own entry point ([`crate::lower_program`]), and the `"Assembler"`
/// listing is a rendering of that program ([`crate::asm::render_program`]),
/// not of the module; the other textual backends share this trait.
pub trait Backend {
    /// The backend's registered name (`"C"`, `"IR"`, `"WVM"`, ...).
    fn name(&self) -> &str;

    /// Generates the artifact.
    ///
    /// # Errors
    ///
    /// Returns a message when the module uses features the backend cannot
    /// express.
    fn generate(&self, module: &ProgramModule) -> Result<String, String>;
}

/// A registry of textual backends, pre-populated with the built-in ones
/// and extensible by users (§4.6).
pub struct BackendRegistry {
    backends: HashMap<String, Arc<dyn Backend>>,
}

impl Default for BackendRegistry {
    fn default() -> Self {
        let mut r = BackendRegistry {
            backends: HashMap::new(),
        };
        r.register(Arc::new(crate::c_source::CBackend));
        r.register(Arc::new(crate::wvm::WvmBackend));
        r.register(Arc::new(IrBackend));
        r
    }
}

impl BackendRegistry {
    /// The built-in registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a backend under its name.
    pub fn register(&mut self, backend: Arc<dyn Backend>) {
        self.backends.insert(backend.name().to_owned(), backend);
    }

    /// Looks up a backend.
    pub fn get(&self, name: &str) -> Option<Arc<dyn Backend>> {
        self.backends.get(name).cloned()
    }

    /// Registered backend names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.backends.keys().cloned().collect();
        names.sort();
        names
    }
}

/// The trivial backend exporting the textual TWIR itself.
struct IrBackend;

impl Backend for IrBackend {
    fn name(&self) -> &str {
        "IR"
    }

    fn generate(&self, module: &ProgramModule) -> Result<String, String> {
        Ok(module.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_backends_registered() {
        let r = BackendRegistry::new();
        assert_eq!(r.names(), ["C", "IR", "WVM"]);
        assert!(r.get("C").is_some());
        assert!(r.get("CUDA").is_none());
    }

    #[test]
    fn user_backend_plugs_in() {
        struct Null;
        impl Backend for Null {
            fn name(&self) -> &str {
                "Null"
            }
            fn generate(&self, _m: &ProgramModule) -> Result<String, String> {
                Ok(String::new())
            }
        }
        let mut r = BackendRegistry::new();
        r.register(Arc::new(Null));
        assert!(r.get("Null").is_some());
        assert_eq!(r.names().len(), 4);
    }
}
