//! Standalone library export and load (F10): the
//! `FunctionCompileExportLibrary` / `LibraryFunctionLoad` analog.
//!
//! The exported artifact records the original function source plus the
//! compile options; loading recompiles against the current compiler
//! version — matching the production behavior where version mismatches
//! trigger recompilation from the embedded input function (§2.2). In
//! standalone mode "certain functionalities such as interpreter
//! integration and abortable code are disabled, since they depend on the
//! Wolfram Engine".

use std::path::Path;
use wolfram_expr::{parse, Expr, ParseError};

/// Header line identifying exported libraries.
const MAGIC: &str = "WolframCompilerLibrary/1";

/// An exported compiled-function library.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedLibrary {
    /// Compiler version that produced the export.
    pub compiler_version: String,
    /// Whether the export is standalone (no engine integration).
    pub standalone: bool,
    /// The original function (FullForm source).
    pub source: String,
}

impl ExportedLibrary {
    /// Builds an export record for a function expression.
    pub fn new(function: &Expr, compiler_version: &str, standalone: bool) -> Self {
        ExportedLibrary {
            compiler_version: compiler_version.to_owned(),
            standalone,
            source: function.to_full_form(),
        }
    }

    /// Serializes to the on-disk format.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!(
            "{MAGIC}\nversion: {}\nstandalone: {}\n---\n{}\n",
            self.compiler_version, self.standalone, self.source
        )
        .into_bytes()
    }

    /// Parses the on-disk format.
    ///
    /// # Errors
    ///
    /// Returns a message for wrong magic or malformed headers.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let mut lines = text.lines();
        if lines.next() != Some(MAGIC) {
            return Err("not a Wolfram compiler library".into());
        }
        let version = lines
            .next()
            .and_then(|l| l.strip_prefix("version: "))
            .ok_or("missing version header")?
            .to_owned();
        let standalone = lines
            .next()
            .and_then(|l| l.strip_prefix("standalone: "))
            .ok_or("missing standalone header")?
            == "true";
        if lines.next() != Some("---") {
            return Err("missing separator".into());
        }
        let source = lines.collect::<Vec<_>>().join("\n");
        Ok(ExportedLibrary {
            compiler_version: version,
            standalone,
            source,
        })
    }

    /// Writes the library to a file.
    ///
    /// # Errors
    ///
    /// I/O errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a library from a file.
    ///
    /// # Errors
    ///
    /// I/O and format errors.
    pub fn read(path: &Path) -> Result<Self, String> {
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        Self::from_bytes(&bytes)
    }

    /// Recovers the original function expression (the load-time
    /// recompilation input).
    ///
    /// # Errors
    ///
    /// Parse errors if the stored source is corrupt.
    pub fn function(&self) -> Result<Expr, ParseError> {
        parse(&self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_in_memory() {
        let f = parse("Function[{Typed[n, \"MachineInteger\"]}, n + 1]").unwrap();
        let lib = ExportedLibrary::new(&f, "1.0.1.0", true);
        let loaded = ExportedLibrary::from_bytes(&lib.to_bytes()).unwrap();
        assert_eq!(loaded, lib);
        assert_eq!(loaded.function().unwrap(), f);
        assert!(loaded.standalone);
    }

    #[test]
    fn roundtrip_on_disk() {
        let f = parse("Function[{Typed[x, \"Real64\"]}, Sin[x]]").unwrap();
        let lib = ExportedLibrary::new(&f, "1.0.1.0", false);
        let dir = std::env::temp_dir().join("wolfram-export-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("addOne.wxl");
        lib.write(&path).unwrap();
        let loaded = ExportedLibrary::read(&path).unwrap();
        assert_eq!(loaded, lib);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(ExportedLibrary::from_bytes(b"ELF...").is_err());
        assert!(ExportedLibrary::from_bytes(MAGIC.as_bytes()).is_err());
    }
}
