//! Content-addressed cache keys.
//!
//! An artifact is identified by *what was compiled*, not *who asked*: the
//! key is a 128-bit FNV-1a hash of the canonicalized MExpr (the parsed
//! program rendered back to `FullForm`, which erases whitespace, operator
//! sugar, and comment differences) combined with the
//! [`CompilerOptions::fingerprint`] — the same source compiled under
//! different options is a different artifact and must not collide.

use wolfram_compiler_core::CompilerOptions;
use wolfram_expr::Expr;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, seeded so two independent lanes decorrelate.
/// (Also the disk-cache checksum; see [`crate::disk`].)
pub(crate) fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET ^ seed;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A content-addressed artifact identity: 128 bits of program hash plus
/// the options fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Two independent FNV-1a lanes over the canonical `FullForm` bytes.
    pub program: [u64; 2],
    /// [`CompilerOptions::fingerprint`] of the requested options.
    pub options: u64,
}

impl CacheKey {
    /// The key for a parsed program under `options`: hash of the
    /// canonical `FullForm` rendering plus the options fingerprint.
    pub fn of(program: &Expr, options: &CompilerOptions) -> CacheKey {
        let canonical = program.to_full_form();
        let bytes = canonical.as_bytes();
        CacheKey {
            program: [fnv1a(0, bytes), fnv1a(0x9e37_79b9_7f4a_7c15, bytes)],
            options: options.fingerprint(),
        }
    }

    /// Short hex rendering for logs and stats tables.
    pub fn short(&self) -> String {
        format!("{:08x}", (self.program[0] ^ self.options) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolfram_expr::parse;

    #[test]
    fn canonicalization_unifies_spellings() {
        let options = CompilerOptions::default();
        let a = parse("Function[{Typed[n, \"MachineInteger\"]}, n + 1]").unwrap();
        let b = parse("Function[ {Typed[n,\"MachineInteger\"]},  Plus[n, 1] ]").unwrap();
        assert_eq!(CacheKey::of(&a, &options), CacheKey::of(&b, &options));
    }

    #[test]
    fn different_programs_differ() {
        let options = CompilerOptions::default();
        let a = parse("Function[{Typed[n, \"MachineInteger\"]}, n + 1]").unwrap();
        let b = parse("Function[{Typed[n, \"MachineInteger\"]}, n + 2]").unwrap();
        assert_ne!(CacheKey::of(&a, &options), CacheKey::of(&b, &options));
    }

    #[test]
    fn the_options_word_is_the_options_fingerprint() {
        // Which options split keys is the fingerprint's contract
        // (`CompilerOptions::fingerprint`); the key only carries it.
        let f = parse("Function[{Typed[n, \"MachineInteger\"]}, n + 1]").unwrap();
        let default = CompilerOptions::default();
        let parallel = CompilerOptions {
            data_parallel: true,
            ..CompilerOptions::default()
        };
        for options in [default, parallel] {
            assert_eq!(CacheKey::of(&f, &options).options, options.fingerprint());
        }
    }
}
