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
    fn options_fingerprint_separates_keys() {
        let a = CompilerOptions::default();
        let b = CompilerOptions {
            optimization_level: 0,
            ..CompilerOptions::default()
        };
        let f = parse("Function[{Typed[n, \"MachineInteger\"]}, n + 1]").unwrap();
        assert_ne!(CacheKey::of(&f, &a), CacheKey::of(&f, &b));
    }

    #[test]
    fn data_parallel_fingerprint_separates_keys() {
        // A data-parallel artifact must never be served from the scalar
        // cache entry (and vice versa): the plan layout and NativeProgram
        // differ. Tuning knobs split keys only while the tier is on.
        let scalar = CompilerOptions::default();
        let parallel = CompilerOptions {
            data_parallel: true,
            ..CompilerOptions::default()
        };
        let tuned = CompilerOptions {
            data_parallel: true,
            parallel: wolfram_runtime::ParallelConfig {
                num_threads: 2,
                ..wolfram_runtime::ParallelConfig::default()
            },
            ..CompilerOptions::default()
        };
        let f = parse("Function[{Typed[n, \"MachineInteger\"]}, n + 1]").unwrap();
        assert_ne!(CacheKey::of(&f, &scalar), CacheKey::of(&f, &parallel));
        assert_ne!(CacheKey::of(&f, &parallel), CacheKey::of(&f, &tuned));

        // With the tier off, tuning must NOT perturb the key: a tuned-
        // but-disabled config is the same artifact as the default.
        let tuned_off = CompilerOptions {
            parallel: wolfram_runtime::ParallelConfig {
                num_threads: 7,
                ..wolfram_runtime::ParallelConfig::default()
            },
            ..CompilerOptions::default()
        };
        assert_eq!(CacheKey::of(&f, &scalar), CacheKey::of(&f, &tuned_off));
    }

    #[test]
    fn range_elision_fingerprint_separates_keys() {
        // An artifact compiled with range-check elision (the default) and
        // the fully checked ablation baseline differ instruction for
        // instruction (unchecked RegOp variants), so they must occupy
        // distinct cache entries.
        let on = CompilerOptions::default();
        assert!(on.range_checks_elision, "elision is the compiler default");
        let off = CompilerOptions {
            range_checks_elision: false,
            ..CompilerOptions::default()
        };
        let f = parse("Function[{Typed[n, \"MachineInteger\"]}, n + 1]").unwrap();
        assert_ne!(CacheKey::of(&f, &on), CacheKey::of(&f, &off));
    }
}
