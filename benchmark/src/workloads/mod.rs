//! The eight workloads. Each module's header says what its operation is.

pub mod call;
pub mod compile;
pub mod kernels;
pub mod serve;
pub mod stream;
pub mod tiny;

use crate::harness::{drive, RunArgs, RunOutput};
use crate::spec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wolfram_runtime::memory;

/// The generator of one input stream: `--seed` mixed with a per-use salt,
/// so that inputs are independent of one another and fixed by the seed.
pub fn seeded(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Whether every `MemoryAcquire` of the run met its `MemoryRelease`, over
/// all threads that flushed their counters plus this one.
pub fn memory_balanced() -> bool {
    memory::flush_thread_stats();
    memory::global_stats().balanced()
}

/// Runs the workload `args` names, or `None` for an unknown name.
pub fn run(args: &RunArgs) -> Option<RunOutput> {
    Some(match args.workload.as_str() {
        spec::COMPILE_COLD => drive::<compile::CompileCold>(args),
        spec::KERNELS_SCALAR => drive::<kernels::Kernels<false>>(args),
        spec::KERNELS_TENSOR => drive::<kernels::Kernels<true>>(args),
        spec::CALL_TINY => drive::<call::CallTiny>(args),
        spec::STREAM_TINY => drive::<stream::Stream<false>>(args),
        spec::STREAM_HEAVY => drive::<stream::Stream<true>>(args),
        spec::SERVE_WARM => drive::<serve::Serve<false>>(args),
        spec::SERVE_MIXED => drive::<serve::Serve<true>>(args),
        _ => return None,
    })
}
