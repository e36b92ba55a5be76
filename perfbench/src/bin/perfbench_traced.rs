//! The traced benchmark binary: the same passes with a counting global
//! allocator, for the per-layer `alloc.*` metrics.

#[global_allocator]
static ALLOC: perfbench::counters::CountingAlloc = perfbench::counters::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main()
}
