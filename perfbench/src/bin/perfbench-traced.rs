//! Traced benchmark run: records spans around layer calls, counts
//! allocations and GEMM tiers, and produces the per-layer metrics.

#[global_allocator]
static ALLOC: rotom_perfbench::CountingAlloc = rotom_perfbench::CountingAlloc;

fn main() {
    std::process::exit(rotom_perfbench::main_with(true));
}
