//! Hot-kernel microbenchmarks for the codec overhaul (word-level bit
//! I/O, fixed-point DCT, SWAR SAD, allocation-free loops) and for the
//! encoder's zero-work shortcuts (quantiser, motion search, tile-GOP
//! encode, with its work counters); see EXPERIMENTS.md "Codec kernel
//! throughput" and "Where ENCODE's time went". `--smoke` runs a
//! sub-second correctness-only pass for CI.
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    lightdb_bench::codec_kernels::print(smoke);
}
