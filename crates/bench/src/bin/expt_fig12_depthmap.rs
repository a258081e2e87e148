//! Regenerates Figure 12: depth-map generation across physical
//! variants (CPU / FPGA / hybrid).
fn main() {
    let spec = lightdb_bench::setup::bench_spec();
    let db = lightdb_bench::setup::bench_db(&spec);
    lightdb_bench::fig12::print(&db, &spec);
}
