//! Regenerates Figure 11(a): predictive-tiling throughput and the
//! LightDB operator breakdown across tile grids.
fn main() {
    let spec = lightdb_bench::setup::bench_spec();
    let db = lightdb_bench::setup::bench_db(&spec);
    lightdb_bench::fig11::print_tiling_table(&db, &spec, 4, 4);
    lightdb_bench::fig11::print_tiling_breakdown(db);
}
