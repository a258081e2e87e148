//! Runs every experiment in sequence — the full evaluation.
fn main() {
    let spec = lightdb_bench::setup::bench_spec();
    println!(
        "LightDB evaluation @ {}x{}, {} s, {} fps (set LIGHTDB_BENCH_SECONDS / LIGHTDB_FULL_SCALE to rescale)",
        spec.width, spec.height, spec.seconds, spec.fps
    );
    let db = lightdb_bench::setup::bench_db(&spec);
    lightdb_bench::tables::print_table2();
    lightdb_bench::tables::print_table3(&db, &spec, 4, 4);
    lightdb_bench::fig11::print_tiling_table(&db, &spec, 4, 4);
    let db = lightdb_bench::fig11::print_tiling_breakdown(db);
    lightdb_bench::fig11::print_ar_table(&db, &spec);
    lightdb_bench::fig12::print(&db, &spec);
    lightdb_bench::fig13::print(&db);
    lightdb_bench::fig14::print(&db);
    lightdb_bench::fig15::print(&db, &spec);
    lightdb_bench::fig16::print(&db, &spec);
}
