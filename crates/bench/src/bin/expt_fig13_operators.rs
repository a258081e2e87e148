//! Regenerates Figure 13: 360TLF operator micro-benchmarks. Exits
//! non-zero when any system fails any operator.
fn main() {
    let spec = lightdb_bench::setup::bench_spec();
    let db = lightdb_bench::setup::bench_db(&spec);
    let failed = lightdb_bench::fig13::print(&db);
    if failed > 0 {
        eprintln!("Figure 13: {failed} cell(s) failed");
        std::process::exit(1);
    }
}
