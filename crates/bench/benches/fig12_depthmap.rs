//! Criterion bench for Figure 12: depth-map variants.

use criterion::{criterion_group, criterion_main, Criterion};
use lightdb_apps::depth::{depth_map, install_stereo, DepthVariant};
use lightdb_bench::setup;
use lightdb_datasets::Dataset;

fn bench(c: &mut Criterion) {
    let spec = setup::criterion_spec();
    let db = setup::bench_db(&spec);
    let stereo = install_stereo(&db, Dataset::Timelapse, &spec).expect("stereo");
    let mut g = c.benchmark_group("fig12_depthmap");
    g.sample_size(10);
    for variant in DepthVariant::ALL {
        g.bench_function(variant.name(), |b| {
            b.iter(|| {
                let out = format!("bench_depth_{}", variant.name());
                let _ = db.execute(&lightdb::prelude::drop_tlf(&out));
                depth_map(&mut db.session(), &stereo, &out, variant).expect("depth run")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
