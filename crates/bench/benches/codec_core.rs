//! Codec-substrate microbenchmarks: encode/decode throughput per
//! profile and QP, and the homomorphic byte-level primitives. Not a
//! paper figure, but the costs every figure is built from.

use criterion::{criterion_group, criterion_main, Criterion};
use lightdb::codec::{CodecKind, Decoder, Encoder, EncoderConfig, SequenceHeader, TileGrid};
use lightdb_datasets::{frame, Dataset, DatasetSpec};

fn bench(c: &mut Criterion) {
    let spec = DatasetSpec { width: 256, height: 128, fps: 8, seconds: 1, qp: 22 };
    let frames: Vec<_> = (0..8).map(|i| frame(Dataset::Venice, &spec, i)).collect();
    let mut g = c.benchmark_group("codec_core");
    g.sample_size(10);
    for (label, codec, qp) in [
        ("encode_h264_qp22", CodecKind::H264Sim, 22u8),
        ("encode_hevc_qp22", CodecKind::HevcSim, 22),
        ("encode_hevc_qp45", CodecKind::HevcSim, 45),
    ] {
        g.bench_function(label, |b| {
            let enc = Encoder::new(EncoderConfig {
                codec,
                qp,
                gop_length: 8,
                fps: 8,
                ..Default::default()
            })
            .unwrap();
            b.iter(|| enc.encode(&frames).unwrap())
        });
    }
    let stream = Encoder::new(EncoderConfig {
        codec: CodecKind::HevcSim,
        qp: 22,
        gop_length: 8,
        fps: 8,
        grid: TileGrid::new(2, 2),
    })
    .unwrap()
    .encode(&frames)
    .unwrap();
    g.bench_function("decode_full", |b| {
        b.iter(|| Decoder::new().decode(&stream).unwrap())
    });
    g.bench_function("decode_one_tile", |b| {
        // What `TILESELECT` runs: the tile's bytes out of the GOP, then
        // a decode under the tile's single-tile header.
        let rect = stream.header.grid.tile_rect(0, stream.header.width, stream.header.height);
        let tile_header = SequenceHeader {
            width: rect.w,
            height: rect.h,
            grid: TileGrid::SINGLE,
            ..stream.header
        };
        b.iter(|| {
            let tile_gop = stream.gops[0].extract_tile(0).unwrap();
            Decoder::new().decode_gop(&tile_header, &tile_gop).unwrap()
        })
    });
    g.bench_function("hop_extract_tile_bytes", |b| {
        b.iter(|| stream.gops[0].extract_tile(0).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
