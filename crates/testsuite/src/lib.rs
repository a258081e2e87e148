//! Host crate for the repository-root integration tests (see ../../tests)
//! and the shared harnesses they drive: chaos, cluster chaos, crash
//! points, and a synthetic tiled stream for the serving tests.

pub mod chaos;
pub mod clusterchaos;
pub mod crashpoints;

use lightdb_codec::{
    CodecError, CodecKind, EncodedFrame, EncodedGop, FrameType, SequenceHeader, TileGrid,
    VideoStream,
};

/// A stream of `seconds` one-second 4×4 GOPs of four frames, whose tile
/// `t` carries `tile_bytes + t` seeded bytes a frame. Serving never
/// decodes, so payloads need only be distinguishable, and heavy enough
/// that a byte budget binds.
pub fn tiled_stream(seconds: usize, tile_bytes: usize, seed: u64) -> Result<VideoStream, CodecError> {
    let grid = TileGrid { cols: 4, rows: 4 };
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u8
    };
    let gops = (0..seconds)
        .map(|_| {
            let frames: Vec<EncodedFrame> = (0..4)
                .map(|f| EncodedFrame {
                    frame_type: if f == 0 { FrameType::Key } else { FrameType::Predicted },
                    tiles: (0..grid.tile_count())
                        .map(|t| (0..tile_bytes + t).map(|_| next()).collect())
                        .collect(),
                })
                .collect();
            EncodedGop::from_frames(&frames)
        })
        .collect::<Result<_, _>>()?;
    let header = SequenceHeader {
        codec: CodecKind::H264Sim,
        width: 256,
        height: 128,
        fps: 4,
        gop_length: 4,
        grid,
    };
    Ok(VideoStream { header, gops })
}
