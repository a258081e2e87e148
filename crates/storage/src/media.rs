//! Encoded-media file access.
//!
//! Writes follow the crash-consistent publish protocol of
//! [`crate::durable`] (temp file → `sync_all` → atomic rename →
//! directory fsync). Reads retry transient I/O errors with bounded
//! backoff and verify per-GOP CRC-32 digests before returning bytes.

use crate::durable::{self, TmpGuard};
use crate::faults::{self, sites};
use crate::{Result, StorageError};
use lightdb_codec::{SequenceHeader, VideoStream};
use lightdb_container::{checksum, GopIndexEntry};
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Bytes [`MediaStore::read_stream_header`] reads: the stream magic
/// plus a sequence header, with room to spare.
const HEADER_PREFIX: usize = 64;

/// Reads and writes encoded media files within a TLF directory.
///
/// Media files are written once and never modified; new TLF versions
/// reference existing files rather than rewriting them.
#[derive(Debug, Clone)]
pub struct MediaStore {
    dir: PathBuf,
}

impl MediaStore {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        MediaStore { dir: dir.into() }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Absolute path of a media file.
    pub fn path_of(&self, media_path: &str) -> PathBuf {
        self.dir.join(media_path)
    }

    /// Writes a complete encoded stream to `media_path` using the
    /// crash-consistent publish protocol: temp file → `sync_all` →
    /// atomic rename → directory fsync. On any failure the temp file
    /// is removed before the error propagates.
    pub fn write_stream(&self, media_path: &str, stream: &VideoStream) -> Result<()> {
        fs::create_dir_all(&self.dir)?;
        let mut bytes = stream.to_bytes();
        faults::mangle(sites::MEDIA_WRITE_BYTES, &mut bytes);
        let tmp = self.dir.join(durable::tmp_name(media_path));
        let guard = TmpGuard::new(tmp.clone());
        durable::write_durable(&tmp, &bytes, sites::MEDIA_TMP_WRITE, sites::MEDIA_TMP_SYNC)?;
        durable::publish(
            &tmp,
            &self.path_of(media_path),
            &self.dir,
            sites::MEDIA_PUBLISH_RENAME,
            sites::MEDIA_DIR_SYNC,
        )?;
        guard.disarm();
        Ok(())
    }

    /// Reads and parses a complete stream. Transient I/O errors are
    /// retried with bounded backoff.
    pub fn read_stream(&self, media_path: &str) -> Result<VideoStream> {
        let path = self.path_of(media_path);
        let bytes = durable::retry_io(|| {
            faults::fail_point(sites::MEDIA_READ)?;
            fs::read(&path)
        })?;
        Ok(VideoStream::from_bytes(&bytes)?)
    }

    /// Reads and parses the sequence header at the front of a media
    /// file: up to 64 bytes (fewer only at end of file),
    /// with a GOP read's bounded retry of transient I/O errors.
    pub fn read_stream_header(&self, media_path: &str) -> Result<SequenceHeader> {
        let path = self.path_of(media_path);
        let prefix = durable::retry_io(|| {
            faults::fail_point(sites::MEDIA_READ_HEADER)?;
            let mut prefix = Vec::with_capacity(HEADER_PREFIX);
            fs::File::open(&path)?.take(HEADER_PREFIX as u64).read_to_end(&mut prefix)?;
            Ok(prefix)
        })?;
        Ok(VideoStream::parse_header_prefix(&prefix)?)
    }

    /// Reads only the byte range of one GOP, using the GOP index —
    /// no linear search through the encoded video data. Transient I/O
    /// errors are retried with bounded backoff, and the bytes are
    /// verified against the entry's CRC-32 before being returned.
    pub fn read_gop_bytes(&self, media_path: &str, entry: &GopIndexEntry) -> Result<Vec<u8>> {
        let path = self.path_of(media_path);
        let buf = durable::retry_io(|| {
            faults::fail_point(sites::MEDIA_READ)?;
            let mut f = fs::File::open(&path)?;
            f.seek(SeekFrom::Start(entry.byte_offset))?;
            let mut buf = vec![0u8; entry.byte_len as usize];
            f.read_exact(&mut buf)?;
            Ok(buf)
        })?;
        if !checksum::verify(&buf, entry.crc32) {
            return Err(StorageError::ChecksumMismatch {
                media_path: media_path.to_string(),
                byte_offset: entry.byte_offset,
                expected: entry.crc32,
                actual: checksum::checksum(&buf),
            });
        }
        Ok(buf)
    }

    /// Size of a media file in bytes.
    pub fn file_size(&self, media_path: &str) -> Result<u64> {
        Ok(fs::metadata(self.path_of(media_path))?.len())
    }

    /// True when the media file exists.
    pub fn exists(&self, media_path: &str) -> bool {
        self.path_of(media_path).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightdb_codec::gop::EncodedGop;
    use lightdb_codec::{Encoder, EncoderConfig};
    use lightdb_container::Track;
    use lightdb_frame::{Frame, Yuv};

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lightdb-media-{tag}-{}", std::process::id()));
        match fs::remove_dir_all(&d) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("failed to clear temp dir {}: {e}", d.display()),
        }
        d
    }

    fn tiny_stream(frames: usize) -> VideoStream {
        let frames: Vec<Frame> =
            (0..frames).map(|i| Frame::filled(32, 32, Yuv::new((i * 40) as u8, 128, 128))).collect();
        Encoder::new(EncoderConfig { gop_length: 2, qp: 30, ..Default::default() })
            .unwrap()
            .encode(&frames)
            .unwrap()
    }

    #[test]
    fn stream_write_read_roundtrip() {
        let store = MediaStore::new(temp_dir("roundtrip"));
        let stream = tiny_stream(5);
        store.write_stream("stream1_0.lvc", &stream).unwrap();
        assert!(store.exists("stream1_0.lvc"));
        assert_eq!(store.read_stream("stream1_0.lvc").unwrap(), stream);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn gop_range_read_matches_full_parse() {
        let store = MediaStore::new(temp_dir("gop"));
        let stream = tiny_stream(6); // 3 GOPs of 2
        store.write_stream("s.lvc", &stream).unwrap();
        let index = Track::index_stream(&stream);
        assert_eq!(index.len(), 3);
        for (i, entry) in index.iter().enumerate() {
            let bytes = store.read_gop_bytes("s.lvc", entry).unwrap();
            let gop = EncodedGop::from_bytes(&bytes).unwrap();
            assert_eq!(gop, stream.gops[i], "gop {i}");
        }
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn missing_file_is_an_error() {
        let store = MediaStore::new(temp_dir("missing"));
        assert!(store.read_stream("nope.lvc").is_err());
    }

    #[test]
    fn failed_write_leaves_no_temp_file() {
        faults::reset();
        let store = MediaStore::new(temp_dir("tmpclean"));
        for site in [sites::MEDIA_TMP_WRITE, sites::MEDIA_TMP_SYNC, sites::MEDIA_PUBLISH_RENAME] {
            faults::arm_n(site, faults::Fault::Enospc, 1);
            assert!(store.write_stream("s.lvc", &tiny_stream(2)).is_err(), "{site}");
            let leftovers: Vec<_> = fs::read_dir(store.dir())
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
                .filter(|n| n.ends_with(".tmp"))
                .collect();
            assert!(leftovers.is_empty(), "{site} left temp files: {leftovers:?}");
            assert!(!store.exists("s.lvc"), "{site} must not publish the file");
        }
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn transient_read_errors_are_retried() {
        faults::reset();
        let store = MediaStore::new(temp_dir("retry"));
        let stream = tiny_stream(2);
        store.write_stream("s.lvc", &stream).unwrap();
        let entry = &Track::index_stream(&stream)[0];
        faults::arm_n(
            sites::MEDIA_READ,
            faults::Fault::Transient(std::io::ErrorKind::Interrupted),
            2,
        );
        // Two injected EINTRs, then the third attempt succeeds.
        let bytes = store.read_gop_bytes("s.lvc", entry).unwrap();
        assert!(checksum::verify(&bytes, entry.crc32));
        // Both faulted attempts were counted (the successful third
        // attempt runs with nothing armed, so it isn't).
        assert_eq!(faults::hits(sites::MEDIA_READ), 2);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn stream_header_read_retries_on_its_own_site_and_stops_at_eof() {
        faults::reset();
        let store = MediaStore::new(temp_dir("header"));
        let stream = tiny_stream(2);
        store.write_stream("s.lvc", &stream).unwrap();
        faults::arm_n(
            sites::MEDIA_READ_HEADER,
            faults::Fault::Transient(std::io::ErrorKind::Interrupted),
            2,
        );
        assert_eq!(store.read_stream_header("s.lvc").unwrap(), stream.header);
        assert_eq!(faults::hits(sites::MEDIA_READ_HEADER), 2);
        assert_eq!(faults::hits(sites::MEDIA_READ), 0, "GOP-read hits must not move");
        // A file that is all header and no GOPs is shorter than the
        // prefix: read to the end, not refused.
        let bare = VideoStream { header: stream.header, gops: vec![] };
        store.write_stream("bare.lvc", &bare).unwrap();
        assert!(store.file_size("bare.lvc").unwrap() < HEADER_PREFIX as u64);
        assert_eq!(store.read_stream_header("bare.lvc").unwrap(), stream.header);
        faults::reset();
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn hard_read_errors_are_not_retried_forever() {
        faults::reset();
        let store = MediaStore::new(temp_dir("hard"));
        let stream = tiny_stream(2);
        store.write_stream("s.lvc", &stream).unwrap();
        let entry = &Track::index_stream(&stream)[0];
        faults::arm(sites::MEDIA_READ, faults::Fault::Error(std::io::ErrorKind::PermissionDenied));
        assert!(store.read_gop_bytes("s.lvc", entry).is_err());
        assert_eq!(faults::hits(sites::MEDIA_READ), 1, "hard errors must fail fast");
        faults::reset();
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn corrupt_gop_fails_checksum_on_read() {
        faults::reset();
        let store = MediaStore::new(temp_dir("crc"));
        let stream = tiny_stream(2);
        store.write_stream("s.lvc", &stream).unwrap();
        let entry = &Track::index_stream(&stream)[0];
        // Flip one byte inside the GOP's range on disk.
        let path = store.path_of("s.lvc");
        let mut bytes = fs::read(&path).unwrap();
        bytes[entry.byte_offset as usize + 3] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        match store.read_gop_bytes("s.lvc", entry) {
            Err(crate::StorageError::ChecksumMismatch { byte_offset, expected, actual, .. }) => {
                assert_eq!(byte_offset, entry.byte_offset);
                assert_ne!(expected, actual);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn torn_write_fault_is_caught_by_checksum() {
        faults::reset();
        let store = MediaStore::new(temp_dir("torn"));
        let stream = tiny_stream(2);
        let index = Track::index_stream(&stream);
        // Keep the header plus half the payload: the publish
        // "succeeds" but the data is torn.
        let full = stream.to_bytes().len();
        faults::arm_n(sites::MEDIA_WRITE_BYTES, faults::Fault::TruncateWrite { keep: full / 2 }, 1);
        store.write_stream("s.lvc", &stream).unwrap();
        // Some GOP read must fail — either short (io error) or corrupt.
        assert!(index.iter().any(|e| store.read_gop_bytes("s.lvc", e).is_err()));
        fs::remove_dir_all(store.dir()).unwrap();
    }
}
