//! Fault-injection integration tests: deterministic kill-points
//! through the `STORE` publish protocol, checksum-detected
//! corruption under both read policies, and retrying reads.
//!
//! Faults armed through `lightdb_storage::faults` live in the test
//! thread's fault scope, which the engine's worker threads inherit, so
//! every test arms and executes on its own thread without interfering
//! with the others. The last three tests pin that scoping down: a
//! fault reaches the scatter workers, a crash stops only its own
//! scope, and an env-armed `n` counts across the scope.

use lightdb::prelude::*;
use lightdb_codec::{Encoder, EncoderConfig, VideoStream};
use lightdb_container::{TlfDescriptor, TrackRole};
use lightdb_exec::metrics::counters;
use lightdb_geom::projection::ProjectionKind;
use lightdb_storage::catalog::TrackWrite;
use lightdb_storage::faults::{self, sites, Fault};
use lightdb_storage::Catalog;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("lightdb-fault-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn tiny_stream() -> VideoStream {
    let frames: Vec<Frame> =
        (0..4).map(|i| Frame::filled(32, 32, Yuv::new((i * 50) as u8, 128, 128))).collect();
    Encoder::new(EncoderConfig { gop_length: 2, fps: 2, qp: 30, ..Default::default() })
        .unwrap()
        .encode(&frames)
        .unwrap()
}

fn new_track() -> TrackWrite {
    TrackWrite::New {
        role: TrackRole::Video,
        projection: ProjectionKind::Equirectangular,
        stream: tiny_stream(),
    }
}

fn sphere_tlfd() -> TlfDescriptor {
    TlfDescriptor::single_sphere(Point3::ORIGIN, Interval::new(0.0, 2.0), 0)
}

fn tmp_debris(dir: &Path) -> Vec<String> {
    match fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().to_string())
            .filter(|n| n.ends_with(".tmp"))
            .collect(),
        Err(_) => Vec::new(),
    }
}

/// The core crash-consistency invariant: killing a `STORE` at *every*
/// step of the publish protocol leaves the catalog at either the old
/// version or the new version — never a half-published state.
#[test]
fn store_kill_points_leave_old_version_or_new_never_partial() {
    for (i, &site) in sites::PUBLISH_SEQUENCE.iter().enumerate() {
        faults::reset();
        let root = temp_root(&format!("kill{i}"));
        // Establish version 1, fault-free.
        {
            let cat = Catalog::open(&root).unwrap();
            cat.store("demo", vec![new_track()], sphere_tlfd()).unwrap();
        }
        // Kill the next store at `site`.
        let cat = Catalog::open(&root).unwrap();
        faults::arm_n(site, Fault::Error(std::io::ErrorKind::Other), 1);
        let stored = cat.store("demo", vec![new_track()], sphere_tlfd());
        faults::reset();
        // Every step up to and including the WAL fsync (the commit
        // point) precedes the acknowledgement, so each must fail the
        // store.
        assert!(stored.is_err(), "kill at {site} must fail the store");
        // "Process restart": recover from disk alone.
        drop(cat);
        let cat = Catalog::open(&root).unwrap();
        let versions = cat.all_versions("demo").unwrap();
        assert!(
            versions == vec![1] || versions == vec![1, 2],
            "kill at {site}: recovered versions {versions:?} are neither old nor old+new"
        );
        // Whatever is listed must be fully readable — metadata parses
        // and every GOP passes its checksum.
        for &v in &versions {
            let stored = cat.read("demo", Some(v)).unwrap();
            let media = stored.media();
            for t in &stored.metadata.tracks {
                for e in &t.gop_index {
                    media
                        .read_gop_bytes(&t.media_path, e)
                        .unwrap_or_else(|err| panic!("kill at {site}: v{v} unreadable: {err}"));
                }
            }
        }
        // The recovery sweep leaves no temp debris behind.
        assert_eq!(tmp_debris(&root.join("demo")), Vec::<String>::new(), "kill at {site}");
        // And the catalog accepts a subsequent fault-free store.
        let v = cat.store("demo", vec![new_track()], sphere_tlfd()).unwrap();
        assert_eq!(v, *versions.last().unwrap() + 1, "kill at {site}");
        let _ = fs::remove_dir_all(&root);
    }
}

/// A crash between writing media and publishing metadata must leave
/// the old version intact; the orphaned media file is harmless and
/// the next store reuses its version slot.
#[test]
fn crash_between_media_write_and_metadata_publish_recovers() {
    faults::reset();
    let root = temp_root("mediameta");
    {
        let cat = Catalog::open(&root).unwrap();
        cat.store("demo", vec![new_track()], sphere_tlfd()).unwrap();
        // Fail at the WAL append: media for v2 is already on disk,
        // but the version never commits.
        faults::arm_n(sites::WAL_APPEND_WRITE, Fault::Enospc, 1);
        assert!(cat.store("demo", vec![new_track()], sphere_tlfd()).is_err());
        faults::reset();
        // The orphan media file exists but no metadata references it.
        assert!(root.join("demo").join("stream2_0.lvc").exists());
    }
    let cat = Catalog::open(&root).unwrap();
    assert_eq!(cat.all_versions("demo").unwrap(), vec![1]);
    // Retrying the store commits version 2 over the orphan.
    assert_eq!(cat.store("demo", vec![new_track()], sphere_tlfd()).unwrap(), 2);
    assert_eq!(cat.read("demo", Some(2)).unwrap().version, 2);
    let _ = fs::remove_dir_all(&root);
}

/// ENOSPC during the media write fails the store cleanly: no temp
/// files, no partial version, old data still queryable end-to-end.
#[test]
fn enospc_mid_store_preserves_queryable_old_state() {
    faults::reset();
    let root = temp_root("enospc");
    let db = LightDb::open(&root).unwrap();
    lightdb::ingest::store_frames(
        &db,
        "src",
        &(0..4).map(|i| Frame::filled(32, 32, Yuv::new((i * 60) as u8, 128, 128))).collect::<Vec<_>>(),
        &lightdb::ingest::IngestConfig { fps: 2, gop_length: 2, ..Default::default() },
    )
    .unwrap();
    faults::arm_n(sites::MEDIA_TMP_WRITE, Fault::Enospc, 1);
    let r = db.execute(&(scan("src") >> Store::named("dst")));
    faults::reset();
    assert!(r.is_err(), "store must surface the ENOSPC");
    assert!(!db.catalog().exists("dst"));
    assert_eq!(tmp_debris(&root.join("dst")), Vec::<String>::new());
    // The source TLF still scans.
    assert_eq!(db.execute(&scan("src")).unwrap().frame_count(), 4);
    let _ = fs::remove_dir_all(&root);
}

/// A flipped byte in stored media is caught by the per-GOP checksum:
/// the default policy fails the query, while `SkipCorruptGops`
/// degrades output and reports the skip through exec metrics.
#[test]
fn flipped_byte_detected_under_both_read_policies() {
    faults::reset();
    let root = temp_root("flip");
    {
        let db = LightDb::open(&root).unwrap();
        lightdb::ingest::store_frames(
            &db,
            "vid",
            &(0..4).map(|i| Frame::filled(32, 32, Yuv::new((i * 60) as u8, 128, 128))).collect::<Vec<_>>(),
            &lightdb::ingest::IngestConfig { fps: 2, gop_length: 2, ..Default::default() },
        )
        .unwrap();
        // Flip one byte in the middle of the first GOP's byte range.
        let stored = db.catalog().read("vid", None).unwrap();
        let track = &stored.metadata.tracks[0];
        let entry = &track.gop_index[0];
        let media = root.join("vid").join(&track.media_path);
        let mut bytes = fs::read(&media).unwrap();
        bytes[(entry.byte_offset + entry.byte_len / 2) as usize] ^= 0x01;
        fs::write(&media, &bytes).unwrap();
    }
    // Default policy: the corruption fails the query.
    let db = LightDb::open(&root).unwrap();
    let err = db.execute(&scan("vid")).unwrap_err();
    assert!(format!("{err}").contains("checksum"), "unexpected error: {err}");
    // Skip policy: the query degrades instead, and the skip is counted.
    let mut skipping = db.session();
    skipping.set_read_policy(ReadPolicy::SkipCorruptGops { max_skipped: 4 });
    let out = skipping.execute(&scan("vid")).unwrap();
    assert_eq!(out.frame_count(), 2, "one 2-frame GOP should have been skipped");
    assert_eq!(skipping.metrics().counter(counters::SKIPPED_GOPS), 1);
    // A zero budget behaves like Fail.
    let mut strict = db.session();
    strict.set_read_policy(ReadPolicy::SkipCorruptGops { max_skipped: 0 });
    assert!(strict.execute(&scan("vid")).is_err());
    let _ = fs::remove_dir_all(&root);
}

/// Transient I/O errors (EINTR-style) on the media read path are
/// retried and the query succeeds.
#[test]
fn transient_read_errors_are_invisible_to_queries() {
    faults::reset();
    let root = temp_root("transient");
    let db = LightDb::open(&root).unwrap();
    lightdb::ingest::store_frames(
        &db,
        "vid",
        &(0..4).map(|i| Frame::filled(32, 32, Yuv::new((i * 60) as u8, 128, 128))).collect::<Vec<_>>(),
        &lightdb::ingest::IngestConfig { fps: 2, gop_length: 2, ..Default::default() },
    )
    .unwrap();
    faults::arm_n(sites::MEDIA_READ, Fault::Transient(std::io::ErrorKind::Interrupted), 2);
    let out = db.execute(&scan("vid")).unwrap();
    faults::reset();
    assert_eq!(out.frame_count(), 4);
    let _ = fs::remove_dir_all(&root);
}

/// Torn writes injected below the publish layer are caught at read
/// time by the checksum even though the store itself "succeeded".
#[test]
fn torn_media_write_is_caught_on_first_scan() {
    faults::reset();
    let root = temp_root("torn");
    let cat = Catalog::open(&root).unwrap();
    let full_len = tiny_stream().to_bytes().len();
    faults::arm_n(sites::MEDIA_WRITE_BYTES, Fault::TruncateWrite { keep: full_len / 2 }, 1);
    // The store publishes — the corruption is silent at write time.
    let stored = cat.store("demo", vec![new_track()], sphere_tlfd());
    faults::reset();
    if stored.is_err() {
        // Acceptable: the torn stream may already fail validation
        // during the store itself.
        let _ = fs::remove_dir_all(&root);
        return;
    }
    let tlf = cat.read("demo", None).unwrap();
    let media = tlf.media();
    let damaged = tlf.metadata.tracks.iter().any(|t| {
        t.gop_index.iter().any(|e| media.read_gop_bytes(&t.media_path, e).is_err())
    });
    assert!(damaged, "a torn media write must be detected on read");
    let _ = fs::remove_dir_all(&root);
}

/// 16 frames of 32×32 video in 8 two-frame GOPs, stored as `vid`.
fn eight_gops(tag: &str) -> LightDb {
    let db = LightDb::open(temp_root(tag)).unwrap();
    let frames: Vec<Frame> =
        (0..16).map(|i| Frame::filled(32, 32, Yuv::new((i * 15) as u8, 100, 160))).collect();
    let cfg = lightdb::ingest::IngestConfig { fps: 2, gop_length: 2, ..Default::default() };
    lightdb::ingest::store_frames(&db, "vid", &frames, &cfg).unwrap();
    db
}

fn drop_db(db: LightDb) {
    let root = db.catalog().root().to_path_buf();
    drop(db);
    let _ = fs::remove_dir_all(root);
}

/// Two batches of four GOP decodes, every one on a scatter worker.
fn two_thread_decode(db: &LightDb) -> Result<QueryOutput, lightdb::Error> {
    let mut session = db.session();
    session.set_parallelism(Parallelism::new(2));
    session.execute(&(scan("vid") >> Map::builtin(BuiltinMap::Grayscale)))
}

/// A fault armed with plain `arm` on the test thread reaches the
/// executor's scatter workers, which decode every GOP here.
#[test]
fn a_fault_armed_on_the_test_thread_reaches_the_scatter_workers() {
    let db = eight_gops("scatter-reach");
    faults::reset();
    faults::arm(sites::EXEC_DECODE_GOP, Fault::Error(std::io::ErrorKind::Other));
    let result = two_thread_decode(&db);
    faults::reset();
    let err = result.expect_err("the armed decode fault must surface");
    assert!(err.to_string().contains("injected fault at exec.decode.gop"), "{err}");
    assert_eq!(two_thread_decode(&db).unwrap().frame_count(), 16);
    drop_db(db);
}

/// A simulated crash stops the scope it fired in and nothing else: an
/// engine on a thread that does not inherit that scope keeps storing
/// and scanning, while the crashed engine fails until `reset`.
#[test]
fn a_crash_stops_its_own_scope_and_no_other_engine() {
    let crashed = eight_gops("crash-scope-a");
    let mut serial = crashed.session();
    serial.set_parallelism(Parallelism::SERIAL);
    faults::reset();
    faults::arm_n(sites::MEDIA_READ, Fault::Crash, 1);
    assert!(serial.execute(&scan("vid")).is_err(), "the armed crash must fire");
    assert!(faults::crashed());
    let bystander = std::thread::spawn(|| {
        let db = eight_gops("crash-scope-b");
        let frames = two_thread_decode(&db).map(|out| out.frame_count());
        drop_db(db);
        frames
    });
    let frames = bystander.join().expect("bystander thread");
    assert_eq!(frames.expect("an engine outside the crashed scope keeps serving"), 16);
    assert!(serial.execute(&scan("vid")).is_err(), "the crashed scope stays down");
    faults::reset();
    assert_eq!(serial.execute(&scan("vid")).unwrap().frame_count(), 16);
    drop(serial);
    drop_db(crashed);
}

/// `LIGHTDB_FAULTS` is read once per scope, so `n` counts across the
/// scatter workers: the test re-runs itself in a child process with a
/// one-shot decode fault, where the first 2-thread scan fails and an
/// identical second scan succeeds.
#[test]
fn env_armed_faults_fire_n_times_per_scope() {
    const SPEC: &str = "exec.decode.gop=err:other:1";
    const NAME: &str = "env_armed_faults_fire_n_times_per_scope";
    if std::env::var("LIGHTDB_FAULTS").as_deref() == Ok(SPEC) {
        let db = eight_gops("env-scope");
        let first = two_thread_decode(&db);
        let second = two_thread_decode(&db);
        drop_db(db);
        assert!(first.is_err(), "the env-armed fault must fire once");
        assert_eq!(second.expect("the one charge is spent").frame_count(), 16);
        return;
    }
    let exe = std::env::current_exe().unwrap();
    let out = std::process::Command::new(exe)
        .args([NAME, "--exact", "--test-threads=1"])
        .env("LIGHTDB_FAULTS", SPEC)
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child failed:\n{text}{}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("1 passed"), "the child ran no test:\n{text}");
}
