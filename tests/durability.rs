//! Durability and storage-manager integration: restart recovery,
//! no-overwrite sharing, corruption detection.

use lightdb::prelude::*;
use lightdb_datasets::{install, Dataset, DatasetSpec};
use std::path::PathBuf;

fn tiny() -> DatasetSpec {
    DatasetSpec { width: 64, height: 32, fps: 2, seconds: 2, qp: 28 }
}

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("lightdb-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn database_survives_reopen() {
    let root = temp_root("reopen");
    {
        let db = LightDb::open(&root).unwrap();
        install(&db, Dataset::Timelapse, &tiny()).unwrap();
        db.execute(&(scan("timelapse") >> Map::builtin(BuiltinMap::Blur) >> Store::named("b")))
            .unwrap();
    }
    // Fresh process-equivalent: new handle over the same directory.
    let db = LightDb::open(&root).unwrap();
    assert!(db.catalog().exists("timelapse"));
    assert!(db.catalog().exists("b"));
    let out = db.execute(&scan("b")).unwrap();
    assert_eq!(out.frame_count(), 4);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn versions_accumulate_without_rewriting_media() {
    let root = temp_root("versions");
    let db = LightDb::open(&root).unwrap();
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    // Three stores into the same TLF → three versions.
    for _ in 0..3 {
        db.execute(&(scan("timelapse") >> Store::named("copies"))).unwrap();
    }
    let versions = db.catalog().all_versions("copies").unwrap();
    assert_eq!(versions, vec![1, 2, 3]);
    // All versions remain readable.
    for v in versions {
        let out = db.execute(&scan_version("copies", v)).unwrap();
        assert_eq!(out.frame_count(), 4, "version {v}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Acked ⇒ readable beside a second open of a live root. A second
/// catalog over the root would replay, checkpoint and truncate the live
/// handle's log, and every store the live handle acknowledged after
/// that would be gone at the next restart. The second open is refused
/// instead, with a classified error that names the root.
#[test]
fn second_open_of_a_live_root_loses_no_acked_publish() {
    let root = temp_root("liveroot");
    let refusal = {
        let a = LightDb::open(&root).unwrap();
        install(&a, Dataset::Timelapse, &tiny()).unwrap();
        let b = LightDb::open(&root);
        for i in 0..3 {
            let name = format!("y{i}");
            a.execute(&(scan("timelapse") >> Store::named(&name))).unwrap();
            assert_eq!(a.execute(&scan(&name)).unwrap().frame_count(), 4);
        }
        match b {
            Ok(_) => None,
            Err(lightdb::Error::Storage(e)) => Some((e.to_string(), e.classify())),
            Err(other) => panic!("unexpected error: {other}"),
        }
    };
    let db = LightDb::open(&root).unwrap();
    for i in 0..3 {
        let name = format!("y{i}");
        assert!(db.catalog().exists(&name), "acknowledged {name} lost across a restart");
        assert_eq!(db.execute(&scan(&name)).unwrap().frame_count(), 4);
    }
    let (message, class) = refusal.expect("a second open of a live root must be refused");
    assert!(message.contains(&root.display().to_string()), "{message}");
    assert!(class.is_classified(), "{message}: {class}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_metadata_is_detected_on_read() {
    let root = temp_root("corrupt");
    let db = LightDb::open(&root).unwrap();
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    // Checkpoint first so the WAL no longer holds the metadata — a
    // reopen must detect the damage rather than silently repair it
    // from the log.
    db.checkpoint().unwrap();
    // Truncate the metadata file behind the catalog's back.
    let meta = root.join("timelapse").join("metadata1.mp4");
    let bytes = std::fs::read(&meta).unwrap();
    std::fs::write(&meta, &bytes[..bytes.len() / 2]).unwrap();
    drop(db);
    let db2 = LightDb::open(&root).unwrap();
    assert!(db2.execute(&scan("timelapse")).is_err(), "corruption must surface as an error");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_media_is_detected_on_decode() {
    let root = temp_root("corruptmedia");
    let db = LightDb::open(&root).unwrap();
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    // Flip bytes in the middle of the media file (inside GOP data).
    let dir = root.join("timelapse");
    let media = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().map(|e| e == "lvc").unwrap_or(false))
        .unwrap();
    let mut bytes = std::fs::read(&media).unwrap();
    let mid = bytes.len() / 2;
    let end = (mid + 64).min(bytes.len());
    for b in &mut bytes[mid..end] {
        *b = !*b;
    }
    std::fs::write(&media, &bytes).unwrap();
    drop(db);
    let db2 = LightDb::open(&root).unwrap();
    // Either an error or degraded output is acceptable; a panic is not.
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = db2.execute(&(scan("timelapse") >> Map::builtin(BuiltinMap::Blur)));
    }));
    assert!(r.is_ok(), "decoding corrupt media must not panic");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupt_media_is_caught_by_gop_checksum() {
    let root = temp_root("crc");
    let db = LightDb::open(&root).unwrap();
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    // Flip a single byte inside the first GOP's indexed byte range —
    // subtle damage that container parsing alone may not notice.
    let stored = db.catalog().read("timelapse", None).unwrap();
    let track = &stored.metadata.tracks[0];
    let entry = &track.gop_index[0];
    let media = root.join("timelapse").join(&track.media_path);
    let mut bytes = std::fs::read(&media).unwrap();
    bytes[(entry.byte_offset + entry.byte_len / 2) as usize] ^= 0x80;
    std::fs::write(&media, &bytes).unwrap();
    // Default policy: the checksum mismatch fails the query.
    drop(db);
    let db2 = LightDb::open(&root).unwrap();
    let err = db2.execute(&scan("timelapse")).unwrap_err();
    assert!(format!("{err}").contains("checksum"), "unexpected error: {err}");
    // SkipCorruptGops: the query degrades instead of failing, and the
    // skip is observable in the metrics.
    let mut skipping = db2.session();
    skipping.set_read_policy(ReadPolicy::SkipCorruptGops { max_skipped: 8 });
    let out = skipping.execute(&scan("timelapse")).unwrap();
    assert!(out.frame_count() < 4, "damaged GOP must be dropped from output");
    assert!(skipping.metrics().counter(lightdb::exec::metrics::counters::SKIPPED_GOPS) >= 1);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn crash_between_media_write_and_metadata_publish_is_recovered() {
    use lightdb_storage::faults::{self, sites, Fault};
    faults::reset();
    let root = temp_root("crashpub");
    {
        let db = LightDb::open(&root).unwrap();
        install(&db, Dataset::Timelapse, &tiny()).unwrap();
        // The copy's media file lands on disk, but the process "dies"
        // before the WAL record that would commit it is appended.
        db.execute(&(scan("timelapse") >> Store::named("copy"))).unwrap();
        faults::arm_n(sites::WAL_APPEND_WRITE, Fault::Error(std::io::ErrorKind::Other), 1);
        assert!(db.execute(&(scan("timelapse") >> Store::named("copy"))).is_err());
        faults::reset();
    }
    // Restart: only the committed version survives, no temp debris.
    let db = LightDb::open(&root).unwrap();
    assert_eq!(db.catalog().all_versions("copy").unwrap(), vec![1]);
    let debris: Vec<_> = std::fs::read_dir(root.join("copy"))
        .unwrap()
        .filter(|e| {
            e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".tmp")
        })
        .collect();
    assert!(debris.is_empty(), "recovery must sweep temp files: {debris:?}");
    assert_eq!(db.execute(&scan("copy")).unwrap().frame_count(), 4);
    // The interrupted store can simply be retried.
    db.execute(&(scan("timelapse") >> Store::named("copy"))).unwrap();
    assert_eq!(db.catalog().all_versions("copy").unwrap(), vec![1, 2]);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn recovery_is_idempotent_under_leftover_artifacts() {
    let root = temp_root("idem");
    {
        let db = LightDb::open(&root).unwrap();
        install(&db, Dataset::Timelapse, &tiny()).unwrap();
        db.execute(&(scan("timelapse") >> Store::named("copy"))).unwrap();
        // Materialise the metadata files the fabrication below reads.
        db.checkpoint().unwrap();
    }
    // Fabricate every class of leftover a crash can strand: an
    // orphaned temp file, a temp file whose rename target was already
    // published, and a torn metadata file for an uncommitted version.
    let dir = root.join("copy");
    let meta1 = std::fs::read(dir.join("metadata1.mp4")).unwrap();
    std::fs::write(dir.join(".metadata9.mp4.tmp"), b"orphan").unwrap();
    std::fs::write(dir.join(".metadata1.mp4.tmp"), &meta1).unwrap();
    std::fs::write(dir.join("metadata2.mp4"), &meta1[..meta1.len() / 3]).unwrap();

    let state_of = |db: &LightDb| {
        let mut names = db.catalog().names();
        names.sort();
        names
            .into_iter()
            .map(|n| (n.clone(), db.catalog().all_versions(&n).unwrap()))
            .collect::<Vec<_>>()
    };
    let db1 = LightDb::open(&root).unwrap();
    let s1 = state_of(&db1);
    drop(db1);
    // Opening again must reach the exact same state (idempotence) and
    // leave no debris behind.
    let db2 = LightDb::open(&root).unwrap();
    assert_eq!(state_of(&db2), s1);
    assert_eq!(db2.catalog().all_versions("copy").unwrap(), vec![1]);
    for e in std::fs::read_dir(&dir).unwrap() {
        let name = e.unwrap().file_name().to_string_lossy().to_string();
        assert!(!name.ends_with(".tmp"), "debris survived recovery: {name}");
    }
    assert_eq!(db2.execute(&scan("copy")).unwrap().frame_count(), 4);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn drop_removes_content_from_disk() {
    let root = temp_root("drop");
    let db = LightDb::open(&root).unwrap();
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    assert!(root.join("timelapse").exists());
    db.execute(&drop_tlf("timelapse")).unwrap();
    assert!(!root.join("timelapse").exists());
    let _ = std::fs::remove_dir_all(&root);
}

/// A name dropped and stored again reads its new content, not the
/// dropped TLF's GOPs still resident in the buffer pool: the new TLF's
/// version (and with it its media file, part of every pool key) is
/// above every version the dropped one reached.
#[test]
fn drop_then_store_under_the_same_name_reads_the_new_content() {
    let root = temp_root("restore");
    let db = LightDb::open(&root).unwrap();
    install(&db, Dataset::Timelapse, &tiny()).unwrap();
    let frames = |q: VrqlExpr| db.execute(&q).unwrap().into_frame_parts().unwrap();
    db.execute(&(scan("timelapse") >> Map::builtin(BuiltinMap::Blur) >> Store::named("x")))
        .unwrap();
    let blurred = frames(scan("x"));
    db.execute(&drop_tlf("x")).unwrap();
    for name in ["x", "gray"] {
        db.execute(
            &(scan("timelapse") >> Map::builtin(BuiltinMap::Grayscale) >> Store::named(name)),
        )
        .unwrap();
    }
    let gray = frames(scan("x"));
    assert_ne!(gray, blurred, "served the dropped TLF's frames");
    assert_eq!(gray, frames(scan("gray")));
    assert!(db.catalog().latest_version("x").unwrap() > 1, "reused a dropped version");
    let _ = std::fs::remove_dir_all(&root);
}
