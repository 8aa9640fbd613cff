//! Zero-copy serving against a large cold archive: the acceptance test
//! that a fleet file's first query decodes exactly one job (no full
//! deserialization), that decoded results are bit-identical to the eager
//! loader, and that CRC damage is caught on first touch without taking
//! healthy jobs down with it.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use granula_archive::{
    frame_table, ArchiveStore, JobArchive, JobMeta, MappedStore, Query, QueryMode, ServeOptions,
    ShardedEngine, FRAME_JOB,
};
use granula_model::{Actor, Mission, OperationTree};

const JOBS: usize = 10;
const SUPERSTEPS: i64 = 250;
const WORKERS: i64 = 20;
// 10 jobs x (1 root + 250 supersteps x (1 + 20 workers)) > 52k ops; with
// the info records the file crosses the "big enough that eagerly decoding
// everything would be visible" line while staying fast to build.

fn big_job(job_id: &str) -> JobArchive {
    let mut t = OperationTree::new();
    let job = t
        .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
        .unwrap();
    for s in 0..SUPERSTEPS {
        let ss = t
            .add_child(
                job,
                Actor::new("Job", "0"),
                Mission::new("Superstep", s.to_string()),
            )
            .unwrap();
        for w in 0..WORKERS {
            t.add_child(
                ss,
                Actor::new("Worker", w.to_string()),
                Mission::new("Compute", "0"),
            )
            .unwrap();
        }
    }
    JobArchive::new(
        JobMeta {
            job_id: job_id.into(),
            platform: "Giraph".into(),
            algorithm: "BFS".into(),
            dataset: "dg1000".into(),
            nodes: WORKERS as u32,
            model: "giraph".into(),
        },
        t,
    )
}

fn fleet_file(name: &str) -> (PathBuf, ArchiveStore) {
    let path = std::env::temp_dir().join(format!("granula-zct-{name}-{}.gar", std::process::id()));
    let mut store = ArchiveStore::new();
    for i in 0..JOBS {
        store.add(big_job(&format!("job-{i:02}"))).unwrap();
    }
    store.save(&path).unwrap();
    (path, store)
}

#[test]
fn cold_archive_first_query_decodes_exactly_one_job() {
    let (path, _) = fleet_file("cold");
    let engine = ShardedEngine::open_fleet(&[&path], ServeOptions::default()).unwrap();
    let source = Arc::clone(&engine.sources()[0]);
    assert_eq!(engine.len(), JOBS);
    assert!(source.is_mapped(), "large file should mmap, not heap-read");
    assert_eq!(
        source.decoded_jobs(),
        0,
        "opening the fleet must not deserialize anything"
    );

    let query = Query::parse("GiraphJob/Superstep-7/Compute").unwrap();
    let got = engine
        .query("job-03", &query, QueryMode::Select)
        .unwrap()
        .expect("job exists");
    assert_eq!(got.len(), WORKERS as usize);
    assert_eq!(
        source.decoded_jobs(),
        1,
        "first query must decode only the touched job, not the archive"
    );
    assert_eq!(
        source.verified_jobs(),
        1,
        "CRC is checked on first touch of that one frame"
    );

    // Re-querying the same job stays at one decode (resident cache), and
    // touching a second job decodes exactly one more.
    engine.query("job-03", &query, QueryMode::Select).unwrap();
    assert_eq!(source.decoded_jobs(), 1);
    engine.query("job-08", &query, QueryMode::Select).unwrap();
    assert_eq!(source.decoded_jobs(), 2);

    let _ = fs::remove_file(&path);
}

#[test]
fn mapped_decode_is_bit_identical_to_the_eager_loader() {
    let (path, _) = fleet_file("ident");
    let eager = ArchiveStore::load(&path).unwrap();
    let mapped = MappedStore::open(&path).unwrap();
    assert_eq!(mapped.len(), eager.len());
    for archive in eager.iter() {
        let decoded = mapped.decode_job(&archive.meta.job_id).unwrap();
        assert_eq!(&decoded, archive, "{} differs", archive.meta.job_id);
    }

    // And the query surface agrees byte-for-byte: sharded-over-mmap vs
    // the linear scans over the eagerly-loaded store.
    let sharded = ShardedEngine::open_fleet(&[&path], ServeOptions::default()).unwrap();
    for text in [
        "Compute",
        "GiraphJob/Superstep/Compute@Worker-13",
        "Superstep-249",
        "*-0",
        "GiraphJob/Missing",
    ] {
        let query = Query::parse(text).unwrap();
        for mode in [QueryMode::Select, QueryMode::FindAll] {
            for job in ["job-00", "job-05", "job-09"] {
                let served = sharded.query(job, &query, mode).unwrap().unwrap();
                let tree = &eager.get(job).unwrap().tree;
                let expect = match mode {
                    QueryMode::Select => query.select(tree),
                    QueryMode::FindAll => query.find_all(tree),
                };
                assert_eq!(*served, expect, "job {job} query `{text}` mode {mode:?}");
            }
        }
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn crc_damage_fails_the_touched_job_but_not_its_neighbours() {
    let (path, _) = fleet_file("crc");
    let bytes = fs::read(&path).unwrap();
    // Flip a payload bit in the frame of a known job.
    let victim = frame_table(&bytes)
        .unwrap()
        .into_iter()
        .find(|f| f.kind == FRAME_JOB && f.job_id.as_deref() == Some("job-04"))
        .expect("trailer names every job frame");
    let mut corrupt = bytes;
    corrupt[victim.offset + 64] ^= 0x01;
    fs::write(&path, &corrupt).unwrap();

    let engine = ShardedEngine::open_fleet(&[&path], ServeOptions::default()).unwrap();
    let query = Query::parse("Compute").unwrap();
    // Healthy neighbours serve normally...
    for job in ["job-00", "job-03", "job-09"] {
        let got = engine.query(job, &query, QueryMode::FindAll).unwrap();
        assert_eq!(got.unwrap().len(), (SUPERSTEPS * WORKERS) as usize);
    }
    // ...while the damaged frame is refused on first touch, every time
    // (a CRC failure is never memoized as ok).
    for _ in 0..2 {
        let err = engine
            .query("job-04", &query, QueryMode::FindAll)
            .expect_err("corrupt frame must not serve");
        let msg = err.to_string();
        assert!(
            msg.to_lowercase().contains("crc"),
            "unexpected error: {msg}"
        );
    }
    assert_eq!(
        engine.sources()[0].verified_jobs(),
        3,
        "only the healthy touches count"
    );

    let _ = fs::remove_file(&path);
}
