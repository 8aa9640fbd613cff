//! Integration tests of the serving surface of `granula-cli`: the
//! `serve` daemon end-to-end over TCP (responses bit-identical to the
//! linear scans) and the `archive fsck` exit-code contract
//! CI gates on.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use granula_archive::{
    format_ids, frame_table, ArchiveStore, JobArchive, JobMeta, Query, QueryMode, FRAME_JOB,
};
use granula_model::{Actor, Mission, OperationTree};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_granula-cli"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("granula-serve-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("tempdir");
    dir
}

/// A small synthetic archive: one job root, `supersteps` supersteps with
/// two workers each.
fn archive(job_id: &str, supersteps: i64) -> JobArchive {
    let mut t = OperationTree::new();
    let job = t
        .add_root(Actor::new("Job", "0"), Mission::new("GiraphJob", "0"))
        .unwrap();
    for s in 0..supersteps {
        let ss = t
            .add_child(
                job,
                Actor::new("Job", "0"),
                Mission::new("Superstep", s.to_string()),
            )
            .unwrap();
        for w in 0..2 {
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
            dataset: "d".into(),
            nodes: 2,
            model: "m".into(),
        },
        t,
    )
}

fn save_store(path: &Path, jobs: &[(&str, i64)]) {
    let mut store = ArchiveStore::new();
    for (id, n) in jobs {
        store.add(archive(id, *n)).unwrap();
    }
    store.save(path).unwrap();
}

// ------------------------------------------------------------------ fsck

#[test]
fn fsck_exit_codes_clean_damaged_and_total_loss() {
    let dir = workdir("fsck");
    let store = dir.join("store.gar");
    save_store(&store, &[("a", 6), ("b", 6)]);

    // Clean: exit 0 and a parseable status line.
    let clean = cli()
        .args(["archive", "fsck", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0));
    let text = String::from_utf8_lossy(&clean.stdout);
    assert!(
        text.contains("fsck: status=clean"),
        "structured summary missing: {text}"
    );
    assert!(text.contains("recovered=2"));

    // Damaged: flip one byte in a job frame. Exit 2, status=corrupt.
    let bytes = fs::read(&store).unwrap();
    let victim = frame_table(&bytes)
        .unwrap()
        .into_iter()
        .find(|f| f.kind == FRAME_JOB)
        .unwrap();
    let mut corrupt = bytes.clone();
    corrupt[victim.offset + 12] ^= 0x40;
    let damaged = dir.join("damaged.gar");
    fs::write(&damaged, &corrupt).unwrap();
    let out = cli()
        .args(["archive", "fsck", damaged.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "damaged archive exits 2");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fsck: status=corrupt"), "{text}");
    assert!(
        text.contains("recovered=1"),
        "one of two jobs survives: {text}"
    );

    // --repair on the damaged file keeps the survivor and exits 0.
    let repaired = dir.join("repaired.gar");
    let fix = cli()
        .args([
            "archive",
            "fsck",
            damaged.to_str().unwrap(),
            "--repair",
            "--out",
            repaired.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(fix.status.code(), Some(0), "repair with survivors exits 0");
    assert!(repaired.exists());

    // Total loss: garbage from byte zero. Exit 3, status=lost.
    let lost = dir.join("lost.gar");
    fs::write(&lost, vec![0u8; 512]).unwrap();
    let out = cli()
        .args(["archive", "fsck", lost.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "total loss exits 3");
    assert!(String::from_utf8_lossy(&out.stdout).contains("fsck: status=lost"));

    // A retired v2 header: nothing is read past it. Exit 3, and the
    // report names the version.
    let mut v2 = bytes.clone();
    v2[4..8].copy_from_slice(&2u32.to_le_bytes());
    let legacy = dir.join("legacy.gar");
    fs::write(&legacy, &v2).unwrap();
    let out = cli()
        .args(["archive", "fsck", legacy.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "a v2 file is a total loss");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains(
            "LOST at byte 0: file header unusable: binary archive version 2 is not \
             supported: only version 3 is read"
        ),
        "{text}"
    );
    assert_eq!(
        text.lines().last(),
        Some(
            format!(
                "fsck: status=lost file={} recovered=0 lost=1 expected=? trailer=damaged run=no",
                legacy.display()
            )
            .as_str()
        ),
        "{text}"
    );

    // Repair cannot conjure data out of a total loss: still exit 3.
    let out = cli()
        .args(["archive", "fsck", lost.to_str().unwrap(), "--repair"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));

    // Operational failure (missing file): plain exit 1.
    let out = cli()
        .args(["archive", "fsck", dir.join("absent.gar").to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    let _ = fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------------- serve

/// Spawns the daemon over `fleet` on an ephemeral port and returns the
/// child plus the bound address scraped from its first stdout line.
fn spawn_daemon(fleet: &[&Path]) -> (Child, String) {
    let mut args: Vec<String> = vec!["serve".into()];
    args.extend(fleet.iter().map(|p| p.to_str().unwrap().to_string()));
    args.extend(["--addr".into(), "127.0.0.1:0".into()]);
    let mut child = cli()
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout piped"))
        .read_line(&mut line)
        .expect("daemon banner");
    let addr = line
        .rsplit(" on ")
        .next()
        .expect("banner names the address")
        .trim()
        .to_string();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "unexpected banner line: {line}"
    );
    (child, addr)
}

/// One lockstep request/response exchange on an open connection.
fn roundtrip(stream: &mut TcpStream, request: &str) -> String {
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while !buf.contains(&b'\n') {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "daemon closed early");
        buf.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8_lossy(&buf).trim_end().to_string()
}

#[test]
fn serve_daemon_responses_are_bit_identical_to_the_scans() {
    let dir = workdir("e2e");
    let f1 = dir.join("f1.gar");
    let f2 = dir.join("f2.gar");
    save_store(&f1, &[("alpha", 40), ("beta", 3)]);
    save_store(&f2, &[("gamma", 100)]);
    let (mut child, addr) = spawn_daemon(&[&f1, &f2]);

    let mut conn = TcpStream::connect(&addr).unwrap();
    assert_eq!(roundtrip(&mut conn, "PING"), "PONG");
    assert_eq!(roundtrip(&mut conn, "JOBS"), "JOBS 3 alpha beta gamma");

    // The reference: the linear scans over the union of both files,
    // rendered through the same wire formatter.
    let archives: Vec<JobArchive> = [&f1, &f2]
        .into_iter()
        .flat_map(|path| ArchiveStore::load(path).unwrap())
        .collect();
    let cases = [
        ("findall", "Compute", QueryMode::FindAll),
        ("select", "GiraphJob/Superstep/Compute", QueryMode::Select),
        ("findall", "Superstep/Compute@Worker-1", QueryMode::FindAll),
        ("findall", "*-1", QueryMode::FindAll),
        ("select", "GiraphJob/Nope", QueryMode::Select),
    ];
    for job in ["alpha", "beta", "gamma"] {
        for (wire_mode, text, mode) in &cases {
            let served = roundtrip(&mut conn, &format!("Q {wire_mode} {job} {text}"));
            let tree = &archives.iter().find(|a| a.meta.job_id == job).unwrap().tree;
            let query = Query::parse(text).unwrap();
            let want = match mode {
                QueryMode::Select => query.select(tree),
                QueryMode::FindAll => query.find_all(tree),
            };
            let expected = format!("OK {} {}", want.len(), format_ids(&want));
            assert_eq!(served, expected, "job {job}, query `{text}`");
        }
    }

    // Errors are structured, not disconnects.
    assert_eq!(
        roundtrip(&mut conn, "Q findall missing Compute"),
        "NOJOB missing"
    );
    assert!(roundtrip(&mut conn, "Q sideways x y").starts_with("ERR "));
    assert!(roundtrip(&mut conn, "STAT").starts_with("STAT {"));

    // Pipelined batch: three requests in one write, three answers back,
    // in order.
    conn.write_all(b"Q findall alpha Compute\nPING\nQ findall gamma Compute\n")
        .unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    while buf.iter().filter(|&&b| b == b'\n').count() < 3 {
        let n = conn.read(&mut chunk).unwrap();
        assert!(n > 0);
        buf.extend_from_slice(&chunk[..n]);
    }
    let lines: Vec<&str> = std::str::from_utf8(&buf).unwrap().lines().collect();
    assert!(
        lines[0].starts_with("OK 80 "),
        "alpha has 40x2 computes: {}",
        lines[0]
    );
    assert_eq!(lines[1], "PONG");
    assert!(
        lines[2].starts_with("OK 200 "),
        "gamma has 100x2: {}",
        lines[2]
    );

    assert_eq!(roundtrip(&mut conn, "SHUTDOWN"), "BYE");
    let status = child.wait().expect("daemon exits after SHUTDOWN");
    assert!(status.success());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_fleets_with_duplicate_job_ids() {
    let dir = workdir("dup");
    let f1 = dir.join("one.gar");
    let f2 = dir.join("two.gar");
    save_store(&f1, &[("shared", 3)]);
    save_store(&f2, &[("shared", 4)]);
    let out = cli()
        .args([
            "serve",
            f1.to_str().unwrap(),
            f2.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("shared") && err.contains("one.gar") && err.contains("two.gar"),
        "error must name the job and both files: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}
