//! Torn-write fault-injection harness: the crash-safety contract of the
//! `.gar` format, checked property-style over seeded corruptions.
//!
//! The contract, for **any** corruption of a valid store file:
//!
//! 1. the strict loader either succeeds or returns a structured
//!    [`BinError`] — it never panics, hangs, or makes an input-sized
//!    allocation the file cannot back;
//! 2. salvage never invents data: every recovered job existed in the
//!    original store, **byte-for-byte identical** (its frame checksummed);
//! 3. salvage recovers precisely the checksum-intact jobs: a prefix
//!    truncation keeps exactly the jobs whose frames fit the prefix, and
//!    bit flips lose only jobs whose frames (or the trailer+footer that
//!    locates them) were hit;
//! 4. the whole pipeline is deterministic — same corrupted bytes, same
//!    report.

use proptest::prelude::*;

use granula_archive::binfmt::FOOTER_LEN;
use granula_archive::{
    crc32c, frame_table, mutate, salvage_from_bytes, store_from_bytes, store_to_bytes,
    ArchiveStore, BinError, FrameInfo, JobArchive, JobMeta, Mutator, RunMeta, BIN_FORMAT_VERSION,
    FRAME_RUN, FRAME_TRAILER, MAGIC,
};
use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};

/// A store with `jobs` jobs of varying tree size, deterministic in its
/// arguments.
fn build_store(jobs: usize, scale: usize) -> ArchiveStore {
    let mut store = ArchiveStore::new().with_run(RunMeta::new("run-x", 1_234, "corruption"));
    for j in 0..jobs {
        let mut tree = OperationTree::new();
        let root = tree
            .add_root(Actor::new("Job", "0"), Mission::new("Job", "0"))
            .unwrap();
        tree.set_info(root, Info::raw(names::START_TIME, InfoValue::Int(0)))
            .unwrap();
        tree.set_info(
            root,
            Info::raw(names::END_TIME, InfoValue::Int(1_000_000 + j as i64)),
        )
        .unwrap();
        for i in 0..(1 + j * scale) {
            let c = tree
                .add_child(
                    root,
                    Actor::new("Worker", format!("{i}")),
                    Mission::new("Compute", format!("{i}")),
                )
                .unwrap();
            tree.set_info(c, Info::raw("Load", InfoValue::Float(i as f64 * 0.5)))
                .unwrap();
        }
        store
            .add(JobArchive::new(
                JobMeta {
                    job_id: format!("job-{j}"),
                    platform: "Giraph".into(),
                    algorithm: "BFS".into(),
                    dataset: "dg".into(),
                    nodes: 4,
                    model: "m".into(),
                },
                tree,
            ))
            .unwrap();
    }
    store
}

/// Job ids whose whole frames lie within `bytes[..cut]`.
fn jobs_within(frames: &[FrameInfo], cut: usize) -> Vec<String> {
    frames
        .iter()
        .filter(|f| f.job_id.is_some() && f.offset + f.len <= cut)
        .map(|f| f.job_id.clone().unwrap())
        .collect()
}

/// Asserts the salvage invariants that hold for *every* corruption:
/// recovered jobs are a subset of the originals, with identical content.
fn assert_no_invention(report: &granula_archive::SalvageReport, original: &ArchiveStore) {
    for id in &report.recovered {
        let recovered = report.store.get(id).expect("recovered id is in the store");
        let orig = original
            .get(id)
            .unwrap_or_else(|| panic!("salvage invented job `{id}`"));
        assert_eq!(recovered, orig, "recovered `{id}` differs from original");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Property 3, truncation half: chopping the file at any point keeps
    /// exactly the jobs whose frames fit the remaining prefix.
    #[test]
    fn truncation_recovers_exactly_the_prefix_jobs(
        jobs in 1usize..5,
        cut_frac in 0.0f64..1.0,
    ) {
        let store = build_store(jobs, 7);
        let bytes = store_to_bytes(&store);
        let frames = frame_table(&bytes).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut torn = bytes.clone();
        mutate::truncate_at(&mut torn, cut);

        match store_from_bytes(&torn) {
            Ok(loaded) => prop_assert_eq!(loaded.len(), store.len(), "only the whole file loads"),
            Err(_) => {
                let report = salvage_from_bytes(&torn);
                assert_no_invention(&report, &store);
                let expected = jobs_within(&frames, cut);
                prop_assert_eq!(
                    report.recovered.clone(), expected,
                    "cut at {} of {}", cut, bytes.len()
                );
            }
        }
    }

    /// Property 3, torn-write half: a crash mid-overwrite (intact prefix,
    /// garbage tail of the same length) keeps exactly the prefix jobs.
    #[test]
    fn torn_tail_recovers_exactly_the_prefix_jobs(
        jobs in 1usize..5,
        cut_frac in 0.0f64..1.0,
        garbage_seed in any::<u64>(),
    ) {
        let store = build_store(jobs, 5);
        let bytes = store_to_bytes(&store);
        let frames = frame_table(&bytes).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut torn = bytes.clone();
        mutate::torn_tail(&mut torn, cut, garbage_seed);

        match store_from_bytes(&torn) {
            Ok(loaded) => prop_assert_eq!(loaded.len(), store.len()),
            Err(_) => {
                let report = salvage_from_bytes(&torn);
                assert_no_invention(&report, &store);
                let expected = jobs_within(&frames, cut);
                prop_assert_eq!(report.recovered.clone(), expected);
            }
        }
    }

    /// Property 2+3, bit-flip half: flips never cause a panic or invented
    /// data, and a job whose frame — and the trailer/footer locating it —
    /// was untouched is always recovered.
    #[test]
    fn bit_flips_lose_only_touched_frames(
        jobs in 1usize..5,
        bits in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let store = build_store(jobs, 4);
        let bytes = store_to_bytes(&store);
        let frames = frame_table(&bytes).unwrap();
        let mut corrupt = bytes.clone();
        for &bit in &bits {
            mutate::flip_bit(&mut corrupt, bit);
        }
        if corrupt == bytes {
            // Flips cancelled each other out.
            prop_assert!(store_from_bytes(&corrupt).is_ok());
            return Ok(());
        }

        let touched: Vec<usize> = bits
            .iter()
            .map(|b| ((b % (bytes.len() as u64 * 8)) / 8) as usize)
            .collect();
        let hit = |lo: usize, len: usize| touched.iter().any(|&b| b >= lo && b < lo + len);
        // The structures that *locate* job frames: the 8-byte file
        // header (magic + version), the trailer, and the footer. A flip
        // in any of these may legitimately take unrelated jobs down.
        let trailer = frames.last().unwrap();
        let locator_hit = hit(0, granula_archive::binfmt::HEADER_LEN)
            || hit(trailer.offset, trailer.len)
            || hit(bytes.len() - FOOTER_LEN, FOOTER_LEN);

        match store_from_bytes(&corrupt) {
            Ok(loaded) => {
                // CRC32C catches <=3 flips in a frame; a clean load here
                // means a >=4-bit collision, which seeded inputs do not
                // produce — but if one ever did, content must still match.
                prop_assert_eq!(loaded.len(), store.len());
            }
            Err(_) => {
                let report = salvage_from_bytes(&corrupt);
                assert_no_invention(&report, &store);
                if !locator_hit {
                    for f in &frames {
                        let Some(id) = &f.job_id else { continue };
                        if !hit(f.offset, f.len) {
                            prop_assert!(
                                report.recovered.contains(id),
                                "untouched job `{}` must be recovered (flipped bytes {:?})",
                                id, touched
                            );
                        }
                    }
                }
            }
        }
    }

    /// Property 1 over the full mutation mix, plus property 4: the
    /// loader/salvage pipeline is panic-free and deterministic.
    #[test]
    fn seeded_mutation_storm_never_panics(seed in any::<u64>()) {
        let store = build_store(3, 6);
        let bytes = store_to_bytes(&store);
        let mut mutator = Mutator::new(seed);
        for _ in 0..8 {
            let (corrupt, _mutation) = mutator.mutate(&bytes);
            match store_from_bytes(&corrupt) {
                Ok(loaded) => prop_assert_eq!(loaded.len(), store.len()),
                Err(_) => {
                    let a = salvage_from_bytes(&corrupt);
                    assert_no_invention(&a, &store);
                    let b = salvage_from_bytes(&corrupt);
                    prop_assert_eq!(a.recovered, b.recovered, "salvage must be deterministic");
                    prop_assert_eq!(a.lost.len(), b.lost.len());
                }
            }
        }
    }

    /// Property 1 for inputs that were never archives at all.
    #[test]
    fn random_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..2_000)) {
        prop_assert!(store_from_bytes(&data).is_err() || data.len() >= 8);
        let report = salvage_from_bytes(&data);
        prop_assert!(report.recovered.is_empty() || report.clean);
    }
}

/// Appends one frame with a correct CRC32C, returning its offset.
fn push_frame(out: &mut Vec<u8>, kind: u8, payload: &[u8]) -> usize {
    let at = out.len();
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32c(&out[at..]);
    out.extend_from_slice(&crc.to_le_bytes());
    at
}

/// A complete v3 file, every checksum valid, whose RUN frame carries
/// `payload` verbatim and whose trailer lists no jobs.
fn file_with_run_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&BIN_FORMAT_VERSION.to_le_bytes());
    push_frame(&mut out, FRAME_RUN, payload);
    let trailer = push_frame(&mut out, FRAME_TRAILER, &[0]) as u64;
    out.extend_from_slice(&trailer.to_le_bytes());
    out.extend_from_slice(&crc32c(&trailer.to_le_bytes()).to_le_bytes());
    out.extend_from_slice(b"GREN");
    out
}

/// A forged length prefix orders of magnitude past the file size must be
/// rejected before any allocation happens — the regression test for the
/// unbounded `Vec::with_capacity` hardening (run with a conservative
/// address-space expectation: allocating 4 GB here would OOM CI).
#[test]
fn forged_4gb_length_header_is_rejected_cheaply() {
    // A CRC-valid RUN frame whose payload claims a 4-billion-entry
    // object, in an otherwise well-formed file.
    let mut payload = vec![0x07]; // TAG_OBJECT
    payload.extend_from_slice(&[0x80, 0x90, 0xBC, 0xEE, 0x0F]); // varint ~4.25e9
    let forged = file_with_run_payload(&payload);
    assert!(frame_table(&forged).is_ok(), "every frame verifies");
    assert!(matches!(
        store_from_bytes(&forged),
        Err(BinError::Truncated)
    ));
    let report = salvage_from_bytes(&forged);
    assert!(report.recovered.is_empty());
    assert!(report.trailer_intact && !report.run_recovered);

    // v3 frame whose length field claims ~4 GB of payload.
    let store = build_store(1, 3);
    let mut bytes = store_to_bytes(&store);
    let frames = frame_table(&bytes).unwrap();
    let job = frames.iter().find(|f| f.job_id.is_some()).unwrap();
    bytes[job.offset + 1..job.offset + 5].copy_from_slice(&4_000_000_000u32.to_le_bytes());
    assert!(store_from_bytes(&bytes).is_err());
    let report = salvage_from_bytes(&bytes);
    // The trailer still locates every *intact* frame; the job with the
    // forged length is exactly the one lost.
    assert!(report
        .lost
        .iter()
        .any(|l| l.job_id.as_deref() == Some("job-0")));
}

/// Double-save determinism survives a salvage round-trip: repairing a
/// damaged store and saving it yields a canonical v3 file.
#[test]
fn salvage_then_save_is_canonical() {
    let store = build_store(4, 5);
    let bytes = store_to_bytes(&store);
    let frames = frame_table(&bytes).unwrap();
    let victim = frames.iter().find(|f| f.job_id.is_some()).unwrap();
    let mut corrupt = bytes.clone();
    corrupt[victim.offset + 7] ^= 0x20;

    let report = salvage_from_bytes(&corrupt);
    assert_eq!(report.recovered, ["job-1", "job-2", "job-3"]);
    let repaired = store_to_bytes(&report.store);
    let reloaded = store_from_bytes(&repaired).unwrap();
    assert_eq!(store_to_bytes(&reloaded), repaired, "repair is canonical");
    assert_eq!(reloaded.run(), store.run(), "run header survives repair");
}
