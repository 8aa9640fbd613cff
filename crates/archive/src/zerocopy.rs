//! Zero-copy `.gar` reader: trailer-driven per-job extents over mmap.
//!
//! [`crate::binfmt::store_from_bytes`] walks every frame and decodes
//! every job payload into an [`crate::store::ArchiveStore`] — correct
//! for analysis sessions, but the wrong cost model for serving: a cold
//! 100k-op archive should answer its *first* query by decoding only the
//! one job the query names. The format-v3 footer/trailer (PR 8) already
//! records every job frame's byte extent precisely so that readers can
//! find a job without walking frames; this module closes the loop.
//!
//! [`MappedStore::open`] maps the file ([`crate::mmapio::Mapped`]) and
//! reads exactly three things eagerly: the 8-byte header, the RUN frame
//! (run metadata is tiny and every query needs the job roster anyway),
//! and the trailer (reached through the fixed footer, never through the
//! job frames). Job payloads stay as untouched byte ranges of the
//! mapping until a query lands on them.
//!
//! Integrity is not weakened, only deferred: each job frame's CRC32C is
//! verified on **first touch** — the first time a query needs that job's
//! bytes — and the verification is remembered, so steady-state serving
//! pays the checksum once per job, not once per query. A job whose frame
//! fails its CRC stays permanently unreadable through this store
//! (salvage is the repair path), while every other job keeps serving.
//!
//! The store counts how many jobs it has decoded and verified
//! ([`MappedStore::decoded_jobs`], [`MappedStore::verified_jobs`]); the
//! cold-archive test pins the zero-copy claim to those counters.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::archive::JobArchive;
use crate::binfmt::{
    self, BinError, TrailerEntry, FRAME_HEADER_LEN, FRAME_JOB, FRAME_OVERHEAD, FRAME_RUN,
    HEADER_LEN,
};
use crate::mmapio::Mapped;
use crate::store::RunMeta;

/// A `.gar` file mapped read-only, decoding job payloads on demand.
#[derive(Debug)]
pub struct MappedStore {
    map: Mapped,
    path: PathBuf,
    run: RunMeta,
    /// Trailer rows, in file order.
    jobs: Vec<TrailerEntry>,
    /// Job id → index into `jobs`.
    by_id: HashMap<String, usize>,
    /// Set once job `i`'s frame CRC has verified — later touches skip it.
    verified: Vec<OnceLock<()>>,
    decoded_jobs: AtomicU64,
    verified_jobs: AtomicU64,
}

impl MappedStore {
    /// Maps `path` and reads only header + RUN frame + trailer.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedStore, BinError> {
        let path = path.as_ref().to_path_buf();
        let map = Mapped::open(&path)?;
        binfmt::check_header(&map)?;
        let (jobs, trailer_offset) = binfmt::trailer_via_footer(&map)?;

        // The RUN frame is the first frame in the file.
        let mut frames_at = HEADER_LEN;
        let (kind, payload) = binfmt::read_frame(&map, &mut frames_at)?;
        if kind != FRAME_RUN {
            return Err(BinError::BadFrameKind {
                offset: HEADER_LEN,
                kind,
            });
        }
        let run = binfmt::decode_payload(payload)?;

        let mut by_id = HashMap::with_capacity(jobs.len());
        for (i, entry) in jobs.iter().enumerate() {
            // Validate the extent against the file's actual bounds now,
            // so `job_payload` works from trusted geometry.
            let end = entry
                .offset
                .checked_add(entry.len)
                .ok_or(BinError::Truncated)?;
            if entry.offset < frames_at || end > trailer_offset || entry.len < FRAME_OVERHEAD {
                return Err(BinError::Malformed(format!(
                    "trailer extent for job `{}` ({}..{end}) falls outside the frame region",
                    entry.job_id, entry.offset
                )));
            }
            if by_id.insert(entry.job_id.clone(), i).is_some() {
                return Err(BinError::Malformed(format!(
                    "duplicate job id `{}` in trailer",
                    entry.job_id
                )));
            }
        }
        let verified = (0..jobs.len()).map(|_| OnceLock::new()).collect();
        Ok(MappedStore {
            map,
            path,
            run,
            jobs,
            by_id,
            verified,
            decoded_jobs: AtomicU64::new(0),
            verified_jobs: AtomicU64::new(0),
        })
    }

    /// The file this store maps.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The run header.
    pub fn run(&self) -> &RunMeta {
        &self.run
    }

    /// Number of jobs listed in the trailer.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the trailer lists no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Job ids in file order.
    pub fn job_ids(&self) -> impl Iterator<Item = &str> {
        self.jobs.iter().map(|e| e.job_id.as_str())
    }

    /// True when the trailer lists `job_id`.
    pub fn contains(&self, job_id: &str) -> bool {
        self.by_id.contains_key(job_id)
    }

    /// Jobs decoded into [`JobArchive`]s so far — the counter the
    /// cold-archive zero-copy test pins.
    pub fn decoded_jobs(&self) -> u64 {
        self.decoded_jobs.load(Ordering::Relaxed)
    }

    /// Job frames CRC-verified so far (each job counts once).
    pub fn verified_jobs(&self) -> u64 {
        self.verified_jobs.load(Ordering::Relaxed)
    }

    /// True when the bytes come from a live mmap rather than the heap
    /// fallback.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// The raw payload bytes of `job_id`'s frame — a slice of the
    /// mapping, no copy. The frame's CRC32C is verified the first time
    /// the job is touched; later calls return the slice directly.
    pub fn job_payload(&self, job_id: &str) -> Result<&[u8], BinError> {
        let &i = self
            .by_id
            .get(job_id)
            .ok_or_else(|| BinError::Malformed(format!("job `{job_id}` is not in the trailer")))?;
        let entry = &self.jobs[i];
        if self.verified[i].get().is_none() {
            let mut frame_end = entry.offset;
            let (kind, payload) = binfmt::read_frame(&self.map, &mut frame_end)?;
            if kind != FRAME_JOB {
                return Err(BinError::BadFrameKind {
                    offset: entry.offset,
                    kind,
                });
            }
            if frame_end - entry.offset != entry.len {
                return Err(BinError::Malformed(format!(
                    "frame for job `{job_id}` declares {} payload bytes but the trailer \
                     reserves {}",
                    payload.len(),
                    entry.len
                )));
            }
            // Two threads racing on the first touch both verify; only
            // one set "wins", and the counter counts each job once.
            if self.verified[i].set(()).is_ok() {
                self.verified_jobs.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(&self.map[entry.offset + FRAME_HEADER_LEN..entry.offset + entry.len - 4])
    }

    /// Decodes `job_id`'s payload into a [`JobArchive`] (CRC-verifying
    /// on first touch). This is the expensive step the serving layer
    /// defers until a query actually lands on the job.
    pub fn decode_job(&self, job_id: &str) -> Result<JobArchive, BinError> {
        let archive: JobArchive = binfmt::decode_payload(self.job_payload(job_id)?)?;
        if archive.meta.job_id != job_id {
            return Err(BinError::Malformed(format!(
                "trailer names job `{job_id}` but the frame holds `{}`",
                archive.meta.job_id
            )));
        }
        self.decoded_jobs.fetch_add(1, Ordering::Relaxed);
        Ok(archive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::JobMeta;
    use crate::store::ArchiveStore;
    use granula_model::{Actor, Mission, OperationTree};

    fn store_with(ids: &[&str]) -> ArchiveStore {
        let mut store = ArchiveStore::new().with_run(RunMeta::new("r0", 5, "zc"));
        for id in ids {
            let mut t = OperationTree::new();
            let root = t
                .add_root(Actor::new("Job", "0"), Mission::new("Job", "0"))
                .unwrap();
            t.add_child(
                root,
                Actor::new("Worker", "1"),
                Mission::new("Compute", "0"),
            )
            .unwrap();
            store
                .add(JobArchive::new(
                    JobMeta {
                        job_id: (*id).into(),
                        platform: "Giraph".into(),
                        algorithm: "BFS".into(),
                        dataset: "dg".into(),
                        nodes: 4,
                        model: "m".into(),
                    },
                    t,
                ))
                .unwrap();
        }
        store
    }

    fn save_tmp(name: &str, bytes: &[u8]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("granula-zc-{name}-{}.gar", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn open_decodes_nothing_and_queries_decode_one_job() {
        let store = store_with(&["a", "b", "c"]);
        let path = save_tmp("lazy", &crate::binfmt::store_to_bytes(&store));
        let mapped = MappedStore::open(&path).unwrap();
        assert_eq!(mapped.decoded_jobs(), 0, "open must not decode any job");
        assert_eq!(mapped.verified_jobs(), 0, "open must not touch job frames");
        assert_eq!(mapped.len(), 3);
        assert_eq!(mapped.run().run_id, "r0");

        let job = mapped.decode_job("b").unwrap();
        assert_eq!(job.meta.job_id, "b");
        assert_eq!(mapped.decoded_jobs(), 1, "one query decodes one job");
        assert_eq!(mapped.verified_jobs(), 1);
        // Second decode verifies nothing new.
        mapped.decode_job("b").unwrap();
        assert_eq!(mapped.verified_jobs(), 1, "CRC is paid once per job");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn decoded_job_matches_the_eager_loader() {
        let store = store_with(&["a", "b"]);
        let bytes = crate::binfmt::store_to_bytes(&store);
        let path = save_tmp("match", &bytes);
        let mapped = MappedStore::open(&path).unwrap();
        let eager = crate::binfmt::store_from_bytes(&bytes).unwrap();
        for id in ["a", "b"] {
            assert_eq!(&mapped.decode_job(id).unwrap(), eager.get(id).unwrap());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_job_fails_crc_but_others_keep_serving() {
        let store = store_with(&["a", "b"]);
        let bytes = crate::binfmt::store_to_bytes(&store);
        let frames = crate::binfmt::frame_table(&bytes).unwrap();
        let victim = frames
            .iter()
            .find(|f| f.job_id.as_deref() == Some("a"))
            .unwrap();
        let mut corrupt = bytes.clone();
        corrupt[victim.offset + FRAME_HEADER_LEN + 7] ^= 0x10;
        let path = save_tmp("crc", &corrupt);
        let mapped = MappedStore::open(&path).unwrap();
        assert!(matches!(
            mapped.decode_job("a"),
            Err(BinError::FrameChecksum { .. })
        ));
        // The failure is re-reported on every touch, never cached as ok.
        assert!(mapped.decode_job("a").is_err());
        assert_eq!(mapped.verified_jobs(), 0);
        // The undamaged job still serves.
        assert_eq!(mapped.decode_job("b").unwrap().meta.job_id, "b");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_job_is_a_structured_error() {
        let store = store_with(&["a"]);
        let path = save_tmp("unknown", &crate::binfmt::store_to_bytes(&store));
        let mapped = MappedStore::open(&path).unwrap();
        assert!(mapped.decode_job("nope").is_err());
        assert!(!mapped.contains("nope"));
        let _ = std::fs::remove_file(&path);
    }
}
