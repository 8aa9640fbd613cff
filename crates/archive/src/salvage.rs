//! Best-effort recovery of corrupted `.gar` files.
//!
//! The strict reader ([`crate::binfmt::store_from_bytes`]) rejects a file
//! on the first integrity violation — the right behavior for CI and the
//! query path, where silently serving damaged data would be worse than
//! failing. But a crashed experiment run leaves real evidence behind:
//! every job whose frame still checksums is perfectly usable. This module
//! extracts it.
//!
//! Recovery uses two independent passes over the file, both through the
//! one frame check (`binfmt::check_frame`):
//!
//! 1. **Sequential walk** — frames are read in order from the header; a
//!    frame that fails its CRC is skipped by its declared length, and a
//!    frame whose declared length runs past the end of the file ends the
//!    walk (a torn tail). This recovers everything in front of the damage.
//! 2. **Trailer rescue** — the footer at the fixed end-of-file position
//!    points at the trailer's per-job offset table. When footer and
//!    trailer both verify, every job frame is re-checked *at its recorded
//!    offset*, which recovers intact frames *behind* a corrupt-length
//!    frame that desynced the walk.
//!
//! Together: a job is recovered **iff** its frame bytes verify — exactly
//! the guarantee the corruption proptests pin. A file whose header is
//! unusable (bad magic, or a version other than v3) is a total loss.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::binfmt::{
    self, check_frame, check_header, decode_payload, store_from_bytes, trailer_via_footer,
    BinError, Frame, BIN_FORMAT_VERSION, FRAME_JOB, FRAME_OVERHEAD, FRAME_RUN, FRAME_TRAILER,
    HEADER_LEN,
};
use crate::store::{ArchiveStore, RunMeta};

/// One frame (or region) that could not be recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostFrame {
    /// Byte offset where the damage was detected.
    pub offset: usize,
    /// Job id, when the trailer identifies which job the frame held.
    pub job_id: Option<String>,
    /// Human-readable reason the frame was not recovered.
    pub reason: String,
}

/// What [`salvage_from_bytes`] managed to pull out of a `.gar` file.
#[derive(Debug)]
pub struct SalvageReport {
    /// Format version from the header (0 when the file does not start
    /// with the archive magic).
    pub version: u32,
    /// Everything that verified: run header (when recovered) + intact jobs.
    pub store: ArchiveStore,
    /// Job ids recovered, in frame order.
    pub recovered: Vec<String>,
    /// Frames or regions that did not survive.
    pub lost: Vec<LostFrame>,
    /// Whether the run-header frame verified.
    pub run_recovered: bool,
    /// Whether the trailer (and the footer pointing at it) verified.
    pub trailer_intact: bool,
    /// Number of jobs the trailer says the file held, when known.
    pub expected_jobs: Option<usize>,
    /// True when the strict reader accepted the file unchanged.
    pub clean: bool,
}

impl SalvageReport {
    /// True when nothing at all was pulled out of the file.
    pub fn is_total_loss(&self) -> bool {
        !self.clean && self.recovered.is_empty() && !self.run_recovered
    }

    /// Renders the fsck-style text report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.clean {
            let _ = writeln!(
                out,
                "clean: format v{}, {} job(s), all checksums verified",
                self.version,
                self.store.len(),
            );
            return out;
        }
        let _ = writeln!(
            out,
            "corrupt: format v{}, recovered {} job(s){}{}",
            self.version,
            self.recovered.len(),
            match self.expected_jobs {
                Some(n) => format!(" of {n}"),
                None => String::new(),
            },
            if self.run_recovered {
                ", run header intact"
            } else {
                ", run header lost"
            },
        );
        let _ = writeln!(
            out,
            "trailer: {}",
            if self.trailer_intact {
                "intact"
            } else {
                "unusable"
            }
        );
        for id in &self.recovered {
            let _ = writeln!(out, "  recovered job `{id}`");
        }
        for l in &self.lost {
            match &l.job_id {
                Some(id) => {
                    let _ = writeln!(out, "  LOST job `{id}` at byte {}: {}", l.offset, l.reason);
                }
                None => {
                    let _ = writeln!(out, "  LOST at byte {}: {}", l.offset, l.reason);
                }
            }
        }
        out
    }
}

/// Recovers everything recoverable from possibly-corrupt archive bytes.
/// Never panics and never errors: the worst input produces an empty
/// store and a report explaining why.
pub fn salvage_from_bytes(bytes: &[u8]) -> SalvageReport {
    // Fast path: an intact file needs no salvage.
    if let Ok(store) = store_from_bytes(bytes) {
        return SalvageReport {
            version: BIN_FORMAT_VERSION,
            recovered: store.iter().map(|a| a.meta.job_id.clone()).collect(),
            run_recovered: !store.run().is_empty(),
            trailer_intact: true,
            expected_jobs: Some(store.len()),
            clean: true,
            lost: Vec::new(),
            store,
        };
    }

    let mut report = SalvageReport {
        version: 0,
        store: ArchiveStore::new(),
        recovered: Vec::new(),
        lost: Vec::new(),
        run_recovered: false,
        trailer_intact: false,
        expected_jobs: None,
        clean: false,
    };

    if let Err(e) = check_header(bytes) {
        if let BinError::UnsupportedVersion(v) = e {
            report.version = v;
        }
        report.lost.push(LostFrame {
            offset: 0,
            job_id: None,
            reason: format!("file header unusable: {e}"),
        });
        return report;
    }
    report.version = BIN_FORMAT_VERSION;

    // Pass 1: sequential frame walk.
    let mut pos = HEADER_LEN;
    let mut trailer: Option<Vec<binfmt::TrailerEntry>> = None;
    while pos < bytes.len() {
        match check_frame(bytes, pos) {
            Frame::Intact { kind, payload } => {
                match kind {
                    FRAME_RUN => match decode_payload::<RunMeta>(payload) {
                        Ok(run) => {
                            report.store.set_run(run);
                            report.run_recovered = true;
                        }
                        Err(e) => report.lost.push(LostFrame {
                            offset: pos,
                            job_id: None,
                            reason: format!("run header frame undecodable: {e}"),
                        }),
                    },
                    FRAME_JOB => {
                        recover_job(payload, pos, &mut report);
                    }
                    FRAME_TRAILER => {
                        if let Ok(entries) = binfmt::decode_trailer(payload) {
                            trailer = Some(entries);
                        }
                        // Anything after the trailer is the footer; the
                        // walk is done either way.
                        break;
                    }
                    other => report.lost.push(LostFrame {
                        offset: pos,
                        job_id: None,
                        reason: format!("unknown frame kind 0x{other:02x}"),
                    }),
                }
                pos += FRAME_OVERHEAD + payload.len();
            }
            Frame::BadChecksum { next } => {
                report.lost.push(LostFrame {
                    offset: pos,
                    job_id: None,
                    reason: "frame failed its CRC32C check".into(),
                });
                // The declared length may itself be the corrupted bytes;
                // if so this advance desyncs the walk and the trailer
                // rescue below takes over.
                pos = next;
            }
            Frame::PastEnd => {
                report.lost.push(LostFrame {
                    offset: pos,
                    job_id: None,
                    reason: format!(
                        "torn tail: frame runs past end of file ({} byte(s) remain)",
                        bytes.len() - pos
                    ),
                });
                break;
            }
        }
    }

    // Pass 2: trailer rescue. Prefer the walk's trailer; fall back to the
    // footer, which survives mid-file damage.
    if trailer.is_none() {
        if let Ok((entries, _)) = trailer_via_footer(bytes) {
            trailer = Some(entries);
        }
    }
    if let Some(entries) = trailer {
        report.trailer_intact = true;
        report.expected_jobs = Some(entries.len());
        for e in &entries {
            if report.recovered.iter().any(|id| id == &e.job_id) {
                continue;
            }
            // Only a JOB frame that fills the trailer's extent exactly.
            match check_frame(bytes, e.offset) {
                Frame::Intact {
                    kind: FRAME_JOB,
                    payload,
                } if payload.len() + FRAME_OVERHEAD == e.len => {
                    let before = report.recovered.len();
                    recover_job(payload, e.offset, &mut report);
                    if report.recovered.len() > before {
                        continue;
                    }
                }
                _ => {}
            }
            annotate_loss(&mut report.lost, e.offset, &e.job_id);
        }
    }

    report
}

/// Decodes and adds one job frame payload; on failure records the loss.
fn recover_job(payload: &[u8], offset: usize, report: &mut SalvageReport) {
    match decode_payload::<crate::archive::JobArchive>(payload) {
        Ok(archive) => {
            let id = archive.meta.job_id.clone();
            if report.store.add(archive).is_ok() {
                report.recovered.push(id);
            } else {
                report.lost.push(LostFrame {
                    offset,
                    job_id: Some(id),
                    reason: "duplicate job id".into(),
                });
            }
        }
        Err(e) => report.lost.push(LostFrame {
            offset,
            job_id: None,
            reason: format!("job frame undecodable: {e}"),
        }),
    }
}

/// Ensures a lost entry at `offset` names its job; adds one if the walk
/// never saw the region (desynced past it).
fn annotate_loss(lost: &mut Vec<LostFrame>, offset: usize, job_id: &str) {
    for l in lost.iter_mut() {
        if l.offset == offset && l.job_id.is_none() {
            l.job_id = Some(job_id.to_string());
            return;
        }
    }
    if !lost
        .iter()
        .any(|l| l.offset == offset && l.job_id.as_deref() == Some(job_id))
    {
        lost.push(LostFrame {
            offset,
            job_id: Some(job_id.to_string()),
            reason: "frame did not verify".into(),
        });
    }
}

impl ArchiveStore {
    /// Loads whatever can be recovered from `path`, however damaged.
    /// Only I/O failures (file missing, unreadable) are errors.
    pub fn salvage(path: impl AsRef<Path>) -> Result<SalvageReport, BinError> {
        Ok(salvage_from_bytes(&fs::read(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{JobArchive, JobMeta};
    use crate::binfmt::{frame_table, store_to_bytes, FRAME_HEADER_LEN};
    use crate::mutate;
    use granula_model::{names, Actor, Info, InfoValue, Mission, OperationTree};

    fn store_with_jobs(ids: &[&str]) -> ArchiveStore {
        let mut store = ArchiveStore::new().with_run(RunMeta::new("run-1", 1_000, "salvage-test"));
        for id in ids {
            let mut t = OperationTree::new();
            let root = t
                .add_root(Actor::new("Job", "0"), Mission::new("Job", "0"))
                .unwrap();
            t.set_info(root, Info::raw(names::START_TIME, InfoValue::Int(0)))
                .unwrap();
            t.set_info(root, Info::raw(names::END_TIME, InfoValue::Int(1_000_000)))
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

    #[test]
    fn pristine_file_is_clean() {
        let bytes = store_to_bytes(&store_with_jobs(&["a", "b", "c"]));
        let r = salvage_from_bytes(&bytes);
        assert!(r.clean);
        assert_eq!(r.recovered, ["a", "b", "c"]);
        assert!(r.lost.is_empty());
        assert!(r.run_recovered && r.trailer_intact);
        assert_eq!(r.expected_jobs, Some(3));
        assert!(r.render_text().starts_with("clean:"));
    }

    #[test]
    fn truncation_recovers_the_prefix_jobs() {
        let store = store_with_jobs(&["a", "b", "c"]);
        let bytes = store_to_bytes(&store);
        let frames = frame_table(&bytes).unwrap();
        // Cut mid-way through the LAST job frame: jobs a and b survive.
        let last_job = frames.iter().rev().find(|f| f.kind == FRAME_JOB).unwrap();
        let mut cut = bytes.clone();
        mutate::truncate_at(&mut cut, last_job.offset + last_job.len / 2);
        let r = salvage_from_bytes(&cut);
        assert!(!r.clean);
        assert_eq!(r.recovered, ["a", "b"]);
        assert!(r.run_recovered);
        assert!(!r.trailer_intact, "trailer was cut off");
        assert!(r.lost.iter().any(|l| l.reason.contains("torn tail")));
    }

    #[test]
    fn bit_flip_in_one_job_loses_exactly_that_job() {
        let store = store_with_jobs(&["a", "b", "c"]);
        let bytes = store_to_bytes(&store);
        let frames = frame_table(&bytes).unwrap();
        let b_frame = frames
            .iter()
            .find(|f| f.job_id.as_deref() == Some("b"))
            .unwrap();
        let mut corrupt = bytes.clone();
        // Flip a payload bit (past the header+len bytes) so the declared
        // length stays sane and the walk stays in sync.
        mutate::flip_bit(
            &mut corrupt,
            ((b_frame.offset + FRAME_HEADER_LEN + 3) * 8) as u64,
        );
        let r = salvage_from_bytes(&corrupt);
        assert!(!r.clean);
        assert_eq!(r.recovered, ["a", "c"]);
        assert!(r.run_recovered && r.trailer_intact);
        assert_eq!(r.expected_jobs, Some(3));
        let lost_b = r
            .lost
            .iter()
            .find(|l| l.job_id.as_deref() == Some("b"))
            .expect("loss of `b` is reported by name");
        assert_eq!(lost_b.offset, b_frame.offset);
        assert!(r.render_text().contains("LOST job `b`"));
    }

    #[test]
    fn corrupted_frame_length_is_rescued_via_the_trailer() {
        let store = store_with_jobs(&["a", "b", "c"]);
        let bytes = store_to_bytes(&store);
        let frames = frame_table(&bytes).unwrap();
        let a_frame = frames
            .iter()
            .find(|f| f.job_id.as_deref() == Some("a"))
            .unwrap();
        let mut corrupt = bytes.clone();
        // Smash job a's length field: the sequential walk desyncs right
        // there, so jobs b and c are only reachable through the trailer.
        corrupt[a_frame.offset + 1] ^= 0xFF;
        corrupt[a_frame.offset + 2] ^= 0xFF;
        let r = salvage_from_bytes(&corrupt);
        assert!(!r.clean);
        assert!(r.trailer_intact, "footer-located trailer must survive");
        let mut rec = r.recovered.clone();
        rec.sort();
        assert_eq!(rec, ["b", "c"]);
        assert!(r.lost.iter().any(|l| l.job_id.as_deref() == Some("a")));
    }

    #[test]
    fn garbage_and_legacy_inputs_never_panic() {
        // Pure garbage.
        let r = salvage_from_bytes(&[0x13, 0x37, 0xFE, 0xFF]);
        assert!(r.is_total_loss());
        assert_eq!(r.version, 0);
        // Empty file.
        assert!(salvage_from_bytes(&[]).is_total_loss());
        // A legacy v2 header: unreadable, reported as such, never decoded.
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&crate::binfmt::MAGIC);
        legacy.extend_from_slice(&2u32.to_le_bytes());
        legacy.extend_from_slice(&[0x07, 0x05]); // object of 5 pairs, then EOF
        let r = salvage_from_bytes(&legacy);
        assert!(r.is_total_loss());
        assert_eq!(r.version, 2);
        assert!(r.lost[0].reason.contains("version 2 is not supported"));
    }

    #[test]
    fn salvaged_store_resaves_cleanly() {
        let store = store_with_jobs(&["a", "b"]);
        let bytes = store_to_bytes(&store);
        let frames = frame_table(&bytes).unwrap();
        let a_frame = frames
            .iter()
            .find(|f| f.job_id.as_deref() == Some("a"))
            .unwrap();
        let mut corrupt = bytes.clone();
        corrupt[a_frame.offset + FRAME_HEADER_LEN + 2] ^= 0x01;
        let r = salvage_from_bytes(&corrupt);
        assert_eq!(r.recovered, ["b"]);
        // The repaired store is a valid, clean v3 file.
        let repaired = store_to_bytes(&r.store);
        let back = salvage_from_bytes(&repaired);
        assert!(back.clean);
        assert_eq!(back.recovered, ["b"]);
    }
}
