//! File-based log collection: the mechanics of real monitoring.
//!
//! A deployed Granula scrapes log *files* — one per process per node —
//! after the job finishes. This module writes event streams out in exactly
//! that layout (platform log lines mixed with whatever else the process
//! printed) and collects a directory of such files back into events,
//! tolerating unknown files, non-Granula lines, lines that are not UTF-8
//! and lines longer than [`MAX_LINE`] bytes.
//!
//! Environment samples use a sibling line format:
//! `GRANULA-ENV <time_us> <node> <cpu|memory|network|disk> <value>`.

use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::env::{ResourceKind, ResourceSample};
use crate::event::{parse_line, LogEvent};

/// The longest log line [`collect_dir`] parses, in bytes without the line
/// break: the line cap of the archive daemon's protocol. Longer lines are
/// skipped without being buffered.
pub const MAX_LINE: usize = 64 * 1024;

/// Statistics of one collection pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CollectStats {
    /// Log files read.
    pub files: usize,
    /// Total lines scanned, skipped ones included.
    pub lines: usize,
    /// Granula events recovered.
    pub events: usize,
    /// Environment samples recovered.
    pub samples: usize,
    /// Lines skipped because they are not valid UTF-8.
    pub invalid_lines: usize,
    /// Lines skipped because they are longer than [`MAX_LINE`] bytes.
    pub overlong_lines: usize,
}

fn kind_name(kind: ResourceKind) -> &'static str {
    match kind {
        ResourceKind::Cpu => "cpu",
        ResourceKind::Memory => "memory",
        ResourceKind::Network => "network",
        ResourceKind::Disk => "disk",
    }
}

fn parse_kind(s: &str) -> Option<ResourceKind> {
    match s {
        "cpu" => Some(ResourceKind::Cpu),
        "memory" => Some(ResourceKind::Memory),
        "network" => Some(ResourceKind::Network),
        "disk" => Some(ResourceKind::Disk),
        _ => None,
    }
}

/// Renders one environment sample as a log line.
pub fn env_line(sample: &ResourceSample) -> String {
    format!(
        "GRANULA-ENV {} {} {} {:?}",
        sample.time_us,
        sample.node,
        kind_name(sample.kind),
        sample.value
    )
}

/// Parses an environment-sample line; `None` for other lines.
pub fn parse_env_line(line: &str) -> Option<ResourceSample> {
    let mut parts = line.split_whitespace();
    if parts.next()? != "GRANULA-ENV" {
        return None;
    }
    Some(ResourceSample {
        time_us: parts.next()?.parse().ok()?,
        node: parts.next()?.to_string(),
        kind: parse_kind(parts.next()?)?,
        value: parts.next()?.parse().ok()?,
    })
}

/// Writes events into `dir`, one file per `(node, process)` pair, in the
/// layout a log scraper would find on a cluster. Returns the file count.
pub fn write_logs(events: &[LogEvent], dir: &Path) -> io::Result<usize> {
    fs::create_dir_all(dir)?;
    use std::collections::BTreeMap;
    let mut per_file: BTreeMap<String, Vec<&LogEvent>> = BTreeMap::new();
    for e in events {
        per_file
            .entry(format!("{}__{}.log", e.node, e.process))
            .or_default()
            .push(e);
    }
    for (name, events) in &per_file {
        let mut w = BufWriter::new(fs::File::create(dir.join(name))?);
        for e in events {
            writeln!(w, "{}", e.to_line())?;
        }
        w.flush()?;
    }
    Ok(per_file.len())
}

/// Writes environment samples into `dir/<node>__env.log` files.
pub fn write_env_logs(samples: &[ResourceSample], dir: &Path) -> io::Result<usize> {
    fs::create_dir_all(dir)?;
    use std::collections::BTreeMap;
    let mut per_node: BTreeMap<String, Vec<&ResourceSample>> = BTreeMap::new();
    for s in samples {
        per_node
            .entry(format!("{}__env.log", s.node))
            .or_default()
            .push(s);
    }
    for (name, samples) in &per_node {
        let mut w = BufWriter::new(fs::File::create(dir.join(name))?);
        for s in samples {
            writeln!(w, "{}", env_line(s))?;
        }
        w.flush()?;
    }
    Ok(per_node.len())
}

/// Reads the next line of `reader` into `line`, without its line break.
/// Returns `None` at the end of the input and `Some(false)` for a line
/// longer than [`MAX_LINE`] bytes, which is consumed but not kept.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<Option<bool>> {
    line.clear();
    if reader
        .by_ref()
        .take(MAX_LINE as u64 + 1)
        .read_until(b'\n', line)?
        == 0
    {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE {
        // Skip the rest of the line, one buffer at a time.
        loop {
            let buf = reader.fill_buf()?;
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    reader.consume(i + 1);
                    break;
                }
                None if buf.is_empty() => break,
                None => {
                    let n = buf.len();
                    reader.consume(n);
                }
            }
        }
        return Ok(Some(false));
    }
    Ok(Some(true))
}

/// Scrapes every `*.log` file under `dir` (non-recursive), recovering
/// Granula events and environment samples; all other lines are skipped,
/// like the platform noise in real logs. Lines that are not UTF-8 or are
/// longer than [`MAX_LINE`] bytes are skipped and counted in the stats;
/// only I/O errors fail the pass.
pub fn collect_dir(dir: &Path) -> io::Result<(Vec<LogEvent>, Vec<ResourceSample>, CollectStats)> {
    let mut events = Vec::new();
    let mut samples = Vec::new();
    let mut stats = CollectStats::default();
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .filter(|e| e.path().extension().is_some_and(|x| x == "log"))
        .collect();
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        stats.files += 1;
        let mut reader = BufReader::new(fs::File::open(entry.path())?);
        let mut line = Vec::new();
        while let Some(kept) = read_bounded_line(&mut reader, &mut line)? {
            stats.lines += 1;
            if !kept {
                stats.overlong_lines += 1;
                continue;
            }
            let Ok(text) = std::str::from_utf8(&line) else {
                stats.invalid_lines += 1;
                continue;
            };
            let trimmed = text.trim_end_matches(['\n', '\r']);
            if let Some(event) = parse_line(trimmed) {
                events.push(event);
                stats.events += 1;
            } else if let Some(sample) = parse_env_line(trimmed) {
                samples.push(sample);
                stats.samples += 1;
            }
        }
    }
    Ok((events, samples, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use granula_model::{Actor, InfoValue, Mission};

    fn events() -> Vec<LogEvent> {
        let job = (Actor::new("Job", "0"), Mission::new("Job", "0"));
        vec![
            LogEvent::start(0, "n0", "client", job.0.clone(), job.1.clone(), None),
            LogEvent::info(
                3,
                "n1",
                "worker-1",
                Actor::new("W", "1"),
                Mission::new("C", "0"),
                "K",
                InfoValue::Int(5),
            ),
            LogEvent::end(9, "n0", "client", job.0, job.1),
        ]
    }

    fn samples() -> Vec<ResourceSample> {
        vec![
            ResourceSample {
                time_us: 0,
                node: "n0".into(),
                kind: ResourceKind::Cpu,
                value: 1.5,
            },
            ResourceSample {
                time_us: 1_000_000,
                node: "n1".into(),
                kind: ResourceKind::Network,
                value: 2.25e6,
            },
        ]
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("granula-collect-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn write_then_collect_roundtrips() {
        let dir = tmp("roundtrip");
        assert_eq!(write_logs(&events(), &dir).unwrap(), 2); // n0__client, n1__worker-1
        assert_eq!(write_env_logs(&samples(), &dir).unwrap(), 2);
        let (mut collected, env, stats) = collect_dir(&dir).unwrap();
        assert_eq!(stats.files, 4);
        assert_eq!(stats.events, 3);
        assert_eq!(stats.samples, 2);
        // File iteration order differs from emission order; compare as sets.
        collected.sort_by_key(|e| e.time_us);
        assert_eq!(collected, events());
        assert_eq!(env.len(), 2);
        assert_eq!(env[0].kind, ResourceKind::Cpu);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn noise_lines_and_foreign_files_are_skipped() {
        let dir = tmp("noise");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("n0__client.log"),
            "INFO starting up\nGRANULA 5 n0 client START Job-0@Job-0\ngarbage\n",
        )
        .unwrap();
        fs::write(dir.join("notes.txt"), "GRANULA 5 n0 client END Job-0@Job-0").unwrap();
        let (events, samplez, stats) = collect_dir(&dir).unwrap();
        assert_eq!(stats.files, 1); // .txt ignored
        assert_eq!(events.len(), 1);
        assert!(samplez.is_empty());
        assert_eq!(stats.lines, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_line_roundtrip() {
        for s in samples() {
            assert_eq!(parse_env_line(&env_line(&s)), Some(s));
        }
        assert_eq!(parse_env_line("GRANULA-ENV x n0 cpu 1.0"), None);
        assert_eq!(parse_env_line("GRANULA-ENV 1 n0 gpu 1.0"), None);
        assert_eq!(parse_env_line("not env"), None);
    }

    #[test]
    fn bad_lines_are_counted_not_fatal() {
        let dir = tmp("bad-lines");
        assert_eq!(write_logs(&events(), &dir).unwrap(), 2);
        assert_eq!(write_env_logs(&samples(), &dir).unwrap(), 2);
        // One non-UTF-8 byte between two good lines, then a 1 MiB line
        // with no line break at all.
        let mut bad = b"GRANULA 5 n0 client START Job-0@Job-0\n".to_vec();
        bad.extend_from_slice(b"noise \xFF noise\n");
        bad.extend_from_slice(b"GRANULA-ENV 0 n0 cpu 1.0\n");
        bad.extend(std::iter::repeat_n(b'x', 1 << 20));
        fs::write(dir.join("n9__bad.log"), bad).unwrap();
        let (mut collected, env, stats) = collect_dir(&dir).unwrap();
        assert_eq!(stats.files, 5);
        assert_eq!((stats.invalid_lines, stats.overlong_lines), (1, 1));
        assert_eq!((stats.events, stats.samples), (4, 3));
        // Every event of the good files is kept.
        collected.retain(|e| e.process != "client" || e.node != "n0" || e.time_us != 5);
        collected.sort_by_key(|e| e.time_us);
        assert_eq!(collected, events());
        assert_eq!(env.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lines_up_to_the_cap_are_kept() {
        let dir = tmp("cap");
        fs::create_dir_all(&dir).unwrap();
        let event = "GRANULA 5 n0 client START Job-0@Job-0";
        // Padded with trailing spaces to exactly MAX_LINE bytes, then one
        // byte over, each followed by a good line.
        let padded = |len: usize| format!("{event}{}", " ".repeat(len - event.len()));
        let at_cap = format!("{}\n{event}\n", padded(MAX_LINE));
        let over = format!("{}\n{event}\n", padded(MAX_LINE + 1));
        fs::write(dir.join("a.log"), at_cap).unwrap();
        fs::write(dir.join("b.log"), over).unwrap();
        let (events, _, stats) = collect_dir(&dir).unwrap();
        assert_eq!(stats.lines, 4);
        assert_eq!(stats.overlong_lines, 1);
        assert_eq!(events.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_collects_nothing() {
        let dir = tmp("empty");
        fs::create_dir_all(&dir).unwrap();
        let (events, samplez, stats) = collect_dir(&dir).unwrap();
        assert!(events.is_empty() && samplez.is_empty());
        assert_eq!(stats, CollectStats::default());
        let _ = fs::remove_dir_all(&dir);
    }
}
