//! Crash-safe submit journal: a JSONL write-ahead log of accepted
//! submissions and their terminal outcomes.
//!
//! The journal follows the trace-corpus durability discipline (see
//! `qprog-obs::corpus`): the *intent* record is appended and flushed
//! **before** the submission is acknowledged or enqueued, and the terminal
//! record is appended only after the outcome is known. On reopen the file is
//! replayed tolerantly — a torn trailing line (the classic
//! crash-mid-append artifact) or an interior garbage line is skipped and
//! reported as a diagnostic, never an error — and the surviving records are
//! reduced to the set of *pending* submissions: every `submit` without a
//! matching `terminal`. Reopening also compacts the file (tmp + rename,
//! pending records only) so diagnostics do not recur and the log does not
//! grow without bound across restarts.
//!
//! Durability is process-crash safety: every append is flushed to the OS
//! before the caller proceeds, but no `fsync` is issued per record (the
//! submit path is latency-gated in CI; surviving power loss is out of
//! scope, matching the corpus).

use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

use qprog_exec::sync::Mutex;
use qprog_exec::trace::Lifecycle;
use qprog_types::json::{escape, str_field, u64_field};

/// Journal file name inside the service directory.
pub const JOURNAL_FILE: &str = "queue.jsonl";

/// One accepted-but-not-terminal submission, as persisted in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingEntry {
    /// Process-unique query id (stable across restarts).
    pub id: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Human-readable label shown by the monitor.
    pub label: String,
    /// Workload text handed to the executor.
    pub sql: String,
    /// Total deadline budget measured from submission, if any.
    pub deadline: Option<Duration>,
}

/// What a reopen recovered from disk.
#[derive(Debug, Default)]
pub struct Replay {
    /// Submissions with no terminal record, in original submit order.
    pub pending: Vec<PendingEntry>,
    /// Human-readable recovery notes (torn lines, unparseable records,
    /// orphan terminals). Empty on a clean reopen.
    pub diagnostics: Vec<String>,
    /// Lowest id guaranteed not to collide with any journaled id.
    pub next_id: u64,
}

enum Record {
    Submit(PendingEntry),
    Terminal { id: u64 },
}

/// Append-only journal handle. All appends flush before returning.
pub struct Journal {
    path: PathBuf,
    inner: Mutex<Inner>,
}

struct Inner {
    file: File,
    /// Terminal records appended since the last compaction; used by the
    /// service to decide when a live rewrite is worthwhile.
    terminals: u64,
}

impl Journal {
    /// Open (creating if absent) the journal under `dir`, replaying any
    /// existing records. The returned [`Replay`] lists pending work and
    /// recovery diagnostics; the on-disk file is compacted to pending
    /// records only whenever the previous incarnation left terminals or
    /// damage behind.
    pub fn open(dir: &Path) -> io::Result<(Journal, Replay)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut replay = Replay::default();
        let mut submits: Vec<PendingEntry> = Vec::new();
        let mut terminals: BTreeSet<u64> = BTreeSet::new();
        let mut max_id = 0u64;
        let mut damaged = false;
        if path.exists() {
            let data = fs::read(&path)?;
            let text = String::from_utf8_lossy(&data);
            let mut rest = text.as_ref();
            let mut lineno = 0usize;
            while !rest.is_empty() {
                lineno += 1;
                let (line, tail, complete) = match rest.find('\n') {
                    Some(i) => (&rest[..i], &rest[i + 1..], true),
                    None => (rest, "", false),
                };
                rest = tail;
                let trimmed = line.trim_end_matches('\r');
                if trimmed.is_empty() {
                    continue;
                }
                if !complete {
                    replay.diagnostics.push(format!(
                        "journal line {lineno}: torn trailing record ({} bytes) dropped",
                        trimmed.len()
                    ));
                    damaged = true;
                    break;
                }
                match parse_line(trimmed) {
                    Ok(Record::Submit(e)) => {
                        max_id = max_id.max(e.id);
                        submits.push(e);
                    }
                    Ok(Record::Terminal { id }) => {
                        max_id = max_id.max(id);
                        if submits.iter().all(|s| s.id != id) {
                            replay.diagnostics.push(format!(
                                "journal line {lineno}: terminal for unknown id {id}"
                            ));
                        }
                        terminals.insert(id);
                    }
                    Err(msg) => {
                        replay
                            .diagnostics
                            .push(format!("journal line {lineno}: {msg}"));
                        damaged = true;
                    }
                }
            }
        }
        replay.pending = submits
            .into_iter()
            .filter(|s| !terminals.contains(&s.id))
            .collect();
        replay.next_id = max_id + 1;
        // Compact whenever the old file carried anything beyond the live
        // pending set, so recovered diagnostics are reported exactly once.
        if damaged || !terminals.is_empty() {
            rewrite(&path, &replay.pending)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((
            Journal {
                path,
                inner: Mutex::new(Inner { file, terminals: 0 }),
            },
            replay,
        ))
    }

    /// Journal file path (tests peek at it to simulate crashes).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably record an accepted submission. Must succeed before the
    /// submission is acknowledged; carries the `service/journal/append`
    /// failpoint so chaos tests can fail the WAL itself.
    pub fn append_submit(&self, e: &PendingEntry) -> io::Result<()> {
        qprog_fault::eval("service/journal/append").map_err(io::Error::other)?;
        let line = submit_line(e);
        let mut inner = self.inner.lock();
        inner.file.write_all(line.as_bytes())?;
        inner.file.flush()
    }

    /// Record `id`'s terminal state, under its
    /// [`terminal_label`](Lifecycle::terminal_label) (`finished` or a
    /// failure kind). `wall_us` is the submit→terminal wall time on the
    /// job's span clock; the reconciliation tests assert it equals the
    /// summed span durations.
    pub fn append_terminal(&self, id: u64, state: Lifecycle, wall_us: u64) -> io::Result<()> {
        let line = format!(
            "{{\"op\":\"terminal\",\"id\":{id},\"state\":\"{}\",\"wall_us\":{wall_us}}}\n",
            state.terminal_label()
        );
        let mut inner = self.inner.lock();
        inner.file.write_all(line.as_bytes())?;
        inner.terminals += 1;
        inner.file.flush()
    }

    /// Terminal records appended since open/compaction.
    pub fn terminal_count(&self) -> u64 {
        self.inner.lock().terminals
    }

    /// Rewrite the journal to contain exactly `live` (tmp + rename), e.g.
    /// when the terminal tail dwarfs the pending set. `live` must include
    /// every submission that has not yet reached a terminal state —
    /// queued, delayed *and* running.
    pub fn compact(&self, live: &[PendingEntry]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        rewrite(&self.path, live)?;
        inner.file = OpenOptions::new().append(true).open(&self.path)?;
        inner.terminals = 0;
        Ok(())
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("path", &self.path).finish()
    }
}

/// One `submit` record, newline-terminated.
fn submit_line(e: &PendingEntry) -> String {
    let mut line = format!(
        "{{\"op\":\"submit\",\"id\":{},\"tenant\":\"{}\",\"label\":\"{}\"",
        e.id,
        escape(&e.tenant),
        escape(&e.label)
    );
    if let Some(d) = e.deadline {
        line.push_str(&format!(",\"deadline_ms\":{}", d.as_millis()));
    }
    line.push_str(&format!(",\"sql\":\"{}\"}}\n", escape(&e.sql)));
    line
}

fn rewrite(path: &Path, pending: &[PendingEntry]) -> io::Result<()> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut f = File::create(&tmp)?;
        for e in pending {
            f.write_all(submit_line(e).as_bytes())?;
        }
        f.flush()?;
    }
    fs::rename(&tmp, path)
}

fn parse_line(line: &str) -> Result<Record, String> {
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err("not a JSON object".to_string());
    }
    let op = str_field(line, "op").ok_or("missing \"op\"")?;
    let id = u64_field(line, "id").ok_or("missing \"id\"")?;
    match op.as_str() {
        "submit" => Ok(Record::Submit(PendingEntry {
            id,
            tenant: str_field(line, "tenant").ok_or("missing \"tenant\"")?,
            label: str_field(line, "label").ok_or("missing \"label\"")?,
            sql: str_field(line, "sql").ok_or("missing \"sql\"")?,
            deadline: u64_field(line, "deadline_ms").map(Duration::from_millis),
        })),
        "terminal" => Ok(Record::Terminal { id }),
        other => Err(format!("unknown op {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qprog-journal-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(id: u64, sql: &str) -> PendingEntry {
        PendingEntry {
            id,
            tenant: "acme".to_string(),
            label: format!("job-{id}"),
            sql: sql.to_string(),
            deadline: if id.is_multiple_of(2) {
                Some(Duration::from_millis(1500))
            } else {
                None
            },
        }
    }

    #[test]
    fn submit_terminal_round_trip() {
        let dir = tmpdir("roundtrip");
        {
            let (j, replay) = Journal::open(&dir).unwrap();
            assert!(replay.pending.is_empty());
            assert!(replay.diagnostics.is_empty());
            j.append_submit(&entry(1, "select 1")).unwrap();
            j.append_submit(&entry(2, "select \"q\" from t where a='x'"))
                .unwrap();
            j.append_submit(&entry(3, "line1\nline2\t\\end")).unwrap();
            j.append_terminal(1, Lifecycle::Done, 1234).unwrap();
        }
        let (_, replay) = Journal::open(&dir).unwrap();
        assert!(replay.diagnostics.is_empty(), "{:?}", replay.diagnostics);
        assert_eq!(replay.pending.len(), 2);
        assert_eq!(
            replay.pending[0],
            entry(2, "select \"q\" from t where a='x'")
        );
        assert_eq!(replay.pending[1], entry(3, "line1\nline2\t\\end"));
        assert_eq!(replay.next_id, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_dropped_with_diagnostic_and_does_not_recur() {
        let dir = tmpdir("torn");
        {
            let (j, _) = Journal::open(&dir).unwrap();
            j.append_submit(&entry(1, "select 1")).unwrap();
            j.append_submit(&entry(2, "select 2")).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"op\":\"submit\",\"id\":3,\"ten").unwrap();
        drop(f);
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.pending.len(), 2);
        assert_eq!(replay.diagnostics.len(), 1, "{:?}", replay.diagnostics);
        assert!(
            replay.diagnostics[0].contains("torn"),
            "{:?}",
            replay.diagnostics
        );
        // The compaction rewrote the file: a second reopen is clean.
        let (_, replay2) = Journal::open(&dir).unwrap();
        assert!(replay2.diagnostics.is_empty(), "{:?}", replay2.diagnostics);
        assert_eq!(replay2.pending.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_garbage_and_orphan_terminals_are_diagnosed() {
        let dir = tmpdir("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join(JOURNAL_FILE),
            "{\"op\":\"submit\",\"id\":1,\"tenant\":\"t\",\"label\":\"l\",\"sql\":\"s\"}\n\
             not json at all\n\
             {\"op\":\"terminal\",\"id\":9,\"state\":\"finished\"}\n",
        )
        .unwrap();
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.diagnostics.len(), 2, "{:?}", replay.diagnostics);
        assert!(replay.next_id >= 10, "{}", replay.next_id);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_drops_terminal_tail() {
        let dir = tmpdir("compact");
        let (j, _) = Journal::open(&dir).unwrap();
        for id in 1..=20 {
            j.append_submit(&entry(id, "select 1")).unwrap();
            if id <= 18 {
                j.append_terminal(id, Lifecycle::Done, id * 10).unwrap();
            }
        }
        assert_eq!(j.terminal_count(), 18);
        let live = vec![entry(19, "select 1"), entry(20, "select 1")];
        j.compact(&live).unwrap();
        assert_eq!(j.terminal_count(), 0);
        // post-compaction appends land after the rewritten records
        j.append_terminal(19, Lifecycle::Done, 42).unwrap();
        let (_, replay) = Journal::open(&dir).unwrap();
        assert_eq!(replay.pending, vec![entry(20, "select 1")]);
        let _ = fs::remove_dir_all(&dir);
    }
}
