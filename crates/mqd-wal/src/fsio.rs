//! The sanctioned durable-mutation module.
//!
//! Every filesystem mutation that must survive a crash lives here, paired
//! with the fsync that makes it durable: an atomic write is tempfile +
//! `rename` + directory sync, a delete is `remove_file` + directory sync,
//! and a truncation is `set_len` + data sync. The `durability-path` lint
//! rule flags these primitives anywhere else in this crate, so a future
//! edit cannot quietly add a rename that is durable on the developer's
//! laptop and lost on the first production power cut.
//!
//! `fsync` is a parameter, not a constant: `--no-fsync` trades the
//! durability point for ingest throughput (the bench quantifies it), and
//! the *ordering* guarantees — tempfile before rename, WAL before ack —
//! hold either way.

use std::fs::{File, OpenOptions, TryLockError};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use mqd_core::MqdError;

/// Distinguishes concurrent tempfiles. Checkpoint names may contain '.'
/// ("foo.bar" and "foo.baz"), so a stem-derived tmp like "foo.tmp" would
/// let two writers rename each other's half-written blob into place; a
/// per-process counter (plus the pid, against a restarted process racing
/// its predecessor's leftover) makes every tmp path unique.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Syncs a directory so a preceding rename/unlink in it is durable.
/// No-op when `fsync` is false. An empty `dir` — the `parent()` of a bare
/// relative file name — is the working directory.
pub fn sync_dir(dir: &Path, fsync: bool) -> Result<(), MqdError> {
    if fsync {
        let dir = if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        };
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Atomically replaces `path` with `bytes`: write to a uniquely-named
/// `.tmp` sibling, sync it, rename over `path`, sync the directory.
/// Readers see either the old file or the complete new one, never a torn
/// write; concurrent writers never share a tmp path.
pub fn write_atomic(path: &Path, bytes: &[u8], fsync: bool) -> Result<(), MqdError> {
    let mut tmp_name = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("file"), |n| n.to_os_string());
    tmp_name.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        if fsync {
            f.sync_all()?;
        }
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir, fsync)?;
    }
    Ok(())
}

/// Durably deletes `path` (remove + directory sync). Missing files are
/// fine — a crash between a previous remove and its directory sync must
/// be re-runnable.
pub fn remove_durable(path: &Path, fsync: bool) -> Result<(), MqdError> {
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e.into()),
    }
    if let Some(dir) = path.parent() {
        sync_dir(dir, fsync)?;
    }
    Ok(())
}

/// Truncates an open file to `len` bytes and syncs the new length. Used
/// by WAL recovery (drop a torn tail) and WAL reset after a seal.
pub fn truncate_file(file: &File, len: u64, fsync: bool) -> Result<(), MqdError> {
    file.set_len(len)?;
    if fsync {
        file.sync_all()?;
    }
    Ok(())
}

/// Opens (creating if absent) a file for append-style writing with read
/// access, without truncating existing contents.
pub fn open_rw(path: &Path) -> Result<File, MqdError> {
    Ok(OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?)
}

/// Creates `dir` (and parents) if it does not exist yet.
pub fn ensure_dir(dir: &Path) -> Result<(), MqdError> {
    Ok(std::fs::create_dir_all(dir)?)
}

/// Takes the exclusive advisory lock on `<dir>/LOCK` that makes a data
/// dir single-writer; the lock lasts as long as the returned handle (the
/// kernel drops it when the holder dies, SIGKILL included). Two writers
/// would overwrite each other's acked frames in the shared `wal`. A
/// dedicated file, not the `wal` itself: a WAL rewrite renames a new
/// inode over that one.
pub fn lock_dir(dir: &Path) -> Result<File, MqdError> {
    let lock = open_rw(&dir.join("LOCK"))?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(TryLockError::WouldBlock) => Err(MqdError::Io(format!(
            "data dir {} is in use by another process",
            dir.display()
        ))),
        Err(TryLockError::Error(e)) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_file_name_syncs_the_working_directory() {
        // `Path::new("run.ckpt").parent()` is `Some("")`, which cannot be
        // opened; `mqdiv stream --checkpoint run.ckpt` reaches this.
        let parent = Path::new("run.ckpt").parent().unwrap();
        sync_dir(parent, true).unwrap();
    }
}
