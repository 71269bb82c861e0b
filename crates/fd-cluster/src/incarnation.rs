//! The sender's durable incarnation counter.
//!
//! The paper assumes crash-*stop* processes; real deployments restart.
//! A restarted process whose identity is indistinguishable from its
//! previous life lets stale in-flight heartbeats vouch for the *new*
//! life (and vice versa), silently breaking the configurator's
//! `T_D`/`T_MR` guarantees. The crash-recovery literature (Reis &
//! Vieira's QoS analysis of crash-recovery leader election; Aguilera et
//! al.'s crash-recovery model) fixes this with **incarnation numbers**:
//! every recovery bumps a monotone counter that receivers compare, so
//! messages from an older incarnation are recognizably stale. A sender
//! calls [`IncarnationStore::bump`] once per start, before its first
//! heartbeat, and stamps the result on every entry it queues with
//! [`ClusterSender::queue_incarnated`](crate::ClusterSender::queue_incarnated).

use crate::snapshot;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Durable incarnation counter: a tiny on-disk file holding the last
/// incarnation a process ran as, so a *restarted* process resumes with a
/// strictly larger incarnation than anything it sent before the crash.
///
/// The file holds the incarnation as decimal ASCII. Updates go through
/// the snapshot's atomic writer (staged at `<path>.tmp`, synced, renamed
/// over the file, directory synced), so a crash mid-update leaves either
/// the old or the new value, never a torn one. A missing file means
/// "never ran": the first [`bump`](IncarnationStore::bump) yields
/// incarnation 1. A *corrupt* file is an error, not a silent reset —
/// restarting at incarnation 0 would let every pre-crash datagram
/// impersonate the new life.
#[derive(Debug, Clone)]
pub struct IncarnationStore {
    path: PathBuf,
}

impl IncarnationStore {
    /// Uses `path` as the durable incarnation record. No I/O happens
    /// until [`load`](Self::load) or [`bump`](Self::bump).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads the stored incarnation. A missing file reads as 0 (never
    /// ran); a corrupt one is [`io::ErrorKind::InvalidData`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corruption maps to `InvalidData`.
    pub fn load(&self) -> io::Result<u64> {
        match std::fs::read_to_string(&self.path) {
            Ok(text) => text.trim().parse::<u64>().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt incarnation file {}: {e}", self.path.display()),
                )
            }),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Atomically and durably records `incarnation` as the current one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the write, sync or rename; on error
    /// the previous value stays in place and no tmp file is left behind.
    pub fn store(&self, incarnation: u64) -> io::Result<()> {
        let text = incarnation.to_string();
        snapshot::write_atomic(&self.path, |file| file.write_all(text.as_bytes()))
    }

    /// Loads the stored incarnation, bumps it by one, persists the new
    /// value, and returns it — the restart handshake: call once per
    /// process start (and per recovery) *before* sending any heartbeat.
    ///
    /// # Errors
    ///
    /// Propagates [`load`](Self::load)/[`store`](Self::store) errors; on
    /// error nothing is persisted.
    pub fn bump(&self) -> io::Result<u64> {
        let next = self.load()?.checked_add(1).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "incarnation counter overflow")
        })?;
        self.store(next)?;
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tmp_path;
    use std::fs;

    fn temp_store(name: &str) -> IncarnationStore {
        let path =
            std::env::temp_dir().join(format!("fd-incarnation-{}-{name}", std::process::id()));
        let _ = fs::remove_file(&path);
        IncarnationStore::at(path)
    }

    #[test]
    fn bump_survives_process_restarts() {
        let store = temp_store("restart");
        assert_eq!(store.load().unwrap(), 0, "missing file reads as 0");
        assert_eq!(store.bump().unwrap(), 1, "first life is incarnation 1");
        assert_eq!(store.bump().unwrap(), 2);
        // "Restart the process": a new handle on the same file must
        // exceed everything the previous life ever sent.
        let reborn = IncarnationStore::at(store.path());
        assert_eq!(reborn.load().unwrap(), 2);
        assert_eq!(reborn.bump().unwrap(), 3);
        assert!(!tmp_path(store.path()).exists());
        fs::remove_file(store.path()).unwrap();
    }

    #[test]
    fn corrupt_store_is_an_error_not_a_reset() {
        let store = temp_store("corrupt");
        fs::write(store.path(), "not a number").unwrap();
        assert_eq!(store.load().unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(store.bump().unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(fs::read_to_string(store.path()).unwrap(), "not a number", "nothing persisted");
        fs::remove_file(store.path()).unwrap();
    }

    /// `node.a` and `node.b` stage their writes apart: with `node.a`'s
    /// staging path blocked, `node.a` fails and `node.b` still writes.
    #[test]
    fn stores_differing_only_in_extension_do_not_collide() {
        let (a, b) = (temp_store("node.a"), temp_store("node.b"));
        assert_ne!(tmp_path(a.path()), tmp_path(b.path()));
        fs::create_dir(tmp_path(a.path())).unwrap(); // File::create fails on a directory
        assert!(a.store(7).is_err());
        b.store(9).unwrap();
        assert_eq!(b.load().unwrap(), 9);
        assert_eq!(a.load().unwrap(), 0, "the failed store wrote nothing");
        fs::remove_dir(tmp_path(a.path())).unwrap();
        fs::remove_file(b.path()).unwrap();
    }

    /// A store that fails after creating its tmp file (here the rename:
    /// the target is a non-empty directory) removes it.
    #[test]
    fn failed_store_leaves_no_tmp_behind() {
        let store = temp_store("blocked-rename");
        fs::create_dir_all(store.path().join("occupied")).unwrap();
        assert!(store.store(1).is_err());
        assert!(!tmp_path(store.path()).exists(), "no stray tmp file");
        fs::remove_dir_all(store.path()).unwrap();
    }
}
