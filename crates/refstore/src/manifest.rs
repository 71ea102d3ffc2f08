//! The compaction manifest: which segments are live, and where new ids
//! start.
//!
//! Compaction must atomically retire a set of segment files in favour of
//! freshly written ones. The commit point is a single `rename` of
//! `MANIFEST.tmp` over `MANIFEST` — POSIX renames are atomic, so recovery
//! sees either the old manifest (compaction never happened; the old
//! segments are still live, the half-written new ones are orphans) or the
//! new one (the old segments are garbage to be swept). A CRC32 line makes
//! a half-written manifest detectably invalid, in which case recovery
//! falls back to replaying every segment present — safe, because
//! freshest-wins replay is idempotent over duplicated generations.

use crate::crc32::crc32;
use crate::error::Result;
use std::io::Write;
use std::path::Path;

/// Forces a directory's entries (file creations, renames, deletions) onto
/// stable storage. On non-Unix platforms directories cannot be opened for
/// syncing; those builds fall back to a no-op, matching the page-cache
/// durability the platform offers anyway.
pub(crate) fn sync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// Manifest file name within a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "earthplus-refstore-manifest v1";

/// Atomically replaces `dir/name` with `bytes`: tmp file, flush,
/// `fdatasync`, rename. The single commit point every manifest-shaped
/// file in the workspace shares — the engine's own manifest swap and the
/// replication layer's shipped-manifest install both go through here, so
/// a crash at any point leaves either the old file or the new one, never
/// a half-written mix.
///
/// `fsync_dir` additionally forces the directory entry swap to stable
/// storage; without it the rename is atomic against a process crash but
/// not power-loss durable. Callers gate it on the same knob as their
/// append durability so both commit points share one durability level.
///
/// # Errors
///
/// Propagates I/O failures; on failure the previous file (if any) is
/// untouched.
pub fn write_file_atomic(dir: &Path, name: &str, bytes: &[u8], fsync_dir: bool) -> Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(name))?;
    if fsync_dir {
        sync_dir(dir)?;
    }
    Ok(())
}

/// The durable segment-set description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Segment ids that were live when the manifest was written, in id
    /// order. Segments with ids `>= next_segment_id` were appended later
    /// and are also live; unlisted ids below it are orphans.
    pub live_segments: Vec<u64>,
    /// First segment id not yet allocated when the manifest was written.
    pub next_segment_id: u64,
}

impl Manifest {
    fn render_body(&self) -> String {
        let mut body = String::new();
        body.push_str(MANIFEST_HEADER);
        body.push('\n');
        body.push_str(&format!("next {}\n", self.next_segment_id));
        for id in &self.live_segments {
            body.push_str(&format!("segment {id}\n"));
        }
        body
    }

    /// Writes the manifest: tmp file, flush, fsync, atomic rename.
    ///
    /// `fsync_dir` controls whether the parent directory is fsynced after
    /// the rename. Without it the rename is atomic against a process crash
    /// but **not** power-loss durable: the directory entry swap can still
    /// sit in the page cache when power drops, resurrecting the old
    /// manifest. Callers gate it on the same knob as append durability
    /// (`RefLogConfig::fsync_appends`) so the two commit points share one
    /// durability level.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on failure the previous manifest (if any)
    /// is untouched.
    pub fn store(&self, dir: &Path, fsync_dir: bool) -> Result<()> {
        let body = self.render_body();
        let mut content = body.clone();
        content.push_str(&format!("crc {:08x}\n", crc32(body.as_bytes())));
        write_file_atomic(dir, MANIFEST_NAME, content.as_bytes(), fsync_dir)
    }

    /// Loads the manifest from `dir`.
    ///
    /// Returns `Ok(None)` when no manifest exists (a fresh or pre-manifest
    /// store) **or** when the file fails validation (including bytes that
    /// are not UTF-8) — the caller then
    /// falls back to a full-directory replay, which is always safe.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than the file being absent.
    pub fn load(dir: &Path) -> Result<Option<Manifest>> {
        // Bytes first: invalid UTF-8 is a failed validation, not an error.
        let content = match std::fs::read(dir.join(MANIFEST_NAME)) {
            Ok(content) => content,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        Ok(std::str::from_utf8(&content).ok().and_then(Self::parse))
    }

    fn parse(content: &str) -> Option<Manifest> {
        let crc_line_start = content.rfind("crc ")?;
        let (body, crc_line) = content.split_at(crc_line_start);
        let stored = u32::from_str_radix(crc_line.strip_prefix("crc ")?.trim(), 16).ok()?;
        if crc32(body.as_bytes()) != stored {
            return None;
        }
        let mut lines = body.lines();
        if lines.next()? != MANIFEST_HEADER {
            return None;
        }
        let mut next_segment_id = None;
        let mut live_segments = Vec::new();
        for line in lines {
            if let Some(n) = line.strip_prefix("next ") {
                next_segment_id = n.parse().ok();
            } else if let Some(id) = line.strip_prefix("segment ") {
                live_segments.push(id.parse().ok()?);
            } else if !line.trim().is_empty() {
                return None;
            }
        }
        Some(Manifest {
            live_segments,
            next_segment_id: next_segment_id?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "earthplus-refstore-manifest-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_load_round_trip() {
        let dir = test_dir("roundtrip");
        let manifest = Manifest {
            live_segments: vec![3, 4],
            next_segment_id: 5,
        };
        manifest.store(&dir, true).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(manifest));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_none() {
        let dir = test_dir("missing");
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_is_none_not_error() {
        let dir = test_dir("corrupt");
        let manifest = Manifest {
            live_segments: vec![1],
            next_segment_id: 2,
        };
        manifest.store(&dir, true).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let content = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, content.replace("segment 1", "segment 9")).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        // A high-bit flip makes the file invalid UTF-8: still a failed
        // validation, not an I/O error.
        let mut bytes = content.into_bytes();
        bytes[3] ^= 0x80;
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_file_atomic_replaces_whole_files() {
        let dir = test_dir("atomicwrite");
        write_file_atomic(&dir, "STATE", b"first", false).unwrap();
        assert_eq!(std::fs::read(dir.join("STATE")).unwrap(), b"first");
        write_file_atomic(&dir, "STATE", b"second generation", true).unwrap();
        assert_eq!(
            std::fs::read(dir.join("STATE")).unwrap(),
            b"second generation"
        );
        assert!(
            !dir.join("STATE.tmp").exists(),
            "the tmp file must be consumed by the rename"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = test_dir("rewrite");
        Manifest {
            live_segments: vec![0],
            next_segment_id: 1,
        }
        .store(&dir, false)
        .unwrap();
        let second = Manifest {
            live_segments: vec![7],
            next_segment_id: 8,
        };
        second.store(&dir, false).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), Some(second));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
