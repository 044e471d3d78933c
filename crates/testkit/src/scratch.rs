//! A real directory for the suites that need files, not `FaultFs`: on tmpfs
//! (`/dev/shm`) when the machine has one, else under the temp dir.  tsdb's
//! unit tests include this file by path.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh, empty directory of its own per call, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Named after `tag`, this process and a per-process counter, so
    /// concurrent tests never share one.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let shm = PathBuf::from("/dev/shm");
        let base = if shm.is_dir() { shm } else { std::env::temp_dir() };
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("teemon-test-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a scratch directory");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
