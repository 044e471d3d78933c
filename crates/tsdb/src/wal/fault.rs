//! Deterministic fault injection for the write-ahead log: the in-memory
//! [`FaultFs`] (a journalled filesystem that can be crashed at any byte or
//! operation boundary, corrupted in place, or told to start failing) and
//! [`FailpointWriter`], which wraps any [`WalFile`] with injected failures.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use super::{WalFile, WalFs};

/// How [`FaultFs::crashed`] decides what survives the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashModel {
    /// Writes reach disk in order and tear mid-write once the byte budget is
    /// spent — the classic torn-tail model.
    Torn,
    /// Only data covered by a completed fsync (or an atomic replace) survives;
    /// everything after the last sync point is lost.
    SyncedOnly,
}

/// One journalled operation.  `Create` is a whole file written and synced in
/// one step — the tmp half of an atomic replace, `Rename` being the other.
#[derive(Debug, Clone)]
enum FsOp {
    Write { path: PathBuf, bytes: Vec<u8> },
    Sync { path: PathBuf },
    Create { path: PathBuf, bytes: Vec<u8> },
    Rename { from: PathBuf, to: PathBuf },
    Remove { path: PathBuf },
}

#[derive(Debug, Default)]
struct FaultState {
    files: HashMap<PathBuf, Vec<u8>>,
    /// The files this filesystem started with — empty for [`FaultFs::new`],
    /// the crash image's contents for a filesystem built by
    /// [`FaultFs::crashed`]/[`FaultFs::crashed_at_op`].  Crash images replay
    /// the (post-creation) journal on top of this baseline, so reopening a
    /// crash image, writing to it, and crashing it *again* keeps the files
    /// the second run never touched.
    baseline: HashMap<PathBuf, Vec<u8>>,
    ops: Vec<FsOp>,
    writes: u64,
    fsyncs: u64,
    fail_write_from: Option<u64>,
    fail_fsync_from: Option<u64>,
}

impl FaultState {
    /// Journals `op` and applies it to the live files.
    fn apply(&mut self, op: FsOp) {
        apply_op(&mut self.files, &op);
        self.ops.push(op);
    }
}

/// Applies one journalled operation in full (appends included).
fn apply_op(files: &mut HashMap<PathBuf, Vec<u8>>, op: &FsOp) {
    match op {
        FsOp::Write { path, bytes } => {
            files.entry(path.clone()).or_default().extend_from_slice(bytes);
        }
        FsOp::Sync { .. } => {}
        FsOp::Create { path, bytes } => {
            files.insert(path.clone(), bytes.clone());
        }
        FsOp::Rename { from, to } => {
            if let Some(bytes) = files.remove(from) {
                files.insert(to.clone(), bytes);
            }
        }
        FsOp::Remove { path } => {
            files.remove(path);
        }
    }
}

/// Deterministic in-memory [`WalFs`] for the fault-injection suite.
///
/// Every mutation is journalled, so [`FaultFs::crashed`] can reconstruct the
/// exact disk image "as of a crash after `k` appended bytes" under either
/// [`CrashModel`]; [`FaultFs::corrupt`] flips bits in place; and the
/// `fail_*_from` knobs turn later writes into short writes and later fsyncs
/// into errors.  An atomic replace is journalled the way `RealFs`
/// performs it — the tmp file first, then the rename — so an op-boundary
/// crash can strand the tmp file.
#[derive(Debug, Default, Clone)]
pub struct FaultFs {
    state: Arc<Mutex<FaultState>>,
}

impl FaultFs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes passed to [`WalFile::append`] so far — the budget domain
    /// for [`FaultFs::crashed`].
    pub fn total_write_bytes(&self) -> u64 {
        let state = self.state.lock();
        state
            .ops
            .iter()
            .map(|op| match op {
                FsOp::Write { bytes, .. } => bytes.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// The disk image after a crash that let `budget` appended bytes reach
    /// the (simulated) disk, under `model`.  The returned filesystem has an
    /// empty journal of its own.
    ///
    /// The budget is charged per *appended byte*: a crash can tear inside
    /// any append, but non-append operations (atomic replaces, removals,
    /// fsyncs) consume nothing and are applied together with the
    /// append that precedes them.  Use [`FaultFs::crashed_at_op`] to place a
    /// crash *between* two journalled operations — e.g. between a snapshot
    /// install and the deletion of the segments it covers.
    pub fn crashed(&self, budget: u64, model: CrashModel) -> FaultFs {
        let state = self.state.lock();
        Self::image(&state.baseline, &state.ops, budget, model)
    }

    /// Number of journalled filesystem operations so far — the sweep domain
    /// for [`FaultFs::crashed_at_op`].
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops.len() as u64
    }

    /// The disk image after a crash between journalled operations: the
    /// first `ops` operations applied in full, everything later lost.
    /// Unlike the byte budget of [`FaultFs::crashed`], this axis can land a
    /// crash between two non-append operations, covering windows like an
    /// interrupted checkpoint (tmp file written, not yet renamed; snapshot
    /// installed, covered segments not yet deleted).
    pub fn crashed_at_op(&self, ops: u64, model: CrashModel) -> FaultFs {
        let state = self.state.lock();
        let keep = usize::try_from(ops).unwrap_or(usize::MAX).min(state.ops.len());
        Self::image(&state.baseline, state.ops.get(..keep).unwrap_or(&[]), u64::MAX, model)
    }

    /// Replays `ops` onto `baseline` (empty for a [`FaultFs::new`]
    /// filesystem; for a crash image, the files it was created with, all
    /// counted as synced — they were on disk), tearing the first append that
    /// exceeds `budget` bytes and dropping everything after it.
    fn image(
        baseline: &HashMap<PathBuf, Vec<u8>>,
        ops: &[FsOp],
        budget: u64,
        model: CrashModel,
    ) -> FaultFs {
        let mut files: HashMap<PathBuf, Vec<u8>> = baseline.clone();
        let mut synced: HashMap<PathBuf, usize> =
            files.iter().map(|(path, data)| (path.clone(), data.len())).collect();
        let mut remaining = budget;
        for op in ops {
            match op {
                FsOp::Write { path, bytes } => {
                    let take = usize::try_from(remaining).unwrap_or(usize::MAX).min(bytes.len());
                    let entry = files.entry(path.clone()).or_default();
                    entry.extend_from_slice(bytes.get(..take).unwrap_or(&[]));
                    remaining -= take as u64;
                    if take < bytes.len() {
                        break;
                    }
                }
                FsOp::Sync { path } | FsOp::Create { path, .. } => {
                    apply_op(&mut files, op);
                    let len = files.get(path).map(|f| f.len()).unwrap_or(0);
                    synced.insert(path.clone(), len);
                }
                FsOp::Rename { from, to } => {
                    apply_op(&mut files, op);
                    if let Some(len) = synced.remove(from) {
                        synced.insert(to.clone(), len);
                    }
                }
                FsOp::Remove { path } => {
                    apply_op(&mut files, op);
                    synced.remove(path);
                }
            }
        }
        if model == CrashModel::SyncedOnly {
            for (path, data) in files.iter_mut() {
                let keep = synced.get(path).copied().unwrap_or(0);
                data.truncate(keep);
            }
        }
        let baseline = files.clone();
        FaultFs {
            state: Arc::new(Mutex::new(FaultState { files, baseline, ..FaultState::default() })),
        }
    }

    /// XORs the byte at `offset` of `path` with `xor` (no journal entry —
    /// this models silent media corruption).
    pub fn corrupt(&self, path: &Path, offset: usize, xor: u8) {
        let mut state = self.state.lock();
        let state = &mut *state;
        // Media corruption is below the journal: flip the byte in the
        // baseline too, so further crash images keep the damage.
        for files in [&mut state.files, &mut state.baseline] {
            if let Some(b) = files.get_mut(path).and_then(|bytes| bytes.get_mut(offset)) {
                *b ^= xor;
            }
        }
    }

    /// Paths of all files currently present, sorted.
    pub fn file_paths(&self) -> Vec<PathBuf> {
        let state = self.state.lock();
        let mut paths: Vec<PathBuf> = state.files.keys().cloned().collect();
        paths.sort();
        paths
    }

    /// Length of `path`, `None` when absent.
    pub fn file_len(&self, path: &Path) -> Option<u64> {
        let state = self.state.lock();
        state.files.get(path).map(|f| f.len() as u64)
    }

    /// Makes every append after the first `n` a short write that errors.
    pub fn fail_writes_from(&self, n: u64) {
        self.state.lock().fail_write_from = Some(n);
    }

    /// Makes every fsync after the first `n` return an error.
    pub fn fail_fsyncs_from(&self, n: u64) {
        self.state.lock().fail_fsync_from = Some(n);
    }
}

struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    path: PathBuf,
}

impl WalFile for FaultFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut state = self.state.lock();
        state.writes += 1;
        let fail = state.fail_write_from.map(|n| state.writes > n).unwrap_or(false);
        let written = if fail { bytes.get(..bytes.len() / 2).unwrap_or(&[]) } else { bytes };
        state.apply(FsOp::Write { path: self.path.clone(), bytes: written.to_vec() });
        if fail {
            return Err(io::Error::other("injected short write"));
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.state.lock();
        state.fsyncs += 1;
        if state.fail_fsync_from.map(|n| state.fsyncs > n).unwrap_or(false) {
            return Err(io::Error::other("injected fsync failure"));
        }
        state.apply(FsOp::Sync { path: self.path.clone() });
        Ok(())
    }
}

impl WalFs for FaultFs {
    fn open_append(&self, path: &Path) -> io::Result<(Box<dyn WalFile>, u64)> {
        let len = self.file_len(path).unwrap_or(0);
        Ok((Box::new(FaultFile { state: Arc::clone(&self.state), path: path.to_path_buf() }), len))
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        let state = self.state.lock();
        Ok(state.files.get(path).cloned())
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        let mut state = self.state.lock();
        state.apply(FsOp::Create { path: tmp.clone(), bytes: bytes.to_vec() });
        state.apply(FsOp::Rename { from: tmp, to: path.to_path_buf() });
        Ok(())
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut paths = self.file_paths();
        paths.retain(|path| path.parent() == Some(dir));
        Ok(paths)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.state.lock().apply(FsOp::Remove { path: path.to_path_buf() });
        Ok(())
    }
}

/// Wraps a [`WalFile`] with failure injection: appends past
/// `fail_write_from` become short writes that error, fsyncs past
/// `fail_fsync_from` fail outright.
pub struct FailpointWriter {
    inner: Box<dyn WalFile>,
    writes: u64,
    fsyncs: u64,
    fail_write_from: Option<u64>,
    fail_fsync_from: Option<u64>,
}

impl FailpointWriter {
    /// Wraps `inner`; `None` thresholds never fire.
    pub fn new(
        inner: Box<dyn WalFile>,
        fail_write_from: Option<u64>,
        fail_fsync_from: Option<u64>,
    ) -> Self {
        Self { inner, writes: 0, fsyncs: 0, fail_write_from, fail_fsync_from }
    }
}

impl WalFile for FailpointWriter {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writes += 1;
        if self.fail_write_from.map(|n| self.writes > n).unwrap_or(false) {
            let half = bytes.get(..bytes.len() / 2).unwrap_or(&[]);
            let _ = self.inner.append(half);
            return Err(io::Error::other("injected short write"));
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.fsyncs += 1;
        if self.fail_fsync_from.map(|n| self.fsyncs > n).unwrap_or(false) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync()
    }
}
