//! Log storage behind small traits, so the crash-matrix tests can enumerate
//! every crash point in-process.
//!
//! [`FsDir`]/`FsFile` are the real thing: append-only files, `sync_data`
//! fsyncs, best-effort directory fsync on create/remove so segment metadata
//! is durable too. [`MemDir`] is a deterministic in-memory disk shared
//! through an `Arc`: a [`FailPlan`] arms a byte budget, and the append that
//! would cross it persists only the bytes under the budget (a torn write),
//! marks the disk crashed, and fails — after which every operation fails,
//! exactly like a process that took SIGKILL mid-`write(2)`. The surviving
//! image can then be re-opened for replay, optionally dropping bytes that
//! were never fsynced (the page-cache-loss model).

use super::WalError;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// An append-only log file.
pub trait LogFile: Send {
    /// Appends `bytes` at the end of the file.
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;
    /// Makes everything appended so far durable.
    fn sync(&mut self) -> Result<(), WalError>;
}

/// A directory of log files.
pub trait LogDir: Send + Sync {
    /// Creates (truncating if present) a file and returns its append handle.
    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, WalError>;
    /// Lists file names, sorted ascending.
    fn list(&self) -> Result<Vec<String>, WalError>;
    /// Reads a whole file.
    fn read(&self, name: &str) -> Result<Vec<u8>, WalError>;
    /// Truncates a file to `len` bytes (used to seal a torn tail).
    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError>;
    /// Removes a file.
    fn remove(&self, name: &str) -> Result<(), WalError>;
}

fn io_err(ctx: &str, e: std::io::Error) -> WalError {
    WalError::Io(format!("{ctx}: {e}"))
}

/// Real filesystem log directory.
pub struct FsDir {
    path: PathBuf,
}

impl FsDir {
    /// Opens (creating if necessary) the directory at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<FsDir, WalError> {
        let path = path.into();
        fs::create_dir_all(&path).map_err(|e| io_err(&format!("mkdir {}", path.display()), e))?;
        Ok(FsDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Fsync the directory itself so created/removed file names are durable.
    /// Best-effort: not every platform lets you open a directory for sync.
    fn sync_dir(&self) {
        if let Ok(d) = fs::File::open(&self.path) {
            let _ = d.sync_all();
        }
    }
}

struct FsFile {
    file: fs::File,
}

impl LogFile for FsFile {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.file.write_all(bytes).map_err(|e| io_err("append", e))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync_data().map_err(|e| io_err("fsync", e))
    }
}

impl LogDir for FsDir {
    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, WalError> {
        let p = self.path.join(name);
        let file = fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&p)
            .map_err(|e| io_err(&format!("create {}", p.display()), e))?;
        self.sync_dir();
        Ok(Box::new(FsFile { file }))
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.path)
            .map_err(|e| io_err(&format!("list {}", self.path.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list entry", e))?;
            if let Ok(name) = entry.file_name().into_string() {
                names.push(name);
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        let p = self.path.join(name);
        fs::read(&p).map_err(|e| io_err(&format!("read {}", p.display()), e))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        let p = self.path.join(name);
        let f = fs::OpenOptions::new()
            .write(true)
            .open(&p)
            .map_err(|e| io_err(&format!("open {}", p.display()), e))?;
        f.set_len(len).map_err(|e| io_err(&format!("truncate {}", p.display()), e))?;
        f.sync_data().map_err(|e| io_err("fsync after truncate", e))
    }

    fn remove(&self, name: &str) -> Result<(), WalError> {
        let p = self.path.join(name);
        fs::remove_file(&p).map_err(|e| io_err(&format!("remove {}", p.display()), e))?;
        self.sync_dir();
        Ok(())
    }
}

/// Deterministic failpoint: crash the simulated process once the byte budget
/// is exhausted. `None` never crashes.
#[derive(Clone, Copy, Debug, Default)]
pub struct FailPlan {
    /// Total appended bytes (across all files, in order) after which the
    /// disk "dies". The append that crosses the budget persists only the
    /// bytes under it — a torn write.
    pub crash_after_bytes: Option<u64>,
}

struct MemFileData {
    name: String,
    bytes: Vec<u8>,
    /// Length covered by the last `sync` on this file.
    synced_len: usize,
}

struct MemDisk {
    files: Vec<MemFileData>,
    /// Total bytes persisted across all files, in append order.
    appended: u64,
    syncs: u64,
    crashed: bool,
    plan: FailPlan,
}

impl MemDisk {
    fn find(&self, name: &str) -> Option<usize> {
        self.files.iter().position(|f| f.name == name)
    }
}

/// In-memory log directory with a deterministic crash failpoint. Cloning
/// shares the same underlying disk, so a test can keep a handle while the
/// writer owns another.
#[derive(Clone)]
pub struct MemDir {
    disk: Arc<Mutex<MemDisk>>,
}

impl Default for MemDir {
    fn default() -> Self {
        Self::new()
    }
}

impl MemDir {
    /// A fresh, never-crashing in-memory disk.
    pub fn new() -> MemDir {
        Self::with_plan(FailPlan::default())
    }

    /// A fresh disk armed with a failpoint.
    pub fn with_plan(plan: FailPlan) -> MemDir {
        MemDir {
            disk: Arc::new(Mutex::new(MemDisk {
                files: Vec::new(),
                appended: 0,
                syncs: 0,
                crashed: false,
                plan,
            })),
        }
    }

    /// Whether the failpoint has fired.
    pub fn crashed(&self) -> bool {
        self.disk.lock().expect("mem disk mutex poisoned").crashed
    }

    /// Total bytes persisted across all files.
    pub fn persisted_bytes(&self) -> u64 {
        self.disk.lock().expect("mem disk mutex poisoned").appended
    }

    /// Number of `sync` calls that reached the disk.
    pub fn sync_count(&self) -> u64 {
        self.disk.lock().expect("mem disk mutex poisoned").syncs
    }

    /// The post-crash disk image a restarted process would see: a plain
    /// (never-crashing) `MemDir` holding each file's surviving bytes. With
    /// `lose_unsynced`, bytes appended after each file's last fsync are
    /// dropped — the pessimistic page-cache-loss model; without it, every
    /// persisted byte survives (the kernel happened to flush). Both are
    /// legal crash outcomes and recovery must cope with either.
    pub fn surviving(&self, lose_unsynced: bool) -> MemDir {
        let disk = self.disk.lock().expect("mem disk mutex poisoned");
        let files = disk
            .files
            .iter()
            .map(|f| {
                let keep = if lose_unsynced { f.synced_len } else { f.bytes.len() };
                MemFileData {
                    name: f.name.clone(),
                    bytes: f.bytes[..keep].to_vec(),
                    synced_len: keep,
                }
            })
            .collect::<Vec<_>>();
        let appended = files.iter().map(|f| f.bytes.len() as u64).sum();
        MemDir {
            disk: Arc::new(Mutex::new(MemDisk {
                files,
                appended,
                syncs: 0,
                crashed: false,
                plan: FailPlan::default(),
            })),
        }
    }
}

struct MemFileHandle {
    disk: Arc<Mutex<MemDisk>>,
    index: usize,
}

impl LogFile for MemFileHandle {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let mut disk = self.disk.lock().expect("mem disk mutex poisoned");
        if disk.crashed {
            return Err(WalError::Crashed);
        }
        let take = match disk.plan.crash_after_bytes {
            Some(budget) if disk.appended + bytes.len() as u64 > budget => {
                disk.crashed = true;
                (budget.saturating_sub(disk.appended)) as usize
            }
            _ => bytes.len(),
        };
        let crashed = disk.crashed;
        disk.appended += take as u64;
        disk.files[self.index].bytes.extend_from_slice(&bytes[..take]);
        if crashed {
            return Err(WalError::Crashed);
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let mut disk = self.disk.lock().expect("mem disk mutex poisoned");
        if disk.crashed {
            return Err(WalError::Crashed);
        }
        disk.syncs += 1;
        let len = disk.files[self.index].bytes.len();
        disk.files[self.index].synced_len = len;
        Ok(())
    }
}

impl LogDir for MemDir {
    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, WalError> {
        let mut disk = self.disk.lock().expect("mem disk mutex poisoned");
        if disk.crashed {
            return Err(WalError::Crashed);
        }
        let index = match disk.find(name) {
            Some(i) => {
                disk.files[i].bytes.clear();
                disk.files[i].synced_len = 0;
                i
            }
            None => {
                disk.files.push(MemFileData {
                    name: name.to_string(),
                    bytes: Vec::new(),
                    synced_len: 0,
                });
                disk.files.len() - 1
            }
        };
        Ok(Box::new(MemFileHandle { disk: Arc::clone(&self.disk), index }))
    }

    fn list(&self) -> Result<Vec<String>, WalError> {
        let disk = self.disk.lock().expect("mem disk mutex poisoned");
        if disk.crashed {
            return Err(WalError::Crashed);
        }
        let mut names: Vec<String> = disk.files.iter().map(|f| f.name.clone()).collect();
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, WalError> {
        let disk = self.disk.lock().expect("mem disk mutex poisoned");
        if disk.crashed {
            return Err(WalError::Crashed);
        }
        disk.find(name)
            .map(|i| disk.files[i].bytes.clone())
            .ok_or_else(|| WalError::Io(format!("no such file {name}")))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), WalError> {
        let mut disk = self.disk.lock().expect("mem disk mutex poisoned");
        if disk.crashed {
            return Err(WalError::Crashed);
        }
        let i = disk.find(name).ok_or_else(|| WalError::Io(format!("no such file {name}")))?;
        let len = len as usize;
        if disk.files[i].bytes.len() > len {
            disk.files[i].bytes.truncate(len);
        }
        disk.files[i].synced_len = disk.files[i].synced_len.min(len);
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), WalError> {
        let mut disk = self.disk.lock().expect("mem disk mutex poisoned");
        if disk.crashed {
            return Err(WalError::Crashed);
        }
        let i = disk.find(name).ok_or_else(|| WalError::Io(format!("no such file {name}")))?;
        disk.files.remove(i);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_dir_roundtrips_files() {
        let dir = MemDir::new();
        let mut f = dir.create("wal-000001.seg").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(dir.read("wal-000001.seg").unwrap(), b"hello world");
        assert_eq!(dir.list().unwrap(), vec!["wal-000001.seg".to_string()]);
        dir.truncate("wal-000001.seg", 5).unwrap();
        assert_eq!(dir.read("wal-000001.seg").unwrap(), b"hello");
        dir.remove("wal-000001.seg").unwrap();
        assert!(dir.list().unwrap().is_empty());
    }

    #[test]
    fn failpoint_tears_the_crossing_append_and_kills_the_disk() {
        let dir = MemDir::with_plan(FailPlan { crash_after_bytes: Some(10) });
        let mut f = dir.create("a").unwrap();
        f.append(b"12345678").unwrap(); // 8 bytes, under budget
        assert_eq!(f.append(b"abcdef"), Err(WalError::Crashed)); // crosses at 10
        assert!(dir.crashed());
        assert_eq!(f.append(b"x"), Err(WalError::Crashed));
        assert_eq!(f.sync(), Err(WalError::Crashed));
        assert_eq!(dir.list(), Err(WalError::Crashed));
        // The surviving image holds exactly the 10 budgeted bytes.
        let after = dir.surviving(false);
        assert_eq!(after.read("a").unwrap(), b"12345678ab");
    }

    #[test]
    fn surviving_can_drop_unsynced_bytes() {
        let dir = MemDir::with_plan(FailPlan { crash_after_bytes: Some(100) });
        let mut f = dir.create("a").unwrap();
        f.append(b"durable!").unwrap();
        f.sync().unwrap();
        f.append(b"in the page cache").unwrap();
        let _ = f.append(&[0u8; 100]); // crash
        assert_eq!(dir.surviving(true).read("a").unwrap(), b"durable!");
        let optimistic = dir.surviving(false).read("a").unwrap();
        assert_eq!(optimistic.len(), 100);
        assert!(optimistic.starts_with(b"durable!in the page cache"));
    }

    #[test]
    fn fs_dir_roundtrips_files() {
        let base = std::env::temp_dir().join(format!("pr-wal-fsdir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let dir = FsDir::open(&base).unwrap();
        let mut f = dir.create("wal-000001.seg").unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        assert_eq!(dir.read("wal-000001.seg").unwrap(), b"abc");
        dir.truncate("wal-000001.seg", 1).unwrap();
        assert_eq!(dir.read("wal-000001.seg").unwrap(), b"a");
        assert_eq!(dir.list().unwrap(), vec!["wal-000001.seg".to_string()]);
        dir.remove("wal-000001.seg").unwrap();
        assert!(dir.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(&base);
    }
}
