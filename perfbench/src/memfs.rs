//! An in-memory filesystem behind `nemo_store`'s [`Vfs`] seam.
//!
//! The benchmark keeps every store in process memory: the store still
//! performs every open, append, rename, removal and fsync through the
//! seam, but no call reaches a device. That keeps
//! disk latency — which on a shared disk varies by more than the bounds
//! the benchmark enforces — out of the write-path numbers, and keeps the
//! benchmark from writing outside its working directory.

use nemo_store::{Vfs, VfsFile};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

type Bytes = Arc<Mutex<Vec<u8>>>;

/// A filesystem whose files are byte vectors in this process.
#[derive(Debug, Default)]
pub struct MemFs {
    files: Mutex<BTreeMap<PathBuf, Bytes>>,
    dirs: Mutex<BTreeSet<PathBuf>>,
}

#[derive(Debug)]
struct MemFile(Bytes);

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("{}: no such file", path.display()),
    )
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a memfs lock holder panicked")
}

impl VfsFile for MemFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        lock(&self.0).extend_from_slice(buf);
        Ok(())
    }
    fn sync_data(&self) -> io::Result<()> {
        Ok(())
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        let len = usize::try_from(len).map_err(|_| io::Error::other("length overflows usize"))?;
        lock(&self.0).resize(len, 0);
        Ok(())
    }
    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(MemFile(self.0.clone())))
    }
}

impl MemFs {
    fn existing(&self, path: &Path) -> io::Result<Bytes> {
        lock(&self.files)
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn require_parent(&self, path: &Path) -> io::Result<()> {
        match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() && !lock(&self.dirs).contains(dir) => {
                Err(not_found(dir))
            }
            _ => Ok(()),
        }
    }
}

impl Vfs for MemFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut dirs = lock(&self.dirs);
        for dir in path.ancestors().filter(|d| !d.as_os_str().is_empty()) {
            dirs.insert(dir.to_path_buf());
        }
        Ok(())
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        if !lock(&self.dirs).contains(path) {
            return Err(not_found(path));
        }
        let is_child = |p: &&PathBuf| p.parent() == Some(path);
        let mut entries: Vec<PathBuf> =
            lock(&self.files).keys().filter(is_child).cloned().collect();
        entries.extend(lock(&self.dirs).iter().filter(is_child).cloned());
        entries.sort();
        Ok(entries)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.existing(path)?;
        let copy = lock(&bytes).clone();
        Ok(copy)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        lock(&self.files)
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.require_parent(to)?;
        let mut files = lock(&self.files);
        let bytes = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), bytes);
        Ok(())
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(MemFile(self.existing(path)?)))
    }
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.require_parent(path)?;
        let mut files = lock(&self.files);
        if files.contains_key(path) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{}: file exists", path.display()),
            ));
        }
        let bytes = Bytes::default();
        files.insert(path.to_path_buf(), bytes.clone());
        Ok(Box::new(MemFile(bytes)))
    }
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.require_parent(path)?;
        let bytes = Bytes::default();
        lock(&self.files).insert(path.to_path_buf(), bytes.clone());
        Ok(Box::new(MemFile(bytes)))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.open_append(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        if !lock(&self.dirs).contains(path) {
            return Err(not_found(path));
        }
        Ok(())
    }
}
