//! Host trace storage: file-backed chunk backends and the retry wrapper.
//!
//! Every byte a trace or a checkpoint image puts on storage goes through
//! the [`ChunkSink`]/[`ChunkSource`] interface of `vidi-trace`. This module
//! holds the host's backends for it:
//!
//! * [`FileChunkSink`] receives fixed-size chunks from a
//!   [`TraceSink`](vidi_trace::TraceSink) and writes each at its place in a
//!   file as it arrives, so a recording streams to disk incrementally — the
//!   trace never materializes in memory and a crash loses at most the
//!   unflushed tail.
//! * [`FileChunkSource`] serves positioned reads over such a file for a
//!   [`TraceSource`](vidi_trace::TraceSource); it is `Send + Sync`, so N
//!   replay workers can share one file through [`file_chunk_source`].
//! * [`RetryPolicy::wrap`] puts deterministic retry-with-exponential-backoff
//!   around any backend (§7): real deployments see transient storage
//!   hiccups (a busy PCIe link, an NFS timeout) and occasional hard
//!   failures. Both file backends report the split through
//!   [`ChunkIoError`]: I/O errors that plausibly clear on their own
//!   (interruption, timeout, contention) are transient, everything else is
//!   permanent.

use std::fs::{File, OpenOptions};
use std::io::ErrorKind;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use vidi_trace::{ChunkIoError, ChunkSink, ChunkSource, SharedChunks};

fn classify_io(e: &std::io::Error) -> ChunkIoError {
    match e.kind() {
        ErrorKind::Interrupted | ErrorKind::TimedOut | ErrorKind::WouldBlock => {
            ChunkIoError::Transient(e.to_string())
        }
        _ => ChunkIoError::Permanent(e.to_string()),
    }
}

/// Writes trace chunks to a file as the sink flushes them.
///
/// Chunk `seq` lands at `seq` times the first chunk's length: every chunk
/// but the last has the same length (the [`ChunkSink`] contract), so a
/// chunk written again — a retry after a partial write — overwrites its
/// own bytes instead of appending a second copy.
#[derive(Debug)]
pub struct FileChunkSink {
    file: File,
    chunk_len: Option<u64>,
}

impl FileChunkSink {
    /// Creates (or truncates) the file at `path` and streams chunks into
    /// it.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileChunkSink {
            file,
            chunk_len: None,
        })
    }
}

impl ChunkSink for FileChunkSink {
    fn put_chunk(&mut self, seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError> {
        let chunk_len = *self.chunk_len.get_or_insert(bytes.len() as u64);
        self.file
            .write_all_at(bytes, seq * chunk_len)
            .map_err(|e| classify_io(&e))
    }
}

/// Positioned reads over a chunk file written by [`FileChunkSink`] (or any
/// framed trace image on disk).
#[derive(Debug)]
pub struct FileChunkSource {
    file: File,
}

impl FileChunkSource {
    /// Opens the file at `path` for reading.
    ///
    /// # Errors
    ///
    /// Returns the filesystem error if the file cannot be opened.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(FileChunkSource {
            file: File::open(path)?,
        })
    }
}

impl ChunkSource for FileChunkSource {
    fn byte_len(&self) -> Result<u64, ChunkIoError> {
        self.file
            .metadata()
            .map(|m| m.len())
            .map_err(|e| classify_io(&e))
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize, ChunkIoError> {
        FileExt::read_at(&self.file, buf, offset).map_err(|e| classify_io(&e))
    }
}

/// Opens a trace chunk file as a [`SharedChunks`] handle, ready to hand to
/// `vidi_core::ReplayInput` or any number of independent
/// [`TraceSource`](vidi_trace::TraceSource)s.
///
/// # Errors
///
/// Returns the filesystem error if the file cannot be opened.
pub fn file_chunk_source(path: impl AsRef<Path>) -> std::io::Result<SharedChunks> {
    Ok(Arc::new(FileChunkSource::open(path)?))
}

/// Retry discipline for transient storage faults: up to `max_attempts`
/// tries with `base_backoff * 2^(attempt-1)` between them.
/// [`wrap`](RetryPolicy::wrap) applies it to every operation of a chunk
/// backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (must be ≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
        }
    }
}

impl RetryPolicy {
    /// No retries: fail on the first fault.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
        }
    }

    /// Wraps a chunk backend so each of its operations runs under this
    /// policy.
    pub fn wrap<B>(self, backend: B) -> Retrying<B> {
        Retrying {
            inner: backend,
            policy: self,
        }
    }

    /// The delay slept before retry `attempt` (1-based: the delay after
    /// the `attempt`-th failed try).
    fn backoff_for(&self, attempt: u32) -> Duration {
        self.base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
    }

    /// Runs `op` under this policy. Permanent faults fail immediately;
    /// transient faults are retried with exponential backoff until the
    /// attempt budget is spent, and the last one is returned.
    fn run<T>(&self, mut op: impl FnMut() -> Result<T, ChunkIoError>) -> Result<T, ChunkIoError> {
        let attempts = self.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match op() {
                Err(e) if e.is_transient() && attempt < attempts => {
                    let delay = self.backoff_for(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
                result => return result,
            }
        }
    }
}

/// A chunk backend whose every operation — [`put_chunk`](ChunkSink::put_chunk),
/// [`byte_len`](ChunkSource::byte_len) and [`read_at`](ChunkSource::read_at)
/// — runs under a [`RetryPolicy`]. Built by [`RetryPolicy::wrap`].
#[derive(Debug, Clone)]
pub struct Retrying<B> {
    inner: B,
    policy: RetryPolicy,
}

impl<B> Retrying<B> {
    /// The wrapped backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: ChunkSink> ChunkSink for Retrying<B> {
    fn put_chunk(&mut self, seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError> {
        let inner = &mut self.inner;
        self.policy.run(|| inner.put_chunk(seq, bytes))
    }
}

impl<B: ChunkSource> ChunkSource for Retrying<B> {
    fn byte_len(&self) -> Result<u64, ChunkIoError> {
        self.policy.run(|| self.inner.byte_len())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize, ChunkIoError> {
        self.policy.run(|| self.inner.read_at(offset, buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use vidi_chan::Direction;
    use vidi_hwsim::Bits;
    use vidi_trace::{
        read_full, recover_trace, ChannelInfo, ChannelPacket, CyclePacket, RecoveredTrace, Trace,
        TraceLayout, TraceSink, TraceSource,
    };

    fn layout() -> TraceLayout {
        TraceLayout::new(vec![ChannelInfo {
            name: "c".into(),
            width: 8,
            direction: Direction::Input,
        }])
    }

    fn sample() -> Trace {
        let layout = layout();
        let mut t = Trace::new(layout.clone(), false);
        for i in 0..20u64 {
            t.push(CyclePacket::assemble(
                &layout,
                &[ChannelPacket::start_with(Bits::from_u64(8, i))],
                false,
            ));
        }
        t
    }

    fn scratch_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vidi_chunks_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// An in-memory image whose next `failures_left` operations fail with
    /// `fault`.
    #[derive(Debug)]
    struct Flaky {
        image: Vec<u8>,
        failures_left: Cell<u32>,
        fault: ChunkIoError,
    }

    impl Flaky {
        fn new(failures: u32, fault: ChunkIoError) -> Self {
            Flaky {
                image: Vec::new(),
                failures_left: Cell::new(failures),
                fault,
            }
        }

        fn draw(&self) -> Result<(), ChunkIoError> {
            match self.failures_left.get() {
                0 => Ok(()),
                n => {
                    self.failures_left.set(n - 1);
                    Err(self.fault.clone())
                }
            }
        }
    }

    impl ChunkSink for Flaky {
        fn put_chunk(&mut self, seq: u64, bytes: &[u8]) -> Result<(), ChunkIoError> {
            self.draw()?;
            self.image.put_chunk(seq, bytes)
        }
    }

    impl ChunkSource for Flaky {
        fn byte_len(&self) -> Result<u64, ChunkIoError> {
            self.draw()?;
            self.image.byte_len()
        }
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<usize, ChunkIoError> {
            self.draw()?;
            self.image.read_at(offset, buf)
        }
    }

    fn transient() -> ChunkIoError {
        ChunkIoError::Transient("injected".into())
    }

    fn fast_retry(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::ZERO,
        }
    }

    /// Reads a whole image back through `src` and recovers its trace.
    fn load(src: &impl ChunkSource) -> Result<RecoveredTrace, ChunkIoError> {
        Ok(recover_trace(&read_full(src)?).expect("header intact"))
    }

    #[test]
    fn backoff_doubles_from_the_base() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(1),
        };
        for k in 1..=6u32 {
            assert_eq!(p.backoff_for(k), Duration::from_millis(1 << (k - 1)));
        }
    }

    #[test]
    fn retrying_roundtrip() {
        let t = sample();
        let stored = t
            .write_framed(RetryPolicy::none().wrap(Vec::new()))
            .unwrap();
        let rec = load(&stored).unwrap();
        assert!(rec.is_complete());
        assert_eq!(rec.trace, t);
    }

    #[test]
    fn transient_faults_are_retried() {
        let t = sample();
        let stored = t
            .write_framed(fast_retry(3).wrap(Flaky::new(2, transient())))
            .unwrap();
        let flaky = stored.into_inner();
        flaky.failures_left.set(2);
        let rec = load(&fast_retry(3).wrap(flaky)).unwrap();
        assert_eq!(rec.trace, t);
    }

    #[test]
    fn exhausted_retries_surface_typed_error() {
        let err = sample()
            .write_framed(fast_retry(3).wrap(Flaky::new(10, transient())))
            .unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn permanent_fault_fails_fast() {
        let dead = Flaky::new(5, ChunkIoError::Permanent("media gone".into()));
        let wrapped = fast_retry(5).wrap(dead);
        let err = wrapped.byte_len().unwrap_err();
        assert!(!err.is_transient());
        // One attempt, not five: four failures are still scheduled.
        assert_eq!(wrapped.into_inner().failures_left.get(), 4);
    }

    #[test]
    fn corrupted_image_recovers_prefix() {
        let t = sample();
        let mut image = t
            .write_framed(RetryPolicy::none().wrap(Vec::new()))
            .unwrap()
            .into_inner();
        let n = image.len();
        image[n - 20] ^= 0x08; // clobber the last storage word
        let rec = load(&RetryPolicy::none().wrap(image)).unwrap();
        assert!(!rec.is_complete());
        assert!(rec.recovered_packets > 0);
        assert_eq!(
            rec.trace.packets(),
            &t.packets()[..rec.recovered_packets as usize]
        );
    }

    #[test]
    fn file_roundtrip_under_the_default_policy() {
        let t = sample();
        let path = scratch_file("t.vidif");
        t.write_framed(RetryPolicy::default().wrap(FileChunkSink::create(&path).unwrap()))
            .unwrap();
        let rec =
            load(&RetryPolicy::default().wrap(FileChunkSource::open(&path).unwrap())).unwrap();
        assert!(rec.is_complete());
        assert_eq!(rec.trace, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewritten_chunk_leaves_one_copy() {
        let path = scratch_file("rewrite.vidif");
        let mut sink = FileChunkSink::create(&path).unwrap();
        sink.put_chunk(0, &[1; 64]).unwrap();
        sink.put_chunk(0, &[1; 64]).unwrap();
        sink.put_chunk(1, &[2; 10]).unwrap();
        sink.put_chunk(1, &[2; 10]).unwrap();
        let mut expected = vec![1u8; 64];
        expected.extend_from_slice(&[2; 10]);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_sink_source_roundtrip() {
        let layout = layout();
        let path = scratch_file("stream.vidif");

        let sink = FileChunkSink::create(&path).unwrap();
        let mut sink = TraceSink::new(sink, &layout, false, 2);
        for i in 0..50u64 {
            sink.push(&CyclePacket::assemble(
                &layout,
                &[ChannelPacket::start_with(Bits::from_u64(8, i & 0xff))],
                false,
            ))
            .unwrap();
        }
        sink.finish().unwrap();

        let shared = file_chunk_source(&path).unwrap();
        let mut src = TraceSource::open(shared, 2).unwrap();
        assert_eq!(src.certified_packets(), 50);
        assert!(src.is_complete());
        let cycles: Result<Vec<_>, _> = src.cycles().collect();
        assert_eq!(cycles.unwrap().len(), 50);
        std::fs::remove_file(&path).ok();
    }
}
