//! Running the shipped `repro` binary: building it from the checkout,
//! timing batch runs with their peak memory, and starting and stopping
//! serve daemons. Every process started here is waited for before the
//! ladder exits, on success and on error alike.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to print its listening line.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Builds `repro` from the checkout (a no-op when it is up to date) and
/// returns the binary's path. Cargo's own output goes to stderr.
pub fn build_repro() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--locked"])
        .args(["-p", "horizon-bench", "--bin", "repro"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let repro = PathBuf::from(target).join("release").join("repro");
    if repro.is_file() {
        Ok(repro)
    } else {
        Err(format!("cargo built no binary at {}", repro.display()))
    }
}

/// A scratch directory inside the checkout for cache dirs, removed when
/// the ladder is done with it.
pub struct WorkDir {
    root: PathBuf,
}

impl WorkDir {
    pub fn create() -> Result<WorkDir, String> {
        let root = Path::new(".ladder-work").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(WorkDir { root })
    }

    /// A path for a new, empty cache directory (removing any earlier
    /// one of the same name).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either; fails harmlessly while
        // another ladder's run directory is still in it.
        let _ = std::fs::remove_dir(".ladder-work");
    }
}

/// One finished batch process.
pub struct BatchRun {
    /// Spawn to exit.
    pub wall_s: f64,
    /// Highest VmHWM sampled while it ran.
    pub peak_rss_mb: f64,
    pub success: bool,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

/// How often a running batch process's VmHWM is sampled.
const RSS_POLL: Duration = Duration::from_millis(5);

/// Runs `repro args...` to completion, timing it and sampling its peak
/// resident set from `/proc` while it runs.
pub fn run_batch(repro: &Path, args: &[&str]) -> Result<BatchRun, String> {
    let start = Instant::now();
    let mut child = Command::new(repro)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
    let pid = child.id();
    let stdout = drain(child.stdout.take().expect("stdout is piped"));
    let stderr = drain(child.stderr.take().expect("stderr is piped"));
    let done = AtomicBool::new(false);
    let peak_kb = AtomicU64::new(0);
    let status = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak_kb.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(RSS_POLL);
            }
        });
        let status = child.wait();
        done.store(true, Ordering::SeqCst);
        status
    });
    let wall_s = start.elapsed().as_secs_f64();
    let status = status.map_err(|e| format!("waiting for repro failed: {e}"))?;
    let stdout = stdout.join().expect("stdout reader does not panic");
    let stderr = stderr.join().expect("stderr reader does not panic");
    Ok(BatchRun {
        wall_s,
        peak_rss_mb: peak_kb.load(Ordering::Relaxed) as f64 / 1024.0,
        success: status.success(),
        stdout,
        stderr: String::from_utf8_lossy(&stderr).into_owned(),
    })
}

fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        bytes
    })
}

/// A process's peak resident set (`VmHWM`) in KiB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Bytes in all regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(kind) if kind.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// A running `repro serve` process. Dropping it kills the process and
/// waits for it.
pub struct Daemon {
    child: Child,
    addr: String,
    log: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `repro serve args...` and waits for its listening line.
    ///
    /// The daemon gets one malloc arena. glibc gives each thread that
    /// allocates an arena of its own and keeps freed memory in it, and a
    /// daemon hands each connection to whichever pooled thread wakes
    /// first, so its peak resident set depended on which threads happened
    /// to render: served `peak_rss_mb` jumped between about 33 and 53 MB
    /// from run to run of the same code. With one arena it follows the
    /// live heap instead. Batch processes keep the default: their threads
    /// have fixed roles, so per-thread arenas are steady there (1% spread)
    /// and one shared arena is not (36 to 42 MB, by how the threads'
    /// allocations interleave).
    pub fn spawn(repro: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(repro)
            .env("MALLOC_ARENA_MAX", "1")
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start repro serve: {e}"))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (ready_tx, ready_rx) = mpsc::channel();
        // Keep draining stderr after the listening line so the daemon
        // never blocks on a full pipe.
        let log = std::thread::spawn(move || {
            let mut ready = Some(ready_tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on http://").nth(1) {
                    if let Some(tx) = ready.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            log: Some(log),
        };
        match ready_rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            Err(_) => Err(format!("repro serve {} never became ready", args.join(" "))),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        vm_hwm_kb(self.child.id()).map(|kb| kb as f64 / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(log) = self.log.take() {
            let _ = log.join();
        }
    }
}
