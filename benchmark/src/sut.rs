//! The systems under test as real processes: spawning `mqdiv serve` /
//! `mqdiv route`, reading what `/proc` says about them, and making sure
//! every one of them is stopped and waited for.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` counts CPU time in clock ticks; Linux fixes
/// `sysconf(_SC_CLK_TCK)` at 100 on every architecture it supports.
const TICK_US: f64 = 10_000.0;

/// Locates the `mqdiv` binary, building it first (a no-op when fresh).
/// `MQDIV_BIN` overrides both.
pub fn mqdiv_binary() -> Result<PathBuf, String> {
    if let Ok(path) = std::env::var("MQDIV_BIN") {
        return Ok(PathBuf::from(path));
    }
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench_dir
        .parent()
        .ok_or("benchmark/ has no parent directory")?;
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "mqd-cli",
            "--bin",
            "mqdiv",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build mqdiv: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of mqdiv failed ({status})"));
    }
    // The root workspace's target dir, unless the caller redirected it
    // (relative redirects are relative to `root`, where cargo just ran).
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(root.join("target"), |t| root.join(t));
    let bin = target.join("release").join("mqdiv");
    bin.exists()
        .then_some(bin.clone())
        .ok_or(format!("{} not found after build", bin.display()))
}

/// One running `mqdiv` process. Dropping it kills and reaps it.
pub struct Proc {
    child: Child,
    pub addr: String,
}

impl Proc {
    /// Spawns `mqdiv <args>` and waits for its `listening on <addr>` line.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("no stdout pipe")?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().strip_prefix("listening on ").map(String::from);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Proc { child, addr }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "mqdiv {args:?} did not announce an address ({read:?}, {line:?})"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// On-CPU time of every live thread of the process, in µs, from the
    /// scheduler's own ns-resolution accounting (`/proc/<pid>/stat` counts
    /// in 10 ms ticks, too coarse for one-second windows).
    pub fn cpu_us(&self) -> Result<f64, String> {
        let tasks = format!("/proc/{}/task", self.pid());
        let mut ns = 0u64;
        for entry in std::fs::read_dir(&tasks).map_err(|e| format!("{tasks}: {e}"))? {
            // A thread may exit between the listing and the read.
            let path = entry.map_err(|e| e.to_string())?.path().join("schedstat");
            if let Ok(stat) = std::fs::read_to_string(path) {
                ns += stat
                    .split_whitespace()
                    .next()
                    .and_then(|f| f.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        Ok(ns as f64 / 1e3)
    }

    /// Peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        status_kb(&read_proc(self.pid(), "status")?, "VmHWM:").map(|kb| kb / 1024.0)
    }

    /// SIGKILL, then reap. Idempotent.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits for a process that was asked to `DRAIN` to exit by itself;
    /// kills it if it does not within `limit`.
    pub fn wait_exit(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        false
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn read_proc(pid: u32, file: &str) -> Result<String, String> {
    let path = format!("/proc/{pid}/{file}");
    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
}

/// utime + stime out of a `/proc/<pid>/stat` line, in µs.
fn stat_cpu_us(stat: &str) -> Result<f64, String> {
    // Count fields after the parenthesised command name, which may itself
    // hold spaces: state is field 3, utime 14, stime 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) * TICK_US),
        _ => Err("malformed /proc stat".into()),
    }
}

fn status_kb(status: &str, key: &str) -> Result<f64, String> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or(format!("no {key} in /proc status"))
}

/// This process's own view, for the `client.*` trust metrics.
pub struct SelfSample {
    cpu_us: f64,
    /// Host-wide (steal, total) jiffies from `/proc/stat`.
    host: (f64, f64),
    at: Instant,
}

impl SelfSample {
    pub fn take() -> Result<SelfSample, String> {
        let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
        let cpu_us = stat_cpu_us(&stat)?;
        let host = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
        let cpu: Vec<f64> = host
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // the guest columns are already inside user/nice.
        let steal = cpu.get(7).copied().unwrap_or(0.0);
        let total: f64 = cpu.iter().take(8).sum();
        Ok(SelfSample {
            cpu_us,
            host: (steal, total),
            at: Instant::now(),
        })
    }

    /// `(generator CPU as a share of one CPU, host steal share)` since
    /// `earlier`.
    pub fn shares_since(&self, earlier: &SelfSample) -> (f64, f64) {
        let wall_us = self.at.duration_since(earlier.at).as_micros().max(1) as f64;
        let host_total = (self.host.1 - earlier.host.1).max(1.0);
        (
            (self.cpu_us - earlier.cpu_us) / wall_us,
            (self.host.0 - earlier.host.0) / host_total,
        )
    }
}

/// Threads in this process right now.
pub fn own_threads() -> Result<usize, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or("no Threads: in /proc/self/status".into())
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// A scratch directory under the benchmark's `out/`, removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(out_dir: &Path, tag: &str) -> Result<Scratch, String> {
        let dir = out_dir.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// An empty subdirectory `name` (recreated if it exists).
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_parsers_read_this_process() {
        let a = SelfSample::take().unwrap();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = SelfSample::take().unwrap();
        let (cpu, steal) = b.shares_since(&a);
        assert!(
            (0.0..=64.0).contains(&cpu) && (0.0..=1.0).contains(&steal),
            "{cpu} {steal}"
        );
        assert!(own_threads().unwrap() >= 1);
        let status = "Name:\tx\nVmHWM:\t    2048 kB\n";
        assert_eq!(status_kb(status, "VmHWM:"), Ok(2048.0));
    }
}
