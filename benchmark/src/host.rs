//! Facts about the host recorded with every result, and two probes that
//! give the timings their context: what an `fdatasync` costs in the
//! directory the logs live in, and what a loopback TCP round trip costs.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use serde::Value;

use crate::report::object;
use crate::stats;

const PROBE_SAMPLES: usize = 200;

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `dir` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
pub fn filesystem_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "... <mount point> <options> [optional fields] - <fstype> ..."
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let (Some(point), Some(fstype)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if dir.starts_with(point) && best.as_ref().is_none_or(|(len, _)| point.len() >= *len) {
            best = Some((point.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median microseconds of a 4 KiB append + `fdatasync` in `dir`.
pub fn fsync_probe_us(dir: &Path) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("fsync-probe-{}", std::process::id()));
    let mut file = std::fs::File::create(&path)?;
    let block = [0xA5u8; 4096];
    let mut samples = Vec::with_capacity(PROBE_SAMPLES);
    for _ in 0..PROBE_SAMPLES {
        let t = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(stats::median(&samples))
}

/// Median microseconds of a 64-byte echo round trip over a raw loopback TCP
/// connection (`TCP_NODELAY`, one thread per end): the floor under every
/// `client.call` span.
pub fn loopback_rtt_us() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut buf = [0u8; 64];
        while peer.read_exact(&mut buf).is_ok() {
            peer.write_all(&buf)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut buf = [7u8; 64];
    let mut samples = Vec::with_capacity(PROBE_SAMPLES);
    for _ in 0..PROBE_SAMPLES {
        let t = Instant::now();
        stream.write_all(&buf)?;
        stream.read_exact(&mut buf)?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(stream);
    echo.join().expect("echo thread panicked")?;
    Ok(stats::median(&samples))
}

/// Host facts recorded with every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Facts {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Filesystem type of the directory the logs are written in.
    pub wal_dir_fs: String,
    /// [`fsync_probe_us`] there (0 if the probe failed).
    pub fsync_probe_us: f64,
    /// [`loopback_rtt_us`] (0 if the probe failed).
    pub loopback_rtt_us: f64,
}

impl Facts {
    /// Gathers the facts and runs the two probes (about 0.1 s).
    pub fn gather(out_dir: &Path) -> Facts {
        let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        Facts {
            nproc: nproc(),
            cpu_model: cpu_model(),
            git_rev: command_line("git", &["rev-parse", "HEAD"], manifest_dir),
            rustc: command_line("rustc", &["-V"], manifest_dir),
            wal_dir_fs: filesystem_type(out_dir),
            fsync_probe_us: fsync_probe_us(out_dir).unwrap_or(0.0),
            loopback_rtt_us: loopback_rtt_us().unwrap_or(0.0),
        }
    }

    /// The facts as a JSON object.
    pub fn to_value(&self) -> Value {
        object([
            ("nproc", Value::UInt(self.nproc as u64)),
            ("cpu_model", Value::String(self.cpu_model.clone())),
            ("git_rev", Value::String(self.git_rev.clone())),
            ("rustc", Value::String(self.rustc.clone())),
            ("wal_dir_fs", Value::String(self.wal_dir_fs.clone())),
            ("fsync_probe_us", Value::Float(self.fsync_probe_us)),
            ("fsync_probe_samples", Value::UInt(PROBE_SAMPLES as u64)),
            ("loopback_rtt_us", Value::Float(self.loopback_rtt_us)),
        ])
    }
}
