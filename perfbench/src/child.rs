//! The `bayou-server` child process: spawned on a data dir with
//! `--listen 127.0.0.1:0`, its bound address parsed from the banner,
//! and killed and reaped on every exit path (including unwinding).

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const BANNER_TIMEOUT: Duration = Duration::from_secs(30);

pub struct ServerProcess {
    child: Child,
    pub addr: String,
}

impl ServerProcess {
    pub fn spawn(bin: &Path, data_dir: &Path, lease_ms: Option<u64>) -> io::Result<ServerProcess> {
        let mut cmd = Command::new(bin);
        cmd.arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(ms) = lease_ms {
            cmd.arg("--lease").arg(ms.to_string());
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        // the reader outlives the banner so the pipe never fills; it
        // ends when the child exits and closes its stdout
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            if let Some(Ok(first)) = lines.next() {
                let _ = tx.send(first);
            }
            for _ in lines {}
        });
        let mut server = ServerProcess {
            child,
            addr: String::new(),
        };
        let banner = rx
            .recv_timeout(BANNER_TIMEOUT)
            .map_err(|_| io::Error::other("bayou-server printed no banner"))?;
        // "bayou-server listening on 127.0.0.1:PORT (...)"
        server.addr = banner
            .split_whitespace()
            .nth(3)
            .filter(|a| a.starts_with("127.0.0.1:"))
            .ok_or_else(|| io::Error::other(format!("unexpected banner {banner:?}")))?
            .to_string();
        Ok(server)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// `kill -9` and reap (idempotent).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A fresh directory under the benchmark's work root, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(root: &Path, label: &str) -> io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = root.join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
