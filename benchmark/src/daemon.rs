//! A `dds serve` child process: started from the built binary, read
//! through `/proc`, and always killed and reaped, also when a run fails.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100 on
/// Linux).
const TICKS_PER_S: f64 = 100.0;

pub struct Daemon {
    child: Child,
    /// Held open so the daemon's late output never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    /// Start `dds serve --listen 127.0.0.1:0 <args>` and wait until it
    /// prints the address it listens on.
    pub fn start(dds: &Path, args: &[&str]) -> Result<Daemon, String> {
        let mut child = Command::new(dds)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start {}: {e}", dds.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = Vec::new();
        loop {
            let mut line = String::new();
            let read = stdout.read_line(&mut line);
            if !matches!(read, Ok(n) if n > 0) {
                let _ = child.kill();
                let status = child.wait();
                return Err(format!(
                    "dds serve {args:?} exited before listening ({status:?}); it printed {banner:?}"
                ));
            }
            if let Some(addr) = line.trim().strip_prefix("dds serve: listening on ") {
                return Ok(Daemon {
                    child,
                    _stdout: stdout,
                    addr: addr.to_string(),
                });
            }
            banner.push(line.trim_end().to_string());
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User plus system CPU time the daemon has used, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: no field {}", i + 3))
        };
        Ok((tick(11)? + tick(12)?) / TICKS_PER_S * 1e3)
    }

    /// The daemon's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&format!("/proc/{}/status", self.pid()))
    }

    /// `kill -9` and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}
