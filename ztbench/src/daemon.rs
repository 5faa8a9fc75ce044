//! A real `zt-serve` process, spawned fresh for each round.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::{exchange, render_request};
use crate::procfs;

const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Remove every `ZT_*` variable (telemetry, pruning, strict mode, datagen
/// knobs) from a child's environment so no setting leaks into a workload.
pub fn scrub_env(cmd: &mut Command) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ZT_") {
            cmd.env_remove(key);
        }
    }
}

/// The counters `/healthz` reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Health {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub model_version: u64,
}

pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Spawn to the first `/healthz` 200, in seconds.
    pub setup_s: f64,
}

impl Daemon {
    /// Start `bin --addr 127.0.0.1:0` with its default configuration, read
    /// the port from its "listening on" line and wait for `/healthz`.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let start = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        scrub_env(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => parse_listening(&line),
            _ => None,
        };
        // Owned before any check can fail, so `Drop` reaps the child on
        // every error path.
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            setup_s: 0.0,
        };
        if addr.is_none() {
            return Err(format!("zt-serve printed no address: {line:?}"));
        }
        let healthz = render_request("GET", "/healthz", "");
        while !exchange(daemon.addr, &healthz).ok() {
            if start.elapsed() > BOOT_TIMEOUT {
                return Err("zt-serve never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        daemon.setup_s = start.elapsed().as_secs_f64();
        Ok(daemon)
    }

    pub fn health(&self) -> Result<Health, String> {
        let ex = exchange(self.addr, &render_request("GET", "/healthz", ""));
        if !ex.ok() {
            return Err(format!("/healthz answered {}", ex.status));
        }
        let v: serde::Value =
            serde_json::from_str(&ex.body).map_err(|e| format!("/healthz body: {e}"))?;
        let num = |k: &str| v.get(k).and_then(serde::Value::as_f64).unwrap_or(0.0) as u64;
        Ok(Health {
            cache_hits: num("cache_hits"),
            cache_misses: num("cache_misses"),
            model_version: num("model_version"),
        })
    }

    pub fn cpu_ms(&self) -> Result<f64, String> {
        procfs::cpu_ms(Some(self.child.id())).map_err(|e| e.to_string())
    }

    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        procfs::peak_rss_mib(Some(self.child.id())).map_err(|e| e.to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The socket address in `zt-serve listening on 127.0.0.1:PORT`.
pub fn parse_listening(line: &str) -> Option<SocketAddr> {
    line.trim()
        .strip_prefix("zt-serve listening on ")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_port_from_the_listening_line() {
        let addr = parse_listening("zt-serve listening on 127.0.0.1:40123\n");
        assert_eq!(addr, Some(SocketAddr::from(([127, 0, 0, 1], 40123))));
        assert_eq!(parse_listening("bind failed"), None);
    }
}
