//! `sprofile serve` child processes: spawn, time to first answer, peak
//! RSS, graceful shutdown, and a kill on drop.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sprofile_server::{Client, WireProto};

use crate::wire::Proto;

/// How long a spawned server may take to answer its first request.
const START_TIMEOUT: Duration = Duration::from_secs(30);

/// One running `sprofile serve`.
pub struct ServerProc {
    child: Child,
    // Held so the server's final stdout line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// `HOST:PORT` it listens on.
    pub addr: String,
    /// Its native wire protocol.
    pub proto: Proto,
}

/// Builds the `sprofile` binary from the checkout at `root` (a no-op
/// when it is current) and returns its path.
pub fn build_sprofile(root: &Path) -> io::Result<PathBuf> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "sprofile-cli",
        ])
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building sprofile failed: {status}"
        )));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    Ok(target.join("release").join("sprofile"))
}

impl ServerProc {
    /// Spawns `sprofile serve <args> --addr 127.0.0.1:0` and waits until
    /// it answers a `FREQ`. Returns the process and the seconds from
    /// spawn to that first answer.
    pub fn spawn(bin: &Path, args: &[String], proto: Proto) -> io::Result<(ServerProc, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--proto", proto.name()])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line
            .strip_prefix("listening on ")
            .and_then(|rest| rest.split_whitespace().next())
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "unexpected serve banner '{line}'"
            )));
        };
        let server = ServerProc {
            child,
            _stdout: stdout,
            addr: addr.to_string(),
            proto,
        };
        loop {
            if let Ok(mut c) = server.client() {
                if c.freq(0).is_ok() {
                    break;
                }
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(io::Error::other("server never answered"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    /// A blocking control client in the server's protocol.
    pub fn client(&self) -> io::Result<Client> {
        let proto = match self.proto {
            Proto::Text => WireProto::Text,
            Proto::Bin => WireProto::Bin,
        };
        Client::connect_with(self.addr.as_str(), proto).map_err(io::Error::other)
    }

    /// The server's `STATS` payload.
    pub fn stats(&self) -> io::Result<String> {
        self.client()?.stats().map_err(io::Error::other)
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM"))
    }

    /// `SHUTDOWN`, then waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let sent = self
            .client()
            .and_then(|c| c.shutdown_server().map_err(io::Error::other));
        if sent.is_err() {
            let _ = self.child.kill();
        }
        self.child.wait()?;
        sent
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Never leave a server behind, whatever path the run took.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
