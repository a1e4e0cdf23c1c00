//! Server processes: the benchmark re-executes its own binary as
//! `serve-child`, which runs [`bvq_cli::run_serve`] — the function behind
//! `bvq serve` — so the measured server is the shipped one, unchanged
//! and uninstrumented.

use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a server may take to exit after `shutdown` before it is
/// killed.
const EXIT_GRACE: Duration = Duration::from_secs(30);

/// A running server process.
pub struct ServerProc {
    child: Child,
    /// The address the server bound (`127.0.0.1:<port>`).
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `exe serve-child --addr 127.0.0.1:0 <args>` and waits for
    /// the line announcing the bound address.
    pub fn spawn(exe: &Path, args: &[String]) -> Result<ServerProc, String> {
        let mut child = Command::new(exe)
            .arg("serve-child")
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start `{}`: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let status = child.wait();
                    return Err(format!("server exited before listening: {status:?}"));
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        // Keep reading stdout until the server exits, so its last lines
        // never hit a closed pipe.
        let drain = thread::spawn(move || drain_to_eof(reader));
        Ok(ServerProc {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The process's peak resident set size (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Asks the server to shut down gracefully and waits for it to exit;
    /// kills it if it does not exit in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = TcpStream::connect(&self.addr).and_then(|mut s| {
            use std::io::Write;
            s.write_all(b"{\"op\":\"shutdown\"}\n")?;
            let mut reply = String::new();
            BufReader::new(s).read_line(&mut reply).map(|_| reply)
        });
        let result = self.wait_exit();
        match (asked, result) {
            // `bvq serve` returns once shutdown has begun, so the process
            // can exit before its connection thread writes the reply: an
            // empty reply and a clean exit is a clean shutdown too.
            (Ok(reply), Ok(())) if reply.is_empty() || reply.contains("\"stopped\":true") => Ok(()),
            (Ok(reply), Ok(())) => Err(format!("unexpected shutdown reply: {reply}")),
            (Err(e), _) => Err(format!("shutdown request failed: {e}")),
            (_, Err(e)) => Err(e),
        }
    }

    fn wait_exit(&mut self) -> Result<(), String> {
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(d) = self.drain.take() {
                        let _ = d.join();
                    }
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if start.elapsed() < EXIT_GRACE => thread::sleep(Duration::from_millis(5)),
                _ => {
                    self.kill();
                    return Err("server did not exit after shutdown; killed".into());
                }
            }
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.kill();
        }
    }
}

fn drain_to_eof(mut reader: BufReader<ChildStdout>) {
    let mut sink = [0u8; 4096];
    while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
}
