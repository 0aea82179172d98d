//! Process-level measurements read from `/proc`, and the child processes
//! (`htsat-serve`, `htsat-router`) the wire workloads drive.

use htsat_serve::{Client, ConnectOptions};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel clock ticks per second of `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU time of a process, in milliseconds, including its
/// exited threads.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11 and
    // 12 after the state field.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000.0 / TICKS_PER_SEC)
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A daemon or router child process with its stderr drained on a thread.
/// Dropping it kills the process and waits for it; [`Proc::stop`] shuts it
/// down over the wire first.
pub struct Proc {
    child: Child,
    /// The address the process reported it is listening on.
    pub addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Starts `bin` with `args`, waits until it logs its listening address
    /// and keeps draining its log so it never blocks on a full pipe.
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .env("HTSAT_LOG", "info")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on ").nth(1) {
                    if let Some(tx) = tx.take() {
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        let _ = tx.send(addr);
                    }
                }
            }
        });
        let mut proc = Proc {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(addr) if !addr.is_empty() => {
                proc.addr = addr;
                Ok(proc)
            }
            _ => Err(format!("{} never reported its address", bin.display())),
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `SHUTDOWN` and waits for the process to exit (killing it if it
    /// has not exited after a few seconds).
    pub fn stop(mut self) {
        // A process that is already going down (a daemon behind a router
        // that broadcast the shutdown) refuses at once; do not retry.
        let once = ConnectOptions {
            refused_retries: 0,
            ..ConnectOptions::default()
        };
        if let Ok(mut client) = Client::connect_with(self.addr.as_str(), &once) {
            let _ = client.set_timeout(Some(Duration::from_secs(5)));
            let _ = client.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills a process that is still alive and reaps it.
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// CPU milliseconds of the benchmark process plus every listed child.
pub fn total_cpu_ms(children: &[u32]) -> f64 {
    let own = cpu_ms(std::process::id()).unwrap_or(0.0);
    own + children.iter().filter_map(|&pid| cpu_ms(pid)).sum::<f64>()
}
