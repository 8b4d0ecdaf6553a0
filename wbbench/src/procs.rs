//! The programs under test, run as their own processes.
//!
//! Each [`Program`] is a spawned `workbenchd` or `workbench-router`.
//! Start-up waits for the `listening on ADDR` line; stop asks for a
//! graceful `shutdown` and waits for the exit, killing only a process
//! that does not leave in time. Dropping a `Program` that was not
//! stopped kills and reaps it, so an error path never leaks a process.

use iwb_server::Client;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const READY_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// One running program process.
pub struct Program {
    name: String,
    child: Option<Child>,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Program {
    /// Spawn `bin` with `args`, stderr to `log`, and wait until it
    /// prints its listening address.
    pub fn spawn(name: &str, bin: &Path, args: &[String], log: &Path) -> io::Result<Program> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(File::create(log)?))
            .spawn()
            .map_err(|e| io::Error::other(format!("spawn {}: {e}", bin.display())))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel::<String>();
        // Drain stdout for the process's whole life so it never blocks
        // on a full pipe; only the first lines matter.
        let drain = thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut program = Program {
            name: name.to_owned(),
            child: Some(child),
            addr: String::new(),
            drain: Some(drain),
        };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        program.addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                        return Ok(program);
                    }
                }
                Err(_) => {
                    return Err(io::Error::other(format!(
                        "{name} did not report a listening address (log: {})",
                        log.display()
                    )))
                }
            }
        }
    }

    /// Program label (`backend0`, `router`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The address the program listens on.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let pid = self.child.as_ref().map(Child::id).unwrap_or(0);
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Graceful stop: `shutdown`, then wait for the exit.
    pub fn stop(mut self) -> io::Result<()> {
        if let Ok(mut c) = Client::connect(self.addr.as_str()) {
            let _ = c.shutdown();
        }
        self.reap(STOP_TIMEOUT)
    }

    fn reap(&mut self, grace: Duration) -> io::Result<()> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let deadline = Instant::now() + grace;
        let clean = loop {
            if child.try_wait()?.is_some() {
                break true;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                child.wait()?;
                break false;
            }
            thread::sleep(Duration::from_millis(10));
        };
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if clean {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "{} ignored shutdown; killed",
                self.name
            )))
        }
    }
}

impl Drop for Program {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
        let _ = self.reap(Duration::from_secs(5));
    }
}

/// Stop programs in order (routers before their backends), reporting
/// the first failure after trying them all.
pub fn stop_all(programs: Vec<Program>) -> io::Result<()> {
    let mut first = Ok(());
    for p in programs {
        if let Err(e) = p.stop() {
            if first.is_ok() {
                first = Err(e);
            }
        }
    }
    first
}

/// A localhost port that was free a moment ago (for backends whose
/// peers must know each other's address before either starts).
pub fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// Paths and knobs shared by every workload run.
pub struct Env {
    /// Directory holding `workbenchd` and `workbench-router`.
    pub bin_dir: PathBuf,
    /// Scratch directory for stores, journals and logs of this run.
    pub work_dir: PathBuf,
}

impl Env {
    /// A fresh sub-directory of the work directory.
    pub fn dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.work_dir.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Spawn one `workbenchd` with `extra` flags.
    pub fn workbenchd(&self, name: &str, addr: &str, extra: &[String]) -> io::Result<Program> {
        let mut args = vec!["--addr".to_owned(), addr.to_owned()];
        args.extend_from_slice(extra);
        Program::spawn(
            name,
            &self.bin_dir.join("workbenchd"),
            &args,
            &self.work_dir.join(format!("{name}.log")),
        )
    }

    /// Spawn one `workbench-router` in front of `backends`.
    pub fn router(&self, backends: &[String]) -> io::Result<Program> {
        let args = vec![
            "--addr".to_owned(),
            "127.0.0.1:0".to_owned(),
            "--backends".to_owned(),
            backends.join(","),
        ];
        Program::spawn(
            "router",
            &self.bin_dir.join("workbench-router"),
            &args,
            &self.work_dir.join("router.log"),
        )
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn disk_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => disk_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}
