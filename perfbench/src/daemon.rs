//! The `tacc serve` pair under test: a journaled primary replicating to
//! an acking standby, both over Unix sockets.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running primary/standby pair. Dropping it SIGKILLs and reaps
/// whichever daemon is still alive, so no exit path leaves one behind.
#[derive(Debug)]
pub struct Pair {
    pub primary_sock: PathBuf,
    pub standby_sock: PathBuf,
    primary: Option<Child>,
    standby: Option<Child>,
}

fn spawn(tacc: &Path, dir: &Path, role: &str, args: &[&str]) -> Result<Child, String> {
    let log = |suffix: &str| {
        std::fs::File::create(dir.join(format!("{role}.{suffix}")))
            .map_err(|e| format!("creating the {role} log: {e}"))
    };
    Command::new(tacc)
        .arg("serve")
        .args(args)
        .stdin(Stdio::null())
        .stdout(log("out")?)
        .stderr(log("err")?)
        .spawn()
        .map_err(|e| format!("spawning the {role} ({}): {e}", tacc.display()))
}

/// Waits until `path` accepts a connection (the probe connection is
/// dropped at once; the daemon reads EOF and goes back to accepting).
fn wait_listening(path: &Path, child: &mut Child, role: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if UnixStream::connect(path).is_ok() {
            return Ok(());
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("the {role} exited during start-up ({status})"));
        }
        if Instant::now() > deadline {
            return Err(format!("the {role} did not listen on {} within 60 s", path.display()));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

impl Pair {
    /// Spawns the standby, then the primary replicating to it, and
    /// waits until both listen. Paths are relative to the working
    /// directory, which keeps socket paths short.
    pub fn spawn(tacc: &Path, dir: &Path, zones: usize) -> Result<Pair, String> {
        let primary_sock = dir.join("p.sock");
        let standby_sock = dir.join("s.sock");
        let zones = zones.to_string();
        let path = |p: &Path| p.to_str().expect("run paths are UTF-8").to_owned();
        let mut standby = spawn(
            tacc,
            dir,
            "standby",
            &[
                "--uds",
                &path(&standby_sock),
                "--standby",
                "--journal",
                &path(&dir.join("standby.jsonl")),
                "--zones",
                &zones,
            ],
        )?;
        let mut pair = Pair { primary_sock, standby_sock, primary: None, standby: None };
        let ready = wait_listening(&pair.standby_sock, &mut standby, "standby");
        pair.standby = Some(standby);
        ready?;
        let mut primary = spawn(
            tacc,
            dir,
            "primary",
            &[
                "--uds",
                &path(&pair.primary_sock),
                "--journal",
                &path(&dir.join("primary.jsonl")),
                "--replicate-to",
                &path(&pair.standby_sock),
                "--zones",
                &zones,
            ],
        )?;
        let ready = wait_listening(&pair.primary_sock, &mut primary, "primary");
        pair.primary = Some(primary);
        ready?;
        Ok(pair)
    }

    /// The failover address list: primary first.
    pub fn failover_list(&self) -> String {
        format!("{},{}", self.primary_sock.display(), self.standby_sock.display())
    }

    /// Peak resident set (VmHWM) of the live daemons, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        [&self.primary, &self.standby]
            .into_iter()
            .flatten()
            .filter_map(|child| vm_hwm_kb(child.id()))
            .map(|kb| kb as f64 / 1024.0)
            .fold(0.0, f64::max)
    }

    /// SIGKILLs the primary and reaps it.
    pub fn kill_primary(&mut self) -> Result<(), String> {
        let mut primary = self.primary.take().ok_or("the primary is already gone")?;
        primary.kill().map_err(|e| format!("killing the primary: {e}"))?;
        primary.wait().map_err(|e| format!("reaping the primary: {e}"))?;
        Ok(())
    }

    /// Waits for the (promoted) standby to exit after a `Shutdown`.
    pub fn wait_standby(&mut self) -> Result<(), String> {
        if let Some(mut standby) = self.standby.take() {
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                match standby.try_wait() {
                    Ok(Some(_)) => return Ok(()),
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    _ => {
                        standby.kill().ok();
                        standby.wait().ok();
                        return Err("the standby did not exit after Shutdown".to_owned());
                    }
                }
            }
        }
        Ok(())
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        for child in [self.primary.take(), self.standby.take()].into_iter().flatten() {
            let mut child = child;
            child.kill().ok();
            child.wait().ok();
        }
    }
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}
