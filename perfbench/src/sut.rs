//! The system under test: launching `lis serve` / `lis gateway` processes,
//! waiting for readiness, scraping them, and stopping them.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use lis_server::Json;

use crate::http;

/// One running service: a single daemon, or a gateway and its shards.
pub struct Sut {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Shard addresses and pids (empty for a single daemon).
    pub shards: Vec<(SocketAddr, u32)>,
    stopped: bool,
}

/// How to launch the service.
pub struct LaunchSpec {
    pub lis: PathBuf,
    pub args: Vec<String>,
    /// Readiness also waits for this many healthy shards (gateway only).
    pub shards: usize,
}

impl LaunchSpec {
    /// A single daemon with `workers` pool threads.
    pub fn serve(lis: &Path, workers: usize) -> LaunchSpec {
        let args = vec![
            "--threads".to_string(),
            workers.to_string(),
            "serve".to_string(),
            "127.0.0.1:0".to_string(),
        ];
        LaunchSpec {
            lis: lis.to_path_buf(),
            args,
            shards: 0,
        }
    }

    /// A gateway that spawns and supervises `shards` shard daemons.
    pub fn gateway(lis: &Path, shards: usize, extra: &[&str]) -> LaunchSpec {
        let mut args = vec![
            "--threads".to_string(),
            "2".to_string(),
            "gateway".to_string(),
            "127.0.0.1:0".to_string(),
            "--shards".to_string(),
            shards.to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        LaunchSpec {
            lis: lis.to_path_buf(),
            args,
            shards,
        }
    }

    /// Starts the service and waits until every process answers
    /// `/healthz`. Returns it with the launch-to-ready time.
    pub fn launch(&self) -> io::Result<(Sut, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(&self.lis)
            .args(&self.args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("no address announced: {line:?}")));
        };
        let mut sut = Sut {
            child,
            _stdout: reader,
            addr,
            shards: Vec::new(),
            stopped: false,
        };
        let deadline = started + Duration::from_secs(60);
        loop {
            if Instant::now() > deadline {
                return Err(io::Error::other("service never became ready"));
            }
            if let Ok(r) = http::get(addr, "/healthz") {
                if r.status == 200 {
                    let health = Json::parse(r.text()).map_err(io::Error::other)?;
                    if self.shards == 0 {
                        break;
                    }
                    let shards = shard_list(&health);
                    let healthy = health.get("healthy_shards").and_then(Json::as_u64);
                    if healthy == Some(self.shards as u64) && shards.len() == self.shards {
                        let ready = shards
                            .iter()
                            .all(|&(a, _)| http::get(a, "/healthz").is_ok_and(|r| r.status == 200));
                        if ready {
                            sut.shards = shards;
                            break;
                        }
                    }
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok((sut, started.elapsed()))
    }
}

fn shard_list(health: &Json) -> Vec<(SocketAddr, u32)> {
    health
        .get("shards")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| {
            let addr = s.get("addr")?.as_str()?.parse().ok()?;
            let pid = s.get("pid")?.as_u64()? as u32;
            Some((addr, pid))
        })
        .collect()
}

/// Reads a process's resident-set high-water mark in KiB.
fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

impl Sut {
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.child.id()];
        pids.extend(self.shards.iter().map(|&(_, p)| p));
        pids
    }

    /// Summed resident-set high-water mark of every service process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids().into_iter().map(vm_hwm_kb).sum::<u64>() as f64 / 1024.0
    }

    /// `/metrics` of the front process and of every shard.
    pub fn scrape(&self) -> io::Result<Scrape> {
        let front = http::get(self.addr, "/metrics")?.text().to_string();
        let mut shards = Vec::new();
        for &(a, _) in &self.shards {
            shards.push(http::get(a, "/metrics")?.text().to_string());
        }
        Ok(Scrape { front, shards })
    }

    /// Drains and stops the service, waiting for every process to exit.
    pub fn stop(mut self) -> io::Result<()> {
        self.stopped = true;
        let _ = http::post(self.addr, "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut clean = false;
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                clean = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !clean {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        self.reap_shards();
        if clean {
            Ok(())
        } else {
            Err(io::Error::other("service did not drain in time"))
        }
    }

    /// Shards are children of the gateway, which stops them on drain; any
    /// left behind (gateway killed) are killed here.
    fn reap_shards(&self) {
        for &(_, pid) in &self.shards {
            if Path::new(&format!("/proc/{pid}")).exists() {
                let _ = Command::new("kill")
                    .arg("-9")
                    .arg(pid.to_string())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .status();
            }
        }
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        if !self.stopped {
            self.stopped = true;
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.reap_shards();
        }
    }
}

/// One `/metrics` scrape of the front process and its shards.
#[derive(Clone, Default)]
pub struct Scrape {
    pub front: String,
    pub shards: Vec<String>,
}

impl Scrape {
    /// A counter summed over the shards (or the single daemon).
    pub fn server_sum(&self, name: &str) -> f64 {
        if self.shards.is_empty() {
            metric_sum(&self.front, name)
        } else {
            self.shards.iter().map(|s| metric_sum(s, name)).sum()
        }
    }

    pub fn front(&self, name: &str) -> f64 {
        metric_sum(&self.front, name)
    }
}

/// Sums every sample of `name` (all label sets) in an exposition.
pub fn metric_sum(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            if !(rest.starts_with(' ') || rest.starts_with('{')) {
                return None;
            }
            l.rsplit(' ').next()?.parse::<f64>().ok()
        })
        .sum()
}
