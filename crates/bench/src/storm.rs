//! The re-exec'd storm client the live-serving benches share.
//!
//! A bench that measures the server runs its client load in a second
//! process: [`run_storm_child`] re-executes the bench binary with a
//! [`StormConfig`] in its environment, the child ([`storm_child_role`])
//! runs [`connection_storm`] and prints one `STORM_RESULT k=v …` line of
//! [`StormReport`] counts, and the parent parses that line back. Keeping
//! client sockets and client CPU out of the server process keeps each side
//! under the per-process fd rlimit at 10k connections, and keeps client
//! work out of the server's accounting.

use arlo_serve::loadgen::{connection_storm, StormConfig, StormReport};
use arlo_serve::protocol::WireVersion;
use std::collections::HashMap;
use std::io::Read;
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Set (to the server address) only in a storm child's environment.
const ADDR_VAR: &str = "ARLO_STORM_ADDR";
/// Prefix of the child's machine-readable result line.
const RESULT_TAG: &str = "STORM_RESULT";

/// A child's [`StormReport`] counts by name: `connected`, `refused`,
/// `connect_errors`, `submitted`, `ok`, `shed`, `unserviceable`,
/// `draining`, `failed`, `lost`, `conserved` (0/1), and `wall_ms`.
pub type StormCounts = HashMap<String, u64>;

/// The [`StormConfig`] fields as `(env var, value)` pairs.
fn config_env(cfg: &StormConfig) -> [(&'static str, u64); 9] {
    [
        ("ARLO_STORM_CONNS", cfg.conns as u64),
        ("ARLO_STORM_THREADS", cfg.threads as u64),
        ("ARLO_STORM_SUBMITS", u64::from(cfg.submits_per_conn)),
        ("ARLO_STORM_LENGTH", u64::from(cfg.length)),
        ("ARLO_STORM_HOLD_MS", cfg.hold.as_millis() as u64),
        (
            "ARLO_STORM_CONNECT_MS",
            cfg.connect_timeout.as_millis() as u64,
        ),
        ("ARLO_STORM_DEADLINE_MS", cfg.deadline.as_millis() as u64),
        ("ARLO_STORM_WINDOW", u64::from(cfg.window)),
        ("ARLO_STORM_WIRE", u64::from(cfg.wire.byte())),
    ]
}

/// If this process is a storm child, run the storm its environment
/// describes, print the result line, and return `true` — the bench's
/// `main` should then return at once. Returns `false` in the parent.
pub fn storm_child_role() -> bool {
    let Ok(addr) = std::env::var(ADDR_VAR) else {
        return false;
    };
    let addr: SocketAddr = addr.parse().expect("storm addr");
    let env = |key: &str| -> u64 {
        std::env::var(key)
            .unwrap_or_else(|_| panic!("{key} unset"))
            .parse()
            .unwrap_or_else(|_| panic!("{key} is not a number"))
    };
    let mut cfg = StormConfig::new(env("ARLO_STORM_CONNS") as usize);
    cfg.threads = env("ARLO_STORM_THREADS") as usize;
    cfg.submits_per_conn = env("ARLO_STORM_SUBMITS") as u32;
    cfg.length = env("ARLO_STORM_LENGTH") as u32;
    cfg.hold = Duration::from_millis(env("ARLO_STORM_HOLD_MS"));
    cfg.connect_timeout = Duration::from_millis(env("ARLO_STORM_CONNECT_MS"));
    cfg.deadline = Duration::from_millis(env("ARLO_STORM_DEADLINE_MS"));
    cfg.window = env("ARLO_STORM_WINDOW") as u32;
    cfg.wire = WireVersion::from_byte(env("ARLO_STORM_WIRE") as u8).expect("storm wire version");
    let report: StormReport = connection_storm(addr, &cfg).expect("connection storm");
    println!(
        "{RESULT_TAG} connected={} refused={} connect_errors={} submitted={} ok={} \
         shed={} unserviceable={} draining={} failed={} lost={} conserved={} wall_ms={}",
        report.connected,
        report.refused,
        report.connect_errors,
        report.submitted,
        report.ok,
        report.shed,
        report.unserviceable,
        report.draining,
        report.failed,
        report.lost,
        u64::from(report.conserved()),
        report.wall.as_millis(),
    );
    true
}

/// Re-exec this binary as a storm child running `cfg` against `addr`,
/// call `poll` about every 2 ms while it runs (e.g. to sample the
/// server's live connection count), and return the child's counts.
/// Panics if the child fails or prints no result line.
pub fn run_storm_child(addr: SocketAddr, cfg: &StormConfig, mut poll: impl FnMut()) -> StormCounts {
    let mut child = Command::new(std::env::current_exe().expect("current_exe"));
    child.env(ADDR_VAR, addr.to_string());
    for (key, value) in config_env(cfg) {
        child.env(key, value.to_string());
    }
    let mut child = child
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn storm child");
    loop {
        poll();
        match child.try_wait().expect("wait storm child") {
            Some(status) => {
                assert!(status.success(), "storm child failed: {status}");
                break;
            }
            None => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    let mut out = String::new();
    child
        .stdout
        .take()
        .expect("child stdout")
        .read_to_string(&mut out)
        .expect("read child stdout");
    let line = out
        .lines()
        .find(|l| l.starts_with(RESULT_TAG))
        .unwrap_or_else(|| panic!("no {RESULT_TAG} in storm child output:\n{out}"));
    line.split_whitespace()
        .skip(1)
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("k=v pair");
            (k.to_string(), v.parse().expect("numeric count"))
        })
        .collect()
}
