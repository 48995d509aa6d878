//! Readers for the `/proc` counters the benchmark takes from outside the
//! process under test: per-thread CPU time and context switches, the
//! process's syscall counts and its peak resident set.

use std::collections::HashMap;
use std::io;
use std::path::Path;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, fixed at
/// 100 on every Linux architecture's user-space ABI).
pub const TICKS_PER_SEC: f64 = 100.0;

/// The fields of one `/proc/<pid>[/task/<tid>]/stat` line the benchmark uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stat {
    /// `comm`, the (15-byte) thread or process name.
    pub comm: String,
    /// User-mode CPU time in clock ticks.
    pub utime: u64,
    /// Kernel-mode CPU time in clock ticks.
    pub stime: u64,
}

/// Parse a `stat` line. The name sits in parentheses and may itself hold
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<Stat> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    // After ") ": field 3 (state) is index 0, so field k is index k − 3.
    let rest: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    let field = |k: usize| rest.get(k - 3)?.parse::<u64>().ok();
    Some(Stat {
        comm,
        utime: field(14)?,
        stime: field(15)?,
    })
}

/// The fields of a `status` file the benchmark uses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Status {
    /// `Name:`.
    pub name: String,
    /// `voluntary_ctxt_switches:` — the thread blocked (a wakeup followed).
    pub voluntary: u64,
    /// `nonvoluntary_ctxt_switches:` — the thread was preempted.
    pub nonvoluntary: u64,
    /// `VmHWM:` in KiB (peak resident set; present for the process only).
    pub vm_hwm_kb: u64,
}

/// Parse a `status` file; missing fields stay zero.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        let num = || {
            value
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        match key {
            "Name" => s.name = value.to_string(),
            "voluntary_ctxt_switches" => s.voluntary = num(),
            "nonvoluntary_ctxt_switches" => s.nonvoluntary = num(),
            "VmHWM" => s.vm_hwm_kb = num(),
            _ => {}
        }
    }
    s
}

/// The syscall counters of `/proc/<pid>/io` (whole process, exited
/// threads included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Io {
    /// Read-family syscalls.
    pub syscr: u64,
    /// Write-family syscalls.
    pub syscw: u64,
}

/// Parse an `io` file; missing fields stay zero.
pub fn parse_io(text: &str) -> Io {
    let mut io = Io::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim().parse().unwrap_or(0);
        match key {
            "syscr" => io.syscr = value,
            "syscw" => io.syscw = value,
            _ => {}
        }
    }
    io
}

/// Thread groups of the serving process, by thread-name prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Group {
    /// Front door: connection readers/writers, epoll shards, the acceptor.
    Server,
    /// Dispatch workers.
    Dispatch,
    /// Executor workers and batch flushers.
    Executor,
    /// Timer, coordinator and supervisor.
    Control,
    /// Any thread whose name matches no prefix (the process's main thread,
    /// or a thread renamed since this table was written).
    Other,
}

impl Group {
    /// Every group, in report order.
    pub const ALL: [Group; 5] = [
        Group::Server,
        Group::Dispatch,
        Group::Executor,
        Group::Control,
        Group::Other,
    ];
}

/// The group a thread belongs to. `comm` truncates names to 15 bytes, so
/// prefixes stay within that.
pub fn group_of(name: &str) -> Group {
    const PREFIXES: [(&str, Group); 9] = [
        ("arlo-conn", Group::Server),
        ("arlo-shard", Group::Server),
        ("arlo-accept", Group::Server),
        ("arlo-dispatch", Group::Dispatch),
        ("arlo-exec", Group::Executor),
        ("arlo-flusher", Group::Executor),
        ("arlo-timer", Group::Control),
        ("arlo-coordinat", Group::Control),
        ("arlo-supervis", Group::Control),
    ];
    PREFIXES
        .iter()
        .find(|(p, _)| name.starts_with(p))
        .map_or(Group::Other, |&(_, g)| g)
}

/// One thread's counters at a sampling instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Thread {
    /// Thread name.
    pub name: String,
    /// User + kernel CPU ticks.
    pub cpu_ticks: u64,
    /// Voluntary context switches.
    pub voluntary: u64,
    /// Involuntary context switches.
    pub nonvoluntary: u64,
}

/// A process's counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Live threads by tid.
    pub threads: HashMap<u32, Thread>,
    /// Whole-process user + kernel CPU ticks (exited threads included).
    pub cpu_ticks: u64,
    /// Whole-process syscall counts.
    pub io: Io,
    /// Peak resident set (KiB).
    pub vm_hwm_kb: u64,
}

/// Read the counters of process `pid`. A thread that exits while the
/// directory is walked is skipped.
pub fn sample(pid: u32) -> io::Result<Sample> {
    let root = Path::new("/proc").join(pid.to_string());
    let stat = std::fs::read_to_string(root.join("stat"))?;
    let stat = parse_stat(&stat).ok_or_else(|| bad(&root, "stat"))?;
    let mut out = Sample {
        cpu_ticks: stat.utime + stat.stime,
        io: parse_io(&std::fs::read_to_string(root.join("io"))?),
        vm_hwm_kb: parse_status(&std::fs::read_to_string(root.join("status"))?).vm_hwm_kb,
        threads: HashMap::new(),
    };
    for entry in std::fs::read_dir(root.join("task"))? {
        let dir = entry?.path();
        let Some(tid) = dir.file_name().and_then(|n| n.to_str()?.parse().ok()) else {
            continue;
        };
        let (Ok(stat), Ok(status)) = (
            std::fs::read_to_string(dir.join("stat")),
            std::fs::read_to_string(dir.join("status")),
        ) else {
            continue;
        };
        let Some(stat) = parse_stat(&stat) else {
            continue;
        };
        let status = parse_status(&status);
        out.threads.insert(
            tid,
            Thread {
                name: stat.comm,
                cpu_ticks: stat.utime + stat.stime,
                voluntary: status.voluntary,
                nonvoluntary: status.nonvoluntary,
            },
        );
    }
    Ok(out)
}

fn bad(root: &Path, file: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unparseable {}/{file}", root.display()),
    )
}

/// Counter growth of one thread group between two samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupDelta {
    /// CPU seconds.
    pub cpu_s: f64,
    /// Voluntary context switches (wakeups).
    pub wakeups: u64,
    /// Involuntary context switches (preemptions).
    pub preemptions: u64,
    /// Threads of the group alive at the later sample.
    pub threads: usize,
}

/// Per-group growth from `before` to `after`. Threads are matched by tid; a
/// thread born in between counts from zero, and a thread that exited in
/// between is absent from `after` and drops out.
pub fn delta_by_group(before: &Sample, after: &Sample) -> HashMap<Group, GroupDelta> {
    let mut out: HashMap<Group, GroupDelta> = Group::ALL
        .iter()
        .map(|&g| (g, GroupDelta::default()))
        .collect();
    for (tid, t) in &after.threads {
        let zero = Thread {
            name: String::new(),
            cpu_ticks: 0,
            voluntary: 0,
            nonvoluntary: 0,
        };
        let b = before.threads.get(tid).unwrap_or(&zero);
        let d = out
            .get_mut(&group_of(&t.name))
            .expect("every group present");
        d.cpu_s += t.cpu_ticks.saturating_sub(b.cpu_ticks) as f64 / TICKS_PER_SEC;
        d.wakeups += t.voluntary.saturating_sub(b.voluntary);
        d.preemptions += t.nonvoluntary.saturating_sub(b.nonvoluntary);
        d.threads += 1;
    }
    out
}

/// CPU seconds (user + kernel) this process has used so far.
pub fn self_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |s| (s.utime + s.stime) as f64 / TICKS_PER_SEC)
}

/// This process's peak resident set in MiB.
pub fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .map_or(0.0, |s| parse_status(&s).vm_hwm_kb as f64 / 1024.0)
}

/// Host-wide CPU ticks stolen from this machine by the hypervisor, from
/// the `cpu` line of a `/proc/stat` text (its eighth number).
pub fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Ticks stolen so far, summed over CPUs (0 where `/proc/stat` is unreadable).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal(&s))
        .unwrap_or(0)
}

/// Share of the machine's CPU time over the last `wall_s` seconds that the
/// hypervisor stole, given [`steal_ticks`] read `wall_s` seconds ago.
pub fn stolen_share(ticks0: u64, wall_s: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let stolen = steal_ticks().saturating_sub(ticks0) as f64 / TICKS_PER_SEC;
    (stolen / (wall_s * cpus)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a running server (Linux 6.x); the thread name holds a
    // space and a parenthesis to exercise the last-`)` rule.
    const STAT: &str = "4242 (arlo-conn-7 (x)) S 4200 4200 4200 0 -1 4194368 512 0 0 0 \
                        1234 567 0 0 20 0 23 0 98765 1234567 890 18446744073709551615 \
                        1 1 0 0 0 0 0 4096 0 0 0 0 -1 1 0 0 0 0 0";

    const STATUS: &str = "Name:\tarlo-dispatch-0\nUmask:\t0022\nState:\tS (sleeping)\n\
                          Tgid:\t4200\nPid:\t4242\nVmPeak:\t  812345 kB\nVmHWM:\t   20480 kB\n\
                          VmRSS:\t   18000 kB\nThreads:\t23\nvoluntary_ctxt_switches:\t98765\n\
                          nonvoluntary_ctxt_switches:\t321\n";

    const IO: &str = "rchar: 123456\nwchar: 654321\nsyscr: 1000\nsyscw: 2000\n\
                      read_bytes: 0\nwrite_bytes: 0\ncancelled_write_bytes: 0\n";

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let s = parse_stat(STAT).expect("parses");
        assert_eq!(s.comm, "arlo-conn-7 (x)");
        assert_eq!((s.utime, s.stime), (1234, 567));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (short) S 2"), None);
    }

    #[test]
    fn status_fields() {
        let s = parse_status(STATUS);
        assert_eq!(s.name, "arlo-dispatch-0");
        assert_eq!(
            (s.voluntary, s.nonvoluntary, s.vm_hwm_kb),
            (98765, 321, 20480)
        );
        assert_eq!(parse_status("nothing here"), Status::default());
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let stat = "cpu  115102 0 55951 459274 3683 0 9980 3244 0 0\n\
                    cpu0 57013 0 27924 230344 1734 0 4911 1637 0 0\nintr 1 2 3\n";
        assert_eq!(parse_steal(stat), Some(3244));
        assert_eq!(parse_steal("cpu0 1 2 3 4 5 6 7 8 9 10\n"), None);
        assert_eq!(parse_steal("cpu  1 2 3\n"), None);
    }

    #[test]
    fn io_fields() {
        assert_eq!(
            parse_io(IO),
            Io {
                syscr: 1000,
                syscw: 2000
            }
        );
    }

    #[test]
    fn thread_names_group_by_prefix() {
        let cases = [
            ("arlo-conn-12", Group::Server),
            ("arlo-conn-12-wr", Group::Server),
            ("arlo-shard-0", Group::Server),
            ("arlo-accept", Group::Server),
            ("arlo-dispatch-0", Group::Dispatch),
            ("arlo-exec-3", Group::Executor),
            ("arlo-exec-flush", Group::Executor),
            ("arlo-flusher-1", Group::Executor),
            ("arlo-timer", Group::Control),
            ("arlo-coordinato", Group::Control),
            ("arlo-supervisor", Group::Control),
            ("arlo-perfbench", Group::Other),
            ("arlo-renamed", Group::Other),
            ("", Group::Other),
        ];
        for (name, group) in cases {
            assert_eq!(group_of(name), group, "{name}");
        }
    }

    #[test]
    fn deltas_match_threads_by_tid() {
        let t = |name: &str, cpu, vol, nonvol| Thread {
            name: name.into(),
            cpu_ticks: cpu,
            voluntary: vol,
            nonvoluntary: nonvol,
        };
        let mut before = Sample::default();
        before.threads.insert(1, t("arlo-conn-1", 100, 10, 1));
        before.threads.insert(2, t("arlo-timer", 5, 50, 0));
        before.threads.insert(3, t("arlo-exec-0", 7, 7, 7));
        let mut after = Sample::default();
        after.threads.insert(1, t("arlo-conn-1", 300, 30, 2));
        after.threads.insert(2, t("arlo-timer", 6, 80, 0));
        // tid 3 exited; tid 4 is new.
        after.threads.insert(4, t("main", 50, 4, 1));
        let d = delta_by_group(&before, &after);
        assert_eq!(d[&Group::Server].cpu_s, 2.0);
        assert_eq!(d[&Group::Server].wakeups, 20);
        assert_eq!(d[&Group::Server].preemptions, 1);
        assert_eq!(d[&Group::Control].wakeups, 30);
        assert_eq!(d[&Group::Executor], GroupDelta::default());
        assert_eq!(d[&Group::Other].cpu_s, 0.5);
        assert_eq!(d[&Group::Other].threads, 1);
    }
}
