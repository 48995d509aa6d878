//! Metric tables, run records and the result line.
//!
//! Every run prints every metric of its kind: all [`END_TO_END`] metrics
//! untraced, all [`PER_LAYER`] metrics traced. A layer a workload does not
//! exercise reports 0 (it did no work there).

use crate::stats::Pct;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: `(name, unit)`. Each is defined on every workload
/// (see README.md for the per-workload meaning) and never reads 0.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("cpu_us_per_op", "us"),
    ("ok_share", "ratio"),
    ("slo_attainment", "ratio"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 41] = [
    // Live: /proc counters of the server process, by thread group.
    ("serve.server.cpu_us_per_req", "us"),
    ("serve.server.wakeups_per_req", "count"),
    ("serve.server.syscalls_per_req", "count"),
    ("serve.server.preemptions_per_req", "count"),
    ("serve.server.threads", "count"),
    ("serve.dispatch.cpu_us_per_req", "us"),
    ("serve.dispatch.wakeups_per_req", "count"),
    ("serve.executor.cpu_us_per_req", "us"),
    ("serve.executor.wakeups_per_req", "count"),
    ("serve.control.cpu_ms_per_s", "ms/s"),
    ("serve.control.wakeups_per_s", "1/s"),
    ("serve.other.cpu_us_per_req", "us"),
    // Live: on the wire.
    ("serve.executor.inside_us_p50", "us"),
    ("serve.executor.inside_us_p99", "us"),
    ("serve.server.outside_us_p50", "us"),
    ("core.runtime_scheduler.reallocations_per_s", "1/s"),
    ("serve.tenants.attainment.interactive", "ratio"),
    ("serve.tenants.attainment.batch", "ratio"),
    ("client.late_p99_us", "us"),
    ("client.cpu_us_per_req", "us"),
    // Replay of the workload's requests through public functions.
    ("serve.protocol.decode_ns", "ns"),
    ("serve.protocol.encode_ns", "ns"),
    ("core.engine.submit_ns", "ns"),
    ("core.engine.report_ns", "ns"),
    ("core.engine.refused_share", "ratio"),
    ("runtime.batching.push_ns", "ns"),
    ("runtime.batching.batch_mean", "count"),
    // Simulator.
    ("sim.driver.self_ns_per_event", "ns"),
    ("sim.driver.events_per_req", "count"),
    ("core.request_scheduler.dispatch_ns", "ns"),
    ("core.request_scheduler.calls_per_req", "count"),
    ("core.request_scheduler.miss_share", "ratio"),
    ("core.runtime_scheduler.decide_ms", "ms"),
    ("core.runtime_scheduler.change_share", "ratio"),
    ("sim.report.latency_mean_ms", "ms"),
    ("sim.report.latency_p98_ms", "ms"),
    // Allocator.
    ("core.runtime_scheduler.build_ms_p50", "ms"),
    ("core.runtime_scheduler.backoff_rounds", "count"),
    ("solver.dp.solve_ms_p50", "ms"),
    // Every workload: instrument checks.
    ("trace_overhead_share", "ratio"),
    ("host.steal_share", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value, in the table's unit.
    pub value: f64,
    /// How it was read, for the human report (e.g. `p99 of 412345`).
    pub how: String,
}

impl Metric {
    /// A plain value.
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            how: String::new(),
        }
    }

    /// A value with a note on how it was read.
    pub fn with(name: &'static str, value: f64, how: impl Into<String>) -> Metric {
        Metric {
            name,
            value,
            how: how.into(),
        }
    }

    /// A percentile, scaled into the metric's unit, labelled with its rank
    /// and sample count.
    pub fn pct(name: &'static str, p: Pct, scale: f64) -> Metric {
        Metric::with(
            name,
            p.value * scale,
            format!("p{} of {}", p.pct, p.samples),
        )
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, requests simulated, decisions).
    pub attempted: u64,
    /// Operations not completed OK.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Order the metrics as `table` does, filling any the run did not
    /// measure with 0, and reject names outside the table or non-finite
    /// values.
    pub fn complete(&mut self, table: &[(&'static str, &'static str)]) -> Result<(), String> {
        if let Some(m) = self
            .metrics
            .iter()
            .find(|m| !table.iter().any(|(n, _)| *n == m.name))
        {
            return Err(format!("metric `{}` is not in the table", m.name));
        }
        if let Some(m) = self.metrics.iter().find(|m| !m.value.is_finite()) {
            return Err(format!("metric `{}` is not finite", m.name));
        }
        let mut out = Vec::with_capacity(table.len());
        for (name, _) in table {
            match self.metrics.iter().position(|m| m.name == *name) {
                Some(i) => out.push(self.metrics.swap_remove(i)),
                None => out.push(Metric::with(name, 0.0, "layer not exercised")),
            }
        }
        self.metrics = out;
        Ok(())
    }
}

/// JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number (finite by [`Outcome::complete`]).
pub fn json_num(v: f64) -> String {
    format!("{v}")
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome, table: &[(&'static str, &'static str)]) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let unit = table
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or("", |(_, u)| u);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// The host and revision a run was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `git` commit of the checkout, or `unknown` outside a repository.
    pub commit: String,
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// 1/5/15-minute load averages when the run started.
    pub loadavg: String,
    /// Share of the machine's CPU time the hypervisor stole during the run.
    pub steal_share: f64,
}

impl Host {
    /// Read the host description; `repo` is the checkout root.
    pub fn capture(repo: &Path) -> Host {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        Host {
            commit: git_commit(repo).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: read("/proc/cpuinfo")
                .lines()
                .find_map(|l| {
                    l.strip_prefix("model name")?
                        .split_once(':')
                        .map(|(_, v)| v.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
            steal_share: 0.0,
            loadavg: read("/proc/loadavg")
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" "),
        }
    }
}

/// The commit `HEAD` names, read from `.git` without running `git`.
fn git_commit(repo: &Path) -> Option<String> {
    let git = repo.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Write the run record: workload, seed, host and every metric with how it
/// was read.
#[allow(clippy::too_many_arguments)]
pub fn write_record(
    path: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    host: &Host,
    o: &Outcome,
    table: &[(&'static str, &'static str)],
) -> std::io::Result<()> {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let unit = table
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or("", |(_, u)| u);
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"how\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(unit),
                json_str(&m.how)
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"trace\": {traced},\n  \
         \"commit\": {},\n  \"nproc\": {},\n  \"cpu\": {},\n  \"kernel\": {},\n  \"loadavg_at_start\": {},\n  \"steal_share\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json_str(workload),
        json_str(&host.commit),
        host.nproc,
        json_str(&host.cpu),
        json_str(&host.kernel),
        json_str(&host.loadavg),
        json_num(host.steal_share),
        o.attempted,
        o.failed,
        metrics.join(",\n")
    );
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Every `"name": "..."` value in BENCHMARK.json, in file order.
    fn benchmark_names(section: &str) -> Vec<(String, Option<String>)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\""))?;
            let rest = &entry[at + key.len() + 2..];
            let rest = &rest[rest.find('"')? + 1..];
            Some(rest[..rest.find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|entry| {
                (
                    field(entry, "name").expect("every entry is named"),
                    field(entry, "unit"),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            for (name, _) in benchmark_names(section) {
                assert!(valid_name(&name), "bad metric or workload name `{name}`");
                assert!(seen.insert(name.clone()), "`{name}` used twice");
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let as_pairs = |t: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(benchmark_names("end_to_end"), as_pairs(&END_TO_END));
        assert_eq!(benchmark_names("per_layer"), as_pairs(&PER_LAYER));
        let workloads: Vec<String> = benchmark_names("workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn complete_fills_and_orders() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("ok_share", 1.0), Metric::new("setup_s", 0.5)],
        };
        o.complete(&END_TO_END).expect("known names");
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert_eq!(o.metrics[0].value, 0.5);
        let line = result_line(&o, &END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        let mut bad = Outcome {
            metrics: vec![Metric::new("nope", 1.0)],
            ..Outcome::default()
        };
        assert!(bad.complete(&END_TO_END).is_err());
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
