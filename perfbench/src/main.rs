//! The Arlo benchmark: three workloads, end-to-end metrics untraced and
//! per-layer metrics traced, every output checked. See README.md.
//!
//! ```text
//! arlo-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload's result is one JSON line on standard output, so the last
//! line of a single-workload run is its result; a failed correctness check
//! exits non-zero without one.

mod alloc;
mod live;
mod procfs;
mod report;
mod sim;
mod spans;
mod stats;

use report::{Host, Outcome, END_TO_END, PER_LAYER};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["live-bursty", "sim-fig10", "alloc-table2"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn run_one(workload: &str, a: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    match workload {
        "sim-fig10" => sim::run(a.seed, a.seconds, a.trace, spans),
        "alloc-table2" => alloc::run(a.seed, a.seconds, a.trace, spans),
        _ => live::run(a.seed, a.seconds, a.trace, spans),
    }
}

/// Run, check and record one workload; print its metrics to stderr.
fn measure(workload: &str, a: &Args, host: &Host, out: &Path) -> Result<Outcome, String> {
    let table: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let start = Instant::now();
    let steal0 = procfs::steal_ticks();
    let mut spans = Spans::new(start);
    let mut o = run_one(workload, a, &mut spans)?;
    // Time the hypervisor gave other machines is lost to the run's
    // timings; it is recorded (and taken out of alloc-table2's decision
    // times, see alloc.rs).
    let host = Host {
        steal_share: procfs::stolen_share(steal0, start.elapsed().as_secs_f64()),
        ..host.clone()
    };
    if a.trace {
        o.metrics
            .push(report::Metric::new("host.steal_share", host.steal_share));
    }
    if !a.trace {
        if let Some((name, _)) = END_TO_END
            .iter()
            .find(|(n, _)| !o.metrics.iter().any(|m| m.name == *n))
        {
            return Err(format!("{workload} did not measure `{name}`"));
        }
        if let Some(m) = o.metrics.iter().find(|m| m.value <= 0.0) {
            return Err(format!("{workload}: `{}` read {}", m.name, m.value));
        }
    }
    o.complete(table)?;
    eprintln!(
        "{workload} (seed {}, {} s, trace {}): {} attempted, {} failed, {:.1}% of CPU time stolen by the host",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        o.attempted,
        o.failed,
        host.steal_share * 100.0
    );
    for m in &o.metrics {
        let unit = table
            .iter()
            .find(|(n, _)| *n == m.name)
            .map_or("", |(_, u)| u);
        eprintln!("  {:44} {:>16.6} {:6} {}", m.name, m.value, unit, m.how);
    }
    let stem = format!("{workload}-seed{}-trace{}", a.seed, u8::from(a.trace));
    let written = std::fs::create_dir_all(out)
        .and_then(|()| {
            report::write_record(
                &out.join(format!("{stem}.json")),
                workload,
                a.seed,
                a.seconds,
                a.trace,
                &host,
                &o,
                table,
            )
        })
        .and_then(|()| {
            if a.trace {
                spans.write_tsv(&out.join(format!("{stem}-spans.tsv")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "warning: could not write the run record under {}: {e}",
            out.display()
        );
    }
    Ok(o)
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("serve-child") {
        if let Err(e) = live::serve_child() {
            eprintln!("serve-child: {e}");
            std::process::exit(1);
        }
        return;
    }
    let a = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: arlo-perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]", WORKLOADS.join("|"));
            std::process::exit(2);
        }
    };
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = manifest.parent().unwrap_or(manifest);
    let host = Host::capture(repo);
    let out: PathBuf = manifest.join("out");
    let table: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    let workloads: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    // One result line per workload, printed as each passes its checks:
    // with `all`, the last line is the last workload's result.
    for w in &workloads {
        match measure(w, &a, &host, &out) {
            Ok(o) => println!("{}", report::result_line(&o, table)),
            Err(e) => {
                eprintln!("FAILED {w}: {e}");
                std::process::exit(1);
            }
        }
    }
}
