//! The repository's benchmark: SeeMoRe on the reactor socket runtime,
//! driven only through the program's public API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The whole process runs on one CPU (see [`sys::pin_to_one_cpu`]), and a
//! host-speed gauge runs beside every timed pass (see [`gauge`]): the
//! end-to-end times and rates are given at the gauge's reference speed.
//!
//! `--trace 0` runs the workload plainly and prints the end-to-end metrics.
//! `--trace 1` runs it plainly once more (for the runtime and transport
//! counters and as the tracing baseline), then again with every public
//! trait object wrapped in a span recorder, and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; earlier lines starting
//! with `#` describe the run. A run whose outputs fail the correctness gate
//! prints why on standard error and exits with status 1.

mod gauge;
mod ledger;
mod metrics;
mod replay;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// No run may outlive this; a wedged cluster ends the process instead.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Untimed load before the window, so connections, caches and the
/// checkpoint cycle are warm.
const WARMUP: Duration = Duration::from_millis(1500);
/// Extra set-ups a plain run times, each in a fresh process of its own so
/// every sample pays what a deployer's first set-up pays: this many before
/// the measured pass and as many after it, so the samples span the run's
/// time on the host. `setup_s` is the median of these and the measured
/// pass's own. A set-up takes tens of milliseconds, about half of it
/// first-touch page faults whose cost on a virtual machine wanders by up to
/// twice between processes (see `host_page_fault_ns` in the stamp), so it
/// takes this many samples for the median to settle.
const SETUP_PROBES: usize = 12;

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Only set up, report the time and exit (how set-up probes run).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.5..=120.0).contains(&s) {
                    return Err("--seconds must be between 0.5 and 120".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread starts, so every thread and set-up probe inherits it.
    let nproc = sys::nproc();
    let cpu = match sys::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: cannot pin the run to one CPU: {e}");
            return ExitCode::from(1);
        }
    };
    std::thread::Builder::new()
        .name("watchdog".into())
        .spawn(|| {
            std::thread::sleep(WATCHDOG);
            eprintln!("perfbench: the run did not finish within {WATCHDOG:?}");
            std::process::exit(3);
        })
        .expect("spawn the watchdog");

    let bench_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    let store_dir = out_dir.join(format!("stores-{}", std::process::id()));
    let repo_root = bench_dir.parent().map(PathBuf::from).unwrap_or_default();
    let epoch = Instant::now();
    let window = Duration::from_secs_f64(args.seconds);
    let plan = |tracer| run::Plan {
        workload: args.workload,
        seed: args.seed,
        warmup: WARMUP,
        window,
        tracer,
        store_dir: &store_dir,
        epoch,
        cpu,
    };
    if args.setup_only {
        println!("setup_s {}", run::setup_only(&plan(None)));
        // The cluster is still up; ending the process ends its threads
        // without the orderly shutdown, which is not set-up time and takes
        // several times as long. The parent removes the stores.
        use std::io::Write;
        let _ = std::io::stdout().flush();
        std::process::exit(0);
    }
    println!(
        "# stamp {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rev\": \"{}\", \"nproc\": {}, \"cpu\": {}, \"loadavg_1m\": {}, \"host_sha256_mbps\": {:.1}, \"host_page_fault_ns\": {:.0}, \"host_fsync_us\": {:.0}}}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::source_rev(&repo_root),
        nproc,
        cpu,
        sys::loadavg_1m(),
        sys::host_sha256_mbps(),
        sys::host_page_fault_ns(),
        sys::host_fsync_us(&out_dir)
    );
    println!("# why {}", args.workload.why);

    // Set-up probes, on plain runs only: before and after the measured
    // pass, with the gauge running alongside. Each batch gives its set-up
    // times and the gauge's times, in µs.
    let probe = || -> Result<(Vec<f64>, Vec<f64>), ExitCode> {
        if args.trace {
            return Ok(Default::default());
        }
        let gauge = gauge::Gauge::default();
        let (setups, gauged) = std::thread::scope(|scope| {
            let gauge_thread = scope.spawn(|| gauge.run(epoch));
            let setups = probe_setups(&args, &out_dir);
            gauge.stop();
            (setups, gauge_thread.join().expect("gauge thread"))
        });
        match (setups, gauged) {
            (Ok(setups), Ok(())) => {
                let gauged = gauge.samples();
                Ok((
                    setups,
                    gauged.iter().map(|(_, ns)| *ns as f64 / 1e3).collect(),
                ))
            }
            (Err(e), _) => {
                eprintln!("perfbench: set-up probe failed: {e}");
                Err(ExitCode::from(1))
            }
            (_, Err(e)) => {
                eprintln!("perfbench: the gauge failed: {e}");
                Err(ExitCode::from(1))
            }
        }
    };
    let before = match probe() {
        Ok(samples) => samples,
        Err(code) => return code,
    };
    let plain = run::run(&plan(None));
    let after = match probe() {
        Ok(samples) => samples,
        Err(code) => return code,
    };
    let setup_probes = [before.0, after.0].concat();
    let setup_gauge = [before.1, after.1].concat();
    let setup_slowness =
        stats::median(&setup_gauge).unwrap_or(gauge::REFERENCE_US) / gauge::REFERENCE_US;
    let plain_summary = metrics::summarize(&plain);
    metrics::describe("plain", &plain, &plain_summary);
    println!(
        "# plain set-up took {} s; in fresh processes {:?} s, at slowness {setup_slowness:.4}",
        plain.setup_s, setup_probes
    );
    let mut failures = metrics::gate(&plain);

    let result = if args.trace {
        let tracer = trace::Tracer::new(epoch);
        let traced = run::run(&plan(Some(&tracer)));
        let traced_summary = metrics::summarize(&traced);
        metrics::describe("traced", &traced, &traced_summary);
        failures.extend(metrics::gate(&traced));
        let _ = std::fs::create_dir_all(&out_dir);
        let spans_path = out_dir.join(format!("spans-{}.csv", args.workload.name));
        match tracer.write_spans(&spans_path) {
            Ok(n) => println!(
                "# spans {n} written to {} ({} dropped past the log bound)",
                spans_path.display(),
                tracer.spans_dropped()
            ),
            Err(e) => println!("# spans not written: {e}"),
        }
        let prices = replay::price(&tracer.samples(), &run::keystore(args.seed));
        let layers = metrics::per_layer(
            &plain,
            &plain_summary,
            &traced,
            &traced_summary,
            &tracer,
            &prices,
        );
        (traced_summary, layers)
    } else {
        let e2e = metrics::end_to_end(&plain, &plain_summary, &setup_probes, setup_slowness);
        (plain_summary, e2e)
    };

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("perfbench: correctness gate failed: {failure}");
        }
        return ExitCode::from(1);
    }
    let (summary, values) = result;
    println!("{}", metrics::result_line(&summary, &values));
    ExitCode::SUCCESS
}

/// Times [`SETUP_PROBES`] set-ups, each in a child process of this binary,
/// one after another; each child is waited for and its stores, under
/// `out_dir`, removed.
fn probe_setups(args: &Args, out_dir: &std::path::Path) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_PROBES)
        .map(|_| {
            let child = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    args.workload.name,
                    "--seed",
                    &args.seed.to_string(),
                    "--setup-only",
                ])
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .map_err(|e| e.to_string())?;
            let stores = out_dir.join(format!("stores-{}", child.id()));
            let out = child.wait_with_output().map_err(|e| e.to_string())?;
            let _ = std::fs::remove_dir_all(stores);
            let stdout = String::from_utf8_lossy(&out.stdout);
            let value = stdout
                .lines()
                .last()
                .and_then(|line| line.strip_prefix("setup_s "))
                .and_then(|v| v.parse::<f64>().ok());
            match (out.status.success(), value) {
                (true, Some(v)) => Ok(v),
                _ => Err(format!(
                    "{}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                )),
            }
        })
        .collect()
}
