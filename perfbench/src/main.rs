//! End-to-end DSI ingestion benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rm1_secure_tcp --seed 7 --seconds 10 --trace 0
//! ```
//!
//! Builds an RM lab table from `--seed`, then drives real `DppSession`s
//! (two workers, one closed-loop trainer) one epoch per session for
//! `--seconds`, checking every delivered tensor against a sequential
//! reference. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! also runs the single-thread traced pass and prints the per-layer
//! ledger instead. The last stdout line is one JSON object; stderr gets
//! a readable summary. See `perfbench/README.md`.

mod e2e;
mod ledger;
mod workload;

use dsi_obs::Registry;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Setup, Workload, WORKERS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Untimed epochs in each set-up.
const WARM_EPOCHS: usize = 2;
/// Minimum traced wall seconds (at least one epoch).
const TRACE_SECS: f64 = 1.5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Seconds of vCPU time the hypervisor has taken from this machine
/// (`steal` in `/proc/stat`, in 1/100 s ticks), summed over its CPUs.
fn host_steal_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find_map(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Resident-set high-water mark of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the lab and reference and runs the warm-up epochs; returns the
/// set-up, its wall seconds, and the delivery errors of the warm-up.
fn set_up(args: &Args, registry: &Registry) -> (Setup, f64, u64) {
    let start = Instant::now();
    let setup = Setup::build(args.workload, args.seed);
    let errors = e2e::warm_up(&setup, registry, WARM_EPOCHS);
    (setup, start.elapsed().as_secs_f64(), errors)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let registry = Registry::new();

    // The kept set-up: lab build, reference epoch, and warm-up epochs that
    // grow the allocator and buffer pool before the timed window.
    let (setup, setup_s, mut failed) = set_up(&args, &registry);
    let steal0 = host_steal_secs();
    let mut window = e2e::timed_window(&setup, &registry, args.seconds);
    // Not a metric: on a shared host it tells a slow run from a slow program.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal_share = (host_steal_secs() - steal0) / (window.secs * cpus as f64);
    failed += window.errors();
    let mut attempted = window.expected() + setup.reference.len() as u64 * WARM_EPOCHS as u64;
    let samples = window.samples() as f64;
    let per_epoch = |f: &dyn Fn(&e2e::Epoch) -> f64| median(window.epochs.iter().map(f).collect());
    let samples_per_s = per_epoch(&|e| e.samples as f64 / e.secs);
    let cpu_ms_per_ksample = per_epoch(&|e| e.cpu_secs * 1e6 / e.samples as f64);
    let mut waits = std::mem::take(&mut window.waits_ns);
    waits.sort_unstable();
    let p99_index = (waits.len() * 99).div_ceil(100).saturating_sub(1);
    let batch_wait_p99_ms = waits.get(p99_index).map_or(0.0, |&ns| ns as f64 / 1e6);
    let storage_bytes: u64 = window.epochs.iter().map(|e| e.storage_bytes).sum();
    let tensor_bytes: u64 = window.epochs.iter().map(|e| e.tensor_bytes).sum();
    let copied_bytes: u64 = window.epochs.iter().map(|e| e.copied_bytes).sum();
    // Bytes crossing the worker-to-trainer boundary: socket bytes over
    // TCP, the tensors' payload bytes in-process.
    let load_bytes = if window.wire_bytes > 0 {
        window.wire_bytes
    } else {
        tensor_bytes
    };
    // Read before the extra set-ups below, so the high-water mark is this
    // workload's set-up and timed window only.
    let peak_rss_mb = peak_rss_mb();
    let ingest_rows_per_s = window.ingest_rows as f64 / window.secs;
    let delivery_error_ratio = window.errors() as f64 / window.expected().max(1) as f64;
    eprintln!(
        "perfbench {:?} seed {}: {} epochs, {} samples in {:.2} s, \
         {} trainer waits (p99 {:.3} ms), {} delivery errors, \
         host took {:.1}% of {} vCPUs",
        args.workload,
        args.seed,
        window.epochs.len(),
        samples,
        window.secs,
        waits.len(),
        batch_wait_p99_ms,
        window.errors(),
        steal_share * 100.0,
        cpus,
    );

    let metrics = if args.trace {
        let ledger = ledger::traced_pass(&setup, TRACE_SECS);
        failed += ledger.delivery_errors
            + ledger.tectonic_errors
            + ledger.dwrf_errors
            + ledger.wire_errors;
        // Layer spans never overlap, so a negative remainder means some
        // time was charged twice.
        if ledger.unattributed_s() < 0.0 {
            failed += 1;
        }
        attempted += ledger.expected;
        let epochs = ledger.epochs as f64;
        let per = |s: f64| s / epochs;
        let write_s = ledger.encode_s + ledger.append_s;
        let traced_samples_per_s = ledger.samples as f64 / (ledger.wall_s - write_s);
        let ratio = |a: u64, b: u64| if b == 0 { 1.0 } else { a as f64 / b as f64 };
        vec![
            metric("warehouse.plan_s", per(ledger.plan_s), "s"),
            metric("tectonic.read_s", per(ledger.tectonic_read_s), "s"),
            metric(
                "tectonic.read_bytes",
                per(ledger.tectonic_read_bytes as f64),
                "B",
            ),
            metric(
                "tectonic.mean_io_bytes",
                ratio(ledger.tectonic_read_bytes, ledger.tectonic_ios),
                "B",
            ),
            metric("tectonic.errors", ledger.tectonic_errors as f64, "count"),
            metric("dwrf.decode_s", per(ledger.decode_s), "s"),
            metric(
                "dwrf.useful_byte_ratio",
                ratio(ledger.wanted_bytes, ledger.read_bytes),
                "ratio",
            ),
            metric("dwrf.errors", ledger.dwrf_errors as f64, "count"),
            metric("transforms.row_s", per(ledger.row_s), "s"),
            metric("transforms.columnar_s", per(ledger.columnar_s), "s"),
            metric("batch.materialize_s", per(ledger.materialize_s), "s"),
            metric("wire.serialize_s", per(ledger.serialize_s), "s"),
            metric("wire.compress_s", per(ledger.compress_s), "s"),
            metric("wire.cipher_s", per(ledger.cipher_s), "s"),
            metric("wire.socket_s", per(ledger.socket_s), "s"),
            metric("wire.deserialize_s", per(ledger.deserialize_s), "s"),
            metric(
                "wire.compression_ratio",
                ratio(ledger.wire_payload_bytes, ledger.wire_frame_bytes),
                "ratio",
            ),
            metric("wire.errors", ledger.wire_errors as f64, "count"),
            metric("dwrf.encode_s", per(ledger.encode_s), "s"),
            metric("tectonic.append_s", per(ledger.append_s), "s"),
            metric(
                "tectonic.append_bytes",
                per(ledger.append_bytes as f64),
                "B",
            ),
            metric("trainer.consume_s", per(ledger.consume_s), "s"),
            metric("traced_wall_s", per(ledger.wall_s), "s"),
            metric("unattributed_s", per(ledger.unattributed_s()), "s"),
            metric(
                "dpp.parallel_efficiency",
                samples_per_s / (WORKERS as f64 * traced_samples_per_s),
                "ratio",
            ),
            metric(
                "fastpath.copied_bytes_per_sample",
                copied_bytes as f64 / samples,
                "B",
            ),
            metric("trainer.waits", waits.len() as f64, "count"),
            metric("ingest.rows_per_s", ingest_rows_per_s, "1/s"),
            metric("delivery.error_ratio", delivery_error_ratio, "ratio"),
        ]
    } else {
        // Repeat the set-up after the measurements; `setup_s` is the
        // median of all set-ups of this run.
        let mut setup_secs = vec![setup_s];
        drop(setup);
        for _ in 1..SETUPS {
            let (extra, secs, errors) = set_up(&args, &registry);
            setup_secs.push(secs);
            failed += errors;
            attempted += extra.reference.len() as u64 * WARM_EPOCHS as u64;
        }
        vec![
            metric("samples_per_s", samples_per_s, "1/s"),
            metric("cpu_ms_per_ksample", cpu_ms_per_ksample, "ms"),
            metric("batch_wait_p99_ms", batch_wait_p99_ms, "ms"),
            metric(
                "storage_bytes_per_sample",
                storage_bytes as f64 / samples,
                "B",
            ),
            metric("load_bytes_per_sample", load_bytes as f64 / samples, "B"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
            metric("setup_s", median(setup_secs), "s"),
        ]
    };
    for m in &metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
