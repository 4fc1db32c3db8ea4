//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p dsi-bench --release --bin figures -- all
//! cargo run -p dsi-bench --release --bin figures -- fig7 table9 codesign
//! ```
//!
//! Each experiment prints the paper's reported rows next to the values
//! measured on this repository's simulated deployment. Absolute magnitudes
//! differ (the substrate is a laptop-scale simulation, not Meta's fleet);
//! the *shapes* — who wins, rough factors, crossovers — are the
//! reproduction targets (see EXPERIMENTS.md).

use dpp::{ExtractCostModel, WorkerReport};
use dsi_bench::report::{f, pct, print_table};
use dsi_bench::{BenchRecord, LabConfig, RmLab, Value};
use dsi_types::{ByteSize, Projection};
use dwrf::{CoalescePolicy, WriterOptions};
use hwsim::{DatacenterTax, NodeSpec, PowerModel, ResourceVector};
use synth::{
    GrowthModel, JobProjectionSampler, LifecycleModel, LifecycleSnapshot, RmClass, RmProfile,
};
use tectonic::{ProvisionPlan, StorageNodeClass, TieredPlacement};
use trainer::{loading_sweep, onhost_baseline, GpuDemand, StallSim};
use transforms::{AccelModel, TransformOp, TransformPlan};

/// Regression gate over previously written `BENCH_*.json` artifacts
/// (`figures gate [fastpath] [durability] [autotune] [wire]`; no targets =
/// all four, see [`GATES`]). Reads the artifacts the ablations just wrote
/// to the working directory through [`BenchRecord::parse`], panicking with
/// the artifact's name on a missing artifact or key, and returns a nonzero
/// exit status when a hot-path regression slipped in, so CI fails the
/// build:
///
/// - fastpath: `speedup_full_plan < 1.0` means the fastpath lost to the
///   copying baseline on the wide full-plan job (the regression this
///   change set exists to close).
/// - wire: plaintext TCP below 75% of in-process throughput means
///   serialization is eating the data plane again.
/// - durability: any chunk left under-replicated after the budgeted
///   rebuild drains means self-healing failed to converge, and foreground
///   reads keeping less than 50% of disk IOs means rebuild traffic is
///   swamping the epoch it is supposed to yield to.
fn gate(targets: &[String]) -> i32 {
    let num = |artifact: &str, key: &str| {
        let body = std::fs::read_to_string(artifact).unwrap_or_else(|e| {
            panic!("{artifact} not found ({e}); run the matching ablation first")
        });
        let rec = BenchRecord::parse(&body).unwrap_or_else(|e| panic!("{artifact}: {e}"));
        rec.num(key).unwrap_or_else(|e| panic!("{artifact}: {e}"))
    };
    let all = targets.is_empty();
    let want = |name: &str| all || targets.iter().any(|a| a == name);
    let mut failures = 0;
    if want("fastpath") {
        let full = num("BENCH_fastpath.json", "speedup_full_plan");
        let narrow = num("BENCH_fastpath.json", "speedup");
        if full < 1.0 {
            eprintln!("gate FAIL fastpath: speedup_full_plan {full:.3} < 1.0");
            failures += 1;
        } else {
            println!("gate ok fastpath: speedup_full_plan {full:.3}, speedup {narrow:.3}");
        }
    }
    if want("durability") {
        let under = num("BENCH_durability.json", "under_replicated_final");
        let share = num("BENCH_durability.json", "foreground_share");
        if under != 0.0 {
            eprintln!("gate FAIL durability: {under:.0} chunks left under-replicated");
            failures += 1;
        } else if share < 0.5 {
            eprintln!(
                "gate FAIL durability: foreground kept only {:.0}% of disk IOs (floor 50%)",
                share * 100.0
            );
            failures += 1;
        } else {
            println!(
                "gate ok durability: rebuild converged, foreground kept {:.0}% of disk IOs",
                share * 100.0
            );
        }
    }
    if want("autotune") {
        // The tuner must both converge faster and land on lower
        // steady-state stall than the static scaler on the two scenarios
        // the worker knob alone cannot fix.
        for scen in ["extract_bound", "trainer_bound"] {
            let metric = |name: &str| num("BENCH_autotune.json", &format!("{scen}_{name}"));
            let (t_ttc, s_ttc) = (metric("tuner_ttc_s"), metric("static_ttc_s"));
            let (t_ss, s_ss) = (metric("tuner_steady_stall"), metric("static_steady_stall"));
            if t_ttc >= s_ttc || t_ss >= s_ss {
                eprintln!(
                    "gate FAIL autotune: {scen} tuner (ttc {t_ttc:.0}s, steady {t_ss:.4}) \
                     did not beat static (ttc {s_ttc:.0}s, steady {s_ss:.4})"
                );
                failures += 1;
            } else {
                println!(
                    "gate ok autotune: {scen} tuner ttc {t_ttc:.0}s < static {s_ttc:.0}s, \
                     steady {t_ss:.4} < {s_ss:.4}"
                );
            }
        }
    }
    if want("wire") {
        let inproc = num("BENCH_wire.json", "samples_per_sec_inprocess");
        let tcp = num("BENCH_wire.json", "samples_per_sec_tcp");
        let ratio = tcp / inproc.max(1e-9);
        if ratio < 0.75 {
            eprintln!(
                "gate FAIL wire: plaintext TCP at {:.0}% of in-process (floor 75%)",
                ratio * 100.0
            );
            failures += 1;
        } else {
            println!(
                "gate ok wire: plaintext TCP at {:.0}% of in-process",
                ratio * 100.0
            );
        }
    }
    failures
}

/// Table VI mean IO size (pre-coalescing, per-stream reads).
const PAPER_MEAN_IO: u64 = 23_200;

/// Effective IO size once coalesced reads (1.25 MiB windows) are deployed —
/// the production configuration power provisioning assumes.
const COALESCED_MEAN_IO: u64 = 1 << 20;

/// An experiment runner; its flag is `--smoke`.
type Run = fn(bool);

/// Every experiment, in run order. No name, or `all`, runs every one.
const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig1", |_| fig1()),
    ("fig2", |_| fig2()),
    ("fig4", |_| fig4()),
    ("fig5", |_| fig5()),
    ("fig6", |_| fig6()),
    ("fig7", |_| fig7()),
    ("fig8", |_| fig8()),
    ("fig9", |_| fig9()),
    ("table2", |_| table2()),
    ("table3", |_| table3()),
    ("table4", |_| table4()),
    ("table5", |_| table5()),
    ("table6", |_| table6()),
    ("table7", |_| table7()),
    ("table8", |_| table8()),
    ("table9", |_| table9()),
    ("table10", |_| table10()),
    ("table11", |_| table11()),
    ("gap", |_| gap()),
    ("accel", |_| accel()),
    ("codesign", |_| codesign()),
    ("dedup", dedup_ablation),
    ("fastpath", fastpath_ablation),
    ("wire", wire_ablation),
    ("durability", durability_ablation),
    ("trace", trace_ablation),
    ("tenancy", tenancy_ablation),
    ("autotune", autotune_ablation),
    ("fleet", |_| fleet()),
    ("capacity", |_| capacity()),
];

/// The names `figures` accepts: every experiment, plus `all`.
fn experiment_names() -> Vec<&'static str> {
    let mut known: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    known.push("all");
    known
}

/// The artifacts `figures gate` checks; no name checks all four.
const GATES: [&str; 4] = ["fastpath", "durability", "autotune", "wire"];

/// Fails on any name outside `known`, so a typo in a CI step fails the
/// step instead of running nothing.
fn check_names(names: &[String], known: &[&str]) -> Result<(), String> {
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| !known.contains(n))
        .collect();
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "unknown name {}; valid names: {}",
            unknown.join(", "),
            known.join(" ")
        ))
    }
}

/// Writes a bench artifact, or exits nonzero naming the path: a `gate`
/// step after a failed write must not check the stale committed file.
fn write_artifact(path: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("figures: could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("(wrote {path})");
}

/// Drains a launched session through one client, then shuts it down:
/// wall-clock samples/s over the drain and the session's report. Panics
/// unless every sample arrived exactly once.
fn drain(session: dpp::DppSession) -> (f64, WorkerReport) {
    let mut client = session.client();
    let start = std::time::Instant::now();
    let mut samples = 0u64;
    while let Some(t) = client.next_batch() {
        samples += t.batch_size() as u64;
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    let report = session.shutdown();
    assert_eq!(report.samples, samples, "exactly-once delivery");
    (samples as f64 / secs, report)
}

/// Runs `trial` `n` times back to back and keeps the fastest samples/s,
/// with the first trial's report (the max filters scheduler noise on small
/// CI boxes; the first trial also warms the allocator and buffer pools).
fn best_of<R>(n: usize, mut trial: impl FnMut() -> (f64, R)) -> (f64, R) {
    let (mut best, first) = trial();
    for _ in 1..n {
        best = best.max(trial().0);
    }
    (best, first)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let args: Vec<String> = args.into_iter().filter(|a| a != "--smoke").collect();
    let check = |names: &[String], known: &[&str]| {
        if let Err(e) = check_names(names, known) {
            eprintln!("figures: {e}");
            std::process::exit(2);
        }
    };
    if args.first().map(String::as_str) == Some("gate") {
        check(&args[1..], &GATES);
        std::process::exit(gate(&args[1..]));
    }
    check(&args, &experiment_names());
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    for (name, run) in EXPERIMENTS {
        if all || args.iter().any(|a| a == name) {
            run(smoke);
        }
    }
}

fn lab_for(class: RmClass) -> RmLab {
    RmLab::build(class, LabConfig::default())
}

/// Measures a representative RC job's worker telemetry for one RM.
fn measure(class: RmClass) -> (RmLab, Projection, WorkerReport) {
    let lab = lab_for(class);
    let projection = lab.rc_projection();
    let spec = lab.session_spec(projection.clone(), 128);
    let report = lab.measure_worker(&spec);
    (lab, projection, report)
}

/// Scales a lab-measured per-sample quantity up to production feature
/// counts: the lab schema holds `config.features` features, production logs
/// `dataset_total_features()`.
fn feature_scale(lab: &RmLab, projection: &Projection) -> f64 {
    let model_features =
        (lab.profile.model_dense_features + lab.profile.model_sparse_features) as f64;
    model_features / projection.len().max(1) as f64
}

// ---------------------------------------------------------------- figures

fn fig1() {
    let power = PowerModel::production();
    let rows: Vec<Vec<String>> = RmProfile::all()
        .iter()
        .map(|p| {
            let prov = cluster::provision_model(p, 16.0, COALESCED_MEAN_IO, &power);
            let (s, pp, t) = prov.power.percentages();
            vec![
                p.class.to_string(),
                f(s, 1),
                f(pp, 1),
                f(t, 1),
                pct(prov.power.dsi_fraction()),
            ]
        })
        .collect();
    print_table(
        "Fig 1: power shares of storage / preprocessing / training per RM",
        &["model", "storage %", "preproc %", "training %", "DSI share"],
        &rows,
    );
    println!("(paper: DSI exceeds 50% of power for some models)");
}

fn fig2() {
    let traj = GrowthModel::default().trajectory(8);
    let rows: Vec<Vec<String>> = traj
        .iter()
        .map(|p| {
            vec![
                format!("Q{}", p.quarter),
                f(p.dataset_size, 2),
                f(p.ingestion_bandwidth, 2),
            ]
        })
        .collect();
    print_table(
        "Fig 2: normalized dataset size and ingestion bandwidth over 2 years",
        &["quarter", "dataset size", "ingestion bw"],
        &rows,
    );
    let last = traj.last().expect("non-empty trajectory");
    println!(
        "(paper: >2x size, >4x bandwidth; measured {:.2}x / {:.2}x)",
        last.dataset_size, last.ingestion_bandwidth
    );
}

fn fig4() {
    use cluster::{JobKind, JobStatus, ReleaseProcess};
    let jobs = ReleaseProcess::default().generate_iteration(4);
    let combos: Vec<_> = jobs.iter().filter(|j| j.kind == JobKind::Combo).collect();
    let mut durations: Vec<f64> = combos.iter().map(|j| j.duration_days).collect();
    durations.sort_by(f64::total_cmp);
    let count = |s: JobStatus| combos.iter().filter(|j| j.status == s).count();
    let rows = vec![
        vec!["combo jobs".into(), combos.len().to_string()],
        vec!["completed".into(), count(JobStatus::Completed).to_string()],
        vec!["failed".into(), count(JobStatus::Failed).to_string()],
        vec!["killed".into(), count(JobStatus::Killed).to_string()],
        vec![
            "p50 duration (days)".into(),
            f(durations[durations.len() / 2], 1),
        ],
        vec![
            "p90 duration (days)".into(),
            f(durations[durations.len() * 9 / 10], 1),
        ],
        vec![
            "max duration (days)".into(),
            f(*durations.last().expect("non-empty"), 1),
        ],
        vec![
            "submitted in first half of window".into(),
            combos
                .iter()
                .filter(|j| j.submit_day < 7.0)
                .count()
                .to_string(),
        ],
    ];
    print_table(
        "Fig 4: one RM1 combo window — duration skew and outcomes",
        &["metric", "value"],
        &rows,
    );
    println!("(paper: 82 combo jobs, many killed/failed, durations past 10 days, early-skewed submissions)");
}

fn fig5() {
    use cluster::DemandModel;
    let series = DemandModel::default().series(364, 42);
    // Weekly aggregation for a readable series.
    let rows: Vec<Vec<String>> = (0..52)
        .map(|w| {
            let days = &series[w * 7..(w + 1) * 7];
            let total: f64 = days.iter().map(|p| p.total).sum::<f64>() / 7.0;
            let combo: f64 = days.iter().map(|p| p.combo).sum::<f64>() / 7.0;
            let bar = "#".repeat((total * 40.0).round() as usize);
            vec![format!("w{w:02}"), f(total, 2), f(combo, 2), bar]
        })
        .collect();
    print_table(
        "Fig 5: one year of normalized fleet compute demand (weekly means)",
        &["week", "total", "combo", ""],
        &rows,
    );
    println!(
        "(peak/mean {:.2}; peaks are combo-driven)",
        DemandModel::peak_to_mean(&series)
    );
}

fn fig6() {
    use cluster::scheduler::fig6_models;
    use cluster::{GlobalScheduler, PlacementPolicy};
    let sched = GlobalScheduler::five_regions(100.0);
    let models = fig6_models(ByteSize::tib(10));
    let placed = sched.place(&models, PlacementPolicy::BalanceEverywhere, 6);
    let mut rows = Vec::new();
    for m in &models {
        let per = &placed.demand_by_model_region[&m.name];
        let mut row = vec![m.name.clone()];
        for r in sched.regions() {
            row.push(f(per.get(&r.id).copied().unwrap_or(0.0), 2));
        }
        row.push(f(m.peak_demand, 1));
        rows.push(row);
    }
    print_table(
        "Fig 6: compute demand of models A-J split across regions R1-R5 (normalized to J)",
        &["model", "R1", "R2", "R3", "R4", "R5", "total"],
        &rows,
    );
    let packed = sched.place(&models, PlacementPolicy::BinPack, 6);
    println!(
        "(balanced placement stores {} of datasets; bin-packing cuts it to {})",
        placed.stored_bytes, packed.stored_bytes
    );
}

fn fig7() {
    let mut rows = Vec::new();
    for profile in RmProfile::all() {
        let schema = profile.build_schema(600);
        let sampler = JobProjectionSampler::new(&schema, &profile, 11);
        let cdf = sampler.popularity_cdf(30, 17);
        let b50 = JobProjectionSampler::bytes_for_traffic(&cdf, 0.5);
        let b80 = JobProjectionSampler::bytes_for_traffic(&cdf, 0.8);
        let b95 = JobProjectionSampler::bytes_for_traffic(&cdf, 0.95);
        rows.push(vec![
            profile.class.to_string(),
            pct(b50),
            pct(b80),
            pct(b95),
            pct(profile.popular_bytes_for_80pct_traffic),
        ]);
    }
    print_table(
        "Fig 7: popular bytes needed to absorb X% of storage traffic (30 jobs / RM)",
        &[
            "model",
            "50% traffic",
            "80% traffic",
            "95% traffic",
            "paper @80%",
        ],
        &rows,
    );
}

fn fig8() {
    let node = NodeSpec::trainer();
    let tax = DatacenterTax::production();
    let rates: Vec<f64> = (1..=12).map(|i| i as f64 * 2e9).collect();
    let pts = loading_sweep(&node, &tax, &rates);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                f(p.rate / 1e9, 0),
                pct(p.utilization.cpu),
                pct(p.utilization.membw),
                pct(p.utilization.nic_rx),
                if p.saturated {
                    "SATURATED".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    print_table(
        "Fig 8: trainer front-end utilization vs data-loading rate (dummy trainer)",
        &["GB/s", "cpu", "membw", "nic rx", ""],
        &rows,
    );
    println!("(vertical lines of the paper: RM2 4.69, RM3 12.0, RM1 16.5 GB/s)");
}

fn fig9() {
    let node = NodeSpec::c_v1();
    let tax = DatacenterTax::production();
    let mut rows = Vec::new();
    for class in [RmClass::Rm1, RmClass::Rm2, RmClass::Rm3] {
        let (lab, projection, report) = measure(class);
        let scale = feature_scale(&lab, &projection);
        let demand = scaled_demand(&report, &tax, scale);
        let qps = node.max_rate(&demand);
        let util = node.utilization_at(&demand, qps);
        // CPU cycle split: transform / extract / misc (datacenter tax).
        let n = report.samples as f64;
        let xform = report.transform_cycles / n * scale;
        let extract = report.extract_cycles / n * scale;
        let misc = demand.cpu_cycles - xform - extract;
        let total_cpu = demand.cpu_cycles;
        rows.push(vec![
            lab.profile.class.to_string(),
            pct(util.cpu),
            pct(xform / total_cpu),
            pct(extract / total_cpu),
            pct(misc / total_cpu),
            pct(util.membw),
            pct(util.nic_rx),
            format!("{}", node.bottleneck(&demand)),
        ]);
    }
    print_table(
        "Fig 9: DPP Worker utilization at saturation on C-v1 (measured on synthetic RMs)",
        &[
            "model",
            "cpu",
            "..xform",
            "..extract",
            "..misc",
            "membw",
            "nic rx",
            "bottleneck",
        ],
        &rows,
    );
    println!("(paper: RM1 cpu+membw-bound with transform-heavy cycles; RM2 NIC-bound; RM3 memory-capacity-bound)");
}

// ----------------------------------------------------------------- tables

fn table2() {
    let snap = LifecycleModel::default().simulate(6, 6, 42);
    let reference = LifecycleSnapshot::table_ii_reference();
    let rows = vec![
        vec![
            "measured".into(),
            snap.beta.to_string(),
            snap.experimental.to_string(),
            snap.active.to_string(),
            snap.deprecated.to_string(),
            snap.total().to_string(),
        ],
        vec![
            "paper".into(),
            reference.beta.to_string(),
            reference.experimental.to_string(),
            reference.active.to_string(),
            reference.deprecated.to_string(),
            reference.total().to_string(),
        ],
    ];
    print_table(
        "Table II: fate of features proposed for RM1 in a 6-month window, 6 months later",
        &["", "beta", "experimental", "active", "deprecated", "total"],
        &rows,
    );
}

fn table3() {
    let rows: Vec<Vec<String>> = RmProfile::all()
        .iter()
        .map(|p| {
            vec![
                p.class.to_string(),
                f(p.all_partitions.as_pib(), 2),
                f(p.each_partition.as_pib(), 2),
                f(p.used_partitions.as_pib(), 2),
                p.partition_count().to_string(),
                p.used_partition_count().to_string(),
            ]
        })
        .collect();
    print_table(
        "Table III: compressed partition sizes (PB) and derived partition counts",
        &[
            "model",
            "all (PB)",
            "each (PB)",
            "used (PB)",
            "# parts",
            "# used",
        ],
        &rows,
    );
    // Measured analogue at lab scale.
    let lab = lab_for(RmClass::Rm1);
    let stats = warehouse::TableStats::collect(&lab.table);
    println!(
        "(lab-scale RM1 table: {} over {} partitions, mean {} / partition)",
        ByteSize(stats.total_bytes),
        stats.partition_bytes.len(),
        ByteSize(stats.mean_partition_bytes() as u64)
    );
}

fn table4() {
    let rows: Vec<Vec<String>> = RmProfile::all()
        .iter()
        .map(|p| {
            vec![
                p.class.to_string(),
                p.model_dense_features.to_string(),
                p.model_sparse_features.to_string(),
                p.model_derived_features.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table IV: features required by a release-candidate model version",
        &["model", "# dense", "# sparse", "# derived"],
        &rows,
    );
}

fn table5() {
    let mut rows = Vec::new();
    for class in [RmClass::Rm1, RmClass::Rm2, RmClass::Rm3] {
        let lab = lab_for(class);
        let projection = lab.rc_projection();
        let feats = warehouse::stats::projected_feature_fraction(&lab.table, &projection);
        let bytes = warehouse::stats::projected_byte_fraction(&lab.table, &projection);
        let p = &lab.profile;
        rows.push(vec![
            p.class.to_string(),
            p.dataset_float_features.to_string(),
            p.dataset_sparse_features.to_string(),
            f(p.sparse_coverage, 2),
            f(p.sparse_avg_len, 2),
            pct(feats),
            pct(bytes),
            format!(
                "{}/{}",
                pct(p.feats_used_fraction),
                pct(p.bytes_used_fraction)
            ),
        ]);
    }
    print_table(
        "Table V: dataset characteristics; % feats/bytes used measured from real file directories",
        &[
            "model",
            "# float",
            "# sparse",
            "cov",
            "avg len",
            "feats used",
            "bytes used",
            "paper (f/b)",
        ],
        &rows,
    );
}

fn table6() {
    // Execute a real RM1 scan against the simulated HDD cluster with IO
    // recording on, then report the distribution of on-disk IO sizes.
    let lab = lab_for(RmClass::Rm1);
    let projection = lab.rc_projection();
    lab.table.cluster().set_record_io_sizes(true);
    let scan = lab
        .table
        .scan(
            dsi_types::PartitionId::new(0)..dsi_types::PartitionId::new(lab.config.days),
            projection,
        )
        .with_policy(CoalescePolicy::None); // per-stream IOs, as in the paper's Table VI
    scan.read_all_with_stats().expect("lab scan succeeds");
    let mut sizes = lab.table.cluster().all_io_sizes();
    sizes.sort_unstable();
    let pctl = |p: f64| sizes[(p * (sizes.len() - 1) as f64).round() as usize];
    let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
    let var = sizes
        .iter()
        .map(|&s| (s as f64 - mean) * (s as f64 - mean))
        .sum::<f64>()
        / sizes.len() as f64;
    let rows = vec![
        vec![
            "measured (B)".into(),
            f(mean, 0),
            f(var.sqrt(), 0),
            pctl(0.05).to_string(),
            pctl(0.25).to_string(),
            pctl(0.50).to_string(),
            pctl(0.75).to_string(),
            pctl(0.95).to_string(),
        ],
        vec![
            "paper (B)".into(),
            "23.2K".into(),
            "117K".into(),
            "18".into(),
            "451".into(),
            "1.24K".into(),
            "3.92K".into(),
            "97.7K".into(),
        ],
    ];
    print_table(
        "Table VI: IO sizes for features read by an RM1 training job (per-stream reads)",
        &["", "mean", "std", "p5", "p25", "p50", "p75", "p95"],
        &rows,
    );
}

fn table7() {
    let (lab, projection, report) = measure(RmClass::Rm1);
    let scale = feature_scale(&lab, &projection);
    let n = report.samples as f64;
    let preproc = ResourceVector {
        cpu_cycles: (report.extract_cycles + report.transform_cycles) / n * scale,
        membw_bytes: report.membw_bytes / n * scale,
        ..Default::default()
    };
    let storage_rx = report.storage_rx_bytes as f64 / n * scale;
    let tensor_bytes = report.transform_tx_bytes as f64 / n * scale;
    let demand = GpuDemand::new(lab.profile.trainer_node_demand, tensor_bytes);
    let node = NodeSpec::trainer();
    let tax = DatacenterTax::production();
    let onhost = onhost_baseline(&node, &tax, &preproc, storage_rx, &demand);
    // The stall fraction also falls out of the virtual-time trainer sim.
    let sim = StallSim::from_rates(onhost.supply_qps / 128.0, onhost.demand_qps / 128.0, 8)
        .run(20_000, 7);
    let rows = vec![
        vec![
            "measured".into(),
            pct(onhost.stall_fraction),
            pct(onhost.utilization.cpu),
            pct(onhost.utilization.membw),
            pct(sim.stall_fraction),
        ],
        vec![
            "paper".into(),
            "56%".into(),
            "92%".into(),
            "54%".into(),
            "-".into(),
        ],
    ];
    print_table(
        "Table VII: RM1 preprocessing on the trainer host (no DPP)",
        &["", "time stalled", "cpu util", "membw util", "sim stall"],
        &rows,
    );
    println!(
        "(takeaway preserved: the host cannot feed the GPUs — supply {:.0}k of {:.0}k samples/s; \
         our simulated host is memory-bandwidth-bound where the paper's was CPU-bound)",
        onhost.supply_qps / 1e3,
        onhost.demand_qps / 1e3
    );
}

fn table8() {
    let rows: Vec<Vec<String>> = RmProfile::all()
        .iter()
        .map(|p| {
            vec![
                p.class.to_string(),
                f(p.trainer_node_demand / 1e9, 2),
                f(p.extract_to_load_ratio(), 2),
            ]
        })
        .collect();
    print_table(
        "Table VIII: per-trainer-node GPU ingestion demand",
        &["model", "GB/s", "extract/load bw ratio"],
        &rows,
    );
}

fn table9() {
    let node = NodeSpec::c_v1();
    let tax = DatacenterTax::production();
    let mut rows = Vec::new();
    for class in [RmClass::Rm1, RmClass::Rm2, RmClass::Rm3] {
        let (lab, projection, report) = measure(class);
        let scale = feature_scale(&lab, &projection);
        let demand = scaled_demand(&report, &tax, scale);
        let qps = node.max_rate(&demand);
        let n = report.samples as f64;
        let storage_rx = report.storage_rx_bytes as f64 / n * scale * qps;
        let xform_rx = report.transform_rx_bytes as f64 / n * scale * qps;
        let xform_tx = report.transform_tx_bytes as f64 / n * scale * qps;
        let p = &lab.profile;
        let nodes_req = p.trainer_node_demand / xform_tx.max(1.0);
        rows.push(vec![
            p.class.to_string(),
            f(qps / 1e3, 2),
            f(storage_rx / 1e9, 2),
            f(xform_rx / 1e9, 2),
            f(xform_tx / 1e9, 2),
            f(nodes_req, 1),
            format!(
                "{:.1}k/{:.2}/{:.2}/{:.2}/{:.1}",
                p.worker_kqps,
                p.worker_storage_rx / 1e9,
                p.worker_transform_rx / 1e9,
                p.worker_transform_tx / 1e9,
                p.workers_per_trainer
            ),
        ]);
    }
    print_table(
        "Table IX: DPP Worker saturation on C-v1 and workers needed per trainer node",
        &[
            "model",
            "kQPS",
            "storage rx GB/s",
            "xform rx GB/s",
            "xform tx GB/s",
            "# nodes",
            "paper",
        ],
        &rows,
    );
}

fn table10() {
    let rows: Vec<Vec<String>> = [NodeSpec::c_v1(), NodeSpec::c_v2(), NodeSpec::c_v3()]
        .iter()
        .map(|n| {
            vec![
                n.name.clone(),
                n.cores.to_string(),
                f(n.nic_gbps, 1),
                (n.mem_bytes >> 30).to_string(),
                f(n.membw_bytes_per_sec / 1e9, 0),
            ]
        })
        .collect();
    print_table(
        "Table X: compute server generations",
        &["node", "# cores", "NIC (Gbps)", "mem (GB)", "mem BW (GB/s)"],
        &rows,
    );
    println!(
        "(cores and NIC grow 2x while memory bandwidth grows ~1.1x: memBW becomes the bottleneck)"
    );
}

fn table11() {
    let descriptions: Vec<(&str, &str)> = vec![
        ("Cartesian", "Cartesian product between two sparse features"),
        ("Bucketize", "shard dense features by bucket borders"),
        ("ComputeScore", "arithmetic on sparse feature scores"),
        ("Enumerate", "like Python enumerate()"),
        ("PositiveModulus", "positive modulus on sparse features"),
        ("IdListTransform", "intersection of two sparse lists"),
        ("BoxCox", "Box-Cox normalization"),
        ("Logit", "logit normalization"),
        ("MapId", "map feature ids to fixed values"),
        ("FirstX", "sparse list truncation"),
        ("GetLocalHour", "local timestamp hour"),
        ("SigridHash", "hash-normalize sparse id lists"),
        ("NGram", "n-grams over sparse features"),
        ("Onehot", "one-hot encode dense features"),
        ("Clamp", "std::clamp"),
        ("Sampling", "randomly sample training rows"),
    ];
    let rows: Vec<Vec<String>> = descriptions
        .iter()
        .map(|(n, d)| vec![n.to_string(), d.to_string()])
        .collect();
    print_table(
        "Table XI: the production transform operations",
        &["op", "description"],
        &rows,
    );

    // Measured cycle-class split on the RM1 plan.
    let (_, _, report) = measure(RmClass::Rm1);
    let total = report.transform_cycles.max(1.0);
    println!(
        "measured transform cycle split: feature generation {} | sparse norm {} | dense norm {} (paper ~75/20/5)",
        pct(report.feature_generation_cycles / total),
        pct(report.sparse_normalization_cycles / total),
        pct(report.dense_normalization_cycles / total),
    );
}

// ------------------------------------------------------------ §VII extras

fn gap() {
    let rm1 = RmProfile::rm1();
    let trainers = 64.0;
    let storage_demand = trainers * rm1.workers_per_trainer * rm1.worker_storage_rx;
    let hdd_small = ProvisionPlan::for_workload(
        &StorageNodeClass::hdd(),
        rm1.used_partitions,
        3,
        storage_demand,
        PAPER_MEAN_IO,
    );
    let deployed_io = 512 * 1024; // post-coalescing effective IO size
    let hdd = ProvisionPlan::for_workload(
        &StorageNodeClass::hdd(),
        rm1.used_partitions,
        3,
        storage_demand,
        deployed_io,
    );
    let ssd = ProvisionPlan::for_workload(
        &StorageNodeClass::ssd(),
        rm1.used_partitions,
        3,
        storage_demand,
        deployed_io,
    );
    let tiered = TieredPlacement::plan(
        rm1.used_partitions,
        3,
        storage_demand,
        deployed_io,
        rm1.popular_bytes_for_80pct_traffic,
        0.8,
    );
    let hddc = StorageNodeClass::hdd();
    let ssdc = StorageNodeClass::ssd();
    let rows = vec![
        vec![
            "HDD @ Table VI IO (23 KiB)".into(),
            f(hdd_small.nodes_for_capacity, 0),
            f(hdd_small.nodes_for_iops, 0),
            f(hdd_small.throughput_to_storage_gap, 1),
            f(hdd_small.watts / 1e6, 2),
        ],
        vec![
            "HDD @ coalesced IO (512 KiB)".into(),
            f(hdd.nodes_for_capacity, 0),
            f(hdd.nodes_for_iops, 0),
            f(hdd.throughput_to_storage_gap, 1),
            f(hdd.watts / 1e6, 2),
        ],
        vec![
            "SSD @ coalesced IO".into(),
            f(ssd.nodes_for_capacity, 0),
            f(ssd.nodes_for_iops, 0),
            f(ssd.throughput_to_storage_gap, 2),
            f(ssd.watts / 1e6, 2),
        ],
        vec![
            "tiered (hot->SSD)".into(),
            f(
                tiered.cold.nodes_provisioned + tiered.hot.nodes_provisioned,
                0,
            ),
            "-".into(),
            "-".into(),
            f(tiered.watts() / 1e6, 2),
        ],
    ];
    print_table(
        "S7: RM1 storage provisioning at 64 trainer nodes (throughput-to-storage gap)",
        &[
            "configuration",
            "nodes for capacity",
            "nodes for IOPS",
            "gap",
            "MW",
        ],
        &rows,
    );
    println!(
        "(paper: >8x gap even with coalescing — measured {:.1}x; SSD vs HDD: {:.0}% IOPS/W at {:.0}% capacity/W — paper 326%/9%; tiering saves {:.0}% power vs all-HDD)",
        hdd.throughput_to_storage_gap,
        100.0 * ssdc.iops_per_watt() / hddc.iops_per_watt(),
        100.0 * ssdc.capacity_per_watt() / hddc.capacity_per_watt(),
        100.0 * (1.0 - tiered.watts() / hdd.watts),
    );
}

fn accel() {
    use dsi_types::FeatureId;
    let model = AccelModel::default();
    let ops = [
        TransformOp::SigridHash {
            input: FeatureId(1),
            salt: 0,
            modulus: 1000,
        },
        TransformOp::Bucketize {
            input: FeatureId(1),
            borders: vec![0.0, 1.0],
            output: FeatureId(2),
        },
        TransformOp::NGram {
            input: FeatureId(1),
            n: 2,
            output: FeatureId(2),
        },
        TransformOp::Logit {
            input: FeatureId(1),
        },
        TransformOp::MapId {
            input: FeatureId(1),
            mapping: Default::default(),
            default: None,
        },
    ];
    let rows: Vec<Vec<String>> = ops
        .iter()
        .map(|op| {
            let name = format!("{op:?}");
            let name = name.split([' ', '{']).next().unwrap_or("?").to_string();
            vec![name, f(AccelModel::gpu_speedup(op), 1)]
        })
        .collect();
    print_table(
        "S7: GPU/CPU speedup per transform op (paper measured SigridHash 11.9x, Bucketize 1.3x)",
        &["op", "speedup"],
        &rows,
    );
    let plan = TransformPlan::new(vec![
        TransformOp::SigridHash {
            input: FeatureId(1),
            salt: 0,
            modulus: 1000,
        };
        4
    ]);
    let rows: Vec<Vec<String>> = [8u64, 64, 512, 4096, 32768]
        .iter()
        .map(|&bs| {
            vec![
                bs.to_string(),
                f(model.effective_plan_speedup(&plan, bs, 25.0), 2),
            ]
        })
        .collect();
    print_table(
        "S7: effective offload speedup vs batch size (kernel-launch amortization)",
        &["batch", "speedup"],
        &rows,
    );
}

fn codesign() {
    // The §VII co-design ablation on the real byte path. Steps:
    //   0 baseline: unflattened maps, per-stream IO, id order, row-major
    //   1 +feature flattening
    //   2 +coalesced reads (1.25 MiB)
    //   3 +popularity-ordered write path
    //   4 +in-memory flatmaps (cheaper decode/batch)
    //
    // Stripes are sized near production (several MB) so sequential reads
    // and coalescing windows behave like they do on real HDD nodes.
    let cfg = LabConfig {
        features: 300,
        days: 2,
        rows_per_day: 2_500,
        rows_per_stripe: 1_250,
        seed: 0xc0de5,
    };
    let tax = DatacenterTax::production();
    let node = NodeSpec::c_v1();
    let hdd = hwsim::DiskModel::hdd();
    // The production coalescing window is 1.25 MiB against multi-GB
    // stripes; the lab's stripes are ~4 MB, so the window scales down
    // proportionally to preserve the gap-vs-window geometry.
    let window = CoalescePolicy::Window(256 * 1024);
    let rowmajor_cost = ExtractCostModel {
        decode_cycles_per_byte: 6.0,
        decode_membw_per_byte: 12.0,
        batch_membw_per_byte: 6.0,
        ..Default::default()
    };
    let flatmap_cost = ExtractCostModel::default();

    struct Step {
        name: &'static str,
        flattened: bool,
        popularity: bool,
        policy: CoalescePolicy,
        cost: ExtractCostModel,
    }
    let steps = [
        Step {
            name: "baseline (maps, row-major)",
            flattened: false,
            popularity: false,
            policy: CoalescePolicy::None,
            cost: rowmajor_cost,
        },
        Step {
            name: "+feature flattening",
            flattened: true,
            popularity: false,
            policy: CoalescePolicy::None,
            cost: rowmajor_cost,
        },
        Step {
            name: "+coalesced reads",
            flattened: true,
            popularity: false,
            policy: window,
            cost: rowmajor_cost,
        },
        Step {
            name: "+popularity write order",
            flattened: true,
            popularity: true,
            policy: window,
            cost: rowmajor_cost,
        },
        Step {
            name: "+in-memory flatmaps",
            flattened: true,
            popularity: true,
            policy: window,
            cost: flatmap_cost,
        },
    ];

    // Reference: fraction of stored stream bytes the projection selects,
    // measured on a flattened twin (map files cannot express it).
    let flat_fraction = {
        let lab = RmLab::build(RmClass::Rm1, cfg);
        let projection = lab.rc_projection();
        warehouse::stats::projected_byte_fraction(&lab.table, &projection)
    };

    let mut rows = Vec::new();
    let mut baseline: Option<(f64, f64)> = None;
    let mut last_measured = (1.0f64, 1.0f64, 1.0f64, 1.0f64);
    for step in &steps {
        // Build the lab with this step's write path.
        let writer = if step.popularity {
            let seed_lab = RmLab::build(RmClass::Rm1, cfg);
            WriterOptions {
                flattened: step.flattened,
                ..seed_lab.popularity_writer_options()
            }
        } else {
            WriterOptions {
                flattened: step.flattened,
                rows_per_stripe: cfg.rows_per_stripe,
                ..Default::default()
            }
        };
        let lab = RmLab::build_with_writer(RmClass::Rm1, cfg, Some(writer));
        let projection = lab.rc_projection();
        let spec = lab.session_spec(projection, 128);
        let report = lab.measure_worker_custom(&spec, step.policy, Some(step.cost));

        // DPP throughput: saturation QPS on C-v1.
        let demand = report.per_sample_demand(&tax);
        let dpp_qps = node.max_rate(&demand);

        // Storage effectiveness per HDD node: integrate the real per-IO
        // service times of the scan (each IO pays a seek + transfer),
        // discounted to the *useful* fraction — stream bytes belonging to
        // features the job actually uses.
        lab.table.cluster().set_record_io_sizes(true);
        lab.table.cluster().reset_stats();
        let scan = lab
            .table
            .scan(spec.partitions(), spec.projection.clone())
            .with_policy(step.policy);
        let (_, stats) = scan.read_all_with_stats().expect("lab scan succeeds");
        let sizes = lab.table.cluster().all_io_sizes();
        let service_secs: f64 = sizes
            .iter()
            .map(|&len| hdd.service_time_ns(hwsim::IoRequest::new(u64::MAX / 2, len)) as f64 / 1e9)
            .sum();
        let io_size = stats.mean_io_size().max(1.0) as u64;
        let useful_stream = if step.flattened {
            stats.wanted_bytes as f64
        } else {
            stats.wanted_bytes as f64 * flat_fraction
        };
        let useful_fraction = useful_stream / stats.read_bytes.max(1) as f64;
        let storage_bps = stats.read_bytes as f64 / service_secs.max(1e-9) * useful_fraction;

        let (b_dpp, b_sto) = *baseline.get_or_insert((dpp_qps, storage_bps));
        let dpp_x = dpp_qps / b_dpp;
        let sto_x = storage_bps / b_sto;
        // Remember the final step's geometry for the production projection.
        let total_stream_bytes: u64 = lab.table.total_encoded_bytes();
        last_measured = (
            dpp_x,
            stats.read_bytes as f64 / total_stream_bytes.max(1) as f64,
            useful_fraction,
            flat_fraction,
        );
        // Power: nodes on each leg scale inversely with throughput; weigh
        // DPP:storage power 60:40 as provisioned for RM1.
        let power_x = 1.0 / (0.6 / dpp_x + 0.4 / sto_x);
        rows.push(vec![
            step.name.into(),
            f(dpp_qps / 1e3, 2),
            f(io_size as f64 / 1024.0, 1),
            pct(useful_fraction),
            f(dpp_x, 2),
            f(sto_x, 2),
            f(power_x, 2),
        ]);
    }
    // Final row: project the measured byte fractions to production stripe
    // sizes (hundreds of MB), where transfer time dominates seeks. The
    // baseline reads whole stripes; the optimized path reads only the
    // popularity-clustered hot region in a handful of coalesced IOs.
    {
        let (dpp_x, read_frac, useful_frac, base_useful) = last_measured;
        let stripe = 256.0 * 1024.0 * 1024.0; // production-scale stripe
        let seek_s = 8.0e-3;
        let bw = 200.0e6;
        let time_base = seek_s + stripe / bw;
        let time_opt = 4.0 * seek_s + read_frac * stripe / bw;
        let eff_base = base_useful * stripe / time_base;
        let eff_opt = useful_frac * read_frac * stripe / time_opt;
        let sto_x = eff_opt / eff_base;
        let power_x = 1.0 / (0.6 / dpp_x + 0.4 / sto_x);
        rows.push(vec![
            "(projected @ 256 MB stripes)".into(),
            "-".into(),
            "-".into(),
            pct(useful_frac),
            f(dpp_x, 2),
            f(sto_x, 2),
            f(power_x, 2),
        ]);
    }
    print_table(
        "S7 co-design ablation (RM1): flattening + coalescing + write order + flatmaps",
        &[
            "configuration",
            "DPP kQPS",
            "IO KiB",
            "useful",
            "DPP x",
            "storage x",
            "power x",
        ],
        &rows,
    );
    println!("(paper: 2.94x DPP, 2.41x storage throughput, 2.59x lower DSI power overall;");
    println!(" lab stripes are ~4 MB where sequential whole-stripe reads are near-optimal, so the");
    println!(" storage win only materializes at production stripe scale — the projected row)");
}

/// RecD-style end-to-end deduplication ablation: sweep the dataset's
/// session-duplication ratio and compare dedup-off vs dedup-on along all
/// three legs — bytes on disk, DPP worker saturation throughput, and the
/// trainer's loading demand — plus the `dsi_dedup_*` metric catalog as a
/// `PipelineReport` section.
fn dedup_ablation(smoke: bool) {
    use dedup::DedupConfig;
    use trainer::DedupIngest;

    let ratios: &[f64] = if smoke {
        &[1.0, 4.0]
    } else {
        &[1.0, 2.0, 4.0, 8.0]
    };
    // Production-scale stripes: the RecD labs log 64-bit hashed ids, and a
    // stripe must hold enough rows that per-stripe id cardinality exceeds
    // the dictionary threshold — as it does in production, where these
    // streams are never dictionary-encoded. Smaller stripes would let the
    // dictionary soak up the session redundancy and understate both sides.
    let cfg = if smoke {
        LabConfig {
            features: 60,
            days: 1,
            rows_per_day: 8192,
            rows_per_stripe: 4096,
            seed: 0xd0d0,
        }
    } else {
        LabConfig {
            features: 120,
            days: 2,
            rows_per_day: 8192,
            rows_per_stripe: 4096,
            seed: 0xd0d0,
        }
    };
    // Raw byte path: compression/encryption off so the measured reduction
    // is the format's, not a side effect of the LZ window re-finding the
    // duplicates (extract cycles are charged on these bytes either way).
    let raw_writer = WriterOptions {
        compressed: false,
        encrypted: false,
        rows_per_stripe: cfg.rows_per_stripe,
        ..Default::default()
    };
    let node = NodeSpec::c_v1();
    let tax = DatacenterTax::production();

    let mut rows = Vec::new();
    let mut headline: Option<(f64, f64, f64)> = None;
    for &ratio in ratios {
        let dcfg = DedupConfig::with_ratio(ratio);
        let dup = (ratio > 1.0).then_some(dcfg);

        // Dedup-off pipeline: plain files, plain transform executor.
        let lab_off = RmLab::build_dedup(RmClass::Rm1, cfg, Some(raw_writer.clone()), dup);
        // Dedup-on pipeline: DedupSet stream encoding + set-aware executor.
        let dedup_writer = WriterOptions {
            dedup: true,
            dedup_window: dcfg.session_window,
            ..raw_writer.clone()
        };
        let lab_on = RmLab::build_dedup(RmClass::Rm1, cfg, Some(dedup_writer), dup);

        let bytes_off = lab_off.table.total_encoded_bytes();
        let bytes_on = lab_on.table.total_encoded_bytes();

        let projection = lab_off.rc_projection();
        let spec_off = lab_off.session_spec(projection.clone(), 128);
        let mut spec_on = lab_on.session_spec(projection, 128);
        spec_on.dedup = Some(dcfg);
        let r_off = lab_off.measure_worker(&spec_off);
        let r_on = lab_on.measure_worker(&spec_on);
        let qps_off = r_off.saturation_qps(&node, &tax);
        let qps_on = r_on.saturation_qps(&node, &tax);

        // Trainer leg: shared-tensor ingestion cost per sample.
        let mut ingest = DedupIngest::default();
        let scan = lab_on
            .table
            .scan(spec_on.partitions(), spec_on.projection.clone())
            .with_policy(spec_on.policy);
        let mut worker = dpp::Worker::new(
            dsi_types::WorkerId(1),
            std::sync::Arc::new(spec_on.clone()),
            scan.clone(),
        );
        for split in scan.plan_splits() {
            for t in worker.process_split(&split).expect("lab reads succeed") {
                ingest.accept(&t);
            }
        }
        if let Some(t) = worker.flush() {
            ingest.accept(&t);
        }
        let load_full = tax.rx_cost(ingest.full_bytes as f64 / ingest.rows.max(1) as f64);
        let load_dedup = ingest.per_sample_loading_demand(&tax);

        if (ratio - 4.0).abs() < 1e-9 {
            headline = Some((
                bytes_off as f64 / bytes_on.max(1) as f64,
                qps_on / qps_off.max(1e-9),
                r_on.dedup_reuse_hits as f64,
            ));
        }
        rows.push(vec![
            f(ratio, 0),
            f(bytes_off as f64 / 1e6, 2),
            f(bytes_on as f64 / 1e6, 2),
            format!("{:.2}x", bytes_off as f64 / bytes_on.max(1) as f64),
            f(qps_off / 1e3, 2),
            f(qps_on / 1e3, 2),
            format!("{:.2}x", qps_on / qps_off.max(1e-9)),
            r_on.dedup_reuse_hits.to_string(),
            format!(
                "{:.2}x",
                load_full.cpu_cycles / load_dedup.cpu_cycles.max(1e-9)
            ),
        ]);
    }
    print_table(
        "Extension (RecD): end-to-end dedup ablation vs dataset duplication ratio (RM1, raw byte path)",
        &[
            "dup ratio",
            "disk off MB",
            "disk on MB",
            "disk win",
            "kQPS off",
            "kQPS on",
            "DPP win",
            "reuse hits",
            "trainer load win",
        ],
        &rows,
    );
    if let Some((disk_win, dpp_win, reuse)) = headline {
        println!(
            "(at 4x duplication: {disk_win:.2}x fewer bytes on disk, {dpp_win:.2}x DPP worker \
             throughput, {reuse:.0} transform ops fanned out instead of recomputed; \
             ratio 1 rows show the dedup-off baseline is unchanged)"
        );
    }

    // The dsi_dedup_* catalog end to end: a deduped table write plus a
    // dedup-aware worker publishing into one registry.
    let reg = dsi_obs::Registry::new();
    let dcfg = DedupConfig::with_ratio(4.0);
    let lab = RmLab::build_dedup(
        RmClass::Rm1,
        cfg,
        Some(WriterOptions {
            dedup: true,
            dedup_window: dcfg.session_window,
            ..raw_writer
        }),
        Some(dcfg),
    );
    lab.table.attach_registry(&reg);
    let schema = lab.table.schema();
    let extra: Vec<dsi_types::Sample> = synth::SampleGenerator::new(&schema, cfg.seed ^ 0xfe)
        .with_duplication(dcfg)
        .with_hashed_ids()
        .take_samples(256);
    lab.table
        .write_partition(dsi_types::PartitionId::new(cfg.days), extra)
        .expect("lab cluster has capacity");
    let mut spec = lab.session_spec(lab.rc_projection(), 128);
    spec.dedup = Some(dcfg);
    lab.measure_worker(&spec).publish_metrics(&reg);
    let report = dsi_obs::PipelineReport::collect(&reg);
    println!(
        "PipelineReport dedup section: sets {}  rows {}  ratio {:.2}x  bytes saved {}  reuse hits {}",
        report.dedup_sets,
        report.dedup_rows,
        report.dedup_ratio,
        report.dedup_bytes_saved,
        report.dedup_reuse_hits
    );
}

/// The narrow exploratory job shape (§V, Table V) the fastpath and trace
/// ablations share: every 12th logged feature, batch 256 and no transform
/// plan, so coalesced over-reads make it extract-bound.
fn extract_bound_spec(lab: &RmLab) -> dpp::SessionSpec {
    let schema = lab.table.schema();
    let narrow = Projection::new(schema.logged_ids().into_iter().step_by(12).collect());
    let mut spec = lab.session_spec(narrow.clone(), 256);
    spec.plan = TransformPlan::empty();
    spec.sparse_ids = schema
        .ids_of_kind(dsi_types::FeatureKind::Sparse)
        .into_iter()
        .filter(|f| narrow.contains(*f))
        .collect();
    spec
}

/// Fastpath ablation: the same seeded RM1 deployment consumed end to end
/// (storage → DPP workers → client) with the hot path on — zero-copy
/// pooled decode plus the three-stage worker pipeline — versus off — the
/// legacy copying decode, sequential split loop. Reports wall-clock
/// samples/sec and decode-path memcpy volume, and writes the machine-
/// readable summary to `BENCH_fastpath.json`.
fn fastpath_ablation(smoke: bool) {
    use dedup::DedupConfig;
    use dpp::DppSession;

    let cfg = if smoke {
        LabConfig {
            features: 60,
            days: 1,
            rows_per_day: 32768,
            rows_per_stripe: 2048,
            seed: 0xfa57,
        }
    } else {
        LabConfig {
            features: 120,
            days: 2,
            rows_per_day: 32768,
            rows_per_stripe: 2048,
            seed: 0xfa57,
        }
    };
    // Production-width payloads: sparse streams carry 64-bit hashed ids
    // (their dominant byte share on disk), so the decode path moves the
    // byte volume the fastpath targets. Compression/encryption off keeps
    // the two decode modes' *shared* work identical, isolating the memcpy
    // difference the ablation measures.
    let writer = WriterOptions {
        compressed: false,
        encrypted: false,
        rows_per_stripe: cfg.rows_per_stripe,
        ..Default::default()
    };
    // Production-sized Tectonic blocks (64 MiB): coalesced windows land in
    // one block, so block-spanning assembly — the one copy even the
    // fastpath must pay — is the exception, as it is in the fleet.
    let lab = RmLab::build_custom(
        RmClass::Rm1,
        cfg,
        Some(writer),
        Some(DedupConfig::with_ratio(1.0)), // ratio 1: hashed ids, no duplication
        Some(tectonic::ClusterConfig {
            nodes: 8,
            block_size: 64 * 1024 * 1024,
            replication: 3,
            hdd: true,
        }),
    );

    // Two job shapes. First, the paper's common case (§V, Table V): a
    // narrow exploratory job projecting a small feature subset, whose
    // coalesced reads over-fetch whole windows — the legacy path memcpys
    // every over-read byte into per-read buffers while decode only parses
    // the wanted streams, so this job is extract-bound. Second, a wide RC
    // job with the full production transform plan (Amdahl: transform
    // cycles dilute the decode win).
    let extract_bound = extract_bound_spec(&lab);
    let wide = lab.rc_projection();
    let full_plan = lab.session_spec(wide, 256);

    let best = |base: &dpp::SessionSpec, read_ahead: usize, fastpath: bool| {
        let mut spec = base.clone();
        spec.read_ahead = read_ahead;
        spec.fastpath = fastpath;
        best_of(5, || {
            drain(
                DppSession::launch(lab.table.clone(), spec.clone(), 2)
                    .expect("lab selection is non-empty"),
            )
        })
    };

    // Read-ahead pipelining overlaps storage fetch with transform CPU,
    // which is only physical when the host has a second hardware thread;
    // on a single-thread box the stage threads merely time-slice, adding
    // scheduler jitter to the measurement without any overlap. The on-arm
    // therefore measures the decode + columnar win sequentially there.
    let read_ahead = if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
        4
    } else {
        0
    };
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (job, base) in [
        ("narrow extract-bound", &extract_bound),
        ("wide full-plan", &full_plan),
    ] {
        let (qps_off, r_off) = best(base, 0, false);
        let (qps_on, r_on) = best(base, read_ahead, true);
        let speedup = qps_on / qps_off.max(1e-9);
        for (label, qps, r) in [("off", qps_off, &r_off), ("on", qps_on, &r_on)] {
            rows.push(vec![
                job.into(),
                label.into(),
                f(qps / 1e3, 1),
                f(r.copied_bytes as f64 / 1e6, 2),
                f(
                    (r.storage_rx_bytes + r.storage_wanted_bytes) as f64 / 1e6,
                    2,
                ),
            ]);
        }
        results.push((job, qps_on, qps_off, speedup, r_on, r_off));
    }
    print_table(
        "Extension (fastpath): zero-copy pooled decode + pipelined prefetch, on vs off (RM1, same seed)",
        &["job", "hot path", "kQPS", "copied MB", "storage MB"],
        &rows,
    );
    let (_, _, _, speedup, r_on, r_off) = &results[0];
    let (_, _, _, full_speedup, _, _) = &results[1];
    // Undefined when the fastpath copies nothing.
    let reduction =
        (r_on.copied_bytes > 0).then(|| r_off.copied_bytes as f64 / r_on.copied_bytes as f64);
    let reduction_str = match reduction {
        Some(x) => format!("{x:.1}x fewer"),
        None => "eliminated entirely".into(),
    };
    println!(
        "(extract-bound job: {speedup:.2}x end-to-end samples/s with decode-path memcpys \
         {reduction_str} — {:.1} MB copied per epoch off vs {:.1} MB on; the transform-heavy \
         job sees {full_speedup:.2}x, its decode share diluted by transform cycles)",
        r_off.copied_bytes as f64 / 1e6,
        r_on.copied_bytes as f64 / 1e6,
    );

    let mut rec = BenchRecord::default();
    rec.put_num("samples_per_sec_on", results[0].1, 1)
        .put_num("samples_per_sec_off", results[0].2, 1)
        .put_num("speedup", *speedup, 3)
        .put_num("speedup_full_plan", *full_speedup, 3)
        .put_int("copied_bytes_on", r_on.copied_bytes)
        .put_int("copied_bytes_off", r_off.copied_bytes);
    if let Some(x) = reduction {
        rec.put_num("copy_reduction", x, 1);
    }
    rec.put_int("samples", r_on.samples)
        .put("smoke", Value::Bool(smoke));
    write_artifact("BENCH_fastpath.json", &rec.to_json());
}

fn wire_ablation(smoke: bool) {
    use dpp::{DppSession, Transport, WireConfig};
    use dsi_obs::{PipelineReport, Registry};

    let cfg = if smoke {
        LabConfig {
            features: 60,
            days: 1,
            rows_per_day: 8_192,
            rows_per_stripe: 1_024,
            seed: 0xd51f,
        }
    } else {
        LabConfig {
            features: 120,
            days: 2,
            rows_per_day: 16_384,
            rows_per_stripe: 1_024,
            seed: 0xd51f,
        }
    };
    let lab = RmLab::build(RmClass::Rm1, cfg);
    let base = lab.session_spec(lab.rc_projection(), 256);

    // One end-to-end run per transport over the same table and seed: the
    // only variable is how tensors travel from workers to the client —
    // through a channel, or serialized over localhost TCP (optionally
    // ciphered and compressed). The measured wire_* counters are the
    // datacenter tax (§IV-D) paid for real rather than modeled.
    let run = |transport: Transport| {
        let mut spec = base.clone();
        spec.transport = transport;
        let reg = Registry::new();
        let session =
            DppSession::launch(lab.table.clone(), spec, 2).expect("lab selection is non-empty");
        session.attach_registry(&reg);
        (drain(session).0, PipelineReport::collect(&reg))
    };
    let trials = if smoke { 2 } else { 5 };

    let key = 0x00D5_1F00;
    let variants = [
        ("in-process", Transport::InProcess),
        ("tcp", Transport::Tcp(WireConfig::plaintext())),
        ("tcp+cipher", Transport::Tcp(WireConfig::encrypted(key))),
        (
            "tcp+cipher+zip",
            Transport::Tcp(WireConfig {
                encrypt: true,
                compress: true,
                key,
            }),
        ),
    ];
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (label, transport) in variants {
        let (qps, pr) = best_of(trials, || run(transport));
        rows.push(vec![
            label.into(),
            f(qps / 1e3, 1),
            f(pr.wire_payload_bytes as f64 / 1e6, 2),
            f(pr.wire_tx_bytes as f64 / 1e6, 2),
            f(pr.wire_compression_ratio(), 2),
            format!("{}/{}", pr.wire_zipped_frames, pr.wire_zip_skipped_frames),
            f(pr.wire_compress_nanos as f64 / 1e6, 1),
            f(pr.wire_serialize_nanos as f64 / 1e6, 1),
            f(pr.wire_encrypt_nanos as f64 / 1e6, 1),
            f(pr.wire_deserialize_nanos as f64 / 1e6, 1),
            f(pr.wire_tax_seconds() * 1e3, 1),
        ]);
        results.push((label, qps, pr));
    }
    print_table(
        "Extension (wire): framed TCP data plane vs in-process channel (RM1, same seed)",
        &[
            "transport",
            "kQPS",
            "payload MB",
            "tx MB",
            "comp",
            "zipped/skipped",
            "zip ms",
            "ser ms",
            "cipher ms",
            "deser ms",
            "tax ms",
        ],
        &rows,
    );
    let inproc = results[0].1;
    let tcp = &results[1];
    let secure = &results[3];
    println!(
        "(localhost TCP keeps {:.0}% of in-process throughput; serialization is {:.0}% of the \
         wire tax and the cipher adds {:.1} ms/epoch — the paper's \"significant portion of \
         power\" spent on transport, measured instead of modeled)",
        tcp.1 / inproc.max(1e-9) * 100.0,
        secure.2.wire_serialize_nanos as f64
            / (secure.2.wire_serialize_nanos
                + secure.2.wire_encrypt_nanos
                + secure.2.wire_deserialize_nanos)
                .max(1) as f64
            * 100.0,
        secure.2.wire_encrypt_nanos as f64 / 1e6,
    );

    let pr = &secure.2;
    let mut rec = BenchRecord::default();
    rec.put_num("samples_per_sec_inprocess", inproc, 1)
        .put_num("samples_per_sec_tcp", tcp.1, 1)
        .put_num("samples_per_sec_tcp_cipher", results[2].1, 1)
        .put_num("samples_per_sec_tcp_cipher_zip", secure.1, 1)
        .put_int("wire_frames", pr.wire_frames)
        .put_int("wire_payload_bytes", pr.wire_payload_bytes)
        .put_int("wire_tx_bytes", pr.wire_tx_bytes)
        .put_num("compression_ratio", pr.wire_compression_ratio(), 3)
        .put_int("zipped_frames", pr.wire_zipped_frames)
        .put_int("zip_skipped_frames", pr.wire_zip_skipped_frames)
        .put_int("compress_nanos", pr.wire_compress_nanos)
        .put_int("serialize_nanos", pr.wire_serialize_nanos)
        .put_int("encrypt_nanos", pr.wire_encrypt_nanos)
        .put_int("deserialize_nanos", pr.wire_deserialize_nanos)
        .put_num("wire_tax_seconds", pr.wire_tax_seconds(), 6)
        .put_int("reconnects", pr.wire_reconnects)
        .put_int("samples", pr.worker_samples)
        .put("smoke", Value::Bool(smoke));
    write_artifact("BENCH_wire.json", &rec.to_json());
}

/// Extension (durability): replicated, self-healing Tectonic under replica
/// loss. For R in {2, 3}, runs one clean epoch as a throughput baseline,
/// then an epoch where the most-loaded storage node is killed a third of
/// the way in: the heartbeat detector declares it dead, its chunks queue
/// for rebuild, and the queue drains at a bounded per-batch IOPS budget so
/// rebuild traffic contends with the epoch's own foreground reads on the
/// same simulated disks. Reports the measured foreground share of disk
/// IOs, rebuild volume, and residual under-replication (must be zero).
/// Writes `BENCH_durability.json`.
fn durability_ablation(smoke: bool) {
    use dpp::DppSession;
    use std::time::Instant;
    use tectonic::ClusterConfig;

    let cfg = if smoke {
        LabConfig {
            features: 60,
            days: 1,
            rows_per_day: 4_096,
            rows_per_stripe: 512,
            seed: 0xd94,
        }
    } else {
        LabConfig {
            features: 120,
            days: 2,
            rows_per_day: 16_384,
            rows_per_stripe: 1_024,
            seed: 0xd94,
        }
    };
    let batch = 256usize;
    let budget_per_batch = 8u64;
    let trials = if smoke { 2 } else { 3 };

    struct Variant {
        r: usize,
        qps_base: f64,
        qps_rebuild: f64,
        rebuild_ios: u64,
        total_ios: u64,
        foreground_share: f64,
        rebuilt_chunks: u64,
        under_replicated_final: u64,
        failovers: u64,
        samples: u64,
    }

    let run_r = |r: usize| -> Variant {
        // Small blocks so the victim holds many chunks and the rebuild
        // queue is deep enough for budget pacing to matter.
        let lab = RmLab::build_custom(
            RmClass::Rm3,
            cfg,
            None,
            None,
            Some(ClusterConfig {
                nodes: 8,
                block_size: 256 * 1024,
                replication: r,
                hdd: true,
            }),
        );
        let spec = lab.session_spec(lab.rc_projection(), batch);
        let cluster = lab.table.cluster().clone();

        let launch = || {
            DppSession::launch(lab.table.clone(), spec.clone(), 2)
                .expect("lab selection is non-empty")
        };
        let (qps_base, _) = best_of(trials, || drain(launch()));

        // The rebuild epoch: same table, same spec, but the most-loaded
        // node dies a third of the way through, and every consumed batch
        // buys the rebuild queue a small IO budget.
        let victim = {
            let mut held: std::collections::HashMap<dsi_types::NodeId, u64> =
                std::collections::HashMap::new();
            for path in cluster.list_files() {
                for replicas in cluster.stat(&path).expect("listed file stats").blocks {
                    for n in replicas {
                        *held.entry(n).or_insert(0) += 1;
                    }
                }
            }
            held.into_iter()
                .max_by_key(|&(n, c)| (c, std::cmp::Reverse(n.0)))
                .expect("non-empty cluster")
                .0
        };
        let total_batches = (cfg.days as u64 * cfg.rows_per_day).div_ceil(batch as u64);
        let kill_at = total_batches / 3;
        cluster.reset_stats();
        let ios0 = cluster.total_stats().ios;
        let d0 = cluster.durability();
        let session = launch();
        let mut client = session.client();
        let start = Instant::now();
        let mut samples = 0u64;
        let mut batches = 0u64;
        while let Some(t) = client.next_batch() {
            samples += t.batch_size() as u64;
            batches += 1;
            if batches == kill_at {
                cluster.fail_node(victim);
                for _ in 0..tectonic::DEFAULT_HEARTBEAT_K {
                    cluster.heartbeat_tick();
                }
            } else if batches > kill_at {
                cluster.pump_rebuild(budget_per_batch);
            }
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let report = session.shutdown();
        assert_eq!(report.samples, samples, "exactly-once delivery");
        // Foreground is done; drain whatever backlog the per-batch budget
        // left, still in budgeted pumps.
        while cluster.pump_rebuild(budget_per_batch).remaining > 0 {}
        let d1 = cluster.durability();
        let total_ios = cluster.total_stats().ios - ios0;
        let rebuild_ios = d1.rebuild_ios - d0.rebuild_ios;
        Variant {
            r,
            qps_base,
            qps_rebuild: samples as f64 / secs,
            rebuild_ios,
            total_ios,
            foreground_share: (total_ios.saturating_sub(rebuild_ios)) as f64
                / (total_ios.max(1)) as f64,
            rebuilt_chunks: d1.rebuilt_chunks - d0.rebuilt_chunks,
            under_replicated_final: d1.under_replicated,
            failovers: d1.failovers - d0.failovers,
            samples,
        }
    };

    let variants: Vec<Variant> = [2usize, 3].iter().map(|&r| run_r(r)).collect();
    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|v| {
            vec![
                format!("R{}", v.r),
                f(v.qps_base / 1e3, 1),
                f(v.qps_rebuild / 1e3, 1),
                f(v.qps_rebuild / v.qps_base.max(1e-9), 2),
                v.rebuild_ios.to_string(),
                v.total_ios.to_string(),
                pct(v.foreground_share),
                v.rebuilt_chunks.to_string(),
                v.under_replicated_final.to_string(),
            ]
        })
        .collect();
    print_table(
        "Extension (durability): node loss mid-epoch, budgeted rebuild vs foreground (RM3)",
        &[
            "repl",
            "base kQPS",
            "rebuild kQPS",
            "ratio",
            "rebuild IOs",
            "total IOs",
            "fg share",
            "rebuilt",
            "under-rep",
        ],
        &rows,
    );
    let r3 = variants.last().expect("two variants");
    let r2 = variants.first().expect("two variants");
    println!(
        "(killing the most-loaded of 8 nodes mid-epoch: the epoch still delivers every sample, \
         rebuild at {budget_per_batch} IOs/batch restores R{} with foreground keeping {} of disk \
         IOs, and {} chunks re-replicate without a single one left under-replicated)",
        r3.r,
        pct(r3.foreground_share),
        r3.rebuilt_chunks,
    );

    let mut rec = BenchRecord::default();
    rec.put_num("samples_per_sec_baseline", r3.qps_base, 1)
        .put_num("samples_per_sec_rebuild", r3.qps_rebuild, 1)
        .put_num(
            "throughput_ratio",
            r3.qps_rebuild / r3.qps_base.max(1e-9),
            3,
        )
        .put_num("foreground_share", r3.foreground_share, 4)
        .put_int("rebuild_ios", r3.rebuild_ios)
        .put_int("total_ios", r3.total_ios)
        .put_int("rebuild_chunks", r3.rebuilt_chunks)
        .put_int(
            "under_replicated_final",
            r3.under_replicated_final.max(r2.under_replicated_final),
        )
        .put_int("failovers", r3.failovers)
        .put_int("rebuild_budget_per_batch", budget_per_batch)
        .put_num("r2_samples_per_sec_rebuild", r2.qps_rebuild, 1)
        .put_num("r2_foreground_share", r2.foreground_share, 4)
        .put_int("r2_rebuild_chunks", r2.rebuilt_chunks)
        .put_int("r2_under_replicated_final", r2.under_replicated_final)
        .put_int("samples", r3.samples)
        .put("smoke", Value::Bool(smoke));
    write_artifact("BENCH_durability.json", &rec.to_json());
}

/// Extension (trace): end-to-end per-batch distributed tracing. Measures
/// the sampling overhead of the default 1-in-4 rate against tracing-off on
/// the same table and seed, then runs one known extract-bound and one known
/// transform-bound job at full sampling and checks the critical-path
/// analyzer's bottleneck verdicts. Writes `BENCH_trace.json` plus a
/// Perfetto-loadable `PERFETTO_trace.json` holding a few example traces.
fn trace_ablation(smoke: bool) {
    use dpp::DppSession;
    use dsi_obs::Registry;
    use dsi_trace::TraceConfig;

    let cfg = if smoke {
        LabConfig {
            features: 60,
            days: 1,
            rows_per_day: 8_192,
            rows_per_stripe: 1_024,
            seed: 0x7ace,
        }
    } else {
        LabConfig {
            features: 120,
            days: 2,
            rows_per_day: 16_384,
            rows_per_stripe: 1_024,
            seed: 0x7ace,
        }
    };
    let lab = RmLab::build(RmClass::Rm1, cfg);

    // One end-to-end run: the registry is attached before the first worker
    // spawns so split 0 is traced, and the whole session drains through a
    // client as usual.
    let run = |base: &dpp::SessionSpec, trace: TraceConfig| {
        let mut spec = base.clone();
        spec.trace = trace;
        let reg = Registry::new();
        let session =
            DppSession::launch_observed_chaos(lab.table.clone(), spec, 2, Some(&reg), None)
                .expect("lab selection is non-empty");
        let (qps, report) = drain(session);
        (qps, reg, report.samples)
    };
    // ---- overhead: default sampling vs off, identical spec and seed.
    // Short runs are scheduler-noise-dominated, so trials interleave the
    // two configurations (each pair shares machine conditions) and each
    // side keeps its best; one warmup run heats the allocator and caches.
    let base = lab.session_spec(lab.rc_projection(), 256);
    let trials = if smoke { 7 } else { 5 };
    let (_, reg_on, samples) = run(&base, TraceConfig::default_sampled());
    let sampled_spans = reg_on.trace_spans().len();
    let (mut qps_off, mut qps_on) = (0.0f64, 0.0f64);
    for _ in 0..trials {
        let (q_off, _, _) = run(&base, TraceConfig::off());
        let (q_on, _, _) = run(&base, TraceConfig::default_sampled());
        qps_off = qps_off.max(q_off);
        qps_on = qps_on.max(q_on);
    }
    let overhead_pct = (qps_off - qps_on) / qps_off.max(1e-9) * 100.0;

    // ---- two known job shapes at full sampling, for verdicts. The
    // extract-bound job projects a narrow feature subset with no transform
    // plan (coalesced over-reads dominate); the transform-bound one runs
    // the full production plan tiled 8x over the wide RC projection.
    let extract_spec = extract_bound_spec(&lab);
    let mut transform_spec = lab.session_spec(lab.rc_projection(), 256);
    let tiled: Vec<TransformOp> = (0..8)
        .flat_map(|_| transform_spec.plan.ops().to_vec())
        .collect();
    transform_spec.plan = TransformPlan::new(tiled);

    let mut rows = Vec::new();
    let mut reports = Vec::new();
    let mut perfetto_spans = Vec::new();
    for (job, spec) in [
        ("narrow extract-bound", &extract_spec),
        ("tiled transform-bound", &transform_spec),
    ] {
        let (_, reg, _) = run(spec, TraceConfig::all());
        let spans = reg.trace_spans();
        if reg.trace_dropped() == 0 {
            dsi_trace::validate(&spans).expect("traces are structurally valid");
        }
        let report = dsi_trace::analyze(&spans);
        rows.push(vec![
            job.into(),
            f(report.traces as f64, 0),
            f(report.spans as f64, 0),
            f(report.categories.extract * 1e3, 1),
            f(report.categories.transform * 1e3, 1),
            f(report.categories.wire * 1e3, 1),
            f(report.end_to_end_p50_ms, 2),
            report.verdict.as_str().into(),
        ]);
        if perfetto_spans.is_empty() {
            // Keep a handful of example traces for the Perfetto export so
            // the committed artifact stays small.
            let mut keep: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
            keep.sort_unstable();
            keep.dedup();
            keep.truncate(3);
            perfetto_spans = spans
                .iter()
                .filter(|s| keep.contains(&s.trace_id))
                .copied()
                .collect();
        }
        reports.push((job, report));
    }
    print_table(
        "Extension (trace): per-batch distributed tracing + critical-path attribution (RM1, same seed)",
        &[
            "job",
            "traces",
            "spans",
            "extract ms",
            "transform ms",
            "wire ms",
            "e2e p50 ms",
            "verdict",
        ],
        &rows,
    );
    let extract_verdict = reports[0].1.verdict;
    let transform_verdict = reports[1].1.verdict;
    assert_eq!(
        extract_verdict,
        dsi_trace::Verdict::ExtractBound,
        "narrow no-plan job must attribute to extract"
    );
    assert_eq!(
        transform_verdict,
        dsi_trace::Verdict::TransformBound,
        "tiled full-plan job must attribute to transform"
    );
    println!(
        "(default 1-in-{} sampling costs {overhead_pct:.2}% end-to-end throughput \
         ({:.0} vs {:.0} samples/s) and collected {sampled_spans} spans; the analyzer \
         attributes the narrow job to {} and the tiled-plan job to {})",
        dsi_trace::DEFAULT_SAMPLE_ONE_IN,
        qps_on,
        qps_off,
        extract_verdict.as_str(),
        transform_verdict.as_str(),
    );
    if !perfetto_spans.is_empty() {
        println!("\nexample trace (extract-bound job):");
        let first = perfetto_spans[0].trace_id;
        let one: Vec<_> = perfetto_spans
            .iter()
            .filter(|s| s.trace_id == first)
            .copied()
            .collect();
        print!("{}", dsi_trace::text_tree(&one));
    }

    let mut rec = BenchRecord::default();
    rec.put_num("samples_per_sec_off", qps_off, 1)
        .put_num("samples_per_sec_traced", qps_on, 1)
        .put_num("overhead_pct", overhead_pct, 3)
        .put_int("sample_one_in", dsi_trace::DEFAULT_SAMPLE_ONE_IN.into())
        .put_int("sampled_spans", sampled_spans as u64);
    for (block, (_, r)) in ["extract_bound", "transform_bound"].iter().zip(&reports) {
        let key = |name: &str| format!("{block}_{name}");
        rec.put_int(&key("traces"), r.traces as u64)
            .put_int(&key("spans"), r.spans as u64)
            .put(&key("verdict"), Value::Str(r.verdict.as_str().into()))
            .put_num(&key("extract_ms"), r.categories.extract * 1e3, 3)
            .put_num(&key("transform_ms"), r.categories.transform * 1e3, 3)
            .put_num(&key("wire_ms"), r.categories.wire * 1e3, 3)
            .put_num(&key("trainer_ms"), r.categories.trainer * 1e3, 3)
            .put_num(&key("end_to_end_p50_ms"), r.end_to_end_p50_ms, 3);
    }
    rec.put_int("samples", samples)
        .put("smoke", Value::Bool(smoke));
    write_artifact("BENCH_trace.json", &rec.to_json());
    let perfetto = dsi_trace::perfetto_json(&perfetto_spans);
    write_artifact("PERFETTO_trace.json", &perfetto);
    println!("(load it at https://ui.perfetto.dev)");
}

/// Per-tenant measurements from one arm of the tenancy ablation.
#[derive(Clone, Copy, Default)]
struct TenantStat {
    samples: u64,
    batches: u64,
    starved: u64,
    secs: f64,
    max_deficit: usize,
    preemptions: u64,
}

impl TenantStat {
    fn qps(&self) -> f64 {
        self.samples as f64 / self.secs.max(1e-9)
    }
    /// Fraction of client polls that found no batch while the job was
    /// still incomplete — the trainer-side starvation signal.
    fn stall_fraction(&self) -> f64 {
        self.starved as f64 / (self.starved + self.batches).max(1) as f64
    }
}

/// Multi-tenancy ablation: three tenants (two low-priority, one
/// high-priority arriving mid-run) on one shared 6-slot fleet under the
/// reconciler, vs the same three jobs on statically partitioned workers
/// (2 each, no reallocation). The reconciler converges the early jobs to
/// 3+3, then preempts down to 1+1 to give the priority-4 arrival 4
/// workers; after the low-priority epochs finish it re-expands. Every
/// job must still deliver its epoch exactly once.
fn tenancy_ablation(smoke: bool) {
    use dpp::DppSession;
    use dsi_fleet::{FleetConfig, FleetDriver, JobSpec, TenantId};
    use dsi_obs::{PipelineReport, Registry};
    use dsi_types::SessionId;
    use std::time::{Duration, Instant};

    let cfg = if smoke {
        LabConfig {
            features: 60,
            days: 1,
            rows_per_day: 4_096,
            rows_per_stripe: 512,
            seed: 0x7e4a,
        }
    } else {
        LabConfig {
            features: 100,
            days: 2,
            rows_per_day: 16_384,
            rows_per_stripe: 512,
            seed: 0x7e4a,
        }
    };
    let lab = RmLab::build(RmClass::Rm1, cfg);
    let batch = 256usize;
    let rows_per_job = cfg.days as u64 * cfg.rows_per_day;
    let batches_per_job = rows_per_job / batch as u64;

    // Tenant line-up: A and B are equal low-priority batch jobs that can
    // use the whole fleet; C is a high-priority job (weight 4, floor 2)
    // submitted once A+B are ~25% through their epochs.
    let spec_for = |id: u64| {
        let mut spec = lab.session_spec(lab.rc_projection(), batch);
        spec.id = SessionId(id);
        spec
    };
    let demands = [(1u64, 1u32, 1usize, 6usize), (2, 1, 1, 6), (3, 4, 2, 4)];
    let ids = [SessionId(1), SessionId(2), SessionId(3)];

    // ---- reconciler arm: one FleetDriver over 2 nodes x 3 slots.
    let reg = Registry::new();
    let fleet = FleetConfig {
        nodes: 2,
        slots_per_node: 3,
    };
    let driver = FleetDriver::new(fleet);
    driver.attach_registry(&reg);
    let mut stats = [TenantStat::default(); 3];
    let mut starts = [Instant::now(); 3];
    let mut ends: [Option<Instant>; 3] = [None; 3];
    let mut clients = Vec::new();
    for i in 0..2 {
        let (id, priority, min, max) = demands[i];
        let spec = JobSpec::new(spec_for(id), TenantId(id), priority, min, max);
        driver
            .submit(spec, lab.table.clone())
            .expect("fresh job id");
        starts[i] = Instant::now();
        clients.push((i, driver.client(ids[i]).expect("job submitted")));
    }
    let mut c_submitted = false;
    let mut idle = 0u32;
    loop {
        driver.tick();
        for (i, &id) in ids.iter().enumerate() {
            if let Some(status) = driver.registry().status(id) {
                stats[i].max_deficit = stats[i].max_deficit.max(status.fair_share_deficit);
            }
        }
        if !c_submitted && stats[0].batches + stats[1].batches >= batches_per_job / 2 {
            let (id, priority, min, max) = demands[2];
            let spec = JobSpec::new(spec_for(id), TenantId(id), priority, min, max);
            driver
                .submit(spec, lab.table.clone())
                .expect("fresh job id");
            starts[2] = Instant::now();
            clients.push((2, driver.client(ids[2]).expect("job submitted")));
            c_submitted = true;
        }
        let mut progressed = false;
        for (i, client) in clients.iter_mut() {
            let mut got = false;
            while let Some(tensor) = client.try_next_batch() {
                stats[*i].samples += tensor.batch_size() as u64;
                stats[*i].batches += 1;
                got = true;
            }
            if got {
                progressed = true;
            } else if ends[*i].is_none() {
                stats[*i].starved += 1;
            }
            if ends[*i].is_none() && driver.is_complete(ids[*i]) {
                ends[*i] = Some(Instant::now());
            }
        }
        if c_submitted && ends.iter().all(|e| e.is_some()) {
            break;
        }
        if progressed {
            idle = 0;
        } else {
            idle += 1;
            assert!(idle < 60_000, "fleet made no progress for 60s");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    driver.tick(); // publish final statuses
    for (i, &id) in ids.iter().enumerate() {
        stats[i].secs = (ends[i].unwrap() - starts[i]).as_secs_f64();
        stats[i].preemptions = driver.registry().status(id).expect("job known").preemptions;
        assert_eq!(stats[i].samples, rows_per_job, "tenant {id} exactly-once");
        driver.remove(id).expect("job known").shutdown();
    }
    let report = PipelineReport::collect(&reg);
    let preemptions_total = report.fleet_preemptions();
    let reconciles = report.fleet_reconciles;
    assert!(
        preemptions_total >= 1,
        "the high-priority arrival must preempt at least one worker"
    );
    let fleet_stats = stats;

    // ---- static arm: the same three jobs, 2 dedicated workers each, no
    // control plane. C launches at the same ~25% trigger.
    let mut stats = [TenantStat::default(); 3];
    let mut starts = [Instant::now(); 3];
    let mut ends: [Option<Instant>; 3] = [None; 3];
    let mut sessions = Vec::new();
    for i in 0..2 {
        let session = DppSession::launch(lab.table.clone(), spec_for(demands[i].0), 2)
            .expect("lab selection is non-empty");
        starts[i] = Instant::now();
        sessions.push((i, session.client(), session));
    }
    let mut c_submitted = false;
    let mut idle = 0u32;
    loop {
        if !c_submitted && stats[0].batches + stats[1].batches >= batches_per_job / 2 {
            let session = DppSession::launch(lab.table.clone(), spec_for(demands[2].0), 2)
                .expect("lab selection is non-empty");
            starts[2] = Instant::now();
            sessions.push((2, session.client(), session));
            c_submitted = true;
        }
        let mut progressed = false;
        for (i, client, session) in sessions.iter_mut() {
            let mut got = false;
            while let Some(tensor) = client.try_next_batch() {
                stats[*i].samples += tensor.batch_size() as u64;
                stats[*i].batches += 1;
                got = true;
            }
            if got {
                progressed = true;
            } else if ends[*i].is_none() {
                stats[*i].starved += 1;
            }
            if ends[*i].is_none() && session.is_complete() {
                ends[*i] = Some(Instant::now());
            }
        }
        if c_submitted && ends.iter().all(|e| e.is_some()) {
            break;
        }
        if progressed {
            idle = 0;
        } else {
            idle += 1;
            assert!(idle < 60_000, "static sessions made no progress for 60s");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for (i, _, _) in sessions.iter() {
        stats[*i].secs = (ends[*i].unwrap() - starts[*i]).as_secs_f64();
        // Under static partitioning a job is permanently short of its
        // full demand by however much its fixed 2 slots miss max_workers.
        stats[*i].max_deficit = demands[*i].3.saturating_sub(2);
        assert_eq!(
            stats[*i].samples, rows_per_job,
            "static tenant exactly-once"
        );
    }
    for (_, _, session) in sessions {
        session.shutdown();
    }
    let static_stats = stats;

    let mut rows = Vec::new();
    for (i, name) in ["A (pri 1)", "B (pri 1)", "C (pri 4, late)"]
        .iter()
        .enumerate()
    {
        for (arm, s) in [
            ("reconciler", &fleet_stats[i]),
            ("static 2+2+2", &static_stats[i]),
        ] {
            rows.push(vec![
                name.to_string(),
                arm.into(),
                f(s.samples as f64, 0),
                f(s.qps(), 0),
                pct(s.stall_fraction()),
                f(s.max_deficit as f64, 0),
                f(s.preemptions as f64, 0),
            ]);
        }
    }
    print_table(
        "Extension (tenancy): 3 tenants on one 6-slot fleet — reconciler vs static partition (RM1, same seed)",
        &[
            "tenant",
            "arm",
            "samples",
            "samples/s",
            "stall",
            "max deficit",
            "preempted",
        ],
        &rows,
    );
    let speedup = fleet_stats[2].qps() / static_stats[2].qps().max(1e-9);
    println!(
        "({reconciles} reconcile ticks moved {preemptions_total} workers by preemption; the \
         high-priority arrival ran {speedup:.2}x the static partition's samples/s)",
    );

    let put_arm = |rec: &mut BenchRecord, arm: &str, stats: &[TenantStat; 3]| {
        for (tenant, s) in ["tenant_a", "tenant_b", "tenant_c"].iter().zip(stats) {
            let key = |name: &str| format!("{arm}_{tenant}_{name}");
            rec.put_int(&key("samples"), s.samples)
                .put_num(&key("samples_per_sec"), s.qps(), 1)
                .put_num(&key("stall_fraction"), s.stall_fraction(), 4)
                .put_int(&key("max_deficit"), s.max_deficit as u64)
                .put_int(&key("preemptions"), s.preemptions);
        }
    };
    let mut rec = BenchRecord::default();
    rec.put_int("fleet_slots", (fleet.nodes * fleet.slots_per_node) as u64)
        .put_int("rows_per_job", rows_per_job);
    put_arm(&mut rec, "reconciler", &fleet_stats);
    rec.put_int("reconciler_preemptions_total", preemptions_total)
        .put_int("reconciler_reconcile_ticks", reconciles);
    put_arm(&mut rec, "static", &static_stats);
    rec.put_num("high_priority_speedup", speedup, 3)
        .put("smoke", Value::Bool(smoke));
    write_artifact("BENCH_tenancy.json", &rec.to_json());
}

// ------------------------------------------------- extension experiments

/// Autoscaler trace: a virtual-time DPP session converging onto RM1's
/// trainer demand from one worker (the §III-B1 controller in action),
/// simulated by `dsi_tune::run_scenario` with the watermark scaler as the
/// policy and the measured per-worker rate as the only binding stage.
fn fleet() {
    use dsi_tune::{run_scenario, Scenario};
    let (lab, projection, report) = measure(RmClass::Rm1);
    let scale = feature_scale(&lab, &projection);
    let tax = DatacenterTax::production();
    let per_sample = scaled_demand(&report, &tax, scale);
    // One trainer node of RM1 demand, in samples/s.
    let tensor_bytes = report.transform_tx_bytes as f64 / report.samples as f64 * scale;
    let demand_qps = lab.profile.trainer_node_demand / tensor_bytes;
    let per_worker_qps = NodeSpec::c_v1().max_rate(&per_sample);
    let s = Scenario::fixed_rate(demand_qps, per_worker_qps);
    let trace = run_scenario(&s, &mut s.static_policy());
    let batch = s.initial.batch_size as f64;
    let rows: Vec<Vec<String>> = trace
        .points
        .iter()
        .step_by(6)
        .map(|pt| {
            vec![
                f(pt.t, 0),
                pt.knobs.workers.to_string(),
                f(pt.buffered / batch, 0),
                f(pt.supply / 1e3, 1),
                if pt.stall > 0.0 {
                    "STALL".into()
                } else {
                    String::new()
                },
                "#".repeat(pt.knobs.workers.min(60)),
            ]
        })
        .collect();
    print_table(
        "Extension: autoscaler trace — one RM1 trainer node, workers ramping from 1",
        &["t (s)", "workers", "buffered", "kQPS", "", ""],
        &rows,
    );
    // Share of ticks with any stall (not `stall_fraction`, which weights
    // each tick by its deficit).
    let stalled = trace.points.iter().filter(|p| p.stall > 0.0).count();
    println!(
        "(ideal {:.1} workers for {:.0}k samples/s; converged to {} with {:.1}% time stalled — paper Table IX: 24.2 workers/trainer)",
        demand_qps / per_worker_qps,
        demand_qps / 1e3,
        trace.final_knobs.workers,
        stalled as f64 / trace.points.len() as f64 * 100.0
    );
}

/// Capacity planning: trainers per 10 MW budget, and what the §VII 2.59x
/// DSI power reduction buys back.
fn capacity() {
    let power = PowerModel::production();
    let budget = 10e6;
    let mut rows = Vec::new();
    for profile in RmProfile::all() {
        let before = cluster::plan_capacity(&profile, budget, COALESCED_MEAN_IO, &power, 1.0);
        let after = cluster::plan_capacity(&profile, budget, COALESCED_MEAN_IO, &power, 2.59);
        rows.push(vec![
            profile.class.to_string(),
            f(before.trainers, 0),
            pct(before.dsi_fraction),
            f(after.trainers, 0),
            pct(after.dsi_fraction),
            format!("{:.2}x", after.trainers / before.trainers),
        ]);
    }
    print_table(
        "Extension: trainer capacity in a 10 MW datacenter, before/after the 2.59x DSI power reduction",
        &[
            "model",
            "trainers",
            "DSI share",
            "trainers @2.59x",
            "DSI share",
            "capacity gain",
        ],
        &rows,
    );
    println!(
        "(the paper's motivation quantified: DSI power converts directly into training capacity)"
    );
}

/// Per-sample demand scaled from lab feature counts to production counts.
fn scaled_demand(report: &WorkerReport, tax: &DatacenterTax, scale: f64) -> ResourceVector {
    let base = report.per_sample_demand(tax);
    ResourceVector {
        cpu_cycles: base.cpu_cycles * scale,
        membw_bytes: base.membw_bytes * scale,
        nic_rx_bytes: base.nic_rx_bytes * scale,
        nic_tx_bytes: base.nic_tx_bytes * scale,
        resident_bytes: base.resident_bytes * scale,
        residency_secs: base.residency_secs,
    }
}

/// Extension (ROADMAP item 4): closed-loop online tuning vs the static
/// watermark autoscaler over four deterministic pipeline scenarios
/// (extract-bound, transform-bound, trainer-bound, diurnal load). Both
/// policies run the same virtual-time simulation, the same knob fences,
/// the same synthesized signal stream; the report compares time to
/// converge (suffix-mean stall under the 2% target) and steady-state
/// stall (mean of the final third). Writes `BENCH_autotune.json`.
fn autotune_ablation(smoke: bool) {
    use dsi_tune::{run_scenario, Scenario};

    let scenarios: Vec<Scenario> = Scenario::all()
        .into_iter()
        .map(|s| if smoke { s.smoke() } else { s })
        .collect();

    let mut rows = Vec::new();
    let mut rec = BenchRecord::default();
    rec.put_int("scenario_count", scenarios.len() as u64)
        .put_num("stall_target", scenarios[0].stall_target, 3);
    for s in &scenarios {
        let mut tuner = dsi_tune::OnlineTuner::new(dsi_tune::TunerConfig {
            bounds: s.bounds,
            stall_target: s.stall_target,
            ..dsi_tune::TunerConfig::default()
        });
        let tuned = run_scenario(s, &mut tuner);
        let stat = run_scenario(s, &mut s.static_policy());
        let scen = s.name.replace('-', "_");
        for (name, arm, t) in [
            ("online-tuner", "tuner", &tuned),
            ("static-watermark", "static", &stat),
        ] {
            let knobs = t.final_knobs;
            rows.push(vec![
                s.name.to_string(),
                name.into(),
                f(t.time_to_converge, 0),
                pct(t.steady_stall),
                pct(t.stall_fraction),
                f(t.mean_workers, 1),
                format!(
                    "w={} ra={} b={} p={}",
                    knobs.workers, knobs.read_ahead, knobs.batch_size, knobs.parallelism
                ),
            ]);
            let key = |metric: &str| format!("{scen}_{arm}_{metric}");
            rec.put_num(&key("ttc_s"), t.time_to_converge, 1)
                .put_num(&key("steady_stall"), t.steady_stall, 5)
                .put_num(&key("overall_stall"), t.stall_fraction, 5)
                .put_num(&key("mean_workers"), t.mean_workers, 2)
                .put_int(&key("final_workers"), knobs.workers as u64)
                .put_int(&key("final_read_ahead"), knobs.read_ahead as u64)
                .put_int(&key("final_batch"), knobs.batch_size as u64)
                .put_int(&key("final_parallelism"), knobs.parallelism as u64);
        }
    }
    print_table(
        "Extension (autotune): closed-loop tuner vs static watermark scaler (virtual-time, 2% stall target)",
        &[
            "scenario",
            "policy",
            "ttc (s)",
            "steady stall",
            "overall stall",
            "mean workers",
            "final knobs",
        ],
        &rows,
    );
    println!(
        "(ttc = first time after which every sliding-window mean stall stays under target; \
         duration caps a never-converging run)"
    );
    rec.put("smoke", Value::Bool(smoke));
    write_artifact("BENCH_autotune.json", &rec.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|n| n.to_string()).collect()
    }

    #[test]
    fn unknown_experiment_is_rejected_with_the_valid_names() {
        let err = check_names(&names(&["fig7", "nosuch"]), &experiment_names()).unwrap_err();
        assert!(
            err.starts_with("unknown name nosuch; valid names: fig1 "),
            "{err}"
        );
        assert!(err.ends_with(" fleet capacity all"), "{err}");
    }

    #[test]
    fn every_experiment_and_all_are_accepted() {
        let known = experiment_names();
        let every: Vec<String> = known.iter().map(|n| n.to_string()).collect();
        assert_eq!(check_names(&every, &known), Ok(()));
        assert_eq!(check_names(&[], &known), Ok(()));
    }

    #[test]
    fn gate_rejects_unknown_and_ungated_targets() {
        for target in ["nosuch", "trace", "tenancy", "all"] {
            assert!(
                check_names(&names(&[target]), &GATES).is_err(),
                "gate {target} has no gate"
            );
        }
        assert_eq!(check_names(&names(&GATES), &GATES), Ok(()));
        assert_eq!(check_names(&[], &GATES), Ok(()));
    }
}
