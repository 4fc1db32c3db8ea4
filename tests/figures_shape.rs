//! Shape assertions for the paper's headline results, measured end-to-end
//! on the simulated deployment (slower, coarse-scale checks; the `figures`
//! binary prints the full tables).

use dsi_bench::{BenchRecord, LabConfig, RmLab, Value};
use dsi_types::{ByteSize, PIB};
use hwsim::{DatacenterTax, NodeSpec, PowerModel};
use synth::{GrowthModel, JobProjectionSampler, RmClass, RmProfile};
use tectonic::{ProvisionPlan, StorageNodeClass, TieredPlacement};
use trainer::loading_sweep;

/// Parses the committed `BENCH_{ablation}.json` at the repo root, which
/// must come from a full-size run.
fn artifact(ablation: &str) -> BenchRecord {
    let path = format!("{}/BENCH_{ablation}.json", env!("CARGO_MANIFEST_DIR"));
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "BENCH_{ablation}.json is committed at the repo root (run `figures {ablation}`): {e}"
        )
    });
    let rec = BenchRecord::parse(&body).unwrap_or_else(|e| panic!("BENCH_{ablation}.json: {e}"));
    let smoke = rec.get("smoke");
    assert_eq!(smoke, Ok(&Value::Bool(false)), "committed run is full-size");
    rec
}

/// The number under `key`; panics naming the key when it is absent.
fn num(rec: &BenchRecord, key: &str) -> f64 {
    rec.num(key).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn fig1_dsi_power_exceeds_half_for_worker_heavy_models() {
    let power = PowerModel::production();
    for profile in RmProfile::all() {
        let prov = cluster::provision_model(&profile, 16.0, 1 << 20, &power);
        assert!(
            prov.power.dsi_fraction() > 0.5,
            "{}: DSI share {:.2}",
            profile.class,
            prov.power.dsi_fraction()
        );
    }
}

#[test]
fn fig2_growth_doubles_size_quadruples_bandwidth() {
    let last = *GrowthModel::default().trajectory(8).last().unwrap();
    assert!(last.dataset_size > 2.0 && last.dataset_size < 2.5);
    assert!(last.ingestion_bandwidth > 4.0 && last.ingestion_bandwidth < 4.8);
}

#[test]
fn fig7_popularity_ordering_holds_across_models() {
    let bytes_at_80 = |profile: &RmProfile| {
        let schema = profile.build_schema(400);
        let sampler = JobProjectionSampler::new(&schema, profile, 11);
        JobProjectionSampler::bytes_for_traffic(&sampler.popularity_cdf(25, 3), 0.8)
    };
    let rm1 = bytes_at_80(&RmProfile::rm1());
    let rm3 = bytes_at_80(&RmProfile::rm3());
    // RM3 concentrates: fewer popular bytes absorb 80% of traffic.
    assert!(rm3 < rm1, "rm3 {rm3:.2} vs rm1 {rm1:.2}");
    assert!(rm1 < 0.6, "popular bytes dominate traffic: {rm1:.2}");
    assert!(rm3 < 0.35, "rm3 hot set is small: {rm3:.2}");
}

#[test]
fn fig8_loading_alone_consumes_significant_host_resources() {
    let node = NodeSpec::trainer();
    let tax = DatacenterTax::production();
    let pt = &loading_sweep(&node, &tax, &[16.5e9])[0];
    assert!(pt.utilization.cpu > 0.3 && pt.utilization.cpu < 0.5);
    assert!(pt.utilization.membw > 0.45 && pt.utilization.membw < 0.65);
    assert!(pt.utilization.nic_rx > 0.6, "approaching NIC saturation");
}

#[test]
fn table9_worker_throughput_ordering_and_scale() {
    let node = NodeSpec::c_v1();
    let tax = DatacenterTax::production();
    let qps = |class: RmClass| {
        let lab = RmLab::build(class, LabConfig::default());
        let projection = lab.rc_projection();
        let model_features =
            (lab.profile.model_dense_features + lab.profile.model_sparse_features) as f64;
        let scale = model_features / projection.len().max(1) as f64;
        let report = lab.measure_worker(&lab.session_spec(projection, 128));
        let d = report.per_sample_demand(&tax);
        let scaled = hwsim::ResourceVector {
            cpu_cycles: d.cpu_cycles * scale,
            membw_bytes: d.membw_bytes * scale,
            nic_rx_bytes: d.nic_rx_bytes * scale,
            nic_tx_bytes: d.nic_tx_bytes * scale,
            ..d
        };
        node.max_rate(&scaled)
    };
    let rm1 = qps(RmClass::Rm1);
    let rm2 = qps(RmClass::Rm2);
    let rm3 = qps(RmClass::Rm3);
    // Paper ordering: RM3 (36.9k) > RM1 (11.6k) > RM2 (8.0k).
    assert!(
        rm3 > rm1 && rm1 > rm2,
        "qps rm1 {rm1:.0} rm2 {rm2:.0} rm3 {rm3:.0}"
    );
    // Several-fold spread between the extremes.
    assert!(rm3 / rm2 > 3.0, "spread {:.1}", rm3 / rm2);
    // RM1 lands within 3x of the paper's 11.6 kQPS.
    assert!(
        (4_000.0..35_000.0).contains(&rm1),
        "rm1 saturation {rm1:.0} qps"
    );
}

#[test]
fn s7_storage_gap_exceeds_8x_at_table_vi_io_sizes() {
    let rm1 = RmProfile::rm1();
    let demand = 64.0 * rm1.workers_per_trainer * rm1.worker_storage_rx;
    let plan = ProvisionPlan::for_workload(
        &StorageNodeClass::hdd(),
        rm1.used_partitions,
        3,
        demand,
        23_200,
    );
    assert!(
        plan.throughput_to_storage_gap > 8.0,
        "gap {:.1}",
        plan.throughput_to_storage_gap
    );
    // SSD flips to capacity-bound.
    let ssd = ProvisionPlan::for_workload(
        &StorageNodeClass::ssd(),
        rm1.used_partitions,
        3,
        demand,
        1 << 20,
    );
    assert!(ssd.throughput_to_storage_gap < 1.0);
}

#[test]
fn s7_tiering_beats_single_medium_power() {
    let rm1 = RmProfile::rm1();
    let demand = 64.0 * rm1.workers_per_trainer * rm1.worker_storage_rx;
    let io = 512 * 1024;
    let hdd =
        ProvisionPlan::for_workload(&StorageNodeClass::hdd(), rm1.used_partitions, 3, demand, io);
    let ssd =
        ProvisionPlan::for_workload(&StorageNodeClass::ssd(), rm1.used_partitions, 3, demand, io);
    let tiered = TieredPlacement::plan(rm1.used_partitions, 3, demand, io, 0.39, 0.8);
    assert!(
        tiered.watts() < hdd.watts.min(ssd.watts),
        "tiered {:.2} MW vs hdd {:.2} / ssd {:.2}",
        tiered.watts() / 1e6,
        hdd.watts / 1e6,
        ssd.watts / 1e6
    );
}

#[test]
fn s7_codesign_improves_dpp_and_power() {
    // Baseline (unflattened, scattered, row-major) vs fully optimized, on
    // a stripe size large enough for sequential reads to matter.
    use dpp::ExtractCostModel;
    use dwrf::{CoalescePolicy, WriterOptions};
    let cfg = LabConfig {
        features: 200,
        days: 2,
        rows_per_day: 1_500,
        rows_per_stripe: 750,
        seed: 0xc0de,
    };
    let tax = DatacenterTax::production();
    let node = NodeSpec::c_v1();
    let rowmajor = ExtractCostModel {
        decode_cycles_per_byte: 6.0,
        decode_membw_per_byte: 12.0,
        batch_membw_per_byte: 6.0,
        ..Default::default()
    };
    let baseline_lab = RmLab::build_with_writer(
        RmClass::Rm1,
        cfg,
        Some(WriterOptions {
            flattened: false,
            rows_per_stripe: cfg.rows_per_stripe,
            ..Default::default()
        }),
    );
    let spec = baseline_lab.session_spec(baseline_lab.rc_projection(), 128);
    let base = baseline_lab.measure_worker_custom(&spec, CoalescePolicy::None, Some(rowmajor));
    let base_qps = node.max_rate(&base.per_sample_demand(&tax));

    let opt_lab = {
        let seed = RmLab::build(RmClass::Rm1, cfg);
        RmLab::build_with_writer(RmClass::Rm1, cfg, Some(seed.popularity_writer_options()))
    };
    let spec = opt_lab.session_spec(opt_lab.rc_projection(), 128);
    let opt = opt_lab.measure_worker_custom(
        &spec,
        CoalescePolicy::default_window(),
        Some(ExtractCostModel::default()),
    );
    let opt_qps = node.max_rate(&opt.per_sample_demand(&tax));
    assert!(
        opt_qps / base_qps > 1.3,
        "co-design should raise worker throughput: {:.2}x",
        opt_qps / base_qps
    );
    // The optimized path wants far fewer storage bytes per sample (the
    // flattening win); coalescing trades some of it back as over-read.
    let base_bytes = base.storage_wanted_bytes as f64 / base.samples as f64;
    let opt_bytes = opt.storage_wanted_bytes as f64 / opt.samples as f64;
    assert!(
        base_bytes / opt_bytes > 1.5,
        "wanted bytes/sample {base_bytes:.0} -> {opt_bytes:.0}"
    );
}

#[test]
fn trace_bench_artifact_matches_schema() {
    // `figures trace` commits its ablation results; validate the schema and
    // the acceptance envelope (overhead under 3%, verdicts on the two known
    // job shapes).
    let rec = artifact("trace");
    assert!(num(&rec, "samples_per_sec_off") > 0.0);
    assert!(num(&rec, "samples_per_sec_traced") > 0.0);
    assert!(
        num(&rec, "overhead_pct") < 3.0,
        "default-rate tracing overhead out of envelope"
    );
    assert_eq!(num(&rec, "sample_one_in") as u64, 4, "default sample rate");
    assert!(
        num(&rec, "sampled_spans") >= 1.0,
        "sampling collected spans"
    );
    assert!(num(&rec, "samples") > 0.0);
    for (block, verdict, job) in [
        ("extract_bound", "extract", "narrow job verdict"),
        ("transform_bound", "transform", "tiled job verdict"),
    ] {
        let key = |name: &str| format!("{block}_{name}");
        for name in ["extract_ms", "transform_ms", "wire_ms", "trainer_ms"] {
            num(&rec, &key(name));
        }
        assert!(num(&rec, &key("traces")) >= 1.0, "{block}: no traces");
        assert!(
            num(&rec, &key("spans")) > num(&rec, &key("traces")),
            "{block}: spans per trace"
        );
        assert!(
            num(&rec, &key("end_to_end_p50_ms")) > 0.0,
            "{block}: degenerate p50"
        );
        assert_eq!(
            rec.get(&key("verdict")),
            Ok(&Value::Str(verdict.into())),
            "{job}"
        );
    }
}

#[test]
fn tenancy_bench_artifact_matches_schema() {
    // `figures tenancy` commits the multi-tenant ablation: 3 tenants on one
    // 6-slot fleet, reconciler vs static partitioning. Validate the schema
    // and the acceptance envelope (every tenant delivered its full epoch,
    // the high-priority arrival was served by preemption and beat the
    // static partition).
    let rec = artifact("tenancy");
    assert_eq!(num(&rec, "fleet_slots") as u64, 6);
    let rows = num(&rec, "rows_per_job");
    assert!(rows > 0.0);
    for arm in ["reconciler", "static"] {
        for tenant in ["tenant_a", "tenant_b", "tenant_c"] {
            let key = |name: &str| format!("{arm}_{tenant}_{name}");
            assert_eq!(
                num(&rec, &key("samples")),
                rows,
                "{arm}/{tenant} exactly-once"
            );
            assert!(
                num(&rec, &key("samples_per_sec")) > 0.0,
                "{arm}/{tenant} rate"
            );
            let stall = num(&rec, &key("stall_fraction"));
            assert!((0.0..=1.0).contains(&stall), "{arm}/{tenant} stall");
        }
    }
    assert!(
        num(&rec, "reconciler_preemptions_total") >= 1.0,
        "the high-priority arrival preempts"
    );
    assert!(
        num(&rec, "reconciler_reconcile_ticks") >= 1.0,
        "reconcile ticks recorded"
    );
    assert!(
        num(&rec, "high_priority_speedup") > 1.0,
        "priority tenant must beat its static partition"
    );
}

#[test]
fn fastpath_bench_artifact_matches_schema() {
    // `figures fastpath` commits the decode-fastpath ablation: read-ahead +
    // zero-copy extract on vs off, plus the wide full-plan job that used to
    // regress behind the row path. Validate the schema and the acceptance
    // envelope.
    let rec = artifact("fastpath");
    assert!(num(&rec, "samples_per_sec_on") > num(&rec, "samples_per_sec_off"));
    assert!(
        num(&rec, "speedup") >= 1.2,
        "fastpath speedup on the narrow job"
    );
    assert!(
        num(&rec, "speedup_full_plan") >= 1.2,
        "the wide full-plan job must not regress behind the row path"
    );
    assert!(
        num(&rec, "copy_reduction") > 4.0,
        "zero-copy extract slashes copied bytes"
    );
    assert!(num(&rec, "samples") > 0.0);
}

#[test]
fn wire_bench_artifact_matches_schema() {
    // `figures wire` commits the transport ablation: in-process channel vs
    // framed TCP (plaintext / cipher / cipher+zip). The codec-kernel work
    // pins plaintext TCP at >= 85% of in-process; validate that envelope and
    // the per-stage timing keys.
    let rec = artifact("wire");
    let inprocess = num(&rec, "samples_per_sec_inprocess");
    let tcp = num(&rec, "samples_per_sec_tcp");
    assert!(inprocess > 0.0 && tcp > 0.0);
    assert!(
        tcp >= 0.85 * inprocess,
        "plaintext TCP keeps >= 85% of in-process: {:.0} vs {:.0}",
        tcp,
        inprocess
    );
    assert!(num(&rec, "samples_per_sec_tcp_cipher") > 0.0);
    assert!(num(&rec, "samples_per_sec_tcp_cipher_zip") > 0.0);
    assert!(num(&rec, "wire_frames") >= 1.0);
    assert!(num(&rec, "wire_payload_bytes") > 0.0);
    assert!(
        num(&rec, "compression_ratio") > 1.0,
        "zip variant actually compresses"
    );
    // Pooled + delta-encoded serialization: well under 10 ms per epoch
    // (down from 94 ms before the codec kernels).
    assert!(num(&rec, "serialize_nanos") < 10_000_000.0);
    assert!(num(&rec, "deserialize_nanos") > 0.0);
    assert_eq!(num(&rec, "reconnects"), 0.0, "clean run has no reconnects");
    assert!(num(&rec, "samples") > 0.0);
}

#[test]
fn durability_bench_artifact_matches_schema() {
    // `figures durability` commits the replica-loss ablation: a storage
    // node killed mid-epoch, heartbeat detection, and a budgeted rebuild
    // contending with foreground reads. Validate the schema and the
    // acceptance envelope.
    let rec = artifact("durability");
    let base = num(&rec, "samples_per_sec_baseline");
    let rebuild = num(&rec, "samples_per_sec_rebuild");
    assert!(base > 0.0 && rebuild > 0.0);
    assert!(
        num(&rec, "throughput_ratio") > 0.0,
        "rebuild epoch still makes progress"
    );
    assert_eq!(
        num(&rec, "under_replicated_final"),
        0.0,
        "self-healing must converge: no chunk left under-replicated"
    );
    assert!(
        num(&rec, "foreground_share") >= 0.5,
        "budgeted rebuild leaves foreground the majority of disk IOs"
    );
    assert!(num(&rec, "rebuild_chunks") >= 1.0, "rebuild did real work");
    assert!(num(&rec, "rebuild_ios") >= 1.0);
    assert!(num(&rec, "total_ios") > num(&rec, "rebuild_ios"));
    assert!(num(&rec, "rebuild_budget_per_batch") >= 1.0);
    assert_eq!(
        num(&rec, "r2_under_replicated_final"),
        0.0,
        "R2 variant converges too"
    );
    assert!(num(&rec, "r2_foreground_share") > 0.0);
    assert!(num(&rec, "samples") > 0.0);
}

#[test]
fn datasets_dwarf_local_storage() {
    // Table III: used partitions alone are petabytes — orders of magnitude
    // beyond a trainer node's local storage.
    let local = ByteSize::tib(8); // generous local NVMe
    for p in RmProfile::all() {
        assert!(p.used_partitions.bytes() > 100 * local.bytes());
        assert!(p.all_partitions.bytes() as f64 / PIB as f64 > 1.0);
    }
}

#[test]
fn autotune_bench_artifact_matches_schema() {
    // `figures autotune` commits the closed-loop tuning ablation: the
    // online tuner vs the static watermark scaler over four deterministic
    // pipeline scenarios. Validate the flat per-scenario key schema and
    // the acceptance envelope (tuner converges, static cannot on the
    // scenarios the worker knob alone does not fix).
    let rec = artifact("autotune");
    assert_eq!(num(&rec, "scenario_count"), 4.0);
    let target = num(&rec, "stall_target");
    assert!(target > 0.0 && target < 0.1);

    // Every scenario carries both arms with the full metric set; ttc is
    // reported for all four (the acceptance criterion).
    for scen in [
        "extract_bound",
        "transform_bound",
        "trainer_bound",
        "diurnal",
    ] {
        for arm in ["tuner", "static"] {
            for metric in [
                "ttc_s",
                "steady_stall",
                "overall_stall",
                "mean_workers",
                "final_workers",
                "final_read_ahead",
                "final_batch",
                "final_parallelism",
            ] {
                num(&rec, &format!("{scen}_{arm}_{metric}"));
            }
        }
        assert!(
            num(&rec, &format!("{scen}_tuner_steady_stall")) < target,
            "{scen}: tuner must end converged"
        );
    }

    // The headline claims the gate enforces, re-checked on the committed
    // artifact: the tuner converges faster AND lands on lower steady
    // stall than the static scaler wherever workers alone cannot help.
    for scen in ["extract_bound", "transform_bound", "trainer_bound"] {
        assert!(
            num(&rec, &format!("{scen}_tuner_ttc_s")) < num(&rec, &format!("{scen}_static_ttc_s")),
            "{scen}: tuner converges faster"
        );
        assert!(
            num(&rec, &format!("{scen}_tuner_steady_stall"))
                < num(&rec, &format!("{scen}_static_steady_stall")),
            "{scen}: tuner ends with less stall"
        );
        assert!(
            num(&rec, &format!("{scen}_tuner_mean_workers"))
                < num(&rec, &format!("{scen}_static_mean_workers")),
            "{scen}: tuner spends fewer worker-seconds than the pegged static fleet"
        );
    }

    // The tuner fixed each bottleneck with the matching knob.
    assert!(num(&rec, "extract_bound_tuner_final_read_ahead") > 0.0);
    assert!(num(&rec, "transform_bound_tuner_final_parallelism") > 1.0);
    assert!(num(&rec, "trainer_bound_tuner_final_batch") > 32.0);
}
