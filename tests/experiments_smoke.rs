//! Smoke tests of the experiment harness: every figure/table's pipeline
//! (workloads → simulator → aggregation → model) produces well-formed
//! numbers at tiny scale.

use carf_bench::cli::CliSpec;
use carf_bench::{
    baseline_geometry, carf_geometries, rf_energy_carf, rf_energy_monolithic,
    run_custom_with_cache, run_workload, suite_points, unlimited_geometry, Budget, SuiteResult,
    DN_SWEEP,
};
use carf_core::CarfParams;
use carf_energy::TechModel;
use carf_sim::SimConfig;
use carf_workloads::{int_suite, SizeClass, Suite};

/// Tiny scale, two workers: every smoke test also exercises the parallel
/// experiment engine's dispatch/reassembly path.
fn tiny_budget() -> Budget {
    Budget { size: SizeClass::Test, max_insts: 30_000, oracle_period: 16, jobs: 2, sample: None }
}

/// `(config, suite)` points through the one runner, with no cache.
fn uncached(points: &[(SimConfig, Suite)], budget: &Budget) -> Vec<SuiteResult> {
    run_custom_with_cache(&suite_points(points), budget, None).results
}

/// One suite under one configuration, with no cache.
fn uncached_suite(config: &SimConfig, suite: Suite, budget: &Budget) -> SuiteResult {
    uncached(&[(config.clone(), suite)], budget).remove(0)
}

#[test]
fn suite_runner_produces_stats_for_every_workload() {
    let budget = tiny_budget();
    let result = uncached_suite(&SimConfig::paper_baseline(), Suite::Int, &budget);
    assert_eq!(result.runs.len(), 8);
    for (name, stats) in &result.runs {
        assert!(stats.committed > 1_000, "{name}");
        assert!(stats.ipc() > 0.01, "{name}");
    }
    assert!(result.mean_ipc() > 0.1);
}

#[test]
fn matrix_runner_matches_per_suite_runs() {
    let budget = tiny_budget();
    let base = SimConfig::paper_baseline();
    let carf = SimConfig::paper_carf(CarfParams::paper_default());
    let points =
        [(base.clone(), Suite::Int), (base.clone(), Suite::Fp), (carf.clone(), Suite::Int)];
    let matrix = uncached(&points, &budget);
    assert_eq!(matrix.len(), 3);
    for ((cfg, suite), result) in points.iter().zip(&matrix) {
        assert_eq!(result.suite, *suite);
        let solo = uncached_suite(cfg, *suite, &budget);
        assert_eq!(result.runs.len(), solo.runs.len());
        for ((n1, s1), (n2, s2)) in result.runs.iter().zip(&solo.runs) {
            assert_eq!(n1, n2);
            assert_eq!(s1.cycles, s2.cycles, "{n1}");
            assert_eq!(s1.committed, s2.committed, "{n1}");
        }
    }
}

#[test]
fn budget_arg_parsing_is_strict() {
    let parse = |args: &[&str]| {
        CliSpec::budget_only("experiments_smoke").parse_from(args.iter().map(|s| s.to_string()))
    };
    let ok = parse(&["--full", "--jobs", "3"]).unwrap().budget;
    assert_eq!((ok.label(), ok.jobs), ("full", 3));
    let ok = parse(&["--jobs=5", "--quick"]).unwrap().budget;
    assert_eq!((ok.label(), ok.jobs), ("quick", 5));
    assert!(parse(&["--bogus"]).is_err());
    assert!(parse(&["--jobs", "zero"]).is_err());
    assert!(parse(&["--jobs=0"]).is_err());
}

#[test]
fn relative_ipc_of_identical_configs_is_one() {
    let budget = tiny_budget();
    let a = uncached_suite(&SimConfig::paper_baseline(), Suite::Fp, &budget);
    let b = uncached_suite(&SimConfig::paper_baseline(), Suite::Fp, &budget);
    let rel = a.mean_relative_ipc(&b);
    assert!((rel - 1.0).abs() < 1e-9, "determinism: rel = {rel}");
}

#[test]
fn fig1_oracle_fractions_sum_to_one() {
    let budget = tiny_budget();
    let mut cfg = SimConfig::paper_baseline();
    cfg.oracle_period = Some(budget.oracle_period);
    let wl = &int_suite()[0];
    let stats = run_workload(&cfg, wl, &budget);
    let sum: f64 = stats.oracle.values.fractions().iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    let sum: f64 = stats.oracle.sim_d8.fractions().iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
}

#[test]
fn fig2_similarity_concentrates_with_growing_d() {
    let budget = tiny_budget();
    let mut cfg = SimConfig::paper_baseline();
    cfg.oracle_period = Some(8);
    let wl = int_suite().into_iter().find(|w| w.name == "pointer_chase").unwrap();
    let stats = run_workload(&cfg, &wl, &budget);
    let rest8 = stats.oracle.sim_d8.fractions()[5];
    let rest16 = stats.oracle.sim_d16.fractions()[5];
    assert!(rest16 <= rest8 + 1e-9, "REST must shrink with d: {rest8} -> {rest16}");
}

#[test]
fn fig6_access_fractions_are_well_formed_across_the_sweep() {
    let budget = tiny_budget();
    let wl = int_suite().into_iter().find(|w| w.name == "compress_loop").unwrap();
    for dn in [DN_SWEEP[0], DN_SWEEP[3], DN_SWEEP[6]] {
        let stats =
            run_workload(&SimConfig::paper_carf(CarfParams::with_dn(dn)), &wl, &budget);
        let w = stats.int_rf.writes;
        assert_eq!(w.total(), stats.int_rf.total_writes, "d+n={dn}");
        assert!(w.total() > 1_000, "d+n={dn}");
    }
}

#[test]
fn fig7_energy_orderings_hold() {
    let model = TechModel::default_model();
    let budget = tiny_budget();
    let params = CarfParams::paper_default();
    let wl = int_suite().into_iter().find(|w| w.name == "state_machine").unwrap();

    let base = run_workload(&SimConfig::paper_baseline(), &wl, &budget);
    let carf = run_workload(&SimConfig::paper_carf(params), &wl, &budget);

    let to_totals = |s: &carf_sim::SimStats| {
        (
            carf_bench::ClassTotals {
                simple: s.int_rf.reads.simple,
                short: s.int_rf.reads.short,
                long: s.int_rf.reads.long,
                total: s.int_rf.total_reads,
            },
            carf_bench::ClassTotals {
                simple: s.int_rf.writes.simple,
                short: s.int_rf.writes.short,
                long: s.int_rf.writes.long,
                total: s.int_rf.total_writes,
            },
        )
    };
    let (br, bw) = to_totals(&base);
    let (cr, cw) = to_totals(&carf);
    let e_unl = rf_energy_monolithic(&model, &unlimited_geometry(), &br, &bw);
    let e_base = rf_energy_monolithic(&model, &baseline_geometry(), &br, &bw);
    let e_carf = rf_energy_carf(&model, &params, &cr, &cw);
    assert!(e_base < e_unl, "baseline saves energy over unlimited");
    assert!(e_carf < e_base, "content-aware saves energy over baseline");
}

#[test]
fn fig8_fig9_model_orderings_hold_across_the_sweep() {
    let model = TechModel::default_model();
    let base_area = model.area(&baseline_geometry());
    let base_time = model.access_time(&baseline_geometry());
    for dn in DN_SWEEP {
        let geoms = carf_geometries(&CarfParams::with_dn(dn));
        let area: f64 = geoms.iter().map(|g| model.area(g)).sum();
        assert!(area < base_area, "d+n={dn}: CARF area beats baseline");
        for g in &geoms {
            assert!(model.access_time(g) < base_time, "d+n={dn}: every sub-file is faster");
        }
    }
}

#[test]
fn table2_bypass_fractions_are_probabilities() {
    let budget = tiny_budget();
    let int = uncached_suite(&SimConfig::paper_baseline(), Suite::Int, &budget);
    let f = int.bypass_fraction();
    assert!(f > 0.0 && f < 1.0, "bypass fraction = {f}");
}

#[test]
fn table4_mix_fractions_sum_to_one() {
    let budget = tiny_budget();
    let wl = int_suite().into_iter().find(|w| w.name == "graph_walk").unwrap();
    let stats =
        run_workload(&SimConfig::paper_carf(CarfParams::paper_default()), &wl, &budget);
    let sum: f64 = stats.operand_mix.fractions().iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    assert!(stats.operand_mix.same_type_fraction() > 0.3);
}

#[test]
fn a_failed_results_write_is_an_error_naming_the_file() {
    // A regular file where the results directory should be: the cache
    // stores only warn, but the records write must fail the run.
    let not_a_dir = std::env::temp_dir().join(format!("carf-results-file-{}", std::process::id()));
    std::fs::write(&not_a_dir, "not a directory").expect("temp file");
    let root = carf_bench::parallel::workspace_root();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_carf-as"))
        .args([root.join("corpus/fibonacci.s").to_str().expect("utf-8 path"), "--quick"])
        .env("CARF_RESULTS_DIR", &not_a_dir)
        .env_remove("CARF_CACHE_REQUIRE_WARM")
        .output()
        .expect("carf-as runs");
    let _ = std::fs::remove_file(&not_a_dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit {:?}; stderr:\n{stderr}", out.status);
    assert!(
        stderr.contains("error: could not write") && stderr.contains("corpus_runs.json"),
        "{stderr}"
    );
}

#[test]
fn a_failed_chrome_trace_write_is_an_error_naming_the_file() {
    // A regular file where the traces directory should be.
    let dir = std::env::temp_dir().join(format!("carf-trace-results-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("traces"), "not a directory").expect("temp file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_carf-trace"))
        .args(["--quick", "--jobs", "1", "--machine", "base", "sort_kernel"])
        .env("CARF_RESULTS_DIR", &dir)
        .env_remove("CARF_CACHE_REQUIRE_WARM")
        .output()
        .expect("carf-trace runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("error: could not write") && stderr.contains("sort_kernel_base.json"),
        "{stderr}"
    );
}

#[test]
fn carf_sample_rejects_a_tolerance_that_is_not_finite_and_positive() {
    let results = std::env::temp_dir().join(format!("carf-sample-check-{}", std::process::id()));
    for bad in ["inf", "nan", "-1"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_carf-sample"))
            .args(["--quick", "--jobs", "1", "--machine", "base", "--suite", "int"])
            .args(["--check", bad])
            .env("CARF_RESULTS_DIR", &results)
            .output()
            .expect("carf-sample runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--check {bad}; stderr:\n{stderr}");
        assert!(stderr.contains("`--check` expects a positive relative tolerance"), "{stderr}");
        // Rejected before anything simulates: not even the header is printed.
        assert!(out.stdout.is_empty(), "--check {bad}: {}", String::from_utf8_lossy(&out.stdout));
    }
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn analytic_binaries_reject_unknown_flags() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_fig8_area"))
        .arg("--bogus")
        .output()
        .expect("fig8_area runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(stderr.contains("unrecognized argument `--bogus`"), "{stderr}");
    assert!(stderr.contains("usage: fig8_area"), "{stderr}");
}

#[test]
fn carf_as_rejects_a_runaway_program_before_simulating() {
    // A jump out of the code segment: the timing simulator would panic on
    // its runaway fetch, so carf-as must reject the program first and
    // write nothing.
    let dir = std::env::temp_dir().join(format!("carf-as-runaway-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let source = dir.join("j.s");
    std::fs::write(&source, "j 0x7fffffffffffffff\nhalt\n").expect("temp source");
    let results = dir.join("results");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_carf-as"))
        .args([source.to_str().expect("utf-8 path"), "--quick", "--machine", "base"])
        .env("CARF_RESULTS_DIR", &results)
        .env_remove("CARF_CACHE")
        .env_remove("CARF_CACHE_REQUIRE_WARM")
        .output()
        .expect("carf-as runs");
    let wrote_anything = results.exists();
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("error: j: pc 0x7fffffffffffffff outside the code segment"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!wrote_anything, "a rejected program must leave no record or cache entry");
}

#[test]
fn accesses_ending_at_the_top_of_memory_run_to_halt_on_every_machine() {
    // A load, and a store forwarded to a load, whose last byte is the top
    // of the address space: their LSQ ranges end at 2^64, which must not
    // read as an address not yet known.
    let dir = std::env::temp_dir().join(format!("carf-as-top-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let top = dir.join("top.s");
    let stld = dir.join("stld.s");
    std::fs::write(&top, "ld x1, 0xfffffffffffffff8(x0)\nhalt\n").expect("temp source");
    let store_then_load =
        "li x2, 0xfffffffffffffff8\nli x3, 42\nst x3, 0(x2)\nld x1, 0(x2)\nhalt\n";
    std::fs::write(&stld, store_then_load).expect("temp source");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_carf-as"))
        .args([top.to_str().expect("utf-8 path"), stld.to_str().expect("utf-8 path")])
        .args(["--machine", "all", "--cosim", "--quick", "--jobs", "1"])
        .env("CARF_RESULTS_DIR", dir.join("results"))
        .env_remove("CARF_CACHE")
        .env_remove("CARF_CACHE_REQUIRE_WARM")
        .output()
        .expect("carf-as runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr:\n{stderr}");
    // One row per machine, committing what the functional executor retires.
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (program, committed) in [("top", "2"), ("stld", "5")] {
        let rows: Vec<&str> = stdout
            .lines()
            .filter_map(|l| {
                let mut cols = l.split_whitespace();
                (cols.next() == Some(program)).then(|| cols.next().unwrap_or(""))
            })
            .collect();
        assert_eq!(rows, [committed; 4], "{program}:\n{stdout}");
    }
}

#[test]
fn binaries_whose_figures_sampling_cannot_supply_refuse_sample() {
    for (bin, why) in [
        (env!("CARGO_BIN_EXE_fig1_value_distribution"), "value oracle's snapshots"),
        (env!("CARGO_BIN_EXE_fig2_similarity"), "value oracle's snapshots"),
        (env!("CARGO_BIN_EXE_ext_smt_sharing"), "Long-file occupancy histogram"),
    ] {
        let out = std::process::Command::new(bin)
            .args(["--quick", "--jobs", "1", "--sample"])
            .env_remove("CARF_CACHE_REQUIRE_WARM")
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin}; stderr:\n{stderr}");
        assert!(stderr.contains("`--sample` is not supported") && stderr.contains(why), "{stderr}");
        // Refused before anything simulates: not even the header is printed.
        assert!(out.stdout.is_empty(), "{bin}: {}", String::from_utf8_lossy(&out.stdout));
    }
}
