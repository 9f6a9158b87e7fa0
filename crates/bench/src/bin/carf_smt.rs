//! `carf-smt`: the multi-context scaling study over the backend zoo.
//!
//! Replaces the old `ext_smt_timing` pair study with the general
//! [`MultiSim`](carf_sim::MultiSim) sweep: 1/2/4 hardware contexts per
//! point, every register-file backend (baseline, content-aware,
//! compressed, port-reduced), shared-Long capacities 48/56/64, optional
//! shared L2 and fetch-slot arbitration. Backends without a Long file
//! ignore the capacity window and serve as control rows — identical
//! sharing pressure on the front end and the L2, none on the register
//! file.
//!
//! The paper's §6 claim under test: "a smaller number of long registers
//! can feed more than one thread, especially if only one of them has
//! high peak register usage." Per point the study reports each
//! context's IPC, the aggregate throughput, and the Long-guard stall
//! share; a merged record lands in `results/smt_scaling.json`.
//!
//! Every co-simulation is one content-addressed cache point (the key is
//! the ordered tuple of per-context config+workload fingerprints plus
//! the sharing policy), so a warm re-run does zero simulation and
//! reproduces the record byte-identically.

use carf_bench::cli::{CliSpec, MachineSet, OptSpec};
use carf_bench::json::Value;
use carf_bench::{parallel, print_table, run_multi_cached, MultiPoint, MultiThreadRecord};
use carf_sim::{FetchArbitration, RegFileKind, SharingPolicy, SimConfig};
use carf_workloads::{all_workloads, Workload};

const SPEC: CliSpec = CliSpec {
    bin: "carf-smt",
    options: &[
        OptSpec {
            name: "--machine",
            value: Some("M"),
            help: "base, carf, both, compressed, ports, or all (default all)",
        },
        OptSpec {
            name: "--threads",
            value: Some("T"),
            help: "context count: 1, 2, 4, or all (default all)",
        },
        OptSpec {
            name: "--capacity",
            value: Some("K"),
            help: "shared Long capacity: 48, 56, 64, or all (default all)",
        },
        OptSpec {
            name: "--l2",
            value: Some("MODE"),
            help: "private (default) or shared: one L2 array behind the private L1s",
        },
        OptSpec {
            name: "--fetch",
            value: Some("P"),
            help: "free (default), rr:N, or icount:N fetch-slot arbitration",
        },
    ],
    operands: None,
};

/// The workload rotation: context `i` of every point runs `PICK[i % 4]`.
/// The first two are address-heavy (modest Long pressure), the last two
/// long-heavy — so the 2-context points mix one of each and the
/// 4-context points carry the full spread.
const PICK: [&str; 4] = ["pointer_chase", "sparse_update", "hash_table", "matvec"];

/// Shared capacities swept (all ≤ the 64-entry private file below).
const CAPACITIES: [usize; 3] = [48, 56, 64];

/// Context counts swept.
const THREADS: [usize; 3] = [1, 2, 4];

/// Shared-clock ceiling per co-simulation (generous: a quick-budget
/// 4-context point finishes in well under a million cycles).
const MAX_CYCLES: u64 = 50_000_000;

fn parse_fetch(v: &str) -> Result<FetchArbitration, String> {
    let slots = |s: &str, kind: &str| {
        s.parse::<usize>()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("`--fetch {kind}:N` expects a positive slot count (got `{s}`)"))
    };
    if v == "free" {
        Ok(FetchArbitration::Free)
    } else if let Some(s) = v.strip_prefix("rr:") {
        Ok(FetchArbitration::RoundRobin { slots: slots(s, "rr")? })
    } else if let Some(s) = v.strip_prefix("icount:") {
        Ok(FetchArbitration::ICount { slots: slots(s, "icount")? })
    } else {
        Err(format!("`--fetch` expects free, rr:N, or icount:N (got `{v}`)"))
    }
}

fn parse_sweep<T>(v: &str, name: &str, allowed: &[T]) -> Result<Vec<T>, String>
where
    T: Copy + std::fmt::Display + PartialEq + std::str::FromStr,
{
    if v == "all" {
        return Ok(allowed.to_vec());
    }
    if let Ok(n) = v.parse::<T>() {
        if let Some(t) = allowed.iter().find(|a| **a == n) {
            return Ok(vec![*t]);
        }
    }
    let opts: Vec<String> = allowed.iter().map(|a| a.to_string()).collect();
    Err(format!("`{name}` expects {}, or all (got `{v}`)", opts.join(", ")))
}

/// The swept machine configurations: the backend zoo with every
/// Long-file backend widened to 64 private entries, so each context's
/// file is at least as large as any shared capacity it is windowed to.
fn machines(set: MachineSet) -> Vec<(&'static str, SimConfig)> {
    set.configs()
        .into_iter()
        .map(|(label, mut cfg)| {
            match &mut cfg.regfile {
                RegFileKind::ContentAware(p, _) | RegFileKind::Compressed(p) => {
                    p.long_entries = 64;
                }
                RegFileKind::Baseline | RegFileKind::PortReduced(_) => {}
            }
            (label, cfg)
        })
        .collect()
}

fn workload(name: &str) -> Workload {
    all_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("workload {name} is registered"))
}

fn main() {
    let parsed = SPEC.parse();
    let budget = parsed.budget;
    let set = match parsed.option("--machine") {
        Some(v) => MachineSet::parse(v).unwrap_or_else(|bad| SPEC.fail(&bad)),
        None => MachineSet::All,
    };
    let threads = match parsed.option("--threads") {
        Some(v) => parse_sweep(v, "--threads", &THREADS).unwrap_or_else(|bad| SPEC.fail(&bad)),
        None => THREADS.to_vec(),
    };
    let capacities = match parsed.option("--capacity") {
        Some(v) => parse_sweep(v, "--capacity", &CAPACITIES).unwrap_or_else(|bad| SPEC.fail(&bad)),
        None => CAPACITIES.to_vec(),
    };
    let shared_l2 = match parsed.option("--l2") {
        None | Some("private") => false,
        Some("shared") => true,
        Some(v) => SPEC.fail(&format!("`--l2` expects private or shared (got `{v}`)")),
    };
    let fetch = match parsed.option("--fetch") {
        Some(v) => parse_fetch(v).unwrap_or_else(|bad| SPEC.fail(&bad)),
        None => FetchArbitration::Free,
    };
    let machines = machines(set);

    println!(
        "multi-context scaling: {} machine(s) x {:?} context(s) x K={:?}, \
         l2={}, fetch={}, budget={}, {} worker(s)",
        machines.len(),
        threads,
        capacities,
        if shared_l2 { "shared" } else { "private" },
        fetch.canonical(),
        budget.label(),
        budget.jobs
    );

    // One flat point list; results() comes back in the same order.
    let mut points: Vec<MultiPoint> = Vec::new();
    for (label, cfg) in &machines {
        for &n in &threads {
            for &cap in &capacities {
                let names: Vec<&str> = (0..n).map(|i| PICK[i % PICK.len()]).collect();
                points.push(MultiPoint {
                    label: format!("{label}/t{n}/K{cap}"),
                    contexts: names.iter().map(|w| (cfg.clone(), workload(w))).collect(),
                    policy: SharingPolicy {
                        shared_long_capacity: Some(cap),
                        shared_l2,
                        fetch,
                    },
                    max_cycles: MAX_CYCLES,
                    // Fixed total work per point: N contexts split the
                    // budget, so the 4-context points cost what the solo
                    // points cost and aggregate IPC is comparable.
                    per_thread_insts: budget.max_insts / n as u64,
                });
            }
        }
    }
    let outcome = run_multi_cached(&points, &budget);

    let total_ipc = |threads: &[MultiThreadRecord]| -> f64 {
        threads.iter().map(MultiThreadRecord::ipc).sum()
    };
    let stall_share = |threads: &[MultiThreadRecord]| -> f64 {
        threads.iter().map(MultiThreadRecord::stall_share).sum::<f64>() / threads.len() as f64
    };

    let mut header = vec!["machine".to_string(), "ctxs".to_string(), "workloads".to_string()];
    for &cap in &capacities {
        header.push(format!("K={cap} ipc-sum"));
        header.push(format!("K={cap} guard"));
    }
    let header: Vec<&str> = header.iter().map(String::as_str).collect();

    let mut table: Vec<Vec<String>> = Vec::new();
    let mut records: Vec<Value> = Vec::new();
    let mut point_iter = points.iter().zip(&outcome.results);
    for (label, _) in &machines {
        for &n in &threads {
            let names: Vec<&str> = (0..n).map(|i| PICK[i % PICK.len()]).collect();
            let mut cells =
                vec![(*label).to_string(), n.to_string(), names.join("+")];
            for &cap in &capacities {
                let (point, result) = point_iter.next().expect("one result per point");
                assert_eq!(point.label, format!("{label}/t{n}/K{cap}"), "sweep order");
                cells.push(format!("{:.3}", total_ipc(result)));
                cells.push(format!("{:.1}%", stall_share(result) * 100.0));

                records.push(Value::object([
                    ("bin", "carf-smt".into()),
                    ("machine", (*label).into()),
                    ("threads", n.into()),
                    ("capacity", cap.into()),
                    ("l2", if shared_l2 { "shared" } else { "private" }.into()),
                    ("fetch", fetch.canonical().into()),
                    ("budget", budget.label().into()),
                    ("workloads", names.join("+").into()),
                    ("ipc", result.iter().map(|r| Value::fixed(r.ipc(), 4)).collect()),
                    ("ipc_total", Value::fixed(total_ipc(result), 4)),
                    (
                        "guard_stalls",
                        result.iter().map(|r| r.long_guard_stall_cycles.into()).collect(),
                    ),
                    ("guard_stall_share", Value::fixed(stall_share(result), 4)),
                ]));
            }
            table.push(cells);
        }
    }

    print_table(
        &format!(
            "multi-context scaling ({} budget): aggregate IPC and mean Long-guard \
             stall share per shared capacity",
            budget.label()
        ),
        &header,
        &table,
    );
    println!(
        "\nPaper §6: for the content-aware rows, sharing is nearly free until the\n\
         co-runners' peak Long demand approaches K (watch the guard share climb as\n\
         K shrinks and the context count grows; base/ports rows are controls — the\n\
         capacity window has nothing to act on)."
    );

    if !records.is_empty() {
        let path = parallel::exit_on_write_error(parallel::write_records(
            "smt_scaling.json",
            records,
            &["bin", "machine", "threads", "capacity", "l2", "fetch", "budget"],
            1,
        ));
        println!("records -> {}", path.display());
    }
}
