//! Cache-key stability: the content-addressed result cache is only sound
//! if keys are (a) stable across builds for identical semantics, (b)
//! different whenever any result-affecting input differs, and (c)
//! *insensitive* to cosmetic code churn like struct-field reordering.
//!
//! (a) is pinned by golden fingerprints of representative configurations
//! across all four register-file backends; regenerate via the ignored
//! `print_golden_keys` test ONLY alongside a `CACHE_SALT` bump (a golden
//! drift without a salt bump means previously cached results silently
//! changed address). (b) is the perturbation battery. (c) holds by
//! construction — `canonical_config` writes every field explicitly in a
//! code-defined order — and the pinned canonical text locks that order
//! independent of the struct declaration. Last, a key is only served if
//! its entry parses: names written into entries, the index and
//! `corpus_runs.json` must come out as valid JSON strings.

use carf_bench::cache::{canonical_config, point_key, point_key_text, workload_identity};
use carf_bench::sample::SampleSpec;
use carf_bench::Budget;
use carf_core::{CarfParams, Policies, PortReducedParams};
use carf_sim::SimConfig;
use carf_workloads::Suite;

fn quick_jobs1() -> Budget {
    let mut b = Budget::quick();
    b.jobs = 1;
    b
}

/// The four representative backends, with their pinned golden keys.
fn golden_backends() -> Vec<(&'static str, SimConfig, u128)> {
    vec![
        ("baseline", SimConfig::paper_baseline(), GOLDEN_BASELINE),
        ("carf", SimConfig::paper_carf(CarfParams::paper_default()), GOLDEN_CARF),
        ("compressed", SimConfig::paper_compressed(CarfParams::paper_default()), GOLDEN_COMPRESSED),
        (
            "ports",
            SimConfig::paper_port_reduced(PortReducedParams::default()),
            GOLDEN_PORTS,
        ),
    ]
}

const GOLDEN_BASELINE: u128 = 0x6b6e80e407aa8a8e7919b38b79d16893;
const GOLDEN_CARF: u128 = 0xb7678aa0419d240238cce9d364c4ac12;
const GOLDEN_COMPRESSED: u128 = 0x3ecb5203ca045158911bd20096a8e919;
const GOLDEN_PORTS: u128 = 0x0886566c28132e32527fd8c649ac11d8;

#[test]
fn golden_keys_across_all_four_backends() {
    let budget = quick_jobs1();
    for (name, cfg, golden) in golden_backends() {
        let key = point_key(&cfg, Suite::Int, "tridiag", &budget);
        assert_eq!(
            key, golden,
            "{name}: cache key drifted (got {key:032x}, pinned {golden:032x}); \
             a semantic drift must come with a CACHE_SALT bump, \
             then re-pin via print_golden_keys"
        );
    }
}

#[test]
fn canonical_text_is_pinned_for_the_baseline() {
    // Locks the canonical field order independent of SimConfig's struct
    // declaration: reordering fields in the struct cannot move this text,
    // and any *semantic* edit to the canonicalizer shows up here.
    assert_eq!(canonical_config(&SimConfig::paper_baseline()), GOLDEN_BASELINE_TEXT);
}

const GOLDEN_BASELINE_TEXT: &str = "fetch=8;issue=8;commit=8;frontend=3;rob=128;lsq=64;\
    iq_int=32;iq_fp=32;int_pregs=112;fp_pregs=128;rf_r=8;rf_w=6;ckpt=32;int_units=8;\
    fp_units=8;mul=3;div=20;fp=2;fpdiv=12;il1=32768/4/64/1;dl1=32768/4/64/1;dl1_ports=2;\
    l2=1048576/4/64/10;mem_lat=100;gshare=14;btb=2048;ras=16;regfile=baseline;\
    mem_dep=optimistic;rob_interval=128;oracle=none;cosim=false;watchdog=100000;";

#[test]
fn identical_configs_built_differently_share_a_key() {
    let budget = quick_jobs1();
    // Field-by-field construction vs. constructor + struct-update: the
    // *values* are equal, so the keys must be too, regardless of the
    // textual order the fields were assigned in.
    let a = SimConfig::paper_carf(CarfParams::paper_default());
    let mut b = SimConfig::paper_baseline();
    b.regfile = carf_sim::RegFileKind::ContentAware(
        CarfParams::paper_default(),
        Policies::default(),
    );
    assert_eq!(a, b);
    assert_eq!(
        point_key(&a, Suite::Int, "tridiag", &budget),
        point_key(&b, Suite::Int, "tridiag", &budget),
    );
}

#[test]
fn every_config_perturbation_changes_the_key() {
    let budget = quick_jobs1();
    let base = SimConfig::paper_baseline();
    let base_key = point_key(&base, Suite::Int, "tridiag", &budget);

    let perturbations: Vec<(&str, SimConfig)> = vec![
        ("rob_size", {
            let mut c = base.clone();
            c.rob_size += 1;
            c
        }),
        ("rf_read_ports", {
            let mut c = base.clone();
            c.rf_read_ports += 1;
            c
        }),
        ("dl1 latency", {
            let mut c = base.clone();
            c.hierarchy.dl1.latency += 1;
            c
        }),
        ("bpred gshare", {
            let mut c = base.clone();
            c.bpred.gshare_bits += 1;
            c
        }),
        ("mem_dep", {
            let mut c = base.clone();
            c.mem_dep = carf_sim::MemDepPolicy::Conservative;
            c
        }),
        ("oracle_period", {
            let mut c = base.clone();
            c.oracle_period = Some(16);
            c
        }),
        ("regfile", SimConfig::paper_carf(CarfParams::paper_default())),
        ("carf policies", {
            let mut pol = Policies::default();
            pol.extra_bypass = !pol.extra_bypass;
            SimConfig::paper_carf_with(CarfParams::paper_default(), pol)
        }),
        ("carf geometry", {
            let mut p = CarfParams::paper_default();
            p.short_entries *= 2;
            SimConfig::paper_carf(p)
        }),
        ("port-reduced params", {
            let mut p = PortReducedParams::default();
            p.capture_entries += 1;
            SimConfig::paper_port_reduced(p)
        }),
    ];
    let mut keys = vec![base_key];
    for (what, cfg) in perturbations {
        let key = point_key(&cfg, Suite::Int, "tridiag", &budget);
        assert!(!keys.contains(&key), "{what}: perturbation did not change the key");
        keys.push(key);
    }
}

#[test]
fn workload_and_budget_perturbations_change_the_key() {
    let budget = quick_jobs1();
    let cfg = SimConfig::paper_baseline();
    let base_key = point_key(&cfg, Suite::Int, "tridiag", &budget);

    assert_ne!(base_key, point_key(&cfg, Suite::Int, "hash_table", &budget), "workload");
    assert_ne!(base_key, point_key(&cfg, Suite::Fp, "tridiag", &budget), "suite");

    let mut full = Budget::full();
    full.jobs = 1;
    assert_ne!(base_key, point_key(&cfg, Suite::Int, "tridiag", &full), "size class");

    let mut capped = quick_jobs1();
    capped.max_insts = 50_000;
    assert_ne!(base_key, point_key(&cfg, Suite::Int, "tridiag", &capped), "max_insts");

    let mut sampled = quick_jobs1();
    sampled.sample = Some(SampleSpec::default());
    assert_ne!(base_key, point_key(&cfg, Suite::Int, "tridiag", &sampled), "sampling on");

    let mut sampled2 = sampled;
    sampled2.sample = Some(SampleSpec { interval: 4_000, period: 8, warmup: 2_000 });
    assert_ne!(
        point_key(&cfg, Suite::Int, "tridiag", &sampled),
        point_key(&cfg, Suite::Int, "tridiag", &sampled2),
        "sampling spec"
    );
}

#[test]
fn cosmetic_execution_details_do_not_change_the_key() {
    let cfg = SimConfig::paper_baseline();
    let mut a = Budget::quick();
    a.jobs = 1;
    let mut b = Budget::quick();
    b.jobs = 32;
    // Worker count never changes results (run_ordered is order-preserving
    // and bit-identical), so it must not split the cache.
    assert_eq!(
        point_key(&cfg, Suite::Int, "tridiag", &a),
        point_key(&cfg, Suite::Int, "tridiag", &b),
    );
    // The budget's oracle_period only matters through the config (bins
    // copy it into SimConfig::oracle_period when an experiment needs the
    // oracle); by itself it must not split the cache either.
    let mut c = Budget::quick();
    c.jobs = 1;
    c.oracle_period = 999;
    assert_eq!(
        point_key(&cfg, Suite::Int, "tridiag", &a),
        point_key(&cfg, Suite::Int, "tridiag", &c),
    );
}

#[test]
fn key_text_names_its_parts() {
    // The pre-image is self-describing, so a future key-drift
    // investigation can diff texts instead of guessing.
    let text = point_key_text(
        &SimConfig::paper_baseline(),
        Suite::Int,
        "tridiag",
        &quick_jobs1(),
    );
    for needle in ["salt=carf-cache-v1", "codec=1", "point=Int/tridiag", "size=quick", "regfile=baseline"]
    {
        assert!(text.contains(needle), "key text missing `{needle}`: {text}");
    }
}

#[test]
fn corpus_cache_identity_tracks_program_text_and_entry() {
    // Corpus runs are keyed by a fingerprint over the *linked program*
    // (instruction text, data image, entry point), not the display name:
    // editing a source or relinking with a different entry symbol must
    // miss the cache, while an identical reassembly must hit it.
    let budget = quick_jobs1();
    let cfg = SimConfig::paper_baseline();
    let assemble = |src: &str, entry: &str| {
        let unit = carf_isa::parse_object(src, "kernel.s").expect("parse");
        carf_isa::link_with_entry(&[unit], Some(entry)).expect("link")
    };
    const SRC: &str = "first:\n li x1, 5\n halt\nsecond:\n li x1, 6\n halt\n";
    let wrap = |p| carf_workloads::Workload::from_program("kernel", Suite::Int, "t", p);
    let key = |w: &carf_workloads::Workload| {
        point_key(&cfg, Suite::Int, &workload_identity(w), &budget)
    };

    let base = wrap(assemble(SRC, "first"));
    let text_edit = wrap(assemble("first:\n li x1, 7\n halt\nsecond:\n li x1, 6\n halt\n", "first"));
    let entry_edit = wrap(assemble(SRC, "second"));

    assert_ne!(workload_identity(&base), workload_identity(&text_edit), "immediate edit");
    assert_ne!(workload_identity(&base), workload_identity(&entry_edit), "entry symbol");
    assert_ne!(key(&base), key(&text_edit), "immediate edit must change the cache key");
    assert_ne!(key(&base), key(&entry_edit), "entry symbol must change the cache key");
    // An identical reassembly shares the key — warm across processes.
    assert_eq!(key(&base), key(&wrap(assemble(SRC, "first"))));
    // Synthetic workloads still key by bare name, so the golden keys
    // above are untouched by the corpus machinery.
    let synthetic = &carf_workloads::int_suite()[0];
    assert_eq!(workload_identity(synthetic), synthetic.name);
}

/// Whether `text` is one well-formed JSON value (RFC 8259 grammar);
/// `Err` carries the byte offset of the first violation.
fn check_json(text: &str) -> Result<(), usize> {
    fn ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && b" \t\r\n".contains(&b[i]) {
            i += 1;
        }
        i
    }
    fn string(b: &[u8], i: usize) -> Result<usize, usize> {
        if b.get(i) != Some(&b'"') {
            return Err(i);
        }
        let mut i = i + 1;
        loop {
            match b.get(i) {
                Some(b'"') => return Ok(i + 1),
                Some(b'\\') => {
                    let hex = |h: &[u8]| h.iter().all(u8::is_ascii_hexdigit);
                    match b.get(i + 1) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => i += 2,
                        Some(b'u') if b.get(i + 2..i + 6).is_some_and(hex) => i += 6,
                        _ => return Err(i),
                    }
                }
                Some(c) if *c >= 0x20 => i += 1,
                _ => return Err(i),
            }
        }
    }
    fn items(
        b: &[u8],
        i: usize,
        close: u8,
        item: fn(&[u8], usize) -> Result<usize, usize>,
    ) -> Result<usize, usize> {
        let mut i = ws(b, i);
        if b.get(i) == Some(&close) {
            return Ok(i + 1);
        }
        loop {
            i = ws(b, item(b, i)?);
            match b.get(i) {
                Some(b',') => i += 1,
                Some(c) if *c == close => return Ok(i + 1),
                _ => return Err(i),
            }
        }
    }
    fn member(b: &[u8], i: usize) -> Result<usize, usize> {
        let i = ws(b, string(b, ws(b, i))?);
        if b.get(i) != Some(&b':') {
            return Err(i);
        }
        value(b, i + 1)
    }
    fn value(b: &[u8], i: usize) -> Result<usize, usize> {
        let i = ws(b, i);
        match b.get(i) {
            Some(b'{') => items(b, i + 1, b'}', member),
            Some(b'[') => items(b, i + 1, b']', value),
            Some(b'"') => string(b, i),
            _ => {
                for lit in ["true", "false", "null"] {
                    if b[i..].starts_with(lit.as_bytes()) {
                        return Ok(i + lit.len());
                    }
                }
                let end = i + b[i..].iter().take_while(|c| b"-+.eE0123456789".contains(c)).count();
                let num = std::str::from_utf8(&b[i..end]).map_err(|_| i)?;
                let digits = num.strip_prefix('-').unwrap_or(num);
                let leading_zero =
                    digits.len() > 1 && digits.starts_with('0') && !digits.starts_with("0.");
                if !digits.starts_with(|c: char| c.is_ascii_digit())
                    || leading_zero
                    || num.parse::<f64>().is_err()
                {
                    return Err(i);
                }
                Ok(end)
            }
        }
    }
    let b = text.as_bytes();
    let end = ws(b, value(b, 0)?);
    if end == b.len() {
        Ok(())
    } else {
        Err(end)
    }
}

#[test]
fn quoted_program_names_are_served_warm_and_stay_valid_json() {
    // A corpus program's name is its file stem, so it reaches the cache
    // entry and `corpus_runs.json` as a JSON string.
    let root = std::env::temp_dir().join(format!("carf-escape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("temp dir");
    let source = root.join("we\"i\\rd.s");
    std::fs::write(&source, ".globl _start\n_start:\n    li x10, 7\n    halt\n").expect("source");
    let results = root.join("results");
    let run = |require_warm: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_carf-as"))
            .args(["--quick", "--jobs", "1", "--machine", "base"])
            .arg(&source)
            .env("CARF_RESULTS_DIR", &results)
            .env("CARF_CACHE_REQUIRE_WARM", require_warm)
            .env_remove("CARF_CACHE")
            .output()
            .expect("spawn carf-as");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        stdout
    };
    assert!(run("0").contains("cache: served 0, simulated 1"));
    assert!(run("1").contains("cache: served 1, simulated 0"));
    // One machine, one program: the cache holds one entry.
    let entries: Vec<_> = std::fs::read_dir(results.join("cache"))
        .expect("cache dir")
        .flat_map(|shard| std::fs::read_dir(shard.expect("shard").path()).expect("shard dir"))
        .map(|entry| entry.expect("entry").path())
        .collect();
    assert_eq!(entries.len(), 1, "{entries:?}");
    for file in [entries[0].clone(), results.join("corpus_runs.json")] {
        let text = std::fs::read_to_string(&file).expect("written");
        assert_eq!(check_json(&text), Ok(()), "{}:\n{text}", file.display());
        assert!(text.contains(r#"we\"i\\rd"#), "{text}");
    }
    // The checker does reject an unescaped quote inside a string.
    assert!(check_json(r#"[{"point": "Int/we"i\rd"}]"#).is_err());
    std::fs::remove_dir_all(&root).expect("cleanup");
}

#[test]
#[ignore = "prints the golden keys and canonical text for re-pinning"]
fn print_golden_keys() {
    let budget = quick_jobs1();
    for (name, cfg, _) in golden_backends() {
        let key = point_key(&cfg, Suite::Int, "tridiag", &budget);
        println!("const GOLDEN_{}: u128 = 0x{key:032x};", name.to_uppercase());
    }
    println!("const GOLDEN_BASELINE_TEXT: &str = \"{}\";", canonical_config(&SimConfig::paper_baseline()));
}
