//! `lockbind-check` — offline linter for HLS/locking artifacts.
//!
//! Runs the `lockbind-check` pass suite (structured `LBxxxx` diagnostics)
//! outside any experiment, either over freshly-built suite artifacts or
//! over a sweep checkpoint file:
//!
//! * `kernels [FRAMES] [SEED]` — lints every MediaBench kernel × FU class ×
//!   binding algorithm under a standard locking configuration. Obf-aware
//!   and co-design artifacts carry dual certificates, so their rows also
//!   certify matching optimality (Thm. 2). Output is fully deterministic
//!   (no wall times); `results/CHECK_baseline.txt` is the committed golden.
//! * `checkpoint PATH` — validates a sweep checkpoint written by the
//!   engine: header sanity, then every payload must decode as one of
//!   the bench record encodings.
//!
//! Exits 1 when any error-severity diagnostic (or malformed checkpoint
//! record) is found, 2 on usage errors.

use std::path::Path;
use std::process::ExitCode;

use lockbind_bench::codec;
use lockbind_bench::PreparedKernel;
use lockbind_check::{audit_netlist, check_artifact, Artifact, AuditSummary, Report};
use lockbind_core::{
    bind_area_aware, bind_obfuscation_aware_certified, bind_power_aware, codesign_heuristic,
    LockingSpec,
};
use lockbind_hls::{binding::bind_naive, FuClass, FuId};
use lockbind_locking::{
    lock_anti_sat, lock_critical_minterms, lock_permutation, lock_rll, lock_sfll_hd, LockError,
    LockedNetlist,
};
use lockbind_mediabench::Kernel;
use lockbind_netlist::builders::{adder_fu, multiplier_fu};
use lockbind_netlist::Netlist;
use lockbind_obs::Json;
use lockbind_resil::CancelToken;

fn usage() -> &'static str {
    "lockbind-check — offline linter for HLS/locking artifacts\n\
     \n\
     Usage:\n\
     \x20 lockbind-check kernels [FRAMES] [SEED]   lint every suite kernel x binding algorithm\n\
     \x20 lockbind-check audit [FRAMES] [SEED]     LB07xx structural audit, kernel x scheme family\n\
     \x20 lockbind-check checkpoint PATH           validate a sweep checkpoint file\n\
     \n\
     Defaults: FRAMES=60, SEED=5 (the committed goldens in results/CHECK_baseline.txt\n\
     and results/AUDIT_baseline.txt)."
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("kernels") => {
            let frames = match args.get(1).map(|s| s.parse::<usize>()) {
                None => 60,
                Some(Ok(n)) => n,
                Some(Err(_)) => return bad_usage("FRAMES must be an integer"),
            };
            let seed = match args.get(2).map(|s| s.parse::<u64>()) {
                None => 5,
                Some(Ok(n)) => n,
                Some(Err(_)) => return bad_usage("SEED must be an integer"),
            };
            lint_kernels(frames, seed)
        }
        Some("audit") => {
            let frames = match args.get(1).map(|s| s.parse::<usize>()) {
                None => 60,
                Some(Ok(n)) => n,
                Some(Err(_)) => return bad_usage("FRAMES must be an integer"),
            };
            let seed = match args.get(2).map(|s| s.parse::<u64>()) {
                None => 5,
                Some(Ok(n)) => n,
                Some(Err(_)) => return bad_usage("SEED must be an integer"),
            };
            audit_kernels(frames, seed)
        }
        Some("checkpoint") => match args.get(1) {
            Some(path) => lint_checkpoint(Path::new(path)),
            None => bad_usage("checkpoint mode needs a PATH"),
        },
        _ => bad_usage("missing or unknown mode"),
    }
}

fn bad_usage(reason: &str) -> ExitCode {
    eprintln!("lockbind-check: {reason}\n\n{}", usage());
    ExitCode::from(2)
}

/// One formatted report row: `clean` or sorted `CODExN` counts.
fn row(report: &Report) -> String {
    if report.diagnostics().is_empty() {
        "clean".to_string()
    } else {
        report
            .counts_by_code()
            .into_iter()
            .map(|(code, count)| format!("{code}x{count}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

fn lint_kernels(frames: usize, seed: u64) -> ExitCode {
    println!("lockbind-check kernels sweep: frames={frames} seed={seed}");
    println!(
        "{:<12} {:<10} {:<13} verdict",
        "kernel", "class", "algorithm"
    );

    let mut artifacts = 0usize;
    let mut clean = 0usize;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut tally = |kernel: &str, class: &str, algo: &str, report: &Report| {
        artifacts += 1;
        if report.diagnostics().is_empty() {
            clean += 1;
        }
        errors += report.error_count();
        warnings += report.warning_count();
        println!("{kernel:<12} {class:<10} {algo:<13} {}", row(report));
    };

    for kernel in Kernel::ALL {
        let p = PreparedKernel::new(kernel, frames, seed);
        for class in p.classes() {
            let candidates = p.candidates(class, 8);
            let minterms = candidates[..2.min(candidates.len())].to_vec();
            let spec = match LockingSpec::new(&p.alloc, vec![(FuId::new(class, 0), minterms)]) {
                Ok(spec) => spec,
                Err(e) => {
                    eprintln!("lockbind-check: {kernel:?}/{class}: bad spec: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let class_label = format!("{class:?}");

            // Baseline bindings: structural + locking passes only (no
            // certificate — the matching pass does not apply to bindings
            // that never claimed Eqn. 3 optimality).
            let baselines: [(&str, Result<_, _>); 3] = [
                (
                    "naive",
                    bind_naive(&p.dfg, &p.schedule, &p.alloc).map_err(|e| e.to_string()),
                ),
                (
                    "area-aware",
                    bind_area_aware(&p.dfg, &p.schedule, &p.alloc).map_err(|e| e.to_string()),
                ),
                (
                    "power-aware",
                    bind_power_aware(&p.dfg, &p.schedule, &p.alloc, &p.switching)
                        .map_err(|e| e.to_string()),
                ),
            ];
            for (algo, binding) in baselines {
                let binding = match binding {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("lockbind-check: {kernel:?}/{class}/{algo}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let report = check_artifact(
                    &Artifact::new()
                        .with_dfg(&p.dfg)
                        .with_schedule(&p.schedule)
                        .with_alloc(&p.alloc)
                        .with_binding(&binding)
                        .with_profile(&p.profile)
                        .with_spec(&spec)
                        .with_candidates(&candidates),
                );
                tally(p.name.as_str(), &class_label, algo, &report);
            }

            // Obf-aware: full artifact including the dual certificate, so
            // the matching-optimality pass certifies every cycle.
            let (binding, certificate) = match bind_obfuscation_aware_certified(
                &p.dfg,
                &p.schedule,
                &p.alloc,
                &p.profile,
                &spec,
            ) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("lockbind-check: {kernel:?}/{class}/obf-aware: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = check_artifact(
                &Artifact::new()
                    .with_dfg(&p.dfg)
                    .with_schedule(&p.schedule)
                    .with_alloc(&p.alloc)
                    .with_binding(&binding)
                    .with_profile(&p.profile)
                    .with_spec(&spec)
                    .with_candidates(&candidates)
                    .with_certificate(&certificate),
            );
            tally(p.name.as_str(), &class_label, "obf-aware", &report);

            // Co-design heuristic: its binding must equal the certified
            // rebind for its chosen spec (LB0406 otherwise).
            let design = match codesign_heuristic(
                &p.dfg,
                &p.schedule,
                &p.alloc,
                &p.profile,
                &[FuId::new(class, 0)],
                2.min(candidates.len()),
                &candidates,
                &CancelToken::new(),
            ) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("lockbind-check: {kernel:?}/{class}/codesign-heur: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (_, design_cert) = match bind_obfuscation_aware_certified(
                &p.dfg,
                &p.schedule,
                &p.alloc,
                &p.profile,
                &design.spec,
            ) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("lockbind-check: {kernel:?}/{class}/codesign-heur: rebind: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let report = check_artifact(
                &Artifact::new()
                    .with_dfg(&p.dfg)
                    .with_schedule(&p.schedule)
                    .with_alloc(&p.alloc)
                    .with_binding(&design.binding)
                    .with_profile(&p.profile)
                    .with_spec(&design.spec)
                    .with_candidates(&candidates)
                    .with_certificate(&design_cert),
            );
            tally(p.name.as_str(), &class_label, "codesign-heur", &report);
        }
    }

    println!();
    println!(
        "{artifacts} artifact(s) linted: {clean} clean, {errors} error(s), {warnings} warning(s)"
    );
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The locking-scheme families the audit sweep scores, applied to the
/// kernel's own FU module at its datapath width. The RLL placement seed is
/// the sweep seed, so `audit FRAMES SEED` is fully reproducible.
fn audit_schemes(
    base: &Netlist,
    seed: u64,
) -> [(&'static str, Result<LockedNetlist, LockError>); 5] {
    [
        ("critical-minterm", lock_critical_minterms(base, &[5, 11])),
        ("rll", lock_rll(base, 6, seed)),
        ("anti-sat", lock_anti_sat(base)),
        ("permutation", lock_permutation(base, 2)),
        ("sfll-hd", lock_sfll_hd(base, 5, 1)),
    ]
}

fn audit_kernels(frames: usize, seed: u64) -> ExitCode {
    println!("lockbind-check audit sweep: frames={frames} seed={seed}");
    println!(
        "{:<12} {:<10} {:<16} {:>4} {:>5}  {:<8} verdict",
        "kernel", "class", "scheme", "keys", "nets", "max-skew"
    );

    let mut audited = 0usize;
    let mut clean = 0usize;
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut totals: std::collections::BTreeMap<&'static str, usize> = Default::default();

    for kernel in Kernel::ALL {
        let p = PreparedKernel::new(kernel, frames, seed);
        let width = p.dfg.width();
        for class in p.classes() {
            let base = match class {
                FuClass::Adder => adder_fu(width),
                FuClass::Multiplier => multiplier_fu(width),
            };
            let class_label = format!("{class:?}");
            for (scheme, locked) in audit_schemes(&base, seed) {
                let locked = match locked {
                    Ok(locked) => locked,
                    Err(e) => {
                        eprintln!("lockbind-check: {kernel:?}/{class}/{scheme}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let report = audit_netlist(locked.netlist());
                let summary = AuditSummary::compute(locked.netlist(), &report);
                audited += 1;
                if report.diagnostics().is_empty() {
                    clean += 1;
                }
                errors += report.error_count();
                warnings += report.warning_count();
                for (code, count) in report.counts_by_code() {
                    *totals.entry(code).or_default() += count;
                }
                println!(
                    "{:<12} {:<10} {:<16} {:>4} {:>5}  {:<8.4} {}",
                    p.name,
                    class_label,
                    scheme,
                    summary.keys,
                    summary.nets,
                    summary.max_skew,
                    row(&report)
                );
            }
        }
    }

    println!();
    if !totals.is_empty() {
        let codes: Vec<String> = totals.iter().map(|(c, n)| format!("{c}x{n}")).collect();
        println!("finding totals: {}", codes.join(" "));
    }
    println!(
        "{audited} locked module(s) audited: {clean} clean, {errors} error(s), {warnings} warning(s)"
    );
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn lint_checkpoint(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("lockbind-check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        eprintln!("lockbind-check: {} is empty", path.display());
        return ExitCode::FAILURE;
    };
    let header = lockbind_obs::json::parse(header.as_bytes()).unwrap_or(Json::Null);
    let Some(fingerprint) = header["fingerprint"].as_u64() else {
        eprintln!(
            "lockbind-check: {} has no fingerprint header",
            path.display()
        );
        return ExitCode::FAILURE;
    };
    let cells = header["cells"].as_u64().unwrap_or(0);
    let root_seed = header["root_seed"].as_u64().unwrap_or(0);
    println!(
        "checkpoint {}: fingerprint {fingerprint:#018x}, root seed {root_seed}, {cells} cell(s) in grid",
        path.display()
    );

    let entries = match lockbind_engine::checkpoint::load(path, fingerprint) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("lockbind-check: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut decoded = [0usize; 3]; // headline, error-record, overhead payloads
    let mut malformed = Vec::new();
    for entry in &entries {
        let payload = &entry.payload;
        if codec::headline_output_from_json(payload).is_some() {
            decoded[0] += 1;
        } else if codec::records_from_json(payload, codec::error_record_from_json).is_some() {
            decoded[1] += 1;
        } else if codec::records_from_json(payload, codec::overhead_record_from_json).is_some() {
            decoded[2] += 1;
        } else {
            malformed.push(entry.cell);
        }
    }
    println!(
        "{} completed record(s): {} headline, {} error-record, {} overhead, {} malformed",
        entries.len(),
        decoded[0],
        decoded[1],
        decoded[2],
        malformed.len()
    );
    if !malformed.is_empty() {
        for cell in &malformed {
            eprintln!("  cell {cell}: payload does not decode under any bench codec");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
