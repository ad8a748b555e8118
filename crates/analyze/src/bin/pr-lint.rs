//! `pr-lint` — static deadlock and rollback-cost lint for partial-rollback
//! workloads, plus the orderability prover.
//!
//! ```text
//! pr-lint [--json] [--certify] [--out DIR] [WORKLOAD...]
//! ```
//!
//! With no arguments, lints every built-in workload. Built-ins cover the
//! paper's figures plus generator baselines and the exhaustive grid:
//!
//! | name       | contents                                              |
//! |------------|-------------------------------------------------------|
//! | `figure1`  | the Figure 1 deadlock `T2 → T3 → T4`                  |
//! | `figure2`  | the Figure 2 mutual-preemption variant                |
//! | `figure3a` | shared-lock non-forest, no deadlock (must be clean)   |
//! | `figure3b` | the two-cycles-per-wait workload                      |
//! | `figure3c` | the one-cycle-per-shared-holder workload              |
//! | `figure4`  | the spread-writes transaction (rollback-cost lint)    |
//! | `figure5`  | spread- and clustered-write victims with the partner  |
//! | `generated`| a random `ProgramGenerator` workload                  |
//! | `ordered`  | the same generator with a global lock order (clean)   |
//! | `stress`   | the stress harness's Zipf-hot generator output        |
//! | `grid`     | all 56 three-transaction grid cases (expands)         |
//! | `grid:X`   | one grid case by name, e.g. `grid:XXab+XXba+SXab`     |
//!
//! `--certify` switches from linting to the orderability prover: each
//! workload either gets a `pr-certificate-v1` deadlock-freedom
//! certificate (printed, and written to `DIR/<name>.cert.json` with
//! `--out DIR`) or a `PR-D002 unorderable-workload` report carrying the
//! minimal infeasible core with reorder advice.
//!
//! Exit codes (stable; scripts may rely on them):
//!
//! * `0` — clean: no error-severity diagnostics (and, with `--certify`,
//!   every workload certified),
//! * `1` — at least one error-severity diagnostic,
//! * `2` — usage error (unknown option or workload),
//! * `3` — `--certify` requested but at least one workload is
//!   unorderable.

use pr_analyze::{analyze_workload, diagnose_unorderable, prove, ProverOutcome, Report};
use pr_model::TransactionProgram;
use pr_sim::scenarios::{figure3, figure4, figure5};
use pr_sim::{scenarios, GeneratorConfig, ProgramGenerator};
use std::process::ExitCode;

const USAGE: &str = "usage: pr-lint [--json] [--certify] [--out DIR] [WORKLOAD...]\n       \
                     workloads: figure1 figure2 figure3a figure3b figure3c \
                     figure4 figure5 generated ordered stress grid grid:<case>\n       \
                     exit codes: 0 clean, 1 error diagnostics, 2 usage error, \
                     3 certify requested but workload unorderable";

const ALL: &[&str] = &[
    "figure1",
    "figure2",
    "figure3a",
    "figure3b",
    "figure3c",
    "figure4",
    "figure5",
    "generated",
    "ordered",
    "stress",
];

fn workload(name: &str) -> Option<Vec<TransactionProgram>> {
    match name {
        "figure1" => Some(scenarios::figure1_workload()),
        "figure2" => Some(scenarios::figure2_workload()),
        "figure3a" => Some(figure3::workload_a()),
        "figure3b" => Some(figure3::workload_b(2, 2)),
        "figure3c" => Some(figure3::workload_c(1, 20)),
        "figure4" => Some(vec![figure4::paper_t1_fig4(), figure4::paper_t1_fig4_modified()]),
        "figure5" => {
            Some(vec![figure5::victim_spread(), figure5::victim_clustered(), figure5::partner()])
        }
        "generated" => Some(generate(GeneratorConfig::default())),
        "ordered" => {
            Some(generate(GeneratorConfig { ordered_locks: true, ..GeneratorConfig::default() }))
        }
        // What `pr_sim::stress::run_stress` feeds the engine: Zipf-hot,
        // write-heavy, unordered — the lint should flag its deadlock risk.
        "stress" => Some(generate(GeneratorConfig {
            num_entities: 32,
            min_locks: 2,
            max_locks: 4,
            exclusive_per_mille: 700,
            pad_between: 1,
            skew_centi: 120,
            ..GeneratorConfig::default()
        })),
        name => {
            let case = name.strip_prefix("grid:")?;
            pr_explore::grid_cases(3).into_iter().find(|c| c.name == case).map(|c| c.programs())
        }
    }
}

fn generate(config: GeneratorConfig) -> Vec<TransactionProgram> {
    let mut gen = ProgramGenerator::new(config, 42);
    (0..12).map(|_| gen.generate()).collect()
}

/// Expands workload names: `grid` becomes all 56 grid cases.
fn expand(names: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for name in names {
        if name == "grid" {
            out.extend(pr_explore::grid_cases(3).into_iter().map(|c| format!("grid:{}", c.name)));
        } else {
            out.push(name.clone());
        }
    }
    out
}

fn file_stem(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

fn main() -> ExitCode {
    let mut json = false;
    let mut certify = false;
    let mut out_dir: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--certify" => certify = true,
            "--out" => {
                let Some(dir) = args.next() else {
                    eprintln!("pr-lint: --out needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                };
                if let Err(err) = std::fs::create_dir_all(&dir) {
                    eprintln!("pr-lint: cannot create {dir}: {err}");
                    return ExitCode::from(2);
                }
                out_dir = Some(dir);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            name if !name.starts_with('-') => names.push(name.to_string()),
            other => {
                eprintln!("pr-lint: unknown option `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if names.is_empty() {
        names = ALL.iter().map(|s| s.to_string()).collect();
        if certify {
            names.push("grid".to_string());
        }
    }
    let names = expand(&names);

    let mut any_errors = false;
    let mut any_unorderable = false;
    let mut json_reports: Vec<String> = Vec::new();
    for name in &names {
        let Some(programs) = workload(name) else {
            eprintln!("pr-lint: unknown workload `{name}`\n{USAGE}");
            return ExitCode::from(2);
        };
        if certify {
            match prove(name, &programs) {
                ProverOutcome::Certified(cert) => {
                    if let Err(err) = cert.verify(&programs) {
                        // A prover bug, not a workload property: loud and fatal.
                        eprintln!("pr-lint: {name}: emitted certificate fails self-check: {err}");
                        return ExitCode::from(2);
                    }
                    if let Some(dir) = &out_dir {
                        let path = format!("{dir}/{}.cert.json", file_stem(name));
                        if let Err(err) = std::fs::write(&path, cert.to_json()) {
                            eprintln!("pr-lint: cannot write {path}: {err}");
                            return ExitCode::from(2);
                        }
                    }
                    if json {
                        json_reports.push(cert.to_json().trim_end().to_string());
                    } else {
                        println!(
                            "{name}: CERTIFIED deadlock-free — {} entities ordered, {} programs covered",
                            cert.order.len(),
                            cert.programs.len()
                        );
                    }
                }
                ProverOutcome::Unorderable(core) => {
                    any_unorderable = true;
                    let report = Report {
                        workload: name.clone(),
                        num_programs: programs.len(),
                        diagnostics: diagnose_unorderable(&programs, &core),
                    };
                    if json {
                        json_reports.push(report.to_json());
                    } else {
                        print!("{}", report.render_human());
                    }
                }
            }
        } else {
            let report = analyze_workload(name, &programs);
            any_errors |= report.has_errors();
            if json {
                json_reports.push(report.to_json());
            } else {
                print!("{}", report.render_human());
            }
        }
    }
    if json {
        println!("[{}]", json_reports.join(","));
    }
    if certify && any_unorderable {
        ExitCode::from(3)
    } else if any_errors {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
