//! The repo's system benchmark: seven seeded workloads, measured on two
//! clocks (simulated time and host-side allocation counts), with layer
//! probes and an outside-in trace. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--probes 0|1] [--quick] [--out DIR]
//! benchmark probes [--seed N]
//! benchmark compare A.json B.json
//! benchmark manifest
//! ```
//!
//! Without `--workload` every workload runs untraced and traced (each in a
//! process of its own), the probes run, every figure is printed and
//! `results.json` plus one trace file per workload are written. With
//! `--workload <name>` the workload runs in this process — single thread,
//! the simulator is `Rc`-based — and the last line of standard output is
//! one JSON object for a benchmark driver: the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`).

mod alloc;
mod catalog;
mod compare;
mod json;
mod layers;
mod measure;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;
mod world;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use run::Options;
use workloads::Scale;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 0xB11;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    probes: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_u64(flag: &str, text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("{flag} expects a whole number, got `{text}`"))
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: catalog::RUN_SECONDS,
        trace: false,
        probes: true,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut operand = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(operand()?.clone()),
            "--seed" => cli.seed = parse_u64(flag, operand()?)?,
            "--seconds" => cli.seconds = parse_u64(flag, operand()?)?,
            "--trace" | "--probes" => {
                let on = match operand()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("{flag} expects 0 or 1, got `{other}`")),
                };
                if flag == "--trace" {
                    cli.trace = on;
                } else {
                    cli.probes = on;
                }
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(PathBuf::from(operand()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// `benchmark/out` when run from the repo root, `out` from inside
/// `benchmark/`.
fn default_out_dir() -> PathBuf {
    if Path::new("benchmark/Cargo.toml").is_file() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn write_results(dir: &Path, file: &str, root: &Json) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, root.pretty()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Runs one workload in this process; the last line printed is the
/// driver's.
fn run_one(
    workload: &'static workloads::Workload,
    cli: &Cli,
    opts: &Options,
) -> Result<bool, String> {
    let traced = cli.trace;
    let probes = if traced && cli.probes && !cli.quick {
        Some(probes::run_all(opts.seed)?)
    } else {
        None
    };
    eprintln!("[benchmark] {} …", workload.name);
    let result = run::run_workload(workload, opts, traced, probes.as_deref())?;
    let root = report::results_json(opts, std::slice::from_ref(&result), probes.as_deref());
    let path = write_results(&opts.out_dir, &result_file(workload.name, traced), &root)?;
    report::print_results(&root);
    println!("\nresults: {}", path.display());
    println!("{}", report::driver_line(&result, traced));
    Ok(result.correct())
}

fn result_file(workload: &str, traced: bool) -> String {
    format!(
        "results-{workload}{}.json",
        if traced { "-traced" } else { "" }
    )
}

/// Runs `workload` in a child process and returns the result file it
/// wrote.
///
/// Every lap leaks its world (the comm stacks hold `Rc` cycles): 0.9 GB of
/// mostly untouched address space per KV lap. Beyond about 9 GB in one
/// process, allocation on the reference box turns eager and set-up takes
/// seconds instead of 0.07 s — so no process runs more than one workload's
/// laps, and the traced laps get a process of their own.
fn run_child(workload: &str, cli: &Cli, opts: &Options, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload, "--probes", "0"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir);
    if cli.quick {
        command.arg("--quick");
    }
    // `output` waits for the child; its progress lines pass through.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} process: {e}"))?;
    let path = opts.out_dir.join(result_file(workload, traced));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "the {workload} process ({}) left no {}: {e}",
            output.status,
            path.display()
        )
    })?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The workload entry of the combined result file: end-to-end figures from
/// the untraced process, per-layer figures and the trace from the traced
/// one, correct only if both were.
fn merge(name: &str, untraced: &Json, traced: &Json) -> Result<Json, String> {
    let entry = |root: &Json| -> Result<Json, String> {
        root.get("workloads")
            .and_then(|w| w.get(name))
            .cloned()
            .ok_or(format!("result file lacks workload {name}"))
    };
    let (u, t) = (entry(untraced)?, entry(traced)?);
    let violations = |e: &Json| match e.get("violations") {
        Some(Json::Arr(v)) => v.clone(),
        _ => Vec::new(),
    };
    let correct = [&u, &t]
        .iter()
        .all(|e| e.get("correct") == Some(&Json::Bool(true)));
    let mut merged = Json::obj();
    for (key, value) in u.entries() {
        match key.as_str() {
            "correct" => merged.set(key, Json::Bool(correct)),
            "violations" => merged.set(
                key,
                Json::Arr(violations(&u).into_iter().chain(violations(&t)).collect()),
            ),
            _ => merged.set(key, value.clone()),
        }
    }
    for key in ["per_layer", "trace_file"] {
        if let Some(v) = t.get(key) {
            merged.set(key, v.clone());
        }
    }
    Ok(merged)
}

/// Runs every workload (each in its own processes), then the probes, and
/// writes the combined `results.json`.
fn run_all(cli: &Cli, opts: &Options) -> Result<bool, String> {
    let mut merged = Json::obj();
    for w in &workloads::ALL {
        let untraced = run_child(w.name, cli, opts, false)?;
        let traced = run_child(w.name, cli, opts, true)?;
        merged.set(w.name, merge(w.name, &untraced, &traced)?);
    }
    let probes = if cli.quick || !cli.probes {
        None
    } else {
        eprintln!("[benchmark] probes …");
        Some(probes::run_all(opts.seed)?)
    };
    let all_correct = merged
        .entries()
        .iter()
        .all(|(_, w)| w.get("correct") == Some(&Json::Bool(true)));
    let root = report::results_root(opts, merged, probes.as_deref());
    let path = write_results(&opts.out_dir, "results.json", &root)?;
    report::print_results(&root);
    println!("\nresults: {}", path.display());
    Ok(all_correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    let cli = parse_run(args)?;
    let opts = Options {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: if cli.quick { Scale::Quick } else { Scale::Full },
        out_dir: cli.out.clone().unwrap_or_else(default_out_dir),
    };
    match cli.workload.as_deref() {
        None | Some("all") => run_all(&cli, &opts),
        Some(name) => {
            let workload = workloads::by_name(name).ok_or_else(|| {
                let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                format!("unknown workload `{name}`; known: {}", known.join(", "))
            })?;
            run_one(workload, &cli, &opts)
        }
    }
}

fn run_probes(args: &[String]) -> Result<bool, String> {
    let cli = parse_run(args)?;
    let opts = Options {
        seed: cli.seed,
        seconds: 0,
        scale: Scale::Full,
        out_dir: PathBuf::new(),
    };
    let probes = probes::run_all(cli.seed)?;
    report::print_results(&report::results_root(&opts, Json::obj(), Some(&probes)));
    Ok(true)
}

fn run_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(compare::compare(&load(a)?, &load(b)?)? == 0)
}

fn main() -> ExitCode {
    alloc::pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("probes") => run_probes(&args[1..]),
        Some("manifest") => {
            print!("{}", catalog::manifest().pretty());
            Ok(true)
        }
        Some("run") => run(&args[1..]),
        _ => run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
