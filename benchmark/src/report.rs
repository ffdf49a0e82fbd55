//! Rendering results: the result file, the table on standard output and
//! the one-line JSON a benchmark driver reads.

use crate::catalog;
use crate::json::Json;
use crate::measure::EndToEnd;
use crate::probes::ProbeValue;
use crate::run::{Options, WorkloadResult};
use crate::workloads::Scale;

/// Version of the result-file layout.
pub const SCHEMA: f64 = 1.0;

fn metric(value: f64, unit: &str) -> Json {
    let mut o = Json::obj();
    o.set("value", Json::Num(value));
    o.set("unit", Json::Str(unit.into()));
    o
}

/// `(name, value, unit)` of the nine end-to-end figures, catalogue order
/// with `failed_ops_share` after the simulated figures.
pub fn end_to_end_rows(e: &EndToEnd) -> Vec<(&'static str, f64, &'static str)> {
    let unit = |name: &str| catalog::end_to_end(name).map_or("ratio", |m| m.unit);
    std::iter::once(("setup_s", e.setup_s))
        .chain(e.deterministic())
        .map(|(name, value)| (name, value, unit(name)))
        .collect()
}

fn workload_json(r: &WorkloadResult) -> Json {
    let mut o = Json::obj();
    o.set("laps", Json::Num(r.laps as f64));
    o.set("attempted", Json::Num(r.attempted as f64));
    o.set("failed", Json::Num(r.failed as f64));
    o.set("samples", Json::Num(r.end_to_end.samples as f64));
    o.set("correct", Json::Bool(r.correct()));
    o.set(
        "violations",
        Json::Arr(r.violations.iter().map(|v| Json::Str(v.clone())).collect()),
    );
    let mut e2e = Json::obj();
    for (name, value, unit) in end_to_end_rows(&r.end_to_end) {
        e2e.set(name, metric(value, unit));
    }
    o.set("end_to_end", e2e);
    if let Some(layers) = &r.per_layer {
        let mut per_layer = Json::obj();
        for l in layers.iter().filter(|l| l.applies) {
            let m = catalog::per_layer(l.name).expect("derived from the catalogue");
            if m.is_probe() {
                continue; // probes are workload-independent: top level
            }
            let mut entry = metric(l.value, m.unit);
            entry.set("layer", Json::Str(m.layer().into()));
            per_layer.set(l.name, entry);
        }
        o.set("per_layer", per_layer);
    }
    if let Some(path) = &r.trace_file {
        o.set("trace_file", Json::Str(path.display().to_string()));
    }
    o
}

/// The result file for workload results measured in this process.
pub fn results_json(
    opts: &Options,
    results: &[WorkloadResult],
    probes: Option<&[ProbeValue]>,
) -> Json {
    let mut workloads = Json::obj();
    for r in results {
        workloads.set(r.workload.name, workload_json(r));
    }
    results_root(opts, workloads, probes)
}

/// The result file around ready-made workload entries (the full run
/// merges them from its child processes' files).
pub fn results_root(opts: &Options, workloads: Json, probes: Option<&[ProbeValue]>) -> Json {
    let mut root = Json::obj();
    root.set("schema", Json::Num(SCHEMA));
    root.set("seed", Json::Num(opts.seed as f64));
    root.set("seconds", Json::Num(opts.seconds as f64));
    root.set("quick", Json::Bool(opts.scale == Scale::Quick));
    root.set("workloads", workloads);
    if let Some(probes) = probes {
        let mut o = Json::obj();
        for p in probes {
            let m = catalog::per_layer(p.name).expect("probes are catalogued");
            let mut entry = metric(p.value, m.unit);
            entry.set("layer", Json::Str(m.layer().into()));
            entry.set("iterations", Json::Num(p.iterations as f64));
            o.set(p.name, entry);
        }
        root.set("probes", o);
    }
    root
}

/// Checks that `root` has the layout [`results_json`] writes.
pub fn validate_results(root: &Json) -> Result<(), String> {
    if root.get("schema").and_then(Json::as_f64) != Some(SCHEMA) {
        return Err("missing or unknown `schema`".into());
    }
    for key in ["seed", "seconds"] {
        root.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("`{key}` must be a number"))?;
    }
    let check_metrics = |owner: &str, section: &str, metrics: &Json| -> Result<(), String> {
        for (name, m) in metrics.entries() {
            let ok = m.get("value").and_then(Json::as_f64).is_some()
                && m.get("unit").and_then(Json::as_str).is_some();
            if !ok {
                return Err(format!("{owner}.{section}.{name} needs `value` and `unit`"));
            }
        }
        Ok(())
    };
    let workloads = root.get("workloads").ok_or("missing `workloads`")?;
    for (name, w) in workloads.entries() {
        for key in ["laps", "attempted", "failed", "samples"] {
            w.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("{name}.{key} must be a number"))?;
        }
        let e2e = w
            .get("end_to_end")
            .ok_or(format!("{name} has no `end_to_end`"))?;
        for m in &catalog::END_TO_END {
            if e2e.get(m.name).is_none() {
                return Err(format!("{name}.end_to_end lacks {}", m.name));
            }
        }
        check_metrics(name, "end_to_end", e2e)?;
        if let Some(layers) = w.get("per_layer") {
            check_metrics(name, "per_layer", layers)?;
            for (metric, _) in layers.entries() {
                if catalog::per_layer(metric).is_none() {
                    return Err(format!("{name}.per_layer.{metric} is not catalogued"));
                }
            }
        }
    }
    if let Some(probes) = root.get("probes") {
        check_metrics("probes", "", probes)?;
    }
    Ok(())
}

fn print_metrics(metrics: Option<&Json>) {
    for (name, m) in metrics.map(Json::entries).unwrap_or_default() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let iterations = m
            .get("iterations")
            .and_then(Json::as_f64)
            .map(|n| format!("  ({n} iterations)"))
            .unwrap_or_default();
        println!("   {name:<44} {value:>18.4} {unit}{iterations}");
    }
}

/// Prints a result file: every metric by name, with its unit.
pub fn print_results(root: &Json) {
    let number = |o: &Json, key: &str| o.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    for (name, w) in root.get("workloads").map(Json::entries).unwrap_or_default() {
        println!(
            "\n== {name} — {} laps, {} ops attempted, {} failed, {} latency samples{}",
            number(w, "laps"),
            number(w, "attempted"),
            number(w, "failed"),
            number(w, "samples"),
            if w.get("correct") == Some(&Json::Bool(true)) {
                ""
            } else {
                " — INCORRECT"
            },
        );
        if let Some(Json::Arr(violations)) = w.get("violations") {
            for v in violations {
                println!("   ! {}", v.as_str().unwrap_or("?"));
            }
        }
        print_metrics(w.get("end_to_end"));
        print_metrics(w.get("per_layer"));
    }
    if let Some(probes) = root.get("probes") {
        println!("\n== probes");
        print_metrics(Some(probes));
    }
}

/// The line a benchmark driver reads: `correct`, `attempted`, `failed`
/// and either every end-to-end metric of the catalogue (`traced` false)
/// or every per-layer metric (`traced` true; zero where the layer does not
/// run in this workload).
pub fn driver_line(r: &WorkloadResult, traced: bool) -> String {
    let mut metrics = Json::obj();
    if traced {
        for l in r.per_layer.as_deref().unwrap_or_default() {
            let unit = catalog::per_layer(l.name).map_or("", |m| m.unit);
            metrics.set(l.name, metric(l.value, unit));
        }
    } else {
        for (name, value, unit) in end_to_end_rows(&r.end_to_end) {
            if catalog::end_to_end(name).is_some() {
                metrics.set(name, metric(value, unit));
            }
        }
    }
    let mut line = Json::obj();
    line.set("correct", Json::Bool(r.correct()));
    line.set("attempted", Json::Num(r.attempted as f64));
    line.set("failed", Json::Num(r.failed as f64));
    line.set("metrics", metrics);
    line.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerValue;
    use crate::workloads;
    use std::path::PathBuf;

    fn sample_result(traced: bool) -> WorkloadResult {
        WorkloadResult {
            workload: workloads::by_name("kv_read_heavy").unwrap(),
            laps: 2,
            attempted: 2400,
            failed: 0,
            violations: vec![],
            end_to_end: EndToEnd {
                setup_s: 0.125,
                sim_latency_p50_us: 15.004,
                sim_latency_p99_us: 440.5,
                sim_throughput_ops_s: 117_000.25,
                sim_max_gap_us: 320.0,
                failed_ops_share: 0.0,
                host_allocs_per_op: 222.7,
                host_alloc_bytes_per_op: 11_373.3,
                host_peak_live_mb: 912.4,
                samples: 2400,
            },
            per_layer: traced.then(|| {
                catalog::PER_LAYER
                    .iter()
                    .map(|m| LayerValue {
                        name: m.name,
                        value: 1.5,
                        applies: !m.name.starts_with("tcp."),
                    })
                    .collect()
            }),
            trace_file: traced.then(|| PathBuf::from("out/trace-kv_read_heavy.json")),
        }
    }

    fn opts() -> Options {
        Options {
            seed: 0xB11,
            seconds: 6,
            scale: Scale::Full,
            out_dir: PathBuf::from("out"),
        }
    }

    #[test]
    fn result_file_matches_its_schema_and_survives_a_round_trip() {
        let probes = [ProbeValue {
            name: "crypto.probe_sha256_mb_s",
            value: 250.5,
            iterations: 1200,
        }];
        let root = results_json(&opts(), &[sample_result(true)], Some(&probes));
        validate_results(&root).unwrap();
        let reread = Json::parse(&root.pretty()).unwrap();
        assert_eq!(reread, root);
        let w = reread
            .get("workloads")
            .unwrap()
            .get("kv_read_heavy")
            .unwrap();
        let layers = w.get("per_layer").unwrap();
        assert!(layers.get("kv.onesided_share").is_some());
        // Layers that do not run are omitted, not zero-filled; probes sit
        // at the top level.
        assert!(layers.get("tcp.syscalls_per_op").is_none());
        assert!(layers.get("crypto.probe_sha256_mb_s").is_none());
        assert!(reread
            .get("probes")
            .unwrap()
            .get("crypto.probe_sha256_mb_s")
            .is_some());
        // The ninth end-to-end figure is in the file though not gated.
        assert!(w
            .get("end_to_end")
            .unwrap()
            .get("failed_ops_share")
            .is_some());
    }

    #[test]
    fn schema_violations_are_reported() {
        let mut root = results_json(&opts(), &[sample_result(false)], None);
        validate_results(&root).unwrap();
        if let Json::Obj(entries) = &mut root {
            entries.retain(|(k, _)| k != "schema");
        }
        assert!(validate_results(&root).is_err());
        assert!(validate_results(&Json::parse("{\"schema\":1}").unwrap()).is_err());
    }

    #[test]
    fn driver_line_carries_exactly_the_catalogued_metrics() {
        let line = Json::parse(&driver_line(&sample_result(false), false)).unwrap();
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = catalog::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);

        let line = Json::parse(&driver_line(&sample_result(true), true)).unwrap();
        let names: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = catalog::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "zero-filled, none missing");
    }
}
