//! Running a workload: untraced laps for the end-to-end figures, then —
//! when asked — a repeat lap and a traced lap of the first lap's seed for
//! the determinism and transparency checks and the per-layer figures.

use std::path::{Path, PathBuf};

use crate::layers::{self, HostBaseline, LayerValue};
use crate::measure::{self, EndToEnd, Lap};
use crate::probes::ProbeValue;
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Scale, Workload};
use crate::world;

/// What to run and where to write.
pub struct Options {
    /// Workload seed: drives the simulator, the machine tolerances and
    /// every payload/key generator.
    pub seed: u64,
    /// How long a run measures, in reference-box seconds; converted to a
    /// whole number of laps so that the work — and therefore every
    /// simulated figure and allocation count — is a pure function of the
    /// arguments.
    pub seconds: u64,
    /// Full-size or `--quick`.
    pub scale: Scale,
    /// Directory for `results.json` and the trace files.
    pub out_dir: PathBuf,
}

/// The outcome of one workload.
pub struct WorkloadResult {
    /// The workload.
    pub workload: &'static Workload,
    /// Untraced laps behind the end-to-end figures.
    pub laps: usize,
    /// Ops attempted inside the measured windows.
    pub attempted: u64,
    /// Ops that did not complete correctly before their deadline.
    pub failed: u64,
    /// Correctness violations and failed self-checks; any entry makes the
    /// run incorrect.
    pub violations: Vec<String>,
    /// The end-to-end figures.
    pub end_to_end: EndToEnd,
    /// The per-layer figures (traced runs only).
    pub per_layer: Option<Vec<LayerValue>>,
    /// The trace file written (traced runs only).
    pub trace_file: Option<PathBuf>,
}

impl WorkloadResult {
    /// True if every output was correct and every self-check passed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// Untraced laps of a run. A traced run is about the per-layer figures:
/// it keeps one untraced lap (plus its repeat) to compare the traced lap
/// with, and spends the rest of its time on the probes.
fn laps_for(workload: &Workload, opts: &Options, traced: bool) -> u64 {
    if traced || opts.scale == Scale::Quick {
        1
    } else {
        (opts.seconds / workload.lap_seconds).max(1)
    }
}

/// Everything of a lap that must repeat when the lap is run again with
/// the same seed. Simulated figures first: they must repeat exactly. The
/// three heap figures last: they are only compared between untraced laps
/// (a traced lap allocates for its spans) and only to [`HEAP_TOLERANCE`] —
/// `std` hash maps are randomly keyed, and whether an insert rehashes in
/// place or grows depends on the keys' slots, which moved the count by
/// 2 in 3 000 000 between two laps of `pbft_cop_direct`.
fn fingerprint(lap: &Lap) -> Result<Vec<(&'static str, f64)>, String> {
    let e = measure::end_to_end(&[lap], true)?;
    let w = &lap.window;
    let gets = lap.extras.read_latency_ns.len() as f64;
    Ok(vec![
        ("sim_latency_p50_us", e.sim_latency_p50_us),
        ("sim_latency_p99_us", e.sim_latency_p99_us),
        ("sim_throughput_ops_s", e.sim_throughput_ops_s),
        ("sim_max_gap_us", e.sim_max_gap_us),
        ("failed_ops_share", e.failed_ops_share),
        ("simulated window length", w.sim_len_ns() as f64),
        ("simulator events", w.events as f64),
        (
            "kv.onesided_share",
            if gets == 0.0 {
                0.0
            } else {
                w.total("kv_read_onesided") as f64 / gets
            },
        ),
        (
            "transport.slot_writes_per_op",
            w.total("fast_path_writes") as f64 / lap.samples.len().max(1) as f64,
        ),
        ("host_allocs_per_op", e.host_allocs_per_op),
        ("host_alloc_bytes_per_op", e.host_alloc_bytes_per_op),
        ("host_peak_live_mb", e.host_peak_live_mb),
    ])
}

const HEAP_FIGURES: usize = 3;
const HEAP_TOLERANCE: f64 = 1e-4;

fn check_identical(
    what: &str,
    reference: &Lap,
    other: &Lap,
    compare_heap: bool,
    violations: &mut Vec<String>,
) {
    let (a, b) = match (fingerprint(reference), fingerprint(other)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            violations.push(format!("{what}: {e}"));
            return;
        }
    };
    let exact = a.len() - HEAP_FIGURES;
    for (i, ((name, x), (_, y))) in a.iter().zip(&b).enumerate() {
        let differs = if i < exact {
            x != y
        } else {
            compare_heap && (x - y).abs() > HEAP_TOLERANCE * x.abs()
        };
        if differs {
            violations.push(format!("{what}: {name} was {x}, then {y}"));
        }
    }
}

/// Runs `workload`. With `traced`, additionally repeats the first lap
/// untraced (same seed ⇒ every deterministic figure must be identical),
/// runs it once more under the tracer (tracing must be invisible in
/// simulated time), derives the per-layer figures and writes the trace.
pub fn run_workload(
    workload: &'static Workload,
    opts: &Options,
    traced: bool,
    probes: Option<&[ProbeValue]>,
) -> Result<WorkloadResult, String> {
    let quick = opts.scale == Scale::Quick;
    let laps: Vec<Lap> = (0..laps_for(workload, opts, traced))
        .map(|j| workload.lap(world::lap_seed(opts.seed, j), opts.scale, None))
        .collect();
    let mut violations: Vec<String> = laps
        .iter()
        .enumerate()
        .flat_map(|(j, l)| l.violations.iter().map(move |v| format!("lap {j}: {v}")))
        .collect();
    let end_to_end = measure::end_to_end(&laps.iter().collect::<Vec<_>>(), quick)
        .map_err(|e| format!("{}: {e}", workload.name))?;

    let mut per_layer = None;
    let mut trace_file = None;
    if traced {
        let seed = world::lap_seed(opts.seed, 0);
        let mut untraced: Vec<&Lap> = laps.iter().collect();
        let repeat = (!quick).then(|| workload.lap(seed, opts.scale, None));
        if let Some(repeat) = &repeat {
            check_identical(
                "same seed, second untraced lap",
                &laps[0],
                repeat,
                true,
                &mut violations,
            );
            untraced.push(repeat);
        }

        let tracer = Tracer::new(workload.replicas.max(1), 0);
        let traced_lap = workload.lap(seed, opts.scale, Some(&tracer));
        violations.extend(
            traced_lap
                .violations
                .iter()
                .map(|v| format!("traced lap: {v}")),
        );
        check_identical(
            "tracing changed the simulation",
            &laps[0],
            &traced_lap,
            false,
            &mut violations,
        );

        let same_seed: Vec<f64> = std::iter::once(&laps[0])
            .chain(repeat.as_ref())
            .map(|l| l.window.host.as_secs_f64())
            .collect();
        let baseline = HostBaseline {
            us_per_op: untraced
                .iter()
                .map(|l| l.window.host.as_secs_f64() * 1e6 / l.samples.len().max(1) as f64)
                .collect(),
            events_per_s: untraced
                .iter()
                .map(|l| l.window.events as f64 / l.window.host.as_secs_f64())
                .collect(),
            same_seed_window_s: stats::median(&same_seed),
        };
        per_layer = Some(layers::derive(
            workload,
            &traced_lap,
            &tracer.summary(),
            &baseline,
            probes,
        ));
        let path = opts.out_dir.join(format!("trace-{}.json", workload.name));
        write_trace(&tracer, &path, workload.name)?;
        trace_file = Some(path);
    }

    Ok(WorkloadResult {
        workload,
        laps: laps.len(),
        attempted: laps.iter().map(|l| l.attempted).sum(),
        failed: laps.iter().map(Lap::failed).sum(),
        violations,
        end_to_end,
        per_layer,
        trace_file,
    })
}

fn write_trace(tracer: &Tracer, path: &Path, workload: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    tracer
        .write_chrome(path, workload)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn quick(name: &str) -> Options {
        Options {
            seed: 0xB11,
            seconds: 1,
            scale: Scale::Quick,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("test-{name}")),
        }
    }

    /// The whole wiring at one tenth of the size: every workload passes
    /// its correctness gates, tracing leaves the simulation untouched, and
    /// every catalogued per-layer metric comes out finite.
    #[test]
    fn every_workload_passes_its_gates_traced_and_untraced() {
        for w in &workloads::ALL {
            let opts = quick(w.name);
            let r = run_workload(w, &opts, true, None).expect(w.name);
            assert!(r.correct(), "{}: {:?}", w.name, r.violations);
            assert_eq!(r.failed, 0, "{}", w.name);
            let layers = r.per_layer.as_ref().expect("traced");
            assert_eq!(layers.len(), crate::catalog::PER_LAYER.len());
            for l in layers {
                assert!(l.value.is_finite(), "{}: {}", w.name, l.name);
            }
            let applies = |name: &str| layers.iter().any(|l| l.name == name && l.applies);
            assert_eq!(applies("tcp.syscalls_per_op"), w.name == "pbft_nio");
            assert_eq!(applies("kv.onesided_share"), w.name.starts_with("kv_"));
            assert_eq!(applies("recovery.rejoin_us"), w.name == "failover");
            let trace = std::fs::read_to_string(r.trace_file.as_ref().expect("traced"))
                .expect("trace file written");
            let parsed = crate::json::Json::parse(&trace).expect("valid Chrome-trace JSON");
            assert!(
                matches!(parsed.get("traceEvents"), Some(crate::json::Json::Arr(ev)) if ev.len() > 2)
            );
        }
    }

    #[test]
    fn a_different_seed_is_a_different_run() {
        let w = workloads::by_name("pbft_cop_direct").unwrap();
        let a = run_workload(w, &quick("seed-a"), false, None).unwrap();
        let mut other = quick("seed-b");
        other.seed += 1;
        let b = run_workload(w, &other, false, None).unwrap();
        assert_ne!(
            a.end_to_end.sim_latency_p50_us,
            b.end_to_end.sim_latency_p50_us
        );
    }
}
