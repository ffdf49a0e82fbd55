//! The evaluation table: every experiment `bench <name> [args]` can run,
//! each a function from its positional arguments to a [`Report`].

use std::path::Path;

use reptor::{Cluster, CounterService, ReptorConfig};
use simnet::{LatencyMatrix, Series};

use crate::gate::{gate, json_series, Report};
use crate::replicated::{self, CopPoint};
use crate::{ablation, fig3, fig4, kv};

/// One experiment of the evaluation.
pub struct Row {
    /// The name `bench <name>` selects.
    pub name: &'static str,
    /// Positional arguments, as shown in the usage text.
    pub usage: &'static str,
    /// Arguments `bench all` (and so CI) passes.
    pub ci_args: &'static [&'static str],
    /// What the experiment shows.
    pub about: &'static str,
    /// Runs the experiment.
    pub run: fn(&[String]) -> Report,
}

/// Every experiment, in the order `bench all` runs them.
pub const TABLE: &[Row] = &[
    Row {
        name: "fig3",
        usage: "[latency|throughput|both] [msgs]",
        ci_args: &[],
        about: "Figure 3a/3b: echo micro-benchmark, four protocols, 1-100 KB",
        run: |args| FIG3.row(args),
    },
    Row {
        name: "fig4",
        usage: "[latency|throughput|both] [msgs]",
        ci_args: &[],
        about: "Figure 4a/4b: RUBIN vs NIO selector, window 30, batch 10",
        run: |args| FIG4.row(args),
    },
    Row {
        name: "replicated",
        usage: "[total] [depth]",
        ci_args: &[],
        about: "4-replica PBFT over every stack, request mixes",
        run: replicated_row,
    },
    Row {
        name: "ablation",
        usage: "[msgs]",
        ci_args: &[],
        about: "each RUBIN optimization toggled",
        run: ablation_row,
    },
    Row {
        name: "fast_path",
        usage: "[total] [depth]",
        ci_args: &[],
        about: "one-sided WRITE proposals vs pre-prepare messages, batch 10",
        run: fast_path_row,
    },
    Row {
        name: "cop_scaling",
        usage: "[msgs] [total] [depth]",
        ci_args: &[],
        about: "COP p in {1,2,4} with the exact p=1 baseline (msgs is not read)",
        run: cop_scaling_row,
    },
    Row {
        name: "kv_throughput",
        usage: "[clients] [ops_per_client]",
        ci_args: &[],
        about: "agreement-free KV reads >= 5x the message path, both linearizable",
        run: kv_throughput_row,
    },
    Row {
        name: "geo_sweep",
        usage: "[requests] [--full]",
        ci_args: &["8", "--full"],
        about: "commit latency over WAN matrices, n up to 31 with --full, replay-gated",
        run: geo_sweep_row,
    },
    Row {
        name: "recovery_drill",
        usage: "[seed]",
        ci_args: &[],
        about: "proactive-recovery epoch rotation and the durable cold-restart delta fetch",
        run: recovery_drill_row,
    },
];

/// The usage text: every row of the table.
pub fn usage() -> String {
    let mut out = String::from("usage: bench <name> [args] | bench all\n");
    for row in TABLE {
        out.push_str(&format!(
            "  {:<15} {:<34} {}\n",
            row.name, row.usage, row.about
        ));
    }
    out
}

/// Runs `bench <argv>`: one row by name with its arguments, or every row
/// with its CI arguments for `all`. Prints each report to stdout and its
/// gate verdict to stderr, writes sidecars under `dir`, and returns the
/// process exit code.
pub fn run(argv: &[String], dir: &Path) -> u8 {
    let Some((name, args)) = argv.split_first() else {
        eprint!("{}", usage());
        return 2;
    };
    let selected: Vec<(&Row, Vec<String>)> = if name == "all" {
        TABLE
            .iter()
            .map(|row| (row, row.ci_args.iter().map(|a| a.to_string()).collect()))
            .collect()
    } else if let Some(row) = TABLE.iter().find(|row| row.name == name) {
        vec![(row, args.to_vec())]
    } else {
        eprint!("bench: no experiment named `{name}`\n{}", usage());
        return 2;
    };
    let mut code = 0;
    for (row, args) in selected {
        eprintln!("## bench {} {}", row.name, args.join(" "));
        let report = (row.run)(&args);
        print!("{}", report.text);
        match gate(row.name, &report, dir) {
            Ok(summary) => eprintln!("{summary}"),
            Err(regressions) => {
                eprintln!("{regressions}");
                code = 1;
            }
        }
    }
    code
}

/// The `n`-th positional argument, or `default` when absent or malformed.
fn arg<T: std::str::FromStr>(args: &[String], n: usize, default: T) -> T {
    args.get(n).and_then(|s| s.parse().ok()).unwrap_or(default)
}

/// One of the paper's figures: its sweep, its shape checks and how the
/// rows print it.
struct Figure {
    /// Prefix of the figure's sidecar sections and check descriptions.
    key: &'static str,
    /// The figure's name in the paper.
    name: &'static str,
    /// What the figure measures.
    subject: &'static str,
    /// The unit the throughput table prints, and its size in requests/s.
    thr_unit: (&'static str, f64),
    /// Runs the sweep at a message count; `(latency, throughput)` series.
    run: fn(usize) -> (Vec<Series>, Vec<Series>),
    /// The §V shape checks over `(latency, throughput)`.
    shape: fn(&[Series], &[Series]) -> Checks,
}

type Checks = Vec<(String, bool)>;

const FIG3: Figure = Figure {
    key: "fig3",
    name: "Figure 3",
    subject: "echo",
    thr_unit: ("krps", 1000.0),
    run: fig3::run,
    shape: fig3::shape_report,
};

const FIG4: Figure = Figure {
    key: "fig4",
    name: "Figure 4",
    subject: "selector echo",
    thr_unit: ("rps", 1.0),
    run: fig4::run,
    shape: fig4::shape_report,
};

impl Figure {
    /// The figure's row, `[latency|throughput|both] [msgs]`: the selected
    /// tables, series sections `<key>_latency_us` / `<key>_rps`, and the
    /// shape checks.
    fn row(&self, args: &[String]) -> Report {
        let mode = args.first().map_or("both", String::as_str);
        let (lat, thr) = (self.run)(arg(args, 1, crate::DEFAULT_MSGS));
        let Figure { name, subject, .. } = self;
        let mut r = Report::default();
        if mode == "latency" || mode == "both" {
            let title = format!("{name}a — {subject} latency");
            r.table(&title, "us", &lat);
        }
        if mode == "throughput" || mode == "both" {
            let (unit, size) = self.thr_unit;
            let mut scaled = thr.clone();
            for p in scaled.iter_mut().flat_map(|s| &mut s.points) {
                p.value /= size;
            }
            let title = format!("{name}b — {subject} throughput");
            r.table(&title, unit, &scaled);
        }
        r.section(&format!("{}_latency_us", self.key), json_series(&lat));
        r.section(&format!("{}_rps", self.key), json_series(&thr));
        r.say("\n# Shape checks vs. paper §V");
        for (desc, ok) in (self.shape)(&lat, &thr) {
            r.check(format!("{}: {desc}", self.key), ok);
        }
        r
    }
}

fn json_cop_points(points: &[CopPoint]) -> String {
    let items: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"pipelines\":{},\"latency_us\":{:.3},\"rps\":{:.3}}}",
                p.pipelines, p.latency_us, p.rps
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn replicated_row(args: &[String]) -> Report {
    let total: u64 = arg(args, 0, 100);
    let depth: usize = arg(args, 1, 8);
    let mut r = Report::default();
    let (lat, thr) = replicated::run(total, depth);
    r.table("Replicated BFT — request latency", "us", &lat);
    r.table("Replicated BFT — throughput", "req/s", &thr);
    r.section("replicated_latency_us", json_series(&lat));
    r.section("replicated_rps", json_series(&thr));

    r.say("\n# Mixed workloads (Troxy-style request mixes)");
    r.say(format!(
        "{:>16} {:>14} {:>14} {:>12}",
        "mix", "stack", "latency(us)", "req/s"
    ));
    for (mix, stack, p) in replicated::run_mixes(total, depth) {
        r.say(format!(
            "{mix:>16} {stack:>14} {:>14.1} {:>12.0}",
            p.latency_us, p.rps
        ));
    }
    r
}

fn ablation_row(args: &[String]) -> Report {
    let msgs: usize = arg(args, 0, 100);
    let mut r = Report::default();
    let series = ablation::run(msgs);
    r.table("RUBIN optimization ablation — latency", "us", &series);
    r.section("ablation_latency_us", json_series(&series));
    r
}

/// Default COP sweep parameters: what CI runs and [`P1_BASELINE`] refers to.
const COP_TOTAL: u64 = 240;
const COP_DEPTH: usize = 16;

/// The `p = 1` operating point at the default parameters (payload 4096 B,
/// `total` 240, `depth` 16, seed `0xC0C`), re-pinned when a PRE-PREPARE's
/// MACs came to cover only its header and replies to be sealed on the
/// earlier-free of the execution and ordering cores, again when client
/// requests came to be verified on the host's earliest-free core, and
/// again when a REQUEST of at least 1 KiB came to be MACed over its digest,
/// which the batch digest folds instead of hashing the request a second
/// time (539.03 µs / 29,146.7 rps before). The deterministic simulator
/// reproduces these digits exactly; the gate fails on any drift.
const P1_BASELINE: CopPoint = CopPoint {
    pipelines: 1,
    latency_us: 422.532,
    rps: 37136.27341209937,
};

fn fast_path_row(args: &[String]) -> Report {
    let total: u64 = arg(args, 0, COP_TOTAL / 2);
    let depth: usize = arg(args, 1, COP_DEPTH);
    let mut r = Report::default();
    r.say("# one-sided fast path — PBFT commit latency over RUBIN (batch 10)");
    let cmp = replicated::fast_path_comparison(total, depth, 0xFA57);
    r.say(format!(
        "{:>14} {:>14} {:>12}",
        "path", "latency(us)", "req/s"
    ));
    for (path, p) in [("message", cmp.message), ("fast", cmp.fast)] {
        r.say(format!("{path:>14} {:>14.1} {:>12.0}", p.latency_us, p.rps));
    }
    let count = |metric: &str| cmp.snapshot.total(metric);
    let writes = count("fast_path_writes");
    let deliveries = count("fast_path_deliveries");
    let fallbacks = count("fast_path_fallbacks");
    let conflicts = count("fast_path_slot_conflicts");
    let denied = count("fast_path_write_denied");
    r.say(format!(
        "counters: writes={writes} deliveries={deliveries} fallbacks={fallbacks} \
         slot_conflicts={conflicts} denied={denied}"
    ));
    r.check(
        format!(
            "fast path: commit latency ({:.1} us) strictly below message path ({:.1} us) at batch 10",
            cmp.fast.latency_us, cmp.message.latency_us
        ),
        cmp.fast.latency_us < cmp.message.latency_us,
    );
    r.check(
        format!("fast path: leader WRITEs carry the proposals (writes {writes}, deliveries {deliveries})"),
        writes > 0 && deliveries > 0,
    );
    r.check(
        format!("fast path: no RNIC denials in the common case (denied {denied})"),
        denied == 0,
    );
    r.section(
        "fast_path",
        format!(
            "{{\"message_latency_us\":{:.3},\"fast_latency_us\":{:.3},\"message_rps\":{:.3},\"fast_rps\":{:.3},\
             \"fast_path_writes\":{writes},\"fast_path_deliveries\":{deliveries},\"fast_path_fallbacks\":{fallbacks},\
             \"fast_path_slot_conflicts\":{conflicts},\"fast_path_write_denied\":{denied}}}",
            cmp.message.latency_us, cmp.fast.latency_us, cmp.message.rps, cmp.fast.rps
        ),
    );
    r
}

/// The COP sweep with its scaling and exact-baseline checks. The first
/// argument, `msgs`, is not read; it keeps `total` and `depth` at their
/// positions.
fn cop_scaling_row(args: &[String]) -> Report {
    let total: u64 = arg(args, 1, COP_TOTAL);
    let depth: usize = arg(args, 2, COP_DEPTH);
    let mut r = Report::default();

    r.say("# COP scaling — p pipelines on the 4-core Xeon-v2 host model");
    r.say(format!(
        "({total} requests of {} B, depth {depth})\n",
        replicated::COP_PAYLOAD
    ));
    r.say(format!(
        "{:>10} {:>14} {:>12} {:>10}",
        "pipelines", "latency(us)", "req/s", "speedup"
    ));
    let points = replicated::cop_scaling(total, depth);
    let p1 = points[0];
    for p in &points {
        r.say(format!(
            "{:>10} {:>14.1} {:>12.0} {:>9.2}x",
            p.pipelines,
            p.latency_us,
            p.rps,
            p.rps / p1.rps
        ));
    }
    let p4 = points
        .iter()
        .find(|p| p.pipelines == 4)
        .expect("sweep includes p=4");
    r.check(
        format!(
            "COP scaling: p=4 throughput ({:.0} rps) >= 1.6x p=1 ({:.0} rps)",
            p4.rps, p1.rps
        ),
        p4.rps >= 1.6 * p1.rps,
    );
    if total == COP_TOTAL && depth == COP_DEPTH {
        r.check(
            format!(
                "COP p=1 byte-identical to pre-COP baseline ({:.3} us, {:.3} rps)",
                P1_BASELINE.latency_us, P1_BASELINE.rps
            ),
            p1 == P1_BASELINE,
        );
    }
    r.section("cop_scaling", json_cop_points(&points));
    r
}

fn json_kv_point(p: &kv::KvPoint) -> String {
    format!(
        "{{\"label\":\"{}\",\"reads\":{},\"read_rps\":{:.3},\"read_latency_us\":{:.3},\
         \"onesided\":{},\"fallback\":{},\"denied\":{},\"lin_ok\":{}}}",
        p.label, p.reads, p.read_rps, p.read_latency_us, p.onesided, p.fallback, p.denied, p.lin_ok
    )
}

fn kv_throughput_row(args: &[String]) -> Report {
    let clients: usize = arg(args, 0, 4);
    let ops: u64 = arg(args, 1, 80);
    let mut r = Report::default();
    r.say(format!(
        "# KV reads — YCSB B (95/5), {clients} clients x {ops} ops, RDMA stack"
    ));
    let (one, msg) = kv::read_path_comparison(clients, ops, 0x6E7);
    r.say(format!(
        "{:>14} {:>10} {:>12} {:>14} {:>10} {:>10} {:>8}",
        "path", "reads", "read/s", "latency(us)", "onesided", "fallback", "lin"
    ));
    for p in [&one, &msg] {
        r.say(format!(
            "{:>14} {:>10} {:>12.0} {:>14.1} {:>10} {:>10} {:>8}",
            p.label,
            p.reads,
            p.read_rps,
            p.read_latency_us,
            p.onesided,
            p.fallback,
            if p.lin_ok { "ok" } else { "VIOLATION" }
        ));
    }
    let speedup = one.read_rps / msg.read_rps;
    r.say(format!("\nspeedup: {speedup:.2}x\n"));
    r.section("onesided", json_kv_point(&one));
    r.section("message", json_kv_point(&msg));
    r.section("speedup", format!("{speedup:.3}"));

    r.check(
        format!(
            "one-sided read throughput ({:.0}/s) >= 5x message path ({:.0}/s)",
            one.read_rps, msg.read_rps
        ),
        one.read_rps >= 5.0 * msg.read_rps,
    );
    r.check("one-sided run history linearizes", one.lin_ok);
    r.check("message-path run history linearizes", msg.lin_ok);
    r.check(
        format!("lease path engaged ({} one-sided reads)", one.onesided),
        one.onesided > 0,
    );
    r.check("lease path inert when disabled", msg.onesided == 0);
    r
}

/// Seed of every geo sweep point.
const GEO_SEED: u64 = 0x6E0;

/// One geo sweep point: `requests` increments from one client against an
/// `n`-replica group spread over `topology` on the `SimTransport` stack.
/// Returns the requests completed, the mean client round trip in
/// microseconds (dominated by inter-region RTT, which is the point), the
/// metrics snapshot JSON (for the replay check) and the executed-event
/// count. A safety violation among the executed logs panics.
fn geo_point(n: usize, requests: u64, topology: &LatencyMatrix) -> (u64, f64, String, u64) {
    let cfg = ReptorConfig {
        n,
        ..ReptorConfig::small()
    };
    let mut c = Cluster::sim_transport_geo(cfg, 1, 1, GEO_SEED, topology, || {
        Box::new(CounterService::default())
    });
    let client = c.clients[0].clone();
    let t0 = c.sim.now();
    for _ in 0..requests {
        client.submit(&mut c.sim, b"inc".to_vec());
    }
    c.run_until_completed(requests, 200_000_000);
    let elapsed = c.sim.now() - t0;
    c.settle();
    c.assert_safety();
    let latency_us = elapsed.as_nanos() as f64 / 1_000.0 / requests as f64;
    (
        c.clients[0].stats().completed,
        latency_us,
        c.metrics_snapshot().to_json(),
        c.sim.executed_events(),
    )
}

/// Sweeps the replica count n ∈ {4, 7, 16} (plus n = 31 and the 5-region
/// matrix with `--full`) and gates every point on agreement (every request
/// commits) and determinism (a second run from the same seed produces a
/// byte-identical metrics snapshot).
fn geo_sweep_row(args: &[String]) -> Report {
    let full = args.iter().any(|a| a == "--full");
    let requests: u64 = arg(args, 0, 8);

    let lan = LatencyMatrix::lan();
    let wan3 = LatencyMatrix::three_region_wan();
    let wan5 = LatencyMatrix::five_region_wan();
    let mut sweep: Vec<(&str, &LatencyMatrix, Vec<usize>)> =
        vec![("lan", &lan, vec![4]), ("wan3", &wan3, vec![4, 7, 16])];
    if full {
        sweep[1].2.push(31);
        sweep.push(("wan5", &wan5, vec![7, 16]));
    }

    let mut r = Report::default();
    r.say(format!(
        "# geo_sweep — commit latency across WAN latency matrices ({requests} requests/point)"
    ));
    r.say(format!(
        "{:>6} {:>4} {:>8} {:>14} {:>12} {:>8}",
        "topo", "n", "regions", "latency(us)", "events", "replay"
    ));
    let mut points: Vec<String> = Vec::new();
    let (mut all_agreed, mut all_replayed) = (true, true);
    for (name, topo, ns) in &sweep {
        for &n in ns {
            let (completed, latency_us, snap_a, events) = geo_point(n, requests, topo);
            let (_, _, snap_b, _) = geo_point(n, requests, topo);
            let identical = snap_a == snap_b;
            all_agreed &= completed == requests;
            all_replayed &= identical;
            let regions = topo.num_regions();
            r.say(format!(
                "{name:>6} {n:>4} {regions:>8} {latency_us:>14.1} {events:>12} {:>8}",
                if identical { "ok" } else { "DRIFT" }
            ));
            points.push(format!(
                "{{\"topology\":\"{name}\",\"n\":{n},\"regions\":{regions},\"completed\":{completed},\
                 \"latency_us\":{latency_us:.1},\"events\":{events},\"identical_replay\":{identical}}}"
            ));
        }
    }
    r.say("");
    r.section("points", format!("[{}]", points.join(",")));
    r.check("geo: every point reached agreement", all_agreed);
    r.check("geo: every point replays byte-identically", all_replayed);
    r
}

/// The proactive-recovery epoch drill (one full rotation: epoch roll,
/// memory-region rotation, four staggered replica refreshes under
/// closed-loop client load) and the durable cold-restart drill (the same
/// partition + cold-restart workload with and without the durable
/// checkpoint store), gating that WAL replay shrinks the peer fetch to
/// less than half the full checkpoint. The sidecar keeps the three runs'
/// metrics snapshots, `state_transfer_*` counters included.
fn recovery_drill_row(args: &[String]) -> Report {
    let seed: u64 = arg(args, 0, 0xB8);
    let mut r = Report::default();
    let snap = replicated::recovery_epoch_drill_instrumented(seed);

    r.say(format!(
        "# Proactive recovery epoch drill (RUBIN stack, seed {seed})"
    ));
    r.say("\n## Scheduler");
    for (key, value) in &snap.counters {
        if key.starts_with("recovery.") {
            r.say(format!("{key:<48} {value}"));
        }
    }
    r.say("\n## Replicas");
    for (key, value) in &snap.counters {
        let fenced = key.ends_with(".epoch_rolls")
            || key.ends_with(".mr_rotations")
            || key.ends_with(".stale_epoch_rejected")
            || key.ends_with(".state_transfer_completed")
            || key.ends_with(".state_transfer_reads");
        if key.starts_with("reptor.") && fenced {
            r.say(format!("{key:<48} {value}"));
        }
    }
    r.say("\n## RNIC fence");
    let denied = snap.total("stale_rkey_denied");
    r.say(format!("{:<48} {denied}", "stale_rkey_denied (all QPs)"));

    let drill = replicated::durable_restart_drill_instrumented(seed);
    let (full, delta, local) = (
        drill.full_fetch_bytes(),
        drill.delta_fetch_bytes(),
        drill.local_bytes(),
    );
    let replayed = drill.durable.counter("reptor.r1.wal_frames_replayed");
    r.say(format!(
        "\n# Durable cold-restart drill (RUBIN stack, seed {seed})"
    ));
    r.say(format!(
        "{:<48} {full}",
        "full fetch bytes (no durable store)"
    ));
    r.say(format!("{:<48} {delta}", "delta fetch bytes (WAL replay)"));
    r.say(format!("{:<48} {local}", "bytes satisfied locally"));
    r.say(format!("{:<48} {replayed}\n", "WAL frames replayed"));
    r.section(
        "durable_restart",
        format!(
            "{{\"full_fetch_bytes\":{full},\"delta_fetch_bytes\":{delta},\"local_bytes\":{local},\
             \"wal_frames_replayed\":{replayed},\"stale_rkey_denied\":{denied}}}"
        ),
    );
    r.check(
        format!("delta fetch ({delta} B) < 50% of the full fetch ({full} B): local WAL replay shrinks the cold-restart transfer"),
        drill.gate_passes(),
    );
    r.section("bft_rubin_proactive_recovery", snap.to_json());
    r.section("durable_restart_drill", drill.durable.to_json());
    r.section("durable_restart_drill_baseline", drill.baseline.to_json());
    r
}
