//! One benchmark run: set up, price passes for `--seconds`, check every
//! output, print the metrics.
//!
//! Untraced (`perfbench`, `--trace 0`): every pass takes the user's path;
//! the run reports the end-to-end metrics. Traced (`perfbench-traced`,
//! `--trace 1`): untraced reference passes alternate with traced passes,
//! and the run reports the per-layer ledger built from the recorded spans.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use crate::alloc;
use crate::trace::{self, Span};
use crate::workloads::{self, Counts, Outcome};

/// Set-up is timed in batches of repetitions lasting about this long…
const SETUP_BATCH_S: f64 = 0.01;
/// …at least this many batches…
const SETUP_MIN_BATCHES: usize = 5;
/// …and then until this many seconds have gone by.
const SETUP_BUDGET_S: f64 = 0.5;
/// Fewest timed passes of an untraced run.
const MIN_PASSES: usize = 3;
/// Fewest passes of each kind (reference, traced) in a traced run.
const MIN_TRACED_PASSES: usize = 2;

/// Expected output digests: `<workload> <seed|*> <0xdigest>` per line.
const EXPECTED: &str = include_str!("../expected.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    /// Price one pass and print its `expected.txt` line instead of
    /// measuring.
    record: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut kv = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?
                .to_string();
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            kv.insert(key, value);
        }
        let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
        let args = Args {
            workload: get("workload")?.clone(),
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: get("seconds")?
                .parse()
                .map_err(|e| format!("--seconds: {e}"))?,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
            },
            spans: kv.get("spans").map(PathBuf::from),
            record: kv.get("record").is_some_and(|v| v == "1"),
        };
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// The expected digest of `workload`'s output under `seed`, if recorded.
fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    EXPECTED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|l| {
            let mut f = l.split_whitespace();
            let (w, s, d) = (f.next()?, f.next()?, f.next()?);
            let seed_ok = s == "*" || s.parse::<u64>().ok() == Some(seed);
            (w == workload && seed_ok)
                .then(|| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
                .flatten()
        })
}

/// The first seed with a recorded digest for `workload` (the reference
/// scenario a run on an unrecorded seed is checked against).
fn reference_seed(workload: &str) -> Option<u64> {
    EXPECTED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()? == workload)
            .then(|| f.next()?.parse().ok())
            .flatten()
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Peak resident set of this process in MB (10^6 bytes): the kernel's
/// RSS high-water mark, the counter `getrusage` reports as `ru_maxrss`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// User + system CPU time of this process so far, all threads included
/// (also those already joined). Time the hypervisor gives to other
/// guests (steal) is not in it.
fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15, in USER_HZ = 100 ticks.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or_default();
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err("cannot parse /proc/self/stat".into()),
    }
}

/// Outcome bookkeeping over every pass of a run.
struct Tally {
    expected: Option<u64>,
    first_digest: Option<u64>,
    attempted: u64,
    failed: u64,
    sim: Vec<(&'static str, f64, &'static str)>,
}

impl Tally {
    fn new(expected: Option<u64>) -> Tally {
        Tally {
            expected,
            first_digest: None,
            attempted: 0,
            failed: 0,
            sim: Vec::new(),
        }
    }

    fn record(&mut self, ops: u64, out: Result<Outcome, String>) {
        self.attempted += ops;
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: pass failed: {e}");
                self.failed += ops;
                return;
            }
        };
        let want = self.expected.or(self.first_digest);
        if want.is_some_and(|d| d != out.digest) {
            eprintln!(
                "perfbench: output digest {:#018x} != expected {:#018x}",
                out.digest,
                want.unwrap_or_default()
            );
            self.failed += ops;
        } else {
            self.failed += out.violations.min(ops);
        }
        self.first_digest.get_or_insert(out.digest);
        if !out.sim.is_empty() {
            self.sim = out.sim;
        }
    }
}

/// Entry point of both binaries; `traced_binary` says which one this is.
pub fn main(traced_binary: bool) -> ExitCode {
    match run(traced_binary) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(traced_binary: bool) -> Result<(), String> {
    let args = Args::parse()?;
    if args.trace != traced_binary {
        return Err(format!(
            "--trace {} needs the {} binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        ));
    }
    if args.record {
        let wl = workloads::setup(&args.workload, args.seed)?;
        let out = wl.pass(false, &mut Counts::default())?;
        println!("{} {} {:#018x}", args.workload, args.seed, out.digest);
        return Ok(());
    }
    if args.trace {
        trace::enable();
    }

    // Set-up, repeated in timed batches (one set-up can take well under a
    // microsecond); each batch yields its mean, set-up time is the median
    // batch mean. The first set-up is the one priced. A traced run records
    // the first set-up of each batch.
    let mut rep = 0u64;
    let mut setup_once = |record: bool| {
        trace::set_recording(args.trace && record);
        rep += 1;
        trace::span("setup", rep - 1, || {
            workloads::setup(&args.workload, args.seed)
        })
    };
    let t_setup = Instant::now();
    let wl = setup_once(true)?;
    // Batches double in size until one lasts SETUP_BATCH_S; those count.
    let mut batch = 1usize;
    let mut setup_s = Vec::new();
    while setup_s.len() < SETUP_MIN_BATCHES || t_setup.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        let t = Instant::now();
        for k in 0..batch {
            setup_once(k == 0)?;
        }
        let secs = t.elapsed().as_secs_f64();
        if secs < SETUP_BATCH_S && setup_s.is_empty() {
            batch *= 2;
        } else {
            setup_s.push(secs / batch as f64);
        }
    }

    let mut tally = Tally::new(expected_digest(&args.workload, args.seed));
    let mut walls = Vec::new(); // untraced passes
    let mut cpus = Vec::new();
    let mut traced_walls = Vec::new();
    let mut counts: Vec<Counts> = Vec::new();
    let t0 = Instant::now();
    for i in 0.. {
        let traced_pass = args.trace && i % 2 == 1;
        if args.trace {
            trace::set_recording(traced_pass);
            alloc::set_active(traced_pass);
        }
        let mut c = Counts::default();
        workloads::take_built_ops();
        let cpu0 = cpu_seconds()?;
        let t = Instant::now();
        let out = trace::span("pass", i as u64, || wl.pass(traced_pass, &mut c));
        let wall = t.elapsed().as_secs_f64();
        let cpu = cpu_seconds()? - cpu0;
        alloc::set_active(false);
        c.build_ops = workloads::take_built_ops();
        tally.record(wl.ops(), out);
        if traced_pass {
            traced_walls.push(wall);
            counts.push(c);
        } else {
            walls.push(wall);
            cpus.push(cpu);
        }
        let enough = if args.trace {
            walls.len() >= MIN_TRACED_PASSES && traced_walls.len() >= MIN_TRACED_PASSES
        } else {
            walls.len() >= MIN_PASSES
        };
        let next = median(&walls).max(median(&traced_walls));
        if enough && t0.elapsed().as_secs_f64() + next > args.seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mb()?;
    let mut replay = Counts::default();
    if args.trace {
        trace::set_recording(true);
        trace::span("replay", 0, || wl.replay(&mut replay))?;
        trace::set_recording(false);
    }

    // A run on a seed without a recorded digest was checked for
    // pass-to-pass agreement; also price the reference seed's scenario.
    if tally.expected.is_none() {
        if let Some(seed) = reference_seed(&args.workload) {
            let reference = workloads::setup(&args.workload, seed)?;
            let mut check = Tally::new(expected_digest(&args.workload, seed));
            check.record(
                reference.ops(),
                reference.pass(false, &mut Counts::default()),
            );
            tally.attempted += check.attempted;
            tally.failed += check.failed;
        }
    }

    let correct = tally.failed == 0;
    let digest = tally.first_digest.unwrap_or_default();
    println!(
        "workload {} seed {}: {} ({} of {} operations failed), output digest {digest:#018x}, input digest {:#018x}",
        args.workload,
        args.seed,
        if correct { "ok" } else { "FAILED" },
        tally.failed,
        tally.attempted,
        wl.input_digest(),
    );
    let metrics = if args.trace {
        let spans = trace::spans();
        if let Some(path) = &args.spans {
            trace::write_jsonl(path, &args.workload, &spans)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        println!(
            "  host: {} reference passes (median {:.6} s), {} traced passes (median {:.6} s)",
            walls.len(),
            median(&walls),
            traced_walls.len(),
            median(&traced_walls)
        );
        let mut c = counts.first().cloned().unwrap_or_default();
        if counts.iter().any(|x| *x != c) {
            eprintln!("perfbench: deterministic counters differ between traced passes");
        }
        add_replay(&mut c, &replay);
        layer_metrics(&spans, &c, median(&traced_walls) / median(&walls) - 1.0)
    } else {
        let error_rate = tally.failed as f64 / tally.attempted as f64;
        let list: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        println!(
            "  host: {} passes [{}] s; {} set-ups in {} batches",
            walls.len(),
            list.join(" "),
            rep,
            setup_s.len()
        );
        println!("  {:<14} {error_rate:>14} ratio", "error_rate");
        for (name, value, unit) in &tally.sim {
            println!("  {name:<14} {value:>14.3} {unit}  (simulated)");
        }
        vec![
            ("wall_s", median(&walls), "s"),
            ("cpu_s", median(&cpus), "s"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss, "MB"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    Ok(())
}

fn add_replay(c: &mut Counts, r: &Counts) {
    c.events += r.events;
    c.waterfill_calls += r.waterfill_calls;
    c.waterfill_flows += r.waterfill_flows;
    c.waterfill_touched += r.waterfill_touched;
    c.max_concurrent_flows = c.max_concurrent_flows.max(r.max_concurrent_flows);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer ledger. A layer's time is the median, over the units
/// that called it (each traced pass, each set-up, the replay), of the
/// unit's summed span self time; counters come from one traced pass plus
/// the replay.
fn layer_metrics(
    spans: &[Span],
    c: &Counts,
    overhead: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    // Self time = duration minus direct children.
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let self_s = |s: &Span| (s.end_ns - s.start_ns - child_ns[s.id]) as f64 * 1e-9;
    // Root of each span (the unit it belongs to).
    let mut root = vec![0usize; spans.len()];
    for s in spans {
        root[s.id] = s.parent.map_or(s.id, |p| root[p]);
    }
    let mut per_unit: BTreeMap<(&str, usize), (f64, u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        let e = per_unit.entry((s.name, root[s.id])).or_default();
        e.0 += self_s(s);
        e.1 += s.allocs;
        e.2 += s.alloc_bytes;
    }
    let layer = |name: &str| -> (f64, f64, f64) {
        let units: Vec<&(f64, u64, u64)> = per_unit
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, v)| v)
            .collect();
        let secs: Vec<f64> = units.iter().map(|u| u.0).collect();
        let first = units
            .first()
            .map_or((0.0, 0.0), |u| (u.1 as f64, u.2 as f64));
        (median(&secs), first.0, first.1)
    };
    let passes: Vec<&Span> = spans.iter().filter(|s| s.name == "pass").collect();
    let unattributed: Vec<f64> = passes.iter().map(|p| ratio(self_s(p), p.secs())).collect();

    let (build_s, allocs, alloc_bytes) = layer("collectives.build");
    let ops = c.build_ops as f64;
    let run_s = layer("simnet.run").0;
    let events = c.events as f64;
    let wf = c.waterfill_calls as f64;
    let search_s = layer("tune.search").0;
    let cands = c.candidates as f64;
    vec![
        ("collectives.build_s", build_s, "s"),
        ("collectives.ops", ops, "count"),
        ("collectives.ns_per_op", ratio(build_s * 1e9, ops), "ns"),
        ("collectives.allocs_per_op", ratio(allocs, ops), "count"),
        (
            "collectives.alloc_bytes_per_op",
            ratio(alloc_bytes, ops),
            "B",
        ),
        ("sched.validate_s", layer("sched.validate").0, "s"),
        ("sched.relocate_s", layer("sched.relocate").0, "s"),
        ("sched.merge_s", layer("sched.merge").0, "s"),
        ("sched.freeze_s", layer("sched.freeze").0, "s"),
        ("sched.merged_ops", c.merged_ops as f64, "count"),
        ("sched.merged_edges", c.merged_edges as f64, "count"),
        ("simnet.run_s", run_s, "s"),
        ("simnet.events", events, "count"),
        ("simnet.ns_per_event", ratio(run_s * 1e9, events), "ns"),
        ("simnet.waterfill_calls", wf, "count"),
        (
            "simnet.flows_per_waterfill",
            ratio(c.waterfill_flows as f64, wf),
            "count",
        ),
        (
            "simnet.touched_per_waterfill",
            ratio(c.waterfill_touched as f64, wf),
            "count",
        ),
        (
            "simnet.max_concurrent_flows",
            c.max_concurrent_flows as f64,
            "count",
        ),
        ("campaign.points", c.points as f64, "count"),
        ("campaign.cache_hits", c.cache_hits as f64, "count"),
        ("campaign.cache_misses", c.cache_misses as f64, "count"),
        ("campaign.self_s", layer("campaign.run").0, "s"),
        ("traffic.sample_s", layer("traffic.sample").0, "s"),
        ("traffic.jobs", c.jobs as f64, "count"),
        ("tune.search_s", search_s, "s"),
        ("tune.candidates_priced", cands, "count"),
        ("tune.ms_per_candidate", ratio(search_s * 1e3, cands), "ms"),
        ("trace.unattributed_frac", median(&unattributed), "ratio"),
        ("trace.overhead_frac", overhead, "ratio"),
    ]
}
