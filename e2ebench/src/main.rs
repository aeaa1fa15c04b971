//! End-to-end benchmark for the epismc workspace.
//!
//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work-dir <dir>]` repeats one workload as a closed loop from a
//! single client until the time is spent, checks every output, and
//! prints a report whose last line is one JSON object. With `--trace 0`
//! it reports the end-to-end metrics of untraced passes; with
//! `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer metrics of the traced ones. See README.md.

mod layers;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use trace::{describe_percentile, median, Span, Tracer};
use workloads::{Layers, PassOutcome, Workload};

/// Set-up-only samples taken after each pass of an untraced run.
const SETUP_SAMPLES: usize = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PassKind {
    Warmup,
    Untraced,
    Traced,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
        work_dir: value("--work-dir")
            .map_or_else(|_| PathBuf::from("e2ebench/.work"), PathBuf::from),
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metrics in report order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(
    passes: &[&PassOutcome],
    setup: &[f64],
    rss_mb: f64,
    lines: &mut Vec<String>,
) -> Metrics {
    let run: Vec<f64> = passes.iter().map(|r| r.run_s).collect();
    let rate: Vec<f64> = passes
        .iter()
        .map(|r| r.cell_days as f64 / r.run_s)
        .collect();
    let arrivals: Vec<f64> = passes.iter().flat_map(|r| r.arrivals_ms.clone()).collect();
    let n = passes.len();
    let mut m: Metrics = vec![
        ("setup_s".into(), median(setup), "s"),
        ("run_s".into(), median(&run), "s"),
        ("cell_days_per_s".into(), median(&rate), "1/s"),
    ];
    lines.push(format!(
        "setup_s = {:.6} s (median of {} set-ups)",
        m[0].1,
        setup.len()
    ));
    for (name, value, unit) in &m[1..] {
        lines.push(format!("{name} = {value:.6} {unit} (median of {n} passes)"));
    }
    let each: Vec<String> = run.iter().map(|s| format!("{s:.4}")).collect();
    lines.push(format!("run_s of each pass: {}", each.join(" ")));
    for (name, q) in [("arrival_ms_p50", 0.5), ("arrival_ms_p90", 0.9)] {
        let (value, line) = describe_percentile(name, "ms", q, &arrivals);
        lines.push(line);
        m.push((name.into(), value, "ms"));
    }
    lines.push(format!(
        "peak_rss_mb = {rss_mb:.1} MB (VmHWM of the process after its first pass)"
    ));
    m.push(("peak_rss_mb".into(), rss_mb, "MB"));
    m
}

fn per_layer(
    traced: &[&Layers],
    untraced_run_s: f64,
    workers: usize,
    lines: &mut Vec<String>,
) -> Metrics {
    // Scalars are medians over traced passes; latency percentiles pool
    // every traced pass's samples.
    let med = |f: &dyn Fn(&Layers) -> f64| median(&traced.iter().map(|l| f(l)).collect::<Vec<_>>());
    let sum_phase = |l: &Layers, f: &dyn Fn(&layers::WindowCalls) -> u64| -> f64 {
        l.windows.iter().map(f).sum::<u64>() as f64
    };
    let sim_busy = |l: &Layers| sum_phase(l, &|w| w.grid.busy + w.moves.busy);
    let sim_days = |l: &Layers| sum_phase(l, &|w| w.grid.cell_days + w.moves.cell_days);
    let grid_span = |l: &Layers| sum_phase(l, &|w| w.grid.span());
    let grid_busy = |l: &Layers| sum_phase(l, &|w| w.grid.busy);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let w = workers as f64;
    let mut m: Metrics = vec![
        (
            "sim.calls".into(),
            med(&|l| sum_phase(l, &|w| w.grid.calls + w.moves.calls)),
            "count",
        ),
        ("sim.cell_days".into(), med(&sim_days), "count"),
        ("sim.busy_s".into(), med(&|l| sim_busy(l) / 1e9), "s"),
        (
            "sim.ns_per_cell_day".into(),
            med(&|l| ratio(sim_busy(l), sim_days(l))),
            "ns",
        ),
        (
            "sim.draws_per_cell_day".into(),
            med(&|l| ratio(l.batched_draws as f64, l.days_simulated as f64)),
            "count",
        ),
        ("grid.span_s".into(), med(&|l| grid_span(l) / 1e9), "s"),
        (
            "grid.busy_share".into(),
            med(&|l| ratio(grid_busy(l), w * grid_span(l))),
            "ratio",
        ),
        (
            "grid.nonsim_s".into(),
            med(&|l| (w * grid_span(l) - grid_busy(l)) / 1e9),
            "s",
        ),
        ("loop.between_s".into(), med(&|l| l.loop_between_s), "s"),
        (
            "loop.between_share".into(),
            med(&|l| ratio(l.loop_between_s, l.run_s)),
            "ratio",
        ),
        (
            "moves.span_s".into(),
            med(&|l| sum_phase(l, &|w| w.moves.span()) / 1e9),
            "s",
        ),
        (
            "moves.sim_s".into(),
            med(&|l| sum_phase(l, &|w| w.moves.busy) / 1e9),
            "s",
        ),
        (
            "moves.proposed".into(),
            med(&|l| l.moves_proposed as f64),
            "count",
        ),
        (
            "moves.acceptance".into(),
            med(&|l| ratio(l.moves_accepted as f64, l.moves_proposed as f64)),
            "ratio",
        ),
        ("store.puts".into(), med(&|l| l.puts as f64), "count"),
        (
            "store.put_bytes".into(),
            med(&|l| l.put_bytes as f64),
            "bytes",
        ),
        ("store.gets".into(), med(&|l| l.gets as f64), "count"),
        ("store.lists".into(), med(&|l| l.lists as f64), "count"),
        (
            "codec.record_bytes".into(),
            med(&|l| ratio(l.codec.bytes as f64, l.codec.records as f64)),
            "bytes",
        ),
        (
            "codec.encode_ms".into(),
            med(&|l| ratio(l.codec.encode_s * 1e3, l.codec.records as f64)),
            "ms",
        ),
        (
            "codec.decode_ms".into(),
            med(&|l| ratio(l.codec.decode_s * 1e3, l.codec.records as f64)),
            "ms",
        ),
        (
            "sis.unique_ancestor_share".into(),
            med(&|l| l.unique_ancestor_share),
            "ratio",
        ),
    ];
    let traced_run_s = med(&|l| l.run_s);
    m.push((
        "trace.overhead_share".into(),
        ratio(traced_run_s - untraced_run_s, untraced_run_s),
        "ratio",
    ));
    for (name, value, unit) in &m {
        lines.push(format!(
            "{name} = {value} {unit} (median of {} traced passes)",
            traced.len()
        ));
    }
    let pooled =
        |f: &dyn Fn(&Layers) -> Vec<f64>| traced.iter().flat_map(|l| f(l)).collect::<Vec<_>>();
    let span_ms = |name: &'static str| {
        move |l: &Layers| -> Vec<f64> {
            l.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.len() as f64 / 1e6)
                .collect()
        }
    };
    let samples: [(&str, Vec<f64>); 5] = [
        ("store.put_ms_p50", pooled(&|l| l.put_ms.clone())),
        ("store.get_ms_p50", pooled(&|l| l.get_ms.clone())),
        ("stream.open_ms_p50", pooled(&span_ms("open"))),
        ("stream.append_ms_p50", pooled(&span_ms("append"))),
        ("stream.park_ms_p50", pooled(&span_ms("park"))),
    ];
    for (name, xs) in samples {
        let (value, line) = describe_percentile(name, "ms", 0.5, &xs);
        lines.push(line);
        m.push((name.into(), value, "ms"));
    }
    m
}

fn write_spans(path: &PathBuf, runs: &[(u64, &[Span])]) -> std::io::Result<()> {
    let mut out = String::new();
    for (run_id, spans) in runs {
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"run_id\":{run_id},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start, s.end
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;
    let scratch = args
        .work_dir
        .join(format!("{}-{}", wl.name(), std::process::id()));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "e2ebench workload={} seed={} seconds={} trace={} cores={cores} workers={}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.workers()
    );

    // Closed loop: the next pass starts when the previous one returns,
    // and no pass starts that would end past the time budget. The first
    // pass warms the allocator and caches; it is checked but not timed.
    // A traced run then alternates untraced and traced passes so both
    // see the same host conditions.
    let started = Instant::now();
    let store_dir = scratch.join("store");
    let mut passes: Vec<(PassKind, PassOutcome)> = Vec::new();
    let mut setups = Vec::new();
    let mut first_pass_rss_mb = 0.0;
    loop {
        let count = |passes: &[(PassKind, PassOutcome)], kind| {
            passes.iter().filter(|p| p.0 == kind).count()
        };
        let kind = if passes.is_empty() {
            PassKind::Warmup
        } else if args.trace
            && count(&passes, PassKind::Traced) < count(&passes, PassKind::Untraced)
        {
            PassKind::Traced
        } else {
            PassKind::Untraced
        };
        let epoch = Instant::now();
        let tracer = (kind == PassKind::Traced)
            .then(|| Tracer::new((args.seed << 16) ^ passes.len() as u64, epoch));
        let outcome = wl.run_pass(args.seed, &store_dir, tracer.as_ref(), epoch);
        let took = epoch.elapsed().as_secs_f64();
        if kind == PassKind::Warmup {
            first_pass_rss_mb = peak_rss_mb();
        }
        passes.push((kind, outcome));
        let _ = std::fs::remove_dir_all(&store_dir);
        if !args.trace {
            // Set-up takes a millisecond or less: sample it many times,
            // after every pass, so the samples span the whole run.
            for _ in 0..SETUP_SAMPLES {
                match wl.setup_sample(args.seed, &store_dir) {
                    Ok(s) => setups.push(s),
                    Err(e) => eprintln!("e2ebench: set-up sample failed: {e}"),
                }
                let _ = std::fs::remove_dir_all(&store_dir);
            }
        }
        let done = count(&passes, PassKind::Untraced) > 0
            && (!args.trace || count(&passes, PassKind::Traced) > 0);
        if done && started.elapsed().as_secs_f64() + took > args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let mut attempted = 0;
    let mut failed = 0;
    let mut lines = Vec::new();
    for (kind, outcome) in &passes {
        attempted += outcome.attempted;
        failed += outcome.failed;
        for p in &outcome.problems {
            lines.push(format!("CHECK FAILED ({kind:?} pass): {p}"));
        }
    }
    // Same seed, same posterior: every pass, traced or not, must end on
    // the same final-posterior digest.
    let digest = passes[0].1.digest;
    for (kind, outcome) in &passes[1..] {
        if outcome.digest != digest {
            failed += 1;
            lines.push(format!(
                "CHECK FAILED: {kind:?} pass ended on digest {:#018x}, first pass on {digest:#018x}",
                outcome.digest
            ));
        }
    }
    lines.push(format!("final posterior digest {digest:#018x}"));

    let untraced: Vec<&PassOutcome> = passes
        .iter()
        .filter(|p| p.0 == PassKind::Untraced)
        .map(|p| &p.1)
        .collect();
    let metrics = if args.trace {
        let traced: Vec<&Layers> = passes.iter().filter_map(|p| p.1.layers.as_ref()).collect();
        let untraced_run_s = median(&untraced.iter().map(|r| r.run_s).collect::<Vec<_>>());
        let runs: Vec<(u64, &[Span])> = traced
            .iter()
            .map(|l| (l.run_id, l.spans.as_slice()))
            .collect();
        let path =
            args.work_dir
                .join("traces")
                .join(format!("{}-seed{}.jsonl", wl.name(), args.seed));
        match write_spans(&path, &runs) {
            Ok(()) => lines.push(format!("spans written to {}", path.display())),
            Err(e) => lines.push(format!("spans not written: {e}")),
        }
        per_layer(&traced, untraced_run_s, wl.workers(), &mut lines)
    } else {
        setups.extend(untraced.iter().map(|r| r.setup_s));
        end_to_end(&untraced, &setups, first_pass_rss_mb, &mut lines)
    };
    lines.push(format!(
        "passes: 1 warm-up, {} untraced, {} traced; operations attempted {attempted}, failed {failed}",
        untraced.len(),
        passes.len() - 1 - untraced.len()
    ));
    for l in &lines {
        println!("{l}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
