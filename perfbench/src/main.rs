//! The repository benchmark.  One run measures one workload for about
//! `--seconds` seconds and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! of `BENCHMARK.json` for `--trace 0`, its per-layer metrics for
//! `--trace 1`.  See README.md in this directory.

mod serve;
mod table1;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rel_service::json;
use serve::Kind;
use table1::{NEGATIVES, TABLE1, VERIFIED};
use util::{fast_low, median, peak_rss_mb, quote, Metrics, Reply, Rng, RunOut};

/// Span names whose self time the traced run reports as `self.<name>_ms`.
const SELF_SPANS: [&str; 11] = [
    "program",
    "parse_program",
    "check_def_in",
    "typecheck",
    "exelim",
    "solving",
    "request",
    "server",
    "prime_request",
    "boot",
    "stats_query",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    jobs: usize,
    warm_rps: f64,
    edit_rps: f64,
    p95_limit_ms: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        daemon: PathBuf::new(),
        jobs: 1,
        warm_rps: 0.0,
        edit_rps: 0.0,
        p95_limit_ms: 0.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?,
            "--seconds" => a.seconds = num(&v)?,
            "--trace" => a.trace = v == "1",
            "--daemon" => a.daemon = PathBuf::from(v),
            "--jobs" => a.jobs = num(&v)? as usize,
            "--warm-rps" => a.warm_rps = num(&v)?,
            "--edit-rps" => a.edit_rps = num(&v)?,
            "--p95-limit-ms" => a.p95_limit_ms = num(&v)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let fixed = [a.warm_rps, a.edit_rps, a.p95_limit_ms, a.seconds];
    if fixed.iter().any(|x| *x <= 0.0) || a.jobs == 0 {
        return Err("rates, the limit, --jobs and --seconds must be positive".to_string());
    }
    Ok(a)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let spec = read_spec(&root.join("BENCHMARK.json"))?;
    // This binary lives in <target>/release/; its scratch space is
    // <target>/perfbench/, inside the checkout.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let base = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("cannot locate the target directory")?
        .join("perfbench");
    let work = base.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let cfg = serve::Config {
        daemon: args.daemon.clone(),
        jobs: args.jobs,
        warm_rps: args.warm_rps,
        edit_rps: args.edit_rps,
        p95_limit_ms: args.p95_limit_ms,
        root,
        work: work.clone(),
    };

    trace::set_enabled(args.trace);
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "table1" => run_table1(&cfg, &args),
        "serve-edit" => run_serve(&cfg, &args),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut out = result?;
    let wall = started.elapsed().as_secs_f64();

    // Determinism: the fixed-seed counts must equal those of earlier runs of
    // this build.  The record is named by workload and by a fingerprint of
    // both binaries, so a rebuild from other sources starts a fresh one.
    let build = build_id(&[&exe, &args.daemon])?;
    let compared = check_determinism(
        &base.join(format!("det-{}-{build}.txt", args.workload)),
        &out.det,
        &mut out.wrong,
    )?;

    let m = &mut out.metrics;
    scale_to_host(m);
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    m.set("ok_frac", 1.0 - failed_frac, "ratio");
    m.set("failed_frac", failed_frac, "ratio");
    m.set("det.compared", compared as f64, "count");
    ratio(m, "fm.memo_hit_ratio", "fm.memo_hits", "fm.memo_misses");
    ratio(m, "cache.hit_ratio", "cache.hits", "cache.misses");
    if args.trace {
        let spans = trace::take();
        for name in SELF_SPANS {
            m.set(format!("self.{name}_ms"), 0.0, "ms");
        }
        for (name, (_, _, own)) in trace::self_times(&spans) {
            if SELF_SPANS.contains(&name) {
                m.set(format!("self.{name}_ms"), own, "ms");
            }
        }
        m.set("trace.spans", spans.len() as f64, "count");
        m.set(
            "trace.overhead_pct",
            100.0 * trace::overhead_s() / wall,
            "%",
        );
        let path = base.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&path, trace::chrome_json(&spans))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
    }
    for w in &out.wrong {
        eprintln!("perfbench: WRONG: {w}");
    }

    let listed = if args.trace {
        // The traced run's own end-to-end figures: against the untraced run
        // of the same seed they show the tracing overhead.
        eprintln!("perfbench: end-to-end figures of this traced run:");
        for (name, unit) in &spec.end_to_end {
            eprintln!("  {name:<28} {:>14.4} {unit}", out.metrics.get(name));
        }
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut fields = Vec::new();
    for (name, unit) in listed {
        let (value, got_unit) = out
            .metrics
            .0
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if got_unit != unit {
            return Err(format!(
                "metric {name}: unit {got_unit}, BENCHMARK.json says {unit}"
            ));
        }
        let value = if value.is_finite() { value } else { 1e6 };
        eprintln!("  {name:<28} {value:>14.4} {unit}");
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            quote(name),
            quote(unit)
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.wrong.is_empty(),
        out.attempted,
        out.failed,
        fields.join(",")
    );
    Ok(())
}

/// The reference workload's time (`util::reference_ms`, fast fifth over
/// the run) on the 2-vCPU machine the benchmark was tuned on.
const REFERENCE_NOMINAL_MS: f64 = 10.0;
/// End-to-end times and rates that `scale_to_host` reports at that speed.
const SCALED_TIMES: [&str; 6] = [
    "suite_s",
    "proved_s",
    "ndjson.p50_ms",
    "ndjson.p95_ms",
    "http.p50_ms",
    "http.p95_ms",
];
const SCALED_RATES: [&str; 2] = ["ndjson.max_rps", "http.max_rps"];

/// Reports the end-to-end times and rates at a fixed host speed.  The
/// shared host's speed drifts by up to a third over minutes and moves every
/// figure of a run together; the benchmark's own reference workload, timed
/// through the same run, moves with them, while no change to the program
/// moves it.  So each time is multiplied, and each rate divided, by
/// `REFERENCE_NOMINAL_MS / host.ref_ms`.  `setup_s` and the per-layer
/// figures stay as measured; the raw figures are printed on standard error.
fn scale_to_host(m: &mut Metrics) {
    let f = REFERENCE_NOMINAL_MS / m.get("host.ref_ms");
    eprintln!(
        "perfbench: host reference {:.3} ms; raw figures:",
        m.get("host.ref_ms")
    );
    for (name, (value, unit)) in m.0.iter_mut() {
        if SCALED_TIMES.contains(&name.as_str()) {
            eprintln!("  {name:<28} {value:>14.4} {unit}");
            *value *= f;
        } else if SCALED_RATES.contains(&name.as_str()) {
            eprintln!("  {name:<28} {value:>14.4} {unit}");
            *value /= f;
        }
    }
}

fn ratio(m: &mut Metrics, name: &str, hits: &str, misses: &str) {
    let (h, x) = (m.get(hits), m.get(misses));
    m.set(name, if h + x > 0.0 { h / (h + x) } else { 0.0 }, "ratio");
}

struct Spec {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

/// The metric names and units a run must print, from `BENCHMARK.json`.
fn read_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Vec<(String, String)> {
        v.items(key)
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("unit")?.as_str()?.to_string(),
                ))
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: list("end_to_end"),
        per_layer: list("per_layer"),
    })
}

/// A fingerprint of a build: FNV-1a over the bytes of its binaries.
fn build_id(files: &[&Path]) -> Result<String, String> {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?;
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(format!("{h:016x}"))
}

/// Compares this run's fixed-seed counts with the ones recorded by earlier
/// runs of the same build, recording any not seen yet.  Returns how many
/// records were compared.
fn check_determinism(
    path: &Path,
    det: &[(String, Vec<u64>)],
    wrong: &mut Vec<String>,
) -> Result<usize, String> {
    let mut known: Vec<(String, Vec<u64>)> = std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next()?.to_string();
            Some((name, it.filter_map(|x| x.parse().ok()).collect()))
        })
        .collect();
    let mut compared = 0;
    let mut grew = false;
    for (name, counts) in det {
        match known.iter().find(|(n, _)| n == name) {
            Some((_, before)) => {
                compared += 1;
                if before != counts {
                    wrong.push(format!(
                        "determinism: {name} counts {counts:?}, an earlier run had {before:?}"
                    ));
                }
            }
            None => {
                known.push((name.clone(), counts.clone()));
                grew = true;
            }
        }
    }
    if grew {
        let text: String = known
            .iter()
            .map(|(n, c)| {
                format!(
                    "{n} {}\n",
                    c.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
                )
            })
            .collect();
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(compared)
}

fn run_serve(cfg: &serve::Config, args: &Args) -> Result<RunOut, String> {
    let mut out = serve::run(cfg, Kind::Edit, args.seed, args.seconds, &mut || Ok(()))?;
    // The in-process solver figures belong to `table1`; here they are 0.
    let m = &mut out.metrics;
    m.set("syntax.parse_ms", 0.0, "ms");
    m.set("core.existential_vars", 0.0, "count");
    for name in TABLE1 {
        if !VERIFIED.contains(&name) {
            m.set(format!("prog.{name}.ms"), 0.0, "ms");
        }
    }
    Ok(out)
}

/// The cold checks of a `table1` run: every sample per program, the first
/// check of each, and the verdict tally.
struct Cold {
    rng: Rng,
    samples: Vec<(&'static str, Vec<f64>)>,
    first: Vec<table1::Checked>,
    attempted: usize,
    failed: usize,
    wrong: Vec<String>,
}

impl Cold {
    fn check(&mut self, name: &'static str) -> Result<(), String> {
        let c = table1::check_cold(name)?;
        self.attempted += 1;
        if !table1::verdict_ok(name, c.verified) {
            self.failed += 1;
            self.wrong.push(format!(
                "{name}: verified={} contradicts its known answer",
                c.verified
            ));
        }
        match self.samples.iter_mut().find(|s| s.0 == name) {
            Some(s) => s.1.push(c.ms),
            None => self.samples.push((name, vec![c.ms])),
        }
        match self.first.iter().find(|f| f.name == name) {
            // Repeated checks must repeat the first one's counts exactly.
            Some(f) if c.exact() != f.exact() || c.verified != f.verified => {
                self.wrong
                    .push(format!("determinism: {name} repeated with other counts"));
            }
            Some(_) => {}
            None => self.first.push(c),
        }
        Ok(())
    }

    /// One cold check of each Verified program, in seeded order.
    fn verified_round(&mut self) -> Result<(), String> {
        let mut round = VERIFIED;
        self.rng.shuffle(&mut round);
        round.into_iter().try_for_each(|name| self.check(name))
    }

    fn time(&self, name: &str) -> f64 {
        fast_low(
            &self
                .samples
                .iter()
                .find(|s| s.0 == name)
                .expect("sampled")
                .1,
        )
    }
}

/// Cold passes over the Table-1 programs and negative controls in a
/// `table1` run, and rounds of cold checks of the Verified programs per
/// serving slice.
const COLD_PASSES: usize = 2;
const VERIFIED_ROUNDS: usize = 2;

/// `table1`: the negative-control oracle, then the warm serving pass with
/// the cold checks spread over its slices: each slice starts with its share
/// of the cold passes and rounds of the Verified programs.
fn run_table1(cfg: &serve::Config, args: &Args) -> Result<RunOut, String> {
    let mut oracle = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        table1::oracle()?;
        oracle.push(t0.elapsed().as_secs_f64());
    }

    let mut cold = Cold {
        rng: Rng::new(args.seed),
        samples: Vec::new(),
        first: Vec::new(),
        attempted: 0,
        failed: 0,
        wrong: Vec::new(),
    };
    // Two cold passes, each over the sixteen programs and the negative
    // controls in its own seeded order, spread over the serving slices:
    // every long program gets two samples taken far apart.
    let programs: Vec<&'static str> = TABLE1
        .iter()
        .copied()
        .chain(NEGATIVES.iter().map(|n| n.0))
        .collect();
    let mut order = Vec::new();
    for _ in 0..COLD_PASSES {
        let mut pass = programs.clone();
        cold.rng.shuffle(&mut pass);
        order.extend(pass);
    }
    let per_slice = order.len().div_ceil(serve::SLICES);
    let mut order = order.into_iter();
    let served = serve::run(cfg, Kind::Warm, args.seed, args.seconds, &mut || {
        for name in order.by_ref().take(per_slice) {
            cold.check(name)?;
        }
        (0..VERIFIED_ROUNDS).try_for_each(|_| cold.verified_round())
    })?;
    let mut m = served.metrics;
    let mut wrong = served.wrong;
    wrong.append(&mut cold.wrong);

    m.set("setup_s", median(&oracle) + m.get("setup_s"), "s");
    let sum = |names: &[&str]| names.iter().map(|n| cold.time(n)).sum::<f64>() / 1e3;
    m.set("suite_s", sum(&TABLE1), "s");
    m.set("proved_s", sum(&VERIFIED), "s");
    let table: Vec<&table1::Checked> = cold
        .first
        .iter()
        .filter(|c| TABLE1.contains(&c.name))
        .collect();
    m.set(
        "verified",
        table.iter().filter(|c| c.verified).count() as f64,
        "count",
    );
    m.set("peak_rss_mb", peak_rss_mb("self"), "MB");
    for name in TABLE1 {
        m.set(format!("prog.{name}.ms"), cold.time(name), "ms");
    }

    // Solver-layer figures: the first cold check of each of the sixteen
    // programs, in place of the serving pass's.
    let mut solver = Metrics::default();
    for t in &table {
        solver.add_all(&t.counts);
    }
    m.0.extend(solver.0);
    m.set(
        "syntax.parse_ms",
        table.iter().map(|t| t.parse_ms).sum::<f64>(),
        "ms",
    );
    m.set("defindex.skipped", 0.0, "count");

    let mut det: Vec<(String, Vec<u64>)> = cold
        .first
        .iter()
        .map(|c| (format!("cold.{}", c.name), c.exact()))
        .collect();
    det.sort();
    det.extend(
        served
            .det
            .into_iter()
            .map(|(n, c)| (format!("serve.{n}"), c)),
    );
    Ok(RunOut {
        metrics: m,
        attempted: cold.attempted + served.attempted,
        failed: cold.failed + served.failed,
        wrong,
        det,
    })
}
