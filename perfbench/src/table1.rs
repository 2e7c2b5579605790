//! The `table1` workload: every Table-1 program checked cold, in process.
//!
//! Each program is parsed and checked from a fresh `Engine::new()` (no
//! validity cache) on a fresh thread.  The interners are thread-local, so a
//! fresh thread matches a cold `birelcost check` process and keeps the
//! seeded program order from leaking into the timings.

use std::time::Instant;

use birelcost::Engine;
use rel_eval::{eval, Env};
use rel_suite::generators::{apply_spine, list_literal, Workload};
use rel_syntax::{parse_expr, parse_program, Expr};
use rel_unary::RelCtx;

use crate::trace;
use crate::util::Metrics;

/// The Table-1 rows, in the paper's order.  A program missing from
/// `rel_suite::all_benchmarks()` is a setup error, not a silent skip.
pub const TABLE1: [&str; 16] = [
    "filter", "append", "rev", "map", "comp", "sam", "find", "2Dcount", "ssort", "bsplit",
    "flatten", "appSum", "merge", "zip", "msort", "bfold",
];

/// Programs whose known answer is "verifies": the paper types all sixteen,
/// and these six are the ones this checker must keep verifying.  The other
/// ten may verify or not (a new verification is a gain, guarded by the
/// negative controls below).
pub const VERIFIED: [&str; 6] = ["append", "rev", "map", "flatten", "appSum", "zip"];

/// Unsound variants whose known answer is "does not verify".  The oracle
/// below shows each one false with the cost-counting evaluator, so an
/// unsound solver change that "verifies" one is caught as a wrong verdict.
pub const NEGATIVES: [(&str, &str); 3] = [
    (
        "neg.map0",
        "def map : forall t :: real. box(tv a ->[t] tv b) ->
                  forall n :: nat. forall al :: nat.
                  list[n; al] tv a ->[0] list[n; al] tv b
        = Lam. fix map(f). Lam. Lam. lam l.
            case l of nil -> nil | h :: tl -> cons(f h, map f [] [] tl);",
    ),
    (
        "neg.append_len",
        "def append : unitr -> forall n :: nat. forall a :: nat.
                     list[n; a] (UU int) ->
                     forall m :: nat. forall b :: nat.
                     list[m; b] (UU int) ->[0] list[n + m + 1; a + b] (UU int)
        = fix append(u). Lam. Lam. lam l1. Lam. Lam. lam l2.
            case l1 of nil -> l2 | h :: t -> cons(h, append () [] [] t [] [] l2);",
    ),
    ("neg.two", "def two : UU int @ 1 = 1 + 1 + 1 ~ 3;"),
];

pub fn source(name: &str) -> Result<&'static str, String> {
    rel_suite::all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .map(|b| b.source)
        .or_else(|| NEGATIVES.iter().find(|(n, _)| *n == name).map(|(_, s)| *s))
        .ok_or_else(|| format!("no program named {name}"))
}

/// The per-layer counts the determinism check compares exactly.
pub const EXACT: [&str; 8] = [
    "solver.queries",
    "exelim.attempts",
    "exelim.pruned",
    "fm.memo_misses",
    "grid.points",
    "cache.misses",
    "core.constraint_atoms",
    "core.existential_vars",
];

/// One cold check of one program.
pub struct Checked {
    pub name: &'static str,
    /// Time to verdict: parse plus every definition's check, in ms.
    pub ms: f64,
    pub parse_ms: f64,
    /// Every definition checked ok.
    pub verified: bool,
    /// Solver-layer figures summed over the definitions, by metric name.
    pub counts: Metrics,
}

impl Checked {
    pub fn exact(&self) -> Vec<u64> {
        EXACT.iter().map(|n| self.counts.get(n) as u64).collect()
    }
}

/// Parses and checks `name` from a fresh engine on a fresh thread.  Spans
/// are recorded after the clock stops, so tracing does not enter the
/// measured time.
pub fn check_cold(name: &'static str) -> Result<Checked, String> {
    let src = source(name)?;
    std::thread::spawn(move || check_here(name, src))
        .join()
        .map_err(|_| format!("{name}: the checker panicked"))?
}

fn check_here(name: &'static str, src: &'static str) -> Result<Checked, String> {
    let t0 = Instant::now();
    let program = parse_program(src).map_err(|e| format!("{name}: parse error: {e}"))?;
    let t_parsed = Instant::now();
    let engine = Engine::new();
    let mut ctx = RelCtx::new();
    let mut defs = Vec::new();
    for def in program.iter() {
        let start = Instant::now();
        let report = engine.check_def_in(&ctx, def);
        defs.push((start, Instant::now(), report));
        ctx = ctx.bind_var(def.name.clone(), def.ty.clone());
    }
    let t_end = Instant::now();

    let root = trace::record("program", 0, trace::ns(t0), trace::ns(t_end));
    trace::record("parse_program", root, trace::ns(t0), trace::ns(t_parsed));
    let mut counts = Metrics::default();
    let mut verified = true;
    for (start, end, r) in &defs {
        let id = trace::record("check_def_in", root, trace::ns(*start), trace::ns(*end));
        let t = &r.timings;
        trace::record_children(
            id,
            trace::ns(*start),
            &[
                ("typecheck", t.typecheck.as_nanos() as u64),
                ("exelim", t.existential_elim.as_nanos() as u64),
                ("solving", t.solving.as_nanos() as u64),
            ],
        );
        verified &= r.ok;
        let s = &r.stats;
        let c = &mut counts;
        c.add("core.typecheck_ms", ms(t.typecheck), "ms");
        c.add("exelim.ms", ms(t.existential_elim), "ms");
        c.add("fm.ms", ms(s.fm_time), "ms");
        c.add("grid.ms", ms(s.numeric_time), "ms");
        c.add("core.constraint_atoms", r.constraint_atoms as f64, "count");
        c.add("core.existential_vars", r.existential_vars as f64, "count");
        c.add("solver.queries", s.queries as f64, "count");
        c.add("exelim.attempts", s.exelim_attempts as f64, "count");
        c.add("exelim.pruned", s.exelim_candidates_pruned as f64, "count");
        let exhausted = f64::from(u8::from(s.search_exhausted.is_some()));
        c.add("exelim.exhausted", exhausted, "count");
        c.add("fm.proved", s.fm_proved as f64, "count");
        c.add("fm.refuted", s.fm_refuted as f64, "count");
        c.add("fm.memo_hits", s.fm_memo_hits as f64, "count");
        c.add("fm.memo_misses", s.fm_memo_misses as f64, "count");
        c.add("grid.points", s.points_evaluated as f64, "count");
        c.add("grid.accepted", s.grid_accepted as f64, "count");
        c.add("grid.compiled", s.programs_compiled as f64, "count");
        c.add("cache.hits", s.cache_hits as f64, "count");
        c.add("cache.misses", s.cache_misses as f64, "count");
    }
    Ok(Checked {
        name,
        ms: ms(t_end - t0),
        parse_ms: ms(t_parsed - t0),
        verified: verified && !defs.is_empty(),
        counts,
    })
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether a verdict matches the program's known answer.
pub fn verdict_ok(name: &str, verified: bool) -> bool {
    if VERIFIED.contains(&name) {
        verified
    } else if name.starts_with("neg.") {
        !verified
    } else {
        true
    }
}

/// Shows every negative control false by evaluation, independently of the
/// checker: a relative cost above the stated bound, or an output whose
/// length contradicts the stated type.
pub fn oracle() -> Result<(), String> {
    let def_of = |name: &str| -> Result<rel_syntax::Def, String> {
        let program = parse_program(source(name)?).map_err(|e| format!("{name}: {e}"))?;
        program
            .iter()
            .last()
            .cloned()
            .ok_or_else(|| format!("{name}: empty"))
    };
    let run = |e: &Expr| eval(e, &Env::new()).map_err(|e| e.to_string());

    // map at relative cost 0: with a mapping function whose cost depends on
    // its argument (relative cost 1 per element), lists that differ in α
    // positions cost α apart.
    let map = def_of("neg.map0")?;
    let f = parse_expr("lam x. if x < 100 then x else x + 1").map_err(|e| e.to_string())?;
    let w = Workload::generate(12, 3, 7);
    let cost = |items: &[i64]| -> Result<u64, String> {
        let call = map
            .left
            .clone()
            .iapp()
            .app(f.clone())
            .iapp()
            .iapp()
            .app(list_literal(items));
        Ok(run(&call)?.cost)
    };
    let (perturbed, base) = (cost(&w.right)?, cost(&w.left)?);
    if w.differing == 0 || perturbed <= base {
        return Err(format!(
            "oracle: map0 relative cost {perturbed} - {base} is within 0"
        ));
    }

    // append claiming length n + m + 1: the evaluated output has n + m.
    let append = def_of("neg.append_len")?;
    let (l1, l2) = ([1, 2, 3], [4, 5]);
    let call = apply_spine(append.left.clone(), 2, list_literal(&l1))
        .iapp()
        .iapp()
        .app(list_literal(&l2));
    let len = run(&call)?.value.as_int_list().map(|l| l.len());
    if len == Some(l1.len() + l2.len() + 1) {
        return Err("oracle: append_len produced n + m + 1 elements".to_string());
    }

    // `1 + 1 + 1 ~ 3` at relative cost 1: the left run costs 2 more.
    let two = def_of("neg.two")?;
    let diff = run(&two.left)?.cost as i64 - run(two.right_or_left())?.cost as i64;
    if diff <= 1 {
        return Err(format!("oracle: two relative cost {diff} is within 1"));
    }
    Ok(())
}
