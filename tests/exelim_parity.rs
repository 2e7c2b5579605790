//! Parity of the candidate search's bookkeeping with the implementations it
//! replaced, which live on here as oracles:
//!
//! * [`resolve_fixpoint`] — the old fixpoint resolver: substitute every
//!   mentioned existential by its current term, round after round, until
//!   nothing changes.  The search now resolves assignments on a per-component
//!   dependency table ([`Resolver`]).
//! * [`subst_fold`] — the old simultaneous substitution: subtrees no
//!   substituted variable occurs free in are kept, and a binder that shadows
//!   a substituted variable or is mentioned by a replacement falls back to
//!   the left fold of single capture-avoiding substitutions over the whole
//!   map.  The search now instantiates in one pass ([`subst_all_cached`]).
//!
//! Both are compared on generated constraints and on every odometer step the
//! search can take over the Table-1 corpus.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

use birelcost::Engine;
use proptest::prelude::*;
use rel_constraint::cpool::subst_all_cached;
use rel_constraint::{
    CacheStats, Constr, Quantified, QueryRef, Resolver, SearchPlan, SolveConfig, Validity,
    ValidityCache,
};
use rel_index::{Idx, IdxVar, Sort};
use rel_suite::all_benchmarks;
use rel_syntax::parse_program;

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// The fixpoint resolver: resolves candidates that mention other existential
/// variables by repeated substitution; `None` when a cycle or a reference to
/// an existential without a term prevents resolution.
fn resolve_fixpoint(
    subst: &BTreeMap<IdxVar, Idx>,
    ex_vars: &[Quantified],
) -> Option<BTreeMap<IdxVar, Idx>> {
    let ex_names: Vec<&IdxVar> = ex_vars.iter().map(|q| &q.var).collect();
    let mut out = subst.clone();
    for _ in 0..=ex_vars.len() {
        let mut changed = false;
        let snapshot = out.clone();
        for idx in out.values_mut() {
            for w in &ex_names {
                if idx.mentions(w) {
                    let replacement = snapshot.get(*w)?.clone();
                    if replacement.mentions(w) {
                        return None;
                    }
                    *idx = idx.subst(w, &replacement);
                    changed = true;
                }
            }
        }
        if !changed {
            if out
                .values()
                .all(|i| ex_names.iter().all(|w| !i.mentions(w)))
            {
                return Some(out);
            }
            return None;
        }
    }
    None
}

/// The simultaneous substitution with the pairwise fold at binders.
fn subst_fold(c: &Constr, map: &BTreeMap<IdxVar, Idx>) -> Constr {
    let side = |i: &Idx| {
        if map.keys().any(|v| i.mentions(v)) {
            i.subst_all(map)
        } else {
            i.clone()
        }
    };
    if map.keys().all(|v| !c.mentions(v)) {
        return c.clone();
    }
    match c {
        Constr::Top | Constr::Bot => c.clone(),
        Constr::Eq(a, b) => Constr::Eq(side(a), side(b)),
        Constr::Leq(a, b) => Constr::Leq(side(a), side(b)),
        Constr::Lt(a, b) => Constr::Lt(side(a), side(b)),
        Constr::And(cs) => Constr::And(cs.iter().map(|c| subst_fold(c, map)).collect()),
        Constr::Or(cs) => Constr::Or(cs.iter().map(|c| subst_fold(c, map)).collect()),
        Constr::Not(c) => Constr::Not(Box::new(subst_fold(c, map))),
        Constr::Implies(a, b) => {
            Constr::Implies(Box::new(subst_fold(a, map)), Box::new(subst_fold(b, map)))
        }
        Constr::Forall(q, body) | Constr::Exists(q, body) => {
            if map.contains_key(&q.var) || map.values().any(|r| r.mentions(&q.var)) {
                map.iter().fold(c.clone(), |acc, (v, i)| acc.subst(v, i))
            } else {
                let body = Box::new(subst_fold(body, map));
                match c {
                    Constr::Forall(..) => Constr::Forall(q.clone(), body),
                    _ => Constr::Exists(q.clone(), body),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generated constraints
// ---------------------------------------------------------------------------

// Substituted variables are `n`, `m` and `a`; replacements are built over
// `b`, `x`, `j` and `k`.  Binders range over `a` (shadows a key), `b`, `x`
// and `j` (captured by replacements); `Σ` binders over `j`, `b` and `a`.

fn var_of(names: &'static [&'static str]) -> BoxedStrategy<Idx> {
    (0..names.len()).prop_map(move |i| Idx::var(names[i]))
}

fn arb_idx(names: &'static [&'static str]) -> BoxedStrategy<Idx> {
    const SUM_BINDERS: [&str; 3] = ["j", "b", "a"];
    let leaf = prop_oneof![(0u64..4).prop_map(Idx::nat), var_of(names), var_of(names)];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Idx::min(a, b)),
            inner.clone().prop_map(Idx::ceil),
            (
                0..SUM_BINDERS.len(),
                inner.clone(),
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(v, lo, hi, body)| Idx::sum(SUM_BINDERS[v], lo, hi, body)),
        ]
    })
}

fn arb_constr() -> BoxedStrategy<Constr> {
    const NAMES: &[&str] = &["n", "m", "a", "b", "x", "j"];
    const BINDERS: [&str; 4] = ["a", "b", "x", "j"];
    let cmp = prop_oneof![
        Just(Constr::Top),
        (arb_idx(NAMES), arb_idx(NAMES)).prop_map(|(a, b)| Constr::eq(a, b)),
        (arb_idx(NAMES), arb_idx(NAMES)).prop_map(|(a, b)| Constr::leq(a, b)),
        (arb_idx(NAMES), arb_idx(NAMES)).prop_map(|(a, b)| Constr::lt(a, b)),
    ];
    cmp.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Constr::And(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Constr::Or(vec![a, b])),
            inner.clone().prop_map(|c| Constr::Not(Box::new(c))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Constr::Implies(Box::new(a), Box::new(b))),
            (0..BINDERS.len(), inner.clone()).prop_map(|(v, c)| {
                Constr::Forall(Quantified::new(BINDERS[v], Sort::Nat), Box::new(c))
            }),
            (0..BINDERS.len(), inner.clone()).prop_map(|(v, c)| {
                Constr::Exists(Quantified::new(BINDERS[v], Sort::Real), Box::new(c))
            }),
            // Nested binders, the inner one over a name the outer one's
            // renaming produces or captures.
            (0..BINDERS.len(), 0..BINDERS.len(), inner.clone()).prop_map(|(v, w, c)| {
                let inner = Constr::Exists(Quantified::new(BINDERS[w], Sort::Nat), Box::new(c));
                Constr::Forall(Quantified::new(BINDERS[v], Sort::Nat), Box::new(inner))
            }),
        ]
    })
}

/// A map over (a subset of) `n`, `m`, `a` whose replacements mention no key.
fn arb_map() -> BoxedStrategy<BTreeMap<IdxVar, Idx>> {
    const REPL: &[&str] = &["b", "x", "j", "k"];
    (
        (0u64..3, arb_idx(REPL)),
        (0u64..3, arb_idx(REPL)),
        (0u64..3, arb_idx(REPL)),
    )
        .prop_map(|(n, m, a)| {
            [("n", n), ("m", m), ("a", a)]
                .into_iter()
                .filter(|(_, (keep, _))| *keep > 0)
                .map(|(v, (_, i))| (IdxVar::new(v), i))
                .collect()
        })
}

proptest! {
    #[test]
    fn single_pass_substitution_matches_the_fold(c in arb_constr(), map in arb_map()) {
        prop_assert_eq!(subst_all_cached(&c, &map), subst_fold(&c, &map));
    }
}

#[test]
fn generated_cases_exercise_capture_and_shadowing() {
    // The property above only means something if renaming and shadowing
    // actually happen in it.
    let mut rng = TestRng::from_label("single_pass_substitution_matches_the_fold");
    let (mut renamed, mut shadowed) = (0, 0);
    for _ in 0..256 {
        let c = arb_constr().generate(&mut rng);
        let map = arb_map().generate(&mut rng);
        let out = subst_all_cached(&c, &map);
        if out.to_string().contains('\'') {
            renamed += 1;
        }
        if map.contains_key(&IdxVar::new("a")) && c.to_string().contains("forall a") {
            shadowed += 1;
        }
    }
    assert!(renamed >= 10, "only {renamed} cases renamed a binder");
    assert!(shadowed >= 10, "only {shadowed} cases shadowed a key");
}

// ---------------------------------------------------------------------------
// The Table-1 corpus
// ---------------------------------------------------------------------------

/// A validity cache that remembers every query the candidate search would
/// receive (an undecomposable goal with existentials) and answers none.
#[derive(Debug, Default)]
struct SearchInputs(Mutex<Vec<(Constr, Constr)>>);

impl ValidityCache for SearchInputs {
    fn lookup(&self, query: &QueryRef<'_>) -> Option<Validity> {
        let goal = query.goal();
        let decomposed = matches!(
            goal,
            Constr::Top | Constr::And(_) | Constr::Implies(..) | Constr::Forall(..)
        );
        if !decomposed && !goal.existential_vars().is_empty() {
            let mut inputs = self.0.lock().unwrap();
            let input = (query.hyp().clone(), goal.clone());
            if !inputs.contains(&input) {
                inputs.push(input);
            }
        }
        None
    }

    fn store(&self, _: &QueryRef<'_>, _: Validity) {}

    fn stats(&self) -> CacheStats {
        CacheStats::default()
    }
}

/// Every (hypothesis, goal) pair the search receives over Table 1.
fn table1_search_inputs() -> Vec<(Constr, Constr)> {
    let inputs = Arc::new(SearchInputs::default());
    for b in all_benchmarks() {
        let program = parse_program(b.source).unwrap();
        Engine::new()
            .with_cache(inputs.clone())
            .check_program(&program);
    }
    let inputs = inputs.0.lock().unwrap().clone();
    inputs
}

#[test]
fn table1_odometers_resolve_and_instantiate_as_before() {
    // Walk each component's odometer the way the search does, as if every
    // instantiation failed: the attempt budget is shared by a goal's
    // components, repeats of an instantiation are free, and exploration is
    // capped at 64 times the budget.  That covers every step the search
    // takes (it stops earlier when an instantiation is proved).  Every
    // step's resolution and instantiation is compared with the oracles,
    // except that the fixpoint's slow path — an assignment it cannot
    // resolve, which it may take dozens of rounds to give up on — is only
    // taken for a component's first `UNRESOLVED_CHECKED` such steps.
    const UNRESOLVED_CHECKED: usize = 64;
    let budget = SolveConfig::default().max_exelim_attempts;
    let (mut steps, mut unresolved, mut instantiations) = (0usize, 0usize, 0usize);
    let inputs = table1_search_inputs();
    assert!(!inputs.is_empty());
    for (hyp, goal) in &inputs {
        let plan = SearchPlan::new(hyp, goal);
        let mut attempts = 0usize;
        for comp in &plan.components {
            let resolver = Resolver::new(comp, &plan.ex_vars);
            let mut seen: HashSet<Constr> = HashSet::new();
            let mut assignment = vec![0usize; comp.vars.len()];
            let (mut explored, mut comp_unresolved) = (0usize, 0usize);
            'walk: loop {
                explored += 1;
                if attempts >= budget || explored > budget * 64 {
                    break;
                }
                steps += 1;
                let resolved = resolver.resolve(&assignment);
                if resolved.is_some() || comp_unresolved < UNRESOLVED_CHECKED {
                    let subst: BTreeMap<IdxVar, Idx> = comp
                        .vars
                        .iter()
                        .zip(&comp.candidates)
                        .zip(&assignment)
                        .map(|((q, cands), &i)| (q.var.clone(), cands[i].clone()))
                        .collect();
                    assert_eq!(
                        resolved,
                        resolve_fixpoint(&subst, &plan.ex_vars),
                        "assignment {assignment:?} of {goal}"
                    );
                }
                match resolved {
                    None => {
                        unresolved += 1;
                        comp_unresolved += 1;
                    }
                    Some(map) => {
                        let instantiated = subst_all_cached(&comp.goal, &map);
                        assert_eq!(instantiated, subst_fold(&comp.goal, &map));
                        instantiations += 1;
                        if seen.insert(instantiated) {
                            attempts += 1;
                        }
                    }
                }
                let mut i = 0;
                loop {
                    if i == assignment.len() {
                        break 'walk;
                    }
                    assignment[i] += 1;
                    if assignment[i] < comp.candidates[i].len() {
                        break;
                    }
                    assignment[i] = 0;
                    i += 1;
                }
            }
        }
    }
    // Both outcomes of resolution occur, and instantiation is exercised.
    assert!(unresolved > 0 && instantiations > 0, "{steps} steps");
}
