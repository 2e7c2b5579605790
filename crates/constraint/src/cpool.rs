//! Hash-consed constraints: an arena interner with `u32` node ids.
//!
//! PR 2 interned *index terms* (`rel_index::IdxPool`) because the solver
//! normalizes the same sub-terms at every decomposition level.  The same
//! argument applies one layer up: the solver simplifies the same *constraint*
//! trees over and over — every candidate substitution in `exelim` re-enters
//! `Solver::entails_no_exists`, which re-simplifies an instantiated matrix
//! whose subtrees are largely unchanged, and structurally identical goals
//! recur across the sub-derivations of one definition.  [`CPool`] stores each
//! distinct constraint exactly once in a flat arena:
//!
//! * **O(1) structural equality** — two constraints are equal iff their
//!   [`CId`]s are equal (interning deduplicates identical subtrees);
//! * **cached free-variable sets** — computed bottom-up once per node at
//!   interning time, shared via `Arc` between nodes (this is what makes the
//!   quantifier-dropping folds and the substitution pruning O(1));
//! * **memoized `simplify`** — the pool mirrors the fold rules of
//!   [`crate::solver::simplify_tree`] exactly, computed once per node and
//!   reused for every later occurrence of the same sub-constraint;
//! * **substitution with sharing** — [`CPool::subst_all`], the one
//!   multi-variable capture-avoiding substitution, runs in a single pass,
//!   memoizes per call and skips (in O(1)) every subtree that mentions no
//!   substituted variable, so re-instantiating a matrix per `exelim`
//!   candidate touches only the nodes that actually change.  Binders get
//!   the names the left fold of single substitutions would give them.
//!
//! Index-term leaves are interned in an embedded [`IdxPool`], so comparison
//! normalization inside `simplify` is memoized too.  The differential
//! property tests below pin the pooled implementations to the tree ones
//! node for node.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;

use rel_index::{Idx, IdxId, IdxPool, IdxVar, Sort};

use crate::constr::Constr;

/// A handle to an interned constraint.  Ids are only meaningful relative to
/// the [`CPool`] that produced them; two ids from the same pool are equal iff
/// the constraints are structurally equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CId(u32);

impl CId {
    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One arena node: the [`Constr`] constructors with children replaced by ids
/// (constraint children by [`CId`], index-term children by [`IdxId`] into
/// the pool's embedded [`IdxPool`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CNode {
    /// `tt`.
    Top,
    /// `ff`.
    Bot,
    /// `a = b`.
    Eq(IdxId, IdxId),
    /// `a ≤ b`.
    Leq(IdxId, IdxId),
    /// `a < b`.
    Lt(IdxId, IdxId),
    /// Conjunction.
    And(Vec<CId>),
    /// Disjunction.
    Or(Vec<CId>),
    /// Negation.
    Not(CId),
    /// Implication.
    Implies(CId, CId),
    /// Universal quantification.
    Forall(IdxVar, Sort, CId),
    /// Existential quantification.
    Exists(IdxVar, Sort, CId),
}

fn node_hash(node: &CNode) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    node.hash(&mut h);
    h.finish()
}

/// A hash-consing arena for constraints.
#[derive(Debug, Default)]
pub struct CPool {
    /// Interner for the index terms appearing in comparisons.
    idx: IdxPool,
    nodes: Vec<CNode>,
    /// Dedup index: node hash → candidate ids, verified against the arena
    /// (hash collisions cannot alias nodes).
    ids: HashMap<u64, Vec<CId>>,
    free_vars: Vec<Arc<BTreeSet<IdxVar>>>,
    /// Whether each node contains a binder (`∀`, `∃`, or `Σ` in a leaf):
    /// the subtrees a substitution step can change without a free
    /// occurrence of its variable, by renaming a binder.
    binds: Vec<bool>,
    simp_memo: Vec<Option<CId>>,
}

impl CPool {
    /// An empty pool.
    pub fn new() -> CPool {
        CPool::default()
    }

    /// Number of distinct constraint nodes interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no constraints have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total arena footprint (constraint nodes plus embedded index-term
    /// nodes) — the measure the thread-local pool's epoch eviction watches.
    pub fn total_nodes(&self) -> usize {
        self.nodes.len() + self.idx.len()
    }

    /// The node behind an id.
    pub fn node(&self, id: CId) -> &CNode {
        &self.nodes[id.index()]
    }

    /// Interns a node, deduplicating against all earlier nodes.
    pub fn intern_node(&mut self, node: CNode) -> CId {
        let hash = node_hash(&node);
        if let Some(bucket) = self.ids.get(&hash) {
            if let Some(&id) = bucket.iter().find(|id| self.nodes[id.index()] == node) {
                return id;
            }
        }
        let id = CId(u32::try_from(self.nodes.len()).expect("constraint pool overflow"));
        let fv = self.compute_free_vars(&node);
        let binds = self.compute_binds(&node);
        self.nodes.push(node);
        self.ids.entry(hash).or_default().push(id);
        self.free_vars.push(fv);
        self.binds.push(binds);
        self.simp_memo.push(None);
        id
    }

    /// Interns a tree constraint bottom-up, sharing every duplicated subtree.
    pub fn intern(&mut self, c: &Constr) -> CId {
        let node = match c {
            Constr::Top => CNode::Top,
            Constr::Bot => CNode::Bot,
            Constr::Eq(a, b) => CNode::Eq(self.idx.intern(a), self.idx.intern(b)),
            Constr::Leq(a, b) => CNode::Leq(self.idx.intern(a), self.idx.intern(b)),
            Constr::Lt(a, b) => CNode::Lt(self.idx.intern(a), self.idx.intern(b)),
            Constr::And(cs) => CNode::And(cs.iter().map(|c| self.intern(c)).collect()),
            Constr::Or(cs) => CNode::Or(cs.iter().map(|c| self.intern(c)).collect()),
            Constr::Not(c) => CNode::Not(self.intern(c)),
            Constr::Implies(a, b) => CNode::Implies(self.intern(a), self.intern(b)),
            Constr::Forall(q, c) => CNode::Forall(q.var.clone(), q.sort, self.intern(c)),
            Constr::Exists(q, c) => CNode::Exists(q.var.clone(), q.sort, self.intern(c)),
        };
        self.intern_node(node)
    }

    /// Reconstructs the tree form of an interned constraint.
    pub fn to_constr(&self, id: CId) -> Constr {
        use crate::constr::Quantified;
        match self.node(id).clone() {
            CNode::Top => Constr::Top,
            CNode::Bot => Constr::Bot,
            CNode::Eq(a, b) => Constr::Eq(self.idx.to_idx(a), self.idx.to_idx(b)),
            CNode::Leq(a, b) => Constr::Leq(self.idx.to_idx(a), self.idx.to_idx(b)),
            CNode::Lt(a, b) => Constr::Lt(self.idx.to_idx(a), self.idx.to_idx(b)),
            CNode::And(cs) => Constr::And(cs.iter().map(|&c| self.to_constr(c)).collect()),
            CNode::Or(cs) => Constr::Or(cs.iter().map(|&c| self.to_constr(c)).collect()),
            CNode::Not(c) => Constr::Not(Box::new(self.to_constr(c))),
            CNode::Implies(a, b) => {
                Constr::Implies(Box::new(self.to_constr(a)), Box::new(self.to_constr(b)))
            }
            CNode::Forall(v, s, c) => {
                Constr::Forall(Quantified::new(v, s), Box::new(self.to_constr(c)))
            }
            CNode::Exists(v, s, c) => {
                Constr::Exists(Quantified::new(v, s), Box::new(self.to_constr(c)))
            }
        }
    }

    /// The cached free-variable set of an interned constraint.
    pub fn free_vars(&self, id: CId) -> &Arc<BTreeSet<IdxVar>> {
        &self.free_vars[id.index()]
    }

    fn compute_free_vars(&self, node: &CNode) -> Arc<BTreeSet<IdxVar>> {
        let union2 = |a: &Arc<BTreeSet<IdxVar>>, b: &Arc<BTreeSet<IdxVar>>| {
            if b.is_subset(a) {
                Arc::clone(a)
            } else if a.is_subset(b) {
                Arc::clone(b)
            } else {
                Arc::new(a.union(b).cloned().collect())
            }
        };
        match node {
            CNode::Top | CNode::Bot => Arc::new(BTreeSet::new()),
            CNode::Eq(a, b) | CNode::Leq(a, b) | CNode::Lt(a, b) => {
                union2(self.idx.free_vars(*a), self.idx.free_vars(*b))
            }
            CNode::And(cs) | CNode::Or(cs) => match cs.as_slice() {
                [] => Arc::new(BTreeSet::new()),
                [first, rest @ ..] => {
                    let mut acc = Arc::clone(&self.free_vars[first.index()]);
                    for c in rest {
                        acc = union2(&acc, &self.free_vars[c.index()]);
                    }
                    acc
                }
            },
            CNode::Not(c) => Arc::clone(&self.free_vars[c.index()]),
            CNode::Implies(a, b) => union2(&self.free_vars[a.index()], &self.free_vars[b.index()]),
            CNode::Forall(v, _, c) | CNode::Exists(v, _, c) => {
                let inner = &self.free_vars[c.index()];
                if inner.contains(v) {
                    Arc::new(inner.iter().filter(|w| *w != v).cloned().collect())
                } else {
                    Arc::clone(inner)
                }
            }
        }
    }

    fn compute_binds(&self, node: &CNode) -> bool {
        match node {
            CNode::Top | CNode::Bot => false,
            CNode::Eq(a, b) | CNode::Leq(a, b) | CNode::Lt(a, b) => {
                self.idx_binds(*a) || self.idx_binds(*b)
            }
            CNode::And(cs) | CNode::Or(cs) => cs.iter().any(|c| self.binds[c.index()]),
            CNode::Not(c) => self.binds[c.index()],
            CNode::Implies(a, b) => self.binds[a.index()] || self.binds[b.index()],
            CNode::Forall(..) | CNode::Exists(..) => true,
        }
    }

    /// Returns `true` when the variable occurs free in the constraint —
    /// O(log n) against the cached set, never a tree walk.
    pub fn mentions(&self, id: CId, v: &IdxVar) -> bool {
        self.free_vars[id.index()].contains(v)
    }

    // ----------------------------------------------------------------------
    // Connective folds (the id-level mirrors of `Constr::and`/`or`/…)
    // ----------------------------------------------------------------------

    fn top(&mut self) -> CId {
        self.intern_node(CNode::Top)
    }

    fn bot(&mut self) -> CId {
        self.intern_node(CNode::Bot)
    }

    /// Conjunction with the exact unit/flattening rules of [`Constr::and`].
    fn and(&mut self, a: CId, b: CId) -> CId {
        match (self.node(a).clone(), self.node(b).clone()) {
            (CNode::Top, _) => b,
            (_, CNode::Top) => a,
            (CNode::Bot, _) | (_, CNode::Bot) => self.bot(),
            (CNode::And(mut xs), CNode::And(ys)) => {
                xs.extend(ys);
                self.intern_node(CNode::And(xs))
            }
            (CNode::And(mut xs), _) => {
                xs.push(b);
                self.intern_node(CNode::And(xs))
            }
            (_, CNode::And(mut ys)) => {
                ys.insert(0, a);
                self.intern_node(CNode::And(ys))
            }
            _ => self.intern_node(CNode::And(vec![a, b])),
        }
    }

    /// Disjunction with the exact unit/flattening rules of [`Constr::or`].
    fn or(&mut self, a: CId, b: CId) -> CId {
        match (self.node(a).clone(), self.node(b).clone()) {
            (CNode::Bot, _) => b,
            (_, CNode::Bot) => a,
            (CNode::Top, _) | (_, CNode::Top) => self.top(),
            (CNode::Or(mut xs), CNode::Or(ys)) => {
                xs.extend(ys);
                self.intern_node(CNode::Or(xs))
            }
            (CNode::Or(mut xs), _) => {
                xs.push(b);
                self.intern_node(CNode::Or(xs))
            }
            (_, CNode::Or(mut ys)) => {
                ys.insert(0, a);
                self.intern_node(CNode::Or(ys))
            }
            _ => self.intern_node(CNode::Or(vec![a, b])),
        }
    }

    /// Negation with the comparison-flipping rules of [`Constr::negate`].
    fn negate(&mut self, id: CId) -> CId {
        match self.node(id).clone() {
            CNode::Top => self.bot(),
            CNode::Bot => self.top(),
            CNode::Not(c) => c,
            CNode::Leq(a, b) => self.intern_node(CNode::Lt(b, a)),
            CNode::Lt(a, b) => self.intern_node(CNode::Leq(b, a)),
            _ => self.intern_node(CNode::Not(id)),
        }
    }

    /// Implication with the unit rules of [`Constr::implies`].
    fn implies(&mut self, a: CId, b: CId) -> CId {
        match (self.node(a), self.node(b)) {
            (CNode::Top, _) => b,
            (CNode::Bot, _) => self.top(),
            (_, CNode::Top) => self.top(),
            _ => self.intern_node(CNode::Implies(a, b)),
        }
    }

    /// Quantification, dropped when the variable does not occur (the
    /// [`Constr::forall`]/[`Constr::exists`] smart constructors) — O(1)
    /// against the cached free-variable set.
    fn quantify(&mut self, forall: bool, v: IdxVar, s: Sort, body: CId) -> CId {
        if !self.mentions(body, &v) {
            return body;
        }
        self.intern_node(if forall {
            CNode::Forall(v, s, body)
        } else {
            CNode::Exists(v, s, body)
        })
    }

    // ----------------------------------------------------------------------
    // Memoized simplification
    // ----------------------------------------------------------------------

    /// Memoized constant-folding simplification, mirroring the fold rules of
    /// [`crate::solver::simplify_tree`] exactly (pinned by the differential
    /// property test below).  Comparison sides normalize through the
    /// embedded [`IdxPool`], so their folds are memoized too.
    pub fn simplify(&mut self, id: CId) -> CId {
        if let Some(s) = self.simp_memo[id.index()] {
            return s;
        }
        let result = match self.node(id).clone() {
            CNode::Top | CNode::Bot => id,
            CNode::Eq(a, b) => {
                let (na, nb) = (self.idx.normalize(a), self.idx.normalize(b));
                match (self.idx.as_const(na), self.idx.as_const(nb)) {
                    (Some(x), Some(y)) => {
                        if x == y {
                            self.top()
                        } else {
                            self.bot()
                        }
                    }
                    _ => {
                        if na == nb {
                            self.top()
                        } else {
                            self.intern_node(CNode::Eq(na, nb))
                        }
                    }
                }
            }
            CNode::Leq(a, b) => {
                let (na, nb) = (self.idx.normalize(a), self.idx.normalize(b));
                match (self.idx.as_const(na), self.idx.as_const(nb)) {
                    (Some(x), Some(y)) => {
                        if x <= y {
                            self.top()
                        } else {
                            self.bot()
                        }
                    }
                    _ => {
                        if na == nb {
                            self.top()
                        } else {
                            self.intern_node(CNode::Leq(na, nb))
                        }
                    }
                }
            }
            CNode::Lt(a, b) => {
                let (na, nb) = (self.idx.normalize(a), self.idx.normalize(b));
                match (self.idx.as_const(na), self.idx.as_const(nb)) {
                    (Some(x), Some(y)) => {
                        if x < y {
                            self.top()
                        } else {
                            self.bot()
                        }
                    }
                    _ => self.intern_node(CNode::Lt(na, nb)),
                }
            }
            CNode::And(cs) => {
                let mut acc = self.top();
                for c in cs {
                    let s = self.simplify(c);
                    acc = self.and(acc, s);
                }
                acc
            }
            CNode::Or(cs) => {
                let mut acc = self.bot();
                for c in cs {
                    let s = self.simplify(c);
                    acc = self.or(acc, s);
                }
                acc
            }
            // Same double-step as the tree version: `negate` flips
            // comparisons without re-folding, so the flipped form is
            // simplified once more; a `Not` result is the opaque case whose
            // operand is already simplified (recursing would loop).
            CNode::Not(c) => {
                let s = self.simplify(c);
                let negated = self.negate(s);
                match self.node(negated) {
                    CNode::Not(_) => negated,
                    _ => self.simplify(negated),
                }
            }
            CNode::Implies(a, b) => {
                let (sa, sb) = (self.simplify(a), self.simplify(b));
                self.implies(sa, sb)
            }
            CNode::Forall(v, s, c) => {
                let body = self.simplify(c);
                self.quantify(true, v, s, body)
            }
            CNode::Exists(v, s, c) => {
                let body = self.simplify(c);
                self.quantify(false, v, s, body)
            }
        };
        self.simp_memo[id.index()] = Some(result);
        // Simplification is idempotent; seed the memo for the result.
        self.simp_memo[result.index()] = Some(result);
        result
    }

    // ----------------------------------------------------------------------
    // Simultaneous substitution
    // ----------------------------------------------------------------------

    /// Simultaneous, capture-avoiding substitution of `map`'s terms for its
    /// variables, in one pass: no replacement may mention a substituted
    /// variable.  Memoized per call, and every subtree whose cached
    /// free-variable set misses all substituted variables is returned
    /// unchanged in O(1) — re-instantiating an `exelim` matrix for the next
    /// candidate touches only the nodes that actually change.
    ///
    /// A `∀x`/`∃x` binder on the way renames exactly like the left fold of
    /// single substitutions ([`Constr::subst`]) in map order: a step whose
    /// variable is `x` stops at the binder, and a step whose replacement
    /// mentions `x` first renames the binder to `x'`.  Below a binder that
    /// did either, the ordered list of steps — renames included — travels
    /// down the tree in place of the map, and the result is the fold's, down
    /// to every binder it renames: only subtrees without free step
    /// variables and without binders are skipped there, and comparison
    /// leaves apply just the steps that act on them — on a free occurrence
    /// of the step's variable, or by renaming a `Σ` binder.
    pub fn subst_all(&mut self, id: CId, map: &BTreeMap<IdxVar, Idx>) -> CId {
        debug_assert!(
            map.values().all(|r| map.keys().all(|k| !r.mentions(k))),
            "subst_all replacements must not mention substituted variables"
        );
        if map.is_empty() {
            return id;
        }
        let mut run = SubstRun {
            map,
            steps: Vec::new(),
            by_var: HashMap::new(),
            lists: Vec::new(),
            memo: HashMap::new(),
            binders: HashMap::new(),
            renames: HashMap::new(),
        };
        let map_list = map
            .iter()
            .map(|(var, repl)| run.push_step(var.clone(), Cow::Borrowed(repl)))
            .collect();
        run.push_list(map_list);
        self.subst_in(id, MAP_LIST, &mut run)
    }

    fn subst_in(&mut self, id: CId, list: usize, run: &mut SubstRun<'_>) -> CId {
        if run.misses(list, self.free_vars(id)) && (list == MAP_LIST || !self.binds[id.index()]) {
            return id;
        }
        if let Some(&done) = run.memo.get(&(id, list)) {
            return done;
        }
        let result = match self.node(id).clone() {
            CNode::Top | CNode::Bot => id,
            CNode::Eq(a, b) => {
                let (a, b) = (self.subst_idx(a, list, run), self.subst_idx(b, list, run));
                self.intern_node(CNode::Eq(a, b))
            }
            CNode::Leq(a, b) => {
                let (a, b) = (self.subst_idx(a, list, run), self.subst_idx(b, list, run));
                self.intern_node(CNode::Leq(a, b))
            }
            CNode::Lt(a, b) => {
                let (a, b) = (self.subst_idx(a, list, run), self.subst_idx(b, list, run));
                self.intern_node(CNode::Lt(a, b))
            }
            CNode::And(cs) => {
                let cs = cs
                    .into_iter()
                    .map(|c| self.subst_in(c, list, run))
                    .collect();
                self.intern_node(CNode::And(cs))
            }
            CNode::Or(cs) => {
                let cs = cs
                    .into_iter()
                    .map(|c| self.subst_in(c, list, run))
                    .collect();
                self.intern_node(CNode::Or(cs))
            }
            CNode::Not(c) => {
                let c = self.subst_in(c, list, run);
                self.intern_node(CNode::Not(c))
            }
            CNode::Implies(a, b) => {
                let (a, b) = (self.subst_in(a, list, run), self.subst_in(b, list, run));
                self.intern_node(CNode::Implies(a, b))
            }
            CNode::Forall(v, s, c) => {
                let (v, body_list) = run.enter_binder(v, list);
                let c = self.subst_in(c, body_list, run);
                self.intern_node(CNode::Forall(v, s, c))
            }
            CNode::Exists(v, s, c) => {
                let (v, body_list) = run.enter_binder(v, list);
                let c = self.subst_in(c, body_list, run);
                self.intern_node(CNode::Exists(v, s, c))
            }
        };
        run.memo.insert((id, list), result);
        result
    }

    /// Substitution at a comparison leaf, through the tree representation
    /// (index terms are small next to the constraint above them).  Under
    /// the caller's map the leaf takes the map simultaneously, in one
    /// [`Idx::subst_all`].  Under a binder that stopped or renamed a step,
    /// the steps run in list order, each a capture-avoiding [`Idx::subst`]
    /// of the term so far — so a later step also renames the `Σ` binders an
    /// earlier step's replacement brought in, as the fold does.  A step
    /// acts only on a free occurrence of its variable or by renaming a `Σ`
    /// binder; while the term has no `Σ` binder, the steps that act are
    /// found through the list's variable index instead of a scan.
    fn subst_idx(&mut self, id: IdxId, list: usize, run: &SubstRun<'_>) -> IdxId {
        let missed = run.misses(list, self.idx.free_vars(id));
        if list == MAP_LIST {
            if missed {
                return id;
            }
            let tree = self.idx.to_idx(id).subst_all(run.map);
            return self.idx.intern(&tree);
        }
        let binds = self.idx_binds(id);
        if missed && !binds {
            return id;
        }
        let mut tree = self.idx.to_idx(id);
        let steps = &run.lists[list].steps;
        let mut fv = (**self.idx.free_vars(id)).clone();
        let mut bound = if binds {
            sum_binders(&tree)
        } else {
            BTreeSet::new()
        };
        let mut next = 0;
        if bound.is_empty() {
            let mut due: BinaryHeap<Reverse<usize>> = fv
                .iter()
                .flat_map(|v| run.positions(list, v))
                .map(Reverse)
                .collect();
            let mut last = None;
            next = steps.len();
            while let Some(Reverse(pos)) = due.pop() {
                if last == Some(pos) {
                    continue;
                }
                last = Some(pos);
                let step = &run.steps[steps[pos]];
                if fv.remove(&step.var) {
                    tree = tree.subst(&step.var, &step.repl);
                    if step.repl_binds {
                        // The term has `Σ` binders now: scan the rest.
                        fv = tree.free_vars();
                        bound = sum_binders(&tree);
                        next = pos + 1;
                        break;
                    }
                    for u in &step.repl_fv {
                        if fv.insert(u.clone()) {
                            due.extend(run.positions(list, u).filter(|&p| p > pos).map(Reverse));
                        }
                    }
                }
            }
        }
        for &s in &steps[next..] {
            let step = &run.steps[s];
            if fv.contains(&step.var) || !step.repl_fv.is_disjoint(&bound) {
                tree = tree.subst(&step.var, &step.repl);
                fv = tree.free_vars();
                bound = sum_binders(&tree);
            }
        }
        self.idx.intern(&tree)
    }

    /// Whether an interned index term contains a `Σ` binder.
    fn idx_binds(&self, id: IdxId) -> bool {
        use rel_index::pool::Node;
        match self.idx.node(id) {
            Node::Var(_) | Node::Const(_) | Node::Infty => false,
            Node::Ceil(a) | Node::Floor(a) | Node::Log2(a) | Node::Pow2(a) => self.idx_binds(*a),
            Node::Add(a, b)
            | Node::Sub(a, b)
            | Node::Mul(a, b)
            | Node::Div(a, b)
            | Node::Min(a, b)
            | Node::Max(a, b) => self.idx_binds(*a) || self.idx_binds(*b),
            Node::Sum { .. } => true,
        }
    }
}

/// The names bound by the `Σ` binders of a term.
fn sum_binders(t: &Idx) -> BTreeSet<IdxVar> {
    fn walk(t: &Idx, acc: &mut BTreeSet<IdxVar>) {
        match t {
            Idx::Var(_) | Idx::Const(_) | Idx::Infty => {}
            Idx::Ceil(a) | Idx::Floor(a) | Idx::Log2(a) | Idx::Pow2(a) => walk(a, acc),
            Idx::Add(a, b)
            | Idx::Sub(a, b)
            | Idx::Mul(a, b)
            | Idx::Div(a, b)
            | Idx::Min(a, b)
            | Idx::Max(a, b) => {
                walk(a, acc);
                walk(b, acc);
            }
            Idx::Sum { var, lo, hi, body } => {
                acc.insert(var.clone());
                walk(lo, acc);
                walk(hi, acc);
                walk(body, acc);
            }
        }
    }
    let mut acc = BTreeSet::new();
    walk(t, &mut acc);
    acc
}

/// The step list a [`CPool::subst_all`] call starts from: the caller's map,
/// in order.  Every other list was derived at a binder that stopped or
/// renamed a step.
const MAP_LIST: usize = 0;

/// One substitution step `var := repl`, with the replacement's free
/// variables (the capture test at every binder) and whether it holds a `Σ`
/// binder.
struct Step<'m> {
    var: IdxVar,
    repl: Cow<'m, Idx>,
    repl_fv: BTreeSet<IdxVar>,
    repl_binds: bool,
}

/// An ordered list of steps: indices into the run's step arena, and the
/// position of each arena step in the list.
struct StepList {
    steps: Vec<usize>,
    /// `pos[s]`: where arena step `s` sits in `steps` (`ABSENT` if not
    /// there; steps added to the arena after the list are absent).
    pos: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

/// The state of one [`CPool::subst_all`] call: the caller's map, the step
/// arena with its steps by variable, the step lists by id, and the memos
/// keyed by node and list (substitution) and by list and binder name
/// (binder passage).
struct SubstRun<'m> {
    map: &'m BTreeMap<IdxVar, Idx>,
    steps: Vec<Step<'m>>,
    by_var: HashMap<IdxVar, Vec<usize>>,
    lists: Vec<StepList>,
    memo: HashMap<(CId, usize), CId>,
    binders: HashMap<(usize, IdxVar), (IdxVar, usize)>,
    renames: HashMap<IdxVar, usize>,
}

impl<'m> SubstRun<'m> {
    fn push_step(&mut self, var: IdxVar, repl: Cow<'m, Idx>) -> usize {
        let s = self.steps.len();
        self.by_var.entry(var.clone()).or_default().push(s);
        self.steps.push(Step {
            var,
            repl_fv: repl.free_vars(),
            repl_binds: !sum_binders(&repl).is_empty(),
            repl,
        });
        s
    }

    fn push_list(&mut self, steps: Vec<usize>) -> usize {
        let mut pos = vec![ABSENT; self.steps.len()];
        for (p, &s) in steps.iter().enumerate() {
            pos[s] = p;
        }
        self.lists.push(StepList { steps, pos });
        self.lists.len() - 1
    }

    /// Positions in list `list` of the steps on `v`.
    fn positions<'a>(&'a self, list: usize, v: &IdxVar) -> impl Iterator<Item = usize> + 'a {
        let pos = &self.lists[list].pos;
        self.by_var
            .get(v)
            .into_iter()
            .flatten()
            .filter_map(move |&s| pos.get(s).copied().filter(|&p| p != ABSENT))
    }

    /// Whether no step of list `list` is on a variable in `fv`.
    fn misses(&self, list: usize, fv: &BTreeSet<IdxVar>) -> bool {
        let steps = &self.lists[list].steps;
        if fv.len() <= steps.len() {
            fv.iter().all(|v| self.positions(list, v).next().is_none())
        } else {
            steps.iter().all(|&s| !fv.contains(&self.steps[s].var))
        }
    }

    /// Passes the binder `∀x`/`∃x` with step list `list`, as the fold of
    /// [`Constr::subst`] does: a step on the binder's current name stops
    /// here, and a step whose replacement mentions that name is preceded by
    /// a rename to a primed name.  Returns the binder's final name and the
    /// body's step list (`list` itself when no step stopped or renamed);
    /// the same binder name under the same list gets the same answer.
    fn enter_binder(&mut self, x: IdxVar, list: usize) -> (IdxVar, usize) {
        if let Some(done) = self.binders.get(&(list, x.clone())) {
            return done.clone();
        }
        let mut name = x.clone();
        let mut body = Vec::with_capacity(self.lists[list].steps.len());
        let mut changed = false;
        for i in 0..self.lists[list].steps.len() {
            let s = self.lists[list].steps[i];
            if self.steps[s].var == name {
                changed = true;
                continue;
            }
            if self.steps[s].repl_fv.contains(&name) {
                let fresh = IdxVar::new(format!("{}'", name.name()));
                let rename = match self.renames.get(&name) {
                    Some(&r) => r,
                    None => {
                        let r = self.push_step(name.clone(), Cow::Owned(Idx::Var(fresh.clone())));
                        self.renames.insert(name, r);
                        r
                    }
                };
                body.push(rename);
                name = fresh;
                changed = true;
            }
            body.push(s);
        }
        let out = if changed {
            (name, self.push_list(body))
        } else {
            (name, list)
        };
        self.binders.insert((list, x), out.clone());
        out
    }
}

/// Node-count cap for the shared per-thread pool; past it the pool is
/// dropped wholesale (epoch eviction, the same policy as `IdxPool`'s
/// thread-local pool and the validity-cache shards).
const THREAD_CPOOL_MAX_NODES: usize = 1 << 20;

thread_local! {
    static THREAD_CPOOL: std::cell::RefCell<CPool> = std::cell::RefCell::new(CPool::new());
}

fn with_thread_pool<R>(f: impl FnOnce(&mut CPool) -> R) -> R {
    THREAD_CPOOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.total_nodes() > THREAD_CPOOL_MAX_NODES {
            *pool = CPool::new();
        }
        f(&mut pool)
    })
}

/// Simplifies through the calling thread's shared pool: repeated
/// simplification of the same (sub-)constraints — every `entails` entry
/// point canonicalizes its goal, and `exelim` re-enters per candidate —
/// reduces to memo lookups instead of tree rebuilds.  Produces exactly the
/// same constraint as the tree-walking [`crate::solver::simplify_tree`].
pub fn simplify_cached(c: &Constr) -> Constr {
    with_thread_pool(|pool| {
        let id = pool.intern(c);
        let simplified = pool.simplify(id);
        if simplified == id {
            // Already in normal form: share the input instead of rebuilding.
            c.clone()
        } else {
            pool.to_constr(simplified)
        }
    })
}

/// [`CPool::subst_all`] on a tree constraint, through the thread's shared
/// pool: the matrix is interned once (amortized across `exelim` candidates)
/// and each substitution touches only the subtrees that mention a
/// substituted variable.
pub fn subst_all_cached(c: &Constr, map: &BTreeMap<IdxVar, Idx>) -> Constr {
    with_thread_pool(|pool| {
        let id = pool.intern(c);
        let substituted = pool.subst_all(id, map);
        if substituted == id {
            c.clone()
        } else {
            pool.to_constr(substituted)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constr::Quantified;
    use crate::solver::simplify_tree;
    use proptest::prelude::*;
    use rel_index::Rational;

    fn n(v: &str) -> Idx {
        Idx::var(v)
    }

    #[test]
    fn interning_deduplicates_and_ids_decide_equality() {
        let mut pool = CPool::new();
        let a = Constr::leq(n("a"), n("b") + Idx::one());
        let b = Constr::leq(n("a"), n("b") + Idx::one());
        let c = Constr::leq(n("a"), n("b") + Idx::nat(2));
        assert_eq!(pool.intern(&a), pool.intern(&b));
        assert_ne!(pool.intern(&a), pool.intern(&c));
        // Shared sub-constraints are stored once.
        let before = pool.len();
        pool.intern(&a.clone().and(c.clone()));
        // Only the And node is new: both conjuncts were already interned.
        assert_eq!(pool.len(), before + 1);
    }

    #[test]
    fn round_trip_preserves_constraints() {
        let mut pool = CPool::new();
        let c = Constr::exists(
            "i",
            Sort::Nat,
            Constr::eq(n("i"), n("n") + Idx::one())
                .and(Constr::lt(Idx::zero(), n("i")).or(Constr::Bot))
                .and(Constr::forall(
                    "m",
                    Sort::Real,
                    Constr::leq(n("m"), n("i")).implies(Constr::Top.negate()),
                )),
        );
        let id = pool.intern(&c);
        assert_eq!(pool.to_constr(id), c);
    }

    #[test]
    fn free_vars_match_tree_and_respect_binders() {
        let mut pool = CPool::new();
        let c = Constr::exists(
            "b",
            Sort::Nat,
            Constr::eq(n("b"), n("a") + Idx::one()).and(Constr::leq(n("c"), n("b"))),
        );
        let id = pool.intern(&c);
        assert_eq!(**pool.free_vars(id), c.free_vars());
        assert!(pool.mentions(id, &IdxVar::new("a")));
        assert!(!pool.mentions(id, &IdxVar::new("b")));
    }

    #[test]
    fn subst_all_stops_at_shadowing_binders_and_renames_capturing_ones() {
        let mut pool = CPool::new();
        // Substituting under a binder of the same name must not touch the
        // bound occurrences; substituting a term mentioning the bound
        // variable must rename the binder first.
        let c = Constr::exists("b", Sort::Nat, Constr::eq(n("b"), n("a")));
        let shadow: BTreeMap<IdxVar, Idx> = [(IdxVar::new("b"), Idx::nat(7))].into();
        let id = pool.intern(&c);
        let out = pool.subst_all(id, &shadow);
        assert_eq!(out, id);
        let capture: BTreeMap<IdxVar, Idx> = [(IdxVar::new("a"), n("b") + Idx::one())].into();
        let out = pool.subst_all(id, &capture);
        assert_eq!(
            pool.to_constr(out),
            Constr::exists("b'", Sort::Nat, Constr::eq(n("b'"), n("b") + Idx::one()))
        );
    }

    fn arb_idx() -> impl Strategy<Value = Idx> {
        let leaf = prop_oneof![
            (0u64..5).prop_map(Idx::nat),
            Just(Idx::Const(Rational::new(1, 2))),
            Just(Idx::infty()),
            Just(Idx::var("n")),
            Just(Idx::var("a")),
            Just(Idx::var("b")),
        ];
        leaf.prop_recursive(2, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| Idx::min(a, b)),
                inner.clone().prop_map(Idx::ceil),
                inner.clone().prop_map(|a| a / Idx::nat(2)),
            ]
        })
    }

    fn arb_constr() -> impl Strategy<Value = Constr> {
        let cmp = prop_oneof![
            Just(Constr::Top),
            Just(Constr::Bot),
            (arb_idx(), arb_idx()).prop_map(|(a, b)| Constr::eq(a, b)),
            (arb_idx(), arb_idx()).prop_map(|(a, b)| Constr::leq(a, b)),
            (arb_idx(), arb_idx()).prop_map(|(a, b)| Constr::lt(a, b)),
        ];
        cmp.prop_recursive(3, 24, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone(), 0usize..3).prop_map(|(a, b, k)| {
                    Constr::And(vec![a, b].into_iter().take(k).collect())
                }),
                (inner.clone(), inner.clone(), 0usize..3)
                    .prop_map(|(a, b, k)| { Constr::Or(vec![a, b].into_iter().take(k).collect()) }),
                inner.clone().prop_map(|c| Constr::Not(Box::new(c))),
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Constr::Implies(Box::new(a), Box::new(b))),
                inner
                    .clone()
                    .prop_map(|c| Constr::Forall(Quantified::new("a", Sort::Nat), Box::new(c))),
                inner
                    .clone()
                    .prop_map(|c| Constr::Exists(Quantified::new("b", Sort::Real), Box::new(c))),
            ]
        })
    }

    proptest! {
        #[test]
        fn pool_simplify_agrees_with_tree_simplify(c in arb_constr()) {
            let mut pool = CPool::new();
            let id = pool.intern(&c);
            let simplified = pool.simplify(id);
            prop_assert_eq!(pool.to_constr(simplified), simplify_tree(&c));
            // And through the shared thread-local pool (memoized path).
            prop_assert_eq!(simplify_cached(&c), simplify_tree(&c));
        }

        #[test]
        fn pool_free_vars_agree_with_tree_free_vars(c in arb_constr()) {
            let mut pool = CPool::new();
            let id = pool.intern(&c);
            prop_assert_eq!((**pool.free_vars(id)).clone(), c.free_vars());
        }

        #[test]
        fn pool_subst_all_without_capture_is_the_pairwise_fold(c in arb_constr(), k in 0u64..4) {
            // No replacement mentions a binder name (`a`, `b`), so the fold
            // of single substitutions renames nothing: a → n + k, b → k.
            let map: BTreeMap<IdxVar, Idx> = [
                (IdxVar::new("a"), Idx::var("n") + Idx::nat(k)),
                (IdxVar::new("b"), Idx::nat(k)),
            ]
            .into();
            let fold = map.iter().fold(c.clone(), |acc, (v, i)| acc.subst(v, i));
            let mut pool = CPool::new();
            let id = pool.intern(&c);
            let out = pool.subst_all(id, &map);
            prop_assert_eq!(pool.to_constr(out), fold.clone());
            prop_assert_eq!(subst_all_cached(&c, &map), fold);
        }

        #[test]
        fn pool_id_equality_iff_structural_equality(a in arb_constr(), b in arb_constr()) {
            let mut pool = CPool::new();
            let ia = pool.intern(&a);
            let ib = pool.intern(&b);
            prop_assert_eq!(ia == ib, a == b);
        }
    }
}
