//! The index-term AST.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

use crate::rational::{Extended, Rational};
use crate::var::IdxVar;

/// An index term `I` of the paper: the static-level arithmetic language in
/// which list sizes `n`, difference bounds `α` and costs `t` are expressed.
///
/// ```text
/// I, n, α, t ::= i | q | ∞ | I + I | I - I | I * I | I / I
///              | ⌈I⌉ | ⌊I⌋ | min(I, I) | max(I, I) | log2 I | 2^I
///              | Σ_{i = I}^{I} I
/// ```
///
/// Construction goes through the helper constructors ([`Idx::var`],
/// [`Idx::nat`], [`Idx::min`], …) or the overloaded arithmetic operators.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Idx {
    /// An index variable.
    Var(IdxVar),
    /// A rational literal (naturals are integer-valued rationals).
    Const(Rational),
    /// Positive infinity (the trivial cost bound).
    Infty,
    /// Addition `I1 + I2`.
    Add(Box<Idx>, Box<Idx>),
    /// Subtraction `I1 - I2`.
    Sub(Box<Idx>, Box<Idx>),
    /// Multiplication `I1 · I2`.
    Mul(Box<Idx>, Box<Idx>),
    /// Division `I1 / I2`.
    Div(Box<Idx>, Box<Idx>),
    /// Ceiling `⌈I⌉`.
    Ceil(Box<Idx>),
    /// Floor `⌊I⌋`.
    Floor(Box<Idx>),
    /// Binary minimum `min(I1, I2)`.
    Min(Box<Idx>, Box<Idx>),
    /// Binary maximum `max(I1, I2)`.
    Max(Box<Idx>, Box<Idx>),
    /// Base-2 logarithm `log2 I` (totalized as `log2(max(I, 1))`).
    Log2(Box<Idx>),
    /// Power of two `2^I`.
    Pow2(Box<Idx>),
    /// Bounded iterated sum `Σ_{var = lo}^{hi} body` (inclusive bounds), used
    /// by divide-and-conquer cost recurrences such as `Q(n, α)` for merge sort.
    Sum {
        /// The bound summation variable.
        var: IdxVar,
        /// Lower bound (inclusive).
        lo: Box<Idx>,
        /// Upper bound (inclusive).
        hi: Box<Idx>,
        /// Summand, may mention `var`.
        body: Box<Idx>,
    },
}

impl Idx {
    /// An index variable.
    pub fn var(name: impl Into<IdxVar>) -> Idx {
        Idx::Var(name.into())
    }

    /// A natural-number literal.
    pub fn nat(n: u64) -> Idx {
        Idx::Const(Rational::from(n))
    }

    /// A rational literal.
    pub fn rat(num: i64, den: i64) -> Idx {
        Idx::Const(Rational::new(num, den))
    }

    /// The literal zero.
    pub fn zero() -> Idx {
        Idx::Const(Rational::ZERO)
    }

    /// The literal one.
    pub fn one() -> Idx {
        Idx::Const(Rational::ONE)
    }

    /// Positive infinity.
    pub fn infty() -> Idx {
        Idx::Infty
    }

    /// `min(a, b)`.
    pub fn min(a: Idx, b: Idx) -> Idx {
        Idx::Min(Box::new(a), Box::new(b))
    }

    /// `max(a, b)`.
    pub fn max(a: Idx, b: Idx) -> Idx {
        Idx::Max(Box::new(a), Box::new(b))
    }

    /// `⌈a⌉`.
    pub fn ceil(a: Idx) -> Idx {
        Idx::Ceil(Box::new(a))
    }

    /// `⌊a⌋`.
    pub fn floor(a: Idx) -> Idx {
        Idx::Floor(Box::new(a))
    }

    /// `log2 a`.
    pub fn log2(a: Idx) -> Idx {
        Idx::Log2(Box::new(a))
    }

    /// `2^a`.
    pub fn pow2(a: Idx) -> Idx {
        Idx::Pow2(Box::new(a))
    }

    /// `Σ_{var = lo}^{hi} body`.
    pub fn sum(var: impl Into<IdxVar>, lo: Idx, hi: Idx, body: Idx) -> Idx {
        Idx::Sum {
            var: var.into(),
            lo: Box::new(lo),
            hi: Box::new(hi),
            body: Box::new(body),
        }
    }

    /// `⌈a / 2⌉` — pervasive in divide-and-conquer refinements.
    pub fn half_ceil(a: Idx) -> Idx {
        Idx::ceil(a / Idx::nat(2))
    }

    /// `⌊a / 2⌋`.
    pub fn half_floor(a: Idx) -> Idx {
        Idx::floor(a / Idx::nat(2))
    }

    /// Returns `Some(q)` if the term is a literal constant.
    pub fn as_const(&self) -> Option<Extended> {
        match self {
            Idx::Const(q) => Some(Extended::Finite(*q)),
            Idx::Infty => Some(Extended::Infinity),
            _ => None,
        }
    }

    /// Returns `true` if the term is the literal `0`.
    pub fn is_zero(&self) -> bool {
        matches!(self, Idx::Const(q) if q.is_zero())
    }

    /// Returns `true` if the term is syntactically `∞`.
    pub fn is_infty(&self) -> bool {
        matches!(self, Idx::Infty)
    }

    /// The set of free index variables.
    pub fn free_vars(&self) -> BTreeSet<IdxVar> {
        let mut acc = BTreeSet::new();
        self.collect_free_vars(&mut acc);
        acc
    }

    fn collect_free_vars(&self, acc: &mut BTreeSet<IdxVar>) {
        match self {
            Idx::Var(v) => {
                acc.insert(v.clone());
            }
            Idx::Const(_) | Idx::Infty => {}
            Idx::Add(a, b)
            | Idx::Sub(a, b)
            | Idx::Mul(a, b)
            | Idx::Div(a, b)
            | Idx::Min(a, b)
            | Idx::Max(a, b) => {
                a.collect_free_vars(acc);
                b.collect_free_vars(acc);
            }
            Idx::Ceil(a) | Idx::Floor(a) | Idx::Log2(a) | Idx::Pow2(a) => a.collect_free_vars(acc),
            Idx::Sum { var, lo, hi, body } => {
                lo.collect_free_vars(acc);
                hi.collect_free_vars(acc);
                let mut inner = BTreeSet::new();
                body.collect_free_vars(&mut inner);
                inner.remove(var);
                acc.extend(inner);
            }
        }
    }

    /// Returns `true` if `v` occurs free in the term.
    pub fn mentions(&self, v: &IdxVar) -> bool {
        match self {
            Idx::Var(w) => w == v,
            Idx::Const(_) | Idx::Infty => false,
            Idx::Add(a, b)
            | Idx::Sub(a, b)
            | Idx::Mul(a, b)
            | Idx::Div(a, b)
            | Idx::Min(a, b)
            | Idx::Max(a, b) => a.mentions(v) || b.mentions(v),
            Idx::Ceil(a) | Idx::Floor(a) | Idx::Log2(a) | Idx::Pow2(a) => a.mentions(v),
            Idx::Sum { var, lo, hi, body } => {
                lo.mentions(v) || hi.mentions(v) || (var != v && body.mentions(v))
            }
        }
    }

    /// Capture-avoiding substitution of `replacement` for `var`.
    ///
    /// Summation binders shadow the substituted variable; substitution under a
    /// binder whose bound variable occurs free in `replacement` renames the
    /// binder (the generated name is derived from the original).
    pub fn subst(&self, var: &IdxVar, replacement: &Idx) -> Idx {
        match self {
            Idx::Var(v) => {
                if v == var {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Idx::Const(_) | Idx::Infty => self.clone(),
            Idx::Add(a, b) => Idx::Add(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Idx::Sub(a, b) => Idx::Sub(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Idx::Mul(a, b) => Idx::Mul(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Idx::Div(a, b) => Idx::Div(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Idx::Min(a, b) => Idx::Min(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Idx::Max(a, b) => Idx::Max(
                Box::new(a.subst(var, replacement)),
                Box::new(b.subst(var, replacement)),
            ),
            Idx::Ceil(a) => Idx::Ceil(Box::new(a.subst(var, replacement))),
            Idx::Floor(a) => Idx::Floor(Box::new(a.subst(var, replacement))),
            Idx::Log2(a) => Idx::Log2(Box::new(a.subst(var, replacement))),
            Idx::Pow2(a) => Idx::Pow2(Box::new(a.subst(var, replacement))),
            Idx::Sum {
                var: b,
                lo,
                hi,
                body,
            } => {
                let lo = lo.subst(var, replacement);
                let hi = hi.subst(var, replacement);
                if b == var {
                    // Bound occurrence shadows the substitution.
                    Idx::Sum {
                        var: b.clone(),
                        lo: Box::new(lo),
                        hi: Box::new(hi),
                        body: body.clone(),
                    }
                } else if replacement.mentions(b) {
                    // Rename the binder to avoid capture.
                    let fresh = IdxVar::new(format!("{}'", b.name()));
                    let renamed_body = body.subst(b, &Idx::Var(fresh.clone()));
                    Idx::Sum {
                        var: fresh,
                        lo: Box::new(lo),
                        hi: Box::new(hi),
                        body: Box::new(renamed_body.subst(var, replacement)),
                    }
                } else {
                    Idx::Sum {
                        var: b.clone(),
                        lo: Box::new(lo),
                        hi: Box::new(hi),
                        body: Box::new(body.subst(var, replacement)),
                    }
                }
            }
        }
    }

    /// Simultaneous substitution given by a map from variables to terms, in
    /// **one traversal** (the sequential fold over [`Idx::subst`] cloned the
    /// whole tree once per variable).
    ///
    /// Requires that no replacement mentions a substituted variable (the
    /// form produced by the solver's existential elimination, which resolves
    /// mutual references first); under that precondition simultaneous and
    /// sequential application agree up to the names of `Σ` binders inside
    /// replacements (a later sequential step may rename them), and the rare
    /// binder-capture case at a `Σ` of the term itself falls back to the
    /// sequential fold.  Callers substituting into many terms with one map
    /// should validate the map once themselves (the constraint pool's
    /// `subst_all` does) — this entry point does not re-check it.
    pub fn subst_all(&self, map: &BTreeMap<IdxVar, Idx>) -> Idx {
        if map.is_empty() {
            return self.clone();
        }
        self.subst_all_inner(map)
    }

    fn subst_all_inner(&self, map: &BTreeMap<IdxVar, Idx>) -> Idx {
        match self {
            Idx::Var(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            Idx::Const(_) | Idx::Infty => self.clone(),
            Idx::Add(a, b) => Idx::Add(
                Box::new(a.subst_all_inner(map)),
                Box::new(b.subst_all_inner(map)),
            ),
            Idx::Sub(a, b) => Idx::Sub(
                Box::new(a.subst_all_inner(map)),
                Box::new(b.subst_all_inner(map)),
            ),
            Idx::Mul(a, b) => Idx::Mul(
                Box::new(a.subst_all_inner(map)),
                Box::new(b.subst_all_inner(map)),
            ),
            Idx::Div(a, b) => Idx::Div(
                Box::new(a.subst_all_inner(map)),
                Box::new(b.subst_all_inner(map)),
            ),
            Idx::Min(a, b) => Idx::Min(
                Box::new(a.subst_all_inner(map)),
                Box::new(b.subst_all_inner(map)),
            ),
            Idx::Max(a, b) => Idx::Max(
                Box::new(a.subst_all_inner(map)),
                Box::new(b.subst_all_inner(map)),
            ),
            Idx::Ceil(a) => Idx::Ceil(Box::new(a.subst_all_inner(map))),
            Idx::Floor(a) => Idx::Floor(Box::new(a.subst_all_inner(map))),
            Idx::Log2(a) => Idx::Log2(Box::new(a.subst_all_inner(map))),
            Idx::Pow2(a) => Idx::Pow2(Box::new(a.subst_all_inner(map))),
            Idx::Sum { var, .. } => {
                if map.contains_key(var) || map.values().any(|r| r.mentions(var)) {
                    // Shadowing or capture risk at this binder: fall back to
                    // the capture-avoiding single substitution, pairwise
                    // (equivalent under the documented precondition).
                    map.iter().fold(self.clone(), |acc, (v, i)| acc.subst(v, i))
                } else if let Idx::Sum { var, lo, hi, body } = self {
                    Idx::Sum {
                        var: var.clone(),
                        lo: Box::new(lo.subst_all_inner(map)),
                        hi: Box::new(hi.subst_all_inner(map)),
                        body: Box::new(body.subst_all_inner(map)),
                    }
                } else {
                    unreachable!()
                }
            }
        }
    }

    /// Number of AST nodes — used for diagnostics and as a proptest size hint.
    pub fn size(&self) -> usize {
        match self {
            Idx::Var(_) | Idx::Const(_) | Idx::Infty => 1,
            Idx::Add(a, b)
            | Idx::Sub(a, b)
            | Idx::Mul(a, b)
            | Idx::Div(a, b)
            | Idx::Min(a, b)
            | Idx::Max(a, b) => 1 + a.size() + b.size(),
            Idx::Ceil(a) | Idx::Floor(a) | Idx::Log2(a) | Idx::Pow2(a) => 1 + a.size(),
            Idx::Sum { lo, hi, body, .. } => 1 + lo.size() + hi.size() + body.size(),
        }
    }
}

impl Add for Idx {
    type Output = Idx;
    fn add(self, rhs: Idx) -> Idx {
        Idx::Add(Box::new(self), Box::new(rhs))
    }
}

impl Sub for Idx {
    type Output = Idx;
    fn sub(self, rhs: Idx) -> Idx {
        Idx::Sub(Box::new(self), Box::new(rhs))
    }
}

impl Mul for Idx {
    type Output = Idx;
    fn mul(self, rhs: Idx) -> Idx {
        Idx::Mul(Box::new(self), Box::new(rhs))
    }
}

impl Div for Idx {
    type Output = Idx;
    fn div(self, rhs: Idx) -> Idx {
        Idx::Div(Box::new(self), Box::new(rhs))
    }
}

impl From<u64> for Idx {
    fn from(n: u64) -> Self {
        Idx::nat(n)
    }
}

impl From<IdxVar> for Idx {
    fn from(v: IdxVar) -> Self {
        Idx::Var(v)
    }
}

impl fmt::Display for Idx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Idx::Var(v) => write!(f, "{v}"),
            Idx::Const(q) => write!(f, "{q}"),
            Idx::Infty => write!(f, "inf"),
            Idx::Add(a, b) => write!(f, "({a} + {b})"),
            Idx::Sub(a, b) => write!(f, "({a} - {b})"),
            Idx::Mul(a, b) => write!(f, "({a} * {b})"),
            Idx::Div(a, b) => write!(f, "({a} / {b})"),
            Idx::Ceil(a) => write!(f, "ceil({a})"),
            Idx::Floor(a) => write!(f, "floor({a})"),
            Idx::Min(a, b) => write!(f, "min({a}, {b})"),
            Idx::Max(a, b) => write!(f, "max({a}, {b})"),
            Idx::Log2(a) => write!(f, "log2({a})"),
            Idx::Pow2(a) => write!(f, "pow2({a})"),
            Idx::Sum { var, lo, hi, body } => {
                write!(f, "sum({var} = {lo} to {hi}, {body})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_operators_build_the_expected_tree() {
        let i = Idx::var("n") + Idx::nat(1);
        assert_eq!(
            i,
            Idx::Add(Box::new(Idx::Var(IdxVar::new("n"))), Box::new(Idx::nat(1)))
        );
        assert_eq!(i.size(), 3);
    }

    #[test]
    fn free_vars_ignores_bound_summation_variable() {
        let s = Idx::sum(
            "i",
            Idx::zero(),
            Idx::var("h"),
            Idx::var("i") * Idx::var("alpha"),
        );
        let fv = s.free_vars();
        assert!(fv.contains(&IdxVar::new("h")));
        assert!(fv.contains(&IdxVar::new("alpha")));
        assert!(!fv.contains(&IdxVar::new("i")));
    }

    #[test]
    fn subst_replaces_free_occurrences_only() {
        let s = Idx::sum(
            "i",
            Idx::zero(),
            Idx::var("n"),
            Idx::var("i") + Idx::var("n"),
        );
        let replaced = s.subst(&IdxVar::new("n"), &Idx::nat(5));
        match replaced {
            Idx::Sum { hi, body, .. } => {
                assert_eq!(*hi, Idx::nat(5));
                assert_eq!(*body, Idx::var("i") + Idx::nat(5));
            }
            other => panic!("expected a sum, got {other:?}"),
        }
    }

    #[test]
    fn subst_shadowed_binder_is_untouched() {
        let s = Idx::sum("i", Idx::zero(), Idx::nat(3), Idx::var("i"));
        let replaced = s.subst(&IdxVar::new("i"), &Idx::nat(99));
        assert_eq!(replaced, s);
    }

    #[test]
    fn subst_avoids_capture_by_renaming() {
        // substituting  n := i  under a binder for i must not capture.
        let s = Idx::sum("i", Idx::zero(), Idx::nat(3), Idx::var("n"));
        let replaced = s.subst(&IdxVar::new("n"), &Idx::var("i"));
        match replaced {
            Idx::Sum { var, body, .. } => {
                assert_ne!(var, IdxVar::new("i"));
                assert_eq!(*body, Idx::var("i"));
            }
            other => panic!("expected a sum, got {other:?}"),
        }
    }

    #[test]
    fn mentions_agrees_with_free_vars() {
        let i = Idx::min(Idx::var("a"), Idx::var("b")) - Idx::log2(Idx::var("c"));
        for v in ["a", "b", "c"] {
            assert!(i.mentions(&IdxVar::new(v)));
            assert!(i.free_vars().contains(&IdxVar::new(v)));
        }
        assert!(!i.mentions(&IdxVar::new("d")));
    }

    #[test]
    fn display_is_reasonable() {
        let i = Idx::half_ceil(Idx::var("n"));
        assert_eq!(i.to_string(), "ceil((n / 2))");
    }
}
