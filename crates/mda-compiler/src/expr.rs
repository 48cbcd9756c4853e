//! Affine index expressions over loop variables.

/// Identifier of a loop variable: its depth in the enclosing nest
/// (0 = outermost).
pub type VarId = usize;

/// An affine expression `Σ cᵥ·v + k` over loop variables.
///
/// Array subscripts and loop bounds are affine, which is what makes the
/// direction analysis of paper Sec. V decidable: the coefficient of the
/// innermost loop variable in each subscript position tells the compiler
/// whether the reference walks rows or columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// `(variable, coefficient)` pairs, sorted by variable, no zeros.
    terms: Vec<(VarId, i64)>,
    /// The constant term.
    constant: i64,
}

impl AffineExpr {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> AffineExpr {
        AffineExpr { terms: Vec::new(), constant: k }
    }

    /// The single-variable expression `v`.
    pub fn var(v: VarId) -> AffineExpr {
        AffineExpr { terms: vec![(v, 1)], constant: 0 }
    }

    /// The expression `c·v`.
    pub fn scaled_var(v: VarId, c: i64) -> AffineExpr {
        if c == 0 {
            AffineExpr::constant(0)
        } else {
            AffineExpr { terms: vec![(v, c)], constant: 0 }
        }
    }

    /// `self + k`.
    pub fn plus(mut self, k: i64) -> AffineExpr {
        self.constant += k;
        self
    }

    /// `self + other`.
    #[allow(clippy::should_implement_trait)] // consuming builder-style add
    pub fn add(mut self, other: &AffineExpr) -> AffineExpr {
        for &(v, c) in &other.terms {
            self.add_term(v, c);
        }
        self.constant += other.constant;
        self
    }

    fn add_term(&mut self, v: VarId, c: i64) {
        match self.terms.binary_search_by_key(&v, |t| t.0) {
            Ok(i) => {
                self.terms[i].1 += c;
                if self.terms[i].1 == 0 {
                    self.terms.remove(i);
                }
            }
            Err(i) => {
                if c != 0 {
                    self.terms.insert(i, (v, c));
                }
            }
        }
    }

    /// The coefficient of variable `v` (zero if absent).
    pub fn coeff_of(&self, v: VarId) -> i64 {
        self.terms.binary_search_by_key(&v, |t| t.0).map(|i| self.terms[i].1).unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Whether the expression mentions no variable deeper than `depth`
    /// (i.e. uses only variables `0..depth`).
    pub fn uses_only_outer(&self, depth: usize) -> bool {
        self.terms.iter().all(|&(v, _)| v < depth)
    }

    /// Evaluates the expression with `values[v]` as the value of variable
    /// `v`.
    ///
    /// # Panics
    /// Panics if a referenced variable has no value.
    pub fn eval(&self, values: &[i64]) -> i64 {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * values[v];
        }
        acc
    }

    /// Returns the expression with every variable `v` replaced by `f(v)`
    /// (used by loop transformations that renumber the nest).
    pub fn remap_vars(&self, mut f: impl FnMut(VarId) -> VarId) -> AffineExpr {
        let mut out = AffineExpr::constant(self.constant);
        for &(v, c) in &self.terms {
            out.add_term(f(v), c);
        }
        out
    }
}

impl From<i64> for AffineExpr {
    fn from(k: i64) -> AffineExpr {
        AffineExpr::constant(k)
    }
}

impl std::fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for &(v, c) in &self.terms {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            if c == 1 {
                write!(f, "v{v}")?;
            } else {
                write!(f, "{c}·v{v}")?;
            }
        }
        if self.constant != 0 || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_of_affine_combination() {
        // 2·v0 + v2 + 5
        let e = AffineExpr::scaled_var(0, 2).add(&AffineExpr::var(2)).plus(5);
        assert_eq!(e.eval(&[3, 100, 7]), 2 * 3 + 7 + 5);
        assert_eq!(e.coeff_of(0), 2);
        assert_eq!(e.coeff_of(1), 0);
        assert_eq!(e.coeff_of(2), 1);
    }

    #[test]
    fn cancelling_terms_disappear() {
        let e = AffineExpr::var(1).add(&AffineExpr::scaled_var(1, -1));
        assert_eq!(e, AffineExpr::constant(0));
        assert!(e.uses_only_outer(0));
    }

    #[test]
    fn uses_only_outer_checks_depth() {
        let e = AffineExpr::var(0).add(&AffineExpr::var(2));
        assert!(e.uses_only_outer(3));
        assert!(!e.uses_only_outer(2));
        assert!(!e.uses_only_outer(0));
    }

    #[test]
    fn display_is_readable() {
        let e = AffineExpr::var(0).add(&AffineExpr::scaled_var(1, 3)).plus(-2);
        assert_eq!(e.to_string(), "v0 + 3·v1 + -2");
        assert_eq!(AffineExpr::constant(0).to_string(), "0");
    }

    #[test]
    fn from_i64_builds_constant() {
        let e: AffineExpr = 42.into();
        assert_eq!(e.eval(&[]), 42);
    }
}
