//! The affine loop-nest intermediate representation.
//!
//! A [`Program`] declares 2-D arrays of 64-bit words and a sequence of
//! perfectly nested affine loop nests. Each nest executes its body — a list
//! of [`ArrayRef`]s plus an abstract amount of compute — once per iteration
//! of its innermost loop. This is exactly the program class (dense linear
//! algebra, stencils, table scans) the paper's compiler support targets.

use crate::expr::{AffineExpr, VarId};

/// Handle to an array declared in a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub(crate) usize);

/// A declared 2-D array of 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Human-readable name.
    pub name: String,
    /// Logical rows.
    pub rows: u64,
    /// Logical columns.
    pub cols: u64,
}

/// Whether a reference reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefKind {
    /// Load.
    Read,
    /// Store.
    Write,
}

/// One static array reference `A[row_expr][col_expr]` in a nest body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayRef {
    /// The referenced array.
    pub array: ArrayId,
    /// Row-subscript expression.
    pub row: AffineExpr,
    /// Column-subscript expression.
    pub col: AffineExpr,
    /// Read or write.
    pub kind: RefKind,
    /// Globally unique static-instruction id, assigned by
    /// [`Program::add_nest`]. Plays the role of the PC for the prefetcher.
    pub stream: u32,
}

impl ArrayRef {
    /// A read reference `array[row][col]`.
    pub fn read(array: ArrayId, row: AffineExpr, col: AffineExpr) -> ArrayRef {
        ArrayRef { array, row, col, kind: RefKind::Read, stream: u32::MAX }
    }

    /// A write reference `array[row][col]`.
    pub fn write(array: ArrayId, row: AffineExpr, col: AffineExpr) -> ArrayRef {
        ArrayRef { array, row, col, kind: RefKind::Write, stream: u32::MAX }
    }

    /// Whether this reference writes.
    pub fn is_write(&self) -> bool {
        self.kind == RefKind::Write
    }
}

/// One loop `for v in lo..hi` (step 1). Bounds may reference outer loop
/// variables only, which is how triangular iteration spaces (`strmm`,
/// `ssyrk`) are expressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// Lower bound (inclusive).
    pub lo: AffineExpr,
    /// Upper bound (exclusive).
    pub hi: AffineExpr,
}

impl Loop {
    /// A loop with constant bounds `lo..hi`.
    pub fn constant(lo: i64, hi: i64) -> Loop {
        Loop { lo: AffineExpr::constant(lo), hi: AffineExpr::constant(hi) }
    }

    /// A loop with affine bounds.
    pub fn new(lo: AffineExpr, hi: AffineExpr) -> Loop {
        Loop { lo, hi }
    }
}

/// A perfectly nested affine loop nest with a flat body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopNest {
    /// Loops from outermost (variable 0) to innermost.
    pub loops: Vec<Loop>,
    /// Body references, executed once per innermost iteration.
    pub refs: Vec<ArrayRef>,
    /// Abstract compute micro-ops per innermost iteration (FMAs etc.).
    pub flops_per_iter: u32,
}

impl LoopNest {
    /// Depth of the nest.
    pub fn depth(&self) -> usize {
        self.loops.len()
    }

    /// The innermost loop variable.
    pub fn innermost(&self) -> VarId {
        self.depth() - 1
    }

    /// Validates that bounds use only outer variables and subscripts use
    /// only declared loop variables.
    ///
    /// # Errors
    /// Returns a description of the first malformed loop or reference.
    pub fn validate(&self) -> Result<(), String> {
        if self.loops.is_empty() {
            return Err("a nest needs at least one loop".into());
        }
        for (d, l) in self.loops.iter().enumerate() {
            if !l.lo.uses_only_outer(d) || !l.hi.uses_only_outer(d) {
                return Err(format!("bounds of loop {d} reference inner variables"));
            }
        }
        let depth = self.depth();
        for (i, r) in self.refs.iter().enumerate() {
            if !r.row.uses_only_outer(depth) || !r.col.uses_only_outer(depth) {
                return Err(format!("reference {i} uses undeclared loop variables"));
            }
        }
        Ok(())
    }
}

/// A whole program: array declarations plus a sequence of loop nests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    name: String,
    arrays: Vec<ArrayDecl>,
    nests: Vec<LoopNest>,
    next_stream: u32,
}

impl Program {
    /// Creates an empty program called `name`.
    pub fn new(name: impl Into<String>) -> Program {
        Program { name: name.into(), arrays: Vec::new(), nests: Vec::new(), next_stream: 0 }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a `rows × cols` array of 64-bit words.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn array(&mut self, name: impl Into<String>, rows: u64, cols: u64) -> ArrayId {
        assert!(rows > 0 && cols > 0, "arrays must be non-empty");
        self.arrays.push(ArrayDecl { name: name.into(), rows, cols });
        ArrayId(self.arrays.len() - 1)
    }

    /// Appends a nest, assigning stream ids to its references.
    ///
    /// # Panics
    /// Panics if the nest fails [`LoopNest::validate`] or references an
    /// undeclared array.
    pub fn add_nest(&mut self, mut nest: LoopNest) {
        if let Err(msg) = nest.validate() {
            // mda-lint: allow(lib-unwrap): documented `# Panics` contract rejecting invalid loop nests
            panic!("invalid loop nest: {msg}");
        }
        for r in &mut nest.refs {
            assert!(r.array.0 < self.arrays.len(), "reference to undeclared array");
            r.stream = self.next_stream;
            self.next_stream += 1;
        }
        self.nests.push(nest);
    }

    /// Declared arrays.
    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// The declaration of `id`.
    pub fn array_decl(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    /// The loop nests in program order.
    pub fn nests(&self) -> &[LoopNest] {
        &self.nests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn building_a_program_assigns_streams() {
        let mut p = Program::new("t");
        let a = p.array("A", 4, 4);
        let b = p.array("B", 4, 4);
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 4), Loop::constant(0, 4)],
            refs: vec![
                ArrayRef::read(a, AffineExpr::var(0), AffineExpr::var(1)),
                ArrayRef::write(b, AffineExpr::var(0), AffineExpr::var(1)),
            ],
            flops_per_iter: 1,
        });
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 4)],
            refs: vec![ArrayRef::read(a, AffineExpr::var(0), AffineExpr::constant(0))],
            flops_per_iter: 0,
        });
        let streams: Vec<u32> =
            p.nests().iter().flat_map(|n| n.refs.iter().map(|r| r.stream)).collect();
        assert_eq!(streams, vec![0, 1, 2]);
        assert_eq!(p.array_decl(b).name, "B");
    }

    #[test]
    fn triangular_bounds_validate() {
        // for i in 0..8 { for j in i..8 { ... } }
        let nest = LoopNest {
            loops: vec![
                Loop::constant(0, 8),
                Loop::new(AffineExpr::var(0), AffineExpr::constant(8)),
            ],
            refs: vec![],
            flops_per_iter: 0,
        };
        assert_eq!(nest.validate(), Ok(()));
        assert_eq!(nest.innermost(), 1);
    }

    #[test]
    fn inner_variable_in_bounds_is_rejected() {
        let nest = LoopNest {
            loops: vec![
                Loop::new(AffineExpr::var(1), AffineExpr::constant(8)),
                Loop::constant(0, 8),
            ],
            refs: vec![],
            flops_per_iter: 0,
        };
        assert!(nest.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid loop nest")]
    fn empty_nest_panics_on_add() {
        let mut p = Program::new("t");
        p.add_nest(LoopNest { loops: vec![], refs: vec![], flops_per_iter: 0 });
    }

    #[test]
    #[should_panic(expected = "undeclared array")]
    fn undeclared_array_panics() {
        let mut p = Program::new("t");
        p.add_nest(LoopNest {
            loops: vec![Loop::constant(0, 1)],
            refs: vec![ArrayRef::read(
                ArrayId(3),
                AffineExpr::constant(0),
                AffineExpr::constant(0),
            )],
            flops_per_iter: 0,
        });
    }
}
