//! # minic — a C-subset front-end for computation-reuse research
//!
//! This crate is the language substrate of the `compreuse` workspace, a
//! reproduction of *"A Compiler Scheme for Reusing Intermediate Computation
//! Results"* (Ding & Li, CGO 2004). The paper implements its scheme inside
//! GCC for C; this workspace implements the whole stack from scratch, and
//! `minic` plays GCC's front-end role: it turns C-like source text into a
//! typed AST that the analyses, the reuse transformation, and the profiling
//! VM all operate on.
//!
//! The language supports what the paper's benchmarks need: `int`/`float`
//! scalars, fixed-size arrays, pointers with arithmetic, structs, function
//! pointers (the paper's call-graph construction handles them), the full C
//! expression/statement repertoire, and global initializer lists.
//!
//! ## Pipeline
//!
//! ```
//! // Parse, check, and print back the paper's Figure 2(a) example.
//! let src = "
//!     int power2[15] = {1, 2, 4, 8, 16, 32, 64, 128,
//!                       256, 512, 1024, 2048, 4096, 8192, 16384};
//!     int quan(int val) {
//!         int i;
//!         for (i = 0; i < 15; i++)
//!             if (val < power2[i])
//!                 break;
//!         return i;
//!     }
//!     int main() { return quan(100); }";
//! let program = minic::parse(src)?;
//! let checked = minic::check(program).expect("well-typed");
//! let printed = minic::pretty::print_program(&checked.program);
//! assert!(printed.contains("int quan(int val)"));
//! # Ok::<(), minic::error::Diag>(())
//! ```
//!
//! Two AST statement forms never appear in source text:
//! [`ast::StmtKind::Profile`] (a value-set profiling probe) and
//! [`ast::StmtKind::Memo`] (a memoized segment, the paper's `check_hash`
//! rewrite). They are inserted by the `compreuse` crate's transformation and
//! executed natively by the `vm` crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod span;
pub mod token;
pub mod visit;

pub use ast::Program;
pub use parser::parse;
pub use sema::{check, Checked, SemaInfo};

/// Parses and checks source in one step.
///
/// # Errors
///
/// Returns rendered diagnostics (with line/column positions) on any
/// lexical, syntactic, or semantic error.
///
/// # Examples
///
/// ```
/// let checked = minic::compile("int main() { return 42; }")?;
/// assert_eq!(checked.program.funcs.len(), 1);
/// # Ok::<(), String>(())
/// ```
pub fn compile(source: &str) -> Result<Checked, String> {
    let map = span::LineMap::new(source);
    let program = parse(source).map_err(|d| d.render(&map))?;
    check(program).map_err(|ds| ds.render(&map))
}
