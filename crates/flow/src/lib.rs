//! # flow — graph algorithms and control-flow graphs for MiniC
//!
//! Part of the `compreuse` workspace (a reproduction of Ding & Li,
//! *A Compiler Scheme for Reusing Intermediate Computation Results*,
//! CGO 2004). This crate provides the control-flow machinery the paper's
//! analyses are built on:
//!
//! - [`graph`] — directed graphs with Tarjan SCCs, condensation,
//!   topological order, and dominators (used for the call graph, the
//!   nesting graph of §2.3, and loop detection);
//! - [`mod@cfg`] — per-function control-flow graphs over the MiniC AST, with
//!   segment *region* extraction (mapping a loop body / `if` branch /
//!   function body to its blocks);
//! - [`bitset`] + [`dataflow`] — a gen/kill fixpoint solver (liveness,
//!   reaching definitions, availability).
//!
//! ```
//! use flow::cfg::Cfg;
//! let checked = minic::compile("int f(int n) { int s = 0; while (n) { s += n; n--; } return s; } int main() { return f(3); }").unwrap();
//! let cfg = Cfg::build(&checked.program.funcs[0].body);
//! let g = cfg.graph();
//! assert!(g.reverse_postorder(cfg.entry).contains(&cfg.exit));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitset;
pub mod cfg;
pub mod dataflow;
pub mod graph;

pub use bitset::BitSet;
pub use cfg::Cfg;
pub use graph::DiGraph;
