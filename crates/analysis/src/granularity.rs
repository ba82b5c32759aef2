//! Granularity and hashing-overhead estimation (paper §3.1):
//!
//! > "In code segment analysis, we estimate a lower bound on the
//! > granularity and an upper bound on the hashing overhead for each code
//! > segment."
//!
//! These static estimates drive the paper's *pre-profiling* filter
//! (`O/C >= 1` removes a segment before value-set profiling); the final
//! cost-benefit decision (formula 3) uses the *measured* granularity from
//! the profiling run.

use crate::segments::Segment;
use crate::Analyses;
use minic::ast::{BinOp, Block, Expr, ExprKind, StmtKind, Type, UnOp};
use minic::sema::{Checked, Res};
use std::collections::HashMap;

/// Abstract operation counts (weights roughly matching a StrongARM-class
/// in-order core; only ratios matter for the pre-filter).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    /// Integer ALU ops.
    pub int_alu: f64,
    /// Integer multiplies.
    pub int_mul: f64,
    /// Integer divides.
    pub int_div: f64,
    /// Float add/sub/compare.
    pub float_alu: f64,
    /// Float multiplies.
    pub float_mul: f64,
    /// Float divides.
    pub float_div: f64,
    /// Memory accesses.
    pub mem: f64,
    /// Branches.
    pub branch: f64,
    /// Function calls.
    pub call: f64,
}

impl OpCounts {
    fn add(&mut self, other: &OpCounts) {
        self.int_alu += other.int_alu;
        self.int_mul += other.int_mul;
        self.int_div += other.int_div;
        self.float_alu += other.float_alu;
        self.float_mul += other.float_mul;
        self.float_div += other.float_div;
        self.mem += other.mem;
        self.branch += other.branch;
        self.call += other.call;
    }

    fn scale(&self, k: f64) -> OpCounts {
        OpCounts {
            int_alu: self.int_alu * k,
            int_mul: self.int_mul * k,
            int_div: self.int_div * k,
            float_alu: self.float_alu * k,
            float_mul: self.float_mul * k,
            float_div: self.float_div * k,
            mem: self.mem * k,
            branch: self.branch * k,
            call: self.call * k,
        }
    }

    /// Estimated cycles under StrongARM-like weights (int ALU 1, mul 4,
    /// div 20, float 4/8/30, mem 3, branch 2, call 12).
    pub fn cycles(&self) -> f64 {
        self.int_alu
            + self.int_mul * 4.0
            + self.int_div * 20.0
            + self.float_alu * 4.0
            + self.float_mul * 8.0
            + self.float_div * 30.0
            + self.mem * 3.0
            + self.branch * 2.0
            + self.call * 12.0
    }
}

/// Static cost estimates for one segment.
#[derive(Debug, Clone, Copy)]
pub struct SegCost {
    /// Estimated cycles per execution of the segment (granularity bound).
    pub granularity_cycles: f64,
    /// Estimated cycles per table probe (overhead upper bound), computed
    /// from the key/output word counts the same way the VM charges it.
    pub overhead_cycles: f64,
}

impl SegCost {
    /// The paper's pre-profiling filter: keep only `O/C < 1`.
    pub fn passes_prefilter(&self) -> bool {
        self.granularity_cycles > 0.0 && self.overhead_cycles / self.granularity_cycles < 1.0
    }
}

/// Estimates overhead cycles from operand word counts, mirroring
/// `vm::CostModel::memo_overhead` (base 24, 10/key word, 8/output word).
pub fn overhead_cycles(key_words: usize, out_words: usize) -> f64 {
    24.0 + 10.0 * key_words as f64 + 8.0 * out_words as f64
}

/// Computes the static cost estimates for `seg` with interface word
/// counts `key_words`/`out_words`, given the program's
/// [`function_costs`] (computed once per program, not per segment).
pub fn seg_granularity(
    checked: &Checked,
    func_costs: &HashMap<usize, OpCounts>,
    seg: &Segment,
    key_words: usize,
    out_words: usize,
) -> SegCost {
    let body = seg.body(&checked.program);
    let est = Estimator {
        checked,
        func_costs,
    };
    let counts = est.block(body);
    SegCost {
        granularity_cycles: counts.cycles(),
        overhead_cycles: overhead_cycles(key_words, out_words),
    }
}

/// Per-function estimated op counts (callees folded in; recursion broken
/// by charging only call overhead on back edges).
pub fn function_costs(checked: &Checked, an: &Analyses) -> HashMap<usize, OpCounts> {
    let mut costs: HashMap<usize, OpCounts> = HashMap::new();
    // Process call-graph SCCs in reverse topological order of the
    // condensation: comps are already emitted callees-first by Tarjan.
    for comp in &an.cg.sccs.comps {
        for &f in comp {
            let est = Estimator {
                checked,
                func_costs: &costs,
            };
            let counts = est.block(&checked.program.funcs[f].body);
            costs.insert(f, counts);
        }
    }
    costs
}

struct Estimator<'a> {
    checked: &'a Checked,
    func_costs: &'a HashMap<usize, OpCounts>,
}

impl<'a> Estimator<'a> {
    fn block(&self, b: &Block) -> OpCounts {
        let mut total = OpCounts::default();
        for s in &b.stmts {
            total.add(&self.stmt(s));
        }
        total
    }

    fn stmt(&self, s: &minic::ast::Stmt) -> OpCounts {
        match &s.kind {
            StmtKind::Decl { init, .. } => init.as_ref().map(|e| self.expr(e)).unwrap_or_default(),
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let mut c = self.expr(cond);
                c.branch += 1.0;
                let t = self.block(then_blk);
                let e = else_blk.as_ref().map(|b| self.block(b)).unwrap_or_default();
                // Expected cost: average of the branches (the lower bound
                // would take the min; the average tracks profiled C more
                // closely while remaining static).
                let avg = {
                    let mut sum = t;
                    sum.add(&e);
                    sum.scale(0.5)
                };
                c.add(&avg);
                c
            }
            StmtKind::While { cond, body } => self.loop_cost(Some(cond), None, body, false),
            StmtKind::DoWhile { body, cond } => self.loop_cost(Some(cond), None, body, true),
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut c = init.as_ref().map(|s| self.stmt(s)).unwrap_or_default();
                let trip = trip_estimate(init.as_deref(), cond.as_ref(), body);
                let mut per_iter = body_with_step(self, cond.as_ref(), step.as_ref(), body);
                per_iter = per_iter.scale(trip);
                c.add(&per_iter);
                c
            }
            StmtKind::Break | StmtKind::Continue => OpCounts {
                branch: 1.0,
                ..OpCounts::default()
            },
            StmtKind::Return(e) => e.as_ref().map(|e| self.expr(e)).unwrap_or_default(),
            StmtKind::Block(b) => self.block(b),
            StmtKind::Profile(p) => self.block(&p.body),
            StmtKind::Memo(m) => self.block(&m.body),
        }
    }

    fn loop_cost(
        &self,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Block,
        at_least_once: bool,
    ) -> OpCounts {
        let mut per_iter = OpCounts::default();
        if let Some(c) = cond {
            per_iter.add(&self.expr(c));
            per_iter.branch += 1.0;
        }
        if let Some(s) = step {
            per_iter.add(&self.expr(s));
        }
        per_iter.add(&self.block(body));
        let trip = if at_least_once {
            DEFAULT_TRIP.max(1.0)
        } else {
            DEFAULT_TRIP
        };
        per_iter.scale(trip)
    }

    fn expr(&self, e: &Expr) -> OpCounts {
        let mut c = OpCounts::default();
        self.expr_into(e, &mut c);
        c
    }

    fn is_float(&self, e: &Expr) -> bool {
        matches!(self.checked.info.expr_types.get(&e.id), Some(Type::Float))
    }

    fn expr_into(&self, e: &Expr, c: &mut OpCounts) {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) => {}
            ExprKind::Var(_) => c.mem += 0.5, // register-or-memory average
            ExprKind::Unary(UnOp::Deref, a) => {
                self.expr_into(a, c);
                c.mem += 1.0;
            }
            ExprKind::Unary(UnOp::Addr, a) => self.expr_into(a, c),
            ExprKind::Unary(_, a) => {
                self.expr_into(a, c);
                if self.is_float(e) {
                    c.float_alu += 1.0;
                } else {
                    c.int_alu += 1.0;
                }
            }
            ExprKind::Binary(op, a, b) => {
                self.expr_into(a, c);
                self.expr_into(b, c);
                let float = self.is_float(a) || self.is_float(b);
                charge_binop(*op, float, c);
            }
            ExprKind::IncDec(_, a) => {
                self.expr_into(a, c);
                c.int_alu += 1.0;
                c.mem += 0.5;
            }
            ExprKind::Assign(l, r) => {
                self.expr_into(r, c);
                self.expr_into(l, c);
                c.mem += 0.5;
            }
            ExprKind::AssignOp(op, l, r) => {
                self.expr_into(r, c);
                self.expr_into(l, c);
                let float = self.is_float(l) || self.is_float(r);
                charge_binop(*op, float, c);
                c.mem += 0.5;
            }
            ExprKind::Ternary(cond, t, f) => {
                self.expr_into(cond, c);
                c.branch += 1.0;
                let mut tc = OpCounts::default();
                self.expr_into(t, &mut tc);
                let mut fc = OpCounts::default();
                self.expr_into(f, &mut fc);
                tc.add(&fc);
                c.add(&tc.scale(0.5));
            }
            ExprKind::Call(callee, args) => {
                for a in args {
                    self.expr_into(a, c);
                }
                c.call += 1.0;
                // Fold in the callee's estimated cost when known.
                let mut target = callee.as_ref();
                while let ExprKind::Unary(UnOp::Deref, inner) = &target.kind {
                    target = inner;
                }
                if let Some(Res::Func(fi)) = self.checked.info.res.get(&target.id) {
                    if let Some(callee_cost) = self.func_costs.get(fi) {
                        c.add(callee_cost);
                    }
                }
            }
            ExprKind::Index(base, idx) => {
                self.expr_into(base, c);
                self.expr_into(idx, c);
                c.int_alu += 1.0; // address computation
                c.mem += 1.0;
            }
            ExprKind::Member(base, _) => {
                self.expr_into(base, c);
                c.mem += 0.5;
            }
            ExprKind::Arrow(base, _) => {
                self.expr_into(base, c);
                c.mem += 1.0;
            }
            ExprKind::Cast(_, a) => {
                self.expr_into(a, c);
                c.int_alu += 1.0;
            }
        }
    }
}

fn body_with_step(
    est: &Estimator<'_>,
    cond: Option<&Expr>,
    step: Option<&Expr>,
    body: &Block,
) -> OpCounts {
    let mut per_iter = OpCounts::default();
    if let Some(c) = cond {
        per_iter.add(&est.expr(c));
        per_iter.branch += 1.0;
    }
    if let Some(s) = step {
        per_iter.add(&est.expr(s));
    }
    per_iter.add(&est.block(body));
    per_iter
}

/// Heuristic trip count when bounds are not statically evident.
const DEFAULT_TRIP: f64 = 4.0;

/// Trip-count estimate for `for (i = 0; i < N; i++)`-shaped loops with a
/// constant bound: `N` when the body has no break, `N/2` with one.
fn trip_estimate(init: Option<&minic::ast::Stmt>, cond: Option<&Expr>, body: &Block) -> f64 {
    let bound = cond.and_then(constant_bound);
    let Some(n) = bound else {
        return DEFAULT_TRIP;
    };
    // Require a simple `i = 0` or `int i = 0` init to trust the bound.
    let init_zero = match init.map(|s| &s.kind) {
        Some(StmtKind::Decl { init: Some(e), .. }) => matches!(e.as_int_lit(), Some(0)),
        Some(StmtKind::Expr(e)) => match &e.kind {
            ExprKind::Assign(_, r) => matches!(r.as_int_lit(), Some(0)),
            _ => false,
        },
        _ => false,
    };
    if !init_zero {
        return DEFAULT_TRIP;
    }
    let has_break = block_has_break(body);
    if has_break {
        (n as f64 / 2.0).max(1.0)
    } else {
        n as f64
    }
}

fn constant_bound(cond: &Expr) -> Option<i64> {
    match &cond.kind {
        ExprKind::Binary(BinOp::Lt, _, b) => b.as_int_lit(),
        ExprKind::Binary(BinOp::Le, _, b) => b.as_int_lit().map(|v| v + 1),
        _ => None,
    }
}

fn block_has_break(b: &Block) -> bool {
    let mut has = false;
    // Only breaks at the loop's own level count, but a conservative "any
    // break anywhere" makes the estimate merely a bit lower.
    minic::visit::for_each_stmt(b, |s| {
        if matches!(s.kind, StmtKind::Break) {
            has = true;
        }
    });
    has
}

fn charge_binop(op: BinOp, float: bool, c: &mut OpCounts) {
    match (op, float) {
        (BinOp::Mul, false) => c.int_mul += 1.0,
        (BinOp::Div | BinOp::Rem, false) => c.int_div += 1.0,
        (BinOp::Mul, true) => c.float_mul += 1.0,
        (BinOp::Div, true) => c.float_div += 1.0,
        (_, true) => c.float_alu += 1.0,
        (_, false) => c.int_alu += 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments;

    fn setup(src: &str) -> (minic::Checked, Analyses, Vec<Segment>) {
        let checked = minic::compile(src).unwrap();
        let an = Analyses::build(&checked);
        let segs = segments::enumerate(&checked);
        (checked, an, segs)
    }

    #[test]
    fn quan_prefilter_passes() {
        let (checked, an, segs) = setup(
            "int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
             int quan(int val) {
                 int i;
                 for (i = 0; i < 15; i++) if (val < power2[i]) break;
                 return i;
             }
             int main() { return quan(7); }",
        );
        let seg = segs.iter().find(|s| s.name == "quan:body").unwrap();
        // One int in, return value out: key=1, out=1.
        let cost = seg_granularity(&checked, &function_costs(&checked, &an), seg, 1, 1);
        assert!(cost.granularity_cycles > cost.overhead_cycles);
        assert!(cost.passes_prefilter());
    }

    #[test]
    fn tiny_segment_fails_prefilter() {
        let (checked, an, segs) = setup(
            "int g;
             int tiny(int x) { return x + 1; }
             int main() { g = tiny(3); return g; }",
        );
        let seg = segs.iter().find(|s| s.name == "tiny:body").unwrap();
        let cost = seg_granularity(&checked, &function_costs(&checked, &an), seg, 1, 1);
        assert!(
            !cost.passes_prefilter(),
            "x+1 is cheaper than a table probe: C={} O={}",
            cost.granularity_cycles,
            cost.overhead_cycles
        );
    }

    #[test]
    fn big_block_interface_has_big_overhead() {
        // 64-word keys and outputs like MPEG2's fdct.
        let o_small = overhead_cycles(1, 1);
        let o_block = overhead_cycles(64, 64);
        assert!(o_block > 10.0 * o_small);
    }

    #[test]
    fn callee_costs_fold_into_callers() {
        let (checked, an, _) = setup(
            "int work(int x) {
                 int s = 0;
                 for (int i = 0; i < 100; i++) s += x * i;
                 return s;
             }
             int outer(int x) { return work(x) + work(x + 1); }
             int main() { return outer(2); }",
        );
        let costs = function_costs(&checked, &an);
        let work = checked.info.func_index["work"];
        let outer = checked.info.func_index["outer"];
        assert!(
            costs[&outer].cycles() > 2.0 * costs[&work].cycles(),
            "outer includes both calls: {} vs {}",
            costs[&outer].cycles(),
            costs[&work].cycles()
        );
    }

    #[test]
    fn recursion_converges() {
        let (checked, an, _) = setup(
            "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
             int main() { return fib(10); }",
        );
        let costs = function_costs(&checked, &an);
        let fib = checked.info.func_index["fib"];
        assert!(costs[&fib].cycles() > 0.0);
        assert!(costs[&fib].cycles().is_finite());
    }

    #[test]
    fn constant_trip_counts_scale_granularity() {
        let (checked, an, segs) = setup(
            "int f10(int x) { int s = 0; for (int i = 0; i < 10; i++) s += x; return s; }
             int f1000(int x) { int s = 0; for (int i = 0; i < 1000; i++) s += x; return s; }
             int main() { return f10(1) + f1000(1); }",
        );
        let s10 = segs.iter().find(|s| s.name == "f10:body").unwrap();
        let s1000 = segs.iter().find(|s| s.name == "f1000:body").unwrap();
        let costs = function_costs(&checked, &an);
        let c10 = seg_granularity(&checked, &costs, s10, 1, 1).granularity_cycles;
        let c1000 = seg_granularity(&checked, &costs, s1000, 1, 1).granularity_cycles;
        assert!(c1000 > 50.0 * c10, "c10={c10} c1000={c1000}");
    }
}
