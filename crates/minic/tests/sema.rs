//! Semantic-checker integration tests.

use minic::ast::{NodeId, Type};
use minic::sema::{Builtin, Res};
use minic::{check, compile, parse};

fn compile_err(src: &str) -> String {
    match compile(src) {
        Ok(_) => panic!("expected a sema error for:\n{src}"),
        Err(e) => e,
    }
}

#[test]
fn checks_quan() {
    let checked = compile(
        "int power2[15] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};
         int quan(int val) {
             int i;
             for (i = 0; i < 15; i++)
                 if (val < power2[i])
                     break;
             return i;
         }
         int main() { return quan(100); }",
    )
    .expect("quan is well-typed");
    assert_eq!(checked.info.globals.len(), 1);
    let g = &checked.info.globals[0];
    assert_eq!(g.size, 15);
    assert_eq!(g.addr, 1, "cell 0 is reserved");
    let init = g.init.as_ref().expect("initializer");
    assert_eq!(init.len(), 15);
    assert_eq!(checked.info.global_region, 16);
}

#[test]
fn node_ids_are_unique_after_check() {
    let checked = compile(
        "int f(int a) { return a + a * a; }
         int main() { return f(3) + f(4); }",
    )
    .unwrap();
    let mut seen = std::collections::HashSet::new();
    for f in &checked.program.funcs {
        minic::visit::for_each_stmt(&f.body, |s| {
            assert_ne!(s.id, NodeId::DUMMY);
            assert!(seen.insert(s.id), "duplicate stmt id {}", s.id);
        });
        minic::visit::for_each_expr(&f.body, |e| {
            assert_ne!(e.id, NodeId::DUMMY);
            assert!(seen.insert(e.id), "duplicate expr id {}", e.id);
        });
    }
}

#[test]
fn every_expr_has_a_type() {
    let checked = compile(
        "struct pt { int x; float y; };
         struct pt p;
         int main() {
             float f = 1.5;
             p.x = 3;
             p.y = f + p.x;
             return (int)p.y;
         }",
    )
    .unwrap();
    for f in &checked.program.funcs {
        minic::visit::for_each_expr(&f.body, |e| {
            assert!(
                checked.info.expr_types.contains_key(&e.id),
                "missing type for {:?}",
                e.kind
            );
        });
    }
}

#[test]
fn frame_layout_covers_params_and_locals() {
    let checked = compile(
        "int f(int a, float b) {
             int x;
             int buf[4];
             float y = b;
             return a + x + (int)y + buf[0];
         }
         int main() { return f(1, 2.0); }",
    )
    .unwrap();
    let frame = &checked.info.frames[0];
    assert_eq!(frame.param_offsets, vec![0, 1]);
    // a, b, x, buf[4], y = 2 + 1 + 4 + 1 = 8 cells.
    assert_eq!(frame.size, 8);
    assert_eq!(frame.decl_offsets.len(), 3);
}

#[test]
fn struct_layout_offsets() {
    let checked = compile(
        "struct inner { int a; int b; };
         struct outer { int x; struct inner mid; float z; };
         struct outer o;
         int main() { return o.mid.b; }",
    )
    .unwrap();
    let outer = &checked.info.structs["outer"];
    assert_eq!(outer.size, 4);
    assert_eq!(outer.field("x").unwrap().2, 0);
    assert_eq!(outer.field("mid").unwrap().2, 1);
    assert_eq!(outer.field("z").unwrap().2, 3);
}

#[test]
fn shadowing_resolves_to_innermost() {
    let checked = compile(
        "int x = 10;
         int main() {
             int x = 1;
             { int x = 2; x = 3; }
             return x;
         }",
    )
    .unwrap();
    // Count distinct slot resolutions; innermost assignment must hit the
    // innermost slot.
    let slots: Vec<_> = checked
        .info
        .res
        .values()
        .filter_map(|r| match r {
            Res::Slot(s) => Some(*s),
            _ => None,
        })
        .collect();
    assert!(slots.contains(&0) && slots.contains(&1));
}

#[test]
fn builtins_resolve() {
    let checked = compile(
        "int main() {
             int v = input();
             while (!eof()) { v = input(); }
             print(v);
             assert(v >= 0 || v < 0);
             return 0;
         }",
    )
    .unwrap();
    let builtins: std::collections::HashSet<_> = checked
        .info
        .res
        .values()
        .filter_map(|r| match r {
            Res::Builtin(b) => Some(*b),
            _ => None,
        })
        .collect();
    assert!(builtins.contains(&Builtin::Input));
    assert!(builtins.contains(&Builtin::Eof));
    assert!(builtins.contains(&Builtin::Print));
    assert!(builtins.contains(&Builtin::Assert));
}

#[test]
fn user_function_shadows_builtin() {
    let checked = compile(
        "int print(int x) { return x; }
         int main() { return print(3); }",
    )
    .unwrap();
    assert!(checked.info.res.values().any(|r| matches!(r, Res::Func(_))));
}

#[test]
fn function_pointer_assignment_and_call() {
    let checked = compile(
        "int add(int a, int b) { return a + b; }
         int sub(int a, int b) { return a - b; }
         int main() {
             int (*op)(int, int);
             op = add;
             op = sub;
             return op(5, 2) + (*op)(1, 1);
         }",
    )
    .unwrap();
    assert_eq!(checked.program.funcs.len(), 3);
}

#[test]
fn rejects_unknown_identifier() {
    let e = compile_err("int main() { return nope; }");
    assert!(e.contains("unknown identifier"), "{e}");
}

#[test]
fn rejects_type_mismatches() {
    let e = compile_err("int main() { int *p; p = 1.5; return 0; }");
    assert!(e.contains("cannot assign"), "{e}");
    let e = compile_err("int main() { float *q; int *p; p = q; return 0; }");
    assert!(e.contains("cannot assign"), "{e}");
    let e = compile_err("int main() { float f = 1.0; return f % 2.0; }");
    assert!(e.contains("requires integers"), "{e}");
    let e = compile_err("int main() { int x; return x(3); }");
    assert!(e.contains("cannot call"), "{e}");
}

#[test]
fn rejects_bad_arity() {
    let e = compile_err("int f(int a) { return a; } int main() { return f(1, 2); }");
    assert!(e.contains("expected 1 arguments"), "{e}");
}

#[test]
fn rejects_break_outside_loop() {
    let e = compile_err("int main() { break; return 0; }");
    assert!(e.contains("outside of a loop"), "{e}");
}

#[test]
fn rejects_non_lvalue_assignment() {
    let e = compile_err("int main() { 3 = 4; return 0; }");
    assert!(e.contains("lvalue"), "{e}");
    let e = compile_err("int f() { return 0; } int main() { f = 3; return 0; }");
    assert!(e.contains("lvalue") || e.contains("cannot assign"), "{e}");
}

#[test]
fn rejects_struct_by_value() {
    let e = compile_err(
        "struct s { int a; };
         struct s f(struct s x) { return x; }",
    );
    assert!(e.contains("struct"), "{e}");
}

#[test]
fn rejects_duplicate_definitions() {
    let e = compile_err("int f() { return 0; } int f() { return 1; }");
    assert!(e.contains("duplicate function"), "{e}");
    let e = compile_err("int g; float g;");
    assert!(e.contains("duplicate global"), "{e}");
}

#[test]
fn rejects_non_constant_global_init() {
    let e = compile_err("int f() { return 1; } int g = f();");
    assert!(e.contains("constant"), "{e}");
}

#[test]
fn rejects_return_type_mismatch() {
    let e = compile_err("void f() { return 3; }");
    assert!(e.contains("void function"), "{e}");
    let e = compile_err("int f() { int *p; return p; }");
    assert!(e.contains("cannot assign"), "{e}");
}

#[test]
fn rejects_unknown_struct_and_field() {
    let e = compile_err("struct nope x;");
    assert!(e.contains("unknown struct"), "{e}");
    let e = compile_err(
        "struct s { int a; };
         struct s v;
         int main() { return v.b; }",
    );
    assert!(e.contains("no field named"), "{e}");
}

#[test]
fn pointer_arithmetic_types() {
    let checked = compile(
        "int arr[8];
         int main() {
             int *p = arr;
             int *q = p + 3;
             p++;
             return q - p;
         }",
    )
    .unwrap();
    // q - p yields int.
    let _ = checked;
}

#[test]
fn array_initializer_zero_fills() {
    let checked = compile("int t[5] = {1, 2}; int main() { return t[0]; }").unwrap();
    let init = checked.info.globals[0].init.as_ref().unwrap();
    assert_eq!(init.len(), 5);
    assert!(matches!(init[1], minic::sema::ConstVal::Int(2)));
    assert!(matches!(init[4], minic::sema::ConstVal::Int(0)));
}

#[test]
fn too_many_initializers_rejected() {
    let e = compile_err("int t[2] = {1, 2, 3};");
    assert!(e.contains("too many initializers"), "{e}");
}

#[test]
fn const_exprs_in_global_init() {
    let checked =
        compile("int a = 1 << 10; float b = -2.5; int c = (3 + 4) * 2; int main() { return a; }")
            .unwrap();
    let vals: Vec<_> = checked
        .info
        .globals
        .iter()
        .map(|g| g.init.as_ref().unwrap()[0])
        .collect();
    assert!(matches!(vals[0], minic::sema::ConstVal::Int(1024)));
    assert!(matches!(vals[1], minic::sema::ConstVal::Float(v) if v == -2.5));
    assert!(matches!(vals[2], minic::sema::ConstVal::Int(14)));
}

#[test]
fn check_is_idempotent_on_renumbered_ast() {
    // Running check twice on the same parsed AST must succeed and agree on
    // the number of nodes (renumber is deterministic).
    let prog =
        parse("int main() { int s = 0; for (int i = 0; i < 4; i++) s += i; return s; }").unwrap();
    let c1 = check(prog.clone()).unwrap();
    let c2 = check(c1.program.clone()).unwrap();
    assert_eq!(c1.info.next_node_id, c2.info.next_node_id);
    assert_eq!(c1.info.frames[0].size, c2.info.frames[0].size);
}

#[test]
fn mixed_arith_promotes_to_float() {
    let checked = compile("int main() { float f = 2 * 1.5; return (int)f; }").unwrap();
    // find the Binary Mul expr type
    let mut found = false;
    minic::visit::for_each_expr(&checked.program.funcs[0].body, |e| {
        if let minic::ast::ExprKind::Binary(minic::ast::BinOp::Mul, _, _) = e.kind {
            assert_eq!(checked.info.expr_types[&e.id], Type::Float);
            found = true;
        }
    });
    assert!(found);
}

#[test]
fn comparison_always_int() {
    let checked = compile("int main() { float f = 1.5; return f < 2.5; }").unwrap();
    minic::visit::for_each_expr(&checked.program.funcs[0].body, |e| {
        if let minic::ast::ExprKind::Binary(minic::ast::BinOp::Lt, _, _) = e.kind {
            assert_eq!(checked.info.expr_types[&e.id], Type::Int);
        }
    });
}

#[test]
fn rejects_cast_to_undeclared_struct() {
    // Used to pass checking and panic later, when lowering asked for the
    // size of `struct S` during the pointer arithmetic.
    let e = compile_err("int main() { int x; x = 0; return (int)((struct S*)&x + 1); }");
    assert!(e.contains("unknown struct"), "{e}");
}

#[test]
fn rejects_function_returning_undeclared_struct_pointer() {
    let e = compile_err("struct S *f() { return 0; } int main() { return 0; }");
    assert!(e.contains("unknown struct"), "{e}");
}

#[test]
fn cast_to_declared_struct_pointer_still_allowed() {
    compile(
        "struct p { int a; int b; };
         struct p cell;
         int main() {
             struct p *q;
             q = (struct p *)&cell;
             q->a = 3;
             return q->a;
         }",
    )
    .expect("declared struct casts stay legal");
}
