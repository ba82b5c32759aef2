//! Integration tests for segment input/output determination — the
//! analyses behind the paper's worked examples (quan, fdct, UNEPIC's loop).

use analysis::inout::seg_io;
use analysis::segments::{self, Reject};
use analysis::{Analyses, SegKind, Segment};
use minic::ast::{OperandShape, ScalarKind};

fn setup(src: &str) -> (minic::Checked, Analyses, Vec<Segment>) {
    let checked = minic::compile(src).unwrap();
    let an = Analyses::build(&checked);
    let segs = segments::enumerate(&checked);
    (checked, an, segs)
}

fn seg_named<'s>(segs: &'s [Segment], name: &str) -> &'s Segment {
    segs.iter().find(|s| s.name == name).unwrap_or_else(|| {
        panic!(
            "segment {name} not found in {:?}",
            segs.iter().map(|s| &s.name).collect::<Vec<_>>()
        )
    })
}

const QUAN: &str = "
    int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
    int quan(int val) {
        int i;
        for (i = 0; i < 15; i++)
            if (val < power2[i])
                break;
        return i;
    }
    int main() { int s = 0; for (int v = 0; v < 100; v++) s += quan(v); return s; }";

#[test]
fn quan_has_one_input_and_the_return() {
    let (checked, an, segs) = setup(QUAN);
    let seg = seg_named(&segs, "quan:body");
    let io = seg_io(&checked, &an, seg).expect("quan is analyzable");
    assert_eq!(io.inputs.len(), 1, "power2 is invariant → only val remains");
    assert_eq!(io.inputs[0].name, "val");
    assert_eq!(io.inputs[0].shape, OperandShape::Scalar);
    assert_eq!(io.inputs[0].elem, ScalarKind::Int);
    assert!(io.outputs.is_empty(), "i is dead after the return");
    assert_eq!(io.ret, Some(ScalarKind::Int));
    assert_eq!(io.key_words, 1);
    assert_eq!(io.out_words, 1);
}

#[test]
fn mutated_table_becomes_an_input() {
    // Same quan, but main rewrites the table between calls: power2 must
    // join the key.
    let src = "
        int power2[15];
        int quan(int val) {
            int i;
            for (i = 0; i < 15; i++)
                if (val < power2[i])
                    break;
            return i;
        }
        int main() {
            int s = 0;
            for (int v = 0; v < 100; v++) {
                power2[v % 15] = v;
                s += quan(v);
            }
            return s;
        }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "quan:body");
    let io = seg_io(&checked, &an, seg).expect("analyzable");
    assert_eq!(io.inputs.len(), 2);
    let names: Vec<&str> = io.inputs.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(names, vec!["power2", "val"], "sorted by name");
    assert_eq!(io.inputs[0].shape, OperandShape::Array(15));
    assert_eq!(io.key_words, 16);
}

#[test]
fn loop_body_segment_like_unepic() {
    // A loop body with one scalar input and one scalar output.
    let src = "
        int main() {
            int acc = 0;
            int v = 0;
            int out = 0;
            for (int i = 0; i < 100; i++) {
                v = i % 10;
                {
                    int t = v * v;
                    out = t * 3 + v;
                }
                acc += out;
            }
            return acc;
        }";
    let (checked, an, segs) = setup(src);
    // The inner bare block is not a segment kind; use the loop body: its
    // inputs include the loop index (varies every iteration) — the paper's
    // cost-benefit would kill it, but the interface must still compute.
    let seg = segs
        .iter()
        .find(|s| matches!(s.kind, SegKind::LoopBody(_)))
        .unwrap();
    let io = seg_io(&checked, &an, seg).expect("analyzable");
    let in_names: Vec<&str> = io.inputs.iter().map(|o| o.name.as_str()).collect();
    assert!(
        in_names.contains(&"i"),
        "loop index is upward-exposed: {in_names:?}"
    );
    let out_names: Vec<&str> = io.outputs.iter().map(|o| o.name.as_str()).collect();
    assert!(
        out_names.contains(&"acc"),
        "accumulator is live out: {out_names:?}"
    );
    assert!(
        out_names.contains(&"v") || !out_names.contains(&"t"),
        "t is scoped to the block"
    );
}

#[test]
fn pointer_param_becomes_block_operand_like_fdct() {
    // MPEG2's fdct shape: a function taking a pointer to a 64-entry block,
    // reading and writing it in place.
    let src = "
        int frame[64];
        void fdct(int *block) {
            for (int i = 0; i < 64; i++) {
                block[i] = block[i] * 2 + 1;
            }
        }
        int main() {
            for (int i = 0; i < 64; i++) frame[i] = i;
            fdct(frame);
            return frame[0];
        }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "fdct:body");
    let io = seg_io(&checked, &an, seg).expect("fdct analyzable");
    assert_eq!(io.inputs.len(), 1);
    assert_eq!(io.inputs[0].name, "block");
    assert_eq!(io.inputs[0].shape, OperandShape::Deref(64));
    assert_eq!(io.outputs.len(), 1);
    assert_eq!(io.outputs[0].name, "block");
    assert_eq!(io.outputs[0].shape, OperandShape::Deref(64));
    assert_eq!(io.ret, None);
    assert_eq!(io.key_words, 64);
    assert_eq!(io.out_words, 64);
}

#[test]
fn stepped_pointer_is_rejected() {
    // `*table++` breaks the base-address invariant; the original quan
    // (pre-specialization) must be rejected, pushing the pipeline toward
    // the specialized one-input version as in the paper.
    let src = "
        int power2[15];
        int quan(int val, int *table, int size) {
            int i;
            for (i = 0; i < size; i++)
                if (val < *table++)
                    break;
            return i;
        }
        int main() { return quan(5, power2, 15); }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "quan:body");
    let err = seg_io(&checked, &an, seg).unwrap_err();
    assert!(matches!(err, Reject::UnsupportedOperand(_)), "got {err:?}");
}

#[test]
fn indexed_pointer_param_is_fine() {
    // Same quan but with table[i] instead of *table++ — analyzable.
    let src = "
        int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
        int quan(int val, int *table, int size) {
            int i;
            for (i = 0; i < size; i++)
                if (val < table[i])
                    break;
            return i;
        }
        int main() { return quan(5, power2, 15); }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "quan:body");
    let io = seg_io(&checked, &an, seg).expect("analyzable");
    let names: Vec<&str> = io.inputs.iter().map(|o| o.name.as_str()).collect();
    // Three inputs: size, table (as contents), val.
    assert_eq!(names, vec!["size", "table", "val"]);
    let table = io.inputs.iter().find(|o| o.name == "table").unwrap();
    assert_eq!(table.shape, OperandShape::Deref(15));
    assert_eq!(io.key_words, 17);
}

#[test]
fn global_outputs_are_kept() {
    let src = "
        int result_a; int result_b;
        void compute(int x) {
            result_a = x * x;
            result_b = x + x;
        }
        int main() { compute(3); return result_a + result_b; }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "compute:body");
    let io = seg_io(&checked, &an, seg).expect("analyzable");
    let out_names: Vec<&str> = io.outputs.iter().map(|o| o.name.as_str()).collect();
    assert_eq!(out_names, vec!["result_a", "result_b"]);
    assert_eq!(io.ret, None);
    assert_eq!(io.out_words, 2);
}

#[test]
fn no_input_segment_rejected() {
    let src = "
        int g;
        void constant() { g = 42; }
        int main() { constant(); return g; }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "constant:body");
    assert_eq!(seg_io(&checked, &an, seg).unwrap_err(), Reject::NoInputs);
}

#[test]
fn no_output_segment_rejected() {
    // All computation is dead at exit.
    let src = "
        void pointless(int x) { int t = x * 2; t = t + 1; }
        int main() { pointless(3); return 0; }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "pointless:body");
    assert_eq!(seg_io(&checked, &an, seg).unwrap_err(), Reject::NoOutputs);
}

#[test]
fn float_operands_typed_correctly() {
    let src = "
        float gain;
        float amplify(float sample) {
            float y = sample * gain;
            return y * y;
        }
        int main() { gain = 2.0; return (int)amplify(1.5); }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "amplify:body");
    let io = seg_io(&checked, &an, seg).expect("analyzable");
    // gain is assigned in main before any amplify call → invariant.
    assert_eq!(io.inputs.len(), 1, "{:?}", io.inputs);
    assert_eq!(io.inputs[0].name, "sample");
    assert_eq!(io.inputs[0].elem, ScalarKind::Float);
    assert_eq!(io.ret, Some(ScalarKind::Float));
}

#[test]
fn rasta_like_one_input_many_outputs() {
    let src = "
        float band0; float band1; float band2;
        void fr4tr(int idx) {
            float base = 0.0;
            for (int i = 0; i < 50; i++) base += idx * i;
            band0 = base;
            band1 = base * 2.0;
            band2 = base * 3.0;
        }
        int main() { fr4tr(3); return (int)(band0 + band1 + band2); }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "fr4tr:body");
    let io = seg_io(&checked, &an, seg).expect("analyzable");
    assert_eq!(io.inputs.len(), 1);
    assert_eq!(io.outputs.len(), 3);
    assert_eq!(io.out_words, 3);
    assert!(io.outputs.iter().all(|o| o.elem == ScalarKind::Float));
}

#[test]
fn if_branch_segment_interface() {
    let src = "
        int cache;
        int main() {
            int s = 0;
            for (int i = 0; i < 50; i++) {
                int x = i % 4;
                if (x > 1) {
                    int heavy = 0;
                    for (int k = 0; k < 20; k++) heavy += x * k;
                    cache = heavy;
                    s += cache;
                } else {
                    s += 1;
                }
            }
            return s;
        }";
    let (checked, an, segs) = setup(src);
    let seg = segs
        .iter()
        .find(|s| matches!(s.kind, SegKind::IfBranch(_, true)))
        .unwrap();
    let io = seg_io(&checked, &an, seg).expect("then-branch analyzable");
    let in_names: Vec<&str> = io.inputs.iter().map(|o| o.name.as_str()).collect();
    assert!(in_names.contains(&"x"));
    assert!(in_names.contains(&"s"), "s += reads s: {in_names:?}");
    let out_names: Vec<&str> = io.outputs.iter().map(|o| o.name.as_str()).collect();
    assert!(out_names.contains(&"cache"));
    assert!(out_names.contains(&"s"));
}

#[test]
fn shadowed_global_input_rejected() {
    let src = "
        int v;
        int f(int x) {
            int s = v + x;   // reads the global...
            {
                int v = 9;   // ...but a local shadows the name elsewhere
                s += v;
            }
            return s;
        }
        int main() { v = 2; return f(1); }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "f:body");
    // `v` (the global, mutated nowhere after main's init... actually main
    // writes it before calling f, so it is invariant and excluded — force
    // the conflict by also making f read it non-invariantly: simpler, just
    // accept either outcome but never a silent wrong binding.
    match seg_io(&checked, &an, seg) {
        Ok(io) => {
            // If accepted, the global must not be among operands by name.
            assert!(io.inputs.iter().all(|o| o.name != "v"));
        }
        Err(e) => assert!(matches!(e, Reject::UnsupportedOperand(_)), "{e:?}"),
    }
}

#[test]
fn ambiguous_pointer_target_rejected() {
    let src = "
        int buf_a[8]; int buf_b[8];
        int sum(int *p) {
            int s = 0;
            for (int i = 0; i < 8; i++) s += p[i];
            return s;
        }
        int main() { return sum(buf_a) + sum(buf_b); }";
    let (checked, an, segs) = setup(src);
    let seg = seg_named(&segs, "sum:body");
    let err = seg_io(&checked, &an, seg).unwrap_err();
    // Steensgaard unifies both targets into one class — both appear as
    // pointees → ambiguous.
    assert!(matches!(err, Reject::UnsupportedOperand(_)), "{err:?}");
}

#[test]
fn reject_text_is_the_same_on_every_run() {
    // Each call builds fresh hash sets with fresh random seeds, so a
    // reject that named whichever offending variable a set yielded first
    // would change from call to call.
    let mut unsupported = 0;
    for w in [workloads::mpeg2::encode(), workloads::mpeg2::decode()] {
        let checked = w.checked();
        let an = Analyses::build(&checked);
        for seg in segments::enumerate(&checked) {
            let first = format!("{:?}", seg_io(&checked, &an, &seg).map(|io| io.inputs));
            unsupported += usize::from(first.contains("UnsupportedOperand"));
            for _ in 0..20 {
                let again = format!("{:?}", seg_io(&checked, &an, &seg).map(|io| io.inputs));
                assert_eq!(first, again, "{} {}", w.name, seg.name);
            }
        }
    }
    assert!(
        unsupported > 0,
        "no MPEG2 segment exercised an operand reject"
    );
}
