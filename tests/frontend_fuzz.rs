//! Fuzzes the MiniC front end with hostile source text. Every case goes
//! through `minic::parse`, `minic::check`, `vm::lower` and a bytecode run
//! under a small cycle budget, and must end in a diagnostic, a trap or a
//! finished run, never a panic.
//!
//! Two input families:
//! - random token streams over the MiniC vocabulary, bare or inside a
//!   `main` body so that more of them reach the checker and the VM;
//! - the seven workload sources with one byte deleted, one token
//!   inserted or one byte replaced.
//!
//! Release builds run ten times as many cases (CI runs this file with
//! `--release`).

use proptest::prelude::*;
use vm::RunConfig;

/// Cases per property in a debug build; release runs ten times as many.
fn cases(debug: u32) -> u32 {
    if cfg!(debug_assertions) {
        debug
    } else {
        10 * debug
    }
}

/// Keywords, names, literals and punctuation of MiniC. Integer literals
/// stay small, so an inserted array size cannot ask for gigabytes.
const VOCAB: &[&str] = &[
    "int", "float", "void", "struct", "if", "else", "while", "do", "for", "break", "continue",
    "return", "const", "main", "f", "x", "y", "a", "p", "s", "print", "input", "eof", "assert",
    "0", "1", "2", "7", "15", "64", "0.5", "2.0", "(", ")", "{", "}", "[", "]", ";", ",", ".",
    "->", "?", ":", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<<", ">>", "<", "<=", ">",
    ">=", "==", "!=", "&&", "||", "++", "--", "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<=", ">>=",
];

fn arb_token() -> impl Strategy<Value = &'static str> {
    (0..VOCAB.len()).prop_map(|i| VOCAB[i])
}

/// Runs `src` through the whole front end and a short bytecode run. Any
/// `Err` is an acceptable answer; returning at all is the property.
fn front_end_to_vm(src: &str) {
    let Ok(program) = minic::parse(src) else {
        return;
    };
    let Ok(checked) = minic::check(program) else {
        return;
    };
    let module = vm::lower(&checked);
    let _ = vm::run(
        &module,
        RunConfig {
            input: vec![3, 1, 4, 1, 5],
            max_cycles: 20_000,
            ..RunConfig::default()
        },
    );
}

/// One edit of a source text.
#[derive(Debug, Clone)]
enum Mutation {
    Delete,
    Insert(&'static str),
    Replace(u8),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        Just(Mutation::Delete),
        arb_token().prop_map(Mutation::Insert),
        // Printable ASCII keeps the text valid UTF-8.
        (0x20u8..0x7f).prop_map(Mutation::Replace),
    ]
}

/// Applies `m` at byte `at` (taken modulo the length) of the ASCII text
/// `src`.
fn mutate(src: &str, at: usize, m: &Mutation) -> String {
    let mut bytes = src.as_bytes().to_vec();
    let at = at % bytes.len();
    match m {
        Mutation::Delete => {
            bytes.remove(at);
        }
        Mutation::Insert(tok) => {
            let padded = format!(" {tok} ");
            bytes.splice(at..at, padded.bytes());
        }
        Mutation::Replace(b) => bytes[at] = *b,
    }
    String::from_utf8(bytes).expect("workload sources are ASCII")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(5000)))]

    #[test]
    fn random_token_streams_never_panic(
        tokens in prop::collection::vec(arb_token(), 0..48),
        in_main in prop::bool::ANY,
    ) {
        let body = tokens.join(" ");
        let src = if in_main {
            format!("int main() {{ {body} return 0; }}")
        } else {
            body
        };
        front_end_to_vm(&src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(2000)))]

    #[test]
    fn mutated_workload_sources_never_panic(
        program in 0usize..7,
        edits in prop::collection::vec((0usize..1 << 20, arb_mutation()), 1..4),
    ) {
        let w = &workloads::main_seven()[program];
        let src = edits
            .iter()
            .fold(w.source.clone(), |src, (at, m)| mutate(&src, *at, m));
        front_end_to_vm(&src);
    }
}
