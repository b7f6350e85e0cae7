//! Property test: the lexer, parser, and full rule pipeline never
//! panic and always terminate on mutated Rust source.
//!
//! The parser is *recovering* by design — unparseable constructs
//! degrade to opaque nodes, never errors — and every rule consumes its
//! output, so "arbitrary byte garbage in, diagnostics (possibly none)
//! out" is part of its contract. Each case takes a real workspace
//! source file and applies a burst of byte-level mutations (replace /
//! insert / delete / truncate, all UTF-8-boundary-safe so the input
//! stays a valid `&str`), then runs the complete pipeline via
//! [`lint_file`]. The shim's generator is deterministically seeded, so
//! a failing case reproduces without a persistence file.

use fedwcm_lint::{lint_file, LintConfig};
use proptest::prelude::*;

/// Real sources to mutate: the parser's own grammar corner cases live
/// in the lint crate, and the fl/trace files add macro definitions,
/// casts in serializers, and metric call sites.
const SOURCES: &[&str] = &[
    "crates/lint/src/lexer.rs",
    "crates/lint/src/parser.rs",
    "crates/fl/src/codec.rs",
    "crates/fl/src/cadence.rs",
    "crates/trace/src/tracer.rs",
];

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace two levels up")
        .to_path_buf()
}

/// Largest char-boundary index ≤ `i`.
fn floor_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Apply one boundary-safe mutation chosen by `(kind, pos, byte)`.
fn mutate(src: &mut String, kind: u8, pos: usize, byte: u8) {
    if src.is_empty() {
        return;
    }
    let at = floor_boundary(src, pos % (src.len() + 1));
    // Printable ASCII plus the lexer's trickiest delimiters.
    let tricky = b"\"'#{}()[]<>/*!r b\n\\";
    let ch = if byte.is_multiple_of(3) {
        tricky[(byte as usize / 3) % tricky.len()] as char
    } else {
        (0x20 + byte % 0x5f) as char
    };
    match kind % 4 {
        0 => {
            // Replace the char at `at` (if any) with `ch`.
            if let Some(c) = src[at..].chars().next() {
                src.replace_range(at..at + c.len_utf8(), &ch.to_string());
            }
        }
        1 => src.insert(at, ch),
        2 => {
            if let Some(c) = src[at..].chars().next() {
                src.replace_range(at..at + c.len_utf8(), "");
            }
        }
        _ => src.truncate(at),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_never_panics_on_mutated_sources(
        file in 0usize..5,
        muts in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..24),
    ) {
        let root = workspace_root();
        let path = SOURCES[file];
        let mut src = std::fs::read_to_string(root.join(path)).expect("source readable");
        for (kind, pos, byte) in muts {
            mutate(&mut src, kind, pos, byte);
        }
        // Panics fail the test; non-termination trips the suite's
        // timeout. Diagnostics (any number, including none) are fine.
        let _ = lint_file(path, &src, &LintConfig::all());
    }
}
