//! The manifest reader `tests/support/golden.rs`, on manifest text held
//! here rather than `results/golden.tsv`: what it refuses to read, and
//! what `finish` reports; and that every entry of `results/golden.tsv`
//! is one some test reads.

#[path = "support/golden.rs"]
mod golden;

use golden::{parse, Golden, MANIFEST};
use std::fs;
use std::path::Path;

const TEXT: &str = "a/x\t1\na/y\t2\nb/x\t3\n";

#[test]
fn the_reader_refuses_a_malformed_line_naming_it() {
    assert_eq!(parse(TEXT).map(|e| e.len()), Ok(3));
    for (text, why) in [
        (
            "a/x\t1\na/x\t2\n",
            "golden manifest line 2: a/x is a duplicate",
        ),
        (
            "a/x\t1\na/y 2\n",
            "golden manifest line 2: no tab in \"a/y 2\"",
        ),
        ("a/x\t\n", "golden manifest line 1: a/x has an empty value"),
    ] {
        assert_eq!(parse(text), Err(why.to_string()));
    }
}

#[test]
fn every_entry_under_the_prefix_checked_and_equal_passes() {
    let mut g = Golden::from_text(TEXT, "a");
    g.check("x", 1);
    g.check("y", "2");
    g.check("y", 2);
    g.finish();
}

#[test]
#[should_panic(expected = "1 value(s) moved or missing, 0 orphan(s)\nlines to paste:\na/y\t7\n")]
fn a_moved_value_is_printed_as_its_replacement_line() {
    let mut g = Golden::from_text(TEXT, "a");
    g.check("x", 1);
    g.check("y", 7);
    g.check("y", 7);
    g.finish();
}

#[test]
#[should_panic(expected = "lines to paste:\na/z\t4\n")]
fn a_name_the_manifest_lacks_fails() {
    let mut g = Golden::from_text(TEXT, "a");
    g.check("x", 1);
    g.check("y", 2);
    g.check("z", 4);
    g.finish();
}

#[test]
#[should_panic(
    expected = "0 value(s) moved or missing, 1 orphan(s)\nlines to paste:\n\nentries nothing checked:\na/y\t2"
)]
fn an_entry_under_the_prefix_that_nothing_checked_fails() {
    let mut g = Golden::from_text(TEXT, "a");
    g.check("x", 1);
    g.finish();
}

/// `finish` reports unchecked entries only under the prefix its test
/// opened, so an entry under a prefix no test opens (a typo'd first
/// segment, or a test deleted with its lines left behind) would never be
/// read. The prefixes are the string literals passed to `Golden::new` in
/// `tests/*.rs` and `crates/*/tests/*.rs`, collected from the sources.
#[test]
fn every_manifest_entry_is_under_a_prefix_some_test_opens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("tests")];
    for krate in fs::read_dir(root.join("crates")).expect("crates/ lists") {
        dirs.push(krate.expect("a crate directory").path().join("tests"));
    }
    // Split so that this file's own source does not match.
    let open = concat!("Golden::new", "(\"");
    let mut prefixes = Vec::new();
    for dir in dirs {
        let Ok(files) = fs::read_dir(&dir) else {
            continue; // a crate without integration tests
        };
        for file in files {
            let path = file.expect("a directory entry").path();
            if path.extension().is_none_or(|e| e != "rs") {
                continue;
            }
            let text = fs::read_to_string(&path).expect("a readable test source");
            for (at, _) in text.match_indices(open) {
                if let Some((prefix, _)) = text[at + open.len()..].split_once('"') {
                    prefixes.push(format!("{prefix}/"));
                }
            }
        }
    }
    let unread: Vec<String> = (parse(MANIFEST).expect("the manifest parses").iter())
        .filter(|(name, _)| !prefixes.iter().any(|p| name.starts_with(p.as_str())))
        .map(|(name, value)| format!("{name}\t{value}"))
        .collect();
    assert!(
        unread.is_empty(),
        "results/golden.tsv entries under no prefix a test opens:\n{}",
        unread.join("\n")
    );
}
