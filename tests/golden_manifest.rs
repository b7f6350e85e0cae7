//! The manifest reader `tests/support/golden.rs`, on manifest text held
//! here rather than `results/golden.tsv`: what it refuses to read, and
//! what `finish` reports.

#[path = "support/golden.rs"]
mod golden;

use golden::{parse, Golden};

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
