//! The one reader of `results/golden.tsv`, the manifest of every value a
//! test pins of this code's output: one `name<TAB>value` entry a line,
//! the name's first segment the test that produces the value.
//!
//! A test checks what it computed under its prefix and calls
//! [`Golden::finish`], which panics once, listing each value that moved
//! or has no entry as a ready-to-paste manifest line, and each entry
//! under the prefix that nothing checked. Test files pull it in with
//! `#[path]`; `tests/golden_manifest.rs` holds its own tests.

#![allow(dead_code)]

/// The manifest, as built into the test binary.
pub const MANIFEST: &str = include_str!("../../results/golden.tsv");

/// `text`'s `(name, value)` entries, or why its first bad line is bad.
pub fn parse(text: &str) -> Result<Vec<(&str, &str)>, String> {
    let mut entries: Vec<(&str, &str)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let bad = |why: String| Err(format!("golden manifest line {}: {why}", i + 1));
        match line.split_once('\t') {
            None => return bad(format!("no tab in {line:?}")),
            Some((name, "")) => return bad(format!("{name} has an empty value")),
            Some((name, _)) if entries.iter().any(|&(seen, _)| seen == name) => {
                return bad(format!("{name} is a duplicate"))
            }
            Some(entry) => entries.push(entry),
        }
    }
    Ok(entries)
}

/// The lines one test computed under its prefix, against the manifest's.
pub struct Golden {
    prefix: String,
    manifest: Vec<&'static str>,
    got: Vec<String>,
}

impl Golden {
    pub fn new(prefix: &str) -> Self {
        Golden::from_text(MANIFEST, prefix)
    }

    pub fn from_text(text: &'static str, prefix: &str) -> Self {
        parse(text).unwrap_or_else(|e| panic!("{e}"));
        let (prefix, manifest) = (format!("{prefix}/"), text.lines().collect());
        Golden {
            prefix,
            manifest,
            got: Vec::new(),
        }
    }

    /// Takes `got` as the value of the entry `<prefix>/<name>`.
    pub fn check(&mut self, name: &str, got: impl std::fmt::Display) {
        let line = format!("{}{name}\t{got}", self.prefix);
        if !self.got.contains(&line) {
            self.got.push(line);
        }
    }

    pub fn finish(self) {
        let checked =
            |m: &str| (self.got.iter()).any(|g| g.split('\t').next() == m.split('\t').next());
        let moved: Vec<&str> = (self.got.iter().map(String::as_str))
            .filter(|line| !self.manifest.contains(line))
            .collect();
        let orphans: Vec<&str> = (self.manifest.iter().copied())
            .filter(|m| m.starts_with(&self.prefix) && !checked(m))
            .collect();
        assert!(
            moved.is_empty() && orphans.is_empty(),
            "results/golden.tsv under {}: {} value(s) moved or missing, {} orphan(s)\n\
             lines to paste:\n{}\nentries nothing checked:\n{}",
            self.prefix,
            moved.len(),
            orphans.len(),
            moved.join("\n"),
            orphans.join("\n")
        );
    }
}
