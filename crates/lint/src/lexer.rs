//! A small hand-rolled Rust lexer.
//!
//! The lint rules are token-sequence patterns, so the lexer's only real
//! job is to classify source text well enough that **rules never fire
//! inside comments, string literals, raw strings, char literals, or
//! lifetimes**. It does not parse; it tokenizes:
//!
//! * line comments (`//`, `///`, `//!`) and nested block comments
//!   (`/* /* */ */`, `/** */`, `/*! */`) become single tokens carrying
//!   their full text and line span;
//! * plain, byte, and raw strings (`"…"`, `b"…"`, `r"…"`, `r#"…"#`,
//!   `br##"…"##`, `c"…"`, `cr#"…"#`) become [`TokKind::Str`] tokens —
//!   an `unwrap()` spelled inside one is invisible to every rule;
//! * `'a` lifetimes are distinguished from `'x'` / `b'\n'` char
//!   literals;
//! * raw identifiers (`r#fn`) lex as identifiers, not raw strings.
//!
//! Numeric literals are lexed conservatively: a `.` is consumed only
//! when followed by a digit, so `0..n` ranges and `x.0.unwrap()` tuple
//! chains keep their `.` punctuation tokens intact.

/// Classification of a single token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers).
    Ident,
    /// Lifetime such as `'a` or `'static`.
    Lifetime,
    /// Numeric literal.
    Number,
    /// String literal of any flavour (plain, byte, raw, C).
    Str,
    /// Character or byte-character literal.
    Char,
    /// Single punctuation character.
    Punct(char),
    /// `//`-style comment, doc forms included.
    LineComment,
    /// `/* */`-style comment (nesting handled), doc forms included.
    BlockComment,
}

/// One lexed token with its text and 1-based starting line.
#[derive(Clone, Debug)]
pub struct Tok {
    /// Token classification.
    pub kind: TokKind,
    /// Raw source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// True for line and block comments.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokKind::LineComment | TokKind::BlockComment)
    }

    /// True if this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }

    /// True if this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`. Never fails: unrecognised bytes become `Punct`
/// tokens, and unterminated literals extend to end of input — good
/// enough for a linter that runs on code rustc already accepted.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    out: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn push(&mut self, kind: TokKind, start: usize, start_line: usize) {
        let text: String = self.chars[start..self.i].iter().collect();
        self.out.push(Tok {
            kind,
            text,
            line: start_line,
        });
    }

    fn run(mut self) -> Vec<Tok> {
        // A shebang (`#!/usr/bin/env …` on line 1) lexes as one
        // line comment, not as `#`/`!` punctuation — it would
        // otherwise look like the start of an inner attribute.
        if self.peek(0) == Some('#') && self.peek(1) == Some('!') && self.peek(2) == Some('/') {
            let (start, start_line) = (self.i, self.line);
            while self.peek(0).is_some_and(|c| c != '\n') {
                self.i += 1;
            }
            self.push(TokKind::LineComment, start, start_line);
        }
        while let Some(c) = self.peek(0) {
            match c {
                '\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                _ if c.is_whitespace() => self.i += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(0),
                '\'' => self.char_or_lifetime(),
                _ if c.is_ascii_digit() => self.number(),
                _ if is_ident_start(c) => self.ident_or_prefixed(),
                _ => {
                    let (start, start_line) = (self.i, self.line);
                    self.i += 1;
                    self.push(TokKind::Punct(c), start, start_line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let (start, start_line) = (self.i, self.line);
        while self.peek(0).is_some_and(|c| c != '\n') {
            self.i += 1;
        }
        self.push(TokKind::LineComment, start, start_line);
    }

    fn block_comment(&mut self) {
        let (start, start_line) = (self.i, self.line);
        self.i += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek(0) {
                None => break,
                Some('\n') => {
                    self.line += 1;
                    self.i += 1;
                }
                Some('/') if self.peek(1) == Some('*') => {
                    depth += 1;
                    self.i += 2;
                }
                Some('*') if self.peek(1) == Some('/') => {
                    depth -= 1;
                    self.i += 2;
                }
                Some(_) => self.i += 1,
            }
        }
        self.push(TokKind::BlockComment, start, start_line);
    }

    /// Plain (non-raw) string starting `hashes == 0` at `"`, or a raw
    /// string with `hashes` `#`s already consumed (caller positioned us
    /// at the opening `"`).
    fn string(&mut self, hashes: usize) {
        let (start, start_line) = (self.i - hashes, self.line);
        self.i += 1; // opening quote
        if hashes == 0 {
            while let Some(c) = self.peek(0) {
                match c {
                    '\\' => self.i += 2,
                    '"' => {
                        self.i += 1;
                        break;
                    }
                    '\n' => {
                        self.line += 1;
                        self.i += 1;
                    }
                    _ => self.i += 1,
                }
            }
        } else {
            // Raw string: ends at `"` followed by `hashes` `#`s; no escapes.
            'scan: while let Some(c) = self.peek(0) {
                if c == '\n' {
                    self.line += 1;
                    self.i += 1;
                    continue;
                }
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes {
                        if self.peek(1 + k) != Some('#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        self.i += 1 + hashes;
                        break 'scan;
                    }
                }
                self.i += 1;
            }
        }
        self.push(TokKind::Str, start, start_line);
    }

    fn char_or_lifetime(&mut self) {
        let (start, start_line) = (self.i, self.line);
        match self.peek(1) {
            // `'a` / `'static` — lifetime unless closed by another quote
            // (`'a'` is a char literal).
            Some(c) if is_ident_start(c) => {
                let mut j = 2;
                while self.peek(j).is_some_and(is_ident_continue) {
                    j += 1;
                }
                if self.peek(j) == Some('\'') && j == 2 {
                    self.i += j + 1;
                    self.push(TokKind::Char, start, start_line);
                } else {
                    self.i += j;
                    self.push(TokKind::Lifetime, start, start_line);
                }
            }
            // Escaped char literal `'\n'`, `'\''`, `'\u{1F600}'`.
            Some('\\') => {
                self.i += 2; // quote + backslash
                self.i += 1; // escaped char
                while self.peek(0).is_some_and(|c| c != '\'') {
                    self.i += 1;
                }
                self.i += 1;
                self.push(TokKind::Char, start, start_line);
            }
            // `'{'`-style single char literal.
            Some(_) => {
                self.i += 2;
                if self.peek(0) == Some('\'') {
                    self.i += 1;
                }
                self.push(TokKind::Char, start, start_line);
            }
            None => {
                self.i += 1;
                self.push(TokKind::Punct('\''), start, start_line);
            }
        }
    }

    fn number(&mut self) {
        let (start, start_line) = (self.i, self.line);
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x') | Some('o') | Some('b')) {
            self.i += 2;
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_hexdigit() || c == '_')
            {
                self.i += 1;
            }
        } else {
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                self.i += 1;
            }
            // Fractional part: take `.` only when a digit follows, so
            // ranges (`0..n`) and tuple access keep their dots.
            if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    self.i += 1;
                }
            }
            // Exponent.
            if matches!(self.peek(0), Some('e') | Some('E')) {
                let sign = usize::from(matches!(self.peek(1), Some('+') | Some('-')));
                if self.peek(1 + sign).is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1 + sign;
                    while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                        self.i += 1;
                    }
                }
            }
        }
        // Type suffix (`f32`, `usize`, …).
        while self.peek(0).is_some_and(is_ident_continue) {
            self.i += 1;
        }
        self.push(TokKind::Number, start, start_line);
    }

    fn ident_or_prefixed(&mut self) {
        let (start, start_line) = (self.i, self.line);
        let mut j = 0;
        while self.peek(j).is_some_and(is_ident_continue) {
            j += 1;
        }
        let ident: String = self.chars[self.i..self.i + j].iter().collect();

        // String-literal prefixes: the ident runs straight into a quote
        // (or `#`s then a quote for raw strings).
        let is_raw_prefix = matches!(ident.as_str(), "r" | "br" | "cr");
        let is_plain_prefix = matches!(ident.as_str(), "b" | "c");
        if (is_raw_prefix || is_plain_prefix) && self.peek(j) == Some('"') {
            self.i += j;
            self.string(0);
            return;
        }
        if is_raw_prefix && self.peek(j) == Some('#') {
            let mut hashes = 0;
            while self.peek(j + hashes) == Some('#') {
                hashes += 1;
            }
            if self.peek(j + hashes) == Some('"') {
                self.i += j + hashes;
                self.string(hashes);
                return;
            }
            // `r#ident` raw identifier.
            if ident == "r" && hashes == 1 && self.peek(j + 1).is_some_and(is_ident_start) {
                self.i += j + 1;
                while self.peek(0).is_some_and(is_ident_continue) {
                    self.i += 1;
                }
                self.push(TokKind::Ident, start, start_line);
                return;
            }
        }
        // Byte char literal `b'x'`.
        if ident == "b" && self.peek(j) == Some('\'') {
            self.i += j;
            self.char_or_lifetime();
            return;
        }
        self.i += j;
        self.push(TokKind::Ident, start, start_line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let x = a.unwrap();");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "x", "a", "unwrap"]);
    }

    #[test]
    fn strings_swallow_keywords() {
        let toks = kinds(r#"let s = "unsafe { x.unwrap() }";"#);
        assert!(toks.iter().all(|(k, _)| *k != TokKind::Ident || {
            let _ = k;
            true
        }));
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "s"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"panic!("inner")"#; done"###);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "s", "done"]);
    }

    #[test]
    fn raw_identifier_is_ident() {
        let toks = kinds("fn r#unsafe() {}");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#unsafe"));
    }

    #[test]
    fn comments_carry_text_and_lines() {
        let toks = lex("// SAFETY: fine\nunsafe {}\n/* block\nspans */ x");
        assert_eq!(toks[0].kind, TokKind::LineComment);
        assert_eq!(toks[0].line, 1);
        assert!(toks[0].text.contains("SAFETY:"));
        let block = toks.iter().find(|t| t.kind == TokKind::BlockComment);
        assert_eq!(block.expect("block comment lexed").line, 3);
        let x = toks.iter().find(|t| t.is_ident("x")).expect("ident");
        assert_eq!(x.line, 4, "the line count runs on through the block");
    }

    #[test]
    fn nested_block_comment() {
        let toks = lex("/* outer /* inner */ still comment */ x");
        assert_eq!(toks.len(), 2);
        assert!(toks[0].is_comment());
        assert!(toks[1].is_ident("x"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'y'; let n = '\\n'; }");
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a"]);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn numbers_keep_range_dots() {
        let toks = kinds("for i in 0..n { x.0.unwrap(); 1.5e-3; 0xFF; }");
        // The `..` must survive as two puncts (2), and both dots around
        // the tuple index in `x.0.unwrap` stay puncts (2 more); only
        // `1.5e-3` absorbs its dot into the number literal.
        let dots = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct('.'))
            .count();
        assert_eq!(dots, 4);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Number && t == "1.5e-3"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Number && t == "0xFF"));
    }

    #[test]
    fn line_numbers_advance() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<usize> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn shebang_line_is_a_comment() {
        let toks = lex("#!/usr/bin/env run-cargo-script\nfn main() {}\n");
        assert_eq!(toks[0].kind, TokKind::LineComment);
        assert!(toks[0].text.starts_with("#!/usr/bin"));
        assert!(toks[1].is_ident("fn"));
        assert_eq!(toks[1].line, 2);
    }

    #[test]
    fn inner_attribute_is_not_a_shebang() {
        // `#![allow(...)]` starts with `#!` but has no `/`: it must lex
        // as ordinary puncts + idents, and only at offset 0 would a
        // shebang be considered at all.
        let toks = kinds("#![allow(dead_code)]\nx");
        assert_eq!(toks[0], (TokKind::Punct('#'), "#".to_string()));
        assert_eq!(toks[1], (TokKind::Punct('!'), "!".to_string()));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "allow"));
    }

    #[test]
    fn multiline_raw_string_keeps_the_line_count() {
        let toks = lex("let s = r#\"line one\nline two\"#;\nnext");
        let s = toks
            .iter()
            .find(|t| t.kind == TokKind::Str)
            .expect("raw string lexed");
        assert_eq!(s.line, 1);
        let next = toks.iter().find(|t| t.is_ident("next")).expect("ident");
        assert_eq!(next.line, 3);
    }

    #[test]
    fn escaped_quote_char_is_not_a_lifetime() {
        let toks = kinds(r"let c = '\''; let l: &'static str = s;");
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
        let lifetimes: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["'static"]);
    }
}
