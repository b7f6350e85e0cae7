//! A small recursive-descent parser over the lexer's token stream.
//!
//! It recognises exactly the structure the v2 rules need — items
//! (`fn`, `impl`, `trait`, `mod`), `let` bindings with type
//! annotations, calls, method chains, closures, casts, and binary /
//! compound-assignment operators — and **recovers** on everything
//! else: an unrecognised token is skipped and parsing continues, so
//! the parser never fails on code rustc already accepted. Patterns
//! (in `match` arms, `for` loops, `let` destructuring) are skipped,
//! not modelled.
//!
//! Disambiguation notes:
//!
//! * `<` after an identifier in expression position is a comparison;
//!   generics are only parsed in type position (after `:`, `as`,
//!   `->`) and in `::<…>` turbofish form — the same rule rustc uses.
//! * `|` in expression-head position starts a closure; elsewhere it
//!   is bit-or.
//! * Struct literals `Path { … }` are recognised except in
//!   `if`/`while`/`for`/`match` head position, where `{` opens the
//!   body — again mirroring the real grammar.

use crate::ast::{Block, Expr, FileAst, FnDef, Param, Stmt};
use crate::lexer::{Tok, TokKind};

/// Parse one file's token stream (`code` holds the indices of
/// non-comment tokens, as built by the engine).
pub fn parse_file(toks: &[Tok], code: &[usize]) -> FileAst {
    let mut p = Parser {
        toks,
        code,
        pos: 0,
        out: FileAst::default(),
    };
    p.items(None, None);
    p.out
}

struct Parser<'a> {
    toks: &'a [Tok],
    code: &'a [usize],
    pos: usize,
    out: FileAst,
}

impl<'a> Parser<'a> {
    // ------------------------------------------------------------ cursor

    fn tok(&self, ahead: usize) -> Option<&'a Tok> {
        self.code.get(self.pos + ahead).map(|&i| &self.toks[i])
    }

    fn line(&self) -> usize {
        self.tok(0).map_or(0, |t| t.line)
    }

    fn at_ident(&self, name: &str) -> bool {
        self.tok(0).is_some_and(|t| t.is_ident(name))
    }

    fn at_punct(&self, c: char) -> bool {
        self.tok(0).is_some_and(|t| t.is_punct(c))
    }

    fn punct_at(&self, ahead: usize, c: char) -> bool {
        self.tok(ahead).is_some_and(|t| t.is_punct(c))
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.tok(0);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, name: &str) -> bool {
        if self.at_ident(name) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Skip a balanced region starting at the current `open` punct.
    fn skip_balanced(&mut self, open: char, close: char) {
        if !self.eat_punct(open) {
            return;
        }
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                None => return,
                Some(t) if t.is_punct(open) => depth += 1,
                Some(t) if t.is_punct(close) => depth -= 1,
                Some(_) => {}
            }
        }
    }

    /// Skip `#[…]` / `#![…]` attributes.
    fn skip_attrs(&mut self) {
        loop {
            if self.at_punct('#')
                && (self.punct_at(1, '[') || (self.punct_at(1, '!') && self.punct_at(2, '[')))
            {
                self.eat_punct('#');
                self.eat_punct('!');
                self.skip_balanced('[', ']');
            } else {
                return;
            }
        }
    }

    // ------------------------------------------------------------- items

    /// Parse items until `}` (when `inside_braces`) or end of input.
    fn items(&mut self, self_ty: Option<&str>, until: Option<char>) {
        loop {
            self.skip_attrs();
            let Some(t) = self.tok(0) else { return };
            if let Some(close) = until {
                if t.is_punct(close) {
                    self.pos += 1;
                    return;
                }
            }
            match &t.kind {
                TokKind::Ident => match t.text.as_str() {
                    "pub" => {
                        self.pos += 1;
                        if self.at_punct('(') {
                            self.skip_balanced('(', ')');
                        }
                    }
                    "const" if self.tok(1).is_some_and(|n| n.is_ident("fn")) => self.pos += 1,
                    "async" | "unsafe" | "default"
                        if self.tok(1).is_some_and(|n| {
                            n.is_ident("fn") || n.is_ident("unsafe") || n.is_ident("extern")
                        }) =>
                    {
                        self.pos += 1
                    }
                    "extern" => {
                        self.pos += 1;
                        if self.tok(0).is_some_and(|t| t.kind == TokKind::Str) {
                            self.pos += 1;
                        }
                    }
                    "fn" => {
                        self.pos += 1;
                        self.fn_def(self_ty);
                    }
                    "impl" => {
                        self.pos += 1;
                        let ty = self.impl_header();
                        self.items(ty.as_deref(), Some('}'));
                    }
                    "trait" => {
                        self.pos += 1;
                        let name = self
                            .tok(0)
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone());
                        self.skip_to_body_open();
                        self.items(name.as_deref(), Some('}'));
                    }
                    "mod" => {
                        self.pos += 1;
                        self.bump(); // name
                        if self.at_punct('{') {
                            self.pos += 1;
                            self.items(self_ty, Some('}'));
                        } else {
                            self.eat_punct(';');
                        }
                    }
                    "struct" | "enum" | "union" | "macro_rules" => {
                        self.pos += 1;
                        self.skip_item_rest();
                    }
                    "use" | "type" | "static" | "const" => {
                        self.pos += 1;
                        self.skip_to_semi();
                    }
                    _ => self.pos += 1,
                },
                _ => self.pos += 1,
            }
        }
    }

    /// After `impl`: skip generics, read the self type (the path after
    /// `for` when this is a trait impl), stop after the opening `{`.
    fn impl_header(&mut self) -> Option<String> {
        if self.at_punct('<') {
            self.skip_angle();
        }
        let mut ty: Option<String> = None;
        let mut current = String::new();
        loop {
            let Some(t) = self.tok(0) else { return ty };
            match &t.kind {
                TokKind::Punct('{') => {
                    self.pos += 1;
                    if !current.is_empty() {
                        ty = Some(current);
                    }
                    return ty;
                }
                TokKind::Ident if t.text == "for" => {
                    // `impl Trait for Type` — the self type follows.
                    current.clear();
                    self.pos += 1;
                }
                TokKind::Ident if t.text == "where" => {
                    // Keep whatever we collected; scan on to `{`.
                    if !current.is_empty() {
                        ty = Some(std::mem::take(&mut current));
                    }
                    self.pos += 1;
                }
                TokKind::Ident => {
                    // Last identifier wins: `fedwcm::Pool` → `Pool`.
                    current = t.text.clone();
                    self.pos += 1;
                }
                TokKind::Punct('<') => self.skip_angle(),
                _ => self.pos += 1,
            }
        }
    }

    /// Skip everything up to and including the next `{` at depth 0.
    fn skip_to_body_open(&mut self) {
        loop {
            match self.tok(0) {
                None => return,
                Some(t) if t.is_punct('{') => {
                    self.pos += 1;
                    return;
                }
                Some(t) if t.is_punct('<') => self.skip_angle(),
                Some(t) if t.is_punct('(') => self.skip_balanced('(', ')'),
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Skip the remainder of a `struct`/`enum`/`macro_rules` item:
    /// either to a `;` or over the balanced `{ … }` / `( … );`.
    fn skip_item_rest(&mut self) {
        loop {
            match self.tok(0) {
                None => return,
                Some(t) if t.is_punct(';') => {
                    self.pos += 1;
                    return;
                }
                Some(t) if t.is_punct('{') => {
                    self.skip_balanced('{', '}');
                    return;
                }
                Some(t) if t.is_punct('(') => self.skip_balanced('(', ')'),
                Some(t) if t.is_punct('<') => self.skip_angle(),
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Skip to and over the next `;` at brace/paren depth 0.
    fn skip_to_semi(&mut self) {
        loop {
            match self.tok(0) {
                None => return,
                Some(t) if t.is_punct(';') => {
                    self.pos += 1;
                    return;
                }
                Some(t) if t.is_punct('{') => self.skip_balanced('{', '}'),
                Some(t) if t.is_punct('(') => self.skip_balanced('(', ')'),
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Skip a balanced `< … >` region, counting single-`>` tokens.
    fn skip_angle(&mut self) {
        if !self.eat_punct('<') {
            return;
        }
        let mut depth = 1usize;
        while depth > 0 {
            match self.bump() {
                None => return,
                Some(t) if t.is_punct('<') => depth += 1,
                Some(t) if t.is_punct('>') => depth -= 1,
                Some(t) if t.is_punct('(') => {
                    self.pos -= 1;
                    self.skip_balanced('(', ')');
                }
                Some(_) => {}
            }
        }
    }

    // ---------------------------------------------------------- fn items

    /// Parse a function after its `fn` keyword.
    fn fn_def(&mut self, self_ty: Option<&str>) {
        let line = self.line();
        let name = match self.tok(0) {
            Some(t) if t.kind == TokKind::Ident => {
                let n = t.text.clone();
                self.pos += 1;
                n
            }
            _ => return,
        };
        if self.at_punct('<') {
            self.skip_angle();
        }
        let mut params = Vec::new();
        if self.at_punct('(') {
            self.pos += 1;
            params = self.param_list(self_ty);
        }
        let ret = if self.at_punct('-') && self.punct_at(1, '>') {
            self.pos += 2;
            Some(self.type_text(&['{', ';', 'w']))
        } else {
            None
        };
        // `where` clause.
        if self.at_ident("where") {
            self.skip_to_body_open();
            self.pos -= 1; // re-see the `{`
        }
        let body = if self.at_punct('{') {
            self.pos += 1;
            self.block_body(self.line())
        } else {
            self.eat_punct(';');
            Block::default()
        };
        self.out.fns.push(FnDef {
            name,
            self_ty: self_ty.map(str::to_string),
            line,
            params,
            ret,
            body,
        });
    }

    /// Parse a parameter list after `(`, consuming the closing `)`.
    fn param_list(&mut self, self_ty: Option<&str>) -> Vec<Param> {
        let mut params = Vec::new();
        loop {
            self.skip_attrs();
            let Some(t) = self.tok(0) else { return params };
            if t.is_punct(')') {
                self.pos += 1;
                return params;
            }
            if t.is_punct(',') {
                self.pos += 1;
                continue;
            }
            // `self` receiver forms: `self`, `&self`, `&'a mut self`,
            // `mut self`, `self: Ty`.
            let mut probe = 0usize;
            while self.tok(probe).is_some_and(|t| {
                t.is_punct('&') || t.kind == TokKind::Lifetime || t.is_ident("mut")
            }) {
                probe += 1;
            }
            if self.tok(probe).is_some_and(|t| t.is_ident("self")) {
                self.pos += probe + 1;
                if self.eat_punct(':') {
                    let _ = self.type_text(&[',', ')']);
                }
                params.push(Param {
                    name: "self".to_string(),
                    ty: self_ty.unwrap_or("Self").to_string(),
                });
                continue;
            }
            // Plain `mut? ident : Type`; anything fancier records `_`.
            self.eat_ident("mut");
            let name = match self.tok(0) {
                Some(t) if t.kind == TokKind::Ident && self.punct_at(1, ':') => {
                    let n = t.text.clone();
                    self.pos += 2;
                    n
                }
                _ => {
                    // Destructuring pattern: skip to `:` at depth 0.
                    loop {
                        match self.tok(0) {
                            None => return params,
                            Some(t) if t.is_punct(':') => {
                                self.pos += 1;
                                break;
                            }
                            Some(t) if t.is_punct(')') => return params,
                            Some(t) if t.is_punct('(') => self.skip_balanced('(', ')'),
                            Some(t) if t.is_punct('[') => self.skip_balanced('[', ']'),
                            _ => {
                                self.pos += 1;
                            }
                        }
                    }
                    "_".to_string()
                }
            };
            let ty = self.type_text(&[',', ')']);
            params.push(Param { name, ty });
        }
    }

    /// Collect normalized type text until one of `stops` at depth 0
    /// (`'w'` stands for the `where` keyword). Does not consume the
    /// stop token.
    fn type_text(&mut self, stops: &[char]) -> String {
        let mut out = String::new();
        let mut depth = 0usize;
        loop {
            let Some(t) = self.tok(0) else { return out };
            if depth == 0 {
                match &t.kind {
                    TokKind::Punct(c) if stops.contains(c) => return out,
                    TokKind::Ident if t.text == "where" && stops.contains(&'w') => return out,
                    _ => {}
                }
            }
            match &t.kind {
                TokKind::Punct(c @ ('<' | '(' | '[')) => {
                    depth += 1;
                    out.push(*c);
                }
                TokKind::Punct(c @ ('>' | ')' | ']')) => {
                    if depth == 0 {
                        return out;
                    }
                    depth -= 1;
                    out.push(*c);
                }
                TokKind::Ident | TokKind::Number => {
                    if out
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_')
                    {
                        out.push(' ');
                    }
                    out.push_str(&t.text);
                }
                TokKind::Lifetime => {
                    if !out.is_empty() && !out.ends_with(['&', ' ']) {
                        out.push(' ');
                    }
                    out.push_str(&t.text);
                    out.push(' ');
                }
                TokKind::Punct(c) => out.push(*c),
                _ => {}
            }
            self.pos += 1;
        }
    }

    // ------------------------------------------------------------ blocks

    /// Parse statements after `{`, consuming the closing `}`.
    fn block_body(&mut self, line: usize) -> Block {
        let mut stmts = Vec::new();
        loop {
            self.skip_attrs();
            let Some(t) = self.tok(0) else {
                return Block { stmts, line };
            };
            if t.is_punct('}') {
                self.pos += 1;
                return Block { stmts, line };
            }
            if t.is_punct(';') {
                self.pos += 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "let" => {
                        stmts.push(self.let_stmt());
                        continue;
                    }
                    // Items nested inside bodies: reuse the item parser
                    // for a single step (it handles `fn`, `use`, …).
                    "fn" => {
                        self.pos += 1;
                        self.fn_def(None);
                        continue;
                    }
                    "pub" | "impl" | "trait" | "mod" | "struct" | "enum" | "union" | "use"
                    | "type" | "static" | "macro_rules" => {
                        self.item_in_block();
                        continue;
                    }
                    "const"
                        if self
                            .tok(1)
                            .is_some_and(|n| n.kind == TokKind::Ident && n.text != "fn")
                            && self.punct_at(2, ':') =>
                    {
                        self.pos += 1;
                        self.skip_to_semi();
                        continue;
                    }
                    _ => {}
                }
            }
            let before = self.pos;
            let e = self.expr(0, false);
            stmts.push(Stmt::Expr(e));
            self.eat_punct(';');
            if self.pos == before {
                // Recovery guarantee: always make progress.
                self.pos += 1;
            }
        }
    }

    /// One nested item inside a block (delegates to the item parser by
    /// parsing a single leading item).
    fn item_in_block(&mut self) {
        // Handle visibility then dispatch once.
        if self.eat_ident("pub") && self.at_punct('(') {
            self.skip_balanced('(', ')');
        }
        let Some(t) = self.tok(0) else { return };
        match t.text.as_str() {
            "fn" => {
                self.pos += 1;
                self.fn_def(None);
            }
            "impl" => {
                self.pos += 1;
                let ty = self.impl_header();
                self.items(ty.as_deref(), Some('}'));
            }
            "trait" => {
                self.pos += 1;
                let name = self
                    .tok(0)
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.clone());
                self.skip_to_body_open();
                self.items(name.as_deref(), Some('}'));
            }
            "mod" => {
                self.pos += 1;
                self.bump();
                if self.at_punct('{') {
                    self.pos += 1;
                    self.items(None, Some('}'));
                } else {
                    self.eat_punct(';');
                }
            }
            "struct" | "enum" | "union" | "macro_rules" => {
                self.pos += 1;
                self.skip_item_rest();
            }
            "use" | "type" | "static" => {
                self.pos += 1;
                self.skip_to_semi();
            }
            _ => {
                self.pos += 1;
            }
        }
    }

    /// `let` statement: `let mut? PAT (: Ty)? (= expr)? (else { … })? ;`
    fn let_stmt(&mut self) -> Stmt {
        let line = self.line();
        self.eat_ident("let");
        self.eat_ident("mut");
        let name = match self.tok(0) {
            Some(t)
                if t.kind == TokKind::Ident
                    && !matches!(t.text.as_str(), "_")
                    && (self.punct_at(1, ':')
                        || self.punct_at(1, '=')
                        || self.punct_at(1, ';')) =>
            {
                let n = t.text.clone();
                self.pos += 1;
                n
            }
            _ => {
                // Pattern binding (`let (a, b) = …`, `let Some(x) = …`):
                // skip to `:`, `=`, or `;` at depth 0.
                loop {
                    match self.tok(0) {
                        None => break,
                        Some(t) if t.is_punct(':') || t.is_punct('=') || t.is_punct(';') => break,
                        Some(t) if t.is_punct('(') => self.skip_balanced('(', ')'),
                        Some(t) if t.is_punct('[') => self.skip_balanced('[', ']'),
                        Some(t) if t.is_punct('{') => self.skip_balanced('{', '}'),
                        _ => {
                            self.pos += 1;
                        }
                    }
                }
                "_".to_string()
            }
        };
        let ty = if self.eat_punct(':') {
            Some(self.type_text(&['=', ';']))
        } else {
            None
        };
        let init = if self.eat_punct('=') {
            Some(self.expr(0, false))
        } else {
            None
        };
        // `let … else { … }`
        if self.at_ident("else") {
            self.pos += 1;
            if self.at_punct('{') {
                self.pos += 1;
                let _ = self.block_body(line);
            }
        }
        self.eat_punct(';');
        Stmt::Let {
            name,
            ty,
            init,
            line,
        }
    }

    // ------------------------------------------------------- expressions

    /// Pratt parser. `no_struct` suppresses struct-literal parsing in
    /// `if`/`while`/`for`/`match` head position.
    fn expr(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let mut lhs = self.prefix(no_struct);
        loop {
            let Some(t) = self.tok(0) else { return lhs };
            let line = t.line;
            // `as Ty` — binds tighter than any binary operator.
            if t.is_ident("as") {
                self.pos += 1;
                let ty = self.type_text(&[
                    ',', ';', ')', ']', '}', '{', '+', '-', '*', '/', '%', '=', '<', '>', '?', '.',
                    '&', '|', '^',
                ]);
                lhs = Expr::Cast {
                    expr: Box::new(lhs),
                    ty,
                    line,
                };
                continue;
            }
            let TokKind::Punct(c) = t.kind else {
                return lhs;
            };
            // Range `..` / `..=`.
            if c == '.' && self.punct_at(1, '.') {
                if min_bp > 1 {
                    return lhs;
                }
                self.pos += 2;
                self.eat_punct('=');
                let rhs = if self.range_end_follows() {
                    Box::new(self.expr(2, no_struct))
                } else {
                    Box::new(Expr::Opaque { line })
                };
                lhs = Expr::Binary {
                    op: "..".to_string(),
                    lhs: Box::new(lhs),
                    rhs,
                    line,
                };
                continue;
            }
            let Some((op, len, bp, assign)) = self.binary_op(c) else {
                return lhs;
            };
            if assign {
                if min_bp > 0 {
                    return lhs;
                }
                self.pos += len;
                let value = self.expr(0, no_struct);
                lhs = Expr::Assign {
                    op,
                    target: Box::new(lhs),
                    value: Box::new(value),
                    line,
                };
                continue;
            }
            if bp < min_bp {
                return lhs;
            }
            self.pos += len;
            let rhs = self.expr(bp + 1, no_struct);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
    }

    /// Does an expression follow the `..` we just consumed?
    fn range_end_follows(&self) -> bool {
        match self.tok(0) {
            None => false,
            Some(t) => !matches!(
                t.kind,
                TokKind::Punct(')')
                    | TokKind::Punct(']')
                    | TokKind::Punct('}')
                    | TokKind::Punct(',')
                    | TokKind::Punct(';')
                    | TokKind::Punct('{')
            ),
        }
    }

    /// Classify a binary / assignment operator starting at the current
    /// punct `c`. Returns `(spelling, token_len, binding_power,
    /// is_assignment)`.
    fn binary_op(&self, c: char) -> Option<(String, usize, u8, bool)> {
        let two = |d: char| self.punct_at(1, d);
        let three = |d: char, e: char| self.punct_at(1, d) && self.punct_at(2, e);
        Some(match c {
            '<' if three('<', '=') => ("<<=".into(), 3, 0, true),
            '>' if three('>', '=') => (">>=".into(), 3, 0, true),
            '+' if two('=') => ("+=".into(), 2, 0, true),
            '-' if two('=') => ("-=".into(), 2, 0, true),
            '*' if two('=') => ("*=".into(), 2, 0, true),
            '/' if two('=') => ("/=".into(), 2, 0, true),
            '%' if two('=') => ("%=".into(), 2, 0, true),
            '^' if two('=') => ("^=".into(), 2, 0, true),
            '&' if three('&', '=') => ("&&=".into(), 3, 0, true),
            '|' if three('|', '=') => ("||=".into(), 3, 0, true),
            '&' if two('=') => ("&=".into(), 2, 0, true),
            '|' if two('=') => ("|=".into(), 2, 0, true),
            '=' if !two('=') && !two('>') => ("=".into(), 1, 0, true),
            '|' if two('|') => ("||".into(), 2, 3, false),
            '&' if two('&') => ("&&".into(), 2, 4, false),
            '=' if two('=') => ("==".into(), 2, 5, false),
            '!' if two('=') => ("!=".into(), 2, 5, false),
            '<' if two('=') => ("<=".into(), 2, 5, false),
            '>' if two('=') => (">=".into(), 2, 5, false),
            '<' if two('<') => ("<<".into(), 2, 8, false),
            '>' if two('>') => (">>".into(), 2, 8, false),
            '<' => ("<".into(), 1, 5, false),
            '>' => (">".into(), 1, 5, false),
            '|' => ("|".into(), 1, 6, false),
            '^' => ("^".into(), 1, 6, false),
            '&' => ("&".into(), 1, 7, false),
            '+' => ("+".into(), 1, 9, false),
            '-' => ("-".into(), 1, 9, false),
            '*' => ("*".into(), 1, 10, false),
            '/' => ("/".into(), 1, 10, false),
            '%' => ("%".into(), 1, 10, false),
            _ => return None,
        })
    }

    /// Prefix / primary expressions, then postfix chains.
    fn prefix(&mut self, no_struct: bool) -> Expr {
        let Some(t) = self.tok(0) else {
            return Expr::Opaque { line: 0 };
        };
        let line = t.line;
        let mut e = match &t.kind {
            TokKind::Number | TokKind::Str | TokKind::Char => {
                self.pos += 1;
                Expr::Lit {
                    text: t.text.clone(),
                    line,
                }
            }
            TokKind::Lifetime => {
                // Loop label `'x: loop { … }`.
                self.pos += 1;
                self.eat_punct(':');
                return self.prefix(no_struct);
            }
            TokKind::Punct('&') => {
                self.pos += 1;
                self.eat_punct('&'); // `&&x` double-reference
                while self.tok(0).is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.pos += 1;
                }
                let mutable = self.eat_ident("mut");
                let inner = self.prefix_then_postfix_only(no_struct);
                Expr::Unary {
                    op: '&',
                    mutable,
                    expr: Box::new(inner),
                    line,
                }
            }
            TokKind::Punct(op @ ('*' | '!' | '-')) => {
                let op = *op;
                self.pos += 1;
                let inner = self.prefix_then_postfix_only(no_struct);
                Expr::Unary {
                    op,
                    mutable: false,
                    expr: Box::new(inner),
                    line,
                }
            }
            TokKind::Punct('|') => self.closure(line),
            TokKind::Punct('(') => {
                self.pos += 1;
                let items = self.expr_list(')');
                Expr::Tuple { items, line }
            }
            TokKind::Punct('[') => {
                self.pos += 1;
                let items = self.expr_list(']');
                Expr::Array { items, line }
            }
            TokKind::Punct('{') => {
                self.pos += 1;
                Expr::BlockExpr(self.block_body(line))
            }
            TokKind::Ident => match t.text.as_str() {
                "move" if self.tok(1).is_some_and(|n| n.is_punct('|')) => {
                    self.pos += 1;
                    let line = self.line();
                    self.closure(line)
                }
                "if" => {
                    self.pos += 1;
                    self.if_expr(line)
                }
                "match" => {
                    self.pos += 1;
                    let scrutinee = self.expr(0, true);
                    let arms = self.match_arms();
                    Expr::Match {
                        scrutinee: Box::new(scrutinee),
                        arms,
                        line,
                    }
                }
                "for" => {
                    self.pos += 1;
                    // Skip the pattern up to `in` at depth 0.
                    loop {
                        match self.tok(0) {
                            None => break,
                            Some(t) if t.is_ident("in") => {
                                self.pos += 1;
                                break;
                            }
                            Some(t) if t.is_punct('(') => self.skip_balanced('(', ')'),
                            Some(t) if t.is_punct('[') => self.skip_balanced('[', ']'),
                            _ => {
                                self.pos += 1;
                            }
                        }
                    }
                    let head = self.expr(0, true);
                    let body = self.body_block();
                    Expr::Loop {
                        head: Some(Box::new(head)),
                        body,
                        line,
                    }
                }
                "while" => {
                    self.pos += 1;
                    let head = if self.at_ident("let") {
                        self.skip_let_pattern();
                        self.expr(0, true)
                    } else {
                        self.expr(0, true)
                    };
                    let body = self.body_block();
                    Expr::Loop {
                        head: Some(Box::new(head)),
                        body,
                        line,
                    }
                }
                "loop" => {
                    self.pos += 1;
                    let body = self.body_block();
                    Expr::Loop {
                        head: None,
                        body,
                        line,
                    }
                }
                "unsafe" if self.tok(1).is_some_and(|n| n.is_punct('{')) => {
                    self.pos += 2;
                    Expr::BlockExpr(self.block_body(line))
                }
                "return" | "break" => {
                    self.pos += 1;
                    let value = match self.tok(0) {
                        Some(t)
                            if !matches!(
                                t.kind,
                                TokKind::Punct(';')
                                    | TokKind::Punct(')')
                                    | TokKind::Punct('}')
                                    | TokKind::Punct(']')
                                    | TokKind::Punct(',')
                            ) =>
                        {
                            Some(Box::new(self.expr(0, no_struct)))
                        }
                        _ => None,
                    };
                    return Expr::Jump { value, line };
                }
                "continue" => {
                    self.pos += 1;
                    return Expr::Jump { value: None, line };
                }
                _ => self.path_expr(no_struct),
            },
            _ => {
                self.pos += 1;
                Expr::Opaque { line }
            }
        };
        e = self.postfix(e, no_struct);
        e
    }

    /// Prefix without re-entering the binary loop (for unary operands).
    fn prefix_then_postfix_only(&mut self, no_struct: bool) -> Expr {
        let e = self.prefix(no_struct);
        self.postfix(e, no_struct)
    }

    /// Skip `let PAT =` inside `if let` / `while let` heads.
    fn skip_let_pattern(&mut self) {
        self.eat_ident("let");
        loop {
            match self.tok(0) {
                None => return,
                Some(t) if t.is_punct('=') && !self.punct_at(1, '=') => {
                    self.pos += 1;
                    return;
                }
                Some(t) if t.is_punct('(') => self.skip_balanced('(', ')'),
                Some(t) if t.is_punct('[') => self.skip_balanced('[', ']'),
                Some(t) if t.is_punct('{') => self.skip_balanced('{', '}'),
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    fn if_expr(&mut self, line: usize) -> Expr {
        if self.at_ident("let") {
            self.skip_let_pattern();
        }
        let cond = self.expr(0, true);
        let then = self.body_block();
        let els = if self.eat_ident("else") {
            if self.at_ident("if") {
                let line = self.line();
                self.pos += 1;
                Some(Box::new(self.if_expr(line)))
            } else {
                let line = self.line();
                if self.eat_punct('{') {
                    Some(Box::new(Expr::BlockExpr(self.block_body(line))))
                } else {
                    None
                }
            }
        } else {
            None
        };
        Expr::If {
            cond: Box::new(cond),
            then,
            els,
            line,
        }
    }

    /// A `{ … }` block in statement-head position (loop/if bodies).
    fn body_block(&mut self) -> Block {
        let line = self.line();
        if self.eat_punct('{') {
            self.block_body(line)
        } else {
            Block::default()
        }
    }

    /// Match arms after the scrutinee: `{ PAT (if guard)? => expr , … }`.
    fn match_arms(&mut self) -> Vec<Expr> {
        let mut arms = Vec::new();
        if !self.eat_punct('{') {
            return arms;
        }
        loop {
            let Some(t) = self.tok(0) else { return arms };
            if t.is_punct('}') {
                self.pos += 1;
                return arms;
            }
            // Skip the pattern (and guard) to `=>` at depth 0.
            loop {
                match self.tok(0) {
                    None => return arms,
                    Some(t) if t.is_punct('=') && self.punct_at(1, '>') => {
                        self.pos += 2;
                        break;
                    }
                    Some(t) if t.is_punct('}') => return arms,
                    Some(t) if t.is_punct('(') => self.skip_balanced('(', ')'),
                    Some(t) if t.is_punct('[') => self.skip_balanced('[', ']'),
                    Some(t) if t.is_punct('{') => self.skip_balanced('{', '}'),
                    _ => {
                        self.pos += 1;
                    }
                }
            }
            arms.push(self.expr(0, false));
            self.eat_punct(',');
        }
    }

    /// Comma-separated expressions up to (and over) the closing punct.
    fn expr_list(&mut self, close: char) -> Vec<Expr> {
        let mut items = Vec::new();
        loop {
            let Some(t) = self.tok(0) else { return items };
            if t.is_punct(close) {
                self.pos += 1;
                return items;
            }
            if t.is_punct(',') || t.is_punct(';') {
                self.pos += 1;
                continue;
            }
            let before = self.pos;
            items.push(self.expr(0, false));
            if self.pos == before {
                self.pos += 1;
            }
        }
    }

    /// Path expression with optional macro bang, struct literal, or
    /// call/postfix continuation handled by the caller.
    fn path_expr(&mut self, no_struct: bool) -> Expr {
        let line = self.line();
        let mut segs: Vec<String> = Vec::new();
        loop {
            match self.tok(0) {
                Some(t) if t.kind == TokKind::Ident => {
                    segs.push(t.text.clone());
                    self.pos += 1;
                }
                _ => break,
            }
            if self.at_punct(':') && self.punct_at(1, ':') {
                if self.tok(2).is_some_and(|t| t.is_punct('<')) {
                    // Turbofish in path position: skip its content.
                    self.pos += 2;
                    self.skip_angle();
                    if self.at_punct(':') && self.punct_at(1, ':') {
                        self.pos += 2;
                        continue;
                    }
                    break;
                }
                if self.tok(2).is_some_and(|t| t.kind == TokKind::Ident) {
                    self.pos += 2;
                    continue;
                }
                break;
            }
            break;
        }
        if segs.is_empty() {
            self.pos += 1;
            return Expr::Opaque { line };
        }
        // Macro invocation.
        if self.at_punct('!')
            && (self.punct_at(1, '(') || self.punct_at(1, '[') || self.punct_at(1, '{'))
        {
            self.pos += 1;
            let (open, close) = match self.tok(0) {
                Some(t) if t.is_punct('(') => ('(', ')'),
                Some(t) if t.is_punct('[') => ('[', ']'),
                _ => ('{', '}'),
            };
            self.pos += 1;
            let args = self.macro_args(open, close);
            return Expr::Macro {
                name: segs.pop().unwrap_or_default(),
                args,
                line,
            };
        }
        // Struct literal.
        if !no_struct && self.at_punct('{') && self.struct_literal_follows() {
            self.pos += 1;
            let fields = self.struct_fields();
            return Expr::Struct { segs, fields, line };
        }
        Expr::Path { segs, line }
    }

    /// Heuristic: `{` after a path opens a struct literal when it is
    /// followed by `ident:`, `ident,`, `ident}`, or `..`.
    fn struct_literal_follows(&self) -> bool {
        match (self.tok(1), self.tok(2)) {
            (Some(a), Some(b)) if a.kind == TokKind::Ident => {
                b.is_punct(':') || b.is_punct(',') || b.is_punct('}')
            }
            (Some(a), Some(b)) => a.is_punct('.') && b.is_punct('.'),
            (Some(a), None) => a.is_punct('}'),
            _ => false,
        }
    }

    /// Struct literal fields after `{`, consuming the closing `}`.
    fn struct_fields(&mut self) -> Vec<(String, Expr)> {
        let mut fields = Vec::new();
        loop {
            let Some(t) = self.tok(0) else { return fields };
            if t.is_punct('}') {
                self.pos += 1;
                return fields;
            }
            if t.is_punct(',') {
                self.pos += 1;
                continue;
            }
            // `..base` functional update.
            if t.is_punct('.') && self.punct_at(1, '.') {
                self.pos += 2;
                let e = self.expr(2, false);
                fields.push(("..".to_string(), e));
                continue;
            }
            match self.tok(0) {
                Some(t) if t.kind == TokKind::Ident && self.punct_at(1, ':') => {
                    let name = t.text.clone();
                    let line = t.line;
                    self.pos += 2;
                    let e = self.expr(1, false);
                    let _ = line;
                    fields.push((name, e));
                }
                Some(t) if t.kind == TokKind::Ident => {
                    // Shorthand `field,`.
                    let name = t.text.clone();
                    let line = t.line;
                    self.pos += 1;
                    fields.push((
                        name.clone(),
                        Expr::Path {
                            segs: vec![name],
                            line,
                        },
                    ));
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Macro arguments: best-effort comma-separated expressions with
    /// token-skipping recovery, up to the matching close.
    fn macro_args(&mut self, open: char, close: char) -> Vec<Expr> {
        let mut args = Vec::new();
        let mut depth = 1usize;
        loop {
            let Some(t) = self.tok(0) else { return args };
            if t.is_punct(close) {
                depth -= 1;
                self.pos += 1;
                if depth == 0 {
                    return args;
                }
                continue;
            }
            if t.is_punct(open) {
                depth += 1;
                self.pos += 1;
                continue;
            }
            if t.is_punct(',') || t.is_punct(';') {
                self.pos += 1;
                continue;
            }
            let before = self.pos;
            args.push(self.expr(0, false));
            if self.pos == before {
                self.pos += 1;
            }
        }
    }

    /// Closure after (and including) the leading `|`.
    fn closure(&mut self, line: usize) -> Expr {
        let mut params = Vec::new();
        if self.at_punct('|') && self.punct_at(1, '|') {
            self.pos += 2; // `||`
        } else {
            self.eat_punct('|');
            while let Some(t) = self.tok(0) {
                if t.is_punct('|') {
                    self.pos += 1;
                    break;
                }
                if t.is_punct(',') {
                    self.pos += 1;
                    continue;
                }
                self.eat_ident("mut");
                let name = match self.tok(0) {
                    Some(t) if t.kind == TokKind::Ident => {
                        let n = t.text.clone();
                        self.pos += 1;
                        n
                    }
                    _ => {
                        // Pattern parameter: skip to `,` / `:` / `|`.
                        loop {
                            match self.tok(0) {
                                None => break,
                                Some(t)
                                    if t.is_punct(',') || t.is_punct('|') || t.is_punct(':') =>
                                {
                                    break
                                }
                                Some(t) if t.is_punct('(') => self.skip_balanced('(', ')'),
                                _ => {
                                    self.pos += 1;
                                }
                            }
                        }
                        "_".to_string()
                    }
                };
                let ty = if self.eat_punct(':') {
                    self.type_text(&[',', '|'])
                } else {
                    String::new()
                };
                params.push(Param { name, ty });
            }
        }
        // Optional `-> Ty` forces a block body.
        if self.at_punct('-') && self.punct_at(1, '>') {
            self.pos += 2;
            let _ = self.type_text(&['{']);
        }
        let body = self.expr(0, false);
        Expr::Closure {
            params,
            body: Box::new(body),
            line,
        }
    }

    /// Postfix chains: `.method(…)`, `.field`, `(call)`, `[index]`, `?`.
    fn postfix(&mut self, mut e: Expr, no_struct: bool) -> Expr {
        loop {
            let Some(t) = self.tok(0) else { return e };
            match &t.kind {
                TokKind::Punct('?') => self.pos += 1,
                TokKind::Punct('(') => {
                    let line = t.line;
                    self.pos += 1;
                    let args = self.expr_list(')');
                    e = Expr::Call {
                        callee: Box::new(e),
                        args,
                        line,
                    };
                }
                TokKind::Punct('[') => {
                    let line = t.line;
                    self.pos += 1;
                    let mut items = self.expr_list(']');
                    let index = items.pop().unwrap_or(Expr::Opaque { line });
                    e = Expr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                        line,
                    };
                }
                TokKind::Punct('.') if !self.punct_at(1, '.') => {
                    self.pos += 1;
                    match self.tok(0) {
                        Some(n) if n.kind == TokKind::Ident && n.text == "await" => {
                            self.pos += 1;
                        }
                        Some(n) if n.kind == TokKind::Ident => {
                            let name = n.text.clone();
                            let line = n.line;
                            self.pos += 1;
                            // Turbofish `::<…>`.
                            let mut turbofish = None;
                            if self.at_punct(':')
                                && self.punct_at(1, ':')
                                && self.tok(2).is_some_and(|t| t.is_punct('<'))
                            {
                                self.pos += 2;
                                self.eat_punct('<');
                                turbofish = Some(self.type_text(&['>']));
                                self.eat_punct('>');
                            }
                            if self.at_punct('(') {
                                self.pos += 1;
                                let args = self.expr_list(')');
                                e = Expr::MethodCall {
                                    recv: Box::new(e),
                                    method: name,
                                    turbofish,
                                    args,
                                    line,
                                };
                            } else {
                                e = Expr::Field {
                                    base: Box::new(e),
                                    name,
                                    line,
                                };
                            }
                        }
                        Some(n) if n.kind == TokKind::Number => {
                            let name = n.text.clone();
                            let line = n.line;
                            self.pos += 1;
                            e = Expr::Field {
                                base: Box::new(e),
                                name,
                                line,
                            };
                        }
                        _ => return e,
                    }
                }
                _ => return e,
            }
            let _ = no_struct;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt};
    use crate::lexer::lex;

    fn parse(src: &str) -> FileAst {
        let toks = lex(src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        parse_file(&toks, &code)
    }

    #[test]
    fn fn_signature_parsed() {
        let ast = parse("pub fn f(x: &mut [f64], n: usize) -> f64 { 0.0 }\n");
        assert_eq!(ast.fns.len(), 1);
        let f = &ast.fns[0];
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, "&mut[f64]");
        assert_eq!(f.params[1].ty, "usize");
        assert_eq!(f.ret.as_deref(), Some("f64"));
    }

    #[test]
    fn impl_methods_carry_self_type() {
        let ast = parse(
            "impl Pool { fn push(&mut self, j: Job) {} }\nimpl Fmt for Pool { fn fmt(&self) {} }\n",
        );
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].self_ty.as_deref(), Some("Pool"));
        assert_eq!(ast.fns[0].params[0].name, "self");
        assert_eq!(ast.fns[1].self_ty.as_deref(), Some("Pool"));
    }

    #[test]
    fn let_types_and_inits() {
        let ast = parse("fn f() { let mut acc: f64 = 0.0; let n = xs.len(); }\n");
        let body = &ast.fns[0].body;
        match &body.stmts[0] {
            Stmt::Let { name, ty, .. } => {
                assert_eq!(name, "acc");
                assert_eq!(ty.as_deref(), Some("f64"));
            }
            s => panic!("expected let, got {s:?}"),
        }
        match &body.stmts[1] {
            Stmt::Let { name, init, .. } => {
                assert_eq!(name, "n");
                assert!(matches!(init, Some(Expr::MethodCall { method, .. }) if method == "len"));
            }
            s => panic!("expected let, got {s:?}"),
        }
    }

    #[test]
    fn method_chain_with_turbofish() {
        let ast = parse("fn f(xs: &[f32]) -> f32 { xs.iter().map(|x| x * x).sum::<f32>() }\n");
        let body = &ast.fns[0].body;
        let Stmt::Expr(Expr::MethodCall {
            method, turbofish, ..
        }) = &body.stmts[0]
        else {
            panic!("expected a method call statement");
        };
        assert_eq!(method, "sum");
        assert_eq!(turbofish.as_deref(), Some("f32"));
    }

    #[test]
    fn compound_assign_in_loop() {
        let ast = parse("fn f(xs: &[f64]) { let mut acc = 0.0; for x in xs { acc += x; } }\n");
        let mut saw = false;
        ast.fns[0].body.walk(&mut |e| {
            if let Expr::Assign { op, target, .. } = e {
                if op == "+=" {
                    assert_eq!(target.base_ident(), Some("acc"));
                    saw = true;
                }
            }
        });
        assert!(saw, "`+=` assignment not found");
    }

    #[test]
    fn closures_and_calls() {
        let ast = parse("fn f(n: usize) { parallel_map(n, 4, |i| { work(i) }); }\n");
        let mut call = false;
        let mut closure = false;
        ast.fns[0].body.walk(&mut |e| match e {
            Expr::Call { callee, .. } => {
                if let Expr::Path { segs, .. } = &**callee {
                    if segs.last().is_some_and(|s| s == "parallel_map") {
                        call = true;
                    }
                }
            }
            Expr::Closure { params, .. } => {
                assert_eq!(params.len(), 1);
                assert_eq!(params[0].name, "i");
                closure = true;
            }
            _ => {}
        });
        assert!(call && closure);
    }

    #[test]
    fn casts_are_modelled() {
        let ast = parse("fn f(n: u64) -> u32 { n as u32 }\n");
        let Stmt::Expr(Expr::Cast { ty, expr, .. }) = &ast.fns[0].body.stmts[0] else {
            panic!("expected a cast statement");
        };
        assert_eq!(ty, "u32");
        assert!(matches!(&**expr, Expr::Path { segs, .. } if segs == &["n"]));
    }

    #[test]
    fn comparison_is_not_generics() {
        let ast = parse("fn f(a: usize, b: usize) -> bool { a < b && b > a }\n");
        let mut lt = 0;
        ast.fns[0].body.walk(&mut |e| {
            if let Expr::Binary { op, .. } = e {
                if op == "<" || op == ">" {
                    lt += 1;
                }
            }
        });
        assert_eq!(lt, 2);
    }

    #[test]
    fn match_arms_and_struct_literals() {
        let ast = parse(
            "fn f(x: Option<u32>) -> P { match x { Some(v) => g(v), None => h(), } ; P { a: 1, b } }\n",
        );
        let mut arms = 0;
        let mut fields = 0;
        ast.fns[0].body.walk(&mut |e| match e {
            Expr::Match { arms: a, .. } => arms = a.len(),
            Expr::Struct { fields: f, .. } => fields = f.len(),
            _ => {}
        });
        assert_eq!(arms, 2);
        assert_eq!(fields, 2);
    }

    #[test]
    fn nested_fns_and_trait_methods_found() {
        let ast = parse(
            "trait T { fn provided(&self) -> u32 { 1 } fn required(&self); }\nfn outer() { fn inner() {} }\n",
        );
        // A nested fn completes (and is pushed) before its enclosing fn.
        let names: Vec<&str> = ast.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["provided", "required", "inner", "outer"]);
    }

    #[test]
    fn range_and_ref_patterns_do_not_derail() {
        let ast = parse("fn f(xs: &[f64]) { for i in 0..xs.len() { g(&xs[i], &mut XS[..n]); } }\n");
        assert_eq!(ast.fns.len(), 1);
        let mut calls = 0;
        ast.fns[0].body.walk(&mut |e| {
            if matches!(e, Expr::Call { .. }) {
                calls += 1;
            }
        });
        assert!(calls >= 1);
    }

    #[test]
    fn recovers_on_exotic_items() {
        // Consts, statics, macros, generics with where clauses: the
        // parser must skip them and still find the fn.
        let src = "\
static X: u64 = 9;
const Y: &str = \"s\";
macro_rules! m { ($x:expr) => { $x }; }
pub fn found<T: Clone>(t: T) -> T where T: Default { m!(t.clone()) }
";
        let ast = parse(src);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "found");
    }
}
