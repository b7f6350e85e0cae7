//! The syntax tree produced by [`crate::parser`].
//!
//! This is deliberately **not** a full Rust grammar: it models exactly
//! the subset the v2 rule families need — functions (with parameter
//! and return types as normalized text), `let` bindings, calls, method
//! chains, closures, binary/compound-assignment operators, casts, and
//! the control-flow shells (`if`/`match`/loops) those can hide inside.
//! Everything else parses to [`Expr::Opaque`] and is skipped; the
//! parser never fails on code rustc already accepted.

/// One parsed source file: the flat list of every function found,
/// including methods inside `impl`/`trait` blocks and nested `fn`s.
#[derive(Debug, Default)]
pub struct FileAst {
    /// All functions in declaration order.
    pub fns: Vec<FnDef>,
}

/// A function or method definition.
#[derive(Debug)]
pub struct FnDef {
    /// The function's own name.
    pub name: String,
    /// Self type of the enclosing `impl`/`trait` block, when any.
    pub self_ty: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameters in order; a `self` receiver is recorded as
    /// `("self", <self type>)`, destructuring patterns as `("_", ty)`.
    pub params: Vec<Param>,
    /// Normalized return type text, when present.
    pub ret: Option<String>,
    /// The body; empty for trait-method declarations without one.
    pub body: Block,
}

/// One parameter or closure capture: name plus normalized type text
/// (empty when the closure parameter is untyped).
#[derive(Clone, Debug)]
pub struct Param {
    /// Binding name (`_` for non-trivial patterns).
    pub name: String,
    /// Normalized type text, e.g. `&mut [f64]`; may be empty.
    pub ty: String,
}

/// A `{ … }` block: statements in order.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// 1-based line of the opening brace (0 for a synthetic block).
    pub line: usize,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let` binding. Non-identifier patterns bind the name `_`.
    Let {
        /// Binding name.
        name: String,
        /// Normalized annotation text, when written.
        ty: Option<String>,
        /// Initializer, when present.
        init: Option<Expr>,
        /// 1-based line of the `let`.
        line: usize,
    },
    /// Expression (or expression-statement).
    Expr(Expr),
}

/// Binary / compound-assignment operator spelling (`+`, `+=`, `&&`, …).
pub type Op = String;

/// One expression node.
#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` path (also bare identifiers). Turbofish segments are
    /// dropped; only the identifier segments are kept.
    Path {
        /// Identifier segments.
        segs: Vec<String>,
        /// 1-based line.
        line: usize,
    },
    /// Number, string, or char literal (raw text preserved).
    Lit {
        /// Literal source text.
        text: String,
        /// 1-based line.
        line: usize,
    },
    /// Prefix operator: `&x`, `&mut x`, `*x`, `!x`, `-x`.
    Unary {
        /// `'&'`, `'*'`, `'!'`, or `'-'`.
        op: char,
        /// True for `&mut`.
        mutable: bool,
        /// Operand.
        expr: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// Infix operator (arithmetic, comparison, logic, ranges).
    Binary {
        /// Operator spelling.
        op: Op,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// Assignment or compound assignment (`=`, `+=`, `<<=`, …).
    Assign {
        /// Operator spelling (`=`, `+=`, …).
        op: Op,
        /// Assigned place.
        target: Box<Expr>,
        /// Value expression.
        value: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// Free or path call: `f(a)`, `m::f(a)`.
    Call {
        /// Callee (usually a [`Expr::Path`]).
        callee: Box<Expr>,
        /// Arguments in order.
        args: Vec<Expr>,
        /// 1-based line of the opening parenthesis.
        line: usize,
    },
    /// Method call: `x.f(a)`, `xs.iter().sum::<f64>()`.
    MethodCall {
        /// Receiver expression.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Turbofish text (`f64` from `::<f64>`), when present.
        turbofish: Option<String>,
        /// Arguments in order (receiver excluded).
        args: Vec<Expr>,
        /// 1-based line of the method name.
        line: usize,
    },
    /// Field access `x.name` / tuple field `x.0`.
    Field {
        /// Base expression.
        base: Box<Expr>,
        /// Field name or tuple index.
        name: String,
        /// 1-based line.
        line: usize,
    },
    /// Indexing `x[i]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `expr as Ty`.
    Cast {
        /// Source expression.
        expr: Box<Expr>,
        /// Normalized target type text.
        ty: String,
        /// 1-based line of the `as`.
        line: usize,
    },
    /// Closure `|a, b| body` (including `move` closures).
    Closure {
        /// Parameters (types empty when elided).
        params: Vec<Param>,
        /// Body expression (often a [`Expr::BlockExpr`]).
        body: Box<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `{ … }` block used as an expression (incl. `unsafe { … }`).
    BlockExpr(Block),
    /// `if`/`if let` with optional `else` chain.
    If {
        /// Condition (the bound expression for `if let`).
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// `else` expression (an `If` or `BlockExpr`), when present.
        els: Option<Box<Expr>>,
        /// 1-based line.
        line: usize,
    },
    /// `for`/`while`/`loop`.
    Loop {
        /// Iterated (`for`) or condition (`while`) expression.
        head: Option<Box<Expr>>,
        /// Loop body.
        body: Block,
        /// 1-based line.
        line: usize,
    },
    /// `match` with arm bodies (patterns are skipped).
    Match {
        /// Scrutinee expression.
        scrutinee: Box<Expr>,
        /// Arm body expressions in order.
        arms: Vec<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// Macro invocation `name!(…)`; arguments parsed best-effort.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Comma-separated argument expressions (best-effort).
        args: Vec<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// Struct literal `Path { field: expr, .. }`.
    Struct {
        /// Type path segments.
        segs: Vec<String>,
        /// Field initializers in order (shorthand fields included).
        fields: Vec<(String, Expr)>,
        /// 1-based line.
        line: usize,
    },
    /// Tuple or parenthesized expression.
    Tuple {
        /// Element expressions.
        items: Vec<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// Array literal `[a, b]` / `[x; n]`.
    Array {
        /// Element expressions.
        items: Vec<Expr>,
        /// 1-based line.
        line: usize,
    },
    /// `return`/`break` with optional value (`continue` has none).
    Jump {
        /// Carried value, when present.
        value: Option<Box<Expr>>,
        /// 1-based line.
        line: usize,
    },
    /// Anything the parser skipped.
    Opaque {
        /// 1-based line.
        line: usize,
    },
}

impl Expr {
    /// 1-based line this expression starts on.
    pub fn line(&self) -> usize {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Unary { line, .. }
            | Expr::Binary { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Closure { line, .. }
            | Expr::If { line, .. }
            | Expr::Loop { line, .. }
            | Expr::Match { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Struct { line, .. }
            | Expr::Tuple { line, .. }
            | Expr::Array { line, .. }
            | Expr::Jump { line, .. }
            | Expr::Opaque { line } => *line,
            Expr::BlockExpr(b) => b.line,
        }
    }

    /// The root identifier of a place expression: `self.x[i].y` → `self`,
    /// `acc` → `acc`, `*acc` → `acc`. `None` for non-place expressions.
    pub fn base_ident(&self) -> Option<&str> {
        match self {
            Expr::Path { segs, .. } => segs.first().map(String::as_str),
            Expr::Field { base, .. } | Expr::Index { base, .. } => base.base_ident(),
            Expr::Unary { expr, .. } => expr.base_ident(),
            _ => None,
        }
    }

    /// Render a place expression back to dotted text (`self.jobs`,
    /// `pool.queue`); `None` when the expression is not a simple place.
    pub fn place_text(&self) -> Option<String> {
        match self {
            Expr::Path { segs, .. } => Some(segs.join("::")),
            Expr::Field { base, name, .. } => Some(format!("{}.{name}", base.place_text()?)),
            Expr::Unary { expr, .. } => expr.place_text(),
            _ => None,
        }
    }

    /// Walk this expression tree in source order, calling `f` on every
    /// node (including `self`) before descending.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => expr.walk(f),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Assign { target, value, .. } => {
                target.walk(f);
                value.walk(f);
            }
            Expr::Call { callee, args, .. } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Field { base, .. } => base.walk(f),
            Expr::Index { base, index, .. } => {
                base.walk(f);
                index.walk(f);
            }
            Expr::Closure { body, .. } => body.walk(f),
            Expr::BlockExpr(b) => b.walk(f),
            Expr::If {
                cond, then, els, ..
            } => {
                cond.walk(f);
                then.walk(f);
                if let Some(e) = els {
                    e.walk(f);
                }
            }
            Expr::Loop { head, body, .. } => {
                if let Some(h) = head {
                    h.walk(f);
                }
                body.walk(f);
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(f);
                for a in arms {
                    a.walk(f);
                }
            }
            Expr::Macro { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Struct { fields, .. } => {
                for (_, e) in fields {
                    e.walk(f);
                }
            }
            Expr::Tuple { items, .. } | Expr::Array { items, .. } => {
                for e in items {
                    e.walk(f);
                }
            }
            Expr::Jump { value, .. } => {
                if let Some(v) = value {
                    v.walk(f);
                }
            }
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
        }
    }
}

impl Block {
    /// Walk every expression in the block (descending into sub-blocks).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        for s in &self.stmts {
            match s {
                Stmt::Let { init, .. } => {
                    if let Some(e) = init {
                        e.walk(f);
                    }
                }
                Stmt::Expr(e) => e.walk(f),
            }
        }
    }
}

/// A flow-insensitive map from local binding names to normalized type
/// text, built from one function's parameters, annotated `let`s, and
/// the few initializer shapes whose type is syntactically evident
/// (literal suffixes, casts, `.len()`). Lookup of an unbound name
/// returns `None` — callers must treat that as "type unknown", never
/// as a licence to assume.
#[derive(Debug, Default)]
pub struct TypeEnv {
    map: std::collections::BTreeMap<String, String>,
}

impl TypeEnv {
    /// Build the environment for `f`.
    pub fn of(f: &FnDef) -> Self {
        let mut env = TypeEnv::default();
        for p in &f.params {
            if !p.ty.is_empty() {
                env.map.insert(p.name.clone(), p.ty.clone());
            }
        }
        collect_lets(&f.body, &mut env);
        env
    }

    /// Normalized type text of `name`, when known.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(name).map(String::as_str)
    }

    /// Syntactic type of an expression under this environment:
    /// suffixed literals, casts, `.len()`, known idents, and the
    /// arithmetic closure of those. `None` when not evident.
    pub fn type_of(&self, e: &Expr) -> Option<String> {
        match e {
            Expr::Lit { text, .. } => lit_type(text),
            Expr::Cast { ty, .. } => Some(ty.clone()),
            Expr::Path { segs, .. } if segs.len() == 1 => self.get(&segs[0]).map(str::to_string),
            Expr::MethodCall { method, .. } if method == "len" => Some("usize".to_string()),
            // `Ty::new(…)` names its own type — enough to recognise
            // `let mut r = ByteReader::new(body)` receivers.
            Expr::Call { callee, .. } => match &**callee {
                Expr::Path { segs, .. }
                    if segs.len() >= 2 && segs.last().is_some_and(|s| s == "new") =>
                {
                    Some(segs[segs.len() - 2].clone())
                }
                _ => None,
            },
            Expr::Unary {
                op: '*' | '-',
                expr,
                ..
            } => {
                let t = self.type_of(expr)?;
                Some(
                    t.trim_start_matches('&')
                        .trim_start_matches("mut")
                        .trim()
                        .to_string(),
                )
            }
            Expr::Binary { op, lhs, rhs, .. }
                if matches!(op.as_str(), "+" | "-" | "*" | "/" | "%") =>
            {
                self.type_of(lhs).or_else(|| self.type_of(rhs))
            }
            Expr::Tuple { items, .. } if items.len() == 1 => self.type_of(&items[0]),
            _ => None,
        }
    }
}

fn collect_lets(b: &Block, env: &mut TypeEnv) {
    for s in &b.stmts {
        if let Stmt::Let { name, ty, init, .. } = s {
            if name != "_" {
                let t = match (ty, init) {
                    (Some(t), _) if !t.is_empty() => Some(t.clone()),
                    (_, Some(e)) => env.type_of(e),
                    _ => None,
                };
                if let Some(t) = t {
                    env.map.insert(name.clone(), t);
                }
            }
        }
        // Descend into nested blocks so `let`s inside loops/ifs count.
        let mut each = |e: &Expr| {
            if let Expr::BlockExpr(inner) = e {
                collect_lets(inner, env);
            }
            if let Expr::If { then, els, .. } = e {
                collect_lets(then, env);
                if let Some(els) = els {
                    if let Expr::BlockExpr(inner) = &**els {
                        collect_lets(inner, env);
                    }
                }
            }
            if let Expr::Loop { body, .. } = e {
                collect_lets(body, env);
            }
        };
        match s {
            Stmt::Let { init: Some(e), .. } => e.walk(&mut each),
            Stmt::Expr(e) => e.walk(&mut each),
            _ => {}
        }
    }
}

/// Numeric-literal type from its suffix or shape (`3usize` → `usize`,
/// `1.5` → `f64`, `2.0f32` → `f32`); `None` for unsuffixed integers.
fn lit_type(text: &str) -> Option<String> {
    const SUFFIXES: &[&str] = &[
        "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
        "f64", "f32",
    ];
    if !text.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    for s in SUFFIXES {
        if text.ends_with(s) {
            return Some(s.to_string());
        }
    }
    if text.contains('.') {
        return Some("f64".to_string());
    }
    None
}

/// Strip references/mut/parens from a normalized type and return the
/// bare scalar name when it is one of Rust's numeric primitives.
pub fn scalar_of(ty: &str) -> Option<&str> {
    let t = ty
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim_start_matches("mut")
        .trim();
    const SCALARS: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
        "f32", "f64",
    ];
    SCALARS.iter().find(|&&s| s == t).copied()
}
