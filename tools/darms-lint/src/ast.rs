//! The lightweight Rust AST every darms-lint rule is built on.
//!
//! This is deliberately *not* a faithful Rust grammar: types, generics
//! and where-clauses are skipped as balanced token runs (binding types
//! are kept as flat text, see [`Param`] and [`Field`]), operator
//! precedence is flattened (`Binary` is an operator-joined sequence),
//! and anything the dataflow rules don't need collapses into `Other`.
//! What it does keep is exactly the structure the rules consume:
//! items and fns (with async-ness, bare `pub` and `#[cfg(test)]`
//! visibility), the identifiers of unparsed macro bodies,
//! blocks and statements with line spans, let-bindings with patterns,
//! struct and variant fields,
//! call/method-call expressions with argument lists, string literals
//! verbatim, `.await` points, `match` arms with structured patterns,
//! and the loop family.

/// A parse error. The `parse_workspace.rs` gate asserts the workspace
/// produces none of these.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub line: u32,
    pub msg: String,
}

/// A parsed source file.
#[derive(Debug, Default)]
pub struct SourceFile {
    pub items: Vec<Item>,
    pub errors: Vec<ParseError>,
}

/// Outer attributes, rendered to flat text (`cfg ( test )`, `derive (
/// Debug , Clone )`, ...).
#[derive(Debug, Clone, Default)]
pub struct Attrs {
    pub texts: Vec<String>,
}

impl Attrs {
    /// Does this attribute set gate the item to test builds
    /// (`#[cfg(test)]`) or mark it a test (`#[test]`)?
    pub fn is_test_only(&self) -> bool {
        self.texts.iter().any(|t| {
            let flat: String = t.split_whitespace().collect();
            flat.contains("cfg(test)") || flat == "test" || flat.starts_with("cfg(anytest")
        })
    }
}

#[derive(Debug)]
pub enum Item {
    Fn(FnItem),
    Enum(EnumItem),
    Mod(ModItem),
    /// `impl ... { items }` / `trait ... { items }` — only the nested
    /// items are kept.
    Container(ContainerItem),
    /// `const NAME: T = expr;` / `static NAME: T = expr;`
    Const(ConstItem),
    /// Everything else (use, struct, type, macro_rules!, ...).
    Other(OtherItem),
}

impl Item {
    pub fn attrs(&self) -> &Attrs {
        match self {
            Item::Fn(f) => &f.attrs,
            Item::Enum(e) => &e.attrs,
            Item::Mod(m) => &m.attrs,
            Item::Container(c) => &c.attrs,
            Item::Const(c) => &c.attrs,
            Item::Other(o) => &o.attrs,
        }
    }

    pub fn line(&self) -> u32 {
        match self {
            Item::Fn(f) => f.line,
            Item::Enum(e) => e.line,
            Item::Mod(m) => m.line,
            Item::Container(c) => c.line,
            Item::Const(c) => c.line,
            Item::Other(o) => o.line,
        }
    }
}

/// A fn or closure parameter (`self` excluded) with its declared type,
/// when one is written. Types throughout the AST are flat token text,
/// joined by spaces like attributes (`& Mutex < HashMap < u64 , Job > >`).
#[derive(Debug)]
pub struct Param {
    pub pat: Pat,
    pub ty: Option<String>,
}

/// A named struct / struct-variant field.
#[derive(Debug)]
pub struct Field {
    pub name: String,
    pub ty: String,
    pub line: u32,
}

#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Declared bare `pub` (not `pub(crate)` / `pub(in ..)`).
    pub is_pub: bool,
    pub is_async: bool,
    pub params: Vec<Param>,
    pub body: Option<Block>,
    pub line: u32,
    pub end_line: u32,
    pub attrs: Attrs,
}

#[derive(Debug)]
pub struct EnumItem {
    pub name: String,
    /// Variant names with their declaration lines.
    pub variants: Vec<(String, u32)>,
    /// Named fields of struct-like variants.
    pub fields: Vec<Field>,
    pub line: u32,
    pub attrs: Attrs,
}

#[derive(Debug)]
pub struct ModItem {
    pub name: String,
    pub items: Vec<Item>,
    pub line: u32,
    pub attrs: Attrs,
}

#[derive(Debug)]
pub struct ContainerItem {
    /// `impl` or `trait`.
    pub kind: &'static str,
    /// Flat text of the header between the keyword and the body brace
    /// (e.g. the `Display for DynReject` of `impl Display for DynReject`).
    pub header: String,
    pub items: Vec<Item>,
    pub line: u32,
    pub attrs: Attrs,
}

#[derive(Debug)]
pub struct ConstItem {
    pub name: String,
    /// Declared bare `pub` (not `pub(crate)` / `pub(in ..)`).
    pub is_pub: bool,
    pub ty: Option<String>,
    pub init: Option<Expr>,
    pub line: u32,
    pub attrs: Attrs,
}

#[derive(Debug)]
pub struct OtherItem {
    /// Leading keyword (`use`, `struct`, ...), for diagnostics.
    pub kw: String,
    /// Named fields of a `struct` / `union` (empty otherwise).
    pub fields: Vec<Field>,
    /// Identifiers of an unparsed macro body: a `macro_rules!`
    /// definition or an item-level invocation (`proptest! { .. }`).
    pub macro_idents: Vec<String>,
    pub line: u32,
    pub end_line: u32,
    pub attrs: Attrs,
}

/// `{ ... }`
#[derive(Debug)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub line: u32,
    pub end_line: u32,
}

#[derive(Debug)]
pub struct Stmt {
    pub kind: StmtKind,
    pub line: u32,
    pub end_line: u32,
}

#[derive(Debug)]
pub enum StmtKind {
    Let(LetStmt),
    /// Expression statement; `true` when `;`-terminated.
    Expr(Expr, bool),
    Item(Box<Item>),
    Empty,
}

#[derive(Debug)]
pub struct LetStmt {
    pub pat: Pat,
    pub ty: Option<String>,
    pub init: Option<Expr>,
    pub else_block: Option<Block>,
}

#[derive(Debug)]
pub enum Expr {
    /// `a::b::c` (single idents included).
    Path(PathExpr),
    /// Any literal, verbatim (string literals keep their quotes).
    Lit(LitExpr),
    /// `callee(args)` where callee is usually a `Path`.
    Call(CallExpr),
    /// `recv.method(args)` (turbofish skipped).
    MethodCall(MethodCallExpr),
    /// `base.field` / `base.0`.
    Field(Box<Expr>, String, u32),
    /// `base.await`.
    Await(Box<Expr>, u32),
    /// `base?`.
    Try(Box<Expr>, u32),
    /// `&x` / `&mut x` / `*x` / `!x` / `-x`.
    Unary(Box<Expr>, u32),
    /// `expr as T` (type skipped).
    Cast(Box<Expr>, u32),
    /// `base[index]`.
    Index(Box<Expr>, Box<Expr>, u32),
    /// Operator-joined operand sequence, operators dropped.
    Binary(Vec<Expr>, u32),
    /// `lo .. hi` / `lo ..= hi`, either side optional.
    Range {
        lo: Option<Box<Expr>>,
        hi: Option<Box<Expr>>,
        line: u32,
    },
    /// `lhs = rhs` and compound assignments.
    Assign {
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        line: u32,
    },
    /// `Path { field: expr, .. }`.
    StructLit(StructLitExpr),
    /// `(a, b, ...)`, including 1-element parens.
    Tuple(Vec<Expr>, u32),
    /// `[a, b]` / `[x; n]`.
    Array(Vec<Expr>, u32),
    /// `{ ... }` / `unsafe { ... }` / `async { ... }`.
    Block(Block, u32),
    If(IfExpr),
    Match(MatchExpr),
    /// `loop { ... }`.
    Loop(Block, u32),
    While(WhileExpr),
    For(ForExpr),
    /// `|params| body` / `move |params| body`.
    Closure(ClosureExpr),
    Break(Option<Box<Expr>>, u32),
    Continue(u32),
    Return(Option<Box<Expr>>, u32),
    /// `path!(args)`; args parsed best-effort as expressions, and for
    /// pattern-position macros (`matches!`) the pattern is kept.
    Macro(MacroExpr),
    /// Anything unmodelled (kept so spans stay contiguous).
    Other(u32),
}

#[derive(Debug)]
pub struct PathExpr {
    pub segments: Vec<String>,
    pub line: u32,
}

impl PathExpr {
    /// The final two segments, for `Enum::Variant` matching.
    pub fn last_pair(&self) -> Option<(&str, &str)> {
        let n = self.segments.len();
        if n >= 2 {
            Some((self.segments[n - 2].as_str(), self.segments[n - 1].as_str()))
        } else {
            None
        }
    }

    pub fn last(&self) -> Option<&str> {
        self.segments.last().map(|s| s.as_str())
    }
}

#[derive(Debug)]
pub struct LitExpr {
    pub text: String,
    pub line: u32,
}

impl LitExpr {
    /// String-literal content (quotes stripped), if this is a string.
    pub fn str_content(&self) -> Option<&str> {
        let s = self.text.strip_prefix('b').unwrap_or(&self.text);
        if let Some(rest) = s.strip_prefix('r') {
            let hashes = rest.bytes().take_while(|&b| b == b'#').count();
            let rest = rest.get(hashes..)?.strip_prefix('"')?;
            rest.get(..rest.len().checked_sub(1 + hashes)?)
        } else if s.starts_with('"') {
            s.strip_prefix('"').and_then(|r| r.strip_suffix('"'))
        } else {
            None
        }
    }

    /// Identifiers this literal captures if it is a format string:
    /// `{NAME}`, `{NAME:?}`. Empty for other literals.
    pub fn format_captures(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut rest = self.str_content().unwrap_or("");
        while let Some(i) = rest.find('{') {
            rest = &rest[i + 1..];
            if let Some(r) = rest.strip_prefix('{') {
                rest = r; // `{{` is a literal brace
                continue;
            }
            let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
            let name = &rest[..end];
            let starts_ident = name.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_');
            if starts_ident && rest[end..].starts_with(['}', ':']) {
                out.push(name.to_string());
            }
        }
        out
    }
}

#[derive(Debug)]
pub struct CallExpr {
    pub callee: Box<Expr>,
    pub args: Vec<Expr>,
    pub line: u32,
}

#[derive(Debug)]
pub struct MethodCallExpr {
    pub recv: Box<Expr>,
    pub method: String,
    pub args: Vec<Expr>,
    pub line: u32,
}

#[derive(Debug)]
pub struct StructLitExpr {
    pub path: PathExpr,
    /// `(field, value)`; shorthand fields have `None` values.
    pub fields: Vec<(String, Option<Expr>)>,
    /// `..base` functional-update expression.
    pub rest: Option<Box<Expr>>,
    pub line: u32,
}

#[derive(Debug)]
pub struct IfExpr {
    /// `if let` pattern, when present.
    pub let_pat: Option<Pat>,
    pub cond: Box<Expr>,
    pub then_block: Block,
    pub else_branch: Option<Box<Expr>>,
    pub line: u32,
}

#[derive(Debug)]
pub struct MatchExpr {
    pub scrutinee: Box<Expr>,
    pub arms: Vec<Arm>,
    pub line: u32,
}

#[derive(Debug)]
pub struct Arm {
    pub pat: Pat,
    pub guard: Option<Expr>,
    pub body: Expr,
    pub line: u32,
    pub end_line: u32,
}

#[derive(Debug)]
pub struct WhileExpr {
    pub let_pat: Option<Pat>,
    pub cond: Box<Expr>,
    pub body: Block,
    pub line: u32,
}

#[derive(Debug)]
pub struct ForExpr {
    pub pat: Pat,
    pub iter: Box<Expr>,
    pub body: Block,
    pub line: u32,
}

#[derive(Debug)]
pub struct ClosureExpr {
    pub params: Vec<Param>,
    pub body: Box<Expr>,
    pub line: u32,
}

#[derive(Debug)]
pub struct MacroExpr {
    pub path: Vec<String>,
    /// Best-effort expression parse of the macro arguments.
    pub args: Vec<Expr>,
    /// For pattern-position macros (`matches!`): the pattern argument.
    pub pat: Option<Box<Pat>>,
    pub line: u32,
}

#[derive(Debug)]
pub enum Pat {
    Wild(u32),
    /// Plain binding (possibly `ref`/`mut`), with optional `@ sub`.
    Ident {
        name: String,
        sub: Option<Box<Pat>>,
        line: u32,
    },
    /// Multi-segment path (`A::B`, unit variant or const).
    Path {
        segments: Vec<String>,
        line: u32,
    },
    /// `A::B(p1, p2)`.
    TupleStruct {
        segments: Vec<String>,
        elems: Vec<Pat>,
        line: u32,
    },
    /// `A::B { f: p, .. }`.
    Struct {
        segments: Vec<String>,
        fields: Vec<(String, Option<Pat>)>,
        has_rest: bool,
        line: u32,
    },
    Tuple(Vec<Pat>, u32),
    Slice(Vec<Pat>, u32),
    Ref(Box<Pat>),
    Lit(String, u32),
    Range(u32),
    Or(Vec<Pat>),
    /// `..` in tuple/slice position.
    Rest(u32),
}

impl Pat {
    pub fn line(&self) -> u32 {
        match self {
            Pat::Wild(l) | Pat::Lit(_, l) | Pat::Range(l) | Pat::Rest(l) => *l,
            Pat::Ident { line, .. }
            | Pat::Path { line, .. }
            | Pat::TupleStruct { line, .. }
            | Pat::Struct { line, .. } => *line,
            Pat::Tuple(_, l) | Pat::Slice(_, l) => *l,
            Pat::Ref(p) => p.line(),
            Pat::Or(ps) => ps.first().map(|p| p.line()).unwrap_or(0),
        }
    }

    /// Is this pattern a bare `_`?
    pub fn is_bare_wild(&self) -> bool {
        matches!(self, Pat::Wild(_))
    }

    /// Visit every sub-pattern (preorder, including `self`).
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Pat)) {
        f(self);
        match self {
            Pat::Ident { sub: Some(s), .. } => s.for_each(f),
            Pat::TupleStruct { elems, .. } => elems.iter().for_each(|p| p.for_each(f)),
            Pat::Struct { fields, .. } => {
                for (_, p) in fields {
                    if let Some(p) = p {
                        p.for_each(f);
                    }
                }
            }
            Pat::Tuple(ps, _) | Pat::Slice(ps, _) | Pat::Or(ps) => {
                ps.iter().for_each(|p| p.for_each(f))
            }
            Pat::Ref(p) => p.for_each(f),
            _ => {}
        }
    }

    /// Every `Enum::Variant` pair mentioned anywhere in the pattern
    /// (the final two path segments of path-like sub-patterns).
    pub fn enum_pairs(&self) -> Vec<(String, String, u32)> {
        let mut out = Vec::new();
        self.for_each(&mut |p| {
            let (segs, line) = match p {
                Pat::Path { segments, line }
                | Pat::TupleStruct { segments, line, .. }
                | Pat::Struct { segments, line, .. } => (segments, *line),
                _ => return,
            };
            if segs.len() >= 2 {
                out.push((segs[segs.len() - 2].clone(), segs[segs.len() - 1].clone(), line));
            }
        });
        out
    }

    /// Names bound by this pattern.
    pub fn bound_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each(&mut |p| {
            if let Pat::Ident { name, .. } = p {
                out.push(name.clone());
            }
            // Struct-pattern shorthand fields bind their field name.
            if let Pat::Struct { fields, .. } = p {
                for (name, sub) in fields {
                    if sub.is_none() {
                        out.push(name.clone());
                    }
                }
            }
        });
        out
    }
}

impl Expr {
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path(p) => p.line,
            Expr::Lit(l) => l.line,
            Expr::Call(c) => c.line,
            Expr::MethodCall(m) => m.line,
            Expr::Field(_, _, l)
            | Expr::Await(_, l)
            | Expr::Try(_, l)
            | Expr::Unary(_, l)
            | Expr::Cast(_, l)
            | Expr::Index(_, _, l)
            | Expr::Binary(_, l)
            | Expr::Tuple(_, l)
            | Expr::Array(_, l)
            | Expr::Block(_, l)
            | Expr::Loop(_, l)
            | Expr::Break(_, l)
            | Expr::Continue(l)
            | Expr::Return(_, l)
            | Expr::Other(l) => *l,
            Expr::Range { line, .. } | Expr::Assign { line, .. } => *line,
            Expr::StructLit(s) => s.line,
            Expr::If(i) => i.line,
            Expr::Match(m) => m.line,
            Expr::While(w) => w.line,
            Expr::For(f) => f.line,
            Expr::Closure(c) => c.line,
            Expr::Macro(m) => m.line,
        }
    }

    /// Visit this expression and every nested expression (preorder),
    /// descending into blocks, arms, closures and macro arguments.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        walk_expr(self, false, &mut |n| {
            if let Node::Expr(e) = n {
                f(e)
            }
        });
    }
}

impl Block {
    /// Visit every expression in the block (preorder), including
    /// nested items' bodies *not* — nested items are separate scopes.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        walk_block(self, false, &mut |n| {
            if let Node::Expr(e) = n {
                f(e)
            }
        });
    }

    /// Visit every statement and expression in the block (preorder),
    /// nested items excluded.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(Node<'a>)) {
        walk_block(self, false, f);
    }

    /// Does any expression in the block satisfy `pred`?
    pub fn any_expr(&self, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
        let mut found = false;
        self.for_each_expr(&mut |e| {
            if !found && pred(e) {
                found = true;
            }
        });
        found
    }
}

/// A syntax node handed out by [`walk_file`].
#[derive(Clone, Copy)]
pub enum Node<'a> {
    Item(&'a Item),
    Stmt(&'a Stmt),
    Expr(&'a Expr),
}

/// Visit every item, statement and expression in the file
/// (preorder), including items nested in fn bodies and const
/// initialisers: the whole-file view the workspace-wide rules scan.
pub fn walk_file<'a>(file: &'a SourceFile, f: &mut impl FnMut(Node<'a>)) {
    for it in &file.items {
        walk_item(it, f);
    }
}

fn walk_item<'a>(it: &'a Item, f: &mut impl FnMut(Node<'a>)) {
    f(Node::Item(it));
    match it {
        Item::Fn(fi) => {
            if let Some(b) = &fi.body {
                walk_block(b, true, f);
            }
        }
        Item::Mod(m) => m.items.iter().for_each(|i| walk_item(i, f)),
        Item::Container(c) => c.items.iter().for_each(|i| walk_item(i, f)),
        Item::Const(c) => {
            if let Some(e) = &c.init {
                walk_expr(e, true, f);
            }
        }
        Item::Enum(_) | Item::Other(_) => {}
    }
}

/// `items`: also descend into items declared inside the block.
fn walk_block<'a>(b: &'a Block, items: bool, f: &mut impl FnMut(Node<'a>)) {
    for s in &b.stmts {
        f(Node::Stmt(s));
        match &s.kind {
            StmtKind::Let(l) => {
                if let Some(e) = &l.init {
                    walk_expr(e, items, f);
                }
                if let Some(b) = &l.else_block {
                    walk_block(b, items, f);
                }
            }
            StmtKind::Expr(e, _) => walk_expr(e, items, f),
            StmtKind::Item(it) if items => walk_item(it, f),
            StmtKind::Item(_) | StmtKind::Empty => {}
        }
    }
}

fn walk_expr<'a>(e: &'a Expr, items: bool, f: &mut impl FnMut(Node<'a>)) {
    f(Node::Expr(e));
    let mut sub = |x: &'a Expr| walk_expr(x, items, f);
    match e {
        Expr::Path(_) | Expr::Lit(_) | Expr::Continue(_) | Expr::Other(_) => {}
        Expr::Call(c) => {
            sub(&c.callee);
            c.args.iter().for_each(sub);
        }
        Expr::MethodCall(m) => {
            sub(&m.recv);
            m.args.iter().for_each(sub);
        }
        Expr::Field(b, _, _)
        | Expr::Await(b, _)
        | Expr::Try(b, _)
        | Expr::Unary(b, _)
        | Expr::Cast(b, _) => sub(b),
        Expr::Index(b, i, _) => {
            sub(b);
            sub(i);
        }
        Expr::Binary(xs, _) | Expr::Tuple(xs, _) | Expr::Array(xs, _) => xs.iter().for_each(sub),
        Expr::Range { lo, hi, .. } => {
            lo.iter().for_each(|l| sub(l));
            hi.iter().for_each(|h| sub(h));
        }
        Expr::Assign { lhs, rhs, .. } => {
            sub(lhs);
            sub(rhs);
        }
        Expr::StructLit(s) => {
            s.fields.iter().filter_map(|(_, v)| v.as_ref()).for_each(&mut sub);
            s.rest.iter().for_each(|r| sub(r));
        }
        Expr::Block(b, _) | Expr::Loop(b, _) => walk_block(b, items, f),
        Expr::If(i) => {
            walk_expr(&i.cond, items, f);
            walk_block(&i.then_block, items, f);
            if let Some(e) = &i.else_branch {
                walk_expr(e, items, f);
            }
        }
        Expr::Match(m) => {
            walk_expr(&m.scrutinee, items, f);
            for arm in &m.arms {
                if let Some(g) = &arm.guard {
                    walk_expr(g, items, f);
                }
                walk_expr(&arm.body, items, f);
            }
        }
        Expr::While(w) => {
            walk_expr(&w.cond, items, f);
            walk_block(&w.body, items, f);
        }
        Expr::For(fo) => {
            walk_expr(&fo.iter, items, f);
            walk_block(&fo.body, items, f);
        }
        Expr::Closure(c) => sub(&c.body),
        Expr::Break(e, _) | Expr::Return(e, _) => e.iter().for_each(|e| sub(e)),
        Expr::Macro(m) => m.args.iter().for_each(sub),
    }
}

/// Walk every item in the file (preorder, descending into mods,
/// impls and traits), with the inherited test-only flag.
pub fn for_each_item<'a>(file: &'a SourceFile, f: &mut impl FnMut(&'a Item, bool)) {
    fn rec<'a>(items: &'a [Item], test_only: bool, f: &mut impl FnMut(&'a Item, bool)) {
        for it in items {
            let t = test_only || it.attrs().is_test_only();
            f(it, t);
            match it {
                Item::Mod(m) => rec(&m.items, t, f),
                Item::Container(c) => rec(&c.items, t, f),
                _ => {}
            }
        }
    }
    rec(&file.items, false, f);
}

/// Walk every fn in the file with its inherited test-only flag.
pub fn for_each_fn<'a>(file: &'a SourceFile, f: &mut impl FnMut(&'a FnItem, bool)) {
    for_each_item(file, &mut |it, test_only| {
        if let Item::Fn(fi) = it {
            f(fi, test_only || fi.attrs.is_test_only());
        }
    });
}

/// Line-span index of "coverable" syntax nodes (statements, match
/// arms, items): used by waivers to cover the full span of the
/// construct that starts on the line after the waiver comment.
pub fn coverable_spans(file: &SourceFile) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    walk_file(file, &mut |n| match n {
        Node::Item(it) => {
            let end = match it {
                Item::Fn(f) => f.end_line,
                Item::Other(o) => o.end_line,
                _ => it.line(),
            };
            out.push((it.line(), end));
        }
        Node::Stmt(s) => out.push((s.line, s.end_line)),
        Node::Expr(Expr::Match(m)) => out.extend(m.arms.iter().map(|a| (a.line, a.end_line))),
        Node::Expr(_) => {}
    });
    out.sort();
    out.dedup();
    out
}

/// Convenience: lex + parse in one step.
pub fn parse_source(src: &str) -> SourceFile {
    let (tokens, _comments) = crate::lexer::lex(src);
    crate::parser::parse(&tokens)
}
