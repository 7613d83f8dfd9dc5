//! Recursive-descent parser: token stream → the lightweight AST in
//! [`crate::ast`].
//!
//! Design goals, in order: (1) **total** — every workspace file must
//! parse with zero errors (`parse_workspace.rs` gates this), so
//! unmodelled constructs are consumed structurally (balanced-token
//! skips) rather than rejected; (2) **faithful where it matters** —
//! fns, blocks, lets, calls, method chains, `.await`, `match` arms and
//! patterns, loops and closures are modelled precisely because the
//! dataflow rules consume them; (3) **no `syn`** — the build is
//! hermetic.
//!
//! Types, generics and where-clauses are *skipped*, not parsed: they
//! are consumed as balanced token runs (tracking `()[]{}` and angle
//! depth), which is what makes totality cheap. The types of bindings
//! (params, `let` annotations, consts, struct and variant fields) are
//! kept as the flat text of the skipped run. Operator precedence is
//! flattened — `Binary` keeps operands, not operator identity — since
//! no rule cares which arithmetic operator joined two operands.

use crate::ast::*;
use crate::lexer::{TokKind, Token};

/// Parse a token stream into a [`SourceFile`].
pub fn parse(tokens: &[Token]) -> SourceFile {
    let mut p = Parser { t: tokens, i: 0, errors: Vec::new() };
    let mut items = Vec::new();
    while !p.eof() {
        let before = p.i;
        if let Some(item) = p.item() {
            items.push(item);
        }
        if p.i == before {
            // Defensive: never loop without progress.
            p.err("parser made no progress at item position");
            p.i += 1;
        }
    }
    SourceFile { items, errors: p.errors }
}

/// Keywords that begin an item when seen at statement position.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "impl",
    "trait",
    "mod",
    "use",
    "static",
    "type",
    "macro_rules",
    "extern",
    "pub",
];

struct Parser<'a> {
    t: &'a [Token],
    i: usize,
    errors: Vec<ParseError>,
}

impl<'a> Parser<'a> {
    // ----- primitives ---------------------------------------------------

    fn eof(&self) -> bool {
        self.i >= self.t.len()
    }

    fn cur(&self) -> Option<&'a Token> {
        self.t.get(self.i)
    }

    fn nth(&self, k: usize) -> Option<&'a Token> {
        self.t.get(self.i + k)
    }

    fn line(&self) -> u32 {
        self.cur().map(|t| t.line).unwrap_or_else(|| self.prev_line())
    }

    fn prev_line(&self) -> u32 {
        if self.i == 0 {
            1
        } else {
            self.t.get(self.i - 1).map(|t| t.line).unwrap_or(1)
        }
    }

    fn at_punct(&self, s: &str) -> bool {
        self.cur().is_some_and(|t| t.is_punct(s))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.cur().is_some_and(|t| t.is_ident(s))
    }

    fn nth_punct(&self, k: usize, s: &str) -> bool {
        self.nth(k).is_some_and(|t| t.is_punct(s))
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.t.get(self.i);
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, s: &str, ctx: &str) {
        if !self.eat_punct(s) {
            let got = self.cur().map(|t| t.text.clone()).unwrap_or_else(|| "<eof>".into());
            self.err(&format!("expected `{s}` {ctx}, found `{got}`"));
        }
    }

    fn err(&mut self, msg: &str) {
        // Cap noise: a genuinely confused parse would otherwise flood.
        if self.errors.len() < 64 {
            self.errors.push(ParseError { line: self.line(), msg: msg.to_string() });
        }
    }

    /// Skip one balanced group starting at the current open delimiter;
    /// no-op if not at one. Tracks only `()[]{}`.
    fn skip_group(&mut self) {
        let open = match self.cur() {
            Some(t) if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") => t.text.clone(),
            _ => return,
        };
        let close = match open.as_str() {
            "(" => ")",
            "[" => "]",
            _ => "}",
        };
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            let ok = t.text == close;
                            self.i += 1;
                            if !ok {
                                self.err("mismatched delimiter in skipped group");
                            }
                            return;
                        }
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
        self.err("unterminated group");
    }

    /// Skip a balanced angle-bracket run; assumes the current token is
    /// `<`. Nested `()[]{}` groups are skipped whole so `<` inside
    /// them does not count.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                self.skip_group();
                continue;
            }
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    self.i += 1;
                    return;
                }
            }
            self.i += 1;
        }
        self.err("unterminated generic arguments");
    }

    /// Skip a type (or any balanced token run) until one of `stops`
    /// appears at zero bracket *and* angle depth. The stop token is
    /// not consumed. Closing delimiters of an enclosing group also
    /// stop the scan.
    fn skip_type(&mut self, stops: &[&str]) {
        let mut angle = 0i32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                let s = t.text.as_str();
                if angle == 0 && stops.contains(&s) {
                    return;
                }
                match s {
                    "(" | "[" | "{" => {
                        self.skip_group();
                        continue;
                    }
                    ")" | "]" | "}" => return, // enclosing group closes
                    "<" => angle += 1,
                    ">" => {
                        if angle == 0 {
                            return;
                        }
                        angle -= 1;
                    }
                    _ => {}
                }
            }
            self.i += 1;
        }
    }

    /// [`Self::skip_type`], returning the skipped tokens as flat text.
    fn type_text(&mut self, stops: &[&str]) -> String {
        let lo = self.i;
        self.skip_type(stops);
        self.text(lo, self.i)
    }

    /// Tokens `lo..hi` joined by single spaces.
    fn text(&self, lo: usize, hi: usize) -> String {
        self.t[lo..hi].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ")
    }

    /// The named fields of a `{ [vis] name: Type, ... }` struct or
    /// variant body; assumes the current token is the `{`. The group is
    /// skipped whole first, so an unmodelled field shape costs only
    /// that field, never a parse error.
    fn named_fields(&mut self) -> Vec<Field> {
        let lo = self.i;
        self.skip_group();
        let body = &self.t[lo + 1..self.i.saturating_sub(1).max(lo + 1)];
        let mut p = Parser { t: body, i: 0, errors: Vec::new() };
        let mut fields = Vec::new();
        while !p.eof() {
            let _ = p.attrs();
            p.visibility();
            let line = p.line();
            match (p.cur(), p.nth(1)) {
                (Some(n), Some(c)) if n.kind == TokKind::Ident && c.is_punct(":") => {
                    let name = n.text.clone();
                    p.i += 2;
                    let ty = p.type_text(&[","]);
                    fields.push(Field { name, ty, line });
                }
                _ => p.skip_type(&[","]),
            }
            if !p.eat_punct(",") && !p.eof() {
                p.i += 1;
            }
        }
        fields
    }

    /// Skip the "simple type" after `as` in a cast: refs, path
    /// segments, generic args, tuple/paren types.
    fn skip_simple_type(&mut self) {
        while self.at_punct("&") || self.at_punct("*") {
            self.i += 1;
            if self.at_ident("mut") || self.at_ident("const") {
                self.i += 1;
            }
        }
        if self.at_ident("dyn") || self.at_ident("impl") {
            self.i += 1;
        }
        if self.at_punct("(") {
            self.skip_group();
            return;
        }
        loop {
            match self.cur() {
                Some(t) if t.kind == TokKind::Ident => {
                    self.i += 1;
                }
                _ => return,
            }
            if self.at_punct("<") {
                self.skip_angles();
            }
            if self.at_punct("::") {
                self.i += 1;
                continue;
            }
            return;
        }
    }

    // ----- attributes & visibility --------------------------------------

    /// Parse `#[...]` / `#![...]` runs into rendered attribute text.
    fn attrs(&mut self) -> Attrs {
        let mut out = Attrs::default();
        while self.at_punct("#") {
            let start = self.i;
            self.i += 1;
            self.eat_punct("!");
            if self.at_punct("[") {
                let lo = self.i;
                self.skip_group();
                out.texts.push(self.text(lo + 1, self.i.saturating_sub(1)));
            } else {
                self.i = start;
                break;
            }
        }
        out
    }

    /// Skip `pub` / `pub(crate)` / `pub(in path)`; true for a bare `pub`.
    fn visibility(&mut self) -> bool {
        if !self.eat_ident("pub") {
            return false;
        }
        if self.at_punct("(") {
            self.skip_group();
            return false;
        }
        true
    }

    // ----- items --------------------------------------------------------

    fn item(&mut self) -> Option<Item> {
        let attrs = self.attrs();
        if self.eof() || self.at_punct("}") {
            // Stray trailing attrs (inner attributes) are fine.
            if self.at_punct("}") && attrs.texts.is_empty() {
                return None;
            }
            return None;
        }
        let is_pub = self.visibility();
        let line = self.line();

        // Leading modifiers.
        let mut is_async = false;
        loop {
            if self.at_ident("default") && self.nth(1).is_some_and(|t| t.is_ident("fn")) {
                self.i += 1;
            } else if self.at_ident("async") {
                is_async = true;
                self.i += 1;
            } else if (self.at_ident("unsafe")
                && self
                    .nth(1)
                    .is_some_and(|t| t.is_ident("fn") || t.is_ident("impl") || t.is_ident("trait")))
                || (self.at_ident("const")
                    && self.nth(1).is_some_and(|t| t.is_ident("fn") || t.is_ident("unsafe")))
            {
                self.i += 1;
            } else if self.at_ident("extern")
                && self.nth(1).is_some_and(|t| t.kind == TokKind::Literal)
                && self.nth(2).is_some_and(|t| t.is_ident("fn"))
            {
                self.i += 2;
            } else {
                break;
            }
        }

        if self.at_ident("fn") {
            return Some(Item::Fn(self.fn_item(is_pub, is_async, line, attrs)));
        }
        if self.at_ident("enum") {
            return Some(self.enum_item(line, attrs));
        }
        if self.at_ident("mod") {
            return Some(self.mod_item(line, attrs));
        }
        if self.at_ident("impl") || self.at_ident("trait") {
            return Some(self.container_item(line, attrs));
        }
        if (self.at_ident("const") || self.at_ident("static"))
            && self.nth(1).is_some_and(|t| t.kind == TokKind::Ident && !t.is_ident("fn"))
        {
            return Some(self.const_item(is_pub, line, attrs));
        }
        if self.at_ident("struct") || self.at_ident("union") {
            return Some(self.struct_item(line, attrs));
        }
        if self.at_ident("use") || self.at_ident("type") {
            let kw = self.bump().unwrap().text.clone();
            self.skip_to_semi();
            return Some(Item::Other(OtherItem {
                kw,
                fields: Vec::new(),
                macro_idents: Vec::new(),
                line,
                end_line: self.prev_line(),
                attrs,
            }));
        }
        if self.at_ident("extern") {
            // `extern crate x;` or `extern "C" { ... }`.
            self.i += 1;
            if self.at_ident("crate") {
                self.skip_to_semi();
            } else {
                if self.cur().is_some_and(|t| t.kind == TokKind::Literal) {
                    self.i += 1;
                }
                if self.at_punct("{") {
                    self.skip_group();
                }
            }
            return Some(Item::Other(OtherItem {
                kw: "extern".into(),
                fields: Vec::new(),
                macro_idents: Vec::new(),
                line,
                end_line: self.prev_line(),
                attrs,
            }));
        }
        if self.at_ident("macro_rules") {
            // `macro_rules! name { raw token soup }` — never parsed as
            // expressions ($-fragments are not Rust syntax).
            self.i += 1;
            self.eat_punct("!");
            if self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
                self.i += 1;
            }
            let macro_idents = self.skip_macro_body();
            return Some(Item::Other(OtherItem {
                kw: "macro_rules".into(),
                fields: Vec::new(),
                macro_idents,
                line,
                end_line: self.prev_line(),
                attrs,
            }));
        }
        // Item-level macro invocation: `path!( ... );`
        if self.cur().is_some_and(|t| t.kind == TokKind::Ident)
            && (self.nth_punct(1, "!") || (self.nth_punct(1, "::")))
        {
            let start = self.i;
            // Walk a path then `!`.
            while self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
                self.i += 1;
                if !self.eat_punct("::") {
                    break;
                }
            }
            if self.eat_punct("!") {
                let macro_idents = self.skip_macro_body();
                self.eat_punct(";");
                return Some(Item::Other(OtherItem {
                    kw: "macro".into(),
                    fields: Vec::new(),
                    macro_idents,
                    line,
                    end_line: self.prev_line(),
                    attrs,
                }));
            }
            self.i = start;
        }

        let got = self.cur().map(|t| t.text.clone()).unwrap_or_default();
        self.err(&format!("unexpected token `{got}` at item position"));
        self.i += 1;
        Some(Item::Other(OtherItem {
            kw: got,
            fields: Vec::new(),
            macro_idents: Vec::new(),
            line,
            end_line: line,
            attrs,
        }))
    }

    /// Skip a macro body group, returning the identifiers inside it.
    fn skip_macro_body(&mut self) -> Vec<String> {
        let lo = self.i;
        self.skip_group();
        let body = &self.t[lo..self.i];
        body.iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone()).collect()
    }

    fn skip_to_semi(&mut self) {
        while let Some(t) = self.cur() {
            if t.is_punct(";") {
                self.i += 1;
                return;
            }
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                self.skip_group();
                continue;
            }
            if t.is_punct("}") || t.is_punct(")") || t.is_punct("]") {
                return; // enclosing close; missing semi
            }
            self.i += 1;
        }
    }

    fn fn_item(&mut self, is_pub: bool, is_async: bool, line: u32, attrs: Attrs) -> FnItem {
        self.eat_ident("fn");
        let name = self
            .cur()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        if !name.is_empty() {
            self.i += 1;
        } else {
            self.err("fn without a name");
        }
        if self.at_punct("<") {
            self.skip_angles();
        }
        // Parameters.
        let mut params = Vec::new();
        if self.at_punct("(") {
            self.i += 1;
            loop {
                if self.at_punct(")") {
                    self.i += 1;
                    break;
                }
                if self.eof() {
                    self.err("unterminated fn parameter list");
                    break;
                }
                let _ = self.attrs();
                // Self params: `[&['a]] [mut] self [: Type]`.
                let save = self.i;
                if self.at_punct("&") {
                    self.i += 1;
                    if self.cur().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.i += 1;
                    }
                    if self.at_ident("mut") {
                        self.i += 1;
                    }
                } else if self.at_ident("mut") && self.nth(1).is_some_and(|t| t.is_ident("self")) {
                    self.i += 1;
                }
                let is_self = self.at_ident("self");
                if is_self {
                    self.i += 1;
                    if self.eat_punct(":") {
                        self.skip_type(&[","]);
                    }
                } else {
                    self.i = save;
                    let pat = self.pat(false);
                    let ty = self.eat_punct(":").then(|| self.type_text(&[","]));
                    params.push(Param { pat, ty });
                }
                if !self.eat_punct(",") && !self.at_punct(")") {
                    self.err("expected `,` or `)` in fn params");
                    self.skip_type(&[","]);
                    self.eat_punct(",");
                }
            }
        } else {
            self.err("fn without a parameter list");
        }
        // Return type and where clause.
        if self.eat_punct("->") {
            self.skip_type(&["where", "{", ";"]);
        }
        if self.at_ident("where") {
            self.skip_type(&["{", ";"]);
        }
        let body = if self.at_punct("{") {
            Some(self.block())
        } else {
            self.eat_punct(";");
            None
        };
        FnItem { name, is_pub, is_async, params, body, line, end_line: self.prev_line(), attrs }
    }

    fn enum_item(&mut self, line: u32, attrs: Attrs) -> Item {
        self.eat_ident("enum");
        let name = self
            .cur()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        if !name.is_empty() {
            self.i += 1;
        }
        if self.at_punct("<") {
            self.skip_angles();
        }
        if self.at_ident("where") {
            self.skip_type(&["{"]);
        }
        let mut variants = Vec::new();
        let mut fields = Vec::new();
        if self.at_punct("{") {
            self.i += 1;
            loop {
                if self.at_punct("}") {
                    self.i += 1;
                    break;
                }
                if self.eof() {
                    self.err("unterminated enum body");
                    break;
                }
                let _ = self.attrs();
                if self.at_punct("}") {
                    continue;
                }
                let vline = self.line();
                if let Some(t) = self.cur().filter(|t| t.kind == TokKind::Ident) {
                    variants.push((t.text.clone(), vline));
                    self.i += 1;
                } else {
                    self.err("expected enum variant name");
                    self.i += 1;
                    continue;
                }
                if self.at_punct("{") {
                    fields.extend(self.named_fields());
                } else if self.at_punct("(") {
                    self.skip_group();
                }
                if self.eat_punct("=") {
                    // Discriminant expression.
                    self.skip_type(&[","]);
                }
                self.eat_punct(",");
            }
        }
        Item::Enum(EnumItem { name, variants, fields, line, attrs })
    }

    fn mod_item(&mut self, line: u32, attrs: Attrs) -> Item {
        self.eat_ident("mod");
        let name = self
            .cur()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        if !name.is_empty() {
            self.i += 1;
        }
        let mut items = Vec::new();
        if self.eat_punct("{") {
            while !self.at_punct("}") && !self.eof() {
                let before = self.i;
                if let Some(it) = self.item() {
                    items.push(it);
                }
                if self.i == before {
                    self.i += 1;
                }
            }
            self.expect_punct("}", "to close mod");
        } else {
            self.eat_punct(";");
        }
        Item::Mod(ModItem { name, items, line, attrs })
    }

    fn container_item(&mut self, line: u32, attrs: Attrs) -> Item {
        let kind: &'static str = if self.at_ident("impl") { "impl" } else { "trait" };
        self.i += 1;
        if self.at_punct("<") {
            self.skip_angles();
        }
        let header = self.type_text(&["{", ";"]);
        let mut items = Vec::new();
        if self.eat_punct("{") {
            while !self.at_punct("}") && !self.eof() {
                let before = self.i;
                if let Some(it) = self.item() {
                    items.push(it);
                }
                if self.i == before {
                    self.i += 1;
                }
            }
            self.expect_punct("}", "to close impl/trait body");
        } else {
            self.eat_punct(";");
        }
        Item::Container(ContainerItem { kind, header, items, line, attrs })
    }

    fn const_item(&mut self, is_pub: bool, line: u32, attrs: Attrs) -> Item {
        self.i += 1; // const | static
        self.eat_ident("mut");
        let name = self
            .cur()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        if !name.is_empty() {
            self.i += 1;
        }
        let ty = self.eat_punct(":").then(|| self.type_text(&["=", ";"]));
        let init = if self.eat_punct("=") { Some(self.expr(false)) } else { None };
        self.eat_punct(";");
        Item::Const(ConstItem { name, is_pub, ty, init, line, attrs })
    }

    fn struct_item(&mut self, line: u32, attrs: Attrs) -> Item {
        let kw = self.bump().unwrap().text.clone(); // struct | union
        if self.cur().is_some_and(|t| t.kind == TokKind::Ident) {
            self.i += 1;
        }
        if self.at_punct("<") {
            self.skip_angles();
        }
        if self.at_ident("where") {
            self.skip_type(&["{", ";", "("]);
        }
        let mut fields = Vec::new();
        if self.at_punct("(") {
            self.skip_group();
            // Tuple struct: optional where clause then `;`.
            if self.at_ident("where") {
                self.skip_type(&[";"]);
            }
            self.eat_punct(";");
        } else if self.at_punct("{") {
            fields = self.named_fields();
        } else {
            self.eat_punct(";");
        }
        Item::Other(OtherItem {
            kw,
            fields,
            macro_idents: Vec::new(),
            line,
            end_line: self.prev_line(),
            attrs,
        })
    }

    // ----- blocks & statements ------------------------------------------

    fn block(&mut self) -> Block {
        let line = self.line();
        self.expect_punct("{", "to open block");
        let mut stmts = Vec::new();
        loop {
            if self.at_punct("}") {
                self.i += 1;
                break;
            }
            if self.eof() {
                self.err("unterminated block");
                break;
            }
            let before = self.i;
            stmts.push(self.stmt());
            if self.i == before {
                self.err("parser made no progress at statement position");
                self.i += 1;
            }
        }
        Block { stmts, line, end_line: self.prev_line() }
    }

    fn stmt(&mut self) -> Stmt {
        let line = self.line();
        if self.eat_punct(";") {
            return Stmt { kind: StmtKind::Empty, line, end_line: line };
        }
        // Attributes can precede both items and statements/exprs. Peek
        // past them without committing.
        let save = self.i;
        let attrs = self.attrs();
        // `let` statement.
        if self.at_ident("let") {
            self.i += 1;
            let pat = self.pat(true);
            let ty = self.eat_punct(":").then(|| self.type_text(&["=", ";"]));
            let init = if self.eat_punct("=") { Some(self.expr(false)) } else { None };
            let else_block = if self.at_ident("else") {
                self.i += 1;
                Some(self.block())
            } else {
                None
            };
            self.eat_punct(";");
            let end_line = self.prev_line();
            let kind = StmtKind::Let(LetStmt { pat, ty, init, else_block });
            return Stmt { kind, line, end_line };
        }
        // Item statement?
        if self.at_item_start() {
            self.i = save;
            if let Some(it) = self.item() {
                let end = self.prev_line();
                return Stmt { kind: StmtKind::Item(Box::new(it)), line, end_line: end };
            }
        }
        let _ = attrs; // expression attrs are dropped
                       // Expression statement. A block-like expression at statement
                       // position terminates at its closing brace (Rust's statement
                       // rule): a following `(` / `[` / operator begins the *next*
                       // statement, not a call or index on the block.
        let e = if self.at_block_like_start() { self.primary(false) } else { self.expr(false) };
        let semi = self.eat_punct(";");
        let end_line = self.prev_line();
        Stmt { kind: StmtKind::Expr(e, semi), line, end_line }
    }

    /// Does the current token begin a block-like expression (`{`,
    /// `if`, `match`, `loop`, `while`, `for`, `unsafe {`, `async {`,
    /// or a labeled loop)? At statement position and as a match-arm
    /// body, Rust ends such expressions at their closing brace with no
    /// postfix or binary continuation — `{}` followed by `(..)` is two
    /// constructs, never a call.
    fn at_block_like_start(&self) -> bool {
        let Some(t) = self.cur() else { return false };
        if t.is_punct("{") {
            return true;
        }
        if t.kind == TokKind::Lifetime && self.nth_punct(1, ":") {
            return true; // labeled loop / labeled block
        }
        if t.kind != TokKind::Ident {
            return false;
        }
        match t.text.as_str() {
            "if" | "match" | "loop" | "while" | "for" => true,
            "unsafe" => self.nth(1).is_some_and(|u| u.is_punct("{")),
            "async" => {
                self.nth(1).is_some_and(|u| u.is_punct("{"))
                    || (self.nth(1).is_some_and(|u| u.is_ident("move"))
                        && self.nth(2).is_some_and(|u| u.is_punct("{")))
            }
            _ => false,
        }
    }

    /// At statement position: does the current token start an item
    /// (rather than an expression)?
    fn at_item_start(&self) -> bool {
        let Some(t) = self.cur() else { return false };
        if t.kind != TokKind::Ident {
            return false;
        }
        match t.text.as_str() {
            // `unsafe {` / `unsafe` expr blocks are expressions.
            "unsafe" => self
                .nth(1)
                .is_some_and(|u| u.is_ident("fn") || u.is_ident("impl") || u.is_ident("trait")),
            // `const {}` inline-const is an expression; `const X:` is an item.
            "const" => {
                self.nth(1).is_some_and(|u| u.kind == TokKind::Ident && !u.is_ident("mut"))
                    && !self.nth(1).is_some_and(|u| u.is_ident("fn"))
            }
            // `async fn` item vs `async {}` / `async move {}` exprs.
            "async" => self.nth(1).is_some_and(|u| u.is_ident("fn")),
            // (`pub` is in ITEM_KEYWORDS; it always opens an item.)
            kw => ITEM_KEYWORDS.contains(&kw),
        }
    }

    // ----- patterns -----------------------------------------------------

    fn pat(&mut self, allow_or: bool) -> Pat {
        // Leading `|` in or-patterns.
        if allow_or {
            self.eat_punct("|");
        }
        let first = self.pat_range(allow_or);
        if allow_or && self.at_punct("|") {
            let mut alts = vec![first];
            while self.eat_punct("|") {
                alts.push(self.pat_range(allow_or));
            }
            return Pat::Or(alts);
        }
        first
    }

    fn pat_range(&mut self, allow_or: bool) -> Pat {
        let p = self.pat_primary(allow_or);
        if self.at_punct(".") && self.nth_punct(1, ".") {
            let line = self.line();
            self.i += 2;
            self.eat_punct("=");
            // Optional upper bound.
            if self.cur().is_some_and(|t| t.kind == TokKind::Literal || t.kind == TokKind::Ident) {
                let _ = self.pat_primary(allow_or);
            }
            return Pat::Range(line);
        }
        p
    }

    fn pat_primary(&mut self, _allow_or: bool) -> Pat {
        let line = self.line();
        let Some(t) = self.cur() else {
            self.err("expected pattern, found eof");
            return Pat::Wild(line);
        };
        // `..` rest.
        if t.is_punct(".") && self.nth_punct(1, ".") {
            self.i += 2;
            return Pat::Rest(line);
        }
        if t.is_punct("_") || t.is_ident("_") {
            self.i += 1;
            return Pat::Wild(line);
        }
        if t.is_punct("&") {
            self.i += 1;
            self.eat_punct("&");
            self.eat_ident("mut");
            return Pat::Ref(Box::new(self.pat_primary(_allow_or)));
        }
        if t.is_punct("(") {
            self.i += 1;
            let mut elems = Vec::new();
            while !self.at_punct(")") && !self.eof() {
                elems.push(self.pat(true));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")", "to close tuple pattern");
            return Pat::Tuple(elems, line);
        }
        if t.is_punct("[") {
            self.i += 1;
            let mut elems = Vec::new();
            while !self.at_punct("]") && !self.eof() {
                elems.push(self.pat(true));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct("]", "to close slice pattern");
            return Pat::Slice(elems, line);
        }
        if t.kind == TokKind::Literal {
            let text = t.text.clone();
            self.i += 1;
            return Pat::Lit(text, line);
        }
        if t.is_punct("-") {
            self.i += 1;
            if let Some(l) = self.cur().filter(|t| t.kind == TokKind::Literal) {
                let text = format!("-{}", l.text);
                self.i += 1;
                return Pat::Lit(text, line);
            }
            return Pat::Wild(line);
        }
        if t.is_ident("ref") || t.is_ident("mut") {
            self.eat_ident("ref");
            self.eat_ident("mut");
            if let Some(n) = self.cur().filter(|t| t.kind == TokKind::Ident) {
                let name = n.text.clone();
                self.i += 1;
                let sub = if self.eat_punct("@") {
                    Some(Box::new(self.pat_primary(_allow_or)))
                } else {
                    None
                };
                return Pat::Ident { name, sub, line };
            }
            return Pat::Wild(line);
        }
        if t.is_ident("box") {
            self.i += 1;
            return self.pat_primary(_allow_or);
        }
        if t.kind == TokKind::Ident || t.is_punct("::") {
            // Path pattern.
            let segments = self.path_segments();
            if segments.is_empty() {
                self.err("expected pattern");
                self.i += 1;
                return Pat::Wild(line);
            }
            if self.at_punct("(") {
                self.i += 1;
                let mut elems = Vec::new();
                while !self.at_punct(")") && !self.eof() {
                    elems.push(self.pat(true));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(")", "to close tuple-struct pattern");
                return Pat::TupleStruct { segments, elems, line };
            }
            if self.at_punct("{") {
                self.i += 1;
                let mut fields = Vec::new();
                let mut has_rest = false;
                loop {
                    if self.at_punct("}") {
                        self.i += 1;
                        break;
                    }
                    if self.eof() {
                        self.err("unterminated struct pattern");
                        break;
                    }
                    if self.at_punct(".") && self.nth_punct(1, ".") {
                        self.i += 2;
                        has_rest = true;
                        self.eat_punct(",");
                        continue;
                    }
                    self.eat_ident("ref");
                    self.eat_ident("mut");
                    let fname = self
                        .cur()
                        .filter(|t| t.kind == TokKind::Ident || t.kind == TokKind::Literal)
                        .map(|t| t.text.clone())
                        .unwrap_or_default();
                    if fname.is_empty() {
                        self.err("expected field name in struct pattern");
                        self.i += 1;
                        continue;
                    }
                    self.i += 1;
                    let sub = if self.eat_punct(":") { Some(self.pat(true)) } else { None };
                    fields.push((fname, sub));
                    self.eat_punct(",");
                }
                return Pat::Struct { segments, fields, has_rest, line };
            }
            if segments.len() >= 2 {
                return Pat::Path { segments, line };
            }
            let name = segments.into_iter().next().unwrap();
            // Single-segment: lowercase = binding, uppercase = unit
            // variant / const pattern (snake_case convention).
            let is_binding = name.chars().next().is_some_and(|c| c.is_lowercase() || c == '_');
            if is_binding {
                let sub = if self.eat_punct("@") {
                    Some(Box::new(self.pat_primary(_allow_or)))
                } else {
                    None
                };
                return Pat::Ident { name, sub, line };
            }
            return Pat::Path { segments: vec![name], line };
        }
        self.err(&format!("unexpected token `{}` in pattern", t.text));
        self.i += 1;
        Pat::Wild(line)
    }

    /// `a::b::c` with turbofish (`::<...>`) skipped. Returns the
    /// segment names; empty when not at a path.
    fn path_segments(&mut self) -> Vec<String> {
        let mut segs = Vec::new();
        self.eat_punct("::");
        loop {
            match self.cur() {
                Some(t) if t.kind == TokKind::Ident => {
                    segs.push(t.text.clone());
                    self.i += 1;
                }
                _ => break,
            }
            if self.at_punct("::") {
                if self.nth_punct(1, "<") {
                    self.i += 1;
                    self.skip_angles();
                    if self.at_punct("::") {
                        self.i += 1;
                        continue;
                    }
                    break;
                }
                // `::` followed by ident continues the path; `::{` (use
                // trees) or anything else ends it.
                if self.nth(1).is_some_and(|t| t.kind == TokKind::Ident) {
                    self.i += 1;
                    continue;
                }
                break;
            }
            break;
        }
        segs
    }

    // ----- expressions --------------------------------------------------

    /// Parse an expression. `ns` ("no struct") suppresses struct
    /// literals, as in `if`/`while`/`match`-header position.
    fn expr(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let first = self.unary(ns);
        let mut operands = vec![first];
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "=" => {
                        if self.nth_punct(1, "=") {
                            self.i += 2;
                            operands.push(self.unary(ns));
                            continue;
                        }
                        // Plain assignment.
                        self.i += 1;
                        let lhs = collapse(operands, line);
                        let rhs = self.expr(ns);
                        return Expr::Assign { lhs: Box::new(lhs), rhs: Box::new(rhs), line };
                    }
                    "." => {
                        if self.nth_punct(1, ".") {
                            // Range.
                            self.i += 2;
                            self.eat_punct("=");
                            let lo = Some(Box::new(collapse(operands, line)));
                            let hi = if self.expr_can_start(ns) {
                                Some(Box::new(self.expr(ns)))
                            } else {
                                None
                            };
                            return Expr::Range { lo, hi, line };
                        }
                        break;
                    }
                    "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|" | "<" | ">" => {
                        let run = self.op_run();
                        if run.1 {
                            // Compound assignment.
                            let lhs = collapse(operands, line);
                            let rhs = self.expr(ns);
                            return Expr::Assign { lhs: Box::new(lhs), rhs: Box::new(rhs), line };
                        }
                        operands.push(self.unary(ns));
                        continue;
                    }
                    "!" => {
                        if self.nth_punct(1, "=") {
                            self.i += 2;
                            operands.push(self.unary(ns));
                            continue;
                        }
                        break;
                    }
                    _ => break,
                }
            } else if t.is_ident("as") {
                self.i += 1;
                self.skip_simple_type();
                let inner = collapse(operands, line);
                operands = vec![Expr::Cast(Box::new(inner), line)];
                continue;
            } else {
                break;
            }
        }
        collapse(operands, line)
    }

    /// Consume a run of operator punctuation. Returns `(text, is_assign)`.
    fn op_run(&mut self) -> (String, bool) {
        let mut run = String::new();
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct
                && matches!(t.text.as_str(), "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|" | "<" | ">")
                // Stop a run before a prefix `&`/`*`/`-` of the operand:
                // only the first one or two tokens form the operator.
                && run.len() < 2
            {
                run.push_str(&t.text);
                self.i += 1;
                // Only `<<`, `>>`, `&&`, `||` are two-punct operators;
                // anything else means the second char begins the operand.
                if run.len() == 2 && !matches!(run.as_str(), "<<" | ">>" | "&&" | "||") {
                    // Back out the second char: it is a prefix op.
                    self.i -= 1;
                    run.pop();
                    break;
                }
            } else {
                break;
            }
        }
        // Optional trailing `=`: comparison for `<`/`>`, assignment for
        // arithmetic/bit ops and shifts.
        if self.at_punct("=") && !self.nth_punct(1, "=") {
            let is_cmp = matches!(run.as_str(), "<" | ">");
            let is_logical = matches!(run.as_str(), "&&" | "||");
            if !is_cmp && !is_logical {
                self.i += 1;
                return (run, true);
            }
            // `<=` / `>=`: consume as comparison.
            self.i += 1;
            return (run, false);
        }
        (run, false)
    }

    /// Can the current token start an expression? Used for optional
    /// range bounds and `break`/`return` operands. In no-struct
    /// position (`for x in 0.. {`) a `{` opens the body, not an
    /// operand.
    fn expr_can_start(&self, ns: bool) -> bool {
        match self.cur() {
            None => false,
            Some(t) => match t.kind {
                TokKind::Ident => !matches!(t.text.as_str(), "in" | "else" | "where" | "as"),
                TokKind::Literal => true,
                TokKind::Lifetime => false,
                TokKind::Punct => {
                    if t.is_punct("{") {
                        return !ns;
                    }
                    matches!(t.text.as_str(), "(" | "[" | "{" | "&" | "*" | "!" | "-" | "|" | "::")
                }
            },
        }
    }

    /// Prefix + postfix chain.
    fn unary(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.cur() else {
            self.err("expected expression, found eof");
            return Expr::Other(line);
        };
        // Prefix operators.
        if t.is_punct("&") {
            self.i += 1;
            self.eat_punct("&");
            self.eat_ident("mut");
            let inner = self.unary(ns);
            return Expr::Unary(Box::new(inner), line);
        }
        if t.is_punct("*") || t.is_punct("!") || t.is_punct("-") {
            self.i += 1;
            let inner = self.unary(ns);
            return Expr::Unary(Box::new(inner), line);
        }
        // Leading `..` range.
        if t.is_punct(".") && self.nth_punct(1, ".") {
            self.i += 2;
            self.eat_punct("=");
            let hi = if self.expr_can_start(ns) { Some(Box::new(self.expr(ns))) } else { None };
            return Expr::Range { lo: None, hi, line };
        }
        let base = self.primary(ns);
        self.postfix(base, ns)
    }

    fn postfix(&mut self, mut base: Expr, _ns: bool) -> Expr {
        loop {
            let line = self.line();
            if self.at_punct(".") {
                // Range (`..`) ends the postfix chain.
                if self.nth_punct(1, ".") {
                    return base;
                }
                let Some(next) = self.nth(1) else { return base };
                if next.is_ident("await") {
                    self.i += 2;
                    base = Expr::Await(Box::new(base), line);
                    continue;
                }
                if next.kind == TokKind::Literal {
                    // Tuple index `.0` (possibly merged `.0.1`).
                    let name = next.text.clone();
                    self.i += 2;
                    base = Expr::Field(Box::new(base), name, line);
                    continue;
                }
                if next.kind == TokKind::Ident {
                    let name = next.text.clone();
                    self.i += 2;
                    // Method turbofish.
                    if self.at_punct("::") && self.nth_punct(1, "<") {
                        self.i += 1;
                        self.skip_angles();
                    }
                    if self.at_punct("(") {
                        let args = self.call_args();
                        base = Expr::MethodCall(MethodCallExpr {
                            recv: Box::new(base),
                            method: name,
                            args,
                            line,
                        });
                    } else {
                        base = Expr::Field(Box::new(base), name, line);
                    }
                    continue;
                }
                return base;
            }
            if self.at_punct("?") {
                self.i += 1;
                base = Expr::Try(Box::new(base), line);
                continue;
            }
            if self.at_punct("(") {
                let args = self.call_args();
                base = Expr::Call(CallExpr { callee: Box::new(base), args, line });
                continue;
            }
            if self.at_punct("[") {
                self.i += 1;
                let idx = if self.at_punct("]") { Expr::Other(line) } else { self.expr(false) };
                self.expect_punct("]", "to close index");
                base = Expr::Index(Box::new(base), Box::new(idx), line);
                continue;
            }
            return base;
        }
    }

    fn call_args(&mut self) -> Vec<Expr> {
        self.expect_punct("(", "to open call arguments");
        let mut args = Vec::new();
        loop {
            if self.at_punct(")") {
                self.i += 1;
                break;
            }
            if self.eof() {
                self.err("unterminated call arguments");
                break;
            }
            args.push(self.expr(false));
            if !self.eat_punct(",") && !self.at_punct(")") {
                self.err("expected `,` or `)` in call arguments");
                // Recover: skip to next `,` or `)` at depth 0.
                let mut depth = 0i32;
                while let Some(t) = self.cur() {
                    if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                        depth += 1;
                    } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(",") {
                        break;
                    }
                    self.i += 1;
                }
                self.eat_punct(",");
            }
        }
        args
    }

    fn primary(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.cur() else {
            self.err("expected expression, found eof");
            return Expr::Other(line);
        };
        if t.kind == TokKind::Literal {
            let text = t.text.clone();
            self.i += 1;
            return Expr::Lit(LitExpr { text, line });
        }
        if t.kind == TokKind::Lifetime {
            // Labeled loop: `'label: loop/while/for`.
            if self.nth_punct(1, ":") {
                self.i += 2;
                return self.primary(ns);
            }
            self.i += 1;
            return Expr::Other(line);
        }
        if t.is_punct("(") {
            self.i += 1;
            let mut elems = Vec::new();
            while !self.at_punct(")") && !self.eof() {
                elems.push(self.expr(false));
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")", "to close parenthesized expression");
            return Expr::Tuple(elems, line);
        }
        if t.is_punct("[") {
            self.i += 1;
            let mut elems = Vec::new();
            if !self.at_punct("]") {
                elems.push(self.expr(false));
                if self.eat_punct(";") {
                    elems.push(self.expr(false));
                } else {
                    while self.eat_punct(",") {
                        if self.at_punct("]") {
                            break;
                        }
                        elems.push(self.expr(false));
                    }
                }
            }
            self.expect_punct("]", "to close array expression");
            return Expr::Array(elems, line);
        }
        if t.is_punct("{") {
            return Expr::Block(self.block(), line);
        }
        if t.is_punct("|") {
            return self.closure(line);
        }
        if t.is_punct("#") {
            // Expression attributes (e.g. on closure args): skip.
            let _ = self.attrs();
            return self.unary(ns);
        }
        if t.kind == TokKind::Ident || t.is_punct("::") {
            match t.text.as_str() {
                "if" => return self.if_expr(),
                "match" => return self.match_expr(),
                "loop" => {
                    self.i += 1;
                    let body = self.block();
                    return Expr::Loop(body, line);
                }
                "while" => {
                    self.i += 1;
                    let let_pat = if self.eat_ident("let") {
                        let p = self.pat(true);
                        self.expect_punct("=", "in while-let");
                        Some(p)
                    } else {
                        None
                    };
                    let cond = self.expr(true);
                    let body = self.block();
                    return Expr::While(WhileExpr { let_pat, cond: Box::new(cond), body, line });
                }
                "for" => {
                    self.i += 1;
                    let pat = self.pat(true);
                    if !self.eat_ident("in") {
                        self.err("expected `in` in for loop");
                    }
                    let iter = self.expr(true);
                    let body = self.block();
                    return Expr::For(ForExpr { pat, iter: Box::new(iter), body, line });
                }
                "unsafe" => {
                    self.i += 1;
                    return Expr::Block(self.block(), line);
                }
                "async" => {
                    self.i += 1;
                    self.eat_ident("move");
                    if self.at_punct("{") {
                        return Expr::Block(self.block(), line);
                    }
                    // Async closures: `async |x: T| ..`, `async move || ..`.
                    if self.at_punct("|") {
                        return self.closure(line);
                    }
                    return Expr::Other(line);
                }
                "move" => {
                    self.i += 1;
                    if self.at_punct("|") {
                        return self.closure(line);
                    }
                    return Expr::Other(line);
                }
                "break" => {
                    self.i += 1;
                    if self.cur().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.i += 1;
                    }
                    let val =
                        if self.expr_can_start(ns) { Some(Box::new(self.expr(ns))) } else { None };
                    return Expr::Break(val, line);
                }
                "continue" => {
                    self.i += 1;
                    if self.cur().is_some_and(|t| t.kind == TokKind::Lifetime) {
                        self.i += 1;
                    }
                    return Expr::Continue(line);
                }
                "return" => {
                    self.i += 1;
                    let val =
                        if self.expr_can_start(ns) { Some(Box::new(self.expr(ns))) } else { None };
                    return Expr::Return(val, line);
                }
                // Inline-const expression `const { ... }`.
                "const" if self.nth_punct(1, "{") => {
                    self.i += 1;
                    return Expr::Block(self.block(), line);
                }
                "_" => {
                    self.i += 1;
                    return Expr::Other(line);
                }
                _ => {}
            }
            // Path, macro call, or struct literal.
            let segments = self.path_segments();
            if segments.is_empty() {
                self.err(&format!("unexpected token `{}` in expression", t.text));
                self.i += 1;
                return Expr::Other(line);
            }
            if self.at_punct("!") && !self.nth_punct(1, "=") {
                return self.macro_call(segments, line);
            }
            if self.at_punct("{") && !ns {
                return self.struct_lit(segments, line);
            }
            return Expr::Path(PathExpr { segments, line });
        }
        if t.is_punct("_") {
            self.i += 1;
            return Expr::Other(line);
        }
        self.err(&format!("unexpected token `{}` in expression", t.text));
        self.i += 1;
        Expr::Other(line)
    }

    fn closure(&mut self, line: u32) -> Expr {
        let mut params = Vec::new();
        if self.at_punct("|") && self.nth_punct(1, "|") {
            self.i += 2;
        } else {
            self.expect_punct("|", "to open closure parameters");
            while !self.at_punct("|") && !self.eof() {
                let pat = self.pat(false);
                let ty = self.eat_punct(":").then(|| self.type_text(&[",", "|"]));
                params.push(Param { pat, ty });
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct("|", "to close closure parameters");
        }
        if self.eat_punct("->") {
            self.skip_type(&["{"]);
            // A declared return type forces a block body.
            let body = Expr::Block(self.block(), line);
            return Expr::Closure(ClosureExpr { params, body: Box::new(body), line });
        }
        let body = self.expr(false);
        Expr::Closure(ClosureExpr { params, body: Box::new(body), line })
    }

    fn if_expr(&mut self) -> Expr {
        let line = self.line();
        self.eat_ident("if");
        let let_pat = if self.eat_ident("let") {
            let p = self.pat(true);
            self.expect_punct("=", "in if-let");
            Some(p)
        } else {
            None
        };
        let cond = self.expr(true);
        let then_block = self.block();
        let else_branch = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.if_expr()))
            } else {
                let l = self.line();
                Some(Box::new(Expr::Block(self.block(), l)))
            }
        } else {
            None
        };
        Expr::If(IfExpr { let_pat, cond: Box::new(cond), then_block, else_branch, line })
    }

    fn match_expr(&mut self) -> Expr {
        let line = self.line();
        self.eat_ident("match");
        let scrutinee = self.expr(true);
        self.expect_punct("{", "to open match body");
        let mut arms = Vec::new();
        loop {
            if self.at_punct("}") {
                self.i += 1;
                break;
            }
            if self.eof() {
                self.err("unterminated match body");
                break;
            }
            let _ = self.attrs();
            if self.at_punct("}") {
                continue;
            }
            let aline = self.line();
            let pat = self.pat(true);
            let guard = if self.eat_ident("if") { Some(self.expr(true)) } else { None };
            self.expect_punct("=>", "after match arm pattern");
            // Block-like arm bodies end at their closing brace (comma
            // optional); the next `(`/`[` starts the next arm's
            // pattern, not a call on the block.
            let body =
                if self.at_block_like_start() { self.primary(false) } else { self.expr(false) };
            self.eat_punct(",");
            let end_line = self.prev_line();
            arms.push(Arm { pat, guard, body, line: aline, end_line });
        }
        Expr::Match(MatchExpr { scrutinee: Box::new(scrutinee), arms, line })
    }

    fn struct_lit(&mut self, segments: Vec<String>, line: u32) -> Expr {
        self.expect_punct("{", "to open struct literal");
        let mut fields = Vec::new();
        let mut rest = None;
        loop {
            if self.at_punct("}") {
                self.i += 1;
                break;
            }
            if self.eof() {
                self.err("unterminated struct literal");
                break;
            }
            if self.at_punct(".") && self.nth_punct(1, ".") {
                self.i += 2;
                rest = Some(Box::new(self.expr(false)));
                self.eat_punct(",");
                continue;
            }
            let fname = self
                .cur()
                .filter(|t| t.kind == TokKind::Ident || t.kind == TokKind::Literal)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            if fname.is_empty() {
                self.err("expected field name in struct literal");
                self.i += 1;
                continue;
            }
            self.i += 1;
            let value = if self.eat_punct(":") { Some(self.expr(false)) } else { None };
            fields.push((fname, value));
            self.eat_punct(",");
        }
        Expr::StructLit(StructLitExpr { path: PathExpr { segments, line }, fields, rest, line })
    }

    /// `path!(args)` / `path![args]` / `path!{...}`. Arguments are
    /// parsed best-effort as comma-separated expressions; `matches!`
    /// keeps its second argument as a pattern.
    fn macro_call(&mut self, path: Vec<String>, line: u32) -> Expr {
        self.expect_punct("!", "in macro invocation");
        let is_matches = path.last().is_some_and(|s| s == "matches");
        let mut args = Vec::new();
        let mut pat = None;
        if self.at_punct("{") {
            // Brace macros (`thread_local! {...}`) — raw skip.
            self.skip_group();
            return Expr::Macro(MacroExpr { path, args, pat, line });
        }
        let close = if self.at_punct("(") {
            ")"
        } else if self.at_punct("[") {
            "]"
        } else {
            self.err("expected macro delimiter");
            return Expr::Macro(MacroExpr { path, args, pat, line });
        };
        self.i += 1;
        let mut first = true;
        loop {
            if self.at_punct(close) {
                self.i += 1;
                break;
            }
            if self.eof() {
                self.err("unterminated macro arguments");
                break;
            }
            if is_matches && !first && pat.is_none() {
                let p = self.pat(true);
                // Optional guard inside matches!.
                if self.eat_ident("if") {
                    args.push(self.expr(true));
                }
                pat = Some(Box::new(p));
            } else {
                args.push(self.expr(false));
            }
            first = false;
            // `;` separates `vec![x; n]`-style arguments; `,` the rest.
            if !self.eat_punct(",") && !self.eat_punct(";") && !self.at_punct(close) {
                self.err("expected `,` or close in macro arguments");
                let mut depth = 0i32;
                while let Some(t) = self.cur() {
                    if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                        depth += 1;
                    } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    } else if depth == 0 && t.is_punct(",") {
                        break;
                    }
                    self.i += 1;
                }
                self.eat_punct(",");
            }
        }
        Expr::Macro(MacroExpr { path, args, pat, line })
    }
}

/// Join binop operands: a single operand stays itself, several become
/// `Binary`.
fn collapse(mut operands: Vec<Expr>, line: u32) -> Expr {
    if operands.len() == 1 {
        operands.pop().unwrap()
    } else {
        Expr::Binary(operands, line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast;

    fn parse_src(src: &str) -> SourceFile {
        ast::parse_source(src)
    }

    fn assert_clean(src: &str) -> SourceFile {
        let f = parse_src(src);
        assert!(f.errors.is_empty(), "parse errors for {src:?}: {:?}", f.errors);
        f
    }

    #[test]
    fn fn_with_let_and_call() {
        let f = assert_clean("fn main() { let x = foo(1, \"two\"); x.bar().baz(3).await; }");
        let Item::Fn(func) = &f.items[0] else { panic!("expected fn") };
        assert_eq!(func.name, "main");
        assert_eq!(func.body.as_ref().unwrap().stmts.len(), 2);
    }

    #[test]
    fn match_arms_with_enum_patterns() {
        let f =
            assert_clean("fn h(m: M) { match m { M::A { x, .. } => x, M::B(y) => y, _ => 0 }; }");
        let Item::Fn(func) = &f.items[0] else { panic!() };
        let body = func.body.as_ref().unwrap();
        let StmtKind::Expr(Expr::Match(m), _) = &body.stmts[0].kind else { panic!("not a match") };
        assert_eq!(m.arms.len(), 3);
        assert_eq!(m.arms[0].pat.enum_pairs()[0].0, "M");
        assert!(m.arms[2].pat.is_bare_wild());
    }

    #[test]
    fn async_loops_and_ranges() {
        let f = assert_clean(
            "async fn run() { loop { step().await; } for i in 0..10 { use_it(i); } \
             for j in 0.. { if j > 3 { break; } } }",
        );
        let Item::Fn(func) = &f.items[0] else { panic!() };
        assert!(func.is_async);
    }

    #[test]
    fn struct_literals_and_no_struct_contexts() {
        assert_clean("fn f() -> P { if x { return P { a: 1 }; } match y { _ => P { a: 2 } } }");
    }

    #[test]
    fn closures_generics_and_macros() {
        assert_clean(
            "fn g() { let v: Vec<u64> = xs.iter().map(|x: &u64| *x + 1).collect::<Vec<_>>(); \
             assert_eq!(v.len(), 3); let ok = matches!(k, K::A { .. } | K::B(_)); \
             println!(\"{} {:?}\", v[0], v); }",
        );
    }

    #[test]
    fn impl_trait_mod_nesting() {
        let f = assert_clean(
            "mod m { impl<T: Clone> Foo<T> for Bar where T: Send { fn go(&self, x: T) -> T { x } } \
             #[cfg(test)] mod tests { fn t() {} } }",
        );
        let mut fns = Vec::new();
        ast::for_each_fn(&f, &mut |fi, test_only| fns.push((fi.name.clone(), test_only)));
        assert_eq!(fns, vec![("go".to_string(), false), ("t".to_string(), true)]);
    }

    #[test]
    fn async_closures() {
        let f = assert_clean(
            "fn f() { let g = async |m: &mut T, name: &str| { m.go(name).await; }; \
             let h = async move |x: u32| x; let k = async move || 1; }",
        );
        let Item::Fn(func) = &f.items[0] else { panic!("expected fn") };
        let mut arity = Vec::new();
        func.body.as_ref().unwrap().for_each_expr(&mut |e| {
            if let Expr::Closure(c) = e {
                arity.push(c.params.len());
            }
        });
        assert_eq!(arity, vec![2, 1, 0]);
    }

    #[test]
    fn let_else_if_let_while_let() {
        assert_clean(
            "fn f(o: Option<u32>) { let Some(x) = o else { return; }; \
             if let Some(y) = o { use_it(y); } while let Some(z) = it.next() { use_it(z); } }",
        );
    }

    #[test]
    fn compound_assign_and_shifts() {
        assert_clean("fn f() { x += 1; y <<= 2; z = a << b; w = a <= b && c >= d; q &= m; }");
    }

    #[test]
    fn labeled_loops_and_breaks() {
        assert_clean("fn f() { 'outer: loop { while t { break 'outer; } } }");
    }

    #[test]
    fn string_literal_contents_survive() {
        let f = assert_clean("fn f(m: &M) { m.counter_inc(\"sched.iterations\"); }");
        let mut found = false;
        ast::for_each_fn(&f, &mut |fi, _| {
            fi.body.as_ref().unwrap().for_each_expr(&mut |e| {
                if let Expr::MethodCall(mc) = e {
                    assert_eq!(mc.method, "counter_inc");
                    if let Expr::Lit(l) = &mc.args[0] {
                        assert_eq!(l.str_content(), Some("sched.iterations"));
                        found = true;
                    }
                }
            });
        });
        assert!(found);
    }

    #[test]
    fn binding_types_keep_their_text() {
        let f = assert_clean(
            "struct S { pub a: Arc<Mutex<HashMap<u64, u32>>>, #[x] b: u8 }\n\
             enum E { V { m: HashSet<u8> }, W(u8) }\n\
             const C: &[u8] = b\"\";\n\
             fn f(x: &'a mut T, (p, q): (u8, u8)) { let y: Vec<u8> = g(|z: u8| z); }",
        );
        let Item::Other(s) = &f.items[0] else { panic!("struct") };
        let fields: Vec<(&str, &str)> =
            s.fields.iter().map(|fd| (fd.name.as_str(), fd.ty.as_str())).collect();
        assert_eq!(fields, [("a", "Arc < Mutex < HashMap < u64 , u32 > > >"), ("b", "u8")]);
        let Item::Enum(e) = &f.items[1] else { panic!("enum") };
        assert_eq!((e.fields[0].name.as_str(), e.fields[0].ty.as_str()), ("m", "HashSet < u8 >"));
        let Item::Const(c) = &f.items[2] else { panic!("const") };
        assert_eq!(c.ty.as_deref(), Some("& [ u8 ]"));
        let Item::Fn(func) = &f.items[3] else { panic!("fn") };
        let tys: Vec<_> = func.params.iter().map(|p| p.ty.as_deref()).collect();
        assert_eq!(tys, [Some("& 'a mut T"), Some("( u8 , u8 )")]);
        let StmtKind::Let(l) = &func.body.as_ref().unwrap().stmts[0].kind else { panic!("let") };
        assert_eq!(l.ty.as_deref(), Some("Vec < u8 >"));
        let Some(Expr::Call(call)) = &l.init else { panic!("call") };
        let Expr::Closure(cl) = &call.args[0] else { panic!("closure") };
        assert_eq!(cl.params[0].ty.as_deref(), Some("u8"));
    }

    #[test]
    fn block_like_stmt_does_not_continue_into_next_stmt() {
        // `{}` / `}` followed by `[` or `(` on the next statement: the
        // block terminates; the bracket starts a fresh expression.
        let f = assert_clean(
            "fn f() {\n  for i in 0..3 { work(i); }\n  ['A', 'B', 'C'].iter().for_each(|c| go(c));\n  if x { a(); }\n  (1, 2).0;\n}",
        );
        let mut stmts = 0;
        ast::for_each_fn(&f, &mut |fi, _| stmts = fi.body.as_ref().unwrap().stmts.len());
        assert_eq!(stmts, 4);
    }

    #[test]
    fn block_arm_body_does_not_swallow_next_arm() {
        // Braced arm bodies without trailing commas followed by tuple
        // patterns — the shape that appears in real match dispatch.
        let f = assert_clean(
            "fn f(a: bool, b: bool) {\n  match (a, b) {\n    (false, true) => self.unbucket(i),\n    (true, false) => { self.insert(i); }\n    (true, true) => {}\n    (false, false) => {}\n  }\n  match r {\n    (_, Body::Released) => {}\n    (_, Body::Count(_) | Body::Grant { .. }) => { unreachable!(\"no\") }\n  }\n}",
        );
        let mut arms = Vec::new();
        ast::for_each_fn(&f, &mut |fi, _| {
            fi.body.as_ref().unwrap().for_each_expr(&mut |e| {
                if let Expr::Match(m) = e {
                    arms.push(m.arms.len());
                }
            });
        });
        assert_eq!(arms, vec![4, 2]);
    }
}
