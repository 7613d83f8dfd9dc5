//! The protocol-enum index and the control-plane message-flow graph.
//!
//! [`enum_decls`] resolves every configured protocol enum to its AST
//! declaration; `proto-unhandled` / `proto-wildcard` and the flow graph
//! both read it. For every variant of the flow enums (`ReqBody`,
//! `CollBody`, `CtlBody`), the graph pairs up *send sites* — expression-position
//! constructions of `Enum::Variant` — with *handlers* —
//! pattern-position matches. A variant with sends but no handler is an
//! orphan send (a message nothing consumes); a variant with handlers
//! but no construction is a dead handler (protocol surface nothing
//! exercises). The `proto-flow` rule turns those into findings;
//! `darms-lint graph` renders the graph itself (text or DOT).

use std::collections::BTreeMap;

use crate::ast::{self, Expr, Item, Node};
use crate::config::{Config, ProtoEnum};
use crate::FileData;

/// A configured protocol enum resolved to its declaration.
pub struct EnumDecl<'a> {
    pub spec: &'a ProtoEnum,
    /// Line of the `enum` keyword.
    pub line: u32,
    /// Variant names with their declaration lines.
    pub variants: &'a [(String, u32)],
    /// Declared inside `#[cfg(test)]` code.
    pub test_only: bool,
}

/// Resolve `cfg.proto_enums` against the scanned files: the first
/// `enum` of that name in its configured file. Enums whose file or
/// declaration is missing are skipped.
pub fn enum_decls<'a>(cfg: &'a Config, files: &'a [FileData]) -> Vec<EnumDecl<'a>> {
    let mut out = Vec::new();
    for spec in &cfg.proto_enums {
        let Some(file) = files.iter().find(|f| f.rel == spec.file) else { continue };
        let mut found = None;
        ast::for_each_item(&file.ast, &mut |it, test_only| match it {
            Item::Enum(e) if found.is_none() && e.name == spec.name => {
                found = Some(EnumDecl { spec, line: e.line, variants: &e.variants, test_only });
            }
            _ => {}
        });
        out.extend(found);
    }
    out
}

/// One send site or handler site.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    pub file: String,
    pub line: u32,
    /// Enclosing fn name (empty at non-fn positions).
    pub in_fn: String,
    /// Inside `#[cfg(test)]` code or a `tests/` tree.
    pub test_only: bool,
}

/// One flow-enum variant with everything that touches it.
#[derive(Debug, Clone)]
pub struct VariantNode {
    pub enum_name: String,
    pub variant: String,
    pub retriable: bool,
    /// Declaration site of the variant.
    pub decl: Site,
    pub sends: Vec<Site>,
    pub handlers: Vec<Site>,
}

#[derive(Debug, Default)]
pub struct FlowGraph {
    pub nodes: Vec<VariantNode>,
}

impl FlowGraph {
    pub fn node(&self, enum_name: &str, variant: &str) -> Option<&VariantNode> {
        self.nodes.iter().find(|n| n.enum_name == enum_name && n.variant == variant)
    }
}

/// Build the flow graph for the `flow` protocol enums over the scanned
/// files.
pub fn build(cfg: &Config, files: &[FileData]) -> FlowGraph {
    // (enum, variant) → node index. Flow-enum names are unique in this
    // workspace (enforced by config), so a flat name key works.
    let mut index: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut nodes: Vec<VariantNode> = Vec::new();

    for d in enum_decls(cfg, files).iter().filter(|d| d.spec.flow) {
        for (v, line) in d.variants {
            let key = (d.spec.name.clone(), v.clone());
            if index.contains_key(&key) {
                continue;
            }
            index.insert(key, nodes.len());
            nodes.push(VariantNode {
                enum_name: d.spec.name.clone(),
                variant: v.clone(),
                retriable: d.spec.retriable,
                decl: site(&d.spec.file, *line, "", d.test_only),
                sends: Vec::new(),
                handlers: Vec::new(),
            });
        }
    }

    for f in files {
        collect_sites(&f.ast, &f.rel, f.in_tests_tree(), &index, &mut nodes);
    }

    for n in &mut nodes {
        n.sends.sort();
        n.sends.dedup();
        n.handlers.sort();
        n.handlers.dedup();
    }
    FlowGraph { nodes }
}

fn collect_sites(
    file: &ast::SourceFile,
    rel: &str,
    in_tests_tree: bool,
    index: &BTreeMap<(String, String), usize>,
    nodes: &mut [VariantNode],
) {
    ast::for_each_fn(file, &mut |fi, test_only| {
        let Some(body) = &fi.body else { return };
        let mut rec = SiteRecorder {
            rel,
            in_fn: &fi.name,
            test_only: test_only || in_tests_tree,
            index,
            nodes: &mut *nodes,
        };
        // Fn params are pattern positions.
        for p in &fi.params {
            rec.pat(&p.pat);
        }
        body.walk(&mut |n| match n {
            Node::Stmt(ast::Stmt { kind: ast::StmtKind::Let(l), .. }) => rec.pat(&l.pat),
            Node::Expr(e) => rec.expr(e),
            _ => {}
        });
    });
    // Const initializers can construct messages too.
    ast::for_each_item(file, &mut |it, test_only| {
        if let Item::Const(c) = it {
            if let Some(init) = &c.init {
                let test_only = test_only || in_tests_tree;
                let mut rec =
                    SiteRecorder { rel, in_fn: &c.name, test_only, index, nodes: &mut *nodes };
                init.for_each(&mut |e| rec.expr(e));
            }
        }
    });
}

/// Records the sites found inside one fn (or const initialiser).
struct SiteRecorder<'a> {
    rel: &'a str,
    in_fn: &'a str,
    test_only: bool,
    index: &'a BTreeMap<(String, String), usize>,
    nodes: &'a mut [VariantNode],
}

impl SiteRecorder<'_> {
    /// A send site (expression path) or the handler sites of the
    /// patterns an expression introduces (match arms, if-let,
    /// while-let, for, closures, `matches!`).
    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Path(p) => self.send(p.last_pair(), p.line),
            Expr::StructLit(s) => self.send(s.path.last_pair(), s.line),
            Expr::Match(m) => m.arms.iter().for_each(|arm| self.pat(&arm.pat)),
            Expr::If(ast::IfExpr { let_pat: Some(p), .. })
            | Expr::While(ast::WhileExpr { let_pat: Some(p), .. }) => self.pat(p),
            Expr::For(f) => self.pat(&f.pat),
            Expr::Closure(c) => c.params.iter().for_each(|p| self.pat(&p.pat)),
            Expr::Macro(ast::MacroExpr { pat: Some(p), .. }) => self.pat(p),
            _ => {}
        }
    }

    fn send(&mut self, pair: Option<(&str, &str)>, line: u32) {
        let Some((en, v)) = pair else { return };
        if let Some(&i) = self.index.get(&(en.to_string(), v.to_string())) {
            self.nodes[i].sends.push(site(self.rel, line, self.in_fn, self.test_only));
        }
    }

    fn pat(&mut self, p: &ast::Pat) {
        for (en, v, line) in p.enum_pairs() {
            if let Some(&i) = self.index.get(&(en, v)) {
                self.nodes[i].handlers.push(site(self.rel, line, self.in_fn, self.test_only));
            }
        }
    }
}

fn site(rel: &str, line: u32, in_fn: &str, test_only: bool) -> Site {
    Site { file: rel.to_string(), line, in_fn: in_fn.to_string(), test_only }
}

/// Render the graph as GraphViz DOT: one cluster per enum, send fns on
/// the left, handler fns on the right.
pub fn to_dot(g: &FlowGraph) -> String {
    let mut out = String::new();
    out.push_str("digraph control_plane {\n");
    out.push_str("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\", fontsize=10];\n");
    let mut by_enum: BTreeMap<&str, Vec<&VariantNode>> = BTreeMap::new();
    for n in &g.nodes {
        by_enum.entry(n.enum_name.as_str()).or_default().push(n);
    }
    for (ei, (en, nodes)) in by_enum.iter().enumerate() {
        out.push_str(&format!("  subgraph cluster_{ei} {{\n    label=\"{en}\";\n"));
        for n in nodes {
            let id = format!("{}_{}", n.enum_name, n.variant);
            let style = if n.retriable { ", peripheries=2" } else { "" };
            out.push_str(&format!(
                "    \"{id}\" [label=\"{}::{}\\n{} send(s) / {} handler(s)\"{style}];\n",
                n.enum_name,
                n.variant,
                n.sends.len(),
                n.handlers.len()
            ));
        }
        out.push_str("  }\n");
    }
    // Edges: sender fn → variant → handler fn.
    let mut senders: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    let mut handlers: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for n in &g.nodes {
        let key = (n.enum_name.clone(), n.variant.clone());
        for s in &n.sends {
            let f = fn_label(s);
            senders.entry(key.clone()).or_default().push(f);
        }
        for h in &n.handlers {
            let f = fn_label(h);
            handlers.entry(key.clone()).or_default().push(f);
        }
    }
    for (key, mut fns) in senders {
        fns.sort();
        fns.dedup();
        for f in fns {
            out.push_str(&format!(
                "  \"send:{f}\" [shape=ellipse];\n  \"send:{f}\" -> \"{}_{}\";\n",
                key.0, key.1
            ));
        }
    }
    for (key, mut fns) in handlers {
        fns.sort();
        fns.dedup();
        for f in fns {
            out.push_str(&format!(
                "  \"handle:{f}\" [shape=ellipse];\n  \"{}_{}\" -> \"handle:{f}\";\n",
                key.0, key.1
            ));
        }
    }
    out.push_str("}\n");
    out
}

fn fn_label(s: &Site) -> String {
    let file = s.file.rsplit('/').next().unwrap_or(&s.file);
    if s.in_fn.is_empty() {
        file.to_string()
    } else {
        format!("{file}::{}", s.in_fn)
    }
}

/// Plain-text summary, one line per variant, used by `darms-lint graph`
/// without `--dot`.
pub fn to_text(g: &FlowGraph) -> String {
    let mut out = String::new();
    for n in &g.nodes {
        out.push_str(&format!(
            "{}::{:<16} {:>2} send(s) {:>2} handler(s){}\n",
            n.enum_name,
            n.variant,
            n.sends.len(),
            n.handlers.len(),
            if n.retriable { "  [retriable]" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn cfg_with(proto: Vec<ProtoEnum>) -> Config {
        let mut c = Config::workspace(PathBuf::from("."));
        c.proto_enums = proto;
        c
    }

    #[test]
    fn pairs_sends_with_handlers() {
        let decl = "pub enum Msg { Ping, Pong, Lost }\n\
                    fn client(s: &S) { s.send(Msg::Ping); }\n\
                    fn server(m: Msg) { match m { Msg::Ping => {}, Msg::Pong => {}, Msg::Lost => {} } }\n\
                    fn other(s: &S) { s.send(Msg::Pong); }";
        let files = vec![FileData::parse("crates/x/src/lib.rs", decl)];
        let cfg = cfg_with(vec![ProtoEnum {
            file: "crates/x/src/lib.rs".into(),
            name: "Msg".into(),
            exhaustive: false,
            flow: true,
            retriable: false,
        }]);
        let g = build(&cfg, &files);
        assert_eq!(g.nodes.len(), 3);
        let ping = g.node("Msg", "Ping").unwrap();
        assert_eq!(ping.sends.len(), 1);
        assert_eq!(ping.handlers.len(), 1);
        let lost = g.node("Msg", "Lost").unwrap();
        assert!(lost.sends.is_empty(), "Lost is only handled, never sent");
        assert_eq!(lost.handlers.len(), 1);
        let dot = to_dot(&g);
        assert!(dot.contains("Msg_Ping"));
        assert!(dot.contains("send:lib.rs::client"));
    }
}
