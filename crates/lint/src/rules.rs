//! The invariant rules, evaluated over the token stream of one file.
//!
//! | rule | contract it guards |
//! |------|--------------------|
//! | R1   | no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in non-test library code |
//! | R2   | no allocation tokens inside `// lint: hot-loop` fenced regions |
//! | R3   | storage lock order (`storage::lru`): shard mutex before flight mutex, never blocked on a flight while a shard lock is held |
//! | R4   | every `unsafe` block/impl/fn carries a `// SAFETY:` comment |
//! | R5   | `fs::rename` appears only inside `storage::durable` (publish protocol) |
//! | R6   | no untimed condvar `wait` outside `storage::bufferpool` (its timed helper is the one sanctioned waiter) |
//! | R7   | `fsync`/`sync_all`/`sync_data` appear only inside `storage::durable` and `storage::wal` (the durability boundary) |
//! | R8   | raw socket construction (`TcpStream::`/`TcpListener::`/`UdpSocket::`) only inside `cluster::net` (the framed-wire boundary) |
//! | R9   | `available_parallelism` in library code only inside `exec::parallel`: every fan-out width comes from a query's `Parallelism` |
//! | R10  | thread spawns in crates that reach a failpoint wrap their body in `faults::inherit` (the spawner's fault scope) |
//!
//! Escape hatch: `// lint: allow(R1): <justification>` on the same
//! line or above the offending code suppresses that rule there —
//! blank, comment-only, and attribute-only lines (`#[allow(...)]`
//! companions for clippy) between the directive and the code are
//! skipped. Only a non-empty justification counts; a bare `allow` is
//! itself a violation.

use crate::lexer::{lex, Tok, TokKind};

/// One rule violation at a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {:?}: {}", self.path, self.line, self.rule, self.msg)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    R1,
    R2,
    R3,
    R4,
    R5,
    R6,
    R7,
    R8,
    R9,
    R10,
}

impl Rule {
    fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "R1" => Some(Rule::R1),
            "R2" => Some(Rule::R2),
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            "R6" => Some(Rule::R6),
            "R7" => Some(Rule::R7),
            "R8" => Some(Rule::R8),
            "R9" => Some(Rule::R9),
            "R10" => Some(Rule::R10),
            _ => None,
        }
    }
}

/// Which rule families apply to a file, derived from its
/// workspace-relative path by [`FileClass::of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// R1 applies: non-test source of a production library crate.
    pub library_tier: bool,
    /// Path lives under a test-like directory (`tests/`, `benches/`,
    /// `examples/`, `fixtures/`): R1 and R5 do not apply.
    pub test_path: bool,
    /// R3 applies: storage crate source.
    pub storage: bool,
    /// R5 exemption: the one module allowed to call `fs::rename`.
    pub durable_module: bool,
    /// R6 exemption: the module hosting the timed condvar-wait helper
    /// (every other waiter must go through it).
    pub bufferpool_module: bool,
    /// R7 exemption (with `durable_module`): the write-ahead log owns
    /// its own fsync schedule (group commit).
    pub wal_module: bool,
    /// R8 exemption: the one module allowed to construct raw sockets
    /// (everything else speaks the framed `cluster::net::Conn`).
    pub cluster_net_module: bool,
    /// R9 exemption: the one library module allowed to ask the machine
    /// for its core count (`Parallelism::auto`).
    pub parallel_module: bool,
    /// R10 applies: non-test source of a crate that reaches a failpoint.
    pub reaches_failpoints: bool,
}

/// The production library crates R1 protects. Bench/apps/baselines/
/// datasets/testsuite/shims are tooling tiers: their panics abort a
/// developer command, not a serving process.
const LIBRARY_CRATES: &[&str] = &[
    "geom",
    "frame",
    "codec",
    "container",
    "index",
    "core",
    "storage",
    "exec",
    "optimizer",
    "engine",
    "cluster",
];

/// The crates that depend on `lightdb-storage`, directly or not, and so
/// can reach a failpoint: R10 holds their thread spawns to
/// `faults::inherit`.
const FAILPOINT_CRATES: &[&str] = &[
    "storage", "exec", "optimizer", "engine", "cluster", "datasets", "apps", "bench", "testsuite",
];

impl FileClass {
    pub fn of(rel_path: &str) -> FileClass {
        let p = rel_path.replace('\\', "/");
        let test_path = p
            .split('/')
            .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"));
        let in_src_of = |crates: &[&str]| {
            !test_path && crates.iter().any(|c| p.starts_with(&format!("crates/{c}/src/")))
        };
        FileClass {
            library_tier: in_src_of(LIBRARY_CRATES),
            reaches_failpoints: in_src_of(FAILPOINT_CRATES),
            test_path,
            storage: p.starts_with("crates/storage/src/"),
            durable_module: p == "crates/storage/src/durable.rs",
            bufferpool_module: p == "crates/storage/src/bufferpool.rs",
            wal_module: p == "crates/storage/src/wal.rs",
            cluster_net_module: p == "crates/cluster/src/net.rs",
            parallel_module: p == "crates/exec/src/parallel.rs",
        }
    }
}

/// Pre-pass facts shared by the rules: per-line directives and the
/// line ranges covered by `#[cfg(test)]` items.
struct FileCtx<'a> {
    path: &'a str,
    class: FileClass,
    /// (rule, line) pairs suppressed by a justified `lint: allow`.
    allows: Vec<(Rule, u32)>,
    /// Inclusive line ranges of `#[cfg(test)]`-annotated items.
    test_ranges: Vec<(u32, u32)>,
    /// Inclusive line ranges fenced by `lint: hot-loop` markers.
    hot_ranges: Vec<(u32, u32)>,
    /// Lines whose comments contain `SAFETY:`.
    safety_lines: Vec<u32>,
    /// Lines carrying at least one non-comment token.
    code_lines: std::collections::HashSet<u32>,
    /// Code lines that hold only an attribute (`#[...]` / `#![...]`).
    attr_lines: std::collections::HashSet<u32>,
}

impl<'a> FileCtx<'a> {
    fn allowed(&self, rule: Rule, line: u32) -> bool {
        // An allow covers its own line (trailing comment) and the next
        // code line below it; blank, comment-only, and attribute-only
        // lines in between are skipped so a clippy `#[allow(...)]`
        // can sit between the directive and the code it excuses.
        self.allows.iter().any(|&(r, l)| {
            r == rule
                && (l == line
                    || (l < line
                        && (l + 1..line).all(|m| {
                            !self.code_lines.contains(&m) || self.attr_lines.contains(&m)
                        })))
        })
    }

    fn in_test_range(&self, line: u32) -> bool {
        self.test_ranges.iter().any(|&(s, e)| s <= line && line <= e)
    }

    fn in_hot_range(&self, line: u32) -> bool {
        self.hot_ranges.iter().any(|&(s, e)| s <= line && line <= e)
    }

    fn push(&self, out: &mut Vec<Violation>, rule: Rule, line: u32, msg: String) {
        if !self.allowed(rule, line) {
            out.push(Violation { rule, path: self.path.to_string(), line, msg });
        }
    }
}

/// Parsed `lint:` directives: allow directives as `(rule, line)`,
/// fence markers as `(line, is_open)`, plus any malformed-allow
/// violations (missing justification).
type Directives = (Vec<(Rule, u32)>, Vec<(u32, bool)>, Vec<Violation>);

/// Parses a `lint:` directive comment.
fn parse_directives(ctx_path: &str, toks: &[Tok]) -> Directives {
    let mut allows = Vec::new();
    let mut fences = Vec::new(); // (line, is_open)
    let mut bad = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment && t.kind != TokKind::BlockComment {
            continue;
        }
        let body = t.text.trim_start_matches('/').trim_start_matches('*').trim();
        let Some(rest) = body.strip_prefix("lint:") else { continue };
        let rest = rest.trim();
        if rest.starts_with("hot-loop") {
            fences.push((t.line, true));
        } else if rest.starts_with("end-hot-loop") {
            fences.push((t.line, false));
        } else if let Some(spec) = rest.strip_prefix("allow(") {
            let Some(close) = spec.find(')') else {
                bad.push(Violation {
                    rule: Rule::R1,
                    path: ctx_path.to_string(),
                    line: t.line,
                    msg: "malformed `lint: allow(...)` — missing `)`".into(),
                });
                continue;
            };
            let rules: Vec<Option<Rule>> =
                spec[..close].split(',').map(Rule::parse).collect();
            let justification = spec[close + 1..]
                .trim_start_matches([':', '-', '—', ' '])
                .trim();
            if justification.is_empty() {
                bad.push(Violation {
                    rule: rules.first().copied().flatten().unwrap_or(Rule::R1),
                    path: ctx_path.to_string(),
                    line: t.line,
                    msg: "`lint: allow` requires a justification: `// lint: allow(R1): <why>`"
                        .into(),
                });
                continue;
            }
            for r in rules.into_iter().flatten() {
                allows.push((r, t.line));
            }
        }
    }
    (allows, fences, bad)
}

/// `end-hot-loop` fences close `hot-loop` fences; an unclosed or
/// unopened fence is a violation (a silent no-op fence would quietly
/// stop guarding the kernel).
fn fence_ranges(
    path: &str,
    fences: &[(u32, bool)],
    last_line: u32,
    out: &mut Vec<Violation>,
) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut open: Option<u32> = None;
    for &(line, is_open) in fences {
        match (is_open, open) {
            (true, None) => open = Some(line),
            (true, Some(prev)) => {
                out.push(Violation {
                    rule: Rule::R2,
                    path: path.to_string(),
                    line,
                    msg: format!("nested `lint: hot-loop` fence (previous opened at line {prev})"),
                });
            }
            (false, Some(s)) => {
                ranges.push((s, line));
                open = None;
            }
            (false, None) => {
                out.push(Violation {
                    rule: Rule::R2,
                    path: path.to_string(),
                    line,
                    msg: "`lint: end-hot-loop` without an open fence".into(),
                });
            }
        }
    }
    if let Some(s) = open {
        out.push(Violation {
            rule: Rule::R2,
            path: path.to_string(),
            line: s,
            msg: "`lint: hot-loop` fence never closed".into(),
        });
        ranges.push((s, last_line));
    }
    ranges
}

/// Finds line ranges of items annotated `#[cfg(test)]` (or any `cfg`
/// attribute mentioning `test`, e.g. `#[cfg(any(test, fuzzing))]`).
fn cfg_test_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        // Match `#[cfg(...)]` or `#[cfg_attr(test, ...)]` whose
        // parenthesised content mentions `test`.
        if code[i].is_punct('#') && i + 1 < code.len() && code[i + 1].is_punct('[') {
            // Scan the attribute to its closing `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut is_cfg = false;
            let mut mentions_test = false;
            if j < code.len() && (code[j].is_ident("cfg") || code[j].is_ident("cfg_attr")) {
                is_cfg = true;
            }
            while j < code.len() && depth > 0 {
                if code[j].is_punct('[') {
                    depth += 1;
                } else if code[j].is_punct(']') {
                    depth -= 1;
                } else if code[j].is_ident("test") {
                    mentions_test = true;
                }
                j += 1;
            }
            if is_cfg && mentions_test {
                // The annotated item: skip any further attributes,
                // then extend to the first `;` at depth 0 or the
                // matching brace of the first `{`.
                let start_line = code[i].line;
                let mut k = j;
                while k + 1 < code.len() && code[k].is_punct('#') && code[k + 1].is_punct('[') {
                    let mut d = 1usize;
                    k += 2;
                    while k < code.len() && d > 0 {
                        if code[k].is_punct('[') {
                            d += 1;
                        } else if code[k].is_punct(']') {
                            d -= 1;
                        }
                        k += 1;
                    }
                }
                let mut brace = 0isize;
                let mut end_line = code.get(k).map(|t| t.line).unwrap_or(start_line);
                while k < code.len() {
                    let t = code[k];
                    if t.is_punct('{') {
                        brace += 1;
                    } else if t.is_punct('}') {
                        brace -= 1;
                        if brace == 0 {
                            end_line = t.line;
                            k += 1;
                            break;
                        }
                    } else if t.is_punct(';') && brace == 0 {
                        end_line = t.line;
                        k += 1;
                        break;
                    }
                    end_line = t.line;
                    k += 1;
                }
                ranges.push((start_line, end_line));
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    ranges
}

/// Runs every applicable rule over one file. `rel_path` must be
/// workspace-relative with forward slashes.
pub fn check_file(rel_path: &str, src: &str) -> Vec<Violation> {
    let toks = lex(src);
    check_tokens(rel_path, &toks)
}

fn check_tokens(rel_path: &str, toks: &[Tok]) -> Vec<Violation> {
    let mut out = Vec::new();
    let class = FileClass::of(rel_path);
    let (allows, fences, mut bad_allows) = parse_directives(rel_path, toks);
    out.append(&mut bad_allows);
    let last_line = toks.last().map(|t| t.line).unwrap_or(1);
    let hot_ranges = fence_ranges(rel_path, &fences, last_line, &mut out);
    let safety_lines = toks
        .iter()
        .filter(|t| {
            matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                && t.text.contains("SAFETY:")
        })
        .map(|t| t.line)
        .collect();
    let mut code_lines = std::collections::HashSet::new();
    let mut first_tok_on_line = std::collections::HashMap::new();
    let mut last_tok_on_line = std::collections::HashMap::new();
    for t in toks {
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
            continue;
        }
        code_lines.insert(t.line);
        first_tok_on_line.entry(t.line).or_insert_with(|| t.text.clone());
        last_tok_on_line.insert(t.line, t.text.clone());
    }
    let attr_lines = code_lines
        .iter()
        .copied()
        .filter(|l| {
            first_tok_on_line.get(l).map(String::as_str) == Some("#")
                && last_tok_on_line.get(l).map(String::as_str) == Some("]")
        })
        .collect();
    let ctx = FileCtx {
        path: rel_path,
        class,
        allows,
        test_ranges: cfg_test_ranges(toks),
        hot_ranges,
        safety_lines,
        code_lines,
        attr_lines,
    };
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    rule_r1(&ctx, &code, &mut out);
    rule_r2(&ctx, &code, &mut out);
    if ctx.class.storage {
        rule_r3(&ctx, &code, &mut out);
    }
    rule_r4(&ctx, &code, &mut out);
    rule_r5(&ctx, &code, &mut out);
    rule_r6(&ctx, &code, &mut out);
    rule_r7(&ctx, &code, &mut out);
    rule_r8(&ctx, &code, &mut out);
    rule_r9(&ctx, &code, &mut out);
    rule_r10(&ctx, &code, &mut out);
    out.sort_by_key(|v| v.line);
    out
}

/// R1: panic-family tokens in non-test library code.
fn rule_r1(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    if !ctx.class.library_tier {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if ctx.in_test_range(t.line) {
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is = |c: char| code.get(i + 1).is_some_and(|n| n.is_punct(c));
        let prev_is_dot = i > 0 && code[i - 1].is_punct('.');
        match t.text.as_str() {
            "unwrap" | "expect" if prev_is_dot && next_is('(') => {
                ctx.push(
                    out,
                    Rule::R1,
                    t.line,
                    format!(
                        ".{}() in non-test library code — propagate the error or \
                         use `// lint: allow(R1): <why infallible>`",
                        t.text
                    ),
                );
            }
            "panic" | "todo" | "unimplemented" if next_is('!') => {
                ctx.push(
                    out,
                    Rule::R1,
                    t.line,
                    format!("{}! in non-test library code", t.text),
                );
            }
            _ => {}
        }
    }
}

/// R2: allocation tokens inside `hot-loop` fences.
fn rule_r2(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    if ctx.hot_ranges.is_empty() {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || !ctx.in_hot_range(t.line) {
            continue;
        }
        let next_is = |c: char| code.get(i + 1).is_some_and(|n| n.is_punct(c));
        let path_to = |target: &str| {
            code.get(i + 1).is_some_and(|a| a.is_punct(':'))
                && code.get(i + 2).is_some_and(|a| a.is_punct(':'))
                && code.get(i + 3).is_some_and(|a| a.is_ident(target))
        };
        let prev_is_dot = i > 0 && code[i - 1].is_punct('.');
        let hit = match t.text.as_str() {
            "vec" | "format" if next_is('!') => Some(format!("{}! allocates", t.text)),
            "Vec" | "Box" if path_to("new") => Some(format!("{}::new allocates", t.text)),
            "String" if path_to("from") => Some("String::from allocates".into()),
            "to_vec" | "collect" | "to_string" | "to_owned" if prev_is_dot => {
                Some(format!(".{}() allocates", t.text))
            }
            _ => None,
        };
        if let Some(msg) = hit {
            ctx.push(
                out,
                Rule::R2,
                t.line,
                format!("{msg} inside a `lint: hot-loop` fence — use the scratch arena"),
            );
        }
    }
}

/// A live lock guard being tracked by R3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockClass {
    /// An LRU shard mutex (receiver mentions `shard`).
    Shard,
    /// A flight rendezvous mutex (receiver mentions `done`).
    Flight,
}

/// Dotted receiver text of a method call whose name is the token at
/// index `i`: walks back over `ident . ident .` pairs, so
/// `flight.cv.wait(...)` yields `"flight.cv"`.
fn receiver_of(code: &[&Tok], i: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut j = i; // points at the method name; step back over `.`
    while j >= 2 && code[j - 1].is_punct('.') {
        j -= 2;
        match code[j].kind {
            TokKind::Ident => parts.push(&code[j].text),
            _ => break,
        }
    }
    parts.reverse();
    parts.join(".")
}

/// R3: in `storage`, never block on a flight (`wait_done`, or a `wait`
/// on a flight's condvar) while an LRU shard lock is held, and never
/// take a shard lock from inside a flight's `done` section.
/// (`Flight::finish` under the shard lock is fine — that is the
/// sanctioned shard→flight order.)
fn rule_r3(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    // Guard: (class, bound name or None for a temporary,
    //         brace depth at acquisition)
    struct Guard {
        class: LockClass,
        name: Option<String>,
        depth: i32,
        temporary: bool,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i32 = 0;

    let receiver = |i: usize| -> String { receiver_of(code, i) };
    // Start-of-statement `let` binding name, scanning back from the
    // method call to the previous `;`/`{`/`}`.
    let let_binding = |i: usize| -> Option<String> {
        let mut j = i;
        while j > 0 {
            let t = code[j - 1];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            j -= 1;
        }
        if code.get(j).is_some_and(|t| t.is_ident("let")) {
            let mut k = j + 1;
            while code.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            code.get(k).and_then(|t| {
                (t.kind == TokKind::Ident).then(|| t.text.clone())
            })
        } else {
            None
        }
    };

    for (i, t) in code.iter().enumerate() {
        if t.is_punct('{') {
            depth += 1;
            continue;
        }
        if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
            continue;
        }
        if t.is_punct(';') {
            guards.retain(|g| !(g.temporary && g.depth == depth));
            continue;
        }
        // `drop(name)` releases a tracked guard.
        if t.is_ident("drop")
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            && code.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if let Some(name) = code.get(i + 2) {
                guards.retain(|g| g.name.as_deref() != Some(name.text.as_str()));
            }
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_call = code.get(i + 1).is_some_and(|n| n.is_punct('('));
        if !is_call {
            continue;
        }
        let recv = receiver(i);
        match t.text.as_str() {
            "lock" => {
                let class = if recv.contains("shard") {
                    Some(LockClass::Shard)
                } else if recv.contains("done") {
                    Some(LockClass::Flight)
                } else {
                    None
                };
                if let Some(class) = class {
                    if class == LockClass::Shard
                        && guards.iter().any(|g| g.class == LockClass::Flight)
                    {
                        ctx.push(
                            out,
                            Rule::R3,
                            t.line,
                            format!(
                                "shard lock (`{recv}.lock()`) acquired while a flight \
                                 mutex is held — lock order is shard before flight"
                            ),
                        );
                    }
                    let name = let_binding(i);
                    let temporary = name.is_none();
                    guards.push(Guard { class, name, depth, temporary });
                }
            }
            "wait_done" | "wait" | "wait_timeout"
                if t.text == "wait_done" || recv.contains("flight") || recv.contains("cv") =>
            {
                if let Some(g) = guards.iter().find(|g| g.class == LockClass::Shard) {
                    ctx.push(
                        out,
                        Rule::R3,
                        t.line,
                        format!(
                            "blocking `{recv}.{}()` while shard guard `{}` is live — \
                             drop the shard lock before waiting on a flight",
                            t.text,
                            g.name.as_deref().unwrap_or("<temporary>")
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

/// R4: `unsafe` blocks/fns/impls need a `// SAFETY:` comment on the
/// same line or one of the three lines above.
fn rule_r4(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        // Only flag sites that introduce an unsafe obligation:
        // `unsafe {`, `unsafe fn`, `unsafe impl`, `unsafe trait`.
        let introduces = code.get(i + 1).is_some_and(|n| {
            n.is_punct('{') || n.is_ident("fn") || n.is_ident("impl") || n.is_ident("trait")
        });
        if !introduces {
            continue;
        }
        let documented = ctx
            .safety_lines
            .iter()
            .any(|&l| l <= t.line && t.line.saturating_sub(l) <= 3);
        if !documented {
            ctx.push(
                out,
                Rule::R4,
                t.line,
                "`unsafe` without a `// SAFETY:` comment (same line or \
                 the three lines above)"
                    .into(),
            );
        }
    }
}

/// R5: a `rename(` call outside `storage::durable` bypasses the
/// crash-consistent publish protocol (tmp → fsync → rename →
/// dir-fsync).
fn rule_r5(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    if ctx.class.durable_module || ctx.class.test_path {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("rename") || !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Declarations (`fn rename(`) are not calls.
        if i > 0 && code[i - 1].is_ident("fn") {
            continue;
        }
        if ctx.in_test_range(t.line) {
            continue;
        }
        ctx.push(
            out,
            Rule::R5,
            t.line,
            "rename() outside storage::durable — durable files must be \
             published via durable::publish (tmp → fsync → rename → dir-fsync)"
                .into(),
        );
    }
}

/// R6: an untimed condvar `wait(` call outside `storage::bufferpool`.
/// Cancelled queries are only guaranteed to stop because every
/// rendezvous wait is timed (`wait_timeout` + abort poll); a plain
/// `wait` can park a thread forever on a notification that will never
/// come. `storage::bufferpool` hosts the one sanctioned timed-wait
/// helper; everything else must go through it. `wait_timeout` /
/// `wait_while` are distinct idents and never match.
fn rule_r6(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    if ctx.class.bufferpool_module || ctx.class.test_path {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("wait") || !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if i > 0 && code[i - 1].is_ident("fn") {
            continue; // declaration, not a call
        }
        if ctx.in_test_range(t.line) {
            continue;
        }
        let recv = receiver_of(code, i);
        let lower = recv.to_ascii_lowercase();
        if !(lower.contains("cv") || lower.contains("condvar")) {
            continue;
        }
        ctx.push(
            out,
            Rule::R6,
            t.line,
            format!(
                "untimed `{recv}.wait()` outside storage::bufferpool — use the \
                 timed wait helper (wait_timeout + abort poll) so cancelled \
                 queries never park forever"
            ),
        );
    }
}

/// R7: an `fsync`/`sync_all`/`sync_data` call outside
/// `storage::durable` and `storage::wal`. Those two modules *are* the
/// durability boundary — durable publishes its files via the
/// tmp/fsync/rename protocol and the WAL group-commits its log
/// records. A stray sync elsewhere either duplicates work the
/// boundary already does or, worse, acknowledges data the protocols
/// don't cover (an unsynced parent directory, a poisoned log).
fn rule_r7(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    if ctx.class.durable_module || ctx.class.wal_module || ctx.class.test_path {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        let is_sync =
            t.is_ident("fsync") || t.is_ident("sync_all") || t.is_ident("sync_data");
        if !is_sync || !code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Declarations (`fn sync_all(`) are not calls.
        if i > 0 && code[i - 1].is_ident("fn") {
            continue;
        }
        if ctx.in_test_range(t.line) {
            continue;
        }
        ctx.push(
            out,
            Rule::R7,
            t.line,
            format!(
                "{}() outside storage::durable / storage::wal — file \
                 durability goes through the publish protocol or the WAL \
                 group commit, never ad-hoc syncs",
                t.text
            ),
        );
    }
}

/// R8: raw socket construction outside `cluster::net`. The wire
/// protocol's framing, CRC checks, timeouts, and fault injection all
/// live on [`cluster::net::Conn`]; a bare `TcpStream::connect` (or
/// `TcpListener::bind` / `UdpSocket::bind`) anywhere else would move
/// bytes that the corruption and chaos harnesses cannot see. The
/// pattern is the type ident followed by `::` — path-qualified
/// associated calls are the only way these types are constructed.
fn rule_r8(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    if ctx.class.cluster_net_module || ctx.class.test_path {
        return;
    }
    for (i, t) in code.iter().enumerate() {
        let is_socket_type =
            t.is_ident("TcpStream") || t.is_ident("TcpListener") || t.is_ident("UdpSocket");
        // `Type::` — the lexer splits `::` into two `:` puncts.
        if !is_socket_type
            || !code.get(i + 1).is_some_and(|n| n.is_punct(':'))
            || !code.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            continue;
        }
        if ctx.in_test_range(t.line) {
            continue;
        }
        ctx.push(
            out,
            Rule::R8,
            t.line,
            format!(
                "{}:: outside cluster::net — raw sockets bypass the framed \
                 wire protocol (CRC, timeouts, fault injection); speak \
                 cluster::net::Conn instead",
                t.text
            ),
        );
    }
}

/// R9: `available_parallelism` in library code outside
/// `exec::parallel`. A query's `Parallelism` is the one source of how
/// many threads a fan-out may use: a `SERIAL` session spawns nothing,
/// and nested work inherits what its batch leaves it. A width read
/// from the machine anywhere else (as the simulated GPU's tiled decode
/// once did) ignores both.
fn rule_r9(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    if !ctx.class.library_tier || ctx.class.parallel_module {
        return;
    }
    for t in code {
        if !t.is_ident("available_parallelism") || ctx.in_test_range(t.line) {
            continue;
        }
        ctx.push(
            out,
            Rule::R9,
            t.line,
            "available_parallelism outside exec::parallel — fan-out widths \
             come from the query's Parallelism, never from the machine"
                .to_string(),
        );
    }
}

/// R10: a thread spawn in non-test source of a crate that reaches a
/// failpoint, whose body is not `faults::inherit(..)`: a thread started
/// bare gets a fault scope of its own, so faults armed for the query,
/// worker or server that started it would miss it. `Command::spawn()`
/// takes no body and `worker::spawn(dir)` starts no thread directly.
fn rule_r10(ctx: &FileCtx, code: &[&Tok], out: &mut Vec<Violation>) {
    if !ctx.class.reaches_failpoints {
        return;
    }
    let is = |j: usize, c: char| code.get(j).is_some_and(|n| n.is_punct(c));
    for (i, t) in code.iter().enumerate() {
        let method = i > 0 && is(i - 1, '.');
        let thread_fn = i >= 3 && code[i - 3].is_ident("thread") && is(i - 1, ':');
        let call_with_body = is(i + 1, '(') && !is(i + 2, ')');
        if !t.is_ident("spawn") || !(method || thread_fn) || !call_with_body {
            continue;
        }
        // The body must be a call to `inherit`, under any path.
        let mut j = i + 2;
        while code.get(j).is_some_and(|n| n.kind == TokKind::Ident || n.is_punct(':')) {
            j += 1;
        }
        let wrapped = code[j - 1].is_ident("inherit") && is(j, '(');
        if !wrapped && !ctx.in_test_range(t.line) {
            let msg = "thread spawned without `faults::inherit`: it misses its spawner's scope";
            ctx.push(out, Rule::R10, t.line, msg.into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_file(path, src)
    }

    const LIB: &str = "crates/codec/src/x.rs";

    #[test]
    fn r1_fires_on_unwrap_and_macros() {
        let v = check(LIB, "fn f() { x.unwrap(); }\nfn g() { panic!(\"no\"); }");
        assert_eq!(v.len(), 2);
        assert_eq!((v[0].rule, v[0].line), (Rule::R1, 1));
        assert_eq!((v[1].rule, v[1].line), (Rule::R1, 2));
    }

    #[test]
    fn r1_ignores_unwrap_or_and_test_code() {
        let v = check(
            LIB,
            "fn f() { x.unwrap_or(0); }\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_skips_non_library_tiers() {
        assert!(check("crates/bench/src/x.rs", "fn f() { x.unwrap(); }").is_empty());
        assert!(check("crates/codec/tests/x.rs", "fn f() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn r1_allow_with_justification_suppresses() {
        let v = check(LIB, "// lint: allow(R1): index is bounds-checked above\nfn f() { x.unwrap(); }");
        assert!(v.is_empty(), "{v:?}");
        let v = check(LIB, "fn f() { x.unwrap(); } // lint: allow(R1): infallible by construction");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r1_allow_skips_attribute_and_blank_lines() {
        // A clippy companion attribute between the directive and the
        // code must not break the coverage.
        let v = check(
            LIB,
            "fn f() {\n// lint: allow(R1): checked above\n#[allow(clippy::unwrap_used)]\nlet x = y.unwrap();\n}",
        );
        assert!(v.is_empty(), "{v:?}");
        // Blank and comment-only lines are skipped too.
        let v = check(
            LIB,
            "fn f() {\n// lint: allow(R1): checked above\n\n// and a remark\nlet x = y.unwrap();\n}",
        );
        assert!(v.is_empty(), "{v:?}");
        // But a real code line in between ends the coverage.
        let v = check(
            LIB,
            "fn f() {\n// lint: allow(R1): checked above\nlet a = 1;\nlet x = y.unwrap();\n}",
        );
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), (Rule::R1, 4));
    }

    #[test]
    fn r1_allow_without_justification_is_a_violation() {
        let v = check(LIB, "// lint: allow(R1)\nfn f() { x.unwrap(); }");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.msg.contains("justification")));
    }

    #[test]
    fn r2_flags_alloc_in_fence_only() {
        let src = "fn f() { let a = Vec::new();\n// lint: hot-loop\nlet b = vec![0; 8];\nlet c: Vec<u8> = it.collect();\n// lint: end-hot-loop\nlet d = Vec::new(); }";
        let v = check(LIB, src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert_eq!(v[0].line, 3);
        assert_eq!(v[1].line, 4);
        assert!(v.iter().all(|v| v.rule == Rule::R2));
    }

    #[test]
    fn r2_unclosed_fence_is_reported() {
        let v = check(LIB, "// lint: hot-loop\nfn f() {}");
        assert!(v.iter().any(|v| v.rule == Rule::R2 && v.msg.contains("never closed")));
    }

    #[test]
    fn r3_wait_under_shard_lock_fires() {
        let src = "fn f(&self) { let mut s = shard.lock(); theirs.wait_done(WAIT_POLL); }";
        let v = check("crates/storage/src/lru.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::R3);
    }

    #[test]
    fn r3_wait_after_drop_is_clean() {
        let src = "fn f(&self) { let mut s = shard.lock(); drop(s); theirs.wait_done(WAIT_POLL); }";
        assert!(check("crates/storage/src/lru.rs", src).is_empty());
    }

    #[test]
    fn r3_scope_exit_releases_guard() {
        let src = "fn f(&self) { { let s = shard.lock(); } theirs.wait_done(WAIT_POLL); }";
        assert!(check("crates/storage/src/lru.rs", src).is_empty());
    }

    #[test]
    fn r3_shard_lock_inside_flight_section_fires() {
        let src = "fn finish(&self) { let d = self.done.lock(); let s = self.shard.lock(); }";
        let v = check("crates/storage/src/lru.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("shard lock"));
    }

    #[test]
    fn r3_temporary_guard_dies_at_statement_end() {
        let src = "fn f(&self) { shard.lock().stats;\n theirs.wait_done(WAIT_POLL); }";
        assert!(check("crates/storage/src/lru.rs", src).is_empty());
    }

    #[test]
    fn r3_finish_under_the_shard_lock_is_the_sanctioned_order() {
        let src = "fn retire(&self) { let mut s = self.shard.lock(); self.flight.finish(); }";
        assert!(check("crates/storage/src/lru.rs", src).is_empty());
    }

    #[test]
    fn r4_unsafe_without_safety_comment() {
        let v = check(LIB, "fn f() { unsafe { do_it() } }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R4);
    }

    #[test]
    fn r4_safety_comment_satisfies() {
        let src = "fn f() {\n// SAFETY: ptr is valid for reads\nunsafe { do_it() } }";
        assert!(check(LIB, src).is_empty());
        // Applies in test paths too.
        let v = check("crates/codec/tests/t.rs", "fn f() { unsafe { x() } }");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn r5_rename_outside_durable_fires() {
        let v = check("crates/storage/src/media.rs", "fn f() { fs::rename(a, b); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::R5);
        assert!(check("crates/storage/src/durable.rs", "fn f() { fs::rename(a, b); }").is_empty());
    }

    #[test]
    fn r5_ignores_declarations_and_tests() {
        assert!(check(LIB, "fn rename(a: A) {}").is_empty());
        let v = check(LIB, "#[cfg(test)]\nmod tests { fn t() { fs::rename(a, b); } }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r6_untimed_condvar_wait_fires_outside_bufferpool() {
        let src = "fn f(&self) { let g = self.cv.wait(guard); }";
        let v = check("crates/exec/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::R6);
        // The sanctioned module and test paths are exempt.
        assert!(check("crates/storage/src/bufferpool.rs", src).is_empty());
        assert!(check("crates/exec/tests/x.rs", src).is_empty());
    }

    #[test]
    fn r6_ignores_timed_waits_and_non_condvar_receivers() {
        let v = check(
            "crates/exec/src/x.rs",
            "fn f(&self) { let (g, _) = self.cv.wait_timeout(g, d); barrier.wait(); }",
        );
        assert!(v.is_empty(), "{v:?}");
        assert!(check("crates/exec/src/x.rs", "fn wait(x: u8) {}").is_empty());
    }

    #[test]
    fn tokens_in_strings_do_not_fire() {
        let v = check(LIB, r#"fn f() { let s = ".unwrap() panic! rename("; }"#);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r8_socket_construction_fires_outside_cluster_net() {
        let src = "fn f() { let s = TcpStream::connect(a); let l = TcpListener::bind(b); }";
        let v = check("crates/exec/src/x.rs", src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::R8), "{v:?}");
        // The framed-wire module and test tiers are exempt.
        assert!(check("crates/cluster/src/net.rs", src).is_empty());
        assert!(check("crates/cluster/tests/x.rs", src).is_empty());
    }

    #[test]
    fn r8_ignores_bare_type_mentions() {
        // A type position (no `::` path) is not a construction.
        let v = check(LIB, "struct S { inner: TcpStream }\nfn f(s: &TcpStream) {}");
        assert!(v.is_empty(), "{v:?}");
    }
}
