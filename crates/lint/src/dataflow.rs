//! Intraprocedural dataflow: def-use chains over local bindings with a
//! small taint lattice, walked per function over the token range the
//! parser recorded in [`crate::parser::FnItem::body`].
//!
//! Two taint facts propagate through `let` bindings in program order:
//!
//! * **raw time** (D011) — a value rooted at a top-level integer literal
//!   or a `std::time::Duration`, neither of which carries the virtual
//!   clock's unit. Sinks are the `sched` deadline APIs (`schedule`,
//!   `schedule_at`, `schedule_after`); the `SimInstant`/`SimDuration`
//!   constructors are sanitizers — their presence anywhere in an
//!   initializer or argument shields the span.
//! * **per-machine RNG** (D010) — a value drawn from an RNG stream
//!   (`.gen()`, `.sample()`, ...). Sinks are shared `DataPlane` writes
//!   (`plane_mut`): per-machine randomness leaking into shared state
//!   couples shard outputs to machine interleaving.
//!
//! The lattice is deliberately two-point per fact (`Clean` < `Raw`):
//! joins happen implicitly — a binding is tainted if any
//! program-order initializer taints it, and shadowing re-binds. Taint
//! only propagates at expression depth zero: a tainted name passed
//! *into* a call is laundered (the callee may well construct the proper
//! type), which keeps the rule's false-positive rate near zero at the
//! cost of missing identity wrappers.
//!
//! Findings attach to [`crate::parser::FnItem::flows`]; the graph layer
//! reports them only for functions reachable from the `[dataflow]`
//! entry sets, each carrying a human-readable step chain.

use std::collections::HashMap;

use crate::lexer::Tok;
use crate::parser::ParsedFile;

/// What a flow finding proves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// A per-machine RNG value reaches a shared `DataPlane` write (D010).
    RngLeak,
    /// A raw integer literal or `std::time::Duration` reaches a `sched`
    /// deadline API without passing a `Sim*` constructor (D011).
    RawTime,
}

impl FlowKind {
    /// The rule this flow surfaces under.
    pub fn rule(self) -> &'static str {
        match self {
            FlowKind::RngLeak => "D010",
            FlowKind::RawTime => "D011",
        }
    }

    /// Stable machine key for JSON output.
    pub fn key(self) -> &'static str {
        match self {
            FlowKind::RngLeak => "rng_leak",
            FlowKind::RawTime => "raw_time",
        }
    }
}

/// One dataflow finding inside a function body.
#[derive(Debug, Clone)]
pub struct Flow {
    /// 1-based source line of the sink (or problematic exit).
    pub line: u32,
    /// Which invariant the flow violates.
    pub kind: FlowKind,
    /// One-line description of the violation.
    pub what: String,
    /// Human-readable def-use steps from source to sink, in order.
    pub steps: Vec<String>,
}

/// `sched` deadline APIs whose first argument must be virtual-clock
/// typed (D011 sinks).
const TIME_SINKS: &[&str] = &["schedule", "schedule_at", "schedule_after"];

/// Virtual-clock constructors/types: their presence anywhere in a span
/// sanitizes it — the value demonstrably went through the typed API.
const SANITIZERS: &[&str] = &["SimDuration", "SimInstant", "SimTime"];

/// RNG draw methods: a binding initialized through one carries
/// per-machine randomness (D010 leak source).
const RNG_METHODS: &[&str] = &[
    "gen",
    "gen_range",
    "gen_bool",
    "sample",
    "next_u32",
    "next_u64",
];

/// Run the dataflow pass over every parsed function, attaching findings
/// to [`crate::parser::FnItem::flows`]. `toks` must be the same token
/// stream `parsed` was built from; nested fn bodies (closures-turned-fns,
/// inner test helpers) are excluded from the enclosing fn's walk.
pub fn analyze(toks: &[Tok], parsed: &mut ParsedFile) {
    let ranges: Vec<(usize, usize)> = parsed.fns.iter().map(|f| f.body).collect();
    for (idx, item) in parsed.fns.iter_mut().enumerate() {
        let (start, end) = item.body;
        if start >= end || end > toks.len() {
            continue;
        }
        // Visible tokens: the body range minus any *other* fn's body
        // strictly nested inside it.
        let mut view = Vec::with_capacity(end - start);
        let mut k = start;
        'tokens: while k < end {
            for (j, &(s2, e2)) in ranges.iter().enumerate() {
                if j != idx
                    && (s2, e2) != (start, end)
                    && s2 >= start
                    && e2 <= end
                    && k >= s2
                    && k < e2
                {
                    k = e2;
                    continue 'tokens;
                }
            }
            view.push(k);
            k += 1;
        }
        let scan = FnScan { toks, view: &view };
        let mut flows = scan.run();
        flows.sort_by_key(|f| f.line);
        item.flows = flows;
    }
}

/// Per-binding taint state. Both facts are tracked independently; a
/// re-`let` of the same name replaces the whole entry (shadowing).
#[derive(Debug, Clone, Default)]
struct Binding {
    /// Raw-time taint: (root description, def-use steps so far).
    time: Option<(String, Vec<String>)>,
    /// Per-machine RNG taint: def-use steps so far.
    rng: Option<Vec<String>>,
}

/// Raw-time taint verdict for one expression span.
enum Taint {
    Clean,
    /// `desc` names the taint root ("integer literal"); `src` names the
    /// immediate carrier at this span ("`delay_ms`" or the root itself).
    Raw {
        desc: String,
        src: String,
        steps: Vec<String>,
    },
}

struct FnScan<'a> {
    toks: &'a [Tok],
    /// Absolute token indices visible to this function, in order.
    view: &'a [usize],
}

impl<'a> FnScan<'a> {
    fn tok(&self, vi: usize) -> &Tok {
        &self.toks[self.view[vi]]
    }

    fn ident_at(&self, vi: usize) -> Option<&str> {
        self.view
            .get(vi)
            .map(|&t| &self.toks[t])
            .and_then(Tok::ident)
    }

    fn punct_at(&self, vi: usize, c: char) -> bool {
        self.view.get(vi).is_some_and(|&t| self.toks[t].is_punct(c))
    }

    /// Does a call start right after the name at `vi` (`(` or `::<`)?
    fn called_at(&self, vi: usize) -> bool {
        self.punct_at(vi + 1, '(') || (self.punct_at(vi + 1, ':') && self.punct_at(vi + 2, ':'))
    }

    fn run(&self) -> Vec<Flow> {
        let mut flows = Vec::new();
        let bindings = self.bindings();
        self.time_sinks(&bindings, &mut flows);
        self.rng_leaks(&bindings, &mut flows);
        flows
    }

    // ---- binding environment -------------------------------------------

    /// One forward pass building the def-use environment: only simple
    /// `let [mut] name [: ty] = init;` statements bind (patterns are
    /// skipped), later bindings shadow earlier ones.
    fn bindings(&self) -> HashMap<String, Binding> {
        let mut map: HashMap<String, Binding> = HashMap::new();
        let mut i = 0;
        while i < self.view.len() {
            if self.ident_at(i) != Some("let") {
                i += 1;
                continue;
            }
            let mut j = i + 1;
            if self.ident_at(j) == Some("mut") {
                j += 1;
            }
            let Some(name) = self.ident_at(j) else {
                i += 1;
                continue;
            };
            // Simple-ident patterns only: the name must be followed by
            // `:` (type), `=` (init) — `Some(x)`, tuples and struct
            // patterns are not bindings we track.
            let name = name.to_string();
            let line = self.tok(j).line;
            let Some(eq) = self.find_init_eq(j + 1) else {
                i = j + 1;
                continue;
            };
            let semi = self.find_semi(eq + 1);
            let span = (eq + 1, semi);
            let time = match self.taint_of(span, &map) {
                Taint::Clean => None,
                Taint::Raw {
                    desc, mut steps, ..
                } => {
                    steps.push(format!("`{name}` bound from {desc} (line {line})"));
                    Some((desc, steps))
                }
            };
            let rng = self.rng_source(span, &map).map(|mut steps| {
                steps.push(format!(
                    "`{name}` derived from the per-machine RNG (line {line})"
                ));
                steps
            });
            map.insert(name, Binding { time, rng });
            i = semi + 1;
        }
        map
    }

    /// From just after the bound name: the view index of the
    /// initializer's `=`, skipping a type annotation. `None` when the
    /// statement has no initializer or the pattern is not simple.
    fn find_init_eq(&self, from: usize) -> Option<usize> {
        // Immediately after the name only `:` or `=` keep this a simple
        // binding.
        if !(self.punct_at(from, '=') || self.punct_at(from, ':')) {
            return None;
        }
        if self.punct_at(from, ':') && self.punct_at(from + 1, ':') {
            return None; // path pattern `let E::V = ...`
        }
        let (mut paren, mut bracket, mut brace, mut angle) = (0i32, 0i32, 0i32, 0i32);
        let mut k = from;
        while k < self.view.len() {
            let tok = self.tok(k);
            match tok.kind {
                crate::lexer::TokKind::Punct('(') => paren += 1,
                crate::lexer::TokKind::Punct(')') => paren -= 1,
                crate::lexer::TokKind::Punct('[') => bracket += 1,
                crate::lexer::TokKind::Punct(']') => bracket -= 1,
                crate::lexer::TokKind::Punct('{') => brace += 1,
                crate::lexer::TokKind::Punct('}') => brace -= 1,
                crate::lexer::TokKind::Punct('<') => angle += 1,
                crate::lexer::TokKind::Punct('>') => {
                    let arrow = k.checked_sub(1).is_some_and(|p| self.punct_at(p, '-'));
                    if !arrow {
                        angle -= 1;
                    }
                }
                crate::lexer::TokKind::Punct('=')
                    if paren == 0 && bracket == 0 && brace == 0 && angle <= 0 =>
                {
                    let compound = k
                        .checked_sub(1)
                        .is_some_and(|p| "<>!+-*/%&|^=".chars().any(|c| self.punct_at(p, c)));
                    let next_eq = self.punct_at(k + 1, '=') || self.punct_at(k + 1, '>');
                    if !compound && !next_eq {
                        return Some(k);
                    }
                }
                crate::lexer::TokKind::Punct(';') if paren == 0 && bracket == 0 && brace == 0 => {
                    return None;
                }
                _ => {}
            }
            k += 1;
        }
        None
    }

    /// View index of the `;` terminating the statement starting at
    /// `from` (depth-0 in parens/brackets/braces), or `view.len()`.
    fn find_semi(&self, from: usize) -> usize {
        let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
        let mut k = from;
        while k < self.view.len() {
            match self.tok(k).kind {
                crate::lexer::TokKind::Punct('(') => paren += 1,
                crate::lexer::TokKind::Punct(')') => paren -= 1,
                crate::lexer::TokKind::Punct('[') => bracket += 1,
                crate::lexer::TokKind::Punct(']') => bracket -= 1,
                crate::lexer::TokKind::Punct('{') => brace += 1,
                crate::lexer::TokKind::Punct('}') => {
                    brace -= 1;
                    if brace < 0 {
                        return k; // fell off the enclosing block
                    }
                }
                crate::lexer::TokKind::Punct(';') if paren == 0 && bracket == 0 && brace == 0 => {
                    return k;
                }
                _ => {}
            }
            k += 1;
        }
        self.view.len()
    }

    // ---- raw-time taint (D011) -----------------------------------------

    /// Taint verdict for the half-open view span. Sanitizer idents
    /// anywhere shield the whole span; otherwise the first depth-0 hit
    /// wins: an integer literal, a `Duration` mention, or a tainted
    /// binding name.
    fn taint_of(&self, span: (usize, usize), map: &HashMap<String, Binding>) -> Taint {
        for vi in span.0..span.1.min(self.view.len()) {
            if let Some(id) = self.ident_at(vi) {
                if SANITIZERS.contains(&id) {
                    return Taint::Clean;
                }
            }
        }
        let (mut paren, mut bracket, mut brace) = (0i32, 0i32, 0i32);
        for vi in span.0..span.1.min(self.view.len()) {
            let tok = self.tok(vi);
            let depth0 = paren == 0 && bracket == 0 && brace == 0;
            match tok.kind {
                crate::lexer::TokKind::Punct('(') => paren += 1,
                crate::lexer::TokKind::Punct(')') => paren -= 1,
                crate::lexer::TokKind::Punct('[') => bracket += 1,
                crate::lexer::TokKind::Punct(']') => bracket -= 1,
                crate::lexer::TokKind::Punct('{') => brace += 1,
                crate::lexer::TokKind::Punct('}') => brace -= 1,
                _ if depth0 => {
                    let after_dot = vi.checked_sub(1).is_some_and(|p| self.punct_at(p, '.'));
                    if tok.is_num_literal() && !after_dot {
                        return Taint::Raw {
                            desc: "integer literal".to_string(),
                            src: "integer literal".to_string(),
                            steps: Vec::new(),
                        };
                    }
                    if let Some(id) = tok.ident() {
                        if id == "Duration" {
                            return Taint::Raw {
                                desc: "std::time::Duration value".to_string(),
                                src: "std::time::Duration value".to_string(),
                                steps: Vec::new(),
                            };
                        }
                        if !after_dot {
                            if let Some(Binding {
                                time: Some((desc, steps)),
                                ..
                            }) = map.get(id)
                            {
                                return Taint::Raw {
                                    desc: desc.clone(),
                                    src: format!("`{id}`"),
                                    steps: steps.clone(),
                                };
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        Taint::Clean
    }

    /// Report every deadline-API call whose first argument is raw-time
    /// tainted.
    fn time_sinks(&self, map: &HashMap<String, Binding>, flows: &mut Vec<Flow>) {
        for i in 0..self.view.len() {
            let Some(id) = self.ident_at(i) else { continue };
            if !TIME_SINKS.contains(&id) || !self.punct_at(i + 1, '(') {
                continue;
            }
            if self.punct_at(i + 2, ')') {
                continue; // no arguments
            }
            let line = self.tok(i).line;
            let span = (i + 2, self.first_arg_end(i + 1));
            if let Taint::Raw {
                desc,
                src,
                mut steps,
            } = self.taint_of(span, map)
            {
                steps.push(format!(
                    "{src} flows into `{id}` deadline argument (line {line})"
                ));
                flows.push(Flow {
                    line,
                    kind: FlowKind::RawTime,
                    what: format!("{desc} reaches `{id}` without a Sim* constructor"),
                    steps,
                });
            }
        }
    }

    /// End (exclusive, view index) of the first argument of the call
    /// whose `(` sits at view index `open`.
    fn first_arg_end(&self, open: usize) -> usize {
        let (mut paren, mut bracket, mut brace) = (1i32, 0i32, 0i32);
        let mut k = open + 1;
        while k < self.view.len() {
            match self.tok(k).kind {
                crate::lexer::TokKind::Punct('(') => paren += 1,
                crate::lexer::TokKind::Punct(')') => {
                    paren -= 1;
                    if paren == 0 {
                        return k;
                    }
                }
                crate::lexer::TokKind::Punct('[') => bracket += 1,
                crate::lexer::TokKind::Punct(']') => bracket -= 1,
                crate::lexer::TokKind::Punct('{') => brace += 1,
                crate::lexer::TokKind::Punct('}') => brace -= 1,
                crate::lexer::TokKind::Punct(',') if paren == 1 && bracket == 0 && brace == 0 => {
                    return k;
                }
                _ => {}
            }
            k += 1;
        }
        self.view.len()
    }

    // ---- per-machine RNG (D010) ----------------------------------------

    /// Does the span draw from an RNG stream — directly (`.gen(...)`) or
    /// through an rng-tainted binding? Returns the def-use steps of the
    /// source when it does.
    fn rng_source(
        &self,
        span: (usize, usize),
        map: &HashMap<String, Binding>,
    ) -> Option<Vec<String>> {
        for vi in span.0..span.1.min(self.view.len()) {
            let Some(id) = self.ident_at(vi) else {
                continue;
            };
            let after_dot = vi.checked_sub(1).is_some_and(|p| self.punct_at(p, '.'));
            if after_dot && RNG_METHODS.contains(&id) && self.called_at(vi) {
                return Some(vec![format!(
                    "per-machine RNG drawn via `.{id}()` (line {})",
                    self.tok(vi).line
                )]);
            }
            if !after_dot {
                if let Some(Binding {
                    rng: Some(steps), ..
                }) = map.get(id)
                {
                    return Some(steps.clone());
                }
            }
        }
        None
    }

    /// Report statements that write an RNG-derived value into the shared
    /// `DataPlane` (`plane_mut(...)` receivers).
    fn rng_leaks(&self, map: &HashMap<String, Binding>, flows: &mut Vec<Flow>) {
        for i in 0..self.view.len() {
            if self.ident_at(i) != Some("plane_mut") || !self.punct_at(i + 1, '(') {
                continue;
            }
            let line = self.tok(i).line;
            // Statement span: from the previous statement/block boundary
            // to the terminating `;`.
            let mut s = i;
            while s > 0 {
                let t = self.tok(s - 1);
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                    break;
                }
                s -= 1;
            }
            let e = self.find_semi(s);
            if let Some(mut steps) = self.rng_source((s, e), map) {
                steps.push(format!(
                    "flows into shared `DataPlane` write via `plane_mut` (line {line})"
                ));
                flows.push(Flow {
                    line,
                    kind: FlowKind::RngLeak,
                    what: "per-machine RNG value reaches a shared DataPlane write".to_string(),
                    steps,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn flows_of(src: &str) -> Vec<Flow> {
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        let mut parsed = crate::parser::parse_file(&["m".to_string()], &lexed.toks, &mask);
        analyze(&lexed.toks, &mut parsed);
        parsed.fns.iter().flat_map(|f| f.flows.clone()).collect()
    }

    #[test]
    fn raw_literal_into_deadline_is_flagged_with_chain() {
        let src = r#"
            fn f(&mut self) {
                let delay_ms = 500;
                let d = delay_ms;
                self.net.schedule_after(d, Event::Tick);
            }
        "#;
        let fs = flows_of(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, FlowKind::RawTime);
        assert_eq!(fs[0].line, 5);
        // Lattice join propagated through two bindings: the chain keeps
        // the root description and both def steps.
        assert_eq!(fs[0].steps.len(), 3, "{:?}", fs[0].steps);
        assert!(fs[0].steps[0].contains("`delay_ms` bound from integer literal"));
        assert!(fs[0].steps[1].contains("`d` bound from integer literal"));
        assert!(fs[0].steps[2].contains("`d` flows into `schedule_after`"));
    }

    #[test]
    fn sim_constructors_sanitize() {
        let src = r#"
            fn f(&mut self) {
                let d = SimDuration::from_micros(500);
                self.net.schedule_after(d, Event::Tick);
                self.net.schedule_after(SimDuration::from_micros(250), Event::Tock);
            }
        "#;
        assert!(flows_of(src).is_empty());
    }

    #[test]
    fn nested_literals_are_launder_clean() {
        // A literal inside a call's argument list is the callee's
        // business — `day_instant(start, 3)` may well build a SimInstant.
        let src = r#"
            fn f(&mut self) {
                self.net.schedule_at(day_instant(self.start, 3), Event::Roll);
            }
        "#;
        assert!(flows_of(src).is_empty());
    }

    #[test]
    fn std_duration_taints() {
        let src = r#"
            fn f(&mut self) {
                let d = Duration::from_millis(5);
                self.net.schedule_after(d, Event::Tick);
            }
        "#;
        let fs = flows_of(src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].kind, FlowKind::RawTime);
        assert!(fs[0].what.contains("Duration"));
    }

    #[test]
    fn shadowing_rebinding_clears_taint() {
        let src = r#"
            fn f(&mut self) {
                let d = 500;
                let d = SimDuration::from_micros(700);
                self.net.schedule_after(d, Event::Tick);
            }
        "#;
        assert!(flows_of(src).is_empty());
    }

    #[test]
    fn rng_value_into_plane_mut_is_flagged() {
        let src = r#"
            fn f(&mut self) {
                let jitter = self.rng.gen_range(0..9);
                self.net.plane_mut(self.shard).record(jitter);
            }
        "#;
        let fs = flows_of(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, FlowKind::RngLeak);
        assert!(fs[0].steps[0].contains("per-machine RNG drawn via `.gen_range()`"));
        assert!(fs[0]
            .steps
            .iter()
            .any(|s| s.contains("`jitter` derived from the per-machine RNG")));
    }

    #[test]
    fn untainted_plane_mut_write_is_clean() {
        let src = r#"
            fn f(&mut self) {
                let count = self.outstanding;
                self.net.plane_mut(self.shard).record(count);
            }
        "#;
        assert!(flows_of(src).is_empty());
    }

    #[test]
    fn turbofish_rng_draw_is_a_source() {
        let src = r#"
            fn f(&mut self) {
                let v = self.rng.gen::<u64>();
                self.net.plane_mut(self.shard).record(v);
            }
        "#;
        let fs = flows_of(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].kind, FlowKind::RngLeak);
    }

    #[test]
    fn nested_fn_bodies_are_excluded() {
        // The inner helper's literal-to-sink flow must not attach to the
        // outer fn; the outer fn is clean.
        let src = r#"
            fn outer(&mut self) {
                fn inner(net: &mut Net) {
                    let ms = 9;
                    net.schedule_after(ms, Event::Tick);
                }
                inner(&mut self.net);
            }
        "#;
        let lexed = lex(src);
        let mask = test_mask(&lexed.toks);
        let mut parsed = crate::parser::parse_file(&["m".to_string()], &lexed.toks, &mask);
        analyze(&lexed.toks, &mut parsed);
        let outer = parsed.fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = parsed.fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.flows.is_empty(), "{:?}", outer.flows);
        assert_eq!(inner.flows.len(), 1);
    }
}
