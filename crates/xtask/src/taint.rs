//! Taint seeding, propagation and enforcement over the call graph.
//!
//! Each of the four lexical lint families defines a *taint kind*: a
//! function is **seeded** when its own body (or signature) contains one of
//! the family's lexical patterns, and **tainted** when it is seeded or
//! (transitively) calls a tainted function. Enforcement then checks the
//! surfaces the paper's claims depend on:
//!
//! * **fx-taint** — call sites inside the `rlpm-hw` datapath files must
//!   not reach float-tainted code (E6 bit-exactness, now transitive).
//! * **alloc-taint** — call sites inside `xtask-hotpath` fenced regions
//!   must not reach allocating code.
//! * **determinism-taint** — call sites in the simulation crates must not
//!   reach wall-clock/hash-order/unseeded-RNG code defined elsewhere.
//! * **panic-taint** — per-file counts of library functions that can
//!   *transitively* reach a panic site outside their own body, ratcheted
//!   against a baseline like the lexical no-panic counts.
//!
//! Suppressions compose with the lexical families: a seed silenced by a
//! justified `xtask-allow: <lexical-lint> -- …` (or the taint family's own
//! name), or sitting inside a justified `xtask-allow-region` span for
//! either name, never propagates, and a justified allow on a call site
//! blocks propagation through that edge — so an audited, documented
//! exception does not poison every caller above it.

use std::collections::BTreeMap;

use crate::graph::Workspace;
use crate::{
    allow_state, find_word, find_word_then, has_float_literal, has_index_expr, Allow, Diagnostic,
    Lint, DETERMINISM_WORDS, FX_WORDS, HOTPATH_ALLOC_WORDS, NO_PANIC_WORDS,
};

/// The four taint kinds, one per lexical lint family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaintKind {
    /// Floating-point types, literals or conversions (fx-purity).
    Float,
    /// Panicking constructs (no-panic-lib).
    Panic,
    /// Heap-allocating constructs (no-alloc-hotpath).
    Alloc,
    /// Wall clocks, hash iteration order, unseeded RNGs (determinism).
    Nondet,
}

impl TaintKind {
    /// Every kind, in a stable order.
    pub const ALL: [TaintKind; 4] = [
        TaintKind::Float,
        TaintKind::Panic,
        TaintKind::Alloc,
        TaintKind::Nondet,
    ];

    /// The per-line family whose patterns seed this kind.
    pub fn lexical_lint(self) -> Lint {
        match self {
            TaintKind::Float => Lint::FxPurity,
            TaintKind::Panic => Lint::NoPanicLib,
            TaintKind::Alloc => Lint::NoAllocHotpath,
            TaintKind::Nondet => Lint::Determinism,
        }
    }

    /// The transitive lint reported at enforcement surfaces.
    pub fn taint_lint(self) -> Lint {
        match self {
            TaintKind::Float => Lint::FxTaint,
            TaintKind::Panic => Lint::PanicTaint,
            TaintKind::Alloc => Lint::AllocTaint,
            TaintKind::Nondet => Lint::DeterminismTaint,
        }
    }

    /// Human label used in chain rendering.
    pub fn label(self) -> &'static str {
        match self {
            TaintKind::Float => "float",
            TaintKind::Panic => "panic",
            TaintKind::Alloc => "alloc",
            TaintKind::Nondet => "nondeterminism",
        }
    }
}

/// The lexical origin of a taint.
#[derive(Debug, Clone)]
pub struct Seed {
    /// File index of the seed.
    pub file: usize,
    /// 1-based line.
    pub line: usize,
    /// The lexical rule's message.
    pub message: String,
}

/// How a tainted function reaches its seed.
#[derive(Debug, Clone)]
pub struct Reach {
    /// `None`: the seed is in this function's own body. `Some((line,
    /// callee))`: the taint arrives through the call at `line` (1-based)
    /// to `callee` (an index into [`Workspace::fns`]).
    pub via: Option<(usize, usize)>,
    /// The ultimate lexical origin.
    pub seed: Seed,
}

/// Tainted functions per kind: `fn index → Reach` (shortest chain).
pub struct TaintMap {
    per_kind: BTreeMap<TaintKind, BTreeMap<usize, Reach>>,
}

impl TaintMap {
    /// The reach record for `fn_idx` under `kind`, if tainted.
    pub fn get(&self, kind: TaintKind, fn_idx: usize) -> Option<&Reach> {
        self.per_kind.get(&kind).and_then(|m| m.get(&fn_idx))
    }

    /// Number of tainted functions for a kind (seeded + transitive).
    pub fn count(&self, kind: TaintKind) -> usize {
        self.per_kind.get(&kind).map_or(0, BTreeMap::len)
    }
}

/// Scans every function's lines for lexical seeds, then propagates each
/// kind over reversed call edges to a fixed point (BFS, so every recorded
/// chain is a shortest one; ties broken by function index for determinism).
pub fn seed_and_propagate(ws: &Workspace) -> TaintMap {
    let mut per_kind: BTreeMap<TaintKind, BTreeMap<usize, Reach>> = BTreeMap::new();

    // --- Seeding ---
    for kind in TaintKind::ALL {
        let mut tainted: BTreeMap<usize, Reach> = BTreeMap::new();
        for (fn_idx, f) in ws.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            if let Some(seed) = first_seed(ws, fn_idx, kind) {
                tainted.insert(fn_idx, Reach { via: None, seed });
            }
        }
        per_kind.insert(kind, tainted);
    }

    // --- Reverse edges: callee → [(caller, call line)] ---
    let mut rev: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (caller, f) in ws.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        for call in &f.calls {
            if let Some(callee) = ws.resolve(caller, &call.callee) {
                rev.entry(callee).or_default().push((caller, call.line));
            }
        }
    }

    // --- Propagation ---
    for kind in TaintKind::ALL {
        let tainted = per_kind.entry(kind).or_default();
        let mut frontier: Vec<usize> = tainted.keys().copied().collect();
        while !frontier.is_empty() {
            frontier.sort_unstable();
            let mut next = Vec::new();
            for callee in frontier {
                let Some(callee_seed) = tainted.get(&callee).map(|r| r.seed.clone()) else {
                    continue;
                };
                let Some(callers) = rev.get(&callee) else {
                    continue;
                };
                for &(caller, line) in callers {
                    if tainted.contains_key(&caller) {
                        continue;
                    }
                    // A justified allow on the call edge stops propagation:
                    // the exception is audited where it is taken.
                    let lines = ws.lines(ws.fns[caller].file);
                    if matches!(
                        allow_state(lines, line - 1, kind.taint_lint()),
                        Allow::Justified
                    ) {
                        continue;
                    }
                    tainted.insert(
                        caller,
                        Reach {
                            via: Some((line, callee)),
                            seed: callee_seed.clone(),
                        },
                    );
                    next.push(caller);
                }
            }
            frontier = next;
        }
    }

    TaintMap { per_kind }
}

/// The first lexical seed for `kind` in the lines owned by `fn_idx`
/// (innermost ownership, so nested fns keep their own seeds). Seeds
/// suppressed by a justified allow — under the lexical family's name or
/// the taint family's — do not count.
fn first_seed(ws: &Workspace, fn_idx: usize, kind: TaintKind) -> Option<Seed> {
    let f = &ws.fns[fn_idx];
    let file = &ws.files[f.file];
    let lines = ws.lines(f.file);
    let regions = crate::region_allows(lines);
    let rules = match kind {
        TaintKind::Float => FX_WORDS,
        TaintKind::Panic => NO_PANIC_WORDS,
        TaintKind::Alloc => HOTPATH_ALLOC_WORDS,
        TaintKind::Nondet => DETERMINISM_WORDS,
    };
    for idx in f.body.0.saturating_sub(1)..f.body.1.min(lines.len()) {
        if file.line_owner[idx] != Some(fn_idx) {
            continue;
        }
        let line = &lines[idx];
        if line.in_test {
            continue;
        }
        let mut message: Option<String> = None;
        for rule in rules {
            let matched = match rule.then {
                Some(c) => find_word_then(&line.code, rule.word, c),
                None => find_word(&line.code, rule.word),
            };
            if matched {
                message = Some(rule.message.to_string());
                break;
            }
        }
        if message.is_none() && kind == TaintKind::Float && has_float_literal(&line.code) {
            message = Some("float literal".to_string());
        }
        if message.is_none() && kind == TaintKind::Panic && has_index_expr(&line.code) {
            message = Some("indexing expression can panic".to_string());
        }
        let Some(message) = message else {
            continue;
        };
        let suppressed =
            matches!(
                allow_state(lines, idx, kind.lexical_lint()),
                Allow::Justified
            ) || matches!(allow_state(lines, idx, kind.taint_lint()), Allow::Justified)
                || regions.covers(kind.lexical_lint(), idx)
                || regions.covers(kind.taint_lint(), idx);
        if suppressed {
            continue;
        }
        return Some(Seed {
            file: f.file,
            line: idx + 1,
            message,
        });
    }
    None
}

/// Renders the taint chain from a tainted function down to its seed, one
/// entry per hop, ending with the seed line.
pub fn render_chain(
    ws: &Workspace,
    taints: &TaintMap,
    kind: TaintKind,
    fn_idx: usize,
) -> Vec<String> {
    let mut chain = Vec::new();
    let mut current = fn_idx;
    // Cycle guard: chains are shortest paths so cycles cannot occur, but a
    // bounded walk keeps a future bug from hanging the lint.
    for _ in 0..ws.fns.len() + 1 {
        let Some(reach) = taints.get(kind, current) else {
            break;
        };
        match reach.via {
            Some((line, callee)) => {
                chain.push(format!(
                    "{}:{} calls `{}` ({}:{})",
                    ws.files[ws.fns[current].file].label,
                    line,
                    ws.fns[callee].name,
                    ws.files[ws.fns[callee].file].label,
                    ws.fns[callee].line,
                ));
                current = callee;
            }
            None => {
                chain.push(format!(
                    "seed at {}:{}: {}",
                    ws.files[reach.seed.file].label, reach.seed.line, reach.seed.message
                ));
                break;
            }
        }
    }
    chain
}

/// The workspace surfaces each transitive lint is enforced on.
pub struct Surfaces<'a> {
    /// File labels forming the fx-pure hardware datapath.
    pub fx_files: &'a [&'a str],
    /// File labels containing hotpath-fenced regions.
    pub hotpath_files: &'a [&'a str],
    /// Crate names whose results must replay deterministically.
    pub determinism_crates: &'a [&'a str],
    /// Crate names covered by the panic-taint ratchet.
    pub panic_crates: &'a [&'a str],
}

/// Result of enforcing the transitive lints.
#[derive(Default)]
pub struct TaintOutcome {
    /// Hard errors (fx-taint, alloc-taint, determinism-taint) plus
    /// unjustified-suppression errors.
    pub diagnostics: Vec<Diagnostic>,
    /// Violations silenced by justified allows at enforcement sites.
    pub suppressed: usize,
    /// Per-file counts of functions that can panic transitively (the
    /// ratcheted panic-taint metric).
    pub panic_counts: BTreeMap<String, usize>,
    /// The diagnostics behind each panic-taint count, for regression
    /// reports.
    pub panic_diags: BTreeMap<String, Vec<Diagnostic>>,
}

/// Checks every surface call site against the taint map.
pub fn enforce(ws: &Workspace, taints: &TaintMap, surfaces: &Surfaces<'_>) -> TaintOutcome {
    let mut out = TaintOutcome::default();

    for (caller, f) in ws.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let file = &ws.files[f.file];
        let on_fx = surfaces.fx_files.contains(&file.label.as_str());
        let on_hotpath_file = surfaces.hotpath_files.contains(&file.label.as_str());
        let on_det = surfaces
            .determinism_crates
            .contains(&file.crate_name.as_str());

        // Call-site enforcement for the three hard-error kinds.
        let mut reported: Vec<(Lint, usize, String)> = Vec::new();
        for call in &f.calls {
            let Some(callee) = ws.resolve(caller, &call.callee) else {
                continue;
            };
            for kind in [TaintKind::Float, TaintKind::Alloc, TaintKind::Nondet] {
                let surface = match kind {
                    TaintKind::Float => on_fx,
                    TaintKind::Alloc => {
                        on_hotpath_file && file.hotpath.get(call.line - 1).copied().unwrap_or(false)
                    }
                    TaintKind::Nondet => on_det,
                    TaintKind::Panic => false,
                };
                if !surface {
                    continue;
                }
                let Some(reach) = taints.get(kind, callee) else {
                    continue;
                };
                let lint = kind.taint_lint();
                let key = (lint, call.line, ws.fns[callee].name.clone());
                if reported.contains(&key) {
                    continue;
                }
                reported.push(key);
                let lines = ws.lines(f.file);
                match allow_state(lines, call.line - 1, lint) {
                    Allow::Justified => out.suppressed += 1,
                    Allow::Unjustified => out.diagnostics.push(Diagnostic::new(
                        lint,
                        &file.label,
                        call.line,
                        format!(
                            "suppression without justification (write `xtask-allow: {} -- <reason>`); \
                             original: call to `{}` reaches {}-tainted code",
                            lint.name(),
                            ws.fns[callee].name,
                            kind.label(),
                        ),
                    )),
                    Allow::No => {
                        let mut chain = vec![format!(
                            "{}:{} calls `{}` ({}:{})",
                            file.label,
                            call.line,
                            ws.fns[callee].name,
                            ws.files[ws.fns[callee].file].label,
                            ws.fns[callee].line,
                        )];
                        chain.extend(render_chain(ws, taints, kind, callee));
                        let mut d = Diagnostic::new(
                            lint,
                            &file.label,
                            call.line,
                            format!(
                                "call to `{}` reaches {}-tainted code ({})",
                                ws.fns[callee].name,
                                kind.label(),
                                reach.seed.message,
                            ),
                        );
                        d.chain = chain;
                        out.diagnostics.push(d);
                    }
                }
            }
        }

        // panic-taint: function-granular, ratcheted. Only *transitive*
        // reach counts — a function's own panics are already in the
        // lexical no-panic baseline.
        if surfaces.panic_crates.contains(&file.crate_name.as_str()) {
            if let Some(reach) = taints.get(TaintKind::Panic, caller) {
                if reach.via.is_some() {
                    let lines = ws.lines(f.file);
                    if matches!(
                        allow_state(lines, f.line - 1, Lint::PanicTaint),
                        Allow::Justified
                    ) {
                        out.suppressed += 1;
                    } else {
                        *out.panic_counts.entry(file.label.clone()).or_insert(0) += 1;
                        let mut d = Diagnostic::new(
                            Lint::PanicTaint,
                            &file.label,
                            f.line,
                            format!(
                                "fn `{}` can panic transitively ({})",
                                f.name, reach.seed.message
                            ),
                        );
                        d.chain = render_chain(ws, taints, TaintKind::Panic, caller);
                        out.panic_diags
                            .entry(file.label.clone())
                            .or_default()
                            .push(d);
                    }
                }
            }
        }
    }

    // Files on the panic surface with zero tainted fns still get an
    // explicit zero so the ratchet sees improvements.
    for file in &ws.files {
        if surfaces.panic_crates.contains(&file.crate_name.as_str()) {
            out.panic_counts.entry(file.label.clone()).or_insert(0);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atomics_audit, feature_gate_lint, scan_source};

    const SURFACE: &str = include_str!("../fixtures/taint/surface.rs");
    const HELPERS: &str = include_str!("../fixtures/taint/helpers.rs");
    const LUT: &str = include_str!("../fixtures/taint/lut.rs");
    const ATOMICS: &str = include_str!("../fixtures/taint/atomics_mixed.rs");
    const FEATURE_GATE: &str = include_str!("../fixtures/taint/feature_gate.rs");
    const EXPECTED: &str = include_str!("../fixtures/taint/expected.txt");

    fn fixture_ws() -> Workspace {
        let mut ws = Workspace::new();
        ws.add_file("fixtures/taint/surface.rs", "alpha", SURFACE);
        ws.add_file("fixtures/taint/helpers.rs", "alpha", HELPERS);
        ws.add_file("fixtures/taint/lut.rs", "beta", LUT);
        ws.add_dep("alpha", "beta");
        ws.build_index();
        ws
    }

    fn fixture_surfaces() -> Surfaces<'static> {
        Surfaces {
            fx_files: &["fixtures/taint/surface.rs"],
            hotpath_files: &["fixtures/taint/surface.rs"],
            determinism_crates: &["alpha"],
            panic_crates: &["alpha"],
        }
    }

    fn fixture_outcome() -> (Workspace, TaintOutcome) {
        let ws = fixture_ws();
        let taints = seed_and_propagate(&ws);
        let out = enforce(&ws, &taints, &fixture_surfaces());
        (ws, out)
    }

    #[test]
    fn float_taint_crosses_two_hops_and_renders_the_chain() {
        let (_, out) = fixture_outcome();
        let fx: Vec<&Diagnostic> = out
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::FxTaint)
            .collect();
        assert_eq!(fx.len(), 1, "got {fx:?}");
        let d = fx[0];
        assert!(d.message.contains("`mix`"), "{}", d.message);
        // Chain: surface → mix → scale_lut → seed.
        assert_eq!(d.chain.len(), 3, "{:?}", d.chain);
        assert!(d.chain[0].contains("calls `mix`"), "{:?}", d.chain);
        assert!(d.chain[1].contains("calls `scale_lut`"), "{:?}", d.chain);
        assert!(
            d.chain[2].starts_with("seed at fixtures/taint/lut.rs"),
            "{:?}",
            d.chain
        );
    }

    #[test]
    fn justified_allow_on_the_call_site_suppresses_enforcement() {
        let (_, out) = fixture_outcome();
        // `fx_allowed` calls the same tainted `mix` but carries a justified
        // allow; only `fx_step`'s call may fire.
        let fx_lines: Vec<usize> = out
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::FxTaint)
            .map(|d| d.line)
            .collect();
        assert_eq!(fx_lines.len(), 1);
        assert!(out.suppressed >= 1, "allowed call counted as suppressed");
    }

    #[test]
    fn alloc_taint_fires_only_inside_hotpath_regions() {
        let (_, out) = fixture_outcome();
        let alloc: Vec<&Diagnostic> = out
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::AllocTaint)
            .collect();
        assert_eq!(alloc.len(), 1, "got {alloc:?}");
        assert!(alloc[0].message.contains("`staging_buffer`"));
        // The identical call outside the fence (in `cold_copy`) is silent.
    }

    #[test]
    fn determinism_taint_reaches_across_crates() {
        let (_, out) = fixture_outcome();
        let det: Vec<&Diagnostic> = out
            .diagnostics
            .iter()
            .filter(|d| d.lint == Lint::DeterminismTaint)
            .collect();
        assert_eq!(det.len(), 1, "got {det:?}");
        assert!(det[0].message.contains("`jitter`"));
        assert!(
            det[0].chain.last().is_some_and(|s| s.contains("Instant")),
            "{:?}",
            det[0].chain
        );
    }

    #[test]
    fn panic_taint_counts_transitive_reach_only() {
        let (_, out) = fixture_outcome();
        // `lib_entry` reaches `checked_pick`'s indexing; `checked_pick`
        // itself is a lexical finding, not a transitive one.
        assert_eq!(
            out.panic_counts.get("fixtures/taint/surface.rs"),
            Some(&1),
            "{:?}",
            out.panic_counts
        );
        // helpers.rs functions panic directly, not transitively.
        assert_eq!(
            out.panic_counts.get("fixtures/taint/helpers.rs"),
            Some(&0),
            "{:?}",
            out.panic_counts
        );
    }

    #[test]
    fn suppressed_seed_does_not_propagate() {
        // `quiet_pick` wraps its indexing in a justified lexical allow, so
        // `quiet_entry` (which calls it) must stay untainted.
        let ws = fixture_ws();
        let taints = seed_and_propagate(&ws);
        let quiet_entry = ws
            .fns
            .iter()
            .position(|f| f.name == "quiet_entry")
            .expect("fixture fn");
        assert!(taints.get(TaintKind::Panic, quiet_entry).is_none());
    }

    #[test]
    fn clean_entry_stays_untainted() {
        let ws = fixture_ws();
        let taints = seed_and_propagate(&ws);
        let clean = ws
            .fns
            .iter()
            .position(|f| f.name == "clean_entry")
            .expect("fixture fn");
        for kind in TaintKind::ALL {
            assert!(
                taints.get(kind, clean).is_none(),
                "clean_entry tainted {kind:?}"
            );
        }
    }

    #[test]
    fn mixed_ordering_atomics_are_flagged() {
        let out = atomics_audit("fixtures/taint/atomics_mixed.rs", ATOMICS);
        let msgs: Vec<&str> = out.diagnostics.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("lacks a `// xtask-atomics:")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("mixed memory orderings") && m.contains("MIXED")),
            "{msgs:?}"
        );
        // The consistently-Relaxed, annotated atomic is clean.
        assert!(!msgs.iter().any(|m| m.contains("GOOD")), "{msgs:?}");
    }

    #[test]
    fn fixture_findings_match_snapshot() {
        let (ws, out) = fixture_outcome();
        let mut rendered = String::new();
        let mut diags = out.diagnostics.clone();
        for file_diags in out.panic_diags.values() {
            diags.extend(file_diags.iter().cloned());
        }
        diags.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
        for d in &diags {
            rendered.push_str(&d.to_string());
            rendered.push('\n');
        }
        let audit = atomics_audit("fixtures/taint/atomics_mixed.rs", ATOMICS);
        for d in &audit.diagnostics {
            rendered.push_str(&d.to_string());
            rendered.push('\n');
        }
        let gate = feature_gate_lint("fixtures/taint/feature_gate.rs", FEATURE_GATE);
        for d in &gate.diagnostics {
            rendered.push_str(&d.to_string());
            rendered.push('\n');
        }
        drop(ws);
        assert_eq!(
            rendered.trim(),
            EXPECTED.trim(),
            "\n--- actual findings ---\n{rendered}\n--- update fixtures/taint/expected.txt if intentional ---"
        );
    }

    #[test]
    fn lexical_scan_still_sees_fixture_seeds() {
        // The taint fixtures double as lexical fixtures: lut.rs is florid
        // with floats and clocks when scanned directly.
        let fx = scan_source("lut.rs", LUT, &[Lint::FxPurity]);
        assert!(!fx.diagnostics.is_empty());
        let det = scan_source("lut.rs", LUT, &[Lint::Determinism]);
        assert!(!det.diagnostics.is_empty());
    }
}
