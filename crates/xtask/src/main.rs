//! `cargo xtask check` — workspace static-analysis driver.
//!
//! Wires the lint families from the `xtask` library to the actual
//! workspace layout. Two layers run on every check:
//!
//! **Lexical** (per line, as before):
//!
//! * `fx-purity` over the `rlpm-hw` datapath modules,
//! * `determinism` over the simulation crates,
//! * `no-panic-lib` over every library crate, ratcheted against
//!   `crates/xtask/baselines/no_panic.txt`,
//! * `no-alloc-hotpath` over the marked sub-step loops,
//! * `docs-cli` cross-checking the CLI `COMMANDS` table and this tool's
//!   own flags against `README.md`/`EXPERIMENTS.md`,
//! * `atomics-audit` requiring a `// xtask-atomics: <why>` note on every
//!   `Ordering::*` use in the concurrency-bearing files and flagging
//!   mixed orderings on one atomic,
//! * `feature-gate` confining obs-feature `cfg` seams to `simkit`.
//!
//! **Transitive** (over the cross-crate call graph, unless
//! `--lexical-only`): `fx-taint`, `alloc-taint` and `determinism-taint`
//! fail enforcement surfaces whose *callees* transitively reach tainted
//! code, printing the full call chain; `panic-taint` counts functions
//! that can panic only through something they call, ratcheted against
//! `crates/xtask/baselines/panic_taint.txt`.
//!
//! Exit status is non-zero on any unsuppressed violation or baseline
//! regression, so CI can gate on it. `--format json` prints a single
//! machine-readable report on stdout instead of human text.
//! `--update-baseline` rewrites the ratchet files from the current counts
//! (only meaningful after a clean-up that lowered them).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::graph::Workspace;
use xtask::taint::{enforce, seed_and_propagate, Surfaces};
use xtask::{
    atomics_audit, docs_lint, feature_gate_lint, flags_lint, format_baseline, json_escape,
    parse_baseline, protocol_lint, ratchet, scan_source, Diagnostic, Lint,
};

/// Every product crate, by directory under `crates/`. The call graph is
/// built over all of them; the per-lint surfaces below are subsets.
/// `xtask` itself and the vendored test shims are excluded.
const PRODUCT_CRATES: &[&str] = &[
    "simkit",
    "soc",
    "workload",
    "governors",
    "rlpm",
    "rlpm-hw",
    "experiments",
    "rlpm-serve",
    "cli",
    "bench",
];

/// Modules of `rlpm-hw` that model the silicon datapath and must stay
/// float-free (the paper's E6 bit-exactness claim).
const FX_PURITY_FILES: &[&str] = &[
    "crates/rlpm-hw/src/engine.rs",
    "crates/rlpm-hw/src/fxtable.rs",
    "crates/rlpm-hw/src/bus.rs",
    "crates/rlpm-hw/src/mmio.rs",
    "crates/rlpm-hw/src/driver.rs",
];

/// The subset of [`FX_PURITY_FILES`] held to the *transitive* float ban.
/// The driver is deliberately absent: it is the CPU-side marshalling
/// layer and legitimately calls software float code (predictor, reward,
/// latency stats) — the lexical lint still keeps raw floats out of it,
/// but its callees model software, not silicon.
const FX_TAINT_FILES: &[&str] = &[
    "crates/rlpm-hw/src/engine.rs",
    "crates/rlpm-hw/src/fxtable.rs",
    "crates/rlpm-hw/src/bus.rs",
    "crates/rlpm-hw/src/mmio.rs",
];

/// Crates whose code feeds experiment results and must replay bit-exactly
/// from a seed.
const DETERMINISM_CRATES: &[&str] = &["simkit", "soc", "workload", "rlpm", "experiments"];

/// Files containing `xtask-hotpath: begin`/`end` marked regions — the
/// per-sub-step simulation loops (scalar and batched), the per-epoch
/// fault sampling, and the runner's per-epoch dispatch, all of which must
/// stay allocation-free.
const HOTPATH_FILES: &[&str] = &[
    "crates/soc/src/cluster.rs",
    "crates/soc/src/soc_impl.rs",
    "crates/soc/src/batch.rs",
    "crates/simkit/src/faults.rs",
    "crates/experiments/src/runner.rs",
];

/// Library crates covered by the no-panic ratchet and the panic-taint
/// ratchet (benches and the vendored shims are exempt; the CLI is held to
/// the same bar because a panic there loses a whole sweep's output).
const NO_PANIC_CRATES: &[&str] = &[
    "simkit",
    "soc",
    "workload",
    "governors",
    "rlpm",
    "rlpm-hw",
    "experiments",
    "rlpm-serve",
    "cli",
];

/// Files whose atomics carry cross-thread protocol: the work-stealing
/// scheduler cursor, the cache/bench counters and the obs registry latch.
/// Every `Ordering::*` here must justify itself with `// xtask-atomics:`.
const ATOMICS_FILES: &[&str] = &[
    "crates/experiments/src/sched.rs",
    "crates/experiments/src/cache.rs",
    "crates/experiments/src/journal.rs",
    "crates/simkit/src/obs.rs",
    "crates/simkit/src/failpoint.rs",
    "crates/bench/src/bin/regen_tables.rs",
    "crates/rlpm-serve/src/server.rs",
    "crates/rlpm-serve/src/service.rs",
];

/// Crates that must not contain obs-feature `cfg` seams: the observability
/// switch lives in `simkit::obs` alone, everything else calls through its
/// always-compiled API.
const FEATURE_GATE_EXEMPT: &[&str] = &["simkit"];

const NO_PANIC_BASELINE: &str = "crates/xtask/baselines/no_panic.txt";
const PANIC_TAINT_BASELINE: &str = "crates/xtask/baselines/panic_taint.txt";

/// The CLI argument parser holding the `COMMANDS` table, and the
/// user-facing documents each subcommand must be mentioned in.
const CLI_ARGS_PATH: &str = "crates/cli/src/args.rs";
const DOC_FILES: &[&str] = &["README.md", "EXPERIMENTS.md"];

/// The document that must list every `cargo xtask check` flag.
const FLAGS_DOC: &str = "README.md";

/// The serve crate's wire-message tables, and the protocol document whose
/// fenced catalogue must match them in both directions.
const PROTOCOL_SOURCE: &str = "crates/rlpm-serve/src/proto.rs";
const PROTOCOL_DOC: &str = "PROTOCOL.md";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

struct Options {
    update_baseline: bool,
    lexical_only: bool,
    format: Format,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        update_baseline: false,
        lexical_only: false,
        format: Format::Text,
    };
    let mut command = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--update-baseline" => opts.update_baseline = true,
            "--lexical-only" => opts.lexical_only = true,
            "--format" => match iter.next().map(String::as_str) {
                Some("text") => opts.format = Format::Text,
                Some("json") => opts.format = Format::Json,
                other => {
                    eprintln!("--format expects `text` or `json`, got {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            "--format=text" => opts.format = Format::Text,
            "--format=json" => opts.format = Format::Json,
            "check" => command = Some("check"),
            "--help" | "-h" | "help" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    if command.is_none() && !opts.update_baseline {
        print_usage();
        return ExitCode::FAILURE;
    }

    let root = match workspace_root() {
        Some(root) => root,
        None => {
            eprintln!(
                "error: could not locate the workspace root (no Cargo.toml with [workspace])"
            );
            return ExitCode::FAILURE;
        }
    };

    match run_check(&root, &opts) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask check [--update-baseline] [--lexical-only] [--format text|json]\n\
         \n\
         Runs the workspace static-analysis pass:\n\
         \u{20}  fx-purity / fx-taint            float-free rlpm-hw datapath, transitively\n\
         \u{20}  determinism / determinism-taint no wall clocks or hash order, transitively\n\
         \u{20}  no-panic-lib / panic-taint      panic sites ratcheted via baselines\n\
         \u{20}  no-alloc-hotpath / alloc-taint  no allocations reachable from fenced loops\n\
         \u{20}  atomics-audit                   every Ordering::* justified, none mixed\n\
         \u{20}  feature-gate                    obs cfg seams confined to simkit\n\
         \u{20}  docs-cli                        CLI subcommands and xtask flags documented\n\
         \u{20}  docs-protocol                   PROTOCOL.md catalogue matches serve tables\n\
         \n\
         --lexical-only skips the call-graph taint passes.\n\
         --format json prints one machine-readable report object on stdout.\n\
         \n\
         Suppress a finding inline with:\n\
         \u{20}  // xtask-allow: <lint> -- <justification>\n\
         or a dense span with one shared justification with:\n\
         \u{20}  // xtask-allow-region: <lint> -- <justification>\n\
         \u{20}  // xtask-allow-region: end <lint>\n\
         Justify an atomic ordering with:\n\
         \u{20}  // xtask-atomics: <why this ordering is sufficient>"
    );
}

/// Locates the workspace root: the manifest dir's grandparent when run via
/// cargo, else a `Cargo.toml` + `[workspace]` walk-up from the current dir.
fn workspace_root() -> Option<PathBuf> {
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let path = Path::new(&manifest);
        if let Some(root) = path.parent().and_then(Path::parent) {
            if is_workspace_root(root) {
                return Some(root.to_path_buf());
            }
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if is_workspace_root(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn is_workspace_root(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .map(|text| text.contains("[workspace]"))
        .unwrap_or(false)
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&current) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The `[dependencies]` of one crate's manifest, restricted to workspace
/// product crates (dev-dependencies deliberately excluded: test-only use
/// must not create taint edges).
fn manifest_deps(manifest: &str) -> Vec<String> {
    let mut deps = Vec::new();
    let mut in_deps = false;
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name = line
            .split(['=', '.', ' '])
            .next()
            .unwrap_or("")
            .trim_matches('"');
        if PRODUCT_CRATES.contains(&name) {
            deps.push(name.to_string());
        }
    }
    deps
}

/// One scanned source file, read once and shared by every pass.
struct Source {
    label: String,
    krate: String,
    text: String,
}

fn run_check(root: &Path, opts: &Options) -> Result<bool, String> {
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut suppressed = 0usize;

    // --- Read every product source file once. ---
    let mut sources: Vec<Source> = Vec::new();
    for krate in PRODUCT_CRATES {
        for path in rust_files(&root.join("crates").join(krate).join("src")) {
            let label = rel_label(root, &path);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            sources.push(Source {
                label,
                krate: krate.to_string(),
                text,
            });
        }
    }
    let scanned = sources.len();
    let by_label: BTreeMap<&str, &Source> = sources.iter().map(|s| (s.label.as_str(), s)).collect();
    let source_of = |rel: &str| -> Result<&Source, String> {
        by_label
            .get(rel)
            .copied()
            .ok_or_else(|| format!("expected workspace file {rel} is missing"))
    };

    // --- Lexical passes. ---

    // fx-purity: exact file list.
    for rel in FX_PURITY_FILES {
        let src = source_of(rel)?;
        let out = scan_source(rel, &src.text, &[Lint::FxPurity]);
        suppressed += out.suppressed;
        diagnostics.extend(out.diagnostics);
    }

    // no-alloc-hotpath: exact file list; only marked regions can fire.
    for rel in HOTPATH_FILES {
        let src = source_of(rel)?;
        let out = scan_source(rel, &src.text, &[Lint::NoAllocHotpath]);
        suppressed += out.suppressed;
        diagnostics.extend(out.diagnostics);
    }

    // determinism: every source file of the simulation crates.
    for src in sources
        .iter()
        .filter(|s| DETERMINISM_CRATES.contains(&s.krate.as_str()))
    {
        let out = scan_source(&src.label, &src.text, &[Lint::Determinism]);
        suppressed += out.suppressed;
        diagnostics.extend(out.diagnostics);
    }

    // atomics-audit: exact file list.
    for rel in ATOMICS_FILES {
        let src = source_of(rel)?;
        let out = atomics_audit(rel, &src.text);
        suppressed += out.suppressed;
        diagnostics.extend(out.diagnostics);
    }

    // feature-gate: every product crate except the obs host itself.
    for src in sources
        .iter()
        .filter(|s| !FEATURE_GATE_EXEMPT.contains(&s.krate.as_str()))
    {
        let out = feature_gate_lint(&src.label, &src.text);
        suppressed += out.suppressed;
        diagnostics.extend(out.diagnostics);
    }

    // docs-cli: every subcommand in args.rs — and every flag of this tool —
    // must be mentioned in the docs.
    {
        let args_src = source_of(CLI_ARGS_PATH)?;
        let mut docs = Vec::new();
        for name in DOC_FILES {
            let path = root.join(name);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            docs.push((*name, text));
        }
        let doc_refs: Vec<(&str, &str)> = docs
            .iter()
            .map(|(name, text)| (*name, text.as_str()))
            .collect();
        diagnostics.extend(docs_lint(CLI_ARGS_PATH, &args_src.text, &doc_refs));
        if let Some((_, text)) = docs.iter().find(|(name, _)| *name == FLAGS_DOC) {
            diagnostics.extend(flags_lint(FLAGS_DOC, text));
        }
    }

    // docs-protocol: the PROTOCOL.md message catalogue must match the
    // serve crate's wire tables in both directions.
    {
        let proto_src = source_of(PROTOCOL_SOURCE)?;
        let doc_path = root.join(PROTOCOL_DOC);
        let doc_text = std::fs::read_to_string(&doc_path)
            .map_err(|e| format!("cannot read {}: {e}", doc_path.display()))?;
        diagnostics.extend(protocol_lint(
            PROTOCOL_SOURCE,
            &proto_src.text,
            PROTOCOL_DOC,
            &doc_text,
        ));
    }

    // no-panic-lib: counted per file, ratcheted against the baseline.
    let mut no_panic_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut no_panic_diags: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for src in sources
        .iter()
        .filter(|s| NO_PANIC_CRATES.contains(&s.krate.as_str()))
    {
        let out = scan_source(&src.label, &src.text, &[Lint::NoPanicLib]);
        suppressed += out.suppressed;
        // Unjustified-suppression diagnostics are hard errors even for
        // the ratcheted family.
        let (bare_allows, occurrences): (Vec<_>, Vec<_>) = out
            .diagnostics
            .into_iter()
            .partition(|d| d.message.contains("without justification"));
        diagnostics.extend(bare_allows);
        no_panic_counts.insert(src.label.clone(), occurrences.len());
        no_panic_diags.insert(src.label.clone(), occurrences);
    }

    // --- Transitive passes over the call graph. ---
    let mut panic_taint_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut panic_taint_diags: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    if !opts.lexical_only {
        let mut ws = Workspace::new();
        for src in &sources {
            ws.add_file(&src.label, &src.krate, &src.text);
        }
        for krate in PRODUCT_CRATES {
            let manifest_path = root.join("crates").join(krate).join("Cargo.toml");
            let manifest = std::fs::read_to_string(&manifest_path)
                .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
            for dep in manifest_deps(&manifest) {
                ws.add_dep(krate, &dep);
            }
        }
        ws.build_index();

        let taints = seed_and_propagate(&ws);
        let surfaces = Surfaces {
            fx_files: FX_TAINT_FILES,
            hotpath_files: HOTPATH_FILES,
            determinism_crates: DETERMINISM_CRATES,
            panic_crates: NO_PANIC_CRATES,
        };
        let out = enforce(&ws, &taints, &surfaces);
        suppressed += out.suppressed;
        diagnostics.extend(out.diagnostics);
        panic_taint_counts = out.panic_counts;
        panic_taint_diags = out.panic_diags;
    }

    // --- Baselines. ---
    let mut baselines: Vec<BaselineReport> = Vec::new();
    baselines.push(check_baseline(
        root,
        "no-panic-lib",
        NO_PANIC_BASELINE,
        &no_panic_counts,
        opts.update_baseline,
    )?);
    if !opts.lexical_only {
        baselines.push(check_baseline(
            root,
            "panic-taint",
            PANIC_TAINT_BASELINE,
            &panic_taint_counts,
            opts.update_baseline,
        )?);
    }

    let regressions_total: usize = baselines.iter().map(|b| b.regressions.len()).sum();
    let clean = diagnostics.is_empty() && regressions_total == 0;

    // --- Report. ---
    match opts.format {
        Format::Json => {
            println!(
                "{}",
                render_json(&diagnostics, &baselines, suppressed, scanned, clean)
            );
        }
        Format::Text => {
            for d in &diagnostics {
                eprintln!("{d}");
            }
            for b in &baselines {
                let detail = match b.lint {
                    "panic-taint" => &panic_taint_diags,
                    _ => &no_panic_diags,
                };
                for (file, now, base) in &b.regressions {
                    eprintln!(
                        "error[xtask::{}]: {file} has {now} findings (baseline {base}); \
                         fix them or justify with `xtask-allow: {} -- <reason>`",
                        b.lint, b.lint
                    );
                    if let Some(diags) = detail.get(file) {
                        for d in diags {
                            eprintln!("  --> {}:{} {}", d.file, d.line, d.message);
                            for hop in &d.chain {
                                eprintln!("      = {hop}");
                            }
                        }
                    }
                }
                for (file, now, base) in &b.improvements {
                    eprintln!(
                        "note[xtask::{}]: {file} improved to {now} (baseline {base}); \
                         run `cargo xtask check --update-baseline` to ratchet down",
                        b.lint
                    );
                }
            }

            let count = |lint: Lint| diagnostics.iter().filter(|d| d.lint == lint).count();
            println!(
                "xtask check: {scanned} files scanned — fx-purity {} violations, determinism {} \
                 violations, no-alloc-hotpath {} violations, atomics-audit {} violations, \
                 feature-gate {} violations, docs-cli {} violations, docs-protocol {} \
                 violations, {suppressed} suppressed",
                count(Lint::FxPurity),
                count(Lint::Determinism),
                count(Lint::NoAllocHotpath),
                count(Lint::AtomicsAudit),
                count(Lint::FeatureGate),
                count(Lint::DocsCli),
                count(Lint::DocsProtocol),
            );
            if !opts.lexical_only {
                println!(
                    "  taint: fx-taint {} violations, determinism-taint {} violations, \
                     alloc-taint {} violations",
                    count(Lint::FxTaint),
                    count(Lint::DeterminismTaint),
                    count(Lint::AllocTaint),
                );
            }
            for b in &baselines {
                println!(
                    "  {}: {} occurrences (baseline {}), {} regression(s)",
                    b.lint,
                    b.total,
                    b.baseline_total,
                    b.regressions.len()
                );
            }
            let bare = count(Lint::NoPanicLib);
            if bare > 0 {
                println!("  plus {bare} unjustified suppression(s) in ratcheted files");
            }
        }
    }

    Ok(clean)
}

/// One ratcheted lint's baseline comparison.
struct BaselineReport {
    lint: &'static str,
    total: usize,
    baseline_total: usize,
    regressions: Vec<(String, usize, usize)>,
    improvements: Vec<(String, usize, usize)>,
}

fn check_baseline(
    root: &Path,
    lint: &'static str,
    rel: &str,
    counts: &BTreeMap<String, usize>,
    update: bool,
) -> Result<BaselineReport, String> {
    let path = root.join(rel);
    if update {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, format_baseline(lint, counts))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!(
            "wrote {rel} ({} files tracked)",
            counts.values().filter(|&&c| c > 0).count()
        );
    }
    let baseline = match std::fs::read_to_string(&path) {
        Ok(text) => parse_baseline(&text),
        Err(_) => {
            return Err(format!(
                "missing {rel}; run `cargo xtask check --update-baseline` once to create it"
            ))
        }
    };
    let (regressions, improvements) = ratchet(counts, &baseline);
    Ok(BaselineReport {
        lint,
        total: counts.values().sum(),
        baseline_total: baseline.values().sum(),
        regressions,
        improvements,
    })
}

/// Renders the whole check as one JSON object (no external deps, so the
/// encoder is hand-rolled; `Diagnostic::to_json` covers the entries).
fn render_json(
    diagnostics: &[Diagnostic],
    baselines: &[BaselineReport],
    suppressed: usize,
    scanned: usize,
    clean: bool,
) -> String {
    let mut out = String::from("{\"diagnostics\":[");
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&d.to_json());
    }
    out.push_str("],\"baselines\":{");
    for (i, b) in baselines.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"total\":{},\"baseline\":{},\"regressions\":[",
            json_escape(b.lint),
            b.total,
            b.baseline_total
        ));
        for (j, (file, now, base)) in b.regressions.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"file\":\"{}\",\"count\":{now},\"baseline\":{base}}}",
                json_escape(file)
            ));
        }
        out.push_str("]}");
    }
    out.push_str(&format!(
        "}},\"suppressed\":{suppressed},\"files_scanned\":{scanned},\"clean\":{clean}}}"
    ));
    out
}
