//! The rule set: each rule encodes an invariant an earlier PR fixed by
//! hand, as a mechanical check over the token stream.
//!
//! | rule | invariant | origin |
//! |------|-----------|--------|
//! | `wall-clock` | no `Instant::now`/`SystemTime::now` in result-affecting code | PR 7 |
//! | `shared-rng` | no ambient RNG (`thread_rng`, `rand::random`), no RNG behind a lock or cell (`Mutex`/`RwLock`/`RefCell<…Rng>`) | PR 4 |
//! | `map-iteration` | no `HashMap`/`HashSet` iteration in result paths | PR 4 |
//! | `no-panic` | no `unwrap`/`expect`/`panic!`/`todo!` in serve/runtime | PR 6 |
//! | `float-sort` | `total_cmp`, never `partial_cmp`, in sort/min/max | PR 3 |
//! | `lock-unwrap` | poison recovery, never `.lock().unwrap()` | PR 3 |
//! | `safety-comment` | every `unsafe` carries a `// SAFETY:` | PR 2 |
//! | `seqcst-justify` | every `Ordering::SeqCst` carries a `// SeqCst:` | PR 6 |
//!
//! Scoping lives in [`rule_applies`]: determinism rules cover the
//! result-affecting crates only (telemetry crates like `obs` and the
//! latency/admission modules are exempt by design); panic-freedom
//! covers the serve daemon and the runtime; hygiene rules cover the
//! whole workspace, tests included.

use crate::analyze::FileAnalysis;
use crate::lexer::TokenKind;
use crate::report::{AtomicUse, Diagnostic};

/// Where a file sits inside its crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// `src/` (library code).
    Src,
    /// `src/bin/` (binaries).
    Bin,
    /// `tests/` (integration tests).
    Tests,
    /// `benches/`.
    Benches,
    /// `examples/`.
    Examples,
}

/// A scanned file's place in the workspace.
#[derive(Clone, Debug)]
pub struct FileClass {
    /// Crate directory name (`core`, `serve`, …; the root facade is
    /// `oscar`).
    pub crate_name: String,
    /// Which source tree the file is in.
    pub section: Section,
    /// `::`-joined module path under the section (`usecases::slices`).
    pub module: String,
    /// Path relative to the workspace root (diagnostic display).
    pub rel_path: String,
}

/// Metadata for one rule (drives `unknown-rule` validation and docs).
#[derive(Debug)]
pub struct RuleInfo {
    /// Stable identifier used in diagnostics and `lint:allow(...)`.
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// Every enforceable rule, including the two meta rules emitted by the
/// suppression parser itself.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "wall-clock",
        summary: "no Instant::now/SystemTime::now in result-affecting code",
    },
    RuleInfo {
        id: "shared-rng",
        summary: "no ambient or lock/cell-held RNG in result-affecting code",
    },
    RuleInfo {
        id: "map-iteration",
        summary: "no HashMap/HashSet iteration in result-affecting code",
    },
    RuleInfo {
        id: "no-panic",
        summary: "no unwrap/expect/panic!/todo! in serve or runtime non-test code",
    },
    RuleInfo {
        id: "float-sort",
        summary: "float comparators must use total_cmp, not partial_cmp",
    },
    RuleInfo {
        id: "lock-unwrap",
        summary: "mutex locks must recover from poisoning, not .lock().unwrap()",
    },
    RuleInfo {
        id: "safety-comment",
        summary: "every `unsafe` needs an adjacent // SAFETY: comment",
    },
    RuleInfo {
        id: "seqcst-justify",
        summary: "every Ordering::SeqCst needs an adjacent // SeqCst: comment",
    },
    RuleInfo {
        id: "bare-allow",
        summary: "lint:allow without a `: reason` is itself a violation",
    },
    RuleInfo {
        id: "unknown-rule",
        summary: "lint:allow names a rule that does not exist",
    },
];

/// `true` when `id` names a known rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Crates whose `src/` output feeds job results: the determinism rules
/// (`wall-clock`, `shared-rng`, `map-iteration`) apply here.
/// `obs` (telemetry), `par` (partitioning only — chunk geometry is
/// deterministic by construction, timing is metrics-only), `serve`
/// (wire layer), `bench` (measures time by definition), and `lint`
/// itself are exempt.
const RESULT_CRATES: &[&str] = &[
    "oscar",
    "core",
    "cs",
    "qsim",
    "optim",
    "executor",
    "mitigation",
    "problems",
    "runtime",
];

/// (crate, module) pairs exempt from the determinism rules: telemetry
/// modules inside otherwise result-affecting crates.
const DETERMINISM_EXEMPT: &[(&str, &str)] = &[("executor", "latency")];

/// (crate, module) pairs exempt from `no-panic`: the cfg-gated fault
/// harness is test tooling that lives in `src/` for dev-dependency
/// reasons.
const PANIC_EXEMPT: &[(&str, &str)] = &[("serve", "fault")];

fn exempt(list: &[(&str, &str)], class: &FileClass) -> bool {
    list.iter()
        .any(|(c, m)| *c == class.crate_name && *m == class.module)
}

/// Whether `rule` applies to the file at all (test *regions* inside an
/// applicable file are handled per-site via the analysis mask).
pub fn rule_applies(rule: &str, class: &FileClass) -> bool {
    match rule {
        "wall-clock" | "shared-rng" | "map-iteration" => {
            RESULT_CRATES.contains(&class.crate_name.as_str())
                && class.section == Section::Src
                && !exempt(DETERMINISM_EXEMPT, class)
        }
        "no-panic" => {
            matches!(class.crate_name.as_str(), "serve" | "runtime")
                && matches!(class.section, Section::Src | Section::Bin)
                && !exempt(PANIC_EXEMPT, class)
        }
        "float-sort" | "safety-comment" | "seqcst-justify" => true,
        "lock-unwrap" => matches!(class.section, Section::Src | Section::Bin),
        _ => false,
    }
}

/// Runs every applicable rule over one analyzed file. Returns raw
/// diagnostics (suppression filtering happens in the engine) plus the
/// file's atomic-ordering inventory.
pub fn check_file(class: &FileClass, fa: &FileAnalysis) -> (Vec<Diagnostic>, Vec<AtomicUse>) {
    let mut diags = Vec::new();
    if rule_applies("wall-clock", class) {
        wall_clock(class, fa, &mut diags);
    }
    if rule_applies("shared-rng", class) {
        shared_rng(class, fa, &mut diags);
    }
    if rule_applies("map-iteration", class) {
        map_iteration(class, fa, &mut diags);
    }
    if rule_applies("no-panic", class) {
        no_panic(class, fa, &mut diags);
    }
    if rule_applies("float-sort", class) {
        float_sort(class, fa, &mut diags);
    }
    if rule_applies("lock-unwrap", class) {
        lock_unwrap(class, fa, &mut diags);
    }
    if rule_applies("safety-comment", class) {
        safety_comment(class, fa, &mut diags);
    }
    if rule_applies("seqcst-justify", class) {
        seqcst_justify(class, fa, &mut diags);
    }
    let atomics = atomic_inventory(class, fa);
    (diags, atomics)
}

fn diag(
    class: &FileClass,
    fa: &FileAnalysis,
    ci: usize,
    rule: &str,
    message: String,
) -> Diagnostic {
    let tok = fa.code_tok(ci);
    Diagnostic {
        rule: rule.to_owned(),
        path: class.rel_path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

/// `Instant::now` / `SystemTime::now` outside telemetry. PR 4/7
/// invariant: wall-clock reads stay out of anything that feeds a job
/// result; timing belongs in the obs layer.
fn wall_clock(class: &FileClass, fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for ci in 0..fa.code.len() {
        if fa.code_in_test(ci) {
            continue;
        }
        for ty in ["Instant", "SystemTime"] {
            if fa.is_ident(ci, ty) && fa.is_path_sep(ci + 1) && fa.is_ident(ci + 3, "now") {
                out.push(diag(
                    class,
                    fa,
                    ci,
                    "wall-clock",
                    format!(
                        "`{ty}::now()` in result-affecting code; route timing through \
                         oscar-obs stage spans, or justify with \
                         `// lint:allow(wall-clock): <reason>`"
                    ),
                ));
            }
        }
    }
}

/// Containers that make a generator shared, order-dependent state.
const RNG_HOLDERS: &[&str] = &["Mutex", "RwLock", "RefCell"];

/// Ambient or shared RNG. PR 4 invariant: result paths draw noise from
/// counter-based streams keyed by (seed, index), never from shared or
/// thread-local generator state — neither an ambient generator nor one
/// held behind a lock or cell (`Mutex<StdRng>`), whose draws depend on
/// how many came before.
fn shared_rng(class: &FileClass, fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for ci in 0..fa.code.len() {
        if fa.code_in_test(ci) {
            continue;
        }
        let what = if fa.is_ident(ci, "thread_rng")
            || (fa.is_ident(ci, "rand") && fa.is_path_sep(ci + 1) && fa.is_ident(ci + 3, "random"))
        {
            "ambient RNG"
        } else if RNG_HOLDERS.iter().any(|h| fa.is_ident(ci, h)) && holds_rng(fa, ci + 1) {
            "RNG behind a lock or cell"
        } else {
            continue;
        };
        out.push(diag(
            class,
            fa,
            ci,
            "shared-rng",
            format!(
                "{what} in result-affecting code; use a CounterRng keyed by \
                 (seed, index) so results are independent of evaluation order"
            ),
        ));
    }
}

/// Whether a generic argument list opens at code token `open` and names
/// a random generator type (an identifier containing `Rng`) before it
/// closes.
fn holds_rng(fa: &FileAnalysis, open: usize) -> bool {
    if !fa.is_punct(open, '<') {
        return false;
    }
    let mut depth = 0usize;
    for ci in open..fa.code.len() {
        if fa.is_punct(ci, '<') {
            depth += 1;
        } else if fa.is_punct(ci, '>') && !fa.is_punct(ci - 1, '-') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if fa.code_tok(ci).kind == TokenKind::Ident && fa.code_text(ci).contains("Rng") {
            return true;
        } else if fa.is_punct(ci, ';') || fa.is_punct(ci, '{') {
            return false;
        }
    }
    false
}

/// Methods whose call on a std hash container walks it in arbitrary
/// order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

/// `HashMap`/`HashSet` iteration. PR 4 invariant: hash iteration order
/// is unspecified, so walking one in a result path makes output depend
/// on hasher state. Lookups are fine; ordered walks need a `BTreeMap`
/// or a sorted key list.
///
/// Detection is two-pass: harvest the names of bindings/fields
/// declared as `HashMap`/`HashSet` in this file, then flag
/// `name.iter()`-style calls and `for … in &name {` loops on them.
fn map_iteration(class: &FileClass, fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    // Pass 1: harvest declared names.
    let mut names: Vec<String> = Vec::new();
    for ci in 0..fa.code.len() {
        if !(fa.is_ident(ci, "HashMap") || fa.is_ident(ci, "HashSet")) {
            continue;
        }
        // Walk back over a `std :: collections ::`-style path prefix.
        let mut anchor = ci;
        while anchor >= 3
            && fa.is_path_sep(anchor - 2)
            && fa.code_tok(anchor - 3).kind == TokenKind::Ident
        {
            anchor -= 3;
        }
        if anchor == 0 {
            continue;
        }
        // Skip reference/mut decoration: `foo: &mut HashMap<…>`.
        let mut j = anchor - 1;
        while j > 0
            && (fa.is_punct(j, '&')
                || fa.is_ident(j, "mut")
                || fa.code_tok(j).kind == TokenKind::Lifetime)
        {
            j -= 1;
        }
        // `name : HashMap<…>` (field or binding annotation) or
        // `name = HashMap::new()` (inferred binding).
        let annotated = fa.is_punct(j, ':') && j >= 1 && !fa.is_punct(j - 1, ':');
        let name_idx = if annotated || fa.is_punct(j, '=') {
            j.checked_sub(1)
        } else {
            None
        };
        if let Some(ni) = name_idx {
            if fa.code_tok(ni).kind == TokenKind::Ident {
                let name = fa.code_text(ni).to_owned();
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
    }
    if names.is_empty() {
        return;
    }
    // Pass 2: flag unordered walks over harvested names.
    for ci in 0..fa.code.len() {
        if fa.code_in_test(ci) {
            continue;
        }
        let is_harvested =
            fa.code_tok(ci).kind == TokenKind::Ident && names.iter().any(|n| n == fa.code_text(ci));
        if !is_harvested {
            continue;
        }
        // `name . iter (` and friends.
        if fa.is_punct(ci + 1, '.')
            && ci + 2 < fa.code.len()
            && ITER_METHODS.contains(&fa.code_text(ci + 2))
            && fa.is_punct(ci + 3, '(')
        {
            out.push(diag(
                class,
                fa,
                ci + 2,
                "map-iteration",
                format!(
                    "`{}.{}()` iterates a std hash container in result-affecting \
                     code; hash order is unspecified — use ordered keys, or justify \
                     with `// lint:allow(map-iteration): <reason>`",
                    fa.code_text(ci),
                    fa.code_text(ci + 2)
                ),
            ));
        }
        // `for pat in [&][mut] name {`.
        if fa.is_punct(ci + 1, '{') {
            let mut j = ci;
            while j > 0 && (fa.is_punct(j - 1, '&') || fa.is_ident(j - 1, "mut")) {
                j -= 1;
            }
            if j >= 1 && fa.is_ident(j - 1, "in") {
                out.push(diag(
                    class,
                    fa,
                    ci,
                    "map-iteration",
                    format!(
                        "`for … in {}` iterates a std hash container in \
                         result-affecting code; hash order is unspecified",
                        fa.code_text(ci)
                    ),
                ));
            }
        }
    }
}

/// Panicking calls in the serve daemon and runtime. PR 3/6 invariant:
/// these layers return `Result`/structured errors; a panic kills a
/// connection (serve) or loses a job (runtime).
fn no_panic(class: &FileClass, fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for ci in 0..fa.code.len() {
        if fa.code_in_test(ci) {
            continue;
        }
        // `.unwrap()` / `.expect(` — method position only, so
        // `unwrap_or_else` and friends (distinct identifiers) pass.
        if (fa.is_ident(ci, "unwrap") || fa.is_ident(ci, "expect"))
            && ci >= 1
            && fa.is_punct(ci - 1, '.')
            && fa.is_punct(ci + 1, '(')
        {
            out.push(diag(
                class,
                fa,
                ci,
                "no-panic",
                format!(
                    "`.{}()` in {} non-test code; propagate the error (this layer \
                     must not panic), or justify with \
                     `// lint:allow(no-panic): <reason>`",
                    fa.code_text(ci),
                    class.crate_name
                ),
            ));
        }
        // `panic!(` / `todo!(` / `unimplemented!(`.
        if (fa.is_ident(ci, "panic") || fa.is_ident(ci, "todo") || fa.is_ident(ci, "unimplemented"))
            && fa.is_punct(ci + 1, '!')
        {
            out.push(diag(
                class,
                fa,
                ci,
                "no-panic",
                format!(
                    "`{}!` in {} non-test code; return an error instead",
                    fa.code_text(ci),
                    class.crate_name
                ),
            ));
        }
    }
}

/// Comparator-taking methods whose closure must not use `partial_cmp`.
const SORT_METHODS: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "max_by",
    "min_by",
    "binary_search_by",
];

/// `partial_cmp` inside a sort/min/max comparator. PR 3/4 invariant:
/// `partial_cmp(...).unwrap()` panics on the first NaN (and NaN *does*
/// reach these paths via noisy landscapes); `total_cmp` is total and
/// orders NaN deterministically.
fn float_sort(class: &FileClass, fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for ci in 0..fa.code.len() {
        if !(SORT_METHODS.contains(&fa.code_text(ci))
            && fa.code_tok(ci).kind == TokenKind::Ident
            && fa.is_punct(ci + 1, '('))
        {
            continue;
        }
        // Scan the balanced argument list for `partial_cmp`.
        let mut depth = 0usize;
        let mut j = ci + 1;
        while j < fa.code.len() {
            if fa.is_punct(j, '(') {
                depth += 1;
            } else if fa.is_punct(j, ')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if fa.is_ident(j, "partial_cmp") {
                out.push(diag(
                    class,
                    fa,
                    j,
                    "float-sort",
                    format!(
                        "`partial_cmp` inside `{}` panics or misbehaves on NaN; \
                         use `total_cmp` (NaN-safe, total order)",
                        fa.code_text(ci)
                    ),
                ));
            }
            j += 1;
        }
    }
}

/// `.lock().unwrap()` / `.lock().expect(…)`. PR 3 invariant: a
/// panicked holder poisons the mutex; the data (plain bookkeeping in
/// every crate here) stays valid, so recover the guard with
/// `unwrap_or_else(PoisonError::into_inner)` instead of cascading the
/// panic into every later caller.
fn lock_unwrap(class: &FileClass, fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for ci in 0..fa.code.len() {
        if fa.code_in_test(ci) {
            continue;
        }
        if fa.is_punct(ci, '.')
            && fa.is_ident(ci + 1, "lock")
            && fa.is_punct(ci + 2, '(')
            && fa.is_punct(ci + 3, ')')
            && fa.is_punct(ci + 4, '.')
            && (fa.is_ident(ci + 5, "unwrap") || fa.is_ident(ci + 5, "expect"))
        {
            out.push(diag(
                class,
                fa,
                ci + 5,
                "lock-unwrap",
                "`.lock().unwrap()` cascades a worker panic into every later \
                 caller; recover with `.lock().unwrap_or_else(PoisonError::into_inner)`"
                    .to_owned(),
            ));
        }
    }
}

/// `unsafe` without an adjacent `// SAFETY:` comment (a `# Safety` doc
/// heading counts for `unsafe fn` declarations).
fn safety_comment(class: &FileClass, fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for ci in 0..fa.code.len() {
        if !fa.is_ident(ci, "unsafe") {
            continue;
        }
        let line = fa.code_tok(ci).line;
        if !fa.justified_by_comment(line, &["SAFETY:", "# Safety"]) {
            out.push(diag(
                class,
                fa,
                ci,
                "safety-comment",
                "`unsafe` without an adjacent `// SAFETY:` comment stating the \
                 invariant that makes it sound"
                    .to_owned(),
            ));
        }
    }
}

/// `Ordering::SeqCst` without an adjacent `// SeqCst:` justification.
/// PR 6 invariant: SeqCst is almost never what this codebase needs
/// (acquire/release pairs or relaxed counters cover every pattern in
/// use); an unexplained SeqCst usually marks copy-pasted defensiveness.
fn seqcst_justify(class: &FileClass, fa: &FileAnalysis, out: &mut Vec<Diagnostic>) {
    for ci in 0..fa.code.len() {
        if fa.is_ident(ci, "SeqCst") {
            let line = fa.code_tok(ci).line;
            if !fa.justified_by_comment(line, &["SeqCst:"]) {
                out.push(diag(
                    class,
                    fa,
                    ci,
                    "seqcst-justify",
                    "`SeqCst` without an adjacent `// SeqCst: <why>` comment; \
                     prefer Acquire/Release or Relaxed, or justify the fence"
                        .to_owned(),
                ));
            }
        }
    }
}

/// Tallies `Ordering::<variant>` uses per module (the audit trail
/// behind `seqcst-justify`; exposed in the JSON report).
fn atomic_inventory(class: &FileClass, fa: &FileAnalysis) -> Vec<AtomicUse> {
    const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let module = format!("{}::{}", class.crate_name, class.module);
    let mut counts = [0u32; 5];
    for ci in 0..fa.code.len() {
        if fa.is_ident(ci, "Ordering") && fa.is_path_sep(ci + 1) && ci + 3 < fa.code.len() {
            if let Some(k) = ORDERINGS.iter().position(|o| fa.is_ident(ci + 3, o)) {
                counts[k] += 1;
            }
        }
    }
    ORDERINGS
        .iter()
        .zip(counts)
        .filter(|(_, n)| *n > 0)
        .map(|(o, n)| AtomicUse {
            module: module.clone(),
            ordering: (*o).to_owned(),
            count: n,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(crate_name: &str, section: Section, module: &str) -> FileClass {
        FileClass {
            crate_name: crate_name.to_owned(),
            section,
            module: module.to_owned(),
            rel_path: format!("crates/{crate_name}/src/{module}.rs"),
        }
    }

    fn run(src: &str, class: &FileClass) -> Vec<Diagnostic> {
        let fa = FileAnalysis::new(src);
        check_file(class, &fa).0
    }

    #[test]
    fn wall_clock_fires_in_result_crates_only() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(run(src, &class("core", Section::Src, "landscape")).len(), 1);
        assert!(run(src, &class("obs", Section::Src, "span")).is_empty());
        assert!(run(src, &class("bench", Section::Src, "lib")).is_empty());
        assert!(run(src, &class("executor", Section::Src, "latency")).is_empty());
    }

    #[test]
    fn float_sort_catches_nested_partial_cmp() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let d = run(src, &class("lint", Section::Src, "x"));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "float-sort");
        let ok = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(run(ok, &class("lint", Section::Src, "x")).is_empty());
    }

    #[test]
    fn partial_cmp_impl_definition_not_flagged() {
        // Defining PartialOrd::partial_cmp is fine — only comparator
        // closures passed to sorts are checked.
        let src =
            "impl PartialOrd for X { fn partial_cmp(&self, o: &X) -> Option<Ordering> { None } }";
        assert!(run(src, &class("runtime", Section::Src, "scheduler")).is_empty());
    }

    #[test]
    fn lock_unwrap_requires_poison_recovery() {
        let bad = "fn f() { let g = m.lock().unwrap(); }";
        let d = run(bad, &class("par", Section::Src, "pool"));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lock-unwrap");
        let good = "fn f() { let g = m.lock().unwrap_or_else(PoisonError::into_inner); }";
        assert!(run(good, &class("par", Section::Src, "pool")).is_empty());
    }

    #[test]
    fn no_panic_scope_is_serve_and_runtime() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(run(src, &class("serve", Section::Src, "daemon")).len(), 1);
        assert_eq!(run(src, &class("runtime", Section::Src, "job")).len(), 1);
        assert!(run(src, &class("cs", Section::Src, "fft")).is_empty());
        assert!(run(src, &class("serve", Section::Src, "fault")).is_empty());
        // unwrap_or_else is a different identifier.
        let ok = "fn f() { x.unwrap_or_else(|| 3); }";
        assert!(run(ok, &class("serve", Section::Src, "daemon")).is_empty());
    }

    #[test]
    fn test_regions_are_exempt_from_no_panic() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n";
        assert!(run(src, &class("serve", Section::Src, "daemon")).is_empty());
    }

    #[test]
    fn safety_comment_required_for_unsafe() {
        let bad = "fn f() { let x = unsafe { *p }; }";
        let d = run(bad, &class("par", Section::Src, "pool"));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "safety-comment");
        let good =
            "fn f() {\n    // SAFETY: p is valid for the call.\n    let x = unsafe { *p };\n}";
        assert!(run(good, &class("par", Section::Src, "pool")).is_empty());
        let doc = "/// # Safety\n/// Caller must hold the lock.\nunsafe fn g() {}";
        assert!(run(doc, &class("par", Section::Src, "pool")).is_empty());
    }

    #[test]
    fn seqcst_needs_justification() {
        let bad = "fn f() { FLAG.store(true, Ordering::SeqCst); }";
        let d = run(bad, &class("serve", Section::Bin, "oscar_serve"));
        assert!(d.iter().any(|d| d.rule == "seqcst-justify"));
        let good = "fn f() {\n    // SeqCst: pairs with the drain fence in shutdown().\n    FLAG.store(true, Ordering::SeqCst);\n}";
        assert!(run(good, &class("serve", Section::Bin, "oscar_serve")).is_empty());
    }

    #[test]
    fn map_iteration_detects_harvested_names() {
        let src = "struct C { map: HashMap<u64, u32> }\nimpl C {\n  fn f(&self) { for v in self.map.values() { use_it(v); } }\n}";
        let d = run(src, &class("runtime", Section::Src, "cache"));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "map-iteration");
        // Lookups are fine.
        let ok =
            "struct C { map: HashMap<u64, u32> }\nimpl C { fn f(&self) { self.map.get(&1); } }";
        assert!(run(ok, &class("runtime", Section::Src, "cache")).is_empty());
    }

    #[test]
    fn map_iteration_harvests_let_bindings() {
        let src = "fn f() { let mut seen = std::collections::HashSet::new(); seen.insert(1); for x in &seen {} }";
        let d = run(src, &class("qsim", Section::Src, "rng"));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn shared_rng_flagged() {
        let src = "fn f() { let mut rng = thread_rng(); }";
        assert_eq!(run(src, &class("qsim", Section::Src, "noise")).len(), 1);
    }

    #[test]
    fn atomic_inventory_counts_per_module() {
        let src = "fn f() { a.load(Ordering::Acquire); b.store(1, Ordering::Release); c.load(Ordering::Acquire); }";
        let fa = FileAnalysis::new(src);
        let (_, atomics) = check_file(&class("par", Section::Src, "pool"), &fa);
        assert_eq!(
            atomics,
            vec![
                AtomicUse {
                    module: "par::pool".into(),
                    ordering: "Acquire".into(),
                    count: 2
                },
                AtomicUse {
                    module: "par::pool".into(),
                    ordering: "Release".into(),
                    count: 1
                },
            ]
        );
    }
}
