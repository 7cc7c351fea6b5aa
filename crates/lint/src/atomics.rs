//! The `ORDERING` protocol check: every weak atomic access in the scoped
//! crates carries an `// ORDERING:` comment, and the protocol the comments
//! claim is *coherent*. The comments follow a machine-readable grammar;
//! this module extracts every atomic field and its load/store/RMW
//! orderings across all scoped crates and verifies the pairings claimed.
//!
//! # The grammar
//!
//! ```text
//! // ORDERING: <ord>[/<ord>]* [; site: <tag>] [; pairs-with: <field>.<tag>[, …]] [— prose]
//! ```
//!
//! * the head names the orderings the site uses (`Release`,
//!   `AcqRel/Relaxed`, …) — every named ordering must actually appear at
//!   the site, so a comment cannot silently go stale;
//! * `site: <tag>` gives this access a name other sites can pair with
//!   (the tag is scoped to the atomic *field* the access touches);
//! * `pairs-with: <field>.<tag>` claims this access synchronizes with the
//!   named site — the reference must resolve to a declared tag;
//! * everything after an em dash (`—`) is free prose.
//!
//! # What is checked
//!
//! 1. every weak (non-`SeqCst`) access has an annotation, and it parses
//!    (a missing comment or unparseable grammar is a finding — one per
//!    access, at the operation's line, however its arguments wrap);
//! 2. declared orderings match the site (stale comments are findings);
//! 3. a `Relaxed`-only access must not claim publication (a `pairs-with`
//!    clause or "publishes" prose on a Relaxed access is a finding —
//!    Relaxed neither publishes nor observes publication);
//! 4. every `pairs-with` reference resolves to an existing `site:` tag on
//!    the named field (dangling tags are findings);
//! 5. field-level pairing: a weak `Release`/`AcqRel` write on field `f`
//!    with *no* `Acquire`-capable read of `f` anywhere in the scoped
//!    crates is unpaired (and vice versa for `Acquire` reads).
//!
//! The field analysis is name-based (`self.pending.fetch_sub(…)` → field
//! `pending`), which makes checks 4–5 heuristic in the presence of
//! same-named fields on different structs: two such fields are pooled, so
//! the analysis can miss an unpaired store but never invents a pairing
//! site that does not exist. DESIGN.md §12 spells out the sound/heuristic
//! split.

use crate::checks::{Check, Finding};
use crate::scan::{find_word, SourceLine};
use std::collections::{BTreeMap, BTreeSet};

/// One memory-ordering token.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ord {
    /// `Ordering::Relaxed`.
    Relaxed,
    /// `Ordering::Acquire`.
    Acquire,
    /// `Ordering::Release`.
    Release,
    /// `Ordering::AcqRel`.
    AcqRel,
    /// `Ordering::SeqCst` (never *requires* annotation, but participates
    /// in pairing: a SeqCst load is an acquire-capable read).
    SeqCst,
}

impl Ord {
    fn parse(token: &str) -> Option<Ord> {
        match token {
            "Relaxed" => Some(Ord::Relaxed),
            "Acquire" => Some(Ord::Acquire),
            "Release" => Some(Ord::Release),
            "AcqRel" => Some(Ord::AcqRel),
            "SeqCst" => Some(Ord::SeqCst),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Ord::Relaxed => "Relaxed",
            Ord::Acquire => "Acquire",
            Ord::Release => "Release",
            Ord::AcqRel => "AcqRel",
            Ord::SeqCst => "SeqCst",
        }
    }
}

/// What kind of access an atomic call site is.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `.load(…)` — read-only.
    Load,
    /// `.store(…)` — write-only.
    Store,
    /// `.swap` / `.fetch_*` / `.compare_exchange*` — read *and* write.
    Rmw,
    /// An ordering token with no attached atomic call (helper arguments,
    /// fences). Excluded from pairing, still requires an annotation.
    Bare,
}

/// The atomic method names the extractor recognizes, longest-prefix first
/// so `compare_exchange_weak` wins over `compare_exchange`.
const OPS: &[(&str, OpKind)] = &[
    (".compare_exchange_weak(", OpKind::Rmw),
    (".compare_exchange(", OpKind::Rmw),
    (".fetch_update(", OpKind::Rmw),
    (".fetch_add(", OpKind::Rmw),
    (".fetch_sub(", OpKind::Rmw),
    (".fetch_and(", OpKind::Rmw),
    (".fetch_or(", OpKind::Rmw),
    (".fetch_xor(", OpKind::Rmw),
    (".fetch_min(", OpKind::Rmw),
    (".fetch_max(", OpKind::Rmw),
    (".fetch_nand(", OpKind::Rmw),
    (".swap(", OpKind::Rmw),
    (".load(", OpKind::Load),
    (".store(", OpKind::Store),
];

const ALL_ORDS: &[Ord] = &[Ord::Relaxed, Ord::Acquire, Ord::Release, Ord::AcqRel, Ord::SeqCst];

/// One extracted atomic access.
#[derive(Clone, Debug)]
pub struct AtomicSite {
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line of the atomic call (its first line when wrapped).
    pub line: usize,
    /// The receiver's final field/variable name, if extractable.
    pub field: Option<String>,
    /// Access kind.
    pub op: OpKind,
    /// Every ordering token in the call's argument span.
    pub ords: BTreeSet<Ord>,
    /// The parsed annotation, its parse error, or `None` when the site has
    /// no `ORDERING:` comment at all.
    pub ann: Option<Result<Annotation, String>>,
}

impl AtomicSite {
    fn has(&self, o: Ord) -> bool {
        self.ords.contains(&o)
    }

    /// Weak = any non-SeqCst ordering (the annotation trigger; `SeqCst` is
    /// the conservative default, and demanding a comment for it would only
    /// invite downgrades).
    fn is_weak(&self) -> bool {
        self.ords.iter().any(|o| *o != Ord::SeqCst)
    }

    /// Can this access publish (release-capable write)?
    fn releases(&self) -> bool {
        matches!(self.op, OpKind::Store | OpKind::Rmw)
            && (self.has(Ord::Release) || self.has(Ord::AcqRel) || self.has(Ord::SeqCst))
    }

    /// Can this access observe a publication (acquire-capable read)?
    fn acquires(&self) -> bool {
        matches!(self.op, OpKind::Load | OpKind::Rmw)
            && (self.has(Ord::Acquire) || self.has(Ord::AcqRel) || self.has(Ord::SeqCst))
    }
}

/// A parsed `ORDERING:` annotation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Annotation {
    /// Orderings the head declares.
    pub declared: BTreeSet<Ord>,
    /// The `site:` tag, if declared.
    pub site_tag: Option<String>,
    /// Every `pairs-with: field.tag` reference.
    pub pairs_with: Vec<(String, String)>,
    /// Free prose after the em dash (plus any continuation lines).
    pub prose: String,
}

/// Parse the text after `ORDERING:` on one comment line.
pub fn parse_annotation(text: &str) -> Result<Annotation, String> {
    let mut ann = Annotation::default();
    // Everything after the first em dash is prose.
    let (clauses, prose) = match text.split_once('—') {
        Some((c, p)) => (c, p.trim().to_string()),
        None => (text, String::new()),
    };
    ann.prose = prose;
    let mut parts = clauses.split(';');
    let head = parts.next().unwrap_or("").trim();
    if head.is_empty() {
        return Err("empty ordering head".to_string());
    }
    for token in head.split(['/', ',']).map(str::trim).filter(|t| !t.is_empty()) {
        match Ord::parse(token) {
            Some(o) => {
                ann.declared.insert(o);
            }
            None => {
                return Err(format!(
                    "head token `{token}` is not an ordering (want Relaxed/Acquire/Release/AcqRel, \
                     `/`-separated; prose goes after an em dash)"
                ))
            }
        }
    }
    for clause in parts {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let Some((key, value)) = clause.split_once(':') else {
            return Err(format!("clause `{clause}` has no `key:` prefix"));
        };
        let value = value.trim();
        match key.trim() {
            "site" => {
                if !is_tag(value) {
                    return Err(format!("site tag `{value}` is not a bare identifier"));
                }
                if ann.site_tag.replace(value.to_string()).is_some() {
                    return Err("duplicate `site:` clause".to_string());
                }
            }
            "pairs-with" => {
                for r in value.split(',').map(str::trim).filter(|r| !r.is_empty()) {
                    let Some((field, tag)) = r.split_once('.') else {
                        return Err(format!("pairs-with reference `{r}` is not `<field>.<tag>`"));
                    };
                    if !is_tag(field) || !is_tag(tag) {
                        return Err(format!("pairs-with reference `{r}` is not `<field>.<tag>`"));
                    }
                    ann.pairs_with.push((field.to_string(), tag.to_string()));
                }
                if ann.pairs_with.is_empty() {
                    return Err("empty `pairs-with:` clause".to_string());
                }
            }
            other => return Err(format!("unknown clause key `{other}`")),
        }
    }
    Ok(ann)
}

fn is_tag(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Extract every atomic access (and bare ordering token) from one scanned
/// file. Test code is skipped (tests use `Relaxed` counters to assert
/// totals, not to synchronize).
pub fn extract_sites(path: &str, lines: &[SourceLine]) -> Vec<AtomicSite> {
    // Flatten the code channel so call spans can cross line breaks
    // (rustfmt wraps `compare_exchange` argument lists).
    let mut flat = String::new();
    let mut line_of = Vec::new(); // byte offset -> line index
    for (idx, l) in lines.iter().enumerate() {
        for _ in 0..l.code.len() + 1 {
            line_of.push(idx);
        }
        flat.push_str(&l.code);
        flat.push('\n');
    }
    let mut consumed = vec![false; flat.len()]; // ordering tokens already attributed
    let mut sites = Vec::new();

    let mut pos = 0usize;
    while pos < flat.len() {
        // The earliest op occurrence at or after `pos`; longest pattern
        // wins on ties so `compare_exchange_weak` is not split.
        let mut best: Option<(usize, &str, OpKind)> = None;
        for &(pat, kind) in OPS {
            if let Some(at) = flat[pos..].find(pat) {
                let at = pos + at;
                let better = match best {
                    None => true,
                    Some((b, bp, _)) => at < b || (at == b && pat.len() > bp.len()),
                };
                if better {
                    best = Some((at, pat, kind));
                }
            }
        }
        let Some((at, pat, kind)) = best else { break };
        let line_idx = line_of[at];
        let span_end = close_of(&flat, at + pat.len() - 1);
        if lines[line_idx].in_test {
            pos = at + pat.len();
            continue;
        }
        let mut ords = BTreeSet::new();
        for &o in ALL_ORDS {
            for w in find_word(&flat[at..span_end], o.name()) {
                ords.insert(o);
                for b in consumed.iter_mut().skip(at + w).take(o.name().len()) {
                    *b = true;
                }
            }
        }
        if !ords.is_empty() {
            sites.push(AtomicSite {
                path: path.to_string(),
                line: lines[line_idx].number,
                field: receiver_field(&flat, at),
                op: kind,
                ords,
                ann: annotation_for(lines, line_idx),
            });
        }
        // Nested atomic calls inside the span (a load inside a
        // `fetch_update` closure) are folded into the outer site: resume
        // after the op token, but orderings already consumed above are
        // not re-attributed.
        pos = at + pat.len();
    }

    // Ordering tokens outside any call span: helper arguments, fences.
    // They still require a (parseable) annotation but cannot pair.
    for &o in ALL_ORDS {
        if o == Ord::SeqCst {
            continue;
        }
        let needle = format!("Ordering::{}", o.name());
        let mut from = 0usize;
        while let Some(found) = flat[from..].find(&needle) {
            let at = from + found;
            from = at + needle.len();
            let tok = at + needle.len() - o.name().len();
            if consumed[tok] {
                continue;
            }
            let line_idx = line_of[at];
            if lines[line_idx].in_test {
                continue;
            }
            if sites
                .iter()
                .any(|s| s.line == lines[line_idx].number && s.op == OpKind::Bare && s.has(o))
            {
                continue;
            }
            sites.push(AtomicSite {
                path: path.to_string(),
                line: lines[line_idx].number,
                field: None,
                op: OpKind::Bare,
                ords: BTreeSet::from([o]),
                ann: annotation_for(lines, line_idx),
            });
        }
    }
    sites.sort_by_key(|s| s.line);
    sites
}

/// Byte offset one past the `)` closing the call whose `(` sits at `open`.
fn close_of(flat: &str, open: usize) -> usize {
    let bytes = flat.as_bytes();
    let mut depth = 0i64;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    flat.len()
}

/// The receiver's final field/variable name for the call whose `.method(`
/// starts at `dot`: the identifier directly before the dot, skipping one
/// index or call suffix (`slots[i].claimed` → `claimed`; `flag().load` →
/// `flag`).
fn receiver_field(flat: &str, dot: usize) -> Option<String> {
    let bytes = flat.as_bytes();
    let mut i = dot;
    // Rustfmt may break the chain before the dot (`slot\n.claimed\n.load`):
    // whitespace between receiver and dot is not a boundary.
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    // Skip a `[…]` or `(…)` suffix back to its opener.
    if i > 0 && (bytes[i - 1] == b']' || bytes[i - 1] == b')') {
        let (close, open) = if bytes[i - 1] == b']' { (b']', b'[') } else { (b')', b'(') };
        let mut depth = 0i64;
        while i > 0 {
            i -= 1;
            if bytes[i] == close {
                depth += 1;
            } else if bytes[i] == open {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
    }
    let end = i;
    while i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        i -= 1;
    }
    if i == end {
        return None;
    }
    let name = &flat[i..end];
    if name == "self" || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name.to_string())
}

/// Find and parse the `ORDERING:` comment covering the site at `idx`:
/// same-line first, then the contiguous run of comment / attribute /
/// wrapped-statement lines above, stepping over at most one sibling atomic
/// line (one comment may cover a stacked pair).
fn annotation_for(lines: &[SourceLine], idx: usize) -> Option<Result<Annotation, String>> {
    let parse = |l: &SourceLine| {
        l.comment.find("ORDERING:").map(|at| parse_annotation(&l.comment[at + "ORDERING:".len()..]))
    };
    if let Some(p) = parse(&lines[idx]) {
        return Some(p);
    }
    let mut extra_hops = 0usize;
    let mut i = idx;
    let mut seen = 0usize;
    while i > 0 && seen < 16 {
        i -= 1;
        let l = &lines[i];
        let comment_only = l.is_code_blank() && !l.comment.is_empty();
        if comment_only || l.is_attribute() {
            if let Some(p) = parse(l) {
                return Some(p);
            }
            seen += 1;
            continue;
        }
        let t = l.code.trim();
        let carrier = !t.is_empty() && !t.ends_with(';') && !t.ends_with('}');
        let sibling =
            ALL_ORDS.iter().any(|o| *o != Ord::SeqCst && !find_word(&l.code, o.name()).is_empty());
        if carrier
            || (sibling && {
                extra_hops += 1;
                extra_hops <= 1
            })
        {
            seen += 1;
            continue;
        }
        break;
    }
    None
}

/// Per-site annotation findings (checks 1–3 of the module docs).
pub fn check_annotations(sites: &[AtomicSite]) -> Vec<Finding> {
    let mut out = Vec::new();
    for s in sites {
        if !s.is_weak() {
            continue;
        }
        let ann = match &s.ann {
            None => {
                out.push(finding(
                    s,
                    "non-SeqCst atomic ordering without an `// ORDERING:` justification"
                        .to_string(),
                ));
                continue;
            }
            Some(Err(why)) => {
                out.push(finding(
                    s,
                    format!(
                    "unparseable ORDERING annotation: {why} (grammar: `ORDERING: <ord>[/<ord>]; \
                     site: <tag>; pairs-with: <field>.<tag> — prose`)"
                ),
                ));
                continue;
            }
            Some(Ok(ann)) => ann,
        };
        for &o in &ann.declared {
            if !s.has(o) {
                out.push(finding(
                    s,
                    format!(
                        "ORDERING annotation declares `{}` but the site's orderings are [{}] — \
                     stale comment or wrong site",
                        o.name(),
                        s.ords.iter().map(|o| o.name()).collect::<Vec<_>>().join(", ")
                    ),
                ));
            }
        }
        let relaxed_only = s.ords.iter().all(|o| *o == Ord::Relaxed);
        if relaxed_only {
            let claims_pairing = !ann.pairs_with.is_empty();
            let claims_prose = !find_word(&ann.prose, "publishes").is_empty()
                || !find_word(&ann.prose, "publish").is_empty();
            if claims_pairing || claims_prose {
                out.push(finding(s, format!(
                    "`Relaxed`-only access claims publication ({}) — Relaxed neither publishes \
                     nor observes publication; use Release/Acquire or drop the claim",
                    if claims_pairing { "has a pairs-with clause" } else { "prose says it publishes" }
                )));
            }
        }
        if ann.site_tag.is_some() && s.field.is_none() {
            out.push(finding(
                s,
                "`site:` tag on an access with no extractable field — name the atomic \
                 (`<field>.load(…)`) so pairs-with references can resolve"
                    .to_string(),
            ));
        }
    }
    out
}

/// Workspace-wide pairing findings (checks 4–5): run once over every
/// scoped file's sites.
pub fn check_pairing(all: &[AtomicSite]) -> Vec<Finding> {
    let mut out = Vec::new();
    // field -> declared site tags
    let mut tags: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    // field -> (has release-capable write, has acquire-capable read)
    let mut caps: BTreeMap<&str, (bool, bool)> = BTreeMap::new();
    for s in all {
        let Some(field) = &s.field else { continue };
        if let Some(Ok(ann)) = &s.ann {
            if let Some(tag) = &ann.site_tag {
                tags.entry(field).or_default().insert(tag);
            }
        }
        let e = caps.entry(field).or_default();
        e.0 |= s.releases();
        e.1 |= s.acquires();
    }
    for s in all {
        if let Some(Ok(ann)) = &s.ann {
            for (field, tag) in &ann.pairs_with {
                let known = tags.get(field.as_str()).is_some_and(|t| t.contains(tag.as_str()));
                if !known {
                    out.push(finding(
                        s,
                        format!(
                            "dangling pairs-with tag `{field}.{tag}`: no atomic access on field \
                         `{field}` declares `site: {tag}`"
                        ),
                    ));
                }
            }
        }
        let Some(field) = &s.field else { continue };
        let (any_release, any_acquire) = caps[field.as_str()];
        if (s.has(Ord::Release) || s.has(Ord::AcqRel))
            && matches!(s.op, OpKind::Store | OpKind::Rmw)
            && !any_acquire
        {
            out.push(finding(
                s,
                format!(
                "unpaired `Release` write: no Acquire/AcqRel read of `{field}` anywhere in the \
                 scoped crates — nothing can observe this publication"
            ),
            ));
        }
        if (s.has(Ord::Acquire) || s.has(Ord::AcqRel))
            && matches!(s.op, OpKind::Load | OpKind::Rmw)
            && !any_release
        {
            out.push(finding(
                s,
                format!(
                "`Acquire` read with no matching release: no Release/AcqRel write of `{field}` \
                 anywhere in the scoped crates — there is no publication to observe"
            ),
            ));
        }
    }
    out
}

fn finding(s: &AtomicSite, message: String) -> Finding {
    Finding { check: Check::Atomics, path: s.path.clone(), line: s.line, message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn sites(src: &str) -> Vec<AtomicSite> {
        extract_sites("crates/tasks/src/x.rs", &scan(src))
    }

    #[test]
    fn grammar_parses_head_site_and_pairs_with() {
        let a = parse_annotation(" Release; site: publish; pairs-with: done.check — hands off.")
            .unwrap();
        assert_eq!(a.declared, BTreeSet::from([Ord::Release]));
        assert_eq!(a.site_tag.as_deref(), Some("publish"));
        assert_eq!(a.pairs_with, vec![("done".into(), "check".into())]);
        assert_eq!(a.prose, "hands off.");

        let b = parse_annotation(" AcqRel/Relaxed — CAS with relaxed failure.").unwrap();
        assert_eq!(b.declared, BTreeSet::from([Ord::AcqRel, Ord::Relaxed]));
        assert!(b.site_tag.is_none() && b.pairs_with.is_empty());
    }

    #[test]
    fn grammar_rejects_prose_heads_and_unknown_clauses() {
        assert!(parse_annotation(" Release pairs with the Acquire load").is_err());
        assert!(parse_annotation(" Relaxed; paired: x.y").is_err());
        assert!(parse_annotation(" Release; pairs-with: noField").is_err());
        assert!(parse_annotation("").is_err());
    }

    #[test]
    fn extraction_finds_field_op_and_wrapped_orderings() {
        let src = "\
// ORDERING: AcqRel/Relaxed — CAS retry loop.
self.reserved.compare_exchange(
    cur,
    next,
    Ordering::AcqRel,
    Ordering::Relaxed,
);
";
        let s = sites(src);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].field.as_deref(), Some("reserved"));
        assert_eq!(s[0].op, OpKind::Rmw);
        assert_eq!(s[0].ords, BTreeSet::from([Ord::AcqRel, Ord::Relaxed]));
        assert!(matches!(&s[0].ann, Some(Ok(_))));
    }

    #[test]
    fn indexed_receivers_resolve_to_the_field() {
        let src =
            "self.slots[slot].claimed.store(false, Ordering::Release); // ORDERING: Release — x\n";
        let s = sites(src);
        assert_eq!(s[0].field.as_deref(), Some("claimed"));
        assert_eq!(s[0].op, OpKind::Store);
    }

    #[test]
    fn bare_ordering_tokens_are_sites_without_fields() {
        let src = "// ORDERING: Release — fence before handoff.\nstd::sync::atomic::fence(Ordering::Release);\n";
        let s = sites(src);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].op, OpKind::Bare);
        assert!(s[0].field.is_none());
    }

    #[test]
    fn unannotated_wrapped_cas_is_one_finding_at_the_operation() {
        let src = "\
fn f() {
    x.compare_exchange_weak(
        cur,
        new,
        Ordering::AcqRel,
        Ordering::Relaxed,
    );
}
";
        let f = check_annotations(&sites(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("without an `// ORDERING:`"), "{}", f[0].message);
    }

    #[test]
    fn stale_declared_ordering_is_flagged() {
        let src = "// ORDERING: Acquire — stale.\nflag.store(true, Ordering::Release);\n";
        let f = check_annotations(&sites(src));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("declares `Acquire`"), "{}", f[0].message);
    }

    #[test]
    fn relaxed_claiming_publication_is_flagged_both_ways() {
        let by_clause =
            "// ORDERING: Relaxed; pairs-with: f.t — counter.\nc.fetch_add(1, Ordering::Relaxed);\n";
        let f = check_annotations(&sites(by_clause));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("claims publication"));

        let by_prose =
            "// ORDERING: Relaxed — publishes the flag.\nc.store(1, Ordering::Relaxed);\n";
        let f = check_annotations(&sites(by_prose));
        assert_eq!(f.len(), 1, "{f:?}");

        let honest = "// ORDERING: Relaxed — monotonic statistics counter.\nc.fetch_add(1, Ordering::Relaxed);\n";
        assert!(check_annotations(&sites(honest)).is_empty());
    }

    #[test]
    fn pairing_resolves_tags_and_flags_dangles() {
        let good = "\
// ORDERING: Release; site: publish — hand off.
flag.store(true, Ordering::Release);
// ORDERING: Acquire; pairs-with: flag.publish — observe.
flag.load(Ordering::Acquire);
";
        let s = sites(good);
        assert!(check_pairing(&s).is_empty(), "{:?}", check_pairing(&s));

        let dangling = "\
// ORDERING: Release; site: publish — hand off.
flag.store(true, Ordering::Release);
// ORDERING: Acquire; pairs-with: flag.nosuch — observe.
flag.load(Ordering::Acquire);
";
        let f = check_pairing(&sites(dangling));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("dangling pairs-with tag `flag.nosuch`"));
    }

    #[test]
    fn unpaired_release_and_acquire_are_flagged() {
        let f = check_pairing(&sites(
            "// ORDERING: Release — nobody reads this.\nflag.store(true, Ordering::Release);\n",
        ));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unpaired `Release` write"));

        let f = check_pairing(&sites(
            "// ORDERING: Acquire — nobody ever released.\nflag.load(Ordering::Acquire);\n",
        ));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("no matching release"));
    }

    #[test]
    fn cas_acquire_read_pairs_with_release_store() {
        // The claim/release slot protocol: CAS(Acquire) is the reader,
        // store(Release) the writer — no findings either direction.
        let src = "\
// ORDERING: Acquire/Relaxed; site: claim — new holder sees prior slot writes.
if c.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok() {}
// ORDERING: Release; pairs-with: c.claim — un-claim publishes slot state.
c.store(false, Ordering::Release);
";
        let s = sites(src);
        assert!(check_annotations(&s).is_empty(), "{:?}", check_annotations(&s));
        assert!(check_pairing(&s).is_empty(), "{:?}", check_pairing(&s));
    }

    #[test]
    fn seqcst_sites_need_no_annotation_but_satisfy_pairing() {
        let src = "\
// ORDERING: Acquire — pairs with the SeqCst RMW below.
flag.load(Ordering::Acquire);
flag.fetch_or(true, Ordering::SeqCst);
";
        let s = sites(src);
        assert!(check_pairing(&s).is_empty(), "{:?}", check_pairing(&s));
        assert!(check_annotations(&s).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { c.store(1, Ordering::Release); }
}
";
        assert!(sites(src).is_empty());
    }
}
