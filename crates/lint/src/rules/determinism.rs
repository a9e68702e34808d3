//! Determinism lints.
//!
//! The workspace's reproducibility guarantee (same seed → byte-identical
//! journals, bit-exact experiment results) rests on two bans, enforced
//! here for *all* workspace code, tests included — a test that iterates a
//! `HashMap` or reads the wall clock is exactly how flaky comparisons
//! sneak in:
//!
//! * **No ambient time** — `Instant::now` / `SystemTime`: the simulation
//!   has exactly one clock, `eadt_sim::SimTime`.
//! * **No ambient randomness** — `thread_rng` / `rand::random`: every
//!   stochastic choice flows through an explicitly seeded
//!   `eadt_sim::SimRng` (fork child streams by label).
//! * **No iteration-order-unstable collections** — `HashMap` / `HashSet`:
//!   use `BTreeMap` / `BTreeSet`, whose iteration order is part of their
//!   contract.
//!
//! The one sanctioned home for raw RNG plumbing is
//! `crates/sim/src/rng.rs`, granted through `lint-allow.toml` rather than
//! hardcoded here.

use super::Violation;
use crate::lexer::{Spanned, Tok};

/// Identifiers forbidden wherever they appear.
const FORBIDDEN_IDENTS: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order is unstable; use BTreeMap (determinism policy, DESIGN.md §10)",
    ),
    (
        "HashSet",
        "iteration order is unstable; use BTreeSet (determinism policy, DESIGN.md §10)",
    ),
    (
        "SystemTime",
        "wall-clock reads break reproducibility; use eadt_sim::SimTime",
    ),
    (
        "thread_rng",
        "ambient randomness breaks reproducibility; use a seeded eadt_sim::SimRng",
    ),
];

/// Runs the determinism lints over one file's token stream.
pub fn check(path: &str, toks: &[Spanned]) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let Tok::Ident(name) = &t.tok else { continue };
        for (bad, why) in FORBIDDEN_IDENTS {
            if name == bad {
                out.push(Violation {
                    rule: "determinism",
                    path: path.to_string(),
                    line: t.line,
                    message: format!("`{bad}`: {why}"),
                });
            }
        }
        // `Instant::now` — the type alone is fine (rare in signatures of
        // vendored-API shims), the clock read is not.
        if name == "Instant" && path_call(toks, i, "now") {
            out.push(Violation {
                rule: "determinism",
                path: path.to_string(),
                line: t.line,
                message:
                    "`Instant::now`: wall-clock reads break reproducibility; use eadt_sim::SimTime"
                        .into(),
            });
        }
        // Ad-hoc threading: `thread::spawn` / `thread::scope`. Worker
        // pools threaten merge-order determinism unless results are
        // reassembled by job index; that discipline lives in the fleet's
        // one worker pool (`eadt_fleet`'s `with_pool`), whose spawn site
        // is allowlisted.
        if name == "thread" && (path_call(toks, i, "spawn") || path_call(toks, i, "scope")) {
            out.push(Violation {
                rule: "determinism",
                path: path.to_string(),
                line: t.line,
                message: "`thread::spawn`/`thread::scope`: ad-hoc threading risks order-dependent results; run batches through eadt_fleet::Session".into(),
            });
        }
        // Argless `rand::random`.
        if name == "rand" && path_call(toks, i, "random") {
            out.push(Violation {
                rule: "determinism",
                path: path.to_string(),
                line: t.line,
                message: "`rand::random`: ambient randomness breaks reproducibility; use a seeded eadt_sim::SimRng".into(),
            });
        }
    }
    out
}

/// True when token `i` is followed by `:: segment`.
fn path_call(toks: &[Spanned], i: usize, segment: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(segment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn run(src: &str) -> Vec<Violation> {
        check("x.rs", &tokenize(src))
    }

    #[test]
    fn flags_hash_collections_and_ambient_time() {
        let src = "use std::collections::HashMap;\nlet t = std::time::Instant::now();";
        let v = run(src);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].message.contains("BTreeMap"));
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn flags_ambient_randomness() {
        let v = run("let x: u64 = rand::random();\nlet mut r = rand::thread_rng();");
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn flags_ad_hoc_threading() {
        let v = run("std::thread::spawn(|| work());\nstd::thread::scope(|s| {});");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].message.contains("eadt_fleet::Session"));
        assert_eq!(v[1].line, 2);
    }

    #[test]
    fn clean_code_passes() {
        let src = r#"
            // HashMap only in a comment, "Instant::now" only in a string
            use std::collections::BTreeMap;
            let s = "thread_rng";
            let rng = SimRng::new(42);
            let t = SimTime::ZERO;
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn instant_type_without_clock_read_passes() {
        assert!(run("fn shim(t: Instant) -> Instant { t }").is_empty());
    }
}
