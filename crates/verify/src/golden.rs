//! Committed golden waveform snapshots.
//!
//! Every deck in [`diff::decks`] renders a canonical, decimated JSON
//! artifact ([`diff::snapshot_json`]), once clean and once under each
//! seeded fault plan of [`diff::FAULT_SEEDS`]
//! ([`diff::faulted_snapshot_json`], named `<deck>.fault<seed>`). The
//! blessed copies live in
//! `crates/verify/golden/*.json`; [`check`] demands a byte-for-byte
//! match, and [`bless`] rewrites them. CI runs check mode (via
//! `cargo run -p nemscmos-verify --bin golden`); a developer who
//! intentionally changes solver behaviour re-blesses with `-- --bless`
//! and reviews the waveform diff like any other code change.
//!
//! Artifacts are digest-stable because the JSON renderer prints `f64`
//! via the shortest round-trip form and the simulations are fully
//! deterministic (fixed decks, fixed options, no wall clock, no
//! threading in the values themselves).

use std::fs;
use std::path::{Path, PathBuf};

use crate::diff;

/// One named golden artifact: its name and its rendered JSON.
pub struct Artifact {
    /// Deck name, plus `.fault<seed>` for a faulted run (also the file
    /// stem under `golden/`).
    pub name: String,
    /// Canonical rendered JSON, trailing newline included.
    pub rendered: String,
}

/// The directory holding the blessed snapshots.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Renders every deck's clean and faulted artifacts (runs the
/// simulations).
pub fn artifacts() -> Vec<Artifact> {
    let fleet = diff::decks();
    let clean = fleet.iter().map(|d| Artifact {
        name: d.name.to_string(),
        rendered: diff::snapshot_json(d).render() + "\n",
    });
    let faulted = fleet.iter().flat_map(|d| {
        diff::FAULT_SEEDS.map(|seed| Artifact {
            name: format!("{}.fault{seed}", d.name),
            rendered: diff::faulted_snapshot_json(d, seed).render() + "\n",
        })
    });
    clean.chain(faulted).collect()
}

/// Result of checking one artifact against its blessed copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drift {
    /// Byte-for-byte match.
    Match,
    /// No blessed copy exists yet.
    Missing,
    /// Blessed copy differs; carries the first differing line number.
    Differs {
        /// 1-based first line that differs.
        line: usize,
    },
}

/// Compares one artifact against the blessed file.
pub fn check_one(art: &Artifact) -> Drift {
    let path = golden_dir().join(format!("{}.json", art.name));
    let Ok(blessed) = fs::read_to_string(&path) else {
        return Drift::Missing;
    };
    if blessed == art.rendered {
        return Drift::Match;
    }
    let line = blessed
        .lines()
        .zip(art.rendered.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || blessed.lines().count().min(art.rendered.lines().count()) + 1,
            |i| i + 1,
        );
    Drift::Differs { line }
}

/// Checks every artifact; returns the names that drifted (with detail).
pub fn check() -> Vec<(String, Drift)> {
    artifacts()
        .iter()
        .filter_map(|a| match check_one(a) {
            Drift::Match => None,
            drift => Some((a.name.clone(), drift)),
        })
        .collect()
}

/// Rewrites every blessed snapshot from the current engine output.
///
/// # Errors
///
/// Propagates filesystem errors as strings.
pub fn bless() -> Result<Vec<String>, String> {
    let dir = golden_dir();
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for art in artifacts() {
        let path = dir.join(format!("{}.json", art.name));
        fs::write(&path, &art.rendered).map_err(|e| format!("write {}: {e}", path.display()))?;
        written.push(path.display().to_string());
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_deterministic() {
        // Two fresh renders of the same deck must be byte-identical —
        // this is the property the committed snapshots rely on.
        let deck = &diff::decks()[0];
        let a = diff::snapshot_json(deck).render();
        let b = diff::snapshot_json(deck).render();
        assert_eq!(a, b);
    }

    #[test]
    fn check_one_reports_missing_for_unknown_artifact() {
        let art = Artifact {
            name: "no-such-deck".into(),
            rendered: "{}\n".into(),
        };
        assert_eq!(check_one(&art), Drift::Missing);
    }
}
