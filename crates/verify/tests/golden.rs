//! Golden-snapshot gate as a test: every committed snapshot must match
//! the current engine bit-for-bit. Set `NEMSCMOS_BLESS=1` (or run
//! `cargo run -p nemscmos-verify --bin golden -- --bless`) to refresh
//! them after an intentional solver change.

use nemscmos_verify::{diff, golden};

#[test]
fn committed_snapshots_match_current_engine() {
    if std::env::var("NEMSCMOS_BLESS").is_ok_and(|v| v == "1") {
        let written = golden::bless().unwrap();
        assert!(!written.is_empty());
        return;
    }
    let drifted = golden::check();
    assert!(
        drifted.is_empty(),
        "golden snapshots drifted: {drifted:?} — re-bless with \
         `cargo run -p nemscmos-verify --bin golden -- --bless` if intentional"
    );
}

#[test]
fn every_deck_has_a_snapshot_slot() {
    // The artifact set must cover the whole differential fleet, clean
    // and under every fault seed.
    let names: Vec<String> = golden::artifacts().into_iter().map(|a| a.name).collect();
    for deck in diff::decks() {
        let faulted = diff::FAULT_SEEDS.map(|seed| format!("{}.fault{seed}", deck.name));
        for name in std::iter::once(deck.name.to_string()).chain(faulted) {
            assert!(names.contains(&name), "snapshot `{name}` missing");
        }
    }
}
