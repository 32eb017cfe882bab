//! Drives the `repro` binary: explicit ids print exactly their sections
//! in order, a group expands in place, a figure and its extra run one
//! sweep, and an unknown id is a usage error that lists the valid ids.

use std::process::{Command, Output};

use nemscmos::tech::Technology;
use nemscmos_bench::experiments::registry;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("NEMSCMOS_HARNESS_CACHE", "off")
        .output()
        .expect("repro starts")
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// The section headers printed before the telemetry trailer.
fn headers(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| l.starts_with("=== "))
        .take_while(|l| *l != "=== Harness telemetry ===")
        .collect()
}

#[test]
fn an_unknown_id_exits_2_and_lists_the_ids() {
    let out = repro(&["fig01", "fig99"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing runs before the ids resolve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"fig99\""), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for section in registry::SECTIONS {
        assert!(stderr.contains(section.id), "{} not listed", section.id);
    }
    for (group, _) in registry::GROUPS {
        assert!(stderr.contains(group), "{group} not listed");
    }
}

#[test]
fn explicit_ids_print_exactly_those_sections_in_order() {
    let text = stdout(&repro(&["fig01", "table1"]));
    let tech = Technology::n90();
    let expected: String = ["fig01", "table1"]
        .iter()
        .map(|id| registry::section(id).unwrap().render(&tech).unwrap())
        .collect();
    let trailer = text
        .strip_prefix(&expected)
        .unwrap_or_else(|| panic!("sections differ:\n{text}"));
    assert!(
        trailer.starts_with("=== Harness telemetry ===\n"),
        "{trailer}"
    );
}

#[test]
fn a_group_expands_to_its_sections_in_order() {
    let text = stdout(&repro(&["ablations"]));
    let (_, members) = registry::GROUPS
        .iter()
        .find(|(g, _)| *g == "ablations")
        .unwrap();
    let want: Vec<String> = members
        .iter()
        .map(|id| format!("=== {} ===", registry::section(id).unwrap().header))
        .collect();
    assert_eq!(headers(&text), want);
}

#[test]
fn a_figure_and_its_extra_share_one_sweep() {
    let text = stdout(&repro(&["fig10", "fig10-headline"]));
    let sweeps = text
        .lines()
        .filter(|l| *l == "== harness report: fig10: OR8 fan-out sweep ==")
        .count();
    assert_eq!(sweeps, 1, "{text}");
}
