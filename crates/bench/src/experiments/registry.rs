//! The experiment registry: every section the `repro` binary prints, in
//! order, and the named groups that bundle them.
//!
//! A section prints as `=== {header} ===\n{body}\n`
//! ([`Section::render`]). The group `all` is the paper's evaluation,
//! byte for byte the text of the committed benchmark reference
//! `perfbench/reference/paper-figures.txt`.

use std::fmt::Write;
use std::sync::{Mutex, PoisonError};

use nemscmos::gates::PdnStyle;
use nemscmos::tech::Technology;
use nemscmos_analysis::pdp::GateFigures;
use nemscmos_analysis::{AnalysisError, Result};

use super::ablations::{
    beam_fidelity_study, charge_sharing_study, keeper_style_ablation, nems_width_ablation,
    pullup_only_ablation, sram_margins_study, sram_upsize_ablation, stiction_fault_study,
    stuck_beam_circuit_demo, switching_delay_ablation,
};
use super::dynamic_or::{self, GatePoint};
use super::thermal::{leakage_vs_temperature, runaway_study};
use super::variation::{render_corner_sweep, render_sram_mc};
use super::{device_tables, sleep, sram};

/// One printable section.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// Command-line id (`fig09`, `thermal-runaway`).
    pub id: &'static str,
    /// Header text between the `===` markers.
    pub header: &'static str,
    /// Computes the body.
    pub run: fn(&Technology) -> Result<String>,
}

impl Section {
    const fn new(
        id: &'static str,
        header: &'static str,
        run: fn(&Technology) -> Result<String>,
    ) -> Section {
        Section { id, header, run }
    }

    /// Runs the section and renders it as `=== {header} ===\n{body}\n`.
    ///
    /// # Errors
    ///
    /// The experiment's failure.
    pub fn render(&self, tech: &Technology) -> Result<String> {
        (self.run)(tech).map(|body| format!("=== {} ===\n{body}\n", self.header))
    }
}

/// Every section, in print order: the paper's artifacts, then the
/// extras and studies outside `all`.
pub const SECTIONS: &[Section] = &[
    Section::new("table1", "Table 1 — device currents", |_| {
        Ok(device_tables::render_table1())
    }),
    Section::new("fig01", "Figure 1 — scaling trend", |_| {
        Ok(device_tables::render_fig01())
    }),
    Section::new("fig02", "Figure 2 — swing survey", |_| {
        Ok(device_tables::render_fig02())
    }),
    Section::new("fig09", "Figure 9 — keeper trade-off", |t| {
        dynamic_or::fig09(t).map(|c| dynamic_or::render_fig09(&c))
    }),
    Section::new("fig10", "Figure 10 — OR vs fan-out", |t| {
        FIG10.points(t).map(|p| dynamic_or::render_fig10(&p))
    }),
    Section::new("fig11", "Figure 11 — OR vs fan-in", |t| {
        FIG11.points(t).map(|p| dynamic_or::render_fig11(&p))
    }),
    Section::new("fig12", "Figure 12 — PDP vs activity", |t| {
        dynamic_or::fig12(t).map(|d| dynamic_or::render_fig12(&d))
    }),
    Section::new("fig14", "Figure 14 — SRAM SNM", |t| {
        sram::fig14(t).map(|r| sram::render_fig14(&r))
    }),
    Section::new("fig15", "Figure 15 — SRAM latency/leakage", |t| {
        sram::fig15(t).map(|r| sram::render_fig15(&r))
    }),
    Section::new("fig17", "Figure 17 — sleep devices", |t| {
        Ok(sleep::render_fig17(&sleep::fig17(t)))
    }),
    Section::new(
        "gated-block",
        "Gated-block companion",
        sleep::gated_block_study,
    ),
    // About 7 s uncached, so it stays out of `all`.
    Section::new(
        "fig09-mc",
        "Figure 9 — Monte Carlo cross-check (W_keeper = 1 µm, 48 trials per σ)",
        fig09_monte_carlo,
    ),
    Section::new(
        "fig10-headline",
        "Figure 10 — hybrid vs CMOS at FO1 and FO5",
        fig10_headline,
    ),
    Section::new(
        "fig11-ratios",
        "Figure 11 — hybrid/CMOS ratios by fan-in",
        fig11_ratios,
    ),
    Section::new(
        "keeper-style",
        "Keeper style (always-on vs feedback)",
        keeper_style_ablation,
    ),
    Section::new(
        "nems-width",
        "NEMS series-switch width (hybrid OR)",
        nems_width_ablation,
    ),
    Section::new(
        "sram-upsize",
        "Hybrid SRAM NEMS upsizing",
        sram_upsize_ablation,
    ),
    Section::new(
        "pullup-only",
        "SRAM: pull-up-only vs full hybrid (§5.3)",
        pullup_only_ablation,
    ),
    Section::new(
        "switching-delay",
        "Mechanical switching delay sensitivity",
        switching_delay_ablation,
    ),
    Section::new(
        "stiction",
        "Stiction (stuck-open beam) fault",
        stiction_fault_study,
    ),
    Section::new(
        "sram-margins",
        "SRAM write margin & retention voltage",
        sram_margins_study,
    ),
    Section::new(
        "charge-sharing",
        "Charge sharing at a 0.49 V input glitch",
        charge_sharing_study,
    ),
    Section::new(
        "beam-fidelity",
        "Beam fidelity (quasi-static vs co-simulated beam)",
        beam_fidelity,
    ),
    Section::new("stuck-beam", "Stuck-beam circuit demo", stuck_beam),
    Section::new(
        "thermal-leakage",
        "Leakage vs temperature (8-input dynamic OR core)",
        leakage_vs_temperature,
    ),
    Section::new(
        "thermal-runaway",
        "Self-consistent junction temperature (50k gates, 0.4 W dynamic)",
        runaway_study,
    ),
    Section::new(
        "sram-mc",
        "SRAM read-SNM Monte Carlo (sigma_Vth = 30 mV/device, 64 trials)",
        |t| render_sram_mc(t, 0.03, 64),
    ),
    Section::new("corner-sweep", "Five-corner sweep", render_corner_sweep),
];

/// Named groups of section ids, expanded in order.
pub const GROUPS: &[(&str, &[&str])] = &[
    (
        "all",
        &[
            "table1",
            "fig01",
            "fig02",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig14",
            "fig15",
            "fig17",
            "gated-block",
        ],
    ),
    (
        "ablations",
        &[
            "keeper-style",
            "nems-width",
            "sram-upsize",
            "pullup-only",
            "switching-delay",
            "stiction",
            "sram-margins",
            "charge-sharing",
            "beam-fidelity",
            "stuck-beam",
        ],
    ),
    ("thermal", &["thermal-leakage", "thermal-runaway"]),
    ("variation", &["sram-mc", "corner-sweep"]),
];

/// The section with id `id`.
pub fn section(id: &str) -> Option<&'static Section> {
    SECTIONS.iter().find(|s| s.id == id)
}

/// The sections `ids` name, each group expanded in place, in order.
///
/// # Errors
///
/// An empty list, or the first id that names neither a section nor a
/// group.
pub fn resolve<'a>(
    ids: impl IntoIterator<Item = &'a str>,
) -> std::result::Result<Vec<&'static Section>, String> {
    let mut out = Vec::new();
    for id in ids {
        if let Some(s) = section(id) {
            out.push(s);
        } else if let Some((_, members)) = GROUPS.iter().find(|(g, _)| *g == id) {
            out.extend(members.iter().filter_map(|m| section(m)));
        } else {
            return Err(format!("unknown id {id:?}"));
        }
    }
    if out.is_empty() {
        return Err("no section or group id given".into());
    }
    Ok(out)
}

/// The valid ids, for an error message: sections, then groups.
pub fn id_list() -> String {
    let sections: Vec<&str> = SECTIONS.iter().map(|s| s.id).collect();
    let groups: Vec<&str> = GROUPS.iter().map(|(g, _)| *g).collect();
    format!(
        "sections: {}\ngroups: {}",
        sections.join(" "),
        groups.join(" ")
    )
}

fn fig09_monte_carlo(tech: &Technology) -> Result<String> {
    let mut out = String::new();
    for sigma in [0.05, 0.10, 0.15] {
        let s = dynamic_or::fig09_monte_carlo(tech, 1.0, sigma, 48, 2007)?;
        let _ = writeln!(
            out,
            "σ = {:>3.0}%: NM mean {:.3} V, σ_NM {:.3} V, mean−3σ {:.3} V, worst draw {:.3} V",
            sigma * 100.0,
            s.mean,
            s.std_dev,
            s.mean_plus_sigma(-3.0),
            s.min
        );
    }
    Ok(out)
}

/// A figure's gate sweep, run at most once per process and technology,
/// so a figure and its extra (`fig10` and `fig10-headline`) share one
/// sweep. A failed sweep is not kept.
struct Sweep {
    run: fn(&Technology) -> Result<Vec<GatePoint>>,
    /// Finished sweeps, keyed by the technology's `Debug` text (as the
    /// harness keys its jobs).
    done: Mutex<Vec<(String, Vec<GatePoint>)>>,
}

impl Sweep {
    const fn new(run: fn(&Technology) -> Result<Vec<GatePoint>>) -> Sweep {
        Sweep {
            run,
            done: Mutex::new(Vec::new()),
        }
    }

    fn points(&self, tech: &Technology) -> Result<Vec<GatePoint>> {
        let key = format!("{tech:?}");
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, points)) = done.iter().find(|(k, _)| *k == key) {
            return Ok(points.clone());
        }
        let points = (self.run)(tech)?;
        done.push((key, points.clone()));
        Ok(points)
    }
}

static FIG10: Sweep = Sweep::new(dynamic_or::fig10);
static FIG11: Sweep = Sweep::new(dynamic_or::fig11);

/// The CMOS and hybrid figures of the gate point `pick` accepts.
fn cmos_and_hybrid(
    points: &[GatePoint],
    pick: impl Fn(&GatePoint) -> bool,
) -> Result<(GateFigures, GateFigures)> {
    let get = |style| {
        points
            .iter()
            .find(|p| p.style == style && pick(p))
            .map(|p| p.figures)
            .ok_or_else(|| AnalysisError::InvalidInput(format!("no {style:?} point")))
    };
    Ok((get(PdnStyle::Cmos)?, get(PdnStyle::HybridNems)?))
}

/// The paper's headline: 60–80% switching-power saving at a 10–20%
/// delay penalty across fan-out.
fn fig10_headline(tech: &Technology) -> Result<String> {
    let points = FIG10.points(tech)?;
    let mut out = String::new();
    for fo in [1usize, 5] {
        let (c, h) = cmos_and_hybrid(&points, |p| p.fan_out == fo)?;
        let _ = writeln!(
            out,
            "FO{fo}: hybrid saves {:.0}% switching power, delay {:+.0}%",
            (1.0 - h.switching_power / c.switching_power) * 100.0,
            (h.delay / c.delay - 1.0) * 100.0
        );
    }
    Ok(out)
}

/// The paper's crossover: beyond fan-in ~12 the hybrid gate wins on
/// both delay and switching power.
fn fig11_ratios(tech: &Technology) -> Result<String> {
    let points = FIG11.points(tech)?;
    let mut out = String::new();
    for fi in [4usize, 8, 12, 16] {
        let (c, h) = cmos_and_hybrid(&points, |p| p.fan_in == fi)?;
        let _ = writeln!(
            out,
            "fan-in {fi:>2}: delay hybrid/CMOS = {:.2}, power hybrid/CMOS = {:.2}{}",
            h.delay / c.delay,
            h.switching_power / c.switching_power,
            if h.delay < c.delay && h.switching_power < c.switching_power {
                "  <- hybrid wins both"
            } else {
                ""
            }
        );
    }
    Ok(out)
}

fn beam_fidelity(tech: &Technology) -> Result<String> {
    let (qs, dynamic) = beam_fidelity_study(tech)?;
    let ps = |t: Option<f64>| t.map_or("never".into(), |t| format!("{:.0} ps", t * 1e12));
    Ok(format!(
        "beam fidelity: quasi-static discharge {} vs co-simulated beam {} after the step\n",
        ps(qs),
        ps(dynamic),
    ))
}

fn stuck_beam(tech: &Technology) -> Result<String> {
    let (healthy, stuck) = stuck_beam_circuit_demo(tech)?;
    Ok(format!(
        "stuck-beam circuit demo: healthy v(d) = {healthy:.3} V, stuck v(d) = {stuck:.3} V\n"
    ))
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    /// `Fig. 11` → `fig11`, `Table 1` → `table1`.
    fn source_id(source: &str) -> Option<String> {
        let (kind, n) = source.split_once(' ')?;
        let n: u32 = n.parse().ok()?;
        match kind {
            "Fig." => Some(format!("fig{n:02}")),
            "Table" => Some(format!("table{n}")),
            _ => None,
        }
    }

    #[test]
    fn ids_are_unique_and_groups_name_sections() {
        let mut seen = HashSet::new();
        for id in SECTIONS
            .iter()
            .map(|s| s.id)
            .chain(GROUPS.iter().map(|g| g.0))
        {
            assert!(seen.insert(id), "duplicate id {id}");
        }
        for (group, members) in GROUPS {
            for m in *members {
                assert!(section(m).is_some(), "group {group} names unknown {m}");
            }
        }
    }

    #[test]
    fn every_claim_source_is_a_section() {
        let claims = nemscmos_verify::claims::builtin();
        assert!(!claims.is_empty());
        for claim in claims {
            let id = source_id(&claim.source);
            assert!(
                id.as_deref().and_then(section).is_some(),
                "claim {} cites {:?}, which names no section",
                claim.id,
                claim.source
            );
        }
    }

    #[test]
    fn all_matches_the_reference_headers() {
        let reference = include_str!("../../../../perfbench/reference/paper-figures.txt");
        let headers: Vec<&str> = reference
            .lines()
            .filter(|l| l.starts_with("=== "))
            .collect();
        let all: Vec<String> = resolve(["all"])
            .unwrap()
            .iter()
            .map(|s| format!("=== {} ===", s.header))
            .collect();
        assert_eq!(all, headers);
    }

    #[test]
    fn resolve_expands_groups_and_rejects_unknown_ids() {
        let got: Vec<&str> = resolve(["fig01", "thermal", "table1"])
            .unwrap()
            .iter()
            .map(|s| s.id)
            .collect();
        assert_eq!(
            got,
            ["fig01", "thermal-leakage", "thermal-runaway", "table1"]
        );
        assert!(resolve(["fig99"]).unwrap_err().contains("fig99"));
        assert!(resolve([]).is_err());
        assert!(id_list().contains("fig09-mc") && id_list().contains("variation"));
    }
}
