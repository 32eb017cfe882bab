//! Netlist frontend regressions: error paths must name the offending
//! card, and `.MODEL` aliases must resolve through the device factory
//! with instance parameters overriding the card's defaults.

use std::collections::HashMap;

use nemscmos_spice::analysis::op::op;
use nemscmos_spice::device::{Device, LoadContext, Solution};
use nemscmos_spice::element::NodeId;
use nemscmos_spice::netlist::{parse_deck, DeviceFactory, FactoryError, NoDevices};
use nemscmos_spice::stamp::Stamper;

/// A one-terminal linear shunt, so parameter plumbing is observable as a
/// plain voltage-divider ratio.
#[derive(Debug)]
struct Shunt {
    node: NodeId,
    g: f64,
}

impl Device for Shunt {
    fn name(&self) -> &str {
        "shunt"
    }
    fn load(&self, x: &Solution<'_>, _ctx: &LoadContext, st: &mut Stamper) {
        st.conductance(self.node, NodeId::GROUND, self.g, x.v(self.node), 0.0);
    }
    fn commit(&mut self, _x: &Solution<'_>, _ctx: &LoadContext) -> bool {
        false
    }
    fn reset_state(&mut self) {}
}

/// Knows exactly one model, `shunt`: one terminal and a positive `G`.
struct ShuntFactory;

impl DeviceFactory for ShuntFactory {
    fn make(
        &self,
        _name: &str,
        model: &str,
        nodes: &[NodeId],
        params: &HashMap<String, f64>,
    ) -> Result<Box<dyn Device>, FactoryError> {
        if model != "shunt" {
            return Err(FactoryError::UnknownModel);
        }
        let &[node] = nodes else {
            return Err(FactoryError::Rejected(format!(
                "needs 1 terminal, got {}",
                nodes.len()
            )));
        };
        let g = params.get("G").copied().unwrap_or(1e-3);
        if !(g.is_finite() && g > 0.0) {
            return Err(FactoryError::Rejected(format!(
                "G must be positive, got {g}"
            )));
        }
        Ok(Box::new(Shunt { node, g }))
    }
}

fn out_voltage(deck: &str) -> f64 {
    let parsed = parse_deck(deck, &ShuntFactory).unwrap();
    let out = parsed.nodes["out"];
    let mut ckt = parsed.circuit;
    op(&mut ckt).unwrap().voltage(out)
}

#[test]
fn model_alias_resolves_through_the_factory() {
    // 1 V through 1 kΩ into a 2 mS shunt: v(out) = 1m / 3m = 1/3.
    let v = out_voltage(
        "\
.model leaky shunt G=2m
V1 in 0 DC 1
R1 in out 1k
M1 out leaky
.op
",
    );
    assert!((v - 1.0 / 3.0).abs() < 1e-9, "v(out) = {v}");
}

#[test]
fn instance_parameters_override_the_model_card() {
    // The instance's G=5m beats the card's G=2m: v(out) = 1m / 6m.
    let v = out_voltage(
        "\
.model leaky shunt G=2m
V1 in 0 DC 1
R1 in out 1k
M1 out leaky G=5m
.op
",
    );
    assert!((v - 1.0 / 6.0).abs() < 1e-9, "v(out) = {v}");
}

#[test]
fn model_cards_may_follow_their_instances_and_chain() {
    // Forward reference plus a two-level alias chain; the outer card's
    // G=4m overrides the inner card's G=2m.
    let v = out_voltage(
        "\
V1 in 0 DC 1
M1 out hot
.model hot leaky G=4m
.model leaky shunt G=2m
R1 in out 1k
.op
",
    );
    assert!((v - 1.0 / 5.0).abs() < 1e-9, "v(out) = {v}");
}

#[test]
fn duplicate_model_names_are_rejected() {
    let err = parse_deck(
        "\
.model leaky shunt G=2m
.model leaky shunt G=9m
V1 in 0 DC 1
.op
",
        &ShuntFactory,
    )
    .unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");
    assert!(err.to_string().contains("leaky"), "{err}");
}

#[test]
fn malformed_model_cards_are_rejected() {
    let err = parse_deck(".model onlyname\n.op\n", &NoDevices).unwrap_err();
    assert!(err.to_string().contains(".MODEL name base"), "{err}");
    let err = parse_deck(".model a shunt G-3\n.op\n", &NoDevices).unwrap_err();
    assert!(err.to_string().contains("KEY=value"), "{err}");
    let recursive = ".model a b\n.model b a\nM1 out a\nV1 out 0 DC 1\n.op\n";
    let err = parse_deck(recursive, &ShuntFactory).unwrap_err();
    assert!(err.to_string().contains("depth"), "{err}");
}

#[test]
fn alias_to_unknown_base_names_both_models() {
    let err = parse_deck(
        ".model ghost nosuch\nV1 out 0 DC 1\nM1 out ghost\n.op\n",
        &ShuntFactory,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("nosuch"), "{msg}");
    assert!(msg.contains("ghost"), "{msg}");
}

#[test]
fn known_model_with_a_bad_card_names_the_reason_not_the_model() {
    // A bad parameter inherited through an alias.
    let err = parse_deck(
        ".model weak shunt G=0\nV1 out 0 DC 1\nM1 out weak\n.op\n",
        &ShuntFactory,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("G must be positive"), "{msg}");
    assert!(msg.contains("via .MODEL 'weak'"), "{msg}");
    assert!(!msg.contains("unknown"), "{msg}");
    // A known model with the wrong pin count.
    let err = parse_deck("V1 out 0 DC 1\nM1 out 0 shunt\n.op\n", &ShuntFactory).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("needs 1 terminal, got 2"), "{msg}");
    assert!(msg.contains("M1"), "{msg}");
    assert!(!msg.contains("unknown"), "{msg}");
}

#[test]
fn unknown_element_type_is_rejected_with_the_line() {
    let err = parse_deck("Q1 c b e npn\n.op\n", &NoDevices).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("Q1"), "{msg}");
    assert!(msg.contains("unknown element"), "{msg}");
}

#[test]
fn element_arity_errors_name_the_expected_shape() {
    let err = parse_deck("R1 a 0\n.op\n", &NoDevices).unwrap_err();
    assert!(err.to_string().contains("name n1 n2 value"), "{err}");
    let err = parse_deck("V1 a\n.op\n", &NoDevices).unwrap_err();
    assert!(err.to_string().contains("n+ n- waveform"), "{err}");
    let err = parse_deck("E1 a 0 b\n.op\n", &NoDevices).unwrap_err();
    assert!(err.to_string().contains("ctl"), "{err}");
    let err = parse_deck("M1 leaky\n.op\n", &NoDevices).unwrap_err();
    assert!(err.to_string().contains("nodes and a model name"), "{err}");
}

#[test]
fn controlled_sources_with_non_finite_gain_are_rejected() {
    for card in ["E1 b 0 a 0 1e400", "G1 b 0 a 0 1e400", "E1 b 0 a 0 -1e400"] {
        let deck = format!("V1 a 0 DC 1\nR1 b 0 1k\n{card}\n.op\n");
        let err = parse_deck(&deck, &NoDevices).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(card) && msg.contains("gain must be finite"),
            "{card}: {msg}"
        );
    }
}

#[test]
fn tran_with_tstart_or_tmax_is_rejected() {
    use nemscmos_spice::netlist::Directive;
    let deck = |tran: &str| format!("V1 a 0 DC 1\nR1 a 0 1k\n{tran}\n");
    for tran in [".tran 1n 10n 5n", ".tran 1n 10n 0 1p"] {
        let err = parse_deck(&deck(tran), &NoDevices).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(tran) && msg.contains("TSTART and TMAX are unsupported"),
            "{tran}: {msg}"
        );
    }
    let err = parse_deck(&deck(".tran"), &NoDevices).unwrap_err();
    assert!(err.to_string().contains("needs a stop time"), "{err}");
    for (tran, tstop) in [(".tran 10n", 10e-9), (".tran 1n 10n", 10e-9)] {
        let parsed = parse_deck(&deck(tran), &NoDevices).unwrap();
        assert_eq!(parsed.directives, [Directive::Tran { tstop }], "{tran}");
    }
}

#[test]
fn ac_sweeps_with_bad_numbers_are_rejected() {
    let deck = |ac: &str| format!("V1 in 0 DC 1\nR1 in 0 1k\n{ac}\n");
    let cases = [
        (".ac dec -5 1 1e6", "integer >= 1"),
        (".ac dec 0 1 1e6", "integer >= 1"),
        (".ac dec 2.5 1 1e6", "integer >= 1"),
        (".ac dec 10 0 1e6", "finite and positive"),
        (".ac dec 10 -1 1e6", "finite and positive"),
        (".ac dec 10 1e400 1e401", "finite and positive"),
        (".ac dec 10 1e6 1e3", "must exceed"),
        (".ac dec 10 1e3 1e3", "must exceed"),
        (".ac dec 10 1 1e400", "frequency points"),
        (".ac dec 1e15 1 1e6", "frequency points"),
    ];
    for (ac, want) in cases {
        let err = parse_deck(&deck(ac), &NoDevices).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(ac) && msg.contains(want), "{ac}: {msg}");
    }
}

#[test]
fn ac_sweep_point_cap_is_inclusive() {
    use nemscmos_spice::analysis::ac::log_sweep;
    use nemscmos_spice::netlist::{Directive, MAX_AC_POINTS};
    // One decade at N points per decade is a grid of N + 1 points.
    let over = format!("R1 a 0 1k\n.ac dec {MAX_AC_POINTS} 1 10\n");
    assert!(parse_deck(&over, &NoDevices).is_err());
    let at_cap = format!("R1 a 0 1k\n.ac dec {} 1 10\n", MAX_AC_POINTS - 1);
    let parsed = parse_deck(&at_cap, &NoDevices).unwrap();
    let Directive::Ac {
        points_per_decade,
        f_start,
        f_stop,
    } = parsed.directives[0]
    else {
        panic!("expected an .ac directive");
    };
    assert_eq!(
        log_sweep(f_start, f_stop, points_per_decade).len(),
        MAX_AC_POINTS
    );
}

#[test]
fn bare_subcircuit_instance_is_a_typed_error() {
    let deck = ".subckt x1 a\nR1 a 0 1k\n.ends\nX1\n.op\n";
    let err = parse_deck(deck, &NoDevices).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("'X1'"), "{msg}");
    assert!(msg.contains("nodes and a subcircuit name"), "{msg}");
}

#[test]
fn waveform_with_close_before_open_is_rejected() {
    for kind in ["PULSE", "PWL", "SIN", "EXP"] {
        let deck = format!("V1 a 0 {kind}) (\nR1 a 0 1k\n.op\n");
        let err = parse_deck(&deck, &NoDevices).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(kind) && msg.contains("missing ')'"),
            "{kind}: {msg}"
        );
    }
}

#[test]
fn dc_sweeps_with_bad_numbers_are_rejected() {
    let deck = |dc: &str| format!("V1 in 0 DC 1\nR1 in 0 1k\n{dc}\n");
    let cases = [
        (".dc V1 1 2 0", "nonzero step towards stop"),
        (".dc V1 1 2 -0.1", "nonzero step towards stop"),
        (".dc V1 2 1 0.1", "nonzero step towards stop"),
        (".dc V1 1e400 2 0.1", "must be finite"),
        (".dc V1 1 1e400 0.1", "must be finite"),
        (".dc V1 1 2 1e400", "must be finite"),
        (".dc V1 1 2 1e-20", "points"),
        (".dc V1 0 1e6 1", "points"),
        (".dc V1 -1e308 1e308 1", "points"),
    ];
    for (dc, want) in cases {
        let err = parse_deck(&deck(dc), &NoDevices).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(dc) && msg.contains(want), "{dc}: {msg}");
    }
}

#[test]
fn dc_sweep_point_cap_is_inclusive() {
    use nemscmos_spice::analysis::dc_sweep::linear_sweep;
    use nemscmos_spice::netlist::{Directive, MAX_DC_POINTS};
    // A unit step from 0 to N is a grid of N + 1 points.
    let over = format!("V1 in 0 DC 1\nR1 in 0 1k\n.dc V1 0 {MAX_DC_POINTS} 1\n");
    assert!(parse_deck(&over, &NoDevices).is_err());
    let at_cap = format!(
        "V1 in 0 DC 1\nR1 in 0 1k\n.dc V1 0 {} 1\n",
        MAX_DC_POINTS - 1
    );
    let parsed = parse_deck(&at_cap, &NoDevices).unwrap();
    let Directive::Dc {
        start, stop, step, ..
    } = parsed.directives[0]
    else {
        panic!("expected a .dc directive");
    };
    assert_eq!(linear_sweep(start, stop, step).len(), MAX_DC_POINTS);
    // A start equal to stop is one point, and a downward sweep counts
    // like an upward one.
    assert_eq!(linear_sweep(1.0, 1.0, 0.1), vec![1.0]);
    assert_eq!(linear_sweep(1.0, 0.0, -0.25).len(), 5);
}

#[test]
fn exponential_subcircuit_expansion_hits_the_card_cap() {
    use nemscmos_spice::netlist::MAX_EXPANDED_CARDS;
    // Every level instantiates itself twice: 2^32 cards before the depth
    // limit, refused once the flattened deck would pass the cap.
    let deck = ".subckt a p\nX1 p a\nX2 p a\n.ends\nX0 n a\nR1 n 0 1k\n.op\n";
    let err = parse_deck(deck, &NoDevices).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("{MAX_EXPANDED_CARDS} cards")),
        "{msg}"
    );
}

#[test]
fn subcircuit_card_cap_is_inclusive() {
    use nemscmos_spice::netlist::MAX_EXPANDED_CARDS;
    // A 100-resistor leaf instantiated until the flattened deck holds
    // exactly the cap; one more top-level card is refused.
    let mut deck = String::from(".subckt leaf a\n");
    for k in 0..100 {
        deck.push_str(&format!("R{k} a 0 1k\n"));
    }
    deck.push_str(".ends\n");
    for k in 0..MAX_EXPANDED_CARDS / 100 {
        deck.push_str(&format!("X{k} n{k} leaf\n"));
    }
    let parsed = parse_deck(&deck, &NoDevices).unwrap();
    // One node per instance, plus ground.
    assert_eq!(parsed.nodes.len(), MAX_EXPANDED_CARDS / 100 + 1);
    deck.push_str(".op\n");
    let err = parse_deck(&deck, &NoDevices).unwrap_err();
    assert!(err.to_string().contains("cards"), "{err}");
}
