//! The standard device factory: makes the calibrated 90 nm model cards
//! available to SPICE netlists parsed by `nemscmos_spice::netlist`.

use std::collections::HashMap;

use nemscmos_devices::mosfet::Mosfet;
use nemscmos_devices::nemfet::Nemfet;
use nemscmos_spice::device::Device;
use nemscmos_spice::element::NodeId;
use nemscmos_spice::netlist::{DeviceFactory, FactoryError};

use crate::tech::Technology;

/// Resolves netlist device models against a [`Technology`].
///
/// Recognized model names (case-insensitive):
///
/// | Model | Device |
/// |---|---|
/// | `nmos90` / `pmos90` | low-V_t 90 nm MOSFETs |
/// | `nmos90hvt` / `pmos90hvt` | high-V_t variants |
/// | `nems90n` / `nems90p` | NEMS switches |
///
/// Cards use three terminals (`drain gate source`) and accept `W=<width>`
/// in metres (SPICE convention: `W=2u` is 2 µm). Unlike the
/// [`Technology::add_nmos`]-style helpers, the factory does **not** attach
/// implicit parasitic capacitors — netlists state their parasitics
/// explicitly, as SPICE decks do.
///
/// # Example
///
/// ```
/// use nemscmos::factory::StandardFactory;
/// use nemscmos::spice::netlist::parse_deck;
///
/// # fn main() -> Result<(), nemscmos::spice::SpiceError> {
/// let deck = "\
/// VDD vdd 0 DC 1.2
/// VIN g 0 DC 1.2
/// M1 d g 0 nmos90 W=2u
/// R1 vdd d 10k
/// C1 d 0 1f
/// .op
/// ";
/// let parsed = parse_deck(deck, &StandardFactory::n90())?;
/// assert_eq!(parsed.directives.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StandardFactory {
    tech: Technology,
}

impl StandardFactory {
    /// A factory over the given technology.
    pub fn new(tech: Technology) -> StandardFactory {
        StandardFactory { tech }
    }

    /// A factory over the default 90 nm technology.
    pub fn n90() -> StandardFactory {
        StandardFactory::new(Technology::n90())
    }

    /// The underlying technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }
}

impl DeviceFactory for StandardFactory {
    fn make(
        &self,
        name: &str,
        model: &str,
        nodes: &[NodeId],
        params: &HashMap<String, f64>,
    ) -> Result<Box<dyn Device>, FactoryError> {
        let tech = &self.tech;
        let (mos, nems) = match model.to_ascii_lowercase().as_str() {
            "nmos90" => (Some(&tech.nmos), None),
            "pmos90" => (Some(&tech.pmos), None),
            "nmos90hvt" => (Some(&tech.nmos_hvt), None),
            "pmos90hvt" => (Some(&tech.pmos_hvt), None),
            "nems90n" => (None, Some(&tech.nems_n)),
            "nems90p" => (None, Some(&tech.nems_p)),
            _ => return Err(FactoryError::UnknownModel),
        };
        let &[d, g, s] = nodes else {
            return Err(FactoryError::Rejected(format!(
                "needs 3 terminals (drain gate source), got {}",
                nodes.len()
            )));
        };
        // SPICE widths are metres; the models take µm.
        let width_um = params.get("W").map_or(1.0, |w| w * 1e6);
        if !(width_um.is_finite() && width_um > 0.0) {
            return Err(FactoryError::Rejected(format!(
                "W must be positive and finite, got {}",
                params.get("W").copied().unwrap_or_default()
            )));
        }
        Ok(match (mos, nems) {
            (Some(card), _) => Box::new(Mosfet::new(name, card.clone(), d, g, s, width_um)),
            (_, Some(card)) => Box::new(Nemfet::new(name, card.clone(), d, g, s, width_um)),
            (None, None) => unreachable!("every model names a card"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemscmos_spice::analysis::op::op;
    use nemscmos_spice::netlist::parse_deck;

    #[test]
    fn cmos_inverter_deck_runs() {
        let deck = "\
VDD vdd 0 DC 1.2
VIN in 0 DC 0
M1 out in vdd pmos90 W=2u
M2 out in 0 nmos90 W=1u
C1 out 0 1f
.op
";
        let parsed = parse_deck(deck, &StandardFactory::n90()).unwrap();
        let mut ckt = parsed.circuit;
        let res = op(&mut ckt).unwrap();
        assert!(res.voltage(parsed.nodes["out"]) > 1.15);
    }

    #[test]
    fn nems_switch_deck_runs() {
        let deck = "\
VDD vdd 0 DC 1.2
VG g 0 DC 1.2
X1 d g 0 nems90n W=2u
R1 vdd d 10k
C1 d 0 1f
.op
";
        let parsed = parse_deck(deck, &StandardFactory::n90()).unwrap();
        let mut ckt = parsed.circuit;
        let res = op(&mut ckt).unwrap();
        // Pulled in and conducting: drain near ground.
        assert!(res.voltage(parsed.nodes["d"]) < 0.15);
    }

    #[test]
    fn default_width_is_one_micron() {
        let f = StandardFactory::n90();
        let dev = f.make(
            "M1",
            "nmos90",
            &[NodeId::GROUND, NodeId::GROUND, NodeId::GROUND],
            &HashMap::new(),
        );
        assert!(dev.is_ok());
    }

    #[test]
    fn unknown_model_and_bad_terminals_rejected() {
        let f = StandardFactory::n90();
        let made = |model: &str, pins: usize, w: Option<f64>| {
            let params: HashMap<String, f64> =
                w.map(|w| ("W".to_string(), w)).into_iter().collect();
            f.make("M1", model, &vec![NodeId::GROUND; pins], &params)
                .map(|_| ())
        };
        assert_eq!(made("bsim4", 3, None), Err(FactoryError::UnknownModel));
        // An unknown model stays unknown whatever its pin count.
        assert_eq!(made("bsim4", 4, None), Err(FactoryError::UnknownModel));
        let pins = made("nmos90", 4, None).unwrap_err();
        assert!(
            matches!(&pins, FactoryError::Rejected(r) if r.contains("3 terminals") && r.contains("got 4")),
            "{pins:?}"
        );
        for w in [0.0, -1e-6, f64::NAN] {
            let width = made("nems90n", 3, Some(w)).unwrap_err();
            assert!(
                matches!(&width, FactoryError::Rejected(r) if r.contains("W must be positive")),
                "W={w}: {width:?}"
            );
        }
        assert_eq!(made("pmos90hvt", 3, Some(2e-6)), Ok(()));
    }

    #[test]
    fn netlist_errors_name_the_width_or_the_pin_count() {
        let parse = |card: &str| {
            let deck = format!(".model p nmos90 W=0\nV1 d 0 DC 1\n{card}\n.op\n");
            parse_deck(&deck, &StandardFactory::n90())
                .map(drop)
                .unwrap_err()
                .to_string()
        };
        let msg = parse("M1 d d 0 p");
        assert!(msg.contains("W must be positive"), "{msg}");
        assert!(msg.contains("via .MODEL 'p'"), "{msg}");
        assert!(!msg.contains("unknown"), "{msg}");
        let msg = parse("M1 d d 0 0 nmos90");
        assert!(msg.contains("3 terminals"), "{msg}");
        assert!(!msg.contains("unknown"), "{msg}");
        let msg = parse("M1 d d 0 bsim4");
        assert!(msg.contains("unknown device model 'bsim4'"), "{msg}");
    }
}
