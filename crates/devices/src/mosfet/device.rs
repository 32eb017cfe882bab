//! MNA device wrapper for the EKV MOSFET.

use nemscmos_spice::device::{batch_key_word, Col, Device, EvalBatch, Lane, LoadContext, Solution};
use nemscmos_spice::element::NodeId;
use nemscmos_spice::stamp::Stamper;

use super::MosModel;

/// A three-terminal MOSFET instance (drain, gate, source).
///
/// Body effect is neglected (the model is source-referenced); this is a
/// documented simplification — the paper's comparisons hinge on I_ON /
/// I_OFF ratios, which are unaffected.
///
/// Gate and junction capacitances are *not* stamped by the device; circuit
/// builders add them as explicit linear capacitors (see
/// `nemscmos::tech`). This keeps the device purely resistive and the
/// transient integration entirely in the engine.
#[derive(Debug, Clone)]
pub struct Mosfet {
    name: String,
    model: MosModel,
    d: NodeId,
    g: NodeId,
    s: NodeId,
    width_um: f64,
}

impl Mosfet {
    /// Creates a MOSFET of `width_um` µm between `d`, `g`, `s`.
    ///
    /// # Panics
    ///
    /// Panics if the width is not strictly positive and finite.
    pub fn new(
        name: impl Into<String>,
        model: MosModel,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        width_um: f64,
    ) -> Mosfet {
        assert!(
            width_um.is_finite() && width_um > 0.0,
            "width must be positive"
        );
        Mosfet {
            name: name.into(),
            model,
            d,
            g,
            s,
            width_um,
        }
    }

    /// The model card.
    pub fn model(&self) -> &MosModel {
        &self.model
    }

    /// Device width in µm.
    pub fn width_um(&self) -> f64 {
        self.width_um
    }
}

impl Device for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn load(&self, x: &Solution<'_>, _ctx: &LoadContext, st: &mut Stamper) {
        let (i, dg, dd, ds) = self
            .model
            .ids(x.v(self.g), x.v(self.d), x.v(self.s), self.width_um);
        st.nonlinear_current(
            self.d,
            self.s,
            i,
            &[(self.g, dg), (self.d, dd), (self.s, ds)],
        );
    }

    fn commit(&mut self, _x: &Solution<'_>, _ctx: &LoadContext) -> bool {
        false // stateless
    }

    fn reset_state(&mut self) {}

    fn batch_key(&self) -> Option<u64> {
        // Type tag 1: a Mosfet never shares a batch with another device
        // kind, even on a fingerprint collision of the underlying card.
        Some(batch_key_word(self.model.eval_fingerprint(), 1))
    }

    fn lane(&self) -> Option<Lane> {
        let mut lane = Lane::new();
        for n in [self.g, self.d, self.s] {
            lane.voltage(n);
        }
        lane.constant(self.width_um);
        lane.nonlinear_current(
            self.d,
            self.s,
            Col::Out(0),
            &[
                (self.g, Col::Out(1)),
                (self.d, Col::Out(2)),
                (self.s, Col::Out(3)),
            ],
        );
        Some(lane)
    }

    fn batch_eval(&self, _ctx: &LoadContext, batch: &mut EvalBatch) {
        let [vg, vd, vs, w, _] = &batch.vin;
        for (((&vg, &vd), &vs), &w) in vg.iter().zip(vd).zip(vs).zip(w) {
            let (i, dg, dd, ds) = self.model.ids(vg, vd, vs, w);
            batch.out[0].push(i);
            batch.out[1].push(dg);
            batch.out[2].push(dd);
            batch.out[3].push(ds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemscmos_spice::analysis::op::op;
    use nemscmos_spice::circuit::Circuit;
    use nemscmos_spice::waveform::Waveform;

    /// A resistor-loaded NMOS common-source stage must pull its drain low
    /// when the gate is driven high.
    #[test]
    fn nmos_inverting_stage() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.2));
        ckt.vsource(g, Circuit::GROUND, Waveform::dc(1.2));
        ckt.resistor(vdd, d, 10e3);
        ckt.add_device(Mosfet::new(
            "m1",
            MosModel::nmos_90nm(),
            d,
            g,
            Circuit::GROUND,
            1.0,
        ));
        let res = op(&mut ckt).unwrap();
        // 1.1 mA through 10 kΩ would want an 11 V drop: drain saturates
        // near ground.
        assert!(res.voltage(d) < 0.1, "v(d) = {}", res.voltage(d));
    }

    #[test]
    fn nmos_off_leaks_weakly() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.2));
        ckt.resistor(vdd, d, 10e3);
        ckt.add_device(Mosfet::new(
            "m1",
            MosModel::nmos_90nm(),
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            1.0,
        ));
        let res = op(&mut ckt).unwrap();
        // 50 nA leak across 10 kΩ drops only 0.5 mV.
        assert!(res.voltage(d) > 1.19, "v(d) = {}", res.voltage(d));
    }

    #[test]
    fn cmos_inverter_switches() {
        use crate::mosfet::Polarity;
        let _ = Polarity::Nmos; // silence unused import lint paths
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource(vdd, Circuit::GROUND, Waveform::dc(1.2));
        let vsrc_in = ckt.vsource(vin, Circuit::GROUND, Waveform::dc(0.0));
        ckt.add_device(Mosfet::new("mp", MosModel::pmos_90nm(), out, vin, vdd, 2.0));
        ckt.add_device(Mosfet::new(
            "mn",
            MosModel::nmos_90nm(),
            out,
            vin,
            Circuit::GROUND,
            1.0,
        ));
        let res = op(&mut ckt).unwrap();
        assert!(
            res.voltage(out) > 1.15,
            "low in → high out, got {}",
            res.voltage(out)
        );
        ckt.set_vsource_dc(vsrc_in, 1.2).unwrap();
        let res = op(&mut ckt).unwrap();
        assert!(
            res.voltage(out) < 0.05,
            "high in → low out, got {}",
            res.voltage(out)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_width_is_rejected() {
        let _ = Mosfet::new(
            "m",
            MosModel::nmos_90nm(),
            NodeId::GROUND,
            NodeId::GROUND,
            NodeId::GROUND,
            0.0,
        );
    }
}
