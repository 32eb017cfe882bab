//! `nemscmos-gen`: parameterized circuit generators.
//!
//! Everything else in this crate builds *one* instance of a paper
//! circuit; this module builds *families* of them — m×n hybrid SRAM
//! arrays with realistic precharge/write-driver periphery and
//! logical-effort-sized domino fanout trees — so the sparse-solver
//! scaling study (`perfbase`) can sweep unknown counts from
//! tens to thousands on circuits that are structurally honest: supply
//! and data rails are genuine high-degree hubs, bit lines couple whole
//! columns, and the word-line drivers are transistors, not ideal
//! sources.
//!
//! The generators emit a [`GenDeck`]: a closed netlist with stimulus and
//! initial conditions already applied, a recommended transient window,
//! and named probe nodes. A deck can be simulated directly or handed to
//! [`dc_jacobian`] to extract the system matrix for
//! ordering/factorization measurements.
//!
//! [`dc_jacobian`]: nemscmos_spice::analysis::probe::dc_jacobian

mod domino;
mod sram;

pub use domino::DominoTreeGen;
pub use sram::SramArrayGen;

use nemscmos_spice::circuit::Circuit;
use nemscmos_spice::element::NodeId;

/// A generated, self-contained simulation deck.
#[derive(Debug)]
pub struct GenDeck {
    /// Generator-assigned name, e.g. `sram-16x16` or `domino-or32`.
    pub name: String,
    /// The netlist, with stimulus sources and initial conditions set.
    pub circuit: Circuit,
    /// Recommended transient stop time (s).
    pub tstop: f64,
    /// Recommended maximum step (s).
    pub dt_max: f64,
    /// Named nodes worth watching, outermost first.
    pub probes: Vec<(String, NodeId)>,
}

impl GenDeck {
    /// Number of MNA unknowns in the generated system.
    pub fn num_unknowns(&mut self) -> usize {
        self.circuit.num_unknowns()
    }
}
