//! Experiment drivers, one module per paper section.

pub mod ablations;
pub mod device_tables;
pub mod dynamic_or;
pub mod registry;
pub mod sleep;
pub mod sram;
pub mod thermal;
pub mod variation;
