//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (Dadgour & Banerjee, DAC 2007).
//!
//! Each experiment in [`experiments`] returns structured data *and* a
//! rendered text table matching the rows/series the paper reports. The
//! [`experiments::registry`] names every printable section; `bin/repro`
//! prints sections and groups by id (`cargo run --release -p
//! nemscmos-bench --bin repro -- all`), and the benches in `benches/`
//! (plain binaries on the offline [`timing`] driver) time the
//! underlying simulation workloads.
//!
//! | `repro` id | Paper artifact |
//! |------------|----------------|
//! | `table1`   | Table 1 — I_ON/I_OFF of the calibrated CMOS and NEMS devices |
//! | `fig01`    | Figure 1 — ITRS scaling trend of subthreshold leakage |
//! | `fig02`    | Figure 2 — subthreshold-swing survey |
//! | `fig09`    | Figure 9 — delay vs noise margin under process variation (`fig09-mc`: Monte Carlo cross-check) |
//! | `fig10`    | Figure 10 — 8-input OR power/delay vs fan-out (`fig10-headline`: FO1/FO5 savings) |
//! | `fig11`    | Figure 11 — OR power/delay vs fan-in, crossover ≥ 12 (`fig11-ratios`: per-fan-in ratios) |
//! | `fig12`    | Figure 12 — power-delay product vs activity factor |
//! | `fig14`    | Figure 14 — SRAM butterfly curves and SNM |
//! | `fig15`    | Figure 15 — SRAM read latency and standby leakage |
//! | `fig17`    | Figure 17 — sleep-transistor R_ON / I_OFF vs area (`gated-block`: power-gated companion) |
//!
//! The groups `all` (every row above, without the extras), `ablations`,
//! `thermal` and `variation` expand to their sections in order.

pub mod cli;
pub mod experiments;
pub mod timing;
