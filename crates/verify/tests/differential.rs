//! Differential solver testing over the full deck fleet: integration
//! methods agree within order bounds, matrix backends agree to rounding,
//! and harness parallelism and the eval-thread budget are
//! bitwise-invisible.

use nemscmos::gen::SramArrayGen;
use nemscmos::tech::Technology;
use nemscmos_spice::analysis::tran::{transient, TranOptions};
use nemscmos_spice::par;
use nemscmos_spice::stats::{self, SolverStats};
use nemscmos_verify::diff;

#[test]
fn trapezoidal_and_backward_euler_agree_on_every_deck() {
    for deck in diff::decks() {
        diff::trap_vs_be(&deck).unwrap_or_else(|d| panic!("deck `{}`: {d}", deck.name));
    }
}

#[test]
fn dense_and_sparse_backends_agree_on_every_deck() {
    for deck in diff::decks() {
        diff::dense_vs_sparse(&deck).unwrap_or_else(|d| panic!("deck `{}`: {d}", deck.name));
    }
}

#[test]
fn ordered_and_natural_sparse_factorization_agree_on_every_deck() {
    for deck in diff::decks() {
        diff::ordered_vs_natural(&deck).unwrap_or_else(|d| panic!("deck `{}`: {d}", deck.name));
    }
}

#[test]
fn batched_and_scalar_device_eval_are_bitwise_identical_on_every_deck() {
    for deck in diff::decks() {
        diff::batched_vs_scalar(&deck).unwrap_or_else(|msg| panic!("{msg}"));
    }
}

#[test]
fn batched_and_scalar_device_eval_agree_under_seeded_fault_plans() {
    // Device-bearing decks only: the fault machinery also disables the
    // linear-circuit bypass, and the perturbation stream must line up
    // iteration-for-iteration between the two eval paths.
    for deck in diff::decks() {
        for seed in [7, 1913] {
            diff::batched_vs_scalar_faulted(&deck, seed).unwrap_or_else(|msg| panic!("{msg}"));
        }
    }
}

#[test]
fn harness_thread_count_is_bitwise_invisible() {
    diff::thread_identity(4).unwrap();
}

#[test]
fn harness_thread_identity_holds_at_higher_width() {
    diff::thread_identity(8).unwrap();
}

#[test]
fn golden_decks_never_engage_the_eval_helper() {
    assert_eq!(par::eval_threads(), 2, "default budget");
    for deck in diff::decks() {
        let (_, spent) = stats::measure(|| diff::snapshot_json(&deck));
        assert!(spent.newton_iterations > 0, "deck `{}`", deck.name);
        assert_eq!(spent.parallel_evals, 0, "deck `{}`", deck.name);
        assert_eq!(spent.helper_chunks, 0, "deck `{}`", deck.name);
    }
}

/// A 16×16 hybrid SRAM array transient (602 unknowns, about 1 600
/// batched lanes) at eval-thread budget `threads`: every time point, every
/// probe sample and the final state as raw bits, plus the solver effort.
fn sram_16x16_bits(threads: usize) -> (Vec<u64>, SolverStats) {
    par::with_eval_threads(threads, || {
        let mut deck = SramArrayGen::new(16, 16).build(&Technology::n90());
        let opts = TranOptions {
            dt_max: Some(deck.dt_max),
            ..Default::default()
        };
        let (res, spent) = stats::measure(|| transient(&mut deck.circuit, deck.tstop, &opts));
        let res = res.expect("sram-16x16 transient");
        let mut bits: Vec<u64> = res.times().iter().map(|t| t.to_bits()).collect();
        for (_, node) in &deck.probes {
            bits.extend(res.voltage(*node).values().iter().map(|v| v.to_bits()));
        }
        bits.extend(res.final_state().iter().map(|v| v.to_bits()));
        (bits, spent)
    })
}

#[test]
fn eval_thread_budget_is_bitwise_invisible_on_a_generated_array() {
    let (serial, one) = sram_16x16_bits(1);
    let (shared, two) = sram_16x16_bits(2);
    assert_eq!(one.parallel_evals, 0, "budget 1 engaged the helper");
    assert!(two.parallel_evals > 0, "budget 2 never engaged: {two:?}");
    assert_eq!(serial.len(), shared.len(), "waveform lengths differ");
    if let Some(i) = serial.iter().zip(&shared).position(|(a, b)| a != b) {
        panic!(
            "budget 1 and 2 differ at word {i}: {:e} vs {:e}",
            f64::from_bits(serial[i]),
            f64::from_bits(shared[i])
        );
    }
}
