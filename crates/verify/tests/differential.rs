//! Differential solver testing over the full deck fleet: integration
//! methods agree within order bounds, matrix backends agree to rounding,
//! and harness parallelism is bitwise-invisible.

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
