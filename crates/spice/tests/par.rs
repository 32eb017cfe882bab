//! Device evaluation on the eval helper thread: an assembly of a plan
//! with thousands of batched lanes shares its chunks with the helper at
//! the default eval-thread budget and solves bitwise the same as at a
//! budget of 1; a panic in `batch_eval` reaches the caller with its
//! original payload — whichever thread raised it — and the helper keeps
//! serving the next solve.
//!
//! Everything that engages the helper runs inside the one test below:
//! the helper is process-wide, and a second test holding it at the same
//! moment would leave this one's assemblies serial.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::Duration;

use nemscmos_spice::analysis::op::op;
use nemscmos_spice::circuit::Circuit;
use nemscmos_spice::device::{
    batch_key_word, Col, Device, EvalBatch, Lane, LoadContext, Solution, BATCH_KEY_SEED,
};
use nemscmos_spice::element::NodeId;
use nemscmos_spice::par;
use nemscmos_spice::stamp::Stamper;
use nemscmos_spice::stats::{self, SolverStats};
use nemscmos_spice::waveform::Waveform;

/// Batched devices in the deck: several chunks, above the helper's lane
/// threshold.
const DEVICES: usize = 1_600;
/// A device id in the deck's last chunk.
const LATE: usize = DEVICES - 10;
/// Trap value that never fires.
const DISARMED: usize = usize::MAX;

/// The payload a trapped lane panics with.
#[derive(Debug, PartialEq)]
struct Trapped(usize);

/// Which lanes panic: ids at or above `from`, and only on threads other
/// than `spare` when that is set.
#[derive(Debug)]
struct Trap {
    from: AtomicUsize,
    spare: Option<ThreadId>,
}

/// A square-law shunt to ground, i = k·v², that opts into batching and
/// carries its id through the batch so the trap can pick lanes.
#[derive(Debug)]
struct Shunt {
    id: usize,
    node: NodeId,
    trap: Arc<Trap>,
}

const K: f64 = 1e-4;

impl Device for Shunt {
    fn name(&self) -> &str {
        "shunt"
    }
    fn load(&self, x: &Solution<'_>, _ctx: &LoadContext, st: &mut Stamper) {
        let v = x.v(self.node);
        st.nonlinear_current(
            self.node,
            NodeId::GROUND,
            K * v * v,
            &[(self.node, 2.0 * K * v)],
        );
    }
    fn commit(&mut self, _x: &Solution<'_>, _ctx: &LoadContext) -> bool {
        false
    }
    fn reset_state(&mut self) {}
    fn batch_key(&self) -> Option<u64> {
        Some(batch_key_word(BATCH_KEY_SEED, K.to_bits()))
    }
    fn lane(&self) -> Option<Lane> {
        let mut lane = Lane::new();
        lane.voltage(self.node);
        lane.constant(self.id as f64);
        lane.nonlinear_current(
            self.node,
            NodeId::GROUND,
            Col::Out(0),
            &[(self.node, Col::Out(1))],
        );
        Some(lane)
    }
    fn batch_eval(&self, _ctx: &LoadContext, batch: &mut EvalBatch) {
        // Slow enough that the helper, once woken, always finds a
        // gathered chunk left to claim.
        thread::sleep(Duration::from_micros(300));
        let from = self.trap.from.load(Ordering::Relaxed);
        let spared = self.trap.spare == Some(thread::current().id());
        for (&v, &id) in batch.vin[0].iter().zip(&batch.vin[1]) {
            let id = id as usize;
            if id >= from && !spared {
                panic::panic_any(Trapped(id));
            }
            batch.out[0].push(K * v * v);
            batch.out[1].push(2.0 * K * v);
        }
    }
}

/// A 1 V source feeding `DEVICES` resistor + shunt legs.
fn deck(trap: &Arc<Trap>) -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.vsource(vin, Circuit::GROUND, Waveform::dc(1.0));
    for id in 0..DEVICES {
        let n = ckt.node(&format!("n{id}"));
        ckt.resistor(vin, n, 1e3 + id as f64);
        ckt.add_device(Shunt {
            id,
            node: n,
            trap: Arc::clone(trap),
        });
    }
    ckt
}

/// One operating point of a fresh deck: the solution's bits and the
/// solver effort.
fn solve(trap: &Arc<Trap>) -> (Vec<u64>, SolverStats) {
    let mut ckt = deck(trap);
    let (res, spent) = stats::measure(|| op(&mut ckt));
    let bits = res
        .expect("op converges")
        .raw()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    (bits, spent)
}

/// The payload of a solve that must panic.
fn panic_payload(trap: &Arc<Trap>) -> Trapped {
    let payload = panic::catch_unwind(AssertUnwindSafe(|| solve(trap)))
        .expect_err("a trapped lane must panic the solve");
    *payload
        .downcast::<Trapped>()
        .expect("the original payload reaches the caller")
}

#[test]
fn helper_shares_evaluation_bitwise_and_hands_panics_back() {
    let clean = Arc::new(Trap {
        from: AtomicUsize::new(DISARMED),
        spare: None,
    });
    assert_eq!(par::eval_threads(), 2, "default budget");
    let (two, spent) = solve(&clean);
    assert!(spent.parallel_evals > 0, "{spent:?}");
    assert!(spent.parallel_evals <= spent.batched_evals);
    assert!(
        spent.helper_chunks > 0,
        "the helper took no chunk: {spent:?}"
    );
    let (one, spent) = par::with_eval_threads(1, || solve(&clean));
    assert_eq!(spent.parallel_evals, 0);
    assert_eq!(spent.helper_chunks, 0);
    assert!(one == two, "budget 1 and budget 2 solutions differ");

    // A late lane panics on whichever thread evaluates it.
    let anywhere = Arc::new(Trap {
        from: AtomicUsize::new(LATE),
        spare: None,
    });
    assert_eq!(panic_payload(&anywhere), Trapped(LATE));

    // Every lane past the first chunk panics, but only on the helper:
    // the caller is spared, so the payload can only come from there. The
    // helper may sit out a whole solve, hence the retries.
    let helper_only = Arc::new(Trap {
        from: AtomicUsize::new(300),
        spare: Some(thread::current().id()),
    });
    let mut caught = None;
    for _ in 0..20 {
        let mut ckt = deck(&helper_only);
        match panic::catch_unwind(AssertUnwindSafe(|| op(&mut ckt))) {
            Ok(res) => {
                res.expect("op converges");
            }
            Err(payload) => {
                caught = Some(*payload.downcast::<Trapped>().expect("original payload"));
                break;
            }
        }
    }
    let Some(Trapped(id)) = caught else {
        panic!("the helper never evaluated a trapped chunk");
    };
    assert!(id >= 300, "lane {id} is not trapped");

    // The helper survived its panic and serves the next solve.
    helper_only.from.store(DISARMED, Ordering::Relaxed);
    let (again, spent) = solve(&helper_only);
    assert!(again == two, "the solve after a panic differs");
    assert!(
        spent.parallel_evals > 0 && spent.helper_chunks > 0,
        "{spent:?}"
    );
}
