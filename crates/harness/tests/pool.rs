//! The pool's worker threads: an idle worker exits instead of spinning
//! while another still runs its job, and jobs on a multi-worker pool
//! evaluate their devices on their own thread (eval-thread budget 1),
//! never on the simulator's eval helper.
//!
//! The tests take one lock so that neither burns CPU while the other
//! measures the process's CPU time.

use std::sync::Mutex;
use std::time::Duration;

use nemscmos_harness::{parallel_map, try_parallel_map};
use nemscmos_spice::analysis::op::op;
use nemscmos_spice::circuit::Circuit;
use nemscmos_spice::device::{
    batch_key_word, Col, Device, EvalBatch, Lane, LoadContext, Solution, BATCH_KEY_SEED,
};
use nemscmos_spice::element::NodeId;
use nemscmos_spice::stamp::Stamper;
use nemscmos_spice::stats;
use nemscmos_spice::waveform::Waveform;

static SERIAL: Mutex<()> = Mutex::new(());

/// User plus system CPU time of this process, in clock ticks
/// (`USER_HZ`, 100 per second on Linux), from `/proc/self/stat`.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| fields[i - 3].parse::<u64>().expect("numeric field");
    field(14) + field(15)
}

#[test]
fn idle_worker_exits_instead_of_spinning() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = cpu_ticks();
    let out = try_parallel_map(2, 2, |i| {
        if i == 0 {
            std::thread::sleep(Duration::from_millis(200));
        }
        i
    });
    let spent = cpu_ticks() - before;
    assert_eq!(out.len(), 2);
    // A worker spinning on its empty queue for the 200 ms would burn
    // about 20 ticks; an exited one burns none.
    assert!(spent < 5, "{spent} ticks of CPU while one job slept 200 ms");
}

/// A batchable square-law shunt to ground.
#[derive(Debug)]
struct SquareLaw {
    node: NodeId,
}

impl Device for SquareLaw {
    fn name(&self) -> &str {
        "squarelaw"
    }
    fn load(&self, x: &Solution<'_>, _ctx: &LoadContext, st: &mut Stamper) {
        let v = x.v(self.node);
        st.nonlinear_current(
            self.node,
            NodeId::GROUND,
            1e-4 * v * v,
            &[(self.node, 2e-4 * v)],
        );
    }
    fn commit(&mut self, _x: &Solution<'_>, _ctx: &LoadContext) -> bool {
        false
    }
    fn reset_state(&mut self) {}
    fn batch_key(&self) -> Option<u64> {
        Some(batch_key_word(BATCH_KEY_SEED, 1))
    }
    fn lane(&self) -> Option<Lane> {
        let mut lane = Lane::new();
        lane.voltage(self.node);
        lane.nonlinear_current(
            self.node,
            NodeId::GROUND,
            Col::Out(0),
            &[(self.node, Col::Out(1))],
        );
        Some(lane)
    }
    fn batch_eval(&self, _ctx: &LoadContext, batch: &mut EvalBatch) {
        for &v in &batch.vin[0] {
            batch.out[0].push(1e-4 * v * v);
            batch.out[1].push(2e-4 * v);
        }
    }
}

/// An operating point of 2 000 batched shunts: enough lanes to engage
/// the eval helper at the default budget.
fn wide_op(_: usize) {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.vsource(vin, Circuit::GROUND, Waveform::dc(1.0));
    for i in 0..2_000 {
        let n = ckt.node(&format!("n{i}"));
        ckt.resistor(vin, n, 1e3);
        ckt.add_device(SquareLaw { node: n });
    }
    op(&mut ckt).expect("op converges");
}

#[test]
fn multi_worker_jobs_never_engage_the_eval_helper() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Inline (one worker) the job keeps the caller's budget of 2 and
    // shares its evaluation with the helper: the deck is wide enough.
    let (_, inline) = stats::measure(|| parallel_map(1, 1, wide_op));
    assert!(inline.parallel_evals > 0, "{inline:?}");
    let (_, pooled) = stats::measure(|| parallel_map(2, 2, wide_op));
    assert!(pooled.batched_evals > 0);
    assert_eq!(pooled.parallel_evals, 0, "{pooled:?}");
    assert_eq!(pooled.helper_chunks, 0);
}
