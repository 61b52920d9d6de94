//! Run instrumentation: the host-time observer the engine calls into.
//!
//! Hooks are no-ops by default, so a custom observer implements only
//! what it cares about. The observer is passed to the engine alongside
//! the world, never stored in it, so it sees the run's host-side timing
//! but cannot influence simulation state: a run's outputs are identical
//! whether or not anything is listening. Simulated facts (loads, policy
//! transitions, faults) are read from the run's metrics, trace and fault
//! ledger on [`SimOutput`](crate::sim::SimOutput), not from here.

use rootcast_netsim::SimTime;
use std::time::Duration;

/// Host-time observer hooks for a simulation run.
///
/// All methods have empty default bodies. Wall-clock durations are
/// host-side measurements and vary run to run.
pub trait Instrumentation {
    /// A driver phase (`build_world`, `drive`, `finalize`) began.
    /// Phases nest like a stack; every start is matched by an
    /// [`on_phase_end`](Instrumentation::on_phase_end) with the same name.
    fn on_phase_start(&mut self, _phase: &'static str) {}

    /// The innermost open driver phase ended.
    fn on_phase_end(&mut self, _phase: &'static str) {}

    /// A subsystem finished its tick at simulated time `t`, having
    /// consumed `wall` of host time.
    fn on_subsystem_tick(&mut self, _subsystem: &'static str, _t: SimTime, _wall: Duration) {}
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopInstrumentation;

impl Instrumentation for NoopInstrumentation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_observer_compiles_all_hooks() {
        let mut n = NoopInstrumentation;
        n.on_phase_start("drive");
        n.on_subsystem_tick("x", SimTime::ZERO, Duration::ZERO);
        n.on_phase_end("drive");
    }
}
