//! The run loops every driver shares: warm-up then measure, and the same
//! under a [`Watchdog`].

use crate::error::{SimError, Watchdog};
use xmodel_obs::names::span::{SIM_MEASURE, SIM_WARMUP};

/// Cycle stride between watchdog budget checks in [`run_watched`].
const WATCHDOG_STRIDE: u64 = 512;

/// What the run loops need of a simulator driver.
pub(crate) trait Driver {
    /// Turn measurement on or off.
    fn measure(&mut self, on: bool);
    /// Run at least one and at most `most` cycles; return how many ran.
    /// Only [`crate::sm::Sm`] runs more than one, over idle cycles.
    fn advance(&mut self, most: u64) -> u64;
    /// Warp requests completed so far: the watchdog's progress signal.
    fn completed(&self) -> u64;
}

/// Run `warmup` unmeasured cycles then `measure` measured ones, under a
/// span named `span`.
pub(crate) fn run(d: &mut impl Driver, span: &'static str, warmup: u64, measure: u64) {
    let _span = xmodel_obs::span!(span);
    for (measuring, phase, mut cycles) in
        [(false, SIM_WARMUP, warmup), (true, SIM_MEASURE, measure)]
    {
        d.measure(measuring);
        let _phase = xmodel_obs::span!(phase);
        while cycles > 0 {
            cycles -= d.advance(cycles);
        }
    }
}

/// [`run`], without phase spans, under a [`Watchdog`] whose budgets are
/// checked after every 512th cycle.
pub(crate) fn run_watched(
    d: &mut impl Driver,
    span: &'static str,
    warmup: u64,
    measure: u64,
    watchdog: &Watchdog,
) -> Result<(), SimError> {
    let _span = xmodel_obs::span!(span);
    // xlint: allow(nondeterminism-in-result-path, watchdog wall-clock budget; overruns abort with a typed error and never alter stats)
    let started = std::time::Instant::now();
    let total = warmup + measure;
    let mut last_completed = d.completed();
    let mut last_progress = 0u64;
    let mut ran = 0;
    d.measure(false);
    while ran < total {
        if ran == warmup {
            d.measure(true);
            last_progress = ran;
        }
        let phase_end = if ran < warmup { warmup } else { total };
        // Stop just past the next check cycle, so the check below reads
        // the state it would after stepping that cycle.
        let check = ran.next_multiple_of(WATCHDOG_STRIDE);
        ran += d.advance(phase_end.min(check + 1) - ran);
        let i = ran - 1;
        if i % WATCHDOG_STRIDE == 0 {
            if d.completed() != last_completed {
                last_completed = d.completed();
                last_progress = i;
            }
            let stalled = if i >= warmup { i - last_progress } else { 0 };
            watchdog.check(i + 1, d.completed(), stalled, started)?;
        }
    }
    Ok(())
}
