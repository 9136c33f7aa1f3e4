//! `core.legitimacy`: the Definition 1 predicate recomputed from scratch, and the
//! memoized poll on an unchanged network.

use super::secs_per_call;
use renaissance::SdnNetwork;

/// Milliseconds per `legitimacy_report_fresh`.
pub fn fresh_ms(net: &SdnNetwork) -> f64 {
    secs_per_call(|| net.legitimacy_report_fresh()) * 1e3
}

/// Microseconds per `legitimacy_report` when nothing changed since the last one.
pub fn cached_us(net: &SdnNetwork) -> f64 {
    let _ = net.legitimacy_report();
    secs_per_call(|| net.legitimacy_report()) * 1e6
}
