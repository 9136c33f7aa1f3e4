//! The *sim fingerprint*: a 64-bit FNV-1a hash over a run's deterministic simulated
//! fields. Simulated time is never a performance metric here — it is the
//! correctness check: the fingerprint must repeat exactly for one seed on one
//! commit, and a change meant only to speed the simulator up must leave it alone.
//! It is printed, not pinned in the repository, so a legitimate protocol fix does
//! not break the benchmark.

use renaissance::scenario::RunReport;

pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => self.f64(v),
            None => self.u64(u64::MAX),
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of one seeded run: bootstrap time, every recovery record, message and
/// event totals, the final simulated clock, and — when a flow engine ran — the
/// completed-flow count and FCT p50/p99.
pub fn of_run(run: &RunReport) -> u64 {
    let mut h = Fnv::default();
    h.u64(run.seed);
    h.opt_f64(run.bootstrap_s);
    h.u64(run.recoveries.len() as u64);
    for r in &run.recoveries {
        h.f64(r.fault_at_s);
        h.opt_f64(r.recovered_in_s);
    }
    h.u64(run.messages_sent);
    h.u64(run.events_processed);
    h.f64(run.sim_end_s);
    for wl in &run.workloads {
        h.bytes(wl.note("completed").unwrap_or("").as_bytes());
        if let Some(fct) = wl.digest("fct_s") {
            h.u64(fct.count());
            h.f64(fct.p50());
            h.f64(fct.p99());
        }
    }
    h.finish()
}

/// Folds per-run (or per-session) fingerprints, in order, into the workload's one.
pub fn combine(parts: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &p in parts {
        h.u64(p);
    }
    h.finish()
}

/// Fingerprint of a text artifact (the serve session's final report).
pub fn of_text(text: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(text.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use renaissance::scenario::RecoveryRecord;

    #[test]
    fn every_deterministic_field_moves_the_fingerprint() {
        let base = || RunReport {
            seed: 7,
            bootstrap_s: Some(2.25),
            recoveries: vec![RecoveryRecord {
                fault_at_s: 5.0,
                recovered_in_s: Some(0.5),
            }],
            messages_sent: 10,
            events_processed: 20,
            sim_end_s: 9.0,
            ..RunReport::default()
        };
        let reference = of_run(&base());
        assert_eq!(reference, of_run(&base()));
        let mut r = base();
        r.bootstrap_s = None;
        assert_ne!(reference, of_run(&r));
        let mut r = base();
        r.recoveries[0].recovered_in_s = None;
        assert_ne!(reference, of_run(&r));
        let mut r = base();
        r.events_processed += 1;
        assert_ne!(reference, of_run(&r));
        let mut r = base();
        r.sim_end_s = 9.25;
        assert_ne!(reference, of_run(&r));
        // Host-dependent or derived fields are not part of it.
        let mut r = base();
        r.total_rules = 99;
        assert_eq!(reference, of_run(&r));
    }
}
