//! Self-stabilization from an arbitrary corrupted state — the property the paper proves
//! in Theorem 2 but could not demonstrate on its Mininet prototype ("the scope of our
//! work does not include an empirical demonstration of recovery after the occurrence of
//! arbitrary transient faults", Section 6.1). In the simulation we *can* scribble over
//! every switch and controller and watch the system converge anyway.
//!
//! Run with: `cargo run --release --example self_stabilization`

use renaissance::scenario::{FaultEvent, MetricKey, Probe, Scenario};
use sdn_netsim::SimDuration;

fn main() {
    // Corrupt everything the fault model allows: every switch's rules, managers and
    // meta tags, every controller's replyDB, round tags, tag generator and memos —
    // then watch the legitimacy probe fall to 0 and climb back to 1.
    let report = Scenario::builder("self-stabilization")
        .network("Clos")
        .controllers(3)
        .task_delay(SimDuration::from_millis(500))
        .timeout(SimDuration::from_secs(900))
        .fault_at(SimDuration::ZERO, FaultEvent::CorruptState)
        .probe(Probe::legitimacy())
        .probe(Probe::total_rules())
        .sample_probes_every(SimDuration::from_secs(2))
        .seeds_from(2024)
        .run();

    let run = &report.runs[0];
    println!(
        "Clos fabric bootstrapped in {:.2}s; injecting arbitrary state corruption...",
        run.bootstrap_s.expect("bootstrap")
    );
    println!("injected: {}", run.injected[0].description);

    let recovery = run.recoveries[0]
        .recovered_in_s
        .expect("Theorem 2: the system recovers from any starting state");
    println!("self-stabilized in {recovery:.2}s (simulated)");

    println!("legitimacy / total rules over time:");
    let legitimacy = run.probe(&MetricKey::LEGITIMACY).expect("legitimacy probe");
    let rules = run.probe(&MetricKey::TOTAL_RULES).expect("rules probe");
    for ((t, legit), rules) in legitimacy
        .times_s
        .iter()
        .zip(&legitimacy.values)
        .zip(&rules.values)
    {
        let marker = if *legit > 0.0 {
            "legitimate"
        } else {
            "ILLEGITIMATE"
        };
        println!("  t={t:>6.1}s  {marker:<12} {rules:>6.0} rules");
    }
    println!(
        "final state: legitimate={}, {} rules total ({} max per switch)",
        run.final_legitimate, run.total_rules, run.max_rules_per_switch
    );
}
