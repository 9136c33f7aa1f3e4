//! A service session and a scenario run boot through one path (`Driver::boot`): a
//! session stepped at the scenario's legitimacy-check period first reads legitimate
//! at the same simulated instant, after the same number of events, as a same-seed
//! bootstrap-only scenario on the same topology.

use renaissance::scenario::Scenario;
use sdn_metrics::json::Json;
use sdn_netsim::SimDuration;
use sdn_serve::{Session, SessionConfig};

/// Steps a 250 ms session until a sample reads legitimate: `(sim_s, events)` then.
fn session_bootstrap(topology: &str, seed: u64) -> (f64, f64) {
    let mut session = Session::new(SessionConfig {
        topology: topology.to_string(),
        controllers: 2,
        seed,
        tick_millis: 250,
        ring_capacity: 16,
    });
    for _ in 0..400 {
        let (_, line) = session.last_sample().expect("a sample per tick");
        let sample = Json::parse(&line).expect("samples are JSON");
        let number = |key| sample.get(key).and_then(Json::as_f64).expect(key);
        if sample.get("legitimate").and_then(Json::as_bool) == Some(true) {
            return (number("sim_s"), number("events"));
        }
        session.step();
    }
    panic!("{topology} at seed {seed} did not bootstrap in 100 simulated seconds");
}

/// The same bootstrap as a scenario checking legitimacy every 250 ms.
fn scenario_bootstrap(topology: &str, seed: u64) -> (f64, f64) {
    let report = Scenario::builder(topology)
        .network(topology)
        .controllers(2)
        .seeds_from(seed)
        .check_every(SimDuration::from_millis(250))
        .run();
    let run = &report.runs[0];
    let bootstrap = run.bootstrap_s.expect("the scenario bootstraps");
    assert_eq!(run.sim_end_s, bootstrap, "a bootstrap-only run ends there");
    (bootstrap, run.events_processed as f64)
}

#[test]
fn a_session_boots_like_the_same_seed_scenario() {
    for (topology, seed, expected) in [
        ("grid(2,3)", 11, (1.25, 102.0)),
        ("fat_tree(4)", 7, (2.75, 767.0)),
    ] {
        let session = session_bootstrap(topology, seed);
        assert_eq!(session, scenario_bootstrap(topology, seed), "{topology}");
        assert_eq!(session, expected, "{topology}");
    }
}
