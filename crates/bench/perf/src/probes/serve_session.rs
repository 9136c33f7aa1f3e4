//! `serve.session`: the recorded command script of an HTTP session re-driven against
//! a bare `Session` — same commands, same ticks, same reads, no transport — with a
//! span around each call (the call plus the `to_string()` the transport would do).
//! With a disabled tracer the same function is its own untraced reference.

use super::secs_per_call;
use crate::serve::{iteration_of_step, ReadRequest, LOG_PAGE};
use crate::trace::Tracer;
use crate::workloads::ServePlan;
use sdn_serve::{Command, CommandLog, Session};

/// Span names of the in-process calls, indexed like [`crate::serve::KINDS`].
pub const KIND_SPANS: [&str; 6] = [
    "serve.session.step",
    "serve.session.metrics_json",
    "serve.session.legitimacy_json",
    "serve.session.topology_json",
    "serve.session.log_json",
    "serve.session.node_json",
];

fn read(session: &Session, request: ReadRequest) -> String {
    match request {
        ReadRequest::Metrics => session.metrics_json().to_string(),
        ReadRequest::Legitimacy => session.legitimacy_json().to_string(),
        ReadRequest::Topology => session.topology_json().to_string(),
        ReadRequest::Log { from } => session.log_json(from, LOG_PAGE).to_string(),
        ReadRequest::Node(id) => session
            .node_json(id)
            .map_or_else(String::new, |node| node.to_string()),
    }
}

/// Replays `log` the way the live driver executed it: every command applied at its
/// recorded position, every `step` followed by the read its iteration issued.
/// Returns the session at its end state; its final report must equal the live one.
pub fn run_script(log: &CommandLog, plan: &ServePlan, nodes: u32, tracer: &mut Tracer) -> Session {
    let root = tracer.enter("serve.session.run");
    let mut session = tracer.span("serve.session.new", || Session::new(log.config.clone()));
    let mut steps = 0u32;
    for (_, cmd) in &log.entries {
        tracer.span("serve.session.apply", || session.apply(cmd).to_string());
        if let Command::Step { ticks } = cmd {
            tracer.span(KIND_SPANS[0], || {
                for _ in 0..*ticks {
                    session.step();
                }
            });
            let request = ReadRequest::of_iteration(iteration_of_step(steps, plan), nodes);
            steps += 1;
            tracer.span(KIND_SPANS[request.kind()], || read(&session, request));
        }
    }
    tracer.exit(root);
    session
}

/// Milliseconds per `final_report()` + `to_string()` at the end state.
pub fn final_report_ms(session: &Session) -> f64 {
    secs_per_call(|| session.final_report().to_string()) * 1e3
}

#[cfg(test)]
mod fidelity {
    use super::*;
    use crate::serve;
    use crate::workloads::{serve_plan, Size};
    use std::time::Instant;

    /// The bare-session re-drive must end in the byte-identical final report of the
    /// HTTP session it replays (reduced size), traced or not, and its spans must
    /// cover every step and every read of the script.
    #[test]
    fn bare_session_replay_reproduces_the_http_report() {
        let plan = serve_plan(Size::Quick);
        let http = serve::run_session(&plan, 1000, Instant::now()).unwrap();
        assert_eq!(http.failures(), Vec::<String>::new());
        let mut off = Tracer::new(false);
        let untraced = run_script(&http.log, &plan, http.client.nodes, &mut off);
        assert_eq!(untraced.final_report().to_string(), http.report);
        let mut on = Tracer::new(true);
        let traced = run_script(&http.log, &plan, http.client.nodes, &mut on);
        assert_eq!(traced.final_report().to_string(), http.report);
        on.check().unwrap();
        let totals = on.totals();
        let steps = u64::from(plan.warmup_iterations + plan.iterations);
        assert_eq!(totals[KIND_SPANS[0]].count, steps);
        let reads: u64 = KIND_SPANS[1..].iter().map(|name| totals[name].count).sum();
        assert_eq!(reads, steps);
        assert_eq!(
            totals["serve.session.apply"].count,
            http.log.entries.len() as u64
        );
    }
}
