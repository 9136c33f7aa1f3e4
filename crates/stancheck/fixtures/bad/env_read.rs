// stancheck-fixture: crate=core kind=lib
//! Known-bad: environment reads. Two runs of one command would differ with the
//! shell they were started from.
use std::env;

pub fn runs() -> usize {
    let from_var = env::var("RUNS").ok().and_then(|v| v.parse().ok());
    let present = std::env::var_os("RUNS_OVERRIDE").is_some();
    let extra = env::vars().count();
    from_var.unwrap_or(3) + usize::from(present) + extra
}
