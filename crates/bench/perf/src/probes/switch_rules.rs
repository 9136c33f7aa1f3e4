//! `switch.rules`: `RuleTable::replace_controller_rules`, the `updateRule` splice.
//! Measured twice on the fullest switch of the end state: re-installing the rule set
//! a controller already has there (the steady-state round), and installing it into
//! an empty table (bootstrap).

use super::secs_per_prepared_call;
use renaissance::SdnNetwork;
use sdn_switch::{AbstractSwitch, Rule, RuleTable};
use sdn_topology::NodeId;

fn fullest_switch(net: &SdnNetwork) -> Option<&AbstractSwitch> {
    net.live_switch_ids()
        .into_iter()
        .filter_map(|id| net.switch(id))
        .max_by_key(|sw| sw.rules().len())
}

fn first_owner(sw: &AbstractSwitch) -> Option<(NodeId, Vec<Rule>)> {
    let owner = sw.rules().controllers_with_rules().first().copied()?;
    Some((owner, sw.rules().rules_of(owner)))
}

/// Microseconds for the first owner's rule set to be spliced into the table `start`
/// builds from the fullest switch's; 0 when no switch holds rules.
fn replace_us(net: &SdnNetwork, start: impl Fn(&RuleTable) -> RuleTable) -> f64 {
    let Some(sw) = fullest_switch(net) else {
        return 0.0;
    };
    let Some((owner, rules)) = first_owner(sw) else {
        return 0.0;
    };
    secs_per_prepared_call(
        || start(sw.rules()),
        |mut table| table.replace_controller_rules(owner, rules.iter().copied(), &[]),
    ) * 1e6
}

/// Microseconds to replace a controller's rules with the identical set.
pub fn replace_same_us(net: &SdnNetwork) -> f64 {
    replace_us(net, RuleTable::clone)
}

/// Microseconds to install the same rule set into an empty table.
pub fn replace_empty_us(net: &SdnNetwork) -> f64 {
    replace_us(net, |table| RuleTable::new(table.capacity()))
}
