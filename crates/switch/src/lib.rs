//! The abstract SDN switch of Renaissance (paper, Section 2.1).
//!
//! This crate provides the switch-side half of the control plane:
//!
//! * [`rules`] — prioritized match-action rules, the shared immutable rule sets they
//!   travel in, and the bounded, LRU-evicting rule table that holds such sets,
//! * [`managers`] — the bounded manager set,
//! * [`commands`] — the controller-to-switch command batches and query replies,
//! * [`switch`] — the [`AbstractSwitch`] control module that applies command batches
//!   atomically and answers configuration queries,
//! * [`forwarding`] — the data-plane forwarding decision (highest-priority applicable
//!   rule, fast-failover on non-operational out-links, DFS bounce-back support).
//!
//! The switch is intentionally dumb: it never computes routes, never ages rules with
//! timeouts, and keeps whatever (possibly corrupted) state it woke up with until a
//! controller overwrites it — the exact model the paper's self-stabilization proof is
//! written against.
//!
//! # Example
//!
//! ```
//! use sdn_switch::{AbstractSwitch, CommandBatch, RuleBody, RuleSet, SwitchCommand, SwitchConfig};
//! use sdn_tags::Tag;
//! use sdn_topology::NodeId;
//!
//! let mut sw = AbstractSwitch::new(NodeId::new(3), SwitchConfig::default());
//! let tag = Tag::new(0, 1);
//! let rules: RuleSet = [RuleBody {
//!     src: Some(NodeId::new(0)), dst: NodeId::new(7),
//!     prt: 2, fwd: NodeId::new(4),
//! }].into_iter().collect();
//! let batch = CommandBatch::new(NodeId::new(0), vec![
//!     SwitchCommand::NewRound { tag },
//!     SwitchCommand::AddManager { controller: NodeId::new(0) },
//!     SwitchCommand::UpdateRules { tag, rules, keep_tags: vec![] },
//!     SwitchCommand::Query { tag },
//! ]);
//! let reply = sw.apply_batch(&batch, &[NodeId::new(2), NodeId::new(4)]).unwrap();
//! assert_eq!(reply.rules.rule_count(), 1);
//! let hop = sw.next_hop(NodeId::new(0), NodeId::new(7), &[], &[NodeId::new(2), NodeId::new(4)], |_| true);
//! assert_eq!(hop, Some(NodeId::new(4)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commands;
pub mod forwarding;
pub mod managers;
pub mod rules;
pub mod switch;

pub use commands::{CommandBatch, QueryReply, SwitchCommand};
pub use managers::ManagerSet;
pub use rules::{Rule, RuleBody, RuleSet, RuleSummary, RuleTable};
pub use switch::{AbstractSwitch, SwitchConfig, SwitchStats};
