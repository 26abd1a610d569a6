//! # pathlog-reactive — production and active rules over PathLog references
//!
//! The paper's conclusion states that PathLog's techniques "can be also
//! applied in the context of other kinds of rule languages, e.g. production
//! rules or active rules", because path expressions are merely a way to
//! *reference* objects while rule evaluation is an orthogonal concern.  This
//! crate substantiates that claim with two additional rule systems that share
//! the deductive engine's reference syntax and its compiled atoms: production
//! conditions are matched incrementally
//! ([`Condition`](pathlog_core::plan::Condition)), and each trigger condition
//! runs a plan prepared once with the event's participants bound
//! ([`run_prepared`](pathlog_core::plan::run_prepared)):
//!
//! * [`production`] — a forward-chaining recognise–act production system:
//!   conditions are PathLog bodies, actions assert or retract references,
//!   the highest-priority instantiation not yet fired fires each cycle.
//! * [`active`] — an event–condition–action trigger layer over a
//!   [`Structure`](pathlog_core::structure::Structure): primitive mutations
//!   raise events, conditions are PathLog bodies seeded with the event's
//!   participants, actions are further mutations (cascades are bounded).
//! * [`notify`] — the push front of the active store: subscribers receive
//!   per-epoch change / firing / quiescence notification streams over
//!   [`ActiveStore::subscribe`](active::ActiveStore::subscribe) instead of
//!   polling the structure and diffing dumps.
//!
//! Retraction — which deductive bottom-up evaluation never needs — is
//! provided by the core structure's `retract_scalar` / `retract_set_member`
//! extensions.
//!
//! ```
//! use pathlog_core::program::Literal;
//! use pathlog_core::structure::Structure;
//! use pathlog_core::term::Term;
//! use pathlog_reactive::{Action, ProductionEngine, ProductionRule};
//!
//! let mut structure = Structure::new();
//! let employee = structure.atom("employee");
//! let mary = structure.atom("mary");
//! structure.add_isa(mary, employee);
//!
//! let mut engine = ProductionEngine::new();
//! engine.add_rule(ProductionRule::new(
//!     "everyone-gets-an-address",
//!     vec![Literal::pos(Term::var("X").isa("employee"))],
//!     vec![Action::Assert(Term::var("X").scalar("address"))],
//! ));
//! let stats = engine.run(&mut structure).unwrap();
//! assert_eq!(stats.virtual_objects, 1);
//! ```

#![warn(missing_docs)]

pub mod action;
pub mod active;
pub mod analyze;
pub mod error;
pub mod notify;
pub mod production;

pub use action::{apply_action, Action, ActionEffect};
pub use active::{ActiveOptions, ActiveStats, ActiveStore, EcaAction, EcaRule, Event};
pub use analyze::{analyze_eca_rules, analyze_production_rules, summarize_eca, summarize_production};
pub use error::{ReactiveError, Result};
pub use notify::{Notification, NotificationKind, Subscription};
pub use production::{Firing, ProductionEngine, ProductionOptions, ProductionRule, ProductionStats};
