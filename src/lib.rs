//! # pathlog
//!
//! The facade crate of the PathLog workspace — a complete reproduction of
//! *Access to Objects by Path Expressions and Rules* (Frohn, Lausen, Uphoff,
//! 1994).  It re-exports the public API of every member crate:
//!
//! * [`core`] ([`pathlog_core`]) — references (paths and molecules), the
//!   direct semantics, rules and the bottom-up engine with virtual objects;
//! * [`parser`] ([`pathlog_parser`]) — the concrete PathLog syntax;
//! * [`oodb`] ([`pathlog_oodb`]) — the extensional object store substrate;
//! * [`baseline`] ([`pathlog_baseline`]) — relational, one-dimensional-path
//!   and view-based comparison systems;
//! * [`flogic`] ([`pathlog_flogic`]) — the F-logic translation baseline the
//!   paper contrasts its direct semantics with, lowered to one-molecule
//!   rules that run on the core engine;
//! * [`sqlfront`] ([`pathlog_sqlfront`]) — an O2SQL/XSQL-style object-SQL
//!   frontend compiled to PathLog queries and view rules;
//! * [`reactive`] ([`pathlog_reactive`]) — production rules and active (ECA)
//!   rules whose conditions are PathLog bodies;
//! * [`datagen`] ([`pathlog_datagen`]) — synthetic company, genealogy and
//!   bill-of-materials workloads.
//!
//! See `examples/` for runnable end-to-end scenarios and `EXPERIMENTS.md` for
//! the experiment index.
//!
//! ```
//! use pathlog::prelude::*;
//!
//! let program = pathlog::parser::parse_program(
//!     "p1 : employee[worksFor -> cs1].
//!      X.boss[worksFor -> D] <- X : employee[worksFor -> D].",
//! )
//! .unwrap();
//! let mut structure = Structure::new();
//! Engine::new().load_program(&mut structure, &program).unwrap();
//! // p1.boss is now a virtual object working for cs1.
//! let boss = Engine::new()
//!     .eval_ground(&structure, &pathlog::parser::parse_term("p1.boss").unwrap())
//!     .unwrap();
//! assert_eq!(boss.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pathlog_baseline as baseline;
pub use pathlog_core as core;
pub use pathlog_datagen as datagen;
pub use pathlog_flogic as flogic;
pub use pathlog_oodb as oodb;
pub use pathlog_parser as parser;
pub use pathlog_reactive as reactive;
pub use pathlog_sqlfront as sqlfront;

/// Commonly used items from all member crates.
pub mod prelude {
    pub use pathlog_baseline::{OneDimQuery, RelationalDb, ViewDef};
    pub use pathlog_core::prelude::*;
    pub use pathlog_datagen::{CompanyParams, GenealogyParams};
    pub use pathlog_flogic::Translator;
    pub use pathlog_oodb::{ObjectStore, Schema, Value};
    pub use pathlog_parser::{
        parse_program, parse_program_spanned, parse_query, parse_rule, parse_term, SpannedProgram,
    };
    pub use pathlog_reactive::{
        Action, ActiveOptions, ActiveStore, EcaRule, ProductionEngine, ProductionOptions, ProductionRule,
    };
    pub use pathlog_sqlfront::Catalog;
}
