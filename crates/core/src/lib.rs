//! # `ccpi` — constraint checking with partial information
//!
//! The public facade of the workspace: a reproduction of *Gupta, Sagiv,
//! Ullman, Widom — "Constraint Checking with Partial Information"
//! (PODS 1994)* as a usable library.
//!
//! The paper's three information levels become an escalation ladder that
//! [`ConstraintManager::check_update`] walks for every registered
//! constraint:
//!
//! 1. **Constraints only** (§3): a constraint subsumed by the others never
//!    needs checking ([`Method::Subsumed`]);
//! 2. **Constraints + update** (§4): rewrite `C` into the post-update
//!    `C′` and test `C′ ⊆ C ∪ C₁ ∪ … ∪ Cₙ`
//!    ([`Method::IndependentOfUpdate`]);
//! 3. **Constraints + update + local data** (§5–6): complete local tests —
//!    the compiled Theorem 5.3 relational-algebra plan, the Theorem 6.1
//!    forbidden-interval test, or the general Theorem 5.2 containment test
//!    ([`Method::LocalTest`]);
//! 4. **Full evaluation** — only when everything above is inconclusive
//!    does the checker read remote relations ([`Method::FullCheck`]),
//!    and the [`distributed`] module meters exactly how much.
//!
//! ```
//! use ccpi::prelude::*;
//!
//! let mut db = Database::new();
//! db.declare("l", 2, Locality::Local).unwrap();
//! db.declare("r", 1, Locality::Remote).unwrap();
//! db.insert("l", tuple![3, 6]).unwrap();
//! db.insert("l", tuple![5, 10]).unwrap();
//!
//! let mut mgr = ConstraintManager::new(db);
//! mgr.add_constraint(
//!     "forbidden-intervals",
//!     "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.",
//! ).unwrap();
//!
//! // Example 5.3: inserting (4,8) is certified by the local data alone.
//! let report = mgr.check_update(&Update::insert("l", tuple![4, 8])).unwrap();
//! assert!(matches!(
//!     report.outcome("forbidden-intervals"),
//!     Some(Outcome::Holds(Method::LocalTest(_)))
//! ));
//! assert_eq!(report.remote_tuples_read, 0);
//! ```

pub mod active;
pub mod distributed;
pub mod durable;
pub mod manager;
pub mod pipeline;
pub mod remote;
pub mod report;
pub mod sharding;

pub use durable::{BatchResult, DurableError, DurableManager, RecoveryReport};
pub use manager::{ConstraintManager, ManagerError};
pub use pipeline::{Applicability, CompiledStage, CostClass, PlanShape, StageId, StagePlan};
pub use remote::{RemoteError, RemoteSource, UnreachableRemote};
pub use report::{
    CheckReport, LocalTestKind, Method, Outcome, Stage4Kind, StageTimes, UnknownCause, WireStats,
};
pub use sharding::{constraint_scope, fragment_verdict_final, ShardScope};

/// Convenient re-exports for applications.
pub mod prelude {
    pub use crate::active::{ActiveRule, ActiveRuleSet};
    pub use crate::distributed::SiteSplit;
    pub use crate::durable::{BatchResult, DurableError, DurableManager, RecoveryReport};
    pub use crate::manager::{ConstraintManager, ManagerError};
    pub use crate::pipeline::{Applicability, CostClass, PlanShape, StageId};
    pub use crate::remote::{RemoteError, RemoteSource, UnreachableRemote};
    pub use crate::report::{
        CheckReport, LocalTestKind, Method, Outcome, Stage4Kind, StageTimes, UnknownCause,
        WireStats,
    };
    pub use crate::sharding::{constraint_scope, fragment_verdict_final, ShardScope};
    pub use ccpi_arith::{Domain, Solver};
    pub use ccpi_ir::{Constraint, Cq, Program, Rule};
    pub use ccpi_parser::{parse_constraint, parse_cq, parse_program, parse_rule};
    pub use ccpi_storage::{
        tuple, Database, DeltaSet, Locality, Relation, Tuple, Update, UpdateTemplate,
    };
}
