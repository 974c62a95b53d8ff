//! Volcano-style, instrumented execution engine.
//!
//! Every operator implements [`Operator::next`] — one call per output tuple,
//! which is precisely the `getnext()` event the gnm progress model counts.
//! Operators publish per-operator counters through lock-free
//! [`metrics::OpMetrics`] handles so a monitor (same thread or another) can
//! observe `K_i` and the current `N_i` estimate at any time.
//!
//! The operators reproduce the *phase structure* the paper's estimators
//! rely on:
//!
//! - [`ops::hash_join::HashJoin`] is a grace-style partitioned join: the
//!   build input is fully consumed and partitioned, then the probe input is
//!   fully consumed and partitioned (this is where `once` estimation runs
//!   and converges), and only then are partitions joined pairwise — so the
//!   output is clustered by key, the reordering that defeats the dne/byte
//!   baselines (paper Fig. 4).
//! - [`ops::merge_join::MergeJoin`] sorts both inputs up front (estimation
//!   runs in the two sort phases) and merges, again emitting key-clustered
//!   output.
//! - [`ops::agg::HashAggregate`] consumes its whole input into groups
//!   (distinct-value estimation runs here) before emitting.

/// A fieldless enum whose variants each carry a stable lowercase name (used
/// by the JSONL sink, metrics labels and the monitor's JSON): `ALL` (in
/// declaration order), `name`, its inverse `from_name` (used by the trace
/// replay parser) and a `Display` that writes the name.
macro_rules! named_enum {
    ($(#[$meta:meta])* pub enum $ty:ident {
        $($(#[$vmeta:meta])* $variant:ident = $name:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$vmeta])* $variant,)+
        }

        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant),+];

            /// The variant's stable lowercase name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)+
                }
            }

            /// The variant named `name`, if any.
            pub fn from_name(name: &str) -> Option<$ty> {
                Self::ALL.iter().copied().find(|v| v.name() == name)
            }
        }

        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

pub mod expr;
pub mod governor;
pub mod metrics;
pub mod ops;
pub mod parallel;
pub mod runtime;
pub mod span;
pub mod sync;
pub mod trace;

pub use expr::{BinOp, Expr};
pub use governor::{Budgets, CancellationToken, Governor};
pub use metrics::{MetricsRegistry, OpMetrics};
pub use ops::{BoxedOp, Operator};
pub use runtime::collect;
