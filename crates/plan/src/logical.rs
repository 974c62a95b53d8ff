//! Logical query plans.
//!
//! Plans are built by [`PlanBuilder`](crate::builder::PlanBuilder) (or the
//! SQL binder) with column references already resolved to indices; every
//! node carries its output schema, per-column statistics provenance, and
//! the optimizer's cardinality estimate computed bottom-up at construction.

use std::sync::Arc;

use qprog_core::join_est::JoinKind;
use qprog_exec::expr::Expr;
use qprog_exec::ops::agg::AggSpec;
use qprog_exec::ops::sort::SortKey;
use qprog_storage::stats::ColumnStats;
use qprog_storage::Table;
use qprog_types::{Field, SchemaRef};

/// Join algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgo {
    Hash,
    Merge,
    NestedLoops,
}

/// Join condition.
#[derive(Debug, Clone)]
pub enum JoinCondition {
    /// Equi-join: key column index in the build (left) child and in the
    /// probe (right) child.
    Equi { build_key: usize, probe_key: usize },
    /// Theta join over the concatenated (build ++ probe) row — only valid
    /// with [`JoinAlgo::NestedLoops`].
    Theta(Expr),
    /// Cross product — only valid with [`JoinAlgo::NestedLoops`].
    Cross,
}

/// Statistics provenance for one output column.
pub type ColStat = Option<Arc<ColumnStats>>;

/// A logical plan node with derived metadata.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    pub node: Node,
    /// Output schema.
    pub schema: SchemaRef,
    /// Per-output-column base statistics, where still traceable to a base
    /// table column.
    pub col_stats: Vec<ColStat>,
    /// Optimizer cardinality estimate for this node's output.
    pub estimate: f64,
}

/// The node variants.
#[derive(Debug, Clone)]
pub enum Node {
    Scan {
        table: Arc<Table>,
        /// The table columns emitted, if not all; set by
        /// [`prune_columns`](crate::physical::prune_columns).
        emit: Option<Vec<usize>>,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
    },
    Join {
        /// Build (left) child.
        build: Box<LogicalPlan>,
        /// Probe (right) child — the side that streams.
        probe: Box<LogicalPlan>,
        condition: JoinCondition,
        algo: JoinAlgo,
        /// Inner / probe-preserving outer / semi / anti semantics.
        kind: JoinKind,
        /// A hash or merge join's emitted columns of build ++ probe, if not
        /// all its kind yields; set by projection push-down.
        emit: Option<Vec<usize>>,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group_cols: Vec<usize>,
        aggs: Vec<AggSpec>,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<LogicalPlan>,
        n: usize,
    },
}

impl LogicalPlan {
    /// Number of operators in the plan tree.
    pub fn operator_count(&self) -> usize {
        1 + match &self.node {
            Node::Scan { .. } => 0,
            Node::Filter { input, .. }
            | Node::Project { input, .. }
            | Node::Aggregate { input, .. }
            | Node::Sort { input, .. }
            | Node::Limit { input, .. } => input.operator_count(),
            Node::Join { build, probe, .. } => build.operator_count() + probe.operator_count(),
        }
    }

    /// Pretty multi-line plan rendering (EXPLAIN-style).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.render(0, &mut out);
        out
    }

    fn render(&self, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let mut line = match &self.node {
            Node::Scan { table, .. } => {
                format!("Scan {} (rows={})", table.name(), table.num_rows())
            }
            Node::Filter { .. } => "Filter".to_string(),
            Node::Project { .. } => "Project".to_string(),
            Node::Join {
                condition,
                algo,
                kind,
                ..
            } => match condition {
                JoinCondition::Equi {
                    build_key,
                    probe_key,
                } => format!("Join[{algo:?}/{kind:?}] build.{build_key} = probe.{probe_key}"),
                JoinCondition::Theta(_) => format!("Join[{algo:?}/{kind:?}] theta"),
                JoinCondition::Cross => format!("Join[{algo:?}/{kind:?}] cross"),
            },
            Node::Aggregate { group_cols, .. } => format!("Aggregate group_by={group_cols:?}"),
            Node::Sort { .. } => "Sort".to_string(),
            Node::Limit { n, .. } => format!("Limit {n}"),
        };
        if let Node::Scan { emit: Some(_), .. } | Node::Join { emit: Some(_), .. } = &self.node {
            let names: Vec<_> = self
                .schema
                .fields()
                .iter()
                .map(Field::qualified_name)
                .collect();
            line += &format!(" emit=[{}]", names.join(", "));
        }
        out.push_str(&format!("{pad}{line} (est={:.0})\n", self.estimate));
        match &self.node {
            Node::Scan { .. } => {}
            Node::Filter { input, .. }
            | Node::Project { input, .. }
            | Node::Aggregate { input, .. }
            | Node::Sort { input, .. }
            | Node::Limit { input, .. } => input.render(depth + 1, out),
            Node::Join { build, probe, .. } => {
                build.render(depth + 1, out);
                probe.render(depth + 1, out);
            }
        }
    }
}
