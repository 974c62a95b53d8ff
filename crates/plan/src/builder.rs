//! Fluent construction of logical plans with name resolution and
//! bottom-up cardinality estimation.

use std::sync::Arc;

use qprog_core::join_est::JoinKind;
use qprog_exec::expr::Expr;
use qprog_exec::ops::agg::{AggFunc, AggSpec};
use qprog_exec::ops::sort::SortKey;
use qprog_storage::Catalog;
use qprog_types::{Field, QError, QResult, Schema};

use crate::cardinality::{group_estimate, join_node_estimate, predicate_selectivity};
use crate::logical::{ColStat, JoinAlgo, JoinCondition, LogicalPlan, Node};

/// Entry point for building logical plans against a catalog.
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    catalog: Catalog,
}

impl PlanBuilder {
    /// New builder over a catalog.
    pub fn new(catalog: Catalog) -> Self {
        PlanBuilder { catalog }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Start a plan with a base-table scan.
    pub fn scan(&self, table: &str) -> QResult<LogicalPlan> {
        let table = self.catalog.table(table)?;
        let stats = self.catalog.stats(table.name())?;
        let col_stats: Vec<ColStat> = stats
            .columns
            .iter()
            .map(|c| Some(Arc::new(c.clone())))
            .collect();
        Ok(LogicalPlan {
            schema: Arc::clone(table.schema()),
            estimate: stats.row_count as f64,
            col_stats,
            node: Node::Scan { table, emit: None },
        })
    }
}

impl LogicalPlan {
    /// Resolve a column reference (`name` or `table.name`) to its index in
    /// this plan's output schema.
    pub fn col(&self, reference: &str) -> QResult<usize> {
        self.schema.index_of(reference)
    }

    /// Column-reference expression by name.
    pub fn col_expr(&self, reference: &str) -> QResult<Expr> {
        Ok(Expr::Column(self.col(reference)?))
    }

    /// Re-qualify every output column with a table alias (`FROM t AS x`).
    pub fn with_alias(self, alias: &str) -> LogicalPlan {
        LogicalPlan {
            schema: self.schema.with_qualifier(alias).into_ref(),
            ..self
        }
    }

    /// Apply a filter.
    pub fn filter(self, predicate: Expr) -> QResult<LogicalPlan> {
        let selectivity = predicate_selectivity(&predicate, &self.col_stats);
        let estimate = (self.estimate * selectivity).max(1.0);
        Ok(LogicalPlan {
            schema: Arc::clone(&self.schema),
            col_stats: self.col_stats.clone(),
            estimate,
            node: Node::Filter {
                input: Box::new(self),
                predicate,
            },
        })
    }

    /// Project onto named expressions.
    pub fn project(self, exprs: Vec<(Expr, &str)>) -> QResult<LogicalPlan> {
        let mut fields = Vec::with_capacity(exprs.len());
        let mut col_stats = Vec::with_capacity(exprs.len());
        for (e, name) in &exprs {
            let dt = e.output_type(&self.schema)?;
            fields.push(Field::new(*name, dt).with_nullable(true));
            col_stats.push(match e {
                Expr::Column(i) => self.col_stats.get(*i).cloned().flatten(),
                _ => None,
            });
        }
        Ok(LogicalPlan {
            schema: Schema::new(fields).into_ref(),
            col_stats,
            estimate: self.estimate,
            node: Node::Project {
                input: Box::new(self),
                exprs: exprs.into_iter().map(|(e, _)| e).collect(),
            },
        })
    }

    /// Equi-join with `build` as the build (left) side and `self` as the
    /// probe (right, streaming) side. Keys are resolved against the
    /// respective child schemas; output schema is `build ++ probe`.
    pub fn join_build(
        self,
        build: LogicalPlan,
        build_key: &str,
        probe_key: &str,
        algo: JoinAlgo,
    ) -> QResult<LogicalPlan> {
        self.join_build_kind(build, build_key, probe_key, algo, JoinKind::Inner)
    }

    /// Equi-join with explicit [`JoinKind`] semantics. `Semi`/`Anti` output
    /// only the probe side's columns; `LeftOuter` preserves unmatched probe
    /// rows (NULL-padding the build columns). Non-inner kinds require the
    /// hash algorithm.
    pub fn join_build_kind(
        self,
        build: LogicalPlan,
        build_key: &str,
        probe_key: &str,
        algo: JoinAlgo,
        kind: JoinKind,
    ) -> QResult<LogicalPlan> {
        if kind != JoinKind::Inner && algo != JoinAlgo::Hash {
            return Err(QError::plan(format!(
                "{kind:?} joins are only implemented for the hash algorithm"
            )));
        }
        let bk = build.col(build_key)?;
        let pk = self.col(probe_key)?;
        let bt = build.schema.field(bk)?.data_type;
        let pt = self.schema.field(pk)?.data_type;
        if !bt.is_key_type() || !pt.is_key_type() {
            return Err(QError::plan(format!(
                "join keys must be key types, got {bt} and {pt}"
            )));
        }
        let condition = JoinCondition::Equi {
            build_key: bk,
            probe_key: pk,
        };
        let inner_estimate = join_node_estimate(&build, &self, &condition);
        // Kind-specific cardinality: semi ≈ matching fraction of the probe
        // side (containment), anti its complement, outer = inner + anti.
        let probe_rows = self.estimate;
        let match_fraction = {
            let ndv = |p: &LogicalPlan, c: usize| {
                p.col_stats
                    .get(c)
                    .and_then(|s| s.as_ref())
                    .map(|s| s.ndv.max(1) as f64)
            };
            match (ndv(&build, bk), ndv(&self, pk)) {
                (Some(nb), Some(np)) => (nb / np).min(1.0),
                _ => 0.5,
            }
        };
        let estimate = match kind {
            JoinKind::Inner => inner_estimate,
            JoinKind::Semi => (probe_rows * match_fraction).max(1.0),
            JoinKind::Anti => (probe_rows * (1.0 - match_fraction)).max(1.0),
            JoinKind::LeftOuter => {
                (inner_estimate + probe_rows * (1.0 - match_fraction)).max(probe_rows)
            }
        };
        let (schema, col_stats) = match kind {
            JoinKind::Inner => {
                let mut cs = build.col_stats.clone();
                cs.extend(self.col_stats.iter().cloned());
                (build.schema.join(&self.schema).into_ref(), cs)
            }
            JoinKind::LeftOuter => {
                let nullable_build = qprog_types::Schema::new(
                    build
                        .schema
                        .fields()
                        .iter()
                        .map(|f| f.clone().with_nullable(true))
                        .collect(),
                );
                let mut cs = build.col_stats.clone();
                cs.extend(self.col_stats.iter().cloned());
                (nullable_build.join(&self.schema).into_ref(), cs)
            }
            JoinKind::Semi | JoinKind::Anti => (Arc::clone(&self.schema), self.col_stats.clone()),
        };
        Ok(LogicalPlan {
            schema,
            col_stats,
            estimate,
            node: Node::Join {
                build: Box::new(build),
                probe: Box::new(self),
                condition,
                algo,
                kind,
                emit: None,
            },
        })
    }

    /// Hash equi-join (the common case).
    pub fn hash_join(
        self,
        build: LogicalPlan,
        build_key: &str,
        probe_key: &str,
    ) -> QResult<LogicalPlan> {
        self.join_build(build, build_key, probe_key, JoinAlgo::Hash)
    }

    /// Probe-preserving left outer hash join (`self LEFT JOIN build`).
    pub fn left_outer_join(
        self,
        build: LogicalPlan,
        build_key: &str,
        probe_key: &str,
    ) -> QResult<LogicalPlan> {
        self.join_build_kind(
            build,
            build_key,
            probe_key,
            JoinAlgo::Hash,
            JoinKind::LeftOuter,
        )
    }

    /// Semi hash join: probe rows with at least one build match (`EXISTS`).
    pub fn semi_join(
        self,
        build: LogicalPlan,
        build_key: &str,
        probe_key: &str,
    ) -> QResult<LogicalPlan> {
        self.join_build_kind(build, build_key, probe_key, JoinAlgo::Hash, JoinKind::Semi)
    }

    /// Anti hash join: probe rows with no build match (`NOT EXISTS`).
    pub fn anti_join(
        self,
        build: LogicalPlan,
        build_key: &str,
        probe_key: &str,
    ) -> QResult<LogicalPlan> {
        self.join_build_kind(build, build_key, probe_key, JoinAlgo::Hash, JoinKind::Anti)
    }

    /// Nested-loops join with an arbitrary condition; `self` is the outer
    /// (streaming) side. The theta predicate indexes the concatenated
    /// (inner-build ++ outer) schema... note: for consistency with the other
    /// joins the build (left) side comes first in the output schema, and it
    /// is also the materialized inner side; `self` streams.
    pub fn nl_join(self, inner: LogicalPlan, condition: JoinCondition) -> QResult<LogicalPlan> {
        if let JoinCondition::Equi {
            build_key,
            probe_key,
        } = &condition
        {
            inner.schema.field(*build_key)?;
            self.schema.field(*probe_key)?;
        }
        let estimate = join_node_estimate(&inner, &self, &condition);
        let mut col_stats = inner.col_stats.clone();
        col_stats.extend(self.col_stats.iter().cloned());
        Ok(LogicalPlan {
            schema: inner.schema.join(&self.schema).into_ref(),
            col_stats,
            estimate,
            node: Node::Join {
                build: Box::new(inner),
                probe: Box::new(self),
                condition,
                algo: JoinAlgo::NestedLoops,
                kind: JoinKind::Inner,
                emit: None,
            },
        })
    }

    /// GROUP BY with aggregates. `aggs` are `(function, input column name
    /// or None for COUNT(*), output alias)`.
    pub fn aggregate(
        self,
        group_by: &[&str],
        aggs: &[(AggFunc, Option<&str>, &str)],
    ) -> QResult<LogicalPlan> {
        let group_cols: Vec<usize> = group_by
            .iter()
            .map(|g| self.col(g))
            .collect::<QResult<_>>()?;
        let mut fields = Vec::new();
        let mut col_stats: Vec<ColStat> = Vec::new();
        for &g in &group_cols {
            fields.push(self.schema.field(g)?.clone());
            col_stats.push(self.col_stats.get(g).cloned().flatten());
        }
        let mut specs = Vec::with_capacity(aggs.len());
        for (func, col_name, alias) in aggs {
            let col = match col_name {
                Some(n) => Some(self.col(n)?),
                None => {
                    if *func != AggFunc::CountStar {
                        return Err(QError::plan(format!("{func:?} requires an input column")));
                    }
                    None
                }
            };
            let input_type = col
                .map(|c| self.schema.field(c))
                .transpose()?
                .map(|f| f.data_type);
            fields.push(Field::new(*alias, func.output_type(input_type)).with_nullable(true));
            col_stats.push(None);
            specs.push(AggSpec { func: *func, col });
        }
        let group_stats: Vec<&ColStat> = group_cols.iter().map(|&g| &self.col_stats[g]).collect();
        let estimate = group_estimate(self.estimate, &group_stats);
        Ok(LogicalPlan {
            schema: Schema::new(fields).into_ref(),
            col_stats,
            estimate,
            node: Node::Aggregate {
                input: Box::new(self),
                group_cols,
                aggs: specs,
            },
        })
    }

    /// ORDER BY.
    pub fn sort(self, keys: &[(&str, bool)]) -> QResult<LogicalPlan> {
        let keys: Vec<SortKey> = keys
            .iter()
            .map(|(name, ascending)| {
                Ok(SortKey {
                    col: self.col(name)?,
                    ascending: *ascending,
                })
            })
            .collect::<QResult<_>>()?;
        Ok(LogicalPlan {
            schema: Arc::clone(&self.schema),
            col_stats: self.col_stats.clone(),
            estimate: self.estimate,
            node: Node::Sort {
                input: Box::new(self),
                keys,
            },
        })
    }

    /// LIMIT.
    pub fn limit(self, n: usize) -> QResult<LogicalPlan> {
        let estimate = self.estimate.min(n as f64);
        Ok(LogicalPlan {
            schema: Arc::clone(&self.schema),
            col_stats: self.col_stats.clone(),
            estimate,
            node: Node::Limit {
                input: Box::new(self),
                n,
            },
        })
    }
}

/// Literal expression helper re-exported for plan construction.
pub fn lit(v: impl Into<qprog_types::Value>) -> Expr {
    Expr::Literal(v.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_exec::expr::BinOp;
    use qprog_storage::Table;
    use qprog_types::row;
    use qprog_types::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut customer = Table::new(
            "customer",
            Schema::new(vec![
                Field::new("custkey", DataType::Int64),
                Field::new("nationkey", DataType::Int64),
            ]),
        );
        for i in 0..1000i64 {
            customer.push(row![i, i % 25]).unwrap();
        }
        let mut nation = Table::new(
            "nation",
            Schema::new(vec![
                Field::new("nationkey", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
        );
        for i in 0..25i64 {
            nation.push(row![i, format!("nation{i}")]).unwrap();
        }
        c.register(customer).unwrap();
        c.register(nation).unwrap();
        c
    }

    #[test]
    fn scan_carries_stats_and_estimate() {
        let b = PlanBuilder::new(catalog());
        let p = b.scan("customer").unwrap();
        assert_eq!(p.estimate, 1000.0);
        assert_eq!(p.col_stats.len(), 2);
        assert!(p.col_stats[1].as_ref().unwrap().ndv == 25);
        assert!(b.scan("nosuch").is_err());
    }

    #[test]
    fn filter_scales_estimate() {
        let b = PlanBuilder::new(catalog());
        let p = b.scan("customer").unwrap();
        let pred = Expr::binary(BinOp::Lt, p.col_expr("custkey").unwrap(), lit(500i64));
        let p = p.filter(pred).unwrap();
        assert!((400.0..=600.0).contains(&p.estimate), "{}", p.estimate);
    }

    #[test]
    fn join_schema_and_estimate() {
        let b = PlanBuilder::new(catalog());
        let probe = b.scan("customer").unwrap();
        let build = b.scan("nation").unwrap();
        let j = probe
            .hash_join(build, "nation.nationkey", "customer.nationkey")
            .unwrap();
        assert_eq!(j.schema.arity(), 4);
        // PK-FK: |C|·|N| / 25 = 1000
        assert!((j.estimate - 1000.0).abs() < 1.0, "{}", j.estimate);
        // qualified resolution works on the join schema
        assert!(j.col("customer.nationkey").is_ok());
        assert!(j.col("nation.nationkey").is_ok());
        assert!(j.col("nationkey").is_err()); // ambiguous
    }

    #[test]
    fn join_rejects_bad_keys() {
        let b = PlanBuilder::new(catalog());
        let probe = b.scan("customer").unwrap();
        let build = b.scan("nation").unwrap();
        assert!(probe.hash_join(build, "nation.nosuch", "custkey").is_err());
    }

    #[test]
    fn aggregate_schema_and_estimate() {
        let b = PlanBuilder::new(catalog());
        let p = b
            .scan("customer")
            .unwrap()
            .aggregate(
                &["nationkey"],
                &[
                    (AggFunc::CountStar, None, "cnt"),
                    (AggFunc::Sum, Some("custkey"), "total"),
                ],
            )
            .unwrap();
        assert_eq!(p.schema.arity(), 3);
        assert_eq!(p.estimate, 25.0);
        assert_eq!(p.schema.field(1).unwrap().name, "cnt");
        assert_eq!(p.schema.field(2).unwrap().data_type, DataType::Int64);
    }

    #[test]
    fn aggregate_rejects_missing_column_for_sum() {
        let b = PlanBuilder::new(catalog());
        let p = b.scan("customer").unwrap();
        assert!(p.aggregate(&[], &[(AggFunc::Sum, None, "s")]).is_err());
    }

    #[test]
    fn sort_limit_project() {
        let b = PlanBuilder::new(catalog());
        let p = b
            .scan("customer")
            .unwrap()
            .sort(&[("custkey", false)])
            .unwrap()
            .limit(10)
            .unwrap();
        assert_eq!(p.estimate, 10.0);
        let p2 = b
            .scan("customer")
            .unwrap()
            .project(vec![(Expr::col(0), "k")])
            .unwrap();
        assert_eq!(p2.schema.arity(), 1);
        assert!(p2.col_stats[0].is_some());
    }

    #[test]
    fn display_renders_tree() {
        let b = PlanBuilder::new(catalog());
        let probe = b.scan("customer").unwrap();
        let build = b.scan("nation").unwrap();
        let j = probe
            .hash_join(build, "nation.nationkey", "customer.nationkey")
            .unwrap();
        let d = j.display();
        assert!(d.contains("Join[Hash/Inner]"));
        assert!(d.contains("Scan customer"));
        assert_eq!(j.operator_count(), 3);
    }
}
