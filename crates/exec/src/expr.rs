//! Expression evaluation with SQL three-valued logic, in place over the
//! rows of a column-major [`RowBatch`] (no row is materialized).

use std::fmt;

use qprog_types::{DataType, QError, QResult, RowBatch, Schema, Value};

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// A physical (index-resolved) expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Input column by index.
    Column(usize),
    /// Constant.
    Literal(Value),
    /// Binary operation.
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// Logical negation (three-valued: NOT NULL = NULL).
    Not(Box<Expr>),
    /// `IS NULL` (negate = true ⇒ `IS NOT NULL`); never returns NULL.
    IsNull { expr: Box<Expr>, negate: bool },
}

impl Expr {
    /// Shorthand for a column reference.
    pub fn col(idx: usize) -> Expr {
        Expr::Column(idx)
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand for a binary expression.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinOp::And, self, other)
    }

    /// This expression with every column index `i` it reads, left to
    /// right, read as `f(i)` instead.
    pub fn map_columns(&self, f: &mut impl FnMut(usize) -> usize) -> Expr {
        match self {
            Expr::Column(i) => Expr::Column(f(*i)),
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Not(e) => Expr::Not(Box::new(e.map_columns(f))),
            Expr::IsNull { expr, negate } => Expr::IsNull {
                expr: Box::new(expr.map_columns(f)),
                negate: *negate,
            },
            Expr::Binary { op, left, right } => {
                Expr::binary(*op, left.map_columns(f), right.map_columns(f))
            }
        }
    }

    /// Evaluate against row `row` of `batch`.
    pub fn eval_at(&self, batch: &RowBatch, row: usize) -> QResult<Value> {
        match self {
            Expr::Column(i) => match batch.cols().get(*i) {
                Some(col) => Ok(col.value(row)),
                None => Err(QError::internal(format!(
                    "column {i} out of bounds for arity {}",
                    batch.arity()
                ))),
            },
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Not(e) => match e.eval_at(batch, row)? {
                Value::Null => Ok(Value::Null),
                Value::Bool(b) => Ok(Value::Bool(!b)),
                other => Err(QError::type_err(format!(
                    "NOT expects BOOLEAN, got {}",
                    other.data_type()
                ))),
            },
            Expr::IsNull { expr, negate } => {
                let isnull = expr.eval_at(batch, row)?.is_null();
                Ok(Value::Bool(isnull != *negate))
            }
            Expr::Binary { op, left, right } => {
                let l = left.eval_at(batch, row)?;
                // Short-circuit three-valued AND/OR.
                match op {
                    BinOp::And => return eval_and(&l, || right.eval_at(batch, row)),
                    BinOp::Or => return eval_or(&l, || right.eval_at(batch, row)),
                    _ => {}
                }
                let r = right.eval_at(batch, row)?;
                eval_scalar_binary(*op, &l, &r)
            }
        }
    }

    /// Evaluate against row `row` of `batch` as a WHERE-clause predicate:
    /// NULL is treated as false.
    pub fn eval_predicate_at(&self, batch: &RowBatch, row: usize) -> QResult<bool> {
        match self.eval_at(batch, row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(QError::type_err(format!(
                "predicate must be BOOLEAN, got {}",
                other.data_type()
            ))),
        }
    }

    /// Static result type against an input schema (for planning).
    pub fn output_type(&self, schema: &Schema) -> QResult<DataType> {
        match self {
            Expr::Column(i) => Ok(schema.field(*i)?.data_type),
            Expr::Literal(v) => Ok(v.data_type()),
            Expr::Not(_) | Expr::IsNull { .. } => Ok(DataType::Bool),
            Expr::Binary { op, left, right } => {
                // Every operator but arithmetic yields a boolean.
                if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) {
                    return Ok(DataType::Bool);
                }
                let l = left.output_type(schema)?;
                let r = right.output_type(schema)?;
                match (l, r) {
                    (DataType::Int64, DataType::Int64) if *op != BinOp::Div => Ok(DataType::Int64),
                    (a, b) if a.is_numeric() && b.is_numeric() => Ok(DataType::Float64),
                    (a, b) => Err(QError::type_err(format!(
                        "cannot apply {op} to {a} and {b}"
                    ))),
                }
            }
        }
    }
}

fn eval_and(l: &Value, r: impl FnOnce() -> QResult<Value>) -> QResult<Value> {
    match l {
        Value::Bool(false) => Ok(Value::Bool(false)),
        Value::Bool(true) => match r()? {
            Value::Bool(b) => Ok(Value::Bool(b)),
            Value::Null => Ok(Value::Null),
            other => type_mismatch("AND", &other),
        },
        Value::Null => match r()? {
            Value::Bool(false) => Ok(Value::Bool(false)),
            Value::Bool(true) | Value::Null => Ok(Value::Null),
            other => type_mismatch("AND", &other),
        },
        other => type_mismatch("AND", other),
    }
}

fn eval_or(l: &Value, r: impl FnOnce() -> QResult<Value>) -> QResult<Value> {
    match l {
        Value::Bool(true) => Ok(Value::Bool(true)),
        Value::Bool(false) => match r()? {
            Value::Bool(b) => Ok(Value::Bool(b)),
            Value::Null => Ok(Value::Null),
            other => type_mismatch("OR", &other),
        },
        Value::Null => match r()? {
            Value::Bool(true) => Ok(Value::Bool(true)),
            Value::Bool(false) | Value::Null => Ok(Value::Null),
            other => type_mismatch("OR", &other),
        },
        other => type_mismatch("OR", other),
    }
}

fn type_mismatch(op: &str, v: &Value) -> QResult<Value> {
    Err(QError::type_err(format!(
        "{op} expects BOOLEAN, got {}",
        v.data_type()
    )))
}

fn eval_scalar_binary(op: BinOp, l: &Value, r: &Value) -> QResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            let ord = l.sql_cmp(r).ok_or_else(|| {
                QError::type_err(format!(
                    "cannot compare {} with {}",
                    l.data_type(),
                    r.data_type()
                ))
            })?;
            let b = match op {
                BinOp::Eq => ord == std::cmp::Ordering::Equal,
                BinOp::NotEq => ord != std::cmp::Ordering::Equal,
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::LtEq => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                BinOp::GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul => match (l, r) {
            (Value::Int64(a), Value::Int64(b)) => {
                let res = match op {
                    BinOp::Add => a.checked_add(*b),
                    BinOp::Sub => a.checked_sub(*b),
                    BinOp::Mul => a.checked_mul(*b),
                    _ => unreachable!(),
                };
                res.map(Value::Int64)
                    .ok_or_else(|| QError::exec(format!("integer overflow in {op}")))
            }
            _ => {
                let (a, b) = (l.as_f64()?, r.as_f64()?);
                let res = match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    _ => unreachable!(),
                };
                Ok(Value::Float64(res))
            }
        },
        BinOp::Div => {
            let (a, b) = (l.as_f64()?, r.as_f64()?);
            if b == 0.0 {
                return Err(QError::exec("division by zero"));
            }
            Ok(Value::Float64(a / b))
        }
        BinOp::And | BinOp::Or => unreachable!("handled by short-circuit path"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::{row, Field};

    /// The one-row batch `[10, 2.5, "abc", true]`.
    fn r() -> RowBatch {
        let types = [
            DataType::Int64,
            DataType::Float64,
            DataType::Utf8,
            DataType::Bool,
        ];
        let mut b = RowBatch::with_capacity(types, 2);
        b.push_drain(&mut row![10i64, 2.5, "abc", true].into_values())
            .unwrap();
        b
    }

    /// Evaluation against row 0, the shape these tests are written in.
    trait EvalFirst {
        fn eval(&self, b: &RowBatch) -> QResult<Value>;
        fn eval_predicate(&self, b: &RowBatch) -> QResult<bool>;
    }

    impl EvalFirst for Expr {
        fn eval(&self, b: &RowBatch) -> QResult<Value> {
            self.eval_at(b, 0)
        }
        fn eval_predicate(&self, b: &RowBatch) -> QResult<bool> {
            self.eval_predicate_at(b, 0)
        }
    }

    #[test]
    fn columns_and_literals() {
        assert_eq!(Expr::col(0).eval(&r()).unwrap(), Value::Int64(10));
        assert_eq!(Expr::lit(7i64).eval(&r()).unwrap(), Value::Int64(7));
        assert!(Expr::col(9).eval(&r()).is_err());
    }

    #[test]
    fn arithmetic() {
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(5i64));
        assert_eq!(e.eval(&r()).unwrap(), Value::Int64(15));
        let e = Expr::binary(BinOp::Mul, Expr::col(0), Expr::col(1));
        assert_eq!(e.eval(&r()).unwrap(), Value::Float64(25.0));
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(0i64));
        assert!(e.eval(&r()).is_err());
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::lit(4i64));
        assert_eq!(e.eval(&r()).unwrap(), Value::Float64(2.5));
    }

    #[test]
    fn integer_overflow_is_an_error() {
        let e = Expr::binary(BinOp::Mul, Expr::lit(i64::MAX), Expr::lit(2i64));
        assert!(e.eval(&r()).is_err());
    }

    #[test]
    fn comparisons() {
        let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(5i64));
        assert_eq!(e.eval(&r()).unwrap(), Value::Bool(true));
        let e = Expr::binary(BinOp::Eq, Expr::col(2), Expr::lit("abc"));
        assert_eq!(e.eval(&r()).unwrap(), Value::Bool(true));
        let e = Expr::binary(BinOp::Lt, Expr::col(2), Expr::lit(1i64));
        assert!(e.eval(&r()).is_err());
    }

    #[test]
    fn null_propagation_in_comparisons() {
        let e = Expr::binary(BinOp::Eq, Expr::lit(Value::Null), Expr::lit(1i64));
        assert_eq!(e.eval(&r()).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&r()).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let t = || Expr::lit(true);
        let f = || Expr::lit(false);
        let n = || Expr::lit(Value::Null);
        // AND truth table with NULL
        assert_eq!(t().and(n()).eval(&r()).unwrap(), Value::Null);
        assert_eq!(f().and(n()).eval(&r()).unwrap(), Value::Bool(false));
        assert_eq!(
            Expr::binary(BinOp::And, n(), f()).eval(&r()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::binary(BinOp::And, n(), n()).eval(&r()).unwrap(),
            Value::Null
        );
        // OR truth table with NULL
        assert_eq!(
            Expr::binary(BinOp::Or, n(), t()).eval(&r()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Expr::binary(BinOp::Or, f(), n()).eval(&r()).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn and_short_circuits() {
        // right side would error (bad column), but left is false
        let e = Expr::binary(BinOp::And, Expr::lit(false), Expr::col(99));
        assert_eq!(e.eval(&r()).unwrap(), Value::Bool(false));
    }

    #[test]
    fn not_and_is_null() {
        assert_eq!(
            Expr::Not(Box::new(Expr::lit(true))).eval(&r()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Expr::Not(Box::new(Expr::lit(Value::Null)))
                .eval(&r())
                .unwrap(),
            Value::Null
        );
        let isnull = Expr::IsNull {
            expr: Box::new(Expr::lit(Value::Null)),
            negate: false,
        };
        assert_eq!(isnull.eval(&r()).unwrap(), Value::Bool(true));
        let isnotnull = Expr::IsNull {
            expr: Box::new(Expr::col(0)),
            negate: true,
        };
        assert_eq!(isnotnull.eval(&r()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn output_types() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("f", DataType::Float64),
        ]);
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(0));
        assert_eq!(e.output_type(&schema).unwrap(), DataType::Int64);
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::col(1));
        assert_eq!(e.output_type(&schema).unwrap(), DataType::Float64);
        let e = Expr::binary(BinOp::Div, Expr::col(0), Expr::col(0));
        assert_eq!(e.output_type(&schema).unwrap(), DataType::Float64);
        let e = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(1));
        assert_eq!(e.output_type(&schema).unwrap(), DataType::Bool);
    }

    #[test]
    fn predicate_rejects_non_boolean() {
        let e = Expr::binary(BinOp::Add, Expr::col(0), Expr::lit(1i64));
        assert!(e.eval_predicate(&r()).is_err());
    }

    #[test]
    fn evaluates_the_addressed_row() {
        let mut b = r();
        b.push_drain(&mut row![3i64, 0.5, "xyz", false].into_values())
            .unwrap();
        let e = Expr::binary(BinOp::Gt, Expr::col(0), Expr::lit(5i64));
        assert_eq!(e.eval_at(&b, 0).unwrap(), Value::Bool(true));
        assert_eq!(e.eval_at(&b, 1).unwrap(), Value::Bool(false));
        assert!(!e.eval_predicate_at(&b, 1).unwrap());
        assert!(Expr::col(9).eval_at(&b, 1).is_err());
    }
}
