//! Abstract syntax tree for the supported SQL subset.

/// A parsed SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    pub select: Vec<SelectItem>,
    pub from: TableRef,
    pub joins: Vec<JoinClause>,
    pub where_clause: Option<AstExpr>,
    pub group_by: Vec<String>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<usize>,
}

/// A table reference with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

/// Join type keywords.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinType {
    #[default]
    Inner,
    /// `LEFT [OUTER] JOIN` — preserves the accumulated (left) side.
    LeftOuter,
}

/// `[LEFT [OUTER]] JOIN <table> ON <left> = <right>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub table: TableRef,
    /// Qualified or unqualified column names of the equi-join condition.
    pub on: (String, String),
    pub join_type: JoinType,
}

/// One item of the select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// A scalar expression with optional alias.
    Expr {
        expr: AstExpr,
        alias: Option<String>,
    },
    /// `func(col)` / `count(*)` with optional alias.
    Aggregate {
        func: AggCall,
        column: Option<String>,
        alias: Option<String>,
    },
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggCall {
    Count,
    CountStar,
    Sum,
    Min,
    Max,
    Avg,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub column: String,
    pub ascending: bool,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    Column(String),
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
    Binary {
        op: AstBinOp,
        left: Box<AstExpr>,
        right: Box<AstExpr>,
    },
    Not(Box<AstExpr>),
    IsNull {
        expr: Box<AstExpr>,
        negate: bool,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AstBinOp {
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
