//! Recursive-descent parser for the supported SQL subset.

use qprog_types::{QError, QResult};

use crate::ast::*;
use crate::lexer::{tokenize, Token};

/// Expression limits. Binding, evaluating and dropping an expression
/// recurse over its tree, and so does parsing a parenthesis or a `NOT`: past
/// these bounds a `POST /submit` body could overflow the stack and abort the
/// process. An expression of `n` tokens is at most `n / 2` levels deep, and
/// `BETWEEN`/`IN` copy their left operand once per bound or item (nested,
/// the copies would double the tree per level).
const MAX_NESTING: usize = 100;
const MAX_EXPR_TOKENS: usize = 1000;
const MAX_COPIED_NODES: usize = 100_000;

/// Parse one SELECT statement.
pub fn parse(sql: &str) -> QResult<Query> {
    let tokens = tokenize(sql)?;
    let mut p = Parser {
        tokens,
        ..Parser::default()
    };
    let q = p.query()?;
    // allow a trailing semicolon
    if p.peek_is(&Token::Semicolon) {
        p.advance();
    }
    if p.pos != p.tokens.len() {
        return Err(QError::parse(format!(
            "unexpected trailing tokens starting at {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(q)
}

#[derive(Default)]
struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Open parentheses and `NOT`s of the expression being parsed.
    nesting: usize,
    /// Token position where the outermost expression being parsed starts.
    expr_start: usize,
    /// Nodes copied by `BETWEEN` and `IN` so far.
    copied: usize,
}

/// Refuse an expression past one of the limits.
fn limit(exceeded: bool, what: &str) -> QResult<()> {
    match exceeded {
        true => Err(QError::parse(format!("expression {what}"))),
        false => Ok(()),
    }
}

/// Nodes in an expression tree.
fn size(e: &AstExpr) -> usize {
    match e {
        AstExpr::Binary { left, right, .. } => 1 + size(left) + size(right),
        AstExpr::Not(e) | AstExpr::IsNull { expr: e, .. } => 1 + size(e),
        _ => 1,
    }
}

impl Parser {
    /// Charge `copies` clones of `e` to the statement's copy budget.
    fn charge_copies(&mut self, e: &AstExpr, copies: usize) -> QResult<()> {
        self.copied += size(e) * copies;
        limit(
            self.copied > MAX_COPIED_NODES,
            "copies BETWEEN/IN operands too often",
        )
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_is(&self, t: &Token) -> bool {
        self.peek() == Some(t)
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_keyword(kw))
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect_keyword(&mut self, kw: &str) -> QResult<()> {
        if self.peek_keyword(kw) {
            self.advance();
            Ok(())
        } else {
            Err(QError::parse(format!(
                "expected `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> QResult<()> {
        if self.peek() == Some(&t) {
            self.advance();
            Ok(())
        } else {
            Err(QError::parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> QResult<String> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(QError::parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// `name` or `qualifier.name`.
    fn column_name(&mut self) -> QResult<String> {
        let first = self.ident()?;
        if self.peek_is(&Token::Dot) {
            self.advance();
            let second = self.ident()?;
            Ok(format!("{first}.{second}"))
        } else {
            Ok(first)
        }
    }

    fn query(&mut self) -> QResult<Query> {
        self.expect_keyword("select")?;
        let distinct = self.eat_keyword("distinct");
        let select = self.select_list()?;
        self.expect_keyword("from")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let join_type = if self.eat_keyword("inner") {
                self.expect_keyword("join")?;
                JoinType::Inner
            } else if self.eat_keyword("left") {
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinType::LeftOuter
            } else if self.eat_keyword("join") {
                JoinType::Inner
            } else {
                break;
            };
            let table = self.table_ref()?;
            self.expect_keyword("on")?;
            let left = self.column_name()?;
            self.expect(Token::Eq)?;
            let right = self.column_name()?;
            joins.push(JoinClause {
                table,
                on: (left, right),
                join_type,
            });
        }
        let where_clause = if self.eat_keyword("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            group_by.push(self.column_name()?);
            while self.peek_is(&Token::Comma) {
                self.advance();
                group_by.push(self.column_name()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let column = self.column_name()?;
                let ascending = if self.eat_keyword("desc") {
                    false
                } else {
                    self.eat_keyword("asc");
                    true
                };
                order_by.push(OrderItem { column, ascending });
                if self.peek_is(&Token::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("limit") {
            match self.advance() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(QError::parse(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query {
            distinct,
            select,
            from,
            joins,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> QResult<TableRef> {
        let table = self.ident()?;
        let alias = if self.eat_keyword("as") {
            Some(self.ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            // bare alias, unless it's a clause keyword
            const CLAUSES: [&str; 11] = [
                "join", "inner", "left", "outer", "on", "where", "group", "order", "limit",
                "select", "from",
            ];
            if CLAUSES.iter().any(|k| s.eq_ignore_ascii_case(k)) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn select_list(&mut self) -> QResult<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if self.peek_is(&Token::Comma) {
                self.advance();
            } else {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> QResult<SelectItem> {
        if self.peek_is(&Token::Star) {
            self.advance();
            return Ok(SelectItem::Wildcard);
        }
        // aggregate call?
        if let Some(Token::Ident(name)) = self.peek() {
            let func = match name.to_ascii_lowercase().as_str() {
                "count" => Some(AggCall::Count),
                "sum" => Some(AggCall::Sum),
                "min" => Some(AggCall::Min),
                "max" => Some(AggCall::Max),
                "avg" => Some(AggCall::Avg),
                _ => None,
            };
            if let Some(mut func) = func {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.advance(); // func name
                    self.advance(); // (
                    let column = if self.peek_is(&Token::Star) {
                        if func != AggCall::Count {
                            return Err(QError::parse("only COUNT accepts `*`"));
                        }
                        func = AggCall::CountStar;
                        self.advance();
                        None
                    } else {
                        Some(self.column_name()?)
                    };
                    self.expect(Token::RParen)?;
                    let alias = self.optional_alias()?;
                    return Ok(SelectItem::Aggregate {
                        func,
                        column,
                        alias,
                    });
                }
            }
        }
        let expr = self.expr()?;
        let alias = self.optional_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn optional_alias(&mut self) -> QResult<Option<String>> {
        if self.eat_keyword("as") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    // ---- expression precedence climbing ----

    fn expr(&mut self) -> QResult<AstExpr> {
        if self.nesting == 0 {
            self.expr_start = self.pos;
        }
        self.or_expr()
    }

    fn or_expr(&mut self) -> QResult<AstExpr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("or") {
            let right = self.and_expr()?;
            left = AstExpr::Binary {
                op: AstBinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> QResult<AstExpr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("and") {
            let right = self.not_expr()?;
            left = AstExpr::Binary {
                op: AstBinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> QResult<AstExpr> {
        self.nesting += 1;
        limit(self.nesting > MAX_NESTING, "nests too deeply")?;
        let e = if self.eat_keyword("not") {
            AstExpr::Not(Box::new(self.not_expr()?))
        } else {
            self.comparison()?
        };
        self.nesting -= 1;
        Ok(e)
    }

    fn comparison(&mut self) -> QResult<AstExpr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("is") {
            let negate = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok(AstExpr::IsNull {
                expr: Box::new(left),
                negate,
            });
        }
        // [NOT] BETWEEN a AND b → (left >= a AND left <= b)
        let negated = if self.peek_keyword("not") {
            // lookahead: only consume NOT if BETWEEN/IN follows
            match self.tokens.get(self.pos + 1) {
                Some(t) if t.is_keyword("between") || t.is_keyword("in") => {
                    self.advance();
                    true
                }
                _ => false,
            }
        } else {
            false
        };
        if self.eat_keyword("between") {
            let lo = self.additive()?;
            self.expect_keyword("and")?;
            let hi = self.additive()?;
            self.charge_copies(&left, 1)?;
            let range = AstExpr::Binary {
                op: AstBinOp::And,
                left: Box::new(AstExpr::Binary {
                    op: AstBinOp::GtEq,
                    left: Box::new(left.clone()),
                    right: Box::new(lo),
                }),
                right: Box::new(AstExpr::Binary {
                    op: AstBinOp::LtEq,
                    left: Box::new(left),
                    right: Box::new(hi),
                }),
            };
            return Ok(if negated {
                AstExpr::Not(Box::new(range))
            } else {
                range
            });
        }
        // [NOT] IN (v, v, ...) → OR chain of equalities
        if self.eat_keyword("in") {
            self.expect(Token::LParen)?;
            let mut alts = Vec::new();
            loop {
                alts.push(self.additive()?);
                if self.peek_is(&Token::Comma) {
                    self.advance();
                } else {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            self.charge_copies(&left, alts.len())?;
            let mut it = alts.into_iter();
            let first = it.next().ok_or_else(|| QError::parse("empty IN list"))?;
            let mut ors = AstExpr::Binary {
                op: AstBinOp::Eq,
                left: Box::new(left.clone()),
                right: Box::new(first),
            };
            for alt in it {
                ors = AstExpr::Binary {
                    op: AstBinOp::Or,
                    left: Box::new(ors),
                    right: Box::new(AstExpr::Binary {
                        op: AstBinOp::Eq,
                        left: Box::new(left.clone()),
                        right: Box::new(alt),
                    }),
                };
            }
            return Ok(if negated {
                AstExpr::Not(Box::new(ors))
            } else {
                ors
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => AstBinOp::Eq,
            Some(Token::NotEq) => AstBinOp::NotEq,
            Some(Token::Lt) => AstBinOp::Lt,
            Some(Token::LtEq) => AstBinOp::LtEq,
            Some(Token::Gt) => AstBinOp::Gt,
            Some(Token::GtEq) => AstBinOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(AstExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn additive(&mut self) -> QResult<AstExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => AstBinOp::Add,
                Some(Token::Minus) => AstBinOp::Sub,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.multiplicative()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn multiplicative(&mut self) -> QResult<AstExpr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => AstBinOp::Mul,
                Some(Token::Slash) => AstBinOp::Div,
                _ => return Ok(left),
            };
            self.advance();
            let right = self.unary()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
    }

    fn unary(&mut self) -> QResult<AstExpr> {
        // Every operand passes here, so no tree outgrows this check.
        limit(self.pos - self.expr_start > MAX_EXPR_TOKENS, "is too long")?;
        if self.peek_is(&Token::Minus) {
            self.advance();
            return match self.advance() {
                Some(Token::Int(n)) => Ok(AstExpr::Int(-n)),
                Some(Token::Float(f)) => Ok(AstExpr::Float(-f)),
                other => Err(QError::parse(format!(
                    "`-` expects a numeric literal, found {other:?}"
                ))),
            };
        }
        self.primary()
    }

    fn primary(&mut self) -> QResult<AstExpr> {
        match self.advance() {
            Some(Token::Int(n)) => Ok(AstExpr::Int(n)),
            Some(Token::Float(f)) => Ok(AstExpr::Float(f)),
            Some(Token::Str(s)) => Ok(AstExpr::Str(s)),
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(s)) => {
                if s.eq_ignore_ascii_case("true") {
                    Ok(AstExpr::Bool(true))
                } else if s.eq_ignore_ascii_case("false") {
                    Ok(AstExpr::Bool(false))
                } else if s.eq_ignore_ascii_case("null") {
                    Ok(AstExpr::Null)
                } else if self.peek_is(&Token::Dot) {
                    self.advance();
                    let second = self.ident()?;
                    Ok(AstExpr::Column(format!("{s}.{second}")))
                } else {
                    Ok(AstExpr::Column(s))
                }
            }
            other => Err(QError::parse(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let q = parse("SELECT a, b FROM t").unwrap();
        assert_eq!(q.select.len(), 2);
        assert_eq!(q.from.table, "t");
        assert!(q.joins.is_empty());
        assert!(q.where_clause.is_none());
    }

    #[test]
    fn wildcard_and_limit() {
        let q = parse("SELECT * FROM t LIMIT 5;").unwrap();
        assert_eq!(q.select, vec![SelectItem::Wildcard]);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn joins_with_aliases() {
        let q = parse(
            "SELECT * FROM customer c JOIN nation AS n ON c.nationkey = n.nationkey \
             INNER JOIN region ON n.regionkey = region.regionkey",
        )
        .unwrap();
        assert_eq!(q.from.alias.as_deref(), Some("c"));
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[0].table.alias.as_deref(), Some("n"));
        assert_eq!(q.joins[0].on.0, "c.nationkey");
        assert_eq!(q.joins[1].table.table, "region");
    }

    #[test]
    fn aggregates_and_grouping() {
        let q = parse(
            "SELECT nationkey, count(*) AS cnt, sum(acctbal) FROM customer \
             GROUP BY nationkey ORDER BY cnt DESC LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.group_by, vec!["nationkey"]);
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].ascending);
        match &q.select[1] {
            SelectItem::Aggregate { func, alias, .. } => {
                assert_eq!(*func, AggCall::CountStar);
                assert_eq!(alias.as_deref(), Some("cnt"));
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn where_precedence() {
        let q = parse("SELECT a FROM t WHERE a < 5 AND b = 1 OR NOT c > 2").unwrap();
        // OR is the top-level operator
        match q.where_clause.unwrap() {
            AstExpr::Binary { op, .. } => assert_eq!(op, AstBinOp::Or),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        let q = parse("SELECT a + b * 2 FROM t").unwrap();
        match &q.select[0] {
            SelectItem::Expr {
                expr: AstExpr::Binary { op, right, .. },
                ..
            } => {
                assert_eq!(*op, AstBinOp::Add);
                assert!(matches!(
                    **right,
                    AstExpr::Binary {
                        op: AstBinOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn is_null_and_negative_literals() {
        let q = parse("SELECT a FROM t WHERE a IS NOT NULL AND b = -3").unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a FROM").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT sum(*) FROM t").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        assert!(parse("SELECT a FROM t garbage garbage").is_err());
        assert!(parse("SELECT a FROM t JOIN u ON a").is_err());
    }

    #[test]
    fn left_join_and_distinct() {
        let q = parse(
            "SELECT DISTINCT a FROM t LEFT OUTER JOIN u ON t.a = u.a LEFT JOIN v ON v.b = t.b",
        )
        .unwrap();
        assert!(q.distinct);
        assert_eq!(q.joins.len(), 2);
        assert_eq!(q.joins[0].join_type, JoinType::LeftOuter);
        assert_eq!(q.joins[1].join_type, JoinType::LeftOuter);
        let q = parse("SELECT a FROM t JOIN u ON t.a = u.a").unwrap();
        assert_eq!(q.joins[0].join_type, JoinType::Inner);
    }

    #[test]
    fn between_and_in_desugar() {
        let q = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 5").unwrap();
        match q.where_clause.unwrap() {
            AstExpr::Binary { op, .. } => assert_eq!(op, AstBinOp::And),
            other => panic!("{other:?}"),
        }
        let q = parse("SELECT a FROM t WHERE a IN (1, 2, 3)").unwrap();
        match q.where_clause.unwrap() {
            AstExpr::Binary { op, .. } => assert_eq!(op, AstBinOp::Or),
            other => panic!("{other:?}"),
        }
        let q = parse("SELECT a FROM t WHERE a NOT IN (1) AND b NOT BETWEEN 2 AND 3").unwrap();
        assert!(q.where_clause.is_some());
        assert!(parse("SELECT a FROM t WHERE a IN ()").is_err());
    }

    #[test]
    fn expression_limits() {
        let parsed = |s: String| parse(&s).map(|_| ()).map_err(|e| e.to_string());
        let where_ = |e: String| format!("SELECT a FROM t WHERE {e}");
        assert!(parsed(where_(format!("a IN ({}1)", "1, ".repeat(400)))).is_ok());
        assert!(parsed(where_(format!("{}a = 1{}", "(".repeat(90), ")".repeat(90)))).is_ok());
        let nested = parsed(where_(format!("{}a = 1", "(".repeat(101)))).unwrap_err();
        assert!(nested.contains("nests too deeply"), "{nested}");
        let long = parsed(where_("a = 1 OR ".repeat(300) + "a = 1")).unwrap_err();
        assert!(long.contains("too long"), "{long}");
        let mut copied = "a BETWEEN 1 AND 2".to_string();
        for _ in 0..30 {
            copied = format!("({copied}) BETWEEN 1 AND 2");
        }
        assert!(parsed(where_(copied)).unwrap_err().contains("BETWEEN/IN"));
    }

    #[test]
    fn parenthesized_expressions() {
        let q = parse("SELECT (a + b) * 2 FROM t WHERE (a = 1 OR b = 2) AND a < 9").unwrap();
        match q.where_clause.unwrap() {
            AstExpr::Binary { op, .. } => assert_eq!(op, AstBinOp::And),
            other => panic!("{other:?}"),
        }
    }
}
