//! Recursive-descent parser for the SQL subset STARQL unfolding emits.

use std::fmt;

use crate::error::SqlError;
use crate::expr::{BinOp, Expr, UnaryOp};
use crate::functions::AggFunc;
use crate::iri_template::IriTemplate;
use crate::lexer::{lex, Token, TokenKind};
use crate::value::Value;

/// One SELECT-list item.
#[derive(Clone, Debug, PartialEq)]
pub enum Projection {
    /// `*`
    Star,
    /// An expression with optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`, when present.
        alias: Option<String>,
    },
}

/// A FROM-clause relation.
#[derive(Clone, Debug, PartialEq)]
pub enum TableRef {
    /// A named base table.
    Named {
        /// Catalog name.
        name: String,
        /// Alias (defaults to the name).
        alias: String,
    },
    /// A parenthesised subquery.
    Subquery {
        /// The inner query.
        query: Box<SelectStatement>,
        /// Mandatory alias.
        alias: String,
    },
}

impl TableRef {
    /// The alias this relation binds in scope.
    pub fn alias(&self) -> &str {
        match self {
            TableRef::Named { alias, .. } | TableRef::Subquery { alias, .. } => alias,
        }
    }
}

/// Join kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinType {
    /// INNER JOIN.
    Inner,
    /// LEFT (outer) JOIN.
    Left,
}

/// One JOIN clause.
#[derive(Clone, Debug, PartialEq)]
pub struct Join {
    /// INNER or LEFT.
    pub join_type: JoinType,
    /// The joined relation.
    pub table: TableRef,
    /// The ON condition.
    pub on: Expr,
}

/// A parsed SELECT statement (possibly a UNION ALL chain).
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStatement {
    /// SELECT DISTINCT?
    pub distinct: bool,
    /// SELECT list.
    pub projections: Vec<Projection>,
    /// First FROM relation.
    pub from: TableRef,
    /// Subsequent JOINs in order.
    pub joins: Vec<Join>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys with `desc` flags.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT row count.
    pub limit: Option<usize>,
    /// `UNION ALL <select>` continuation.
    pub union_all: Option<Box<SelectStatement>>,
}

impl SelectStatement {
    /// The statement and each `UNION ALL` branch chained after it, in
    /// order.
    pub fn branches(&self) -> impl Iterator<Item = &SelectStatement> {
        std::iter::successors(Some(self), |s| s.union_all.as_deref())
    }

    /// Chains single statements into one `UNION ALL` statement, by move —
    /// back to front, so each is linked once. `None` for no statements.
    pub fn union_all_of(statements: Vec<SelectStatement>) -> Option<SelectStatement> {
        let mut chain: Option<SelectStatement> = None;
        for mut statement in statements.into_iter().rev() {
            statement.union_all = chain.take().map(Box::new);
            chain = Some(statement);
        }
        chain
    }

    /// `SELECT <projections> FROM <from>` and no other clause — the base
    /// for statements built as ASTs rather than parsed.
    pub fn plain(projections: Vec<Projection>, from: TableRef) -> Self {
        SelectStatement {
            distinct: false,
            projections,
            from,
            joins: Vec::new(),
            where_clause: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            union_all: None,
        }
    }

    /// `SELECT <columns> FROM <table>`: a bare scan, exactly what parsing
    /// that text yields.
    pub fn scan(table: &str, columns: impl IntoIterator<Item = String>) -> Self {
        let projections = columns
            .into_iter()
            .map(|column| Projection::Expr {
                expr: Expr::Column(column),
                alias: None,
            })
            .collect();
        let from = TableRef::Named {
            name: table.to_string(),
            alias: table.to_string(),
        };
        Self::plain(projections, from)
    }
}

/// Parses one SELECT statement (with optional UNION ALL chain) from `sql`.
pub fn parse_select(sql: &str) -> Result<SelectStatement, SqlError> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.parse_select()?;
    if p.pos != p.tokens.len() {
        return Err(SqlError::parse(
            format!(
                "unexpected trailing tokens starting with {:?}",
                p.tokens[p.pos].kind
            ),
            p.tokens[p.pos].offset,
        ));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.offset)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.offset + 1).unwrap_or(0))
    }

    fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos).map(|t| t.kind.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(SqlError::parse(format!("expected {kw}"), self.offset()))
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), SqlError> {
        match self.peek() {
            Some(k) if k == kind => {
                self.pos += 1;
                Ok(())
            }
            other => Err(SqlError::parse(
                format!("expected {kind:?}, got {other:?}"),
                self.offset(),
            )),
        }
    }

    fn expect_ident(&mut self) -> Result<String, SqlError> {
        match self.bump() {
            Some(TokenKind::Ident(w)) => Ok(w),
            other => Err(SqlError::parse(
                format!("expected identifier, got {other:?}"),
                self.offset(),
            )),
        }
    }

    fn parse_select(&mut self) -> Result<SelectStatement, SqlError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projections = vec![self.parse_projection()?];
        while matches!(self.peek(), Some(TokenKind::Comma)) {
            self.pos += 1;
            projections.push(self.parse_projection()?);
        }
        self.expect_keyword("FROM")?;
        let from = self.parse_table_ref()?;
        let mut joins = Vec::new();
        loop {
            let join_type = if self.peek_keyword("JOIN") || self.peek_keyword("INNER") {
                self.eat_keyword("INNER");
                self.expect_keyword("JOIN")?;
                JoinType::Inner
            } else if self.peek_keyword("LEFT") {
                self.pos += 1;
                self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinType::Left
            } else {
                break;
            };
            let table = self.parse_table_ref()?;
            self.expect_keyword("ON")?;
            let on = self.parse_expr()?;
            joins.push(Join {
                join_type,
                table,
                on,
            });
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.parse_expr()?);
            while matches!(self.peek(), Some(TokenKind::Comma)) {
                self.pos += 1;
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let e = self.parse_expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push((e, desc));
                if matches!(self.peek(), Some(TokenKind::Comma)) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                Some(TokenKind::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(SqlError::parse(
                        format!("LIMIT expects a non-negative integer, got {other:?}"),
                        self.offset(),
                    ))
                }
            }
        } else {
            None
        };
        let union_all = if self.eat_keyword("UNION") {
            self.expect_keyword("ALL")?;
            Some(Box::new(self.parse_select()?))
        } else {
            None
        };
        Ok(SelectStatement {
            distinct,
            projections,
            from,
            joins,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            union_all,
        })
    }

    fn parse_projection(&mut self) -> Result<Projection, SqlError> {
        if matches!(self.peek(), Some(TokenKind::Star)) {
            self.pos += 1;
            return Ok(Projection::Star);
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else {
            // Bare alias (ident not a clause keyword) is accepted too.
            match self.peek() {
                Some(TokenKind::Ident(w)) if !is_clause_keyword(w) => Some(self.expect_ident()?),
                _ => None,
            }
        };
        Ok(Projection::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, SqlError> {
        if matches!(self.peek(), Some(TokenKind::LParen)) {
            self.pos += 1;
            let query = Box::new(self.parse_select()?);
            self.expect(&TokenKind::RParen)?;
            self.eat_keyword("AS");
            let alias = self.expect_ident()?;
            return Ok(TableRef::Subquery { query, alias });
        }
        let name = self.expect_ident()?;
        if matches!(self.peek(), Some(TokenKind::LParen)) {
            return Err(SqlError::parse(
                format!("FROM reads tables and subqueries, not the function {name}(…)"),
                self.offset(),
            ));
        }
        let alias = self.parse_optional_alias()?.unwrap_or_else(|| name.clone());
        Ok(TableRef::Named { name, alias })
    }

    fn parse_optional_alias(&mut self) -> Result<Option<String>, SqlError> {
        if self.eat_keyword("AS") {
            return Ok(Some(self.expect_ident()?));
        }
        match self.peek() {
            Some(TokenKind::Ident(w)) if !is_clause_keyword(w) => Ok(Some(self.expect_ident()?)),
            _ => Ok(None),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, SqlError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, SqlError> {
        if self.eat_keyword("NOT") {
            let inner = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, SqlError> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN ( … ) / BETWEEN … AND …
        if self.peek_keyword("NOT") {
            // Look ahead for IN/BETWEEN; plain NOT is handled higher up.
            let save = self.pos;
            self.pos += 1;
            if self.eat_keyword("IN") {
                return self.finish_in(left, true);
            }
            if self.eat_keyword("BETWEEN") {
                let b = self.finish_between(left)?;
                return Ok(Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(b),
                });
            }
            self.pos = save;
        }
        if self.eat_keyword("IN") {
            return self.finish_in(left, false);
        }
        if self.eat_keyword("BETWEEN") {
            return self.finish_between(left);
        }
        let op = match self.peek() {
            Some(TokenKind::Eq) => Some(BinOp::Eq),
            Some(TokenKind::Ne) => Some(BinOp::Ne),
            Some(TokenKind::Lt) => Some(BinOp::Lt),
            Some(TokenKind::Le) => Some(BinOp::Le),
            Some(TokenKind::Gt) => Some(BinOp::Gt),
            Some(TokenKind::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_additive()?;
            return Ok(Expr::binary(op, left, right));
        }
        Ok(left)
    }

    fn finish_in(&mut self, left: Expr, negated: bool) -> Result<Expr, SqlError> {
        self.expect(&TokenKind::LParen)?;
        let mut list = vec![self.parse_expr()?];
        while matches!(self.peek(), Some(TokenKind::Comma)) {
            self.pos += 1;
            list.push(self.parse_expr()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Expr::InList {
            expr: Box::new(left),
            list,
            negated,
        })
    }

    fn finish_between(&mut self, left: Expr) -> Result<Expr, SqlError> {
        let low = self.parse_additive()?;
        self.expect_keyword("AND")?;
        let high = self.parse_additive()?;
        Ok(Expr::Between {
            expr: Box::new(left),
            low: Box::new(low),
            high: Box::new(high),
        })
    }

    fn parse_additive(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Plus) => BinOp::Add,
                Some(TokenKind::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(TokenKind::Star) => BinOp::Mul,
                Some(TokenKind::Slash) => BinOp::Div,
                Some(TokenKind::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.parse_unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, SqlError> {
        if matches!(self.peek(), Some(TokenKind::Minus)) {
            self.pos += 1;
            let inner = self.parse_unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, SqlError> {
        match self.bump() {
            Some(TokenKind::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(TokenKind::Float(f)) => Ok(Expr::Literal(Value::Float(f))),
            Some(TokenKind::Str(s)) => Ok(Expr::Literal(Value::text(s))),
            Some(TokenKind::LParen) => {
                let e = self.parse_expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            Some(TokenKind::Ident(word)) => {
                if word.eq_ignore_ascii_case("NULL") {
                    return Ok(Expr::Literal(Value::Null));
                }
                if word.eq_ignore_ascii_case("TRUE") {
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if word.eq_ignore_ascii_case("FALSE") {
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                // Function call?
                if matches!(self.peek(), Some(TokenKind::LParen)) {
                    self.pos += 1;
                    // COUNT(*) special form.
                    if matches!(self.peek(), Some(TokenKind::Star)) {
                        self.pos += 1;
                        self.expect(&TokenKind::RParen)?;
                        if let Some(AggFunc::Count) = AggFunc::from_name(&word) {
                            return Ok(Expr::Aggregate {
                                func: AggFunc::Count,
                                args: vec![],
                            });
                        }
                        return Err(SqlError::parse(
                            format!("only COUNT may take '*', not {word}"),
                            self.offset(),
                        ));
                    }
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(TokenKind::RParen)) {
                        args.push(self.parse_expr()?);
                        while matches!(self.peek(), Some(TokenKind::Comma)) {
                            self.pos += 1;
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    if let Some(func) = AggFunc::from_name(&word) {
                        return Ok(Expr::Aggregate { func, args });
                    }
                    if word.eq_ignore_ascii_case("iri_template") {
                        return match <[Expr; 2]>::try_from(args) {
                            Ok([Expr::Literal(Value::Text(pattern)), key]) => Ok(Expr::Mint {
                                template: IriTemplate::new(&pattern),
                                key: Box::new(key),
                            }),
                            _ => Err(SqlError::parse(
                                "iri_template takes a text literal pattern and one key",
                                self.offset(),
                            )),
                        };
                    }
                    return Ok(Expr::Function {
                        name: word.to_ascii_lowercase(),
                        args,
                    });
                }
                // Qualified column?
                if matches!(self.peek(), Some(TokenKind::Dot)) {
                    self.pos += 1;
                    let col = self.expect_ident()?;
                    return Ok(Expr::Column(format!("{word}.{col}")));
                }
                Ok(Expr::Column(word))
            }
            other => Err(SqlError::parse(
                format!("unexpected token {other:?}"),
                self.offset(),
            )),
        }
    }
}

fn is_clause_keyword(word: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "UNION", "JOIN", "INNER", "LEFT",
        "OUTER", "ON", "AS", "AND", "OR", "NOT", "ASC", "DESC", "BY", "SELECT", "DISTINCT", "IS",
        "IN", "BETWEEN", "ALL", "NULL",
    ];
    KEYWORDS.iter().any(|k| word.eq_ignore_ascii_case(k))
}

impl fmt::Display for SelectStatement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT {}", if self.distinct { "DISTINCT " } else { "" })?;
        for (i, p) in self.projections.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match p {
                Projection::Star => write!(f, "*")?,
                Projection::Expr {
                    expr,
                    alias: Some(a),
                } => write!(f, "{expr} AS {a}")?,
                Projection::Expr { expr, alias: None } => write!(f, "{expr}")?,
            }
        }
        write!(f, " FROM {}", self.from)?;
        for j in &self.joins {
            let kw = match j.join_type {
                JoinType::Inner => "JOIN",
                JoinType::Left => "LEFT JOIN",
            };
            write!(f, " {kw} {} ON {}", j.table, j.on)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, (e, desc)) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{e}{}", if *desc { " DESC" } else { "" })?;
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        if let Some(u) = &self.union_all {
            write!(f, " UNION ALL {u}")?;
        }
        Ok(())
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Named { name, alias } => {
                if name == alias {
                    write!(f, "{name}")
                } else {
                    write!(f, "{name} AS {alias}")
                }
            }
            TableRef::Subquery { query, alias } => write!(f, "({query}) AS {alias}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let s = parse_select("SELECT id, value FROM measurements WHERE value > 80").unwrap();
        assert_eq!(s.projections.len(), 2);
        assert!(s.where_clause.is_some());
        assert_eq!(s.from.alias(), "measurements");
    }

    #[test]
    fn aliases() {
        let s = parse_select("SELECT m.value AS v FROM measurements m").unwrap();
        assert_eq!(s.from.alias(), "m");
        let Projection::Expr { alias, .. } = &s.projections[0] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("v"));
    }

    #[test]
    fn joins_parse() {
        let s = parse_select(
            "SELECT s.name FROM sensors s JOIN assemblies a ON s.assembly_id = a.id \
             LEFT JOIN turbines t ON a.turbine_id = t.id",
        )
        .unwrap();
        assert_eq!(s.joins.len(), 2);
        assert_eq!(s.joins[0].join_type, JoinType::Inner);
        assert_eq!(s.joins[1].join_type, JoinType::Left);
    }

    #[test]
    fn group_having_order_limit() {
        let s = parse_select(
            "SELECT sensor_id, AVG(value) FROM m GROUP BY sensor_id \
             HAVING AVG(value) > 75 ORDER BY sensor_id DESC LIMIT 10",
        )
        .unwrap();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(s.order_by[0].1);
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn union_all_chain() {
        let s =
            parse_select("SELECT a FROM t1 UNION ALL SELECT a FROM t2 UNION ALL SELECT a FROM t3")
                .unwrap();
        let mut n = 1;
        let mut cur = &s;
        while let Some(next) = &cur.union_all {
            n += 1;
            cur = next;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn subquery_in_from() {
        let s =
            parse_select("SELECT v FROM (SELECT value AS v FROM m) AS sub WHERE v > 1").unwrap();
        assert!(matches!(s.from, TableRef::Subquery { .. }));
    }

    /// A function call in FROM is a parse error, wherever it sits, at the
    /// offset of its argument list.
    #[test]
    fn table_function_in_from() {
        for sql in [
            "SELECT * FROM window_of('S_Msmt', 10000, 1000) AS w",
            "SELECT a FROM t JOIN f(1) AS w ON t.a = w.a",
            "SELECT a FROM (SELECT a FROM f(1)) AS w",
        ] {
            let err = parse_select(sql).unwrap_err();
            let SqlError::Parse { offset, .. } = err else {
                panic!("{sql}: {err}")
            };
            assert_eq!(&sql[offset..=offset], "(", "{sql}");
        }
    }

    #[test]
    fn count_star() {
        let s = parse_select("SELECT COUNT(*) FROM m").unwrap();
        let Projection::Expr { expr, .. } = &s.projections[0] else {
            panic!()
        };
        assert_eq!(
            expr,
            &Expr::Aggregate {
                func: AggFunc::Count,
                args: vec![]
            }
        );
    }

    #[test]
    fn corr_two_args() {
        let s = parse_select("SELECT CORR(a, b) FROM m").unwrap();
        let Projection::Expr { expr, .. } = &s.projections[0] else {
            panic!()
        };
        let Expr::Aggregate {
            func: AggFunc::Corr,
            args,
        } = expr
        else {
            panic!()
        };
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn precedence_and_parens() {
        let s = parse_select("SELECT a FROM t WHERE a + 2 * 3 = 7 AND (b OR c)").unwrap();
        let w = s.where_clause.unwrap();
        // AND at top.
        let Expr::Binary { op: BinOp::And, .. } = w else {
            panic!("expected top-level AND")
        };
    }

    #[test]
    fn in_between_not() {
        let s = parse_select(
            "SELECT a FROM t WHERE a IN (1, 2) AND b BETWEEN 0 AND 9 AND c NOT IN (3)",
        )
        .unwrap();
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn is_null_forms() {
        let s = parse_select("SELECT a FROM t WHERE a IS NULL OR b IS NOT NULL").unwrap();
        assert!(s.where_clause.is_some());
    }

    #[test]
    fn display_roundtrip() {
        let sql = "SELECT m.value AS v FROM measurements AS m JOIN sensors AS s ON (m.sensor_id = s.id) WHERE (m.value > 80) LIMIT 5";
        let s = parse_select(sql).unwrap();
        let re = parse_select(&s.to_string()).unwrap();
        assert_eq!(s, re);
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_select("SELECT a FROM t xyzzy garbage garbage").is_err());
    }

    #[test]
    fn error_offsets() {
        let err = parse_select("SELECT FROM t").unwrap_err();
        assert!(matches!(err, SqlError::Parse { .. }));
    }
}
