//! Recursive-descent parser for the SPARQL 1.1 subset.
//!
//! Supported surface (see the crate docs for the full grammar sketch):
//! `PREFIX` / `BASE` prologue, `SELECT [DISTINCT]` with plain variables, `*`
//! or `(AGG(…) AS ?alias)` items, `ASK`, group graph patterns with triples
//! blocks (`;` and `,` abbreviations, `a`), `OPTIONAL`, `UNION`, `FILTER`
//! (comparisons, boolean connectives, arithmetic, `REGEX`-lite, `BOUND`),
//! `GROUP BY`, `ORDER BY [ASC|DESC]`, `LIMIT`, `OFFSET`. Errors carry
//! line/column positions.

use optique_rdf::{Datatype, Iri, Literal, Namespaces, Term};
use optique_rewrite::{Atom, QueryTerm};

use crate::algebra::{
    AggregateFunction, ArithmeticOperator, AskQuery, ComparisonOperator, Expression, GroupPattern,
    PatternElement, Projection, Query, SelectItem, SelectQuery, SolutionModifier, ValuesBlock,
};
use crate::error::{Position, SparqlError};
use crate::lexer::{lex, Token, TokenKind};

/// Parses a full SPARQL query. `namespaces` provides ambient prefixes
/// (e.g. a deployment's); `PREFIX` declarations in the query extend and
/// shadow them.
pub fn parse_sparql(text: &str, namespaces: &Namespaces) -> Result<Query, SparqlError> {
    let mut parser = Parser::new(text, namespaces)?;
    let query = parser.parse_query()?;
    parser.expect_end()?;
    Ok(query)
}

/// The parser over one token stream. STARQL drives it too: its header uses
/// the keyword and token helpers, and its WHERE, its CONSTRUCT template and
/// its HAVING constants and predicates are productions of this grammar.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    namespaces: Namespaces,
    base: Option<String>,
}

impl Parser {
    /// Lexes `text`; `namespaces` are the ambient prefixes.
    pub fn new(text: &str, namespaces: &Namespaces) -> Result<Self, SparqlError> {
        Ok(Parser {
            tokens: lex(text)?,
            pos: 0,
            namespaces: namespaces.clone(),
            base: None,
        })
    }

    // ---- token plumbing -------------------------------------------------

    /// The next token.
    pub fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    /// The token after the next.
    pub fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    /// Consumes the next token.
    pub fn bump(&mut self) -> Option<TokenKind> {
        let t = self.tokens.get(self.pos)?.kind.clone();
        self.pos += 1;
        Some(t)
    }

    /// Consumes the next token when `f` maps it to a value.
    pub fn eat_map<T>(&mut self, f: impl FnOnce(&TokenKind) -> Option<T>) -> Option<T> {
        let value = f(self.peek()?)?;
        self.pos += 1;
        Some(value)
    }

    fn at_token(&self, kind: &TokenKind) -> bool {
        self.peek() == Some(kind)
    }

    /// Consumes the next token when it is `kind`.
    pub fn eat_token(&mut self, kind: &TokenKind) -> bool {
        self.eat_map(|t| (t == kind).then_some(())).is_some()
    }

    /// Where the next token starts (the last token's start at the end).
    pub fn position(&self) -> Position {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.position)
            .unwrap_or_else(Position::start)
    }

    /// A parse error at the next token.
    pub fn err(&self, message: impl Into<String>) -> SparqlError {
        SparqlError::parse(message, self.position())
    }

    /// True when the next token is the keyword `kw` (case-insensitive).
    pub fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    /// Consumes the keyword `kw` when it is next.
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        let hit = self.at_keyword(kw);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes the keyword `kw`, or fails.
    pub fn expect_keyword(&mut self, kw: &str) -> Result<(), SparqlError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.expected(kw))
        }
    }

    /// Consumes a token of `kind` (named `what` in the error), or fails.
    pub fn expect_token(&mut self, kind: TokenKind, what: &str) -> Result<(), SparqlError> {
        if self.eat_token(&kind) {
            Ok(())
        } else {
            Err(self.expected(what))
        }
    }

    /// Consumes a bare word (a name, `what` in the error), or fails.
    pub fn expect_word(&mut self, what: &str) -> Result<String, SparqlError> {
        self.eat_map(|t| match t {
            TokenKind::Word(w) => Some(w.clone()),
            _ => None,
        })
        .ok_or_else(|| self.expected(what))
    }

    /// Consumes a variable (`?v` or `$v`), or fails.
    pub fn expect_var(&mut self) -> Result<String, SparqlError> {
        self.eat_var().ok_or_else(|| self.expected("a variable"))
    }

    fn eat_var(&mut self) -> Option<String> {
        self.eat_map(|t| match t {
            TokenKind::Var(v) | TokenKind::Param(v) => Some(v.clone()),
            _ => None,
        })
    }

    /// "expected `what`, found …" at the next token.
    pub fn expected(&self, what: &str) -> SparqlError {
        self.err(format!("expected {what}, found {}", describe(self.peek())))
    }

    /// Fails unless every token is consumed.
    pub fn expect_end(&self) -> Result<(), SparqlError> {
        match self.peek() {
            None => Ok(()),
            next => Err(self.err(format!("trailing input: {}", describe(next)))),
        }
    }

    // ---- prologue + query forms ----------------------------------------

    fn parse_query(&mut self) -> Result<Query, SparqlError> {
        self.parse_prologue()?;
        if self.eat_keyword("SELECT") {
            Ok(Query::Select(self.parse_select()?))
        } else if self.eat_keyword("ASK") {
            self.eat_keyword("WHERE");
            let pattern = self.parse_group()?;
            Ok(Query::Ask(AskQuery { pattern }))
        } else {
            Err(self.expected("SELECT or ASK"))
        }
    }

    /// `PREFIX p: <iri>` and `BASE <iri>` declarations, in any number.
    pub fn parse_prologue(&mut self) -> Result<(), SparqlError> {
        loop {
            if self.eat_keyword("PREFIX") {
                let Some(TokenKind::PName(pname)) = self.bump() else {
                    return Err(self.err("expected a prefix name after PREFIX"));
                };
                let prefix = pname.split(':').next().unwrap_or("").to_string();
                let Some(TokenKind::IriRef(iri)) = self.bump() else {
                    return Err(self.err("expected an IRI after the prefix name"));
                };
                self.namespaces.bind(prefix, self.resolve_relative(&iri));
            } else if self.eat_keyword("BASE") {
                let Some(TokenKind::IriRef(iri)) = self.bump() else {
                    return Err(self.err("expected an IRI after BASE"));
                };
                self.base = Some(iri);
            } else {
                return Ok(());
            }
        }
    }

    fn resolve_relative(&self, iri: &str) -> String {
        if iri.contains("://") || self.base.is_none() {
            iri.to_string()
        } else {
            format!("{}{}", self.base.as_deref().unwrap_or(""), iri)
        }
    }

    fn parse_select(&mut self) -> Result<SelectQuery, SparqlError> {
        let distinct = self.eat_keyword("DISTINCT");
        let projection = self.parse_projection()?;
        self.eat_keyword("WHERE");
        let pattern = self.parse_group()?;

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            while let Some(v) = self.eat_var() {
                group_by.push(v);
            }
            if group_by.is_empty() {
                return Err(self.err("GROUP BY needs at least one variable"));
            }
        }
        let modifiers = self.parse_modifiers()?;
        Ok(SelectQuery {
            distinct,
            projection,
            pattern,
            group_by,
            modifiers,
        })
    }

    fn parse_projection(&mut self) -> Result<Projection, SparqlError> {
        if self.eat_token(&TokenKind::Star) {
            return Ok(Projection::All);
        }
        let mut items = Vec::new();
        loop {
            if let Some(v) = self.eat_var() {
                items.push(SelectItem::Var(v));
            } else if self.eat_token(&TokenKind::LParen) {
                items.push(self.parse_aggregate_item()?);
            } else {
                break;
            }
        }
        if items.is_empty() {
            return Err(self.err(format!(
                "SELECT needs `*`, variables, or aggregates; found {}",
                describe(self.peek())
            )));
        }
        Ok(Projection::Items(items))
    }

    fn parse_aggregate_item(&mut self) -> Result<SelectItem, SparqlError> {
        let name = self.expect_word("an aggregate function")?;
        let func = match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggregateFunction::Count,
            "SUM" => AggregateFunction::Sum,
            "AVG" => AggregateFunction::Avg,
            "MIN" => AggregateFunction::Min,
            "MAX" => AggregateFunction::Max,
            other => return Err(self.err(format!("unknown aggregate function `{other}`"))),
        };
        self.expect_token(TokenKind::LParen, "`(`")?;
        let distinct = self.eat_keyword("DISTINCT");
        let var = if self.at_token(&TokenKind::Star) {
            if func != AggregateFunction::Count {
                return Err(self.err(format!("{func}(*) is not defined; only COUNT(*)")));
            }
            self.bump();
            None
        } else {
            let inside = format!("`*` or a variable inside {func}(…)");
            Some(self.eat_var().ok_or_else(|| self.expected(&inside))?)
        };
        self.expect_token(TokenKind::RParen, "`)`")?;
        self.expect_keyword("AS")?;
        let alias = self.expect_var()?;
        self.expect_token(TokenKind::RParen, "`)` closing the aggregate item")?;
        Ok(SelectItem::Aggregate {
            func,
            distinct,
            var,
            alias,
        })
    }

    fn parse_modifiers(&mut self) -> Result<SolutionModifier, SparqlError> {
        let mut modifiers = SolutionModifier::default();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                if let Some(v) = self.eat_var() {
                    modifiers.order_by.push((Expression::Var(v), false));
                } else if self.at_keyword("ASC") || self.at_keyword("DESC") {
                    let descending = self.at_keyword("DESC");
                    self.bump();
                    self.expect_token(TokenKind::LParen, "`(`")?;
                    let expr = self.parse_expression()?;
                    self.expect_token(TokenKind::RParen, "`)`")?;
                    modifiers.order_by.push((expr, descending));
                } else {
                    break;
                }
            }
            if modifiers.order_by.is_empty() {
                return Err(self.err("ORDER BY needs at least one sort key"));
            }
        }
        // LIMIT and OFFSET in either order.
        for _ in 0..2 {
            if self.eat_keyword("LIMIT") {
                modifiers.limit = Some(self.parse_count("LIMIT")?);
            } else if self.eat_keyword("OFFSET") {
                modifiers.offset = Some(self.parse_count("OFFSET")?);
            }
        }
        Ok(modifiers)
    }

    fn parse_count(&mut self, what: &str) -> Result<usize, SparqlError> {
        match self.bump() {
            Some(TokenKind::Int(n)) if n >= 0 => Ok(n as usize),
            _ => Err(self.err(format!("expected a non-negative integer after {what}"))),
        }
    }

    // ---- group graph patterns ------------------------------------------

    /// A group graph pattern, `{ … }`.
    pub fn parse_group(&mut self) -> Result<GroupPattern, SparqlError> {
        self.expect_token(TokenKind::LBrace, "`{`")?;
        let mut elements: Vec<PatternElement> = Vec::new();
        loop {
            if self.eat_token(&TokenKind::RBrace) {
                return Ok(GroupPattern { elements });
            } else if self.peek().is_none() {
                return Err(self.err("unterminated group pattern (missing `}`)"));
            } else if self.eat_keyword("OPTIONAL") {
                elements.push(PatternElement::Optional(self.parse_group()?));
            } else if self.eat_keyword("FILTER") {
                elements.push(PatternElement::Filter(self.parse_constraint()?));
            } else if self.eat_keyword("VALUES") {
                elements.push(PatternElement::Values(self.parse_values_block()?));
            } else if self.at_token(&TokenKind::LBrace) {
                let first = self.parse_group()?;
                if self.at_keyword("UNION") {
                    let mut branches = vec![first];
                    while self.eat_keyword("UNION") {
                        branches.push(self.parse_group()?);
                    }
                    elements.push(PatternElement::Union(branches));
                } else {
                    elements.push(PatternElement::SubGroup(first));
                }
            } else if !self.eat_token(&TokenKind::Dot) {
                elements.push(PatternElement::Triples(self.parse_triples_block()?));
            }
        }
    }

    /// Consecutive `subject predicate object (; p o)* (, o)* .` triples.
    fn parse_triples_block(&mut self) -> Result<Vec<Atom>, SparqlError> {
        let mut atoms = Vec::new();
        loop {
            let subject = self.parse_term()?;
            loop {
                let (is_type, predicate) = self.parse_verb()?;
                loop {
                    let object = self.parse_term()?;
                    atoms.push(self.make_atom(is_type, &predicate, &subject, object)?);
                    if !self.eat_token(&TokenKind::Comma) {
                        break;
                    }
                }
                // A dangling `;` before `.`/`}` is legal SPARQL.
                if !self.eat_token(&TokenKind::Semicolon)
                    || matches!(self.peek(), Some(TokenKind::Dot | TokenKind::RBrace))
                {
                    break;
                }
            }
            if !self.eat_token(&TokenKind::Dot) {
                break;
            }
            // The block ends at `}`, a keyword element, or a nested group.
            if matches!(
                self.peek(),
                None | Some(TokenKind::RBrace | TokenKind::LBrace)
            ) || ["OPTIONAL", "FILTER", "VALUES"]
                .iter()
                .any(|kw| self.at_keyword(kw))
            {
                break;
            }
        }
        Ok(atoms)
    }

    /// `VALUES ?v { term … }` (single variable, bare terms) or
    /// `VALUES (?a ?b …) { (t1 t2 …) … }` (full form). `UNDEF` marks an
    /// unbound position.
    fn parse_values_block(&mut self) -> Result<ValuesBlock, SparqlError> {
        let mut vars = Vec::new();
        let single = if let Some(v) = self.eat_var() {
            vars.push(v);
            true
        } else if self.eat_token(&TokenKind::LParen) {
            while let Some(v) = self.eat_var() {
                vars.push(v);
            }
            self.expect_token(TokenKind::RParen, "`)` closing the VALUES variables")?;
            if vars.is_empty() {
                return Err(self.err("VALUES needs at least one variable"));
            }
            false
        } else {
            return Err(self.expected("a variable or `(` after VALUES"));
        };
        self.expect_token(TokenKind::LBrace, "`{` opening the VALUES data block")?;
        let mut rows = Vec::new();
        loop {
            if self.eat_token(&TokenKind::RBrace) {
                return Ok(ValuesBlock { vars, rows });
            } else if self.peek().is_none() {
                return Err(self.err("unterminated VALUES data block (missing `}`)"));
            } else if single {
                rows.push(vec![self.parse_data_value()?]);
            } else if self.eat_token(&TokenKind::LParen) {
                let mut row = Vec::with_capacity(vars.len());
                while !self.at_token(&TokenKind::RParen) {
                    row.push(self.parse_data_value()?);
                }
                self.expect_token(TokenKind::RParen, "`)` closing a VALUES row")?;
                if row.len() != vars.len() {
                    return Err(self.err(format!(
                        "VALUES row has {} terms for {} variables",
                        row.len(),
                        vars.len()
                    )));
                }
                rows.push(row);
            } else {
                return Err(self.expected("`(` or `}` in the VALUES data block"));
            }
        }
    }

    /// One VALUES data term: a constant (never a variable) or `UNDEF`.
    fn parse_data_value(&mut self) -> Result<Option<Term>, SparqlError> {
        if self.eat_keyword("UNDEF") {
            return Ok(None);
        }
        let position = self.position();
        match self.parse_term()? {
            QueryTerm::Const(term) => Ok(Some(term)),
            QueryTerm::Var(v) => Err(SparqlError::parse(
                format!("VALUES data must be constants or UNDEF, found ?{v}"),
                position,
            )),
        }
    }

    fn make_atom(
        &self,
        is_type: bool,
        predicate: &Iri,
        subject: &QueryTerm,
        object: QueryTerm,
    ) -> Result<Atom, SparqlError> {
        if is_type {
            match object {
                QueryTerm::Const(Term::Iri(class)) => Ok(Atom::Class {
                    class,
                    arg: subject.clone(),
                }),
                other => Err(SparqlError::unsupported(
                    format!("rdf:type needs a constant class IRI, found {other}"),
                    self.position(),
                )),
            }
        } else {
            Ok(Atom::Property {
                property: predicate.clone(),
                subject: subject.clone(),
                object,
            })
        }
    }

    /// Predicate position: `a`, a prefixed name, or an IRI, and whether it
    /// is `rdf:type`. Variables are a deliberate subset exclusion (mappings
    /// are indexed by named terms).
    pub fn parse_verb(&mut self) -> Result<(bool, Iri), SparqlError> {
        match self.peek() {
            Some(TokenKind::Word(w)) if w == "a" => {
                self.bump();
                Ok((true, Iri::new(optique_rdf::vocab::rdf::TYPE)))
            }
            Some(TokenKind::Var(v) | TokenKind::Param(v)) => Err(SparqlError::unsupported(
                format!("variable predicate ?{v} is outside the supported subset"),
                self.position(),
            )),
            Some(TokenKind::PName(_) | TokenKind::IriRef(_)) => {
                let iri = self.parse_iri()?;
                Ok((iri.as_str() == optique_rdf::vocab::rdf::TYPE, iri))
            }
            _ => Err(self.expected("a predicate")),
        }
    }

    /// An IRI: `<…>` (resolved against `BASE`) or a prefixed name.
    pub fn parse_iri(&mut self) -> Result<Iri, SparqlError> {
        let position = self.position();
        match self.bump() {
            Some(TokenKind::IriRef(iri)) => Ok(Iri::new(self.resolve_relative(&iri))),
            Some(TokenKind::PName(pname)) => self.namespaces.expand(&pname).ok_or_else(|| {
                SparqlError::parse(format!("unbound prefix in `{pname}`"), position)
            }),
            other => Err(SparqlError::parse(
                format!("expected an IRI, found {}", describe(other.as_ref())),
                position,
            )),
        }
    }

    /// A subject or object: a variable, an IRI, or a literal (strings with
    /// an optional `^^datatype`, signed numbers, booleans).
    pub fn parse_term(&mut self) -> Result<QueryTerm, SparqlError> {
        if let Some(v) = self.eat_var() {
            return Ok(QueryTerm::var(v));
        }
        if matches!(
            self.peek(),
            Some(TokenKind::PName(_) | TokenKind::IriRef(_))
        ) {
            return Ok(QueryTerm::Const(Term::Iri(self.parse_iri()?)));
        }
        let position = self.position();
        let literal = match self.bump() {
            Some(TokenKind::Str(s)) => self.typed_literal(s)?,
            Some(TokenKind::Int(i)) => Literal::integer(i),
            Some(TokenKind::Float(f)) => Literal::double(f),
            Some(TokenKind::Minus) => match self.bump() {
                Some(TokenKind::Int(i)) => Literal::integer(-i),
                Some(TokenKind::Float(f)) => Literal::double(-f),
                _ => return Err(SparqlError::parse("expected a number after `-`", position)),
            },
            Some(TokenKind::Word(w))
                if w.eq_ignore_ascii_case("true") || w.eq_ignore_ascii_case("false") =>
            {
                Literal::boolean(w.eq_ignore_ascii_case("true"))
            }
            other => {
                return Err(SparqlError::parse(
                    format!("expected a term, found {}", describe(other.as_ref())),
                    position,
                ))
            }
        };
        Ok(QueryTerm::Const(Term::Literal(literal)))
    }

    /// A string literal with an optional `^^datatype` tag.
    fn typed_literal(&mut self, lexical: String) -> Result<Literal, SparqlError> {
        if !self.eat_token(&TokenKind::Carets) {
            return Ok(Literal::string(lexical));
        }
        let datatype_iri = self.parse_iri()?;
        let datatype = [
            Datatype::String,
            Datatype::Integer,
            Datatype::Double,
            Datatype::Boolean,
            Datatype::DateTime,
            Datatype::Duration,
        ]
        .into_iter()
        .find(|d| d.iri() == datatype_iri)
        .unwrap_or(Datatype::String);
        Ok(Literal::typed(lexical, datatype))
    }

    // ---- expressions ----------------------------------------------------

    fn parse_constraint(&mut self) -> Result<Expression, SparqlError> {
        if self.eat_token(&TokenKind::LParen) {
            let e = self.parse_expression()?;
            self.expect_token(TokenKind::RParen, "`)`")?;
            Ok(e)
        } else if self.at_keyword("REGEX") || self.at_keyword("BOUND") {
            self.parse_primary_expression()
        } else {
            Err(self.expected("`(` or a builtin call after FILTER"))
        }
    }

    fn parse_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_and_expression()?;
        while self.eat_token(&TokenKind::OrOr) {
            let right = self.parse_and_expression()?;
            left = Expression::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_relational_expression()?;
        while self.eat_token(&TokenKind::AndAnd) {
            let right = self.parse_relational_expression()?;
            left = Expression::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_relational_expression(&mut self) -> Result<Expression, SparqlError> {
        let left = self.parse_additive_expression()?;
        let op = self.eat_map(|t| match t {
            TokenKind::Eq => Some(ComparisonOperator::Eq),
            TokenKind::Ne => Some(ComparisonOperator::Ne),
            TokenKind::Lt => Some(ComparisonOperator::Lt),
            TokenKind::Le => Some(ComparisonOperator::Le),
            TokenKind::Gt => Some(ComparisonOperator::Gt),
            TokenKind::Ge => Some(ComparisonOperator::Ge),
            _ => None,
        });
        let Some(op) = op else { return Ok(left) };
        let right = self.parse_additive_expression()?;
        Ok(Expression::Compare(op, Box::new(left), Box::new(right)))
    }

    fn parse_additive_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_multiplicative_expression()?;
        while let Some(op) = self.eat_map(|t| match t {
            TokenKind::Plus => Some(ArithmeticOperator::Add),
            TokenKind::Minus => Some(ArithmeticOperator::Sub),
            _ => None,
        }) {
            let right = self.parse_multiplicative_expression()?;
            left = Expression::Arithmetic(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_multiplicative_expression(&mut self) -> Result<Expression, SparqlError> {
        let mut left = self.parse_unary_expression()?;
        while let Some(op) = self.eat_map(|t| match t {
            TokenKind::Star => Some(ArithmeticOperator::Mul),
            TokenKind::Slash => Some(ArithmeticOperator::Div),
            _ => None,
        }) {
            let right = self.parse_unary_expression()?;
            left = Expression::Arithmetic(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_unary_expression(&mut self) -> Result<Expression, SparqlError> {
        if self.eat_token(&TokenKind::Bang) {
            let inner = self.parse_unary_expression()?;
            return Ok(Expression::Not(Box::new(inner)));
        }
        if !self.at_token(&TokenKind::Minus) {
            return self.parse_primary_expression();
        }
        // A negative number literal, else `0 - operand`.
        if matches!(self.peek2(), Some(TokenKind::Int(_) | TokenKind::Float(_))) {
            return Ok(term_expression(self.parse_term()?));
        }
        self.bump();
        let inner = self.parse_primary_expression()?;
        Ok(Expression::Arithmetic(
            ArithmeticOperator::Sub,
            Box::new(Expression::Const(Term::Literal(Literal::integer(0)))),
            Box::new(inner),
        ))
    }

    fn parse_primary_expression(&mut self) -> Result<Expression, SparqlError> {
        let position = self.position();
        if self.eat_token(&TokenKind::LParen) {
            let e = self.parse_expression()?;
            self.expect_token(TokenKind::RParen, "`)`")?;
            return Ok(e);
        }
        if self.eat_keyword("REGEX") {
            self.expect_token(TokenKind::LParen, "`(` after REGEX")?;
            let text = self.parse_expression()?;
            self.expect_token(TokenKind::Comma, "`,` between REGEX arguments")?;
            let Some(TokenKind::Str(pattern)) = self.bump() else {
                return Err(SparqlError::parse(
                    "REGEX pattern must be a string literal",
                    position,
                ));
            };
            let mut case_insensitive = false;
            if self.eat_token(&TokenKind::Comma) {
                let Some(TokenKind::Str(flags)) = self.bump() else {
                    return Err(SparqlError::parse(
                        "REGEX flags must be a string literal",
                        position,
                    ));
                };
                case_insensitive = flags.contains('i');
            }
            self.expect_token(TokenKind::RParen, "`)` closing REGEX")?;
            return Ok(Expression::Regex {
                text: Box::new(text),
                pattern,
                case_insensitive,
            });
        }
        if self.eat_keyword("BOUND") {
            self.expect_token(TokenKind::LParen, "`(` after BOUND")?;
            let Some(v) = self.eat_var() else {
                return Err(SparqlError::parse("BOUND takes a variable", position));
            };
            self.expect_token(TokenKind::RParen, "`)` closing BOUND")?;
            return Ok(Expression::Bound(v));
        }
        match self.peek() {
            Some(
                TokenKind::Var(_)
                | TokenKind::Param(_)
                | TokenKind::Str(_)
                | TokenKind::Int(_)
                | TokenKind::Float(_)
                | TokenKind::PName(_)
                | TokenKind::IriRef(_),
            ) => Ok(term_expression(self.parse_term()?)),
            Some(TokenKind::Word(w))
                if w.eq_ignore_ascii_case("true") || w.eq_ignore_ascii_case("false") =>
            {
                Ok(term_expression(self.parse_term()?))
            }
            _ => Err(self.expected("an expression")),
        }
    }
}

fn term_expression(term: QueryTerm) -> Expression {
    match term {
        QueryTerm::Var(v) => Expression::Var(v),
        QueryTerm::Const(c) => Expression::Const(c),
    }
}

/// How an error names `token`.
fn describe(token: Option<&TokenKind>) -> String {
    match token {
        None => "end of input".into(),
        Some(TokenKind::Word(w)) => format!("`{w}`"),
        Some(TokenKind::PName(p)) => format!("`{p}`"),
        Some(TokenKind::Var(v)) => format!("`?{v}`"),
        Some(TokenKind::Param(v)) => format!("`${v}`"),
        Some(TokenKind::IriRef(i)) => format!("`<{i}>`"),
        Some(TokenKind::Str(s)) => format!("string {s:?}"),
        Some(other) => format!("{other:?}"),
    }
}
