//! Recursive-descent parser for STARQL (the paper's Figure 1 grammar).
//!
//! STARQL is SPARQL plus a header: the text is one token stream of the
//! SPARQL lexer, driven through [`optique_sparql::Parser`]. WHERE and the
//! CONSTRUCT template are its group patterns, and HAVING's constants and
//! predicates its terms and verbs; only `$param`s and the formula grammar
//! are STARQL's own.

use optique_rdf::{Namespaces, Term};
use optique_rewrite::{Atom, QueryTerm};
use optique_sparql::lexer::TokenKind;
use optique_sparql::{Parser as SparqlParser, PatternElement, Position, SparqlError};

use crate::ast::{
    AggregateDef, OutputMode, PulseClause, SequenceMethod, StarQlQuery, StreamClause,
};
use crate::duration::{parse_clock_ms, parse_duration_ms};
use crate::having::{AggFunc, CmpOp, ProtoAtom, ProtoFormula, ProtoPred, ProtoTerm};

/// Parse failure with positional context.
#[derive(Debug, Clone, PartialEq)]
pub struct StarQlError {
    /// Where the failure is: 1-based line and column, in characters.
    pub position: Position,
    /// Description.
    pub message: String,
}

impl From<SparqlError> for StarQlError {
    fn from(e: SparqlError) -> Self {
        StarQlError {
            position: e.position.unwrap_or_else(Position::start),
            message: e.message,
        }
    }
}

impl std::fmt::Display for StarQlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "STARQL parse error at {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for StarQlError {}

/// Parses a STARQL query. `namespaces` supplies prefix bindings used by
/// CURIEs; `PREFIX` declarations in the text extend them.
pub fn parse_starql(text: &str, namespaces: &Namespaces) -> Result<StarQlQuery, StarQlError> {
    let mut p = Parser {
        p: SparqlParser::new(text, namespaces)?,
        state_scope: Vec::new(),
    };
    let q = p.parse_query()?;
    p.p.expect_end()?;
    Ok(q)
}

struct Parser {
    p: SparqlParser,
    /// Stack of state-variable scopes (quantifier nesting) — used to tell
    /// `?i < ?j` (state order) apart from value comparisons.
    state_scope: Vec<Vec<String>>,
}

/// A lone `:`, which lexes as the empty prefixed name.
fn colon() -> TokenKind {
    TokenKind::PName(":".into())
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> StarQlError {
        self.p.err(message).into()
    }

    fn eat_param(&mut self) -> Option<String> {
        self.p.eat_map(|t| match t {
            TokenKind::Param(p) => Some(p.clone()),
            _ => None,
        })
    }

    fn in_state_scope(&self, var: &str) -> bool {
        self.state_scope
            .iter()
            .any(|scope| scope.iter().any(|v| v == var))
    }

    // ---- top level ----------------------------------------------------

    fn parse_query(&mut self) -> Result<StarQlQuery, StarQlError> {
        self.p.parse_prologue()?;
        self.p.expect_keyword("CREATE")?;
        self.p.expect_keyword("STREAM")?;
        let output_stream = self.p.expect_word("an output stream name")?;
        self.p.expect_keyword("AS")?;

        // Optional CQL relation-to-stream operator before CONSTRUCT.
        let output_mode = if self.p.eat_keyword("ISTREAM") {
            OutputMode::IStream
        } else if self.p.eat_keyword("DSTREAM") {
            OutputMode::DStream
        } else {
            self.p.eat_keyword("RSTREAM");
            OutputMode::RStream
        };

        self.p.expect_keyword("CONSTRUCT")?;
        self.p.expect_keyword("GRAPH")?;
        self.p.expect_keyword("NOW")?;
        let construct = self.parse_template()?;

        self.p.expect_keyword("FROM")?;
        self.p.expect_keyword("STREAM")?;
        let stream_name = self.p.expect_word("a stream name")?;
        let (range_ms, slide_ms) = self.parse_window()?;
        let stream = StreamClause {
            name: stream_name,
            range_ms,
            slide_ms,
        };

        let mut static_data = None;
        let mut ontology_ref = None;
        while self.p.eat_token(&TokenKind::Comma) {
            if self.p.eat_keyword("STATIC") {
                self.p.expect_keyword("DATA")?;
                static_data = Some(self.p.parse_iri()?.as_str().to_string());
            } else if self.p.eat_keyword("ONTOLOGY") {
                ontology_ref = Some(self.p.parse_iri()?.as_str().to_string());
            } else {
                return Err(self.err("expected STATIC DATA or ONTOLOGY"));
            }
        }

        let pulse = if self.p.eat_keyword("USING") {
            self.p.expect_keyword("PULSE")?;
            self.p.expect_keyword("WITH")?;
            self.p.expect_keyword("START")?;
            self.p.expect_token(TokenKind::Eq, "`=`")?;
            let start = self.parse_lexical("START value")?;
            self.p.expect_token(TokenKind::Comma, "`,`")?;
            self.p.expect_keyword("FREQUENCY")?;
            self.p.expect_token(TokenKind::Eq, "`=`")?;
            let freq = self.parse_lexical("FREQUENCY value")?;
            let start_ms = parse_clock_ms(&start)
                .or_else(|_| parse_duration_ms(&start))
                .map_err(|m| self.err(m))?;
            let frequency_ms = parse_lenient_duration(&freq).map_err(|m| self.err(m))?;
            Some(PulseClause {
                start_ms,
                frequency_ms,
            })
        } else {
            None
        };

        self.p.expect_keyword("WHERE")?;
        let (where_disjuncts, where_filters) = self.parse_where_group()?;
        let where_bgp = where_disjuncts.first().cloned().unwrap_or_default();

        self.p.expect_keyword("SEQUENCE")?;
        self.p.expect_keyword("BY")?;
        let method = self.p.expect_word("a sequencing method")?;
        if !method.eq_ignore_ascii_case("StdSeq") {
            return Err(self.err(format!("unsupported sequencing method {method}")));
        }
        self.p.expect_keyword("AS")?;
        let alias = self.p.expect_word("a sequence alias")?;
        let sequence = SequenceMethod::StdSeq { alias };

        self.p.expect_keyword("HAVING")?;
        let having = self.parse_formula()?;

        let mut aggregates = Vec::new();
        while self.p.at_keyword("CREATE") {
            aggregates.push(self.parse_aggregate_def()?);
        }

        Ok(StarQlQuery {
            output_stream,
            output_mode,
            construct,
            stream,
            static_data,
            ontology_ref,
            pulse,
            where_bgp,
            where_disjuncts,
            where_filters,
            sequence,
            having,
            aggregates,
        })
    }

    /// `{ triples }` — the CONSTRUCT template, a SPARQL group of triples.
    fn parse_template(&mut self) -> Result<Vec<Atom>, StarQlError> {
        let start = self.p.position();
        let mut atoms = Vec::new();
        for element in self.p.parse_group()?.elements {
            let PatternElement::Triples(triples) = element else {
                return Err(StarQlError {
                    position: start,
                    message: "a CONSTRUCT template holds triples only".into(),
                });
            };
            atoms.extend(triples);
        }
        Ok(atoms)
    }

    /// Parses the WHERE clause with the SPARQL group-graph-pattern parser,
    /// then lowers the pattern to a union of BGPs with per-disjunct
    /// FILTERs. Full SPARQL pattern *syntax* is accepted; `OPTIONAL` (no
    /// continuous-query semantics) and FILTER forms with no SQL translation
    /// (`REGEX`, `BOUND`) are rejected with a positioned explanation.
    /// Accepted filters are pushed into the unfolded SQL by the translator.
    #[allow(clippy::type_complexity)]
    fn parse_where_group(
        &mut self,
    ) -> Result<(Vec<Vec<Atom>>, Vec<Vec<optique_sparql::Expression>>), StarQlError> {
        let start = self.p.position();
        let in_where = |message: String| StarQlError {
            position: start,
            message: format!("in WHERE clause: {message}"),
        };
        let group = self.p.parse_group().map_err(|e| StarQlError {
            position: e.position.unwrap_or(start),
            ..in_where(e.message)
        })?;
        let lowered = group
            .bgp_disjuncts_with_filters()
            .map_err(|m| in_where(format!("{m} in a continuous query")))?;
        // Accept only FILTERs the translator can push into SQL; the rest
        // (REGEX, BOUND) have no continuous-query execution path.
        for (_, filters) in &lowered {
            if let Some(blocked) = filters.iter().find_map(unsupported_filter_form) {
                return Err(in_where(format!(
                    "FILTER {blocked} cannot be pushed into SQL \
                     in a continuous query (use comparisons and &&/||/!)"
                )));
            }
        }
        Ok(lowered.into_iter().unzip())
    }

    /// `[NOW - "PT10S"^^xsd:duration, NOW] -> "PT1S"^^xsd:duration`
    fn parse_window(&mut self) -> Result<(i64, i64), StarQlError> {
        self.p.expect_token(TokenKind::LBracket, "`[`")?;
        self.p.expect_keyword("NOW")?;
        self.p.expect_token(TokenKind::Minus, "`-`")?;
        let range = self.parse_duration_literal()?;
        self.p.expect_token(TokenKind::Comma, "`,`")?;
        self.p.expect_keyword("NOW")?;
        self.p.expect_token(TokenKind::RBracket, "`]`")?;
        self.p.expect_token(TokenKind::Arrow, "`->`")?;
        let slide = self.parse_duration_literal()?;
        Ok((range, slide))
    }

    fn parse_duration_literal(&mut self) -> Result<i64, StarQlError> {
        let text = self.parse_lexical("duration")?;
        parse_lenient_duration(&text).map_err(|m| self.err(m))
    }

    /// A literal's lexical form (`"PT1S"^^xsd:duration` → `PT1S`).
    fn parse_lexical(&mut self, what: &str) -> Result<String, StarQlError> {
        let position = self.p.position();
        match self.p.parse_term()? {
            QueryTerm::Const(Term::Literal(literal)) => Ok(literal.lexical().to_string()),
            _ => Err(StarQlError {
                position,
                message: format!("expected a quoted {what}"),
            }),
        }
    }

    // ---- HAVING formulas ----------------------------------------------

    fn parse_formula(&mut self) -> Result<ProtoFormula, StarQlError> {
        if self.p.at_keyword("EXISTS") {
            return self.parse_exists();
        }
        if self.p.at_keyword("FORALL") {
            return self.parse_forall();
        }
        self.parse_or()
    }

    /// `IN seq` — the sequence a quantifier ranges over. `seq:` lexes as
    /// one prefixed name whose colon ends the header; `true` when it did.
    fn parse_in_seq(&mut self) -> Result<bool, StarQlError> {
        self.p.expect_keyword("IN")?;
        let colon = self.p.eat_map(|t| match t {
            TokenKind::Word(_) => Some(false),
            TokenKind::PName(p) if p.len() > 1 && p.ends_with(':') => Some(true),
            _ => None,
        });
        colon.ok_or_else(|| self.p.expected("a sequence name after IN").into())
    }

    fn parse_exists(&mut self) -> Result<ProtoFormula, StarQlError> {
        self.p.expect_keyword("EXISTS")?;
        let mut vars = vec![self.p.expect_var()?];
        while self.p.eat_token(&TokenKind::Comma) {
            vars.push(self.p.expect_var()?);
        }
        if !self.parse_in_seq()? {
            self.p.expect_token(colon(), "`:`")?;
        }
        self.state_scope.push(vars.clone());
        let body = self.parse_formula()?;
        self.state_scope.pop();
        Ok(ProtoFormula::Exists {
            state_vars: vars,
            body: Box::new(body),
        })
    }

    fn parse_forall(&mut self) -> Result<ProtoFormula, StarQlError> {
        self.p.expect_keyword("FORALL")?;
        // State vars with optional `<` ordering chain: `?i < ?j`.
        let mut state_vars = vec![self.p.expect_var()?];
        let mut order_pairs: Vec<(String, String)> = Vec::new();
        while self.p.eat_token(&TokenKind::Lt) {
            let next = self.p.expect_var()?;
            order_pairs.push((state_vars.last().expect("nonempty").clone(), next.clone()));
            state_vars.push(next);
        }
        // Optional value variables.
        let mut value_vars = Vec::new();
        if !self.parse_in_seq()? {
            while self.p.eat_token(&TokenKind::Comma) {
                value_vars.push(self.p.expect_var()?);
            }
            self.p.expect_token(colon(), "`:`")?;
        }
        self.state_scope.push(state_vars.clone());
        let body = self.parse_formula()?;
        self.state_scope.pop();
        // Inject the header's ordering constraints into the body's guard.
        let body = if order_pairs.is_empty() {
            body
        } else {
            let mut order: Option<ProtoFormula> = None;
            for (l, r) in order_pairs {
                let c = ProtoFormula::StateLess {
                    left: vec![l],
                    right: r,
                };
                order = Some(match order {
                    None => c,
                    Some(prev) => ProtoFormula::And(Box::new(prev), Box::new(c)),
                });
            }
            let order = order.expect("nonempty");
            match body {
                ProtoFormula::If { cond, then } => ProtoFormula::If {
                    cond: Box::new(ProtoFormula::And(Box::new(order), cond)),
                    then,
                },
                other => ProtoFormula::If {
                    cond: Box::new(order),
                    then: Box::new(other),
                },
            }
        };
        Ok(ProtoFormula::Forall {
            state_vars,
            value_vars,
            body: Box::new(body),
        })
    }

    fn parse_or(&mut self) -> Result<ProtoFormula, StarQlError> {
        let mut left = self.parse_and()?;
        while self.p.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = ProtoFormula::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<ProtoFormula, StarQlError> {
        let mut left = self.parse_not()?;
        while self.p.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = ProtoFormula::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<ProtoFormula, StarQlError> {
        if self.p.eat_keyword("NOT") {
            let inner = self.parse_not()?;
            return Ok(ProtoFormula::Not(Box::new(inner)));
        }
        self.parse_atomic_formula()
    }

    fn parse_atomic_formula(&mut self) -> Result<ProtoFormula, StarQlError> {
        // Nested quantifiers are allowed in atomic position (Figure 1 puts
        // FORALL directly after AND).
        if self.p.at_keyword("EXISTS") {
            return self.parse_exists();
        }
        if self.p.at_keyword("FORALL") {
            return self.parse_forall();
        }
        if self.p.eat_keyword("IF") {
            self.p.expect_token(TokenKind::LParen, "`(`")?;
            let cond = self.parse_formula()?;
            self.p.expect_token(TokenKind::RParen, "`)`")?;
            self.p.expect_keyword("THEN")?;
            let then = self.parse_atomic_formula()?;
            return Ok(ProtoFormula::If {
                cond: Box::new(cond),
                then: Box::new(then),
            });
        }
        if self.p.at_keyword("GRAPH") {
            return self.parse_graph_formula();
        }
        if self.p.eat_token(&TokenKind::LParen) {
            let inner = self.parse_formula()?;
            self.p.expect_token(TokenKind::RParen, "`)`")?;
            return Ok(inner);
        }
        match self.p.peek() {
            // Window aggregate atom: SUM(?c, sie:hasValue) >= 100. The
            // keyword must be directly followed by `(` — `SUM.NAME(…)`
            // stays a macro call in the SUM namespace.
            Some(TokenKind::Word(word)) if self.p.peek2() == Some(&TokenKind::LParen) => {
                match AggFunc::from_keyword(word) {
                    Some(func) => self.parse_agg_atom(func),
                    None => self.parse_macro_call(),
                }
            }
            Some(TokenKind::Word(_) | TokenKind::PName(_)) => self.parse_macro_call(),
            // Comparisons starting with a variable (or term).
            _ => self.parse_comparison(),
        }
    }

    fn parse_graph_formula(&mut self) -> Result<ProtoFormula, StarQlError> {
        self.p.expect_keyword("GRAPH")?;
        let state = self.p.expect_var()?;
        self.p.expect_token(TokenKind::LBrace, "`{`")?;
        let mut atoms = Vec::new();
        while !matches!(self.p.peek(), Some(TokenKind::RBrace) | None) {
            let subject = self.parse_proto_term()?;
            let predicate = self.parse_proto_pred()?;
            // Object present unless the atom ends here.
            let object = if matches!(
                self.p.peek(),
                Some(TokenKind::RBrace | TokenKind::Dot) | None
            ) {
                None
            } else {
                Some(self.parse_proto_term()?)
            };
            atoms.push(ProtoAtom {
                subject,
                predicate,
                object,
            });
            self.p.eat_token(&TokenKind::Dot);
        }
        self.p.expect_token(TokenKind::RBrace, "`}`")?;
        Ok(ProtoFormula::Graph { state, atoms })
    }

    /// A `$param`, else a SPARQL term.
    fn parse_proto_term(&mut self) -> Result<ProtoTerm, StarQlError> {
        if let Some(p) = self.eat_param() {
            return Ok(ProtoTerm::Param(p));
        }
        Ok(match self.p.parse_term()? {
            QueryTerm::Var(v) => ProtoTerm::Var(v),
            QueryTerm::Const(c) => ProtoTerm::Const(c),
        })
    }

    /// A `$param`, else a SPARQL verb.
    fn parse_proto_pred(&mut self) -> Result<ProtoPred, StarQlError> {
        if let Some(p) = self.eat_param() {
            return Ok(ProtoPred::Param(p));
        }
        Ok(ProtoPred::Iri(self.p.parse_verb()?.1))
    }

    /// A macro's name: `NS:NAME`, `NS: NAME` or `NS.NAME`.
    fn parse_macro_name(&mut self, what: &str) -> Result<(String, String), StarQlError> {
        let (namespace, name) = match self.p.bump() {
            Some(TokenKind::PName(p)) => {
                let (ns, name) = p.split_once(':').expect("a prefixed name has a colon");
                (ns.to_string(), name.to_string())
            }
            Some(TokenKind::Word(ns))
                if self.p.eat_token(&TokenKind::Dot) || self.p.eat_token(&colon()) =>
            {
                (ns, String::new())
            }
            Some(TokenKind::Word(w)) => {
                return Err(self.err(format!("expected {what}, got bare identifier {w}")))
            }
            _ => return Err(self.err(format!("expected {what} NS:NAME"))),
        };
        if name.is_empty() {
            return Ok((namespace, self.p.expect_word(what)?));
        }
        Ok((namespace, name))
    }

    fn parse_macro_call(&mut self) -> Result<ProtoFormula, StarQlError> {
        let (namespace, name) = self.parse_macro_name("macro call")?;
        self.p.expect_token(TokenKind::LParen, "`(`")?;
        let mut args = Vec::new();
        if !self.p.eat_token(&TokenKind::RParen) {
            args.push(self.parse_proto_term()?);
            while self.p.eat_token(&TokenKind::Comma) {
                args.push(self.parse_proto_term()?);
            }
            self.p.expect_token(TokenKind::RParen, "`)`")?;
        }
        Ok(ProtoFormula::MacroCall {
            namespace,
            name,
            args,
        })
    }

    /// `FUNC(subject, property) op threshold` — a window-aggregate atom.
    fn parse_agg_atom(&mut self, func: AggFunc) -> Result<ProtoFormula, StarQlError> {
        self.p.bump(); // the aggregate keyword
        self.p.expect_token(TokenKind::LParen, "`(`")?;
        let subject = self.parse_proto_term()?;
        self.p.expect_token(TokenKind::Comma, "`,`")?;
        let property = self.parse_proto_pred()?;
        self.p.expect_token(TokenKind::RParen, "`)`")?;
        let op = self.parse_cmp_op()?;
        let threshold = self.parse_proto_term()?;
        Ok(ProtoFormula::Agg {
            func,
            subject,
            property,
            op,
            threshold,
        })
    }

    fn parse_cmp_op(&mut self) -> Result<CmpOp, StarQlError> {
        let op = self.p.eat_map(|t| match t {
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            TokenKind::Eq => Some(CmpOp::Eq),
            TokenKind::Ne => Some(CmpOp::Ne),
            _ => None,
        });
        op.ok_or_else(|| self.p.expected("a comparison operator").into())
    }

    /// `?i, ?j < ?k` (state order) or `?x <= ?y` (value comparison).
    fn parse_comparison(&mut self) -> Result<ProtoFormula, StarQlError> {
        let first = self.parse_proto_term()?;
        // Collect a comma list of further variables (state-order form).
        let mut list = vec![first];
        while self.p.peek() == Some(&TokenKind::Comma)
            && matches!(self.p.peek2(), Some(TokenKind::Var(_)))
        {
            self.p.bump();
            list.push(self.parse_proto_term()?);
        }
        let op = self.parse_cmp_op()?;
        let right = self.parse_proto_term()?;

        // State-order form: `<` with every operand a state variable.
        let all_state_vars = list
            .iter()
            .chain(std::iter::once(&right))
            .all(|t| matches!(t, ProtoTerm::Var(v) if self.in_state_scope(v)));
        if op == CmpOp::Lt && all_state_vars {
            let left_names: Vec<String> = list
                .iter()
                .map(|t| match t {
                    ProtoTerm::Var(v) => v.clone(),
                    _ => unreachable!(),
                })
                .collect();
            let ProtoTerm::Var(right_name) = right else {
                unreachable!()
            };
            return Ok(ProtoFormula::StateLess {
                left: left_names,
                right: right_name,
            });
        }
        if list.len() != 1 {
            return Err(self.err("comma-separated operands only valid in state comparisons"));
        }
        Ok(ProtoFormula::Cmp {
            left: list.into_iter().next().expect("len checked above"),
            op,
            right,
        })
    }

    fn parse_aggregate_def(&mut self) -> Result<AggregateDef, StarQlError> {
        self.p.expect_keyword("CREATE")?;
        self.p.expect_keyword("AGGREGATE")?;
        let (namespace, name) = self.parse_macro_name("aggregate name")?;
        self.p.expect_token(TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.p.eat_token(&TokenKind::RParen) {
            loop {
                match self.eat_param() {
                    Some(p) => params.push(p),
                    None => return Err(self.p.expected("$param").into()),
                }
                if !self.p.eat_token(&TokenKind::Comma) {
                    break;
                }
            }
            self.p.expect_token(TokenKind::RParen, "`)`")?;
        }
        self.p.expect_keyword("AS")?;
        self.p.expect_keyword("HAVING")?;
        let body = self.parse_formula()?;
        Ok(AggregateDef {
            namespace,
            name,
            params,
            body,
        })
    }
}

/// Durations accept full ISO form (`PT1S`) and the paper's shorthand (`1S`).
/// Returns the name of the first filter form with no SQL translation
/// (`REGEX`, `BOUND`), or `None` when the whole expression can be pushed
/// into the unfolded static SQL.
fn unsupported_filter_form(expr: &optique_sparql::Expression) -> Option<&'static str> {
    use optique_sparql::Expression as E;
    match expr {
        E::Var(_) | E::Const(_) => None,
        E::Regex { .. } => Some("REGEX"),
        E::Bound(_) => Some("BOUND"),
        E::Not(a) => unsupported_filter_form(a),
        E::Or(a, b) | E::And(a, b) | E::Compare(_, a, b) | E::Arithmetic(_, a, b) => {
            unsupported_filter_form(a).or_else(|| unsupported_filter_form(b))
        }
    }
}

fn parse_lenient_duration(text: &str) -> Result<i64, String> {
    parse_duration_ms(text).or_else(|_| parse_duration_ms(&format!("PT{text}")))
}

/// The Figure 1 query, verbatim modulo prefix declarations (used by tests,
/// examples and benches across the workspace).
pub const FIGURE1: &str = r#"
PREFIX sie: <http://siemens.example/ontology#>
PREFIX : <http://siemens.example/ontology#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
CREATE STREAM S_out AS
CONSTRUCT GRAPH NOW { ?c2 rdf:type :MonInc }
FROM STREAM S_Msmt [NOW-"PT10S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration,
STATIC DATA <http://www.optique-project.eu/siemens/ABoxstatic>,
ONTOLOGY <http://www.optique-project.eu/siemens/TBox>
USING PULSE WITH START = "00:10:00CET", FREQUENCY = "1S"
WHERE {?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2.}
SEQUENCE BY StdSeq AS seq
HAVING MONOTONIC.HAVING(?c2,sie:hasValue)
CREATE AGGREGATE MONOTONIC:HAVING ($var,$attr) AS
HAVING EXISTS ?k IN seq: GRAPH ?k { $var sie:showsFailure } AND
FORALL ?i < ?j IN seq, ?x, ?y:
IF ( ?i, ?j < ?k AND GRAPH ?i {$var $attr ?x} AND GRAPH ?j {$var $attr ?y}) THEN ?x<=?y
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::having::expand;
    use optique_rdf::Literal;

    fn ns() -> Namespaces {
        Namespaces::with_w3c_defaults()
    }

    #[test]
    fn figure1_parses() {
        let q = parse_starql(FIGURE1, &ns()).unwrap();
        assert_eq!(q.output_stream, "S_out");
        assert_eq!(q.stream.name, "S_Msmt");
        assert_eq!(q.stream.range_ms, 10_000);
        assert_eq!(q.stream.slide_ms, 1_000);
        assert_eq!(q.where_bgp.len(), 3);
        assert_eq!(q.construct.len(), 1);
        assert_eq!(q.aggregates.len(), 1);
        let pulse = q.pulse.unwrap();
        assert_eq!(pulse.start_ms, 600_000);
        assert_eq!(pulse.frequency_ms, 1_000);
        assert_eq!(
            q.static_data.as_deref(),
            Some("http://www.optique-project.eu/siemens/ABoxstatic")
        );
        assert_eq!(q.sequence.alias(), "seq");
    }

    #[test]
    fn figure1_macro_expands() {
        let q = parse_starql(FIGURE1, &ns()).unwrap();
        let formula = expand(&q.having, &q.aggregates).unwrap();
        // Shape: Exists k . (Graph ∧ Forall i j …).
        let crate::having::HavingFormula::Exists { state_vars, body } = &formula else {
            panic!("expected EXISTS at top, got {formula:?}")
        };
        assert_eq!(state_vars, &vec!["k".to_string()]);
        let crate::having::HavingFormula::And(first, second) = body.as_ref() else {
            panic!("expected AND inside EXISTS")
        };
        assert!(matches!(
            first.as_ref(),
            crate::having::HavingFormula::Graph { .. }
        ));
        assert!(matches!(
            second.as_ref(),
            crate::having::HavingFormula::Forall { .. }
        ));
    }

    #[test]
    fn where_bgp_atoms_typed() {
        let q = parse_starql(FIGURE1, &ns()).unwrap();
        let classes = q
            .where_bgp
            .iter()
            .filter(|a| matches!(a, Atom::Class { .. }))
            .count();
        assert_eq!(classes, 2);
    }

    #[test]
    fn construct_uses_rdf_type() {
        let q = parse_starql(FIGURE1, &ns()).unwrap();
        let Atom::Class { class, arg } = &q.construct[0] else {
            panic!()
        };
        assert_eq!(class.local_name(), "MonInc");
        assert_eq!(arg, &QueryTerm::var("c2"));
    }

    fn with_output_mode(mode_kw: &str) -> String {
        format!(
            r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS {mode_kw}
            CONSTRUCT GRAPH NOW {{ ?x a sie:Alert }}
            FROM STREAM S [NOW-"PT2S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE {{ ?x a sie:Sensor }}
            SEQUENCE BY StdSeq AS seq
            HAVING SUM(?x, sie:hasValue) >= 100
            "#
        )
    }

    #[test]
    fn output_mode_defaults_to_rstream() {
        let q = parse_starql(FIGURE1, &ns()).unwrap();
        assert_eq!(q.output_mode, OutputMode::RStream);
    }

    #[test]
    fn output_mode_keywords_parse() {
        for (kw, mode) in [
            ("RSTREAM", OutputMode::RStream),
            ("ISTREAM", OutputMode::IStream),
            ("DSTREAM", OutputMode::DStream),
            ("istream", OutputMode::IStream),
            ("", OutputMode::RStream),
        ] {
            let q = parse_starql(&with_output_mode(kw), &ns()).unwrap();
            assert_eq!(q.output_mode, mode, "keyword {kw:?}");
        }
    }

    #[test]
    fn agg_atom_parses() {
        let q = parse_starql(&with_output_mode(""), &ns()).unwrap();
        let formula = expand(&q.having, &q.aggregates).unwrap();
        let crate::having::HavingFormula::Agg {
            func,
            subject,
            property,
            op,
            threshold,
        } = formula
        else {
            panic!("expected Agg atom")
        };
        assert_eq!(func, AggFunc::Sum);
        assert_eq!(subject, QueryTerm::var("x"));
        assert_eq!(property.local_name(), "hasValue");
        assert_eq!(op, CmpOp::Ge);
        assert!(
            matches!(threshold, QueryTerm::Const(Term::Literal(ref l)) if l.as_f64() == Some(100.0))
        );
    }

    #[test]
    fn agg_atoms_combine_with_connectives() {
        let text = with_output_mode("").replace(
            "HAVING SUM(?x, sie:hasValue) >= 100",
            "HAVING COUNT(?x, sie:hasValue) > 3 AND NOT MAX(?x, sie:hasValue) > 95",
        );
        let q = parse_starql(&text, &ns()).unwrap();
        let formula = expand(&q.having, &q.aggregates).unwrap();
        let crate::having::HavingFormula::And(a, b) = formula else {
            panic!("expected AND")
        };
        assert!(matches!(
            a.as_ref(),
            crate::having::HavingFormula::Agg {
                func: AggFunc::Count,
                ..
            }
        ));
        let crate::having::HavingFormula::Not(inner) = b.as_ref() else {
            panic!("expected NOT")
        };
        assert!(matches!(
            inner.as_ref(),
            crate::having::HavingFormula::Agg {
                func: AggFunc::Max,
                ..
            }
        ));
    }

    #[test]
    fn dotted_agg_keyword_stays_a_macro_call() {
        // `SUM.NAME(...)` is a macro in the SUM namespace, not an aggregate.
        let text =
            with_output_mode("").replace("HAVING SUM(?x, sie:hasValue) >= 100", "HAVING SUM.X(?x)");
        let q = parse_starql(&text, &ns()).unwrap();
        assert!(matches!(
            q.having,
            ProtoFormula::MacroCall { ref namespace, .. } if namespace == "SUM"
        ));
    }

    #[test]
    fn bare_identifier_in_having_still_errors() {
        let text =
            with_output_mode("").replace("HAVING SUM(?x, sie:hasValue) >= 100", "HAVING bogus");
        let err = parse_starql(&text, &ns()).unwrap_err();
        assert!(err.message.contains("bare identifier"));
    }

    #[test]
    fn missing_clause_is_an_error() {
        let err = parse_starql("CREATE STREAM x AS WHERE {}", &ns()).unwrap_err();
        assert!(err.message.contains("CONSTRUCT"));
    }

    #[test]
    fn unbound_prefix_is_an_error() {
        let text = r#"
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW { ?x a nope:Thing }
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE { ?x a nope:Thing }
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k { ?x nope:p ?y }
        "#;
        let err = parse_starql(text, &ns()).unwrap_err();
        assert!(err.message.contains("unbound prefix"));
    }

    #[test]
    fn state_vs_value_comparisons() {
        let q = parse_starql(FIGURE1, &ns()).unwrap();
        let formula = expand(&q.having, &q.aggregates).unwrap();
        // Dig to the IF: its guard must contain a StateLess with left {i,j}.
        fn find_stateless(f: &crate::having::HavingFormula) -> bool {
            use crate::having::HavingFormula as H;
            match f {
                H::StateLess { left, right } => {
                    left.contains(&"j".to_string()) && right == "k"
                        || left.contains(&"i".to_string())
                }
                H::Exists { body, .. } | H::Forall { body, .. } | H::Not(body) => {
                    find_stateless(body)
                }
                H::If { cond, then } => find_stateless(cond) || find_stateless(then),
                H::And(a, b) | H::Or(a, b) => find_stateless(a) || find_stateless(b),
                _ => false,
            }
        }
        assert!(find_stateless(&formula));
    }

    /// Regression for the comparison-list fold: a long comma chain of state
    /// variables parses into one StateLess with every operand in order, and
    /// a plain value comparison still lands in Cmp.
    #[test]
    fn long_state_comparison_chain_parses_in_order() {
        let n = 32;
        let vars: Vec<String> = (0..n).map(|i| format!("?s{i}")).collect();
        let text = format!(
            r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW {{ ?x a sie:Alert }}
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE {{ ?x sie:hasValue ?v }}
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS {} IN seq: {} < {}
            "#,
            vars.join(", "),
            vars[..n - 1].join(", "),
            vars[n - 1],
        );
        let q = parse_starql(&text, &ns()).unwrap();
        let formula = expand(&q.having, &q.aggregates).unwrap();
        let crate::having::HavingFormula::Exists { state_vars, body } = &formula else {
            panic!("expected EXISTS, got {formula:?}")
        };
        assert_eq!(state_vars.len(), n);
        let crate::having::HavingFormula::StateLess { left, right } = body.as_ref() else {
            panic!("expected StateLess, got {body:?}")
        };
        let names: Vec<String> = (0..n - 1).map(|i| format!("s{i}")).collect();
        assert_eq!(left, &names);
        assert_eq!(right, &format!("s{}", n - 1));
    }

    #[test]
    fn bare_frequency_accepted() {
        assert_eq!(parse_lenient_duration("1S").unwrap(), 1_000);
        assert_eq!(parse_lenient_duration("PT2S").unwrap(), 2_000);
    }

    fn skeleton(where_clause: &str) -> String {
        format!(
            r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW {{ ?x a sie:Alert }}
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE {where_clause}
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k {{ ?x sie:hasValue ?v }}
            "#
        )
    }

    #[test]
    fn where_clause_accepts_sparql_union() {
        let q = parse_starql(
            &skeleton("{ { ?x a sie:TemperatureSensor } UNION { ?x a sie:PressureSensor } }"),
            &ns(),
        )
        .unwrap();
        assert_eq!(q.where_disjuncts.len(), 2);
        assert_eq!(q.where_bgp, q.where_disjuncts[0]);
        assert!(matches!(&q.where_disjuncts[1][0], Atom::Class { class, .. }
            if class.local_name() == "PressureSensor"));
    }

    #[test]
    fn where_clause_accepts_predicate_object_lists() {
        let q = parse_starql(
            &skeleton("{ ?x a sie:Sensor ; sie:inAssembly ?a . }"),
            &ns(),
        )
        .unwrap();
        assert_eq!(q.where_bgp.len(), 2);
        assert_eq!(q.where_disjuncts.len(), 1);
    }

    #[test]
    fn where_clause_rejects_optional_with_explanation() {
        let err = parse_starql(
            &skeleton("{ ?x a sie:Sensor . OPTIONAL { ?x sie:inAssembly ?a } }"),
            &ns(),
        )
        .unwrap_err();
        assert!(err.message.contains("OPTIONAL"), "{}", err.message);
        assert!(err.message.contains("continuous query"), "{}", err.message);
    }

    #[test]
    fn where_clause_accepts_comparison_filter() {
        let q = parse_starql(&skeleton("{ ?x sie:hasValue ?v . FILTER(?v > 5) }"), &ns()).unwrap();
        assert_eq!(q.where_disjuncts.len(), 1);
        assert_eq!(q.where_filters.len(), 1);
        assert_eq!(q.where_filters[0].len(), 1);
    }

    #[test]
    fn where_clause_accepts_connective_filter() {
        // `&&`, `||` and `!` are not STARQL tokens elsewhere, but the WHERE
        // clause lexes through the SPARQL parser, so connective filters
        // parse and attach to their disjunct.
        let q = parse_starql(
            &skeleton("{ ?x sie:hasValue ?v . FILTER(?v > 5 && !(?v = 7)) }"),
            &ns(),
        )
        .unwrap();
        assert_eq!(q.where_filters[0].len(), 1);
    }

    #[test]
    fn where_clause_filter_scopes_to_its_union_branch() {
        let q = parse_starql(
            &skeleton("{ { ?x sie:hasValue ?v . FILTER(?v > 5) } UNION { ?x a sie:Sensor } }"),
            &ns(),
        )
        .unwrap();
        assert_eq!(q.where_disjuncts.len(), 2);
        assert_eq!(
            q.where_filters[0].len(),
            1,
            "first branch carries the filter"
        );
        assert!(q.where_filters[1].is_empty(), "second branch is unfiltered");
    }

    #[test]
    fn where_clause_rejects_untranslatable_filters_with_explanation() {
        let err = parse_starql(
            &skeleton("{ ?x sie:hasModel ?m . FILTER(REGEX(?m, \"^SGT\")) }"),
            &ns(),
        )
        .unwrap_err();
        assert!(err.message.contains("REGEX"), "{}", err.message);
        assert!(err.message.contains("continuous query"), "{}", err.message);
        let err = parse_starql(
            &skeleton("{ ?x sie:hasValue ?v . FILTER(BOUND(?v)) }"),
            &ns(),
        )
        .unwrap_err();
        assert!(err.message.contains("BOUND"), "{}", err.message);
    }

    #[test]
    fn where_clause_syntax_errors_are_positioned() {
        // The one token stream positions the error at the token itself:
        // the `}` where the object is missing.
        let err = parse_starql(&skeleton("{ ?x a }"), &ns()).unwrap_err();
        assert!(err.message.contains("in WHERE clause"), "{}", err.message);
        assert_eq!(
            err.position,
            Position {
                line: 6,
                column: 26
            }
        );
        assert!(err.to_string().contains("line 6, column 26"), "{err}");
    }

    /// HAVING constants are SPARQL terms: a typed literal keeps its
    /// datatype, and a negative number and an exponent parse.
    #[test]
    fn having_constants_parse_as_sparql_terms() {
        for (constant, expected) in [
            (r#""70"^^xsd:integer"#, Literal::integer(70)),
            ("-5", Literal::integer(-5)),
            ("1e2", Literal::double(100.0)),
        ] {
            let having =
                format!("EXISTS ?k IN seq: GRAPH ?k {{ ?x sie:hasValue ?v }} AND ?v >= {constant}");
            let text = with_output_mode("").replace("SUM(?x, sie:hasValue) >= 100", &having);
            let q = parse_starql(&text, &ns()).unwrap_or_else(|e| panic!("{constant}: {e}"));
            let ProtoFormula::Exists { body, .. } = &q.having else {
                panic!("expected EXISTS, got {:?}", q.having)
            };
            let ProtoFormula::And(_, cmp) = body.as_ref() else {
                panic!("expected AND, got {body:?}")
            };
            assert_eq!(
                **cmp,
                ProtoFormula::Cmp {
                    left: ProtoTerm::Var("v".into()),
                    op: CmpOp::Ge,
                    right: ProtoTerm::Const(Term::Literal(expected)),
                },
                "{constant}"
            );
        }
    }

    /// SPARQL's single-quoted strings are strings in a STARQL WHERE too.
    #[test]
    fn single_quoted_filter_in_starql_where_is_accepted() {
        let q = parse_starql(
            &skeleton("{ ?c2 a sie:Sensor . FILTER(?c2 != 'x') }"),
            &ns(),
        )
        .unwrap();
        assert_eq!(
            q.where_filters[0],
            [optique_sparql::Expression::Compare(
                optique_sparql::ComparisonOperator::Ne,
                Box::new(optique_sparql::Expression::Var("c2".into())),
                Box::new(optique_sparql::Expression::Const(Term::Literal(
                    Literal::string("x")
                ))),
            )]
        );
    }

    /// A literal means one thing in WHERE and in HAVING: `\n` is a newline
    /// in both.
    #[test]
    fn escaped_newline_is_one_term_in_where_and_having() {
        let text = skeleton(r#"{ ?x sie:hasModel "a\nb" }"#).replace(
            "GRAPH ?k { ?x sie:hasValue ?v }",
            r#"GRAPH ?k { ?x sie:hasModel "a\nb" }"#,
        );
        let q = parse_starql(&text, &ns()).unwrap();
        let newline = Term::Literal(Literal::string("a\nb"));
        let Atom::Property { object, .. } = &q.where_bgp[0] else {
            panic!("expected a property atom, got {:?}", q.where_bgp)
        };
        assert_eq!(object, &QueryTerm::Const(newline.clone()));
        let ProtoFormula::Exists { body, .. } = &q.having else {
            panic!("expected EXISTS, got {:?}", q.having)
        };
        let ProtoFormula::Graph { atoms, .. } = body.as_ref() else {
            panic!("expected GRAPH, got {body:?}")
        };
        assert_eq!(atoms[0].object, Some(ProtoTerm::Const(newline)));
    }

    #[test]
    fn multi_aggregate_definitions() {
        let text = format!(
            "{FIGURE1}\nCREATE AGGREGATE OTHER:ONE ($a) AS HAVING EXISTS ?m IN seq: GRAPH ?m {{ $a sie:showsFailure }}"
        );
        let q = parse_starql(&text, &ns()).unwrap();
        assert_eq!(q.aggregates.len(), 2);
    }
}
