//! Expression AST, name binding and evaluation.
//!
//! Expressions exist in two phases sharing one enum: *unbound* trees out of
//! the parser reference columns by name ([`Expr::Column`]); [`Expr::bind`]
//! resolves every name against a [`Schema`] producing a tree whose leaves
//! are positional [`Expr::ColumnIdx`] references, which is what the executor
//! evaluates — no per-row string lookups on the hot path.

use std::fmt;

use crate::error::SqlError;
use crate::functions::{call_scalar, AggFunc};
use crate::hash::IdSet;
use crate::iri_template::IriTemplate;
use crate::schema::Schema;
use crate::value::Value;

/// Binary operators, in SQL surface syntax.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// An SQL expression.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// Unresolved (possibly qualified) column reference.
    Column(String),
    /// Resolved positional column reference; display keeps the original name.
    ColumnIdx {
        /// Position in the input row.
        index: usize,
        /// Original surface name, for display.
        name: String,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Scalar function call.
    Function {
        /// Function name (case-insensitive, stored lowercase).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// The IRI `template` mints from `key` (NULL for a NULL key):
    /// `iri_template('P', key)` in SQL text, how an unfolded mapping turns
    /// a key column into an IRI.
    Mint {
        /// The pattern, split at its slot once, when the node is built.
        template: IriTemplate,
        /// The key the slot takes.
        key: Box<Expr>,
    },
    /// Aggregate call; only valid inside aggregation contexts.
    Aggregate {
        /// Which aggregate.
        func: AggFunc,
        /// Arguments (empty for `COUNT(*)`).
        args: Vec<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr IN (v₁, …, vₙ)` over literal values.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// Hash-set membership over non-NULL literal values — the O(1)-probe
    /// form of a non-negated [`Expr::InList`], built for the large
    /// `IN`-lists semi-join pushdown ships (a linear probe per row turns
    /// restricted scans quadratic). `NULL IN {…}` is `NULL`, as in SQL.
    InSet {
        /// Tested expression.
        expr: Box<Expr>,
        /// The admissible values (none NULL).
        set: std::sync::Arc<IdSet<Value>>,
    },
    /// `expr BETWEEN low AND high` (inclusive).
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
    },
}

impl Expr {
    /// Column-by-name shorthand.
    pub fn col(name: impl Into<String>) -> Self {
        Expr::Column(name.into())
    }

    /// Literal shorthand.
    pub fn lit(value: impl Into<Value>) -> Self {
        Expr::Literal(value.into())
    }

    /// Binary-op shorthand.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Self {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Equality shorthand.
    pub fn eq(left: Expr, right: Expr) -> Self {
        Expr::binary(BinOp::Eq, left, right)
    }

    /// Conjunction of a non-empty expression list. Folds by consuming the
    /// iterator in place — no front-removal shifting, so a conjunction of
    /// `n` terms builds in O(n).
    pub fn and_all(exprs: Vec<Expr>) -> Option<Expr> {
        let mut exprs = exprs.into_iter();
        let first = exprs.next()?;
        Some(exprs.fold(first, |acc, e| Expr::binary(BinOp::And, acc, e)))
    }

    /// Resolves all column names against `schema`.
    pub fn bind(&self, schema: &Schema) -> Result<Expr, SqlError> {
        self.transform(&mut |e| match e {
            Expr::Column(name) => {
                let index = schema.resolve(name)?;
                Ok(Some(Expr::ColumnIdx {
                    index,
                    name: name.clone(),
                }))
            }
            _ => Ok(None),
        })
    }

    /// Bottom-up transformation: `f` returns `Some(replacement)` to rewrite a
    /// node (children already transformed), `None` to keep it.
    pub fn transform(
        &self,
        f: &mut impl FnMut(&Expr) -> Result<Option<Expr>, SqlError>,
    ) -> Result<Expr, SqlError> {
        let rebuilt = match self {
            Expr::Literal(_) | Expr::Column(_) | Expr::ColumnIdx { .. } => self.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.transform(f)?),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.transform(f)?),
                right: Box::new(right.transform(f)?),
            },
            Expr::Function { name, args } => Expr::Function {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| a.transform(f))
                    .collect::<Result<_, _>>()?,
            },
            Expr::Mint { template, key } => Expr::Mint {
                template: template.clone(),
                key: Box::new(key.transform(f)?),
            },
            Expr::Aggregate { func, args } => Expr::Aggregate {
                func: *func,
                args: args
                    .iter()
                    .map(|a| a.transform(f))
                    .collect::<Result<_, _>>()?,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.transform(f)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(expr.transform(f)?),
                list: list
                    .iter()
                    .map(|a| a.transform(f))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            },
            Expr::InSet { expr, set } => Expr::InSet {
                expr: Box::new(expr.transform(f)?),
                set: std::sync::Arc::clone(set),
            },
            Expr::Between { expr, low, high } => Expr::Between {
                expr: Box::new(expr.transform(f)?),
                low: Box::new(low.transform(f)?),
                high: Box::new(high.transform(f)?),
            },
        };
        Ok(f(&rebuilt)?.unwrap_or(rebuilt))
    }

    /// Visits every node; used by analyses (aggregate detection, column use).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column(_) | Expr::ColumnIdx { .. } => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSet { expr, .. }
            | Expr::Mint { key: expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Function { args, .. } | Expr::Aggregate { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for a in list {
                    a.walk(f);
                }
            }
            Expr::Between { expr, low, high } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
        }
    }

    /// True when the tree contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Aggregate { .. }) {
                found = true;
            }
        });
        found
    }

    /// Column positions referenced by this (bound) expression.
    pub fn referenced_columns(&self) -> Vec<usize> {
        let mut cols = Vec::new();
        self.walk(&mut |e| {
            if let Expr::ColumnIdx { index, .. } = e {
                cols.push(*index);
            }
        });
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Evaluates a bound expression against a row. Aggregates and unresolved
    /// columns are evaluation errors — they must be compiled away first.
    pub fn eval(&self, row: &[Value]) -> Result<Value, SqlError> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(name) => Err(SqlError::Binding(format!(
                "unbound column {name} at evaluation time"
            ))),
            Expr::ColumnIdx { index, name } => row
                .get(*index)
                .cloned()
                .ok_or_else(|| SqlError::Execution(format!("row too short for column {name}"))),
            Expr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOp::Not => match v {
                        Value::Null => Ok(Value::Null),
                        other => Ok(Value::Bool(!other.is_truthy())),
                    },
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        other => Err(SqlError::Type(format!("cannot negate {other}"))),
                    },
                }
            }
            Expr::Binary { op, left, right } => eval_binary(*op, left, right, row),
            Expr::Function { name, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval(row)?);
                }
                call_scalar(name, &values)
            }
            Expr::Mint { template, key } => Ok(template.mint(&key.eval(row)?)),
            Expr::Aggregate { .. } => Err(SqlError::Execution(
                "aggregate evaluated outside aggregation context".into(),
            )),
            Expr::IsNull { expr, negated } => {
                let isnull = expr.eval(row)?.is_null();
                Ok(Value::Bool(isnull != *negated))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let needle = expr.eval(row)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let v = item.eval(row)?;
                    match needle.sql_eq(&v) {
                        Some(true) => return Ok(Value::Bool(!*negated)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            Expr::InSet { expr, set } => {
                let needle = expr.eval(row)?;
                if needle.is_null() {
                    return Ok(Value::Null);
                }
                // `Value`'s Eq/Hash agree with `sql_eq` on non-NULL values
                // (numerics hash through their f64 bits), so one probe
                // equals the `InList` linear scan.
                Ok(Value::Bool(set.contains(&needle)))
            }
            Expr::Between { expr, low, high } => {
                let v = expr.eval(row)?;
                let lo = low.eval(row)?;
                let hi = high.eval(row)?;
                match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => Ok(Value::Bool(
                        a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater,
                    )),
                    _ => Ok(Value::Null),
                }
            }
        }
    }

    /// A display name for projection output when no alias is given.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column(name) | Expr::ColumnIdx { name, .. } => {
                name.rsplit('.').next().unwrap_or(name).to_string()
            }
            Expr::Aggregate { func, .. } => format!("{func}").to_ascii_lowercase(),
            Expr::Function { name, .. } => name.clone(),
            Expr::Mint { .. } => "iri_template".to_string(),
            other => format!("{other}"),
        }
    }
}

fn eval_binary(op: BinOp, left: &Expr, right: &Expr, row: &[Value]) -> Result<Value, SqlError> {
    // AND/OR use three-valued logic with short-circuiting.
    if op == BinOp::And {
        let l = left.eval(row)?;
        if !l.is_null() && !l.is_truthy() {
            return Ok(Value::Bool(false));
        }
        let r = right.eval(row)?;
        return Ok(match (l.is_null(), r.is_null()) {
            (false, false) => Value::Bool(l.is_truthy() && r.is_truthy()),
            _ => {
                if !r.is_null() && !r.is_truthy() {
                    Value::Bool(false)
                } else {
                    Value::Null
                }
            }
        });
    }
    if op == BinOp::Or {
        let l = left.eval(row)?;
        if !l.is_null() && l.is_truthy() {
            return Ok(Value::Bool(true));
        }
        let r = right.eval(row)?;
        return Ok(match (l.is_null(), r.is_null()) {
            (false, false) => Value::Bool(l.is_truthy() || r.is_truthy()),
            _ => {
                if !r.is_null() && r.is_truthy() {
                    Value::Bool(true)
                } else {
                    Value::Null
                }
            }
        });
    }

    let l = left.eval(row)?;
    let r = right.eval(row)?;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => arith(op, &l, &r),
        BinOp::Eq => Ok(l.sql_eq(&r).map(Value::Bool).unwrap_or(Value::Null)),
        BinOp::Ne => Ok(l.sql_eq(&r).map(|b| Value::Bool(!b)).unwrap_or(Value::Null)),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let Some(ord) = l.sql_cmp(&r) else {
                return Ok(Value::Null);
            };
            use std::cmp::Ordering::*;
            let b = match op {
                BinOp::Lt => ord == Less,
                BinOp::Le => ord != Greater,
                BinOp::Gt => ord == Greater,
                BinOp::Ge => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> Result<Value, SqlError> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic when both sides are integers (except division by
    // zero, which is NULL as in SQLite); otherwise float.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        // Checked, never wrapped: i64 overflow is a typed error so single-node
        // and distributed execution agree instead of one path silently
        // returning a wrapped value. `/` and `%` also catch `i64::MIN / -1`.
        let overflow = || SqlError::Overflow(format!("{a} {} {b}", op.symbol()));
        return Ok(match op {
            BinOp::Add => Value::Int(a.checked_add(*b).ok_or_else(overflow)?),
            BinOp::Sub => Value::Int(a.checked_sub(*b).ok_or_else(overflow)?),
            BinOp::Mul => Value::Int(a.checked_mul(*b).ok_or_else(overflow)?),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.checked_div(*b).ok_or_else(overflow)?)
                }
            }
            BinOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.checked_rem(*b).ok_or_else(overflow)?)
                }
            }
            _ => unreachable!(),
        });
    }
    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
        return Err(SqlError::Type(format!(
            "arithmetic on non-numeric values {l} and {r}"
        )));
    };
    Ok(match op {
        BinOp::Add => Value::Float(a + b),
        BinOp::Sub => Value::Float(a - b),
        BinOp::Mul => Value::Float(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        BinOp::Mod => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a % b)
            }
        }
        _ => unreachable!(),
    })
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column(name) | Expr::ColumnIdx { name, .. } => write!(f, "{name}"),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "NOT ({expr})"),
                UnaryOp::Neg => write!(f, "-({expr})"),
            },
            Expr::Binary { op, left, right } => write!(f, "({left} {} {right})", op.symbol()),
            Expr::Function { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Mint { template, key } => {
                write!(f, "iri_template('{}', {key})", template.pattern())
            }
            Expr::Aggregate { func, args } => {
                write!(f, "{func}(")?;
                if args.is_empty() {
                    write!(f, "*")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, a) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "))")
            }
            Expr::InSet { expr, set } => {
                // Render as a plain sorted IN list so the text stays valid,
                // deterministic SQL.
                let mut values: Vec<&Value> = set.iter().collect();
                values.sort();
                write!(f, "({expr} IN (")?;
                for (i, v) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", Expr::Literal((*v).clone()))?;
                }
                write!(f, "))")
            }
            Expr::Between { expr, low, high } => write!(f, "({expr} BETWEEN {low} AND {high})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::qualified(
            "m",
            vec![
                Column::new("sensor_id", ColumnType::Int),
                Column::new("value", ColumnType::Float),
            ],
        )
    }

    fn row() -> Vec<Value> {
        vec![Value::Int(7), Value::Float(81.5)]
    }

    #[test]
    fn bind_then_eval() {
        let e = Expr::binary(BinOp::Gt, Expr::col("value"), Expr::lit(80.0));
        let bound = e.bind(&schema()).unwrap();
        assert_eq!(bound.eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unbound_column_fails_at_eval() {
        let e = Expr::col("value");
        assert!(matches!(e.eval(&row()), Err(SqlError::Binding(_))));
    }

    #[test]
    fn qualified_binding() {
        let e = Expr::col("m.sensor_id").bind(&schema()).unwrap();
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(7));
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let e = Expr::binary(BinOp::Add, Expr::lit(2i64), Expr::lit(3i64));
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(5));
        let d = Expr::binary(BinOp::Div, Expr::lit(7i64), Expr::lit(2i64));
        assert_eq!(d.eval(&[]).unwrap(), Value::Int(3));
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = Expr::binary(BinOp::Div, Expr::lit(1i64), Expr::lit(0i64));
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
        let f = Expr::binary(BinOp::Div, Expr::lit(1.0), Expr::lit(0.0));
        assert_eq!(f.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn overflow_is_a_typed_error() {
        for op in [BinOp::Add, BinOp::Mul] {
            let e = Expr::binary(op, Expr::lit(i64::MAX), Expr::lit(2i64));
            assert!(matches!(e.eval(&[]), Err(SqlError::Overflow(_))));
        }
        let e = Expr::binary(BinOp::Sub, Expr::lit(i64::MIN), Expr::lit(1i64));
        assert!(matches!(e.eval(&[]), Err(SqlError::Overflow(_))));
        let e = Expr::binary(BinOp::Div, Expr::lit(i64::MIN), Expr::lit(-1i64));
        assert!(matches!(e.eval(&[]), Err(SqlError::Overflow(_))));
    }

    /// Regression for the front-removal fold: a long conjunction must build
    /// linearly and evaluate left-to-right. (The old `remove(0)` shifted the
    /// whole tail per unfolded disjunct's condition list.) Depth is bounded
    /// by eval/Drop recursion on the left-deep tree, not by build cost.
    #[test]
    fn and_all_folds_long_chains_in_order() {
        let n = 300;
        let mut terms: Vec<Expr> = std::iter::repeat_n(Expr::lit(true), n).collect();
        terms.push(Expr::lit(false));
        let folded = Expr::and_all(terms).unwrap();
        assert_eq!(folded.eval(&[]).unwrap(), Value::Bool(false));
        assert!(Expr::and_all(Vec::new()).is_none());
        // A single term folds to itself, no wrapping AND node.
        assert_eq!(
            Expr::and_all(vec![Expr::lit(7i64)]).unwrap(),
            Expr::lit(7i64)
        );
    }

    #[test]
    fn three_valued_and() {
        let null = Expr::lit(Value::Null);
        let t = Expr::lit(true);
        let fa = Expr::lit(false);
        assert_eq!(
            Expr::binary(BinOp::And, null.clone(), fa.clone())
                .eval(&[])
                .unwrap(),
            Value::Bool(false),
            "NULL AND FALSE = FALSE"
        );
        assert_eq!(
            Expr::binary(BinOp::And, null.clone(), t.clone())
                .eval(&[])
                .unwrap(),
            Value::Null,
            "NULL AND TRUE = NULL"
        );
        assert_eq!(
            Expr::binary(BinOp::Or, null.clone(), t).eval(&[]).unwrap(),
            Value::Bool(true),
            "NULL OR TRUE = TRUE"
        );
        assert_eq!(
            Expr::binary(BinOp::Or, null.clone(), fa).eval(&[]).unwrap(),
            Value::Null,
            "NULL OR FALSE = NULL"
        );
    }

    #[test]
    fn comparisons_propagate_null() {
        let e = Expr::binary(BinOp::Lt, Expr::lit(Value::Null), Expr::lit(1i64));
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn is_null_forms() {
        let e = Expr::IsNull {
            expr: Box::new(Expr::lit(Value::Null)),
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
        let e = Expr::IsNull {
            expr: Box::new(Expr::lit(1i64)),
            negated: true,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_semantics() {
        let e = Expr::InList {
            expr: Box::new(Expr::lit(2i64)),
            list: vec![Expr::lit(1i64), Expr::lit(2i64)],
            negated: false,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
        // 3 NOT IN (1, NULL) → NULL (unknown membership).
        let e = Expr::InList {
            expr: Box::new(Expr::lit(3i64)),
            list: vec![Expr::lit(1i64), Expr::lit(Value::Null)],
            negated: true,
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Null);
    }

    #[test]
    fn between_inclusive() {
        let e = Expr::Between {
            expr: Box::new(Expr::lit(10i64)),
            low: Box::new(Expr::lit(10i64)),
            high: Box::new(Expr::lit(20i64)),
        };
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::col("value"),
            Expr::binary(BinOp::Mul, Expr::col("value"), Expr::col("sensor_id")),
        )
        .bind(&schema())
        .unwrap();
        assert_eq!(e.referenced_columns(), vec![0, 1]);
    }

    #[test]
    fn display_roundtrippable_shape() {
        let e = Expr::binary(BinOp::Gt, Expr::col("value"), Expr::lit(80.0));
        assert_eq!(e.to_string(), "(value > 80)");
    }

    #[test]
    fn aggregate_outside_group_context_errors() {
        let e = Expr::Aggregate {
            func: AggFunc::Count,
            args: vec![],
        };
        assert!(matches!(e.eval(&[]), Err(SqlError::Execution(_))));
    }
}
