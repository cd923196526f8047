//! Scalar and aggregate function registry.
//!
//! The aggregate set includes `CORR` (sample Pearson correlation) and
//! `STDDEV` because the Siemens diagnostic catalog leans on them: "an example
//! diagnostic task is to calculate the Pearson correlation coefficient
//! between turbine stream data".

use std::borrow::Cow;
use std::fmt;

use crate::error::SqlError;
use crate::value::Value;

/// Calls a scalar function by (case-insensitive) name.
pub fn call_scalar(name: &str, args: &[Value]) -> Result<Value, SqlError> {
    // Called once per row: the parser and the unfolder store names
    // lowercase, so only a hand-built mixed-case name pays a copy.
    let lower: Cow<'_, str> = if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    };
    match lower.as_ref() {
        "abs" => one_numeric(&lower, args)
            .map(|x| x.map(|v| Value::Float(v.abs())).unwrap_or(Value::Null)),
        "sqrt" => one_numeric(&lower, args)
            .map(|x| x.map(|v| Value::Float(v.sqrt())).unwrap_or(Value::Null)),
        "floor" => one_numeric(&lower, args).map(|x| {
            x.map(|v| Value::Int(v.floor() as i64))
                .unwrap_or(Value::Null)
        }),
        "ceil" => one_numeric(&lower, args).map(|x| {
            x.map(|v| Value::Int(v.ceil() as i64))
                .unwrap_or(Value::Null)
        }),
        "round" => one_numeric(&lower, args)
            .map(|x| x.map(|v| Value::Float(v.round())).unwrap_or(Value::Null)),
        "lower" => one_text(&lower, args).map(|x| {
            x.map(|s| Value::text(s.to_ascii_lowercase()))
                .unwrap_or(Value::Null)
        }),
        "upper" => one_text(&lower, args).map(|x| {
            x.map(|s| Value::text(s.to_ascii_uppercase()))
                .unwrap_or(Value::Null)
        }),
        "length" => one_text(&lower, args).map(|x| {
            x.map(|s| Value::Int(s.chars().count() as i64))
                .unwrap_or(Value::Null)
        }),
        "coalesce" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        "nullif" => {
            expect_arity(&lower, args, 2)?;
            match args[0].sql_eq(&args[1]) {
                Some(true) => Ok(Value::Null),
                _ => Ok(args[0].clone()),
            }
        }
        "concat" => {
            let mut out = String::new();
            for a in args {
                match a {
                    Value::Null => {}
                    Value::Text(s) => out.push_str(s),
                    other => out.push_str(&other.to_string()),
                }
            }
            Ok(Value::text(out))
        }
        other => Err(SqlError::Binding(format!(
            "unknown scalar function {other}"
        ))),
    }
}

fn expect_arity(name: &str, args: &[Value], n: usize) -> Result<(), SqlError> {
    if args.len() != n {
        return Err(SqlError::Type(format!(
            "{name} expects {n} arguments, got {}",
            args.len()
        )));
    }
    Ok(())
}

fn one_numeric(name: &str, args: &[Value]) -> Result<Option<f64>, SqlError> {
    expect_arity(name, args, 1)?;
    if args[0].is_null() {
        return Ok(None);
    }
    args[0]
        .as_f64()
        .map(Some)
        .ok_or_else(|| SqlError::Type(format!("{name} expects a numeric argument")))
}

fn one_text<'a>(name: &str, args: &'a [Value]) -> Result<Option<&'a str>, SqlError> {
    expect_arity(name, args, 1)?;
    if args[0].is_null() {
        return Ok(None);
    }
    args[0]
        .as_str()
        .map(Some)
        .ok_or_else(|| SqlError::Type(format!("{name} expects a text argument")))
}

/// Aggregate functions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)` (non-NULL count).
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// Sample standard deviation.
    StdDev,
    /// Sample Pearson correlation of two expressions.
    Corr,
}

impl AggFunc {
    /// Parses a (case-insensitive) aggregate name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "stddev" => AggFunc::StdDev,
            "corr" => AggFunc::Corr,
            _ => return None,
        })
    }

    /// Expected argument count (`None` = COUNT may take 0 for `*`).
    pub fn arity(self) -> usize {
        match self {
            AggFunc::Corr => 2,
            AggFunc::Count => 0, // 0 or 1; checked leniently at bind time
            _ => 1,
        }
    }

    /// Fresh accumulator.
    pub fn new_state(self) -> AggState {
        match self {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                total: 0.0,
                all_int: true,
                int_total: 0,
                seen: false,
            },
            AggFunc::Avg => AggState::Avg { total: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::StdDev => AggState::Moments {
                n: 0,
                mean: 0.0,
                m2: 0.0,
            },
            AggFunc::Corr => AggState::Corr(CorrState::default()),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::StdDev => "STDDEV",
            AggFunc::Corr => "CORR",
        };
        f.write_str(s)
    }
}

/// Welford-style running state for `CORR`.
#[derive(Clone, Debug, Default)]
pub struct CorrState {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    m2_x: f64,
    m2_y: f64,
    cov: f64,
}

impl CorrState {
    fn update(&mut self, x: f64, y: f64) {
        self.n += 1;
        let n = self.n as f64;
        let dx = x - self.mean_x;
        self.mean_x += dx / n;
        let dy = y - self.mean_y;
        self.mean_y += dy / n;
        // Uses the updated mean for x (dx2) — standard two-pass-free update.
        let dx2 = x - self.mean_x;
        self.m2_x += dx * dx2;
        self.m2_y += dy * (y - self.mean_y);
        self.cov += dx * (y - self.mean_y);
    }

    fn finish(&self) -> Value {
        if self.n < 2 {
            return Value::Null;
        }
        let denom = (self.m2_x * self.m2_y).sqrt();
        if denom == 0.0 {
            return Value::Null;
        }
        Value::Float(self.cov / denom)
    }
}

/// A running aggregate accumulator.
#[derive(Clone, Debug)]
pub enum AggState {
    /// COUNT.
    Count(u64),
    /// SUM with integer preservation.
    Sum {
        /// Float total (always maintained).
        total: f64,
        /// Whether every input so far was an integer.
        all_int: bool,
        /// Integer total (valid while `all_int`).
        int_total: i64,
        /// Whether any non-NULL input arrived.
        seen: bool,
    },
    /// AVG.
    Avg {
        /// Sum of inputs.
        total: f64,
        /// Count of non-NULL inputs.
        n: u64,
    },
    /// MIN.
    Min(Option<Value>),
    /// MAX.
    Max(Option<Value>),
    /// Welford moments for STDDEV.
    Moments {
        /// Count.
        n: u64,
        /// Running mean.
        mean: f64,
        /// Sum of squared deviations.
        m2: f64,
    },
    /// CORR.
    Corr(CorrState),
}

impl AggState {
    /// Feeds one row's argument values (already evaluated).
    pub fn update(&mut self, args: &[Value]) -> Result<(), SqlError> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) has no args; COUNT(e) skips NULL.
                if args.is_empty() || !args[0].is_null() {
                    *n += 1;
                }
            }
            AggState::Sum {
                total,
                all_int,
                int_total,
                seen,
            } => {
                let v = arg0(args)?;
                if v.is_null() {
                    return Ok(());
                }
                *seen = true;
                match v {
                    Value::Int(i) => {
                        *total += *i as f64;
                        if *all_int {
                            // Checked: an integer SUM that leaves i64 is a
                            // typed overflow error, not a silent wrap — the
                            // float shadow total would otherwise mask it with
                            // a rounded result on one execution path only.
                            *int_total = int_total.checked_add(*i).ok_or_else(|| {
                                SqlError::Overflow(format!("SUM accumulator + {i}"))
                            })?;
                        }
                    }
                    other => {
                        let f = other.as_f64().ok_or_else(|| {
                            SqlError::Type(format!("SUM over non-numeric {other}"))
                        })?;
                        *all_int = false;
                        *total += f;
                    }
                }
            }
            AggState::Avg { total, n } => {
                let v = arg0(args)?;
                if v.is_null() {
                    return Ok(());
                }
                let f = v
                    .as_f64()
                    .ok_or_else(|| SqlError::Type(format!("AVG over non-numeric {v}")))?;
                *total += f;
                *n += 1;
            }
            AggState::Min(slot) => {
                let v = arg0(args)?;
                if v.is_null() {
                    return Ok(());
                }
                if slot
                    .as_ref()
                    .map(|m| v.total_cmp(m).is_lt())
                    .unwrap_or(true)
                {
                    *slot = Some(v.clone());
                }
            }
            AggState::Max(slot) => {
                let v = arg0(args)?;
                if v.is_null() {
                    return Ok(());
                }
                if slot
                    .as_ref()
                    .map(|m| v.total_cmp(m).is_gt())
                    .unwrap_or(true)
                {
                    *slot = Some(v.clone());
                }
            }
            AggState::Moments { n, mean, m2 } => {
                let v = arg0(args)?;
                if v.is_null() {
                    return Ok(());
                }
                let x = v
                    .as_f64()
                    .ok_or_else(|| SqlError::Type(format!("STDDEV over non-numeric {v}")))?;
                *n += 1;
                let delta = x - *mean;
                *mean += delta / *n as f64;
                *m2 += delta * (x - *mean);
            }
            AggState::Corr(state) => {
                if args.len() != 2 {
                    return Err(SqlError::Type("CORR expects two arguments".into()));
                }
                if args[0].is_null() || args[1].is_null() {
                    return Ok(());
                }
                let (Some(x), Some(y)) = (args[0].as_f64(), args[1].as_f64()) else {
                    return Err(SqlError::Type("CORR over non-numeric values".into()));
                };
                state.update(x, y);
            }
        }
        Ok(())
    }

    /// Produces the aggregate result.
    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n as i64),
            AggState::Sum {
                total,
                all_int,
                int_total,
                seen,
            } => {
                if !*seen {
                    Value::Null
                } else if *all_int {
                    Value::Int(*int_total)
                } else {
                    Value::Float(*total)
                }
            }
            AggState::Avg { total, n } => {
                if *n == 0 {
                    Value::Null
                } else {
                    Value::Float(*total / *n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
            AggState::Moments { n, m2, .. } => {
                if *n < 2 {
                    Value::Null
                } else {
                    Value::Float((m2 / (*n as f64 - 1.0)).sqrt())
                }
            }
            AggState::Corr(state) => state.finish(),
        }
    }
}

fn arg0(args: &[Value]) -> Result<&Value, SqlError> {
    args.first()
        .ok_or_else(|| SqlError::Type("aggregate expects an argument".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_basics() {
        assert_eq!(
            call_scalar("ABS", &[Value::Float(-2.5)]).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            call_scalar("lower", &[Value::text("AbC")]).unwrap(),
            Value::text("abc")
        );
        assert_eq!(
            call_scalar("length", &[Value::text("abc")]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            call_scalar("coalesce", &[Value::Null, Value::Int(3)]).unwrap(),
            Value::Int(3)
        );
        assert!(call_scalar("no_such_fn", &[]).is_err());
    }

    #[test]
    fn scalar_names_are_case_insensitive() {
        for name in ["UPPER", "Upper", "upper"] {
            assert_eq!(
                call_scalar(name, &[Value::text("ab")]).unwrap(),
                Value::text("AB"),
                "{name}"
            );
        }
        let err = call_scalar("No_Such_Fn", &[]).unwrap_err();
        assert!(err.to_string().contains("no_such_fn"), "{err}");
    }

    #[test]
    fn scalar_null_propagation() {
        assert_eq!(call_scalar("abs", &[Value::Null]).unwrap(), Value::Null);
        assert_eq!(call_scalar("upper", &[Value::Null]).unwrap(), Value::Null);
    }

    /// Minting is the typed `Expr::Mint` node the parser builds, not a
    /// scalar looked up by name per row.
    #[test]
    fn iri_template_renders() {
        let mint =
            crate::parse_select("SELECT iri_template('http://x/turbine/{}', 42) AS i FROM t")
                .unwrap()
                .projections
                .remove(0);
        let crate::parser::Projection::Expr { expr, .. } = mint else {
            panic!("an expression projection")
        };
        assert!(matches!(expr, crate::Expr::Mint { .. }), "{expr:?}");
        assert_eq!(expr.eval(&[]).unwrap(), Value::text("http://x/turbine/42"));
        let err = call_scalar("iri_template", &[Value::text("t/{}"), Value::Null]).unwrap_err();
        assert!(err.to_string().contains("unknown scalar function"), "{err}");
    }

    #[test]
    fn nullif_behaviour() {
        assert_eq!(
            call_scalar("nullif", &[Value::Int(1), Value::Int(1)]).unwrap(),
            Value::Null
        );
        assert_eq!(
            call_scalar("nullif", &[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Int(1)
        );
    }

    fn run(func: AggFunc, rows: &[Vec<Value>]) -> Value {
        let mut st = func.new_state();
        for r in rows {
            st.update(r).unwrap();
        }
        st.finish()
    }

    #[test]
    fn count_skips_nulls_with_arg() {
        let v = run(
            AggFunc::Count,
            &[vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(2)]],
        );
        assert_eq!(v, Value::Int(2));
        let star = run(AggFunc::Count, &[vec![], vec![], vec![]]);
        assert_eq!(star, Value::Int(3));
    }

    #[test]
    fn sum_preserves_integerness() {
        let v = run(AggFunc::Sum, &[vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert_eq!(v, Value::Int(3));
        let v = run(
            AggFunc::Sum,
            &[vec![Value::Int(1)], vec![Value::Float(0.5)]],
        );
        assert_eq!(v, Value::Float(1.5));
        let v = run(AggFunc::Sum, &[vec![Value::Null]]);
        assert_eq!(v, Value::Null);
    }

    #[test]
    fn avg_min_max() {
        assert_eq!(
            run(AggFunc::Avg, &[vec![Value::Int(1)], vec![Value::Int(3)]]),
            Value::Float(2.0)
        );
        assert_eq!(
            run(AggFunc::Min, &[vec![Value::Int(5)], vec![Value::Int(2)]]),
            Value::Int(2)
        );
        assert_eq!(
            run(AggFunc::Max, &[vec![Value::Int(5)], vec![Value::Int(2)]]),
            Value::Int(5)
        );
        assert_eq!(run(AggFunc::Min, &[vec![Value::Null]]), Value::Null);
    }

    #[test]
    fn stddev_sample() {
        let rows: Vec<Vec<Value>> = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .map(|&x| vec![Value::Float(x)])
            .collect();
        let Value::Float(sd) = run(AggFunc::StdDev, &rows) else {
            panic!()
        };
        assert!((sd - 2.138_089_935).abs() < 1e-6);
    }

    #[test]
    fn corr_perfect_and_inverse() {
        let pos: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Float(i as f64), Value::Float(2.0 * i as f64 + 1.0)])
            .collect();
        let Value::Float(r) = run(AggFunc::Corr, &pos) else {
            panic!()
        };
        assert!((r - 1.0).abs() < 1e-9);
        let neg: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Float(i as f64), Value::Float(-(i as f64))])
            .collect();
        let Value::Float(r) = run(AggFunc::Corr, &neg) else {
            panic!()
        };
        assert!((r + 1.0).abs() < 1e-9);
    }

    #[test]
    fn corr_degenerate_is_null() {
        assert_eq!(
            run(AggFunc::Corr, &[vec![Value::Float(1.0), Value::Float(2.0)]]),
            Value::Null
        );
        let flat: Vec<Vec<Value>> = (0..5)
            .map(|i| vec![Value::Float(1.0), Value::Float(i as f64)])
            .collect();
        assert_eq!(run(AggFunc::Corr, &flat), Value::Null, "zero variance in x");
    }

    #[test]
    fn agg_name_parsing() {
        assert_eq!(AggFunc::from_name("Corr"), Some(AggFunc::Corr));
        assert_eq!(AggFunc::from_name("nope"), None);
    }
}
