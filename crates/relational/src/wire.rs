//! The text codec for [`PlanFragment`]s and [`ResultBatch`]es — an adapter
//! at the edge, not the interchange.
//!
//! Inside the process a fragment crosses the worker boundary as an
//! `Arc<PlanFragment>` and its result comes back as a `Table` by move (see
//! [`crate::fragment`]); nothing on the request path calls into this
//! module. The codec is what a remote worker, a capture file or a
//! differential test would speak: `decode(encode(x))` reproduces `x`, and
//! `decode` answers hostile input with `Err`, never a panic.
//!
//! The format is line-oriented: a header line, then one line per section
//! (fragments) or per column (batches), with `\`-escaping for newlines,
//! carriage returns, tabs and backslashes inside text values. Text cells and
//! all-text semi-join lists travel as [`crate::dict::TermDict`] ids, so a
//! wire is only meaningful to a peer sharing that dictionary.

use std::fmt::Write as _;

use crate::error::SqlError;
use crate::fragment::{
    ColumnData, PartitionSpec, PlanFragment, ResultBatch, SemiJoin, WindowSlice,
};
use crate::panes::PaneProbe;
use crate::schema::ColumnType;
use crate::value::Value;

impl PlanFragment {
    /// Encodes the fragment for the wire: the header line, an optional
    /// partition-metadata line, an optional window-slice line, then one
    /// line per semi-join restriction.
    pub fn encode(&self) -> String {
        let mut out = format!("frag\t{}\t{}\t{}", self.id, self.cost, escape(&self.sql()));
        if self.novelty_epoch != 0 {
            let _ = write!(out, "\nnov\t{}", self.novelty_epoch);
        }
        if let Some(win) = &self.window {
            let _ = write!(
                out,
                "\nwin\t{}\t{}\t{}",
                escape(&win.column),
                win.open_ms,
                win.close_ms
            );
        }
        if let Some(pane) = &self.pane {
            let _ = write!(
                out,
                "\npane\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                escape(&pane.stream),
                escape(&pane.ts_col),
                escape(&pane.key_col),
                escape(&pane.val_col),
                pane.width_ms,
                pane.start_ms,
                pane.open_ms,
                pane.close_ms,
                u8::from(pane.needs_extrema),
            );
        }
        if let Some(part) = &self.partition {
            let _ = write!(out, "\npart\t{}", part.column_type);
            for (table, column) in &part.tables {
                let _ = write!(out, "\t{}\t{}", escape(table), escape(column));
            }
        }
        for semi in &self.semi_joins {
            // An all-text restriction (the common case: key-derived IRI
            // lists) ships as a sorted dictionary-id slice — a fraction of
            // the lexical `IN`-list's bytes. Anything else keeps the
            // tagged value encoding.
            if let Some(ids) = semi.id_slice() {
                let _ = write!(out, "\nsemid\t{}", escape(&semi.column));
                for id in ids {
                    let _ = write!(out, "\t{id}");
                }
            } else {
                let _ = write!(out, "\nsemi\t{}", escape(&semi.column));
                for value in &semi.values {
                    let _ = write!(out, "\t{}", encode_value(value));
                }
            }
        }
        out
    }

    /// Decodes a fragment off the wire.
    pub fn decode(wire: &str) -> Result<Self, SqlError> {
        let mut lines = wire.lines();
        let header = lines
            .next()
            .ok_or_else(|| SqlError::Execution("empty plan fragment".into()))?;
        let mut parts = header.splitn(4, '\t');
        let tag = parts.next().unwrap_or_default();
        if tag != "frag" {
            return Err(SqlError::Execution(format!(
                "not a plan fragment: tag {tag:?}"
            )));
        }
        let id = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SqlError::Execution("fragment id missing".into()))?;
        let cost = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SqlError::Execution("fragment cost missing".into()))?;
        let sql = unescape(
            parts
                .next()
                .ok_or_else(|| SqlError::Execution("fragment SQL missing".into()))?,
        )?;
        let mut semi_joins = Vec::new();
        let mut partition = None;
        let mut window = None;
        let mut pane = None;
        let mut novelty_epoch = 0;
        for line in lines {
            let mut fields = line.split('\t');
            match fields.next() {
                Some("nov") => {
                    novelty_epoch = fields
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| SqlError::Execution("bad novelty epoch".into()))?;
                }
                Some("win") => {
                    let mut field = || {
                        fields
                            .next()
                            .ok_or_else(|| SqlError::Execution("window field missing".into()))
                    };
                    let column = unescape(field()?)?;
                    let parse = |s: &str| {
                        s.parse::<i64>()
                            .map_err(|_| SqlError::Execution(format!("bad window bound {s:?}")))
                    };
                    let open_ms = parse(field()?)?;
                    let close_ms = parse(field()?)?;
                    window = Some(WindowSlice {
                        column,
                        open_ms,
                        close_ms,
                    });
                }
                Some("semi") => {
                    let column =
                        unescape(fields.next().ok_or_else(|| {
                            SqlError::Execution("semi-join column missing".into())
                        })?)?;
                    let values: Vec<Value> = fields.map(decode_value).collect::<Result<_, _>>()?;
                    semi_joins.push(SemiJoin::new(column, values));
                }
                Some("semid") => {
                    let column =
                        unescape(fields.next().ok_or_else(|| {
                            SqlError::Execution("semi-join column missing".into())
                        })?)?;
                    let dict = crate::dict::TermDict::global();
                    let values: Vec<Value> = fields
                        .map(|c| {
                            let id: u64 = c.parse().map_err(|_| {
                                SqlError::Execution(format!("bad semi-join term id {c:?}"))
                            })?;
                            dict.resolve(id).map(Value::Text).ok_or_else(|| {
                                SqlError::Execution(format!("unknown semi-join term id {id}"))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    semi_joins.push(SemiJoin::new(column, values));
                }
                Some("pane") => {
                    let mut field = || {
                        fields
                            .next()
                            .ok_or_else(|| SqlError::Execution("pane field missing".into()))
                    };
                    let stream = unescape(field()?)?;
                    let ts_col = unescape(field()?)?;
                    let key_col = unescape(field()?)?;
                    let val_col = unescape(field()?)?;
                    let parse = |s: &str| {
                        s.parse::<i64>()
                            .map_err(|_| SqlError::Execution(format!("bad pane bound {s:?}")))
                    };
                    let width_ms = parse(field()?)?;
                    let start_ms = parse(field()?)?;
                    let open_ms = parse(field()?)?;
                    let close_ms = parse(field()?)?;
                    let needs_extrema = field()? == "1";
                    pane = Some(PaneProbe {
                        stream,
                        ts_col,
                        key_col,
                        val_col,
                        width_ms,
                        start_ms,
                        open_ms,
                        close_ms,
                        needs_extrema,
                    });
                }
                Some("part") => {
                    let missing = || SqlError::Execution("partition field missing".into());
                    let column_type = decode_type(fields.next().ok_or_else(missing)?)?;
                    let mut tables = Vec::new();
                    while let Some(table) = fields.next() {
                        let column = fields.next().ok_or_else(missing)?;
                        tables.push((unescape(table)?, unescape(column)?));
                    }
                    partition = Some(PartitionSpec {
                        tables,
                        column_type,
                    });
                }
                _ => {
                    return Err(SqlError::Execution(format!(
                        "bad fragment section {line:?}"
                    )))
                }
            }
        }
        let mut fragment = PlanFragment::new(id, sql, cost);
        fragment.semi_joins = semi_joins;
        fragment.partition = partition;
        fragment.window = window;
        fragment.pane = pane;
        fragment.novelty_epoch = novelty_epoch;
        Ok(fragment)
    }
}

impl ResultBatch {
    /// Encodes the batch for the wire: a header line (row count + column
    /// signature), then **one line per column** — a representation tag and
    /// the column's packed cells. NULLs in primitive columns are empty
    /// fields; text cells are bare dictionary ids (0 = NULL).
    pub fn encode(&self) -> String {
        let mut out = format!("cbatch\t{}", self.len());
        for (name, ty) in &self.columns {
            let _ = write!(out, "\t{}:{ty}", escape(name));
        }
        out.push('\n');
        for col in &self.data {
            match col {
                ColumnData::Int(v) => {
                    out.push('i');
                    for c in v {
                        out.push('\t');
                        if let Some(i) = c {
                            let _ = write!(out, "{i}");
                        }
                    }
                }
                ColumnData::Float(v) => {
                    out.push('f');
                    for c in v {
                        out.push('\t');
                        if let Some(f) = c {
                            // `{:?}` keeps full f64 precision (shortest
                            // round-trippable form).
                            let _ = write!(out, "{f:?}");
                        }
                    }
                }
                ColumnData::Bool(v) => {
                    out.push('b');
                    for c in v {
                        out.push('\t');
                        if let Some(b) = c {
                            out.push(if *b { '1' } else { '0' });
                        }
                    }
                }
                ColumnData::Timestamp(v) => {
                    out.push('s');
                    for c in v {
                        out.push('\t');
                        if let Some(t) = c {
                            let _ = write!(out, "{t}");
                        }
                    }
                }
                ColumnData::Text(ids) => {
                    out.push('d');
                    for id in ids {
                        let _ = write!(out, "\t{id}");
                    }
                }
                ColumnData::Any(v) => {
                    out.push('a');
                    for value in v {
                        let _ = write!(out, "\t{}", encode_value(value));
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Decodes a `cbatch` batch off the wire.
    pub fn decode(wire: &str) -> Result<Self, SqlError> {
        let mut lines = wire.lines();
        let header = lines
            .next()
            .ok_or_else(|| SqlError::Execution("empty result batch".into()))?;
        let mut fields = header.split('\t');
        if fields.next() != Some("cbatch") {
            return Err(SqlError::Execution("not a result batch".into()));
        }
        let rows: usize = fields
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| SqlError::Execution("batch row count missing".into()))?;
        let mut columns = Vec::new();
        for field in fields {
            let (name, ty) = field
                .rsplit_once(':')
                .ok_or_else(|| SqlError::Execution(format!("bad column field {field:?}")))?;
            columns.push((unescape(name)?, decode_type(ty)?));
        }
        let mut data = Vec::with_capacity(columns.len());
        for line in lines {
            let bad = |what: &str| SqlError::Execution(format!("bad {what} in column line"));
            let mut cells = line.split('\t');
            let tag = cells.next().unwrap_or_default();
            let col = match tag {
                "i" => ColumnData::Int(
                    cells
                        .map(|c| {
                            if c.is_empty() {
                                Ok(None)
                            } else {
                                c.parse().map(Some).map_err(|_| bad("int"))
                            }
                        })
                        .collect::<Result<_, _>>()?,
                ),
                "f" => ColumnData::Float(
                    cells
                        .map(|c| {
                            if c.is_empty() {
                                Ok(None)
                            } else {
                                c.parse().map(Some).map_err(|_| bad("float"))
                            }
                        })
                        .collect::<Result<_, _>>()?,
                ),
                "b" => ColumnData::Bool(
                    cells
                        .map(|c| match c {
                            "" => Ok(None),
                            "1" => Ok(Some(true)),
                            "0" => Ok(Some(false)),
                            _ => Err(bad("bool")),
                        })
                        .collect::<Result<_, _>>()?,
                ),
                "s" => ColumnData::Timestamp(
                    cells
                        .map(|c| {
                            if c.is_empty() {
                                Ok(None)
                            } else {
                                c.parse().map(Some).map_err(|_| bad("timestamp"))
                            }
                        })
                        .collect::<Result<_, _>>()?,
                ),
                "d" => ColumnData::Text(
                    cells
                        .map(|c| c.parse().map_err(|_| bad("term id")))
                        .collect::<Result<_, _>>()?,
                ),
                "a" => ColumnData::Any(cells.map(decode_value).collect::<Result<_, _>>()?),
                other => {
                    return Err(SqlError::Execution(format!(
                        "unknown column representation {other:?}"
                    )))
                }
            };
            if col.len() != rows {
                return Err(SqlError::Execution(format!(
                    "column length {} does not match batch row count {rows}",
                    col.len()
                )));
            }
            data.push(col);
        }
        if data.len() != columns.len() {
            return Err(SqlError::Execution(format!(
                "batch has {} column lines for {} columns",
                data.len(),
                columns.len()
            )));
        }
        Ok(ResultBatch { columns, data })
    }
}

fn decode_type(ty: &str) -> Result<ColumnType, SqlError> {
    Ok(match ty {
        "INT" => ColumnType::Int,
        "FLOAT" => ColumnType::Float,
        "TEXT" => ColumnType::Text,
        "BOOL" => ColumnType::Bool,
        "TIMESTAMP" => ColumnType::Timestamp,
        "ANY" => ColumnType::Any,
        other => {
            return Err(SqlError::Execution(format!(
                "unknown column type {other:?}"
            )))
        }
    })
}

fn encode_value(v: &Value) -> String {
    match v {
        Value::Null => "n".to_string(),
        Value::Int(i) => format!("i{i}"),
        // `{:?}` keeps full f64 precision (shortest round-trippable form).
        Value::Float(f) => format!("f{f:?}"),
        Value::Text(s) => format!("t{}", escape(s)),
        Value::Bool(b) => format!("b{}", u8::from(*b)),
        Value::Timestamp(t) => format!("s{t}"),
    }
}

fn decode_value(cell: &str) -> Result<Value, SqlError> {
    let bad = || SqlError::Execution(format!("bad wire value {cell:?}"));
    let rest = cell.get(1..).ok_or_else(bad)?;
    Ok(match cell.as_bytes()[0] {
        b'n' => Value::Null,
        b'i' => Value::Int(rest.parse().map_err(|_| bad())?),
        b'f' => Value::Float(rest.parse().map_err(|_| bad())?),
        b't' => Value::text(unescape(rest)?),
        b'b' => Value::Bool(rest == "1"),
        b's' => Value::Timestamp(rest.parse().map_err(|_| bad())?),
        _ => return Err(bad()),
    })
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            // `decode` splits the wire with `lines()`, which consumes a
            // `\r` before each `\n`; a literal one must not look like that.
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

fn unescape(s: &str) -> Result<String, SqlError> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => {
                return Err(SqlError::Execution(format!(
                    "bad escape \\{} on the wire",
                    other.map(String::from).unwrap_or_default()
                )))
            }
        }
    }
    Ok(out)
}
