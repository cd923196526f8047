//! The IRI-template codec: how a key value becomes an IRI and back.
//!
//! A pattern is an IRI with one `{}` slot (`http://x/turbine/{}`). The
//! `iri_template` SQL scalar, the mapping layer's `IriTemplate`, shard
//! routing's restriction inversion, the optimizer's pushdown through an
//! `iri_template` projection and the STARQL engine's stream-key
//! restriction all go through these three functions, so a rendered IRI
//! always inverts to the key that minted it — and to nothing else.

use std::borrow::Cow;

use crate::schema::ColumnType;
use crate::value::Value;

/// What `value` writes into the slot: text verbatim, everything else as
/// `Display` writes it (so a timestamp is `@t`).
fn spelled(value: &Value) -> Cow<'_, str> {
    match value {
        Value::Text(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_string()),
    }
}

/// The IRI `pattern` mints for `value`; NULL mints nothing.
pub fn render(pattern: &str, value: &Value) -> Option<String> {
    (!value.is_null()).then(|| pattern.replacen("{}", &spelled(value), 1))
}

/// The key of a `key_type` column that renders `iri` through `pattern`, or
/// `None` when no such key exists: the fixed parts differ, the slot's text
/// is not how [`render`] spells a value of that type (`+5`, `1.50`, a
/// timestamp without its `@`), or the type is `Bool` / `Any`, whose minted
/// text does not pin down the stored variant. An empty slot is producible
/// from a `Text` key of `""` and inverts to it.
pub fn invert(pattern: &str, iri: &str, key_type: ColumnType) -> Option<Value> {
    let (prefix, suffix) = pattern.split_once("{}")?;
    let slot = iri.strip_prefix(prefix)?.strip_suffix(suffix)?;
    let key = match key_type {
        ColumnType::Int => Value::Int(slot.parse().ok()?),
        ColumnType::Float => Value::Float(slot.parse().ok()?),
        ColumnType::Timestamp => Value::Timestamp(slot.strip_prefix('@')?.parse().ok()?),
        ColumnType::Text => Value::text(slot),
        ColumnType::Bool | ColumnType::Any => return None,
    };
    (spelled(&key) == slot).then_some(key)
}

/// Every key that renders `iri` through `pattern`, whatever the column's
/// type — for the caller with no schema in hand: the number when the slot
/// spells one, the timestamp when it is `@n`, and always the text itself.
/// Values that are equal under SQL comparison (`123` and `123.0`) appear
/// once. Empty when the fixed parts differ.
pub fn readings(pattern: &str, iri: &str) -> Vec<Value> {
    let mut keys: Vec<Value> = Vec::new();
    for key_type in [
        ColumnType::Int,
        ColumnType::Float,
        ColumnType::Timestamp,
        ColumnType::Text,
    ] {
        if let Some(key) = invert(pattern, iri, key_type) {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: &str = "http://x/part/{}/v";

    #[test]
    fn renders_text_verbatim_and_the_rest_through_display() {
        assert_eq!(render(P, &Value::text("a7")).unwrap(), "http://x/part/a7/v");
        assert_eq!(render(P, &Value::Int(42)).unwrap(), "http://x/part/42/v");
        assert_eq!(
            render(P, &Value::Timestamp(5)).unwrap(),
            "http://x/part/@5/v"
        );
        assert_eq!(render(P, &Value::Null), None);
    }

    #[test]
    fn inversion_is_typed() {
        let iri = "http://x/part/123/v";
        assert_eq!(invert(P, iri, ColumnType::Int), Some(Value::Int(123)));
        assert_eq!(invert(P, iri, ColumnType::Text), Some(Value::text("123")));
        assert_eq!(invert(P, iri, ColumnType::Timestamp), None);
        assert_eq!(invert(P, iri, ColumnType::Any), None);
        assert_eq!(invert(P, iri, ColumnType::Bool), None);
        assert_eq!(
            invert(P, "http://x/part/@5/v", ColumnType::Timestamp),
            Some(Value::Timestamp(5))
        );
        assert_eq!(
            invert(P, "http://x/part//v", ColumnType::Text),
            Some(Value::text(""))
        );
        assert_eq!(invert(P, "http://x/part//v", ColumnType::Int), None);
        assert_eq!(invert(P, "http://x/other/123/v", ColumnType::Int), None);
        assert_eq!(invert(P, "http://x/part/123", ColumnType::Int), None);
    }

    #[test]
    fn only_the_spelling_render_writes_inverts() {
        for (slot, key_type) in [
            ("+5", ColumnType::Int),
            ("007", ColumnType::Int),
            ("1.50", ColumnType::Float),
            ("1e3", ColumnType::Float),
            ("@+5", ColumnType::Timestamp),
        ] {
            let iri = format!("http://x/part/{slot}/v");
            assert_eq!(invert(P, &iri, key_type), None, "{slot}");
            assert_eq!(readings(P, &iri), vec![Value::text(slot)]);
        }
    }

    #[test]
    fn readings_cover_every_type_the_text_admits() {
        assert_eq!(
            readings(P, "http://x/part/123/v"),
            vec![Value::Int(123), Value::text("123")]
        );
        assert_eq!(
            readings(P, "http://x/part/1.5/v"),
            vec![Value::Float(1.5), Value::text("1.5")]
        );
        assert_eq!(
            readings(P, "http://x/part/@5/v"),
            vec![Value::Timestamp(5), Value::text("@5")]
        );
        assert_eq!(readings(P, "http://x/part/a7/v"), vec![Value::text("a7")]);
        assert!(readings(P, "http://x/sensor/123/v").is_empty());
    }
}
