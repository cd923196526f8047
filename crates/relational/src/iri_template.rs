//! The IRI-template codec: how a key value becomes an IRI and back.
//!
//! A pattern is an IRI with one `{}` slot (`http://x/turbine/{}`). The
//! `iri_template` SQL scalar, the mapping layer's `IriTemplate` (through
//! which the unfolder prunes a constant IRI outside a template's fixed
//! parts), shard routing's restriction inversion, the optimizer's lowering
//! of minted-IRI tests to key tests at the scan and the STARQL engine's
//! stream-key restriction all go through these two functions, so a
//! rendered IRI always inverts to the key that minted it — and to nothing
//! else.

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
            assert_eq!(invert(P, &iri, ColumnType::Text), Some(Value::text(slot)));
        }
    }
}
