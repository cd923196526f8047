//! The IRI-template codec: how a key value becomes an IRI and back.
//!
//! A pattern is an IRI with one `{}` slot (`http://x/turbine/{}`), split
//! once at the slot into an [`IriTemplate`]. The SQL mint node
//! ([`Expr::Mint`](crate::Expr::Mint), `iri_template('P', key)` in SQL
//! text), the mapping layer's `IriTemplate` (through which the unfolder
//! prunes a constant IRI outside a template's fixed parts), shard routing's
//! restriction inversion, the optimizer's lowering of minted-IRI tests to
//! key tests at the scan and the STARQL engine's stream-key restriction all
//! go through its [`render`](IriTemplate::render) and
//! [`invert`](IriTemplate::invert), so a rendered IRI always inverts to the
//! key that minted it — and to nothing else.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::schema::ColumnType;
use crate::value::Value;

/// A pattern split once at its `{}` slot.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct IriTemplate {
    pattern: Arc<str>,
    /// Byte offset of the first `{}`; `None` when the pattern has no slot
    /// and every key renders the pattern itself.
    slot: Option<usize>,
}

impl IriTemplate {
    /// The template of `pattern`.
    pub fn new(pattern: &str) -> Self {
        IriTemplate {
            slot: pattern.find("{}"),
            pattern: Arc::from(pattern),
        }
    }

    /// The pattern, slot included.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// True when the pattern has a `{}` slot.
    pub fn has_slot(&self) -> bool {
        self.slot.is_some()
    }

    /// The fixed parts either side of the slot.
    fn parts(&self) -> Option<(&str, &str)> {
        let slot = self.slot?;
        Some((&self.pattern[..slot], &self.pattern[slot + 2..]))
    }

    /// The IRI this template mints for `value`; NULL mints nothing. The
    /// slot takes text verbatim and everything else as `Display` writes it
    /// (so a timestamp is `@t`).
    pub fn render(&self, value: &Value) -> Option<String> {
        if value.is_null() {
            return None;
        }
        let Some((prefix, suffix)) = self.parts() else {
            return Some(self.pattern.to_string());
        };
        let mut iri = String::with_capacity(self.pattern.len() + 20);
        iri.push_str(prefix);
        match value {
            Value::Text(s) => iri.push_str(s),
            other => write!(iri, "{other}").expect("writing to a String cannot fail"),
        }
        iri.push_str(suffix);
        Some(iri)
    }

    /// [`render`](Self::render) as an interned SQL value (NULL for NULL).
    pub fn mint(&self, value: &Value) -> Value {
        self.render(value).map_or(Value::Null, Value::text)
    }

    /// The key of a `key_type` column that renders `iri`, or `None` when
    /// no such key exists: the pattern has no slot, the fixed parts
    /// differ, the slot's text is not how [`render`](Self::render) spells a
    /// value of that type (`+5`, `1.50`, a timestamp without its `@`), or
    /// the type is `Bool` / `Any`, whose minted text does not pin down the
    /// stored variant. An empty slot is producible from a `Text` key of
    /// `""` and inverts to it.
    pub fn invert(&self, iri: &str, key_type: ColumnType) -> Option<Value> {
        let (prefix, suffix) = self.parts()?;
        let slot = iri.strip_prefix(prefix)?.strip_suffix(suffix)?;
        let key = match key_type {
            ColumnType::Int => Value::Int(slot.parse().ok()?),
            ColumnType::Float => Value::Float(slot.parse().ok()?),
            ColumnType::Timestamp => Value::Timestamp(slot.strip_prefix('@')?.parse().ok()?),
            ColumnType::Text => Value::text(slot),
            ColumnType::Bool | ColumnType::Any => return None,
        };
        let renders_back = match &key {
            Value::Text(_) => true,
            other => other.to_string() == slot,
        };
        renders_back.then_some(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> IriTemplate {
        IriTemplate::new("http://x/part/{}/v")
    }

    #[test]
    fn renders_text_verbatim_and_the_rest_through_display() {
        assert_eq!(
            p().render(&Value::text("a7")).unwrap(),
            "http://x/part/a7/v"
        );
        assert_eq!(p().render(&Value::Int(42)).unwrap(), "http://x/part/42/v");
        assert_eq!(
            p().render(&Value::Timestamp(5)).unwrap(),
            "http://x/part/@5/v"
        );
        assert_eq!(p().render(&Value::Null), None);
        assert_eq!(p().mint(&Value::Null), Value::Null);
        assert_eq!(p().mint(&Value::Int(1)), Value::text("http://x/part/1/v"));
        let fixed = IriTemplate::new("http://x/only");
        assert_eq!(fixed.render(&Value::Int(1)).unwrap(), "http://x/only");
        assert_eq!(fixed.invert("http://x/only", ColumnType::Text), None);
    }

    #[test]
    fn inversion_is_typed() {
        let iri = "http://x/part/123/v";
        assert_eq!(p().invert(iri, ColumnType::Int), Some(Value::Int(123)));
        assert_eq!(p().invert(iri, ColumnType::Text), Some(Value::text("123")));
        assert_eq!(p().invert(iri, ColumnType::Timestamp), None);
        assert_eq!(p().invert(iri, ColumnType::Any), None);
        assert_eq!(p().invert(iri, ColumnType::Bool), None);
        assert_eq!(
            p().invert("http://x/part/@5/v", ColumnType::Timestamp),
            Some(Value::Timestamp(5))
        );
        assert_eq!(
            p().invert("http://x/part//v", ColumnType::Text),
            Some(Value::text(""))
        );
        assert_eq!(p().invert("http://x/part//v", ColumnType::Int), None);
        assert_eq!(p().invert("http://x/other/123/v", ColumnType::Int), None);
        assert_eq!(p().invert("http://x/part/123", ColumnType::Int), None);
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
            assert_eq!(p().invert(&iri, key_type), None, "{slot}");
            assert_eq!(p().invert(&iri, ColumnType::Text), Some(Value::text(slot)));
        }
    }
}
