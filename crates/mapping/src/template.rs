//! Single-variable IRI templates.

use optique_relational::iri_template;
use optique_relational::{ColumnType, Value};

/// An IRI template of shape `prefix{column}suffix`.
///
/// BootOX and the hand-written Siemens mappings only ever mint object
/// identifiers from a single key column, so one variable slot is enforced —
/// it is what makes template *inversion* (constant IRI → column constraint)
/// and join-compatibility checks exact. Rendering and inversion themselves
/// are [`optique_relational::iri_template`]'s.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct IriTemplate {
    /// The template with its slot as `{}`, split at the slot.
    codec: iri_template::IriTemplate,
    column: String,
}

impl IriTemplate {
    /// Parses `"http://x/turbine/{tid}"`-style templates. Exactly one
    /// `{column}` slot is required.
    pub fn parse(template: &str) -> Result<Self, String> {
        let open = template
            .find('{')
            .ok_or_else(|| format!("template {template:?} has no {{column}} slot"))?;
        let close = template[open..]
            .find('}')
            .map(|i| open + i)
            .ok_or_else(|| format!("template {template:?} has an unterminated slot"))?;
        let column = template[open + 1..close].to_string();
        if column.is_empty() {
            return Err(format!("template {template:?} has an empty column name"));
        }
        let rest = &template[close + 1..];
        if rest.contains('{') {
            return Err(format!("template {template:?} has more than one slot"));
        }
        Ok(IriTemplate {
            codec: iri_template::IriTemplate::new(&format!("{}{{}}{rest}", &template[..open])),
            column,
        })
    }

    /// The column the slot reads.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The codec the SQL mint node renders with; its pattern is the
    /// template text with the slot as `{}`, the `P` of
    /// `iri_template('P', key)`.
    pub fn codec(&self) -> &iri_template::IriTemplate {
        &self.codec
    }

    /// The IRI for a concrete key value; NULL mints none.
    pub fn render(&self, value: &Value) -> Option<String> {
        self.codec.render(value)
    }

    /// Two templates can produce equal IRIs only when their fixed parts
    /// agree (they may differ in column *name* — that just means joining on
    /// differently-named key columns).
    pub fn compatible_with(&self, other: &IriTemplate) -> bool {
        self.codec == other.codec
    }

    /// Inverts the template against a constant IRI: the value of a
    /// `key_type` column that renders it, or `None` when none does.
    pub fn invert(&self, iri: &str, key_type: ColumnType) -> Option<Value> {
        self.codec.invert(iri, key_type)
    }
}

impl std::fmt::Display for IriTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pattern = self.codec.pattern();
        let slot = pattern.find("{}").expect("parse leaves one slot");
        let (prefix, suffix) = (&pattern[..slot], &pattern[slot + 2..]);
        write!(f, "{prefix}{{{}}}{suffix}", self.column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_render() {
        let t = IriTemplate::parse("http://x/turbine/{tid}").unwrap();
        assert_eq!(t.column(), "tid");
        assert_eq!(t.render(&Value::Int(42)).unwrap(), "http://x/turbine/42");
        assert_eq!(t.codec().pattern(), "http://x/turbine/{}");
    }

    #[test]
    fn parse_with_suffix() {
        let t = IriTemplate::parse("http://x/{sid}/sensor").unwrap();
        assert_eq!(t.render(&Value::text("a7")).unwrap(), "http://x/a7/sensor");
    }

    #[test]
    fn parse_errors() {
        assert!(IriTemplate::parse("http://x/noslot").is_err());
        assert!(IriTemplate::parse("http://x/{unterminated").is_err());
        assert!(IriTemplate::parse("http://x/{}").is_err());
        assert!(IriTemplate::parse("http://x/{a}/{b}").is_err());
    }

    #[test]
    fn inversion() {
        let t = IriTemplate::parse("http://x/turbine/{tid}").unwrap();
        let int = |iri| t.invert(iri, ColumnType::Int);
        assert_eq!(int("http://x/turbine/42"), Some(Value::Int(42)));
        assert_eq!(int("http://x/turbine/ab7"), None);
        assert_eq!(
            t.invert("http://x/turbine/ab7", ColumnType::Text),
            Some(Value::text("ab7"))
        );
        assert_eq!(int("http://x/sensor/42"), None);
        assert_eq!(int("http://x/turbine/"), None);
    }

    #[test]
    fn compatibility_ignores_column_name() {
        let a = IriTemplate::parse("http://x/t/{id}").unwrap();
        let b = IriTemplate::parse("http://x/t/{turbine_id}").unwrap();
        let c = IriTemplate::parse("http://x/s/{id}").unwrap();
        assert!(a.compatible_with(&b));
        assert!(!a.compatible_with(&c));
    }

    #[test]
    fn roundtrip_display() {
        let t = IriTemplate::parse("http://x/{sid}/part").unwrap();
        let re = IriTemplate::parse(&t.to_string()).unwrap();
        assert_eq!(t, re);
    }
}
