//! Hostile text never panics the SPARQL front end: valid queries — the
//! conformance corpus's end-to-end texts, grammar corners the corpus pins
//! and generated queries over the Siemens vocabulary — take one to three
//! random edits (junk inserted, a run deleted, the tail cut off) and go
//! through `parse_sparql` and, at the platform boundary, `query_static`.
//! Every outcome is `Ok` or an `Err`; a parser `Err` carries its position.
//! Under all of it, the one lexer SPARQL and STARQL share takes text mixed
//! from escapes, STARQL's header tokens and open quotes: it never panics,
//! and an error points inside the text.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::sync::OnceLock;

use common::{hostile, proptest_cases, FIXED_QUERIES};
use optique::OptiquePlatform;
use optique_siemens::SiemensDeployment;
use optique_sparql::lexer::lex;
use optique_sparql::parse_sparql;
use proptest::prelude::*;
use proptest::sample::Index;

/// A typed literal and a string with a UCHAR escape, under one subject.
const TYPED_AND_ESCAPED: &str =
    "SELECT ?s WHERE { ?s sie:hasValue \"42\"^^xsd:integer ; sie:hasModel \"SGT\\u0041\" }";

/// The same with a language tag, which the lexer refuses by name.
const LANGUAGE_TAGGED: &str =
    "SELECT ?s WHERE { ?s sie:hasValue \"42\"^^xsd:integer ; sie:hasModel \"SGT\\u0041\"@en }";

/// Productions `FIXED_QUERIES` does not reach: prologue, typed literals,
/// UCHAR escapes, a language tag (refused), comments, signed numbers,
/// object lists, `BOUND`, the aggregate suite.
const GRAMMAR_CORNERS: &[&str] = &[
    "PREFIX x: <http://example.org/> SELECT ?s WHERE { ?s a x:Thing }",
    "BASE <http://example.org/> SELECT * WHERE { ?s a <Thing> }",
    TYPED_AND_ESCAPED,
    LANGUAGE_TAGGED,
    "# find sensors\nSELECT ?s # projection\nWHERE { ?s sie:relatedTo sie:a1 , sie:a2 . }",
    "SELECT ?v WHERE { ?s sie:hasValue ?v . FILTER(?v > -5 && (?v < 9.5e3 || !(?v = 5))) }",
    "SELECT ?t WHERE { ?t a sie:Turbine . OPTIONAL { ?t sie:locatedIn ?c } FILTER(!BOUND(?c)) }",
    "SELECT (COUNT(*) AS ?n) (AVG(?v) AS ?mean) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) \
     WHERE { ?s sie:hasValue ?v } GROUP BY ?s",
    "ASK WHERE { ?s a sie:Sensor }",
];

fn seed() -> impl Strategy<Value = String> {
    let corpus: Vec<&str> = [FIXED_QUERIES, GRAMMAR_CORNERS].concat();
    let fixed = any::<Index>().prop_map(move |i| corpus[i.index(corpus.len())].to_string());
    prop_oneof![fixed, common::query_strategy()]
}

/// The lexer's hostile alphabet: `\u`/`\U` escapes whole, cut short, out
/// of range and surrogate; STARQL's `[`, `]`, `->` and `$param`; quotes
/// left open; `-` beside names, variables and numbers; a colon beside
/// names and variables.
const LEXER_PIECES: &[&str] = &[
    "\\u0041",
    "\\u00",
    "\\uD800",
    "\\U0001F600",
    "\\U00110000",
    "\\u",
    "\\q",
    "\\\\",
    "\\",
    "[",
    "]",
    "->",
    "-",
    "$",
    "$p",
    "'",
    "\"",
    "'ab",
    "\"x",
    "?v-1",
    "NOW-",
    "seq:",
    ":",
    "?y:",
    "<",
    "<http://x/",
    ">",
    "^^",
    "1e",
    "2.5",
    " ",
    "\n",
    "\r",
    "é",
    "𝄞",
];

/// Up to 24 pieces, each from [`LEXER_PIECES`] or any code point.
fn lexer_soup() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        any::<Index>().prop_map(|i| LEXER_PIECES[i.index(LEXER_PIECES.len())].to_string()),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).map(String::from).unwrap_or_default()),
    ];
    proptest::collection::vec(piece, 0..24).prop_map(|pieces| pieces.concat())
}

/// The typed, escaped corner parses, so its seeds mutate a valid query.
#[test]
fn the_typed_and_escaped_corner_parses() {
    parse_sparql(TYPED_AND_ESCAPED, &optique_siemens::ontology::namespaces()).unwrap();
}

/// A language tag is refused by name, at its `@`, not as a stray
/// character.
#[test]
fn a_language_tag_is_refused_by_name() {
    let err = parse_sparql(LANGUAGE_TAGGED, &optique_siemens::ontology::namespaces()).unwrap_err();
    assert!(
        err.message.contains("language tags are not supported"),
        "{err}"
    );
    let at = LANGUAGE_TAGGED.chars().position(|c| c == '@').unwrap() as u32 + 1;
    let position = err.position.expect("a lex error carries its position");
    assert_eq!((position.line, position.column), (1, at), "{err}");
}

fn platform() -> &'static OptiquePlatform {
    static PLATFORM: OnceLock<OptiquePlatform> = OnceLock::new();
    PLATFORM.get_or_init(|| OptiquePlatform::from_siemens(SiemensDeployment::small()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(512)))]

    #[test]
    fn mutated_sparql_parses_or_errors_with_a_position(
        seed in seed(),
        edits in hostile::edits(),
    ) {
        let text = hostile::mutate(&seed, &edits);
        if let Err(e) = parse_sparql(&text, &optique_siemens::ontology::namespaces()) {
            prop_assert!(e.position.is_some(), "unpositioned {e} for {text:?}");
        }
    }

    #[test]
    fn hostile_text_never_panics_the_lexer(text in lexer_soup()) {
        if let Err(e) = lex(&text) {
            let position = e.position.expect("a lex error carries its position");
            prop_assert!(common::hostile::inside(&text, position), "{e} points past {text:?}");
        }
    }

    #[test]
    fn mutated_sparql_never_panics_the_platform(
        seed in seed(),
        edits in hostile::edits(),
        distributed in any::<bool>(),
    ) {
        let text = hostile::mutate(&seed, &edits);
        let _ = if distributed {
            platform().query_static_distributed(&text, 2)
        } else {
            platform().query_static(&text)
        };
    }
}
