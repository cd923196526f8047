//! Parse identity: every STARQL text in the repository parses to the AST
//! recorded in `parse_identity.txt`. The recording was taken when STARQL
//! still had a lexer of its own and re-lexed its WHERE clause through
//! SPARQL's; STARQL now parses as one SPARQL token stream, and the ASTs must
//! not have moved.
//!
//! The texts: the 18 catalog tasks, `FIGURE1`, a grid of the
//! `tests/common` program generators, and verbatim copies of the programs
//! the engine, translator, parser, platform-streaming and `pane_stream`
//! benchmark code register. Each parses under the Siemens namespaces; an
//! entry records `{:?}` of the parsed query.

#[path = "../../../tests/common/mod.rs"]
mod common;

use common::streaming::{agg_program, program};
use optique_siemens::catalog::TaskQuery;
use optique_siemens::diagnostic_tasks;
use optique_starql::{parse_starql, FIGURE1};

const RECORDING: &str = include_str!("parse_identity.txt");

/// The platform-streaming tests' aggregate query.
const AGG_QUERY: &str = r#"
PREFIX sie: <http://siemens.example/ontology#>
CREATE STREAM S_agg AS
CONSTRUCT GRAPH NOW { ?c2 a sie:MonInc }
FROM STREAM S_Msmt [NOW-"PT10S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
USING PULSE WITH START = "00:10:00CET", FREQUENCY = "1S"
WHERE {?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2.}
SEQUENCE BY StdSeq AS seq
HAVING MAX(?c2, sie:hasValue) >= 85
"#;

/// The platform-streaming tests' gapped window (slide > range).
const GAPPED: &str = r#"
PREFIX sie: <http://siemens.example/ontology#>
CREATE STREAM S_gap AS
CONSTRUCT GRAPH NOW { ?c2 a sie:MonInc }
FROM STREAM S_Msmt [NOW-"PT1S"^^xsd:duration, NOW]->"PT3S"^^xsd:duration
USING PULSE WITH START = "00:10:00CET", FREQUENCY = "3S"
WHERE {?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2.}
SEQUENCE BY StdSeq AS seq
HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?x }
"#;

/// The engine tests' FILTER-narrowed program.
const ENGINE_FILTERED: &str = r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM S_out AS
            CONSTRUCT GRAPH NOW { ?c2 a sie:MonInc }
            FROM STREAM S_Msmt [NOW-"PT10S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE { ?c1 sie:inAssembly ?c2 . ?c2 sie:hasSerial ?n . FILTER(?n > 10) }
            SEQUENCE BY StdSeq AS seq
            HAVING EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }
        "#;

/// The engine tests' aggregate program.
fn engine_agg_query(output_mode: &str, having: &str) -> String {
    format!(
        r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM S_out AS {output_mode}
            CONSTRUCT GRAPH NOW {{ ?c2 a sie:HighLoad }}
            FROM STREAM S_Msmt [NOW-"PT10S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE {{ ?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2. }}
            SEQUENCE BY StdSeq AS seq
            HAVING {having}
            "#
    )
}

/// The translator tests' program over `construct`, `where_clause` and
/// `having`.
fn translate_query(construct: &str, where_clause: &str, having: &str) -> String {
    format!(
        r#"
            PREFIX sie: <http://siemens.example/ontology#>
            CREATE STREAM s AS
            CONSTRUCT GRAPH NOW {{ {construct} }}
            FROM STREAM S [NOW-"PT1S"^^xsd:duration, NOW]->"PT1S"^^xsd:duration
            WHERE {where_clause}
            SEQUENCE BY StdSeq AS seq
            HAVING {having}
        "#
    )
}

/// The parser tests' program with a relation-to-stream keyword.
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

/// The `pane_stream` benchmark's four programs.
fn pane_stream_program(agg: &str, range_s: i64, cmp: &str) -> String {
    format!(
        "PREFIX sie: <http://siemens.example/ontology#>\n\
         PREFIX : <http://siemens.example/ontology#>\n\
         CREATE STREAM S_{agg} AS\n\
         CONSTRUCT GRAPH NOW {{ ?c2 a :Hot{agg} }}\n\
         FROM STREAM S_Msmt [NOW-\"PT{range_s}S\"^^xsd:duration, NOW]->\"PT1S\"^^xsd:duration\n\
         USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"PT1S\"\n\
         WHERE {{ ?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2. }}\n\
         SEQUENCE BY StdSeq AS seq\n\
         HAVING {agg}(?c2, sie:hasValue) {cmp}\n"
    )
}

/// Every text, named.
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = diagnostic_tasks()
        .into_iter()
        .filter_map(|task| match task.query {
            TaskQuery::StarQl(text) => Some((format!("catalog {}", task.id), text)),
            TaskQuery::SqlPlus(_) => None,
        })
        .collect();
    out.push(("FIGURE1".into(), FIGURE1.into()));
    for shape in 0..7 {
        for (range_s, slide_s, pulse, knob) in
            [(10, 1, true, 0), (5, 2, false, 7), (2, 1, true, 29)]
        {
            out.push((
                format!("common program {shape} {range_s} {slide_s} {pulse} {knob}"),
                program(shape, range_s, slide_s, pulse, knob),
            ));
        }
        for mode in ["", "RSTREAM", "ISTREAM", "DSTREAM"] {
            for (range_s, slide_s, pulse, knob) in [(10, 1, true, 3), (5, 2, false, 19)] {
                out.push((
                    format!(
                        "common agg_program {shape} {mode:?} {range_s} {slide_s} {pulse} {knob}"
                    ),
                    agg_program(shape, mode, range_s, slide_s, pulse, knob),
                ));
            }
        }
    }

    let exists_value = "EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }";
    let fixed: Vec<(&str, String)> = vec![
        ("streaming AGG_QUERY", AGG_QUERY.into()),
        ("streaming GAPPED", GAPPED.into()),
        (
            "streaming hot_or_failing",
            AGG_QUERY.replace(
                "MAX(?c2, sie:hasValue) >= 85",
                "MAX(?c2, sie:hasValue) >= 85 AND EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:hasValue ?v }",
            ),
        ),
        ("streaming short", AGG_QUERY.replace("PT10S", "PT4S")),
        ("engine filtered", ENGINE_FILTERED.into()),
        (
            "engine agg avg",
            engine_agg_query("", "AVG(?c2, sie:hasValue) >= 80"),
        ),
        (
            "engine agg sum not count",
            engine_agg_query(
                "",
                "SUM(?c2, sie:hasValue) >= 100 AND NOT COUNT(?c2, sie:hasValue) > 99",
            ),
        ),
        (
            "engine agg sum exists",
            engine_agg_query(
                "",
                "SUM(?c2, sie:hasValue) >= 100 AND EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:showsFailure }",
            ),
        ),
        (
            "engine agg temperature",
            engine_agg_query("", "SUM(?c2, sie:hasTemperature) >= 100"),
        ),
        (
            "engine agg istream",
            engine_agg_query("ISTREAM", "AVG(?c2, sie:hasValue) >= 80"),
        ),
        (
            "engine agg dstream",
            engine_agg_query("DSTREAM", "AVG(?c2, sie:hasValue) >= 80"),
        ),
        (
            "engine exists failure",
            engine_agg_query("", "EXISTS ?k IN seq: GRAPH ?k { ?c2 sie:showsFailure }"),
        ),
        (
            "translate union",
            translate_query(
                "?c2 a sie:Alert",
                "{ { ?c2 a sie:TemperatureSensor } UNION { ?c1 sie:inAssembly ?c2 } }",
                exists_value,
            ),
        ),
        (
            "translate filter",
            translate_query(
                "?c2 a sie:Alert",
                "{ ?c1 sie:inAssembly ?c2 . ?c2 sie:hasSerial ?n . FILTER(?n > 10) }",
                exists_value,
            ),
        ),
        (
            "translate unbound filter",
            translate_query(
                "?c2 a sie:Alert",
                "{ ?c1 sie:inAssembly ?c2 . FILTER(?nope > 10) }",
                exists_value,
            ),
        ),
        (
            "translate construct var",
            translate_query(
                "?c1 a sie:Alert",
                "{ { ?c2 a sie:TemperatureSensor } UNION { ?c1 sie:inAssembly ?c2 } }",
                exists_value,
            ),
        ),
        (
            "translate ghost",
            translate_query(
                "?c2 sie:alertsFor ?ghost",
                "{ ?c1 sie:inAssembly ?c2 }",
                exists_value,
            ),
        ),
        (
            "translate constant subject",
            translate_query(
                "sie:x a sie:Alert",
                "{ ?a a sie:Assembly }",
                "EXISTS ?k IN seq: GRAPH ?k { sie:x sie:hasValue ?v }",
            ),
        ),
        ("parser mode none", with_output_mode("")),
        ("parser mode istream", with_output_mode("istream")),
        ("parser mode dstream", with_output_mode("DSTREAM")),
        (
            "parser agg connectives",
            with_output_mode("").replace(
                "HAVING SUM(?x, sie:hasValue) >= 100",
                "HAVING COUNT(?x, sie:hasValue) > 3 AND NOT MAX(?x, sie:hasValue) > 95",
            ),
        ),
        (
            "parser dotted macro",
            with_output_mode("").replace("HAVING SUM(?x, sie:hasValue) >= 100", "HAVING SUM.X(?x)"),
        ),
        (
            "parser predicate-object lists",
            translate_query(
                "?x a sie:Alert",
                "{ ?x a sie:Sensor ; sie:inAssembly ?a . }",
                "EXISTS ?k IN seq: GRAPH ?k { ?x sie:hasValue ?v }",
            ),
        ),
        (
            "parser connective filter",
            translate_query(
                "?x a sie:Alert",
                "{ ?x sie:hasValue ?v . FILTER(?v > 5 && !(?v = 7)) }",
                "EXISTS ?k IN seq: GRAPH ?k { ?x sie:hasValue ?v }",
            ),
        ),
        (
            "parser multi aggregate",
            format!(
                "{FIGURE1}\nCREATE AGGREGATE OTHER:ONE ($a) AS HAVING EXISTS ?m IN seq: GRAPH ?m {{ $a sie:showsFailure }}"
            ),
        ),
        (
            "parser state chain",
            translate_query(
                "?x a sie:Alert",
                "{ ?x sie:hasValue ?v }",
                "EXISTS ?s0, ?s1, ?s2, ?s3 IN seq: ?s0, ?s1, ?s2 < ?s3",
            ),
        ),
        ("bench pane SUM", pane_stream_program("SUM", 200, ">= 14000")),
        ("bench pane AVG", pane_stream_program("AVG", 60, ">= 72")),
        ("bench pane MAX", pane_stream_program("MAX", 200, ">= 99")),
        ("bench pane COUNT", pane_stream_program("COUNT", 20, ">= 20")),
    ];
    out.extend(
        fixed
            .into_iter()
            .map(|(name, text)| (name.to_string(), text)),
    );
    for (agg, range_s, at_least) in [
        ("SUM", 200, 1_000),
        ("AVG", 60, 72),
        ("MAX", 200, 99),
        ("COUNT", 20, 20),
    ] {
        out.push((
            format!("streaming pane {agg}"),
            AGG_QUERY
                .replace("PT10S", &format!("PT{range_s}S"))
                .replace(
                    "MAX(?c2, sie:hasValue) >= 85",
                    &format!("{agg}(?c2, sie:hasValue) >= {at_least}"),
                ),
        ));
    }
    for range_s in [2, 10] {
        out.push((
            format!("streaming sum_query {range_s}"),
            AGG_QUERY
                .replace("PT10S", &format!("PT{range_s}S"))
                .replace(
                    "MAX(?c2, sie:hasValue) >= 85",
                    "SUM(?c2, sie:hasValue) >= 100",
                ),
        ));
    }
    out
}

/// `=== name` then the `{:?}` of the parsed query, one entry per program.
fn render() -> String {
    let ns = optique_siemens::ontology::namespaces();
    programs()
        .into_iter()
        .map(|(name, text)| {
            let parsed =
                parse_starql(&text, &ns).unwrap_or_else(|e| panic!("{name} no longer parses: {e}"));
            format!("=== {name}\n{parsed:?}\n")
        })
        .collect()
}

#[test]
fn every_repository_program_parses_to_its_recorded_ast() {
    let rendered = render();
    let entries = |s: &str| -> Vec<String> {
        s.split("=== ")
            .filter(|e| !e.is_empty())
            .map(str::to_string)
            .collect()
    };
    let (now, then) = (entries(&rendered), entries(RECORDING));
    assert_eq!(
        now.len(),
        then.len(),
        "the recording has one entry per program"
    );
    for (now, then) in now.iter().zip(&then) {
        assert_eq!(now, then, "parse moved");
    }
}
