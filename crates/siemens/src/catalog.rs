//! The 20-task diagnostic catalog.
//!
//! "For the demonstration purpose we selected 20 diagnostic tasks typical
//! for Siemens Energy service centres and expressed these tasks in STARQL."
//! Most tasks are *semantically similar but syntactically different* — the
//! paper's very point about fleets of queries: the same monotonicity or
//! threshold condition is asked over different sensor classes, windows and
//! equipment scopes. Two tasks (Pearson correlation, per-window statistics)
//! are plain SQL over the stream table — the paper implements them as
//! ExaStream UDF dataflows rather than STARQL conditions.

use crate::SIE_NS;

/// How a task is expressed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskQuery {
    /// A STARQL continuous query.
    StarQl(String),
    /// Plain SQL run on the relational engine.
    SqlPlus(String),
}

/// One catalog entry.
#[derive(Clone, Debug)]
pub struct DiagnosticTask {
    /// Stable id, `T01` … `T20`.
    pub id: String,
    /// Short name.
    pub name: String,
    /// What the task detects.
    pub description: String,
    /// The query text.
    pub query: TaskQuery,
}

const SENSOR_KINDS: [(&str, &str); 4] = [
    ("TemperatureSensor", "temperature"),
    ("PressureSensor", "pressure"),
    ("RotorSpeedSensor", "rotor speed"),
    ("VibrationSensor", "vibration"),
];

fn prelude(out: &str) -> String {
    format!(
        "PREFIX sie: <{SIE_NS}>\nPREFIX : <{SIE_NS}>\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\nCREATE STREAM {out} AS\n"
    )
}

fn monotonic_task(
    out: &str,
    sensor_class: &str,
    range: &str,
    slide: &str,
    increase: bool,
) -> String {
    let op = if increase { "<=" } else { ">=" };
    let marker = if increase { ":MonInc" } else { ":MonDec" };
    format!(
        "{}CONSTRUCT GRAPH NOW {{ ?c2 rdf:type {marker} }}\n\
         FROM STREAM S_Msmt [NOW-\"{range}\"^^xsd:duration, NOW]->\"{slide}\"^^xsd:duration,\n\
         STATIC DATA <http://siemens.example/ABoxstatic>,\n\
         ONTOLOGY <http://siemens.example/TBox>\n\
         USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"{slide}\"\n\
         WHERE {{?c1 a sie:Assembly. ?c2 a sie:{sensor_class}. ?c1 sie:inAssembly ?c2.}}\n\
         SEQUENCE BY StdSeq AS seq\n\
         HAVING MONOTONIC.HAVING(?c2,sie:hasValue)\n\
         CREATE AGGREGATE MONOTONIC:HAVING ($var,$attr) AS\n\
         HAVING EXISTS ?k IN seq: GRAPH ?k {{ $var sie:showsFailure }} AND\n\
         FORALL ?i < ?j IN seq, ?x, ?y:\n\
         IF ( ?i, ?j < ?k AND GRAPH ?i {{$var $attr ?x}} AND GRAPH ?j {{$var $attr ?y}}) THEN ?x{op}?y",
        prelude(out)
    )
}

fn threshold_task(out: &str, sensor_class: &str, range: &str, threshold: i64) -> String {
    format!(
        "{}CONSTRUCT GRAPH NOW {{ ?c2 rdf:type :Overheats }}\n\
         FROM STREAM S_Msmt [NOW-\"{range}\"^^xsd:duration, NOW]->\"PT1S\"^^xsd:duration,\n\
         STATIC DATA <http://siemens.example/ABoxstatic>,\n\
         ONTOLOGY <http://siemens.example/TBox>\n\
         USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"1S\"\n\
         WHERE {{?c1 a sie:Assembly. ?c2 a sie:{sensor_class}. ?c1 sie:inAssembly ?c2.}}\n\
         SEQUENCE BY StdSeq AS seq\n\
         HAVING EXISTS ?k IN seq: GRAPH ?k {{ ?c2 sie:hasValue ?x }} AND ?x >= {threshold}",
        prelude(out)
    )
}

fn flatline_task(out: &str, sensor_class: &str, range: &str) -> String {
    format!(
        "{}CONSTRUCT GRAPH NOW {{ ?c2 rdf:type :Flatline }}\n\
         FROM STREAM S_Msmt [NOW-\"{range}\"^^xsd:duration, NOW]->\"PT5S\"^^xsd:duration,\n\
         STATIC DATA <http://siemens.example/ABoxstatic>,\n\
         ONTOLOGY <http://siemens.example/TBox>\n\
         USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"5S\"\n\
         WHERE {{?c1 a sie:Assembly. ?c2 a sie:{sensor_class}. ?c1 sie:inAssembly ?c2.}}\n\
         SEQUENCE BY StdSeq AS seq\n\
         HAVING EXISTS ?k IN seq: GRAPH ?k {{ ?c2 sie:hasValue ?z }} AND\n\
         FORALL ?i < ?j IN seq, ?x, ?y:\n\
         IF ( GRAPH ?i {{ ?c2 sie:hasValue ?x }} AND GRAPH ?j {{ ?c2 sie:hasValue ?y }} ) THEN ?x=?y",
        prelude(out)
    )
}

/// Builds the 20-task catalog.
pub fn diagnostic_tasks() -> Vec<DiagnosticTask> {
    let mut tasks = Vec::with_capacity(20);
    let mut id = 0usize;
    let mut push =
        |name: String, description: String, query: TaskQuery, tasks: &mut Vec<DiagnosticTask>| {
            id += 1;
            tasks.push(DiagnosticTask {
                id: format!("T{id:02}"),
                name,
                description,
                query,
            });
        };

    // T01–T04: the Figure 1 task over the four sensor kinds.
    for (class, label) in SENSOR_KINDS {
        push(
            format!("monotonic-increase/{label}"),
            format!("Failure preceded by monotonically increasing {label} within 10 s"),
            TaskQuery::StarQl(monotonic_task("S_MonInc", class, "PT10S", "PT1S", true)),
            &mut tasks,
        );
    }
    // T05–T08: threshold exceedance, 30 s window.
    for (class, label) in SENSOR_KINDS {
        push(
            format!("overheat/{label}"),
            format!("Any {label} reading at or above the hot threshold within 30 s"),
            TaskQuery::StarQl(threshold_task("S_Hot", class, "PT30S", 95)),
            &mut tasks,
        );
    }
    // T09–T12: flatline detection, 1 min window.
    for (class, label) in SENSOR_KINDS {
        push(
            format!("flatline/{label}"),
            format!("A {label} sensor repeating the same value for a whole minute"),
            TaskQuery::StarQl(flatline_task("S_Flat", class, "PT1M")),
            &mut tasks,
        );
    }
    // T13–T16: monotonic decrease, 30 s window.
    for (class, label) in SENSOR_KINDS {
        push(
            format!("monotonic-decrease/{label}"),
            format!("Failure preceded by monotonically decreasing {label} within 30 s"),
            TaskQuery::StarQl(monotonic_task("S_MonDec", class, "PT30S", "PT1S", false)),
            &mut tasks,
        );
    }
    // T17: failure messages anywhere in the fleet.
    push(
        "failure-report".into(),
        "Any sensor raising a failure message within the last minute".into(),
        TaskQuery::StarQl(format!(
            "{}CONSTRUCT GRAPH NOW {{ ?c2 rdf:type :DiagnosticMessage }}\n\
             FROM STREAM S_Msmt [NOW-\"PT1M\"^^xsd:duration, NOW]->\"PT5S\"^^xsd:duration,\n\
             ONTOLOGY <http://siemens.example/TBox>\n\
             USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"5S\"\n\
             WHERE {{?c1 a sie:Assembly. ?c2 a sie:Sensor. ?c1 sie:inAssembly ?c2.}}\n\
             SEQUENCE BY StdSeq AS seq\n\
             HAVING EXISTS ?k IN seq: GRAPH ?k {{ ?c2 sie:showsFailure }}",
            prelude("S_Fail")
        )),
        &mut tasks,
    );
    // T18: large swing within one window.
    push(
        "big-swing/temperature".into(),
        "Temperature moving from ≤40 to ≥80 within one minute".into(),
        TaskQuery::StarQl(format!(
            "{}CONSTRUCT GRAPH NOW {{ ?c2 rdf:type :DiagnosticMessage }}\n\
             FROM STREAM S_Msmt [NOW-\"PT1M\"^^xsd:duration, NOW]->\"PT5S\"^^xsd:duration,\n\
             ONTOLOGY <http://siemens.example/TBox>\n\
             USING PULSE WITH START = \"00:10:00CET\", FREQUENCY = \"5S\"\n\
             WHERE {{?c1 a sie:Assembly. ?c2 a sie:TemperatureSensor. ?c1 sie:inAssembly ?c2.}}\n\
             SEQUENCE BY StdSeq AS seq\n\
             HAVING EXISTS ?i IN seq: EXISTS ?j IN seq: ?i < ?j AND\n\
             GRAPH ?i {{ ?c2 sie:hasValue ?x }} AND GRAPH ?j {{ ?c2 sie:hasValue ?y }} AND\n\
             ?x <= 40 AND ?y >= 80",
            prelude("S_Swing")
        )),
        &mut tasks,
    );
    // T19: Pearson correlation between sensor streams (the paper's explicit
    // example; an ExaStream UDF dataflow there, one `CORR` aggregate here).
    push(
        "pearson-correlation".into(),
        "Pairs of sensors whose measurement windows are highly correlated".into(),
        TaskQuery::SqlPlus(
            "SELECT a.sensor_id AS s1, b.sensor_id AS s2, CORR(a.value, b.value) AS r \
             FROM S_Msmt a JOIN S_Msmt b ON a.ts = b.ts \
             WHERE a.sensor_id < b.sensor_id \
             GROUP BY a.sensor_id, b.sensor_id \
             HAVING CORR(a.value, b.value) >= 0.95"
                .into(),
        ),
        &mut tasks,
    );
    // T20: per-window fleet statistics dashboard feed — the six tumbling
    // 10 s windows closing at 600 s … 650 s, window k being (590 s + 10 s·k,
    // 600 s + 10 s·k]. Counted from 590 s, every row's bucket is positive:
    // window k is bucket k + 1, its close instant included.
    push(
        "window-statistics".into(),
        "Per-window measurement statistics for the monitoring dashboard".into(),
        TaskQuery::SqlPlus(
            "SELECT CEIL((ts - 590000) / 10000.0) - 1 AS window_id, COUNT(*) AS n, \
             AVG(value) AS mean, MIN(value) AS lo, MAX(value) AS hi \
             FROM S_Msmt WHERE ts > 590000 AND ts <= 650000 \
             GROUP BY CEIL((ts - 590000) / 10000.0) ORDER BY window_id"
                .into(),
        ),
        &mut tasks,
    );
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::namespaces;

    #[test]
    fn catalog_has_twenty_tasks() {
        let tasks = diagnostic_tasks();
        assert_eq!(tasks.len(), 20);
        assert_eq!(tasks[0].id, "T01");
        assert_eq!(tasks[19].id, "T20");
    }

    #[test]
    fn all_starql_tasks_parse() {
        let ns = namespaces();
        for task in diagnostic_tasks() {
            if let TaskQuery::StarQl(text) = &task.query {
                optique_starql::parse_starql(text, &ns)
                    .unwrap_or_else(|e| panic!("task {} fails to parse: {e}", task.id));
            }
        }
    }

    #[test]
    fn all_sqlplus_tasks_parse() {
        for task in diagnostic_tasks() {
            if let TaskQuery::SqlPlus(text) = &task.query {
                optique_relational::parse_select(text)
                    .unwrap_or_else(|e| panic!("task {} fails to parse: {e}", task.id));
            }
        }
    }

    #[test]
    fn tasks_are_syntactically_distinct() {
        let tasks = diagnostic_tasks();
        let mut texts: Vec<&str> = tasks
            .iter()
            .map(|t| match &t.query {
                TaskQuery::StarQl(s) | TaskQuery::SqlPlus(s) => s.as_str(),
            })
            .collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), 20, "no two tasks share query text");
    }

    #[test]
    fn macro_expansion_works_for_every_monotonic_task() {
        let ns = namespaces();
        for task in diagnostic_tasks() {
            let TaskQuery::StarQl(text) = &task.query else {
                continue;
            };
            if !text.contains("MONOTONIC") {
                continue;
            }
            let q = optique_starql::parse_starql(text, &ns).unwrap();
            optique_starql::having::expand(&q.having, &q.aggregates)
                .unwrap_or_else(|e| panic!("task {}: {e}", task.id));
        }
    }
}
