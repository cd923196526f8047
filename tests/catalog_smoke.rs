//! Demo scenario S1: the whole 20-task Siemens catalog registered and
//! monitored over one deployment.

use optique::{OptiquePlatform, MERGE_FLOOR_ROWS};
use optique_relational::Value;
use optique_siemens::catalog::TaskQuery;
use optique_siemens::{diagnostic_tasks, SiemensDeployment};

#[test]
fn all_tasks_register_and_tick() {
    let deployment = SiemensDeployment::small();
    let start = deployment.stream_config.start_ms;
    let end = start + deployment.stream_config.duration_ms;
    let hot_sensors: Vec<i64> = deployment
        .ground_truth
        .hot_bursts
        .iter()
        .map(|(s, _)| *s)
        .collect();
    let platform = OptiquePlatform::from_siemens(deployment);

    let mut starql_count = 0;
    for task in diagnostic_tasks() {
        match &task.query {
            TaskQuery::StarQl(_) => {
                platform
                    .register_task(&task)
                    .unwrap_or_else(|e| panic!("{}: {e}", task.id));
                starql_count += 1;
            }
            TaskQuery::SqlPlus(sql) => {
                // Plain-SQL tasks run directly on the engine.
                optique_relational::exec::query(sql, &platform.db())
                    .unwrap_or_else(|e| panic!("{}: {e}", task.id));
            }
        }
    }
    assert_eq!(starql_count, 18);
    assert_eq!(platform.registered(), 18);

    // Tick the full replay window every 5 s.
    let mut overheat_alarms: Vec<String> = Vec::new();
    for tick in (start..=end).step_by(5_000) {
        for (id, out) in platform.tick_all(tick).unwrap() {
            let dash = platform.dashboard();
            let panel = dash.panels.iter().find(|p| p.id == id).unwrap();
            if panel.name.contains("overheat") {
                for t in &out.triples {
                    if let optique_rdf::Term::Iri(iri) = &t.subject {
                        overheat_alarms.push(iri.as_str().to_string());
                    }
                }
            }
        }
    }

    // The planted hot burst must trigger at least one overheat task.
    for sensor in &hot_sensors {
        let iri = format!("http://siemens.example/data/sensor/{sensor}");
        assert!(
            overheat_alarms.contains(&iri),
            "hot burst on sensor {sensor} undetected; alarms: {overheat_alarms:?}"
        );
    }

    // Monitoring totals are consistent.
    let dash = platform.dashboard();
    assert_eq!(dash.panels.len(), 18);
    assert!(dash.total_tuples() > 0);
    let rendered = dash.render();
    assert!(rendered.contains("OPTIQUE monitoring"));
    assert!(rendered.lines().count() >= 20);
}

#[test]
fn pearson_task_finds_planted_pair() {
    let deployment = SiemensDeployment::small();
    let (a, b) = deployment.ground_truth.correlated_pairs[0];
    let task = diagnostic_tasks()
        .into_iter()
        .find(|t| t.name == "pearson-correlation")
        .expect("task T19 exists");
    let TaskQuery::SqlPlus(sql) = &task.query else {
        panic!("T19 is plain SQL")
    };
    let table = optique_relational::exec::query(sql, &deployment.db).unwrap();
    let hit = table.rows.iter().any(|row| {
        let (s1, s2) = (row[0].as_i64().unwrap(), row[1].as_i64().unwrap());
        (s1.min(s2), s1.max(s2)) == (a.min(b), a.max(b))
    });
    assert!(hit, "planted pair ({a},{b}) not in:\n{}", table.render(20));
}

/// T20 reports windows 0..=5, the tumbling 10 s windows closing at 600 s …
/// 650 s, and reads them the way every scan does: rows appended but not yet
/// merged count in their window.
#[test]
fn window_statistics_task_reports_each_window() {
    let deployment = SiemensDeployment::small();
    let sensor = deployment.sensor_ids[0];
    let task = diagnostic_tasks()
        .into_iter()
        .find(|t| t.name == "window-statistics")
        .expect("task T20 exists");
    let TaskQuery::SqlPlus(sql) = &task.query else {
        panic!("T20 is plain SQL")
    };
    let platform = OptiquePlatform::from_siemens(deployment);
    let report = |platform: &OptiquePlatform| {
        let table = optique_relational::exec::query(sql, &platform.db()).unwrap();
        for row in &table.rows {
            let (lo, mean, hi) = (
                row[3].as_f64().unwrap(),
                row[2].as_f64().unwrap(),
                row[4].as_f64().unwrap(),
            );
            assert!(lo <= mean && mean <= hi, "{row:?}");
        }
        table
    };
    let counts = |table: &optique_relational::Table| -> Vec<(i64, i64)> {
        (table.rows.iter())
            .map(|row| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap()))
            .collect()
    };

    // The first window opens 10 s before the stream starts; 12 sensors
    // report once a second.
    let before = report(&platform);
    assert_eq!(
        counts(&before),
        vec![(0, 12), (1, 120), (2, 120), (3, 120), (4, 120), (5, 120)],
        "windows 0..=5"
    );

    // Rows inside window 3, (620 s, 630 s] — one exactly at its close — and
    // one exactly at its open, which belongs to window 2. Far below the
    // merge floor, so they stay in the overlay.
    let at = |ts: i64, value: f64| {
        vec![
            Value::Timestamp(ts),
            Value::Int(sensor),
            Value::Float(value),
            Value::Null,
        ]
    };
    let appended = vec![
        at(620_000, 10.0),
        at(620_500, 150.0),
        at(625_500, 11.0),
        at(630_000, 12.0),
    ];
    assert!(appended.len() < MERGE_FLOOR_ROWS);
    platform.append_stream("S_Msmt", appended).unwrap();
    assert_eq!(platform.novelty_depth(), 4, "nothing merged");

    let after = report(&platform);
    assert_eq!(
        counts(&after),
        vec![(0, 12), (1, 120), (2, 121), (3, 123), (4, 120), (5, 120)]
    );
    assert_eq!(after.rows[3][4], Value::Float(150.0), "window 3's maximum");
    assert_eq!(after.rows[3][3], Value::Float(11.0), "window 3's minimum");
    assert_eq!(after.rows[2][3], Value::Float(10.0), "window 2's minimum");
    for k in [0, 1, 4, 5] {
        assert_eq!(after.rows[k], before.rows[k], "window {k} is untouched");
    }
}

#[test]
fn wcache_pays_off_across_the_catalog() {
    let deployment = SiemensDeployment::small();
    let start = deployment.stream_config.start_ms;
    let platform = OptiquePlatform::from_siemens(deployment);
    // Register the four monotonic tasks — same 10 s / 1 s window spec.
    for task in diagnostic_tasks().into_iter().take(4) {
        platform.register_task(&task).unwrap();
    }
    platform.tick_all(start + 10_000).unwrap();
    let dash = platform.dashboard();
    assert!(
        dash.wcache_hits >= 3,
        "three of four same-window queries reuse the materialization: {dash:?}"
    );
}
