//! Seeded deployments and generated inputs shared by the workloads.
//!
//! Every fixture is a pure function of its seed, and the seed changes *which*
//! values the program sees (row order, key ranges, fleet layout, stream
//! readings) without changing *how much* work an op is: row and table counts
//! are fixed, so a metric compares across seeds.

use optique::OptiquePlatform;
use optique_mapping::{MappingAssertion, MappingCatalog, TermMap};
use optique_ontology::Ontology;
use optique_rdf::Iri;
use optique_relational::{table::table_of, ColumnType, Database, Table, Value};
use optique_siemens::{FleetConfig, SiemensDeployment};

use crate::stats::Rng;

/// Fan-out width: tables one property maps through, hence disjuncts per
/// unfolded query and fragments per distributed round.
pub const FANOUT_SOURCES: usize = 100;
/// Rows per fan-out source table; also the number of distinct objects.
pub const FANOUT_ROWS: i64 = 64;
/// The fan-out property.
pub const FANOUT_PROPERTY: &str = "http://x/p";

/// One property mapped through [`FANOUT_SOURCES`] tables of [`FANOUT_ROWS`]
/// rows: a single-atom BGP unfolds to one disjunct per table. Subjects are
/// unique across tables (so a scan answers `SOURCES × ROWS` rows), every
/// table holds each object `0..ROWS` once (so a probe on one object answers
/// `SOURCES` rows). The seed picks the subject key range and shuffles each
/// table's row order.
pub fn fanout_platform(seed: u64) -> OptiquePlatform {
    let mut rng = Rng::new(seed);
    let base = (rng.below(1_000) as i64) * 1_000_000;
    let mut db = Database::new();
    let mut catalog = MappingCatalog::new();
    for i in 0..FANOUT_SOURCES {
        let mut rows: Vec<Vec<Value>> = (0..FANOUT_ROWS)
            .map(|k| vec![Value::Int(base + i as i64 * FANOUT_ROWS + k), Value::Int(k)])
            .collect();
        rng.shuffle(&mut rows);
        db.put_table(
            format!("t{i}"),
            table_of(
                &format!("t{i}"),
                &[("a", ColumnType::Int), ("b", ColumnType::Int)],
                rows,
            )
            .expect("valid table"),
        );
        catalog
            .add(
                MappingAssertion::property(
                    format!("p-src{i}"),
                    Iri::new(FANOUT_PROPERTY),
                    format!("SELECT a, b FROM t{i}"),
                    TermMap::template("http://x/obj/{a}"),
                    TermMap::template("http://x/obj/{b}"),
                )
                .with_key(vec!["a".into(), "b".into()]),
            )
            .expect("valid mapping");
    }
    // Static queries never touch the stream-side assets; borrow the Siemens
    // ones rather than hand-rolling a stream mapping.
    let siemens = SiemensDeployment::small();
    OptiquePlatform::deploy(
        db,
        Ontology::new(),
        siemens.namespaces,
        catalog,
        siemens.stream_to_rdf,
    )
}

/// Turbine models of the generated fleet.
pub const MODELS: [&str; 4] = optique_siemens::fleet::MODELS;

/// A Siemens deployment of `turbines × assemblies × sensors`, its fleet
/// layout drawn from `seed`, streaming its first `streamed` sensors.
///
/// The generator draws each turbine's model at random, so the number of
/// turbines a model-filtered query touches would vary by a fifth from seed
/// to seed and the latency with it. The fixture therefore re-deals the
/// models: exactly `turbines / 4` turbines per model, *which* turbines being
/// the seed's choice. `turbines` must be a multiple of four.
pub fn siemens_deployment(
    seed: u64,
    turbines: usize,
    assemblies_per_turbine: usize,
    sensors_per_assembly: usize,
    streamed: usize,
) -> SiemensDeployment {
    assert_eq!(turbines % MODELS.len(), 0, "models deal evenly");
    let mut deployment = SiemensDeployment::build(
        FleetConfig {
            turbines,
            assemblies_per_turbine,
            sensors_per_assembly,
            seed,
        },
        streamed,
    )
    .expect("Siemens deployment builds");
    let mut deal: Vec<&str> = (0..turbines).map(|t| MODELS[t % MODELS.len()]).collect();
    Rng::new(seed).shuffle(&mut deal);
    let generated = deployment.db.table("turbines").expect("turbines table");
    let mut dealt = Table::empty(generated.schema.clone());
    for (row, model) in generated.rows.iter().zip(deal) {
        let mut row = row.clone();
        row[1] = Value::text(model);
        row[2] = Value::text(if model.starts_with("SST") {
            "steam"
        } else {
            "gas"
        });
        dealt.push_row(row).expect("same schema");
    }
    deployment.db.put_table("turbines", dealt);
    deployment
}

/// First timestamp of the generated `S_Msmt` stream (ms) — the pulse
/// grid's origin in every catalog task (`START = "00:10:00CET"`).
pub const STREAM_START_MS: i64 = 600_000;

/// One second of whole-valued 1 Hz readings for `S_Msmt`: a row per sensor
/// at `sec` seconds past [`STREAM_START_MS`]. A pure function of
/// `(seed, sec)`, so the platform under test, its reference twin and the
/// staged replay can each generate the same second independently. Values are
/// whole numbers in `40..100`: float sums stay exact (the pane path adds
/// partial sums in another order than a rescan), and a tenth of the readings
/// cross the catalog's hot threshold of 95. Every twentieth second one
/// seeded sensor reports a `failure` event, so event-driven tasks fire too.
pub fn stream_second(seed: u64, sensors: &[i64], sec: i64) -> Vec<Vec<Value>> {
    let mut rng = Rng::new(seed ^ (sec as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let failing = (sec % 20 == 0).then(|| rng.below(sensors.len() as u64) as usize);
    sensors
        .iter()
        .enumerate()
        .map(|(i, &sensor)| {
            vec![
                Value::Timestamp(STREAM_START_MS + sec * 1_000),
                Value::Int(sensor),
                Value::Float((40 + rng.below(60)) as f64),
                if failing == Some(i) {
                    Value::text("failure")
                } else {
                    Value::Null
                },
            ]
        })
        .collect()
}

/// Replaces the rows of the deployment's generated `S_Msmt` with `rows`.
pub fn put_stream(deployment: &mut SiemensDeployment, rows: Vec<Vec<Value>>) {
    let schema = deployment
        .db
        .table("S_Msmt")
        .expect("deployment has a stream table")
        .schema
        .clone();
    let table = Table::new(schema, rows).expect("rows fit the stream schema");
    deployment.db.put_table("S_Msmt", table);
}
