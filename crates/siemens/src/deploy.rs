//! One-call deployment assembly.

use optique_mapping::{IriTemplate, MappingCatalog};
use optique_ontology::Ontology;
use optique_rdf::{Datatype, Namespaces};
use optique_relational::Database;
use optique_starql::StreamToRdf;

use crate::fleet::{build_fleet, FleetConfig};
use crate::ontology::{namespaces, sie, siemens_mappings, siemens_ontology};
use crate::streamgen::{build_stream, GroundTruth, StreamConfig};

/// A full Siemens deployment: static DB + streams + semantic assets.
pub struct SiemensDeployment {
    /// The catalog holding both static tables and the `S_Msmt` stream table.
    pub db: Database,
    /// The TBox.
    pub ontology: Ontology,
    /// Prefix table for STARQL text.
    pub namespaces: Namespaces,
    /// The mapping catalog over the static tables.
    pub mappings: MappingCatalog,
    /// The stream-side mapping.
    pub stream_to_rdf: StreamToRdf,
    /// Ids of all generated sensors.
    pub sensor_ids: Vec<i64>,
    /// What anomalies were planted.
    pub ground_truth: GroundTruth,
    /// The stream generation parameters used.
    pub stream_config: StreamConfig,
}

impl SiemensDeployment {
    /// Builds a deployment at the given fleet scale. The stream covers the
    /// first `stream_sensors` sensors (streaming all 100k sensors at demo
    /// scale is possible but slow for tests; benches choose their own
    /// subset).
    pub fn build(fleet: FleetConfig, stream_sensors: usize) -> Result<Self, String> {
        let mut db = Database::new();
        let sensor_ids = build_fleet(&mut db, &fleet).map_err(|e| e.to_string())?;
        let streamed: Vec<i64> = sensor_ids
            .iter()
            .copied()
            .take(stream_sensors.max(1))
            .collect();
        let stream_config = StreamConfig::small(streamed);
        let ground_truth = build_stream(&mut db, &stream_config).map_err(|e| e.to_string())?;
        Ok(SiemensDeployment {
            db,
            ontology: siemens_ontology(),
            namespaces: namespaces(),
            mappings: siemens_mappings(),
            stream_to_rdf: StreamToRdf {
                timestamp_col: "ts".into(),
                subject: IriTemplate::parse(&format!("{}sensor/{{sensor_id}}", crate::DATA_NS))
                    .expect("valid template"),
                value_property: sie("hasValue"),
                value_col: "value".into(),
                value_datatype: Datatype::Double,
                event_col: Some("event".into()),
                event_classes: vec![("failure".into(), sie("showsFailure"))],
            },
            sensor_ids,
            ground_truth,
            stream_config,
        })
    }

    /// A small test-scale deployment.
    pub fn small() -> Self {
        SiemensDeployment::build(FleetConfig::small(), 12).expect("small deployment builds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_deployment_builds() {
        let d = SiemensDeployment::small();
        assert!(d.db.has_table("S_Msmt"));
        assert!(d.db.has_table("turbines"));
        assert_eq!(d.sensor_ids.len(), 60);
        assert!(!d.ground_truth.ramp_failures.is_empty());
    }

    #[test]
    fn stream_subject_template_matches_mapping_catalog() {
        let d = SiemensDeployment::small();
        // The stream mints sensor IRIs in the same shape the static
        // mappings use — joins between stream and static sides depend on it.
        let from_stream = d
            .stream_to_rdf
            .subject
            .render(&optique_relational::Value::Int(7))
            .unwrap();
        let graph = optique_mapping::materialize_catalog(&d.mappings, &d.db).unwrap();
        assert!(graph
            .instances_of(&sie("Sensor"))
            .iter()
            .any(|t| t.as_iri().is_some_and(|i| i.as_str() == from_stream)));
    }

    /// A window of the stream is the rows between its bounds, read with
    /// plain SQL: the first 10 s window after the stream start is not empty.
    #[test]
    fn window_slice_reads_the_stream() {
        let d = SiemensDeployment::small();
        let start = d.stream_config.start_ms;
        let t = optique_relational::exec::query(
            &format!(
                "SELECT COUNT(*) AS n FROM S_Msmt WHERE ts > {} AND ts <= {}",
                start,
                start + 10_000
            ),
            &d.db,
        )
        .unwrap();
        assert!(t.rows[0][0].as_i64().unwrap() > 0);
    }
}
