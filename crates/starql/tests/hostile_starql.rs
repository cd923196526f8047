//! Hostile text never panics the STARQL front end: the 18 catalog tasks
//! take one to three random edits (junk inserted, a run deleted, the tail
//! cut off) and go through `parse_starql` and, at the platform boundary,
//! `register_starql` → `tick_all` → `deregister`. Every outcome is `Ok` or
//! an `Err`; a parser `Err` points into the text: its line is one of the
//! text's, and its column at most one past that line's last character.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::sync::OnceLock;

use common::{hostile, proptest_cases};
use optique::OptiquePlatform;
use optique_siemens::catalog::TaskQuery;
use optique_siemens::{diagnostic_tasks, SiemensDeployment};
use optique_starql::parse_starql;
use proptest::prelude::*;
use proptest::sample::Index;

fn seed() -> impl Strategy<Value = String> {
    static TASKS: OnceLock<Vec<String>> = OnceLock::new();
    let tasks = TASKS.get_or_init(|| {
        diagnostic_tasks()
            .into_iter()
            .filter_map(|task| match task.query {
                TaskQuery::StarQl(text) => Some(text),
                TaskQuery::SqlPlus(_) => None,
            })
            .collect()
    });
    any::<Index>().prop_map(|i| tasks[i.index(tasks.len())].clone())
}

/// The platform and an instant inside its recorded stream.
fn platform() -> &'static (OptiquePlatform, i64) {
    static PLATFORM: OnceLock<(OptiquePlatform, i64)> = OnceLock::new();
    PLATFORM.get_or_init(|| {
        let deployment = SiemensDeployment::small();
        let config = &deployment.stream_config;
        let tick = config.start_ms + config.duration_ms / 2;
        (OptiquePlatform::from_siemens(deployment), tick)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(512)))]

    #[test]
    fn mutated_starql_parses_or_errors_inside_the_text(
        seed in seed(),
        edits in hostile::edits(),
    ) {
        let text = hostile::mutate(&seed, &edits);
        if let Err(e) = parse_starql(&text, &optique_siemens::ontology::namespaces()) {
            prop_assert!(common::hostile::inside(&text, e.position), "{e} points past {text:?}");
        }
    }

    #[test]
    fn mutated_starql_never_panics_the_platform(
        seed in seed(),
        edits in hostile::edits(),
        workers in 0usize..3,
    ) {
        let text = hostile::mutate(&seed, &edits);
        let (platform, tick) = platform();
        let registered = match workers {
            0 => platform.register_starql(&text),
            n => platform.register_starql_distributed(&text, n),
        };
        if let Ok(id) = registered {
            let _ = platform.tick_all(*tick);
            prop_assert!(platform.deregister(id));
        }
    }
}
