//! The prepared-shape cache: a BGP is rewritten, unfolded and planned once
//! per *shape*, and each query of the shape binds its constants into that.
//!
//! Query fleets are templates instantiated over and over — the same
//! pattern about another sensor, turbine or threshold. A shape is a BGP
//! with its subject and object constants lifted out as parameters
//! ([`ShapeKey::lift`]); classes and properties stay in the key, because
//! rewriting depends on them. Rewriting cannot tell one constant from
//! another (the TBox names none), so the rewriting and the unfolding of
//! one query of a shape, with the constants as parameters
//! ([`optique_mapping::unfold_prepared`]), serve every query of the shape:
//! binding its constants decides which branches survive and what their
//! constant tests compare with.
//!
//! **Validity.** An entry reads only the ontology and mappings (fixed for a
//! platform) and the schemas of the tables its statement reads: it records
//! each table's schema generation ([`Database::schema_generation`]) and a
//! lookup whose catalog disagrees misses (`schema`). Writes and merges
//! change no schema, so neither drops an entry, and neither does clearing
//! the [`crate::BgpCache`]. What a worker pool plans for a shape lives in
//! the pool, keyed by [`Shape::id`], and goes with the pool or with the
//! shape, whichever goes first: the pool holds the shape's statement
//! weakly, so evicting a shape here is the only eviction.
//!
//! **Bound.** At most [`SHAPE_CAPACITY`] entries; a full cache evicts its
//! least recently used entry (ties cannot happen: every use takes a fresh
//! tick), and remembers the last [`SHAPE_CAPACITY`] evicted keys so a
//! lookup of one misses as `evicted` rather than `new`. What the held
//! shapes keep is estimated by [`ShapeCache::bytes`].

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use optique_mapping::{PreparedUnfolding, UnfoldStats};
use optique_rdf::Term;
use optique_relational::optimizer::optimize;
use optique_relational::{
    bind_plan, estimated_bytes, Binding, Database, LogicalPlan, SelectStatement, SqlError,
};
use optique_rewrite::{Atom, QueryTerm, UnionQuery};

/// How many shapes the cache holds. The benchmark's workloads run 1 to 5
/// distinct shapes each (`fleet_register`'s 18 STARQL tasks bind 5) and at
/// most 14 between them; the bound is the power of two above twice that,
/// and caps what the cache keeps at a few megabytes (an entry with its
/// plans is 5–200 KB by [`ShapeCache::bytes`]).
pub const SHAPE_CAPACITY: usize = 32;

/// A BGP with its variables renamed and its constants lifted out: each
/// subject or object constant becomes a parameter (equal constants share
/// one), numbered in order of first occurrence, and the key keeps which
/// kind of term each parameter is — an IRI, a literal or a blank node meet
/// term maps differently.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// The atoms, the `i`-th parameter written as the blank node `i`
    /// (every constant is lifted, so no blank node of the query remains).
    atoms: Vec<Atom>,
    /// Per parameter, its kind.
    kinds: Vec<ParamKind>,
}

/// What kind of term a parameter is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ParamKind {
    Iri,
    Literal,
    BNode,
}

/// A BGP split into its shape and what one query puts into it.
pub struct Lifted {
    /// The shape.
    pub key: ShapeKey,
    /// The constants, in parameter order.
    pub constants: Vec<Term>,
    /// The atoms with their variables renamed `v0`, `v1`, … in order of
    /// first occurrence and their constants kept: what the shape is built
    /// from. Answers are positional, so the names do not matter to them.
    pub atoms: Vec<Atom>,
    /// The renamed variables, in order (the BGP's answer variables).
    pub vars: Vec<String>,
}

impl ShapeKey {
    /// The shape of `atoms`: variables renamed in order of first
    /// occurrence (a shape does not depend on what its variables are
    /// called), constants lifted out.
    pub fn lift(atoms: &[Atom]) -> Lifted {
        let mut constants: Vec<Term> = Vec::new();
        let mut kinds = Vec::new();
        let mut vars: Vec<String> = Vec::new();
        // Per term: the renamed term and its placeholder in the key.
        let mut lift = |term: &QueryTerm| match term {
            QueryTerm::Var(name) => {
                let index = vars.iter().position(|v| v == name).unwrap_or_else(|| {
                    vars.push(name.clone());
                    vars.len() - 1
                });
                let renamed = QueryTerm::Var(format!("v{index}"));
                (renamed.clone(), renamed)
            }
            QueryTerm::Const(constant) => {
                let index = match constants.iter().position(|c| c == constant) {
                    Some(index) => index,
                    None => {
                        kinds.push(match constant {
                            Term::Iri(_) => ParamKind::Iri,
                            Term::Literal(_) => ParamKind::Literal,
                            Term::BNode(_) => ParamKind::BNode,
                        });
                        constants.push(constant.clone());
                        constants.len() - 1
                    }
                };
                (term.clone(), QueryTerm::Const(Term::BNode(index as u64)))
            }
        };
        let (renamed, keyed): (Vec<Atom>, Vec<Atom>) = (atoms.iter())
            .map(|atom| match atom {
                Atom::Class { class, arg } => {
                    let (arg, key) = lift(arg);
                    let class = class.clone();
                    (
                        Atom::Class {
                            class: class.clone(),
                            arg,
                        },
                        Atom::Class { class, arg: key },
                    )
                }
                Atom::Property {
                    property,
                    subject,
                    object,
                } => {
                    let (subject, subject_key) = lift(subject);
                    let (object, object_key) = lift(object);
                    let property = property.clone();
                    (
                        Atom::Property {
                            property: property.clone(),
                            subject,
                            object,
                        },
                        Atom::Property {
                            property,
                            subject: subject_key,
                            object: object_key,
                        },
                    )
                }
            })
            .unzip();
        let vars = (0..vars.len()).map(|i| format!("v{i}")).collect();
        Lifted {
            key: ShapeKey {
                atoms: keyed,
                kinds,
            },
            constants,
            atoms: renamed,
            vars,
        }
    }
}

/// Why a lookup did not answer from a planned shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeMiss {
    /// The shape was never seen (or not since the cache forgot it was
    /// evicted).
    New,
    /// A table the entry reads has another schema generation now.
    Schema,
    /// The entry exists, but the pool (or the single node) executing it had
    /// no plan for it.
    Layout,
    /// The entry was evicted to bound the cache.
    Evicted,
    /// A semi-join restriction rides on the execution: its statement is
    /// bound from the entry and planned for this execution only.
    Restricted,
}

impl ShapeMiss {
    /// Every reason, in [`ShapeCache::outcomes`] order.
    pub const ALL: [ShapeMiss; 5] = [
        ShapeMiss::New,
        ShapeMiss::Schema,
        ShapeMiss::Layout,
        ShapeMiss::Evicted,
        ShapeMiss::Restricted,
    ];

    /// The reason as a span attribute value.
    pub fn as_str(self) -> &'static str {
        match self {
            ShapeMiss::New => "new",
            ShapeMiss::Schema => "schema",
            ShapeMiss::Layout => "layout",
            ShapeMiss::Evicted => "evicted",
            ShapeMiss::Restricted => "restricted",
        }
    }
}

/// One prepared shape: the rewriting, the unfolding with parameters and,
/// once a single-node execution asked for it, the optimized plan.
pub struct Shape {
    /// Unique among the shapes of a process: a rebuilt shape gets a new id,
    /// so a pool's plans keyed by the old one are never served for it.
    pub id: u64,
    /// The PerfectRef rewriting, over one query's constants (rewriting
    /// treats every constant alike, so it is the shape's).
    pub rewriting: UnionQuery,
    /// The unfolded `UNION ALL`, `Param(i)` for the `i`-th constant.
    pub statement: Option<Arc<SelectStatement>>,
    /// Per branch, what binding decides about it, and the counts of a
    /// binding that prunes nothing.
    unfolding: PreparedUnfolding,
    /// The tables `statement` reads, with the schema generation each had.
    pub tables: Vec<(String, u64)>,
    /// The single-node plan of `statement`, built by the first single-node
    /// execution.
    local: OnceLock<Result<LogicalPlan, SqlError>>,
    /// The estimated sizes of all but `local`, and of `local`, taken when
    /// first asked for: the query path never pays for them.
    bytes: OnceLock<usize>,
    local_bytes: OnceLock<usize>,
}

impl Shape {
    /// A shape over `rewriting` and its prepared `unfolding`, reading the
    /// tables of `db` its statement names, under a fresh [`Self::id`].
    pub fn new(rewriting: UnionQuery, mut unfolding: PreparedUnfolding, db: &Database) -> Self {
        static IDS: AtomicU64 = AtomicU64::new(1);
        let id = IDS.fetch_add(1, Ordering::Relaxed);
        let statement = unfolding.statement.take().map(Arc::new);
        let tables = (statement.as_deref())
            .map(optique_relational::referenced_tables)
            .unwrap_or_default()
            .into_iter()
            .map(|table| {
                let generation = db.schema_generation(&table).unwrap_or(0);
                (table, generation)
            })
            .collect();
        Shape {
            id,
            rewriting,
            statement,
            unfolding,
            tables,
            local: OnceLock::new(),
            bytes: OnceLock::new(),
            local_bytes: OnceLock::new(),
        }
    }

    /// The shape's estimated size ([`estimated_bytes`]), its single-node
    /// plan included once built.
    pub fn bytes(&self) -> usize {
        let held = *self.bytes.get_or_init(|| {
            std::mem::size_of::<Shape>()
                + self.statement.as_deref().map_or(0, estimated_bytes)
                + estimated_bytes(&self.rewriting)
                + estimated_bytes(&self.unfolding.guards)
        });
        let local = self.local.get().map_or(0, |plan| {
            *(self.local_bytes).get_or_init(|| plan.as_ref().map_or(0, estimated_bytes))
        });
        held + local
    }

    /// True when every table the shape reads still has the schema
    /// generation it was built against in `db`.
    fn current_in(&self, db: &Database) -> bool {
        (self.tables.iter())
            .all(|(table, generation)| db.schema_generation(table).unwrap_or(0) == *generation)
    }

    /// Binds `constants` (in parameter order): the binding and the counts
    /// unfolding the constants would report.
    pub fn bind(&self, constants: &[Term]) -> (Binding, UnfoldStats) {
        self.unfolding.bind(constants)
    }

    /// The single-node plan of the shape bound to `binding` over `db`'s
    /// schemas, and whether this call planned it (the first single-node
    /// execution does).
    pub fn local_plan(
        &self,
        binding: &Binding,
        db: &Database,
    ) -> Result<(Cow<'_, LogicalPlan>, bool), SqlError> {
        let Some(statement) = &self.statement else {
            return Err(SqlError::Execution("the shape unfolds to nothing".into()));
        };
        let mut built = false;
        let plan = self.local.get_or_init(|| {
            built = true;
            optique_relational::plan::plan_select(statement, db).map(optimize)
        });
        let plan = plan.as_ref().map_err(Clone::clone)?;
        Ok((bind_plan(plan, &binding.values, &binding.live)?, built))
    }
}

/// The bounded cache of prepared shapes a platform's static queries share.
#[derive(Default)]
pub struct ShapeCache {
    inner: Mutex<Entries>,
    /// BGP executions that hit, then those that missed, per
    /// [`ShapeMiss::ALL`] reason.
    outcomes: [AtomicU64; 6],
}

#[derive(Default)]
struct Entries {
    /// Shape and the tick of its last use.
    shapes: HashMap<ShapeKey, (Arc<Shape>, u64)>,
    /// Keys evicted, with the tick of their eviction.
    evicted: HashMap<ShapeKey, u64>,
    clock: u64,
}

impl ShapeCache {
    /// An empty cache.
    pub fn new() -> Self {
        ShapeCache::default()
    }

    /// The shape of `key` if one is cached and current in `db`; otherwise
    /// the reason it is not.
    pub fn lookup(&self, key: &ShapeKey, db: &Database) -> Result<Arc<Shape>, ShapeMiss> {
        let mut guard = self.inner.lock().expect("shape cache lock");
        let entries = &mut *guard;
        entries.clock += 1;
        let miss = match entries.shapes.get_mut(key) {
            Some((shape, used)) if shape.current_in(db) => {
                *used = entries.clock;
                return Ok(Arc::clone(shape));
            }
            Some(_) => ShapeMiss::Schema,
            None if entries.evicted.contains_key(key) => ShapeMiss::Evicted,
            None => ShapeMiss::New,
        };
        Err(miss)
    }

    /// Caches `shape` under `key`, evicting the least recently used entry
    /// of a full cache.
    pub fn store(&self, key: ShapeKey, shape: Arc<Shape>) {
        let mut entries = self.inner.lock().expect("shape cache lock");
        entries.clock += 1;
        let clock = entries.clock;
        entries.evicted.remove(&key);
        entries.shapes.insert(key, (shape, clock));
        while entries.shapes.len() > SHAPE_CAPACITY {
            let oldest = (entries.shapes.iter())
                .min_by_key(|(_, (_, used))| *used)
                .map(|(key, _)| key.clone())
                .expect("a full cache holds entries");
            entries.shapes.remove(&oldest);
            entries.evicted.insert(oldest, clock);
        }
        while entries.evicted.len() > SHAPE_CAPACITY {
            let oldest = (entries.evicted.iter())
                .min_by_key(|(_, at)| **at)
                .map(|(key, _)| key.clone())
                .expect("non-empty");
            entries.evicted.remove(&oldest);
        }
    }

    /// Counts one BGP execution's outcome: a hit (`None`) or a miss and
    /// its reason.
    pub fn record(&self, miss: Option<ShapeMiss>) {
        let at = miss.map_or(0, |miss| 1 + miss as usize);
        self.outcomes[at].fetch_add(1, Ordering::Relaxed);
    }

    /// The outcomes [`Self::record`] counted: hits, then misses per
    /// [`ShapeMiss::ALL`] reason.
    pub fn outcomes(&self) -> (u64, [u64; 5]) {
        let count = |at: usize| self.outcomes[at].load(Ordering::Relaxed);
        (count(0), std::array::from_fn(|reason| count(1 + reason)))
    }

    /// Shapes held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("shape cache lock").shapes.len()
    }

    /// True when no shape is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The held shapes' estimated size in bytes ([`Shape::bytes`]), taken
    /// outside the lock, which lookups need.
    pub fn bytes(&self) -> usize {
        let shapes: Vec<Arc<Shape>> = (self.inner.lock().expect("shape cache lock").shapes)
            .values()
            .map(|(shape, _)| Arc::clone(shape))
            .collect();
        shapes.iter().map(|shape| shape.bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_rdf::{Iri, Literal};

    fn p(name: &str) -> Iri {
        Iri::new(format!("http://x/{name}"))
    }

    #[test]
    fn lifting_keeps_predicates_and_the_equality_of_constants() {
        let c = |s: &str| QueryTerm::Const(Term::iri(s));
        let atoms = |a: &str, b: &str| {
            vec![
                Atom::property(p("p"), QueryTerm::var("s"), c(a)),
                Atom::property(p("q"), c(b), QueryTerm::var("s")),
            ]
        };
        let lifted = ShapeKey::lift(&atoms("http://x/1", "http://x/2"));
        let one = lifted.key;
        assert_eq!(lifted.constants.len(), 2);
        assert_eq!(lifted.vars, ["v0"]);
        assert_eq!(
            one,
            ShapeKey::lift(&atoms("http://x/3", "http://x/4")).key,
            "parameters"
        );
        let same = ShapeKey::lift(&atoms("http://x/1", "http://x/1"));
        assert_eq!(same.constants.len(), 1);
        assert_ne!(one, same.key, "equal constants are one parameter");
        let renamed = |v: &str| {
            vec![
                Atom::property(p("p"), QueryTerm::var(v), c("http://x/1")),
                Atom::property(p("q"), c("http://x/2"), QueryTerm::var(v)),
            ]
        };
        assert_eq!(
            one,
            ShapeKey::lift(&renamed("sensor")).key,
            "variables are renamed"
        );
        let literal = vec![
            Atom::property(
                p("p"),
                QueryTerm::var("s"),
                QueryTerm::Const(Term::Literal(Literal::integer(1))),
            ),
            Atom::property(p("q"), c("http://x/2"), QueryTerm::var("s")),
        ];
        assert_ne!(
            one,
            ShapeKey::lift(&literal).key,
            "a literal is another kind"
        );
        let other = vec![
            Atom::property(p("r"), QueryTerm::var("s"), c("http://x/1")),
            Atom::property(p("q"), c("http://x/2"), QueryTerm::var("s")),
        ];
        assert_ne!(
            one,
            ShapeKey::lift(&other).key,
            "properties stay in the key"
        );
    }
}
