//! `optique::server` — the concurrent multi-tenant serving layer.
//!
//! The paper's deployment story (§Siemens) is many engineers querying one
//! platform at once. [`OptiquePlatform`] itself is a shared `&self` service
//! whose queries run on immutable [`PlatformSnapshot`]s
//! (crate::platform); this module puts a *front door* on it:
//!
//! - [`Server::serve`] spawns a fixed pool of worker threads draining one
//!   bounded job queue.
//! - [`Client`] is a cheap per-tenant handle; [`Client::submit`] enqueues a
//!   [`Request`] and returns a [`QueryHandle`] to wait on, and the
//!   `query`/`query_distributed`/`insert`/`tick` conveniences wrap
//!   submit-and-wait.
//! - **Admission control**: a full queue sheds load with a typed
//!   [`ServerError::Overloaded`] instead of letting latency collapse.
//! - **Per-tenant quotas** ([`TenantQuota`]): a cap on requests in flight
//!   (queued + executing) and a token-bucket admission rate.
//!
//! Every admission decision and queue transition feeds the platform's
//! [`MetricsRegistry`]:
//! `server.admitted` / `server.shed` / `server.completed` counters,
//! per-tenant `server.tenant.<t>.*` counters, the `server.queue_depth`
//! gauge, and `server.queue_wait_us` / `server.request_us` histograms.
//!
//! Dropping the [`Server`] shuts the pool down: workers finish the job in
//! hand, still-queued jobs are answered with [`ServerError::ShutDown`].
//!
//! With `workers: 0` the server accepts (and meters) but never executes —
//! a deterministic mode the admission-control tests use to fill the queue
//! without racing the drain.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use optique_relational::Value;
use optique_sparql::SparqlResults;
use optique_starql::TickOutput;
use optique_telemetry::MetricsRegistry;

use crate::platform::OptiquePlatform;
#[allow(unused_imports)] // module docs link it
use crate::platform::PlatformSnapshot;

/// Per-tenant admission limits.
#[derive(Clone, Copy, Debug)]
pub struct TenantQuota {
    /// Maximum requests the tenant may have in flight (queued + executing)
    /// at once; the next submission gets [`ServerError::QuotaExceeded`].
    pub max_in_flight: usize,
    /// Sustained admissions per second, enforced by a token bucket with a
    /// burst of `max(rate, 1)`; `0` disables rate limiting.
    pub rate_per_sec: u32,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_in_flight: usize::MAX,
            rate_per_sec: 0,
        }
    }
}

/// Serving-layer knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads draining the queue (`0` = accept-only: requests
    /// queue and meter but never execute — for deterministic admission
    /// tests).
    pub workers: usize,
    /// Bound on queued-but-not-yet-claimed jobs; submissions beyond it are
    /// shed with [`ServerError::Overloaded`].
    pub queue_capacity: usize,
    /// Quota applied to tenants without an explicit entry.
    pub default_quota: TenantQuota,
    /// Per-tenant overrides.
    pub tenant_quotas: HashMap<String, TenantQuota>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            default_quota: TenantQuota::default(),
            tenant_quotas: HashMap::new(),
        }
    }
}

impl ServerConfig {
    /// Sets an explicit quota for `tenant` (builder-style).
    pub fn with_tenant_quota(mut self, tenant: &str, quota: TenantQuota) -> Self {
        self.tenant_quotas.insert(tenant.to_string(), quota);
        self
    }

    fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.tenant_quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }
}

/// One unit of client work.
#[derive(Clone, Debug)]
pub enum Request {
    /// A static SPARQL query ([`OptiquePlatform::query_static`]).
    Sparql(String),
    /// A static SPARQL query federated over `workers`
    /// ([`OptiquePlatform::query_static_distributed`]).
    SparqlDistributed {
        /// Query text.
        text: String,
        /// Federation pool size.
        workers: usize,
    },
    /// A relational write ([`OptiquePlatform::insert_static`]).
    InsertStatic {
        /// Target static table.
        table: String,
        /// Rows to append.
        rows: Vec<Vec<Value>>,
    },
    /// One pulse tick for every registered continuous query
    /// ([`OptiquePlatform::tick_all`]).
    Tick(i64),
    /// Fold the novelty overlay into the base catalog now
    /// ([`OptiquePlatform::merge_now`]).
    Merge,
}

/// A completed request's payload.
#[derive(Clone, Debug)]
pub enum Response {
    /// Answer to [`Request::Sparql`] / [`Request::SparqlDistributed`].
    Solutions(SparqlResults),
    /// Rows appended by [`Request::InsertStatic`].
    Inserted(usize),
    /// Per-query outputs of [`Request::Tick`].
    Ticks(Vec<(u64, TickOutput)>),
    /// Overlay rows folded by [`Request::Merge`].
    Merged(usize),
}

/// Why the serving layer refused or failed a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// The bounded queue is full — back off and retry.
    Overloaded {
        /// Jobs queued when the submission was shed.
        queue_depth: usize,
        /// The configured queue bound.
        capacity: usize,
    },
    /// The tenant is at its in-flight cap.
    QuotaExceeded {
        /// The refusing tenant.
        tenant: String,
        /// Requests the tenant had in flight.
        in_flight: usize,
        /// The tenant's cap.
        max_in_flight: usize,
    },
    /// The tenant's token bucket is empty.
    RateLimited {
        /// The refusing tenant.
        tenant: String,
    },
    /// The platform rejected or failed the query itself.
    Query(String),
    /// The server shut down before the request could complete.
    ShutDown,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Overloaded {
                queue_depth,
                capacity,
            } => write!(f, "server overloaded: {queue_depth}/{capacity} jobs queued"),
            ServerError::QuotaExceeded {
                tenant,
                in_flight,
                max_in_flight,
            } => write!(
                f,
                "tenant {tenant} at quota: {in_flight}/{max_in_flight} in flight"
            ),
            ServerError::RateLimited { tenant } => {
                write!(f, "tenant {tenant} rate-limited")
            }
            ServerError::Query(e) => write!(f, "query failed: {e}"),
            ServerError::ShutDown => write!(f, "server shut down"),
        }
    }
}

impl std::error::Error for ServerError {}

/// A queued request with its reply channel.
struct Job {
    tenant: String,
    request: Request,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Response, ServerError>>,
}

/// Live admission state for one tenant.
struct TenantState {
    in_flight: usize,
    tokens: f64,
    refilled: Instant,
}

/// State shared between clients, workers, and the server handle.
struct Shared {
    platform: Arc<OptiquePlatform>,
    config: ServerConfig,
    queue: Mutex<VecDeque<Job>>,
    /// Signals workers that a job arrived or shutdown began.
    available: Condvar,
    shutdown: AtomicBool,
    tenants: Mutex<HashMap<String, TenantState>>,
}

impl Shared {
    fn registry(&self) -> &MetricsRegistry {
        self.platform.metrics()
    }

    /// Admission check: shutdown, in-flight quota, then rate. Reserves one
    /// in-flight slot on success — every exit path after this must
    /// eventually [`Self::release`] the tenant.
    fn admit(&self, tenant: &str) -> Result<(), ServerError> {
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServerError::ShutDown);
        }
        let quota = self.config.quota_for(tenant);
        let mut tenants = self.tenants.lock().expect("tenants lock");
        let burst = quota.rate_per_sec.max(1) as f64;
        let state = tenants.entry(tenant.to_string()).or_insert(TenantState {
            in_flight: 0,
            tokens: burst,
            refilled: Instant::now(),
        });
        if state.in_flight >= quota.max_in_flight {
            self.registry()
                .counter(&format!("server.tenant.{tenant}.rejected"))
                .inc();
            return Err(ServerError::QuotaExceeded {
                tenant: tenant.to_string(),
                in_flight: state.in_flight,
                max_in_flight: quota.max_in_flight,
            });
        }
        if quota.rate_per_sec > 0 {
            let now = Instant::now();
            let refill =
                now.duration_since(state.refilled).as_secs_f64() * f64::from(quota.rate_per_sec);
            state.tokens = (state.tokens + refill).min(burst);
            state.refilled = now;
            if state.tokens < 1.0 {
                self.registry()
                    .counter(&format!("server.tenant.{tenant}.rejected"))
                    .inc();
                return Err(ServerError::RateLimited {
                    tenant: tenant.to_string(),
                });
            }
            state.tokens -= 1.0;
        }
        state.in_flight += 1;
        Ok(())
    }

    /// Returns a tenant's in-flight slot.
    fn release(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().expect("tenants lock");
        if let Some(state) = tenants.get_mut(tenant) {
            state.in_flight = state.in_flight.saturating_sub(1);
        }
    }

    fn set_queue_depth(&self, depth: usize) {
        self.registry()
            .gauge("server.queue_depth")
            .set(depth as i64);
    }

    /// The worker loop: claim, execute, reply — until shutdown.
    fn work(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue lock");
                loop {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(job) = queue.pop_front() {
                        self.set_queue_depth(queue.len());
                        break job;
                    }
                    queue = self.available.wait(queue).expect("queue lock");
                }
            };
            self.registry()
                .histogram("server.queue_wait_us")
                .record(job.enqueued.elapsed().as_micros() as u64);
            let started = Instant::now();
            let result = execute(&self.platform, job.request);
            self.registry()
                .histogram("server.request_us")
                .record(started.elapsed().as_micros() as u64);
            self.registry()
                .counter(if result.is_ok() {
                    "server.completed"
                } else {
                    "server.errors"
                })
                .inc();
            self.registry()
                .counter(&format!("server.tenant.{}.completed", job.tenant))
                .inc();
            self.release(&job.tenant);
            // A caller that dropped its handle just doesn't hear back.
            let _ = job.reply.send(result);
        }
    }
}

/// Runs one request against the platform.
fn execute(platform: &OptiquePlatform, request: Request) -> Result<Response, ServerError> {
    match request {
        Request::Sparql(text) => platform
            .query_static(&text)
            .map(Response::Solutions)
            .map_err(ServerError::Query),
        Request::SparqlDistributed { text, workers } => platform
            .query_static_distributed(&text, workers)
            .map(Response::Solutions)
            .map_err(ServerError::Query),
        Request::InsertStatic { table, rows } => platform
            .insert_static(&table, rows)
            .map(Response::Inserted)
            .map_err(ServerError::Query),
        Request::Tick(tick_ms) => platform
            .tick_all(tick_ms)
            .map(Response::Ticks)
            .map_err(ServerError::Query),
        Request::Merge => platform
            .merge_now()
            .map(Response::Merged)
            .map_err(ServerError::Query),
    }
}

/// The thread-pool front-end over one [`OptiquePlatform`]. See the module
/// docs for the serving model.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `config.workers` worker threads over `platform` and returns
    /// the server handle. The platform stays directly usable alongside the
    /// server — the snapshot write path keeps both coherent.
    pub fn serve(platform: Arc<OptiquePlatform>, config: ServerConfig) -> Server {
        let worker_count = config.workers;
        let shared = Arc::new(Shared {
            platform,
            config,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tenants: Mutex::new(HashMap::new()),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("optique-server-{i}"))
                    .spawn(move || shared.work())
                    .expect("spawn server worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// A handle submitting requests as `tenant`. Handles are cheap; one
    /// tenant may hold many (they share the tenant's quota).
    pub fn client(&self, tenant: &str) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
            tenant: tenant.to_string(),
        }
    }

    /// The served platform.
    pub fn platform(&self) -> &Arc<OptiquePlatform> {
        &self.shared.platform
    }

    /// Jobs queued but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue lock").len()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Workers are gone; answer everything still queued.
        let drained: Vec<Job> = {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            self.shared.set_queue_depth(0);
            queue.drain(..).collect()
        };
        for job in drained {
            self.shared.release(&job.tenant);
            let _ = job.reply.send(Err(ServerError::ShutDown));
        }
    }
}

/// A per-tenant submission handle; see [`Server::client`].
#[derive(Clone)]
pub struct Client {
    shared: Arc<Shared>,
    tenant: String,
}

/// An in-flight request; [`QueryHandle::wait`] blocks for the reply.
pub struct QueryHandle {
    rx: mpsc::Receiver<Result<Response, ServerError>>,
}

impl QueryHandle {
    /// Blocks until the request completes (or the server shuts down).
    pub fn wait(self) -> Result<Response, ServerError> {
        self.rx.recv().unwrap_or(Err(ServerError::ShutDown))
    }
}

impl Client {
    /// The tenant this handle submits as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Enqueues `request` through admission control, returning a handle to
    /// wait on. Fails fast — without blocking — when the server is
    /// shutting down, the tenant is over quota or rate, or the queue is
    /// full.
    pub fn submit(&self, request: Request) -> Result<QueryHandle, ServerError> {
        self.shared.admit(&self.tenant)?;
        let (tx, rx) = mpsc::channel();
        {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            if queue.len() >= self.shared.config.queue_capacity {
                let depth = queue.len();
                drop(queue);
                self.shared.release(&self.tenant);
                self.shared.registry().counter("server.shed").inc();
                return Err(ServerError::Overloaded {
                    queue_depth: depth,
                    capacity: self.shared.config.queue_capacity,
                });
            }
            queue.push_back(Job {
                tenant: self.tenant.clone(),
                request,
                enqueued: Instant::now(),
                reply: tx,
            });
            self.shared.set_queue_depth(queue.len());
        }
        self.shared.available.notify_one();
        self.shared.registry().counter("server.admitted").inc();
        self.shared
            .registry()
            .counter(&format!("server.tenant.{}.admitted", self.tenant))
            .inc();
        Ok(QueryHandle { rx })
    }

    /// Submits a static SPARQL query and waits for its solutions.
    pub fn query(&self, text: &str) -> Result<SparqlResults, ServerError> {
        match self.submit(Request::Sparql(text.to_string()))?.wait()? {
            Response::Solutions(results) => Ok(results),
            other => Err(ServerError::Query(format!("unexpected response {other:?}"))),
        }
    }

    /// Submits a federated static query and waits for its solutions.
    pub fn query_distributed(
        &self,
        text: &str,
        workers: usize,
    ) -> Result<SparqlResults, ServerError> {
        let request = Request::SparqlDistributed {
            text: text.to_string(),
            workers,
        };
        match self.submit(request)?.wait()? {
            Response::Solutions(results) => Ok(results),
            other => Err(ServerError::Query(format!("unexpected response {other:?}"))),
        }
    }

    /// Submits a relational write and waits for the inserted-row count.
    pub fn insert(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, ServerError> {
        let request = Request::InsertStatic {
            table: table.to_string(),
            rows,
        };
        match self.submit(request)?.wait()? {
            Response::Inserted(n) => Ok(n),
            other => Err(ServerError::Query(format!("unexpected response {other:?}"))),
        }
    }

    /// Submits one pulse tick and waits for the per-query outputs.
    pub fn tick(&self, tick_ms: i64) -> Result<Vec<(u64, TickOutput)>, ServerError> {
        match self.submit(Request::Tick(tick_ms))?.wait()? {
            Response::Ticks(out) => Ok(out),
            other => Err(ServerError::Query(format!("unexpected response {other:?}"))),
        }
    }

    /// Submits a novelty merge and waits for the folded-row count.
    pub fn merge(&self) -> Result<usize, ServerError> {
        match self.submit(Request::Merge)?.wait()? {
            Response::Merged(n) => Ok(n),
            other => Err(ServerError::Query(format!("unexpected response {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optique_siemens::SiemensDeployment;

    fn platform() -> Arc<OptiquePlatform> {
        Arc::new(OptiquePlatform::from_siemens(SiemensDeployment::small()))
    }

    const SENSORS: &str = "SELECT ?s WHERE { ?s a sie:Sensor }";

    #[test]
    fn served_answers_match_direct_answers() {
        let p = platform();
        let direct = p.query_static(SENSORS).unwrap();
        let server = Server::serve(Arc::clone(&p), ServerConfig::default());
        let client = server.client("alice");
        assert_eq!(client.query(SENSORS).unwrap(), direct);
        assert_eq!(
            client.query_distributed(SENSORS, 2).unwrap().len(),
            direct.len()
        );
        let snap = p.metrics_snapshot();
        assert_eq!(snap.counter("server.admitted"), Some(2));
        assert_eq!(snap.counter("server.completed"), Some(2));
        assert_eq!(snap.counter("server.tenant.alice.admitted"), Some(2));
        assert_eq!(snap.gauge("server.queue_depth"), Some(0));
    }

    /// Regression: an over-large `workers` panicked the serving thread
    /// ("capacity overflow" while sharding) and, with one thread, left the
    /// server deaf. It is a query error now, and the thread keeps serving.
    #[test]
    fn oversized_worker_count_fails_the_request_not_the_serving_thread() {
        let p = platform();
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::serve(Arc::clone(&p), config);
        let client = server.client("alice");
        let err = client.query_distributed(SENSORS, usize::MAX).unwrap_err();
        assert!(matches!(err, ServerError::Query(_)), "got {err:?}");
        assert_eq!(
            client.query(SENSORS).unwrap(),
            p.query_static(SENSORS).unwrap()
        );
    }

    #[test]
    fn writes_and_ticks_flow_through_the_server() {
        let p = platform();
        let server = Server::serve(Arc::clone(&p), ServerConfig::default());
        let client = server.client("writer");
        let before = client
            .query("SELECT ?t WHERE { ?t a sie:Turbine }")
            .unwrap()
            .len();
        let turbines = p.db().table("turbines").unwrap().clone();
        let mut row: Vec<Value> = turbines.rows[0].clone();
        let id_col = turbines.schema.index_of("tid").unwrap();
        row[id_col] = Value::Int(91_001);
        assert_eq!(client.insert("turbines", vec![row]).unwrap(), 1);
        let after = client
            .query("SELECT ?t WHERE { ?t a sie:Turbine }")
            .unwrap()
            .len();
        assert_eq!(after, before + 1);
        // The write landed in the overlay; a served merge folds it and a
        // second merge is a no-op.
        assert_eq!(client.merge().unwrap(), 1);
        assert_eq!(client.merge().unwrap(), 0);
        assert_eq!(
            client
                .query("SELECT ?t WHERE { ?t a sie:Turbine }")
                .unwrap()
                .len(),
            after
        );
        // Ticks are servable too (no queries registered → empty round).
        assert!(client.tick(609_000).unwrap().is_empty());
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let p = platform();
        // Accept-only: nothing drains, so admission is deterministic.
        let server = Server::serve(
            Arc::clone(&p),
            ServerConfig {
                workers: 0,
                queue_capacity: 2,
                ..ServerConfig::default()
            },
        );
        let client = server.client("burst");
        let h1 = client.submit(Request::Sparql(SENSORS.into())).unwrap();
        let h2 = client.submit(Request::Sparql(SENSORS.into())).unwrap();
        match client.submit(Request::Sparql(SENSORS.into())) {
            Err(ServerError::Overloaded {
                queue_depth,
                capacity,
            }) => {
                assert_eq!((queue_depth, capacity), (2, 2));
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|_| ())),
        }
        assert_eq!(p.metrics_snapshot().counter("server.shed"), Some(1));
        // Shutdown answers the queued jobs.
        drop(server);
        assert!(matches!(h1.wait(), Err(ServerError::ShutDown)));
        assert!(matches!(h2.wait(), Err(ServerError::ShutDown)));
        assert_eq!(p.metrics_snapshot().gauge("server.queue_depth"), Some(0));
    }

    #[test]
    fn in_flight_quota_rejects_the_over_limit_submission() {
        let p = platform();
        let quota = TenantQuota {
            max_in_flight: 1,
            rate_per_sec: 0,
        };
        let server = Server::serve(
            Arc::clone(&p),
            ServerConfig {
                workers: 0,
                ..ServerConfig::default()
            }
            .with_tenant_quota("capped", quota),
        );
        let capped = server.client("capped");
        let _held = capped.submit(Request::Sparql(SENSORS.into())).unwrap();
        match capped.submit(Request::Sparql(SENSORS.into())) {
            Err(ServerError::QuotaExceeded {
                tenant,
                in_flight,
                max_in_flight,
            }) => {
                assert_eq!(
                    (tenant.as_str(), in_flight, max_in_flight),
                    ("capped", 1, 1)
                );
            }
            other => panic!("expected QuotaExceeded, got {:?}", other.map(|_| ())),
        }
        // Another tenant is unaffected by capped's quota.
        let other = server.client("free");
        other.submit(Request::Sparql(SENSORS.into())).unwrap();
        assert_eq!(
            p.metrics_snapshot()
                .counter("server.tenant.capped.rejected"),
            Some(1)
        );
    }

    #[test]
    fn rate_limit_rejects_the_burst_exceeding_submission() {
        let p = platform();
        let quota = TenantQuota {
            max_in_flight: usize::MAX,
            rate_per_sec: 1,
        };
        let server = Server::serve(
            Arc::clone(&p),
            ServerConfig::default().with_tenant_quota("metered", quota),
        );
        let client = server.client("metered");
        client.query(SENSORS).unwrap();
        // Burst of 1 is spent; the immediate follow-up is rate-limited.
        match client.query(SENSORS) {
            Err(ServerError::RateLimited { tenant }) => assert_eq!(tenant, "metered"),
            other => panic!("expected RateLimited, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn concurrent_clients_all_get_correct_answers() {
        let p = platform();
        let direct = p.query_static(SENSORS).unwrap();
        let server = Server::serve(Arc::clone(&p), ServerConfig::default());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let client = server.client(&format!("tenant-{t}"));
                let direct = &direct;
                scope.spawn(move || {
                    for _ in 0..4 {
                        assert_eq!(&client.query(SENSORS).unwrap(), direct);
                    }
                });
            }
        });
        let snap = p.metrics_snapshot();
        assert_eq!(snap.counter("server.admitted"), Some(32));
        assert_eq!(snap.counter("server.completed"), Some(32));
    }

    #[test]
    fn submitting_after_shutdown_fails_fast() {
        let p = platform();
        let server = Server::serve(Arc::clone(&p), ServerConfig::default());
        let client = server.client("late");
        drop(server);
        assert_eq!(
            client.submit(Request::Sparql(SENSORS.into())).err(),
            Some(ServerError::ShutDown)
        );
    }
}
