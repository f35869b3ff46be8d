//! The virtual-timeline service loop.
//!
//! `run_serve` replays an open-loop arrival timeline against one device
//! on a simulated clock:
//!
//! 1. Arrivals are offered to [`Admission`] in timestamp order; admitted
//!    queries join their tenant's FIFO queue.
//! 2. Whenever the device is free and something is queued, the next
//!    *batch* starts: a weighted-round-robin scan picks the head tenant
//!    (so the heavy hitter cannot monopolize dequeue order either), and
//!    every queued query of the same [`QueryClass`] that has already
//!    arrived merges into the batch up to `max_batch_walks`.
//! 3. Cacheable (single-source) batches first try the [`WalkCache`]; a
//!    hit is served by alias sampling at DRAM cost, a miss runs the
//!    engine with walk logging and installs the endpoint distribution.
//! 4. Batch service occupies the device for the engine's simulated run
//!    time; every query in the batch completes at `start + service`.
//!    FlashWalker batches all run on one device built on one
//!    [`FlashImage`] when the service starts, reset before each batch.
//!
//! Event ordering is deterministic: batch starts happen only when the
//! device-free time does not exceed the next arrival, ties broken in
//! favor of serving, tenants scanned in fixed order. Per-batch engine
//! seeds derive from the config seed and the batch index via
//! [`fw_sim::derive_stream_seed`], so the whole run — and the record
//! built from it — is a pure function of [`ServeConfig`].

use std::collections::VecDeque;
use std::sync::Arc;

use flashwalker::{AccelConfig, FlashImage, FlashWalkerSim};
use fw_graph::{Csr, PartitionedGraph, VertexId};
use fw_nand::SsdConfig;
use fw_sim::{derive_stream_seed, Xoshiro256pp};
use fw_trace::{JourneyLatency, Json};
use fw_walk::{RunReport, WalkEngine};
use graphwalker::{GraphWalkerSim, GwConfig};

use crate::admission::{Admission, AdmissionConfig, AdmissionStats};
use crate::arrival::ArrivalProcess;
use crate::cache::{CacheStats, WalkCache, WalkCacheConfig};
use crate::query::{QueryMix, WalkQuery};

/// RNG stream tag for per-batch engine seeds.
pub const SERVE_BATCH_STREAM: u64 = 0xBA7C4;
/// RNG stream tag for cache alias sampling.
pub const SERVE_CACHE_STREAM: u64 = 0xCAC4E;

/// Which engine serves the batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeEngine {
    /// The in-storage accelerator.
    Flashwalker,
    /// The host-centric out-of-core baseline.
    Graphwalker,
}

impl ServeEngine {
    /// Engine tag for records and scenario names.
    pub fn name(&self) -> &'static str {
        match self {
            ServeEngine::Flashwalker => "flashwalker",
            ServeEngine::Graphwalker => "graphwalker",
        }
    }
}

/// The graph the service sits on, prepared once and shared by every
/// scenario (mirrors `fw-bench`'s `Prepared`, borrowed so `fw-serve`
/// does not depend on the bench crate).
pub struct ServeHost<'g> {
    /// The graph.
    pub csr: &'g Csr,
    /// FlashWalker's fine-grained partitioning of it.
    pub pg: &'g PartitionedGraph,
    /// Vertex-id width for GraphWalker's block layout.
    pub id_bytes: u32,
    /// GraphWalker's host memory capacity.
    pub gw_memory_bytes: u64,
}

/// One complete service-run description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Engine serving the batches.
    pub engine: ServeEngine,
    /// Master seed; arrivals, the query mix, batch seeds and cache
    /// sampling all derive distinct streams from it.
    pub seed: u64,
    /// Number of queries offered.
    pub queries: u64,
    /// Arrival process.
    pub arrival: ArrivalProcess,
    /// Query mix.
    pub mix: QueryMix,
    /// Admission policy.
    pub admission: AdmissionConfig,
    /// Walk-cache policy.
    pub cache: WalkCacheConfig,
    /// Walk budget per merged batch.
    pub max_batch_walks: u64,
    /// Ignored: every engine run is one sequential event loop. Kept so
    /// existing struct literals still build.
    pub threads: u32,
}

/// Per-query completion record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Query id (arrival order).
    pub id: u64,
    /// Issuing tenant.
    pub tenant: u32,
    /// Class name (`ppr` / `deepwalk` / `node2vec` / `khop`).
    pub class: &'static str,
    /// Walks the query asked for.
    pub walks: u64,
    /// Arrival time, simulated ns.
    pub arrival_ns: u64,
    /// Batch service start, simulated ns.
    pub start_ns: u64,
    /// Completion, simulated ns.
    pub done_ns: u64,
    /// Whether the walk cache answered it.
    pub cached: bool,
}

impl QueryOutcome {
    /// Queueing delay before service started.
    pub fn wait_ns(&self) -> u64 {
        self.start_ns - self.arrival_ns
    }

    /// End-to-end latency the caller observed.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.arrival_ns
    }

    /// Time in service.
    pub fn service_ns(&self) -> u64 {
        self.done_ns - self.start_ns
    }
}

/// Everything a service run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Engine tag.
    pub engine: &'static str,
    /// Admission accounting (`admitted + rejected == offered`, exact).
    pub admission: AdmissionStats,
    /// Per-query completions, in completion order (admitted queries
    /// only).
    pub outcomes: Vec<QueryOutcome>,
    /// Last completion or arrival, simulated ns.
    pub makespan_ns: u64,
    /// Batches served (cache hits included).
    pub batches: u64,
    /// Batches that ran the engine.
    pub engine_runs: u64,
    /// Simulated ns spent inside engine runs.
    pub engine_sim_ns: u64,
    /// Walks completed (engine + cache).
    pub walks_completed: u64,
    /// Hops executed by engine runs.
    pub hops: u64,
    /// Walk-cache counters.
    pub cache: CacheStats,
    /// End-to-end per-query latency percentiles (exact nearest-rank,
    /// shared with `fw-trace` journeys).
    pub latency: JourneyLatency,
    /// Queueing-wait percentiles.
    pub wait: JourneyLatency,
    /// Service-time percentiles.
    pub service: JourneyLatency,
    /// Mean `wait / latency` over the p99 cohort (latency ≥ p99): how
    /// much of the tail is queueing rather than service.
    pub tail_wait_share: f64,
    /// Nominal offered load, queries per second.
    pub offered_qps: f64,
    /// Admitted completions per second of makespan.
    pub achieved_qps: f64,
    /// Completed walks per second of makespan.
    pub walks_per_sec: f64,
}

impl ServeReport {
    /// Verify the report's internal accounting identities.
    pub fn check(&self) -> Result<(), String> {
        self.admission.check()?;
        if self.outcomes.len() as u64 != self.admission.admitted {
            return Err(format!(
                "{} outcomes for {} admitted queries",
                self.outcomes.len(),
                self.admission.admitted
            ));
        }
        if self.latency.count != self.admission.admitted {
            return Err(format!(
                "latency count {} != admitted {}",
                self.latency.count, self.admission.admitted
            ));
        }
        if self.walks_completed != self.admission.walks_admitted {
            return Err(format!(
                "walks completed {} != walks admitted {}",
                self.walks_completed, self.admission.walks_admitted
            ));
        }
        for o in &self.outcomes {
            if o.start_ns < o.arrival_ns || o.done_ns < o.start_ns || o.done_ns > self.makespan_ns {
                return Err(format!("inconsistent outcome timeline: {o:?}"));
            }
        }
        Ok(())
    }

    /// The aggregate view as a [`fw_trace::json`] object (per-query
    /// outcomes stay in memory; records carry the distributions).
    pub fn to_json(&self) -> Json {
        Json::obj(self.json_fields())
    }

    /// The fields of [`Self::to_json`], for records that prepend their
    /// own identity keys. Field order is fixed and floats print at fixed
    /// precision, so equal reports render byte-identically.
    pub fn json_fields(&self) -> Vec<(&'static str, Json)> {
        let a = &self.admission;
        let tenants = a
            .per_tenant
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Json::obj(vec![
                    ("tenant", Json::u(i as u64)),
                    ("offered", Json::u(t.offered)),
                    ("admitted", Json::u(t.admitted)),
                    ("rejected", Json::u(t.rejected)),
                ])
            })
            .collect();
        let c = &self.cache;
        vec![
            ("engine", Json::s(self.engine)),
            ("offered", Json::u(a.offered)),
            ("admitted", Json::u(a.admitted)),
            ("rejected", Json::u(a.rejected)),
            ("rejected_capacity", Json::u(a.rejected_capacity)),
            ("rejected_fairness", Json::u(a.rejected_fairness)),
            ("walks_offered", Json::u(a.walks_offered)),
            ("walks_admitted", Json::u(a.walks_admitted)),
            ("walks_completed", Json::u(self.walks_completed)),
            ("tenants", Json::Arr(tenants)),
            ("makespan_ns", Json::u(self.makespan_ns)),
            ("batches", Json::u(self.batches)),
            ("engine_runs", Json::u(self.engine_runs)),
            ("engine_sim_ns", Json::u(self.engine_sim_ns)),
            ("hops", Json::u(self.hops)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::u(c.hits)),
                    ("misses", Json::u(c.misses)),
                    ("installs", Json::u(c.installs)),
                    ("evictions", Json::u(c.evictions)),
                    ("cached_walks", Json::u(c.cached_walks_served)),
                ]),
            ),
            ("latency", self.latency.to_json()),
            ("wait", self.wait.to_json()),
            ("service", self.service.to_json()),
            ("tail_wait_share", Json::f(self.tail_wait_share, 4)),
            ("offered_qps", Json::f(self.offered_qps, 3)),
            ("achieved_qps", Json::f(self.achieved_qps, 3)),
            ("walks_per_sec", Json::f(self.walks_per_sec, 1)),
        ]
    }
}

/// The device a service runs its batches on. FlashWalker's graph is
/// preprocessed into flash once per service, as in the paper, and one
/// simulated device serves every batch: before each batch it is reset in
/// place to the state a device freshly built on that image with the
/// batch seed would have ([`FlashWalkerSim::reset`]), keeping its
/// allocations. GraphWalker keeps no state across batches and builds an
/// engine per batch.
// One `Device` lives on the stack per service: its size costs nothing.
#[allow(clippy::large_enum_variant)]
enum Device<'g> {
    /// Always `Some` between batches; taken while a batch runs, because
    /// the run's opt-ins are set by consuming builders.
    Flash(Option<FlashWalkerSim<'g>>),
    Host,
}

impl<'g> Device<'g> {
    fn new(host: &ServeHost<'g>, engine: ServeEngine) -> Self {
        match engine {
            ServeEngine::Flashwalker => {
                let image = FlashImage::new(host.pg, AccelConfig::scaled(), SsdConfig::scaled());
                Device::Flash(Some(FlashWalkerSim::from_image(
                    host.csr,
                    host.pg,
                    Arc::new(image),
                    0,
                )))
            }
            ServeEngine::Graphwalker => Device::Host,
        }
    }

    /// Run one batch with walk logging.
    fn run_batch(
        &mut self,
        host: &ServeHost,
        workload: fw_walk::Workload,
        batch_seed: u64,
    ) -> RunReport {
        match self {
            Device::Flash(device) => {
                let mut sim = device.take().expect("device present between batches");
                sim.reset(batch_seed);
                let mut sim = sim.with_walk_log();
                let report = sim.run_detailed(workload);
                *device = Some(sim);
                report.into()
            }
            Device::Host => GraphWalkerSim::new(
                host.csr,
                host.id_bytes,
                GwConfig::scaled().with_memory(host.gw_memory_bytes),
                SsdConfig::scaled(),
                batch_seed,
            )
            .with_walk_log()
            .run(workload),
        }
    }
}

/// Measure the engine's batch-service capacity: run one representative
/// DeepWalk batch of `walks` walks and return completed walks per
/// *simulated* second. Suites use this to place offered-load points as
/// multiples of capacity; the probe is itself a simulated run, so the
/// derived load points are as byte-deterministic as everything else.
pub fn probe_walks_per_sec(host: &ServeHost, cfg: &ServeConfig, walks: u64) -> f64 {
    let seed = derive_stream_seed(cfg.seed, SERVE_BATCH_STREAM ^ u64::MAX);
    let mut device = Device::new(host, cfg.engine);
    let report = device.run_batch(host, fw_walk::Workload::deepwalk(walks, 6), seed);
    report.walks as f64 / (report.time.0.max(1) as f64 / 1e9)
}

/// Run the service loop to drain: generate arrivals and queries, admit,
/// batch, serve, and aggregate per-query latency.
pub fn run_serve(host: &ServeHost, cfg: &ServeConfig) -> ServeReport {
    let arrivals = cfg.arrival.times(cfg.queries, cfg.seed);
    let queries = cfg
        .mix
        .generate(&arrivals, host.csr.num_vertices(), cfg.seed);
    let weighted = host.csr.is_weighted();
    let tenants = cfg.mix.tenants as usize;
    assert_eq!(
        cfg.admission.tenants, cfg.mix.tenants,
        "tenant count mismatch"
    );

    let mut device = Device::new(host, cfg.engine);
    let mut admission = Admission::new(cfg.admission);
    let mut cache = WalkCache::new(cfg.cache);
    let mut cache_rng = Xoshiro256pp::new(derive_stream_seed(cfg.seed, SERVE_CACHE_STREAM));
    let mut tenant_queues: Vec<VecDeque<WalkQuery>> = vec![VecDeque::new(); tenants];
    let mut rr = 0usize;

    let mut outcomes: Vec<QueryOutcome> = Vec::new();
    let mut now_free: u64 = 0;
    let mut batches = 0u64;
    let mut engine_runs = 0u64;
    let mut engine_sim_ns = 0u64;
    let mut walks_completed = 0u64;
    let mut hops = 0u64;

    let mut i = 0usize;
    loop {
        let next_arrival = queries.get(i).map(|q| q.arrival_ns);
        let have_queued = tenant_queues.iter().any(|q| !q.is_empty());
        // Ties favor serving: a batch start at t precedes an arrival at t.
        let serve_now = have_queued && next_arrival.is_none_or(|a| now_free <= a);
        if serve_now {
            // Weighted round-robin head pick: next non-empty tenant from
            // the cursor, then advance the cursor past it.
            while tenant_queues[rr].is_empty() {
                rr = (rr + 1) % tenants;
            }
            let head = tenant_queues[rr].pop_front().expect("non-empty");
            rr = (rr + 1) % tenants;
            let start = now_free.max(head.arrival_ns);
            let class = head.kind.class();

            // Merge queued same-class queries that have arrived by
            // `start`, scanning tenants in fixed order, FIFO within each.
            let mut batch = vec![head];
            let mut total_walks = head.kind.walks();
            for tq in tenant_queues.iter_mut() {
                let mut keep = VecDeque::with_capacity(tq.len());
                while let Some(q) = tq.pop_front() {
                    if q.kind.class() == class
                        && q.arrival_ns <= start
                        && total_walks + q.kind.walks() <= cfg.max_batch_walks
                    {
                        total_walks += q.kind.walks();
                        batch.push(q);
                    } else {
                        keep.push_back(q);
                    }
                }
                *tq = keep;
            }
            for q in &batch {
                admission.release(q);
            }

            // Serve: cache hit at DRAM cost, else an engine run.
            let mut cached = false;
            let service_ns = if head.kind.cacheable()
                && cache.serve(&class, total_walks, &mut cache_rng).is_some()
            {
                cached = true;
                walks_completed += total_walks;
                cache.hit_cost_ns(total_walks).max(1)
            } else {
                let batch_seed =
                    derive_stream_seed(cfg.seed, SERVE_BATCH_STREAM ^ batches.rotate_left(17));
                let workload = head.kind.workload(total_walks, weighted);
                let report = device.run_batch(host, workload, batch_seed);
                engine_runs += 1;
                engine_sim_ns += report.time.0;
                walks_completed += report.walks;
                hops += report.stats.hops;
                if head.kind.cacheable() {
                    let endpoints: Vec<VertexId> = report.walk_log.iter().map(|w| w.cur).collect();
                    cache.install(class, &endpoints);
                }
                report.time.0.max(1)
            };

            let done = start + service_ns;
            now_free = done;
            batches += 1;
            for q in &batch {
                outcomes.push(QueryOutcome {
                    id: q.id,
                    tenant: q.tenant,
                    class: q.kind.name(),
                    walks: q.kind.walks(),
                    arrival_ns: q.arrival_ns,
                    start_ns: start,
                    done_ns: done,
                    cached,
                });
            }
        } else if let Some(q) = queries.get(i).copied() {
            i += 1;
            if admission.offer(&q) {
                tenant_queues[q.tenant as usize].push_back(q);
            }
        } else {
            break;
        }
    }

    let admission = admission.into_stats();
    let last_arrival = arrivals.last().copied().unwrap_or(0);
    let makespan_ns = outcomes
        .iter()
        .map(|o| o.done_ns)
        .max()
        .unwrap_or(0)
        .max(last_arrival);

    let lat: Vec<u64> = outcomes.iter().map(|o| o.latency_ns()).collect();
    let wait: Vec<u64> = outcomes.iter().map(|o| o.wait_ns()).collect();
    let service: Vec<u64> = outcomes.iter().map(|o| o.service_ns()).collect();
    let latency = JourneyLatency::from_latencies(&lat);
    let wait = JourneyLatency::from_latencies(&wait);
    let service = JourneyLatency::from_latencies(&service);

    let tail: Vec<&QueryOutcome> = outcomes
        .iter()
        .filter(|o| o.latency_ns() >= latency.p99_ns && o.latency_ns() > 0)
        .collect();
    let tail_wait_share = if tail.is_empty() {
        0.0
    } else {
        tail.iter()
            .map(|o| o.wait_ns() as f64 / o.latency_ns() as f64)
            .sum::<f64>()
            / tail.len() as f64
    };

    let span_s = (makespan_ns as f64 / 1e9).max(1e-12);
    ServeReport {
        engine: cfg.engine.name(),
        achieved_qps: admission.admitted as f64 / span_s,
        walks_per_sec: walks_completed as f64 / span_s,
        offered_qps: cfg.arrival.offered_qps(),
        admission,
        outcomes,
        makespan_ns,
        batches,
        engine_runs,
        engine_sim_ns,
        walks_completed,
        hops,
        cache: cache.stats(),
        latency,
        wait,
        service,
        tail_wait_share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::query::QueryMix;
    use fw_graph::rmat::{generate_csr, RmatParams};
    use fw_graph::{partition::PartitionConfig, Csr, PartitionedGraph};

    fn small_graph() -> (Csr, PartitionedGraph) {
        let csr = generate_csr(RmatParams::graph500(), 2048, 32_768, 11);
        let pg = PartitionedGraph::build(
            &csr,
            PartitionConfig {
                subgraph_bytes: 4 << 10,
                id_bytes: 4,
                subgraphs_per_partition: AccelConfig::scaled().mapping_table_entries(),
            },
        );
        (csr, pg)
    }

    fn cfg(engine: ServeEngine, seed: u64, rate_qps: f64) -> ServeConfig {
        ServeConfig {
            engine,
            seed,
            queries: 60,
            arrival: ArrivalProcess::Poisson { rate_qps },
            mix: QueryMix::default_mix(16),
            admission: AdmissionConfig {
                queue_capacity_walks: 512,
                tenants: 4,
                tenant_share: 0.5,
            },
            cache: WalkCacheConfig::default_cfg(),
            max_batch_walks: 256,
            threads: 1,
        }
    }

    #[test]
    fn serve_run_is_deterministic_and_accounts_exactly() {
        let (csr, pg) = small_graph();
        let host = ServeHost {
            csr: &csr,
            pg: &pg,
            id_bytes: 4,
            gw_memory_bytes: 8 << 20,
        };
        let c = cfg(ServeEngine::Flashwalker, 42, 2000.0);
        let a = run_serve(&host, &c);
        a.check().unwrap();
        let b = run_serve(&host, &c);
        assert_eq!(a.to_json(), b.to_json(), "same config, same record");
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.admission.offered, 60);
        assert!(a.batches > 0 && a.engine_runs > 0);
        // A different seed produces a different run.
        let d = run_serve(&host, &cfg(ServeEngine::Flashwalker, 43, 2000.0));
        assert_ne!(a.to_json(), d.to_json());
    }

    #[test]
    fn hot_sources_hit_the_cache_and_overload_rejects() {
        let (csr, pg) = small_graph();
        let host = ServeHost {
            csr: &csr,
            pg: &pg,
            id_bytes: 4,
            gw_memory_bytes: 8 << 20,
        };
        // Very high offered load: the queue saturates, admission must
        // reject, and repeated hot sources should hit the cache.
        let mut c = cfg(ServeEngine::Flashwalker, 42, 200_000.0);
        c.queries = 120;
        let r = run_serve(&host, &c);
        r.check().unwrap();
        assert!(
            r.admission.rejected > 0,
            "overload produced no rejections: {:?}",
            r.admission
        );
        assert!(r.cache.hits > 0, "hot sources never hit: {:?}", r.cache);
        assert!(r.cache.installs > 0);
        // Tail latency is dominated by queueing under overload.
        assert!(r.latency.p99_ns >= r.latency.p50_ns);
        // Cached batches complete faster than engine batches on average.
        let cached_mean = mean_service(&r, true);
        let engine_mean = mean_service(&r, false);
        assert!(
            cached_mean < engine_mean,
            "cache hits ({cached_mean} ns) not cheaper than engine runs ({engine_mean} ns)"
        );
    }

    fn mean_service(r: &ServeReport, cached: bool) -> f64 {
        let sel: Vec<&QueryOutcome> = r.outcomes.iter().filter(|o| o.cached == cached).collect();
        assert!(!sel.is_empty());
        sel.iter().map(|o| o.service_ns() as f64).sum::<f64>() / sel.len() as f64
    }

    /// FNV-1a (64-bit) of a report's record plus its per-query outcomes.
    fn serve_digest(r: &ServeReport) -> u64 {
        let text = format!("{}|{:?}", r.to_json().render(), r.outcomes);
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    /// Serve records are pure functions of their config: FlashWalker
    /// under Poisson load, overloaded FlashWalker (rejections and cache
    /// hits) and GraphWalker, pinned by digest. A host-side change to the
    /// service loop or the engines must leave every digest unchanged; a
    /// digest that moves marks a model change: state it and re-pin.
    #[test]
    fn serve_records_match_the_pinned_digests() {
        let (csr, pg) = small_graph();
        let host = ServeHost {
            csr: &csr,
            pg: &pg,
            id_bytes: 4,
            gw_memory_bytes: 8 << 20,
        };
        let poisson = cfg(ServeEngine::Flashwalker, 42, 2000.0);
        let mut overload = cfg(ServeEngine::Flashwalker, 42, 200_000.0);
        overload.queries = 120;
        let mut gw = cfg(ServeEngine::Graphwalker, 42, 1000.0);
        gw.queries = 20;
        let cases = [
            ("flashwalker, poisson", poisson, 0xe085_dfaf_bed2_e3e2),
            ("flashwalker, overload", overload, 0x7f30_e36f_582f_10d3),
            ("graphwalker", gw, 0x124c_3a4e_ace5_f72c),
        ];
        let reports: Vec<ServeReport> = cases.iter().map(|(_, c, _)| run_serve(&host, c)).collect();
        let overloaded = &reports[1];
        assert!(
            overloaded.admission.rejected > 0 && overloaded.cache.hits > 0,
            "the overload case neither rejects nor hits the cache"
        );
        let got: Vec<(&str, u64)> = cases
            .iter()
            .zip(&reports)
            .map(|((name, _, _), r)| (*name, serve_digest(r)))
            .collect();
        let want: Vec<(&str, u64)> = cases.iter().map(|(n, _, d)| (*n, *d)).collect();
        assert_eq!(got, want, "serve digests moved: {got:#x?}");
    }

    #[test]
    fn graphwalker_also_serves() {
        let (csr, pg) = small_graph();
        let host = ServeHost {
            csr: &csr,
            pg: &pg,
            id_bytes: 4,
            gw_memory_bytes: 8 << 20,
        };
        let mut c = cfg(ServeEngine::Graphwalker, 42, 1000.0);
        c.queries = 20;
        let r = run_serve(&host, &c);
        r.check().unwrap();
        assert_eq!(r.engine, "graphwalker");
        assert_eq!(r.admission.offered, 20);
    }
}
