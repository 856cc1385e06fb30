//! Mapping the crawl workload across fetcher units.
//!
//! The collection module queues every planned request on a shared channel;
//! one worker thread per fetcher unit drains it. Because each unit crawls
//! under its own identity, the service's per-IP rate limiting throttles
//! units independently and the crawl parallelises — exactly the design the
//! paper describes.
//!
//! Failure handling: a transport-level failure (the unit's own retries
//! exhausted) re-queues the item under a bounded per-item attempt budget,
//! preferring a *different* unit on the next try; a service-level
//! rejection (bad request) is permanent immediately. Items that exhaust
//! the budget are reported in [`RunReport::failed_items`] — with their
//! frame tags and coordinates — so callers can re-plan instead of
//! silently losing frames.
//!
//! Overload handling: a run may carry a shared [`CircuitBreaker`] (the
//! same one the units' HTTP clients record outcomes into) and a per-run
//! deadline. When the breaker is open, or the deadline has passed, queued
//! work is *shed* rather than fetched or re-queued — reported separately
//! in [`RunReport::shed_items`] so callers can tell "the service was
//! down / we ran out of time" apart from "this request kept failing".
//! Because items are drained in descending priority order, the work still
//! in the queue when the breaker opens is the lowest-priority tail: the
//! queue sheds least-important frames first.

use crate::store::ResponseStore;
use crate::unit::{FetchError, TrendsClient};
use crossbeam::channel;
use sift_geo::State;
use sift_net::CircuitBreaker;
use sift_simtime::Hour;
use sift_trends::{FrameRequest, RisingRequest};
use std::sync::Arc;
use std::time::Duration;

/// One queued request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkItem {
    /// Fetch an indexed frame.
    Frame(FrameRequest),
    /// Fetch rising suggestions.
    Rising(RisingRequest),
}

impl WorkItem {
    /// The region the item targets.
    pub fn state(&self) -> State {
        match self {
            WorkItem::Frame(r) => r.state,
            WorkItem::Rising(r) => r.state,
        }
    }

    /// The first hour of the requested frame.
    pub fn start(&self) -> Hour {
        match self {
            WorkItem::Frame(r) => r.start,
            WorkItem::Rising(r) => r.start,
        }
    }
}

/// An item that exhausted its attempt budget (or was rejected by the
/// service), reported so the caller can re-plan the missing work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailedWork {
    /// The failed request, exactly as queued.
    pub item: WorkItem,
    /// Fetch attempts made across units.
    pub attempts: u32,
    /// The final error, stringified.
    pub error: String,
}

/// Why a queued item was shed instead of fetched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedCause {
    /// The shared circuit breaker was open: the service is refusing work
    /// and attempting the fetch would only feed the failure streak.
    BreakerOpen,
    /// The run's deadline passed before the item was picked up.
    Deadline,
}

impl ShedCause {
    /// Every cause.
    pub const ALL: [ShedCause; 2] = [ShedCause::BreakerOpen, ShedCause::Deadline];

    /// Stable snake_case label, used as the `reason` metric label.
    pub fn label(self) -> &'static str {
        match self {
            ShedCause::BreakerOpen => "breaker_open",
            ShedCause::Deadline => "deadline",
        }
    }
}

impl std::fmt::Display for ShedCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An item shed by overload control (open breaker or spent deadline) —
/// never attempted in its final state, distinct from a [`FailedWork`]
/// whose fetches were tried and failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShedWork {
    /// The shed request, exactly as queued.
    pub item: WorkItem,
    /// The priority it was queued with (higher drains first).
    pub priority: i32,
    /// Why it was shed.
    pub reason: ShedCause,
}

/// Outcome counters of one collection run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests that failed permanently (budget exhausted or rejected by
    /// the service).
    pub failed: usize,
    /// Re-queues performed after transient failures.
    pub requeued: usize,
    /// Items shed by overload control (never counted in `failed`).
    pub shed: usize,
    /// `(unit identity, requests completed)` per unit.
    pub per_unit: Vec<(String, usize)>,
    /// Every permanently-failed item, with its coordinates and tag.
    pub failed_items: Vec<FailedWork>,
    /// Every shed item, lowest priority first.
    pub shed_items: Vec<ShedWork>,
}

/// A crawl executor over a set of fetcher units.
pub struct CollectionRun {
    units: Vec<Arc<dyn TrendsClient>>,
    attempt_budget: u32,
    breaker: Option<Arc<CircuitBreaker>>,
    deadline: Option<Duration>,
}

/// What one worker hands back to the collector.
enum Outcome {
    Frame(u64, sift_trends::FrameResponse),
    Rising(u32, sift_trends::RisingResponse),
    /// Item whose last failure was on this worker's unit: the collector
    /// re-queues it so a different unit (usually) picks it up.
    Bounce(Queued),
    Failed {
        item: WorkItem,
        priority: i32,
        attempts: u32,
        error: String,
        permanent: bool,
        ctx: Option<sift_obs::SpanContext>,
    },
    /// Item dropped by overload control before (re)fetching.
    Shed {
        item: WorkItem,
        priority: i32,
        cause: ShedCause,
    },
}

/// A work item plus its retry bookkeeping.
#[derive(Debug)]
struct Queued {
    item: WorkItem,
    /// Drain priority (higher first); carried into shed reports.
    priority: i32,
    /// Fetch attempts already made.
    attempts: u32,
    /// The unit index of the last failed attempt, if any.
    last_unit: Option<usize>,
    /// Whether the item has already been bounced once since the last
    /// failure (guards against ping-pong when only one unit is draining).
    bounced: bool,
    /// The trace context of the span open where the item was enqueued.
    /// Worker threads have their own (empty) span stacks, which would
    /// silently sever parentage; carrying the context in the work item
    /// lets every fetch span — across bounces and re-queues — attach to
    /// the run's trace.
    ctx: Option<sift_obs::SpanContext>,
}

impl CollectionRun {
    /// Builds a run over the given units (at least one), with a default
    /// per-item budget of 3 attempts.
    pub fn new(units: Vec<Arc<dyn TrendsClient>>) -> Self {
        assert!(!units.is_empty(), "at least one fetcher unit required");
        CollectionRun {
            units,
            attempt_budget: 3,
            breaker: None,
            deadline: None,
        }
    }

    /// Sets the per-item attempt budget (≥ 1). Each attempt already
    /// includes the unit's own transport-level retries.
    pub fn with_attempt_budget(mut self, budget: u32) -> Self {
        assert!(budget >= 1, "at least one attempt required");
        self.attempt_budget = budget;
        self
    }

    /// Consults `breaker` before every fetch and re-queue: while it is
    /// open, queued work is shed instead of attempted. Share the same
    /// breaker with the units' HTTP clients so their fetch outcomes drive
    /// its state; the queue itself only peeks (`would_allow`), leaving
    /// half-open probe admission to the client that actually sends.
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Bounds the whole run: items still queued when the deadline passes
    /// are shed, not fetched.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Executes the workload at uniform priority, merging every response
    /// into `sink`. Returns the run report.
    pub fn execute(&self, items: Vec<WorkItem>, sink: &mut ResponseStore) -> RunReport {
        self.execute_prioritized(items.into_iter().map(|i| (i, 0)).collect(), sink)
    }

    /// Executes a prioritized workload: higher-priority items are queued
    /// (and therefore drained) first, so overload sheds the low-priority
    /// tail. Returns the run report.
    pub fn execute_prioritized(
        &self,
        mut items: Vec<(WorkItem, i32)>,
        sink: &mut ResponseStore,
    ) -> RunReport {
        // Stable sort: equal priorities keep their submission order.
        items.sort_by_key(|(_, priority)| std::cmp::Reverse(*priority));
        #[expect(clippy::disallowed_methods, reason = "the run deadline is host time")]
        let deadline_at = self.deadline.map(|d| std::time::Instant::now() + d);
        // Captured once on the enqueuing thread; workers reopen it so
        // their fetch spans join the caller's trace.
        let run_ctx = sift_obs::SpanContext::current();
        let (work_tx, work_rx) = channel::unbounded::<Queued>();
        let mut outstanding = 0usize;
        for (item, priority) in items {
            let queued = Queued {
                item,
                priority,
                attempts: 0,
                last_unit: None,
                bounced: false,
                ctx: run_ctx,
            };
            #[expect(clippy::expect_used, reason = "unbounded channel, live receiver")]
            work_tx.send(queued).expect("unbounded channel accepts");
            outstanding += 1;
        }
        // The gauge has a single owner — the collector below — so its
        // readings cannot race across workers, and it is zeroed when the
        // run drains.
        let depth = sift_obs::gauge("sift_fetcher_queue_depth", &[]);
        depth.set(i64::try_from(work_rx.len()).unwrap_or(i64::MAX));

        let (out_tx, out_rx) = channel::unbounded::<(usize, Outcome)>();

        std::thread::scope(|scope| {
            for (unit_idx, unit) in self.units.iter().enumerate() {
                let work_rx = work_rx.clone();
                let out_tx = out_tx.clone();
                let unit = Arc::clone(unit);
                let unit_count = self.units.len();
                let breaker = self.breaker.clone();
                scope.spawn(move || {
                    while let Ok(q) = work_rx.recv() {
                        // Overload control runs before any fetch: work
                        // whose deadline has passed, or that would hit an
                        // open breaker, is shed — the item is reported,
                        // not silently dropped and not retried.
                        #[expect(clippy::disallowed_methods, reason = "run deadline is host time")]
                        let spent = deadline_at.is_some_and(|at| std::time::Instant::now() >= at);
                        let shed_cause = if spent {
                            Some(ShedCause::Deadline)
                        } else if breaker.as_ref().is_some_and(|b| !b.would_allow()) {
                            Some(ShedCause::BreakerOpen)
                        } else {
                            None
                        };
                        if let Some(cause) = shed_cause {
                            let outcome = Outcome::Shed {
                                item: q.item,
                                priority: q.priority,
                                cause,
                            };
                            if out_tx.send((unit_idx, outcome)).is_err() {
                                break;
                            }
                            continue;
                        }
                        // A retry should land on a different unit than the
                        // one that just failed it, when another exists.
                        // One bounce per failure: if the same worker picks
                        // it up again (the others are busy or gone), it
                        // just runs it.
                        if q.last_unit == Some(unit_idx) && !q.bounced && unit_count > 1 {
                            let mut q = q;
                            q.bounced = true;
                            if out_tx.send((unit_idx, Outcome::Bounce(q))).is_err() {
                                break;
                            }
                            continue;
                        }
                        let attempts = q.attempts + 1;
                        // Restore the enqueuer's context: without it the
                        // worker's empty span stack would make every
                        // fetch span an orphan root.
                        let outcome = {
                            let _fetch_span = match q.ctx {
                                Some(c) => sift_obs::span_in(c, "fetch"),
                                None => sift_obs::span("fetch"),
                            };
                            sift_obs::attr_set("attempt", u64::from(attempts));
                            match &q.item {
                                WorkItem::Frame(req) => match unit.fetch_frame(req) {
                                    Ok(resp) => Outcome::Frame(req.tag, resp),
                                    Err(e) => failed(q, attempts, &e),
                                },
                                WorkItem::Rising(req) => match unit.fetch_rising(req) {
                                    Ok(resp) => Outcome::Rising(req.len, resp),
                                    Err(e) => failed(q, attempts, &e),
                                },
                            }
                        };
                        if out_tx.send((unit_idx, outcome)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(out_tx);

            let mut report = RunReport {
                per_unit: self
                    .units
                    .iter()
                    .map(|u| (u.identity().to_owned(), 0))
                    .collect(),
                ..RunReport::default()
            };
            // The collector holds the only `work_tx`, so it alone decides
            // when the run is over: once every item completed or failed
            // permanently, dropping the sender lets the workers drain out.
            let mut work_tx = Some(work_tx);
            while outstanding > 0 {
                let Ok((unit_idx, outcome)) = out_rx.recv() else {
                    break; // all workers gone; nothing more can arrive
                };
                let unit_identity = report.per_unit[unit_idx].0.clone();
                match outcome {
                    Outcome::Frame(tag, resp) => {
                        sink.insert_frame(tag, resp);
                        report.completed += 1;
                        outstanding -= 1;
                        sift_obs::counter(
                            "sift_fetcher_completed_total",
                            &[("unit", &unit_identity)],
                        )
                        .inc();
                        report.per_unit[unit_idx].1 += 1;
                    }
                    Outcome::Rising(len, resp) => {
                        sink.insert_rising(len, resp);
                        report.completed += 1;
                        outstanding -= 1;
                        sift_obs::counter(
                            "sift_fetcher_completed_total",
                            &[("unit", &unit_identity)],
                        )
                        .inc();
                        report.per_unit[unit_idx].1 += 1;
                    }
                    Outcome::Bounce(q) => {
                        if let Some(tx) = &work_tx {
                            if tx.send(q).is_err() {
                                outstanding -= 1; // unreachable in practice
                            }
                        }
                    }
                    Outcome::Shed {
                        item,
                        priority,
                        cause,
                    } => {
                        report.shed += 1;
                        outstanding -= 1;
                        sift_obs::counter("sift_fetcher_shed_total", &[("reason", cause.label())])
                            .inc();
                        report.shed_items.push(ShedWork {
                            item,
                            priority,
                            reason: cause,
                        });
                    }
                    Outcome::Failed {
                        item,
                        priority,
                        attempts,
                        error,
                        permanent,
                        ctx,
                    } => {
                        // A transient failure is only worth re-queueing
                        // while the breaker says the service is taking
                        // requests; once it opens, the item is shed with
                        // the rest of the queue instead of churning.
                        let breaker_open = self.breaker.as_ref().is_some_and(|b| !b.would_allow());
                        if !permanent && attempts < self.attempt_budget && breaker_open {
                            report.shed += 1;
                            outstanding -= 1;
                            sift_obs::counter(
                                "sift_fetcher_shed_total",
                                &[("reason", ShedCause::BreakerOpen.label())],
                            )
                            .inc();
                            report.shed_items.push(ShedWork {
                                item,
                                priority,
                                reason: ShedCause::BreakerOpen,
                            });
                        } else if !permanent && attempts < self.attempt_budget {
                            report.requeued += 1;
                            sift_obs::counter(
                                "sift_fetcher_requeued_total",
                                &[("unit", &unit_identity)],
                            )
                            .inc();
                            let q = Queued {
                                item,
                                priority,
                                attempts,
                                last_unit: Some(unit_idx),
                                bounced: false,
                                ctx,
                            };
                            let requeued = work_tx.as_ref().is_some_and(|tx| tx.send(q).is_ok());
                            if !requeued {
                                outstanding -= 1; // unreachable in practice
                            }
                        } else {
                            report.failed += 1;
                            outstanding -= 1;
                            sift_obs::counter(
                                "sift_fetcher_failed_total",
                                &[("unit", &unit_identity)],
                            )
                            .inc();
                            report.failed_items.push(FailedWork {
                                item,
                                attempts,
                                error,
                            });
                        }
                    }
                }
                depth.set(i64::try_from(work_rx.len()).unwrap_or(i64::MAX));
                if outstanding == 0 {
                    work_tx = None; // close the channel; workers exit
                }
            }
            drop(work_tx);
            depth.set(0);
            // Lowest priority first: the tail the run chose to sacrifice,
            // in the order a re-plan would reconsider it.
            report.shed_items.sort_by_key(|s| s.priority);
            report
        })
    }
}

/// Classifies one fetch failure: service rejections are permanent (the
/// request itself is bad), transport failures are worth another unit.
fn failed(q: Queued, attempts: u32, e: &FetchError) -> Outcome {
    Outcome::Failed {
        ctx: q.ctx,
        item: q.item,
        priority: q.priority,
        attempts,
        error: e.to_string(),
        permanent: matches!(e, FetchError::Service(_)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_frames, PlanParams};
    use crate::unit::InProcessClient;
    use sift_geo::State;
    use sift_simtime::{Hour, HourRange};
    use sift_trends::{FrameResponse, RisingResponse, Scenario, SearchTerm, TrendsService};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Tests that execute runs serialise on this lock: the queue-depth
    /// gauge is global and single-owner per run, so concurrent test runs
    /// would race its readings.
    static RUN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn units(n: usize) -> (Vec<Arc<dyn TrendsClient>>, Arc<TrendsService>) {
        let service = Arc::new(TrendsService::with_defaults(Scenario::single_region(
            State::CA,
            vec![],
        )));
        let units: Vec<Arc<dyn TrendsClient>> = (0..n)
            .map(|_| Arc::new(InProcessClient::new(Arc::clone(&service))) as Arc<dyn TrendsClient>)
            .collect();
        (units, service)
    }

    fn frame_workload(tag: u64) -> Vec<WorkItem> {
        let plan = plan_frames(HourRange::new(Hour(0), Hour(1000)), PlanParams::default());
        plan.frames
            .iter()
            .map(|f| {
                WorkItem::Frame(FrameRequest {
                    term: SearchTerm::parse("topic:Internet outage"),
                    state: State::CA,
                    start: f.start,
                    len: f.len() as u32,
                    tag,
                })
            })
            .collect()
    }

    #[test]
    fn workload_is_fully_collected() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (units, service) = units(3);
        let run = CollectionRun::new(units);
        let items = frame_workload(0);
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute(items, &mut store);
        assert_eq!(report.completed, n);
        assert_eq!(report.failed, 0);
        assert!(report.failed_items.is_empty());
        assert_eq!(store.frame_count(), n);
        assert_eq!(service.stats().frames_served, n as u64);
        // Frames come back sorted and contiguous for the pipeline.
        let frames = store.frames_for(State::CA, 0);
        assert_eq!(frames.len(), n);
        for pair in frames.windows(2) {
            assert!(pair[0].start < pair[1].start);
        }
    }

    /// Delegating client that makes each request take ~1ms, so every
    /// worker thread provably joins the drain before the queue empties
    /// (the raw in-process path can be drained by the first worker before
    /// the others have even spawned).
    struct SlowClient(InProcessClient);

    impl TrendsClient for SlowClient {
        fn fetch_frame(
            &self,
            req: &FrameRequest,
        ) -> Result<sift_trends::FrameResponse, sift_trends::FetchError> {
            std::thread::sleep(std::time::Duration::from_millis(1));
            self.0.fetch_frame(req)
        }

        fn fetch_rising(
            &self,
            req: &RisingRequest,
        ) -> Result<sift_trends::RisingResponse, sift_trends::FetchError> {
            std::thread::sleep(std::time::Duration::from_millis(1));
            self.0.fetch_rising(req)
        }

        fn identity(&self) -> &str {
            self.0.identity()
        }
    }

    #[test]
    fn work_is_spread_across_units() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let service = Arc::new(TrendsService::with_defaults(Scenario::single_region(
            State::CA,
            vec![],
        )));
        let units: Vec<Arc<dyn TrendsClient>> = (0..4)
            .map(|_| {
                Arc::new(SlowClient(InProcessClient::new(Arc::clone(&service))))
                    as Arc<dyn TrendsClient>
            })
            .collect();
        let run = CollectionRun::new(units);
        let mut store = ResponseStore::new();
        let report = run.execute(frame_workload(0), &mut store);
        let busy_units = report.per_unit.iter().filter(|(_, n)| *n > 0).count();
        assert!(busy_units >= 2, "expected parallel draining: {report:?}");
    }

    #[test]
    fn fetch_spans_join_the_enqueuing_trace_across_workers() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (units, _service) = units(3);
        let run = CollectionRun::new(units);
        let items = frame_workload(0);
        let n = items.len();
        let mut store = ResponseStore::new();
        let tid = {
            let root = sift_obs::span_root("queue-trace-test");
            let report = run.execute(items, &mut store);
            assert_eq!(report.completed, n);
            root.context().trace_id
        };
        let trace =
            sift_obs::trace::wait_completed(tid, Duration::from_secs(5)).expect("trace completed");
        let fetches = trace.spans.iter().filter(|s| s.name == "fetch").count();
        assert_eq!(fetches, n, "one fetch span per item, all in the run trace");
        assert!(trace.orphans().is_empty(), "no severed parentage");
    }

    #[test]
    fn requeued_items_keep_their_trace_context() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let service = Arc::new(TrendsService::with_defaults(Scenario::single_region(
            State::CA,
            vec![],
        )));
        let units: Vec<Arc<dyn TrendsClient>> = vec![
            Arc::new(FlakyClient::new(Arc::clone(&service), 4, "flaky")),
            Arc::new(SlowClient(InProcessClient::with_identity(
                Arc::clone(&service),
                "steady",
            ))),
        ];
        let run = CollectionRun::new(units).with_attempt_budget(6);
        let items = frame_workload(0);
        let n = items.len();
        let mut store = ResponseStore::new();
        let tid = {
            let root = sift_obs::span_root("queue-requeue-trace-test");
            let report = run.execute(items, &mut store);
            assert_eq!(report.completed, n, "{report:?}");
            assert!(report.requeued >= 1, "{report:?}");
            root.context().trace_id
        };
        let trace =
            sift_obs::trace::wait_completed(tid, Duration::from_secs(5)).expect("trace completed");
        // Retried items produce extra fetch spans with attempt > 1, still
        // attached to the same trace — never orphan roots.
        let retried = trace
            .spans
            .iter()
            .filter(|s| s.name == "fetch" && s.arg("attempt").is_some_and(|a| a > 1))
            .count();
        assert!(retried >= 1, "requeued fetches carry their attempt number");
        assert!(trace.orphans().is_empty());
    }

    #[test]
    fn bad_requests_fail_permanently_without_requeue() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (units, _service) = units(1);
        let run = CollectionRun::new(units);
        let mut store = ResponseStore::new();
        let items = vec![WorkItem::Frame(FrameRequest {
            term: SearchTerm::parse("topic:Internet outage"),
            state: State::CA,
            start: Hour(0),
            len: 9999, // over the service limit
            tag: 0,
        })];
        let report = run.execute(items.clone(), &mut store);
        assert_eq!(report.failed, 1);
        assert_eq!(report.completed, 0);
        // Service rejections are permanent: no retry budget is wasted.
        assert_eq!(report.requeued, 0);
        assert_eq!(report.failed_items.len(), 1);
        assert_eq!(report.failed_items[0].item, items[0]);
        assert_eq!(report.failed_items[0].attempts, 1);
        assert_eq!(store.frame_count(), 0);
    }

    /// A unit that fails (transport-style) the first `fail_first` times a
    /// frame is requested from it, then succeeds.
    struct FlakyClient {
        inner: InProcessClient,
        fail_first: usize,
        calls: AtomicUsize,
        identity: String,
    }

    impl FlakyClient {
        fn new(service: Arc<TrendsService>, fail_first: usize, identity: &str) -> Self {
            FlakyClient {
                inner: InProcessClient::with_identity(Arc::clone(&service), identity),
                fail_first,
                calls: AtomicUsize::new(0),
                identity: identity.to_owned(),
            }
        }
    }

    impl TrendsClient for FlakyClient {
        fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
            if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_first {
                return Err(FetchError::Transport("injected reset".into()));
            }
            self.inner.fetch_frame(req)
        }

        fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
            self.inner.fetch_rising(req)
        }

        fn identity(&self) -> &str {
            &self.identity
        }
    }

    #[test]
    fn transient_failures_are_requeued_and_recovered() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let service = Arc::new(TrendsService::with_defaults(Scenario::single_region(
            State::CA,
            vec![],
        )));
        // One unit fails its first 4 frame fetches; the healthy unit (or a
        // later attempt) picks the items back up. Budget 6 > 4 + 1 so even
        // if a single unlucky item absorbs every injected failure it still
        // has headroom to succeed.
        let units: Vec<Arc<dyn TrendsClient>> = vec![
            Arc::new(FlakyClient::new(Arc::clone(&service), 4, "flaky")),
            Arc::new(SlowClient(InProcessClient::with_identity(
                Arc::clone(&service),
                "steady",
            ))),
        ];
        let run = CollectionRun::new(units).with_attempt_budget(6);
        let items = frame_workload(0);
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute(items, &mut store);
        assert_eq!(report.completed, n, "{report:?}");
        assert_eq!(report.failed, 0, "{report:?}");
        assert_eq!(store.frame_count(), n);
        assert!(report.requeued >= 1, "{report:?}");
    }

    #[test]
    fn budget_exhaustion_reports_failed_tags() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let service = Arc::new(TrendsService::with_defaults(Scenario::single_region(
            State::CA,
            vec![],
        )));
        // Every fetch fails: the whole workload must surface in
        // `failed_items` with its tags, not vanish.
        let units: Vec<Arc<dyn TrendsClient>> =
            vec![Arc::new(FlakyClient::new(service, usize::MAX, "dead"))];
        let run = CollectionRun::new(units).with_attempt_budget(3);
        let items = frame_workload(7);
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute(items, &mut store);
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed, n);
        assert_eq!(report.failed_items.len(), n);
        assert_eq!(store.frame_count(), 0);
        for f in &report.failed_items {
            assert_eq!(f.attempts, 3);
            assert!(matches!(&f.item, WorkItem::Frame(r) if r.tag == 7));
            assert!(f.error.contains("injected reset"), "{}", f.error);
        }
        // The gauge is zeroed once the run drains, not left at a stale
        // worker-set value.
        assert_eq!(sift_obs::gauge("sift_fetcher_queue_depth", &[]).get(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one fetcher unit")]
    fn zero_units_rejected() {
        let _ = CollectionRun::new(vec![]);
    }

    fn open_breaker() -> Arc<CircuitBreaker> {
        let breaker = Arc::new(CircuitBreaker::new(
            "queue-test",
            sift_net::BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_secs(3600),
                success_threshold: 1,
            },
        ));
        breaker.record_failure();
        assert_eq!(breaker.state(), sift_net::BreakerState::Open);
        breaker
    }

    fn prioritized_workload() -> Vec<(WorkItem, i32)> {
        frame_workload(0)
            .into_iter()
            .enumerate()
            .map(|(i, w)| (w, i as i32))
            .collect()
    }

    #[test]
    fn open_breaker_sheds_instead_of_fetching() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (units, service) = units(2);
        let run = CollectionRun::new(units).with_breaker(open_breaker());
        let items = prioritized_workload();
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute_prioritized(items, &mut store);
        assert_eq!(report.shed, n, "{report:?}");
        assert_eq!(report.completed, 0);
        assert_eq!(report.failed, 0);
        assert_eq!(report.requeued, 0);
        assert_eq!(store.frame_count(), 0);
        assert_eq!(
            service.stats().frames_served,
            0,
            "no fetch may reach the service"
        );
        // Shed items are reported lowest priority first, with the cause.
        assert_eq!(report.shed_items.len(), n);
        for (i, s) in report.shed_items.iter().enumerate() {
            assert_eq!(s.priority, i as i32);
            assert_eq!(s.reason, ShedCause::BreakerOpen);
        }
    }

    #[test]
    fn spent_deadline_sheds_the_queue() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (units, _service) = units(1);
        let run = CollectionRun::new(units).with_deadline(Duration::ZERO);
        let items = frame_workload(0);
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute(items, &mut store);
        assert_eq!(report.shed, n, "{report:?}");
        assert_eq!(report.completed, 0);
        assert!(report
            .shed_items
            .iter()
            .all(|s| s.reason == ShedCause::Deadline));
    }

    #[test]
    fn closed_breaker_does_not_disturb_collection() {
        let _serial = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (units, _service) = units(2);
        let breaker = Arc::new(CircuitBreaker::new(
            "queue-test-closed",
            sift_net::BreakerConfig::default(),
        ));
        let run = CollectionRun::new(units)
            .with_breaker(breaker)
            .with_deadline(Duration::from_secs(600));
        let items = prioritized_workload();
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute_prioritized(items, &mut store);
        assert_eq!(report.completed, n, "{report:?}");
        assert_eq!(report.shed, 0);
        assert_eq!(store.frame_count(), n);
    }

    #[test]
    fn labels_cover_every_cause() {
        let labels: Vec<_> = ShedCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["breaker_open", "deadline"]);
    }
}
