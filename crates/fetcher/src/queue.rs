//! Mapping the crawl workload across fetcher units.
//!
//! [`CollectionRun::execute`] cuts the workload into one contiguous chunk
//! per unit, in submission order, and fetches the chunks side by side. A
//! unit answers its chunk in one [`TrendsClient::fetch_frames`] and one
//! [`TrendsClient::fetch_risings`] call. Each unit crawls under its own
//! identity, so the service's per-IP rate limiting throttles units
//! independently — the design the paper describes.
//!
//! Retries and `Retry-After` are the unit's client's. A request that
//! still fails counts in [`RunReport::failed`]. A unit whose
//! [`TrendsClient::healthy`] is false when its chunk is due sheds the
//! chunk unsent.

use crate::store::ResponseStore;
use crate::unit::{FetchError, TrendsClient};
use sift_trends::{FrameRequest, FrameResponse, RisingRequest, RisingResponse};
use std::sync::Arc;

/// One queued request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkItem {
    /// Fetch an indexed frame.
    Frame(FrameRequest),
    /// Fetch rising suggestions.
    Rising(RisingRequest),
}

/// Outcome counters of one collection run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests that failed after the unit's own retries.
    pub failed: usize,
    /// Requests shed unsent because their unit was unhealthy.
    pub shed: usize,
    /// `(unit identity, requests completed)` per unit.
    pub per_unit: Vec<(String, usize)>,
}

/// A crawl executor over a set of fetcher units.
pub struct CollectionRun {
    units: Vec<Arc<dyn TrendsClient>>,
}

/// One unit's share of the workload, split by kind.
#[derive(Default)]
struct Chunk {
    frames: Vec<FrameRequest>,
    risings: Vec<RisingRequest>,
    /// Per item, in submission order: whether it is a frame.
    is_frame: Vec<bool>,
}

/// A unit's answers to its chunk, or `None` when it shed the chunk.
type Replies = Option<(
    Vec<Result<FrameResponse, FetchError>>,
    Vec<Result<RisingResponse, FetchError>>,
)>;

impl Chunk {
    fn new(items: impl Iterator<Item = WorkItem>) -> Self {
        let mut chunk = Chunk::default();
        for item in items {
            chunk.is_frame.push(matches!(item, WorkItem::Frame(_)));
            match item {
                WorkItem::Frame(req) => chunk.frames.push(req),
                WorkItem::Rising(req) => chunk.risings.push(req),
            }
        }
        chunk
    }

    /// Sends the chunk through `unit`, under a `fetch` span that joins
    /// the caller's trace.
    fn fetch(&self, unit: &dyn TrendsClient, ctx: Option<sift_obs::SpanContext>) -> Replies {
        if !unit.healthy() {
            return None;
        }
        let _span = match ctx {
            Some(c) => sift_obs::span_in(c, "fetch"),
            None => sift_obs::span("fetch"),
        };
        let frames = match self.frames.as_slice() {
            [] => Vec::new(),
            reqs => unit.fetch_frames(reqs),
        };
        let risings = match self.risings.as_slice() {
            [] => Vec::new(),
            reqs => unit.fetch_risings(reqs),
        };
        Some((frames, risings))
    }
}

impl CollectionRun {
    /// Builds a run over the given units (at least one).
    pub fn new(units: Vec<Arc<dyn TrendsClient>>) -> Self {
        assert!(!units.is_empty(), "at least one fetcher unit required");
        CollectionRun { units }
    }

    /// Executes the workload, merging every response into `sink` in item
    /// order. Returns the run report.
    pub fn execute(&self, items: Vec<WorkItem>, sink: &mut ResponseStore) -> RunReport {
        let (n, k) = (items.len(), self.units.len());
        let mut items = items.into_iter();
        let chunks: Vec<Chunk> = (0..k)
            .map(|u| Chunk::new(items.by_ref().take((u + 1) * n / k - u * n / k)))
            .collect();
        // Captured on the calling thread; each chunk's thread reopens it
        // so its fetch span joins the caller's trace.
        let ctx = sift_obs::SpanContext::current();
        let mut replies: Vec<Replies> = std::iter::repeat_with(|| None).take(k).collect();
        std::thread::scope(|scope| {
            for ((chunk, unit), slot) in chunks.iter().zip(&self.units).zip(&mut replies) {
                if !chunk.is_frame.is_empty() {
                    scope.spawn(move || *slot = chunk.fetch(unit.as_ref(), ctx));
                }
            }
        });

        let mut report = RunReport {
            per_unit: self
                .units
                .iter()
                .map(|u| (u.identity().to_owned(), 0))
                .collect(),
            ..RunReport::default()
        };
        for ((chunk, replies), (identity, served)) in
            chunks.into_iter().zip(replies).zip(&mut report.per_unit)
        {
            let Some((frames, risings)) = replies else {
                report.shed += chunk.is_frame.len();
                sift_obs::counter("sift_fetcher_shed_total", &[]).add(chunk.is_frame.len() as u64);
                continue;
            };
            let mut frames = chunk.frames.into_iter().zip(frames);
            let mut risings = chunk.risings.into_iter().zip(risings);
            for is_frame in chunk.is_frame {
                let stored = if is_frame {
                    match frames.next() {
                        Some((req, Ok(resp))) => {
                            sink.insert_frame(req.tag, resp);
                            true
                        }
                        _ => false,
                    }
                } else {
                    match risings.next() {
                        Some((req, Ok(resp))) => {
                            sink.insert_rising(req.len, resp);
                            true
                        }
                        _ => false,
                    }
                };
                let outcome = if stored {
                    report.completed += 1;
                    *served += 1;
                    "sift_fetcher_completed_total"
                } else {
                    report.failed += 1;
                    "sift_fetcher_failed_total"
                };
                sift_obs::counter(outcome, &[("unit", identity)]).inc();
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_frames, PlanParams};
    use crate::unit::tests::{Counting, Failing};
    use crate::unit::InProcessClient;
    use sift_geo::State;
    use sift_simtime::{Hour, HourRange};
    use sift_trends::{Scenario, SearchTerm, TrendsService};
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    fn service() -> Arc<TrendsService> {
        Arc::new(TrendsService::with_defaults(Scenario::single_region(
            State::CA,
            vec![],
        )))
    }

    fn units(n: usize) -> (Vec<Arc<dyn TrendsClient>>, Arc<TrendsService>) {
        let service = service();
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
        let (units, service) = units(3);
        let run = CollectionRun::new(units);
        let items = frame_workload(0);
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute(items, &mut store);
        assert_eq!(report.completed, n);
        assert_eq!(report.failed, 0);
        assert_eq!(store.frame_count(), n);
        assert_eq!(service.stats().frames_served, n as u64);
        // Frames come back sorted and contiguous for the pipeline.
        let frames = store.frames_for(State::CA, 0);
        assert_eq!(frames.len(), n);
        for pair in frames.windows(2) {
            assert!(pair[0].start < pair[1].start);
        }
    }

    #[test]
    fn each_unit_answers_its_chunk_in_one_batch() {
        let service = service();
        let units: Vec<Arc<Counting>> = (0..2)
            .map(|_| Arc::new(Counting::new(Arc::clone(&service))))
            .collect();
        let run = CollectionRun::new(
            units
                .iter()
                .map(|u| Arc::clone(u) as Arc<dyn TrendsClient>)
                .collect(),
        );
        let mut items = frame_workload(0);
        let frames = items.len();
        items.push(WorkItem::Rising(RisingRequest {
            term: SearchTerm::parse("topic:Internet outage"),
            state: State::CA,
            start: Hour(0),
            len: 168,
            tag: 0,
        }));
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute(items, &mut store);
        assert_eq!(report.completed, n, "{report:?}");
        assert_eq!(store.frame_count(), frames);
        assert_eq!(store.rising_count(), 1);
        // The first unit takes the leading half, the second the rest,
        // rising request included.
        let (first, second) = (n / 2, n - n / 2);
        assert_eq!(
            report.per_unit.iter().map(|u| u.1).collect::<Vec<_>>(),
            [first, second]
        );
        for (unit, batch) in units.iter().zip([first, second - 1]) {
            assert_eq!(*unit.batches.lock().expect("lock"), [batch]);
            assert_eq!(unit.single.load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn work_is_spread_across_units() {
        let (units, _service) = units(4);
        let run = CollectionRun::new(units);
        let items = frame_workload(0);
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute(items, &mut store);
        let served: Vec<usize> = report.per_unit.iter().map(|u| u.1).collect();
        assert_eq!(served.iter().sum::<usize>(), n);
        assert!(
            served.iter().all(|&s| s == n / 4 || s == n / 4 + 1),
            "contiguous, balanced chunks: {report:?}"
        );
    }

    #[test]
    fn fetch_spans_join_the_enqueuing_trace_across_workers() {
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
        assert_eq!(fetches, 3, "one fetch span per unit, all in the run trace");
        assert!(trace.orphans().is_empty(), "no severed parentage");
    }

    #[test]
    fn bad_requests_fail_without_storing() {
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
        let report = run.execute(items, &mut store);
        assert_eq!(report.failed, 1);
        assert_eq!(report.completed, 0);
        assert_eq!(store.frame_count(), 0);
    }

    #[test]
    fn transport_failures_are_counted_not_stored() {
        let run = CollectionRun::new(vec![Arc::new(Failing { healthy: true })]);
        let items = frame_workload(7);
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute(items, &mut store);
        assert_eq!((report.completed, report.failed, report.shed), (0, n, 0));
        assert_eq!(store.frame_count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one fetcher unit")]
    fn zero_units_rejected() {
        let _ = CollectionRun::new(vec![]);
    }

    #[test]
    fn an_unhealthy_unit_sheds_its_chunk_unsent() {
        let service = service();
        let run = CollectionRun::new(vec![
            Arc::new(Failing { healthy: false }),
            Arc::new(InProcessClient::new(Arc::clone(&service))),
        ]);
        let items = frame_workload(0);
        let n = items.len();
        let mut store = ResponseStore::new();
        let report = run.execute(items, &mut store);
        // The unhealthy unit's chunk is shed, not sent and failed; the
        // healthy unit's lands.
        assert_eq!(report.shed, n / 2, "{report:?}");
        assert_eq!(report.completed, n - n / 2);
        assert_eq!(report.failed, 0);
        assert_eq!(store.frame_count(), n - n / 2);
        assert_eq!(
            service.stats().frames_served,
            (n - n / 2) as u64,
            "no fetch from the shed chunk may reach the service"
        );
    }
}
