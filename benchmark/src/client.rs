//! `TimedClient`: the benchmark-owned boundary between the pipeline and
//! whatever answers its requests.

use crate::trace;
use sift_geo::State;
use sift_trends::{
    FetchError, FrameRequest, FrameResponse, RisingRequest, RisingResponse, TrendsClient,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One request as the pipeline issued it, kept for the replay that
/// prices the in-process service on the same sequence.
#[derive(Clone, Debug)]
pub enum Logged {
    Frame(FrameRequest),
    Rising(RisingRequest),
}

/// What a traced run saw cross the client boundary.
#[derive(Default)]
pub struct Captured {
    /// Every request, in issue order per thread.
    pub requests: Vec<Logged>,
    /// Round-0 (tag 0) frame responses per region, in fetch order.
    pub round0: BTreeMap<usize, Vec<FrameResponse>>,
}

impl Captured {
    pub fn round0_regions(&self) -> impl Iterator<Item = (State, &Vec<FrameResponse>)> {
        self.round0
            .iter()
            .map(|(i, frames)| (State::from_index(*i), frames))
    }
}

/// Wraps a client: opens one span per call (`trends.frame` /
/// `trends.rising` in front of the in-process service, `net.roundtrip`
/// in front of an HTTP client), counts failures, and captures requests
/// and round-0 frames for the layers pass.
pub struct TimedClient {
    inner: Arc<dyn TrendsClient>,
    frame_span: &'static str,
    rising_span: &'static str,
    failed: AtomicU64,
    captured: Mutex<Captured>,
}

impl TimedClient {
    /// In front of the in-process service.
    pub fn in_process(inner: Arc<dyn TrendsClient>) -> Self {
        TimedClient::new(inner, "trends.frame", "trends.rising")
    }

    /// In front of an HTTP client: both calls are `net.roundtrip` spans.
    pub fn over_http(inner: Arc<dyn TrendsClient>) -> Self {
        TimedClient::new(inner, "net.roundtrip", "net.roundtrip")
    }

    fn new(
        inner: Arc<dyn TrendsClient>,
        frame_span: &'static str,
        rising_span: &'static str,
    ) -> Self {
        TimedClient {
            inner,
            frame_span,
            rising_span,
            failed: AtomicU64::new(0),
            captured: Mutex::new(Captured::default()),
        }
    }

    /// Calls that returned an error.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Takes what was captured so far, leaving the capture empty.
    pub fn take_captured(&self) -> Captured {
        std::mem::take(&mut self.captured.lock().expect("capture lock"))
    }
}

impl TrendsClient for TimedClient {
    fn fetch_frame(&self, req: &FrameRequest) -> Result<FrameResponse, FetchError> {
        let result = {
            let _span = trace::span(self.frame_span);
            self.inner.fetch_frame(req)
        };
        let mut captured = self.captured.lock().expect("capture lock");
        captured.requests.push(Logged::Frame(req.clone()));
        match &result {
            Ok(resp) if req.tag == 0 => captured
                .round0
                .entry(req.state.index())
                .or_default()
                .push(resp.clone()),
            Ok(_) => {}
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn fetch_rising(&self, req: &RisingRequest) -> Result<RisingResponse, FetchError> {
        let result = {
            let _span = trace::span(self.rising_span);
            self.inner.fetch_rising(req)
        };
        self.captured
            .lock()
            .expect("capture lock")
            .requests
            .push(Logged::Rising(req.clone()));
        if result.is_err() {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn identity(&self) -> &str {
        self.inner.identity()
    }

    fn healthy(&self) -> bool {
        self.inner.healthy()
    }
}
