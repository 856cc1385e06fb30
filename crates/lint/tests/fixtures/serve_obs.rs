//! Fixture for the `variant-label` rule: every `DegradeReason` variant needs
//! its snake_case label as a string literal somewhere in non-test code
//! (plus a registered `sift_serve_degraded_reads_total` counter).
//! `BreakerOpen` is covered by the label below; `Ghost` has none.

pub enum DegradeReason { //~ variant-label
    BreakerOpen,
    Ghost,
}

pub fn count_degraded_read(reason: &str) {
    sift_obs::counter("sift_serve_degraded_reads_total", &[("reason", reason)]).inc();
}

pub fn breaker_label() -> &'static str {
    "breaker_open"
}
