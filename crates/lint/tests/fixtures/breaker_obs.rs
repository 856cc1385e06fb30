//! Fixture for the `variant-label` rule: every `BreakerState` variant needs
//! its snake_case label string in non-test code, plus the registered
//! `sift_client_breaker_state` gauge. `Closed` and `Open` are labelled
//! below; `Stuck` never is, so the enum site is flagged once.

pub enum BreakerState { //~ variant-label
    Closed,
    Open,
    Stuck,
}

pub fn wire(state: BreakerState) {
    sift_obs::gauge("sift_client_breaker_state", &[]).set(0);
    let _label = match state {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::Stuck => "jammed", // wrong label on purpose
    };
}
