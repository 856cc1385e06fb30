//! Scaffolding shared by the socket-level acceptance tests.

use sift::geo::State;
use sift::simtime::Hour;
use sift::trends::terms::Provider;
use sift::trends::{Cause, OutageEvent, PowerTrigger, Scenario};

/// The seeded world the cluster, nemesis, resume and serve tests replay:
/// two target events (TX+CA power at hour 300, CA ISP at hour 600) plus
/// anchor outages every 70 hours keeping the frame chain calibrated.
/// Responses are a pure function of request coordinates and the scenario
/// seed, so independent service instances (even in different processes)
/// serve identical bytes.
pub fn world(regions: &[State]) -> Scenario {
    let mut events = vec![
        OutageEvent {
            id: 0,
            name: "power".into(),
            cause: Cause::Power(PowerTrigger::Storm),
            start: Hour(300),
            duration_h: 8,
            states: vec![(State::TX, 0.3), (State::CA, 0.2)],
            severity: 9_000.0,
            lags_h: vec![0, 0],
        },
        OutageEvent {
            id: 1,
            name: "isp".into(),
            cause: Cause::IspNetwork(Provider::Spectrum),
            start: Hour(600),
            duration_h: 5,
            states: vec![(State::CA, 0.2)],
            severity: 8_000.0,
            lags_h: vec![0],
        },
    ];
    for (i, start) in (40..800).step_by(70).enumerate() {
        for (j, state) in [State::TX, State::CA].into_iter().enumerate() {
            events.push(OutageEvent {
                id: 100 + (i * 2 + j) as u32,
                name: format!("anchor-{i}-{state}"),
                cause: Cause::IspNetwork(Provider::Frontier),
                start: Hour(start + 11 * j as i64),
                duration_h: 2,
                states: vec![(state, 0.02)],
                severity: 8_000.0,
                lags_h: vec![0],
            });
        }
    }
    let mut scenario = Scenario::single_region(State::TX, vec![]);
    scenario.params.regions = regions.to_vec();
    scenario.events = events;
    scenario.events.sort_by_key(|e| (e.start, e.id));
    scenario
}
