//! Ground-truth outage events.
//!
//! An [`OutageEvent`] is something that *really happened* in the simulated
//! world: a provider failure, a power outage, a cloud misconfiguration. It
//! drives user search interest (through [`crate::interest`]) and — for
//! events that break network reachability — probe responsiveness (through
//! the `sift-probe` crate). SIFT never sees events directly; it must
//! recover them from the trends service.

use crate::terms::{PhraseKey, Provider};
use serde::{Deserialize, Serialize};
use sift_geo::State;
use sift_simtime::{Hour, HourRange};

/// What triggered a power outage. The paper's context analysis surfaces
/// climate triggers as a dominant cause of long outages (Table 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum PowerTrigger {
    /// Severe winter weather (the Feb 2021 Texas grid failure).
    WinterStorm,
    /// Heat-wave driven rotating blackouts (CA, Sep 2020).
    HeatWave,
    /// Wildfire-related shutoffs and damage (CA, Aug–Sep 2020).
    Wildfire,
    /// Generic storm damage.
    Storm,
    /// Tornado damage (KY, Dec 2021).
    Tornado,
    /// Flooding / heavy rain (MI, Aug 2021).
    HeavyRain,
    /// Physical infrastructure damage (CO severed line, Jul 2021).
    SeveredLine,
    /// Grid-side failure with no weather trigger.
    GridFailure,
}

impl PowerTrigger {
    /// Human-readable description used in reports, e.g. `"Winter storm"`.
    pub fn description(self) -> &'static str {
        match self {
            PowerTrigger::WinterStorm => "Winter storm",
            PowerTrigger::HeatWave => "Heat wave",
            PowerTrigger::Wildfire => "Wildfire",
            PowerTrigger::Storm => "Storm",
            PowerTrigger::Tornado => "Tornado",
            PowerTrigger::HeavyRain => "Heavy rain and storm",
            PowerTrigger::SeveredLine => "Severed power line",
            PowerTrigger::GridFailure => "Grid failure",
        }
    }

    /// True if the trigger is a climate/weather phenomenon (the paper's
    /// "climate disasters dictate the outliers" observation).
    pub fn is_climate(self) -> bool {
        !matches!(self, PowerTrigger::SeveredLine | PowerTrigger::GridFailure)
    }
}

/// The root cause of an outage event, determining which search phrases
/// rise and whether active probing can see the event at all.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Cause {
    /// A fixed-line ISP's network failure. Probe-visible.
    IspNetwork(Provider),
    /// A mobile carrier failure. Invisible to probing (mobile nodes do not
    /// answer probes — the paper's T-Mobile example, §4.1).
    MobileCarrier(Provider),
    /// CDN / cloud-provider failure (Akamai DNS misconfiguration, Fastly,
    /// Cloudflare, AWS). Servers stay pingable, so probing misses it
    /// (§4.2).
    CdnOrCloud(Provider),
    /// Application-level failure (Youtube buffering, Facebook BGP...).
    /// Also invisible to probing.
    Application(Provider),
    /// A power outage taking network equipment down with it.
    /// Probe-visible.
    Power(PowerTrigger),
}

impl Cause {
    /// Whether the event makes end hosts unreachable to active probing.
    ///
    /// This single bit reproduces the paper's central visibility contrast:
    /// SIFT sees what users feel, probing sees what stops answering pings.
    pub fn affects_reachability(self) -> bool {
        matches!(self, Cause::IspNetwork(_) | Cause::Power(_))
    }

    /// The provider implicated, if any.
    pub fn provider(self) -> Option<Provider> {
        match self {
            Cause::IspNetwork(p)
            | Cause::MobileCarrier(p)
            | Cause::CdnOrCloud(p)
            | Cause::Application(p) => Some(p),
            Cause::Power(_) => None,
        }
    }

    /// Short label for reports: the provider name, or the power trigger.
    #[expect(clippy::expect_used, reason = "only Power has no provider")]
    pub fn label(self) -> String {
        match self {
            Cause::Power(t) => t.description().to_owned(),
            other => other
                .provider()
                .expect("non-power causes carry a provider")
                .name()
                .to_owned(),
        }
    }
}

/// A ground-truth outage event.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OutageEvent {
    /// Stable identifier, unique within a scenario.
    pub id: u32,
    /// Human label for reports, e.g. `"Texas winter storm"`.
    pub name: String,
    /// Root cause.
    pub cause: Cause,
    /// First hour at which user interest rises (UTC).
    pub start: Hour,
    /// How long user interest stays elevated, in hours (≥ 1).
    pub duration_h: u32,
    /// Affected regions with per-region intensity in `(0, 1]`, scaling the
    /// interest lift (and, for probe-visible causes, the fraction of
    /// blocks knocked out).
    pub states: Vec<(State, f64)>,
    /// Peak interest lift in the fully-affected region, as a multiple of
    /// the baseline `<Internet outage>` proportion.
    pub severity: f64,
    /// Per-region start lag in hours, keyed parallel to `states`. Zero for
    /// synchronous events; the Facebook outage uses local-time lags
    /// (§4.2).
    pub lags_h: Vec<u32>,
}

impl OutageEvent {
    /// The UTC window of elevated interest in the *unlagged* regions.
    pub fn window(&self) -> HourRange {
        HourRange::with_len(self.start, i64::from(self.duration_h))
    }

    /// The window of elevated interest in region index `i` of
    /// [`OutageEvent::states`], including its lag.
    pub fn window_in(&self, i: usize) -> HourRange {
        let lag = i64::from(*self.lags_h.get(i).unwrap_or(&0));
        HourRange::with_len(self.start + lag, i64::from(self.duration_h))
    }

    /// Interest lift multiplier at `at` for the region at index `i`:
    /// `severity * intensity * shape(t)`, where `shape` rises steeply over
    /// the first hours, plateaus, and decays towards the end of the
    /// window. Zero outside the window.
    pub fn lift_at(&self, i: usize, at: Hour) -> f64 {
        let w = self.window_in(i);
        if !w.contains(at) {
            return 0.0;
        }
        let t = (at - w.start) as f64;
        let d = self.duration_h as f64;
        self.severity * self.states[i].1 * shape(t, d)
    }

    /// True if this event's cause is a power outage.
    pub fn is_power(&self) -> bool {
        matches!(self.cause, Cause::Power(_))
    }

    /// The search phrases this event drives upward in region `state`,
    /// beyond the `<Internet outage>` topic itself.
    pub fn rising_phrases(&self, state: State) -> Vec<String> {
        self.phrase_key(state).phrases()
    }

    /// What [`OutageEvent::rising_phrases`] depends on in region `state`.
    pub(crate) fn phrase_key(&self, state: State) -> PhraseKey {
        match self.cause {
            // Which providers a power outage takes down depends on who
            // serves the affected area, modelled as a deterministic
            // per-event choice.
            Cause::Power(_) => PhraseKey::Power {
                state,
                isp: (self.id as usize * 7 + state.index()) % Provider::ISPS.len(),
                mobile: (self.id as usize * 13) % Provider::MOBILE.len(),
            },
            Cause::IspNetwork(provider)
            | Cause::MobileCarrier(provider)
            | Cause::CdnOrCloud(provider)
            | Cause::Application(provider) => PhraseKey::Provider { provider, state },
        }
    }
}

/// Temporal shape of user interest within an event window.
///
/// Interest jumps to its maximum within the first two hours (users notice
/// fast, and everyone searches at once — which is also why concurrent
/// spikes across states peak in the same hour), then decays gently while
/// the outage lasts, with a final rolloff in the last quarter of the
/// window. Matches the asymmetric spikes of the paper's Fig. 1.
fn shape(t: f64, duration: f64) -> f64 {
    debug_assert!(t >= 0.0 && t < duration);
    let rise = ((t + 1.0) / 2.0).min(1.0);
    // Gentle attention decay after the peak: stays well above the
    // half-per-hour detection walk threshold.
    let decay = (-0.045 * (t - 1.0).max(0.0)).exp();
    let tail_len = (duration / 4.0).max(1.0);
    let remaining = duration - t;
    let fall = (remaining / tail_len).min(1.0);
    rise * decay * fall
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> OutageEvent {
        OutageEvent {
            id: 1,
            name: "test".into(),
            cause: Cause::IspNetwork(Provider::Verizon),
            start: Hour(100),
            duration_h: 8,
            states: vec![(State::TX, 1.0), (State::OK, 0.5)],
            severity: 10.0,
            lags_h: vec![0, 2],
        }
    }

    #[test]
    fn window_and_lag() {
        let e = event();
        assert_eq!(e.window(), HourRange::new(Hour(100), Hour(108)));
        assert_eq!(e.window_in(0), HourRange::new(Hour(100), Hour(108)));
        assert_eq!(e.window_in(1), HourRange::new(Hour(102), Hour(110)));
    }

    #[test]
    fn lift_zero_outside_window() {
        let e = event();
        assert!(e.lift_at(0, Hour(99)).abs() < 1e-12);
        assert!(e.lift_at(0, Hour(108)).abs() < 1e-12);
        assert!(e.lift_at(0, Hour(103)) > 0.0);
    }

    #[test]
    fn lift_scales_with_intensity() {
        let e = event();
        let full = e.lift_at(0, Hour(104));
        let half = e.lift_at(1, Hour(106)); // same offset into lagged window
        assert!((half - full * 0.5).abs() < 1e-9);
    }

    #[test]
    fn shape_rises_then_falls() {
        let d = 12.0;
        assert!(shape(0.0, d) < shape(2.0, d));
        assert!(shape(4.0, d) >= shape(10.0, d));
        assert!(shape(11.0, d) > 0.0);
        for t in 0..12 {
            let v = shape(t as f64, d);
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn one_hour_event_has_full_lift_at_peak() {
        let v = shape(0.0, 1.0);
        assert!(v > 0.4, "one-hour events must still register: {v}");
    }

    #[test]
    fn reachability_split_matches_paper() {
        assert!(Cause::IspNetwork(Provider::Comcast).affects_reachability());
        assert!(Cause::Power(PowerTrigger::WinterStorm).affects_reachability());
        assert!(!Cause::MobileCarrier(Provider::TMobile).affects_reachability());
        assert!(!Cause::CdnOrCloud(Provider::Akamai).affects_reachability());
        assert!(!Cause::Application(Provider::Youtube).affects_reachability());
    }

    #[test]
    fn rising_phrases_match_cause() {
        let e = event();
        let phrases = e.rising_phrases(State::TX);
        assert!(phrases.iter().any(|p| p.contains("Verizon")));

        let power = OutageEvent {
            cause: Cause::Power(PowerTrigger::WinterStorm),
            ..event()
        };
        let phrases = power.rising_phrases(State::TX);
        assert!(phrases.contains(&"power outage".to_string()));
        assert!(phrases.iter().any(|p| p.contains("houston")));
    }

    #[test]
    fn cause_labels() {
        assert_eq!(Cause::Power(PowerTrigger::HeatWave).label(), "Heat wave");
        assert_eq!(Cause::CdnOrCloud(Provider::Akamai).label(), "Akamai");
        assert!(PowerTrigger::Wildfire.is_climate());
        assert!(!PowerTrigger::SeveredLine.is_climate());
    }
}
