//! Search vocabulary: topics, providers and phrase templates.
//!
//! The trends service distinguishes *search topics* (semantic clusters
//! maintained by the service, e.g. `<Internet outage>`) from raw *search
//! queries* (literal user phrasings). SIFT tracks the `<Internet outage>`
//! topic and receives raw queries back as rising suggestions; this module
//! owns both vocabularies.

use serde::{Deserialize, Serialize};
use sift_geo::State;
use std::fmt;

/// A term the service can be asked about: either a curated topic or a raw
/// query string.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum SearchTerm {
    /// A curated search topic (semantic cluster of queries).
    Topic(Topic),
    /// A literal query string, matched after normalization.
    Query(String),
}

impl SearchTerm {
    /// Parses the service's canonical string form: topics are spelled
    /// `topic:<name>`, anything else is a raw query.
    pub fn parse(s: &str) -> SearchTerm {
        match s.strip_prefix("topic:") {
            Some(name) => Topic::from_name(name)
                .map(SearchTerm::Topic)
                .unwrap_or_else(|| SearchTerm::Query(s.to_owned())),
            None => SearchTerm::Query(s.to_owned()),
        }
    }

    /// Canonical string form, inverse of [`SearchTerm::parse`].
    pub fn canonical(&self) -> String {
        match self {
            SearchTerm::Topic(t) => format!("topic:{}", t.name()),
            SearchTerm::Query(q) => q.clone(),
        }
    }
}

impl fmt::Display for SearchTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchTerm::Topic(t) => write!(f, "<{}>", t.name()),
            SearchTerm::Query(q) => write!(f, "<{q}>"),
        }
    }
}

/// The curated search topics the simulator models.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Topic {
    /// The `<Internet outage>` topic SIFT tracks: every phrasing of "my
    /// internet is down".
    InternetOutage,
    /// The `<Power outage>` topic, the paper's key context annotation.
    PowerOutage,
}

impl Topic {
    /// Service-facing topic name.
    pub fn name(self) -> &'static str {
        match self {
            Topic::InternetOutage => "Internet outage",
            Topic::PowerOutage => "Power outage",
        }
    }

    /// Case-insensitive lookup by name.
    pub fn from_name(s: &str) -> Option<Topic> {
        if s.eq_ignore_ascii_case("internet outage") {
            Some(Topic::InternetOutage)
        } else if s.eq_ignore_ascii_case("power outage") {
            Some(Topic::PowerOutage)
        } else {
            None
        }
    }
}

/// Service and application providers whose outages users search for.
///
/// The list mirrors the providers appearing in the paper's tables and
/// heavy-hitter analysis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[expect(
    missing_docs,
    reason = "a variant is named for the provider it stands for"
)]
pub enum Provider {
    // Fixed-line ISPs.
    Comcast,
    Xfinity,
    Spectrum,
    Att,
    Verizon,
    CoxCommunications,
    CenturyLink,
    Frontier,
    // Mobile carriers.
    TMobile,
    Sprint,
    MetroPcs,
    // CDN / cloud.
    Akamai,
    Cloudflare,
    Fastly,
    Aws,
    // Applications.
    Youtube,
    Facebook,
    Instagram,
    Netflix,
    Zoom,
}

impl Provider {
    /// Every modelled provider.
    pub const ALL: [Provider; 20] = [
        Provider::Comcast,
        Provider::Xfinity,
        Provider::Spectrum,
        Provider::Att,
        Provider::Verizon,
        Provider::CoxCommunications,
        Provider::CenturyLink,
        Provider::Frontier,
        Provider::TMobile,
        Provider::Sprint,
        Provider::MetroPcs,
        Provider::Akamai,
        Provider::Cloudflare,
        Provider::Fastly,
        Provider::Aws,
        Provider::Youtube,
        Provider::Facebook,
        Provider::Instagram,
        Provider::Netflix,
        Provider::Zoom,
    ];

    /// The fixed-line ISPs (used for regional network outages).
    pub const ISPS: [Provider; 8] = [
        Provider::Comcast,
        Provider::Xfinity,
        Provider::Spectrum,
        Provider::Att,
        Provider::Verizon,
        Provider::CoxCommunications,
        Provider::CenturyLink,
        Provider::Frontier,
    ];

    /// The mobile carriers.
    pub const MOBILE: [Provider; 3] = [Provider::TMobile, Provider::Sprint, Provider::MetroPcs];

    /// CDN and cloud providers (outages are typically nationwide).
    pub const CDN_CLOUD: [Provider; 4] = [
        Provider::Akamai,
        Provider::Cloudflare,
        Provider::Fastly,
        Provider::Aws,
    ];

    /// Consumer applications (outages are nationwide and ping-invisible).
    pub const APPS: [Provider; 5] = [
        Provider::Youtube,
        Provider::Facebook,
        Provider::Instagram,
        Provider::Netflix,
        Provider::Zoom,
    ];

    /// Human-readable name as it appears in search phrases.
    pub fn name(self) -> &'static str {
        match self {
            Provider::Comcast => "Comcast",
            Provider::Xfinity => "Xfinity",
            Provider::Spectrum => "Spectrum",
            Provider::Att => "AT&T",
            Provider::Verizon => "Verizon",
            Provider::CoxCommunications => "Cox Communications",
            Provider::CenturyLink => "CenturyLink",
            Provider::Frontier => "Frontier",
            Provider::TMobile => "T-Mobile",
            Provider::Sprint => "Sprint",
            Provider::MetroPcs => "Metro PCS",
            Provider::Akamai => "Akamai",
            Provider::Cloudflare => "Cloudflare",
            Provider::Fastly => "Fastly",
            Provider::Aws => "AWS",
            Provider::Youtube => "Youtube",
            Provider::Facebook => "Facebook",
            Provider::Instagram => "Instagram",
            Provider::Netflix => "Netflix",
            Provider::Zoom => "Zoom",
        }
    }
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Phrasing templates users reach for when a provider misbehaves. Each
/// template yields a distinct rising query; together with per-state and
/// per-city phrasings they produce the long-tailed suggestion vocabulary
/// the paper observes (6655 distinct terms, 33 of which cover half the
/// mass).
pub fn provider_phrases(p: Provider) -> Vec<String> {
    let n = p.name();
    vec![
        format!("{n} outage"),
        format!("is {n} down"),
        format!("{n} down"),
        format!("{n} internet outage"),
        format!("{n} not working"),
        format!("{n} outage map"),
    ]
}

/// Phrasings users reach for in a power outage, localised to a state.
pub fn power_phrases(state: State) -> Vec<String> {
    let mut out = vec!["power outage".to_owned(), "power outage map".to_owned()];
    for city in major_cities(state) {
        out.push(format!("{} power outage", city.to_lowercase()));
    }
    out.push(format!("power outage {}", state.name().to_lowercase()));
    out
}

/// Generic internet-outage phrasings localised to a state.
pub fn generic_outage_phrases(state: State) -> Vec<String> {
    vec![
        "internet outage".to_owned(),
        "internet down".to_owned(),
        "is my internet down".to_owned(),
        format!("internet outage {}", state.name().to_lowercase()),
    ]
}

/// The two largest cities of each region, for localized phrasings like the
/// paper's `<san jose power outage>` example.
pub fn major_cities(state: State) -> [&'static str; 2] {
    use State::*;
    match state {
        AK => ["Anchorage", "Fairbanks"],
        AL => ["Birmingham", "Huntsville"],
        AR => ["Little Rock", "Fayetteville"],
        AZ => ["Phoenix", "Tucson"],
        CA => ["Los Angeles", "San Jose"],
        CO => ["Denver", "Colorado Springs"],
        CT => ["Bridgeport", "New Haven"],
        DC => ["Washington", "Georgetown"],
        DE => ["Wilmington", "Dover"],
        FL => ["Jacksonville", "Miami"],
        GA => ["Atlanta", "Savannah"],
        HI => ["Honolulu", "Hilo"],
        IA => ["Des Moines", "Cedar Rapids"],
        ID => ["Boise", "Meridian"],
        IL => ["Chicago", "Aurora"],
        IN => ["Indianapolis", "Fort Wayne"],
        KS => ["Wichita", "Overland Park"],
        KY => ["Louisville", "Lexington"],
        LA => ["New Orleans", "Baton Rouge"],
        MA => ["Boston", "Worcester"],
        MD => ["Baltimore", "Columbia"],
        ME => ["Portland", "Lewiston"],
        MI => ["Detroit", "Grand Rapids"],
        MN => ["Minneapolis", "Saint Paul"],
        MO => ["Kansas City", "Saint Louis"],
        MS => ["Jackson", "Gulfport"],
        MT => ["Billings", "Missoula"],
        NC => ["Charlotte", "Raleigh"],
        ND => ["Fargo", "Bismarck"],
        NE => ["Omaha", "Lincoln"],
        NH => ["Manchester", "Nashua"],
        NJ => ["Newark", "Jersey City"],
        NM => ["Albuquerque", "Las Cruces"],
        NV => ["Las Vegas", "Reno"],
        NY => ["New York", "Buffalo"],
        OH => ["Columbus", "Cleveland"],
        OK => ["Oklahoma City", "Tulsa"],
        OR => ["Portland", "Eugene"],
        PA => ["Philadelphia", "Pittsburgh"],
        RI => ["Providence", "Warwick"],
        SC => ["Charleston", "Columbia"],
        SD => ["Sioux Falls", "Rapid City"],
        TN => ["Nashville", "Memphis"],
        TX => ["Houston", "Austin"],
        UT => ["Salt Lake City", "Provo"],
        VA => ["Virginia Beach", "Richmond"],
        VT => ["Burlington", "Rutland"],
        WA => ["Seattle", "Spokane"],
        WI => ["Milwaukee", "Madison"],
        WV => ["Charleston", "Huntington"],
        WY => ["Cheyenne", "Casper"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_parse_round_trip() {
        let t = SearchTerm::Topic(Topic::InternetOutage);
        assert_eq!(SearchTerm::parse(&t.canonical()), t);
        let q = SearchTerm::Query("is verizon down".into());
        assert_eq!(SearchTerm::parse(&q.canonical()), q);
        // Unknown topic names degrade to raw queries rather than erroring.
        assert_eq!(
            SearchTerm::parse("topic:Quantum outage"),
            SearchTerm::Query("topic:Quantum outage".into())
        );
    }

    #[test]
    fn topic_lookup_case_insensitive() {
        assert_eq!(
            Topic::from_name("internet OUTAGE"),
            Some(Topic::InternetOutage)
        );
        assert_eq!(Topic::from_name("Power outage"), Some(Topic::PowerOutage));
        assert_eq!(Topic::from_name("weather"), None);
    }

    #[test]
    fn provider_groups_partition_all() {
        let mut count = 0;
        count += Provider::ISPS.len();
        count += Provider::MOBILE.len();
        count += Provider::CDN_CLOUD.len();
        count += Provider::APPS.len();
        assert_eq!(count, Provider::ALL.len());
    }

    #[test]
    fn phrases_are_distinct() {
        let ps = provider_phrases(Provider::Verizon);
        let mut sorted = ps.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(ps.len(), sorted.len());
        assert!(ps.contains(&"is Verizon down".to_string()));
    }

    #[test]
    fn san_jose_power_outage_exists() {
        let phrases = power_phrases(sift_geo::State::CA);
        assert!(phrases.contains(&"san jose power outage".to_string()));
        assert!(phrases.contains(&"power outage".to_string()));
    }

    #[test]
    fn every_state_has_two_cities() {
        for s in State::ALL {
            let [a, b] = major_cities(s);
            assert_ne!(a, b);
            assert!(!a.is_empty() && !b.is_empty());
        }
    }
}
