//! Property test for the cluster-merge invariant: responses gathered by K
//! independent workers — in any partition, with rerouted work fetched
//! twice, merged in any order — fold to exactly the same
//! [`ResponseStore`] as one store holding every response once.

use proptest::prelude::*;
use sift_fetcher::ResponseStore;
use sift_simtime::Hour;
use sift_trends::{FrameResponse, RisingResponse, RisingTerm, SearchTerm};

/// One synthetic crawl response. Every field (including the payload) is
/// a pure function of `i`, so any two copies of record `i` are
/// byte-identical — duplicates across shards can never conflict, which
/// mirrors the deterministic trends service.
#[derive(Clone, Copy)]
enum Record {
    Frame(usize),
    Rising(usize),
}

fn state_for(i: usize) -> sift_geo::State {
    sift_geo::State::ALL[i % sift_geo::State::ALL.len()]
}

fn apply(record: Record, store: &mut ResponseStore) {
    match record {
        Record::Frame(i) => store.insert_frame(
            i as u64,
            FrameResponse {
                term: SearchTerm::parse("internet outage"),
                state: state_for(i),
                // The hour encodes `i`, so every record's key is unique.
                start: Hour(i as i64),
                values: vec![(i % 251) as u8; 24],
            },
        ),
        Record::Rising(i) => store.insert_rising(
            168,
            RisingResponse {
                state: state_for(i),
                start: Hour(i as i64),
                rising: vec![RisingTerm {
                    term: format!("no internet {i}"),
                    weight: (i % 97) as u32,
                }],
            },
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// K per-worker stores — some records held by two workers, as after a
    /// reroute — merge to the same store as one combined store, with zero
    /// conflicts, in every merge order.
    #[test]
    fn sharded_stores_merge_like_one_combined_store(
        // Which worker each record lands on (also fixes the record count).
        assignment in proptest::collection::vec(0..4usize, 1..60),
        // A second worker that fetched the same record (equal to the
        // first: no duplicate).
        second in proptest::collection::vec(0..4usize, 60..61),
        // Mix of frame and rising records.
        kinds in proptest::collection::vec(any::<bool>(), 60..61),
    ) {
        let records: Vec<Record> = (0..assignment.len())
            .map(|i| if kinds[i] { Record::Frame(i) } else { Record::Rising(i) })
            .collect();

        let mut shards = vec![ResponseStore::new(); 4];
        let mut duplicates = 0;
        for (i, &r) in records.iter().enumerate() {
            apply(r, &mut shards[assignment[i]]);
            if second[i] != assignment[i] {
                apply(r, &mut shards[second[i]]);
                duplicates += 1;
            }
        }

        let mut combined = ResponseStore::new();
        for &r in &records {
            apply(r, &mut combined);
        }
        let expected = combined.to_json().expect("encode expected");

        // Merge the shards in two different orders: the result must not
        // depend on merge order.
        let mut reversed = shards.clone();
        reversed.reverse();
        for order in [shards, reversed] {
            let mut merged = ResponseStore::new();
            let (mut added, mut conflicts) = (0, 0);
            for shard in order {
                let report = merged.merge(shard);
                added += report.frames_added + report.rising_added;
                conflicts += report.conflicts;
            }
            prop_assert_eq!(conflicts, 0, "identical duplicates must not conflict");
            prop_assert_eq!(added, records.len(), "{} duplicates add nothing", duplicates);
            prop_assert_eq!(&merged.to_json().expect("encode merged"), &expected);
        }
    }
}
