//! Property tests for the log-scale histogram and the JSONL codec — the
//! correctness satellite of the observability PR.
//!
//! The histogram contract: for any sample set and any quantile, the
//! reported percentile is interpolated *within* the log2 bucket holding
//! the exact order statistic at that rank — it lands in the same bucket,
//! between that bucket's lower and upper bound, never outside it.

#![expect(
    clippy::indexing_slicing,
    reason = "test code: a failed check is a failed test"
)]

use proptest::prelude::*;

use wtpg_obs::jsonl;
use wtpg_obs::{Histogram, ObsEvent};

fn exact_percentile(sorted: &[u64], q: f64) -> u64 {
    let total = sorted.len() as u64;
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    sorted[(rank - 1) as usize]
}

proptest! {
    #[test]
    fn percentile_within_one_bucket_of_exact(
        samples in proptest::collection::vec(0u64..2_000_000, 1..300),
        qs in 0u32..=100,
    ) {
        let q = qs as f64 / 100.0;
        let mut h = Histogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = exact_percentile(&sorted, q);
        let reported = h.percentile(q);
        let eb = Histogram::bucket_of(exact);
        let rb = Histogram::bucket_of(reported);
        prop_assert_eq!(
            eb, rb,
            "q={} exact={} (bucket {}) reported={} (bucket {})",
            q, exact, eb, reported, rb
        );
        // Interpolation stays inside the winning bucket's range.
        prop_assert!(
            reported >= Histogram::bucket_lower_bound(eb)
                && reported <= Histogram::bucket_upper_bound(eb),
            "reported {} escapes bucket {}", reported, eb
        );
    }

    #[test]
    fn merge_equals_bulk_record(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let mut ha = Histogram::new();
        for &v in &a { ha.record(v); }
        let mut hb = Histogram::new();
        for &v in &b { hb.record(v); }
        ha.merge(&hb);
        let mut all = Histogram::new();
        for &v in a.iter().chain(b.iter()) { all.record(v); }
        prop_assert_eq!(ha, all);
    }

    #[test]
    fn histogram_text_codec_round_trips(
        samples in proptest::collection::vec(0u64..u64::MAX, 0..200),
    ) {
        let mut h = Histogram::new();
        for &v in &samples { h.record(v); }
        prop_assert_eq!(Histogram::decode(&h.encode()), Some(h));
    }

    #[test]
    fn jsonl_round_trips_random_events(
        raw in proptest::collection::vec(
            (0u64..u64::MAX, 0u32..64, 0usize..6, 0u64..u64::MAX, 0u64..1_000_000),
            0..120,
        ),
    ) {
        let events: Vec<ObsEvent> = raw
            .iter()
            .map(|&(at, track, kind, id, aux)| match kind {
                0 => ObsEvent::span_begin(at, track, "txn", id),
                1 => ObsEvent::span_end(at, track, "txn", id),
                2 => ObsEvent::instant(at, track, "abort", id),
                3 => ObsEvent::counter(at, track, "eq_cache_hits", aux),
                4 => ObsEvent::duration(at, track, "lock_wait_us", id, aux),
                _ => {
                    let mut h = Histogram::new();
                    h.record(aux);
                    h.record(id);
                    ObsEvent::hist(at, track, "rt_ms", h)
                }
            })
            .collect();
        let text = jsonl::encode(&events);
        let decoded = jsonl::decode(&text);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        prop_assert_eq!(decoded.ok(), Some(events));
    }
}

/// Counter/span nesting round-trips through JSONL encode/decode — the
/// explicit satellite requirement, with properly nested spans.
#[test]
fn nested_spans_and_counters_round_trip() {
    let mut events = Vec::new();
    for txn in 0..10u64 {
        let base = txn * 100;
        events.push(ObsEvent::span_begin(base, 0, "txn", txn));
        events.push(ObsEvent::counter(base + 1, 0, "admissions", txn + 1));
        for step in 0..3u64 {
            events.push(ObsEvent::span_begin(base + 2 + step * 10, 0, "step", txn * 8 + step));
            events.push(ObsEvent::span_end(base + 7 + step * 10, 0, "step", txn * 8 + step));
        }
        events.push(ObsEvent::span_end(base + 90, 0, "txn", txn));
    }
    let decoded = jsonl::decode(&jsonl::encode(&events)).expect("round trip decodes");
    assert_eq!(decoded, events);

    let summary = wtpg_obs::TraceSummary::from_events(&decoded);
    assert_eq!(summary.span("txn").map(Histogram::count), Some(10));
    assert_eq!(summary.span("step").map(Histogram::count), Some(30));
    assert_eq!(summary.unclosed_spans, 0);
    assert_eq!(summary.counters.get("admissions"), Some(&10));
}
