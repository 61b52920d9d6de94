//! Property-based tests across the workspace (proptest).
//!
//! These target the invariants the whole reproduction rests on: wire
//! codec round-trips, BGP routing sanity on random topologies, fluid
//! queue conservation, binning consistency, the policy model's
//! optimality bound, and the JSON parser that guards sweep resume.

use proptest::prelude::*;
use proptest::strategy::Strategy as _;
use proptest::test_runner::TestRng;
use rootcast::policy_model::{paper_deployment, Strategy};
use rootcast::sweep::Headline;
use rootcast::SweepRecord;
use rootcast_bgp::{compute_rib_scoped, Origin, Scope};
use rootcast_dns::{Letter, Message, Name, Rcode, Rdata, Record, RrClass, RrType, ServerIdentity};
use rootcast_netsim::{BinnedSeries, FluidQueue, RateSignal, SimDuration, SimRng, SimTime};
use rootcast_topology::{gen, Tier, TopologyParams};
use serde_json::Value;

// ---------------------------------------------------------------- names

/// Strategy for a valid DNS label.
fn label() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]{1,20}").expect("valid regex")
}

/// Strategy for a valid domain name of 1..5 labels.
fn name() -> impl proptest::strategy::Strategy<Value = String> {
    proptest::collection::vec(label(), 1..5).prop_map(|ls| ls.join("."))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn name_roundtrips_through_wire(n in name()) {
        let parsed = Name::parse(&n).expect("valid name");
        let mut buf = Vec::new();
        parsed.encode(&mut buf);
        let (decoded, next) = Name::decode(&buf, 0).expect("decodes");
        prop_assert_eq!(&decoded, &parsed);
        prop_assert_eq!(next, buf.len());
        prop_assert_eq!(decoded.wire_len(), buf.len());
    }

    #[test]
    fn name_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Must return Ok or Err, never panic or loop forever.
        let _ = Name::decode(&bytes, 0);
    }

    #[test]
    fn message_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn query_roundtrips(qname in name(), id in any::<u16>()) {
        let q = Message::query(id, Name::parse(&qname).unwrap(), RrType::A, RrClass::In);
        let decoded = Message::decode(&q.encode()).expect("round-trip");
        prop_assert_eq!(decoded, q);
    }

    #[test]
    fn response_with_records_roundtrips(
        qname in name(),
        addr in any::<[u8; 4]>(),
        ttl in 0u32..1_000_000,
    ) {
        let q = Message::query(1, Name::parse(&qname).unwrap(), RrType::A, RrClass::In);
        let mut r = q.response_to(Rcode::NoError);
        r.answers.push(Record {
            name: q.questions[0].qname.clone(),
            rtype: RrType::A,
            class: RrClass::In,
            ttl,
            rdata: Rdata::A(addr),
        });
        let decoded = Message::decode(&r.encode()).expect("round-trip");
        prop_assert_eq!(decoded, r);
    }

    // ------------------------------------------------------------ chaos

    #[test]
    fn chaos_identity_roundtrips(
        letter_idx in 0usize..13,
        site in proptest::string::string_regex("[A-Z]{3}").expect("regex"),
        server in 1u16..100,
    ) {
        let letter = Letter::ALL[letter_idx];
        let id = ServerIdentity::new(letter, &site, server);
        let txt = id.format_txt();
        let parsed = ServerIdentity::parse_txt(letter, &txt);
        prop_assert_eq!(parsed, Some(id));
    }

    #[test]
    fn chaos_parse_never_panics(letter_idx in 0usize..13, txt in ".{0,60}") {
        let _ = ServerIdentity::parse_txt(Letter::ALL[letter_idx], &txt);
    }

    // ------------------------------------------------------------- bgp

    #[test]
    fn routing_covers_everyone_with_a_global_origin(
        seed in 0u64..50,
        host_pick in any::<u64>(),
    ) {
        let graph = gen::generate(&TopologyParams::tiny(), &SimRng::new(seed));
        let stubs = graph.by_tier(Tier::Stub);
        let host = stubs[(host_pick % stubs.len() as u64) as usize];
        let origins = [Origin { host, scope: Scope::Global, prepend: 0 }];
        let rib = compute_rib_scoped(&graph, &origins, &[true]);
        // A single global origin on a connected valley-free topology
        // reaches every AS.
        prop_assert_eq!(rib.reachable_count(), graph.len());
        // Latency zero only at the host itself.
        for (asn, route) in rib.iter() {
            if asn == host {
                prop_assert_eq!(route.latency, SimDuration::ZERO);
            } else {
                prop_assert!(route.latency > SimDuration::ZERO);
            }
        }
    }

    #[test]
    fn anycast_catchments_partition_the_graph(
        seed in 0u64..30,
        pick_a in any::<u64>(),
        pick_b in any::<u64>(),
    ) {
        let graph = gen::generate(&TopologyParams::tiny(), &SimRng::new(seed));
        let stubs = graph.by_tier(Tier::Stub);
        let a = stubs[(pick_a % stubs.len() as u64) as usize];
        let b = stubs[(pick_b % stubs.len() as u64) as usize];
        prop_assume!(a != b);
        let origins = [
            Origin { host: a, scope: Scope::Global, prepend: 0 },
            Origin { host: b, scope: Scope::Global, prepend: 0 },
        ];
        let rib = compute_rib_scoped(&graph, &origins, &[true, true]);
        let sizes = rib.catchment_sizes(2);
        prop_assert_eq!(sizes.iter().sum::<usize>(), graph.len());
        // Each host is in its own catchment.
        prop_assert_eq!(rib.origin_of(a).map(|o| o.0), Some(0));
        prop_assert_eq!(rib.origin_of(b).map(|o| o.0), Some(1));
    }

    #[test]
    fn withdrawing_one_of_two_sites_moves_everyone(
        seed in 0u64..30,
        pick_a in any::<u64>(),
        pick_b in any::<u64>(),
    ) {
        let graph = gen::generate(&TopologyParams::tiny(), &SimRng::new(seed));
        let stubs = graph.by_tier(Tier::Stub);
        let a = stubs[(pick_a % stubs.len() as u64) as usize];
        let b = stubs[(pick_b % stubs.len() as u64) as usize];
        prop_assume!(a != b);
        let origins = [
            Origin { host: a, scope: Scope::Global, prepend: 0 },
            Origin { host: b, scope: Scope::Global, prepend: 0 },
        ];
        let rib = compute_rib_scoped(&graph, &origins, &[true, false]);
        prop_assert_eq!(rib.catchment_sizes(2), vec![graph.len(), 0]);
    }

    // ----------------------------------------------------------- fluid

    #[test]
    fn fluid_queue_conserves_traffic(
        capacity in 10.0f64..10_000.0,
        buffer in 0.0f64..10_000.0,
        offered in 0.0f64..50_000.0,
        secs in 1u64..10_000,
    ) {
        let mut q = FluidQueue::new(capacity, buffer);
        let loss = q.advance(SimTime::from_secs(secs), offered);
        prop_assert!((0.0..=1.0).contains(&loss), "loss {loss}");
        // Accepted traffic = offered*(1-loss); backlog + served must
        // account for it: backlog <= buffer, and served <= capacity*dt.
        let dt = secs as f64;
        let accepted = offered * dt * (1.0 - loss);
        let served_bound = capacity * dt;
        prop_assert!(q.backlog() <= buffer + 1e-6);
        prop_assert!(
            accepted <= served_bound + q.backlog() + 1e-6,
            "accepted {accepted} > served {served_bound} + backlog {}",
            q.backlog()
        );
    }

    #[test]
    fn rate_signal_integral_matches_mean(
        rates in proptest::collection::vec(0.0f64..1000.0, 1..6),
        width in 1u64..1000,
    ) {
        let mut s = RateSignal::zero();
        for (i, &r) in rates.iter().enumerate() {
            s.set_from(SimTime::from_secs(i as u64 * width), r);
        }
        let end = SimTime::from_secs(rates.len() as u64 * width);
        let integral = s.integrate(SimTime::ZERO, end);
        let expected: f64 = rates.iter().map(|r| r * width as f64).sum();
        prop_assert!((integral - expected).abs() < 1e-6 * expected.max(1.0));
        let mean = s.mean(SimTime::ZERO, end);
        prop_assert!((mean - expected / (rates.len() as f64 * width as f64)).abs() < 1e-9);
    }

    // ---------------------------------------------------------- series

    #[test]
    fn binned_series_increments_are_conserved(
        times in proptest::collection::vec(0u64..3600, 0..100),
    ) {
        let mut s = BinnedSeries::zeros(SimDuration::from_mins(10), 6);
        for &t in &times {
            s.incr_at(SimTime::from_secs(t));
        }
        let total: f64 = s.values().iter().sum();
        prop_assert_eq!(total as usize, times.len());
    }

    // ---------------------------------------------------- policy model

    #[test]
    fn no_strategy_beats_exhaustive_best(a0 in 0.0f64..15.0, a1 in 0.0f64..15.0) {
        let d = paper_deployment(1.0, a0, a1);
        let best = d.best_possible();
        for s in Strategy::ALL {
            prop_assert!(
                s.apply(&d).happiness() <= best,
                "{} beat the exhaustive optimum at a0={a0} a1={a1}",
                s.name()
            );
        }
    }

    #[test]
    fn happiness_monotone_in_attack(a in 0.0f64..15.0) {
        // More attack never increases absorb-happiness.
        let h1 = paper_deployment(1.0, a, a).happiness();
        let h2 = paper_deployment(1.0, a + 1.0, a + 1.0).happiness();
        prop_assert!(h2 <= h1, "H rose from {h1} to {h2} as attack grew");
    }
}

// ---------------------------------------------------------------- json

/// A finite `f64`: integers of every magnitude, scaled fractions, edge
/// values (-0, subnormals, the integer-printing cutoff) or raw bit
/// patterns.
fn finite_f64(rng: &mut TestRng) -> f64 {
    const EDGES: [f64; 8] = [
        0.0,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        9.0e15,
        -9.0e15,
    ];
    match rng.below(4) {
        0 => ((rng.next_u64() as i64) >> rng.below(64)) as f64,
        1 => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
        2 => EDGES[rng.below(EDGES.len() as u64) as usize],
        _ => loop {
            let v = f64::from_bits(rng.next_u64());
            if v.is_finite() {
                break v;
            }
        },
    }
}

/// A string mixing ASCII, JSON metacharacters, control characters and
/// arbitrary Unicode scalars.
fn json_string(rng: &mut TestRng) -> String {
    (0..rng.below(12))
        .map(|_| match rng.below(3) {
            0 => (b' ' + rng.below(95) as u8) as char,
            1 => [
                '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}',
            ][rng.below(9) as usize],
            _ => loop {
                if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
                    break c;
                }
            },
        })
        .collect()
}

/// Strategy for `serde_json::Value` trees nested at most `depth` deep.
struct JsonTree {
    depth: u32,
}

impl proptest::strategy::Strategy for JsonTree {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        let inner = JsonTree {
            depth: self.depth.saturating_sub(1),
        };
        match rng.below(if self.depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(rng.next_u64() & 1 == 1),
            2 => Value::Number(finite_f64(rng)),
            3 => Value::String(json_string(rng)),
            4 => Value::Array((0..rng.below(5)).map(|_| inner.generate(rng)).collect()),
            _ => Value::Object(
                (0..rng.below(5))
                    .map(|_| (json_string(rng), inner.generate(rng)))
                    .collect(),
            ),
        }
    }
}

/// Equality with numbers compared by bit pattern, so -0 ≠ 0.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(xs), Value::Array(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Value::Object(xs), Value::Object(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

/// Strategy for checkpoint-manifest records with arbitrary field values.
struct ManifestRecord;

impl proptest::strategy::Strategy for ManifestRecord {
    type Value = SweepRecord;

    fn generate(&self, rng: &mut TestRng) -> SweepRecord {
        let count = |rng: &mut TestRng| rng.below(1 << 40);
        SweepRecord {
            label: json_string(rng),
            seed: rng.next_u64(),
            substrate_key: rng.next_u64(),
            config_hash: rng.next_u64(),
            output_digest: rng.next_u64(),
            wall_ms: finite_f64(rng),
            headline: Headline {
                n_ases: count(rng) as usize,
                n_vps_kept: count(rng) as usize,
                worst_letter_availability: finite_f64(rng),
                mean_letter_availability: finite_f64(rng),
                peak_offered_qps: finite_f64(rng),
                worst_served_ratio: finite_f64(rng),
                policy_transitions: count(rng),
                route_events: count(rng),
                faults_injected: count(rng),
            },
            counters: (0..rng.below(4))
                .map(|_| (json_string(rng), count(rng)))
                .collect(),
            resumed: true,
        }
    }
}

/// Characters that steer the parser into every branch.
const JSON_ALPHABET: &[char] = &[
    '{',
    '}',
    '[',
    ']',
    '"',
    ':',
    ',',
    '\\',
    'u',
    '0',
    '1',
    '9',
    '-',
    '+',
    '.',
    'e',
    'E',
    't',
    'r',
    'f',
    'a',
    'l',
    's',
    'n',
    ' ',
    '\n',
    'é',
    '\u{1F600}',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn json_values_round_trip_exactly(v in JsonTree { depth: 4 }) {
        let text = v.to_string();
        let parsed = Value::parse(&text);
        prop_assert!(
            parsed.as_ref().is_some_and(|p| same_bits(p, &v)),
            "{text:?} parsed back as {parsed:?}"
        );
    }

    #[test]
    fn manifest_parser_never_panics_on_arbitrary_text(
        raw in proptest::collection::vec(any::<u8>(), 0..128),
        picks in proptest::collection::vec(0usize..JSON_ALPHABET.len(), 0..128),
    ) {
        let _ = SweepRecord::from_json(&String::from_utf8_lossy(&raw));
        let jsonish: String = picks.iter().map(|&i| JSON_ALPHABET[i]).collect();
        let _ = SweepRecord::from_json(&jsonish);
        let _ = Value::parse(&jsonish);
    }

    #[test]
    fn manifest_lines_round_trip_and_cut_lines_are_skipped(
        rec in ManifestRecord,
        other in ManifestRecord,
        cut in any::<usize>(),
    ) {
        let line = rec.to_json();
        prop_assert_eq!(SweepRecord::from_json(&line), Some(rec));
        // A write cut short by a kill, alone or with the next record
        // appended to the same line.
        let mut at = cut % line.len();
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        let prefix = &line[..at];
        prop_assert_eq!(SweepRecord::from_json(prefix), None);
        let _ = SweepRecord::from_json(&format!("{prefix}{}", other.to_json()));
    }
}
