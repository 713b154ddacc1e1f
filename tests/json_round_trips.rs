//! JSON round-trips for the public types that reach a stored document:
//! the fields of a cache unit and its report (times, traces, fault plans,
//! allocation policies, tile ids) and the results manifest. Uses the
//! in-repo JSON layer in `blitzcoin_sim::json` (the workspace builds
//! fully offline, so there is no serde here).

use blitzcoin_core::AllocationPolicy;
use blitzcoin_exp::{Claim, FigResult};
use blitzcoin_noc::TileId;
use blitzcoin_sim::fault::{FaultPlan, TileFault};
use blitzcoin_sim::json::{FromJson, Json, ToJson};
use blitzcoin_sim::{SimTime, StepTrace};

/// Round-trips a value through pretty-printed JSON text and back.
fn round_trip<T>(value: &T) -> T
where
    T: ToJson + FromJson,
{
    let text = value.to_json().to_string_pretty();
    let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
    T::from_json(&parsed).unwrap_or_else(|e| panic!("decode failed: {e}\n{text}"))
}

#[test]
fn sim_time_round_trips() {
    for t in [
        SimTime::ZERO,
        SimTime::from_noc_cycles(7),
        SimTime::from_ms(400),
        SimTime::MAX,
    ] {
        assert_eq!(round_trip(&t), t);
    }
}

#[test]
fn step_trace_round_trips() {
    let mut tr = StepTrace::new("power_mw");
    tr.record(SimTime::ZERO, 10.0);
    tr.record(SimTime::from_us(1), 30.5);
    tr.record(SimTime::from_us(3), 0.25);
    let back = round_trip(&tr);
    assert_eq!(back.name(), tr.name());
    assert_eq!(back.value_at(SimTime::from_ns(500)), 10.0);
    assert_eq!(back.value_at(SimTime::from_us(2)), 30.5);
    assert_eq!(back.value_at(SimTime::from_us(9)), 0.25);
}

#[test]
fn allocation_policy_round_trips() {
    for p in [
        AllocationPolicy::AbsoluteProportional,
        AllocationPolicy::RelativeProportional,
    ] {
        assert_eq!(round_trip(&p), p);
    }
}

#[test]
fn tile_id_round_trips() {
    assert_eq!(round_trip(&TileId(42)), TileId(42));
}

#[test]
fn fault_plan_round_trips() {
    let plan = FaultPlan {
        tile_faults: vec![
            TileFault {
                tile: 4,
                at_cycle: 5_000,
            },
            TileFault {
                tile: 2,
                at_cycle: 0,
            },
        ],
    };
    assert_eq!(round_trip(&plan), plan);
    assert_eq!(round_trip(&FaultPlan::none()), FaultPlan::none());
}

#[test]
fn experiment_results_round_trip() {
    let mut r = FigResult::new("fig17", "Response time vs N");
    r.claim("fig17.slope", "O(N) for C-RR", "O(N) measured", true);
    r.claim("fig17.flat", "O(1) for BC", "flat measured", true);
    r.outputs.push("results/fig17.csv".to_string());
    let back = round_trip(&r);
    assert_eq!(back.id, r.id);
    assert_eq!(back.title, r.title);
    assert_eq!(back.outputs, r.outputs);
    assert_eq!(back.claims.len(), 2);
    assert_eq!(back.claims[0].id, "fig17.slope");
    assert!(back.all_hold());

    let c = Claim::new("x", "p", "m", false);
    let back = round_trip(&c);
    assert_eq!(back.id, "x");
    assert!(!back.holds);
}

#[test]
fn manifest_shape_matches_cli_output() {
    // The CLI writes Vec<FigResult> as the manifest; decoding a handmade
    // manifest keeps the format stable.
    let text = r#"[
      {"id": "fig1", "title": "T", "claims": [
        {"id": "a", "paper": "p", "measured": "m", "holds": true}
      ], "outputs": ["results/fig1.csv"], "wall_ms": 12.5, "jobs": 4,
      "oracle_violations": 0, "tie_break": "fifo",
      "cache_hits": 3, "cache_misses": 2, "cache_saved_ms": 7.25}
    ]"#;
    let results: Vec<FigResult> = Vec::from_json(&Json::parse(text).unwrap()).unwrap();
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].claims[0].id, "a");
    assert_eq!(results[0].wall_ms, 12.5);
    assert_eq!(results[0].jobs, 4);
    assert_eq!(results[0].oracle_violations, 0);
    assert_eq!(results[0].cache_hits, 3);
    assert_eq!(results[0].cache_misses, 2);
    assert_eq!(results[0].cache_saved_ms, 7.25);
}
