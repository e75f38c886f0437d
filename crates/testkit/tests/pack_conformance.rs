//! Pack-level conformance: the shipped `scenarios/*.json` files parse
//! and are their own canonical renderings byte for byte, the paper
//! packs are bit-identical to the hand-written constructors on both
//! engines, parsing round-trips byte-stably for arbitrary generated
//! packs, and malformed packs fail with pointed field-path errors.
//!
//! To rewrite the shipped files into canonical form after an
//! intentional schema change:
//!
//! ```text
//! FCR_REGEN_GOLDENS=1 cargo test -p fcr-testkit --test pack_conformance
//! git diff scenarios/   # review, then commit
//! ```

use fcr_runtime::ShardPolicy;
use fcr_scenario::shipped::{named, scenarios_dir, FILES};
use fcr_scenario::{Pack, PackError};
use fcr_sim::config::SimConfig;
use fcr_sim::{Scenario, Scheme, SimSession};
use fcr_testkit::generators::arb_scenario_pack;
use proptest::prelude::*;

/// The shipped pack files are the packs' only definition: each parses
/// (which validates it), carries its file's name, and is its own
/// canonical rendering byte for byte. `FCR_REGEN_GOLDENS=1` rewrites a
/// file into canonical form.
#[test]
fn shipped_pack_files_are_valid_and_canonical() {
    for (name, stored) in FILES {
        let pack = Pack::from_json(stored)
            .unwrap_or_else(|e| panic!("scenarios/{name}.json does not parse: {e}"));
        assert_eq!(pack.name, name, "scenarios/{name}.json names another pack");
        let canonical = pack.to_json();
        if std::env::var_os("FCR_REGEN_GOLDENS").is_some() {
            let path = scenarios_dir().join(format!("{name}.json"));
            std::fs::write(path, &canonical).expect("write shipped pack");
            continue;
        }
        assert_eq!(
            stored, canonical,
            "scenarios/{name}.json is not in canonical form; rewrite it with \
             `FCR_REGEN_GOLDENS=1 cargo test -p fcr-testkit --test pack_conformance` \
             and review the diff"
        );
    }
}

/// The three paper packs build *exactly* the scenarios the Rust
/// constructors build, and produce bit-identical results on both the
/// fluid and the packet engine.
#[test]
fn paper_packs_are_bit_identical_to_constructors_on_both_engines() {
    type Constructor = fn(&SimConfig) -> Scenario;
    let cases: [(&str, Constructor); 3] = [
        ("single_fbs", Scenario::single_fbs),
        ("paper_fig1", Scenario::fig1),
        ("paper_fig5", Scenario::interfering_fig5),
    ];
    for (name, constructor) in cases {
        let pack = named(name).unwrap_or_else(|| panic!("shipped pack {name} missing"));
        let cfg = pack.sim_config();
        let from_pack = pack.scenario();
        let from_rust = constructor(&cfg);
        assert_eq!(
            from_pack, from_rust,
            "{name}: scenario construction differs"
        );

        // Fluid engine: identical inputs must mean identical outputs.
        let run = |scenario: Scenario| {
            SimSession::new(scenario)
                .config(cfg)
                .seed(pack.seed)
                .runs(1)
                .run(Scheme::Proposed)
                .results()
        };
        assert_eq!(
            run(pack.scenario()),
            run(constructor(&cfg)),
            "{name}: fluid engine outputs differ"
        );

        // Packet engine: same check on the packet-level path.
        let run_packet = |scenario: Scenario| {
            SimSession::new(scenario)
                .config(cfg)
                .seed(pack.seed)
                .runs(1)
                .run_packet(Scheme::Proposed)
        };
        assert_eq!(
            run_packet(pack.scenario()).results(),
            run_packet(constructor(&cfg)).results(),
            "{name}: packet engine outputs differ"
        );
    }
}

/// The error table: every malformed fixture fails at exactly the
/// documented field path.
#[test]
fn malformed_packs_fail_with_pointed_field_paths() {
    let valid = named("mobility_churn").expect("shipped pack").to_json();
    let cases: &[(&str, &str, &str)] = &[
        // (mutation from the valid pack, expected path, message excerpt)
        ("\"seed\": 20110611,", "\"seed\": -3,", "seed"),
        ("\"runs\": 1,", "\"runs\": true,", "runs"),
        (
            "\"kind\": \"paper_fig5\",",
            "\"kind\": \"octagon\",",
            "topology.kind",
        ),
        (
            "\"users_per_fbs\": 2",
            "\"users_per_fbs\": 2.5",
            "topology.users_per_fbs",
        ),
        ("\"gops\": 2", "\"gops\": 0", "channel"),
        ("\"deadline\": 4,", "\"deadlines\": 4,", "channel.deadlines"),
        (
            "\"sequences\": [\"bus\", \"mobile\", \"harbor\"],",
            "\"sequences\": [\"bus\", \"akiyo\"],",
            "traffic.sequences[1]",
        ),
        ("\"step_m\": 6,", "\"step_m\": -1,", "mobility.step_m"),
        (
            "\"rate_per_slot\": 0.6",
            "\"rate_per_slot\": \"fast\"",
            "churn.arrivals.rate_per_slot",
        ),
        (
            "\"mbs_budget\": 4,",
            "\"mbs_budget\": 0,",
            "churn.mbs_budget",
        ),
        (
            "\"schemes\": [\"proposed\"],",
            "\"schemes\": [\"optimal\"],",
            "schemes[0]",
        ),
        (
            "\"slots\": 40,",
            "\"slots\": 40, \"flux\": 1,",
            "churn.flux",
        ),
    ];
    for (needle, replacement, want_path) in cases {
        assert!(
            valid.contains(needle),
            "fixture mutation {needle:?} not found in the valid pack"
        );
        let broken = valid.replacen(needle, replacement, 1);
        let err: PackError =
            Pack::from_json(&broken).expect_err(&format!("mutation {replacement:?} must fail"));
        assert_eq!(
            err.path, *want_path,
            "mutation {replacement:?}: error at `{}` ({}), wanted `{want_path}`",
            err.path, err.message
        );
    }
    // And a whole-document syntax error names no field.
    let err = Pack::from_json("{ not json").expect_err("syntax error");
    assert_eq!(err.path, "");
}

/// Missing required fields name themselves.
#[test]
fn missing_required_fields_name_themselves() {
    let valid = named("single_fbs").expect("shipped pack").to_json();
    for (line, want_path) in [
        ("\"name\": \"single_fbs\",\n", "name"),
        ("\"seed\": 20110611,\n", "seed"),
        ("\"base_runs\": 1,\n", "traffic.base_runs"),
    ] {
        assert!(valid.contains(line), "fixture line {line:?} missing");
        let broken = valid.replacen(line, "", 1);
        let err = Pack::from_json(&broken).expect_err("must fail");
        assert_eq!(err.path, want_path);
        assert!(
            err.message.contains("missing required field"),
            "unexpected message: {err}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzing the parse/serialize pair: every generated pack
    /// round-trips exactly, and its canonical form is a fixed point.
    #[test]
    fn generated_packs_round_trip_byte_stably(pack in arb_scenario_pack()) {
        prop_assert!(pack.validate().is_ok());
        let text = pack.to_json();
        let back = Pack::from_json(&text)
            .unwrap_or_else(|e| panic!("reparse of {} failed: {e}", pack.name));
        prop_assert_eq!(&back, &pack, "parse(to_json(pack)) != pack");
        prop_assert_eq!(back.to_json(), text, "canonical form is not a fixed point");
    }

    /// Every generated pack builds a scenario whose batch results are
    /// bit-identical under serial and sharded execution.
    #[test]
    fn generated_packs_are_shard_invariant(pack in arb_scenario_pack()) {
        let run = |shards: ShardPolicy| {
            pack.session()
                .shards(shards)
                .run(pack.schemes[0])
                .results()
        };
        prop_assert_eq!(
            run(ShardPolicy::WholeRun),
            run(ShardPolicy::Windows(3)),
            "shard policy changed pack results"
        );
    }
}
