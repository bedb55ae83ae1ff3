//! Cross-module contract tests for the versioned `key=value` policy text
//! formats and the shared `GILLIS_*` environment parsing.
//!
//! Every policy family that ships a `to_text`/`from_text` pair — batch,
//! pipeline, overload, outage, resilience, recovery — promises the same
//! contract: `from_text` **returns an error** on malformed input (bad
//! header, missing `=`, unknown key, unparsable or out-of-range value), it
//! never panics, and `from_text(to_text(p)) == p` for any valid policy.
//! These tests pin that contract in one place so a new policy family cannot
//! quietly regress to panicking parsers.

use gillis_faas::envutil::parse_value;
use gillis_faas::{
    BatchPolicy, OutageConfig, OverloadPolicy, PipelinePolicy, RecoveryPolicy, ResiliencePolicy,
};
use proptest::prelude::*;

/// A policy's `from_text`, reduced to whether it accepted the text.
type Parses = fn(&str) -> bool;

/// Every text parser in the workspace, behind one signature so the
/// never-panics sweep and the malformed-input table drive all of them.
const PARSERS: &[(&str, &str, Parses)] = &[
    ("batch", "gillis-batch v1", |t| {
        BatchPolicy::from_text(t).is_ok()
    }),
    ("pipeline", "gillis-pipeline v1", |t| {
        PipelinePolicy::from_text(t).is_ok()
    }),
    ("overload", "gillis-overload v1", |t| {
        OverloadPolicy::from_text(t).is_ok()
    }),
    ("outage", "gillis-outage v1", |t| {
        OutageConfig::from_text(t).is_ok()
    }),
    ("resilience", "gillis-resilience v1", |t| {
        ResiliencePolicy::from_text(t).is_ok()
    }),
    ("recovery", "gillis-recovery v1", |t| {
        RecoveryPolicy::from_text(t).is_ok()
    }),
];

#[test]
fn every_parser_rejects_garbage_with_an_error() {
    for (name, header, parse_ok) in PARSERS {
        // Empty input and wrong headers are errors, not panics.
        assert!(!parse_ok(""), "{name}: empty text must be rejected");
        assert!(!parse_ok("not a policy"), "{name}: bad header");
        assert!(
            !parse_ok("gillis-recovery v99\n"),
            "{name}: unknown version"
        );
        // Past the header: a token without `=`, an unknown key, and an
        // unparsable value each produce a descriptive error.
        assert!(
            !parse_ok(&format!("{header}\nnot-a-kv-token\n")),
            "{name}: missing '='"
        );
        assert!(
            !parse_ok(&format!("{header}\nbogus_key=1\n")),
            "{name}: unknown key"
        );
    }
}

#[test]
fn every_parser_round_trips_a_representative_policy() {
    let batch = BatchPolicy::batch_one();
    assert_eq!(BatchPolicy::from_text(&batch.to_text()).unwrap(), batch);

    let pipeline = PipelinePolicy::with_lanes(3);
    assert_eq!(
        PipelinePolicy::from_text(&pipeline.to_text()).unwrap(),
        pipeline
    );

    let overload = OverloadPolicy::for_slo(500.0, 8);
    assert_eq!(
        OverloadPolicy::from_text(&overload.to_text()).unwrap(),
        overload
    );

    let outage = OutageConfig::severe(8.0, 21);
    assert_eq!(OutageConfig::from_text(&outage.to_text()).unwrap(), outage);

    let resilience = ResiliencePolicy::default();
    assert_eq!(
        ResiliencePolicy::from_text(&resilience.to_text()).unwrap(),
        resilience
    );

    let recovery = RecoveryPolicy::default();
    assert_eq!(
        RecoveryPolicy::from_text(&recovery.to_text()).unwrap(),
        recovery
    );
}

#[test]
fn recovery_text_rejects_out_of_range_knobs() {
    // Values that parse as numbers but fail validation surface the
    // validation error instead of producing an unusable policy.
    for bad in [
        "gillis-recovery v1\ncapacity=0\n",
        "gillis-recovery v1\nttl_ms=0\n",
        "gillis-recovery v1\nttl_ms=NaN\n",
        "gillis-recovery v1\nfailover_ms=-1\n",
        "gillis-recovery v1\nfailover_ms=inf\n",
        "gillis-recovery v1\nspec_factor=0.5\n",
        "gillis-recovery v1\nspec_factor=NaN\n",
        "gillis-recovery v1\ncapacity=many\n",
    ] {
        let err = RecoveryPolicy::from_text(bad).unwrap_err();
        assert!(!err.to_string().is_empty(), "empty error for {bad:?}");
    }
}

proptest! {
    /// No text parser panics on arbitrary input — neither on raw garbage
    /// nor on a valid header followed by arbitrary body bytes (the path
    /// that exercises token splitting and value parsing).
    #[test]
    fn parsers_never_panic_on_arbitrary_text(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        for (_, header, parse_ok) in PARSERS {
            let _ = parse_ok(&text);
            let _ = parse_ok(&format!("{header}\n{text}"));
        }
    }

    /// `RecoveryPolicy` text round-trips exactly over its whole valid
    /// domain, including the infinity sentinels for `ttl_ms` (never
    /// expire) and `spec_factor` (speculation off).
    #[test]
    fn recovery_policy_text_round_trips(
        capacity in 1usize..100_000,
        ttl_inf in any::<bool>(),
        ttl_finite in 0.001f64..1e7,
        failover_ms in 0.0f64..10_000.0,
        spec_inf in any::<bool>(),
        spec_finite in 1.0f64..1e4,
        max_speculations in 0u32..64,
    ) {
        let policy = RecoveryPolicy {
            capacity,
            ttl_ms: if ttl_inf { f64::INFINITY } else { ttl_finite },
            failover_ms,
            spec_factor: if spec_inf { f64::INFINITY } else { spec_finite },
            max_speculations,
        };
        prop_assert!(policy.validate().is_ok());
        let text = policy.to_text();
        let parsed = RecoveryPolicy::from_text(&text).unwrap();
        prop_assert_eq!(policy, parsed, "{}", text);
    }
}

/// One knob per `GILLIS_*` family: a malformed value yields a descriptive
/// error that names the variable and echoes the rejected input, so the
/// `env_var` wrapper's stderr warning tells the operator which knob was
/// ignored (the old readers swallowed typos silently).
#[test]
fn malformed_env_knobs_name_the_variable() {
    let cases: &[(&str, &str, bool)] = &[
        (
            "GILLIS_CHAOS_RATE",
            "0.0.5",
            parse_value::<f64>("GILLIS_CHAOS_RATE", "0.0.5").is_err(),
        ),
        (
            "GILLIS_OVERLOAD_CONCURRENCY",
            "four",
            parse_value::<usize>("GILLIS_OVERLOAD_CONCURRENCY", "four").is_err(),
        ),
        (
            "GILLIS_BATCH_MAX",
            "8x",
            parse_value::<usize>("GILLIS_BATCH_MAX", "8x").is_err(),
        ),
        (
            "GILLIS_PIPELINE_LANES",
            "-2",
            parse_value::<usize>("GILLIS_PIPELINE_LANES", "-2").is_err(),
        ),
        (
            "GILLIS_RETRY_BUDGET_MAX",
            "ten",
            parse_value::<f64>("GILLIS_RETRY_BUDGET_MAX", "ten").is_err(),
        ),
        (
            "GILLIS_BROWNOUT_WINDOW",
            "250ms",
            parse_value::<f64>("GILLIS_BROWNOUT_WINDOW", "250ms").is_err(),
        ),
        (
            "GILLIS_RECOVERY_CAPACITY",
            "0.5",
            parse_value::<usize>("GILLIS_RECOVERY_CAPACITY", "0.5").is_err(),
        ),
        (
            "GILLIS_OUTAGE_SEVERITY",
            "severe",
            parse_value::<f64>("GILLIS_OUTAGE_SEVERITY", "severe").is_err(),
        ),
    ];
    for (name, raw, rejected) in cases {
        assert!(rejected, "{name}={raw} should fail to parse");
        let msg = match *name {
            "GILLIS_OVERLOAD_CONCURRENCY"
            | "GILLIS_BATCH_MAX"
            | "GILLIS_PIPELINE_LANES"
            | "GILLIS_RECOVERY_CAPACITY" => parse_value::<usize>(name, raw).unwrap_err(),
            _ => parse_value::<f64>(name, raw).unwrap_err(),
        };
        assert!(msg.contains(name), "error {msg:?} must name {name}");
        assert!(
            msg.contains(raw),
            "error {msg:?} must echo the rejected input {raw:?}"
        );
    }
}

#[test]
fn well_formed_env_values_parse_with_whitespace_tolerance() {
    assert_eq!(parse_value::<f64>("GILLIS_CHAOS_RATE", " 0.05 "), Ok(0.05));
    assert_eq!(
        parse_value::<usize>("GILLIS_RECOVERY_CAPACITY", "256"),
        Ok(256)
    );
    assert_eq!(
        parse_value::<f64>("GILLIS_RECOVERY_SPEC_FACTOR", "inf"),
        Ok(f64::INFINITY)
    );
}
