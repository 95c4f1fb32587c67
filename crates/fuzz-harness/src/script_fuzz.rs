//! Seeded event-script fuzzing of the full router/runtime stack.
//!
//! A *script* here is an arbitrary-but-valid scenario: a random topology,
//! workload (possibly Zipf-skewed, possibly with a flash-crowd burst,
//! possibly with subscriber churn), link loss and failure epochs, chaos
//! (crash-restarts, gray links, broker membership churn) and broker
//! overload (bounded service queues with either shed policy). Running it
//! end-to-end through [`simulate`] exercises every event kind the
//! router reacts to — publishes, arrivals, hop-by-hop ACKs and their
//! timeouts, NACK recovery sweeps, duplicate and stale copies raced
//! through lossy links, and membership deltas — in adversarial
//! combinations no hand-written scenario enumerates.
//!
//! The oracle per script:
//!
//! * **no panic** anywhere in the stack;
//! * **clean audit**: the full invariant auditor (loop bounds,
//!   transmission budgets, duplicate deliveries, ACK discipline, churn
//!   gates, shed justification) reports zero violations — except that a
//!   script whose bounded queues tail-drop may carry
//!   [`Violation::UnjustifiedShed`]s and nothing else. Its overload
//!   branch overflows by construction, and tail drop then sheds
//!   still-satisfiable packets while doomed ones hold seats: the very
//!   indictment the shed gate exists to make. The report counts the
//!   scripts the gate fired on ([`ScriptFuzzReport::flagged_tail_drops`]),
//!   so the exemption cannot hold vacuously;
//! * **deterministic**: a sampled subset of scripts is re-run and must
//!   reproduce its trace digest byte-for-byte.
//!
//! Partitions are deliberately *outside* the generated envelope (the
//! partition/heal schedules have their own acceptance suite). Every
//! script runs with upstream reroute **on**: the historical reroute
//! ping-pong — two brokers at a sustained-unreachability boundary
//! bouncing a packet until the attempts cap burned out, blowing the
//! auditor's edge budget — is fixed by the router's reroute hysteresis
//! (`UPSTREAM_RETRY_CAP` plus the durable bounce ledger), and this
//! corpus is the regression gate that keeps it fixed.

use dcrd_core::{DcrdConfig, DcrdStrategy};
use dcrd_experiments::runner::{simulate, PUBLISH_INTERVAL};
use dcrd_experiments::scenario::{BrokerChurnSpec, CrashSpec, GraySpec, Scenario, ScenarioBuilder};
use dcrd_pubsub::runtime::ShedPolicy;
use dcrd_pubsub::workload::BurstConfig;
use dcrd_pubsub::{AckTransit, Violation};
use dcrd_sim::rng::{derive_seed_indexed, rng_for_indexed, SmallRng};
use dcrd_sim::SimDuration;
use std::fmt;

/// Tally of one script-fuzz run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScriptFuzzReport {
    /// Scripts generated and run.
    pub scripts: u64,
    /// Messages published across all scripts.
    pub messages: u64,
    /// Data transmissions across all scripts.
    pub sends: u64,
    /// Packets shed by bounded queues across all scripts.
    pub sheds: u64,
    /// Scripts that were re-run for the digest-equality check.
    pub digest_checks: u64,
    /// Scripts that exercised chaos (crashes, gray links or broker churn).
    pub chaotic_scripts: u64,
    /// Tail-drop scripts whose sheds the auditor flagged as unjustified.
    pub flagged_tail_drops: u64,
}

impl fmt::Display for ScriptFuzzReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} scripts ({} chaotic): {} messages, {} sends, {} sheds, {} digest re-runs, \
             {} tail-drop scripts flagged",
            self.scripts,
            self.chaotic_scripts,
            self.messages,
            self.sends,
            self.sheds,
            self.digest_checks,
            self.flagged_tail_drops
        )
    }
}

/// One generated script: the scenario plus the matching router config.
#[derive(Debug, Clone)]
pub struct Script {
    /// The generated scenario (topology, workload, chaos, overload knobs).
    pub scenario: Scenario,
    /// The router configuration paired with the scenario's hostility.
    pub dcrd: DcrdConfig,
    /// Whether any chaos dimension is active.
    pub chaotic: bool,
}

/// Generates the script at `(seed, index)`. Same pair, same script.
#[must_use]
pub fn generate_script(seed: u64, index: u64) -> Script {
    let mut rng: SmallRng = rng_for_indexed(seed, "script-gen", index);
    let duration_secs = rng.gen_range(6..=10u64);
    // Roughly half the corpus is loss-only (pf = 0); the other half
    // carries link-outage epochs, so sustained unreachability and the
    // reroute hysteresis both stay well sampled.
    let pf = if rng.gen_bool(0.4) {
        0.0
    } else {
        rng.gen_range(0.005..0.06)
    };
    let mut b = ScenarioBuilder::new()
        .seed(derive_seed_indexed(seed, "script-seed", index))
        .duration_secs(duration_secs)
        .repetitions(1)
        .topics(rng.gen_range(1..=3))
        .deadline_factor(rng.gen_range(2.0..5.0))
        .loss_rate(rng.gen_range(0.0..0.05))
        .failure_probability(pf)
        .transmissions(rng.gen_range(1..=2));

    // Topology family.
    b = match rng.gen_range(0..3u32) {
        0 => b.nodes(rng.gen_range(4..=10)).full_mesh(),
        1 => {
            let n = rng.gen_range(6..=10);
            b.nodes(n).degree(3)
        }
        _ => b.geo_tiered(2, rng.gen_range(2..=4)),
    };

    // Adversarial workload extensions.
    if rng.gen_bool(0.3) {
        b = b.zipf_popularity(rng.gen_range(0.8..1.6), 0.9);
    }
    if rng.gen_bool(0.3) {
        let at = duration_secs / 4;
        b = b.flash_crowd(BurstConfig {
            at: SimDuration::from_secs(at),
            len: SimDuration::from_secs((duration_secs / 4).max(1)),
            multiplier: rng.gen_range(2..=4),
        });
    }

    // Broker overload, overflowing by construction: its own flash crowd
    // (replacing any drawn above) publishes every topic faster than
    // `limit + 2` messages per service time, so a publisher's first hop
    // holds more than `limit` waiting copies before it serves its first.
    if rng.gen_bool(0.3) {
        let policy = if rng.gen_bool(0.7) {
            ShedPolicy::LeastSlack
        } else {
            ShedPolicy::TailDrop
        };
        let service = SimDuration::from_millis(rng.gen_range(1..=5));
        let limit = rng.gen_range(1..=6u32);
        let copies = u64::from(limit + 2);
        let multiplier = PUBLISH_INTERVAL.as_micros() * copies / service.as_micros() + 1;
        let multiplier =
            u32::try_from(multiplier).expect("at most 8 001 publications per interval");
        let gap = PUBLISH_INTERVAL / u64::from(multiplier);
        b = b
            .service_time(service)
            .bounded_queues(limit as usize, policy)
            .flash_crowd(BurstConfig {
                at: SimDuration::from_secs(duration_secs / 4),
                // Four queue-fulls of publications per topic.
                len: gap * (4 * copies),
                multiplier,
            });
    }

    // ACK transit model.
    if rng.gen_bool(0.3) {
        b = b.ack_transit(AckTransit::RoundTrip).ack_timeout_factor(2.5);
    }

    // Chaos envelope (no partitions — see module docs).
    let mut chaotic = false;
    let mut churny = false;
    if rng.gen_bool(0.2) {
        b = b.crashes(CrashSpec {
            rate: rng.gen_range(0.005..0.04),
            mean_down_epochs: rng.gen_range(1.0..3.0),
        });
        chaotic = true;
    }
    if rng.gen_bool(0.2) {
        b = b.gray_links(GraySpec {
            fraction: rng.gen_range(0.1..0.3),
            extra_loss: rng.gen_range(0.1..0.4),
            delay_factor: rng.gen_range(1.5..3.0),
        });
        chaotic = true;
    }
    if rng.gen_bool(0.15) {
        b = b.broker_churn(BrokerChurnSpec {
            rate: rng.gen_range(0.1..0.4),
        });
        chaotic = true;
        churny = true;
    }
    let scenario = b.audit(true).build();

    // Pair the router hardening with the script's hostility, exactly as an
    // operator would: churn needs the churn-survivable config, and every
    // other script runs the paper's defaults. Upstream reroute stays on
    // everywhere — the reroute hysteresis keeps sustained unreachability
    // (crashes, outage epochs, shedding queues) from ping-ponging packets
    // past the auditor's budgets.
    let dcrd = if churny {
        DcrdConfig::churn_hardened()
    } else {
        DcrdConfig::default()
    };
    Script {
        scenario,
        dcrd,
        chaotic,
    }
}

/// The outcome of one script run, reduced to what the oracles compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptOutcome {
    /// Trace digest (FNV-1a over the full event stream).
    pub digest: u64,
    /// Audit violations found: none, or only unjustified sheds in a
    /// tail-drop script.
    pub violations: u64,
    /// How many of them are unjustified sheds.
    pub unjustified_sheds: u64,
    /// Whether the bounded queues tail-drop.
    pub tail_drop: bool,
    /// Messages published.
    pub messages: u64,
    /// Data sends attempted.
    pub sends: u64,
    /// Packets shed by bounded queues.
    pub sheds: u64,
    /// Human-readable rendering of the first violations, for diagnostics.
    pub violation_details: Vec<String>,
}

impl ScriptOutcome {
    /// The audit oracle: zero violations, except that a tail-drop script
    /// may carry unjustified sheds and nothing else. Checked on the total
    /// counts, not on the recorded violations.
    fn audit_holds(&self) -> bool {
        let excused = if self.tail_drop {
            self.unjustified_sheds
        } else {
            0
        };
        self.violations == excused
    }

    /// Panics, naming `(seed, index)`, unless [`audit_holds`](Self::audit_holds).
    fn assert_audit(&self, script: &Script, seed: u64, index: u64) {
        assert!(
            self.audit_holds(),
            "script audit failure at seed={seed} index={index}: \
             {} violation(s), {} unjustified shed(s), tail drop {}: {:?}\nscenario: {:?}",
            self.violations,
            self.unjustified_sheds,
            self.tail_drop,
            self.violation_details,
            script.scenario
        );
    }
}

/// Runs one script end-to-end with the full auditor and trace capture.
#[must_use]
pub fn run_script(script: &Script) -> ScriptOutcome {
    let scenario = &script.scenario;
    let log = simulate(scenario, 0, &mut DcrdStrategy::new(script.dcrd), true);
    let audit = log.audit.as_ref().expect("auditor was configured");
    let tail_drop = scenario.shed_policy == ShedPolicy::TailDrop;
    ScriptOutcome {
        digest: log.trace.as_ref().map_or(0, |t| t.digest()),
        violations: audit.total_violations,
        unjustified_sheds: audit.unjustified_sheds,
        tail_drop,
        messages: log.messages_published,
        sends: log.data_sends,
        sheds: log.sheds,
        // Only the violations the oracle does not excuse.
        violation_details: audit
            .violations
            .iter()
            .filter(|v| !(tail_drop && matches!(v, Violation::UnjustifiedShed { .. })))
            .take(4)
            .map(ToString::to_string)
            .collect(),
    }
}

/// Generates and runs the single script at `(seed, index)`, panicking
/// where [`run_script_fuzz`] would — the way to replay one reported
/// failure.
pub fn check_script(seed: u64, index: u64) -> ScriptOutcome {
    let script = generate_script(seed, index);
    let outcome = run_script(&script);
    outcome.assert_audit(&script, seed, index);
    outcome
}

/// Runs `scripts` generated scripts; every `digest_every`-th script is run
/// twice and must reproduce its digest.
///
/// # Panics
///
/// Panics on the first audit violation or digest divergence, naming the
/// `(seed, index)` pair that regenerates the offending script.
#[must_use]
pub fn run_script_fuzz(seed: u64, scripts: u64) -> ScriptFuzzReport {
    let mut report = ScriptFuzzReport::default();
    for i in 0..scripts {
        let script = generate_script(seed, i);
        let outcome = run_script(&script);
        outcome.assert_audit(&script, seed, i);
        if i % 16 == 0 {
            let again = run_script(&script);
            assert!(
                again == outcome,
                "script-fuzz determinism failure at seed={seed} index={i}: \
                 digest {:#018x} != {:#018x}",
                outcome.digest,
                again.digest
            );
            report.digest_checks += 1;
        }
        report.scripts += 1;
        report.messages += outcome.messages;
        report.sends += outcome.sends;
        report.sheds += outcome.sheds;
        report.chaotic_scripts += u64::from(script.chaotic);
        report.flagged_tail_drops += u64::from(outcome.tail_drop && outcome.unjustified_sheds > 0);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate: ≥ 1k generated scripts with zero panics, no
    /// audit violation beyond tail drop's unjustified sheds, and
    /// digest-identical sampled re-runs.
    #[test]
    fn router_survives_1k_event_scripts_under_the_auditor() {
        let seed = 1;
        let report = run_script_fuzz(seed, 1_000);
        println!("script-fuzz seed={seed}: {report}");
        assert_eq!(report.scripts, 1_000);
        assert!(report.messages > 1_000, "scripts too quiet: {report}");
        assert!(report.sends > report.messages, "no forwarding: {report}");
        assert!(report.digest_checks >= 62);
        assert!(
            report.chaotic_scripts > 100,
            "chaos envelope under-sampled: {report}"
        );
        assert!(report.sheds > 0, "overload envelope never shed: {report}");
        assert!(
            report.flagged_tail_drops > 0,
            "the tail-drop exemption held vacuously: {report}"
        );
    }

    #[test]
    fn script_generation_is_deterministic() {
        let a = generate_script(5, 17);
        let b = generate_script(5, 17);
        assert_eq!(a.scenario, b.scenario);
        let c = generate_script(5, 18);
        assert_ne!(a.scenario, c.scenario);
    }

    #[test]
    fn script_outcomes_reproduce_from_their_seed_pair() {
        for index in [0u64, 3, 7] {
            let script = generate_script(2, index);
            assert_eq!(run_script(&script), run_script(&script), "index {index}");
        }
    }
}
