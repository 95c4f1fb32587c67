//! DCRD tuning knobs.

pub use crate::ordering::OrderingPolicy;

/// What a publisher does when the whole recursive exploration fails (every
/// neighbor tried, packet returned to the publisher, publisher exhausted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PersistenceMode {
    /// Drop the packet (the paper's evaluated, non-persistent mode).
    #[default]
    Disabled,
    /// Park the packet and retry the full exploration when the failure
    /// epoch changes — the paper's sketched persistency mode (§III), which
    /// guarantees delivery under transient partitions at the cost of
    /// storage and extra traffic.
    Retry {
        /// Maximum number of parked retries per packet at each broker,
        /// counted across every copy of the packet that broker handles.
        max_retries: u32,
        /// Delay before each retry, in milliseconds (the paper's failures
        /// last one second, so ≈1000 ms is natural).
        retry_after_ms: u64,
    },
}

/// Whether a broker's in-flight custody state survives a crash-restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityMode {
    /// In-flight state lives in RAM only (the paper's model): a
    /// crash-restarted broker forgets every packet it had accepted.
    #[default]
    Volatile,
    /// Write-ahead custody journaling plus subscriber-side end-to-end
    /// recovery.
    ///
    /// A broker records a packet on its journal *before* taking custody,
    /// releases the entry as downstream ACKs settle destinations, and
    /// replays surviving entries on restart. It ACKs and delivers at once
    /// but defers *forwarding* by the durable write's cost
    /// ([`JOURNAL_WRITE_COST`](crate::router::JOURNAL_WRITE_COST)).
    ///
    /// Subscribers detect gaps over per-(topic, publisher) sequence
    /// numbers, NACK them toward the publisher, and absorb replayed copies
    /// in a bounded dedup window.
    Durable,
}

/// Full DCRD configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcrdConfig {
    /// Sending-list ordering (Theorem 1 by default; others for ablation).
    pub ordering: OrderingPolicy,
    /// Whether a broker that exhausts its sending list reroutes the packet
    /// to its upstream node (§III-D). Disabling this (ablation) makes DCRD
    /// a "try my neighbors then drop" scheme.
    pub reroute_upstream: bool,
    /// Publisher-side persistence (paper extension).
    pub persistence: PersistenceMode,
    /// Custody durability and NACK recovery (volatile by default — the
    /// paper's model).
    pub durability: DurabilityMode,
    /// Membership-churn survival (off by default — the paper's static
    /// membership). On, every membership change the failure detector
    /// reports invalidates every routing table over the new absent set,
    /// hands the custody entries of a confirmed-dead or departed broker to
    /// its upstream (or the publisher), and routes the restart of a broker
    /// the membership layer had removed through the same repair a
    /// detector-observed join takes. Off, tables keep naming departed
    /// brokers: the baseline the churn experiments measure against.
    pub repair: bool,
}

impl Default for DcrdConfig {
    fn default() -> Self {
        DcrdConfig {
            ordering: OrderingPolicy::RatioOptimal,
            reroute_upstream: true,
            persistence: PersistenceMode::Disabled,
            durability: DurabilityMode::Volatile,
            repair: false,
        }
    }
}

impl DcrdConfig {
    /// Exactly [`default`](Self::default); it exists only because the
    /// repository benchmark still calls it.
    #[must_use]
    pub fn chaos_hardened() -> Self {
        DcrdConfig::default()
    }

    /// The crash-survivable variant: the paper's router plus durable
    /// custody with NACK recovery and aggressive publisher persistence.
    /// This is the configuration under which the end-to-end audit (no
    /// gaps, no duplicates) is expected to hold under crash chaos.
    #[must_use]
    pub fn recovery_hardened() -> Self {
        DcrdConfig {
            durability: DurabilityMode::Durable,
            persistence: PersistenceMode::Retry {
                max_retries: 100,
                retry_after_ms: 500,
            },
            ..DcrdConfig::default()
        }
    }

    /// The churn-survivable variant:
    /// [`recovery_hardened`](Self::recovery_hardened) plus table repair,
    /// custody handoff and restart repair ([`repair`](Self::repair)).
    #[must_use]
    pub fn churn_hardened() -> Self {
        DcrdConfig {
            repair: true,
            ..DcrdConfig::recovery_hardened()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DcrdConfig::default();
        assert_eq!(c.ordering, OrderingPolicy::RatioOptimal);
        assert!(c.reroute_upstream);
        assert_eq!(c.persistence, PersistenceMode::Disabled);
        assert_eq!(c.durability, DurabilityMode::Volatile);
        assert!(!c.repair);
    }

    /// Each rung of the ladder is the previous rung with one feature
    /// switched on (plus the publisher persistence recovery runs use),
    /// starting from the paper's defaults.
    #[test]
    fn hardened_ladder_layers_one_feature_per_rung() {
        assert_eq!(DcrdConfig::chaos_hardened(), DcrdConfig::default());
        let recovery = DcrdConfig::recovery_hardened();
        assert_eq!(recovery.durability, DurabilityMode::Durable);
        assert_eq!(
            recovery.persistence,
            PersistenceMode::Retry {
                max_retries: 100,
                retry_after_ms: 500
            }
        );
        assert_eq!(
            recovery,
            DcrdConfig {
                durability: DurabilityMode::Durable,
                persistence: recovery.persistence,
                ..DcrdConfig::default()
            }
        );
        assert_eq!(
            DcrdConfig::churn_hardened(),
            DcrdConfig {
                repair: true,
                ..recovery
            }
        );
    }
}
