//! The physical join-algorithm rule (Section 6.1.2 of the paper).
//!
//! Hash join is the default. When one input is estimated to be small enough to
//! fit in the memory of every node it is broadcast instead, saving the shuffle
//! of the large input. If, additionally, the other input is a *base* dataset
//! with a secondary index on its join key and the broadcast input is filtered,
//! the indexed nested-loop join is chosen so the large dataset is never scanned
//! at all.

use rdo_exec::JoinAlgorithm;

/// What the algorithm rule needs to know about one side of a join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSideInfo {
    /// Dataset alias (for diagnostics).
    pub alias: String,
    /// Estimated number of qualified rows feeding the join.
    pub estimated_rows: f64,
    /// True if this side is a bare scan of a base dataset (intermediate results
    /// and filtered scans lose their secondary indexes).
    pub is_bare_base_scan: bool,
    /// True if this side has local predicates (is "filtered").
    pub has_filter: bool,
    /// True if a secondary index exists on this side's join key.
    pub indexed_on_join_key: bool,
}

impl JoinSideInfo {
    /// Builds side information.
    pub fn new(alias: impl Into<String>, estimated_rows: f64) -> Self {
        Self {
            alias: alias.into(),
            estimated_rows,
            is_bare_base_scan: false,
            has_filter: false,
            indexed_on_join_key: false,
        }
    }

    /// Marks the side as a bare base-table scan.
    pub fn with_bare_base_scan(mut self, value: bool) -> Self {
        self.is_bare_base_scan = value;
        self
    }

    /// Marks the side as filtered by local predicates.
    pub fn with_filter(mut self, value: bool) -> Self {
        self.has_filter = value;
        self
    }

    /// Marks the side as having a secondary index on the join key.
    pub fn with_index(mut self, value: bool) -> Self {
        self.indexed_on_join_key = value;
        self
    }
}

/// The rule choosing the join algorithm and the build side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinAlgorithmRule {
    /// Maximum estimated row count for an input to be broadcast.
    pub broadcast_threshold_rows: f64,
    /// Whether indexed nested-loop joins may be chosen at all (Figure 7 vs.
    /// Figure 8 of the paper).
    pub enable_indexed_nested_loop: bool,
}

impl Default for JoinAlgorithmRule {
    fn default() -> Self {
        Self {
            broadcast_threshold_rows: 25_000.0,
            enable_indexed_nested_loop: false,
        }
    }
}

/// A join-algorithm decision: the algorithm plus which side should be the build
/// (broadcast) side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmChoice {
    /// The chosen algorithm.
    pub algorithm: JoinAlgorithm,
    /// True if the build side should be the *second* argument passed to
    /// [`JoinAlgorithmRule::choose`]; false if the sides should be swapped.
    pub build_is_second: bool,
}

impl JoinAlgorithmRule {
    /// Creates a rule with a custom broadcast threshold.
    pub fn with_threshold(broadcast_threshold_rows: f64) -> Self {
        Self {
            broadcast_threshold_rows,
            ..Default::default()
        }
    }

    /// Enables indexed nested-loop joins.
    pub fn with_indexed_nested_loop(mut self, enabled: bool) -> Self {
        self.enable_indexed_nested_loop = enabled;
        self
    }

    /// True if a side of the given estimated size may be broadcast.
    pub fn can_broadcast(&self, estimated_rows: f64) -> bool {
        estimated_rows <= self.broadcast_threshold_rows
    }

    /// Chooses the join algorithm and build side for joining `a` (first) with
    /// `b` (second). The returned orientation keeps `a` as the probe side when
    /// `build_is_second` is true.
    pub fn choose(&self, a: &JoinSideInfo, b: &JoinSideInfo) -> AlgorithmChoice {
        // Prefer broadcasting the smaller side.
        let (small, small_is_second) = if b.estimated_rows <= a.estimated_rows {
            (b, true)
        } else {
            (a, false)
        };
        let large = if small_is_second { a } else { b };

        if self.can_broadcast(small.estimated_rows) {
            // Indexed nested-loop: the broadcast side must be filtered and the
            // probe side must be a bare base-dataset scan with an index on its
            // join key (intermediate data has no secondary indexes).
            if self.enable_indexed_nested_loop
                && small.has_filter
                && large.is_bare_base_scan
                && large.indexed_on_join_key
            {
                return AlgorithmChoice {
                    algorithm: JoinAlgorithm::IndexedNestedLoop,
                    build_is_second: small_is_second,
                };
            }
            return AlgorithmChoice {
                algorithm: JoinAlgorithm::Broadcast,
                build_is_second: small_is_second,
            };
        }
        AlgorithmChoice {
            algorithm: JoinAlgorithm::Hash,
            build_is_second: small_is_second,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> JoinAlgorithmRule {
        JoinAlgorithmRule::with_threshold(1_000.0)
    }

    #[test]
    fn large_inputs_use_hash() {
        let a = JoinSideInfo::new("lineitem", 1_000_000.0);
        let b = JoinSideInfo::new("orders", 500_000.0);
        let choice = rule().choose(&a, &b);
        assert_eq!(choice.algorithm, JoinAlgorithm::Hash);
        assert!(
            choice.build_is_second,
            "smaller side becomes the build side"
        );
    }

    #[test]
    fn small_side_is_broadcast() {
        let a = JoinSideInfo::new("lineitem", 1_000_000.0);
        let b = JoinSideInfo::new("nation", 25.0);
        let choice = rule().choose(&a, &b);
        assert_eq!(choice.algorithm, JoinAlgorithm::Broadcast);
        assert!(choice.build_is_second);
        // Symmetric call broadcasts the first argument instead.
        let choice = rule().choose(&b, &a);
        assert_eq!(choice.algorithm, JoinAlgorithm::Broadcast);
        assert!(!choice.build_is_second);
    }

    #[test]
    fn inl_requires_flag_filter_index_and_bare_scan() {
        let fact = JoinSideInfo::new("store_sales", 2_000_000.0)
            .with_bare_base_scan(true)
            .with_index(true);
        let dim = JoinSideInfo::new("date_dim", 300.0).with_filter(true);

        // Disabled by default.
        assert_eq!(
            rule().choose(&fact, &dim).algorithm,
            JoinAlgorithm::Broadcast
        );

        let inl_rule = rule().with_indexed_nested_loop(true);
        assert_eq!(
            inl_rule.choose(&fact, &dim).algorithm,
            JoinAlgorithm::IndexedNestedLoop
        );

        // No filter on the broadcast side → broadcast.
        let dim_unfiltered = JoinSideInfo::new("date_dim", 300.0);
        assert_eq!(
            inl_rule.choose(&fact, &dim_unfiltered).algorithm,
            JoinAlgorithm::Broadcast
        );

        // Probe side is an intermediate result (not a bare base scan) → broadcast.
        let intermediate = JoinSideInfo::new("I_1", 2_000_000.0).with_index(true);
        assert_eq!(
            inl_rule.choose(&intermediate, &dim).algorithm,
            JoinAlgorithm::Broadcast
        );

        // No index on the probe side's key → broadcast.
        let fact_no_index = JoinSideInfo::new("store_sales", 2_000_000.0).with_bare_base_scan(true);
        assert_eq!(
            inl_rule.choose(&fact_no_index, &dim).algorithm,
            JoinAlgorithm::Broadcast
        );
    }

    #[test]
    fn broadcast_threshold_is_inclusive() {
        let r = rule();
        assert!(r.can_broadcast(1_000.0));
        assert!(!r.can_broadcast(1_000.1));
    }

    #[test]
    fn equal_sizes_prefer_second_as_build() {
        let a = JoinSideInfo::new("a", 10.0);
        let b = JoinSideInfo::new("b", 10.0);
        assert!(rule().choose(&a, &b).build_is_second);
    }

    #[test]
    fn indexed_nested_loop_is_oriented_like_the_broadcast_it_replaces() {
        let fact = JoinSideInfo::new("store_sales", 2_000_000.0)
            .with_bare_base_scan(true)
            .with_index(true);
        let dim = JoinSideInfo::new("date_dim", 300.0).with_filter(true);
        let choice = rule().with_indexed_nested_loop(true).choose(&dim, &fact);
        assert_eq!(choice.algorithm, JoinAlgorithm::IndexedNestedLoop);
        assert!(!choice.build_is_second, "the filtered first side is built");
    }

    #[test]
    fn hash_joins_build_on_the_smaller_side_either_way() {
        let small = JoinSideInfo::new("orders", 5_000.0);
        let large = JoinSideInfo::new("lineitem", 50_000.0);
        let choice = rule().choose(&small, &large);
        assert_eq!(choice.algorithm, JoinAlgorithm::Hash);
        assert!(!choice.build_is_second);
        assert!(rule().choose(&large, &small).build_is_second);
    }

    #[test]
    fn default_rule_broadcasts_up_to_25k_rows_without_inl() {
        let rule = JoinAlgorithmRule::default();
        assert!(rule.can_broadcast(25_000.0));
        assert!(!rule.can_broadcast(25_001.0));
        assert!(!rule.enable_indexed_nested_loop);
        assert_eq!(JoinAlgorithmRule::with_threshold(25_000.0), rule);
    }
}
