//! The optimizer audit trail: estimate-vs-actual cardinality records and
//! re-optimization decision explanations.
//!
//! The paper's central claim is that *measured* cardinalities beat estimated
//! ones — this module records both sides of that comparison so a run can show
//! the estimation error that justified (or should have vetoed) every
//! re-optimization. The driver appends an [`EstimateRecord`] per executed
//! stage (what the planner estimated at plan time, what the sink actually
//! materialized) and a [`ReoptDecision`] per re-optimization point (the stage
//! whose actual just corrected a wrong estimate, the join the refreshed
//! statistics picked, the runner-up it rejected, and the cost advantage it
//! believed).
//!
//! Everything in an [`AuditLog`] derives from deterministic, coordinator-side
//! quantities — sketch-based estimates and materialized row counts — so the
//! log is bit-identical across worker counts, the same
//! invariance law the results and metrics already obey.

/// Q-error of one estimate: `max(est/act, act/est)`, the standard symmetric
/// cardinality-error measure (≥ 1, with 1 = exact). Zero sides are clamped to
/// one row so an empty-result stage yields a finite error.
pub fn q_error(estimated_rows: f64, actual_rows: u64) -> f64 {
    let est = estimated_rows.max(1.0);
    let act = (actual_rows as f64).max(1.0);
    (est / act).max(act / est)
}

/// One stage's estimate-vs-actual cardinality record.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRecord {
    /// Which stage produced the record (`pushdown:<alias>`, `reopt#<k>`,
    /// `final`).
    pub stage: String,
    /// Signature of the physical plan the stage executed.
    pub operator: String,
    /// The planner's cardinality estimate at plan time. `None` when the stage
    /// was planned by a component that reports no single-number estimate
    /// (the budget-exhausted static final plan).
    pub estimated_rows: Option<f64>,
    /// Rows the stage actually produced (materialized or returned).
    pub actual_rows: u64,
}

impl EstimateRecord {
    /// The record's Q-error, when an estimate exists.
    pub fn q_error(&self) -> Option<f64> {
        self.estimated_rows
            .map(|est| q_error(est, self.actual_rows))
    }
}

/// One re-optimization decision, recorded at the moment the planner picked
/// the next join with freshly measured statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ReoptDecision {
    /// Re-optimization point number (1-based).
    pub point: u32,
    /// The estimate the execution just corrected — the most recent stage's
    /// [`EstimateRecord`], i.e. the wrong number this decision reacts to.
    /// `None` at the first point of a run without a push-down stage.
    pub trigger: Option<EstimateRecord>,
    /// Signature of the join the planner chose (the *new* plan fragment).
    pub chosen: String,
    /// Estimated result cardinality of the chosen join.
    pub chosen_cardinality: f64,
    /// Score under which the chosen join won.
    pub chosen_score: f64,
    /// Signature of the best alternative join order/algorithm the planner
    /// rejected, with its score. `None` when only one join was plannable.
    pub runner_up: Option<(String, f64)>,
}

impl ReoptDecision {
    /// Q-error of the triggering estimate, if there was one.
    pub fn trigger_q_error(&self) -> Option<f64> {
        self.trigger.as_ref().and_then(|t| t.q_error())
    }

    /// The cost advantage the re-optimizer believed it gained by picking
    /// `chosen` over the runner-up (non-negative by construction).
    pub fn believed_delta(&self) -> Option<f64> {
        self.runner_up
            .as_ref()
            .map(|(_, score)| (score - self.chosen_score).max(0.0))
    }
}

/// The full audit trail of one dynamic execution: per-stage estimate records
/// plus one decision explanation per re-optimization point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditLog {
    /// Estimate-vs-actual records, in stage execution order.
    pub estimates: Vec<EstimateRecord>,
    /// Re-optimization decisions, in point order.
    pub decisions: Vec<ReoptDecision>,
}

impl AuditLog {
    /// Whether the log recorded anything (static strategies record nothing).
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty() && self.decisions.is_empty()
    }

    /// The largest Q-error over all estimate records, or 1.0 when no record
    /// carries an estimate — the run-level estimation-accuracy number the
    /// bench gate tracks.
    pub fn max_q_error(&self) -> f64 {
        self.estimates
            .iter()
            .filter_map(|e| e.q_error())
            .fold(1.0, f64::max)
    }

    /// Renders the estimate table and the decision explanations. The output
    /// uses fixed decimal formatting only, so two logs with equal contents
    /// render bit-identically (the invariance suites compare this string).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.estimates.is_empty() {
            out.push_str("no audit records\n");
            return out;
        }
        out.push_str("estimate audit (per stage):\n");
        out.push_str(&format!(
            "  {:<16} {:>14} {:>12} {:>9}  operator\n",
            "stage", "estimated", "actual", "q-error"
        ));
        for record in &self.estimates {
            let estimated = match record.estimated_rows {
                Some(est) => format!("{est:.1}"),
                None => "-".to_string(),
            };
            let q = match record.q_error() {
                Some(q) => format!("{q:.2}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "  {:<16} {:>14} {:>12} {:>9}  {}\n",
                record.stage, estimated, record.actual_rows, q, record.operator
            ));
        }
        if !self.decisions.is_empty() {
            out.push_str("re-optimization decisions:\n");
            for decision in &self.decisions {
                out.push_str(&format!("  point {}:", decision.point));
                match &decision.trigger {
                    Some(trigger) => {
                        let est = match trigger.estimated_rows {
                            Some(est) => format!("{est:.1}"),
                            None => "-".to_string(),
                        };
                        let q = match trigger.q_error() {
                            Some(q) => format!("{q:.2}"),
                            None => "-".to_string(),
                        };
                        out.push_str(&format!(
                            " after {} (estimated {est}, actual {}, q-error {q})\n",
                            trigger.stage, trigger.actual_rows
                        ));
                    }
                    None => out.push_str(" no prior stage measured\n"),
                }
                out.push_str(&format!(
                    "    chose {} [score {:.1}, est {:.1} rows]",
                    decision.chosen, decision.chosen_score, decision.chosen_cardinality
                ));
                match &decision.runner_up {
                    Some((plan, score)) => out.push_str(&format!(
                        "; rejected {} [score {:.1}]; believed advantage {:.1}\n",
                        plan,
                        score,
                        decision.believed_delta().unwrap_or(0.0)
                    )),
                    None => out.push_str("; no alternative join was plannable\n"),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(stage: &str, est: Option<f64>, act: u64) -> EstimateRecord {
        EstimateRecord {
            stage: stage.to_string(),
            operator: format!("σ({stage})"),
            estimated_rows: est,
            actual_rows: act,
        }
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert_eq!(q_error(100.0, 100), 1.0);
        assert_eq!(q_error(200.0, 100), 2.0);
        assert_eq!(q_error(50.0, 100), 2.0);
        // Zero actuals clamp to one row instead of dividing by zero.
        assert_eq!(q_error(8.0, 0), 8.0);
        assert_eq!(q_error(0.0, 4), 4.0);
    }

    #[test]
    fn max_q_error_skips_estimate_free_records() {
        let log = AuditLog {
            estimates: vec![
                record("pushdown:a", Some(10.0), 40),
                record("final", None, 7),
            ],
            decisions: vec![],
        };
        assert_eq!(log.max_q_error(), 4.0);
        assert!(!log.is_empty());
        assert_eq!(AuditLog::default().max_q_error(), 1.0);
    }

    #[test]
    fn render_shows_estimates_decisions_and_dashes() {
        let log = AuditLog {
            estimates: vec![
                record("pushdown:a", Some(10.0), 40),
                record("reopt#1", Some(1000.0), 900),
                record("final", None, 7),
            ],
            decisions: vec![ReoptDecision {
                point: 1,
                trigger: Some(record("pushdown:a", Some(10.0), 40)),
                chosen: "(a ⋈b b)".to_string(),
                chosen_cardinality: 1000.0,
                chosen_score: 1000.0,
                runner_up: Some(("(a ⋈ c)".to_string(), 5000.0)),
            }],
        };
        let text = log.render();
        assert!(text.contains("estimate audit (per stage):"), "{text}");
        assert!(text.contains("pushdown:a"), "{text}");
        assert!(text.contains("4.00"), "q-error column: {text}");
        assert!(text.contains(" - "), "dash for missing estimate: {text}");
        assert!(
            text.contains("after pushdown:a (estimated 10.0, actual 40, q-error 4.00)"),
            "{text}"
        );
        assert!(
            text.contains("chose (a ⋈b b) [score 1000.0, est 1000.0 rows]"),
            "{text}"
        );
        assert!(
            text.contains("rejected (a ⋈ c) [score 5000.0]; believed advantage 4000.0"),
            "{text}"
        );
        // Deterministic: rendering twice is bit-identical.
        assert_eq!(text, log.render());
    }

    #[test]
    fn decision_without_alternatives_renders() {
        let d = ReoptDecision {
            point: 2,
            trigger: None,
            chosen: "(x ⋈ y)".to_string(),
            chosen_cardinality: 5.0,
            chosen_score: 5.0,
            runner_up: None,
        };
        assert_eq!(d.believed_delta(), None);
        assert_eq!(d.trigger_q_error(), None);
        let log = AuditLog {
            estimates: vec![record("reopt#2", Some(5.0), 5)],
            decisions: vec![d],
        };
        let text = log.render();
        assert!(text.contains("no prior stage measured"), "{text}");
        assert!(text.contains("no alternative join was plannable"), "{text}");
    }

    #[test]
    fn believed_delta_never_goes_negative() {
        let d = ReoptDecision {
            point: 1,
            trigger: Some(record("pushdown:a", Some(300.0), 100)),
            chosen: "(a ⋈ b)".to_string(),
            chosen_cardinality: 50.0,
            chosen_score: 80.0,
            runner_up: Some(("(a ⋈ c)".to_string(), 60.0)),
        };
        assert_eq!(d.believed_delta(), Some(0.0));
        assert_eq!(d.trigger_q_error(), Some(3.0));
    }

    #[test]
    fn an_empty_log_renders_a_placeholder() {
        let log = AuditLog::default();
        assert!(log.is_empty());
        assert!(
            log.render().contains("no audit records"),
            "{}",
            log.render()
        );
        let decisions_only = AuditLog {
            estimates: vec![],
            decisions: vec![ReoptDecision {
                point: 1,
                trigger: None,
                chosen: "(x ⋈ y)".to_string(),
                chosen_cardinality: 1.0,
                chosen_score: 1.0,
                runner_up: None,
            }],
        };
        assert!(!decisions_only.is_empty());
    }
}
