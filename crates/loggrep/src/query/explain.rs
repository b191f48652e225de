//! Query plan explanation: what §5.1's Capsule locating decides *before*
//! touching any compressed data.
//!
//! [`Archive::explain`] is the executor's own filter stage run in probe
//! mode: the same walk over template segments, runtime patterns and
//! Capsule stamps, except that every Capsule read is recorded instead of
//! performed. It never decompresses a Capsule, so it is cheap enough to run
//! on every query for observability.

use crate::boxfile::Archive;
use crate::error::Result;
use crate::query::lang::{AggSpec, Query};
use crate::query::plan::{plan_agg, AggTargetKind};
use crate::stats::{AggLayer, QueryStats};
use std::fmt;

/// How one search string relates to one group, per the planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupDecision {
    /// The keyword lies inside the static pattern: every row matches.
    AllRows,
    /// No possible match: the group is skipped without decompression —
    /// the static pattern excludes the keyword, an `and`/`not` left side
    /// already emptied the group, or stamps and runtime patterns ruled out
    /// every requirement.
    Skip {
        /// Requirements rejected by stamps on the way to this decision.
        stamp_rejected: usize,
    },
    /// `conjunctions` possible matches touching `capsules` Capsules, of
    /// which `stamp_rejected` requirements already fail their stamps.
    Scan {
        /// Number of possible matches (conjunctions).
        conjunctions: usize,
        /// Distinct Capsules that may need decompression.
        capsules: usize,
        /// Requirements rejected by stamps without decompression.
        stamp_rejected: usize,
    },
    /// The planner overflowed; the executor would scan the whole group.
    FullScan,
    /// Wildcard string: candidates come from the longest literal fragment,
    /// then rows are verified by reconstruction. (A group the fragment
    /// rules out explains as [`GroupDecision::Skip`].)
    WildcardVerify {
        /// Fragment requirements rejected by stamps without decompression.
        stamp_rejected: usize,
    },
}

impl GroupDecision {
    /// Requirements stamps rejected on the way to this decision.
    pub fn stamp_rejected(&self) -> usize {
        match self {
            GroupDecision::Skip { stamp_rejected }
            | GroupDecision::Scan { stamp_rejected, .. }
            | GroupDecision::WildcardVerify { stamp_rejected } => *stamp_rejected,
            GroupDecision::AllRows | GroupDecision::FullScan => 0,
        }
    }
}

/// The plan of one search string across all groups.
#[derive(Debug, Clone)]
pub struct SearchPlan {
    /// The search string text.
    pub search: String,
    /// Decision per group (indexed like `CapsuleBox::groups`).
    pub decisions: Vec<GroupDecision>,
}

/// A full query explanation.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The raw query.
    pub query: String,
    /// Template display per group.
    pub templates: Vec<String>,
    /// Rows per group.
    pub group_rows: Vec<u32>,
    /// One plan per search string, in expression order.
    pub searches: Vec<SearchPlan>,
}

impl Explanation {
    /// Groups that no search string can match (skippable outright).
    pub fn dead_groups(&self) -> usize {
        (0..self.templates.len())
            .filter(|&g| {
                self.searches
                    .iter()
                    .all(|s| matches!(s.decisions[g], GroupDecision::Skip { .. }))
            })
            .count()
    }

    /// Compares this explanation's predictions against the stats of an
    /// actual execution of the same query on the same archive.
    pub fn drift(&self, stats: &QueryStats) -> PlanDrift {
        let mut predicted_skips = 0usize;
        let mut predicted_scan_capsules = 0usize;
        let mut predicted_stamp_rejections = 0usize;
        for d in self.searches.iter().flat_map(|sp| &sp.decisions) {
            predicted_stamp_rejections += d.stamp_rejected();
            match d {
                GroupDecision::Skip { .. } => predicted_skips += 1,
                GroupDecision::Scan { capsules, .. } => predicted_scan_capsules += capsules,
                _ => {}
            }
        }
        PlanDrift {
            predicted_skips,
            actual_groups_skipped: stats.groups_skipped,
            predicted_scan_capsules,
            actual_capsules_decompressed: stats.capsules_decompressed,
            predicted_stamp_rejections,
            actual_stamp_rejections: stats.stamp_rejections,
            capsules_total: stats.capsules_total as usize,
        }
    }
}

/// Predicted-vs-actual agreement between [`Archive::explain`] and one
/// executed query — the drift report printed after a traced query.
///
/// The explanation is the executor's filter stage run in probe mode, whose
/// row sets are supersets of the real run's, so the probe meets every
/// planner skip and stamp check the (lazy) executor meets: actuals are *at
/// most* the predictions for skips and stamp rejections, by construction
/// and for wildcard queries too. Decompression has no such bound:
/// reconstructing matched rows decompresses Capsules the locating plan
/// never touches.
#[derive(Debug, Clone, Default)]
pub struct PlanDrift {
    /// (search, group) pairs the planner decided to skip.
    pub predicted_skips: usize,
    /// Group skips the executor actually took (≤ predicted).
    pub actual_groups_skipped: usize,
    /// Upper bound on distinct Capsules the locating plan may touch
    /// (summed across searches, so shared Capsules count once per search).
    pub predicted_scan_capsules: usize,
    /// Capsules actually decompressed, including row reconstruction.
    pub actual_capsules_decompressed: usize,
    /// Requirements the planner already saw stamps reject.
    pub predicted_stamp_rejections: usize,
    /// Requirements stamps rejected during execution (≤ predicted).
    pub actual_stamp_rejections: usize,
    /// Total Capsules in the archive (0 when stats did not record it).
    pub capsules_total: usize,
}

impl PlanDrift {
    /// Accumulates another block's drift into this one, so a multi-block
    /// archive can report one combined drift.
    pub fn absorb(&mut self, other: &PlanDrift) {
        self.predicted_skips += other.predicted_skips;
        self.actual_groups_skipped += other.actual_groups_skipped;
        self.predicted_scan_capsules += other.predicted_scan_capsules;
        self.actual_capsules_decompressed += other.actual_capsules_decompressed;
        self.predicted_stamp_rejections += other.predicted_stamp_rejections;
        self.actual_stamp_rejections += other.actual_stamp_rejections;
        self.capsules_total += other.capsules_total;
    }

    /// True when the execution stayed within the planner's predictions
    /// (trivially so for cache hits, which execute nothing).
    pub fn consistent(&self) -> bool {
        self.actual_groups_skipped <= self.predicted_skips
            && self.actual_stamp_rejections <= self.predicted_stamp_rejections
    }
}

impl fmt::Display for PlanDrift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan vs execution:")?;
        writeln!(
            f,
            "  group skips       predicted {:<6} actual {}",
            self.predicted_skips, self.actual_groups_skipped
        )?;
        writeln!(
            f,
            "  stamp rejections  predicted {:<6} actual {}",
            self.predicted_stamp_rejections, self.actual_stamp_rejections
        )?;
        let total = if self.capsules_total > 0 {
            format!(" (of {})", self.capsules_total)
        } else {
            String::new()
        };
        writeln!(
            f,
            "  capsules          scan-bound {:<5} decompressed {}{total}",
            self.predicted_scan_capsules, self.actual_capsules_decompressed
        )?;
        writeln!(
            f,
            "  consistent: {}",
            if self.consistent() { "yes" } else { "NO — executor exceeded the plan" }
        )
    }
}

/// Predicted-vs-actual agreement for one aggregate query: the pushdown
/// planner's layer prediction against the layer the sink actually used.
///
/// The executor may legitimately answer *below* the prediction (an empty
/// selection short-circuits a predicted Capsule scan to a metadata-only
/// empty result), so the honest bound is `actual ≤ predicted`, with hard
/// decompression bounds where the prediction promises them.
#[derive(Debug, Clone)]
pub struct AggDrift {
    /// The layer [`Archive::explain_agg`] predicted.
    pub predicted: AggLayer,
    /// The most expensive layer the sink actually used (`None` until an
    /// execution's stats are folded in).
    pub actual: Option<AggLayer>,
    /// Whether the result came from the query cache (nothing executed).
    pub cache_hit: bool,
    /// Whether a filter restricted the selection.
    pub filtered: bool,
    /// Capsules the execution decompressed.
    pub capsules_decompressed: usize,
}

impl AggDrift {
    /// Pairs a prediction with the stats of an actual execution of the
    /// same aggregate on the same archive.
    pub fn new(predicted: AggLayer, filtered: bool, stats: &QueryStats) -> Self {
        Self {
            predicted,
            actual: stats.agg_layer,
            cache_hit: stats.cache_hit,
            filtered,
            capsules_decompressed: stats.capsules_decompressed,
        }
    }

    /// True when the execution stayed within the prediction: the actual
    /// layer never exceeds the predicted one, and unfiltered
    /// metadata/dictionary predictions hold their decompression promises
    /// (zero Capsules, and at most one, respectively). Vacuously true for
    /// cache hits.
    pub fn consistent(&self) -> bool {
        if self.cache_hit {
            return true;
        }
        if self.actual.is_some_and(|actual| actual > self.predicted) {
            return false;
        }
        if !self.filtered {
            match self.predicted {
                AggLayer::Metadata => return self.capsules_decompressed == 0,
                AggLayer::Dictionary => return self.capsules_decompressed <= 1,
                AggLayer::CapsuleScan | AggLayer::Reconstruct => {}
            }
        }
        true
    }
}

impl fmt::Display for AggDrift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let actual = match (self.cache_hit, self.actual) {
            (true, _) => "cache-hit".to_string(),
            (false, Some(l)) => l.to_string(),
            (false, None) => "none".to_string(),
        };
        writeln!(
            f,
            "aggregate layer: predicted {} actual {} ({} capsule(s) decompressed)",
            self.predicted, actual, self.capsules_decompressed
        )?;
        writeln!(
            f,
            "  consistent: {}",
            if self.consistent() {
                "yes"
            } else {
                "NO — sink exceeded the planned layer"
            }
        )
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "explain: {}", self.query)?;
        for sp in &self.searches {
            writeln!(f, "  search `{}`:", sp.search)?;
            for (g, d) in sp.decisions.iter().enumerate() {
                let what = match d {
                    GroupDecision::AllRows => "ALL (keyword in static pattern)".to_string(),
                    GroupDecision::Skip { .. } => "skip".to_string(),
                    GroupDecision::Scan {
                        conjunctions,
                        capsules,
                        stamp_rejected,
                    } => format!(
                        "scan: {conjunctions} possible match(es), {capsules} capsule(s), {stamp_rejected} stamp-rejected"
                    ),
                    GroupDecision::FullScan => "full group scan (planner overflow)".to_string(),
                    GroupDecision::WildcardVerify { .. } => {
                        "wildcard: filter + verify by reconstruction".to_string()
                    }
                };
                if !matches!(d, GroupDecision::Skip { .. }) {
                    writeln!(
                        f,
                        "    group {g} [{} rows] {}: {what}",
                        self.group_rows[g], self.templates[g]
                    )?;
                }
            }
        }
        writeln!(f, "  ({} of {} groups dead)", self.dead_groups(), self.templates.len())
    }
}

impl Archive {
    /// Explains how a query would be located, without decompressing any
    /// Capsule.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::BadQuery`] if the command does not parse, or
    /// [`crate::Error::Corrupt`] if the archive metadata the walk consults
    /// is inconsistent.
    pub fn explain(&self, command: &str) -> Result<Explanation> {
        let query = Query::parse(command)?;
        let searches = self.probe_filter(&query.expr)?;
        let groups = &self.boxed.groups;
        Ok(Explanation {
            query: command.to_string(),
            templates: groups.iter().map(|g| g.template.display()).collect(),
            group_rows: groups.iter().map(|g| g.rows()).collect(),
            searches,
        })
    }

    /// Predicts which storage layer will answer an aggregate query,
    /// without decompressing any Capsule (the pushdown decision of
    /// [`plan_agg`] applied to this archive's vector metadata).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::BadQuery`] if the filter does not parse.
    pub fn explain_agg(&self, filter: Option<&str>, spec: &AggSpec) -> Result<AggLayer> {
        if let Some(f) = filter {
            Query::parse(f)?;
        }
        let target = match spec {
            AggSpec::TopK { template, slot, .. } => self.agg_target_kind(*template, *slot),
            _ => AggTargetKind::Missing,
        };
        Ok(plan_agg(spec, target, filter.is_some()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogGrep, LogGrepConfig};

    fn archive_with(config: LogGrepConfig) -> Archive {
        let mut raw = Vec::new();
        for i in 0..200 {
            raw.extend_from_slice(format!("alpha job {:04} fine\n", i).as_bytes());
            if i % 20 == 0 {
                raw.extend_from_slice(format!("beta crash {:04} bad\n", i).as_bytes());
            }
        }
        LogGrep::new(config).compress_to_archive(&raw).unwrap()
    }

    fn archive() -> Archive {
        archive_with(LogGrepConfig::default())
    }

    /// Both stamp settings: explain must follow the archive's own config.
    fn configs() -> [LogGrepConfig; 2] {
        [LogGrepConfig::default(), LogGrepConfig::without_stamps()]
    }

    const QUERIES: [&str; 9] = [
        "crash",
        "0040",
        "004000",
        "crash and 0040",
        "zzz-never",
        "fine or bad",
        "jo*b",
        "00?0 not crash",
        // A `not` right side that reads a Capsule, followed by a stamp
        // rejection the real run only reaches through the rows it keeps.
        "fine not 0040 and 004000",
    ];

    #[test]
    fn static_hit_explains_as_all() {
        let a = archive();
        let ex = a.explain("crash").unwrap();
        assert!(ex.searches[0].decisions.contains(&GroupDecision::AllRows));
    }

    #[test]
    fn absent_keyword_kills_all_groups() {
        let a = archive();
        let ex = a.explain("zzz-never").unwrap();
        assert_eq!(ex.dead_groups(), ex.templates.len());
    }

    #[test]
    fn numeric_keyword_scans_some_group() {
        let a = archive();
        let ex = a.explain("0040").unwrap();
        assert!(ex.searches[0]
            .decisions
            .iter()
            .any(|d| matches!(d, GroupDecision::Scan { .. })));
    }

    #[test]
    fn wildcard_marks_verification() {
        let a = archive();
        let ex = a.explain("jo*b").unwrap();
        let decisions = &ex.searches[0].decisions;
        // `jo` is static in the `alpha job` template; in the `beta crash`
        // group it could only sit in the numeric slot, whose stamp rules it
        // out, so that group is skipped.
        assert!(decisions.contains(&GroupDecision::WildcardVerify { stamp_rejected: 0 }));
        assert!(decisions.contains(&GroupDecision::Skip { stamp_rejected: 1 }));
        assert!(decisions.iter().all(|d| matches!(
            d,
            GroupDecision::WildcardVerify { .. } | GroupDecision::Skip { .. }
        )));
    }

    #[test]
    fn display_renders() {
        let a = archive();
        let text = a.explain("crash and 0040").unwrap().to_string();
        assert!(text.contains("explain: crash and 0040"));
        assert!(text.contains("groups dead"));
    }

    #[test]
    fn drift_bounds_hold_for_literal_and_wildcard_queries() {
        for config in configs() {
            let a = archive_with(config);
            for q in QUERIES {
                let ex = a.explain(q).unwrap();
                let result = a.query(q).unwrap();
                let drift = ex.drift(&result.stats);
                assert!(drift.consistent(), "query `{q}`: {drift}");
                assert!(
                    drift.actual_groups_skipped <= drift.predicted_skips,
                    "query `{q}`: {drift}"
                );
                assert!(
                    drift.actual_stamp_rejections <= drift.predicted_stamp_rejections,
                    "query `{q}`: {drift}"
                );
            }
        }
    }

    #[test]
    fn all_skip_explanations_decompress_nothing() {
        let mut dead_queries = 0;
        for config in configs() {
            let a = archive_with(config);
            for q in QUERIES {
                let ex = a.explain(q).unwrap();
                if ex.dead_groups() < ex.templates.len() {
                    continue;
                }
                dead_queries += 1;
                let result = a.query(q).unwrap();
                assert_eq!(
                    result.stats.capsules_decompressed, 0,
                    "query `{q}` explained as all-skip"
                );
            }
        }
        assert!(dead_queries >= 2, "no all-skip query exercised");
    }

    #[test]
    fn wildcard_drift_counts_fragment_stamp_rejections() {
        let a = archive();
        let ex = a.explain("jo*b").unwrap();
        let result = a.query("jo*b").unwrap();
        let drift = ex.drift(&result.stats);
        assert_eq!(drift.actual_stamp_rejections, 1, "{drift}");
        assert_eq!(drift.predicted_stamp_rejections, 1, "{drift}");
        let text = drift.to_string();
        assert!(text.contains("plan vs execution"));
        assert!(text.contains("consistent: yes"));
    }

    #[test]
    fn agg_drift_bounds_hold_for_every_verb() {
        let a = archive();
        let mut specs = vec![
            AggSpec::Count,
            AggSpec::CountByTemplate,
            AggSpec::Histogram { bucket: 50 },
        ];
        for (t, group) in a.boxed.groups.iter().enumerate() {
            for v in 0..group.vectors.len() {
                specs.push(AggSpec::TopK { k: 3, template: t, slot: v });
            }
        }
        // A missing target must predict (and execute as) pure metadata.
        specs.push(AggSpec::TopK { k: 3, template: 99, slot: 0 });
        for spec in &specs {
            for filter in [None, Some("crash")] {
                let predicted = a.explain_agg(filter, spec).unwrap();
                a.clear_caches();
                let r = a.query_agg(filter, spec).unwrap();
                let drift = AggDrift::new(predicted, filter.is_some(), &r.stats);
                assert!(!drift.cache_hit);
                assert!(drift.consistent(), "{spec} filter {filter:?}: {drift}");
            }
        }
    }

    #[test]
    fn metadata_verbs_decompress_nothing() {
        let a = archive();
        let specs = [
            AggSpec::Count,
            AggSpec::CountByTemplate,
            AggSpec::Histogram { bucket: 25 },
        ];
        for spec in specs {
            a.clear_caches();
            let r = a.query_agg(None, &spec).unwrap();
            assert_eq!(r.stats.capsules_decompressed, 0, "{spec}");
            assert_eq!(r.stats.agg_layer, Some(AggLayer::Metadata), "{spec}");
        }
    }

    #[test]
    fn explain_decompresses_nothing() {
        let a = archive();
        for q in QUERIES {
            let _ = a.explain(q).unwrap();
        }
        // No payload buffer was taken from (or parked in) the arena, and
        // the query cache stayed cold.
        assert_eq!(a.arena_buffers(), 0);
        let result = a.query("crash and 0040").unwrap();
        assert!(!result.stats.cache_hit);
    }
}
