//! Independent answers the engine's output is checked against.
//!
//! Line queries go through the workspace's naive oracle (`difftest`), which
//! re-derives matching from the query language alone. Aggregates are
//! tallied from the raw lines and a plain static-pattern parse, without
//! capsules or compression.

use crate::mix::Request;
use difftest::oracle::{ast_matches, matching_lines};
use difftest::QueryAst;
use loggrep::query::lang::AggSpec;
use loggrep::AggResult;
use logparse::{Parser, ParserConfig};
use std::collections::HashMap;

/// The expected answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// The matching lines, in log order.
    Lines(Vec<Vec<u8>>),
    /// The aggregate.
    Agg(AggResult),
}

/// A log prepared for naive evaluation: its lines and a plain parse.
pub struct NaiveLog {
    lines: Vec<Vec<u8>>,
    parsed: logparse::ParsedBlock,
    /// Archive group index -> parser template id (empty groups are skipped,
    /// as the engine's assembler skips them).
    nonempty: Vec<usize>,
}

impl NaiveLog {
    /// Prepares `lines` for naive evaluation.
    pub fn new(lines: Vec<Vec<u8>>) -> Self {
        let parser = Parser::train(&ParserConfig::default(), lines.iter().map(Vec::as_slice));
        let parsed = parser.parse_all(lines.iter().map(Vec::as_slice));
        let nonempty = parsed
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.rows() > 0)
            .map(|(tid, _)| tid)
            .collect();
        Self {
            lines,
            parsed,
            nonempty,
        }
    }

    /// The naive answer to `request`, or `None` if the request does not
    /// parse as a query.
    pub fn answer(&self, request: &Request) -> Option<Answer> {
        match request {
            Request::Lines(q) => {
                let ast = QueryAst::parse(q)?;
                Some(Answer::Lines(matching_lines(
                    std::slice::from_ref(&self.lines),
                    &ast,
                )))
            }
            Request::Agg { filter, spec } => {
                let ast = match filter {
                    Some(f) => Some(QueryAst::parse(f)?),
                    None => None,
                };
                let selected: Vec<bool> = self
                    .lines
                    .iter()
                    .map(|l| ast.as_ref().is_none_or(|a| ast_matches(a, l)))
                    .collect();
                Some(Answer::Agg(self.tally(&selected, spec)))
            }
        }
    }

    fn tally(&self, selected: &[bool], spec: &AggSpec) -> AggResult {
        let hit = |line: u32| selected[line as usize];
        match spec {
            AggSpec::Count => AggResult::Count(selected.iter().filter(|&&s| s).count() as u64),
            AggSpec::CountByTemplate => {
                let mut out: Vec<(String, u64)> = Vec::new();
                for &tid in &self.nonempty {
                    let group = &self.parsed.groups[tid];
                    let n = group.line_numbers.iter().filter(|&&l| hit(l)).count() as u64;
                    if n > 0 {
                        out.push((self.parsed.templates[tid].display(), n));
                    }
                }
                merge_and_sort(&mut out);
                AggResult::CountByTemplate(out)
            }
            AggSpec::TopK { k, template, slot } => {
                let mut tally: HashMap<Vec<u8>, u64> = HashMap::new();
                let column = self.nonempty.get(*template).and_then(|&tid| {
                    Some((
                        &self.parsed.groups[tid],
                        self.parsed.groups[tid].vars.get(*slot)?,
                    ))
                });
                if let Some((group, column)) = column {
                    for (row, &line) in group.line_numbers.iter().enumerate() {
                        if let (true, Some(value)) = (hit(line), column.get(row)) {
                            *tally.entry(value.to_vec()).or_insert(0) += 1;
                        }
                    }
                }
                let mut values: Vec<(Vec<u8>, u64)> = tally.into_iter().collect();
                values.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                AggResult::TopK { k: *k, values }
            }
            AggSpec::Histogram { bucket } => {
                let mut buckets: Vec<(u64, u64)> = Vec::new();
                for (line, _) in selected.iter().enumerate().filter(|(_, &s)| s) {
                    let start = line as u64 / bucket * bucket;
                    match buckets.last_mut() {
                        Some((s, n)) if *s == start => *n += 1,
                        _ => buckets.push((start, 1)),
                    }
                }
                AggResult::Histogram {
                    bucket: *bucket,
                    buckets,
                }
            }
        }
    }
}

/// Merges equal templates (several parser templates can render alike) and
/// orders by count descending, then text ascending, as the engine does.
fn merge_and_sort(out: &mut Vec<(String, u64)>) {
    let mut merged: HashMap<String, u64> = HashMap::new();
    for (t, n) in out.drain(..) {
        *merged.entry(t).or_insert(0) += n;
    }
    out.extend(merged);
    out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}
