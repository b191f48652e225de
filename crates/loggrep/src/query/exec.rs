//! Query execution over a CapsuleBox (§5): Capsule locating with runtime
//! patterns, stamp filtering, fixed-length matching, and reconstruction.

use crate::boxfile::{Archive, GroupMeta};
use crate::capsule::{CapsuleMeta, Layout};
use crate::error::{Error, Result};
use crate::extract::nominal::{format_index, parse_index};
use crate::extract::DictPattern;
use crate::pattern::{RuntimePattern, Segment};
use crate::query::explain::{GroupDecision, SearchPlan};
use crate::query::lang::{Expr, Query, SearchString};
use crate::query::plan::{pattern_segs, plan, template_segs, Conj, Mode, Plan, SegRef};
use crate::rowset::RowSet;
use crate::stats::QueryStats;
use crate::vector::{DictRegion, VectorMeta};
use crate::PAD;
use logparse::{Piece, DEFAULT_DELIMS};
use parking_lot::Mutex;
use pool::Pool;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use strsearch::fixed::trim_pad;
use strsearch::FixedRows;

/// Shards of the decompressed-payload cache. Capsules are assigned by id,
/// so concurrent workers touching different Capsules rarely share a lock.
const CACHE_SHARDS: usize = 16;

/// A wildcard/overflow verification fans out across row chunks only at or
/// above this many candidate rows. Rendering one row from resolved columns
/// costs ~0.2–0.4 µs (`grep-scan` at one thread on a 2-vCPU Xeon: 70,452
/// Log C lines reconstructed in 28 ms) while a single worker spawn costs
/// ~0.25–0.75 ms on such virtualized hosts, so thousands of rows must be at
/// stake before threads pay off — selective queries must stay strictly
/// serial to hit their latency budget.
const PARALLEL_VERIFY_MIN_ROWS: usize = 4096;

/// Reconstruction fans out across line chunks only at or above this many
/// lines (same spawn-cost argument as [`PARALLEL_VERIFY_MIN_ROWS`]).
const PARALLEL_RECONSTRUCT_MIN_LINES: usize = 4096;

/// Lower bound on items per parallel chunk: inputs just over the fan-out
/// thresholds engage only a few workers instead of splitting µs-sized
/// slivers across the whole pool.
const MIN_PARALLEL_CHUNK: usize = 1024;

/// The result of a query: matching lines in original log order.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Original (0-based) line numbers, ascending.
    pub line_numbers: Vec<u32>,
    /// The reconstructed lines, parallel to `line_numbers`.
    pub lines: Vec<Vec<u8>>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl QueryResult {
    /// The lines as lossy UTF-8 strings (logs are ASCII in practice).
    pub fn lines_utf8(&self) -> Vec<String> {
        self.lines
            .iter()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect()
    }
}

impl Archive {
    /// Executes a grep-like query command (see [`Query::parse`] for the
    /// language) and reconstructs the matching lines in original order.
    pub fn query(&self, command: &str) -> Result<QueryResult> {
        let query = Query::parse(command)?;
        let start = Instant::now();
        let _trace = telemetry::trace_scope();
        let _query_span = telemetry::span("query");
        telemetry::counter!("query.executed", 1);
        let shared = {
            let _span = telemetry::span("setup");
            ExecShared::new(self)
        };
        let mut ctx = ExecCtx::new(&shared);
        ctx.stats.capsules_total = self.boxed.capsules.len() as u32;

        let line_numbers = if self.use_query_cache {
            match self.cache.get(command) {
                Some(cached) => {
                    ctx.stats.cache_hit = true;
                    telemetry::counter!("query.cache.hits", 1);
                    cached
                }
                None => {
                    telemetry::counter!("query.cache.misses", 1);
                    let lines = ctx.eval_expr(&query.expr)?.into_vec();
                    self.cache.put(command, lines.clone());
                    lines
                }
            }
        } else {
            ctx.eval_expr(&query.expr)?.into_vec()
        };

        let lines = {
            let _span = telemetry::span("reconstruct");
            ctx.reconstruct(&line_numbers)?
        };
        let mut stats = std::mem::take(&mut ctx.stats);
        {
            // `ctx` is plain data over `shared`'s borrow; dropping `shared`
            // is the real teardown (payload buffers return to the arena).
            let _span = telemetry::span("teardown");
            drop(shared);
        }
        stats.elapsed = start.elapsed();
        Ok(QueryResult {
            line_numbers,
            lines,
            stats,
        })
    }

    /// Reconstructs every stored line in original order (the full-decompress
    /// path, used by tests and the `ggrep`-style fallback).
    pub fn reconstruct_all(&self) -> Result<Vec<Vec<u8>>> {
        let shared = ExecShared::new(self);
        let mut ctx = ExecCtx::new(&shared);
        let all: Vec<u32> = (0..self.boxed.total_lines).collect();
        ctx.reconstruct(&all)
    }

    /// Runs the filter stage over `expr` in probe mode (see [`Probe`]) and
    /// returns each search string's decision per group. Reads no Capsule,
    /// leaves the payload arena and the query cache alone, and records no
    /// telemetry.
    pub(crate) fn probe_filter(&self, expr: &Expr) -> Result<Vec<SearchPlan>> {
        let _quiet = telemetry::suppress();
        let shared = ExecShared::new(self);
        let mut ctx = ExecCtx::new(&shared);
        ctx.probe = Some(Probe::default());
        ctx.filter_selection(Some(expr))?;
        Ok(ctx.probe.take().map(|p| p.searches).unwrap_or_default())
    }
}

/// The filter stage's output: which rows of each group the rest of the
/// pipeline (reconstruction or an aggregate sink) operates on.
///
/// `All` is not just shorthand for "every row of every group": it lets
/// metadata-only aggregates answer without enumerating rows at all.
#[derive(Debug, Clone)]
pub(crate) enum Selection {
    /// No filter: every stored line is selected.
    All,
    /// Matching rows per group (vector-local row numbers), one entry per
    /// group in group order.
    Rows(Vec<RowSet>),
}

/// Per-query state shared by every worker: the archive handle, the worker
/// pool, and the sharded decompressed-payload caches.
///
/// The caches use `Arc` payloads behind sharded mutexes, so any worker can
/// decompress or reuse any Capsule. A Capsule is decompressed **while its
/// shard is locked**: a concurrent worker asking for the same Capsule
/// blocks and reuses the result, so each Capsule is decompressed exactly
/// once per query and `capsules_decompressed` matches the serial count.
pub(crate) struct ExecShared<'a> {
    archive: &'a Archive,
    pool: Pool,
    payloads: Vec<Mutex<HashMap<u32, Arc<Vec<u8>>>>>,
    delim_ranges: Vec<CacheShard<Vec<(usize, usize)>>>,
}

/// One shard of a per-query Capsule-keyed cache.
type CacheShard<T> = Mutex<HashMap<u32, Arc<T>>>;

impl<'a> ExecShared<'a> {
    pub(crate) fn new(archive: &'a Archive) -> Self {
        Self {
            archive,
            pool: Pool::new(archive.threads),
            payloads: (0..CACHE_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            delim_ranges: (0..CACHE_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }
}

impl Drop for ExecShared<'_> {
    /// Returns the session's decompressed payload buffers to the archive's
    /// arena so the next query reuses their capacity instead of
    /// re-allocating megabytes of Vecs. Workers hold payload `Arc`s only in
    /// their render scratch and are joined before the session ends, so each
    /// payload is unshared here; a still-shared one is simply freed.
    fn drop(&mut self) {
        for shard in &self.payloads {
            for (_, arc) in shard.lock().drain() {
                if let Ok(buf) = Arc::try_unwrap(arc) {
                    self.archive.return_buffer(buf);
                }
            }
        }
    }
}

/// Per-worker execution context: a handle on the shared state plus this
/// worker's own statistics, merged by the coordinator when the worker is
/// done. The coordinating (caller-side) context is just worker zero.
pub(crate) struct ExecCtx<'a> {
    shared: &'a ExecShared<'a>,
    pub(crate) archive: &'a Archive,
    pub(crate) stats: QueryStats,
    /// Set for a probe run of the filter stage; never on pool workers,
    /// since a probe reads no Capsule and so never fans out.
    probe: Option<Probe>,
}

/// What a probe run of the filter stage records in place of reading
/// Capsule bytes. [`Archive::explain`] is such a run, so the plan it
/// reports and the executor's decisions come from one walker.
///
/// Every point that would read a Capsule records the Capsule's id and
/// answers with every candidate row instead, so each probe row set is a
/// superset of the real run's. The lazy shortcuts (progressive matching,
/// skipping groups an `and`/`not` left side emptied) therefore fire no
/// more often than in the real run: the probe meets every planner skip
/// and stamp check a real run meets, and possibly more.
#[derive(Default)]
struct Probe {
    /// Capsules the current (search, group) pair would read.
    touched: HashSet<u32>,
    /// The current pair's decision, once taken.
    decision: Option<GroupDecision>,
    /// One plan per search string, in expression order.
    searches: Vec<SearchPlan>,
}

impl Probe {
    /// Turns a wildcard's literal-fragment decision into the search's: a
    /// group the fragment kills stays skipped, the rest verify by
    /// reconstruction.
    fn wildcard(&mut self) {
        let stamp_rejected = match &self.decision {
            Some(GroupDecision::Skip { .. }) => return,
            decision => decision.as_ref().map_or(0, GroupDecision::stamp_rejected),
        };
        self.decision = Some(GroupDecision::WildcardVerify { stamp_rejected });
    }

    /// Files the decision of the (search, group) pair just evaluated.
    fn end_pair(&mut self) {
        self.touched.clear();
        let decision = self
            .decision
            .take()
            .unwrap_or(GroupDecision::Skip { stamp_rejected: 0 });
        if let Some(search) = self.searches.last_mut() {
            search.decisions.push(decision);
        }
    }
}

impl<'a> ExecCtx<'a> {
    pub(crate) fn new(shared: &'a ExecShared<'a>) -> Self {
        Self {
            shared,
            archive: shared.archive,
            stats: QueryStats::default(),
            probe: None,
        }
    }

    /// A probe point: in probe mode, records that Capsules `ids` would be
    /// read and returns true, and the caller answers with every candidate
    /// row instead of reading them.
    fn probe_reads(&mut self, ids: impl IntoIterator<Item = u32>) -> bool {
        match &mut self.probe {
            Some(probe) => {
                probe.touched.extend(ids);
                true
            }
            None => false,
        }
    }

    /// Records the current (search, group) pair's decision in probe mode.
    fn decide(&mut self, decision: GroupDecision) {
        if let Some(probe) = &mut self.probe {
            probe.decision = Some(decision);
        }
    }

    pub(crate) fn meta(&self, id: u32) -> Result<&'a CapsuleMeta> {
        self.archive
            .boxed
            .capsules
            .get(id as usize)
            .ok_or_else(|| Error::Corrupt(format!("capsule id {id} out of range")))
    }

    pub(crate) fn group(&self, gid: usize) -> Result<&'a crate::boxfile::GroupMeta> {
        self.archive
            .boxed
            .groups
            .get(gid)
            .ok_or_else(|| Error::Corrupt(format!("group {gid} out of range")))
    }

    /// Decompresses (and caches) one Capsule payload.
    pub(crate) fn payload(&mut self, id: u32) -> Result<Arc<Vec<u8>>> {
        debug_assert!(self.probe.is_none(), "probe run reached a Capsule read");
        // lint:allow(no-panic-in-decode) — index is reduced modulo the shard-vector length
        let shard = &self.shared.payloads[id as usize % CACHE_SHARDS];
        let mut shard = shard.lock();
        if let Some(p) = shard.get(&id) {
            return Ok(p.clone());
        }
        // Decompress under the shard lock: see [`ExecShared`]. The buffer
        // comes from (and on session drop returns to) the archive arena.
        let _span = telemetry::span("decompress");
        let mut bytes = self.archive.take_buffer();
        if let Err(e) = self.archive.boxed.decompress_capsule_into(id, &mut bytes) {
            self.archive.return_buffer(bytes);
            return Err(e);
        }
        self.stats.capsules_decompressed += 1;
        self.stats.bytes_decompressed += bytes.len() as u64;
        telemetry::counter!("query.capsules_decompressed", 1);
        telemetry::counter!("query.bytes_decompressed", bytes.len() as u64);
        let arc = Arc::new(bytes);
        shard.insert(id, arc.clone());
        Ok(arc)
    }

    /// Row byte-ranges of a delimited Capsule (cached).
    fn ranges(&mut self, id: u32) -> Result<Arc<Vec<(usize, usize)>>> {
        {
            // lint:allow(no-panic-in-decode) — index is reduced modulo the shard-vector length
            let shard = self.shared.delim_ranges[id as usize % CACHE_SHARDS].lock();
            if let Some(r) = shard.get(&id) {
                return Ok(r.clone());
            }
        }
        // Computed outside the shard lock (it needs the payload lock); a
        // concurrent duplicate computation is idempotent.
        let payload = self.payload(id)?;
        let mut ranges = Vec::new();
        let mut start = 0usize;
        for (i, &b) in payload.iter().enumerate() {
            if b == b'\n' {
                ranges.push((start, i));
                start = i + 1;
            }
        }
        if start != payload.len() {
            return Err(Error::Corrupt("delimited capsule missing trailer".into()));
        }
        let arc = Arc::new(ranges);
        // lint:allow(no-panic-in-decode) — index is reduced modulo the shard-vector length
        self.shared.delim_ranges[id as usize % CACHE_SHARDS]
            .lock()
            .insert(id, arc.clone());
        Ok(arc)
    }

    /// Rows of a Capsule whose values satisfy `(mode, needle)`. `rows` is
    /// how many rows the caller addresses in the Capsule: a probe answers
    /// with all of them (never with the Capsule's own untrusted count).
    fn capsule_find(
        &mut self,
        id: u32,
        rows: u32,
        needle: &[u8],
        mode: Mode,
    ) -> Result<Vec<u32>> {
        if self.probe_reads([id]) {
            return Ok((0..rows).collect());
        }
        let payload = self.payload(id)?;
        let _span = telemetry::span("search");
        let meta = self.meta(id)?;
        let view = crate::capsule::CapsuleView::new(&payload, meta)?;
        let hits = view.find(needle, mode);
        telemetry::counter!("query.capsule_scans", 1);
        Ok(hits)
    }

    /// Stamp pre-filter (§5.1): false means the requirement cannot match and
    /// the Capsule need not be decompressed.
    fn stamp_admits(&mut self, id: u32, needle: &[u8]) -> bool {
        if !self.archive.use_stamps {
            return true;
        }
        let _span = telemetry::span("stamp");
        telemetry::counter!("query.stamp_checks", 1);
        // A bad Capsule id keeps the filter fail-open; the subsequent
        // decompression reports the Corrupt error with context.
        let Ok(meta) = self.meta(id) else { return true };
        let ok = meta.stamp.admits(needle);
        if !ok {
            self.stats.stamp_rejections += 1;
            telemetry::counter!("query.stamp_rejections", 1);
        }
        ok
    }

    /// Counts one row materialized for wildcard/overflow verification.
    fn note_row_verified(&mut self) {
        self.stats.rows_verified += 1;
        telemetry::counter!("query.rows_verified", 1);
    }

    /// Runs the Capsule-locating planner (§5.1) under the `plan` span,
    /// accumulating its wall time into the per-query plan/execute split.
    fn plan_timed(&mut self, segs: &[SegRef<'_>], needle: &[u8], mode: Mode) -> Plan {
        let _span = telemetry::span("plan");
        let t = Instant::now();
        let p = plan(segs, needle, mode);
        self.stats.plan_elapsed += t.elapsed();
        p
    }

    // ------------------------------------------------------------------
    // Expression evaluation (global line-number sets).
    // ------------------------------------------------------------------

    /// Evaluates the whole expression to global line numbers.
    ///
    /// Internally everything is per-group: a line belongs to exactly one
    /// group, so `and`/`or`/`not` distribute over groups. That enables the
    /// progressive-matching optimization (as in CLP's keyword chaining): the
    /// right side of an `and`/`not` is only evaluated on groups where the
    /// left side still has candidate rows.
    fn eval_expr(&mut self, expr: &Expr) -> Result<RowSet> {
        let _span = telemetry::span("eval");
        let selection = self.filter_selection(Some(expr))?;
        self.selection_lines(&selection)
    }

    /// The filter stage of the pipeline: evaluates an optional filter
    /// expression into a [`Selection`]. `None` selects everything without
    /// touching any Capsule.
    pub(crate) fn filter_selection(&mut self, expr: Option<&Expr>) -> Result<Selection> {
        match expr {
            None => Ok(Selection::All),
            Some(expr) => {
                let ngroups = self.archive.boxed.groups.len();
                Ok(Selection::Rows(
                    self.eval_expr_groups(expr, &vec![false; ngroups])?,
                ))
            }
        }
    }

    /// Maps a [`Selection`] to global line numbers (the line-set sink of
    /// the pipeline).
    fn selection_lines(&self, selection: &Selection) -> Result<RowSet> {
        let per_group = match selection {
            Selection::All => return Ok(RowSet::all(self.archive.boxed.total_lines)),
            Selection::Rows(per_group) => per_group,
        };
        let mut global = Vec::new();
        for (rows, group) in per_group.iter().zip(&self.archive.boxed.groups) {
            for r in rows.iter() {
                let line = group.line_numbers.get(r as usize).copied().ok_or_else(|| {
                    Error::Corrupt("matched row outside group line table".into())
                })?;
                global.push(line);
            }
        }
        Ok(RowSet::from_unsorted(global))
    }

    fn eval_expr_groups(&mut self, expr: &Expr, skip: &[bool]) -> Result<Vec<RowSet>> {
        match expr {
            Expr::Str(s) => self.eval_str_over_groups(s, skip),
            Expr::And(a, b) => {
                let ra = self.eval_expr_groups(a, skip)?;
                let skip_b: Vec<bool> = ra
                    .iter()
                    .zip(skip)
                    .map(|(rows, &s)| s || rows.is_empty())
                    .collect();
                let rb = self.eval_expr_groups(b, &skip_b)?;
                Ok(ra
                    .iter()
                    .zip(&rb)
                    .map(|(x, y)| x.intersect(y))
                    .collect())
            }
            Expr::Or(a, b) => {
                let ra = self.eval_expr_groups(a, skip)?;
                let rb = self.eval_expr_groups(b, skip)?;
                Ok(ra.iter().zip(&rb).map(|(x, y)| x.union(y)).collect())
            }
            Expr::Not(a, b) => {
                let ra = self.eval_expr_groups(a, skip)?;
                let skip_b: Vec<bool> = ra
                    .iter()
                    .zip(skip)
                    .map(|(rows, &s)| s || rows.is_empty())
                    .collect();
                let rb = self.eval_expr_groups(b, &skip_b)?;
                if self.probe.is_some() {
                    // The probe's right side is a superset of the real one,
                    // so subtracting it could drop rows the real run keeps.
                    return Ok(ra);
                }
                Ok(ra.iter().zip(&rb).map(|(x, y)| x.subtract(y)).collect())
            }
        }
    }

    /// Evaluates one search string over every non-skipped group, serially.
    ///
    /// Fanning out across *groups* is never worth it: literal searches are
    /// sub-millisecond Capsule scans (cheaper than one thread spawn on the
    /// virtualized hosts this targets) and the expensive part of wildcard
    /// searches — per-row verification — fans out across row chunks inside
    /// [`ExecCtx::verify_rows`], which parallelizes within a group instead
    /// of being capped by the group count.
    fn eval_str_over_groups(&mut self, s: &SearchString, skip: &[bool]) -> Result<Vec<RowSet>> {
        if let Some(probe) = &mut self.probe {
            probe.searches.push(SearchPlan {
                search: s.raw.clone(),
                decisions: Vec::with_capacity(skip.len()),
            });
        }
        let mut out = Vec::with_capacity(skip.len());
        for (gid, &skipped) in skip.iter().enumerate() {
            if skipped {
                self.decide(GroupDecision::Skip { stamp_rejected: 0 });
                out.push(RowSet::empty());
            } else {
                out.push(self.eval_search_in_group(s, gid)?);
            }
            if let Some(probe) = &mut self.probe {
                probe.end_pair();
            }
        }
        Ok(out)
    }

    fn eval_search_in_group(&mut self, s: &SearchString, gid: usize) -> Result<RowSet> {
        if let Some(lit) = s.as_literal() {
            return self.eval_literal_in_group(gid, lit);
        }
        // Wildcard string: locate candidates with the longest literal
        // fragment, then verify by reconstruction.
        let frag = s.longest_literal();
        let group_rows = self.group(gid)?.rows();
        let candidates = if frag.is_empty() {
            RowSet::all(group_rows)
        } else {
            self.eval_literal_in_group(gid, frag)?
        };
        if let Some(probe) = &mut self.probe {
            probe.wildcard();
        }
        let rows: Vec<u32> = candidates.iter().collect();
        self.verify_rows(gid, &rows, |line| s.matches_line(line, DEFAULT_DELIMS))
    }

    /// Renders each of `rows` (ascending) and keeps those passing `pred` —
    /// the verify-by-reconstruction step shared by wildcard searches and
    /// the planner's Overflow fallback.
    ///
    /// Large candidate sets are verified in parallel: contiguous row chunks
    /// go to pool workers (sharing the Capsule caches through
    /// [`ExecShared`]), and hits concatenate in chunk order, so the result
    /// and statistics match the serial loop exactly.
    fn verify_rows(
        &mut self,
        gid: usize,
        rows: &[u32],
        pred: impl Fn(&[u8]) -> bool + Sync,
    ) -> Result<RowSet> {
        if self.probe.is_some() {
            // Probe point: rendering reads the group's Capsules, and every
            // candidate counts as verified.
            if !rows.is_empty() {
                let group = self.group(gid)?;
                self.probe_reads(group.vectors.iter().flat_map(VectorMeta::capsules));
            }
            return Ok(RowSet::from_sorted(rows.to_vec()));
        }
        let shared = self.shared;
        if shared.pool.threads() == 1 || rows.len() < PARALLEL_VERIFY_MIN_ROWS {
            let mut scratch = RenderScratch::default();
            let mut line = Vec::new();
            let mut hits = Vec::new();
            for &row in rows {
                self.render_row_into(gid, row, &mut scratch, &mut line)?;
                self.note_row_verified();
                if pred(&line) {
                    hits.push(row);
                }
            }
            return Ok(RowSet::from_sorted(hits));
        }
        let chunk = rows
            .len()
            .div_ceil(shared.pool.threads() * 4)
            .max(MIN_PARALLEL_CHUNK);
        let trace_id = telemetry::current_trace_id();
        // Workers re-root their span stacks at the caller's current path so
        // their spans aggregate under the same histograms as the serial
        // loop, whichever eval path fanned the verification out.
        let ctx_path = telemetry::span_path();
        let chunks = shared.pool.map_chunks(rows, chunk, |_, chunk_rows| {
            let _trace = telemetry::trace_scope_with(trace_id);
            let _ctx = ctx_path.as_deref().map(telemetry::context);
            let mut worker = ExecCtx::new(shared);
            let mut scratch = RenderScratch::default();
            let mut line = Vec::new();
            let mut hits = Vec::new();
            for &row in chunk_rows {
                worker.render_row_into(gid, row, &mut scratch, &mut line)?;
                worker.note_row_verified();
                if pred(&line) {
                    hits.push(row);
                }
            }
            Ok::<_, Error>((hits, worker.stats))
        });
        let mut out = Vec::new();
        for chunk_result in chunks {
            let (hits, worker_stats) = chunk_result?;
            self.stats.merge(&worker_stats);
            out.extend(hits);
        }
        Ok(RowSet::from_sorted(out))
    }

    /// Rows of a group whose rendered line contains the literal `kw`.
    fn eval_literal_in_group(&mut self, gid: usize, kw: &[u8]) -> Result<RowSet> {
        let _span = telemetry::span("literal");
        let group = self.group(gid)?;
        let nrows = group.rows();
        if nrows == 0 {
            self.decide(GroupDecision::Skip { stamp_rejected: 0 });
            return Ok(RowSet::empty());
        }
        let segs = template_segs(group.template.pieces());
        match self.plan_timed(&segs, kw, Mode::Contains) {
            Plan::All => {
                self.decide(GroupDecision::AllRows);
                Ok(RowSet::all(nrows))
            }
            Plan::Overflow => {
                self.decide(GroupDecision::FullScan);
                self.brute_force_group(gid, |line| strsearch::contains(line, kw))
            }
            Plan::Conjs(conjs) => {
                if conjs.is_empty() {
                    self.stats.groups_skipped += 1;
                    telemetry::counter!("query.groups_skipped", 1);
                    self.decide(GroupDecision::Skip { stamp_rejected: 0 });
                    return Ok(RowSet::empty());
                }
                let rejected_before = self.stats.stamp_rejections;
                let mut out = RowSet::empty();
                for conj in &conjs {
                    let rows = self.eval_conj_on_slots(gid, conj, kw, nrows)?;
                    out = out.union(&rows);
                }
                if let Some(probe) = &mut self.probe {
                    let stamp_rejected = self.stats.stamp_rejections - rejected_before;
                    probe.decision = Some(if out.is_empty() && probe.touched.is_empty() {
                        // Stamps or runtime patterns ruled out every
                        // conjunction before any Capsule read.
                        GroupDecision::Skip { stamp_rejected }
                    } else {
                        GroupDecision::Scan {
                            conjunctions: conjs.len(),
                            capsules: probe.touched.len(),
                            stamp_rejected,
                        }
                    });
                }
                Ok(out)
            }
        }
    }

    /// Intersection of slot-requirements of one conjunction.
    fn eval_conj_on_slots(
        &mut self,
        gid: usize,
        conj: &Conj,
        kw: &[u8],
        nrows: u32,
    ) -> Result<RowSet> {
        let mut rows = RowSet::all(nrows);
        for req in conj {
            if rows.is_empty() {
                break;
            }
            let part = kw
                .get(req.lo..req.hi)
                .ok_or_else(|| Error::Corrupt("plan range outside keyword".into()))?;
            let hit = self.eval_var_req(gid, req.var, part, req.mode)?;
            rows = rows.intersect(&hit);
        }
        Ok(rows)
    }

    /// Group rows whose value of slot `slot` satisfies `(mode, needle)` —
    /// the per-variable-vector matching of §5.1, dispatching on storage form.
    fn eval_var_req(
        &mut self,
        gid: usize,
        slot: usize,
        needle: &[u8],
        mode: Mode,
    ) -> Result<RowSet> {
        // Borrow through the 'a archive reference, which outlives &mut self,
        // so no clone of the vector metadata is needed.
        let group = self.group(gid)?;
        let nrows = group.rows();
        let vector = group
            .vectors
            .get(slot)
            .ok_or_else(|| Error::Corrupt("template slot outside vector table".into()))?;
        match vector {
            VectorMeta::Plain { capsule } => {
                if !self.stamp_admits(*capsule, needle) {
                    return Ok(RowSet::empty());
                }
                Ok(RowSet::from_sorted(
                    self.capsule_find(*capsule, nrows, needle, mode)?,
                ))
            }
            VectorMeta::Real {
                pattern,
                sub_caps,
                outlier_cap,
                outlier_rows,
            } => {
                let mut out =
                    self.eval_real_pattern(pattern, sub_caps, outlier_rows, nrows, needle, mode)?;
                // The outlier Capsule is always scanned (§4.1). Its row
                // count is untrusted, so hits are mapped fallibly.
                if !outlier_rows.is_empty() {
                    let outliers = outlier_rows.len() as u32;
                    let hits = self.capsule_find(*outlier_cap, outliers, needle, mode)?;
                    let mut mapped = Vec::with_capacity(hits.len());
                    for r in hits {
                        mapped.push(outlier_rows.get(r as usize).copied().ok_or_else(|| {
                            Error::Corrupt("outlier capsule row outside outlier table".into())
                        })?);
                    }
                    out = out.union(&RowSet::from_sorted(mapped));
                }
                Ok(out)
            }
            VectorMeta::Nominal {
                patterns,
                dict_cap,
                index_cap,
                idx_len,
                dict_len,
                ..
            } => self.eval_nominal(
                patterns, *dict_cap, *index_cap, *idx_len, *dict_len, needle, mode, nrows,
            ),
        }
    }

    /// The runtime-pattern path for a real vector.
    fn eval_real_pattern(
        &mut self,
        pattern: &'a RuntimePattern,
        sub_caps: &'a [u32],
        outlier_rows: &[u32],
        nrows: u32,
        needle: &[u8],
        mode: Mode,
    ) -> Result<RowSet> {
        let segs = pattern_segs(pattern);
        let pattern_rows = || VectorMeta::pattern_row_map(outlier_rows, nrows);
        match self.plan_timed(&segs, needle, mode) {
            Plan::All => Ok(RowSet::from_sorted(pattern_rows())),
            Plan::Overflow => {
                // Scan the variable vector, rendering each pattern row's
                // value through the resolved sub-variable columns into one
                // reused buffer.
                let map = pattern_rows();
                if self.probe_reads(sub_caps.iter().copied()) {
                    return Ok(RowSet::from_sorted(map));
                }
                let mut cols = PatternCols::new(pattern, sub_caps);
                let mut value = Vec::new();
                let mut hits = Vec::new();
                for (pr, &row) in map.iter().enumerate() {
                    value.clear();
                    cols.push_value(self, pr as u32, &mut value)?;
                    self.note_row_verified();
                    if value_matches(&value, needle, mode) {
                        hits.push(row);
                    }
                }
                Ok(RowSet::from_sorted(hits))
            }
            Plan::Conjs(conjs) => {
                let map = pattern_rows();
                let total_pattern_rows = map.len() as u32;
                let mut out = RowSet::empty();
                for conj in &conjs {
                    let mut rows = RowSet::all(total_pattern_rows);
                    for req in conj {
                        if rows.is_empty() {
                            break;
                        }
                        let part = needle
                            .get(req.lo..req.hi)
                            .ok_or_else(|| Error::Corrupt("plan range outside keyword".into()))?;
                        let cap = sub_caps.get(req.var).copied().ok_or_else(|| {
                            Error::Corrupt("plan sub-variable outside capsule table".into())
                        })?;
                        if !self.stamp_admits(cap, part) {
                            rows = RowSet::empty();
                            break;
                        }
                        let hits = self.capsule_find(cap, total_pattern_rows, part, req.mode)?;
                        let hit = RowSet::from_sorted(hits);
                        rows = rows.intersect(&hit);
                    }
                    out = out.union(&rows);
                }
                // Map pattern rows to vector rows.
                let mut vec_rows = Vec::new();
                for pr in out.iter() {
                    vec_rows.push(map.get(pr as usize).copied().ok_or_else(|| {
                        Error::Corrupt("pattern row outside row map".into())
                    })?);
                }
                Ok(RowSet::from_sorted(vec_rows))
            }
        }
    }

    /// The dictionary + index path for a nominal vector (§5.1 differences).
    #[allow(clippy::too_many_arguments)]
    fn eval_nominal(
        &mut self,
        patterns: &[DictPattern],
        dict_cap: u32,
        index_cap: u32,
        idx_len: u32,
        dict_len: u32,
        needle: &[u8],
        mode: Mode,
        nrows: u32,
    ) -> Result<RowSet> {
        let _span = telemetry::span("nominal");
        let regions = VectorMeta::dict_regions(patterns)?;
        let fixed = matches!(self.meta(dict_cap)?.layout, Layout::Raw);
        let mut matched: Vec<u32> = Vec::new();
        let mut probed = false;
        for (p, region) in patterns.iter().zip(&regions) {
            if needle.len() as u32 > p.max_len {
                continue;
            }
            if !self.dict_pattern_could_match(p, needle, mode) {
                continue;
            }
            if self.probe_reads([dict_cap]) {
                probed = true;
                continue;
            }
            // Jump straight to the region (Σ countᵢ×lenᵢ, §5.2) and scan it.
            let hits: Vec<u32> = if fixed {
                let payload = self.payload(dict_cap)?;
                let _span = telemetry::span("search");
                let bytes = region_bytes(&payload, region)?;
                let width = region.width as usize;
                FixedRows::new(bytes, width, PAD)
                    .find(needle, mode)
                    .into_iter()
                    .map(|r| r + region.first_index)
                    .collect()
            } else {
                let meta = self.meta(dict_cap)?;
                let payload = self.payload(dict_cap)?;
                let _span = telemetry::span("search");
                let view = crate::capsule::CapsuleView::new(&payload, meta)?;
                view.find_in_rows(
                    needle,
                    mode,
                    region.first_index,
                    // Validated at region construction not to overflow;
                    // saturate rather than trust the archive.
                    region.first_index.saturating_add(region.count),
                )
            };
            matched.extend(hits);
        }
        if probed {
            // Every value of a probed region is a candidate, so the index
            // scan would be too: every row is.
            self.probe_reads([index_cap]);
            return Ok(RowSet::all(nrows));
        }
        if matched.is_empty() {
            return Ok(RowSet::empty());
        }
        debug_assert!(matched.iter().all(|&i| i < dict_len));

        // Search the matched indices in the index Capsule.
        if matched.len() <= 8 {
            let mut out = RowSet::empty();
            for idx in &matched {
                let formatted = format_index(*idx, idx_len);
                let rows = self.capsule_find(index_cap, nrows, &formatted, Mode::Exact)?;
                out = out.union(&RowSet::from_sorted(rows));
            }
            Ok(out)
        } else {
            // One pass over the decompressed index Capsule with a membership
            // set (row addressing is O(1) thanks to the fixed width, §5.2).
            let set: HashSet<u32> = matched.into_iter().collect();
            let meta = self.meta(index_cap)?;
            let payload = self.payload(index_cap)?;
            let view = crate::capsule::CapsuleView::new(&payload, meta)?;
            let mut rows = Vec::new();
            for row in 0..nrows.min(view.rows() as u32) {
                let idx = parse_index(view.value(row as usize))
                    .ok_or_else(|| Error::Corrupt("bad index value".into()))?;
                if set.contains(&idx) {
                    rows.push(row);
                }
            }
            Ok(RowSet::from_sorted(rows))
        }
    }

    /// Could `(mode, needle)` match any value of this dictionary pattern?
    /// Pattern structure plus sub-variable stamps — no decompression.
    fn dict_pattern_could_match(&mut self, p: &DictPattern, needle: &[u8], mode: Mode) -> bool {
        let segs = pattern_segs(&p.pattern);
        match self.plan_timed(&segs, needle, mode) {
            Plan::All | Plan::Overflow => true,
            Plan::Conjs(conjs) => {
                if !self.archive.use_stamps {
                    return !conjs.is_empty();
                }
                // Out-of-range plan references stay fail-open (true): the
                // filter may only skip a Capsule when the stamp proves a
                // non-match.
                let admits_all = |conj: &Conj| {
                    conj.iter().all(|req| {
                        p.pattern.sub_stamps.get(req.var).is_none_or(|s| {
                            needle.get(req.lo..req.hi).is_none_or(|part| s.admits(part))
                        })
                    })
                };
                if !conjs.is_empty() {
                    telemetry::counter!("query.stamp_checks", 1);
                }
                let ok = conjs.iter().any(admits_all);
                if !ok && !conjs.is_empty() {
                    self.stats.stamp_rejections += 1;
                    telemetry::counter!("query.stamp_rejections", 1);
                }
                ok
            }
        }
    }

    /// Renders the full original line of group row `row` into `line`
    /// (cleared first): template constants and slot values are appended
    /// straight from the group's resolved columns, which `scratch` resolves
    /// on the first row rendered from the group.
    fn render_row_into(
        &mut self,
        gid: usize,
        row: u32,
        scratch: &mut RenderScratch<'a>,
        line: &mut Vec<u8>,
    ) -> Result<()> {
        let GroupCols { group, slots } = scratch.group(self, gid)?;
        line.clear();
        for piece in group.template.pieces() {
            match piece {
                Piece::Static(s) => line.extend_from_slice(s),
                Piece::Slot(i) => slots
                    .get_mut(*i)
                    .ok_or_else(|| Error::Corrupt("template slot outside vector table".into()))?
                    .push_value(self, row, line)?,
            }
        }
        Ok(())
    }

    /// Reconstructs every row of a group and keeps those passing `pred`.
    fn brute_force_group(
        &mut self,
        gid: usize,
        pred: impl Fn(&[u8]) -> bool + Sync,
    ) -> Result<RowSet> {
        let nrows = self.group(gid)?.rows();
        let rows: Vec<u32> = (0..nrows).collect();
        self.verify_rows(gid, &rows, pred)
    }

    /// Renders one line number through the line index into `line`.
    fn render_line_into(
        &mut self,
        index: &[(u32, u32)],
        lineno: u32,
        scratch: &mut RenderScratch<'a>,
        line: &mut Vec<u8>,
    ) -> Result<()> {
        let &(gid, row) = index
            .get(lineno as usize)
            .ok_or_else(|| Error::Corrupt("line number out of range".into()))?;
        if gid == u32::MAX {
            return Err(Error::Corrupt("line number missing from groups".into()));
        }
        self.render_row_into(gid as usize, row, scratch, line)
    }

    /// Reconstructs the given global line numbers, in ascending line order.
    ///
    /// Groups hold their rows in original order, so entries of one group are
    /// naturally ordered; across groups the stored line numbers (logical
    /// timestamps) restore the global order, as in §3's Reconstruction.
    ///
    /// Large result sets are rendered in parallel: the sorted line list is
    /// split into contiguous chunks, each chunk rendered by a pool worker
    /// (sharing the Capsule caches), and the chunks concatenated in order —
    /// output and statistics match the serial loop exactly.
    fn reconstruct(&mut self, line_numbers: &[u32]) -> Result<Vec<Vec<u8>>> {
        let shared = self.shared;
        let wanted = RowSet::from_unsorted(line_numbers.to_vec());
        let index = self.archive.line_index();
        let lines: Vec<u32> = wanted.iter().collect();
        if shared.pool.threads() == 1 || lines.len() < PARALLEL_RECONSTRUCT_MIN_LINES {
            let mut scratch = RenderScratch::default();
            let mut line = Vec::new();
            let mut out = Vec::with_capacity(lines.len());
            for &lineno in &lines {
                self.render_line_into(index, lineno, &mut scratch, &mut line)?;
                out.push(line.clone());
            }
            return Ok(out);
        }
        let chunk = lines
            .len()
            .div_ceil(shared.pool.threads() * 4)
            .max(MIN_PARALLEL_CHUNK);
        let trace_id = telemetry::current_trace_id();
        let chunks = shared.pool.map_chunks(&lines, chunk, |_, chunk_lines| {
            let _trace = telemetry::trace_scope_with(trace_id);
            let _ctx = telemetry::context("query/reconstruct");
            let mut worker = ExecCtx::new(shared);
            let mut scratch = RenderScratch::default();
            let mut line = Vec::new();
            let mut rendered = Vec::with_capacity(chunk_lines.len());
            for &lineno in chunk_lines {
                worker.render_line_into(index, lineno, &mut scratch, &mut line)?;
                rendered.push(line.clone());
            }
            Ok::<_, Error>((rendered, worker.stats))
        });
        let mut out = Vec::with_capacity(lines.len());
        for chunk_result in chunks {
            let (rendered, worker_stats) = chunk_result?;
            self.stats.merge(&worker_stats);
            out.extend(rendered);
        }
        Ok(out)
    }
}

/// Per-worker render state: each group's columns, resolved on the first row
/// rendered from that group and reused for every later row, so rendering
/// takes no cache lock, hash lookup or `Arc` clone per value. Each worker
/// owns one; it never crosses a chunk boundary, so chunking — and therefore
/// output — stays independent of the thread count.
#[derive(Default)]
struct RenderScratch<'a> {
    /// Resolved columns by group id (`None` until first rendered).
    groups: Vec<Option<GroupCols<'a>>>,
}

impl<'a> RenderScratch<'a> {
    /// The resolved columns of group `gid`, resolving them on first use.
    fn group(&mut self, ctx: &mut ExecCtx<'a>, gid: usize) -> Result<&mut GroupCols<'a>> {
        let ngroups = ctx.archive.boxed.groups.len();
        if self.groups.len() < ngroups {
            self.groups.resize_with(ngroups, || None);
        }
        let cached = self
            .groups
            .get_mut(gid)
            .ok_or_else(|| Error::Corrupt(format!("group {gid} out of range")))?;
        match cached {
            Some(cols) => Ok(cols),
            None => Ok(cached.insert(GroupCols::resolve(ctx, gid)?)),
        }
    }
}

/// One group's storage resolved for row access: its metadata plus one
/// column view per template slot.
struct GroupCols<'a> {
    group: &'a GroupMeta,
    slots: Vec<SlotCols<'a>>,
}

impl<'a> GroupCols<'a> {
    fn resolve(ctx: &mut ExecCtx<'a>, gid: usize) -> Result<Self> {
        let group = ctx.group(gid)?;
        let slots = group
            .vectors
            .iter()
            .map(|v| SlotCols::resolve(ctx, v))
            .collect::<Result<_>>()?;
        Ok(Self { group, slots })
    }
}

/// One template slot's variable vector, resolved by storage form.
pub(crate) enum SlotCols<'a> {
    /// One value Capsule.
    Plain(Col),
    /// A runtime pattern over sub-variable columns plus an outlier column;
    /// each is resolved only when a row first needs it, so rendering only
    /// outlier rows never decompresses the sub-variable Capsules.
    Real {
        pattern: PatternCols<'a>,
        outlier_rows: &'a [u32],
        outlier_cap: u32,
        outlier: Option<Col>,
    },
    /// Index column plus dictionary.
    Nominal { index: Col, dict: DictCol },
}

impl<'a> SlotCols<'a> {
    pub(crate) fn resolve(ctx: &mut ExecCtx<'a>, vector: &'a VectorMeta) -> Result<Self> {
        Ok(match vector {
            VectorMeta::Plain { capsule } => SlotCols::Plain(Col::resolve(ctx, *capsule)?),
            VectorMeta::Real {
                pattern,
                sub_caps,
                outlier_cap,
                outlier_rows,
            } => SlotCols::Real {
                pattern: PatternCols::new(pattern, sub_caps),
                outlier_rows,
                outlier_cap: *outlier_cap,
                outlier: None,
            },
            VectorMeta::Nominal {
                patterns,
                dict_cap,
                index_cap,
                ..
            } => SlotCols::Nominal {
                index: Col::resolve(ctx, *index_cap)?,
                dict: DictCol::resolve(ctx, patterns, *dict_cap)?,
            },
        })
    }

    /// Appends the value of vector row `row` to `out`.
    pub(crate) fn push_value(
        &mut self,
        ctx: &mut ExecCtx<'a>,
        row: u32,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        match self {
            SlotCols::Plain(col) => out.extend_from_slice(col.value(row)?),
            SlotCols::Real {
                pattern,
                outlier_rows,
                outlier_cap,
                outlier,
            } => match outlier_rows.binary_search(&row) {
                Ok(outlier_pos) => {
                    let col = match outlier {
                        Some(col) => col,
                        None => outlier.insert(Col::resolve(ctx, *outlier_cap)?),
                    };
                    out.extend_from_slice(col.value(outlier_pos as u32)?);
                }
                Err(outliers_before) => {
                    pattern.push_value(ctx, row - outliers_before as u32, out)?;
                }
            },
            SlotCols::Nominal { index, dict } => {
                let idx = parse_index(index.value(row)?)
                    .ok_or_else(|| Error::Corrupt("bad index value".into()))?;
                out.extend_from_slice(dict.value(idx)?);
            }
        }
        Ok(())
    }
}

/// A runtime pattern with its sub-variable columns, all resolved together
/// on the first value rendered.
pub(crate) struct PatternCols<'a> {
    pattern: &'a RuntimePattern,
    sub_caps: &'a [u32],
    subs: Option<Vec<Col>>,
}

impl<'a> PatternCols<'a> {
    fn new(pattern: &'a RuntimePattern, sub_caps: &'a [u32]) -> Self {
        Self {
            pattern,
            sub_caps,
            subs: None,
        }
    }

    /// Appends the value of pattern row `pattern_row` (pattern constants
    /// with each sub-variable's value in place) to `out`.
    fn push_value(
        &mut self,
        ctx: &mut ExecCtx<'a>,
        pattern_row: u32,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let subs = match &mut self.subs {
            Some(subs) => subs,
            None => self.subs.insert(
                self.sub_caps
                    .iter()
                    .map(|&cap| Col::resolve(ctx, cap))
                    .collect::<Result<_>>()?,
            ),
        };
        for seg in &self.pattern.segments {
            match seg {
                Segment::Const(c) => out.extend_from_slice(c),
                Segment::Var(v) => out.extend_from_slice(
                    subs.get(*v)
                        .ok_or_else(|| {
                            Error::Corrupt("pattern sub-variable outside capsule table".into())
                        })?
                        .value(pattern_row)?,
                ),
            }
        }
        Ok(())
    }
}

/// A nominal vector's dictionary, resolved for lookup by global index.
pub(crate) enum DictCol {
    /// A dictionary stored as a row-addressable Capsule.
    Rows(Col),
    /// A fixed-length dictionary (raw layout): regions of equal-width
    /// values, each located by `Σ countᵢ × lenᵢ` (§5.2) computed once.
    Fixed {
        payload: Arc<Vec<u8>>,
        regions: Vec<DictRegion>,
    },
}

impl DictCol {
    pub(crate) fn resolve(
        ctx: &mut ExecCtx<'_>,
        patterns: &[DictPattern],
        dict_cap: u32,
    ) -> Result<Self> {
        if matches!(ctx.meta(dict_cap)?.layout, Layout::Raw) {
            let regions = VectorMeta::dict_regions(patterns)?;
            Ok(DictCol::Fixed {
                payload: ctx.payload(dict_cap)?,
                regions,
            })
        } else {
            Ok(DictCol::Rows(Col::resolve(ctx, dict_cap)?))
        }
    }

    /// The dictionary value with global index `idx`.
    pub(crate) fn value(&self, idx: u32) -> Result<&[u8]> {
        let (payload, regions) = match self {
            DictCol::Rows(col) => return col.value(idx),
            DictCol::Fixed { payload, regions } => (payload, regions),
        };
        // Regions are in ascending `first_index` order: the owning region
        // is the last one starting at or before `idx`.
        let out_of_range = || Error::Corrupt("dict index out of range".into());
        let region = regions
            .partition_point(|r| r.first_index <= idx)
            .checked_sub(1)
            .and_then(|i| regions.get(i))
            .ok_or_else(out_of_range)?;
        let local = idx - region.first_index;
        if local >= region.count {
            return Err(out_of_range());
        }
        let bytes = region_bytes(payload, region)?;
        let width = region.width as usize;
        if width == 0 {
            // A zero-width region stores only empty values.
            return Ok(&[]);
        }
        fixed_row(bytes, local as usize, width)
            .ok_or_else(|| Error::Corrupt("dict index outside region".into()))
    }
}

/// One Capsule resolved for row access: its decompressed payload plus the
/// addressing that finds row *i* without consulting any cache again.
pub(crate) struct Col {
    payload: Arc<Vec<u8>>,
    rows: RowAddr,
}

/// How a resolved Capsule addresses its rows.
enum RowAddr {
    /// Fixed-length rows (§5.2): row *i* is the `width` bytes at
    /// `i × width`, trailing pad trimmed.
    Padded(usize),
    /// Newline-delimited rows, with their byte ranges computed once.
    Delimited(Arc<Vec<(usize, usize)>>),
}

impl Col {
    /// Decompresses (or reuses) Capsule `id` and validates its addressing.
    fn resolve(ctx: &mut ExecCtx<'_>, id: u32) -> Result<Self> {
        let meta = ctx.meta(id)?;
        let payload = ctx.payload(id)?;
        let rows = match meta.layout {
            Layout::Padded { width } => {
                let width = width as usize;
                if width == 0 || payload.len() % width != 0 {
                    return Err(Error::Corrupt("capsule payload misaligned".into()));
                }
                RowAddr::Padded(width)
            }
            Layout::Delimited => RowAddr::Delimited(ctx.ranges(id)?),
            Layout::Raw => return Err(Error::Corrupt("raw capsule has no row addressing".into())),
        };
        Ok(Self { payload, rows })
    }

    /// The unpadded value of `row`.
    fn value(&self, row: u32) -> Result<&[u8]> {
        let row_out_of_range = || Error::Corrupt("capsule row out of range".into());
        match &self.rows {
            RowAddr::Padded(width) => {
                // The payload is a whole number of rows, so the slice
                // exists exactly when `row` is in range.
                fixed_row(&self.payload, row as usize, *width).ok_or_else(row_out_of_range)
            }
            RowAddr::Delimited(ranges) => {
                let &(lo, hi) = ranges.get(row as usize).ok_or_else(row_out_of_range)?;
                self.payload
                    .get(lo..hi)
                    .ok_or_else(|| Error::Corrupt("capsule row range outside payload".into()))
            }
        }
    }
}

/// The unpadded value of row `row` in `width`-byte padded rows, or `None`
/// when the row lies outside `buf`.
fn fixed_row(buf: &[u8], row: usize, width: usize) -> Option<&[u8]> {
    let start = row.checked_mul(width)?;
    buf.get(start..start.checked_add(width)?)
        .map(|raw| trim_pad(raw, PAD))
}

/// Slices a dictionary region out of a decompressed payload, rejecting
/// regions whose declared extent overflows or exceeds the payload.
fn region_bytes<'p>(payload: &'p [u8], region: &DictRegion) -> Result<&'p [u8]> {
    let span = usize::try_from(u64::from(region.count) * u64::from(region.width))
        .map_err(|_| Error::Corrupt("dict region overflow".into()))?;
    let end = region
        .byte_offset
        .checked_add(span)
        .ok_or_else(|| Error::Corrupt("dict region overflow".into()))?;
    payload
        .get(region.byte_offset..end)
        .ok_or_else(|| Error::Corrupt("dict region outside payload".into()))
}

/// Direct value/needle check shared by scan fallbacks.
fn value_matches(value: &[u8], needle: &[u8], mode: Mode) -> bool {
    match mode {
        Mode::Contains => strsearch::contains(value, needle),
        Mode::Prefix => value.starts_with(needle),
        Mode::Suffix => value.ends_with(needle),
        Mode::Exact => value == needle,
    }
}
