//! Repairable cover cache with per-entry generations.
//!
//! Serving workloads repeat queries: the same user polls the same label set
//! and range, dashboards re-issue the same covers. The first cache keyed
//! answers by [`QuerySpec`] but stamped the whole map with one store
//! generation — any append flushed every entry, and the next query paid a
//! full re-solve inline on the request thread (the 4-second p99 recorded
//! in CHANGES.md PR 6). This version keeps entries useful across appends:
//!
//! * **Footprint check** — a new post only matters to a cached entry if it
//!   joins that entry's slice: it carries one of the spec's labels *and*
//!   its value lies in `[from, to]`. Entries outside the footprint are
//!   revalidated at the new generation untouched.
//! * **One representation** — an entry holds its cover once, in the form
//!   it is served in: the rendered rows ([`TsvRows`]) behind an [`Arc`].
//!   A hit ([`CoverCache::lookup_shared`]) is a reference-count bump and
//!   the response writes those bytes; nothing is cloned or rendered per
//!   request. The value is immutable while shared: a repair that finds a
//!   reader still holding it patches a copy (`Arc::make_mut`), so a
//!   response stamped generation *g* carries *g*'s bytes whatever lands
//!   while it is written. [`CoverCache::lookup`] is the decoding face of
//!   the same lookup, for callers that want `Vec<Record>`.
//! * **In-place repair** — fixed-lambda Scan entries carry a
//!   [`CoverRepair`] tail state; posts inside the footprint are folded in
//!   (O(query labels) each) and the entry stays byte-identical to a cold
//!   solve at the new generation. The fold names the key below which the
//!   cover is frozen, so the entry's rows are cut at that key and the few
//!   rows after it rendered again, and a repair costs what changed, not
//!   the cover's length. The entry's rows are the cover; the repair state
//!   beside them keeps only the picks a later fold can still read (those
//!   at or after its oldest open pick, `CoverRepair::release_frozen`), so
//!   the frozen prefix is held once, as text. Each entry tracks its
//!   *repair debt* (rows folded since the last full solve); past
//!   [`DEFAULT_DEBT_BOUND`] the entry falls back to a full re-solve like
//!   the non-repairable cases.
//! * **Stale-but-bounded serving** — entries whose solver cannot be
//!   repaired locally (Scan+ cascades across labels, GreedySC re-ranks
//!   globally, OPT is a global DP, proportional lambda is density-coupled)
//!   go *dirty* on a footprint hit: their records stay exact at their
//!   recorded watermark generation and keep being served (stamped stale)
//!   while a background refresher re-solves them off the request path.
//!   [`DEFAULT_MAX_LAG`] hard-bounds the staleness: a dirty entry lagging
//!   further than that is treated as a miss and recomputed inline.
//! * **Second-chance eviction** — a full cache evicts via the clock
//!   algorithm over the insertion ring instead of dropping everything, so
//!   repeatedly-hit specs survive capacity pressure.
//!
//! Contract: [`CoverCache::apply_delta`] must see every appended row
//! exactly once, in append order, stamped with the store generation after
//! the batch. The cache verifies contiguity (`new_generation ==
//! latest + rows.len()`) and degrades safely — by marking everything dirty
//! rather than certifying wrong freshness — if a caller breaks the
//! contract. Staleness is always sound: an entry's records are exact at
//! its watermark generation no matter what, because appends never retract.

use std::collections::HashMap;
use std::sync::Arc;

use mqd_core::record::{Record, RowRef, TsvRows};
use mqd_stream::CoverRepair;

use crate::query::QuerySpec;

/// Default maximum number of cached covers.
const DEFAULT_CAPACITY: usize = 1024;

/// Default repair-debt bound: rows folded into an entry since its last
/// full solve before it falls back to a background re-solve. Repair is
/// exact, so the bound is about bounding per-entry state drift and
/// guaranteeing every hot entry is periodically re-derived from scratch.
pub const DEFAULT_DEBT_BOUND: u64 = 4096;

/// Default staleness hard bound, in generations: a dirty entry lagging
/// beyond this is treated as a miss (inline recompute) instead of served.
pub const DEFAULT_MAX_LAG: u64 = 1 << 16;

/// Counters reported by [`CoverCache::stats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (fresh or stale).
    pub hits: u64,
    /// Lookups that had to compute inline.
    pub misses: u64,
    /// Entries marked dirty by an in-footprint append they could not
    /// repair (previously: whole-cache flushes).
    pub invalidations: u64,
    /// In-place entry repairs (one per entry per delta that touched it).
    pub repairs: u64,
    /// Background re-solves installed via [`CoverCache::install_refreshed`].
    pub refreshes: u64,
    /// Stale (watermarked) answers served while a refresh was pending.
    pub stale_served: u64,
    /// Entries currently held.
    pub entries: usize,
}

/// Outcome of a cache lookup, over the form the cover comes back in:
/// the shared rendered rows from [`CoverCache::lookup_shared`], decoded
/// records (the default) from [`CoverCache::lookup`].
#[derive(Clone, Debug)]
pub enum Lookup<T = Vec<Record>> {
    /// The records are exact at the looked-up generation.
    Fresh(T),
    /// The entry lags the store: records are exact at `generation` (the
    /// watermark to stamp on the response). When `enqueue_refresh` is
    /// true the caller owns scheduling a background re-solve (the cache
    /// marked the entry queued; undo with
    /// [`CoverCache::refresh_not_queued`] if scheduling fails).
    Stale {
        /// The cached cover, exact at `generation`.
        records: T,
        /// Watermark generation the records were computed against.
        generation: u64,
        /// True when this lookup claimed responsibility for queueing a
        /// background refresh of the entry.
        enqueue_refresh: bool,
    },
    /// Nothing serviceable cached; compute and [`CoverCache::insert_fresh`].
    Miss,
}

struct Entry {
    /// The cover as it is served, exact at `generation`. Shared with the
    /// responses being written; patched through `Arc::make_mut`.
    rows: Arc<TsvRows>,
    /// Store generation the rows are exact at (the watermark).
    generation: u64,
    /// Incremental tail state, for fixed-lambda Scan entries only. Holds
    /// no frozen pick below its oldest open one: `rows` has them.
    repair: Option<CoverRepair>,
    /// Rows folded into `repair` since the last full solve.
    debt: u64,
    /// True when the rows lag the latest generation and a background
    /// re-solve is wanted.
    dirty: bool,
    /// True while a refresh job for this entry is (believed) queued.
    refresh_queued: bool,
    /// Second-chance bit: set on hit, cleared by the clock hand.
    referenced: bool,
}

/// Renders a solved cover for an entry and lets its repair state go of
/// what the rendered rows now hold.
fn take_cover(
    records: &[Record],
    repair: Option<CoverRepair>,
) -> (Arc<TsvRows>, Option<CoverRepair>) {
    let rows = Arc::new(TsvRows::from_records(records));
    let repair = repair.map(|mut rep| {
        rep.release_frozen();
        rep
    });
    (rows, repair)
}

/// A bounded, repairable cover cache keyed by [`QuerySpec`] (see the
/// module docs for the maintenance protocol).
pub struct CoverCache {
    map: HashMap<QuerySpec, Entry>,
    /// Insertion ring for the clock hand; holds exactly the map's keys.
    /// All iteration over entries goes through this ring, never the map,
    /// so delta application and eviction are deterministic.
    ring: Vec<QuerySpec>,
    /// Clock hand: index into `ring` of the next eviction candidate.
    hand: usize,
    /// Newest store generation [`CoverCache::apply_delta`] has sealed.
    latest_generation: u64,
    capacity: usize,
    debt_bound: u64,
    max_lag: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    repairs: u64,
    refreshes: u64,
    stale_served: u64,
}

impl CoverCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` covers; a full cache
    /// evicts one entry via second-chance/clock on insert.
    pub fn with_capacity(capacity: usize) -> Self {
        CoverCache {
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            latest_generation: 0,
            capacity: capacity.max(1),
            debt_bound: DEFAULT_DEBT_BOUND,
            max_lag: DEFAULT_MAX_LAG,
            hits: 0,
            misses: 0,
            invalidations: 0,
            repairs: 0,
            refreshes: 0,
            stale_served: 0,
        }
    }

    /// Overrides the repair-debt bound (test/tuning hook).
    pub fn set_debt_bound(&mut self, bound: u64) {
        self.debt_bound = bound;
    }

    /// Overrides the staleness hard bound (test/tuning hook).
    pub fn set_max_lag(&mut self, lag: u64) {
        self.max_lag = lag;
    }

    /// Looks up `spec` against the store generation the caller is serving
    /// at. Never computes: on [`Lookup::Miss`] the caller computes and
    /// [`CoverCache::insert_fresh`]es. A hit hands out the entry's own
    /// rows: a reference-count bump, no copy.
    pub fn lookup_shared(
        &mut self,
        spec: &QuerySpec,
        store_generation: u64,
    ) -> Lookup<Arc<TsvRows>> {
        let Some(entry) = self.map.get_mut(spec) else {
            self.misses += 1;
            return Lookup::Miss;
        };
        if entry.generation == store_generation {
            entry.referenced = true;
            self.hits += 1;
            return Lookup::Fresh(Arc::clone(&entry.rows));
        }
        let lag = store_generation.saturating_sub(entry.generation);
        if lag > self.max_lag {
            // Staleness hard bound: recompute inline rather than serve
            // arbitrarily old data.
            self.misses += 1;
            return Lookup::Miss;
        }
        entry.referenced = true;
        self.hits += 1;
        self.stale_served += 1;
        let enqueue_refresh = !entry.refresh_queued;
        entry.refresh_queued = true;
        Lookup::Stale {
            records: Arc::clone(&entry.rows),
            generation: entry.generation,
            enqueue_refresh,
        }
    }

    /// [`CoverCache::lookup_shared`] with the rows parsed back into
    /// records: the face for callers that compare or re-render covers
    /// (the oracle, the benchmark's replay, tests). The server does not
    /// come through here.
    pub fn lookup(&mut self, spec: &QuerySpec, store_generation: u64) -> Lookup {
        // The rows were rendered by this cache, so they parse; if they
        // ever did not, recomputing is the safe answer.
        match self.lookup_shared(spec, store_generation) {
            Lookup::Fresh(rows) => rows.to_records().map_or(Lookup::Miss, Lookup::Fresh),
            Lookup::Stale {
                records,
                generation,
                enqueue_refresh,
            } => records
                .to_records()
                .map_or(Lookup::Miss, |records| Lookup::Stale {
                    records,
                    generation,
                    enqueue_refresh,
                }),
            Lookup::Miss => Lookup::Miss,
        }
    }

    /// Undoes the `enqueue_refresh` claim of a [`Lookup::Stale`] (or the
    /// re-enqueue claim of [`CoverCache::install_refreshed`]) after the
    /// caller failed to schedule the job, so a later lookup retries.
    pub fn refresh_not_queued(&mut self, spec: &QuerySpec) {
        if let Some(entry) = self.map.get_mut(spec) {
            entry.refresh_queued = false;
        }
    }

    /// Caches a freshly computed answer and returns it in the form it was
    /// cached in, for the caller to serve. `generation` is the store
    /// generation the computation was exact at; if deltas were sealed
    /// past it while the caller was solving, the entry comes in already
    /// stale (records remain exact at their watermark) and the repair
    /// state — which would be missing those rows — is dropped.
    pub fn insert_fresh(
        &mut self,
        spec: &QuerySpec,
        records: Vec<Record>,
        generation: u64,
        repair: Option<CoverRepair>,
    ) -> Arc<TsvRows> {
        debug_assert!(
            repair.as_ref().is_none_or(|r| {
                r.cover().iter().zip(records.iter()).all(|(a, b)| a == b)
                    && r.len() == records.len()
            }),
            "repair state out of sync with the solved records"
        );
        self.latest_generation = self.latest_generation.max(generation);
        let dirty = generation < self.latest_generation;
        let (rows, repair) = take_cover(&records, if dirty { None } else { repair });
        let entry = Entry {
            rows: Arc::clone(&rows),
            generation,
            repair,
            debt: 0,
            dirty,
            refresh_queued: false,
            // New entries start unreferenced and earn their second chance
            // on the first re-hit; otherwise a full sweep sees every bit
            // set and the clock degrades to FIFO, evicting hot entries.
            referenced: false,
        };
        if let Some(slot) = self.map.get_mut(spec) {
            *slot = entry;
            return rows;
        }
        if self.map.len() >= self.capacity {
            self.evict_one();
        }
        self.ring.push(spec.clone());
        self.map.insert(spec.clone(), entry);
        rows
    }

    /// Seals `rows` (the rows appended since the last call, in append
    /// order) at `new_generation`. Every entry is either revalidated
    /// (footprint miss), repaired in place (fixed-lambda Scan, within the
    /// debt bound), or marked dirty. Returns the specs newly needing a
    /// background re-solve; the caller owns scheduling them. The rows are
    /// read as [`RowRef`]s: a prefix of a decoded batch, or `&[Record]`.
    /// Their labels need not be normalized: the footprint test and the
    /// repair fold read them as a set.
    pub fn apply_delta<'a, I>(&mut self, rows: I, new_generation: u64) -> Vec<QuerySpec>
    where
        I: IntoIterator<IntoIter: ExactSizeIterator + Clone>,
        I::Item: Into<RowRef<'a>>,
    {
        if self.ring.is_empty() {
            // No entry to classify (every bulk load into a cold cache):
            // the rows need no looking at.
            self.latest_generation = self.latest_generation.max(new_generation);
            return Vec::new();
        }
        let rows = rows.into_iter().map(Into::into);
        // Contract check: the delta must be exactly the rows between the
        // sealed generation and the new one. On a gap (a caller that
        // appended without telling the cache), freshness can no longer be
        // certified — degrade every entry to stale instead of lying.
        let contiguous = new_generation.saturating_sub(rows.len() as u64) == self.latest_generation;
        let mut to_refresh = Vec::new();
        // The rows inside the current entry's footprint.
        let mut relevant: Vec<RowRef<'a>> = Vec::new();
        for i in 0..self.ring.len() {
            let spec = &self.ring[i];
            let Some(entry) = self.map.get_mut(spec) else {
                continue; // ring/map desync is repaired by the clock hand
            };
            if entry.dirty {
                continue; // already lagging; the pending refresh catches up
            }
            if !contiguous {
                entry.dirty = true;
                self.invalidations += 1;
                if !entry.refresh_queued {
                    entry.refresh_queued = true;
                    to_refresh.push(spec.clone());
                }
                continue;
            }
            // The footprint test: a row matters iff it joins this spec's
            // slice (value in range, shares a label).
            relevant.clear();
            relevant.extend(rows.clone().filter(|r: &RowRef<'a>| {
                r.value >= spec.from
                    && r.value <= spec.to
                    && r.labels.iter().any(|l| spec.labels.contains(l))
            }));
            if relevant.is_empty() {
                // Outside the footprint: the slice is unchanged, so the
                // cover is exact at the new generation as-is.
                entry.generation = new_generation;
                continue;
            }
            let repairable = entry.repair.is_some()
                && entry.debt.saturating_add(relevant.len() as u64) <= self.debt_bound;
            if repairable {
                if let Some(rep) = entry.repair.as_mut() {
                    let patched = match rep.observe_tail(relevant.iter().copied()) {
                        // Below `from` the cover is frozen: keep those
                        // rows, render the rest again. A reader still
                        // writing the old rows keeps them; the entry
                        // patches a copy.
                        Some((from, tail)) => {
                            let rows = Arc::make_mut(&mut entry.rows);
                            let cut = rows.truncate_from(from).is_ok();
                            if cut {
                                tail.iter().for_each(|r| rows.push(r));
                            }
                            cut
                        }
                        None => true,
                    };
                    if patched {
                        rep.release_frozen();
                        debug_assert!(
                            (entry.rows.to_records()).is_ok_and(|all| all.ends_with(&rep.cover())),
                            "tail patch drifted from the fold"
                        );
                        entry.debt += relevant.len() as u64;
                        entry.generation = new_generation;
                        self.repairs += 1;
                        continue;
                    }
                    // The entry's rows did not parse (rows this cache
                    // rendered always do). They are untouched, so still
                    // exact at the watermark, but the fold has moved past
                    // them: re-solve.
                    entry.repair = None;
                }
            }
            entry.dirty = true;
            self.invalidations += 1;
            if !entry.refresh_queued {
                entry.refresh_queued = true;
                to_refresh.push(spec.clone());
            }
        }
        self.latest_generation = self.latest_generation.max(new_generation);
        to_refresh
    }

    /// Installs a background re-solve computed at `generation`. Returns
    /// true when the entry is *still* stale (the store moved on while the
    /// refresher was solving) — the caller should re-enqueue; the entry
    /// is already marked queued for it (undo with
    /// [`CoverCache::refresh_not_queued`] on scheduling failure).
    pub fn install_refreshed(
        &mut self,
        spec: &QuerySpec,
        records: Vec<Record>,
        generation: u64,
        repair: Option<CoverRepair>,
    ) -> bool {
        self.refreshes += 1;
        let latest = self.latest_generation.max(generation);
        self.latest_generation = latest;
        let Some(entry) = self.map.get_mut(spec) else {
            // Evicted while the refresh was in flight; it was hot enough
            // to be refreshed, so reinstall it.
            self.insert_fresh(spec, records, generation, repair);
            return self.map.get(spec).is_some_and(|e| e.dirty);
        };
        if generation >= entry.generation {
            let dirty = generation < latest;
            (entry.rows, entry.repair) = take_cover(&records, if dirty { None } else { repair });
            entry.generation = generation;
            entry.debt = 0;
            entry.dirty = dirty;
            entry.refresh_queued = dirty;
            return dirty;
        }
        // A newer answer beat this refresh; keep it.
        entry.refresh_queued = entry.dirty;
        entry.dirty
    }

    /// Second-chance/clock eviction: sweep the ring from the hand,
    /// clearing referenced bits; the first unreferenced entry goes. Two
    /// full laps always find a victim (the first lap clears every bit).
    fn evict_one(&mut self) {
        let mut budget = self.ring.len().saturating_mul(2).saturating_add(1);
        while budget > 0 && !self.ring.is_empty() {
            budget -= 1;
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let spec = &self.ring[self.hand];
            match self.map.get_mut(spec) {
                Some(entry) if entry.referenced => {
                    entry.referenced = false;
                    self.hand += 1;
                }
                Some(_) => {
                    self.map.remove(&self.ring[self.hand]);
                    self.ring.remove(self.hand);
                    return;
                }
                None => {
                    // Ring slot without a map entry: drop the slot and
                    // keep sweeping.
                    self.ring.remove(self.hand);
                }
            }
        }
    }

    /// The retention lease held by the live cache entries: the smallest
    /// `from` bound and the largest non-negative λ across all entries
    /// (`None` when the cache is empty). The durable layer's retention GC
    /// must keep every segment a live entry's slice — or its λ-sized
    /// repair window — can still touch, so it folds this lease into its
    /// horizon. Iterates the ring, never the map, for determinism.
    pub fn live_lease(&self) -> Option<(i64, i64)> {
        if self.ring.is_empty() {
            return None;
        }
        let mut min_from = i64::MAX;
        let mut max_lambda = 0i64;
        for spec in &self.ring {
            min_from = min_from.min(spec.from);
            max_lambda = max_lambda.max(spec.lambda);
        }
        Some((min_from, max_lambda))
    }

    /// Cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            repairs: self.repairs,
            refreshes: self.refreshes,
            stale_served: self.stale_served,
            entries: self.map.len(),
        }
    }
}

impl Default for CoverCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{repair_state, run_query, solve_slice, Algorithm};
    use crate::store::Store;

    fn row(id: u64, value: i64, labels: &[u16]) -> Record {
        Record {
            id,
            value,
            labels: labels.to_vec(),
        }
    }

    fn spec(algorithm: Algorithm, labels: &[u16], lambda: i64) -> QuerySpec {
        QuerySpec {
            labels: labels.to_vec(),
            lambda,
            proportional: false,
            algorithm,
            from: i64::MIN,
            to: i64::MAX,
        }
    }

    /// Stores rows 0..n with value 10*i on alternating labels 0/1.
    fn store(n: u64) -> Store {
        let mut s = Store::new();
        for i in 0..n {
            s.append(row(i, 10 * i as i64, &[(i % 2) as u16])).unwrap();
        }
        s
    }

    /// Primes the cache with a fresh solve of `spec` against `store`.
    fn prime(cache: &mut CoverCache, store: &Store, q: &QuerySpec) {
        assert!(matches!(cache.lookup(q, store.generation()), Lookup::Miss));
        let slice = store.slice(&q.labels, q.from, q.to);
        let records = solve_slice(&slice, q).unwrap();
        let repair = repair_state(&slice, q);
        cache.insert_fresh(q, records, store.generation(), repair);
    }

    #[test]
    fn hits_after_insert_fresh() {
        let s = store(4);
        let q = spec(Algorithm::Scan, &[0, 1], 15);
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        let Lookup::Fresh(records) = c.lookup(&q, s.generation()) else {
            panic!("expected a fresh hit");
        };
        assert_eq!(records, run_query(&s, &q).unwrap());
        let st = c.stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
    }

    #[test]
    fn footprint_miss_revalidates_without_repair() {
        let mut s = store(4);
        let q = spec(Algorithm::GreedySc, &[0], 15);
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        // Label 5 is outside the spec's footprint: no repair, no dirt.
        s.append(row(100, 40, &[5])).unwrap();
        let dirty = c.apply_delta(&[row(100, 40, &[5])], s.generation());
        assert!(dirty.is_empty());
        assert!(matches!(c.lookup(&q, s.generation()), Lookup::Fresh(_)));
        let st = c.stats();
        assert_eq!((st.invalidations, st.repairs, st.stale_served), (0, 0, 0));
    }

    #[test]
    fn range_bounded_specs_ignore_out_of_range_appends() {
        let mut s = store(4);
        let mut q = spec(Algorithm::ScanPlus, &[0, 1], 15);
        q.to = 30; // the slice ends at value 30
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        s.append(row(100, 500, &[0])).unwrap();
        assert!(c
            .apply_delta(&[row(100, 500, &[0])], s.generation())
            .is_empty());
        assert!(matches!(c.lookup(&q, s.generation()), Lookup::Fresh(_)));
    }

    #[test]
    fn scan_entries_are_repaired_in_place() {
        let mut s = store(6);
        let q = spec(Algorithm::Scan, &[0, 1], 15);
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        for i in 6..40u64 {
            let r = row(i, 10 * i as i64, &[(i % 2) as u16]);
            s.append(r.clone()).unwrap();
            let dirty = c.apply_delta(std::slice::from_ref(&r), s.generation());
            assert!(dirty.is_empty(), "scan entries must repair, not dirty");
            let Lookup::Fresh(records) = c.lookup(&q, s.generation()) else {
                panic!("expected a fresh (repaired) hit at generation {i}");
            };
            assert_eq!(
                records,
                run_query(&s, &q).unwrap(),
                "repaired cover must be byte-identical to a cold solve"
            );
        }
        assert_eq!(c.stats().repairs, 34);
        assert_eq!(c.stats().invalidations, 0);
    }

    #[test]
    fn non_repairable_entries_serve_stale_then_refresh() {
        let mut s = store(6);
        let q = spec(Algorithm::GreedySc, &[0, 1], 15);
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        let stale_answer = run_query(&s, &q).unwrap();
        let watermark = s.generation();

        let r = row(100, 100, &[0]);
        s.append(r.clone()).unwrap();
        let dirty = c.apply_delta(std::slice::from_ref(&r), s.generation());
        assert_eq!(dirty, vec![q.clone()], "entry must be queued for refresh");
        assert_eq!(c.stats().invalidations, 1);

        // Served stale, stamped with its exact watermark.
        let Lookup::Stale {
            records,
            generation,
            enqueue_refresh,
        } = c.lookup(&q, s.generation())
        else {
            panic!("expected a stale hit");
        };
        assert_eq!(records, stale_answer);
        assert_eq!(generation, watermark);
        assert!(!enqueue_refresh, "apply_delta already queued the refresh");
        assert_eq!(c.stats().stale_served, 1);

        // The background refresher lands: fresh again, at the new gen.
        let refreshed = run_query(&s, &q).unwrap();
        let still_stale = c.install_refreshed(&q, refreshed.clone(), s.generation(), None);
        assert!(!still_stale);
        let Lookup::Fresh(records) = c.lookup(&q, s.generation()) else {
            panic!("expected a fresh hit after refresh");
        };
        assert_eq!(records, refreshed);
        assert_eq!(c.stats().refreshes, 1);
    }

    #[test]
    fn debt_bound_forces_fallback_to_refresh() {
        let mut s = store(4);
        let q = spec(Algorithm::Scan, &[0, 1], 15);
        let mut c = CoverCache::new();
        c.set_debt_bound(2);
        prime(&mut c, &s, &q);
        let mut dirtied = Vec::new();
        for i in 4..8u64 {
            let r = row(i, 10 * i as i64, &[0]);
            s.append(r.clone()).unwrap();
            dirtied.extend(c.apply_delta(std::slice::from_ref(&r), s.generation()));
        }
        // Two repairs fit the bound; the third append tips it over.
        assert_eq!(dirtied, vec![q.clone()]);
        assert_eq!(c.stats().repairs, 2);
        assert_eq!(c.stats().invalidations, 1);
        assert!(matches!(c.lookup(&q, s.generation()), Lookup::Stale { .. }));
    }

    #[test]
    fn lag_past_the_bound_is_a_miss() {
        let mut s = store(4);
        let q = spec(Algorithm::GreedySc, &[0], 15);
        let mut c = CoverCache::new();
        c.set_max_lag(3);
        prime(&mut c, &s, &q);
        for i in 4..10u64 {
            let r = row(i, 10 * i as i64, &[0]);
            s.append(r.clone()).unwrap();
            c.apply_delta(std::slice::from_ref(&r), s.generation());
        }
        // Lag is 6 > 3: too stale to serve.
        assert!(matches!(c.lookup(&q, s.generation()), Lookup::Miss));
    }

    #[test]
    fn non_contiguous_delta_degrades_to_stale_not_wrong() {
        let mut s = store(4);
        let q = spec(Algorithm::Scan, &[0, 1], 15);
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        // Append two rows but only tell the cache about the second: it
        // must refuse to certify freshness.
        s.append(row(50, 100, &[0])).unwrap();
        let r = row(51, 110, &[0]);
        s.append(r.clone()).unwrap();
        let dirty = c.apply_delta(std::slice::from_ref(&r), s.generation());
        assert_eq!(dirty, vec![q.clone()]);
        match c.lookup(&q, s.generation()) {
            Lookup::Stale { generation, .. } => assert_eq!(generation, 4),
            other => panic!("expected stale, got {other:?}"),
        }
    }

    #[test]
    fn repeatedly_hit_entry_outlives_capacity_pressure() {
        // The satellite regression: the old cache cleared the whole map
        // on insert-when-full; second-chance must keep the hot entry.
        let s = store(8);
        let hot = spec(Algorithm::Scan, &[0], 15);
        let mut c = CoverCache::with_capacity(2);
        prime(&mut c, &s, &hot);
        for lambda in 0..20 {
            // Keep the hot entry referenced, then pressure the cache.
            assert!(
                matches!(c.lookup(&hot, s.generation()), Lookup::Fresh(_)),
                "hot entry evicted at lambda {lambda}"
            );
            let cold = spec(Algorithm::GreedySc, &[1], 100 + lambda);
            let slice = s.slice(&cold.labels, cold.from, cold.to);
            let records = solve_slice(&slice, &cold).unwrap();
            c.insert_fresh(&cold, records, s.generation(), None);
            assert!(c.stats().entries <= 2);
        }
        assert!(matches!(c.lookup(&hot, s.generation()), Lookup::Fresh(_)));
    }

    #[test]
    fn unreferenced_entries_are_the_eviction_victims() {
        let s = store(8);
        let mut c = CoverCache::with_capacity(3);
        let specs: Vec<QuerySpec> = (0..3)
            .map(|i| spec(Algorithm::Scan, &[0], 10 + i))
            .collect();
        for q in &specs {
            prime(&mut c, &s, q);
        }
        // Touch all but specs[1], then insert one more.
        assert!(matches!(
            c.lookup(&specs[0], s.generation()),
            Lookup::Fresh(_)
        ));
        assert!(matches!(
            c.lookup(&specs[2], s.generation()),
            Lookup::Fresh(_)
        ));
        // Age out the referenced bits set by insertion: one pressure pass
        // clears them, a second pass picks the never-rehit victim.
        let newcomer = spec(Algorithm::Scan, &[1], 99);
        prime(&mut c, &s, &newcomer);
        assert!(c.stats().entries <= 3);
        // specs[1] (never re-hit) must be the entry that disappeared.
        assert!(matches!(c.lookup(&specs[1], s.generation()), Lookup::Miss));
        assert!(matches!(
            c.lookup(&specs[0], s.generation()),
            Lookup::Fresh(_)
        ));
    }

    #[test]
    fn stale_lookup_claims_refresh_exactly_once() {
        let mut s = store(4);
        let q = spec(Algorithm::GreedySc, &[0], 15);
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        s.append(row(50, 100, &[5])).unwrap(); // footprint miss
        s.append(row(51, 110, &[0])).unwrap(); // footprint hit
                                               // Simulate a caller that applies deltas but drops the refresh
                                               // list (e.g. a full queue): the first stale lookup re-claims it.
        let _ = c.apply_delta(&[row(50, 100, &[5]), row(51, 110, &[0])], s.generation());
        c.refresh_not_queued(&q);
        let Lookup::Stale {
            enqueue_refresh, ..
        } = c.lookup(&q, s.generation())
        else {
            panic!("expected stale");
        };
        assert!(enqueue_refresh);
        let Lookup::Stale {
            enqueue_refresh, ..
        } = c.lookup(&q, s.generation())
        else {
            panic!("expected stale");
        };
        assert!(!enqueue_refresh, "second lookup must not double-queue");
    }

    #[test]
    fn install_refreshed_reports_continued_staleness() {
        let mut s = store(4);
        let q = spec(Algorithm::GreedySc, &[0], 15);
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        let r1 = row(10, 100, &[0]);
        s.append(r1.clone()).unwrap();
        let _ = c.apply_delta(std::slice::from_ref(&r1), s.generation());
        let refresh_gen = s.generation();
        let refreshed = run_query(&s, &q).unwrap();
        // The store moves again before the refresh lands.
        let r2 = row(11, 110, &[0]);
        s.append(r2.clone()).unwrap();
        let _ = c.apply_delta(std::slice::from_ref(&r2), s.generation());
        assert!(c.install_refreshed(&q, refreshed.clone(), refresh_gen, None));
        match c.lookup(&q, s.generation()) {
            Lookup::Stale {
                generation,
                records,
                ..
            } => {
                assert_eq!(generation, refresh_gen);
                assert_eq!(records, refreshed);
            }
            other => panic!("expected stale at the refresh watermark, got {other:?}"),
        }
    }

    /// The cover an entry holds, parsed back.
    fn held(c: &CoverCache, q: &QuerySpec) -> Vec<Record> {
        c.map[q].rows.to_records().unwrap()
    }

    /// After a delta, a clean entry must hold exactly the cold answer at
    /// the store's generation, as the bytes a fresh render gives, and,
    /// when it repairs, a fold that kept exactly the cover's open tail.
    /// Returns whether the entry was clean.
    fn assert_exact(c: &CoverCache, s: &Store, q: &QuerySpec, what: &str) -> bool {
        let entry = &c.map[q];
        if entry.dirty {
            return false;
        }
        assert_eq!(entry.generation, s.generation(), "{what}: watermark");
        let records = held(c, q);
        assert_eq!(records, run_query(s, q).unwrap(), "{what}: cold solve");
        assert_eq!(
            *entry.rows,
            TsvRows::from_records(&records),
            "{what}: patched rows are the rendering"
        );
        if let Some(rep) = &entry.repair {
            // A cold fold of the slice, released, holds the cover rows at
            // or after its oldest open pick (`mqd-stream` pins that); the
            // entry's fold must hold the same, and they end the cover.
            let mut cold = repair_state(&s.slice(&q.labels, q.from, q.to), q).unwrap();
            cold.release_frozen();
            assert_eq!(rep.cover(), cold.cover(), "{what}: retained picks");
            assert!(records.ends_with(&rep.cover()), "{what}: fold");
        }
        true
    }

    /// Appends `batch` and seals it into the cache; dirtied entries are
    /// re-solved the way the refresher would.
    fn ingest(c: &mut CoverCache, s: &mut Store, batch: &[Record]) {
        for r in batch {
            s.append(r.clone()).unwrap();
        }
        for q in c.apply_delta(batch, s.generation()) {
            let slice = s.slice(&q.labels, q.from, q.to);
            let records = solve_slice(&slice, &q).unwrap();
            assert!(!c.install_refreshed(&q, records, s.generation(), repair_state(&slice, &q)));
        }
    }

    #[test]
    fn tail_patch_keeps_a_post_frozen_in_one_lane_and_open_in_another() {
        let mut s = Store::new();
        let q = spec(Algorithm::Scan, &[0, 1], 10);
        let mut c = CoverCache::new();
        ingest(&mut c, &mut s, &[row(1, 0, &[0]), row(2, 5, &[0, 1])]);
        prime(&mut c, &s, &q);
        // Lane 0 freezes post 2 here; lane 1 still holds it open.
        ingest(&mut c, &mut s, &[row(3, 11, &[0])]);
        assert!(assert_exact(&c, &s, &q, "frozen and open"));
        assert_eq!(held(&c, &q), vec![row(2, 5, &[0, 1])]);
        // Lane 1 freezes it too and opens a group of its own.
        ingest(&mut c, &mut s, &[row(4, 30, &[1]), row(5, 31, &[0, 1])]);
        assert!(assert_exact(&c, &s, &q, "frozen twice"));
        assert_eq!(c.stats().repairs, 2);
    }

    #[test]
    fn tail_patch_reaches_below_the_open_picks_when_a_tied_row_sorts_lower() {
        let mut s = Store::new();
        let q = spec(Algorithm::Scan, &[0, 1], 10);
        let mut c = CoverCache::new();
        ingest(&mut c, &mut s, &[row(1, 0, &[0]), row(9, 100, &[0])]);
        prime(&mut c, &s, &q);
        // Same value as the only open pick (100, 9), smaller id, other
        // lane: the new cover row goes in *before* it.
        ingest(&mut c, &mut s, &[row(3, 100, &[1])]);
        assert!(assert_exact(&c, &s, &q, "tied, lower id"));
        let ids: Vec<u64> = held(&c, &q).iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 3, 9]);
    }

    #[test]
    fn tail_patch_survives_a_quiet_lane_that_returns_tied_with_a_lower_id() {
        let mut s = Store::new();
        let q = spec(Algorithm::Scan, &[0, 1], 15);
        let mut c = CoverCache::new();
        ingest(&mut c, &mut s, &[row(5_000, 0, &[1]), row(1_000, 10, &[0])]);
        prime(&mut c, &s, &q);
        // Label 1 goes quiet with its group open: the fold has to keep
        // every pick label 0 freezes meanwhile.
        for i in 1..200u64 {
            ingest(&mut c, &mut s, &[row(1_000 + i, 10 * (i as i64 + 1), &[0])]);
            assert!(assert_exact(&c, &s, &q, &format!("quiet, row {i}")));
        }
        let pinned = c.map[&q].repair.as_ref().unwrap().len();
        assert!(
            pinned > 60,
            "the quiet lane pins the picks after it: {pinned}"
        );
        // It returns at label 0's last value with a lower id, then once
        // more in a batch that also carries label 0.
        ingest(&mut c, &mut s, &[row(7, 2_000, &[1])]);
        assert!(assert_exact(&c, &s, &q, "returned, tied, lower id"));
        ingest(
            &mut c,
            &mut s,
            &[row(8, 2_000, &[0, 1]), row(3, 2_040, &[1])],
        );
        assert!(assert_exact(&c, &s, &q, "returned again"));
        assert!(c.map[&q].repair.as_ref().unwrap().len() <= 3);
        assert_eq!(c.stats().repairs, 201);
    }

    /// What a server would put on the wire for `q` at the store's state.
    fn cold_bytes(s: &Store, q: &QuerySpec) -> Vec<u8> {
        TsvRows::from_records(&run_query(s, q).unwrap())
            .as_bytes()
            .to_vec()
    }

    #[test]
    fn shared_reader_keeps_its_generation_while_a_repair_lands() {
        let mut s = store(6);
        let q = spec(Algorithm::Scan, &[0, 1], 15);
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        let (gen_before, bytes_before) = (s.generation(), cold_bytes(&s, &q));
        let Lookup::Fresh(reader) = c.lookup_shared(&q, gen_before) else {
            panic!("expected a fresh hit");
        };
        assert!(Arc::ptr_eq(&reader, &c.map[&q].rows), "a hit is no copy");
        // An in-footprint row lands while the reader is still writing.
        ingest(&mut c, &mut s, &[row(6, 60, &[0]), row(7, 70, &[1])]);
        assert_eq!(reader.as_bytes(), bytes_before, "generation {gen_before}");
        let Lookup::Fresh(next) = c.lookup_shared(&q, s.generation()) else {
            panic!("expected a fresh (repaired) hit");
        };
        assert_eq!(next.as_bytes(), cold_bytes(&s, &q));
        assert_ne!(next.as_bytes(), bytes_before, "the delta changed the cover");
        drop((reader, next));
        assert_eq!(Arc::strong_count(&c.map[&q].rows), 1, "no copy leaked");
        // With no reader the next repair patches the rows where they are.
        let at = Arc::as_ptr(&c.map[&q].rows);
        ingest(&mut c, &mut s, &[row(8, 80, &[0])]);
        assert_eq!(Arc::as_ptr(&c.map[&q].rows), at);
        assert!(assert_exact(&c, &s, &q, "patched in place"));
    }

    #[test]
    fn shared_insert_fresh_returns_the_rows_it_cached() {
        let s = store(8);
        let q = spec(Algorithm::ScanPlus, &[0, 1], 15);
        let mut c = CoverCache::new();
        let served = c.insert_fresh(&q, run_query(&s, &q).unwrap(), s.generation(), None);
        assert_eq!(served.as_bytes(), cold_bytes(&s, &q));
        assert_eq!(served.len(), run_query(&s, &q).unwrap().len());
        let Lookup::Fresh(hit) = c.lookup_shared(&q, s.generation()) else {
            panic!("expected a fresh hit");
        };
        assert!(Arc::ptr_eq(&served, &hit));
        // The decoding face reads the same entry.
        let Lookup::Fresh(records) = c.lookup(&q, s.generation()) else {
            panic!("expected a fresh hit");
        };
        assert_eq!(records, run_query(&s, &q).unwrap());
    }

    #[test]
    fn shared_stale_and_refreshed_lookups_return_their_watermarks_bytes() {
        let mut s = store(6);
        let q = spec(Algorithm::GreedySc, &[0, 1], 15);
        let mut c = CoverCache::new();
        prime(&mut c, &s, &q);
        let (watermark, stale_bytes) = (s.generation(), cold_bytes(&s, &q));
        let r = row(100, 100, &[0]);
        s.append(r.clone()).unwrap();
        c.apply_delta(std::slice::from_ref(&r), s.generation());
        let Lookup::Stale {
            records,
            generation,
            ..
        } = c.lookup_shared(&q, s.generation())
        else {
            panic!("expected a stale hit");
        };
        assert_eq!(
            (records.as_bytes(), generation),
            (&stale_bytes[..], watermark)
        );
        // The refresh lands while that response is still being written.
        let renewed = run_query(&s, &q).unwrap();
        assert!(!c.install_refreshed(&q, renewed, s.generation(), None));
        assert_eq!(records.as_bytes(), stale_bytes);
        let Lookup::Fresh(fresh) = c.lookup_shared(&q, s.generation()) else {
            panic!("expected a fresh hit after refresh");
        };
        assert_eq!(fresh.as_bytes(), cold_bytes(&s, &q));
        assert_ne!(fresh.as_bytes(), stale_bytes);
    }

    #[test]
    fn shared_insert_fresh_behind_sealed_deltas_is_stale_and_drops_its_repair_state() {
        let mut s = store(6);
        let q = spec(Algorithm::Scan, &[0, 1], 15);
        let mut c = CoverCache::new();
        // Solved at generation 6 ...
        let slice = s.slice(&q.labels, q.from, q.to);
        let (solved_at, records) = (s.generation(), solve_slice(&slice, &q).unwrap());
        let repair = repair_state(&slice, &q);
        assert!(repair.is_some());
        let bytes = cold_bytes(&s, &q);
        // ... but a delta is sealed before the insert: the repair state
        // never saw that row.
        let r = row(6, 60, &[0]);
        s.append(r.clone()).unwrap();
        c.apply_delta(std::slice::from_ref(&r), s.generation());
        let served = c.insert_fresh(&q, records, solved_at, repair);
        assert_eq!(served.as_bytes(), bytes);
        assert!(c.map[&q].dirty && c.map[&q].repair.is_none());
        match c.lookup_shared(&q, s.generation()) {
            Lookup::Stale {
                records,
                generation,
                ..
            } => assert_eq!((records.as_bytes(), generation), (&bytes[..], solved_at)),
            other => panic!("expected stale at the solve's watermark, got {other:?}"),
        }
    }

    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n
        }
    }

    #[test]
    fn tail_patch_differential_against_the_fold_and_a_cold_solve() {
        for seed in 0..12u64 {
            let mut rng = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1);
            let mut value = 0i64;
            let mut made = 0u64;
            // Two steps in three are zero (runs of tied values); ids are
            // unique but unrelated to arrival order; one row in five comes
            // with its labels unsorted and repeated.
            let mut batch = |rng: &mut Lcg, n: u64| -> Vec<Record> {
                (0..n)
                    .map(|_| {
                        value += [0, 0, 1 + rng.below(12) as i64][rng.below(3) as usize];
                        made += 1;
                        let mut labels: Vec<u16> =
                            (0..1 + rng.below(3)).map(|_| rng.below(8) as u16).collect();
                        if rng.below(5) == 0 {
                            labels.push(labels[0]);
                            labels.reverse();
                        }
                        row((made * 7919) % 100_003, value, &labels)
                    })
                    .collect()
            };
            let mut s = Store::with_segment_target(64);
            let mut c = CoverCache::new();
            if seed % 3 == 0 {
                c.set_debt_bound(25); // forces the re-solve fallback often
            }
            ingest(&mut c, &mut s, &batch(&mut rng, 120));
            let lambda = [0, 2, 9, 40][seed as usize % 4];
            let mut ranged = spec(Algorithm::Scan, &[2, 4, 6], lambda);
            (ranged.from, ranged.to) = (30, 400);
            let specs = [
                spec(Algorithm::Scan, &[0, 1, 2, 3], lambda),
                spec(Algorithm::Scan, &[1, 7], 3 * lambda + 1),
                spec(Algorithm::Scan, &[0, 1, 2, 3, 4, 5, 6, 7], lambda / 2),
                ranged,
                spec(Algorithm::GreedySc, &[0, 5], lambda),
            ];
            for q in &specs {
                prime(&mut c, &s, q);
            }
            let mut clean = 0u32;
            for round in 0..80 {
                let n = 1 + rng.below(16);
                let rows = batch(&mut rng, n);
                ingest(&mut c, &mut s, &rows);
                for (i, q) in specs.iter().enumerate() {
                    let what = format!("seed {seed} round {round} spec {i}");
                    clean += assert_exact(&c, &s, q, &what) as u32;
                }
            }
            assert_eq!(
                clean,
                80 * specs.len() as u32,
                "seed {seed}: every entry ends each round exact"
            );
            let st = c.stats();
            assert!(st.repairs > 100, "seed {seed}: {st:?}");
            assert!(st.invalidations > 0, "seed {seed}: {st:?}");
            assert_eq!(st.refreshes > 80, seed % 3 == 0, "seed {seed}: {st:?}");
        }
    }
}
