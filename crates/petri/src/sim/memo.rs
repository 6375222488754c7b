//! The lowered engine's step memo: the tangible markings runs have
//! visited, and a record of each step they interpreted twice.
//!
//! A *state* is a tangible marking (no immediate enabled), keyed by
//! [`Marking::memo_key`]: counts plus every bag in FIFO order. A *step*
//! is one timed firing from a state plus its immediate cascade, which ends
//! in the next state. Everything a step does to the marking and the
//! enabling state depends only on the source state and the fired
//! transition, so [`super::lowered`] records it once and replays it. The
//! record is the lazily built tangible-state graph of vanishing-marking
//! elimination: a property of the net's structure, not of one run, and not
//! of its timing parameters.
//!
//! So a record belongs to a program *shape* (`LoweredNet::shape`: every
//! program word but the re-checks' rates, delays and uniform bounds). A
//! [`Record`] remembers the shape it was recorded under and lives in flat
//! arenas indexed by `u32`:
//!
//! * **States.** Each state's key in a key arena, and a std map from a
//!   key's hash to its state id. A first visit stores the key and nothing
//!   else. A newcomer whose hash collides with another key's stays out of
//!   the map, so each of its visits makes a new state: slower, never
//!   wrong.
//! * **Per state**, filled in only once a step out of the state is
//!   recorded: a snapshot of the enabling state (`cond_true`, `unsat`,
//!   `sched_state`), the ascending list of the timed transitions scheduled
//!   there (the replay loop's next-event scan reads only these clocks),
//!   the reward terms `(accumulator, multiplier)` with zero terms dropped,
//!   and a row of `nt` edge slots indexed by tid.
//! * **Edges.** One [`Edge`] per `(state, fired transition)`: the next
//!   state, and its lists in one word arena — the fired tids in order
//!   (the trigger first), the counter-hook accumulators, and two words per
//!   re-check that acted: its resolved kind and its record's op offset. A
//!   replay reads the rate or delay at that offset from its own program.
//!
//! A simulator's runs share records through its [`MemoRecords`], one
//! record per shape; simulators handed one `MemoRecords`
//! (`Simulator::share_memo`) share them too, so the points of a sweep that
//! differ only in delays and rates replay one record. A run's [`Memo`]
//! starts from the record of its own program's shape
//! ([`MemoRecords::get`], an `Arc` clone), or from an empty one, so a
//! record is never replayed by a program of another shape. It copies the
//! record only when it has something to add; a run that only replays never
//! copies. A run that finishes without giving the memo up offers its copy
//! back ([`MemoRecords::offer`]), and the copy replaces its shape's record
//! if it has grown more. Everything else is the run's own: each edge's
//! replay hit count ([`Memo::drain_hits`] adds `hits × list` to the run's
//! firing and hook counts when the memo phase ends, or at the warm-up
//! boundary), the step and miss counters, [`MemoStats`] and the give-up
//! decision. Records hold only work the marking determines, so replaying
//! another run's record is the replay this run would have recorded
//! itself, and no output depends on which run recorded what.
//!
//! A miss costs a key and a lookup on top of the interpreter's step, so a
//! run whose states do not repeat is cheaper without the memo. At step
//! counts 64, 128, 256, … the run gives the memo up when almost every step
//! so far found a state new to the record (more than 7/8 of them). A net
//! without immediate transitions, whose replays each save one firing's
//! interpretation only, also gives it up when more than half its steps so
//! far were interpreted: a short tandem line revisits its states but
//! rarely the same step out of them, and keeping the memo there doubles
//! the run's cost. Both rules count the run's own new states and misses,
//! so a run that inherits a large record is judged on what it adds. A
//! record past [`MAX_WORDS`] words of keys, edge rows, records and
//! snapshots gives up regardless. A run that gives up offers nothing
//! back.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use super::lower::ST_SCHEDULED;
use crate::marking::Marking;

/// "Not yet computed" for per-state data, and an empty edge slot.
pub(super) const NONE: u32 = u32::MAX;
/// Edge slot of a step that drew the RNG for a choice: always interpreted.
pub(super) const NO_REPLAY: u32 = u32::MAX - 1;

/// The first step count at which the run judges the memo.
const FIRST_CHECK: u64 = 64;
/// Records the first snapshot or edge reserves room for, so a run's
/// early misses do not regrow the arenas from empty.
const FIRST_RESERVE: usize = 16;
/// States a record starts with room for.
const FIRST_STATES: usize = 64;
/// A memo this large (in 4-byte words, 16 MiB) gives up regardless.
const MAX_WORDS: usize = 1 << 22;
/// Shapes a [`MemoRecords`] keeps a record of; a new shape past this many
/// drops the oldest record.
const MAX_SHAPES: usize = 16;

/// Per-run statistics of the step memo, so tests can assert that the
/// paths they target ran. Counts of states and records are what the run
/// added to the record it started from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct MemoStats {
    /// Tangible markings the run added.
    pub(super) states: usize,
    /// Replayable steps the run recorded.
    pub(super) edges: usize,
    /// Steps the run recorded as drawing the RNG for a choice (never
    /// replayed).
    pub(super) rng_edges: usize,
    /// Steps replayed from a record.
    pub(super) replayed: u64,
    /// Steps interpreted while the memo was on.
    pub(super) misses: u64,
    /// Replays refused because they would cross the zero-time firing
    /// limit (the step is interpreted instead).
    pub(super) refused: u64,
    /// Replays drained at the warm-up boundary (their hooks not counted).
    pub(super) cold_replays: u64,
    /// The run gave the memo up and finished on the interpreter.
    pub(super) gave_up: bool,
}

/// Multiply-rotate hasher for state keys and the map over their hashes.
/// Every interpreted step hashes its landing marking, and a net's own
/// markings need no flood resistance: std's SipHash costs the tandem rows
/// of `engine_ab` 3–4 %.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for KeyHasher {
    /// A product's high bits depend on every input bit, its low bits only
    /// on the low ones; the map picks buckets by the low bits.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().unwrap()));
        }
        if !words.remainder().is_empty() {
            let mut last = [0; 8];
            last[..words.remainder().len()].copy_from_slice(words.remainder());
            self.add(u64::from_le_bytes(last));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

fn key_hash(key: &[u32]) -> u64 {
    let mut h = KeyHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// One state's record.
#[derive(Debug, Clone, Copy)]
struct State {
    /// The key is `keys[key..key + key_len]`.
    key: u32,
    key_len: u32,
    /// Snapshot index, or [`NONE`].
    snap: u32,
    /// The reward terms are `terms[term..term + n_terms]`; [`NONE`] until
    /// computed.
    term: u32,
    n_terms: u32,
    /// Start of the state's row in `edge_of`, or [`NONE`].
    row: u32,
    /// The scheduled timed transitions are `scan[scan..scan + n_scan]`;
    /// known once the state has a snapshot.
    scan: u32,
    n_scan: u32,
    /// A step out of the state has already been interpreted.
    stepped: bool,
}

/// One recorded step.
#[derive(Debug, Clone, Copy)]
struct Edge {
    next: u32,
    /// The lists are `words[body..]`: `n_fired` tids, `n_hooks` hook
    /// accumulators, then `2 * n_rech` re-check words.
    body: u32,
    n_fired: u32,
    n_hooks: u32,
    n_rech: u32,
}

/// One recorded step as the replay loop reads it.
#[derive(Debug, PartialEq)]
pub(super) struct Step<'m> {
    pub(super) next: u32,
    /// The fired tids in order, the trigger first.
    pub(super) fired: &'m [u32],
    /// Two words per re-check that acted.
    pub(super) rech: &'m [u32],
}

/// The step record of one program shape (see the module docs).
#[derive(Clone, Debug, Default)]
pub(super) struct Record {
    /// The shape of the programs that recorded it and may replay it.
    shape: Arc<[u32]>,
    ids: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    states: Vec<State>,
    keys: Vec<u32>,
    snap_cond: Vec<bool>,
    snap_unsat: Vec<u32>,
    snap_sched: Vec<u8>,
    terms: Vec<(u32, f64)>,
    scan: Vec<u32>,
    /// Rows of `nt` slots: an index into `edges`, [`NONE`] or
    /// [`NO_REPLAY`].
    edge_of: Vec<u32>,
    edges: Vec<Edge>,
    words: Vec<u32>,
    /// Writes that built the record; of two copies, the one that grew more
    /// is kept.
    grown: u64,
}

impl Record {
    /// The record's size in 4-byte words, roughly.
    fn size_words(&self) -> usize {
        self.keys.len()
            + self.edge_of.len()
            + 10 * self.edges.len()
            + self.words.len()
            + self.scan.len()
            + 2 * self.snap_unsat.len()
            + 12 * self.states.len()
    }
}

/// Step-memo records shared by the runs of every simulator handed this
/// handle, one record per program shape (see the module docs). Clones
/// share the records. Keeps at most [`MAX_SHAPES`] of them.
#[derive(Clone, Debug, Default)]
pub struct MemoRecords(Arc<Mutex<Vec<Arc<Record>>>>);

impl MemoRecords {
    /// A handle with no records yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of shapes it holds a record of.
    pub fn shapes(&self) -> usize {
        self.slot().len()
    }

    fn slot(&self) -> MutexGuard<'_, Vec<Arc<Record>>> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The record a new run of a program of `shape` starts from (an `Arc`
    /// clone), or an empty one of that shape.
    pub(super) fn get(&self, shape: &Arc<[u32]>) -> Arc<Record> {
        let known = self.slot().iter().find(|r| r.shape == *shape).cloned();
        known.unwrap_or_else(|| {
            Arc::new(Record {
                shape: shape.clone(),
                ..Record::default()
            })
        })
    }

    /// Take `memo`'s copy of its shape's record if the run wrote one, kept
    /// the memo, and grew it more than the record now shared.
    pub(super) fn offer(&self, memo: Memo) {
        if !memo.copied || memo.stats.gave_up {
            return;
        }
        let mut recs = self.slot();
        match recs.iter_mut().find(|r| r.shape == memo.rec.shape) {
            Some(r) if r.grown < memo.rec.grown => *r = memo.rec,
            Some(_) => {}
            None => {
                if recs.len() == MAX_SHAPES {
                    recs.remove(0);
                }
                recs.push(memo.rec);
            }
        }
    }
}

/// One run's view of the step memo: the record it started from (copied on
/// its first write) and everything that belongs to the run alone.
pub(super) struct Memo {
    nt: usize,
    nc: usize,
    /// Count entries of the net's markings.
    counts: usize,
    /// The net has no immediate transitions.
    single: bool,
    rec: Arc<Record>,
    /// The run has written to its own copy of the record.
    copied: bool,
    /// Replays of each edge since the last [`Memo::drain_hits`], indexed
    /// by edge (grown on demand).
    hits: Vec<u64>,
    scratch: Vec<u32>,
    steps: u64,
    /// The step count of the next judgement.
    next_check: u64,
    stats: MemoStats,
}

impl Memo {
    /// A run's memo starting from `rec`, for a net of `nt` transitions and
    /// `nc` enabling conditions whose markings have `counts` count entries.
    pub(super) fn new(rec: Arc<Record>, nt: usize, nc: usize, counts: usize, single: bool) -> Self {
        Memo {
            nt,
            nc,
            counts,
            single,
            rec,
            copied: false,
            hits: Vec::new(),
            scratch: Vec::new(),
            steps: 0,
            next_check: FIRST_CHECK,
            stats: MemoStats::default(),
        }
    }

    /// The run's statistics so far.
    pub(super) fn stats(&self) -> MemoStats {
        self.stats
    }

    /// The record for writing: the run's own copy, made on its first write
    /// (an empty record starts with room for [`FIRST_STATES`] states).
    fn rec_mut(&mut self) -> &mut Record {
        let rec = Arc::make_mut(&mut self.rec);
        if !self.copied {
            self.copied = true;
            if rec.states.is_empty() {
                rec.ids.reserve(FIRST_STATES);
                rec.states.reserve(FIRST_STATES);
                rec.keys.reserve(FIRST_STATES * self.counts);
                rec.terms.reserve(FIRST_STATES);
            }
        }
        rec.grown += 1;
        rec
    }

    /// The state id of `marking`, inserting it on a first visit; the flag
    /// says whether it is new.
    pub(super) fn land(&mut self, marking: &Marking) -> (u32, bool) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let key = match marking.plain_memo_key() {
            Some(counts) => counts,
            None => {
                marking.memo_key(&mut scratch);
                &scratch[..]
            }
        };
        let landed = self.find_or_insert(key);
        self.scratch = scratch;
        landed
    }

    fn find_or_insert(&mut self, key: &[u32]) -> (u32, bool) {
        let h = key_hash(key);
        let s = self.rec.states.len() as u32;
        let known = match self.rec.ids.get(&h) {
            Some(&t) if self.key(t) == key => return (t, false),
            Some(_) => true,
            None => false,
        };
        let rec = self.rec_mut();
        if !known {
            rec.ids.insert(h, s);
        }
        rec.states.push(State {
            key: rec.keys.len() as u32,
            key_len: key.len() as u32,
            snap: NONE,
            term: NONE,
            n_terms: 0,
            row: NONE,
            scan: NONE,
            n_scan: 0,
            stepped: false,
        });
        rec.keys.extend_from_slice(key);
        self.stats.states += 1;
        (s, true)
    }

    /// State `s`'s key.
    #[inline]
    pub(super) fn key(&self, s: u32) -> &[u32] {
        let st = &self.rec.states[s as usize];
        &self.rec.keys[st.key as usize..(st.key + st.key_len) as usize]
    }

    /// Note one step out of `s`, returning whether an earlier one was
    /// interpreted (only a state's second interpreted step is recorded, so
    /// a first visit costs no more than its key).
    pub(super) fn step_out(&mut self, s: u32) -> bool {
        self.rec.states[s as usize].stepped || {
            self.rec_mut().states[s as usize].stepped = true;
            false
        }
    }

    /// Store the live enabling state as `s`'s snapshot, unless it has one,
    /// with the ascending list of the `timed` transitions scheduled there.
    pub(super) fn snapshot(
        &mut self,
        s: u32,
        cond: &[bool],
        unsat: &[u32],
        sched: &[u8],
        timed: &[u32],
    ) {
        if self.rec.states[s as usize].snap != NONE {
            return;
        }
        let (nt, nc) = (self.nt, self.nc);
        let rec = self.rec_mut();
        if rec.snap_sched.capacity() == 0 {
            rec.snap_cond.reserve(FIRST_RESERVE * nc);
            rec.snap_unsat.reserve(FIRST_RESERVE * nt);
            rec.snap_sched.reserve(FIRST_RESERVE * nt);
        }
        let st = &mut rec.states[s as usize];
        st.snap = (rec.snap_sched.len() / nt.max(1)) as u32;
        rec.snap_cond.extend_from_slice(cond);
        rec.snap_unsat.extend_from_slice(unsat);
        rec.snap_sched.extend_from_slice(sched);
        st.scan = rec.scan.len() as u32;
        let live = timed
            .iter()
            .filter(|&&t| sched[t as usize] & ST_SCHEDULED != 0);
        rec.scan.extend(live);
        st.n_scan = rec.scan.len() as u32 - st.scan;
    }

    /// The timed transitions scheduled at `s`, ascending, if `s` has a
    /// snapshot.
    #[inline]
    pub(super) fn scan_list(&self, s: u32) -> Option<&[u32]> {
        let st = &self.rec.states[s as usize];
        (st.scan != NONE).then(|| &self.rec.scan[st.scan as usize..(st.scan + st.n_scan) as usize])
    }

    /// State `s`'s snapshot: `cond_true`, `unsat`, `sched_state`.
    pub(super) fn snapshot_of(&self, s: u32) -> Option<(&[bool], &[u32], &[u8])> {
        let k = self.rec.states[s as usize].snap;
        (k != NONE).then(|| {
            let (c, t) = (k as usize * self.nc, k as usize * self.nt);
            (
                &self.rec.snap_cond[c..c + self.nc],
                &self.rec.snap_unsat[t..t + self.nt],
                &self.rec.snap_sched[t..t + self.nt],
            )
        })
    }

    /// Compute `s`'s reward terms with `fill` (which appends them), unless
    /// they are known.
    pub(super) fn ensure_terms(&mut self, s: u32, fill: impl FnOnce(&mut Vec<(u32, f64)>)) {
        if self.rec.states[s as usize].term == NONE {
            let rec = self.rec_mut();
            let off = rec.terms.len();
            fill(&mut rec.terms);
            let st = &mut rec.states[s as usize];
            st.term = off as u32;
            st.n_terms = (rec.terms.len() - off) as u32;
        }
    }

    /// State `s`'s reward terms (known for every state a recorded step
    /// leaves).
    #[inline]
    pub(super) fn terms(&self, s: u32) -> &[(u32, f64)] {
        let st = &self.rec.states[s as usize];
        debug_assert_ne!(st.term, NONE, "reward terms of a replayed step's source");
        &self.rec.terms[st.term as usize..(st.term + st.n_terms) as usize]
    }

    /// The edge slot of `(s, ti)`: an edge index, [`NONE`] or
    /// [`NO_REPLAY`].
    #[inline]
    pub(super) fn edge(&self, s: u32, ti: usize) -> u32 {
        match self.rec.states[s as usize].row {
            NONE => NONE,
            row => self.rec.edge_of[row as usize + ti],
        }
    }

    /// Edge `e`'s next state, fired tids and re-check words.
    #[inline]
    pub(super) fn step(&self, e: u32) -> Step<'_> {
        let ed = &self.rec.edges[e as usize];
        let (b, nf, nh) = (ed.body as usize, ed.n_fired as usize, ed.n_hooks as usize);
        Step {
            next: ed.next,
            fired: &self.rec.words[b..b + nf],
            rech: &self.rec.words[b + nf + nh..b + nf + nh + 2 * ed.n_rech as usize],
        }
    }

    /// Count one replay of edge `e`.
    #[inline(always)]
    pub(super) fn hit(&mut self, e: u32) {
        match self.hits.get_mut(e as usize) {
            Some(h) => *h += 1,
            None => self.first_hit(e),
        }
        self.stats.replayed += 1;
    }

    /// Count the first replay of an edge past the end of the hit counts.
    #[cold]
    fn first_hit(&mut self, e: u32) {
        self.hits.resize(self.rec.edges.len(), 0);
        self.hits[e as usize] = 1;
    }

    /// Hand every replayed edge's hit count, fired tids and hook
    /// accumulators to `add`, and zero the counts. `warm` says whether the
    /// drained replays ran past the warm-up boundary (else they are
    /// counted as cold).
    pub(super) fn drain_hits(&mut self, warm: bool, mut add: impl FnMut(u64, &[u32], &[u32])) {
        for (ed, hits) in self.rec.edges.iter().zip(&mut self.hits) {
            if *hits == 0 {
                continue;
            }
            let (b, nf, nh) = (ed.body as usize, ed.n_fired as usize, ed.n_hooks as usize);
            add(
                *hits,
                &self.rec.words[b..b + nf],
                &self.rec.words[b + nf..b + nf + nh],
            );
            if !warm {
                self.stats.cold_replays += *hits;
            }
            *hits = 0;
        }
    }

    fn slot_mut(&mut self, s: u32, ti: usize) -> &mut u32 {
        let nt = self.nt;
        let rec = self.rec_mut();
        let st = &mut rec.states[s as usize];
        if st.row == NONE {
            if rec.edge_of.capacity() == 0 {
                rec.edge_of.reserve(FIRST_RESERVE * nt);
                rec.edges.reserve(FIRST_RESERVE);
                rec.words.reserve(FIRST_RESERVE * 8);
            }
            st.row = rec.edge_of.len() as u32;
            rec.edge_of.resize(rec.edge_of.len() + nt, NONE);
        }
        &mut rec.edge_of[st.row as usize + ti]
    }

    /// Record the step `(s, ti)` ending in `next`.
    pub(super) fn add_edge(
        &mut self,
        s: u32,
        ti: usize,
        next: u32,
        fired: &[u32],
        hooks: &[u32],
        rech: &[u32],
    ) {
        let rec = self.rec_mut();
        let e = rec.edges.len() as u32;
        rec.edges.push(Edge {
            next,
            body: rec.words.len() as u32,
            n_fired: fired.len() as u32,
            n_hooks: hooks.len() as u32,
            n_rech: (rech.len() / 2) as u32,
        });
        rec.words.extend_from_slice(fired);
        rec.words.extend_from_slice(hooks);
        rec.words.extend_from_slice(rech);
        *self.slot_mut(s, ti) = e;
        self.stats.edges += 1;
    }

    /// Mark the step `(s, ti)` as drawing the RNG for a choice.
    pub(super) fn add_no_replay(&mut self, s: u32, ti: usize) {
        *self.slot_mut(s, ti) = NO_REPLAY;
        self.stats.rng_edges += 1;
    }

    /// Count one step (replayed or interpreted).
    #[inline(always)]
    pub(super) fn count_step(&mut self) {
        self.steps += 1;
    }

    pub(super) fn count_refused(&mut self) {
        self.stats.refused += 1;
    }

    /// Count one interpreted step and decide whether the run gives the
    /// memo up (judged at the first miss past each checkpoint, on the
    /// states and misses the run added itself).
    pub(super) fn count_miss(&mut self) -> bool {
        self.stats.misses += 1;
        if self.steps >= self.next_check {
            while self.next_check <= self.steps {
                self.next_check *= 2;
            }
            let (s, m, n) = (self.steps, self.stats.misses, self.stats.states as u64);
            self.stats.gave_up |= 8 * n > 7 * s || (self.single && 2 * m > s);
        }
        self.stats.gave_up |= self.rec.size_words() > MAX_WORDS;
        self.stats.gave_up
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Record {
        /// States in the record.
        pub(in crate::sim) fn state_count(&self) -> usize {
            self.states.len()
        }
    }

    impl MemoRecords {
        /// States in the shared records, over every shape.
        pub(in crate::sim) fn states(&self) -> usize {
            self.slot().iter().map(|r| r.states.len()).sum()
        }
    }
    use crate::builder::NetBuilder;
    use crate::ids::PlaceId;
    use crate::timing::Timing;
    use crate::token::Color;

    #[test]
    fn states_are_found_again_by_their_keys() {
        let mut b = NetBuilder::new("grow");
        let p = b.place("p").build();
        b.place("q").build();
        b.transition("t", Timing::exponential(1.0))
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut memo = Memo::new(Default::default(), 2, 0, 2, false);
        let mut m = net.initial_marking();
        let mut ids = Vec::new();
        for i in 0..200u32 {
            m.deposit(PlaceId::from_index((i % 2) as usize), Color::NONE);
            let (s, new) = memo.land(&m);
            assert!(new);
            assert_eq!(s, i);
            ids.push(m.clone());
        }
        for (i, m) in ids.iter().enumerate() {
            assert_eq!(memo.land(m), (i as u32, false));
        }
        assert_eq!(memo.stats().states, 200);
    }

    #[test]
    fn a_key_whose_hash_collides_is_a_new_state_on_every_visit() {
        let mut b = NetBuilder::new("c");
        let p = b.place("p").build();
        b.transition("t", Timing::exponential(1.0))
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut memo = Memo::new(Default::default(), 1, 0, 1, false);
        let a = net.initial_marking();
        let mut other = a.clone();
        other.deposit(p, Color::NONE);
        assert_eq!(memo.land(&a), (0, true));
        // Make `other`'s hash name state 0, as a collision would.
        Arc::make_mut(&mut memo.rec).ids.insert(key_hash(&[1]), 0);
        assert_eq!(memo.land(&other), (1, true));
        assert_eq!(memo.land(&other), (2, true));
        assert_eq!(memo.key(2), [1]);
        assert_eq!(memo.land(&a), (0, false));
    }

    #[test]
    fn edges_round_trip_through_the_arena() {
        let mut memo = Memo::new(Default::default(), 3, 1, 1, false);
        let mut b = NetBuilder::new("e");
        let p = b.place("p").build();
        b.transition("t", Timing::exponential(1.0))
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let (s, _) = memo.land(&net.initial_marking());
        assert_eq!(memo.edge(s, 1), NONE);
        assert_eq!(memo.scan_list(s), None);
        memo.add_edge(s, 1, 7, &[1, 0], &[4], &[30, 3, 35, 1]);
        memo.add_edge(s, 0, 5, &[0], &[], &[]);
        memo.add_no_replay(s, 2);
        let e = memo.edge(s, 1);
        assert_eq!(
            memo.step(e),
            Step {
                next: 7,
                fired: &[1, 0],
                rech: &[30, 3, 35, 1]
            }
        );
        assert_eq!(memo.edge(s, 2), NO_REPLAY);
        assert!(!memo.step_out(s));
        assert!(memo.step_out(s));
        // Hits drain as (count, fired, hooks), then start over from zero.
        memo.hit(e);
        memo.hit(e);
        let mut drained = Vec::new();
        memo.drain_hits(false, |n, f, h| drained.push((n, f.to_vec(), h.to_vec())));
        assert_eq!(drained, [(2, vec![1, 0], vec![4])]);
        memo.hit(memo.edge(s, 0));
        drained.clear();
        memo.drain_hits(true, |n, f, h| drained.push((n, f.to_vec(), h.to_vec())));
        assert_eq!(drained, [(1, vec![0], vec![])]);
        memo.snapshot(s, &[true], &[0, 1, 0], &[1, 2, 3], &[0, 1, 2]);
        memo.snapshot(s, &[false], &[9, 9, 9], &[0, 0, 0], &[0, 1, 2]);
        assert_eq!(
            memo.snapshot_of(s),
            Some((&[true][..], &[0, 1, 0][..], &[1, 2, 3][..]))
        );
        // Only the clocks with ST_SCHEDULED set are scanned.
        assert_eq!(memo.scan_list(s), Some(&[1, 2][..]));
        memo.ensure_terms(s, |t| t.push((0, 2.0)));
        memo.ensure_terms(s, |t| t.push((1, 5.0)));
        assert_eq!(memo.terms(s), [(0, 2.0)]);
        let st = memo.stats();
        assert_eq!((st.states, st.edges, st.rng_edges), (1, 2, 1));
        assert_eq!((st.replayed, st.cold_replays), (3, 2));
    }

    #[test]
    fn runs_whose_states_do_not_repeat_give_up_at_a_checkpoint() {
        let net = {
            let mut b = NetBuilder::new("m");
            let p = b.place("p").build();
            b.transition("t", Timing::exponential(1.0))
                .output(p, 1)
                .build();
            b.build().unwrap()
        };
        // Every step lands on a new state: give up at the first check.
        let mut memo = Memo::new(Default::default(), 1, 0, 1, false);
        let mut m = net.initial_marking();
        memo.land(&m);
        for i in 1..=FIRST_CHECK {
            memo.count_step();
            m.deposit(PlaceId::from_index(0), Color::NONE);
            memo.land(&m);
            assert_eq!(memo.count_miss(), i == FIRST_CHECK, "step {i}");
        }
        // A net without immediates may miss at most half its steps.
        let mut memo = Memo::new(Default::default(), 1, 0, 1, true);
        memo.land(&net.initial_marking());
        for i in 1..=FIRST_CHECK {
            memo.count_step();
            if i % 3 != 0 {
                assert_eq!(memo.count_miss(), i == FIRST_CHECK, "step {i}");
            }
        }
        // Other nets on known states keep the memo, however many steps
        // miss.
        let mut memo = Memo::new(Default::default(), 1, 0, 1, false);
        memo.land(&net.initial_marking());
        for i in 1..=8192 {
            memo.count_step();
            if i % 8 != 0 {
                assert!(!memo.count_miss(), "step {i}");
            }
        }
    }

    /// A net of one place that a generator fills: each token count is a
    /// new marking.
    fn pile() -> (crate::net::Net, PlaceId) {
        let mut b = NetBuilder::new("pile");
        let p = b.place("p").build();
        b.transition("t", Timing::exponential(1.0))
            .output(p, 1)
            .build();
        (b.build().unwrap(), p)
    }

    /// The markings with `0..n` tokens on the pile.
    fn piles(n: usize) -> Vec<Marking> {
        let (net, p) = pile();
        let mut m = net.initial_marking();
        (0..n)
            .map(|_| {
                let here = m.clone();
                m.deposit(p, Color::NONE);
                here
            })
            .collect()
    }

    /// A run that only finds known states reads the shared record and never
    /// copies it. A run that adds one copies it, and its offer replaces the
    /// shared record unless it gave the memo up or grew less.
    #[test]
    fn runs_copy_the_shared_record_on_their_first_write_only() {
        let ms = piles(5);
        let shape: Arc<[u32]> = Arc::from([1, 0, 1]);
        let shared = MemoRecords::new();
        let mut first = Memo::new(shared.get(&shape), 1, 0, 1, false);
        for m in &ms[..3] {
            first.land(m);
        }
        shared.offer(first);
        assert_eq!(shared.states(), 3);
        let rec = shared.get(&shape);
        let mut reader = Memo::new(rec.clone(), 1, 0, 1, false);
        assert_eq!(reader.land(&ms[2]), (2, false));
        assert!(Arc::ptr_eq(&reader.rec, &rec) && !reader.copied);
        let mut writer = Memo::new(rec.clone(), 1, 0, 1, false);
        assert_eq!(writer.land(&ms[3]), (3, true));
        assert!(!Arc::ptr_eq(&writer.rec, &rec) && writer.copied);
        assert_eq!((writer.stats().states, rec.states.len()), (1, 3));
        // Giving up publishes nothing.
        let mut quitter = Memo::new(shared.get(&shape), 1, 0, 1, false);
        quitter.land(&ms[4]);
        quitter.stats.gave_up = true;
        shared.offer(quitter);
        assert_eq!(shared.states(), 3);
        shared.offer(writer);
        assert_eq!(shared.states(), 4);
        // A copy of the older record that grew by as much is not taken.
        let mut stale = Memo::new(rec, 1, 0, 1, false);
        stale.land(&ms[4]);
        shared.offer(stale);
        assert_eq!(shared.states(), 4);
        assert_eq!(shared.get(&shape).states.len(), 4);
        // Clones share the records. A program of another shape starts
        // from an empty record, and its record is kept beside the first.
        let clone = shared.clone();
        let other: Arc<[u32]> = Arc::from([1, 0, 2]);
        let mut stranger = Memo::new(clone.get(&other), 1, 0, 1, false);
        assert_eq!(stranger.land(&ms[0]), (0, true));
        clone.offer(stranger);
        let lens = |s: &Arc<[u32]>| shared.get(s).states.len();
        assert_eq!((shared.shapes(), lens(&shape), lens(&other)), (2, 4, 1));
        // Past MAX_SHAPES shapes, the oldest record is dropped.
        for k in 0..MAX_SHAPES as u32 - 1 {
            let mut m = Memo::new(shared.get(&Arc::from([k + 9])), 1, 0, 1, false);
            m.land(&ms[0]);
            shared.offer(m);
        }
        assert_eq!(
            (shared.shapes(), lens(&shape), lens(&other)),
            (MAX_SHAPES, 0, 1)
        );
    }

    /// The give-up rule counts the states the run added: a run that
    /// inherits a record larger than its first checks and lands on known
    /// states keeps the memo, however many of its steps miss.
    #[test]
    fn an_inherited_record_does_not_count_against_the_run() {
        let ms = piles(200);
        let shared = MemoRecords::new();
        let mut first = Memo::new(shared.get(&Arc::default()), 1, 0, 1, false);
        for m in &ms {
            first.land(m);
        }
        shared.offer(first);
        let mut warm = Memo::new(shared.get(&Arc::default()), 1, 0, 1, false);
        for i in 1..=4 * FIRST_CHECK {
            warm.count_step();
            assert!(!warm.land(&ms[i as usize % 200]).1);
            assert!(!warm.count_miss(), "step {i}");
        }
        assert_eq!(warm.stats().states, 0);
    }
}
