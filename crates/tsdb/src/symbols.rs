//! String interning for series keys, with reference-counted lifecycle.
//!
//! Every metric name, label key and label value stored by the database is
//! interned exactly once.  A series key then becomes a small
//! `(SymbolId, [(SymbolId, SymbolId)])` tuple instead of an owned
//! `(String, Labels)` pair, so key comparisons are integer comparisons and a
//! ten-thousand-series database with three label keys shared by every series
//! stores each key string once, not ten thousand times.
//!
//! Interned strings are handed out as `Arc<str>` so read paths (snapshots,
//! query results) can share them without copying.
//!
//! # Lifecycle
//!
//! Unlike the original append-only interner, the table reference-counts every
//! binding: series creation [`SymbolTable::acquire`]s each symbol its key
//! uses, and `drop_series`/retention eviction [`SymbolTable::release`]s them.
//! A binding whose refcount reaches zero is not freed immediately — it joins
//! a cooling queue and becomes reclaimable only after **two** durable WAL
//! commits have passed ([`SymbolTable::commit_durable`]).  That cooling window
//! guarantees the log record that performed the release is itself
//! durable before the slot can be freed, so replay can never observe a reused
//! id without also observing the drop that made the reuse legal.
//!
//! [`SymbolTable::sweep`] (called at the symbol table's WAL checkpoint, so
//! its snapshot is always self-consistent) frees matured zero-ref slots: the
//! string is dropped, the slot joins a free list and the slot's generation is
//! bumped (mirroring the `SeriesHandle` generation discipline).
//! The generation check means a stale cooling-queue entry — or any other
//! holder of a pre-free id — can never free or resolve a slot that has since
//! been rebound to a different string.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Estimated heap overhead per interned string beyond its byte length: the
/// `Arc` header, the two map/slot pointers that share it, and the hash-map
/// entry.  Used for incremental `symbol_bytes` accounting; an estimate in the
/// same spirit as `StorageStats::resident_bytes`.
const SLOT_OVERHEAD_BYTES: u64 = 64;

/// First character of the placeholder strings WAL replay binds to symbol
/// ids whose real binding was legitimately swept before the crash (see
/// `bind_hole` in the storage layer).  A control character keeps the
/// namespace disjoint from every legal metric and label string, which is
/// what lets [`SymbolTable::finish_recovery`] purge leftovers by prefix.
pub(crate) const REPLAY_HOLE_MARKER: char = '\u{1}';

/// Commits a zero-ref binding must cool for before it may be swept.  Two
/// boundaries, not one: a release staged under the shard lock can race an
/// in-flight flush whose shard drain already passed, landing the releasing
/// record in the *next* flush — the second boundary covers that flush.
const COOLING_COMMITS: u64 = 2;

/// Identifier of one interned string inside a [`SymbolTable`].
///
/// Two *live* symbols compare equal if and only if the strings they intern
/// are equal, so label matching on the query path degenerates to `u32`
/// comparisons.  (A freed-and-reused id names a different string, but the
/// refcount lifecycle guarantees no live holder survives a free.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct SymbolId(u32);

impl SymbolId {
    /// The raw table index, for WAL serialisation.
    pub(crate) fn as_u32(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its WAL-serialised index.  The caller validates it
    /// against the table (see [`SymbolTable::resolve`]) before use.
    pub(crate) fn from_u32(raw: u32) -> Self {
        Self(raw)
    }
}

/// One interner slot.  `string == None` means the slot is free (listed in
/// `SymbolTable::free`); `generation` counts how many times the slot has been
/// rebound, so stale references to a previous occupant can be detected.
#[derive(Debug, Default)]
struct Slot {
    string: Option<Arc<str>>,
    refs: u32,
    generation: u32,
}

/// A zero-ref binding waiting out its cooling window before it may be swept.
#[derive(Debug)]
struct Cooling {
    /// Value of `commits` when the refcount hit zero.
    since_commit: u64,
    slot: u32,
    /// Generation of the slot at release time; a mismatch at sweep means the
    /// slot was already freed and rebound — the entry is stale and ignored.
    generation: u32,
}

/// The interner: deduplicated refcounted strings, addressable by
/// [`SymbolId`] in O(1) and by string content through a hash lookup.
#[derive(Debug, Default)]
pub(crate) struct SymbolTable {
    slots: Vec<Slot>,
    ids: HashMap<Arc<str>, u32>,
    /// Slot indices whose `string` is `None`, reusable by `intern`.
    free: Vec<u32>,
    /// Zero-ref bindings cooling toward sweep eligibility, oldest first.
    cooling: VecDeque<Cooling>,
    /// Slot indices bound (interned or rebound) since the last WAL capture;
    /// drained by [`SymbolTable::take_dirty_bindings`].
    dirty: Vec<u32>,
    /// Durable WAL commits observed, advanced by
    /// [`SymbolTable::commit_durable`].
    commits: u64,
    /// Estimated heap bytes held by live bindings, maintained incrementally.
    bytes: u64,
    /// Number of bound (live) slots.
    live: usize,
}

impl SymbolTable {
    fn slot(&self, id: SymbolId) -> Option<&Slot> {
        self.slots.get(id.0 as usize)
    }

    fn slot_mut(&mut self, id: SymbolId) -> Option<&mut Slot> {
        self.slots.get_mut(id.0 as usize)
    }

    /// Looks up the symbol for `s` without interning it.  Allocation-free.
    pub(crate) fn get(&self, s: &str) -> Option<SymbolId> {
        self.ids.get(s).copied().map(SymbolId)
    }

    /// Interns `s`, returning the existing symbol when already present.
    /// A fresh binding reuses a swept slot when one is free (bumping its
    /// generation) and is recorded as dirty for the next WAL symbol delta.
    ///
    /// Interning does **not** take a reference; callers that store the id
    /// pair it with [`SymbolTable::acquire`] (or use
    /// [`SymbolTable::intern_acquire`]).
    pub(crate) fn intern(&mut self, s: &str) -> SymbolId {
        if let Some(idx) = self.ids.get(s) {
            return SymbolId(*idx);
        }
        let string: Arc<str> = Arc::from(s);
        let idx = match self.free.pop() {
            Some(idx) => {
                if let Some(slot) = self.slots.get_mut(idx as usize) {
                    slot.string = Some(Arc::clone(&string));
                    slot.refs = 0;
                    slot.generation = slot.generation.wrapping_add(1);
                }
                idx
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "2^32 distinct live strings exceeds addressable memory"
                )]
                let idx = u32::try_from(self.slots.len()).expect("fewer than 2^32 symbols");
                self.slots.push(Slot { string: Some(Arc::clone(&string)), refs: 0, generation: 0 });
                idx
            }
        };
        self.bytes += string.len() as u64 + SLOT_OVERHEAD_BYTES;
        self.live += 1;
        self.ids.insert(string, idx);
        self.dirty.push(idx);
        SymbolId(idx)
    }

    /// Interns `s` and takes one reference — the one-stop call for series
    /// creation.
    pub(crate) fn intern_acquire(&mut self, s: &str) -> SymbolId {
        let id = self.intern(s);
        self.acquire(id);
        id
    }

    /// Takes one reference on `id`.  Ignores unbound ids (callers only
    /// acquire ids they just interned or replayed).
    pub(crate) fn acquire(&mut self, id: SymbolId) {
        if let Some(slot) = self.slot_mut(id) {
            if slot.string.is_some() {
                slot.refs = slot.refs.saturating_add(1);
            }
        }
    }

    /// Drops one reference on `id`.  A refcount reaching zero parks the
    /// binding in the cooling queue; it stays resolvable (and resurrectable
    /// by a same-string `intern`) until [`SymbolTable::sweep`] frees it.
    pub(crate) fn release(&mut self, id: SymbolId) {
        let commits = self.commits;
        let mut cooled: Option<Cooling> = None;
        if let Some(slot) = self.slot_mut(id) {
            if slot.string.is_some() && slot.refs > 0 {
                slot.refs -= 1;
                if slot.refs == 0 {
                    cooled = Some(Cooling {
                        since_commit: commits,
                        slot: id.0,
                        generation: slot.generation,
                    });
                }
            }
        }
        if let Some(entry) = cooled {
            self.cooling.push_back(entry);
        }
    }

    /// The interned string behind `id`, if the slot is live.  Bounds- and
    /// liveness-checked: an id from disk (WAL replay) or a stale holder gets
    /// `None`, never a different slot's string.
    pub(crate) fn resolve(&self, id: SymbolId) -> Option<&Arc<str>> {
        self.slot(id).and_then(|slot| slot.string.as_ref())
    }

    /// Records one durable WAL commit, aging the cooling queue.
    pub(crate) fn commit_durable(&mut self) {
        self.commits = self.commits.saturating_add(1);
    }

    /// Frees every cooled zero-ref binding, returning how many were freed.
    ///
    /// Called at the symbol table's checkpoint (after a durable commit), so
    /// freed slots never disappear out from under an unflushed snapshot.  A slot
    /// is freed only if its cooling entry matured ([`COOLING_COMMITS`] durable
    /// commits), its generation still matches (it was not already freed and
    /// rebound) and its refcount is still zero (it was not resurrected by a
    /// same-string re-intern).
    pub(crate) fn sweep(&mut self) -> usize {
        let mut freed = 0;
        while let Some(front) = self.cooling.front() {
            if front.since_commit + COOLING_COMMITS > self.commits {
                break;
            }
            #[expect(clippy::expect_used, reason = "front() above proved non-empty")]
            let entry = self.cooling.pop_front().expect("cooling front checked");
            let mut released: Option<Arc<str>> = None;
            if let Some(slot) = self.slots.get_mut(entry.slot as usize) {
                if slot.generation == entry.generation && slot.refs == 0 {
                    released = slot.string.take();
                }
            }
            let Some(string) = released else { continue };
            self.bytes = self.bytes.saturating_sub(string.len() as u64 + SLOT_OVERHEAD_BYTES);
            self.live = self.live.saturating_sub(1);
            self.ids.remove(&string);
            self.free.push(entry.slot);
            freed += 1;
        }
        freed
    }

    /// Drains the bindings recorded since the last capture, as
    /// `(raw id, string)` pairs for the WAL symbol delta.  The caller writes
    /// them in the group of the round that references them; on a failed
    /// write the loss is moot — log failure is sticky.
    pub(crate) fn take_dirty_bindings(&mut self) -> Vec<(u32, Arc<str>)> {
        let dirty = std::mem::take(&mut self.dirty);
        dirty
            .into_iter()
            .filter_map(|idx| {
                let slot = self.slots.get(idx as usize)?;
                Some((idx, Arc::clone(slot.string.as_ref()?)))
            })
            .collect()
    }

    /// Every live binding, for the checkpoint's snapshot, which clears the
    /// dirty list afterwards (the snapshot subsumes it) via
    /// [`SymbolTable::clear_dirty`].
    pub(crate) fn live_bindings(&self) -> Vec<(u32, Arc<str>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let string = Arc::clone(slot.string.as_ref()?);
                Some((idx as u32, string))
            })
            .collect()
    }

    /// Forgets pending deltas after a snapshot captured every live binding.
    pub(crate) fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Installs a recovered binding at an exact slot, growing the table as
    /// needed.  Later installs for the same slot win (WAL order): a slot
    /// swept and reused is legitimately rebound.  Recovered bindings are
    /// durable by definition, so they are *not* marked dirty.
    pub(crate) fn install_binding(&mut self, raw: u32, s: &str) {
        let idx = raw as usize;
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, Slot::default);
        }
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        if let Some(old) = slot.string.take() {
            self.bytes = self.bytes.saturating_sub(old.len() as u64 + SLOT_OVERHEAD_BYTES);
            self.live = self.live.saturating_sub(1);
            self.ids.remove(&old);
        }
        let string: Arc<str> = Arc::from(s);
        slot.string = Some(Arc::clone(&string));
        slot.refs = 0;
        self.bytes += string.len() as u64 + SLOT_OVERHEAD_BYTES;
        self.live += 1;
        self.ids.insert(string, raw);
    }

    /// Finishes recovery: unoccupied slots join the free list and recovered
    /// bindings that ended replay unreferenced (their series were dropped
    /// before the crash) enter the cooling queue so a later sweep reclaims
    /// them instead of leaking across restarts.  They enter it already
    /// cooled: everything recovery saw is on disk, so no release is still
    /// waiting to become durable, and the first checkpoint after a restart
    /// can reclaim them instead of spending a whole cycle re-cooling.
    ///
    /// Unreferenced bindings carrying the [`REPLAY_HOLE_MARKER`] are freed
    /// outright instead of cooled: they are placeholders replay installed so
    /// a series record referencing a legitimately swept symbol could be
    /// materialised and then dropped — no acked state ever held them, and
    /// cooling one would let it leak into the next snapshot.
    pub(crate) fn finish_recovery(&mut self) {
        self.free.clear();
        self.cooling.clear();
        self.commits = COOLING_COMMITS;
        for idx in 0..self.slots.len() {
            let Some(slot) = self.slots.get_mut(idx) else { break };
            let idx = idx as u32;
            let Some(string) = &slot.string else {
                self.free.push(idx);
                continue;
            };
            if slot.refs > 0 {
                continue;
            }
            if string.starts_with(REPLAY_HOLE_MARKER) {
                #[expect(clippy::expect_used, reason = "starts_with above proved the slot bound")]
                let string = slot.string.take().expect("bound slot checked");
                self.bytes = self.bytes.saturating_sub(string.len() as u64 + SLOT_OVERHEAD_BYTES);
                self.live = self.live.saturating_sub(1);
                self.ids.remove(&string);
                self.free.push(idx);
            } else {
                self.cooling.push_back(Cooling {
                    since_commit: 0,
                    slot: idx,
                    generation: slot.generation,
                });
            }
        }
    }

    /// Number of live (bound) symbols.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Estimated heap bytes held by live bindings.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve_str(table: &SymbolTable, id: SymbolId) -> &str {
        table.resolve(id).map(|s| &**s).unwrap_or("<unbound>")
    }

    #[test]
    fn interning_deduplicates() {
        let mut table = SymbolTable::default();
        let a = table.intern("node");
        let b = table.intern("syscall");
        assert_ne!(a, b);
        assert_eq!(table.intern("node"), a);
        assert_eq!(table.len(), 2);
        assert_eq!(resolve_str(&table, a), "node");
        assert_eq!(table.get("syscall"), Some(b));
        assert_eq!(table.get("missing"), None);
    }

    #[test]
    fn resolved_strings_are_shared() {
        let mut table = SymbolTable::default();
        let id = table.intern_acquire("teemon_syscalls_total");
        let first = table.resolve(id).map(Arc::clone).expect("a live binding");
        let again = table.intern_acquire("teemon_syscalls_total");
        let second = table.resolve(again).map(Arc::clone).expect("a live binding");
        assert_eq!(id, again);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn release_needs_two_commits_before_sweep() {
        let mut table = SymbolTable::default();
        let id = table.intern_acquire("ephemeral");
        table.release(id);
        assert_eq!(table.sweep(), 0, "uncooled binding must not be swept");
        table.commit_durable();
        assert_eq!(table.sweep(), 0, "one commit is not enough");
        table.commit_durable();
        assert_eq!(table.sweep(), 1);
        assert_eq!(table.resolve(id), None);
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn reuse_bumps_generation_and_stale_entries_are_inert() {
        let mut table = SymbolTable::default();
        let old = table.intern_acquire("short-lived");
        table.release(old); // entry A, matures after two commits
        table.commit_durable();
        // Resurrect and release again: entry B matures one commit after A.
        let again = table.intern_acquire("short-lived");
        assert_eq!(again, old);
        table.release(again);
        table.commit_durable();
        // Entry A matured and the refcount is back to zero: the slot frees.
        assert_eq!(table.sweep(), 1);

        // Reuse the freed slot for a different string (generation bump).
        let new_id = table.intern_acquire("replacement");
        assert_eq!(new_id.as_u32(), old.as_u32(), "slot reused off the free list");
        assert_eq!(resolve_str(&table, new_id), "replacement");

        // Entry B matures now, but its generation predates the rebind — it
        // must not free the new occupant.
        table.commit_durable();
        assert_eq!(table.sweep(), 0, "generation mismatch keeps the rebind alive");
        assert_eq!(resolve_str(&table, new_id), "replacement");
    }

    #[test]
    fn resurrection_by_reintern_cancels_sweep() {
        let mut table = SymbolTable::default();
        let id = table.intern_acquire("phoenix");
        table.release(id);
        table.commit_durable();
        // Re-interning the same string before the sweep resurrects the slot.
        let again = table.intern_acquire("phoenix");
        assert_eq!(id, again);
        table.commit_durable();
        assert_eq!(table.sweep(), 0, "live refcount blocks the matured entry");
        assert_eq!(resolve_str(&table, id), "phoenix");
    }

    #[test]
    fn bytes_accounting_returns_to_baseline() {
        let mut table = SymbolTable::default();
        assert_eq!(table.bytes(), 0);
        let a = table.intern_acquire("alpha");
        let b = table.intern_acquire("beta");
        let peak = table.bytes();
        assert!(peak > 0);
        table.release(a);
        table.release(b);
        table.commit_durable();
        table.commit_durable();
        assert_eq!(table.sweep(), 2);
        assert_eq!(table.bytes(), 0);
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn dirty_capture_and_snapshot_round_trip() {
        let mut table = SymbolTable::default();
        let a = table.intern_acquire("one");
        let _b = table.intern_acquire("two");
        let delta = table.take_dirty_bindings();
        assert_eq!(delta.len(), 2);
        assert!(table.take_dirty_bindings().is_empty());

        let mut restored = SymbolTable::default();
        for (raw, s) in table.live_bindings() {
            restored.install_binding(raw, &s);
        }
        restored.finish_recovery();
        assert_eq!(resolve_str(&restored, a), "one");
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.bytes(), table.bytes());
    }
}
