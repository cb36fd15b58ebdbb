//! Persistent per-round scratch storage for the simulator's hot loop.
//!
//! [`RoundBuffers`] holds everything the round engine reuses between
//! rounds: the incrementally-maintained sorted adjacency, the sparse
//! incident-event CSR, the staged payload/flag traffic, the sparse inbox
//! CSR and the **active set** that makes round cost proportional to
//! activity instead of `n + m`. On a quiet round (empty event batch, empty
//! active set) `Simulator::step` performs no heap allocation at all.
//!
//! # Invariants
//!
//! After the corresponding build phase of round `i` (and until the next
//! round overwrites them):
//!
//! 1. `local_of(v)` is node `v`'s incident topology events, in batch order
//!    (the order `EventBatch` lists them); `local_nodes` are the nodes
//!    with at least one event this round, ascending, and
//!    `touched_changes` pairs them with their event counts (the per-node
//!    meter's sparse input).
//! 2. `nbrs[v]` is node `v`'s neighbor set in `G_i`, sorted ascending —
//!    the delivery order contract of [`crate::protocol::Node::receive`].
//!    It is updated **incrementally** from each round's batch delta, never
//!    rebuilt from [`Topology`](crate::topology::Topology).
//! 3. `active` is the round's active set, ascending and duplicate-free: at
//!    the start of phase 1 it contains every node that was not
//!    [`idle`](crate::protocol::Node::idle) at the end of the previous
//!    round, merged with this round's batch-incident nodes. Only active
//!    nodes run phases 1–2. (The dense engine forces `active = 0..n`.)
//! 4. `out_flags[v]` holds node `v`'s flags for round `i` **for active
//!    `v`** — a flat struct-of-arrays slot, the only per-node send output
//!    kept around (payloads are expanded into `staged` at send time and
//!    never stored per node). Skipped nodes' flag slots are stale and never
//!    read: inbox assembly only dereferences senders that appear in
//!    `staged` or `flag_stage`, which active nodes alone can enter.
//! 5. `staged` is sorted by `(receiver, sender)` at inbox assembly; each
//!    `(receiver, sender)` pair appears at most once (two payloads on one
//!    ordered link in one round is a protocol bug and panics).
//!    `flag_stage` lists `(receiver, sender)` for every delivered
//!    non-quiet flag broadcast, sorted the same way.
//! 6. `recv_nodes` (ascending) are the nodes processed in phase 3: the
//!    active set merged with every payload or flag receiver.
//!    `inbox_of_pos(k)` is the *k*-th such node's inbox: one
//!    [`Received`] entry per transmitting neighbor, sorted by sender, with
//!    flags copied straight out of `outboxes` — quiet, payload-free
//!    senders produce no entry (the sparse-inbox contract).
//! 7. `inconsistent_idx` lists the nodes reporting inconsistent at the end
//!    of the round, ascending.

use crate::event::{EventBatch, LocalEvent};
use crate::ids::{Edge, NodeId};
use crate::message::{Flags, Received};

/// Read-only view of the incident-event CSR, borrowed alongside the
/// send-phase outputs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LocalView<'a> {
    local: &'a [LocalEvent],
    start: &'a [usize],
    len: &'a [u32],
}

impl LocalView<'_> {
    /// Node `v`'s incident events this round.
    #[inline]
    pub(crate) fn of(&self, v: usize) -> &[LocalEvent] {
        let len = self.len[v] as usize;
        if len == 0 {
            return &[];
        }
        &self.local[self.start[v]..self.start[v] + len]
    }
}

/// Split borrow for the send phase (phases 1–2 + routing expansion):
/// shared read-only round state plus the outputs the phase writes.
pub(crate) struct SendParts<'a, M> {
    /// Sorted adjacency (read-only).
    pub(crate) nbrs: &'a [Vec<NodeId>],
    /// Incident-event CSR view (read-only).
    pub(crate) local: LocalView<'a>,
    /// The active set, ascending.
    pub(crate) active: &'a [u32],
    /// The flag SoA array.
    pub(crate) out_flags: &'a mut [Flags],
    /// Routed payloads, appended in send order.
    pub(crate) staged: &'a mut Vec<(NodeId, NodeId, M)>,
    /// Delivered flag broadcasts, appended in send order.
    pub(crate) flag_stage: &'a mut Vec<(NodeId, NodeId)>,
}

/// Split borrow for the receive phase (phases 3–4 + next-active
/// collection): the assembled inbox CSR plus the phase's outputs.
pub(crate) struct RecvParts<'a, M> {
    /// Sorted adjacency (read-only).
    pub(crate) nbrs: &'a [Vec<NodeId>],
    /// The phase-3 receiver list, ascending.
    pub(crate) recv_nodes: &'a [u32],
    /// Assembled inbox entries (CSR data, indexed via `inbox_off`).
    pub(crate) inbox: &'a [Received<M>],
    /// Inbox offsets, parallel to `recv_nodes` (length `recv + 1`).
    pub(crate) inbox_off: &'a [usize],
    /// Inconsistent receivers, ascending (invariant 7).
    pub(crate) inconsistent: &'a mut Vec<u32>,
    /// Next round's active survivors, ascending.
    pub(crate) next_active: &'a mut Vec<u32>,
}

/// Flat, reusable per-round scratch space; one per [`crate::Simulator`].
#[derive(Clone, Debug)]
pub(crate) struct RoundBuffers<M> {
    /// Sorted adjacency of `G_i`, maintained incrementally (invariant 2).
    pub(crate) nbrs: Vec<Vec<NodeId>>,
    /// Incident topology events, CSR data (invariant 1).
    local: Vec<LocalEvent>,
    /// Nodes with incident events this round, ascending.
    pub(crate) local_nodes: Vec<u32>,
    /// Per-node CSR start into `local`; valid only for `local_nodes`.
    local_start: Vec<usize>,
    /// Per-node event count; zeroed for all nodes outside `local_nodes`.
    local_len: Vec<u32>,
    /// `(node, incident change count)` pairs, ascending by node — the
    /// sparse input of [`PerNodeMeter::record_round_sparse`].
    ///
    /// [`PerNodeMeter::record_round_sparse`]:
    ///     crate::metrics::PerNodeMeter::record_round_sparse
    pub(crate) touched_changes: Vec<(u32, u64)>,
    /// This round's flags, one slot per node, struct-of-arrays (invariant
    /// 4): the one per-node send output inbox assembly reads back, kept in
    /// a flat cache-linear array. Payloads never get a per-node slot —
    /// they are expanded into `staged` at send time.
    pub(crate) out_flags: Vec<Flags>,
    /// Routed payloads as `(receiver, sender, message)` (invariant 5).
    staged: Vec<(NodeId, NodeId, M)>,
    /// Delivered non-quiet flag broadcasts as `(receiver, sender)`.
    flag_stage: Vec<(NodeId, NodeId)>,
    /// Assembled sparse inboxes, CSR data (invariant 6).
    inbox: Vec<Received<M>>,
    /// Inbox offsets, parallel to `recv_nodes` (length `recv + 1`).
    inbox_off: Vec<usize>,
    /// Nodes processed in phase 3 this round, ascending (invariant 6).
    pub(crate) recv_nodes: Vec<u32>,
    /// Nodes inconsistent at the end of the round, ascending (invariant 7).
    pub(crate) inconsistent_idx: Vec<u32>,
    /// The active set (invariant 3), ascending.
    pub(crate) active: Vec<u32>,
    /// Next round's active set, collected by the receive phase and
    /// swapped into `active` by the sparse engine.
    pub(crate) next_active: Vec<u32>,
    /// Scratch for sorted-set merges.
    merge_tmp: Vec<u32>,
    /// Per-node write cursors for the local-event counting sort.
    cursor: Vec<usize>,
}

impl<M> RoundBuffers<M> {
    /// Buffers for a network on `n` nodes (empty graph, empty active set).
    pub(crate) fn new(n: usize) -> Self {
        RoundBuffers {
            nbrs: vec![Vec::new(); n],
            local: Vec::new(),
            local_nodes: Vec::new(),
            local_start: vec![0; n],
            local_len: vec![0; n],
            touched_changes: Vec::new(),
            out_flags: vec![Flags::default(); n],
            staged: Vec::new(),
            flag_stage: Vec::new(),
            inbox: Vec::new(),
            inbox_off: Vec::new(),
            recv_nodes: Vec::new(),
            inconsistent_idx: Vec::new(),
            active: Vec::new(),
            next_active: Vec::new(),
            merge_tmp: Vec::new(),
            cursor: vec![0; n],
        }
    }

    /// Split borrow for the send phase. Clears the staging buffers the
    /// phase appends to.
    pub(crate) fn send_parts(&mut self) -> SendParts<'_, M> {
        self.staged.clear();
        self.flag_stage.clear();
        SendParts {
            nbrs: &self.nbrs,
            local: LocalView {
                local: &self.local,
                start: &self.local_start,
                len: &self.local_len,
            },
            active: &self.active,
            out_flags: &mut self.out_flags,
            staged: &mut self.staged,
            flag_stage: &mut self.flag_stage,
        }
    }

    /// Split borrow for the receive phase. Clears the output lists the
    /// phase appends to.
    pub(crate) fn recv_parts(&mut self) -> RecvParts<'_, M> {
        self.inconsistent_idx.clear();
        self.next_active.clear();
        RecvParts {
            nbrs: &self.nbrs,
            recv_nodes: &self.recv_nodes,
            inbox: &self.inbox,
            inbox_off: &self.inbox_off,
            inconsistent: &mut self.inconsistent_idx,
            next_active: &mut self.next_active,
        }
    }

    /// Apply one validated batch to the sorted adjacency (invariant 2) —
    /// O(Σ degree of touched endpoints), independent of `n` and `m`.
    pub(crate) fn apply_batch(&mut self, batch: &EventBatch) {
        for ev in batch.iter() {
            let e = ev.edge();
            for (at, peer) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                let list = &mut self.nbrs[at.index()];
                match list.binary_search(&peer) {
                    Ok(pos) => {
                        debug_assert!(ev.is_delete(), "insert of present edge {e:?}");
                        list.remove(pos);
                    }
                    Err(pos) => {
                        debug_assert!(ev.is_insert(), "delete of absent edge {e:?}");
                        list.insert(pos, peer);
                    }
                }
            }
        }
    }

    /// Node `v`'s sorted neighbors in `G_i`.
    #[cfg(test)]
    pub(crate) fn neighbors_of(&self, v: usize) -> &[NodeId] {
        &self.nbrs[v]
    }

    /// Rebuild the sparse incident-event CSR (invariant 1) for this
    /// round's batch via a counting sort over the *touched* nodes only —
    /// O(prev batch + this batch), not O(n).
    pub(crate) fn build_local(&mut self, batch: &EventBatch) {
        for &v in &self.local_nodes {
            self.local_len[v as usize] = 0;
        }
        self.local_nodes.clear();
        self.local.clear();
        self.touched_changes.clear();
        if batch.is_empty() {
            return;
        }
        for ev in batch.iter() {
            let e = ev.edge();
            for v in [e.lo(), e.hi()] {
                let i = v.index();
                if self.local_len[i] == 0 {
                    self.local_nodes.push(v.0);
                }
                self.local_len[i] += 1;
            }
        }
        self.local_nodes.sort_unstable();
        let mut total = 0usize;
        for &v in &self.local_nodes {
            let i = v as usize;
            self.local_start[i] = total;
            self.cursor[i] = total;
            total += self.local_len[i] as usize;
            self.touched_changes.push((v, u64::from(self.local_len[i])));
        }
        let dummy = LocalEvent {
            edge: Edge::new(NodeId(0), NodeId(1)),
            peer: NodeId(0),
            inserted: false,
        };
        self.local.resize(total, dummy);
        for ev in batch.iter() {
            let e = ev.edge();
            let inserted = ev.is_insert();
            for (at, peer) in [(e.lo(), e.hi()), (e.hi(), e.lo())] {
                self.local[self.cursor[at.index()]] = LocalEvent {
                    edge: e,
                    peer,
                    inserted,
                };
                self.cursor[at.index()] += 1;
            }
        }
    }

    /// Node `v`'s incident events this round.
    #[cfg(test)]
    pub(crate) fn local_of(&self, v: usize) -> &[LocalEvent] {
        let len = self.local_len[v] as usize;
        if len == 0 {
            return &[];
        }
        &self.local[self.local_start[v]..self.local_start[v] + len]
    }

    /// Force the active set to all of `0..n` (the dense engine's policy).
    pub(crate) fn activate_all(&mut self, n: usize) {
        self.active.clear();
        self.active.extend(0..n as u32);
    }

    /// Merge this round's batch-incident nodes (`local_nodes`) into the
    /// active set, keeping it sorted and duplicate-free.
    pub(crate) fn activate_local(&mut self) {
        if self.local_nodes.is_empty() {
            return;
        }
        self.merge_tmp.clear();
        let (mut ai, mut li) = (0usize, 0usize);
        loop {
            match (self.active.get(ai), self.local_nodes.get(li)) {
                (None, None) => break,
                (Some(&a), None) => {
                    self.merge_tmp.push(a);
                    ai += 1;
                }
                (None, Some(&l)) => {
                    self.merge_tmp.push(l);
                    li += 1;
                }
                (Some(&a), Some(&l)) => {
                    self.merge_tmp.push(a.min(l));
                    if a <= l {
                        ai += 1;
                    }
                    if l <= a {
                        li += 1;
                    }
                }
            }
        }
        std::mem::swap(&mut self.active, &mut self.merge_tmp);
    }

    /// Assemble the sparse inboxes (invariant 6) and the phase-3 receiver
    /// list from the staged payloads, the staged flag deliveries and the
    /// active set. Returns nothing; read via `recv_nodes`/`inbox_of_pos`.
    ///
    /// Sorts `staged` and `flag_stage` by `(receiver, sender)` first; the
    /// assembly itself is then pure linear merging, never a function of
    /// `n` or the edge count.
    pub(crate) fn assemble_inboxes(&mut self, round: u64) {
        self.staged
            .sort_unstable_by_key(|&(to, from, _)| (to, from));
        self.flag_stage.sort_unstable();
        for w in self.staged.windows(2) {
            assert!(
                (w[0].0, w[0].1) != (w[1].0, w[1].1),
                "node {:?} received two payloads from {:?} in round {round}",
                w[0].0,
                w[0].1
            );
        }
        // Receivers: active ∪ payload receivers ∪ flag receivers, via a
        // sorted three-way merge (each source is already ascending;
        // `staged`/`flag_stage` receivers repeat and are deduplicated).
        self.merge_tmp.clear();
        {
            let staged_to = SortedToStream::new(self.staged.iter().map(|&(to, _, _)| to.0));
            let flags_to = SortedToStream::new(self.flag_stage.iter().map(|&(to, _)| to.0));
            merge_three_dedup(&mut self.merge_tmp, &self.active, staged_to, flags_to);
        }
        std::mem::swap(&mut self.recv_nodes, &mut self.merge_tmp);

        self.inbox.clear();
        self.inbox_off.clear();
        let mut staged = self.staged.drain(..).peekable();
        let mut fi = 0usize; // cursor into flag_stage
        for &v in &self.recv_nodes {
            self.inbox_off.push(self.inbox.len());
            let to = NodeId(v);
            // Both streams are contiguous per receiver and sorted by
            // sender within it: a linear two-way merge by sender id.
            loop {
                let s_from = match staged.peek() {
                    Some(&(t, f, _)) if t == to => Some(f),
                    _ => None,
                };
                let f_from = match self.flag_stage.get(fi) {
                    Some(&(t, f)) if t == to => Some(f),
                    _ => None,
                };
                let from = match (s_from, f_from) {
                    (None, None) => break,
                    (Some(s), None) => s,
                    (None, Some(f)) => f,
                    (Some(s), Some(f)) => s.min(f),
                };
                let payload = if s_from == Some(from) {
                    Some(staged.next().expect("peeked").2)
                } else {
                    None
                };
                if f_from == Some(from) {
                    fi += 1;
                }
                self.inbox.push(Received {
                    from,
                    payload,
                    flags: self.out_flags[from.index()],
                });
            }
        }
        self.inbox_off.push(self.inbox.len());
        debug_assert!(
            staged.peek().is_none(),
            "routed payload addressed outside the receiver set"
        );
        debug_assert_eq!(fi, self.flag_stage.len(), "flags routed to a non-receiver");
    }
}

/// A peekable ascending stream of receiver ids that skips duplicates.
struct SortedToStream<I: Iterator<Item = u32>> {
    iter: std::iter::Peekable<I>,
}

impl<I: Iterator<Item = u32>> SortedToStream<I> {
    fn new(iter: I) -> Self {
        SortedToStream {
            iter: iter.peekable(),
        }
    }

    fn peek(&mut self) -> Option<u32> {
        self.iter.peek().copied()
    }

    /// Advance past every occurrence of `v`.
    fn skip_value(&mut self, v: u32) {
        while self.iter.peek() == Some(&v) {
            self.iter.next();
        }
    }
}

/// Three-way merge of one sorted slice and two sorted streams into `out`,
/// ascending and duplicate-free.
fn merge_three_dedup<A, B>(
    out: &mut Vec<u32>,
    sorted: &[u32],
    mut a: SortedToStream<A>,
    mut b: SortedToStream<B>,
) where
    A: Iterator<Item = u32>,
    B: Iterator<Item = u32>,
{
    let mut si = 0usize;
    loop {
        let mut next: Option<u32> = sorted.get(si).copied();
        if let Some(v) = a.peek() {
            next = Some(next.map_or(v, |n| n.min(v)));
        }
        if let Some(v) = b.peek() {
            next = Some(next.map_or(v, |n| n.min(v)));
        }
        let Some(v) = next else { break };
        out.push(v);
        if sorted.get(si) == Some(&v) {
            si += 1;
        }
        a.skip_value(v);
        b.skip_value(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activate_local_merges_sorted_sets() {
        use crate::ids::edge;
        let mut buffers: RoundBuffers<()> = RoundBuffers::new(10);
        buffers.active = vec![1, 3, 5];
        let mut b = EventBatch::new();
        b.push_insert(edge(0, 3));
        b.push_insert(edge(5, 6));
        buffers.build_local(&b);
        buffers.activate_local();
        assert_eq!(buffers.active, vec![0, 1, 3, 5, 6]);
        // Quiet batch: the active set is untouched.
        buffers.build_local(&EventBatch::new());
        buffers.activate_local();
        assert_eq!(buffers.active, vec![0, 1, 3, 5, 6]);
    }

    #[test]
    fn three_way_merge_dedups_streams() {
        let mut out = Vec::new();
        let a = SortedToStream::new([2u32, 2, 4, 7].into_iter());
        let b = SortedToStream::new([0u32, 4, 4, 9].into_iter());
        merge_three_dedup(&mut out, &[1, 4, 8], a, b);
        assert_eq!(out, vec![0, 1, 2, 4, 7, 8, 9]);
    }

    #[test]
    fn incremental_adjacency_matches_topology() {
        use crate::ids::edge;
        use crate::topology::Topology;
        let n = 12usize;
        let mut topo = Topology::new(n);
        let mut buffers: RoundBuffers<()> = RoundBuffers::new(n);
        let mut state = 0xdeadbeefu64;
        let mut present: Vec<crate::ids::Edge> = Vec::new();
        for round in 1..=120u64 {
            let mut batch = EventBatch::new();
            for _ in 0..3 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state % n as u64) as u32;
                let w = ((state >> 16) % n as u64) as u32;
                if u == w {
                    continue;
                }
                let e = edge(u, w);
                if batch.touches(e) {
                    continue;
                }
                if let Some(pos) = present.iter().position(|&p| p == e) {
                    present.swap_remove(pos);
                    batch.push_delete(e);
                } else {
                    present.push(e);
                    batch.push_insert(e);
                }
            }
            topo.apply(&batch, round);
            buffers.apply_batch(&batch);
            for v in 0..n {
                assert_eq!(
                    buffers.neighbors_of(v),
                    topo.neighbors_sorted(NodeId(v as u32)),
                    "adjacency of v{v} diverged at round {round}"
                );
            }
        }
    }

    #[test]
    fn sparse_local_events_cover_exactly_the_touched_nodes() {
        use crate::ids::edge;
        let mut buffers: RoundBuffers<()> = RoundBuffers::new(8);
        let mut b = EventBatch::new();
        b.push_insert(edge(1, 5));
        b.push_insert(edge(5, 2));
        buffers.build_local(&b);
        assert_eq!(buffers.local_nodes, vec![1, 2, 5]);
        assert_eq!(buffers.touched_changes, vec![(1, 1), (2, 1), (5, 2)]);
        assert_eq!(buffers.local_of(5).len(), 2);
        assert_eq!(buffers.local_of(1).len(), 1);
        assert_eq!(buffers.local_of(0).len(), 0);
        // Next round resets the previous round's entries.
        buffers.build_local(&EventBatch::insert(edge(0, 3)));
        assert_eq!(buffers.local_nodes, vec![0, 3]);
        assert!(buffers.local_of(5).is_empty());
        assert!(buffers.local_of(1).is_empty());
    }
}
