//! Packet arena: the zero-copy staging buffer behind trace generation.
//!
//! The generator used to materialize every packet as its own
//! `TimedPacket { ts, frame: Vec<u8> }`, millions of small heap
//! allocations per trace that dominated generation wall time. A
//! [`PacketArena`] instead stores all frame bytes back-to-back in one
//! growing buffer and represents each packet as a `(ts, offset, len)`
//! record. Sessions append frames via [`PacketArena::frame_buf`] +
//! [`PacketArena::commit`]; the trace assembly then orders records with
//! [`PacketArena::sort_records`] and applies the capture
//! [`Tap`](crate::Tap)'s drops in place.
//!
//! The arena is *capture-shaped*: with a snaplen set
//! ([`PacketArena::set_snaplen`]) it stores at most that many bytes of
//! each frame, the bytes a tap with that snaplen would keep, while each
//! record still carries the frame's wire length. Emitters read the cap
//! from [`PacketArena::snaplen`] and write no byte past it; `commit`
//! truncates whatever they wrote beyond it.
//!
//! The arena also owns the monitoring-window cutoff that used to be a
//! post-hoc `retain`: [`PacketArena::admit`] rejects packets timestamped
//! at or past the window limit *before* their bytes are built, while
//! still tallying them (for [`Clip::Counted`] sites) so logical
//! emission counts match the old emit-then-retain pipeline.

use crate::{Tap, TimedPacket};
use ent_wire::Timestamp;

/// Largest frame a writer appends: a maximal IPv4 datagram plus its
/// Ethernet header. A snaplen below it bounds the frame instead.
const MAX_FRAME: usize = 65_535 + 14;

/// Smallest growth step of the byte buffer.
const MIN_GROWTH: usize = 64 * 1024;

/// How an out-of-window packet at an emission site is accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clip {
    /// Tally the packet as logically emitted (the legacy pipeline pushed
    /// it and a later `retain` removed it): it still appears in the
    /// `gen_synth` observability counts.
    Counted,
    /// Drop silently (the legacy site filtered these packets before they
    /// ever reached the trace buffer).
    Silent,
}

/// One staged packet: timestamp plus the frame's span in the byte buffer.
/// `len` is the wire length; `cap` is the captured length, the bytes at
/// `off` that belong to this record — the stored prefix (at most the
/// arena's snaplen) until [`PacketArena::apply_tap`] clamps it to the
/// tap's snaplen, so `cap ≤ stored ≤ len` always holds. `label` is the
/// ground-truth tag active at commit time (see
/// [`PacketArena::set_label`]); it rides with the record through
/// [`PacketArena::sort_records`] and [`PacketArena::apply_tap`] but
/// never enters the frame bytes.
#[derive(Debug, Clone, Copy)]
struct Rec {
    ts: Timestamp,
    off: u64,
    len: u32,
    cap: u32,
    label: u32,
}

/// Arena of trace packets: one contiguous byte buffer plus per-packet
/// `(ts, offset, len)` records.
#[derive(Debug, Clone)]
pub struct PacketArena {
    buf: Vec<u8>,
    recs: Vec<Rec>,
    /// Monitoring-window limit: packets with `ts >= limit` are refused.
    limit: Timestamp,
    /// Bytes of each frame kept in `buf` (`usize::MAX`: whole frames).
    snaplen: usize,
    /// Start of the frame currently being built in `buf`.
    watermark: u64,
    /// Wire bytes of all committed records.
    wire_bytes: u64,
    /// Out-of-window packets tallied by [`Clip::Counted`] admissions.
    ghost_packets: u64,
    /// Wire bytes of those tallied out-of-window packets.
    ghost_bytes: u64,
    /// Ground-truth label stamped onto subsequently committed records.
    cur_label: u32,
}

impl PacketArena {
    /// An arena admitting packets strictly before `limit` and storing
    /// whole frames.
    pub fn new(limit: Timestamp) -> PacketArena {
        PacketArena {
            // ent-lint: allow(E002) — constructor: empty buffers, no heap
            buf: Vec::new(),
            // ent-lint: allow(E002) — constructor: empty buffers, no heap
            recs: Vec::new(),
            limit,
            snaplen: usize::MAX,
            watermark: 0,
            wire_bytes: 0,
            ghost_packets: 0,
            ghost_bytes: 0,
            cur_label: 0,
        }
    }

    /// An arena with no window limit (admits everything).
    pub fn unbounded() -> PacketArena {
        PacketArena::new(Timestamp::from_micros(u64::MAX))
    }

    /// Change the monitoring-window limit (for arena reuse across traces:
    /// [`PacketArena::clear`] keeps the old limit).
    pub fn set_limit(&mut self, limit: Timestamp) {
        self.limit = limit;
    }

    /// Store at most `snaplen` bytes of each frame committed from now on
    /// (`usize::MAX`, the default, stores whole frames). Set it to the
    /// capture tap's snaplen and the arena holds exactly the bytes the
    /// tap keeps. [`PacketArena::clear`] keeps it, like the window limit.
    pub fn set_snaplen(&mut self, snaplen: usize) {
        self.snaplen = snaplen;
    }

    /// The capture cap emitters pass to the frame builders: they write no
    /// byte of a frame past it.
    pub fn snaplen(&self) -> usize {
        self.snaplen
    }

    /// Set the ground-truth label stamped onto every record committed
    /// from now on. Label `0` (the default) means unlabeled/benign;
    /// scenario packs use nonzero tags for attack-class traffic. The
    /// label lives on the record, not in the frame bytes, so setting it
    /// never changes emitted bytes or RNG draw order.
    pub fn set_label(&mut self, label: u32) {
        self.cur_label = label;
    }

    /// The ground-truth label currently being stamped onto commits.
    pub fn current_label(&self) -> u32 {
        self.cur_label
    }

    /// Should a packet at `ts` be built at all? `false` means skip frame
    /// construction entirely; `wire_len` is what the frame *would* have
    /// occupied on the wire, tallied for [`Clip::Counted`] sites so
    /// logical emission counts match the legacy emit-then-retain flow.
    pub fn admit(&mut self, ts: Timestamp, clip: Clip, wire_len: u64) -> bool {
        if ts < self.limit {
            return true;
        }
        if clip == Clip::Counted {
            self.ghost_packets += 1;
            self.ghost_bytes += wire_len;
        }
        false
    }

    /// The byte buffer, positioned for appending one frame. Callers
    /// extend it (e.g. via `ent_wire::build::tcp_frame_split_into`, capped
    /// at [`PacketArena::snaplen`]) then call [`PacketArena::commit`].
    pub fn frame_buf(&mut self) -> &mut Vec<u8> {
        self.reserve_frame();
        &mut self.buf
    }

    /// Make room for one more frame. The buffer grows by an eighth of its
    /// capacity, not by `Vec`'s doubling, so its footprint stays within
    /// about 12% of the bytes it stores: a trace that needs 43 MiB gets
    /// ~48 MiB, where doubling would hand it 84 MiB.
    fn reserve_frame(&mut self) {
        let frame = self.snaplen.min(MAX_FRAME);
        if self.buf.capacity() - self.buf.len() < frame {
            let step = frame.max(self.buf.capacity() / 8).max(MIN_GROWTH);
            self.buf.reserve_exact(step);
        }
    }

    /// Record the frame appended since the last commit as one packet of
    /// `wire_len` bytes on the wire. At most the snaplen (and never more
    /// than `wire_len`) of the appended bytes is kept; the rest is
    /// truncated away, so the next frame starts right after the stored
    /// prefix.
    pub fn commit(&mut self, ts: Timestamp, wire_len: u64) {
        let off = self.watermark;
        let written = (self.buf.len() as u64).saturating_sub(off);
        let stored = written.min(self.snaplen as u64).min(wire_len);
        let end = off + stored;
        self.buf.truncate(end as usize);
        self.watermark = end;
        self.wire_bytes += wire_len;
        self.recs.push(Rec {
            ts,
            off,
            len: wire_len as u32,
            cap: stored as u32,
            label: self.cur_label,
        });
    }

    /// Convenience: admit + append a prebuilt frame (its first snaplen
    /// bytes) + commit.
    pub fn push_frame(&mut self, ts: Timestamp, clip: Clip, frame: &[u8]) {
        let wire_len = frame.len() as u64;
        if !self.admit(ts, clip, wire_len) {
            return;
        }
        let (kept, _) = frame.split_at(frame.len().min(self.snaplen));
        self.reserve_frame();
        self.buf.extend_from_slice(kept);
        self.commit(ts, wire_len);
    }

    /// Committed (in-window) packets.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// True if no packets were committed.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Logical packets emitted: committed plus counted out-of-window.
    pub fn logical_len(&self) -> u64 {
        self.recs.len() as u64 + self.ghost_packets
    }

    /// Logical wire bytes emitted (same tail included).
    pub fn logical_wire_bytes(&self) -> u64 {
        self.wire_bytes + self.ghost_bytes
    }

    /// Order records by `(timestamp, emission offset)`. The offset
    /// tie-break reproduces the legacy pipeline's stable sort exactly:
    /// equal-timestamp packets stay in emission order, and keys are
    /// unique so the result is deterministic. The *stable* algorithm is
    /// deliberate — the record list is a concatenation of per-session
    /// ascending runs, which merge sort detects and exploits; pattern-
    /// defeating quicksort measures ~2x slower on this shape.
    pub fn sort_records(&mut self) {
        self.recs.sort_by_key(|r| (r.ts, r.off));
    }

    /// Wire bytes of the committed (in-window) records. After
    /// [`PacketArena::apply_tap`] this covers only the records the tap
    /// kept — exactly the wire volume of a materialized trace.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Run every record through a capture tap *in place*: snaplen clamps
    /// the captured length to `min(tap snaplen, stored)`, injected drops
    /// remove the record. No frame bytes move, and a tap wider than the
    /// arena's snaplen keeps only the stored prefix. Returns the total
    /// captured (post-snaplen) bytes. Call after
    /// [`PacketArena::sort_records`] so the tap's periodic drop counter
    /// walks the trace in time order.
    pub fn apply_tap(&mut self, tap: &mut Tap) -> u64 {
        let mut captured = 0u64;
        let mut dropped_wire = 0u64;
        self.recs.retain_mut(|r| match tap.admit(r.len as usize) {
            Some(cap) => {
                r.cap = r.cap.min(cap as u32);
                captured += r.cap as u64;
                true
            }
            None => {
                dropped_wire += r.len as u64;
                false
            }
        });
        self.wire_bytes -= dropped_wire;
        captured
    }

    /// Borrowed views of the captured packets in record order:
    /// `(timestamp, captured frame bytes, original wire length)`. The
    /// frame slice reflects any [`PacketArena::apply_tap`] snaplen clamp.
    pub fn captured_frames(&self) -> impl Iterator<Item = (Timestamp, &[u8], u32)> + '_ {
        self.recs.iter().filter_map(|r| {
            let start = r.off as usize;
            self.buf
                .get(start..start.saturating_add(r.cap as usize))
                .map(|frame| (r.ts, frame, r.len))
        })
    }

    /// Like [`PacketArena::captured_frames`] but with each record's
    /// ground-truth label appended:
    /// `(timestamp, captured frame bytes, original wire length, label)`.
    pub fn labeled_frames(&self) -> impl Iterator<Item = (Timestamp, &[u8], u32, u32)> + '_ {
        self.recs.iter().filter_map(|r| {
            let start = r.off as usize;
            self.buf
                .get(start..start.saturating_add(r.cap as usize))
                .map(|frame| (r.ts, frame, r.len, r.label))
        })
    }

    /// Histogram of record labels in ascending label order. The counts
    /// sum to [`PacketArena::len`]; conservation through sort/tap is
    /// what the scenario-pack property tests pin.
    pub fn label_counts(&self) -> Vec<(u32, u64)> {
        let mut counts = std::collections::BTreeMap::new();
        for r in &self.recs {
            *counts.entry(r.label).or_insert(0u64) += 1;
        }
        counts.into_iter().collect()
    }

    /// Materialize the captured packets in record order as owned
    /// [`TimedPacket`]s, one bounded copy per packet: the stored frames,
    /// clamped by any [`PacketArena::apply_tap`].
    pub fn captured_packets(&self) -> Vec<TimedPacket> {
        self.captured_frames()
            .map(|(ts, frame, orig_len)| TimedPacket::captured(ts, frame, orig_len))
            .collect()
    }

    /// Drop all packets and bytes, keeping allocated capacity (and the
    /// window limit and snaplen) for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.recs.clear();
        self.watermark = 0;
        self.wire_bytes = 0;
        self.ghost_packets = 0;
        self.ghost_bytes = 0;
        self.cur_label = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    #[test]
    fn commit_records_spans_and_counts() {
        let mut a = PacketArena::unbounded();
        a.frame_buf().extend_from_slice(&[1, 2, 3]);
        a.commit(ts(5), 3);
        a.frame_buf().extend_from_slice(&[4, 5]);
        a.commit(ts(2), 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.logical_len(), 2);
        assert_eq!(a.logical_wire_bytes(), 5);
        let pkts = a.captured_packets();
        assert_eq!(pkts[0].frame, vec![1, 2, 3]);
        assert_eq!(pkts[0].ts, ts(5));
        assert_eq!(pkts[1].frame, vec![4, 5]);
    }

    #[test]
    fn sort_orders_by_ts_then_emission() {
        let mut a = PacketArena::unbounded();
        for (t, b) in [(9u64, 0u8), (3, 1), (9, 2), (1, 3)] {
            a.frame_buf().push(b);
            a.commit(ts(t), 1);
        }
        a.sort_records();
        let order: Vec<u8> = a.captured_packets().iter().map(|p| p.frame[0]).collect();
        // Equal ts=9 packets keep emission order (0 before 2).
        assert_eq!(order, vec![3, 1, 0, 2]);
    }

    #[test]
    fn window_limit_counts_or_silences_ghosts() {
        let mut a = PacketArena::new(ts(100));
        assert!(a.admit(ts(99), Clip::Counted, 60));
        a.frame_buf().extend_from_slice(&[0; 60]);
        a.commit(ts(99), 60);
        assert!(!a.admit(ts(100), Clip::Counted, 70));
        assert!(!a.admit(ts(500), Clip::Silent, 80));
        assert_eq!(a.len(), 1);
        assert_eq!(a.logical_len(), 2, "counted ghost included");
        assert_eq!(a.logical_wire_bytes(), 130, "ghost bytes included");
    }

    #[test]
    fn snaplen_arena_stores_prefix_and_keeps_wire_len() {
        let mut a = PacketArena::unbounded();
        a.set_snaplen(68);
        for i in 0..4u8 {
            // A writer that ignores the cap: commit truncates the excess.
            a.frame_buf().extend_from_slice(&[i; 100]);
            a.commit(ts(u64::from(i)), 100);
        }
        a.push_frame(ts(9), Clip::Counted, &[7; 150]);
        a.push_frame(ts(10), Clip::Counted, &[8; 40]);
        assert_eq!(a.frame_buf().len(), 5 * 68 + 40, "only stored prefixes stay");
        assert_eq!(a.wire_bytes(), 4 * 100 + 150 + 40, "wire bytes are wire lengths");
        let views: Vec<_> = a.captured_frames().collect();
        assert_eq!(views.len(), 6);
        for (i, (_, frame, orig)) in views.iter().enumerate().take(4) {
            assert_eq!((frame.len(), *orig), (68, 100));
            assert!(frame.iter().all(|&b| usize::from(b) == i), "no bytes of a neighbour");
        }
        assert_eq!((views[4].1.len(), views[4].2), (68, 150));
        assert_eq!((views[5].1.len(), views[5].2), (40, 40));
        // Stored bytes never exceed the wire length a writer reported.
        a.frame_buf().extend_from_slice(&[9; 50]);
        a.commit(ts(11), 30);
        assert_eq!(a.captured_frames().last().map(|(_, f, o)| (f.len(), o)), Some((30, 30)));
        // clear keeps the snaplen, like the window limit.
        a.clear();
        a.push_frame(ts(1), Clip::Counted, &[1; 90]);
        assert_eq!(a.captured_packets()[0].frame.len(), 68);
    }

    #[test]
    fn buffer_grows_in_steps_not_doubling() {
        let mut a = PacketArena::unbounded();
        a.set_snaplen(68);
        for i in 0..200_000u64 {
            a.push_frame(ts(i), Clip::Counted, &[7; 1_500]);
            let buf = a.frame_buf();
            let slack = buf.capacity() - buf.len();
            assert!(slack <= (buf.len() / 8).max(MIN_GROWTH) + 68, "slack {slack} at {}", buf.len());
        }
        assert_eq!(a.frame_buf().len(), 200_000 * 68);
    }

    #[test]
    fn apply_tap_clamps_in_place_and_drops() {
        let mut a = PacketArena::unbounded();
        for i in 0..10u8 {
            a.frame_buf().extend_from_slice(&[i; 100]);
            a.commit(ts(i as u64), 100);
        }
        let mut tap = Tap::new(68).with_drop_period(5);
        let captured = a.apply_tap(&mut tap);
        assert_eq!(a.len(), 8, "every 5th packet dropped");
        assert_eq!(captured, 8 * 68);
        assert_eq!(a.wire_bytes(), 8 * 100, "dropped wire bytes removed");
        let views: Vec<_> = a.captured_frames().collect();
        assert_eq!(views.len(), 8);
        assert!(views.iter().all(|(_, f, orig)| f.len() == 68 && *orig == 100));
        // Materialized form agrees with the borrowed views.
        let pkts = a.captured_packets();
        assert_eq!(pkts.len(), 8);
        assert!(pkts.iter().all(|p| p.frame.len() == 68 && p.orig_len == 100));
    }

    #[test]
    fn labels_stamp_at_commit_and_reset_on_clear() {
        let mut a = PacketArena::unbounded();
        a.push_frame(ts(1), Clip::Counted, &[1; 4]);
        a.set_label(7);
        assert_eq!(a.current_label(), 7);
        a.push_frame(ts(2), Clip::Counted, &[2; 4]);
        a.frame_buf().extend_from_slice(&[3; 4]);
        a.commit(ts(3), 4);
        a.set_label(0);
        a.push_frame(ts(4), Clip::Counted, &[4; 4]);
        let labels: Vec<u32> = a.labeled_frames().map(|(_, _, _, l)| l).collect();
        assert_eq!(labels, vec![0, 7, 7, 0]);
        assert_eq!(a.label_counts(), vec![(0, 2), (7, 2)]);
        a.set_label(9);
        a.clear();
        a.push_frame(ts(1), Clip::Counted, &[5; 4]);
        assert_eq!(a.label_counts(), vec![(0, 1)], "clear resets the label");
    }

    #[test]
    fn labels_ride_through_sort_and_tap() {
        let mut a = PacketArena::unbounded();
        // Frame byte i encodes the record's label so identity survives
        // reordering: record i carries label (i % 3).
        for i in 0..30u8 {
            a.set_label(u32::from(i % 3));
            // Descending timestamps force a full reorder.
            a.push_frame(ts(1_000 - u64::from(i)), Clip::Counted, &[i; 90]);
        }
        a.sort_records();
        for (_, frame, _, label) in a.labeled_frames() {
            assert_eq!(label, u32::from(frame[0] % 3), "label moved with its record");
        }
        assert_eq!(a.label_counts(), vec![(0, 10), (1, 10), (2, 10)]);
        let mut tap = Tap::new(68).with_drop_period(5);
        a.apply_tap(&mut tap);
        assert_eq!(a.len(), 24);
        let total: u64 = a.label_counts().iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 24, "no orphaned or duplicated labels after tap");
        for (_, frame, _, label) in a.labeled_frames() {
            assert_eq!(label, u32::from(frame[0] % 3), "snaplen clamp keeps labels");
        }
    }

    #[test]
    fn push_frame_roundtrip_and_clear() {
        let mut a = PacketArena::new(ts(10));
        a.push_frame(ts(1), Clip::Counted, &[7; 9]);
        a.push_frame(ts(50), Clip::Counted, &[8; 4]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.logical_len(), 2);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.logical_len(), 0);
        assert_eq!(a.logical_wire_bytes(), 0);
        // Reusable after clear, same limit.
        a.push_frame(ts(2), Clip::Counted, &[9; 3]);
        assert_eq!(a.captured_packets()[0].frame, vec![9, 9, 9]);
    }
}
