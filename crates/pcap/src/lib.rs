//! # ent-pcap — capture files and the LBNL capture rig
//!
//! Implements the classic libpcap file format (read and write, both byte
//! orders, microsecond resolution), snaplen truncation, configurable packet
//! drops, and the multi-NIC timestamp merge that the paper's measurement
//! apparatus performed: each Shomiti tap produced one *unidirectional* packet
//! stream per router-port direction, and streams were merged by NIC-driver-
//! synchronized timestamps into a single per-subnet trace.
//!
//! ```
//! use ent_pcap::{PcapWriter, PcapReader, TimedPacket};
//! use ent_wire::Timestamp;
//!
//! let pkt = TimedPacket::new(Timestamp::from_millis(5), vec![0u8; 60]);
//! let mut buf = Vec::new();
//! {
//!     let mut w = PcapWriter::new(&mut buf, 1500).unwrap();
//!     w.write_packet(&pkt).unwrap();
//! }
//! let mut r = PcapReader::new(&buf[..]).unwrap();
//! let got = r.next_packet().unwrap().unwrap();
//! assert_eq!(got.ts, pkt.ts);
//! assert_eq!(got.frame, pkt.frame);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Ingest code must degrade gracefully, never abort: panicking escape
// hatches are compile errors outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arena;
pub mod fault;
pub mod format;
pub mod merge;
pub mod recover;
pub mod tap;
pub mod trace;

pub use arena::{Clip, PacketArena};
pub use fault::{Fault, FaultInjector};
pub use format::{PcapReader, PcapWriter, LINKTYPE_ETHERNET, MAX_RECORD_BYTES};
pub use merge::{merge_streams, merge_streams_with_stats, MergeStats};
pub use recover::{IngestStats, RecordView, RecoveringReader};
pub use tap::Tap;
pub use trace::{Trace, TraceMeta};

use ent_wire::Timestamp;

/// A captured packet: timestamp, captured bytes, and the original
/// on-the-wire length (which exceeds `frame.len()` when snaplen truncated
/// the capture).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedPacket {
    /// Capture timestamp.
    pub ts: Timestamp,
    /// Captured frame bytes (at most snaplen).
    pub frame: Vec<u8>,
    /// Original frame length on the wire.
    pub orig_len: u32,
}

impl TimedPacket {
    /// A packet captured in full.
    pub fn new(ts: Timestamp, frame: Vec<u8>) -> TimedPacket {
        let orig_len = frame.len() as u32;
        TimedPacket { ts, frame, orig_len }
    }

    /// An owned copy of captured bytes `frame` of a packet that was
    /// `orig_len` bytes on the wire.
    pub fn captured(ts: Timestamp, frame: &[u8], orig_len: u32) -> TimedPacket {
        TimedPacket {
            ts,
            frame: frame.to_vec(),
            orig_len,
        }
    }

    /// Truncate the captured bytes to `snaplen`, preserving `orig_len`.
    pub fn truncate_to(&mut self, snaplen: usize) {
        if self.frame.len() > snaplen {
            self.frame.truncate(snaplen);
        }
    }

    /// True if the capture is shorter than the wire frame.
    pub fn is_truncated(&self) -> bool {
        (self.frame.len() as u32) < self.orig_len
    }
}

/// Errors arising from capture-file I/O.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a pcap file (bad magic) or uses an unsupported
    /// link type / version.
    BadFormat(&'static str),
}

impl core::fmt::Display for PcapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadFormat(m) => write!(f, "bad pcap format: {m}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<std::io::Error> for PcapError {
    fn from(e: std::io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// Result alias for capture-file operations.
pub type Result<T> = std::result::Result<T, PcapError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_packet_truncation() {
        let mut p = TimedPacket::new(Timestamp::ZERO, vec![0u8; 100]);
        assert!(!p.is_truncated());
        p.truncate_to(68);
        assert!(p.is_truncated());
        assert_eq!(p.frame.len(), 68);
        assert_eq!(p.orig_len, 100);
        p.truncate_to(200); // no-op
        assert_eq!(p.frame.len(), 68);
    }
}
