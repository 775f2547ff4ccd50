//! Capture helpers shared by the workloads, and the isolation passes for
//! layers the pipeline fuses inside `analyze_*` and `Monitor::observe`:
//! each pass runs one layer's public function alone over the frames the
//! workload just analyzed, so its cost shows as a span of its own.

use crate::trace::Tracer;
use ent_core::PipelineMetrics;
use ent_flow::{CollectSummaries, ConnTable, TableConfig};
use ent_pcap::{PcapWriter, RecoveringReader, TimedPacket};
use ent_wire::{Packet, Timestamp};
use std::hint::black_box;

/// A borrowed captured frame: (timestamp, captured bytes, wire length).
pub type Frame<'a> = (Timestamp, &'a [u8], u32);

/// Serialize frames with `PcapWriter`, as a capture file held in memory.
pub fn write_pcap<'a>(snaplen: u32, frames: impl Iterator<Item = Frame<'a>>) -> Vec<u8> {
    let mut writer = PcapWriter::new(Vec::new(), snaplen).expect("writes to memory");
    for (ts, frame, orig_len) in frames {
        let pkt = TimedPacket {
            ts,
            frame: frame.to_vec(),
            orig_len,
        };
        writer.write_packet(&pkt).expect("writes to memory");
    }
    writer.finish().expect("writes to memory")
}

/// Every record of a capture the benchmark wrote itself.
pub fn read_frames(pcap: &[u8]) -> Vec<Frame<'_>> {
    let mut reader =
        RecoveringReader::new(pcap).expect("benchmark-written capture has a valid header");
    std::iter::from_fn(|| reader.next_record().map(|r| (r.ts, r.frame, r.orig_len))).collect()
}

/// `pcap.read`: a standalone `RecoveringReader::next_record` pass, then the
/// frame layers over the same records.
pub fn isolate_capture(tr: &mut Tracer, pcap: &[u8], max_conns: usize) {
    let stats = tr.isolate("pcap.read", || {
        let mut reader =
            RecoveringReader::new(pcap).expect("benchmark-written capture has a valid header");
        while let Some(rec) = reader.next_record() {
            black_box(rec);
        }
        reader.stats().clone()
    });
    tr.add("pcap.records", stats.records as f64);
    tr.add("pcap.damage_events", stats.damage_events() as f64);
    isolate_frames(tr, &read_frames(pcap), max_conns);
}

/// `wire.parse` (a standalone `Packet::parse` pass) and `flow.ingest` (parse
/// plus `ConnTable::ingest`/`finish` into `CollectSummaries`, under the
/// workload's connection budget).
pub fn isolate_frames(tr: &mut Tracer, frames: &[Frame<'_>], max_conns: usize) {
    let errors = tr.isolate("wire.parse", || {
        frames
            .iter()
            .filter(|(_, frame, _)| black_box(Packet::parse(frame)).is_err())
            .count()
    });
    tr.add("wire.parse_errors", errors as f64);
    let (conns, stats) = tr.isolate("flow.ingest", || {
        let mut table = ConnTable::new(TableConfig {
            max_conns,
            ..TableConfig::default()
        });
        let mut sink = CollectSummaries::default();
        let mut end = Timestamp::ZERO;
        for &(ts, frame, _) in frames {
            if let Ok(pkt) = Packet::parse(frame) {
                table.ingest(&pkt, ts, &mut sink);
            }
            end = end.max(ts);
        }
        table.finish(end, &mut sink);
        (sink.summaries.len(), *table.stats())
    });
    tr.add("flow.conns", conns as f64);
    tr.max("flow.peak_open_conns", stats.peak_open_conns as f64);
    tr.add("flow.evicted_conns", stats.evicted_conns as f64);
}

/// `proto.<analyzer>.events` and `proto.bytes`, exact counts from the
/// program's own metrics.
pub fn add_proto(tr: &mut Tracer, metrics: &PipelineMetrics) {
    let mut bytes = 0;
    for (name, stat) in metrics.analyzers.named() {
        tr.add(&format!("proto.{name}.events"), stat.events as f64);
        bytes += stat.bytes;
    }
    tr.add("proto.bytes", bytes as f64);
}
