//! Allocation pin for connection finalization.
//!
//! The hot-path overhaul removed the per-connection `summary.clone()` on
//! the finalize path: summaries now flow to handlers as `&ConnSummary` and
//! are materialized by copy (`ConnSummary` is `Copy`). This test pins that
//! contract with a counting global allocator: draining a full table emits
//! every summary with **zero** heap allocations, independent of how many
//! connections are open — so a reintroduced per-conn clone/box shows up as
//! an O(n) allocation count, not a silent perf regression.
//!
//! The counting allocator is `ent_integration::alloc_count`'s: it counts
//! only the calling thread's allocations, so the pins hold however many
//! harness threads run sibling tests beside them.

// Test assertions may abort.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_core::{Monitor, MonitorConfig};
use ent_integration::alloc_count::{self, CountingAlloc};
use ent_flow::{ConnSummary, ConnTable, FlowHandler, TableConfig};
use ent_pcap::TraceMeta;
use ent_wire::{build, ethernet::MacAddr, ipv4::Addr, Packet, Timestamp};

/// Compile-time proof that `ConnSummary` stays `Copy` (the property that
/// makes clone-free finalize possible; see `crates/flow/src/summary.rs`).
const fn assert_copy<T: Copy>() {}
const _: () = assert_copy::<ConnSummary>();

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Observes every summary by reference and aggregates without storing —
/// the shape of a handler that needs no per-conn heap state.
#[derive(Default)]
struct Aggregate {
    closed: u64,
    payload: u64,
}

impl FlowHandler for Aggregate {
    fn on_conn_closed(&mut self, _idx: ent_flow::ConnIndex, summary: &ConnSummary) {
        self.closed += 1;
        self.payload += summary.orig.payload_bytes + summary.resp.payload_bytes;
    }
}

/// Open `n` distinct UDP connections, then count heap allocations while
/// `finish` drains and summarizes all of them.
fn finish_alloc_count(n: u16) -> (u64, u64) {
    let mut table = ConnTable::new(TableConfig {
        expected_conns: usize::from(n),
        ..Default::default()
    });
    let mut sink = Aggregate::default();
    for i in 0..n {
        let frame = build::udp_frame(
            &build::UdpFrameSpec {
                src_mac: MacAddr::from_host_id(1),
                dst_mac: MacAddr::from_host_id(2),
                src_ip: Addr::new(10, 0, 1, 5),
                dst_ip: Addr::new(10, 0, 2, 9),
                src_port: 1024 + i,
                dst_port: 53,
                ttl: 64,
            },
            b"payload",
        );
        let pkt = Packet::parse(&frame).expect("generated frame parses");
        table.ingest(&pkt, Timestamp::from_micros(u64::from(i)), &mut sink);
    }
    let ((), tally) = alloc_count::count(|| table.finish(Timestamp::from_secs(10), &mut sink));
    (tally.allocs, sink.closed)
}

/// The fused parse+ingest pass (Engine::ingest_frame) in steady
/// state: once the connection table, per-second bins and analyzer slab
/// are warm, re-observing established flows must perform **zero** heap
/// allocations per packet — frame dissection, layer tallying, stage-stat
/// updates and flow ingest all run in place. A reintroduced per-packet
/// allocation (owned frame copy, boxed analyzer state, a Vec in the lap
/// accounting) shows up here as an O(packets) count.
#[test]
fn fused_parse_ingest_makes_zero_steady_state_allocations() {
    let frames: Vec<Vec<u8>> = (0..32u16)
        .map(|i| {
            build::udp_frame(
                &build::UdpFrameSpec {
                    src_mac: MacAddr::from_host_id(7),
                    dst_mac: MacAddr::from_host_id(8),
                    src_ip: Addr::new(10, 0, 7, 3),
                    dst_ip: Addr::new(10, 0, 8, 4),
                    src_port: 2_048 + i,
                    dst_port: 9_009,
                    ttl: 64,
                },
                b"fused-pin",
            )
        })
        .collect();
    let meta = TraceMeta {
        dataset: "pin".into(),
        subnet: 0,
        pass: 1,
        duration: Timestamp::from_secs(300),
        snaplen: 1_500,
        link_capacity_bps: 100_000_000,
    };
    let mut mon = Monitor::new(meta, MonitorConfig::default(), 4_096);
    // Warm pass: opens every flow, sizes the table/slab/bins once.
    for (i, f) in frames.iter().enumerate() {
        let reports = mon.observe(Timestamp::from_micros(i as u64), f, f.len() as u32);
        assert!(reports.is_empty(), "warm pass must stay inside one epoch");
    }

    // Steady passes: same flows, later timestamps, same epoch. This walks
    // the fused loop well past a LAP_STRIDE boundary so the sampled
    // (clocked) packets are covered too.
    let (quiet, tally) = alloc_count::count(|| {
        let mut quiet = true;
        for rep in 1..=4u64 {
            for (i, f) in frames.iter().enumerate() {
                let ts = Timestamp::from_micros(rep * 1_000_000 + i as u64);
                quiet &= mon.observe(ts, f, f.len() as u32).is_empty();
            }
        }
        quiet
    });
    assert!(quiet, "steady passes must stay inside one epoch");
    assert_eq!(
        tally.allocs, 0,
        "fused parse+ingest allocated on the per-packet path"
    );
}

#[test]
fn finalize_makes_zero_per_conn_summary_allocations() {
    let (small_allocs, small_closed) = finish_alloc_count(64);
    let (large_allocs, large_closed) = finish_alloc_count(512);
    assert_eq!(small_closed, 64, "every opened conn must be summarized");
    assert_eq!(large_closed, 512, "every opened conn must be summarized");
    assert_eq!(
        small_allocs, 0,
        "finalize allocated on the summary path (n=64)"
    );
    assert_eq!(
        large_allocs, 0,
        "finalize allocated on the summary path (n=512)"
    );
}
