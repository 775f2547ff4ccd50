//! Differential pin for capture-shaped emission.
//!
//! A [`PacketArena`] with a snaplen stores only the first `snaplen` bytes
//! of each frame (the frame builders write no byte past it), while a
//! whole-frame arena stores everything and leaves the clamp to the
//! capture [`Tap`]. Both must yield the same capture: after sort and the
//! same tap, every captured frame (timestamp, bytes, original length),
//! every label, the wire bytes and the logical (window-clipped) counts
//! are identical. The mixes are seeded random TCP, UDP and ICMP sessions
//! plus prebuilt frames, emitted across a window limit so clipped
//! packets are tallied too.

// Test assertions may abort.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use ent_gen::synth::{
    emit_icmp_echo, emit_tcp, emit_udp, Close, Exchange, Keepalives, Outcome, Payload, Peer,
    TcpSessionSpec, UdpFlowSpec, UdpMessage,
};
use ent_pcap::{Clip, PacketArena, Tap};
use ent_wire::{ethernet::MacAddr, ipv4::Addr, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Snaplens under test: below the UDP header, the TCP header, the
/// header-only datasets' 68, a short payload prefix, full Ethernet, and
/// whole frames.
const SNAPLENS: [usize; 6] = [42, 54, 68, 100, 1_500, usize::MAX];

/// Window limit of both arenas: sessions start before it and overrun it.
const LIMIT_US: u64 = 4_000_000;

fn peer(rng: &mut StdRng, port: u16) -> Peer {
    Peer::wan(
        Addr::new(
            10,
            rng.random_range(0..4u8),
            rng.random_range(0..8u8),
            rng.random_range(1..250u8),
        ),
        MacAddr::from_host_id(rng.random_range(1..64u32)),
        port,
    )
}

fn payload(rng: &mut StdRng) -> Payload {
    let head_len = rng.random_range(0..40usize);
    let head: Vec<u8> = (0..head_len).map(|_| rng.random::<u8>()).collect();
    let fill_len = match rng.random_range(0..4u32) {
        0 => 0,
        1 => rng.random_range(1..64usize),
        2 => rng.random_range(64..3_000usize),
        _ => rng.random_range(3_000..20_000usize),
    };
    Payload::head_fill(head, rng.random::<u8>(), fill_len)
}

fn tcp_session(rng: &mut StdRng) -> TcpSessionSpec {
    let start = Timestamp::from_micros(rng.random_range(0..LIMIT_US));
    let client_port = rng.random_range(1_024..65_000u16);
    let client = peer(rng, client_port);
    let server_port = [80u16, 139, 445, 2049][rng.random_range(0..4usize)];
    let server = peer(rng, server_port);
    let exchanges = (0..rng.random_range(0..5usize))
        .map(|i| {
            let gap = rng.random_range(0..200_000u64);
            if i % 2 == 0 {
                Exchange::client(payload(rng), gap)
            } else {
                Exchange::server(payload(rng), gap)
            }
        })
        .collect();
    let mut spec = TcpSessionSpec::success(
        start,
        client,
        server,
        rng.random_range(100..80_000u64),
        exchanges,
    );
    spec.outcome = [
        Outcome::Success,
        Outcome::Success,
        Outcome::Rejected,
        Outcome::Unanswered,
    ][rng.random_range(0..4usize)];
    spec.close = [Close::Fin, Close::Rst, Close::None][rng.random_range(0..3usize)];
    spec.retx_rate = [0.0, 0.05, 0.3][rng.random_range(0..3usize)];
    if rng.random_range(0..4u32) == 0 {
        spec.keepalives = Some(Keepalives {
            interval_us: rng.random_range(100_000..900_000u64),
            count: rng.random_range(1..4u32),
        });
    }
    spec
}

fn udp_flow(rng: &mut StdRng) -> UdpFlowSpec {
    let messages = (0..rng.random_range(1..6usize))
        .map(|i| UdpMessage {
            from_client: i % 2 == 0,
            payload: payload(rng),
            gap_us: rng.random_range(0..300_000u64),
        })
        .collect();
    let start = Timestamp::from_micros(rng.random_range(0..LIMIT_US));
    let client_port = rng.random_range(1_024..65_000u16);
    let client = peer(rng, client_port);
    let server_port = [53u16, 137, 2049, 427][rng.random_range(0..4usize)];
    let server = peer(rng, server_port);
    UdpFlowSpec {
        start,
        client,
        server,
        half_rtt_us: rng.random_range(50..20_000u64),
        messages,
        multicast_mac: None,
    }
}

/// Emit one seeded mix into `arena`. Session specs and the per-session
/// RNG are drawn from `seed` alone, so every arena sees identical calls.
fn emit_mix(seed: u64, arena: &mut PacketArena) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..40 {
        arena.set_label(rng.random_range(0..3u32));
        let clip = if rng.random_range(0..3u32) == 0 {
            Clip::Silent
        } else {
            Clip::Counted
        };
        match rng.random_range(0..4u32) {
            0 | 1 => {
                let spec = tcp_session(&mut rng);
                let mut session_rng = StdRng::seed_from_u64(rng.random::<u64>());
                emit_tcp(&spec, &mut session_rng, arena, clip);
            }
            2 => emit_udp(&udp_flow(&mut rng), arena, clip),
            _ if rng.random_range(0..2u32) == 0 => {
                let start = Timestamp::from_micros(rng.random_range(0..LIMIT_US));
                let (client, server) = (peer(&mut rng, 0), peer(&mut rng, 0));
                let (rtt, ident, count) = (
                    rng.random_range(100..50_000u64),
                    rng.random::<u16>(),
                    rng.random_range(1..6u16),
                );
                emit_icmp_echo(
                    start,
                    client,
                    server,
                    rtt,
                    ident,
                    count,
                    rng.random::<bool>(),
                    arena,
                    clip,
                );
            }
            _ => {
                let len = rng.random_range(14..1_600usize);
                let frame: Vec<u8> = (0..len).map(|_| rng.random::<u8>()).collect();
                let ts = Timestamp::from_micros(rng.random_range(0..LIMIT_US + 500_000));
                arena.push_frame(ts, clip, &frame);
            }
        }
    }
}

/// Emit, sort and tap one mix into an arena storing at most `arena_snap`
/// bytes per frame, through a tap with `tap_snap` and periodic drops.
fn capture(seed: u64, arena_snap: usize, tap_snap: usize) -> PacketArena {
    let mut arena = PacketArena::new(Timestamp::from_micros(LIMIT_US));
    arena.set_snaplen(arena_snap);
    emit_mix(seed, &mut arena);
    arena.sort_records();
    arena.apply_tap(&mut Tap::new(tap_snap).with_drop_period(7));
    arena
}

#[test]
fn snaplen_arena_matches_whole_frames_through_the_tap() {
    for seed in 0..12u64 {
        for snaplen in SNAPLENS {
            let mut shaped = capture(seed, snaplen, snaplen);
            let mut full = capture(seed, usize::MAX, snaplen);
            let ctx = format!("seed {seed}, snaplen {snaplen}");
            assert!(shaped.len() > 20, "{ctx}: mix too small ({})", shaped.len());
            assert!(
                shaped.captured_frames().eq(full.captured_frames()),
                "{ctx}: captured frames differ"
            );
            assert!(
                shaped.labeled_frames().eq(full.labeled_frames()),
                "{ctx}: labeled frames differ"
            );
            assert_eq!(shaped.wire_bytes(), full.wire_bytes(), "{ctx}: wire bytes");
            assert_eq!(
                shaped.logical_len(),
                full.logical_len(),
                "{ctx}: logical len"
            );
            assert_eq!(
                shaped.logical_wire_bytes(),
                full.logical_wire_bytes(),
                "{ctx}: logical wire bytes"
            );
            // Below the largest frame the shaped arena stores strictly less.
            let (stored, whole) = (shaped.frame_buf().len(), full.frame_buf().len());
            if snaplen < 1_500 {
                assert!(stored < whole, "{ctx}: stores {stored} of {whole} bytes");
            } else {
                assert!(stored <= whole, "{ctx}: stores {stored} of {whole} bytes");
            }
        }
    }
}

/// A tap wider than the arena's snaplen cannot widen the capture: it
/// returns each frame's stored prefix, which equals a whole-frame arena
/// tapped at the arena's snaplen.
#[test]
fn wider_tap_returns_the_stored_prefix_only() {
    for seed in 100..104u64 {
        let shaped = capture(seed, 68, 1_500);
        let full = capture(seed, usize::MAX, 68);
        assert!(shaped
            .captured_frames()
            .all(|(_, f, orig)| f.len() == (orig as usize).min(68)));
        assert!(
            shaped.captured_frames().eq(full.captured_frames()),
            "seed {seed}"
        );
        assert_eq!(shaped.wire_bytes(), full.wire_bytes(), "seed {seed}");
    }
}
