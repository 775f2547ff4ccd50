//! Backup applications: Veritas, Dantz Retrospect and the external
//! "Connected" service (§5.2.3, Table 15).
//!
//! Calibration targets:
//! * connection-count ratio ≈ Veritas-ctrl 1271 : Veritas-data 352 :
//!   Dantz 1013 : Connected 105, with Veritas control connections nearly
//!   empty (0.1 MB total) while data connections are enormous;
//! * Veritas data flows are strictly client → server;
//! * Dantz connections are *bidirectional*, sometimes with tens of MB in
//!   both directions within a single connection;
//! * Connected backs up to an external site (the only WAN backup);
//! * one Veritas backup connection exhibits a ~5% retransmission rate
//!   (the paper's flaky-NIC/congestion trace in §6, 2 GB over an hour).

use super::TraceCtx;
use crate::distr::{coin, LogNormal};
use crate::network::Role;
use crate::synth::{Close, Exchange, Payload, TcpSessionSpec};
use rand::RngExt;

/// Generate all backup traffic for one trace.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    let vol = ctx.spec.backup_volume;
    let n = ctx.heavy_count(ctx.spec.rates.backup * vol);
    let backup_here = ctx.hosts_role(Role::BackupServer);
    let Some(srv) = ctx.server(Role::BackupServer) else {
        return;
    };
    for _ in 0..n {
        let kind: f64 = ctx.rng.random();
        let client_host = if backup_here {
            ctx.internal_peer_client()
        } else {
            ctx.local_client()
        };
        let client_port = ctx.eph();
        let client = ctx.peer_of(&client_host, client_port);
        let rtt = ctx.rtt_internal();
        if kind < 0.47 {
            // Veritas control: chatty, tiny.
            let server = ctx.peer_of(&srv, 13_720);
            let msgs = ctx.rng.random_range(2..8);
            let mut exchanges = Vec::with_capacity(2 * msgs as usize);
            for _ in 0..msgs {
                exchanges.push(Exchange::client(Payload::fill(0x56, 60), 50_000));
                exchanges.push(Exchange::server(Payload::fill(0x56, 40), 20_000));
            }
            let spec = TcpSessionSpec::success(ctx.start(), client, server, rtt, exchanges);
            ctx.tcp(&spec);
        } else if kind < 0.60 {
            // Veritas data: one-way client→server bulk.
            let server = ctx.peer_of(&srv, 13_724);
            let full = LogNormal::from_median(18e6, 1.2).sample_clamped(&mut ctx.rng, 1e6, 300e6);
            let bytes = ctx.heavy_size(full);
            let mut spec = TcpSessionSpec::success(
                ctx.early_start(0.4),
                client,
                server,
                rtt,
                Vec::from([Exchange::client(Payload::fill(0xBB, bytes), 10_000)]),
            );
            // The flaky path of §6: at the D4 backup vantage one Veritas
            // connection crosses a flaky NIC and retransmits ~5%.
            if ctx.spec.name == "D4" && ctx.subnet == 27 {
                spec.retx_rate = 0.05;
            }
            spec.close = Close::Fin;
            ctx.tcp(&spec);
        } else if kind < 0.95 {
            // Dantz: bidirectional, large both ways within one connection.
            let server = ctx.peer_of(&srv, 497);
            let full = LogNormal::from_median(10e6, 1.4).sample_clamped(&mut ctx.rng, 2e5, 200e6);
            let up = ctx.heavy_size(full);
            let down = if coin(&mut ctx.rng, 0.5) {
                // Heavily bidirectional: tens of MB each way at full scale.
                ((up as f64) * (0.3 + 0.6 * ctx.rng.random::<f64>())).max(150_000.0) as usize
            } else {
                ctx.rng.random_range(2_000..60_000)
            };
            let mut exchanges = Vec::from([Exchange::client(Payload::fill(0xDA, 400), 0)]);
            // Interleave chunks in both directions (fingerprint exchange).
            let mut u = up;
            let mut d = down;
            while u > 0 || d > 0 {
                if u > 0 {
                    let c = u.min(2_000_000);
                    exchanges.push(Exchange::client(Payload::fill(0xDA, c), 5_000));
                    u -= c;
                }
                if d > 0 {
                    let c = d.min(1_000_000);
                    exchanges.push(Exchange::server(Payload::fill(0xAD, c), 5_000));
                    d -= c;
                }
            }
            let spec = TcpSessionSpec::success(ctx.early_start(0.4), client, server, rtt, exchanges);
            ctx.tcp(&spec);
        } else {
            // Connected: off-site backup over the WAN.
            let server = ctx.wan_peer(16_384);
            let rtt = ctx.rtt_wan();
            let full = LogNormal::from_median(2e6, 1.0).sample_clamped(&mut ctx.rng, 1e5, 20e6);
            let bytes = ctx.heavy_size(full);
            let spec = TcpSessionSpec::success(
                ctx.early_start(0.5),
                client,
                server,
                rtt,
                Vec::from([
                    Exchange::client(Payload::fill(0xC0, 200), 0),
                    Exchange::server(Payload::fill(0xC0, 150), 30_000),
                    Exchange::client(Payload::fill(0xC0, bytes), 50_000),
                ]),
            );
            ctx.tcp(&spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_flow::{CollectSummaries, ConnTable, TableConfig};
    use ent_wire::{Packet, Timestamp};

    fn summaries(pkts: &[ent_pcap::TimedPacket]) -> Vec<ent_flow::ConnSummary> {
        let mut sorted = pkts.to_vec();
        sorted.sort_by_key(|p| p.ts);
        let mut t = ConnTable::new(TableConfig::default());
        let mut h = CollectSummaries::default();
        for p in &sorted {
            t.ingest(&Packet::parse(&p.frame).unwrap(), p.ts, &mut h);
        }
        t.finish(Timestamp::from_secs(4_000), &mut h);
        h.summaries
    }

    #[test]
    fn veritas_one_way_dantz_bidirectional() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 5);
        for _ in 0..160 {
            generate(&mut c);
        }
        let sums = summaries(&c.out.captured_packets());
        let vdata: Vec<_> = sums.iter().filter(|s| s.key.resp.port == 13_724).collect();
        let dantz: Vec<_> = sums.iter().filter(|s| s.key.resp.port == 497).collect();
        assert!(!vdata.is_empty() && !dantz.is_empty());
        for s in &vdata {
            assert!(
                s.resp.payload_bytes < s.orig.payload_bytes / 50,
                "Veritas data must be one-way client→server"
            );
        }
        let bidir = dantz
            .iter()
            .filter(|s| s.resp.payload_bytes > 50_000 && s.orig.payload_bytes > 50_000)
            .count();
        assert!(bidir > 0, "some Dantz connections must be heavily bidirectional");
    }

    #[test]
    fn control_connections_tiny_data_connections_huge() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 5);
        for _ in 0..160 {
            generate(&mut c);
        }
        let sums = summaries(&c.out.captured_packets());
        let ctrl_bytes: u64 = sums
            .iter()
            .filter(|s| s.key.resp.port == 13_720)
            .map(|s| s.total_payload())
            .sum();
        let data_bytes: u64 = sums
            .iter()
            .filter(|s| s.key.resp.port == 13_724)
            .map(|s| s.total_payload())
            .sum();
        assert!(data_bytes > ctrl_bytes * 100, "ctrl {ctrl_bytes} vs data {data_bytes}");
    }

    #[test]
    fn connected_goes_to_wan() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[4], 27);
        for _ in 0..80 {
            generate(&mut c);
        }
        let sums = summaries(&c.out.captured_packets());
        let connected: Vec<_> = sums.iter().filter(|s| s.key.resp.port == 16_384).collect();
        assert!(!connected.is_empty(), "no Connected sessions generated");
        for s in &connected {
            assert!(
                !crate::network::is_internal(s.key.resp.addr),
                "Connected must back up off-site"
            );
        }
    }
}
