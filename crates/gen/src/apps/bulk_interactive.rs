//! Bulk transfer (FTP, HPSS) and interactive remote access (SSH, telnet,
//! rlogin, X11).
//!
//! Calibration targets: bulk contributes a major byte share with few
//! connections (Figure 1a); interactive traffic's *packet* share is about
//! twice its byte share (small keystroke/echo packets, §3), and SSH also
//! carries occasional bulk file copies (the paper notes SSH doubles as a
//! copy/tunnel transport).

use super::TraceCtx;
use crate::distr::{coin, LogNormal, Pareto};
use crate::network::Role;
use crate::synth::{Close, Exchange, Payload, TcpSessionSpec};
use rand::RngExt;

/// Generate bulk + interactive traffic for one trace.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    bulk(ctx);
    interactive(ctx);
}

fn bulk(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.bulk; ctx.heavy_count(rate) };
    for _ in 0..n {
        let hpss = coin(&mut ctx.rng, 0.4);
        let wan = !hpss && coin(&mut ctx.rng, 0.5);
        let client_host = if wan { ctx.local_wan_client() } else { ctx.local_client() };
        let (ctrl_port, data_port) = if hpss { (1_217, 1_218) } else { (21, 20) };
        let (server, rtt) = if wan {
            (ctx.wan_peer(ctrl_port), ctx.rtt_wan())
        } else {
            let Some(srv) = ctx.server(Role::BulkServer) else {
                continue;
            };
            (ctx.peer_of(&srv, ctrl_port), ctx.rtt_internal())
        };
        let start = ctx.early_start(0.6);
        // Control dialogue.
        let client = ctx.peer_eph(&client_host);
        let mut exchanges = Vec::from([
            Exchange::server(Payload::from_static(b"220 FTP server ready\r\n"), 0),
            Exchange::client(Payload::from_static(b"USER operator\r\n"), 80_000),
            Exchange::server(Payload::from_static(b"331 password\r\n"), 5_000),
            Exchange::client(Payload::from_static(b"PASS ******\r\n"), 60_000),
            Exchange::server(Payload::from_static(b"230 logged in\r\n"), 8_000),
            Exchange::client(Payload::from_static(b"RETR dataset.tar\r\n"), 150_000),
            Exchange::server(Payload::from_static(b"150 opening data connection\r\n"), 5_000),
        ]);
        exchanges.push(Exchange::server(Payload::from_static(b"226 transfer complete\r\n"), 400_000));
        let ctrl = TcpSessionSpec::success(start, client, server, rtt, exchanges);
        ctx.tcp(&ctrl);
        // Data connection: server-side source port 20 (active mode).
        let full = Pareto {
            scale: 3e6,
            alpha: 1.15,
        }
        .sample(&mut ctx.rng)
        .min(400e6);
        let bytes = ctx.heavy_size(full);
        let data_client = ctx.peer_eph(&client_host);
        let mut data_server = server;
        data_server.port = data_port;
        let data = TcpSessionSpec::success(
            start + 600_000,
            data_client,
            data_server,
            rtt,
            Vec::from([Exchange::server(Payload::fill(0xF7, bytes), 0)]),
        );
        ctx.tcp(&data);
    }
}

fn interactive(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.interactive; ctx.count(rate) };
    for _ in 0..n {
        let kind: f64 = ctx.rng.random();
        let wan = coin(&mut ctx.rng, 0.3);
        let client_host = if wan { ctx.local_wan_client() } else { ctx.local_client() };
        let client = ctx.peer_eph(&client_host);
        let (port, is_ssh) = if kind < 0.7 {
            (22u16, true)
        } else if kind < 0.85 {
            (23, false)
        } else if kind < 0.93 {
            (513, false)
        } else {
            (6_000 + ctx.rng.random_range(0..4u16), false)
        };
        let (server, rtt) = if wan && is_ssh {
            (ctx.wan_peer(port), ctx.rtt_wan())
        } else {
            let h = ctx.remote_internal();
            (ctx.peer_of(&h, port), ctx.rtt_internal())
        };
        let mut exchanges = Vec::with_capacity(8);
        if is_ssh {
            exchanges.push(Exchange::client(Payload::from_static(b"SSH-2.0-OpenSSH_3.9\r\n"), 0));
            exchanges.push(Exchange::server(Payload::from_static(b"SSH-2.0-OpenSSH_3.8.1p1\r\n"), 2_000));
            // Key exchange blobs.
            exchanges.push(Exchange::client(Payload::fill(0x14, 600), 5_000));
            exchanges.push(Exchange::server(Payload::fill(0x14, 760), 5_000));
        }
        if is_ssh && coin(&mut ctx.rng, 0.12) {
            // scp-style bulk copy inside SSH.
            let full = LogNormal::from_median(8e6, 1.3).sample_clamped(&mut ctx.rng, 1e5, 100e6);
            let bytes = ctx.heavy_size(full);
            exchanges.push(Exchange::client(Payload::fill(0x00, bytes), 100_000));
        } else {
            // Keystroke/echo dialogue: many tiny packets over minutes.
            let keys = ctx.rng.random_range(40..400usize);
            for _ in 0..keys {
                let gap = LogNormal::from_median(400_000.0, 1.0)
                    .sample_clamped(&mut ctx.rng, 20_000.0, 5_000_000.0) as u64;
                exchanges.push(Exchange::client(Payload::fill(0x01, ctx.rng.random_range(1..48)), gap));
                exchanges.push(Exchange::server(
                    Payload::fill(0x02, ctx.rng.random_range(1..512)),
                    2_000,
                ));
            }
        }
        let mut spec = TcpSessionSpec::success(ctx.early_start(0.3), client, server, rtt, exchanges);
        spec.close = if coin(&mut ctx.rng, 0.6) { Close::Fin } else { Close::None };
        ctx.tcp_trimmed(&spec);
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_wire::Packet;

    #[test]
    fn interactive_packets_are_small() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[0], 9);
        for _ in 0..20 {
            interactive(&mut c);
        }
        let mut pkts = 0u64;
        let mut bytes = 0u64;
        for p in &c.out.captured_packets() {
            let pkt = Packet::parse(&p.frame).unwrap();
            if let Some(t) = pkt.tcp() {
                if t.wire_payload_len > 0 {
                    pkts += 1;
                    bytes += t.wire_payload_len as u64;
                }
            }
        }
        assert!(pkts > 500);
        let avg = bytes as f64 / pkts as f64;
        assert!(avg < 600.0, "interactive mean payload {avg} too large");
    }

    #[test]
    fn bulk_moves_big_one_way_flows() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 5);
        for _ in 0..60 {
            bulk(&mut c);
        }
        let mut data_bytes = 0u64;
        for p in &c.out.captured_packets() {
            let pkt = Packet::parse(&p.frame).unwrap();
            if let Some(t) = pkt.tcp() {
                if t.src_port == 20 || t.src_port == 1_218 {
                    data_bytes += t.wire_payload_len as u64;
                }
            }
        }
        assert!(data_bytes > 800_000, "bulk data only {data_bytes} bytes");
    }
}
