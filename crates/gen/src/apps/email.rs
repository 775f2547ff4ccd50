//! Email traffic: SMTP, IMAP4/IMAP-S, POP and LDAP (§5.1.2, Table 8,
//! Figures 5–6).
//!
//! Calibration targets:
//! * SMTP and IMAP(/S) carry >94% of email bytes; D0 still shows
//!   cleartext IMAP4, D1+ only IMAP/S (the site's policy change);
//! * D0–D2 monitor the main mail servers: much higher volume, plus WAN
//!   SMTP success dipping to 71–93% (vs 99–100% at D3–D4);
//! * SMTP durations ≈ RTT-bound: internal medians 0.2–0.4 s, WAN 1.5–6 s;
//! * internal IMAP/S connections run 1–2 orders of magnitude longer than
//!   WAN ones (clients poll ~every 10 minutes; max ≈ 50 min);
//! * flow sizes: >95% of SMTP-to-server / IMAP-to-client flows < 1 MB with
//!   significant upper tails, similar internal vs WAN (Figure 6).

use super::TraceCtx;
use crate::distr::{coin, LogNormal, Pareto};
use crate::network::Role;
use crate::synth::{Close, Exchange, Outcome, Payload, Peer, TcpSessionSpec};
use ent_proto::{imap, smtp, ssl};
use rand::RngExt;

/// Generate all email traffic for one trace.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    smtp_traffic(ctx);
    imap_traffic(ctx);
    other_email(ctx);
}

fn message_size(ctx: &mut TraceCtx<'_>) -> usize {
    if coin(&mut ctx.rng, 0.04) {
        // Attachment tail.
        Pareto {
            scale: 300_000.0,
            alpha: 1.1,
        }
        .sample(&mut ctx.rng)
        .min(25e6) as usize
    } else {
        LogNormal::from_median(6_000.0, 1.3).sample_clamped(&mut ctx.rng, 400.0, 300_000.0) as usize
    }
}

fn smtp_session(ctx: &mut TraceCtx<'_>, client: Peer, server: Peer, rtt: u64, volume: f64) {
    let body = (message_size(ctx) as f64 * volume).max(500.0) as usize;
    let rcpts = 1 + usize::from(coin(&mut ctx.rng, 0.25));
    let (client_chunks, server_chunks) = smtp::encode_session(body, rcpts);
    // Interleave: server banner first, then command/response pairs. Server
    // processing time gives internal connections their ~0.3 s floor.
    let mut exchanges = Vec::with_capacity(1 + 2 * client_chunks.len());
    let think = || ctx_think(rtt);
    exchanges.push(Exchange::server(server_chunks[0].clone(), 0));
    for (i, c) in client_chunks.iter().enumerate() {
        exchanges.push(Exchange::client(c.clone(), think()));
        if let Some(s) = server_chunks.get(i + 1) {
            exchanges.push(Exchange::server(s.clone(), think()));
        }
    }
    let spec = TcpSessionSpec::success(ctx.early_start(0.9), client, server, rtt, exchanges);
    ctx.tcp(&spec);
}

fn ctx_think(rtt: u64) -> u64 {
    // Server processing (tens of ms) plus the extra round trips each
    // command exchange costs in practice (DNS callbacks, fsync, etc.).
    28_000 + 4 * rtt
}

fn smtp_traffic(ctx: &mut TraceCtx<'_>) {
    let mail_here = ctx.hosts_role(Role::SmtpServer);
    // The enterprise relays concentrate the site's mail: monitoring their
    // subnet sees roughly the whole site's SMTP (plus all WAN mail).
    let vantage_boost = if mail_here {
        4.0
    } else if ctx.spec.mail_vantage {
        0.6
    } else {
        0.45
    };
    let n = ctx.count(ctx.spec.rates.smtp * vantage_boost);
    let volume = ctx.spec.email_volume;
    for _ in 0..n {
        let kind: f64 = ctx.rng.random();
        if mail_here && kind < 0.45 {
            // Inbound WAN mail to the relay (success dips at mail vantage).
            let Some(srv) = ctx.server(Role::SmtpServer) else { continue };
            let server = ctx.peer_of(&srv, 25);
            let cport = ctx.eph();
            let client = ctx.wan_peer(cport);
            let rtt = ctx.rtt_wan();
            if coin(&mut ctx.rng, 0.16) {
                let mut spec = TcpSessionSpec::bare(ctx.start(), client, server, rtt);
                spec.outcome = if coin(&mut ctx.rng, 0.6) {
                    Outcome::Rejected
                } else {
                    Outcome::Unanswered
                };
                ctx.tcp(&spec);
            } else {
                smtp_session(ctx, client, server, rtt, volume);
            }
        } else if mail_here && kind < 0.7 {
            // Outbound relay to WAN MX hosts: high success away from spam.
            let Some(srv) = ctx.server(Role::SmtpServer) else { continue };
            let client = ctx.peer_eph(&srv);
            let server = ctx.wan_peer(25);
            let rtt = ctx.rtt_wan();
            smtp_session(ctx, client, server, rtt, volume);
        } else if !mail_here && kind < 0.08 {
            // Off-relay hosts occasionally speak SMTP straight to external
            // MX hosts (D3-4's small, highly successful WAN SMTP).
            let client_host = ctx.local_client();
            let client = ctx.peer_eph(&client_host);
            let server = ctx.wan_peer(25);
            let rtt = ctx.rtt_wan();
            smtp_session(ctx, client, server, rtt, volume);
        } else {
            // Internal submission: workstation → relay (96% success).
            let Some(srv) = ctx.server(Role::SmtpServer) else {
                continue;
            };
            let client_host = ctx.local_client();
            let client = ctx.peer_eph(&client_host);
            let server = ctx.peer_of(&srv, 25);
            let rtt = ctx.rtt_internal();
            if coin(&mut ctx.rng, 0.03) {
                let mut spec = TcpSessionSpec::bare(ctx.start(), client, server, rtt);
                spec.outcome = Outcome::Rejected;
                ctx.tcp(&spec);
            } else {
                smtp_session(ctx, client, server, rtt, volume);
            }
        }
    }
}

fn imap_traffic(ctx: &mut TraceCtx<'_>) {
    let imap_here = ctx.hosts_role(Role::ImapServer);
    let vantage_boost = if imap_here {
        5.0
    } else if ctx.spec.mail_vantage {
        0.7
    } else {
        0.3
    };
    let n = ctx.count(ctx.spec.rates.imap * vantage_boost);
    let volume = ctx.spec.email_volume;
    for _ in 0..n {
        let Some(srv) = ctx.server(Role::ImapServer) else {
            continue;
        };
        let wan_client = imap_here && coin(&mut ctx.rng, 0.18);
        let (client, rtt) = if wan_client {
            let cport = ctx.eph();
            (ctx.wan_peer(cport), ctx.rtt_wan())
        } else {
            let h = ctx.local_client();
            (ctx.peer_eph(&h), ctx.rtt_internal())
        };
        let port = if ctx.spec.imap_cleartext { 143 } else { 993 };
        let server = ctx.peer_of(&srv, port);
        // Internal sessions: long-lived polling (up to ~50 min, capped to
        // the trace window). WAN sessions: a quick check (1–2 orders of
        // magnitude shorter).
        // At most as many 10-minute polls as fit the window (D0's 10-minute
        // traces see none; hour traces see up to 4, i.e. ~50 minutes).
        let max_polls = ((ctx.duration_us / 650_000_000) as u32).min(4);
        let polls = if wan_client {
            ctx.rng.random_range(0..2u32)
        } else {
            ctx.rng.random_range(0..=max_polls)
        };
        let poll_gap: u64 = if wan_client {
            ctx.rng.random_range(500_000..3_000_000)
        } else {
            // ~10-minute client poll timer, with timer jitter.
            ctx.rng.random_range(540_000_000..660_000_000)
        };
        let fetch_bytes =
            (LogNormal::from_median(24_000.0, 1.8).sample_clamped(&mut ctx.rng, 600.0, 40e6)
                * volume) as usize;
        let mut exchanges = Vec::with_capacity(8 + 2 * polls as usize);
        if ctx.spec.imap_cleartext {
            exchanges.push(Exchange::server(Payload::from_static(b"* OK IMAP4rev1 ready\r\n"), 0));
            exchanges.push(Exchange::client(imap::encode_client_session(0, 0), 20_000));
            exchanges.push(Exchange::server(Payload::from_static(b"a001 OK done\r\n"), 20_000));
            for _ in 0..polls {
                exchanges.push(Exchange::client(Payload::from_static(b"a009 NOOP\r\n"), poll_gap));
                exchanges.push(Exchange::server(Payload::from_static(b"a009 OK NOOP\r\n"), 5_000));
            }
            exchanges.push(Exchange::client(Payload::from_static(b"a010 FETCH 1 (RFC822)\r\n"), 30_000));
            exchanges.push(Exchange::server(Payload::fill(b'M', fetch_bytes), 30_000));
        } else {
            let (ch, sf, ccc, scc) = ssl::encode_handshake();
            exchanges.push(Exchange::client(ch, 0));
            exchanges.push(Exchange::server(sf, 2_000));
            exchanges.push(Exchange::client(ccc, 1_000));
            exchanges.push(Exchange::server(scc, 1_000));
            for _ in 0..polls {
                exchanges.push(Exchange::client(
                    ssl::encode_record(ssl::RecordType::ApplicationData, &[0u8; 64]),
                    poll_gap,
                ));
                exchanges.push(Exchange::server(
                    ssl::encode_record(ssl::RecordType::ApplicationData, &[0u8; 128]),
                    5_000,
                ));
            }
            // Message download as application-data records.
            let mut remaining = fetch_bytes;
            while remaining > 0 {
                let chunk = remaining.min(16_000);
                exchanges.push(Exchange::server(
                    Payload::head_fill(
                        ssl::record_head(ssl::RecordType::ApplicationData, chunk),
                        0u8,
                        chunk,
                    ),
                    0,
                ));
                remaining -= chunk;
            }
        }
        // Cap the session inside the trace window (max duration ≈ 50 min).
        let mut spec = TcpSessionSpec::success(ctx.early_start(0.25), client, server, rtt, exchanges);
        spec.close = Close::Fin;
        // Trim anything past the window; the connection then appears
        // open-at-end, as real 50-minute IMAP sessions do.
        ctx.tcp_trimmed(&spec);
    }
}

fn other_email(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.email_other; ctx.count(rate) };
    for _ in 0..n {
        let Some(srv) = ctx.server(Role::ImapServer) else {
            continue;
        };
        let client_host = ctx.local_client();
        let client = ctx.peer_eph(&client_host);
        let port = [110u16, 995, 389]
            .get(ctx.rng.random_range(0..3usize))
            .copied()
            .unwrap_or(110);
        let server = ctx.peer_of(&srv, port);
        let rtt = ctx.rtt_internal();
        let exchanges = if port == 995 {
            // POP over SSL: real TLS handshake then ciphertext records.
            let (ch, sf, ccc, scc) = ssl::encode_handshake();
            let resp_len = ctx.rng.random_range(200..8_000);
            Vec::from([
                Exchange::client(ch, 0),
                Exchange::server(sf, 2_000),
                Exchange::client(ccc, 1_000),
                Exchange::server(scc, 1_000),
                Exchange::client(
                    ssl::encode_record(ssl::RecordType::ApplicationData, &[0u8; 64]),
                    5_000,
                ),
                Exchange::server(
                    Payload::head_fill(
                        ssl::record_head(ssl::RecordType::ApplicationData, resp_len),
                        0u8,
                        resp_len,
                    ),
                    5_000,
                ),
            ])
        } else {
            let req = Payload::fill(b'q', ctx.rng.random_range(20..200));
            let resp = Payload::fill(b'r', ctx.rng.random_range(100..8_000));
            Vec::from([Exchange::client(req, 0), Exchange::server(resp, 10_000)])
        };
        let spec = TcpSessionSpec::success(ctx.start(), client, server, rtt, exchanges);
        ctx.tcp(&spec);
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
    fn smtp_wan_durations_longer_than_internal() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 0); // D1 at the mail subnet
        for _ in 0..60 {
            smtp_traffic(&mut c);
        }
        let sums = summaries(&c.out.captured_packets());
        let mut int_d = Vec::new();
        let mut wan_d = Vec::new();
        for s in sums.iter().filter(|s| {
            s.key.resp.port == 25 && s.outcome == ent_flow::TcpOutcome::Successful
        }) {
            let wan_conn = !crate::network::is_internal(s.key.orig.addr)
                || !crate::network::is_internal(s.key.resp.addr);
            if wan_conn {
                wan_d.push(s.duration_secs());
            } else {
                int_d.push(s.duration_secs());
            }
        }
        assert!(int_d.len() > 10 && wan_d.len() > 10, "{} {}", int_d.len(), wan_d.len());
        int_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        wan_d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mi = int_d[int_d.len() / 2];
        let mw = wan_d[wan_d.len() / 2];
        assert!(
            mw > mi * 3.0,
            "WAN median {mw} not ≫ internal median {mi} (paper: ~10x)"
        );
        assert!((0.05..=1.5).contains(&mi), "internal median {mi}s");
    }

    #[test]
    fn imap_port_reflects_policy_change() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c0 = ctx(&site, &wan, &specs[0], 0);
        for _ in 0..40 {
            imap_traffic(&mut c0);
        }
        let d0_ports: std::collections::HashSet<u16> = summaries(&c0.out.captured_packets())
            .iter()
            .map(|s| s.key.resp.port)
            .collect();
        assert!(d0_ports.contains(&143), "D0 must use cleartext IMAP");
        let mut c1 = ctx(&site, &wan, &specs[1], 0);
        for _ in 0..40 {
            imap_traffic(&mut c1);
        }
        let d1_ports: std::collections::HashSet<u16> = summaries(&c1.out.captured_packets())
            .iter()
            .map(|s| s.key.resp.port)
            .collect();
        assert!(d1_ports.contains(&993) && !d1_ports.contains(&143));
    }

    #[test]
    fn imap_internal_sessions_much_longer_than_wan() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 0);
        for _ in 0..80 {
            imap_traffic(&mut c);
        }
        let sums = summaries(&c.out.captured_packets());
        let mut int_d = Vec::new();
        let mut wan_d = Vec::new();
        for s in sums.iter().filter(|s| s.key.resp.port == 993) {
            if crate::network::is_internal(s.key.orig.addr) {
                int_d.push(s.duration_secs());
            } else {
                wan_d.push(s.duration_secs());
            }
        }
        assert!(!int_d.is_empty() && !wan_d.is_empty());
        let avg_int: f64 = int_d.iter().sum::<f64>() / int_d.len() as f64;
        let avg_wan: f64 = wan_d.iter().sum::<f64>() / wan_d.len() as f64;
        assert!(
            avg_int > avg_wan * 10.0,
            "internal {avg_int}s vs wan {avg_wan}s: must differ by orders of magnitude"
        );
    }
}
