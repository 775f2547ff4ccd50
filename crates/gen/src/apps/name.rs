//! Name services: DNS, NetBIOS-NS and SrvLoc (§5.1.3).
//!
//! Calibration targets:
//! * name services carry 45–65% of connections but <1% of bytes (Fig. 1);
//! * DNS qtypes A 50–66%, AAAA 17–25% (hosts querying both in parallel),
//!   PTR 10–18%, MX 4–7%;
//! * DNS NOERROR 77–86%, NXDOMAIN 11–21%;
//! * DNS latency medians ≈ 0.4 ms internal, ≈ 20 ms external;
//! * a few clients dominate DNS (the two main SMTP relays doing inbound-
//!   mail lookups), while NBNS clients are much more even (top 10 < 40%);
//! * NBNS requests: queries 81–85%, refreshes 12–15%, rest registration /
//!   release; 63–71% of queries for workstation/server names, 22–32% for
//!   domain/browser; 36–50% of *distinct* queried names yield NXDOMAIN
//!   (stale names);
//! * SrvLoc is multicast with a peer-to-peer response pattern producing
//!   the internal fan-out tail ≥ 100 of Figure 2(b).

use super::TraceCtx;
use crate::distr::{coin, weighted_choice, Zipf};
use crate::network::Role;
use crate::synth::{Payload, Peer, UdpFlowSpec, UdpMessage};
use ent_proto::dns::{self, QType, RCode};
use ent_proto::netbios::{self, NameType, NsOpcode};
use ent_wire::ethernet::MacAddr;
use ent_wire::ipv4;
use rand::RngExt;

/// SrvLoc multicast group and port.
const SRVLOC_GROUP: ipv4::Addr = ipv4::Addr::new(239, 255, 255, 253);
const SRVLOC_MAC: MacAddr = MacAddr([0x01, 0x00, 0x5E, 0x7F, 0xFF, 0xFD]);

/// Generate all name-service traffic for one trace.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    dns_traffic(ctx);
    nbns_traffic(ctx);
    srvloc_traffic(ctx);
}

fn sample_qtype(ctx: &mut TraceCtx<'_>) -> QType {
    weighted_choice(
        &mut ctx.rng,
        &[
            (QType::A, 52.0),
            (QType::Aaaa, 8.0), // plus the parallel A+AAAA pairs below
            (QType::Ptr, 14.0),
            (QType::Mx, 5.0),
            (QType::Txt, 1.0),
            (QType::Srv, 1.0),
        ],
    )
}

fn sample_rcode(ctx: &mut TraceCtx<'_>) -> RCode {
    weighted_choice(
        &mut ctx.rng,
        &[
            (RCode::NoError, 82.0),
            (RCode::NxDomain, 15.0),
            (RCode::ServFail, 3.0),
        ],
    )
}

fn dns_name(ctx: &mut TraceCtx<'_>, qtype: QType) -> String {
    let n = ctx.rng.random_range(0..8_000u32);
    match qtype {
        QType::Ptr => format!("{}.0.100.10.in-addr.arpa", n % 256),
        QType::Mx => format!("dom{}.example.com", n % 500),
        _ => format!("host{n}.lbl.example"),
    }
}

fn dns_flow(ctx: &mut TraceCtx<'_>, client: Peer, server: Peer, rtt: u64, queries: usize) {
    let mut messages = Vec::with_capacity(4 * queries);
    for q in 0..queries {
        let id = ctx.rng.random::<u16>();
        let qtype = sample_qtype(ctx);
        let rcode = sample_rcode(ctx);
        let name = dns_name(ctx, qtype);
        let gap = if q == 0 { 0 } else { ctx.rng.random_range(1_000..40_000) };
        messages.push(UdpMessage::client(dns::encode_query(id, &name, qtype), gap));
        let answers = if rcode == RCode::NoError {
            ctx.rng.random_range(1..3)
        } else {
            0
        };
        messages.push(UdpMessage::server(dns::encode_response(id, &name, qtype, rcode, answers), 0));
        // Parallel AAAA alongside A (the paper's surprising AAAA share).
        if qtype == QType::A && coin(&mut ctx.rng, 0.28) {
            let id6 = ctx.rng.random::<u16>();
            messages.push(UdpMessage::client(dns::encode_query(id6, &name, QType::Aaaa), 0));
            messages.push(UdpMessage::server(dns::encode_response(id6, &name, QType::Aaaa, rcode, 0), 0));
        }
    }
    let spec = UdpFlowSpec {
        start: ctx.start(),
        client,
        server,
        // Query->response latency is a full round trip plus server time.
        half_rtt_us: rtt,
        messages,
        multicast_mac: None,
    };
    ctx.udp(&spec);
}

fn dns_traffic(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.dns; ctx.count(rate) };
    let dns_server = ctx.server(Role::DnsServer);
    let smtp_here = ctx.hosts_role(Role::SmtpServer);
    let dns_here = ctx.hosts_role(Role::DnsServer);
    for _ in 0..n {
        // The two main SMTP relays dominate DNS client volume when their
        // subnet is monitored.
        let heavy_smtp_client = smtp_here && coin(&mut ctx.rng, 0.45);
        let external = coin(&mut ctx.rng, 0.05);
        let client_host = if heavy_smtp_client {
            ctx.server(Role::SmtpServer).unwrap_or_else(|| ctx.local_client())
        } else if external {
            ctx.local_wan_client()
        } else {
            ctx.local_client()
        };
        let client = ctx.peer_eph(&client_host);
        // `external` lookups go straight to external resolvers/authorities;
        // plus, when the main DNS server's subnet is monitored, it
        // performs upstream WAN lookups itself.
        let queries = 1 + usize::from(coin(&mut ctx.rng, 0.3));
        if external {
            let server = ctx.wan_peer(53);
            let rtt = ctx.rtt_wan();
            dns_flow(ctx, client, server, rtt, queries);
        } else {
            let Some(srv) = dns_server else { continue };
            let server = ctx.peer_of(&srv, 53);
            let rtt = ctx.rtt_internal();
            dns_flow(ctx, client, server, rtt, queries);
        }
        if dns_here && coin(&mut ctx.rng, 0.25) {
            // Recursive lookups the local DNS server makes upstream.
            let Some(srv) = dns_server else { continue };
            let client = ctx.peer_eph(&srv);
            let upstream = ctx.wan_peer(53);
            let rtt = ctx.rtt_wan();
            dns_flow(ctx, client, upstream, rtt, 1);
        }
    }
}

fn nbns_traffic(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.nbns; ctx.count(rate) };
    let Some(srv) = ctx.server(Role::NbnsServer) else {
        return;
    };
    // Distinct-name staleness: ~43% of the name pool is stale and always
    // fails (matching "failures not due to any single client/server").
    for _ in 0..n {
        let client_host = ctx.local_client();
        let client = ctx.peer_of(&client_host, 137);
        let server = ctx.peer_of(&srv, 137);
        let opcode = weighted_choice(
            &mut ctx.rng,
            &[
                (NsOpcode::Query, 83.0),
                (NsOpcode::Refresh, 13.5),
                (NsOpcode::Registration, 2.0),
                (NsOpcode::Release, 1.5),
            ],
        );
        let ntype = weighted_choice(
            &mut ctx.rng,
            &[
                (NameType::Workstation, 40.0),
                (NameType::Server, 27.0),
                (NameType::DomainControllers, 14.0),
                (NameType::MasterBrowser, 13.0),
                (NameType::Other(0x03), 6.0),
            ],
        );
        let name_idx = ctx.rng.random_range(0..3_000u32);
        let stale = opcode == NsOpcode::Query && (name_idx % 100) < 43;
        let name = format!("NB{name_idx:05}");
        let id = ctx.rng.random::<u16>();
        let rcode = if stale { 3 } else { 0 };
        let rtt = ctx.rtt_internal();
        let messages = Vec::from([
            UdpMessage::client(netbios::encode_ns_request(id, opcode, &name, ntype), 0),
            UdpMessage::server(netbios::encode_ns_response(id, opcode, &name, ntype, rcode), 0),
        ]);
        let spec = UdpFlowSpec {
            start: ctx.start(),
            client,
            server,
            half_rtt_us: rtt / 2,
            messages,
            multicast_mac: None,
        };
        ctx.udp(&spec);
    }
}

fn srvloc_traffic(ctx: &mut TraceCtx<'_>) {
    let n = { let rate = ctx.spec.rates.srvloc; ctx.count(rate) };
    let responders = Zipf::new(280, 0.7);
    for i in 0..n {
        let sender_host = ctx.local_client();
        let sender = ctx.peer_of(&sender_host, 427);
        let group = Peer {
            addr: SRVLOC_GROUP,
            mac: SRVLOC_MAC,
            port: 427,
            ttl: 8,
        };
        // Multicast service request (one flow per event).
        let payload = Payload::fill(2u8, ctx.rng.random_range(60..140));
        let spec = UdpFlowSpec {
            start: ctx.start(),
            client: sender,
            server: group,
            half_rtt_us: 0,
            messages: Vec::from([UdpMessage::client(payload, 0)]),
            multicast_mac: Some(SRVLOC_MAC),
        };
        ctx.udp(&spec);
        // Occasionally a directory-agent host fans out unicast to scores
        // of peers (the paper's internal fan-out tail, ≥100 peers). The
        // event *frequency* scales with traffic volume so the SrvLoc
        // connection share stays stable across run scales; the per-event
        // peer-count distribution (the tail shape) does not scale.
        if i == 0 && coin(&mut ctx.rng, (n as f64 / 60.0).min(0.8)) {
            let da_host = ctx.local_client();
            let da = ctx.peer_of(&da_host, 427);
            let peers = 60 + responders.sample(&mut ctx.rng);
            let start = ctx.start();
            for _ in 0..peers {
                let peer_host = ctx.remote_internal();
                let peer = ctx.peer_of(&peer_host, 427);
                let spec = UdpFlowSpec {
                    start,
                    client: da,
                    server: peer,
                    half_rtt_us: 200,
                    messages: Vec::from([UdpMessage::client(Payload::fill(2u8, 80), 0)]),
                    multicast_mac: None,
                };
                ctx.udp(&spec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_wire::Packet;

    #[test]
    fn dns_flows_parse_and_mix_is_plausible() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[3], 24); // D3 vantage w/ DNS server
        dns_traffic(&mut c);
        let mut qtypes = std::collections::HashMap::new();
        let mut responses = 0usize;
        let mut nx = 0usize;
        for p in &c.out.captured_packets() {
            let pkt = Packet::parse(&p.frame).unwrap();
            if pkt.udp().map(|(s, d, _)| s == 53 || d == 53) == Some(true) {
                if let Some(m) = dns::parse(pkt.payload()) {
                    if m.is_response {
                        responses += 1;
                        if m.rcode == RCode::NxDomain {
                            nx += 1;
                        }
                    } else if let Some(t) = m.qtype {
                        *qtypes.entry(format!("{t:?}")).or_insert(0usize) += 1;
                    }
                }
            }
        }
        let total: usize = qtypes.values().sum();
        assert!(total > 50, "too few DNS queries: {total}");
        let a = *qtypes.get("A").unwrap_or(&0) as f64 / total as f64;
        let aaaa = *qtypes.get("Aaaa").unwrap_or(&0) as f64 / total as f64;
        assert!(a > 0.35 && a < 0.75, "A fraction {a}");
        assert!(aaaa > 0.10 && aaaa < 0.35, "AAAA fraction {aaaa}");
        let nx_frac = nx as f64 / responses as f64;
        assert!(nx_frac > 0.05 && nx_frac < 0.30, "NXDOMAIN fraction {nx_frac}");
    }

    #[test]
    fn nbns_stale_names_fail_consistently() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[0], 2);
        for _ in 0..8 {
            nbns_traffic(&mut c);
        }
        use std::collections::HashMap;
        let mut per_name: HashMap<String, (usize, usize)> = HashMap::new();
        for p in &c.out.captured_packets() {
            let pkt = Packet::parse(&p.frame).unwrap();
            if let Some(m) = netbios::parse_ns(pkt.payload()) {
                if m.is_response && m.opcode == NsOpcode::Query {
                    let e = per_name.entry(m.name.clone()).or_default();
                    if m.is_name_error() {
                        e.1 += 1;
                    } else {
                        e.0 += 1;
                    }
                }
            }
        }
        assert!(per_name.len() > 20);
        // Every name either always succeeds or always fails.
        for (name, (ok, fail)) in &per_name {
            assert!(
                *ok == 0 || *fail == 0,
                "{name} inconsistently stale: ok {ok} fail {fail}"
            );
        }
        let stale = per_name.values().filter(|(ok, _)| *ok == 0).count();
        let frac = stale as f64 / per_name.len() as f64;
        assert!(frac > 0.25 && frac < 0.60, "stale-name fraction {frac}");
    }

    #[test]
    fn srvloc_is_multicast_with_fanout_tail() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[1], 5);
        for _ in 0..6 {
            srvloc_traffic(&mut c);
        }
        let mut mcast = 0usize;
        let mut fanout: std::collections::HashMap<u32, std::collections::HashSet<u32>> =
            Default::default();
        for p in &c.out.captured_packets() {
            let pkt = Packet::parse(&p.frame).unwrap();
            if pkt.is_multicast() {
                mcast += 1;
            }
            if let Some((src, dst)) = pkt.ipv4_addrs() {
                if !dst.is_multicast() {
                    fanout.entry(src.0).or_default().insert(dst.0);
                }
            }
        }
        assert!(mcast > 0, "no multicast SrvLoc traffic");
        let max_fanout = fanout.values().map(|s| s.len()).max().unwrap_or(0);
        assert!(max_fanout >= 50, "fan-out tail too small: {max_fanout}");
    }
}
