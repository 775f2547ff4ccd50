//! Non-IP link traffic: ARP, IPX and other EtherTypes (Table 2).
//!
//! The paper found IP ≥ 96% of packets with the remainder mostly IPX and
//! ARP in dataset-dependent proportions (most IPX stays on its home
//! subnet and never reaches the inter-subnet vantage). This generator
//! runs last and sizes itself from the IP packets already produced.

use super::TraceCtx;
use crate::distr::weighted_choice;
use ent_wire::ethernet::{self, EtherType, MacAddr};
use ent_wire::{arp, ipx, ipv4};
use rand::RngExt;

/// Generate non-IP background frames for one trace.
pub fn generate(ctx: &mut TraceCtx<'_>) {
    // Logical count: the legacy Vec still held its out-of-window tail here.
    let ip_packets = ctx.out.logical_len() as f64;
    let frac = ctx.spec.nonip_frac;
    let total = (ip_packets * frac / (1.0 - frac)) as usize;
    let (arp_w, ipx_w, other_w) = ctx.spec.nonip_mix;
    for _ in 0..total {
        let kind = weighted_choice(
            &mut ctx.rng,
            &[("arp", arp_w), ("ipx", ipx_w), ("other", other_w)],
        );
        let frame = match kind {
            "arp" => arp_frame(ctx),
            "ipx" => ipx_frame(ctx),
            _ => other_frame(ctx),
        };
        let t = ctx.start();
        ctx.push_frame(t, &frame);
    }
}

fn arp_frame(ctx: &mut TraceCtx<'_>) -> Vec<u8> {
    let h = ctx.local_client();
    let router_ip = ipv4::Addr::new(10, 100, ctx.subnet as u8, 1);
    let request = ctx.rng.random::<f64>() < 0.65;
    let pkt = if request {
        arp::Packet {
            operation: arp::Operation::Request,
            sender_mac: h.mac,
            sender_ip: h.addr,
            target_mac: MacAddr([0; 6]),
            target_ip: router_ip,
        }
    } else {
        arp::Packet {
            operation: arp::Operation::Reply,
            sender_mac: ctx.wan.router_mac(),
            sender_ip: router_ip,
            target_mac: h.mac,
            target_ip: h.addr,
        }
    };
    let (dst, src) = if request {
        (MacAddr::BROADCAST, h.mac)
    } else {
        (h.mac, ctx.wan.router_mac())
    };
    ethernet::emit(dst, src, EtherType::Arp, &pkt.emit())
}

/// Shared zero filler for the small non-IP payloads.
static ZEROS: [u8; 256] = [0u8; 256];

fn ipx_frame(ctx: &mut TraceCtx<'_>) -> Vec<u8> {
    let h = ctx.local_client();
    // SAP/RIP broadcast chatter; half Ethernet-II framed, half raw 802.3.
    let ptype = if ctx.rng.random::<f64>() < 0.5 {
        ipx::PacketType::Rip
    } else {
        ipx::PacketType::Unknown
    };
    let socket = if ptype == ipx::PacketType::Rip { 0x453 } else { 0x452 };
    let payload_len = ctx.rng.random_range(32..256usize);
    let pkt = ipx::emit(
        ptype,
        ipx::Addr {
            network: ctx.subnet as u32 + 1,
            node: h.mac.0,
            socket,
        },
        ipx::Addr {
            network: 0xFFFF_FFFF,
            node: [0xFF; 6],
            socket,
        },
        &ZEROS[..payload_len],
    );
    if ctx.rng.random::<f64>() < 0.5 {
        ethernet::emit(MacAddr::BROADCAST, h.mac, EtherType::Ipx, &pkt)
    } else {
        ethernet::emit(
            MacAddr::BROADCAST,
            h.mac,
            EtherType::Ieee8023Length(pkt.len() as u16),
            &pkt,
        )
    }
}

fn other_frame(ctx: &mut TraceCtx<'_>) -> Vec<u8> {
    let h = ctx.local_client();
    // AppleTalk, 802.1D BPDUs over LLC, LLDP-era chatter etc.
    let ethertype = weighted_choice(
        &mut ctx.rng,
        &[
            (EtherType::Other(0x809B), 35.0),      // AppleTalk
            (EtherType::Other(0x80F3), 15.0),      // AARP
            (EtherType::Ieee8023Length(60), 35.0), // LLC (non-IPX)
            (EtherType::Other(0x9000), 15.0),      // loopback test
        ],
    );
    let len = ctx.rng.random_range(46..200usize);
    ethernet::emit(MacAddr::BROADCAST, h.mac, ethertype, &ZEROS[..len])
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;
    use super::*;
    use crate::dataset::all_datasets;
    use ent_wire::{NetLayer, Packet};

    #[test]
    fn nonip_fraction_matches_spec() {
        let (site, wan) = small_site();
        let specs = all_datasets();
        let mut c = ctx(&site, &wan, &specs[2], 7); // D2: 4% non-IP
        // Seed with plenty of fake "IP traffic" volume.
        super::super::name::generate(&mut c);
        super::super::mgmt::generate(&mut c);
        let before = c.out.len();
        generate(&mut c);
        let added = c.out.len() - before;
        let frac = added as f64 / c.out.len() as f64;
        assert!(
            (0.02..=0.06).contains(&frac),
            "non-IP fraction {frac}, target 0.04 (added {added} to {before})"
        );
        // Verify mixture classification through the wire parser.
        let (mut arp_n, mut ipx_n, mut other_n) = (0, 0, 0);
        let all = c.out.captured_packets();
        for p in &all[before..] {
            match Packet::parse(&p.frame).unwrap().net {
                NetLayer::Arp(_) => arp_n += 1,
                NetLayer::Ipx { .. } => ipx_n += 1,
                NetLayer::OtherL3(_) => other_n += 1,
                _ => panic!("IP frame emitted by nonip generator"),
            }
        }
        assert!(ipx_n > arp_n, "D2 is IPX-dominated: {arp_n}/{ipx_n}/{other_n}");
        assert!(other_n > 0);
    }
}
