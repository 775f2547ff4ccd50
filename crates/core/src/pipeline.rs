//! The per-trace analysis pipeline: packets → connections → application
//! records.
//!
//! Mirrors the paper's methodology: Bro-style connection summaries
//! (`ent-flow`) drive per-connection application analyzers (`ent-proto`);
//! DCE/RPC endpoints on ephemeral ports are discovered live from Endpoint-
//! Mapper responses; payload analyzers are disabled for header-only
//! (snaplen 68) traces exactly as the paper omits D1/D2 from payload
//! analyses.

use crate::error::AnalysisError;
use crate::metrics::{AnalyzerKind, StageTimer};
use crate::records::*;
use crate::scanners::{remove_scanners, ScannerConfig};
use crate::small::SmallMap;
use ent_flow::{ConnIndex, ConnSummary, ConnTable, Dir, FlowHandler, FlowKey, Proto, TableConfig};
use ent_pcap::{RecoveringReader, Trace, TraceMeta};
use ent_proto::dns::QType;
use ent_proto::http::HttpAnalyzer;
use ent_proto::imap::ImapAnalyzer;
use ent_proto::ncp::NcpAnalyzer;
use ent_proto::nfs::NfsAnalyzer;
use ent_proto::smtp::SmtpAnalyzer;
use ent_proto::ssl::TlsTracker;
use ent_proto::{cifs, dcerpc, dns, netbios, AppProtocol, Category, DynamicPorts, Transport};
use ent_wire::{Packet, Timestamp};
use std::hash::BuildHasher;

/// Pipeline options.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Scanner-removal configuration.
    pub scanners: ScannerConfig,
    /// Keep scanner traffic (ablation; the paper removes it).
    pub keep_scanners: bool,
    /// Connection-table cap forwarded to the flow engine (0 = unbounded).
    /// When hit, the least-recently-active connections are evicted and
    /// tallied in [`IngestHealth::evicted_conns`].
    pub max_conns: usize,
    /// Per-connection pending-transaction budget for the DNS/NBNS
    /// outstanding-request maps (0 = unbounded, the batch default). A full
    /// map drops further requests from tracking — they are counted in
    /// [`IngestHealth::pending_dropped`] instead of growing the map, the
    /// monitor's defense against request floods that never see answers.
    pub max_pending: usize,
    /// Fault-injection hook: panic inside the application analyzer on
    /// every Nth TCP data delivery (0 = never). Exercises the
    /// analyzer-failure demotion path deterministically; never set outside
    /// the fault harness.
    pub analyzer_panic_every: u64,
    /// Escape hatch: key the connection table with the std SipHash hasher
    /// instead of the default fast hasher. This is the reference
    /// instantiation the differential equivalence suite compares against;
    /// results must be identical either way (see `ent_flow::fasthash`).
    pub use_std_hash: bool,
}

/// Outstanding-query maps hold a handful of entries at most; 4 inline
/// slots cover the common case with zero heap traffic.
const PENDING_INLINE: usize = 4;

#[derive(Default)]
struct DnsState {
    pending: SmallMap<u16, (Timestamp, QType), PENDING_INLINE>,
}

#[derive(Default)]
struct NbnsState {
    pending: SmallMap<u16, usize, PENDING_INLINE>, // id -> index into out.nbns
}

enum AppState {
    None,
    Http(HttpAnalyzer),
    Smtp(SmtpAnalyzer),
    Imap(ImapAnalyzer),
    Tls(TlsTracker),
    Cifs(cifs::CifsAnalyzer),
    Dcerpc(dcerpc::DcerpcAnalyzer),
    NfsTcp(NfsAnalyzer),
    NfsUdp(NfsAnalyzer),
    Ncp(NcpAnalyzer),
    Dns(DnsState),
    Nbns(NbnsState),
}

struct PerConn {
    key: FlowKey,
    app: Option<AppProtocol>,
    state: AppState,
}

/// Which analyzer a connection's state feeds, for per-analyzer metrics.
fn kind_of(state: &AppState) -> Option<AnalyzerKind> {
    match state {
        AppState::None => None,
        AppState::Http(_) => Some(AnalyzerKind::Http),
        AppState::Smtp(_) => Some(AnalyzerKind::Smtp),
        AppState::Imap(_) => Some(AnalyzerKind::Imap),
        AppState::Tls(_) => Some(AnalyzerKind::Tls),
        AppState::Cifs(_) => Some(AnalyzerKind::Cifs),
        AppState::Dcerpc(_) => Some(AnalyzerKind::Dcerpc),
        AppState::NfsTcp(_) => Some(AnalyzerKind::NfsTcp),
        AppState::NfsUdp(_) => Some(AnalyzerKind::NfsUdp),
        AppState::Ncp(_) => Some(AnalyzerKind::Ncp),
        AppState::Dns(_) => Some(AnalyzerKind::Dns),
        AppState::Nbns(_) => Some(AnalyzerKind::Nbns),
    }
}

struct Handler {
    /// The window's output record, owned so the engine can swap in a fresh
    /// one at an epoch boundary (the monitor's rotation) without touching
    /// any other analyzer state.
    out: TraceAnalysis,
    /// Per-connection analyzer state, indexed directly by [`ConnIndex`].
    /// The flow table hands out dense sequential indices, so a slab vector
    /// replaces the former `HashMap<ConnIndex, PerConn>`: lookup is a
    /// bounds check, not a hash.
    conns: Vec<Option<PerConn>>,
    dynamic: DynamicPorts,
    payload_ok: bool,
    panic_every: u64,
    max_pending: usize,
    tcp_data_events: u64,
}

/// Note an analyzer failure: the connection keeps only its flow-level
/// summary from here on — the paper's own posture for the header-only
/// datasets D1/D2.
fn demote(out: &mut TraceAnalysis) {
    out.health.analyzer_failures += 1;
    out.health.demoted_conns += 1;
}

impl Handler {
    /// Clear per-epoch state, retaining allocations: the slab truncates
    /// (every entry is `None` after a rotation drains the table) and the
    /// injected-fault counter restarts so fault cadence stays epoch-
    /// deterministic. Learned dynamic ports deliberately survive — an
    /// Endpoint-Mapper lease outlives any one epoch.
    fn reset_epoch(&mut self) {
        self.conns.clear();
        self.tcp_data_events = 0;
    }

    fn classify(&self, key: &FlowKey) -> Option<AppProtocol> {
        let transport = match key.proto {
            Proto::Tcp => Transport::Tcp,
            Proto::Udp => Transport::Udp,
            Proto::Icmp => return None,
        };
        ent_proto::identify(key.resp.addr, key.resp.port, transport, &self.dynamic).or_else(
            || {
                // Server-push flows (e.g. RTP media) can be oriented with
                // the well-known port on the originator side.
                ent_proto::identify(key.orig.addr, key.orig.port, transport, &self.dynamic)
            },
        )
    }

    fn attach(&self, key: &FlowKey, app: Option<AppProtocol>) -> AppState {
        if !self.payload_ok {
            return AppState::None;
        }
        match (app, key.proto) {
            (Some(AppProtocol::Http), Proto::Tcp) => AppState::Http(HttpAnalyzer::new()),
            (Some(AppProtocol::Smtp), Proto::Tcp) => AppState::Smtp(SmtpAnalyzer::new()),
            (Some(AppProtocol::Imap4), Proto::Tcp) => AppState::Imap(ImapAnalyzer::new()),
            (Some(AppProtocol::Https | AppProtocol::ImapS | AppProtocol::PopS), Proto::Tcp) => {
                AppState::Tls(TlsTracker::new())
            }
            (Some(AppProtocol::Cifs | AppProtocol::NetbiosSsn), Proto::Tcp) => {
                AppState::Cifs(cifs::CifsAnalyzer::new())
            }
            (Some(AppProtocol::DceRpc), Proto::Tcp) => {
                AppState::Dcerpc(dcerpc::DcerpcAnalyzer::new())
            }
            (Some(AppProtocol::Nfs), Proto::Tcp) => AppState::NfsTcp(NfsAnalyzer::new()),
            (Some(AppProtocol::Nfs), Proto::Udp) => AppState::NfsUdp(NfsAnalyzer::new()),
            (Some(AppProtocol::Ncp), Proto::Tcp) => AppState::Ncp(NcpAnalyzer::new()),
            (Some(AppProtocol::Dns), Proto::Udp) => AppState::Dns(DnsState::default()),
            (Some(AppProtocol::NetbiosNs), Proto::Udp) => AppState::Nbns(NbnsState::default()),
            _ => AppState::None,
        }
    }

    fn finalize(&mut self, idx: ConnIndex, summary: &ConnSummary) {
        let mut timer = StageTimer::start();
        let Some(mut pc) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let category = match pc.app {
            Some(a) => a.category(),
            None => match summary.key.proto {
                Proto::Tcp => Category::OtherTcp,
                _ => Category::OtherUdp,
            },
        };
        // An analyzer that fails while draining costs its application
        // records, never the connection summary itself.
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.drain_app(&mut pc, summary);
        }));
        if drained.is_err() {
            demote(&mut self.out);
        }
        // `ConnSummary` is `Copy`; storing it by value is a plain memcpy
        // with no per-connection heap traffic (pinned by the allocation
        // counter in `tests/tests/alloc_pin.rs`).
        self.out.conns.push(ConnRecord {
            summary: *summary,
            app: pc.app,
            category,
        });
        self.out
            .metrics
            .finalize
            .add(timer.lap(), 1, summary.total_payload());
    }

    /// Flush a closing connection's analyzer into the output records.
    fn drain_app(&mut self, pc: &mut PerConn, summary: &ConnSummary) {
        match &mut pc.state {
            AppState::Http(h) => {
                h.finish();
                for tx in h.take_transactions() {
                    self.out.http.push(HttpRecord {
                        tx,
                        client: summary.key.orig.addr,
                        server: summary.key.resp.addr,
                        server_internal: is_internal(summary.key.resp.addr),
                    });
                }
            }
            AppState::Smtp(s) => {
                let sess = s.session();
                if sess.messages > 0 {
                    self.out.smtp_message_bytes.push(sess.message_bytes);
                }
            }
            AppState::Imap(i) => {
                let sess = i.session();
                if !sess.commands.is_empty() {
                    self.out.imap_polls.push(sess.polls);
                }
            }
            AppState::Tls(t) => {
                self.out.tls.push(TlsRecord {
                    client: summary.key.orig.addr,
                    handshake_complete: t.handshake_complete(),
                    app_records: t.app_records,
                    port: summary.key.resp.port,
                    pair: summary.key.host_pair(),
                });
            }
            AppState::Cifs(c) => {
                let mut rec = CifsConnRecord::default();
                let mut rpc = dcerpc::DcerpcAnalyzer::new();
                for ev in c.take_events() {
                    match ev {
                        cifs::CifsEvent::SsnRequest => rec.ssn_requested = true,
                        cifs::CifsEvent::SsnPositive => rec.ssn_positive = true,
                        cifs::CifsEvent::SsnNegative => rec.ssn_negative = true,
                        cifs::CifsEvent::Smb(msg) => {
                            rec.count(msg.class(), msg.is_response, msg.size);
                            if !msg.trans_data.is_empty()
                                && msg.class() == cifs::CifsClass::RpcPipes
                            {
                                rpc.feed(!msg.is_response, &msg.trans_data);
                            }
                        }
                    }
                }
                rpc.finish();
                for call in rpc.take_calls() {
                    self.out.rpc.push(RpcRecord {
                        function: call.function,
                        request_bytes: call.request_bytes,
                        response_bytes: call.response_bytes,
                    });
                }
                self.out.cifs.push(rec);
            }
            AppState::Dcerpc(d) => {
                d.finish();
                for call in d.take_calls() {
                    self.out.rpc.push(RpcRecord {
                        function: call.function,
                        request_bytes: call.request_bytes,
                        response_bytes: call.response_bytes,
                    });
                }
            }
            AppState::NfsTcp(n) | AppState::NfsUdp(n) => {
                let udp = matches!(summary.key.proto, Proto::Udp);
                n.finish();
                for call in n.take_calls() {
                    self.out.nfs.push(NfsRecord {
                        op: call.op,
                        request_bytes: call.request_bytes as u32,
                        reply_bytes: call.reply_bytes as u32,
                        ok: call.ok,
                        pair: summary.key.host_pair(),
                        udp,
                    });
                }
            }
            AppState::Ncp(n) => {
                n.finish();
                for call in n.take_calls() {
                    self.out.ncp.push(NcpRecord {
                        op: call.op,
                        request_bytes: call.request_bytes as u32,
                        reply_bytes: call.reply_bytes as u32,
                        ok: call.ok,
                        pair: summary.key.host_pair(),
                    });
                }
            }
            AppState::Dns(_) | AppState::Nbns(_) | AppState::None => {}
        }
    }
}

impl FlowHandler for Handler {
    fn on_new_conn(&mut self, idx: ConnIndex, key: &FlowKey, _ts: Timestamp) {
        let app = self.classify(key);
        let state = self.attach(key, app);
        // Indices arrive densely in creation order, so this is a push in
        // the normal case; resize_with covers the defensive gap.
        if idx >= self.conns.len() {
            self.conns.resize_with(idx + 1, || None);
        }
        if let Some(slot) = self.conns.get_mut(idx) {
            *slot = Some(PerConn {
                key: *key,
                app,
                state,
            });
        }
    }

    fn on_tcp_data(&mut self, idx: ConnIndex, dir: Dir, _ts: Timestamp, data: &[u8]) {
        let Some(pc) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if matches!(pc.state, AppState::None | AppState::Dns(_) | AppState::Nbns(_)) {
            return;
        }
        self.tcp_data_events += 1;
        let inject = self.panic_every != 0 && self.tcp_data_events.is_multiple_of(self.panic_every);
        let from_client = dir == Dir::Orig;
        // Feed a detached analyzer state so a panicking analyzer is
        // discarded instead of poisoning the connection entry.
        let mut state = std::mem::replace(&mut pc.state, AppState::None);
        let kind = kind_of(&state);
        let mut timer = StageTimer::start();
        let fed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(!inject, "injected analyzer fault");
            match &mut state {
                AppState::Http(h) => {
                    if from_client {
                        h.feed_request_data(data);
                    } else {
                        h.feed_response_data(data);
                    }
                }
                AppState::Smtp(s) => {
                    if from_client {
                        s.feed_client(data);
                    } else {
                        s.feed_server(data);
                    }
                }
                AppState::Imap(i) if from_client => i.feed_client(data),
                AppState::Tls(t) => t.feed(from_client, data),
                AppState::Cifs(c) => c.feed(from_client, data),
                AppState::Dcerpc(d) => d.feed(from_client, data),
                AppState::NfsTcp(n) => n.feed_tcp(from_client, _ts, data),
                AppState::Ncp(n) => n.feed(from_client, _ts, data),
                _ => {}
            }
        }));
        let ns = timer.lap();
        self.out.metrics.tcp_deliver.add(ns, 1, data.len() as u64);
        if let Some(k) = kind {
            self.out
                .metrics
                .analyzers
                .stat_mut(k)
                .add(ns, 1, data.len() as u64);
        }
        match fed {
            Ok(()) => {
                if let AppState::Dcerpc(d) = &mut state {
                    // Learn Endpoint-Mapper results immediately so follow-up
                    // connections to the mapped port classify as DCE/RPC.
                    if !d.mappings.is_empty() {
                        for (_, addr, port) in d.mappings.drain(..) {
                            self.dynamic.learn(addr, port, AppProtocol::DceRpc);
                        }
                    }
                }
                pc.state = state;
            }
            // The connection entry already holds AppState::None: from here
            // on it gets header-only treatment.
            Err(_) => demote(&mut self.out),
        }
    }

    fn on_tcp_gap(&mut self, idx: ConnIndex, dir: Dir, _wire_bytes: u64) {
        let Some(pc) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        match &mut pc.state {
            AppState::Http(h) => h.gap(dir == Dir::Orig),
            AppState::Cifs(c) => c.gap(dir == Dir::Orig),
            _ => {}
        }
    }

    fn on_udp_datagram(
        &mut self,
        idx: ConnIndex,
        dir: Dir,
        ts: Timestamp,
        data: &[u8],
        _wire_len: u32,
    ) {
        let Some(pc) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if !matches!(
            pc.state,
            AppState::Dns(_) | AppState::Nbns(_) | AppState::NfsUdp(_)
        ) {
            return;
        }
        let from_client = dir == Dir::Orig;
        let (server, client) = (pc.key.resp.addr, pc.key.orig.addr);
        let mut state = std::mem::replace(&mut pc.state, AppState::None);
        let kind = kind_of(&state);
        let max_pending = self.max_pending;
        let mut timer = StageTimer::start();
        let out = &mut self.out;
        let fed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match &mut state {
                AppState::Dns(st) => {
                    let Some(msg) = dns::parse(data) else {
                        return;
                    };
                    if !msg.is_response {
                        if let Some(qt) = msg.qtype {
                            if max_pending != 0 && st.pending.len() >= max_pending {
                                // Budget exhausted: stop tracking the query
                                // (its answer will not match) and account
                                // the drop instead of growing the map.
                                out.health.pending_dropped += 1;
                            } else {
                                st.pending.insert(msg.id, (ts, qt));
                            }
                        }
                    } else if let Some((t0, qt)) = st.pending.remove(&msg.id) {
                        out.dns.push(DnsRecord {
                            qtype: qt,
                            rcode: Some(msg.rcode),
                            latency_us: Some(ts.saturating_micros_since(t0)),
                            client,
                            server,
                            server_internal: is_internal(server),
                        });
                    }
                }
                AppState::Nbns(st) => {
                    let Some(msg) = netbios::parse_ns(data) else {
                        return;
                    };
                    if !msg.is_response {
                        let rec = NbnsRecord {
                            opcode: msg.opcode,
                            name: msg.name,
                            name_type: msg.name_type,
                            rcode: None,
                            client,
                        };
                        if max_pending != 0 && st.pending.len() >= max_pending {
                            // Keep the (unanswerable) request record but
                            // stop tracking it; account the drop.
                            out.health.pending_dropped += 1;
                        } else {
                            st.pending.insert(msg.id, out.nbns.len());
                        }
                        out.nbns.push(rec);
                    } else if let Some(i) = st.pending.remove(&msg.id) {
                        if let Some(rec) = out.nbns.get_mut(i) {
                            rec.rcode = Some(msg.rcode);
                        }
                    }
                }
                AppState::NfsUdp(n) => n.feed_udp(from_client, ts, data),
                _ => {}
            }
        }));
        let ns = timer.lap();
        self.out.metrics.udp_deliver.add(ns, 1, data.len() as u64);
        if let Some(k) = kind {
            self.out
                .metrics
                .analyzers
                .stat_mut(k)
                .add(ns, 1, data.len() as u64);
        }
        match fed {
            Ok(()) => pc.state = state,
            Err(_) => demote(&mut self.out),
        }
    }

    fn on_conn_closed(&mut self, idx: ConnIndex, summary: &ConnSummary) {
        // Flush pending DNS queries as unanswered records (in the
        // SmallMap's deterministic slot order, not hash order).
        if let Some(pc) = self.conns.get_mut(idx).and_then(Option::as_mut) {
            if let AppState::Dns(st) = &mut pc.state {
                let (client, server) = (pc.key.orig.addr, pc.key.resp.addr);
                for (_, (_t0, qt)) in st.pending.drain() {
                    self.out.dns.push(DnsRecord {
                        qtype: qt,
                        rcode: None,
                        latency_us: None,
                        client,
                        server,
                        server_internal: is_internal(server),
                    });
                }
            }
        }
        self.finalize(idx, summary);
    }
}

/// A borrowed view of one timed frame: the single currency of the generic
/// analysis loop, produced either from an in-memory [`Trace`] or streamed
/// straight off a pcap byte buffer by the recovering reader.
#[derive(Clone, Copy)]
pub(crate) struct FrameRef<'a> {
    pub(crate) ts: Timestamp,
    pub(crate) frame: &'a [u8],
    pub(crate) orig_len: u32,
}

/// Pre-size hot structures from a packet-count hint. Connection
/// populations in both the generated datasets and the paper's traces run
/// a few dozen packets per connection, so `packets / 32` with sane bounds
/// keeps the key map from rehashing mid-trace without over-reserving for
/// tiny fixtures.
pub(crate) fn expected_conns_hint(packets_hint: usize) -> usize {
    (packets_hint / 32).clamp(64, 16_384)
}

pub(crate) fn table_config(config: &PipelineConfig, expected_conns: usize) -> TableConfig {
    TableConfig {
        max_conns: config.max_conns,
        expected_conns,
        ..TableConfig::default()
    }
}

/// Analyze one trace end-to-end.
pub fn analyze_trace(trace: &Trace, config: &PipelineConfig) -> TraceAnalysis {
    let frames = trace
        .packets
        .iter()
        .map(|p| (p.ts, &*p.frame, p.orig_len));
    analyze_packets(&trace.meta, frames, config, trace.packets.len())
}

/// Analyze a stream of `(timestamp, captured frame, original wire length)`
/// views without materializing owned packets — the zero-copy entry point
/// the study path feeds straight from the generator's
/// [`PacketArena`](ent_pcap::PacketArena). `packets_hint` pre-sizes the
/// connection table (pass the packet count when known).
pub fn analyze_packets<'a, I>(
    meta: &TraceMeta,
    packets: I,
    config: &PipelineConfig,
    packets_hint: usize,
) -> TraceAnalysis
where
    I: Iterator<Item = (Timestamp, &'a [u8], u32)>,
{
    let frames = packets.map(|(ts, frame, orig_len)| FrameRef { ts, frame, orig_len });
    let expected = expected_conns_hint(packets_hint);
    // Branch on the hasher once, outside the loop: each arm monomorphizes
    // its own `analyze_frames`, so the escape hatch costs nothing per
    // packet.
    if config.use_std_hash {
        let table = ConnTable::with_std_hasher(table_config(config, expected));
        analyze_frames(meta, frames, config, table, expected)
    } else {
        let table = ConnTable::new(table_config(config, expected));
        analyze_frames(meta, frames, config, table, expected)
    }
}

/// The streaming analysis core shared by the batch pipeline and the
/// resident monitor: a connection table plus per-connection analyzer
/// state, fed one frame at a time. The batch path drives it straight
/// through and finishes once; the monitor rotates it at epoch boundaries,
/// swapping a fresh [`TraceAnalysis`] in while the table, analyzer slab
/// and learned dynamic ports keep their allocations.
/// Sampling stride for the fused parse+ingest pass: one packet in
/// `LAP_STRIDE` runs with per-stage clock reads, the rest run clock-free.
/// Two `Instant::now` calls per packet (~70 ns) used to rival the stage
/// work itself at multi-M pkts/s; sampling keeps the per-stage wall split
/// honest at 1/64 of that cost.
const LAP_STRIDE: u64 = 64;

pub(crate) struct Engine<S: BuildHasher> {
    table: ConnTable<S>,
    handler: Handler,
    // Load bins are indexed relative to the window base — the trace's
    // first timestamp in batch mode, the epoch start in monitor mode.
    // Traces with epoch-based clocks (real captures) would otherwise land
    // every sample past the end of the vec and the series would read zero.
    first: bool,
    base_us: u64,
    base_sec: u64,
    max_ts: Timestamp,
    pt: StageTimer,
    // Fused parse+ingest timing state: packet phase index, un-attributed
    // clock-free wall, and the clocked parse/ingest laps from sampled
    // packets (the attribution ratio). All window-scoped except pkt_idx.
    pkt_idx: u64,
    fused_ns: u64,
    parse_sample_ns: u64,
    ingest_sample_ns: u64,
}

impl<S: BuildHasher> Engine<S> {
    /// Build an engine around an output record and a connection table.
    pub(crate) fn new(
        out: TraceAnalysis,
        table: ConnTable<S>,
        config: &PipelineConfig,
        payload_ok: bool,
        expected_conns: usize,
    ) -> Engine<S> {
        Engine {
            table,
            handler: Handler {
                out,
                conns: Vec::with_capacity(expected_conns),
                dynamic: DynamicPorts::new(),
                payload_ok,
                panic_every: config.analyzer_panic_every,
                max_pending: config.max_pending,
                tcp_data_events: 0,
            },
            first: true,
            base_us: 0,
            base_sec: 0,
            max_ts: Timestamp::ZERO,
            pt: StageTimer::start(),
            pkt_idx: 0,
            fused_ns: 0,
            parse_sample_ns: 0,
            ingest_sample_ns: 0,
        }
    }

    /// Parse, tally and flow-ingest one frame.
    pub(crate) fn ingest_frame(&mut self, p: FrameRef<'_>) {
        // Dissection stays in this small wrapper, outside the sampled laps
        // of `tally_and_ingest`: folding the two into one function made
        // the monitor's per-packet loop ~20% slower in a same-host A/B.
        match Packet::parse(p.frame) {
            Ok(pkt) => self.tally_and_ingest(p, Some(&pkt)),
            Err(_) => self.tally_and_ingest(p, None),
        }
    }

    /// Tally and flow-ingest one frame `ingest_frame` dissected (`None`:
    /// the dissector rejected it).
    fn tally_and_ingest(&mut self, p: FrameRef<'_>, pkt: Option<&Packet<'_>>) {
        if self.first {
            self.first = false;
            self.base_us = p.ts.micros();
            self.base_sec = self.base_us / 1_000_000;
            self.max_ts = p.ts;
        }
        // Fused fast path: event/byte stats are exact on every packet, but
        // only one packet in LAP_STRIDE reads the clock (the first packet
        // of every window is a sample, so no epoch reports a zero wall).
        // Clock-free spans accumulate in fused_ns and get split between
        // frame_parse and flow_ingest at flush time in the sampled ratio.
        let sampled = self.pkt_idx.is_multiple_of(LAP_STRIDE);
        self.pkt_idx += 1;
        if sampled {
            self.fused_ns += self.pt.lap();
        }
        let handler = &mut self.handler;
        // Every frame counts toward the authoritative wire-byte total —
        // including undissectable ones and samples the per-second bins
        // reject — so cumulative byte accounting never undercounts.
        handler.out.wire_bytes += p.orig_len as u64;
        let Some(pkt) = pkt else {
            // Undissectable frame: count it rather than silently narrowing
            // the trace — the analyses' denominators stay honest.
            handler.out.health.malformed_frames += 1;
            handler.out.metrics.frame_parse.add(0, 1, p.frame.len() as u64);
            if sampled {
                self.parse_sample_ns += self.pt.lap();
            }
            return;
        };
        handler.out.packets += 1;
        match &pkt.net {
            ent_wire::NetLayer::Ipv4 { .. } | ent_wire::NetLayer::Ipv6 { .. } => {
                handler.out.ip_packets += 1;
            }
            ent_wire::NetLayer::Arp(_) => handler.out.arp_packets += 1,
            ent_wire::NetLayer::Ipx { .. } => handler.out.ipx_packets += 1,
            ent_wire::NetLayer::OtherL3(_) => handler.out.other_l3_packets += 1,
        }
        let sec = (p.ts.micros() / 1_000_000).saturating_sub(self.base_sec) as usize;
        if let Some(bin) = handler.out.bytes_per_second.get_mut(sec) {
            *bin += p.orig_len as u64;
        } else {
            handler.out.health.load_samples_out_of_range += 1;
        }
        if p.ts > self.max_ts {
            self.max_ts = p.ts;
        }
        handler.out.metrics.frame_parse.add(0, 1, p.frame.len() as u64);
        if sampled {
            self.parse_sample_ns += self.pt.lap();
        }
        self.table.ingest(pkt, p.ts, &mut self.handler);
        self.handler.out.metrics.flow_ingest.add(0, 1, p.orig_len as u64);
        if sampled {
            self.ingest_sample_ns += self.pt.lap();
        }
    }

    /// Attribute the fused pass's wall time to the current window's
    /// frame_parse/flow_ingest stages: sampled laps are charged directly,
    /// and the clock-free remainder is split in the sampled parse:ingest
    /// ratio (an even split when no sample landed in the window, which
    /// only happens for packet-free windows). Must run before a window is
    /// swapped out so every epoch report carries its own wall time.
    fn flush_fused_laps(&mut self) {
        self.fused_ns += self.pt.lap();
        let ps = self.parse_sample_ns;
        let is = self.ingest_sample_ns;
        let parse_share = if ps + is > 0 {
            ((self.fused_ns as u128 * ps as u128) / (ps + is) as u128) as u64
        } else {
            self.fused_ns / 2
        };
        let m = &mut self.handler.out.metrics;
        m.frame_parse.add(ps + parse_share, 0, 0);
        m.flow_ingest.add(is + (self.fused_ns - parse_share), 0, 0);
        self.fused_ns = 0;
        self.parse_sample_ns = 0;
        self.ingest_sample_ns = 0;
        self.pkt_idx = 0;
    }

    /// Close out still-open connections at `end_ts` (finish() clamps open
    /// conns back to this point). The batch terminal step.
    pub(crate) fn finish_at(&mut self, end_ts: Timestamp) {
        self.flush_fused_laps();
        self.table.finish(end_ts, &mut self.handler);
        self.handler.out.metrics.flow_ingest.add(self.pt.lap(), 0, 0);
    }

    /// Rotate at an epoch boundary: force-close every open connection
    /// (clamped to `end_ts`), reset the per-epoch analyzer state retaining
    /// capacity, swap `next` in as the new output window, and return the
    /// finished window. Lifetime counters (table stats, dynamic ports,
    /// the stream clock watermark) survive the rotation.
    pub(crate) fn rotate(&mut self, end_ts: Timestamp, next: TraceAnalysis) -> TraceAnalysis {
        self.flush_fused_laps();
        self.table.rotate(end_ts, &mut self.handler);
        self.handler.out.metrics.flow_ingest.add(self.pt.lap(), 0, 0);
        self.handler.reset_epoch();
        std::mem::replace(&mut self.handler.out, next)
    }

    /// Re-base the load-bin window (monitor epochs start at epoch
    /// boundaries, not at the first packet of the epoch).
    pub(crate) fn set_window_base(&mut self, base_us: u64) {
        self.first = false;
        self.base_us = base_us;
        self.base_sec = base_us / 1_000_000;
    }

    /// First-packet window base, microseconds (0 before the first packet).
    pub(crate) fn base_us(&self) -> u64 {
        self.base_us
    }

    /// Latest timestamp seen on the stream.
    pub(crate) fn max_ts(&self) -> Timestamp {
        self.max_ts
    }

    /// Lifetime flow-table robustness counters.
    pub(crate) fn flow_stats(&self) -> &ent_flow::FlowStats {
        self.table.stats()
    }

    /// The connection table's cross-epoch scalar state.
    pub(crate) fn table_carry(&self) -> ent_flow::TableCarry {
        self.table.carry()
    }

    /// Restore cross-epoch table state (checkpoint resume).
    pub(crate) fn restore_table_carry(&mut self, carry: ent_flow::TableCarry) {
        self.table.restore(carry);
    }

    /// Dynamically learned port→protocol mappings (checkpoint export).
    pub(crate) fn dynamic_ports(&self) -> &DynamicPorts {
        &self.handler.dynamic
    }

    /// Re-learn a dynamic port mapping (checkpoint restore).
    pub(crate) fn learn_dynamic(&mut self, addr: ent_wire::ipv4::Addr, port: u16, app: AppProtocol) {
        self.handler.dynamic.learn(addr, port, app);
    }

    /// The in-progress output window.
    pub(crate) fn analysis_mut(&mut self) -> &mut TraceAnalysis {
        &mut self.handler.out
    }

    /// Consume the engine, yielding the final output window.
    pub(crate) fn into_analysis(self) -> TraceAnalysis {
        self.handler.out
    }
}

/// A window's initial output record, with the load-bin series sized for
/// `duration_secs` of trace time.
pub(crate) fn window_analysis(meta: &TraceMeta, duration_secs: u64) -> TraceAnalysis {
    TraceAnalysis {
        dataset: meta.dataset.clone(),
        subnet: meta.subnet,
        pass: meta.pass,
        duration_secs,
        link_capacity_bps: meta.link_capacity_bps,
        bytes_per_second: vec![0; (duration_secs + 1) as usize],
        ..Default::default()
    }
}

/// The post-ingest passes over a finished window's connection records:
/// scanner removal (paper §3), unless the ablation keeps them, then
/// retransmission accounting (keep-alive probes excluded, §6) — after
/// scanner removal so failed-probe SYN retries do not pollute the rates.
/// Rates are over *data* packets (the paper's denominator): pure ACKs
/// carry nothing and cannot be retransmissions, so counting them would
/// systematically understate every rate.
pub(crate) fn post_process(out: &mut TraceAnalysis, config: &PipelineConfig) {
    let mut st = StageTimer::start();
    let conns_examined = out.conns.len() as u64;
    if !config.keep_scanners {
        let (flagged, removed) = remove_scanners(&mut out.conns, &config.scanners);
        let set: std::collections::HashSet<u32> = flagged.iter().map(|a| a.0).collect();
        out.http.retain(|h| !set.contains(&h.client.0));
        out.dns.retain(|d| !set.contains(&d.client.0));
        out.nbns.retain(|n| !set.contains(&n.client.0));
        out.tls.retain(|t| !set.contains(&t.client.0));
        out.scanners_removed = flagged;
        out.scanner_conns_removed = removed.len() as u64;
        out.scanner_conns = removed;
    }
    out.metrics.scanner_removal.add(st.lap(), conns_examined, 0);
    for c in &out.conns {
        if c.summary.key.proto != Proto::Tcp {
            continue;
        }
        let s = &c.summary;
        let data_pkts = s.orig.real_data_packets() + s.resp.real_data_packets();
        let retx = s.orig.real_retx_packets() + s.resp.real_retx_packets();
        let internal = is_internal(s.key.orig.addr) && is_internal(s.key.resp.addr);
        let slot = if internal {
            &mut out.retx_ent
        } else {
            &mut out.retx_wan
        };
        slot.0 += data_pkts;
        slot.1 += retx;
    }
}

/// The generic per-packet loop: parse → tally → flow ingest, over any
/// frame source and either connection-table hasher.
fn analyze_frames<'a, S, I>(
    meta: &TraceMeta,
    frames: I,
    config: &PipelineConfig,
    table: ConnTable<S>,
    expected_conns: usize,
) -> TraceAnalysis
where
    S: BuildHasher,
    I: Iterator<Item = FrameRef<'a>>,
{
    let out = window_analysis(meta, meta.duration.micros() / 1_000_000);
    let payload_ok = meta.has_payload();
    let mut engine = Engine::new(out, table, config, payload_ok, expected_conns);
    let total = StageTimer::start();
    for p in frames {
        engine.ingest_frame(p);
    }
    // Close out still-open connections at the trace's absolute end: the
    // nominal duration past the first packet, or the last packet seen,
    // whichever is later.
    let end_abs = Timestamp::from_micros(engine.base_us().saturating_add(meta.duration.micros()))
        .max(engine.max_ts());
    engine.finish_at(end_abs);
    let fstats = *engine.flow_stats();
    let mut out = engine.into_analysis();
    out.health.clock_regressions = fstats.clock_regressions;
    out.health.evicted_conns = fstats.evicted_conns;
    out.metrics.peak_open_conns = fstats.peak_open_conns;
    // Degradation events surface as the backpressure stage even in batch
    // runs, so a capped batch analysis and a monitor read the same way.
    let degraded = fstats.evicted_conns + out.health.pending_dropped;
    if degraded > 0 {
        out.metrics.backpressure.add(0, degraded, 0);
    }
    post_process(&mut out, config);
    out.metrics.trace_wall_ns = total.elapsed_ns();
    out.metrics.traces = 1;
    out
}

/// Analyze a serialized (possibly damaged) capture end-to-end.
///
/// The buffer is streamed through the recovering pcap reader with a
/// reusable cursor — each salvaged record is analyzed as a borrowed
/// [`RecordView`](ent_pcap::RecordView) straight out of the capture
/// buffer, never materialized as an intermediate owned packet copy.
/// Per-record damage is salvaged and tallied, not fatal; the capture-layer
/// tally lands in [`TraceAnalysis::health`] next to the pipeline's own
/// counters. The only error is [`AnalysisError::Ingest`]: an unusable
/// global header leaves nothing to salvage.
pub fn analyze_capture(
    data: &[u8],
    mut meta: TraceMeta,
    config: &PipelineConfig,
) -> Result<TraceAnalysis, AnalysisError> {
    let mut reader = RecoveringReader::new(data)?;
    meta.snaplen = reader.snaplen();
    // Sizing hint from the raw buffer: enterprise frames average a few
    // hundred bytes on the wire, so bytes/600 approximates the packet
    // count well enough for pre-sizing.
    let expected = expected_conns_hint(data.len() / 600);
    let frames = std::iter::from_fn(|| {
        reader.next_record().map(|r| FrameRef {
            ts: r.ts,
            frame: r.frame,
            orig_len: r.orig_len,
        })
    });
    let mut analysis = if config.use_std_hash {
        let table = ConnTable::with_std_hasher(table_config(config, expected));
        analyze_frames(&meta, frames, config, table, expected)
    } else {
        let table = ConnTable::new(table_config(config, expected));
        analyze_frames(&meta, frames, config, table, expected)
    };
    analysis.health.capture = reader.stats().clone();
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ent_gen::{build, dataset, GenConfig};

    fn analyzed(dataset_idx: usize, subnet: u16) -> TraceAnalysis {
        let specs = dataset::all_datasets();
        let config = GenConfig {
            scale: 0.03,
            seed: 11,
            hosts_per_subnet: Some(10),
        };
        let (site, wan) = build::build_site(&specs[dataset_idx], &config);
        let trace = build::generate_trace(&site, &wan, &specs[dataset_idx], subnet, 1, &config);
        analyze_trace(&trace, &PipelineConfig::default())
    }

    /// Merge several subnets' analyses into one (for statistically stable
    /// assertions: individual traces legitimately vary, as real ones do).
    fn analyzed_many(dataset_idx: usize, subnets: std::ops::Range<u16>) -> Vec<TraceAnalysis> {
        subnets.map(|s| analyzed(dataset_idx, s)).collect()
    }

    #[test]
    fn full_payload_trace_produces_all_record_kinds() {
        // Several D0 subnets (3 and 4 host the NFS/NCP servers) for
        // statistical stability at test scale.
        let all = analyzed_many(0, 2..7);
        let a = &all[1]; // subnet 3
        assert!(a.packets > 1_000, "packets {}", a.packets);
        assert!(a.ip_packets > a.non_ip_packets());
        assert!(!a.conns.is_empty());
        assert!(!a.dns.is_empty(), "no DNS records");
        assert!(!a.nbns.is_empty(), "no NBNS records");
        assert!(!a.nfs.is_empty(), "no NFS records");
        let ncp: usize = all.iter().map(|t| t.ncp.len()).sum();
        assert!(ncp > 0, "no NCP records across five D0 subnets");
        let http: usize = all.iter().map(|t| t.http.len()).sum();
        assert!(http > 0, "no HTTP records");
        assert!(a.bytes_per_second.iter().sum::<u64>() > 0);
    }

    #[test]
    fn header_only_trace_still_yields_conn_summaries() {
        let a = analyzed(1, 3); // D1: snaplen 68
        assert!(!a.conns.is_empty());
        // Payload analyzers are disabled: no HTTP/NFS message records.
        assert!(a.http.is_empty());
        assert!(a.nfs.is_empty());
        // But transport-level categories still classify.
        assert!(a.conns.iter().any(|c| c.category == Category::Name));
    }

    #[test]
    fn scanners_removed_by_default() {
        // Sweeps are probabilistic per trace (frequency scales with run
        // scale), so aggregate across subnets.
        let all = analyzed_many(3, 22..30);
        let removed: u64 = all.iter().map(|t| t.scanner_conns_removed).sum();
        assert!(removed > 0, "generated scanners must be flagged somewhere");
        let a = all
            .into_iter()
            .max_by_key(|t| t.scanner_conns_removed)
            .expect("non-empty");
        // Ablation keeps them (re-analyze the subnet with the most
        // scanner traffic).
        let specs = dataset::all_datasets();
        let config = GenConfig {
            scale: 0.03,
            seed: 11,
            hosts_per_subnet: Some(10),
        };
        let (site, wan) = build::build_site(&specs[3], &config);
        let trace = build::generate_trace(&site, &wan, &specs[3], a.subnet, 1, &config);
        let kept = analyze_trace(
            &trace,
            &PipelineConfig {
                keep_scanners: true,
                ..Default::default()
            },
        );
        assert!(kept.conns.len() > a.conns.len());
    }

    #[test]
    fn windows_records_present_at_print_vantage() {
        let a = analyzed(4, 30); // D4, print server subnet
        assert!(!a.cifs.is_empty(), "no CIFS records");
        assert!(!a.rpc.is_empty(), "no RPC records");
        let writes = a
            .rpc
            .iter()
            .filter(|r| r.function == dcerpc::RpcFunction::SpoolssWritePrinter)
            .count();
        assert!(writes > 0, "no WritePrinter calls seen");
    }

    fn generated(dataset_idx: usize, subnet: u16) -> ent_pcap::Trace {
        let specs = dataset::all_datasets();
        let config = GenConfig {
            scale: 0.03,
            seed: 11,
            hosts_per_subnet: Some(10),
        };
        let (site, wan) = build::build_site(&specs[dataset_idx], &config);
        build::generate_trace(&site, &wan, &specs[dataset_idx], subnet, 1, &config)
    }

    #[test]
    fn clean_trace_reports_clean_health() {
        let a = analyzed(0, 3);
        assert!(a.health.is_clean(), "unexpected damage: {}", a.health);
    }

    #[test]
    fn malformed_frames_are_counted_not_silently_dropped() {
        let mut trace = generated(0, 3);
        let clean = analyze_trace(&trace, &PipelineConfig::default());
        // Graft three undissectable frames into the middle of the trace:
        // empty, shorter than an Ethernet header, and an IPv4 ethertype
        // followed by a truncated IP header.
        let mut bad_ipv4 = vec![0u8; 14];
        bad_ipv4[12..14].copy_from_slice(&[0x08, 0x00]);
        bad_ipv4.extend_from_slice(&[0xFF; 2]);
        for (i, frame) in [vec![], vec![0xFF; 7], bad_ipv4].into_iter().enumerate() {
            let ts = trace.packets[10 * (i + 1)].ts;
            trace
                .packets
                .insert(10 * (i + 1), ent_pcap::TimedPacket::new(ts, frame));
        }
        let a = analyze_trace(&trace, &PipelineConfig::default());
        assert_eq!(a.health.malformed_frames, 3);
        assert!(!a.health.is_clean());
        // The rest of the analysis is unaffected.
        assert_eq!(a.packets, clean.packets);
        assert_eq!(a.conns.len(), clean.conns.len());
    }

    #[test]
    fn analyzer_panic_demotes_connection_but_keeps_summary() {
        let trace = generated(0, 3);
        let clean = analyze_trace(&trace, &PipelineConfig::default());
        // Silence the default panic hook around the injected faults so the
        // test log stays readable; the injection itself is deterministic.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let a = analyze_trace(
            &trace,
            &PipelineConfig {
                analyzer_panic_every: 7,
                ..Default::default()
            },
        );
        std::panic::set_hook(hook);
        assert!(a.health.analyzer_failures > 0, "no injected faults fired");
        assert_eq!(a.health.analyzer_failures, a.health.demoted_conns);
        // Flow-level results survive every analyzer loss...
        assert_eq!(a.conns.len() + a.scanner_conns.len(),
            clean.conns.len() + clean.scanner_conns.len());
        // ...while application records shrink (demoted conns stop parsing).
        let app_records = |t: &TraceAnalysis| {
            t.http.len() + t.nfs.len() + t.ncp.len() + t.rpc.len() + t.cifs.len()
        };
        assert!(app_records(&a) < app_records(&clean));
    }

    #[test]
    fn conn_cap_flows_into_health() {
        let trace = generated(0, 3);
        let a = analyze_trace(
            &trace,
            &PipelineConfig {
                max_conns: 8,
                ..Default::default()
            },
        );
        assert!(a.health.evicted_conns > 0);
        // Eviction summarizes connections early (a flow continuing past its
        // eviction reopens as a new conn); nothing is dropped.
        let unbounded = analyze_trace(&trace, &PipelineConfig::default());
        assert!(
            a.conns.len() + a.scanner_conns.len()
                >= unbounded.conns.len() + unbounded.scanner_conns.len()
        );
    }

    #[test]
    fn analyze_capture_carries_capture_damage_into_health() {
        let trace = generated(0, 3);
        let mut bytes = Vec::new();
        trace.write_pcap(&mut bytes).expect("serialize");
        let clean = analyze_capture(&bytes, trace.meta.clone(), &PipelineConfig::default())
            .expect("clean capture");
        assert!(clean.health.capture.is_clean());
        assert_eq!(clean.packets, trace.packets.len() as u64);
        // Corrupt one record header mid-file: the reader resynchronizes and
        // the damage shows up in the analysis health.
        let mut offsets = Vec::new();
        let mut off = 24;
        while off + 16 <= bytes.len() {
            let caplen =
                u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes"));
            offsets.push(off);
            off += 16 + caplen as usize;
        }
        let rec = offsets[offsets.len() / 2];
        bytes[rec + 4..rec + 8].copy_from_slice(&0x7FFF_FFFFu32.to_le_bytes());
        let a = analyze_capture(&bytes, trace.meta.clone(), &PipelineConfig::default())
            .expect("damaged but salvageable");
        assert!(a.health.capture.malformed_records > 0);
        assert!(a.packets > clean.packets / 2, "most packets salvaged");
        // An unusable global header is the one fatal case.
        bytes[0] = 0;
        let err = analyze_capture(&bytes, trace.meta.clone(), &PipelineConfig::default());
        assert!(matches!(err, Err(AnalysisError::Ingest(_))));
    }

    #[test]
    fn tls_handshakes_complete() {
        let a = analyzed(4, 28); // D4, web server subnet (HTTPS + the buggy pair)
        assert!(!a.tls.is_empty());
        let complete = a.tls.iter().filter(|t| t.handshake_complete).count();
        assert!(
            complete * 10 >= a.tls.len() * 8,
            "most TLS handshakes should complete: {complete}/{}",
            a.tls.len()
        );
    }

    #[test]
    fn epoch_timestamped_capture_populates_load_series() {
        // Real captures stamp packets with epoch time (~1.1e9 s), not
        // trace-relative time. Binning must be relative to the first
        // packet, or every sample lands past the end of the per-second
        // vec and the load series silently reads all zeros.
        let rel = analyzed(0, 3);
        let mut trace = generated(0, 3);
        const EPOCH_US: u64 = 1_100_000_000 * 1_000_000;
        for p in &mut trace.packets {
            p.ts = Timestamp::from_micros(EPOCH_US + p.ts.micros());
        }
        let mut bytes = Vec::new();
        trace.write_pcap(&mut bytes).expect("serialize");
        let a = analyze_capture(&bytes, trace.meta.clone(), &PipelineConfig::default())
            .expect("clean capture");
        assert!(
            a.bytes_per_second.iter().sum::<u64>() > 0,
            "load series is all zeros for an epoch-stamped capture"
        );
        assert_eq!(a.health.load_samples_out_of_range, 0);
        // The absolute clock base changes nothing else: same series, same
        // connections, same durations.
        assert_eq!(a.bytes_per_second, rel.bytes_per_second);
        assert_eq!(a.conns.len(), rel.conns.len());
        for (ca, cr) in a.conns.iter().zip(&rel.conns) {
            assert_eq!(
                ca.summary.duration_us(),
                cr.summary.duration_us(),
                "epoch base distorted a connection duration"
            );
        }
    }

    #[test]
    fn retx_denominator_counts_only_data_packets() {
        // Paper §6 retransmission rates are over *data* packets; pure
        // ACKs (the handshake's third segment, every ACK of received
        // data) carry nothing and must not inflate the denominator.
        let trace = generated(0, 3);
        let a = analyze_trace(
            &trace,
            &PipelineConfig {
                keep_scanners: true,
                ..Default::default()
            },
        );
        let (mut data, mut total) = (0u64, 0u64);
        for c in &a.conns {
            if c.summary.key.proto != Proto::Tcp {
                continue;
            }
            data += c.summary.orig.real_data_packets() + c.summary.resp.real_data_packets();
            total += c.summary.orig.packets + c.summary.resp.packets;
        }
        assert_eq!(a.retx_ent.0 + a.retx_wan.0, data);
        assert!(
            data < total,
            "TCP traffic with handshakes must contain pure ACKs ({data} vs {total})"
        );
        assert!(data > 0);
    }

    #[test]
    fn wire_bytes_authoritative_under_wild_timestamps_and_damage() {
        // The per-second load bins reject out-of-window samples (tallied in
        // health.load_samples_out_of_range) and malformed frames never
        // reach the binning at all — so summing the bins undercounts.
        // `wire_bytes` must still equal the full on-the-wire total.
        let mut trace = generated(0, 3);
        if let Some(p) = trace.packets.last_mut() {
            // Wild timestamp: 50k seconds past the window end.
            p.ts = Timestamp::from_micros(p.ts.micros() + 50_000_000_000);
        }
        let graft_ts = trace.packets[20].ts;
        trace
            .packets
            .insert(20, ent_pcap::TimedPacket::new(graft_ts, vec![0xFF; 9]));
        let a = analyze_trace(&trace, &PipelineConfig::default());
        let total: u64 = trace.packets.iter().map(|p| p.orig_len as u64).sum();
        assert_eq!(a.wire_bytes, total);
        assert!(a.health.load_samples_out_of_range >= 1);
        assert_eq!(a.health.malformed_frames, 1);
        assert!(
            a.bytes_per_second.iter().sum::<u64>() < total,
            "binned bytes must undercount here; wire_bytes is the truth"
        );
    }

    #[test]
    fn metrics_cover_every_pipeline_stage() {
        let a = analyzed(0, 3);
        let m = &a.metrics;
        // `generate` is filled in by run.rs — every stage analyze_trace
        // itself owns must be live on a normal trace.
        assert_eq!(m.frame_parse.events, a.packets);
        assert_eq!(m.flow_ingest.events, a.packets);
        assert!(m.flow_ingest.wall_ns > 0);
        assert!(m.tcp_deliver.events > 0);
        assert!(m.udp_deliver.events > 0);
        assert!(m.finalize.events > 0);
        assert!(m.scanner_removal.events > 0);
        assert!(m.peak_open_conns > 0);
        assert!(m.trace_wall_ns > 0);
        assert_eq!(m.traces, 1);
        // Analyzer delivery events sum to at most the per-direction
        // delivery totals (connections without an analyzer deliver too).
        let analyzer_events: u64 = m.analyzers.named().iter().map(|(_, s)| s.events).sum();
        assert!(analyzer_events > 0);
        assert!(analyzer_events <= m.tcp_deliver.events + m.udp_deliver.events);
    }
}
