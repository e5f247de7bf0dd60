//! The wormhole virtual-channel router.
//!
//! A three-stage pipeline executed once per active (non-clock-gated) cycle,
//! in reverse order so a flit takes one stage per cycle:
//!
//! 1. **SA/ST** — switch allocation + traversal: per output port, a
//!    round-robin arbiter picks among input VCs whose packet was routed to
//!    that port, holds a downstream VC, and has a credit. The winning flit
//!    leaves through the crossbar (at most one flit per input port and per
//!    output port per cycle).
//! 2. **VA** — virtual-channel allocation: head flits that have a route claim
//!    a free VC at the downstream input port.
//! 3. **RC** — route computation: head flits at the front of a VC compute
//!    their candidate output ports; adaptive algorithms pick the candidate
//!    with the most free downstream credits.
//!
//! Flow control is credit-based: the router keeps, per output port and VC,
//! the number of free slots in the downstream buffer and the packet that owns
//! the VC; the network layer returns credits as downstream buffers drain.
//!
//! The pipeline stages themselves are implemented against the flat
//! structure-of-arrays fabric state in [`crate::soa`] — the network holds one
//! [`crate::soa::FabricState`] for every router and steps contiguous tile
//! slices of it. This module keeps the event/context types and [`Router`], a
//! single-router convenience wrapper (a one-router fabric) used by unit tests
//! that exercise the pipeline in isolation.

use crate::config::SwitchArb;
use crate::fault::LinkState;
use crate::flit::{Flit, PacketId};
use crate::power::EnergyMeter;
use crate::routing::{RoutingAlgorithm, RoutingTables};
use crate::soa::FabricState;
use crate::topology::{NodeId, Port, Topology};
use serde::{Deserialize, Serialize};

/// Effects of one router cycle, applied by the network layer.
#[derive(Debug, Clone, PartialEq)]
pub enum RouterEvent {
    /// A flit leaves through `out_port` toward the neighboring router.
    Forward {
        /// Output port the flit leaves through.
        out_port: Port,
        /// The departing flit (with `vc` set to the downstream VC).
        flit: Flit,
    },
    /// A flit reaches its destination and leaves the network.
    Eject {
        /// The delivered flit.
        flit: Flit,
    },
    /// A buffer slot freed on input port `in_port`, VC `vc`: the upstream
    /// sender regains one credit.
    Credit {
        /// Input port whose buffer drained.
        in_port: Port,
        /// Virtual channel index.
        vc: usize,
    },
    /// A flit of an unroutable packet is discarded (fault handling). The
    /// network layer counts it toward the drop/unreachable statistics.
    Drop {
        /// The discarded flit.
        flit: Flit,
    },
}

/// Per-cycle execution context handed to [`Router::step`].
#[allow(missing_debug_implementations)]
pub struct RouterCtx<'a> {
    /// The network topology (for route computation).
    pub topo: &'a Topology,
    /// Routing algorithm in force this cycle.
    pub routing: RoutingAlgorithm,
    /// Energy ledger the router counts its dynamic events into — the
    /// collector's own on the serial path, a tile's counter block inside
    /// the per-node phase.
    pub energy: &'a mut EnergyMeter,
    /// Effective V/F level of this router's region (the ledger column its
    /// events count toward).
    pub level: usize,
    /// Link/router liveness under the active fault set. `None` means the
    /// simulation runs without a fault plan (the common case) and route
    /// computation skips the liveness filter entirely.
    pub faults: Option<&'a LinkState>,
    /// Switch-allocation granularity (per-flit legacy vs per-packet
    /// wormhole holds). See [`SwitchArb`].
    pub arb: SwitchArb,
    /// Precomputed k-path tables, required when `routing` is
    /// [`RoutingAlgorithm::Table`] and ignored otherwise. The network
    /// rebuilds them whenever the live-link set changes.
    pub tables: Option<&'a RoutingTables>,
}

/// A single wormhole VC router: a one-router [`FabricState`] plus its node
/// id. The network layer steps the fabric directly; this wrapper exists for
/// tests that drive one router's pipeline in isolation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Router {
    id: NodeId,
    f: FabricState,
}

impl Router {
    /// Build an idle router.
    ///
    /// # Panics
    /// Panics if `num_vcs == 0`, `vc_depth == 0`, or `vc_partition` is set
    /// with fewer than two VCs.
    pub fn new(id: NodeId, num_vcs: usize, vc_depth: usize, vc_partition: bool) -> Self {
        Router {
            id,
            f: FabricState::new(1, num_vcs, vc_depth, vc_partition),
        }
    }

    /// This router's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of virtual channels per port.
    pub fn num_vcs(&self) -> usize {
        self.f.num_vcs()
    }

    /// Buffer depth per VC, in flits.
    pub fn vc_depth(&self) -> usize {
        self.f.vc_depth()
    }

    /// Total flits currently buffered across all input VCs.
    pub fn occupancy(&self) -> usize {
        self.f.occupancy(0)
    }

    /// Total buffering capacity across all input VCs.
    pub fn buffer_capacity(&self) -> usize {
        self.f.buffer_capacity()
    }

    /// Whether input VC `(port, vc)` can accept a flit right now. Used by
    /// the network layer to double-check flow control in debug builds.
    pub fn can_accept(&self, port: Port, vc: usize) -> bool {
        self.f.can_accept(0, port, vc)
    }

    /// Deposit a flit arriving on `port` into its VC buffer. Called by the
    /// network layer for link deliveries and local injections.
    ///
    /// # Panics
    /// Panics if the buffer is full (a flow-control violation).
    pub fn accept(&mut self, port: Port, flit: Flit, ctx: &mut RouterCtx<'_>) {
        self.f.tile().accept(0, port, flit, ctx);
    }

    /// Return one credit for output `(port, vc)` (downstream buffer drained
    /// a flit).
    pub fn return_credit(&mut self, port: Port, vc: usize) {
        self.f.tile().return_credit(0, port, vc);
    }

    /// Free slots the upstream view holds for output `(port, vc)`.
    pub fn credits(&self, port: Port, vc: usize) -> usize {
        self.f.credits(0, port, vc)
    }

    /// Packet owning downstream VC `(port, vc)`, if any (test observability).
    pub fn output_owner(&self, port: Port, vc: usize) -> Option<PacketId> {
        self.f.output_owner(0, port, vc)
    }

    /// Route lock on input VC `(port, vc)`, if any (test observability).
    pub fn input_route(&self, port: Port, vc: usize) -> Option<Port> {
        self.f.input_route(0, port, vc)
    }

    /// Downstream VC granted to input VC `(port, vc)` (test observability).
    pub fn input_out_vc(&self, port: Port, vc: usize) -> Option<usize> {
        self.f.input_out_vc(0, port, vc)
    }

    /// Execute one active cycle: SA/ST, then VA, then RC. Returns the events
    /// the network layer must apply (flit movements, ejections, credits).
    pub fn step(&mut self, ctx: &mut RouterCtx<'_>) -> Vec<RouterEvent> {
        let mut events = Vec::new();
        self.step_into(ctx, &mut events);
        events
    }

    /// Allocation-free variant of [`Router::step`]: appends this cycle's
    /// events to a caller-owned buffer.
    pub fn step_into(&mut self, ctx: &mut RouterCtx<'_>, events: &mut Vec<RouterEvent>) {
        let id = self.id;
        self.f.tile().step_node(0, id, ctx, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::VfTable;
    use crate::flit::{FlitKind, Packet, PacketId};
    use crate::power::{EnergyRates, PowerModel};

    fn ctx_parts() -> (Topology, EnergyMeter) {
        let mut meter = EnergyMeter::new();
        meter.set_rates(EnergyRates::new(
            &PowerModel::default_32nm(),
            &VfTable::four_level(),
        ));
        (Topology::mesh(4, 4), meter)
    }

    fn make_flits(src: usize, dst: usize, len: u32) -> Vec<Flit> {
        Packet {
            id: PacketId(1),
            src: NodeId(src),
            dst: NodeId(dst),
            len_flits: len,
            created_at: 0,
        }
        .to_flits(0)
    }

    /// Serialization round-trip of a loaded router rebuilds the occupancy
    /// counter from the buffers (it is never trusted from the wire), so a
    /// deserialized router keeps routing its buffered flits.
    #[test]
    fn deserialized_router_recomputes_occupancy() {
        let (topo, mut meter) = ctx_parts();
        let mut r = Router::new(NodeId(0), 2, 4, false);
        let mut ctx = RouterCtx {
            topo: &topo,
            routing: RoutingAlgorithm::Xy,
            energy: &mut meter,
            level: 3,
            faults: None,
            arb: SwitchArb::PerFlit,
            tables: None,
        };
        for f in make_flits(0, 1, 3) {
            r.accept(Port::Local, f, &mut ctx);
        }
        assert_eq!(r.occupancy(), 3);
        let json = serde_json::to_string(&r).expect("router serializes");
        let back: Router = serde_json::from_str(&json).expect("router deserializes");
        assert_eq!(
            back.occupancy(),
            3,
            "counter must be rebuilt, not defaulted"
        );
        assert_eq!(back, r);
        // The restored router still routes: three cycles later the head flit
        // is forwarded, which is impossible with a stale zero counter.
        let mut back = back;
        let mut events = Vec::new();
        for _ in 0..3 {
            events.clear();
            back.step_into(&mut ctx, &mut events);
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RouterEvent::Forward { .. })),
            "deserialized router must make progress: {events:?}"
        );
    }

    /// Drive a lone router: inject a packet on the Local port addressed to a
    /// neighbor and check it is forwarded east with pipeline latency 3
    /// (RC, VA, SA on successive cycles).
    #[test]
    fn single_flit_traverses_pipeline_in_three_cycles() {
        let (topo, mut meter) = ctx_parts();
        let mut r = Router::new(NodeId(0), 2, 4, false);
        let mut ctx = RouterCtx {
            topo: &topo,
            routing: RoutingAlgorithm::Xy,
            energy: &mut meter,
            level: 3,
            faults: None,
            arb: SwitchArb::PerFlit,
            tables: None,
        };
        let flits = make_flits(0, 1, 1);
        r.accept(Port::Local, flits[0].clone(), &mut ctx);

        // Cycle 1: RC only.
        let ev = r.step(&mut ctx);
        assert!(ev.is_empty(), "no movement before VA: {ev:?}");
        // Cycle 2: VA.
        let ev = r.step(&mut ctx);
        assert!(ev.is_empty(), "no movement before SA: {ev:?}");
        // Cycle 3: SA/ST forwards the flit.
        let ev = r.step(&mut ctx);
        let fwd = ev.iter().find_map(|e| match e {
            RouterEvent::Forward { out_port, flit } => Some((*out_port, flit.clone())),
            _ => None,
        });
        let (port, flit) = fwd.expect("flit forwarded");
        assert_eq!(port, Port::East);
        assert_eq!(flit.hops, 1);
        assert!(ev.iter().any(|e| matches!(
            e,
            RouterEvent::Credit {
                in_port: Port::Local,
                vc: 0
            }
        )));
    }

    #[test]
    fn flit_at_destination_is_ejected() {
        let (topo, mut meter) = ctx_parts();
        let mut r = Router::new(NodeId(5), 2, 4, false);
        let mut ctx = RouterCtx {
            topo: &topo,
            routing: RoutingAlgorithm::Xy,
            energy: &mut meter,
            level: 3,
            faults: None,
            arb: SwitchArb::PerFlit,
            tables: None,
        };
        let mut flit = make_flits(0, 5, 1).remove(0);
        flit.vc = 1;
        r.accept(Port::West, flit, &mut ctx);
        let mut ejected = false;
        for _ in 0..3 {
            for e in r.step(&mut ctx) {
                if let RouterEvent::Eject { flit } = e {
                    assert_eq!(flit.dst, NodeId(5));
                    ejected = true;
                }
            }
        }
        assert!(ejected, "flit should eject within 3 cycles");
    }

    #[test]
    fn credits_limit_outstanding_flits() {
        let (topo, mut meter) = ctx_parts();
        let mut r = Router::new(NodeId(0), 1, 2, false);
        let mut ctx = RouterCtx {
            topo: &topo,
            routing: RoutingAlgorithm::Xy,
            energy: &mut meter,
            level: 3,
            faults: None,
            arb: SwitchArb::PerFlit,
            tables: None,
        };
        // 5-flit packet; downstream buffer depth 2 and no credit returns.
        for f in make_flits(0, 3, 5).into_iter().take(2) {
            r.accept(Port::Local, f, &mut ctx);
        }
        let mut forwarded = 0;
        for _ in 0..10 {
            for e in r.step(&mut ctx) {
                if matches!(e, RouterEvent::Forward { .. }) {
                    forwarded += 1;
                }
            }
        }
        assert_eq!(
            forwarded, 2,
            "only vc_depth flits may be in flight without credits"
        );
        // Returning credits unblocks... nothing more is buffered, so verify
        // credit accounting instead.
        assert_eq!(r.credits(Port::East, 0), 0);
        r.return_credit(Port::East, 0);
        assert_eq!(r.credits(Port::East, 0), 1);
    }

    #[test]
    fn tail_flit_releases_vc_ownership() {
        let (topo, mut meter) = ctx_parts();
        let mut r = Router::new(NodeId(0), 1, 4, false);
        let mut ctx = RouterCtx {
            topo: &topo,
            routing: RoutingAlgorithm::Xy,
            energy: &mut meter,
            level: 3,
            faults: None,
            arb: SwitchArb::PerFlit,
            tables: None,
        };
        for f in make_flits(0, 1, 2) {
            r.accept(Port::Local, f, &mut ctx);
        }
        let mut tails = 0;
        for _ in 0..8 {
            for e in r.step(&mut ctx) {
                if let RouterEvent::Forward { flit, .. } = e {
                    if flit.kind == FlitKind::Tail {
                        tails += 1;
                    }
                }
            }
        }
        assert_eq!(tails, 1);
        // After the tail left, the output VC is free for a new packet.
        assert!(r.output_owner(Port::East, 0).is_none());
        assert!(r.input_route(Port::Local, 0).is_none());
    }

    #[test]
    fn occupancy_tracks_buffered_flits() {
        let (topo, mut meter) = ctx_parts();
        let mut r = Router::new(NodeId(0), 2, 4, false);
        let mut ctx = RouterCtx {
            topo: &topo,
            routing: RoutingAlgorithm::Xy,
            energy: &mut meter,
            level: 3,
            faults: None,
            arb: SwitchArb::PerFlit,
            tables: None,
        };
        assert_eq!(r.occupancy(), 0);
        for f in make_flits(0, 1, 3) {
            r.accept(Port::Local, f, &mut ctx);
        }
        assert_eq!(r.occupancy(), 3);
        assert_eq!(r.buffer_capacity(), 5 * 2 * 4);
    }

    #[test]
    fn vc_partition_restricts_allocation() {
        let (topo, mut meter) = ctx_parts();
        let mut r = Router::new(NodeId(0), 4, 2, true);
        let mut ctx = RouterCtx {
            topo: &topo,
            routing: RoutingAlgorithm::Xy,
            energy: &mut meter,
            level: 3,
            faults: None,
            arb: SwitchArb::PerFlit,
            tables: None,
        };
        let mut flit = make_flits(0, 1, 1).remove(0);
        flit.vc_class = 1;
        r.accept(Port::Local, flit, &mut ctx);
        r.step(&mut ctx); // RC
        r.step(&mut ctx); // VA
        let out_vc = r.input_out_vc(Port::Local, 0).expect("VC allocated");
        assert!(
            out_vc >= 2,
            "class-1 flit must use the upper VC half, got {out_vc}"
        );
    }

    #[test]
    fn step_consumes_energy() {
        let (topo, mut meter) = ctx_parts();
        let mut r = Router::new(NodeId(0), 2, 4, false);
        let mut ctx = RouterCtx {
            topo: &topo,
            routing: RoutingAlgorithm::Xy,
            energy: &mut meter,
            level: 3,
            faults: None,
            arb: SwitchArb::PerFlit,
            tables: None,
        };
        let f = make_flits(0, 1, 1).remove(0);
        r.accept(Port::Local, f, &mut ctx);
        for _ in 0..3 {
            r.step(&mut ctx);
        }
        assert!(meter.dynamic_pj() > 0.0);
        assert!(meter.events() >= 4, "write + RC + VA + SA events expected");
    }
}
