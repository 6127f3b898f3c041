//! The single-home worlds (`mix_soap`, `mix_binary`, `vsr_churn`):
//! how each is built and warmed, its operations, and the oracle that
//! checks every result.

use crate::mix::{self, Call, Model};
use crate::rng::Rng;
use crate::workload::Workload;
use metaware::{
    CompactBinary, MetaError, Middleware, OpSig, ServiceInterface, SmartHome, Soap11, Span,
    TypeTag, VirtualService, Vsg, VsgProtocol, VsgRequest,
};
use simnet::Sim;
use soap::Value;
use std::sync::Arc;

/// The home's world seed. Fixed: the benchmark seed picks the inputs,
/// not the system under test.
pub const HOME_SEED: u64 = 0x1CDC_2002;

/// Null-app services in `vsr_churn`.
pub const CHURN_SERVICES: usize = 512;
/// The `vsr_churn` caller's route-cache capacity.
pub const CHURN_CACHE: usize = 64;
/// One `vsr_churn` op in this many is a service move.
pub const CHURN_MOVE_EVERY: usize = 10;
/// The generator stream warm-up calls draw from.
pub const WARM_UP_STREAM: u64 = 0xA11;
/// The generator stream measured ops draw from.
const OPS_STREAM: u64 = 1;

/// One operation of a single-home workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A device-mix call (or the composite).
    Mix(Call),
    /// `vsr_churn`: the caller invokes null-app service `svc`.
    Invoke(u32),
    /// `vsr_churn`: service `svc` is withdrawn from its gateway and
    /// exported on host gateway `to`.
    Move {
        /// The service.
        svc: u32,
        /// Index of the new host gateway.
        to: u8,
    },
}

/// The codec a workload's gateways speak.
pub fn protocol(workload: Workload) -> Arc<dyn VsgProtocol> {
    match workload {
        Workload::MixSoap | Workload::FleetDay => Arc::new(Soap11::new()),
        Workload::MixBinary | Workload::VsrChurn => Arc::new(CompactBinary::new()),
    }
}

/// A built, warmed single-home world.
pub struct World {
    /// The home under test.
    pub home: SmartHome,
    /// `vsr_churn`: the service-less gateway every invoke comes from.
    caller: Option<Vsg>,
    /// `vsr_churn`: the island gateways that host the null apps.
    hosts: Vec<Vsg>,
    /// `vsr_churn`: service names, by id.
    names: Vec<String>,
    /// `vsr_churn`: current host index per service.
    owner: Vec<u8>,
    model: Model,
}

fn null_interface() -> ServiceInterface {
    ServiceInterface::new("Null").op(OpSig::new("get").returns(TypeTag::Int).idempotent())
}

impl World {
    /// Builds and warms the world for `workload`. A churn world
    /// starts with service `i` on host `i % 4`.
    pub fn build(workload: Workload, seed: u64) -> Result<World, MetaError> {
        let protocol = protocol(workload);
        let churn = workload == Workload::VsrChurn;
        let mut builder = SmartHome::builder()
            .seed(HOME_SEED)
            .protocol(protocol.clone());
        if churn {
            builder = builder.vsr_replicas(3).vsr_shards(4);
        }
        let home = builder.build()?;
        let mut world = World {
            caller: None,
            hosts: Vec::new(),
            names: Vec::new(),
            owner: Vec::new(),
            model: Model::default(),
            home,
        };
        if churn {
            let caller = Vsg::start(
                &world.home.backbone,
                "caller-gw",
                protocol,
                world.home.vsr.node(),
            )?;
            caller.set_cache_capacity(CHURN_CACHE);
            world.caller = Some(caller);
            world.hosts = mix::ISLANDS
                .iter()
                .map(|&mw| world.home.gateway(mw).cloned().expect("standard island"))
                .collect();
            for svc in 0..CHURN_SERVICES as u32 {
                world.names.push(format!("svc-{svc:03}"));
                let host = (svc as usize % world.hosts.len()) as u8;
                world.export(svc, host)?;
                world.owner.push(host);
            }
            for svc in 0..CHURN_SERVICES as u32 {
                world.run_checked(&Op::Invoke(svc))?;
            }
        } else {
            mix::register_scene(&world.home)?;
            for call in mix::warm_up_calls(&mut Rng::new(seed, WARM_UP_STREAM)) {
                world.run_checked(&Op::Mix(call))?;
            }
        }
        Ok(world)
    }

    fn export(&self, svc: u32, host: u8) -> Result<(), MetaError> {
        let gw = &self.hosts[host as usize];
        let answer = Value::Int(i64::from(svc));
        gw.export(
            VirtualService::new(
                self.names[svc as usize].as_str(),
                null_interface(),
                mix::ISLANDS[host as usize],
                gw.name(),
            ),
            move |_: &Sim, _: &str, _: &[(String, Value)]| Ok(answer.clone()),
        )
    }

    /// Runs one op.
    pub fn run(&mut self, op: &Op) -> Result<Value, MetaError> {
        match op {
            Op::Mix(call) => call.invoke(&self.home),
            Op::Invoke(svc) => {
                let caller = self.caller.as_ref().expect("churn world");
                caller.invoke(&self.home.sim, &self.names[*svc as usize], "get", &[])
            }
            Op::Move { svc, to } => {
                let from = self.owner[*svc as usize];
                self.hosts[from as usize].withdraw(&self.names[*svc as usize])?;
                self.export(*svc, *to)?;
                self.owner[*svc as usize] = *to;
                Ok(Value::Null)
            }
        }
    }

    /// Whether `got` is what `op` must return (updating the oracle).
    pub fn check(&mut self, op: &Op, got: &Result<Value, MetaError>) -> bool {
        match op {
            Op::Mix(call) => self.model.check(call, got),
            Op::Invoke(svc) => got.as_ref() == Ok(&Value::Int(i64::from(*svc))),
            Op::Move { .. } => got.as_ref() == Ok(&Value::Null),
        }
    }

    fn run_checked(&mut self, op: &Op) -> Result<(), MetaError> {
        let got = self.run(op);
        if self.check(op, &got) {
            Ok(())
        } else {
            Err(MetaError::Protocol(format!(
                "warm-up {op:?} returned {got:?}"
            )))
        }
    }

    /// Turns span recording on or off on every gateway, the churn
    /// caller included.
    pub fn set_tracing(&self, on: bool) {
        self.home.set_tracing(on);
        if let Some(caller) = &self.caller {
            caller.set_tracing(on);
        }
    }

    /// Drains every recorded span, the churn caller's included.
    pub fn take_spans(&self) -> Vec<Span> {
        let mut spans = self.home.take_spans();
        if let Some(caller) = &self.caller {
            spans.extend(caller.tracer().take_spans());
        }
        spans
    }

    /// Route-cache `(hits, lookups)` summed over every calling gateway.
    pub fn cache_counts(&self) -> (u64, u64) {
        self.home
            .gateways()
            .into_iter()
            .chain(self.caller.as_ref())
            .map(Vsg::cache_stats)
            .fold((0, 0), |(h, n), s| {
                (h + s.hits, n + s.hits + s.negative_hits + s.misses)
            })
    }

    /// Backbone `(frames, bytes)` delivered so far.
    pub fn wire(&self) -> (u64, u64) {
        self.home.backbone.with_stats(|s| {
            let t = s.total();
            (t.frames, t.bytes)
        })
    }

    /// Fires the timers that came due while ops ran (the churn home's
    /// anti-entropy pass); the closed-loop client calls this between
    /// ops, outside the per-op timer.
    pub fn pump(&self) {
        self.home.sim.run_until(self.home.sim.now());
    }

    /// Invokes every churn service once from the caller: each must be
    /// reachable, wherever the moves left it. `None` for mix worlds.
    pub fn all_reachable(&self) -> Option<bool> {
        let caller = self.caller.clone()?;
        Some((0..self.names.len() as u32).all(|svc| {
            let got = caller.invoke(&self.home.sim, &self.names[svc as usize], "get", &[]);
            got == Ok(Value::Int(i64::from(svc)))
        }))
    }

    /// The gateway the ledger probes call from: one that serves none
    /// of the targets, so every probed call crosses the backbone.
    pub fn probe_caller(&self) -> Vsg {
        match &self.caller {
            Some(caller) => caller.clone(),
            None => self
                .home
                .gateway(Middleware::Mail)
                .cloned()
                .expect("mail island"),
        }
    }

    /// The gateway serving the target of a call-type op, and its
    /// island.
    pub fn owner_of(&self, op: &Op) -> (Middleware, Vsg) {
        let island = match op {
            Op::Mix(call) => call.kind.owner(),
            Op::Invoke(svc) | Op::Move { svc, .. } => {
                mix::ISLANDS[self.owner[*svc as usize] as usize]
            }
        };
        let gw = self.home.gateway(island).cloned().expect("standard island");
        (island, gw)
    }

    /// The request a call-type op sends, or `None` for moves and
    /// composites.
    pub fn request(&self, op: &Op) -> Option<VsgRequest> {
        match op {
            Op::Mix(call) if call.kind != mix::Kind::Scene => {
                let (service, operation) = call.kind.target();
                let mut req = VsgRequest::new(service, operation);
                req.args = call.args.clone();
                Some(req)
            }
            Op::Invoke(svc) => Some(VsgRequest::new(self.names[*svc as usize].as_str(), "get")),
            _ => None,
        }
    }
}

/// Generates a workload's op stream, block by block.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    /// Where the generator's moves have put each churn service.
    owner: Vec<u8>,
}

impl Generator {
    /// The op stream for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        Generator {
            workload,
            rng: Rng::new(seed, OPS_STREAM),
            owner: (0..CHURN_SERVICES)
                .map(|s| (s % mix::ISLANDS.len()) as u8)
                .collect(),
        }
    }

    /// The next `n` ops (mix blocks are whole decks, so `n` rounds up).
    pub fn block(&mut self, n: usize) -> Vec<Op> {
        if self.workload != Workload::VsrChurn {
            let decks = n.div_ceil(mix::DECK_LEN);
            return mix::deal(&mut self.rng, decks)
                .into_iter()
                .map(Op::Mix)
                .collect();
        }
        // Exactly one move per CHURN_MOVE_EVERY ops, at shuffled
        // positions; service choice skewed as u³ toward low ids.
        let mut is_move: Vec<bool> = (0..n).map(|i| i % CHURN_MOVE_EVERY == 0).collect();
        self.rng.shuffle(&mut is_move);
        is_move
            .into_iter()
            .map(|mv| {
                let u = self.rng.unit();
                let svc = ((u * u * u) * CHURN_SERVICES as f64) as u32;
                if mv {
                    let hosts = mix::ISLANDS.len() as u64;
                    let from = u64::from(self.owner[svc as usize]);
                    let to = ((from + 1 + self.rng.below(hosts - 1)) % hosts) as u8;
                    self.owner[svc as usize] = to;
                    Op::Move { svc, to }
                } else {
                    Op::Invoke(svc)
                }
            })
            .collect()
    }
}
