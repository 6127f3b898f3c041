//! The smart home of §1, ready-made.
//!
//! "Let's think about a smart home \[with\] a HAVi-based IEEE1394 network
//! connecting a digital TV and VCR, a Jini-based Ethernet network
//! connecting a refrigerator and an air conditioner" — plus the X10
//! powerline, the Internet mail service, and (post-hoc, §5) UPnP.
//!
//! [`SmartHome::builder`] assembles any subset of these islands on one
//! simulation: networks, native middleware, devices, gateways, PCMs, and
//! the VSR — then bridges everything. Examples, integration tests and
//! every benchmark build on it.

use crate::batch::BatchPolicy;
use crate::error::MetaError;
use crate::federation::FederationConfig;
use crate::iface::{catalog, InterfaceCatalog};
use crate::obs::{FlightRecorder, KeptTrace, SamplePolicy};
use crate::pcm::cloud::{CloudConfig, CloudIsland};
use crate::pcm::havi::HaviPcm;
use crate::pcm::jini::JiniPcm;
use crate::pcm::mail::MailPcm;
use crate::pcm::upnp::UpnpPcm;
use crate::pcm::x10::X10Pcm;
use crate::protocol::{Soap11, VsgProtocol};
use crate::resilience::ResiliencePolicy;
use crate::service::Middleware;
use crate::vsg::Vsg;
use crate::vsr::Vsr;
use havi::{Dcm, EventManager, FcmKind, MessagingSystem, Registry, StreamManager};
use jini::{discover, Entry, JValue, LookupService, RegistrarClient, RmiExporter, ServiceItem};
use mailsvc::{MailClient, MailServer};
use parking_lot::Mutex;
use simnet::{Network, Sim, SimDuration};
use soap::Value;
use std::sync::Arc;
use upnp::{DeviceDescription, UpnpDevice};
use x10::{Cm11a, Cm11aDriver, HouseCode, Module, ModuleKind, MotionSensor, Remote, UnitCode};

/// Observable state of the Jini laserdisc player.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserdiscState {
    /// Currently playing?
    pub playing: bool,
    /// Current chapter.
    pub chapter: i64,
}

/// The Jini island: Ethernet, a lookup service, and three appliances.
pub struct JiniIsland {
    /// The island's Ethernet.
    pub net: Network,
    /// The lookup service.
    pub reggie: LookupService,
    /// The island's gateway.
    pub vsg: Vsg,
    /// The island's PCM.
    pub pcm: JiniPcm,
    /// Laserdisc player state (for assertions).
    pub laserdisc: Arc<Mutex<LaserdiscState>>,
    /// Refrigerator temperature.
    pub fridge_temp: Arc<Mutex<f64>>,
    /// Air conditioner power state.
    pub aircon_on: Arc<Mutex<bool>>,
}

/// The HAVi island: an IEEE1394 bus with AV appliances.
pub struct HaviIsland {
    /// The 1394 bus.
    pub bus: Network,
    /// The FAV controller's messaging system (hosts registry + events).
    pub fav: MessagingSystem,
    /// The HAVi registry.
    pub registry: Registry,
    /// The HAVi event manager.
    pub events: EventManager,
    /// The stream manager.
    pub streams: StreamManager,
    /// The island's gateway.
    pub vsg: Vsg,
    /// The island's PCM.
    pub pcm: HaviPcm,
    /// The digital TV (tuner + display).
    pub tv: Dcm,
    /// The DV camcorder (the Fig. 5 camera).
    pub camcorder: Dcm,
    /// The VCR.
    pub vcr: Dcm,
}

/// The X10 island: the powerline, modules, a sensor and a remote.
pub struct X10Island {
    /// The powerline.
    pub powerline: Network,
    /// The CM11A's serial line.
    pub serial: Network,
    /// The computer interface.
    pub cm11a: Cm11a,
    /// The island's gateway.
    pub vsg: Vsg,
    /// The island's PCM.
    pub pcm: X10Pcm,
    /// Hall lamp at A1.
    pub hall_lamp: Module,
    /// Desk lamp at A2.
    pub desk_lamp: Module,
    /// Fan (appliance module) at A3.
    pub fan: Module,
    /// Motion sensor at C9.
    pub motion: MotionSensor,
}

impl X10Island {
    /// A fresh handheld remote on house code A.
    pub fn remote(&self) -> Remote {
        Remote::new(&self.powerline, "remote", house('A'))
    }
}

/// The Internet island: the mail service across the WAN.
pub struct MailIsland {
    /// The uplink.
    pub inet: Network,
    /// The mail server.
    pub server: MailServer,
    /// A client for test assertions.
    pub client: MailClient,
    /// The island's gateway.
    pub vsg: Vsg,
    /// The island's PCM.
    pub pcm: MailPcm,
}

/// The UPnP island (§5's latecomer).
pub struct UpnpIsland {
    /// The island's Ethernet.
    pub net: Network,
    /// The island's gateway.
    pub vsg: Vsg,
    /// The island's PCM.
    pub pcm: UpnpPcm,
    /// The porch light's power state.
    pub porch_on: Arc<Mutex<bool>>,
}

/// The assembled home.
pub struct SmartHome {
    /// The simulation world.
    pub sim: Sim,
    /// The inter-gateway backbone.
    pub backbone: Network,
    /// The Virtual Service Repository.
    pub vsr: Vsr,
    /// The Jini island, if built.
    pub jini: Option<JiniIsland>,
    /// The HAVi island, if built.
    pub havi: Option<HaviIsland>,
    /// The X10 island, if built.
    pub x10: Option<X10Island>,
    /// The mail island, if built.
    pub mail: Option<MailIsland>,
    /// The UPnP island, if built.
    pub upnp: Option<UpnpIsland>,
    /// The cloud bridge (WAN edge), if attached.
    pub cloud: Option<CloudIsland>,
    /// Handle of the VSR anti-entropy timer, armed automatically when
    /// the repository runs with more than one replica.
    pub vsr_sync_timer: Option<simnet::RepeatHandle>,
    /// The home's flight recorder: a bounded ring of sampled traces
    /// (see [`crate::obs`]). One per home, not per gateway, because a
    /// single trace crosses gateways.
    flight: Mutex<FlightRecorder>,
    /// Island builds a lazy home still owes (see
    /// [`SmartHomeBuilder::lazy`]); drained by [`SmartHome::materialize`].
    deferred: Option<SmartHomeBuilder>,
}

/// Builder for [`SmartHome`]. Cloneable so a fleet can stamp out many
/// identically configured homes, varying only the island id.
#[derive(Clone)]
pub struct SmartHomeBuilder {
    seed: u64,
    protocol: Arc<dyn VsgProtocol>,
    jini: bool,
    havi: bool,
    x10: bool,
    mail: bool,
    upnp: bool,
    lossless_powerline: bool,
    auto_import: bool,
    batching: Option<BatchPolicy>,
    vsr_replicas: usize,
    vsr_shards: u32,
    vsr_sync_phase: SimDuration,
    island: u32,
    threads: Option<usize>,
    cloud: Option<CloudConfig>,
    fleet_hint: usize,
    lazy: bool,
}

/// Shorthand used throughout: house code from a letter.
pub fn house(c: char) -> HouseCode {
    HouseCode::new(c).expect("valid house code")
}

/// Shorthand: unit code from a number.
pub fn unit(n: u8) -> UnitCode {
    UnitCode::new(n).expect("valid unit code")
}

impl SmartHome {
    /// Starts building a home.
    pub fn builder() -> SmartHomeBuilder {
        SmartHomeBuilder {
            seed: 0x1CDC_2002,
            protocol: Arc::new(Soap11::new()),
            jini: true,
            havi: true,
            x10: true,
            mail: true,
            upnp: false,
            lossless_powerline: true,
            auto_import: true,
            batching: None,
            vsr_replicas: 1,
            vsr_shards: 1,
            vsr_sync_phase: SimDuration::ZERO,
            island: 0,
            threads: None,
            cloud: None,
            fleet_hint: 1,
            lazy: false,
        }
    }

    /// The gateway of a given middleware island.
    pub fn gateway(&self, mw: Middleware) -> Option<&Vsg> {
        match mw {
            Middleware::Jini => self.jini.as_ref().map(|i| &i.vsg),
            Middleware::Havi => self.havi.as_ref().map(|i| &i.vsg),
            Middleware::X10 => self.x10.as_ref().map(|i| &i.vsg),
            Middleware::Mail | Middleware::Web => self.mail.as_ref().map(|i| &i.vsg),
            Middleware::Upnp => self.upnp.as_ref().map(|i| &i.vsg),
            // The cloud bridge fronts no VSG: it is a WAN edge, not an
            // island gateway. Composites live on whichever gateway
            // registered them, not an island of their own.
            Middleware::Cloud | Middleware::Composite => None,
        }
    }

    /// Any gateway (useful when the caller doesn't care which island it
    /// stands on).
    pub fn any_gateway(&self) -> &Vsg {
        self.jini
            .as_ref()
            .map(|i| &i.vsg)
            .or(self.havi.as_ref().map(|i| &i.vsg))
            .or(self.x10.as_ref().map(|i| &i.vsg))
            .or(self.mail.as_ref().map(|i| &i.vsg))
            .or(self.upnp.as_ref().map(|i| &i.vsg))
            .expect("at least one island")
    }

    /// Invokes a service *from* the given island — i.e. through that
    /// island's gateway, crossing the backbone if the service lives
    /// elsewhere.
    pub fn invoke_from(
        &self,
        from: Middleware,
        service: &str,
        operation: &str,
        args: &[(String, Value)],
    ) -> Result<Value, MetaError> {
        let vsg = self
            .gateway(from)
            .ok_or_else(|| MetaError::GatewayUnreachable(from.label().to_owned()))?;
        vsg.invoke(&self.sim, service, operation, args)
    }

    /// Total services in the VSR.
    pub fn service_count(&self) -> usize {
        self.vsr.service_count()
    }

    /// Every gateway the home actually built.
    pub fn gateways(&self) -> Vec<&Vsg> {
        [
            self.jini.as_ref().map(|i| &i.vsg),
            self.havi.as_ref().map(|i| &i.vsg),
            self.x10.as_ref().map(|i| &i.vsg),
            self.mail.as_ref().map(|i| &i.vsg),
            self.upnp.as_ref().map(|i| &i.vsg),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Turns distributed tracing on or off on every gateway at once.
    ///
    /// Tracing starts disabled; enabling it home-wide lets one
    /// cross-middleware invocation produce a single causally-connected
    /// trace tree spanning both ends (see [`crate::trace`]).
    pub fn set_tracing(&self, on: bool) {
        self.vsr.set_tracing(on);
        for vsg in self.gateways() {
            vsg.set_tracing(on);
        }
        if let Some(cloud) = &self.cloud {
            cloud.set_tracing(on);
        }
    }

    /// Drains the completed spans from every gateway's tracer, merged
    /// into one list ready for [`crate::trace::render_all`].
    pub fn take_spans(&self) -> Vec<crate::trace::Span> {
        let mut spans = Vec::new();
        for vsg in self.gateways() {
            spans.extend(vsg.tracer().take_spans());
        }
        spans.extend(self.vsr.take_spans());
        if let Some(cloud) = &self.cloud {
            spans.extend(cloud.take_spans());
        }
        spans
    }

    /// Renders every trace recorded so far (draining the tracers) as a
    /// text tree attributing elapsed virtual time and bytes per hop.
    pub fn render_traces(&self) -> String {
        crate::trace::render_all(&self.take_spans())
    }

    /// Metrics snapshots from every gateway, in island order.
    pub fn metrics_snapshots(&self) -> Vec<crate::metrics::MetricsSnapshot> {
        let mut snaps: Vec<crate::metrics::MetricsSnapshot> = self
            .gateways()
            .into_iter()
            .map(|vsg| vsg.metrics_snapshot())
            .collect();
        if let Some(cloud) = &self.cloud {
            snaps.push(cloud.metrics_snapshot());
        }
        snaps
    }

    /// One snapshot for the whole home: every gateway's registry merged
    /// bucket-wise into a single `home` snapshot. O(buckets) memory no
    /// matter how many invocations the gateways served.
    pub fn merged_snapshot(&self) -> crate::metrics::MetricsSnapshot {
        let island = self.sim.island();
        let mut merged = crate::metrics::MetricsSnapshot::empty("home", island);
        for snap in self.metrics_snapshots() {
            merged.merge_from(&snap);
        }
        merged
    }

    /// Replaces the flight recorder's sampling policy (head rate, tail
    /// rescue width, ring capacity). Traces already kept stay kept.
    pub fn set_sampling(&self, policy: SamplePolicy) {
        self.flight.lock().set_policy(policy);
    }

    /// Drains completed spans from every tracer and runs them through
    /// the flight recorder's keep/drop rules. Returns the recorder's
    /// running stats after the harvest.
    pub fn harvest_traces(&self) -> crate::obs::RecorderStats {
        let spans = self.take_spans();
        let mut flight = self.flight.lock();
        flight.harvest(spans);
        flight.stats()
    }

    /// Drains the kept traces out of the flight recorder, oldest first.
    pub fn drain_flight(&self) -> Vec<KeptTrace> {
        self.flight.lock().drain()
    }

    /// The flight recorder's running keep/drop counters.
    pub fn flight_stats(&self) -> crate::obs::RecorderStats {
        self.flight.lock().stats()
    }

    /// Exports every gateway's metrics in OpenMetrics text format.
    pub fn export_openmetrics(&self) -> String {
        crate::obs::openmetrics(&self.metrics_snapshots())
    }

    /// Exports snapshots plus the currently kept traces as JSON lines,
    /// without draining the flight recorder.
    pub fn export_events_jsonl(&self) -> String {
        let kept: Vec<KeptTrace> = self.flight.lock().kept().cloned().collect();
        crate::obs::events_jsonl(&self.metrics_snapshots(), &kept)
    }

    /// Installs `policy` on every gateway at once (benches flip the
    /// whole home between resilient and raw wire paths this way).
    pub fn set_resilience(&self, policy: ResiliencePolicy) {
        for vsg in self.gateways() {
            vsg.set_resilience(policy.clone());
        }
    }

    /// Installs a batching policy on every gateway at once, switching
    /// the whole home between the multiplexed and unbatched wire.
    pub fn set_batching(&self, policy: BatchPolicy) {
        for vsg in self.gateways() {
            vsg.set_batching(policy.clone());
        }
    }

    /// Whether the middleware islands exist yet (always true for an
    /// eager build; false for a lazy home until
    /// [`SmartHome::materialize`] runs).
    pub fn is_materialized(&self) -> bool {
        self.deferred.is_none()
    }

    /// Pays the island builds a lazy home deferred: Jini/HAVi/X10/
    /// mail/UPnP islands and the build-time batching policy, exactly
    /// as an eager [`SmartHomeBuilder::build`] would have produced
    /// them. Idempotent; a no-op on an eagerly built home.
    pub fn materialize(&mut self) -> Result<(), MetaError> {
        let Some(spec) = self.deferred.take() else {
            return Ok(());
        };
        if spec.jini {
            self.jini = Some(build_jini(
                &self.sim,
                &self.backbone,
                &self.vsr,
                &spec.protocol,
                spec.auto_import,
            )?);
        }
        if spec.havi {
            self.havi = Some(build_havi(
                &self.sim,
                &self.backbone,
                &self.vsr,
                &spec.protocol,
                spec.auto_import,
            )?);
        }
        if spec.x10 {
            self.x10 = Some(build_x10(
                &self.sim,
                &self.backbone,
                &self.vsr,
                &spec.protocol,
                spec.lossless_powerline,
                spec.auto_import,
            )?);
        }
        if spec.mail {
            self.mail = Some(build_mail(
                &self.sim,
                &self.backbone,
                &self.vsr,
                &spec.protocol,
            )?);
        }
        if spec.upnp {
            self.upnp = Some(build_upnp(
                &self.sim,
                &self.backbone,
                &self.vsr,
                &spec.protocol,
                spec.auto_import,
            )?);
        }
        if let Some(policy) = spec.batching {
            self.set_batching(policy);
        }
        Ok(())
    }
}

impl SmartHomeBuilder {
    /// Sets the world seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chooses the VSG protocol (default: SOAP, as the prototype).
    pub fn protocol(mut self, protocol: Arc<dyn VsgProtocol>) -> Self {
        self.protocol = protocol;
        self
    }

    /// Includes/excludes the Jini island.
    pub fn jini(mut self, on: bool) -> Self {
        self.jini = on;
        self
    }

    /// Includes/excludes the HAVi island.
    pub fn havi(mut self, on: bool) -> Self {
        self.havi = on;
        self
    }

    /// Includes/excludes the X10 island.
    pub fn x10(mut self, on: bool) -> Self {
        self.x10 = on;
        self
    }

    /// Includes/excludes the mail island.
    pub fn mail(mut self, on: bool) -> Self {
        self.mail = on;
        self
    }

    /// Includes/excludes the UPnP island.
    pub fn upnp(mut self, on: bool) -> Self {
        self.upnp = on;
        self
    }

    /// Makes the powerline noisy (for failure-injection scenarios).
    /// Default is lossless for determinism.
    pub fn noisy_powerline(mut self) -> Self {
        self.lossless_powerline = false;
        self
    }

    /// Skips the automatic Client-Proxy import pass.
    pub fn manual_import(mut self) -> Self {
        self.auto_import = false;
        self
    }

    /// Installs a batching policy on every gateway at build time —
    /// [`BatchPolicy::disabled`] pins the home to the unbatched wire,
    /// a tuned policy adjusts the coalescing knobs. Gateways otherwise
    /// start with [`BatchPolicy::default`].
    pub fn batching(mut self, policy: BatchPolicy) -> Self {
        self.batching = Some(policy);
        self
    }

    /// Runs the VSR as a federation of `n` replicas (default 1 — the
    /// original single-node repository). With more than one replica
    /// the builder also arms a periodic anti-entropy pass (every
    /// [`FederationConfig::sync_interval`], fired when the event loop
    /// is pumped with `run_for`, not on bare `advance`); writes replicate
    /// eagerly, and clients fail over (promoting a backup) when a
    /// shard's primary is unreachable.
    pub fn vsr_replicas(mut self, n: usize) -> Self {
        self.vsr_replicas = n.max(1);
        self
    }

    /// Partitions the VSR namespace over `n` shards by consistent
    /// hashing (default 1). Each shard gets its own primary/backup
    /// preference list over the replicas.
    pub fn vsr_shards(mut self, n: u32) -> Self {
        self.vsr_shards = n.max(1);
        self
    }

    /// Extra delay before the first anti-entropy pass (default zero).
    /// Fleets set a per-island phase so homes don't all sync at the
    /// same virtual instant.
    pub fn vsr_sync_phase(mut self, phase: SimDuration) -> Self {
        self.vsr_sync_phase = phase;
        self
    }

    /// Island id for this home's `Sim` (default 0). Determines the RNG
    /// stream and the trace/span id well, so every island of a fleet
    /// is deterministic yet decorrelated. Island 0 with seed `s` is
    /// bit-for-bit identical to a plain `Sim::new(s)` home.
    pub fn island(mut self, island: u32) -> Self {
        self.island = island;
        self
    }

    /// Worker threads a fleet built from this builder should use
    /// (default: the `SIM_THREADS` environment variable, else 1).
    /// Thread count never changes simulation results — only wall-clock
    /// time — so this is a pure performance knob.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The configured thread count, if any (consumed by `HomeFleet`).
    pub fn configured_threads(&self) -> Option<usize> {
        self.threads
    }

    /// Attaches a cloud bridge (a [`CloudIsland`]) to the home: a
    /// store-and-forward outbox, epoch-fenced sessions, and a simulated
    /// cloud-edge cell across a per-home WAN. With auto-import on, the
    /// standard device names of every enabled island are registered
    /// upward at build time.
    pub fn cloud(mut self, cfg: CloudConfig) -> Self {
        self.cloud = Some(cfg);
        self
    }

    /// Tells the cloud bridge how many homes share the backbone, so
    /// the global admission budget can be divided into deterministic
    /// fair shares (see `core::pcm::cloud`). `HomeFleet` sets this
    /// automatically.
    pub fn fleet_hint(mut self, homes: usize) -> Self {
        self.fleet_hint = homes.max(1);
        self
    }

    /// Defers the middleware-island builds (Jini/HAVi/X10/mail/UPnP)
    /// until [`SmartHome::materialize`] is called. The world — `Sim`,
    /// backbone, VSR, and the cloud bridge if configured — is still
    /// built eagerly, so a lazy home can buffer cloud traffic and run
    /// timers; it just hasn't paid for its islands yet. Fleets use
    /// this to stand up 10k homes without 10k eager full builds.
    pub fn lazy(mut self, on: bool) -> Self {
        self.lazy = on;
        self
    }

    /// Assembles the home.
    pub fn build(self) -> Result<SmartHome, MetaError> {
        let sim = Sim::with_island(self.seed, self.island);
        let backbone = Network::ethernet(&sim);
        let federation = FederationConfig {
            shards: self.vsr_shards,
            replicas: self.vsr_replicas,
            sync_phase: self.vsr_sync_phase,
            ..FederationConfig::default()
        };
        let vsr = Vsr::start_federated(&backbone, &federation);

        // A lazy build keeps the whole island spec around and builds
        // nothing below the world layer; `materialize` pays the rest.
        let deferred = if self.lazy { Some(self.clone()) } else { None };

        let jini = if self.jini && !self.lazy {
            Some(build_jini(
                &sim,
                &backbone,
                &vsr,
                &self.protocol,
                self.auto_import,
            )?)
        } else {
            None
        };
        let havi = if self.havi && !self.lazy {
            Some(build_havi(
                &sim,
                &backbone,
                &vsr,
                &self.protocol,
                self.auto_import,
            )?)
        } else {
            None
        };
        let x10 = if self.x10 && !self.lazy {
            Some(build_x10(
                &sim,
                &backbone,
                &vsr,
                &self.protocol,
                self.lossless_powerline,
                self.auto_import,
            )?)
        } else {
            None
        };
        let mail = if self.mail && !self.lazy {
            Some(build_mail(&sim, &backbone, &vsr, &self.protocol)?)
        } else {
            None
        };
        let upnp = if self.upnp && !self.lazy {
            Some(build_upnp(
                &sim,
                &backbone,
                &vsr,
                &self.protocol,
                self.auto_import,
            )?)
        } else {
            None
        };

        let cloud = if let Some(cfg) = &self.cloud {
            let island = CloudIsland::build(
                &sim,
                &format!("home-{}", self.island),
                cfg.clone(),
                self.fleet_hint,
            );
            if self.auto_import {
                // The Client-Proxy pass of the cloud PCM: the standard
                // device names of every enabled island are registered
                // upward. Lazy homes register too — the outbox is the
                // point of store-and-forward.
                let rosters: [(bool, &[&str]); 5] = [
                    (self.jini, &names::JINI),
                    (self.havi, &names::HAVI),
                    (self.x10, &names::X10),
                    (self.mail, &names::MAIL),
                    (self.upnp, &names::UPNP),
                ];
                for (on, roster) in rosters {
                    if on {
                        for name in roster {
                            island.bridge.register_device(name)?;
                        }
                    }
                }
            }
            Some(island)
        } else {
            None
        };

        let home = SmartHome {
            sim,
            backbone,
            vsr,
            jini,
            havi,
            x10,
            mail,
            upnp,
            cloud,
            vsr_sync_timer: None,
            flight: Mutex::new(FlightRecorder::new(SamplePolicy::default())),
            deferred,
        };
        if let Some(policy) = self.batching {
            home.set_batching(policy);
        }
        let mut home = home;
        if self.vsr_replicas > 1 {
            let vsr = home.vsr.clone();
            home.vsr_sync_timer = Some(home.sim.every_with_phase(
                federation.sync_phase,
                federation.sync_interval,
                move |_sim| {
                    vsr.sync_now();
                },
            ));
        }
        Ok(home)
    }
}

fn build_jini(
    sim: &Sim,
    backbone: &Network,
    vsr: &Vsr,
    protocol: &Arc<dyn VsgProtocol>,
    auto_import: bool,
) -> Result<JiniIsland, MetaError> {
    let net = Network::ethernet(sim);
    let reggie = LookupService::start(&net, "reggie", &["public"], SimDuration::from_secs(30));

    // --- native devices -----------------------------------------------------
    let exporter = RmiExporter::attach(&net, "jini-devices");
    let join_node = net.attach("jini-join");
    let registrars = discover(&net, join_node, "public");
    let joiner = RegistrarClient::new(&net, join_node, registrars[0]);

    let laserdisc = Arc::new(Mutex::new(LaserdiscState {
        playing: false,
        chapter: 0,
    }));
    let ld = laserdisc.clone();
    let ld_stub = exporter.export("LaserdiscPlayer", move |_, method, args| match method {
        "play" => {
            let mut st = ld.lock();
            st.playing = true;
            st.chapter = args.first().and_then(JValue::as_int).unwrap_or(1);
            Ok(JValue::Null)
        }
        "stop" => {
            ld.lock().playing = false;
            Ok(JValue::Null)
        }
        "status" => {
            let st = ld.lock();
            Ok(JValue::Str(if st.playing {
                format!("playing chapter {}", st.chapter)
            } else {
                "stopped".to_owned()
            }))
        }
        other => Err(format!("no method {other}")),
    });
    joiner
        .register(
            &ServiceItem::new(
                ld_stub,
                vec!["LaserdiscPlayer".into()],
                vec![Entry::name("laserdisc"), Entry::location("living-room")],
            ),
            SimDuration::from_secs(300),
        )
        .map_err(|e| MetaError::native("jini", e))?;

    let fridge_temp = Arc::new(Mutex::new(4.0f64));
    let ft = fridge_temp.clone();
    let fridge_stub = exporter.export("Fridge", move |_, method, args| match method {
        "temperature" => Ok(JValue::Double(*ft.lock())),
        "set_target" => {
            if let Some(JValue::Double(c)) = args.first() {
                *ft.lock() = *c;
            }
            Ok(JValue::Null)
        }
        other => Err(format!("no method {other}")),
    });
    joiner
        .register(
            &ServiceItem::new(
                fridge_stub,
                vec!["Fridge".into()],
                vec![Entry::name("fridge"), Entry::location("kitchen")],
            ),
            SimDuration::from_secs(300),
        )
        .map_err(|e| MetaError::native("jini", e))?;

    let aircon_on = Arc::new(Mutex::new(false));
    let ac = aircon_on.clone();
    let aircon_stub = exporter.export("AirConditioner", move |_, method, args| match method {
        "switch" => {
            *ac.lock() = args.first().and_then(JValue::as_bool).unwrap_or(false);
            Ok(JValue::Null)
        }
        "set_target" => Ok(JValue::Null),
        "status" => Ok(JValue::Str(if *ac.lock() { "on" } else { "off" }.into())),
        other => Err(format!("no method {other}")),
    });
    joiner
        .register(
            &ServiceItem::new(
                aircon_stub,
                vec!["AirConditioner".into()],
                vec![Entry::name("aircon"), Entry::location("living-room")],
            ),
            SimDuration::from_secs(300),
        )
        .map_err(|e| MetaError::native("jini", e))?;

    // --- gateway + PCM --------------------------------------------------------
    let vsg = Vsg::start(backbone, "jini-gw", protocol.clone(), vsr.node())?;
    let pcm = JiniPcm::start(&vsg, &net, "public", InterfaceCatalog::standard())?;
    if auto_import {
        pcm.import_services()?;
    }
    Ok(JiniIsland {
        net,
        reggie,
        vsg,
        pcm,
        laserdisc,
        fridge_temp,
        aircon_on,
    })
}

fn build_havi(
    sim: &Sim,
    backbone: &Network,
    vsr: &Vsr,
    protocol: &Arc<dyn VsgProtocol>,
    auto_import: bool,
) -> Result<HaviIsland, MetaError> {
    let bus = Network::ieee1394(sim);
    let fav = MessagingSystem::attach(&bus, "fav-controller");
    let registry = Registry::start(&fav);
    let events = EventManager::start(&fav);
    let streams = StreamManager::new(&bus);

    let mut tv = Dcm::install(
        &bus,
        "digital-tv",
        0x7001,
        &[
            (FcmKind::Tuner, "tv-tuner"),
            (FcmKind::Display, "tv-display"),
        ],
        Some(events.seid()),
    );
    tv.announce(registry.seid())
        .map_err(|e| MetaError::native("havi", e))?;
    let mut camcorder = Dcm::install(
        &bus,
        "camcorder",
        0x7002,
        &[(FcmKind::DvCamera, "dv-camera")],
        Some(events.seid()),
    );
    camcorder
        .announce(registry.seid())
        .map_err(|e| MetaError::native("havi", e))?;
    let mut vcr = Dcm::install(
        &bus,
        "living-room-vcr",
        0x7003,
        &[(FcmKind::Vcr, "living-room-vcr")],
        Some(events.seid()),
    );
    vcr.announce(registry.seid())
        .map_err(|e| MetaError::native("havi", e))?;

    let vsg = Vsg::start(backbone, "havi-gw", protocol.clone(), vsr.node())?;
    let pcm = HaviPcm::start(&vsg, &bus, registry.seid());
    if auto_import {
        pcm.import_services()?;
    }
    Ok(HaviIsland {
        bus,
        fav,
        registry,
        events,
        streams,
        vsg,
        pcm,
        tv,
        camcorder,
        vcr,
    })
}

fn build_x10(
    sim: &Sim,
    backbone: &Network,
    vsr: &Vsr,
    protocol: &Arc<dyn VsgProtocol>,
    lossless: bool,
    auto_import: bool,
) -> Result<X10Island, MetaError> {
    let mut link = simnet::netkind::powerline();
    if lossless {
        link.loss_prob = 0.0;
    }
    let powerline = Network::new(sim, "powerline", link);
    let serial = Network::serial(sim);
    let cm11a = Cm11a::install(&serial, &powerline);

    let hall_lamp = Module::plug_in(
        &powerline,
        "hall-lamp",
        ModuleKind::Lamp,
        house('A'),
        unit(1),
    );
    let desk_lamp = Module::plug_in(
        &powerline,
        "desk-lamp",
        ModuleKind::Lamp,
        house('A'),
        unit(2),
    );
    let fan = Module::plug_in(
        &powerline,
        "fan",
        ModuleKind::Appliance,
        house('A'),
        unit(3),
    );
    let mut motion = MotionSensor::install(&powerline, "hall-motion", house('C'), unit(9));
    motion.set_auto_clear(None);

    let vsg = Vsg::start(backbone, "x10-gw", protocol.clone(), vsr.node())?;
    let driver = Cm11aDriver::new(&serial, cm11a.serial_node());
    let pcm = X10Pcm::start(&vsg, sim, driver);
    if auto_import {
        pcm.import_module_with("hall-lamp", house('A'), unit(1), &[("room", "hall")])?;
        pcm.import_module_with("desk-lamp", house('A'), unit(2), &[("room", "study")])?;
        pcm.import_module_with("fan", house('A'), unit(3), &[("room", "study")])?;
        pcm.import_sensor_with("hall-motion", house('C'), unit(9), &[("room", "hall")])?;
    }
    Ok(X10Island {
        powerline,
        serial,
        cm11a,
        vsg,
        pcm,
        hall_lamp,
        desk_lamp,
        fan,
        motion,
    })
}

fn build_mail(
    sim: &Sim,
    backbone: &Network,
    vsr: &Vsr,
    protocol: &Arc<dyn VsgProtocol>,
) -> Result<MailIsland, MetaError> {
    let inet = Network::internet(sim);
    let server = MailServer::start(&inet, "smtp.example.org");
    let client = MailClient::attach(&inet, "home-mail-gw", server.node());
    let vsg = Vsg::start(backbone, "inet-gw", protocol.clone(), vsr.node())?;
    let pcm = MailPcm::start(&vsg, client.clone(), "home@example.org")?;
    Ok(MailIsland {
        inet,
        server,
        client,
        vsg,
        pcm,
    })
}

fn build_upnp(
    sim: &Sim,
    backbone: &Network,
    vsr: &Vsr,
    protocol: &Arc<dyn VsgProtocol>,
    auto_import: bool,
) -> Result<UpnpIsland, MetaError> {
    let net = Network::ethernet(sim);
    const SWITCH_SVC: &str = "urn:schemas-upnp-org:service:SwitchPower:1";
    let desc = DeviceDescription::new(
        "urn:schemas-upnp-org:device:BinaryLight:1",
        "Porch Light",
        "uuid:porch-light",
    )
    .service(SWITCH_SVC, "urn:upnp-org:serviceId:SwitchPower");
    let device = UpnpDevice::install(&net, desc);
    let porch_on = Arc::new(Mutex::new(false));
    let on = porch_on.clone();
    device.implement(SWITCH_SVC, move |_, action, args| match action {
        "SetTarget" => {
            *on.lock() = args
                .iter()
                .find(|(k, _)| k == "NewTargetValue")
                .and_then(|(_, v)| v.as_bool())
                .ok_or("missing NewTargetValue")?;
            Ok(Value::Null)
        }
        "GetStatus" => Ok(Value::Bool(*on.lock())),
        other => Err(format!("no action {other}")),
    });

    let vsg = Vsg::start(backbone, "upnp-gw", protocol.clone(), vsr.node())?;
    let pcm = UpnpPcm::start(&vsg, &net);
    if auto_import {
        pcm.import_services()?;
    }
    Ok(UpnpIsland {
        net,
        vsg,
        pcm,
        porch_on,
    })
}

/// The standard service names the default home publishes, by island.
pub mod names {
    /// Jini island services.
    pub const JINI: [&str; 3] = ["laserdisc", "fridge", "aircon"];
    /// HAVi island services.
    pub const HAVI: [&str; 4] = ["tv-tuner", "tv-display", "dv-camera", "living-room-vcr"];
    /// X10 island services.
    pub const X10: [&str; 4] = ["hall-lamp", "desk-lamp", "fan", "hall-motion"];
    /// Mail island services.
    pub const MAIL: [&str; 1] = ["mailer"];
    /// UPnP island services.
    pub const UPNP: [&str; 1] = ["porch-light"];
}

// A convenience re-export so examples can say `home::catalog::vcr()`.
pub use crate::iface::catalog as interfaces;

#[allow(unused_imports)]
use catalog as _catalog_used_in_docs;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_home_publishes_every_standard_service() {
        let home = SmartHome::builder().build().unwrap();
        let expected = names::JINI.len() + names::HAVI.len() + names::X10.len() + names::MAIL.len();
        assert_eq!(home.service_count(), expected);
        let records = home.any_gateway().vsr().find("%", None).unwrap();
        let mut found: Vec<String> = records.iter().map(|r| r.name.to_string()).collect();
        found.sort();
        let mut want: Vec<String> = names::JINI
            .iter()
            .chain(&names::HAVI)
            .chain(&names::X10)
            .chain(&names::MAIL)
            .map(|s| (*s).to_owned())
            .collect();
        want.sort();
        assert_eq!(found, want);
    }

    #[test]
    fn cross_island_transparent_control() {
        // The paper's §1 scenario: control everything from one place.
        let home = SmartHome::builder().build().unwrap();

        // From the Jini island's PC, switch the X10 hall lamp...
        home.invoke_from(
            Middleware::Jini,
            "hall-lamp",
            "switch",
            &[("on".into(), Value::Bool(true))],
        )
        .unwrap();
        assert!(home.x10.as_ref().unwrap().hall_lamp.is_on());

        // ...record on the HAVi VCR...
        home.invoke_from(Middleware::Jini, "living-room-vcr", "record", &[])
            .unwrap();
        let vcr = &home.havi.as_ref().unwrap().vcr;
        assert_eq!(
            vcr.fcm(FcmKind::Vcr).unwrap().state().transport,
            havi::TransportState::Recording
        );

        // ...and from the HAVi island (the TV GUI), read the Jini fridge.
        let t = home
            .invoke_from(Middleware::Havi, "fridge", "temperature", &[])
            .unwrap();
        assert_eq!(t, Value::Float(4.0));
    }

    #[test]
    fn partial_homes_work() {
        let home = SmartHome::builder()
            .jini(false)
            .mail(false)
            .havi(true)
            .x10(true)
            .build()
            .unwrap();
        assert!(home.jini.is_none());
        assert!(home.gateway(Middleware::Jini).is_none());
        assert_eq!(home.service_count(), names::HAVI.len() + names::X10.len());
        // X10 -> HAVi still works.
        home.invoke_from(Middleware::X10, "dv-camera", "record", &[])
            .unwrap();
    }

    #[test]
    fn upnp_island_joins_with_one_pcm() {
        let home = SmartHome::builder().upnp(true).build().unwrap();
        home.invoke_from(
            Middleware::Jini,
            "porch-light",
            "switch",
            &[("on".into(), Value::Bool(true))],
        )
        .unwrap();
        assert!(*home.upnp.as_ref().unwrap().porch_on.lock());
    }

    #[test]
    fn manual_import_builds_empty_vsr() {
        let home = SmartHome::builder()
            .manual_import()
            .mail(false)
            .build()
            .unwrap();
        assert_eq!(home.service_count(), 0);
        // Importing later works.
        home.jini.as_ref().unwrap().pcm.import_services().unwrap();
        assert_eq!(home.service_count(), names::JINI.len());
    }

    #[test]
    fn lazy_home_defers_island_builds_until_materialize() {
        let mut home = SmartHome::builder().lazy(true).build().unwrap();
        assert!(!home.is_materialized());
        assert!(home.jini.is_none() && home.havi.is_none());
        assert_eq!(home.service_count(), 0, "no islands, no services");
        home.materialize().unwrap();
        assert!(home.is_materialized());
        let expected = names::JINI.len() + names::HAVI.len() + names::X10.len() + names::MAIL.len();
        assert_eq!(home.service_count(), expected);
        // The materialized home behaves like an eager one.
        home.invoke_from(
            Middleware::Jini,
            "hall-lamp",
            "switch",
            &[("on".into(), Value::Bool(true))],
        )
        .unwrap();
        assert!(home.x10.as_ref().unwrap().hall_lamp.is_on());
        // Idempotent.
        home.materialize().unwrap();
        assert_eq!(home.service_count(), expected);
    }

    #[test]
    fn lazy_matches_eager_service_roster() {
        let eager = SmartHome::builder().upnp(true).build().unwrap();
        let mut lazy = SmartHome::builder().upnp(true).lazy(true).build().unwrap();
        lazy.materialize().unwrap();
        let roster = |h: &SmartHome| {
            let mut names: Vec<String> = h
                .any_gateway()
                .vsr()
                .find("%", None)
                .unwrap()
                .iter()
                .map(|r| r.name.to_string())
                .collect();
            names.sort();
            names
        };
        assert_eq!(roster(&eager), roster(&lazy));
    }

    #[test]
    fn cloud_home_registers_standard_devices_upward() {
        use crate::pcm::cloud::CloudConfig;
        let home = SmartHome::builder()
            .cloud(CloudConfig::default())
            .build()
            .unwrap();
        let cloud = home.cloud.as_ref().unwrap();
        let expected = names::JINI.len() + names::HAVI.len() + names::X10.len() + names::MAIL.len();
        assert_eq!(cloud.bridge.outbox_len(), expected);
        home.sim.run_for(SimDuration::from_secs(2));
        assert!(cloud.bridge.is_connected());
        assert_eq!(cloud.cell.registered_devices().len(), expected);
        // A lazy cloud home registers the same roster before its
        // islands exist — the outbox is the store-and-forward point.
        let lazy = SmartHome::builder()
            .cloud(CloudConfig::default())
            .lazy(true)
            .build()
            .unwrap();
        assert_eq!(lazy.cloud.as_ref().unwrap().bridge.outbox_len(), expected);
    }

    #[test]
    fn mail_flows_from_any_island() {
        let home = SmartHome::builder().build().unwrap();
        home.invoke_from(
            Middleware::Havi,
            "mailer",
            "send",
            &[
                ("to".into(), Value::Str("owner@example.org".into())),
                ("subject".into(), Value::Str("VCR".into())),
                ("body".into(), Value::Str("tape full".into())),
            ],
        )
        .unwrap();
        assert_eq!(
            home.mail
                .as_ref()
                .unwrap()
                .server
                .mailbox_len("owner@example.org"),
            1
        );
    }
}
