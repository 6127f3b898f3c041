//! The device mix: weighted reads and writes across the standard
//! 4-island home, plus one registered cross-island composite, with an
//! oracle that knows what every call must return.
//!
//! Calls come in shuffled *decks*: every deck holds exactly the same
//! multiset of (operation, calling island) pairs, and the seed only
//! picks the order and the argument values. Counted per-op metrics
//! therefore barely move between seeds.

use crate::rng::Rng;
use metaware::{CompositeSpec, MetaError, Middleware, SmartHome, StepSpec, Vsg};
use simnet::Sim;
use soap::Value;

/// The islands that issue calls, in a fixed order.
pub const ISLANDS: [Middleware; 4] = [
    Middleware::Jini,
    Middleware::Havi,
    Middleware::X10,
    Middleware::Mail,
];

/// The registered composite's name.
pub const SCENE: &str = "evening-scene";
/// The island whose gateway hosts the composite.
pub const SCENE_HOST: Middleware = Middleware::Havi;

/// One kind of call in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// X10 hall lamp: read on/off.
    HallStatus,
    /// X10 hall lamp: switch on or off.
    HallSwitch,
    /// Jini laserdisc: read transport state.
    LaserdiscStatus,
    /// HAVi camcorder: read transport state.
    CameraStatus,
    /// Jini fridge: read temperature.
    FridgeTemp,
    /// HAVi tuner: change channel.
    TunerSet,
    /// HAVi tuner: read channel.
    TunerGet,
    /// HAVi VCR: read transport state.
    VcrStatus,
    /// X10 desk lamp: dim.
    DeskDim,
    /// The 4-step composite [`SCENE`].
    Scene,
}

/// Cards per calling island in one deck (300 device calls and 20
/// composites: one composite in every 16 calls).
const DECK: [(Kind, usize); 10] = [
    (Kind::HallStatus, 90),
    (Kind::HallSwitch, 45),
    (Kind::LaserdiscStatus, 45),
    (Kind::CameraStatus, 30),
    (Kind::FridgeTemp, 30),
    (Kind::TunerSet, 12),
    (Kind::TunerGet, 9),
    (Kind::VcrStatus, 21),
    (Kind::DeskDim, 18),
    (Kind::Scene, 20),
];

/// Calls in one deck.
pub const DECK_LEN: usize = 4 * 320;

impl Kind {
    /// The target `(service, operation)`.
    pub fn target(self) -> (&'static str, &'static str) {
        match self {
            Kind::HallStatus => ("hall-lamp", "status"),
            Kind::HallSwitch => ("hall-lamp", "switch"),
            Kind::LaserdiscStatus => ("laserdisc", "status"),
            Kind::CameraStatus => ("dv-camera", "status"),
            Kind::FridgeTemp => ("fridge", "temperature"),
            Kind::TunerSet => ("tv-tuner", "set_channel"),
            Kind::TunerGet => ("tv-tuner", "channel"),
            Kind::VcrStatus => ("living-room-vcr", "status"),
            Kind::DeskDim => ("desk-lamp", "dim"),
            Kind::Scene => (SCENE, "run"),
        }
    }

    /// The island whose gateway serves the target.
    pub fn owner(self) -> Middleware {
        match self {
            Kind::HallStatus | Kind::HallSwitch | Kind::DeskDim => Middleware::X10,
            Kind::LaserdiscStatus | Kind::FridgeTemp => Middleware::Jini,
            Kind::CameraStatus | Kind::TunerSet | Kind::TunerGet | Kind::VcrStatus => {
                Middleware::Havi
            }
            Kind::Scene => SCENE_HOST,
        }
    }
}

/// One call: who issues it, what it targets, and its arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// The calling island.
    pub from: Middleware,
    /// What is called.
    pub kind: Kind,
    /// Arguments, built before the call is timed.
    pub args: Vec<(String, Value)>,
}

impl Call {
    fn new(from: Middleware, kind: Kind, rng: &mut Rng) -> Call {
        let args = match kind {
            Kind::HallSwitch => vec![("on".to_owned(), Value::Bool(rng.below(2) == 1))],
            Kind::TunerSet => vec![("channel".to_owned(), Value::Int(10 + rng.below(90) as i64))],
            Kind::DeskDim => vec![("steps".to_owned(), Value::Int(1 + rng.below(4) as i64))],
            _ => Vec::new(),
        };
        Call { from, kind, args }
    }

    /// Runs the call against `home`.
    pub fn invoke(&self, home: &SmartHome) -> Result<Value, MetaError> {
        let (service, operation) = self.kind.target();
        home.invoke_from(self.from, service, operation, &self.args)
    }

    /// Runs the call through `gw`, which must be the calling island's
    /// gateway (for callers that hold gateway handles, not the home).
    pub fn invoke_on(&self, gw: &Vsg, sim: &Sim) -> Result<Value, MetaError> {
        let (service, operation) = self.kind.target();
        gw.invoke(sim, service, operation, &self.args)
    }
}

/// The calls that warm a freshly built home: [`reset_calls`], then one
/// call per (island, kind) pair, so every route is cached before
/// anything is measured.
pub fn warm_up_calls(rng: &mut Rng) -> Vec<Call> {
    let mut seen = Vec::new();
    let mut calls = reset_calls();
    for call in deal(rng, 1) {
        let key = (call.from, call.kind);
        if !seen.contains(&key) {
            seen.push(key);
            calls.push(call);
        }
    }
    calls
}

/// `decks` shuffled decks of calls.
pub fn deal(rng: &mut Rng, decks: usize) -> Vec<Call> {
    let mut calls = Vec::with_capacity(decks * DECK_LEN);
    for _ in 0..decks {
        let start = calls.len();
        for from in ISLANDS {
            for (kind, cards) in DECK {
                for _ in 0..cards {
                    calls.push(Call::new(from, kind, rng));
                }
            }
        }
        rng.shuffle(&mut calls[start..]);
    }
    calls
}

/// The composite every mix home registers: motion sensor (X10),
/// laserdisc (Jini), fridge (Jini), then the tuner on the hosting HAVi
/// gateway, whose channel is the composite's result.
pub fn scene_spec() -> CompositeSpec {
    CompositeSpec::new(SCENE)
        .step(StepSpec::new("hall-motion", "state"))
        .step(StepSpec::new("laserdisc", "status"))
        .step(StepSpec::new("fridge", "temperature"))
        .step(StepSpec::new("tv-tuner", "channel"))
}

/// Registers the composite on its host gateway.
pub fn register_scene(home: &SmartHome) -> Result<(), MetaError> {
    home.gateway(SCENE_HOST)
        .ok_or_else(|| MetaError::GatewayUnreachable(SCENE_HOST.label().to_owned()))?
        .register_composite(scene_spec())
}

/// The calls that put a home into the state [`Model::default`]
/// describes.
pub fn reset_calls() -> Vec<Call> {
    vec![
        Call {
            from: Middleware::Jini,
            kind: Kind::HallSwitch,
            args: vec![("on".to_owned(), Value::Bool(false))],
        },
        Call {
            from: Middleware::Jini,
            kind: Kind::TunerSet,
            args: vec![("channel".to_owned(), Value::Int(1))],
        },
    ]
}

/// What the home's devices hold, so every result can be predicted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    hall_on: bool,
    channel: i64,
}

impl Default for Model {
    /// The state after [`reset_calls`].
    fn default() -> Model {
        Model {
            hall_on: false,
            channel: 1,
        }
    }
}

impl Model {
    /// Whether the hall lamp is on.
    pub fn hall_on(&self) -> bool {
        self.hall_on
    }

    /// The tuner's channel.
    pub fn channel(&self) -> i64 {
        self.channel
    }

    /// Whether `got` is what `call` must return, updating the model
    /// with the call's effect.
    /// Allocates nothing, so it can run inside allocation-counted
    /// blocks.
    pub fn check(&mut self, call: &Call, got: &Result<Value, MetaError>) -> bool {
        let arg = |name: &str| call.args.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Ok(got) = got else { return false };
        match call.kind {
            Kind::HallStatus => *got == Value::Bool(self.hall_on),
            Kind::HallSwitch => {
                self.hall_on = arg("on").and_then(Value::as_bool).unwrap_or(false);
                *got == Value::Null
            }
            Kind::LaserdiscStatus | Kind::CameraStatus | Kind::VcrStatus => {
                got.as_str() == Some("stopped")
            }
            Kind::FridgeTemp => *got == Value::Float(4.0),
            Kind::TunerSet => {
                self.channel = arg("channel").and_then(Value::as_int).unwrap_or(0);
                *got == Value::Null
            }
            Kind::TunerGet | Kind::Scene => *got == Value::Int(self.channel),
            Kind::DeskDim => *got == Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decks_hold_the_same_multiset_in_seeded_order() {
        let count = |calls: &[Call], kind: Kind, from: Middleware| {
            calls
                .iter()
                .filter(|c| c.kind == kind && c.from == from)
                .count()
        };
        let a = deal(&mut Rng::new(1, 0), 2);
        let b = deal(&mut Rng::new(2, 0), 2);
        assert_eq!(a.len(), 2 * DECK_LEN);
        for (kind, cards) in DECK {
            for from in ISLANDS {
                assert_eq!(count(&a, kind, from), 2 * cards);
                assert_eq!(count(&b, kind, from), 2 * cards);
            }
        }
        assert_ne!(a, b, "seeds reorder the deck");
        assert_eq!(a, deal(&mut Rng::new(1, 0), 2), "same seed, same deck");
    }
}
