//! Functional Control Modules.
//!
//! A HAVi device exposes its functions as FCMs — a VCR FCM, a DV-camera
//! FCM, a tuner FCM — each with a typed operation set and an internal
//! transport state machine. The prototype's Universal Remote Controller
//! (Fig. 5) ends up driving exactly these operations.

use crate::events::{event_type, post};
use crate::hvalue::HValue;
use crate::messaging::MessagingSystem;
use crate::seid::{HaviStatus, Seid};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// The device classes the prototype's home contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FcmKind {
    /// Video cassette recorder.
    Vcr,
    /// DV camera (the one in Fig. 5).
    DvCamera,
    /// Broadcast tuner.
    Tuner,
    /// Display (digital TV panel).
    Display,
    /// Audio amplifier.
    Amplifier,
}

impl FcmKind {
    /// The HAVi API class code for this FCM type.
    pub fn api_code(self) -> u16 {
        match self {
            FcmKind::Vcr => 0x0103,
            FcmKind::DvCamera => 0x0104,
            FcmKind::Tuner => 0x0105,
            FcmKind::Display => 0x0106,
            FcmKind::Amplifier => 0x0107,
        }
    }

    /// The registry `ATT_DEVICE_CLASS` value.
    pub fn device_class(self) -> &'static str {
        match self {
            FcmKind::Vcr => "vcr",
            FcmKind::DvCamera => "dv-camera",
            FcmKind::Tuner => "tuner",
            FcmKind::Display => "display",
            FcmKind::Amplifier => "amplifier",
        }
    }

    /// True if this FCM type has a tape-transport mechanism.
    fn has_transport(self) -> bool {
        matches!(self, FcmKind::Vcr | FcmKind::DvCamera)
    }
}

impl fmt::Display for FcmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.device_class())
    }
}

/// FCM operation ids (shared across FCM API classes).
pub mod oper {
    /// Start playback.
    pub const PLAY: u16 = 1;
    /// Stop the transport.
    pub const STOP: u16 = 2;
    /// Start recording (`Vcr`/`DvCamera`).
    pub const RECORD: u16 = 3;
    /// Fast-forward.
    pub const WIND: u16 = 4;
    /// Rewind.
    pub const REWIND: u16 = 5;
    /// Report status; returns `[Str state, U32 position]`.
    pub const STATUS: u16 = 6;
    /// Tuner: set channel (`[U16 channel]`).
    pub const SET_CHANNEL: u16 = 10;
    /// Tuner: get channel; returns `[U16 channel]`.
    pub const GET_CHANNEL: u16 = 11;
    /// Display: show on-screen text (`[Str text]`).
    pub const SHOW_OSD: u16 = 20;
    /// Amplifier: set volume (`[U8 volume]`).
    pub const SET_VOLUME: u16 = 30;
    /// Amplifier: get volume; returns `[U8 volume]`.
    pub const GET_VOLUME: u16 = 31;
    /// DvCamera: capture a still; returns `[U32 frame-number]`.
    pub const CAPTURE: u16 = 40;
}

/// A tape transport's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportState {
    /// Idle.
    Stopped,
    /// Playing.
    Playing,
    /// Recording.
    Recording,
    /// Fast-forwarding.
    Winding,
    /// Rewinding.
    Rewinding,
}

impl TransportState {
    /// Stable label used on the wire and in OSDs.
    pub fn label(self) -> &'static str {
        match self {
            TransportState::Stopped => "stopped",
            TransportState::Playing => "playing",
            TransportState::Recording => "recording",
            TransportState::Winding => "winding",
            TransportState::Rewinding => "rewinding",
        }
    }
}

/// The mutable state behind one FCM.
#[derive(Debug, Clone, PartialEq)]
pub struct FcmStateSnapshot {
    /// Transport state.
    pub transport: TransportState,
    /// Tape position (arbitrary counter units).
    pub position: u32,
    /// Whether a cassette is loaded (transports only).
    pub media_present: bool,
    /// Current channel (tuners).
    pub channel: u16,
    /// Current volume 0..=100 (amplifiers).
    pub volume: u8,
    /// Last OSD text shown (displays).
    pub osd: String,
    /// Stills captured (cameras).
    pub captures: u32,
}

impl Default for FcmStateSnapshot {
    fn default() -> Self {
        FcmStateSnapshot {
            transport: TransportState::Stopped,
            position: 0,
            media_present: true,
            channel: 1,
            volume: 50,
            osd: String::new(),
            captures: 0,
        }
    }
}

/// An event-manager hookup for state-change notifications.
#[derive(Clone)]
struct EventHookup {
    ms: MessagingSystem,
    em: Seid,
}

/// An installed FCM: its SEID, kind, and observable state.
#[derive(Clone)]
pub struct Fcm {
    seid: Seid,
    kind: FcmKind,
    name: String,
    state: Arc<Mutex<FcmStateSnapshot>>,
}

impl Fcm {
    /// Installs an FCM of `kind` as a software element on `ms`.
    ///
    /// If `event_manager` is given, the FCM posts `TRANSPORT_CHANGED`
    /// events on every transport transition.
    pub fn install(
        ms: &MessagingSystem,
        kind: FcmKind,
        name: &str,
        event_manager: Option<Seid>,
    ) -> Fcm {
        let state = Arc::new(Mutex::new(FcmStateSnapshot::default()));
        let state2 = state.clone();
        let hookup = event_manager.map(|em| EventHookup { ms: ms.clone(), em });
        // The element's own handle, needed to post events; filled in after
        // registration.
        let self_seid: Arc<Mutex<Option<Seid>>> = Arc::new(Mutex::new(None));
        let self_seid2 = self_seid.clone();

        let seid = ms.register_element(move |_, msg| {
            if msg.opcode.api != kind.api_code() {
                return (HaviStatus::EUnsupported, vec![]);
            }
            let mut st = state2.lock();
            let prev_transport = st.transport;
            let result = apply_operation(kind, &mut st, msg.opcode.oper, &msg.params);
            let new_transport = st.transport;
            drop(st);
            if new_transport != prev_transport {
                if let (Some(hook), Some(me)) = (&hookup, *self_seid2.lock()) {
                    let _ = post(
                        &hook.ms,
                        me.handle,
                        hook.em,
                        event_type::TRANSPORT_CHANGED,
                        vec![HValue::Str(new_transport.label().to_owned())],
                    );
                }
            }
            result
        });
        *self_seid.lock() = Some(seid);
        Fcm {
            seid,
            kind,
            name: name.to_owned(),
            state,
        }
    }

    /// The FCM's SEID.
    pub fn seid(&self) -> Seid {
        self.seid
    }

    /// The FCM's kind.
    pub fn kind(&self) -> FcmKind {
        self.kind
    }

    /// The FCM's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A snapshot of the current state (for tests and OSDs).
    pub fn state(&self) -> FcmStateSnapshot {
        self.state.lock().clone()
    }

    /// Ejects/loads media (failure injection for transports).
    #[cfg(test)]
    fn set_media_present(&self, present: bool) {
        self.state.lock().media_present = present;
    }
}

impl fmt::Debug for Fcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fcm")
            .field("seid", &self.seid)
            .field("kind", &self.kind)
            .field("name", &self.name)
            .finish()
    }
}

fn apply_operation(
    kind: FcmKind,
    st: &mut FcmStateSnapshot,
    operation: u16,
    params: &[HValue],
) -> (HaviStatus, Vec<HValue>) {
    use oper::*;
    match operation {
        PLAY if kind.has_transport() => {
            if !st.media_present {
                return (HaviStatus::EState, vec![]);
            }
            st.transport = TransportState::Playing;
            (HaviStatus::Success, vec![])
        }
        STOP if kind.has_transport() => {
            st.transport = TransportState::Stopped;
            (HaviStatus::Success, vec![])
        }
        RECORD if kind.has_transport() => {
            if !st.media_present {
                return (HaviStatus::EState, vec![]);
            }
            st.transport = TransportState::Recording;
            (HaviStatus::Success, vec![])
        }
        WIND if kind.has_transport() => {
            if !st.media_present {
                return (HaviStatus::EState, vec![]);
            }
            st.transport = TransportState::Winding;
            st.position = st.position.saturating_add(100);
            (HaviStatus::Success, vec![])
        }
        REWIND if kind.has_transport() => {
            if !st.media_present {
                return (HaviStatus::EState, vec![]);
            }
            st.transport = TransportState::Rewinding;
            st.position = st.position.saturating_sub(100);
            (HaviStatus::Success, vec![])
        }
        STATUS => (
            HaviStatus::Success,
            vec![
                HValue::Str(st.transport.label().to_owned()),
                HValue::U32(st.position),
            ],
        ),
        SET_CHANNEL if kind == FcmKind::Tuner => match params.first().and_then(HValue::as_u32) {
            Some(ch) if (1..=999).contains(&ch) => {
                st.channel = ch as u16;
                (HaviStatus::Success, vec![])
            }
            _ => (HaviStatus::EParameter, vec![]),
        },
        GET_CHANNEL if kind == FcmKind::Tuner => {
            (HaviStatus::Success, vec![HValue::U16(st.channel)])
        }
        SHOW_OSD if kind == FcmKind::Display => match params.first().and_then(HValue::as_str) {
            Some(text) => {
                st.osd = text.to_owned();
                (HaviStatus::Success, vec![])
            }
            None => (HaviStatus::EParameter, vec![]),
        },
        SET_VOLUME if kind == FcmKind::Amplifier => match params.first().and_then(HValue::as_u32) {
            Some(v) if v <= 100 => {
                st.volume = v as u8;
                (HaviStatus::Success, vec![])
            }
            _ => (HaviStatus::EParameter, vec![]),
        },
        GET_VOLUME if kind == FcmKind::Amplifier => {
            (HaviStatus::Success, vec![HValue::U8(st.volume)])
        }
        CAPTURE if kind == FcmKind::DvCamera => {
            st.captures += 1;
            (HaviStatus::Success, vec![HValue::U32(st.captures)])
        }
        _ => (HaviStatus::EUnsupported, vec![]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messaging::OpCode;
    use simnet::{Network, Sim};

    fn world() -> (Sim, Network, MessagingSystem) {
        let sim = Sim::new(1);
        let net = Network::ieee1394(&sim);
        let node = MessagingSystem::attach(&net, "device");
        (sim, net, node)
    }

    fn controller(net: &Network) -> (MessagingSystem, Seid) {
        let ms = MessagingSystem::attach(net, "controller");
        let seid = ms.register_element(|_, _| (HaviStatus::Success, vec![]));
        (ms, seid)
    }

    #[test]
    fn vcr_transport_cycle() {
        let (_sim, net, node) = world();
        let vcr = Fcm::install(&node, FcmKind::Vcr, "vcr", None);
        let (ctl, me) = controller(&net);
        let api = FcmKind::Vcr.api_code();

        ctl.send_ok(
            me.handle,
            vcr.seid(),
            OpCode::new(api, oper::RECORD),
            vec![],
        )
        .unwrap();
        assert_eq!(vcr.state().transport, TransportState::Recording);

        let status = ctl
            .send_ok(
                me.handle,
                vcr.seid(),
                OpCode::new(api, oper::STATUS),
                vec![],
            )
            .unwrap();
        assert_eq!(status[0].as_str(), Some("recording"));

        ctl.send_ok(me.handle, vcr.seid(), OpCode::new(api, oper::STOP), vec![])
            .unwrap();
        assert_eq!(vcr.state().transport, TransportState::Stopped);

        ctl.send_ok(me.handle, vcr.seid(), OpCode::new(api, oper::WIND), vec![])
            .unwrap();
        assert_eq!(vcr.state().position, 100);
        ctl.send_ok(
            me.handle,
            vcr.seid(),
            OpCode::new(api, oper::REWIND),
            vec![],
        )
        .unwrap();
        assert_eq!(vcr.state().position, 0);
    }

    #[test]
    fn no_media_blocks_transport() {
        let (_sim, net, node) = world();
        let vcr = Fcm::install(&node, FcmKind::Vcr, "vcr", None);
        vcr.set_media_present(false);
        let (ctl, me) = controller(&net);
        let api = FcmKind::Vcr.api_code();
        let (status, _) = ctl
            .send(
                me.handle,
                vcr.seid(),
                OpCode::new(api, oper::RECORD),
                vec![],
            )
            .unwrap();
        assert_eq!(status, HaviStatus::EState);
        // STOP still works without media.
        let (status, _) = ctl
            .send(me.handle, vcr.seid(), OpCode::new(api, oper::STOP), vec![])
            .unwrap();
        assert!(status.is_ok());
    }

    #[test]
    fn tuner_channel_bounds() {
        let (_sim, net, node) = world();
        let tuner = Fcm::install(&node, FcmKind::Tuner, "tuner", None);
        let (ctl, me) = controller(&net);
        let api = FcmKind::Tuner.api_code();
        ctl.send_ok(
            me.handle,
            tuner.seid(),
            OpCode::new(api, oper::SET_CHANNEL),
            vec![HValue::U16(42)],
        )
        .unwrap();
        let got = ctl
            .send_ok(
                me.handle,
                tuner.seid(),
                OpCode::new(api, oper::GET_CHANNEL),
                vec![],
            )
            .unwrap();
        assert_eq!(got[0].as_u32(), Some(42));
        let (status, _) = ctl
            .send(
                me.handle,
                tuner.seid(),
                OpCode::new(api, oper::SET_CHANNEL),
                vec![HValue::U16(0)],
            )
            .unwrap();
        assert_eq!(status, HaviStatus::EParameter);
        let (status, _) = ctl
            .send(
                me.handle,
                tuner.seid(),
                OpCode::new(api, oper::SET_CHANNEL),
                vec![],
            )
            .unwrap();
        assert_eq!(status, HaviStatus::EParameter);
    }

    #[test]
    fn camera_capture_counts() {
        let (_sim, net, node) = world();
        let cam = Fcm::install(&node, FcmKind::DvCamera, "dv-cam", None);
        let (ctl, me) = controller(&net);
        let api = FcmKind::DvCamera.api_code();
        let a = ctl
            .send_ok(
                me.handle,
                cam.seid(),
                OpCode::new(api, oper::CAPTURE),
                vec![],
            )
            .unwrap();
        let b = ctl
            .send_ok(
                me.handle,
                cam.seid(),
                OpCode::new(api, oper::CAPTURE),
                vec![],
            )
            .unwrap();
        assert_eq!(a[0].as_u32(), Some(1));
        assert_eq!(b[0].as_u32(), Some(2));
    }

    #[test]
    fn display_and_amplifier() {
        let (_sim, net, node) = world();
        let display = Fcm::install(&node, FcmKind::Display, "panel", None);
        let amp = Fcm::install(&node, FcmKind::Amplifier, "amp", None);
        let (ctl, me) = controller(&net);
        ctl.send_ok(
            me.handle,
            display.seid(),
            OpCode::new(FcmKind::Display.api_code(), oper::SHOW_OSD),
            vec![HValue::Str("Now recording".into())],
        )
        .unwrap();
        assert_eq!(display.state().osd, "Now recording");

        ctl.send_ok(
            me.handle,
            amp.seid(),
            OpCode::new(FcmKind::Amplifier.api_code(), oper::SET_VOLUME),
            vec![HValue::U8(80)],
        )
        .unwrap();
        assert_eq!(amp.state().volume, 80);
        let (status, _) = ctl
            .send(
                me.handle,
                amp.seid(),
                OpCode::new(FcmKind::Amplifier.api_code(), oper::SET_VOLUME),
                vec![HValue::U8(101)],
            )
            .unwrap();
        assert_eq!(status, HaviStatus::EParameter);
    }

    #[test]
    fn wrong_api_class_is_unsupported() {
        let (_sim, net, node) = world();
        let vcr = Fcm::install(&node, FcmKind::Vcr, "vcr", None);
        let (ctl, me) = controller(&net);
        // Sending tuner ops to a VCR fails.
        let (status, _) = ctl
            .send(
                me.handle,
                vcr.seid(),
                OpCode::new(FcmKind::Tuner.api_code(), oper::SET_CHANNEL),
                vec![HValue::U16(3)],
            )
            .unwrap();
        assert_eq!(status, HaviStatus::EUnsupported);
        // Transport ops on a display fail too.
        let display = Fcm::install(&node, FcmKind::Display, "panel", None);
        let (status, _) = ctl
            .send(
                me.handle,
                display.seid(),
                OpCode::new(FcmKind::Display.api_code(), oper::PLAY),
                vec![],
            )
            .unwrap();
        assert_eq!(status, HaviStatus::EUnsupported);
    }

    #[test]
    fn transport_changes_post_events() {
        use crate::events::{decode_forwarded, subscribe, EventManager};
        let (_sim, net, node) = world();
        let fav = MessagingSystem::attach(&net, "fav");
        let em = EventManager::start(&fav);
        let vcr = Fcm::install(&node, FcmKind::Vcr, "vcr", Some(em.seid()));

        let watcher = MessagingSystem::attach(&net, "watcher");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let listener = watcher.register_element(move |_, msg| {
            if let Some(ev) = decode_forwarded(msg) {
                seen2
                    .lock()
                    .push(ev.payload[0].as_str().unwrap().to_owned());
            }
            (HaviStatus::Success, vec![])
        });
        subscribe(
            &watcher,
            listener.handle,
            em.seid(),
            event_type::TRANSPORT_CHANGED,
        )
        .unwrap();

        let (ctl, me) = controller(&net);
        let api = FcmKind::Vcr.api_code();
        ctl.send_ok(me.handle, vcr.seid(), OpCode::new(api, oper::PLAY), vec![])
            .unwrap();
        ctl.send_ok(me.handle, vcr.seid(), OpCode::new(api, oper::STOP), vec![])
            .unwrap();
        // STATUS does not change state: no third event.
        ctl.send_ok(
            me.handle,
            vcr.seid(),
            OpCode::new(api, oper::STATUS),
            vec![],
        )
        .unwrap();
        assert_eq!(
            *seen.lock(),
            vec!["playing".to_owned(), "stopped".to_owned()]
        );
    }
}
