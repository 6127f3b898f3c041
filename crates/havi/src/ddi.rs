//! DDI — Data Driven Interaction.
//!
//! HAVi's mechanism for device-supplied user interfaces: an FCM serves a
//! *DDI panel* (a tree of UI elements) that any controller — typically
//! the digital TV — renders, sending user actions back as messages. This
//! is how "we want to control these appliances from the GUI of the
//! digital TV" (§1) works without the TV knowing any device specifics.

use crate::hvalue::HValue;
use crate::messaging::{HaviError, MessagingSystem, OpCode};
use crate::seid::{HaviStatus, Seid};
use parking_lot::Mutex;
use simnet::Sim;
use std::fmt;
use std::sync::Arc;

/// DDI API class.
pub const API_DDI: u16 = 0x0003;
/// `Ddi::GetPanel` — returns the serialised element tree.
const OPER_GET_PANEL: u16 = 1;
/// `Ddi::UserAction` — `[U16 element-id]`.
const OPER_USER_ACTION: u16 = 2;

/// A node in a DDI panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdiElement {
    /// A titled group of elements.
    Panel {
        /// Panel title.
        title: String,
        /// Children, in display order.
        children: Vec<DdiElement>,
    },
    /// A push button.
    Button {
        /// Action id sent on push.
        id: u16,
        /// Button label.
        label: String,
    },
    /// A read-only text field.
    Text {
        /// Field label.
        label: String,
        /// Field value.
        value: String,
    },
}

impl DdiElement {
    fn write(&self, out: &mut Vec<HValue>) {
        match self {
            DdiElement::Panel { title, children } => {
                out.push(HValue::U8(0));
                out.push(HValue::Str(title.clone()));
                out.push(HValue::U16(children.len() as u16));
                for c in children {
                    c.write(out);
                }
            }
            DdiElement::Button { id, label } => {
                out.push(HValue::U8(1));
                out.push(HValue::U16(*id));
                out.push(HValue::Str(label.clone()));
            }
            DdiElement::Text { label, value } => {
                out.push(HValue::U8(2));
                out.push(HValue::Str(label.clone()));
                out.push(HValue::Str(value.clone()));
            }
        }
    }

    fn read(params: &[HValue], pos: &mut usize) -> Option<DdiElement> {
        let tag = params.get(*pos)?.as_u32()?;
        *pos += 1;
        match tag {
            0 => {
                let title = params.get(*pos)?.as_str()?.to_owned();
                let n = params.get(*pos + 1)?.as_u32()? as usize;
                *pos += 2;
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(DdiElement::read(params, pos)?);
                }
                Some(DdiElement::Panel { title, children })
            }
            1 => {
                let id = params.get(*pos)?.as_u32()? as u16;
                let label = params.get(*pos + 1)?.as_str()?.to_owned();
                *pos += 2;
                Some(DdiElement::Button { id, label })
            }
            2 => {
                let label = params.get(*pos)?.as_str()?.to_owned();
                let value = params.get(*pos + 1)?.as_str()?.to_owned();
                *pos += 2;
                Some(DdiElement::Text { label, value })
            }
            _ => None,
        }
    }

    /// Serialises a tree to HAVi parameters.
    fn to_params(&self) -> Vec<HValue> {
        let mut out = Vec::new();
        self.write(&mut out);
        out
    }

    /// Deserialises a tree.
    fn from_params(params: &[HValue]) -> Option<DdiElement> {
        let mut pos = 0;
        let e = DdiElement::read(params, &mut pos)?;
        (pos == params.len()).then_some(e)
    }

    /// All buttons in the tree, in display order.
    pub fn buttons(&self) -> Vec<(u16, &str)> {
        let mut out = Vec::new();
        self.collect_buttons(&mut out);
        out
    }

    fn collect_buttons<'a>(&'a self, out: &mut Vec<(u16, &'a str)>) {
        match self {
            DdiElement::Panel { children, .. } => {
                for c in children {
                    c.collect_buttons(out);
                }
            }
            DdiElement::Button { id, label } => out.push((*id, label)),
            DdiElement::Text { .. } => {}
        }
    }
}

impl fmt::Display for DdiElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdiElement::Panel { title, children } => {
                writeln!(f, "[{title}]")?;
                for c in children {
                    write!(f, "  {c}")?;
                }
                Ok(())
            }
            DdiElement::Button { id, label } => writeln!(f, "({id}) <{label}>"),
            DdiElement::Text { label, value } => writeln!(f, "{label}: {value}"),
        }
    }
}

/// A hosted DDI panel: a software element serving the tree and accepting
/// user actions.
#[derive(Clone)]
pub struct DdiPanel {
    seid: Seid,
    panel: Arc<Mutex<DdiElement>>,
}

impl DdiPanel {
    /// Installs a panel on `ms` with the given UI tree and action
    /// callback.
    pub fn install(
        ms: &MessagingSystem,
        panel: DdiElement,
        mut on_action: impl FnMut(&Sim, u16) + Send + 'static,
    ) -> DdiPanel {
        let panel = Arc::new(Mutex::new(panel));
        let panel2 = panel.clone();
        let seid = ms.register_element(move |sim, msg| {
            if msg.opcode.api != API_DDI {
                return (HaviStatus::EUnsupported, vec![]);
            }
            match msg.opcode.oper {
                OPER_GET_PANEL => (HaviStatus::Success, panel2.lock().to_params()),
                OPER_USER_ACTION => match msg.params.first().and_then(HValue::as_u32) {
                    Some(id) => {
                        let valid = panel2
                            .lock()
                            .buttons()
                            .iter()
                            .any(|(bid, _)| u32::from(*bid) == id);
                        if valid {
                            on_action(sim, id as u16);
                            (HaviStatus::Success, vec![])
                        } else {
                            (HaviStatus::EParameter, vec![])
                        }
                    }
                    None => (HaviStatus::EParameter, vec![]),
                },
                _ => (HaviStatus::EUnsupported, vec![]),
            }
        });
        DdiPanel { seid, panel }
    }

    /// The panel's SEID.
    pub fn seid(&self) -> Seid {
        self.seid
    }

    /// Replaces the UI tree (e.g. to refresh a status text).
    pub fn update(&self, panel: DdiElement) {
        *self.panel.lock() = panel;
    }
}

impl fmt::Debug for DdiPanel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DdiPanel")
            .field("seid", &self.seid)
            .finish()
    }
}

/// The controller (TV-GUI) side.
#[derive(Debug, Clone)]
pub struct DdiController {
    ms: MessagingSystem,
    src_handle: u32,
}

impl DdiController {
    /// Creates a controller sending from local element `src_handle`.
    pub fn new(ms: &MessagingSystem, src_handle: u32) -> DdiController {
        DdiController {
            ms: ms.clone(),
            src_handle,
        }
    }

    /// Fetches a device's panel.
    pub fn fetch(&self, panel: Seid) -> Result<DdiElement, HaviError> {
        let params = self.ms.send_ok(
            self.src_handle,
            panel,
            OpCode::new(API_DDI, OPER_GET_PANEL),
            vec![],
        )?;
        DdiElement::from_params(&params).ok_or(HaviError::Status(HaviStatus::EParameter))
    }

    /// Pushes a button.
    pub fn press(&self, panel: Seid, action: u16) -> Result<(), HaviError> {
        self.ms
            .send_ok(
                self.src_handle,
                panel,
                OpCode::new(API_DDI, OPER_USER_ACTION),
                vec![HValue::U16(action)],
            )
            .map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Network;

    fn sample_panel() -> DdiElement {
        DdiElement::Panel {
            title: "VCR".into(),
            children: vec![
                DdiElement::Text {
                    label: "state".into(),
                    value: "stopped".into(),
                },
                DdiElement::Button {
                    id: 1,
                    label: "Play".into(),
                },
                DdiElement::Button {
                    id: 2,
                    label: "Stop".into(),
                },
                DdiElement::Panel {
                    title: "Advanced".into(),
                    children: vec![DdiElement::Button {
                        id: 3,
                        label: "Record".into(),
                    }],
                },
            ],
        }
    }

    #[test]
    fn tree_round_trips_through_params() {
        let p = sample_panel();
        assert_eq!(DdiElement::from_params(&p.to_params()), Some(p.clone()));
        assert_eq!(
            p.buttons().iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Trailing garbage rejected.
        let mut params = p.to_params();
        params.push(HValue::U8(9));
        assert_eq!(DdiElement::from_params(&params), None);
    }

    #[test]
    fn tv_gui_drives_a_device_through_its_panel() {
        let sim = simnet::Sim::new(1);
        let bus = Network::ieee1394(&sim);
        let vcr_node = MessagingSystem::attach(&bus, "vcr");
        let pressed = Arc::new(Mutex::new(Vec::new()));
        let pressed2 = pressed.clone();
        let panel = DdiPanel::install(&vcr_node, sample_panel(), move |_, id| {
            pressed2.lock().push(id);
        });

        let tv = MessagingSystem::attach(&bus, "tv");
        let gui = tv.register_element(|_, _| (HaviStatus::Success, vec![]));
        let controller = DdiController::new(&tv, gui.handle);

        // The TV renders whatever the device serves — no device-specific
        // code.
        let ui = controller.fetch(panel.seid()).unwrap();
        let buttons = ui.buttons();
        assert_eq!(buttons.len(), 3);
        assert_eq!(buttons[0].1, "Play");

        controller.press(panel.seid(), buttons[0].0).unwrap();
        controller.press(panel.seid(), buttons[2].0).unwrap();
        assert_eq!(*pressed.lock(), vec![1, 3]);

        // Unknown action ids are rejected.
        assert!(matches!(
            controller.press(panel.seid(), 99),
            Err(HaviError::Status(HaviStatus::EParameter))
        ));
    }

    #[test]
    fn panels_can_refresh() {
        let sim = simnet::Sim::new(1);
        let bus = Network::ieee1394(&sim);
        let node = MessagingSystem::attach(&bus, "dev");
        let panel = DdiPanel::install(&node, sample_panel(), |_, _| {});
        panel.update(DdiElement::Panel {
            title: "VCR".into(),
            children: vec![DdiElement::Text {
                label: "state".into(),
                value: "recording".into(),
            }],
        });
        let tv = MessagingSystem::attach(&bus, "tv");
        let gui = tv.register_element(|_, _| (HaviStatus::Success, vec![]));
        let ui = DdiController::new(&tv, gui.handle)
            .fetch(panel.seid())
            .unwrap();
        assert!(ui.to_string().contains("recording"));
        assert!(ui.buttons().is_empty());
    }
}
