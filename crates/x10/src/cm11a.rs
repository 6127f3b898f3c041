//! The CM11A computer interface.
//!
//! The CM11A is the serial-attached bridge between a PC and the
//! powerline — the hardware behind the paper's X10 PCM (ref. \[15\],
//! "CM11A programming protocol"). The PC side sends a two-byte
//! header/code pair, verifies the interface's checksum echo, commits
//! with `0x00`, and receives `0x55` once the command has been put on the
//! powerline. Received powerline traffic is buffered in the interface
//! and fetched with the `0xC3` poll.
//!
//! *Deviation from hardware:* the real interface volunteers `0x5A` bytes
//! to announce buffered data; the simulation's serial line is
//! request/response, so the driver polls instead.

use crate::codec::{Function, HouseCode, UnitCode, X10Frame};
use crate::powerline::Transmitter;
use parking_lot::Mutex;
use simnet::{Network, NodeId, Protocol, SimDuration};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// PC → interface: commit a checksummed command.
const ACK_OK: u8 = 0x00;
/// Interface → PC: command transmitted.
const IF_READY: u8 = 0x55;
/// PC → interface: upload your receive buffer.
const POLL_FETCH: u8 = 0xC3;

/// The interface device: one foot on the serial line, one on the
/// powerline.
#[derive(Clone)]
pub struct Cm11a {
    serial_node: NodeId,
    buffer: Arc<Mutex<VecDeque<X10Frame>>>,
}

/// How many received frames the hardware buffer holds (the real device
/// has a 10-byte buffer ≈ 5 frames).
const RX_BUFFER_FRAMES: usize = 5;

impl Cm11a {
    /// Installs the interface: attaches a node on `serial` (to the PC)
    /// and a node on `powerline`.
    pub fn install(serial: &Network, powerline: &Network) -> Cm11a {
        let serial_node = serial.attach("cm11a-serial");
        let pl_tx = Transmitter::attach(powerline, "cm11a-powerline");
        let buffer: Arc<Mutex<VecDeque<X10Frame>>> = Arc::new(Mutex::new(VecDeque::new()));

        // Powerline side: buffer everything heard (the PC decides what
        // matters).
        let buffer2 = buffer.clone();
        powerline
            .set_frame_handler(pl_tx.node(), move |_sim, frame| {
                if let Some(decoded) = X10Frame::decode(&frame.payload) {
                    let mut buf = buffer2.lock();
                    if buf.len() == RX_BUFFER_FRAMES {
                        buf.pop_front(); // hardware overwrites oldest
                    }
                    buf.push_back(decoded);
                }
            })
            .expect("powerline node exists");

        // Serial side: the command protocol. The two-byte command and its
        // commit arrive as one serial exchange each. Every answer is
        // written into the request's own buffer.
        let pending: Arc<Mutex<Option<[u8; 2]>>> = Arc::new(Mutex::new(None));
        let buffer3 = buffer.clone();
        serial
            .set_request_handler(serial_node, move |sim, frame| {
                sim.advance(SimDuration::from_millis(1)); // 8-bit MCU
                let mut out = std::mem::take(&mut frame.payload);
                match *out.as_slice() {
                    [header, code] => {
                        // Header/code pair: store and echo the checksum.
                        *pending.lock() = Some([header, code]);
                        out.clear();
                        out.push(header.wrapping_add(code));
                        Ok(out)
                    }
                    [ACK_OK] => {
                        // Commit: transmit the stored command on the
                        // powerline.
                        let Some(pair) = pending.lock().take() else {
                            return Err("commit without pending command".into());
                        };
                        match decode_pc_command(pair) {
                            Some(frame) => {
                                let _ = pl_tx.transmit_frame(frame);
                                out[0] = IF_READY;
                                Ok(out)
                            }
                            None => Err("malformed command".into()),
                        }
                    }
                    [POLL_FETCH] => {
                        // Upload and clear the receive buffer.
                        let mut buf = buffer3.lock();
                        out.clear();
                        out.push(buf.len() as u8);
                        for f in buf.drain(..) {
                            out.extend_from_slice(&f.encode());
                        }
                        Ok(out)
                    }
                    _ => Err(format!("unexpected serial bytes {out:?}")),
                }
            })
            .expect("serial node exists");

        Cm11a {
            serial_node,
            buffer,
        }
    }

    /// The interface's node on the serial line.
    pub fn serial_node(&self) -> NodeId {
        self.serial_node
    }

    /// Frames waiting in the receive buffer (for tests).
    pub fn buffered(&self) -> usize {
        self.buffer.lock().len()
    }
}

impl fmt::Debug for Cm11a {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cm11a")
            .field("serial_node", &self.serial_node)
            .field("buffered", &self.buffered())
            .finish()
    }
}

fn encode_pc_command(frame: X10Frame) -> [u8; 2] {
    match frame {
        X10Frame::Address { house, unit } => [0x04, house.code() << 4 | unit.code()],
        X10Frame::Function {
            house,
            function,
            dims,
        } => [
            0x06 | (dims.min(22) << 3),
            house.code() << 4 | function.code(),
        ],
    }
}

fn decode_pc_command(pair: [u8; 2]) -> Option<X10Frame> {
    let house = HouseCode::from_code(pair[1] >> 4)?;
    if pair[0] & 0x02 == 0 {
        Some(X10Frame::Address {
            house,
            unit: UnitCode::from_code(pair[1])?,
        })
    } else {
        Some(X10Frame::Function {
            house,
            function: Function::from_code(pair[1])?,
            dims: pair[0] >> 3,
        })
    }
}

/// Errors surfaced by the PC-side driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cm11aError {
    /// The serial line failed.
    Serial(String),
    /// The interface's checksum did not match ours.
    ChecksumMismatch {
        /// What we computed.
        expected: u8,
        /// What the interface echoed.
        got: u8,
    },
    /// The interface replied with something unexpected.
    Protocol(String),
}

impl fmt::Display for Cm11aError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cm11aError::Serial(m) => write!(f, "serial error: {m}"),
            Cm11aError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: expected {expected:02x}, got {got:02x}"
                )
            }
            Cm11aError::Protocol(m) => write!(f, "CM11A protocol error: {m}"),
        }
    }
}

impl std::error::Error for Cm11aError {}

/// The PC-side driver speaking the CM11A serial protocol. It keeps one
/// spare buffer: each request is written into it, and each reply, once
/// read, becomes the spare for the next request, so a warm serial
/// exchange allocates nothing.
#[derive(Debug, Clone)]
pub struct Cm11aDriver {
    serial: Network,
    pc: NodeId,
    interface: NodeId,
    spare: Arc<Mutex<Vec<u8>>>,
}

impl Cm11aDriver {
    /// Creates a driver for the interface at `interface`, talking from a
    /// fresh PC node on `serial`.
    pub fn new(serial: &Network, interface: NodeId) -> Cm11aDriver {
        Cm11aDriver {
            serial: serial.clone(),
            pc: serial.attach("pc-serial"),
            interface,
            spare: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Sends `bytes` in the spare buffer and hands the reply to `read`;
    /// the reply's buffer is then the spare.
    fn exchange<T>(&self, bytes: &[u8], read: impl FnOnce(&[u8]) -> T) -> Result<T, Cm11aError> {
        let mut request = std::mem::take(&mut *self.spare.lock());
        request.clear();
        request.extend_from_slice(bytes);
        let reply = self
            .serial
            .request(self.pc, self.interface, Protocol::X10, request)
            .map_err(|e| Cm11aError::Serial(e.to_string()))?;
        let out = read(&reply);
        *self.spare.lock() = reply;
        Ok(out)
    }

    fn send_frame(&self, frame: X10Frame) -> Result<(), Cm11aError> {
        let pair = encode_pc_command(frame);
        let expected = pair[0].wrapping_add(pair[1]);
        match self.exchange(&pair, |echo| echo.first().copied())? {
            Some(got) if got == expected => {}
            Some(got) => return Err(Cm11aError::ChecksumMismatch { expected, got }),
            None => return Err(Cm11aError::Protocol("empty checksum reply".into())),
        }
        self.exchange(&[ACK_OK], |ready| {
            if ready.first() == Some(&IF_READY) {
                Ok(())
            } else {
                Err(Cm11aError::Protocol(format!(
                    "expected 0x55 ready, got {ready:?}"
                )))
            }
        })?
    }

    /// Sends a complete X10 command (address then function).
    pub fn send_command(
        &self,
        house: HouseCode,
        unit: UnitCode,
        function: Function,
    ) -> Result<(), Cm11aError> {
        self.send_command_dims(house, unit, function, 0)
    }

    /// Sends a command with a dim/bright step count.
    pub fn send_command_dims(
        &self,
        house: HouseCode,
        unit: UnitCode,
        function: Function,
        dims: u8,
    ) -> Result<(), Cm11aError> {
        self.send_frame(X10Frame::Address { house, unit })?;
        self.send_frame(X10Frame::Function {
            house,
            function,
            dims,
        })
    }

    /// Fetches everything the interface has heard on the powerline since
    /// the last poll.
    pub fn poll(&self) -> Result<Vec<X10Frame>, Cm11aError> {
        self.exchange(&[POLL_FETCH], |data| {
            let count = *data
                .first()
                .ok_or_else(|| Cm11aError::Protocol("empty poll reply".into()))?
                as usize;
            let mut frames = Vec::with_capacity(count);
            for i in 0..count {
                let at = 1 + i * 2;
                let pair = data
                    .get(at..at + 2)
                    .ok_or_else(|| Cm11aError::Protocol("truncated poll reply".into()))?;
                if let Some(f) = X10Frame::decode(pair) {
                    frames.push(f);
                }
            }
            Ok(frames)
        })?
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{Module, ModuleKind};
    use simnet::Sim;

    fn world() -> (Sim, Network, Network, Cm11a, Cm11aDriver) {
        let sim = Sim::new(1);
        let serial = Network::serial(&sim);
        let mut link = simnet::netkind::powerline();
        link.loss_prob = 0.0;
        let powerline = Network::new(&sim, "powerline", link);
        let cm11a = Cm11a::install(&serial, &powerline);
        let driver = Cm11aDriver::new(&serial, cm11a.serial_node());
        (sim, serial, powerline, cm11a, driver)
    }

    fn h(c: char) -> HouseCode {
        HouseCode::new(c).unwrap()
    }
    fn u(n: u8) -> UnitCode {
        UnitCode::new(n).unwrap()
    }

    #[test]
    fn pc_command_switches_module() {
        let (_sim, _serial, powerline, _cm11a, driver) = world();
        let lamp = Module::plug_in(&powerline, "lamp", ModuleKind::Lamp, h('A'), u(1));
        driver.send_command(h('A'), u(1), Function::On).unwrap();
        assert!(lamp.is_on());
        driver.send_command(h('A'), u(1), Function::Off).unwrap();
        assert!(!lamp.is_on());
    }

    #[test]
    fn dim_through_interface() {
        let (_sim, _serial, powerline, _cm11a, driver) = world();
        let lamp = Module::plug_in(&powerline, "lamp", ModuleKind::Lamp, h('A'), u(1));
        driver.send_command(h('A'), u(1), Function::On).unwrap();
        driver
            .send_command_dims(h('A'), u(1), Function::Dim, 6)
            .unwrap();
        assert_eq!(lamp.state().level, crate::module::MAX_DIM_STEPS - 6);
    }

    #[test]
    fn poll_returns_overheard_traffic() {
        let (_sim, _serial, powerline, cm11a, driver) = world();
        // Somebody else's remote talks on the powerline.
        let remote = Transmitter::attach(&powerline, "remote");
        remote.send_command(h('C'), u(9), Function::On);
        assert_eq!(cm11a.buffered(), 2);

        let frames = driver.poll().unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(
            frames[0],
            X10Frame::Address {
                house: h('C'),
                unit: u(9)
            }
        );
        assert!(matches!(
            frames[1],
            X10Frame::Function {
                function: Function::On,
                ..
            }
        ));
        // Buffer drained.
        assert!(driver.poll().unwrap().is_empty());
    }

    #[test]
    fn buffer_overwrites_oldest_when_full() {
        let (_sim, _serial, powerline, cm11a, driver) = world();
        let remote = Transmitter::attach(&powerline, "remote");
        for n in 1..=8u8 {
            remote.transmit_frame(X10Frame::Address {
                house: h('A'),
                unit: u(n),
            });
        }
        assert_eq!(cm11a.buffered(), RX_BUFFER_FRAMES);
        let frames = driver.poll().unwrap();
        // Oldest three were overwritten; units 4..=8 remain.
        assert_eq!(frames.len(), RX_BUFFER_FRAMES);
        assert_eq!(
            frames[0],
            X10Frame::Address {
                house: h('A'),
                unit: u(4)
            }
        );
    }

    #[test]
    fn commit_without_command_is_protocol_error() {
        let (_sim, serial, _powerline, cm11a, _driver) = world();
        let pc = serial.attach("rogue-pc");
        let err = serial
            .request(pc, cm11a.serial_node(), Protocol::X10, vec![ACK_OK])
            .unwrap_err();
        assert!(err.to_string().contains("commit without pending"));
    }

    #[test]
    fn own_transmissions_are_not_buffered() {
        let (_sim, _serial, _powerline, cm11a, driver) = world();
        driver.send_command(h('A'), u(1), Function::On).unwrap();
        // The CM11A does not hear itself (broadcast excludes the sender).
        assert_eq!(cm11a.buffered(), 0);
    }

    #[test]
    fn serial_protocol_has_visible_cost() {
        let (sim, _serial, _powerline, _cm11a, driver) = world();
        let before = sim.now();
        driver.send_command(h('A'), u(1), Function::On).unwrap();
        let elapsed = sim.now() - before;
        // 4 serial exchanges + 2 powerline frames: dominated by the
        // powerline (hundreds of ms).
        assert!(elapsed.as_millis() >= 200, "took {elapsed}");
    }
}
