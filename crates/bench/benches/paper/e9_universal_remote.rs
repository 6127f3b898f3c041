//! E9 (Fig. 5): the Universal Remote Controller, replayed.
//!
//! A scripted session on the X10 handheld remote drives an X10 lamp, the
//! Jini laserdisc and the HAVi DV camera. Measured: per-command
//! end-to-end latency (button press to target state change) and the
//! command rate the remote can sustain. Expected shape: the powerline's
//! ~0.8 s/command floor dominates everything — the remote, not the
//! framework, is the bottleneck (which is why the demo in Fig. 5 felt
//! instantaneous to its user: human-scale, not network-scale, latency).

use bench::{cell, fmt_us, Report};
use metaware::pcm::x10::Route;
use metaware::{house, unit, SmartHome};
use simnet::SimDuration;
use soap::Value;
use x10::{Button, Function};

fn routed_home() -> SmartHome {
    let home = SmartHome::builder().build().unwrap();
    let x10 = home.x10.as_ref().unwrap();
    for (btn, function, service, operation) in [
        (5, Function::On, "laserdisc", "play"),
        (5, Function::Off, "laserdisc", "stop"),
        (6, Function::On, "dv-camera", "record"),
        (6, Function::Off, "dv-camera", "stop"),
    ] {
        x10.pcm.add_route(Route {
            house: house('A'),
            unit: unit(btn),
            function,
            service: service.into(),
            operation: operation.into(),
            args: if operation == "play" {
                vec![("chapter".into(), Value::Int(1))]
            } else {
                vec![]
            },
        });
    }
    home
}

pub fn run() -> Vec<Report> {
    let home = routed_home();
    let x10 = home.x10.as_ref().unwrap();
    let _poll = x10.pcm.start_polling(SimDuration::from_millis(250));
    let mut remote = x10.remote();

    let mut report = Report::new(
        "E9",
        "Universal Remote Controller session replay (Fig. 5)",
        &[
            "button",
            "target",
            "middleware",
            "latency (press -> effect)",
        ],
    );

    // Button 1: native lamp.
    let t0 = home.sim.now();
    remote.press(Button::On(1));
    let native_us = (home.sim.now() - t0).as_micros();
    assert!(x10.hall_lamp.is_on());
    report.row(vec![
        cell("A1 ON"),
        cell("hall-lamp"),
        cell("x10 (native)"),
        fmt_us(native_us),
    ]);

    // Button 5: Jini laserdisc — effect lands on the next PCM poll.
    let t0 = home.sim.now();
    remote.press(Button::On(5));
    let mut waited = SimDuration::ZERO;
    while !home.jini.as_ref().unwrap().laserdisc.lock().playing {
        home.sim.run_for(SimDuration::from_millis(50));
        waited += SimDuration::from_millis(50);
        assert!(
            waited < SimDuration::from_secs(5),
            "laserdisc never started"
        );
    }
    let jini_us = (home.sim.now() - t0).as_micros();
    report.row(vec![
        cell("A5 ON"),
        cell("laserdisc"),
        cell("jini (bridged)"),
        fmt_us(jini_us),
    ]);

    // Button 6: HAVi camera.
    let t0 = home.sim.now();
    remote.press(Button::On(6));
    let cam = home.havi.as_ref().unwrap().camcorder.clone_state_probe();
    let mut waited = SimDuration::ZERO;
    while cam() != havi::TransportState::Recording {
        home.sim.run_for(SimDuration::from_millis(50));
        waited += SimDuration::from_millis(50);
        assert!(waited < SimDuration::from_secs(5), "camera never started");
    }
    let havi_us = (home.sim.now() - t0).as_micros();
    report.row(vec![
        cell("A6 ON"),
        cell("dv-camera"),
        cell("havi (bridged)"),
        fmt_us(havi_us),
    ]);

    // Sustained rate: a 10-command session.
    let t0 = home.sim.now();
    for i in 0..5 {
        remote.press(Button::On(if i % 2 == 0 { 5 } else { 6 }));
        remote.press(Button::Off(if i % 2 == 0 { 5 } else { 6 }));
    }
    home.sim.run_for(SimDuration::from_secs(1));
    let session = home.sim.now() - t0;
    let per_cmd = session.as_micros() / 10;
    report.row(vec![
        cell("10-cmd session"),
        cell("mixed"),
        cell("all"),
        format!("{} ({:.2} cmd/s)", fmt_us(per_cmd), 1e6 / per_cmd as f64),
    ]);
    report.print();
    vec![report]
}

// A tiny helper so the replay loop reads cleanly.
trait StateProbe {
    fn clone_state_probe(&self) -> Box<dyn Fn() -> havi::TransportState + '_>;
}

impl StateProbe for havi::Dcm {
    fn clone_state_probe(&self) -> Box<dyn Fn() -> havi::TransportState + '_> {
        Box::new(move || {
            self.fcm(havi::FcmKind::DvCamera)
                .map(|f| f.state().transport)
                .unwrap_or(havi::TransportState::Stopped)
        })
    }
}
