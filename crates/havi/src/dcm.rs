//! Device Control Modules.
//!
//! A DCM represents one physical device on the bus: it owns the device's
//! FCMs, advertises them in the Registry, and re-advertises after a bus
//! reset (HAVi's self-healing behaviour).

use crate::fcm::{Fcm, FcmKind};
use crate::messaging::{HaviError, MessagingSystem};
use crate::registry::{attr, RegistryClient};
use crate::seid::{HaviStatus, Seid};
use simnet::Network;
use std::fmt;

/// A device: its messaging node, control element, and FCMs.
pub struct Dcm {
    ms: MessagingSystem,
    control: Seid,
    guid: u64,
    name: String,
    fcms: Vec<Fcm>,
    registry: Option<Seid>,
}

impl Dcm {
    /// Installs a device with the given FCMs on a fresh node of `net`.
    pub fn install(
        net: &Network,
        name: &str,
        guid: u64,
        fcm_specs: &[(FcmKind, &str)],
        event_manager: Option<Seid>,
    ) -> Dcm {
        let ms = MessagingSystem::attach(net, name);
        let control = ms.register_element(|_, _| (HaviStatus::Success, vec![]));
        let fcms = fcm_specs
            .iter()
            .map(|(kind, fcm_name)| Fcm::install(&ms, *kind, fcm_name, event_manager))
            .collect();
        Dcm {
            ms,
            control,
            guid,
            name: name.to_owned(),
            fcms,
            registry: None,
        }
    }

    /// The device's messaging system.
    pub fn messaging(&self) -> &MessagingSystem {
        &self.ms
    }

    /// The device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The FCM of a given kind, if the device has one.
    pub fn fcm(&self, kind: FcmKind) -> Option<&Fcm> {
        self.fcms.iter().find(|f| f.kind() == kind)
    }

    /// Advertises the DCM and every FCM in the registry at `registry`.
    pub fn announce(&mut self, registry: Seid) -> Result<(), HaviError> {
        let client = RegistryClient::new(&self.ms, self.control.handle, registry);
        let guid = self.guid.to_string();
        client.register(
            self.control,
            &[
                (attr::SE_TYPE, "dcm"),
                (attr::NAME, &self.name),
                (attr::GUID, &guid),
            ],
        )?;
        for fcm in &self.fcms {
            client.register(
                fcm.seid(),
                &[
                    (attr::SE_TYPE, "fcm"),
                    (attr::DEVICE_CLASS, fcm.kind().device_class()),
                    (attr::NAME, fcm.name()),
                    (attr::GUID, &guid),
                ],
            )?;
        }
        self.registry = Some(registry);
        Ok(())
    }

    /// Withdraws all advertisements.
    pub fn withdraw(&mut self) -> Result<(), HaviError> {
        let Some(registry) = self.registry.take() else {
            return Ok(());
        };
        let client = RegistryClient::new(&self.ms, self.control.handle, registry);
        client.unregister(self.control)?;
        for fcm in &self.fcms {
            client.unregister(fcm.seid())?;
        }
        Ok(())
    }

    /// Re-announces after a bus reset (call when the bus comes back).
    pub fn reannounce(&mut self) -> Result<(), HaviError> {
        if let Some(registry) = self.registry {
            self.announce(registry)
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for Dcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dcm")
            .field("name", &self.name)
            .field("guid", &self.guid)
            .field("fcms", &self.fcms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use simnet::Sim;

    fn world() -> (Sim, Network, MessagingSystem, Registry) {
        let sim = Sim::new(1);
        let net = Network::ieee1394(&sim);
        let fav = MessagingSystem::attach(&net, "fav");
        let registry = Registry::start(&fav);
        (sim, net, fav, registry)
    }

    #[test]
    fn install_and_announce_advertises_all_fcms() {
        let (_sim, net, fav, registry) = world();
        let mut camcorder = Dcm::install(
            &net,
            "camcorder",
            0xDEAD_BEEF,
            &[(FcmKind::DvCamera, "dv-camera"), (FcmKind::Vcr, "dv-tape")],
            None,
        );
        camcorder.announce(registry.seid()).unwrap();
        // 1 DCM + 2 FCMs.
        assert_eq!(registry.entry_count(), 3);

        let probe = fav.register_element(|_, _| (HaviStatus::Success, vec![]));
        let client = RegistryClient::new(&fav, probe.handle, registry.seid());
        let cams = client.query(&[(attr::DEVICE_CLASS, "dv-camera")]).unwrap();
        assert_eq!(cams.len(), 1);
        assert_eq!(
            cams[0].attributes.get(attr::GUID).unwrap(),
            &0xDEAD_BEEFu64.to_string()
        );
    }

    #[test]
    fn fcm_lookup_by_kind() {
        let (_sim, net, _fav, _registry) = world();
        let tv = Dcm::install(
            &net,
            "tv",
            1,
            &[(FcmKind::Tuner, "tuner"), (FcmKind::Display, "panel")],
            None,
        );
        assert!(tv.fcm(FcmKind::Tuner).is_some());
        assert!(tv.fcm(FcmKind::Display).is_some());
        assert!(tv.fcm(FcmKind::Vcr).is_none());
    }

    #[test]
    fn withdraw_removes_everything() {
        let (_sim, net, _fav, registry) = world();
        let mut vcr = Dcm::install(&net, "vcr", 2, &[(FcmKind::Vcr, "vcr")], None);
        vcr.announce(registry.seid()).unwrap();
        assert_eq!(registry.entry_count(), 2);
        vcr.withdraw().unwrap();
        assert_eq!(registry.entry_count(), 0);
        // Withdrawing again is a no-op.
        vcr.withdraw().unwrap();
    }

    #[test]
    fn reannounce_after_bus_reset_restores_registry() {
        let (_sim, net, _fav, registry) = world();
        let mut vcr = Dcm::install(&net, "vcr", 3, &[(FcmKind::Vcr, "vcr")], None);
        vcr.announce(registry.seid()).unwrap();
        // A bus reset wipes the registry (new HAVi network instance).
        // Simulate the wipe by withdrawing, then reannounce.
        vcr.withdraw().unwrap();
        assert_eq!(registry.entry_count(), 0);
        vcr.announce(registry.seid()).unwrap();
        vcr.reannounce().unwrap();
        assert_eq!(registry.entry_count(), 2);
    }
}
