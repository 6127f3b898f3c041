//! The join manager (`net.jini.lookup.JoinManager`).
//!
//! Jini's standard helper for well-behaved services: it registers a
//! service item with the lookup service, renews the lease on a schedule,
//! and re-registers from scratch if the registration is ever lost (a
//! registrar restart, a missed renewal window). Devices built on it
//! survive the failures that `crate::lease` makes realistic.

use crate::lookup::{RegistrarClient, ServiceItem, ServiceRegistration};
use crate::rmi::JiniError;
use parking_lot::Mutex;
use simnet::{Network, SimDuration};
use std::sync::Arc;

/// Counters describing the join manager's lifetime behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Successful lease renewals.
    pub renewals: u64,
    /// Full re-registrations (after a lost lease).
    pub reregistrations: u64,
}

struct JoinState {
    registration: Option<ServiceRegistration>,
    stats: JoinStats,
}

/// Keeps one service item registered, forever.
pub struct JoinManager {
    state: Arc<Mutex<JoinState>>,
}

impl JoinManager {
    /// Registers `item` through `client` with leases of `lease` duration,
    /// maintaining the registration every `lease / 2` of virtual time.
    pub fn start(
        net: &Network,
        client: RegistrarClient,
        item: ServiceItem,
        lease: SimDuration,
    ) -> Result<JoinManager, JiniError> {
        let registration = client.register(&item, lease)?;
        let state = Arc::new(Mutex::new(JoinState {
            registration: Some(registration),
            stats: JoinStats::default(),
        }));

        let state2 = state.clone();
        let period = lease / 2;
        net.sim()
            .every(period.max(SimDuration::from_millis(1)), move |_| {
                let current = state2.lock().registration;
                let Some(reg) = current else { return };
                match client.renew(reg.lease.id, lease) {
                    Ok(renewed) => {
                        let mut st = state2.lock();
                        st.stats.renewals += 1;
                        st.registration = Some(ServiceRegistration {
                            service_id: reg.service_id,
                            lease: renewed,
                        });
                    }
                    Err(_) => {
                        // Lost (expired lease, registrar wiped): rejoin with
                        // the same service id so clients keep working.
                        let mut fresh = item.clone();
                        fresh.service_id = reg.service_id;
                        if let Ok(new_reg) = client.register(&fresh, lease) {
                            let mut st = state2.lock();
                            st.stats.reregistrations += 1;
                            st.registration = Some(new_reg);
                        }
                    }
                }
            });
        Ok(JoinManager { state })
    }

    /// The current registration, if live.
    pub fn registration(&self) -> Option<ServiceRegistration> {
        self.state.lock().registration
    }

    /// Renewal/re-registration counters.
    pub fn stats(&self) -> JoinStats {
        self.state.lock().stats
    }
}

impl std::fmt::Debug for JoinManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinManager")
            .field("registered", &self.registration().is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::discover;
    use crate::entry::{Entry, ServiceTemplate};
    use crate::jvalue::JValue;
    use crate::lookup::LookupService;
    use crate::rmi::RmiExporter;
    use simnet::Sim;

    fn world() -> (Sim, Network, LookupService, RegistrarClient, ServiceItem) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let reggie = LookupService::start(&net, "reggie", &["public"], SimDuration::from_secs(5));
        let exporter = RmiExporter::attach(&net, "device");
        let stub = exporter.export("Vcr", |_, _, _| Ok(JValue::Null));
        let item = ServiceItem::new(stub, vec!["Vcr".into()], vec![Entry::name("vcr")]);
        let node = net.attach("joiner");
        let registrars = discover(&net, node, "public");
        let client = RegistrarClient::new(&net, node, registrars[0]);
        (sim, net, reggie, client, item)
    }

    #[test]
    fn join_manager_keeps_service_alive_indefinitely() {
        let (sim, net, reggie, client, item) = world();
        let jm =
            JoinManager::start(&net, client.clone(), item, SimDuration::from_secs(30)).unwrap();
        // Far beyond the 30 s lease, the service is still registered.
        sim.run_for(SimDuration::from_secs(600));
        assert_eq!(reggie.registered_count(), 1);
        assert!(jm.stats().renewals >= 30);
        assert_eq!(jm.stats().reregistrations, 0);
        assert!(client
            .lookup_one(&ServiceTemplate::by_interface("Vcr"))
            .is_ok());
    }

    #[test]
    fn join_manager_recovers_from_cancelled_lease() {
        let (sim, net, reggie, client, item) = world();
        let jm =
            JoinManager::start(&net, client.clone(), item, SimDuration::from_secs(30)).unwrap();
        // Somebody cancels the lease out from under the manager (a
        // registrar wipe, administratively removed).
        let reg = jm.registration().unwrap();
        client.cancel(reg.lease.id).unwrap();
        assert_eq!(reggie.registered_count(), 0);

        sim.run_for(SimDuration::from_secs(60));
        assert_eq!(reggie.registered_count(), 1, "rejoined");
        assert!(jm.stats().reregistrations >= 1);
        // The same service id survived the rejoin.
        let found = client
            .lookup_one(&ServiceTemplate::by_interface("Vcr"))
            .unwrap();
        assert_eq!(found.service_id, reg.service_id);
    }
}
