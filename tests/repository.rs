//! Repository behaviour pinned end to end: records keyed by their
//! exact name, and the inquiry statistics a lookup leaves behind.

use metaware::{catalog, MetaError, Middleware, VirtualService, Vsr, VsrClient};
use simnet::{Network, Sim};

fn world() -> (Sim, Vsr, VsrClient) {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start(&net);
    let node = net.attach("pcm");
    let client = VsrClient::new(&net, node, vsr.node());
    (sim, vsr, client)
}

fn lamp(name: &str, origin: Middleware, gateway: &str) -> VirtualService {
    VirtualService::new(name, catalog::lamp(), origin, gateway)
}

fn names(records: &[metaware::ServiceRecord]) -> Vec<String> {
    records.iter().map(|r| r.name.to_string()).collect()
}

/// Names are case-sensitive keys: publishing `hall-lamp` must not
/// clobber `Hall-Lamp`'s record, although UDDI inquiry matches the
/// two case-insensitively.
#[test]
fn case_variant_names_keep_their_own_records() {
    let (_sim, vsr, client) = world();
    client
        .publish(&lamp("Hall-Lamp", Middleware::X10, "x10-gw"))
        .unwrap();
    client
        .publish(&lamp("hall-lamp", Middleware::Jini, "jini-gw"))
        .unwrap();
    assert_eq!(client.count().unwrap(), 2);
    assert_eq!(vsr.service_count(), 2);
    assert_eq!(client.resolve("Hall-Lamp").unwrap().gateway, "x10-gw");
    assert_eq!(client.resolve("hall-lamp").unwrap().gateway, "jini-gw");
    assert_eq!(
        names(&client.find("%", None).unwrap()),
        ["Hall-Lamp", "hall-lamp"]
    );
    // Inquiry stays case-insensitive.
    assert_eq!(client.find("HALL-LAMP", None).unwrap().len(), 2);
    assert_eq!(
        names(&client.find("%", Some(Middleware::Jini)).unwrap()),
        ["hall-lamp"]
    );

    // Withdrawing one leaves the other resolvable, in either order.
    assert!(client.unpublish("hall-lamp").unwrap());
    assert_eq!(client.resolve("Hall-Lamp").unwrap().gateway, "x10-gw");
    assert!(matches!(
        client.resolve("hall-lamp"),
        Err(MetaError::UnknownService(_))
    ));
    assert_eq!(names(&client.find("%", None).unwrap()), ["Hall-Lamp"]);
    client
        .publish(&lamp("hall-lamp", Middleware::Jini, "jini-gw"))
        .unwrap();
    assert!(client.unpublish("Hall-Lamp").unwrap());
    assert_eq!(client.resolve("hall-lamp").unwrap().gateway, "jini-gw");
    assert_eq!(names(&client.find("%", None).unwrap()), ["hall-lamp"]);
    assert_eq!(client.count().unwrap(), 1);
}

/// `inquiries` and `records_scanned` after each lookup, with the
/// registry's indexes on and off. The figures are the repository's
/// accounting as E8 and E11 report it: a resolve is one name inquiry
/// plus one tModel fetch, a find one inquiry plus one tModel fetch per
/// hit, and with indexing off every inquiry scans every record.
#[test]
fn lookups_leave_inquiry_statistics_unchanged() {
    let (_sim, vsr, client) = world();
    for (i, name) in [
        "hall-lamp",
        "den-lamp",
        "porch-light",
        "lobby-lamp",
        "attic-fan",
    ]
    .into_iter()
    .enumerate()
    {
        let origin = [Middleware::X10, Middleware::Jini, Middleware::Havi][i % 3];
        let mut service = lamp(name, origin, "gw");
        if i % 2 == 0 {
            service = service.context("room", "hall");
        }
        client.publish(&service).unwrap();
    }
    let mut deltas = Vec::new();
    for indexing in [true, false] {
        vsr.set_indexing(indexing);
        let mut step = |op: &dyn Fn()| {
            let before = vsr.registry_stats();
            op();
            let after = vsr.registry_stats();
            deltas.push((
                after.inquiries - before.inquiries,
                after.records_scanned - before.records_scanned,
            ));
        };
        step(&|| {
            client.resolve("porch-light").unwrap();
        });
        step(&|| {
            client.resolve("ghost").unwrap_err();
        });
        step(&|| {
            assert_eq!(client.find("%", None).unwrap().len(), 5);
        });
        step(&|| {
            assert_eq!(client.find("l%", None).unwrap().len(), 1);
        });
        step(&|| {
            assert_eq!(
                client.find("%lamp", Some(Middleware::X10)).unwrap().len(),
                2
            );
        });
        step(&|| {
            let found = client.find_by_context("%", &[("room", "hall")]).unwrap();
            assert_eq!(found.len(), 3);
        });
        step(&|| {
            assert!(client
                .find_by_context("%", &[("room", "cellar")])
                .unwrap()
                .is_empty());
        });
    }
    assert_eq!(
        deltas,
        [
            // indexing on
            (2, 2),
            (1, 0),
            (6, 10),
            (2, 2),
            (3, 4),
            (4, 6),
            (1, 0),
            // indexing off
            (2, 6),
            (1, 5),
            (6, 10),
            (2, 6),
            (3, 7),
            (4, 8),
            (1, 5),
        ]
    );
}
