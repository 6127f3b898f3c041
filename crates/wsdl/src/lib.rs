//! # wsdl — service descriptions and a UDDI-style registry
//!
//! §3.3 of the paper: the Virtual Service Repository "will be implemented
//! with WSDL and UDDI" when the VSG protocol is SOAP. This crate provides
//! both halves: [`ServiceDescription`] (a WSDL-like interface + endpoint
//! document) and [`UddiRegistry`] (publish/inquiry with `%` wildcard
//! matching and category bags).
//!
//! ```
//! use wsdl::{ServiceDescription, Operation, XsdType, UddiRegistry, KeyedReference};
//!
//! let desc = ServiceDescription::new("lamp", "urn:vsg:lamp")
//!     .at("vsg://x10-gw/lamp")
//!     .operation(Operation::new("switch").input("on", XsdType::Boolean));
//!
//! let mut reg = UddiRegistry::new();
//! let biz = reg.save_business("x10-gateway", "powerline island");
//! let tm = reg.save_tmodel("lampPortType", &desc.to_xml().to_document());
//! reg.save_service(&biz, "lamp",
//!     vec![KeyedReference::new("uddi:middleware", "x10")],
//!     &desc.endpoint, Some(tm)).unwrap();
//! assert_eq!(reg.find_service("l%", &[]).len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod description;
pub mod types;
pub mod uddi;

pub use description::{DescriptionError, Operation, Part, ServiceDescription};
pub use types::XsdType;
pub use uddi::{
    matches_pattern, BindingTemplate, BusinessEntity, BusinessService, Key, KeyedReference,
    RegistryStats, TModel, UddiRegistry,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_type() -> impl Strategy<Value = XsdType> {
        prop_oneof![
            Just(XsdType::String),
            Just(XsdType::Int),
            Just(XsdType::Boolean),
            Just(XsdType::Double),
            Just(XsdType::Base64),
            Just(XsdType::Any),
        ]
    }

    proptest! {
        #[test]
        fn description_round_trips(
            name in "[a-z][a-z0-9-]{0,12}",
            ops in prop::collection::vec(
                ("[a-z][a-zA-Z0-9]{0,10}",
                 prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_type()), 0..4),
                 prop::option::of(arb_type())),
                0..5,
            ),
        ) {
            let mut d = ServiceDescription::new(&name, format!("urn:vsg:{name}"))
                .at(format!("vsg://gw/{name}"));
            for (op_name, inputs, ret) in ops {
                let mut op = Operation::new(op_name);
                for (pn, pt) in inputs {
                    op = op.input(pn, pt);
                }
                if let Some(r) = ret {
                    op = op.returns(r);
                }
                d = d.operation(op);
            }
            let text = d.to_xml().to_document();
            let back = ServiceDescription::from_xml(&minixml::parse_ref(&text).unwrap()).unwrap();
            prop_assert_eq!(back, d);
        }

        #[test]
        fn pattern_literal_matches_itself(s in "[a-zA-Z0-9 -]{0,24}") {
            prop_assert!(matches_pattern(&s, &s));
        }

        #[test]
        fn percent_prefix_suffix_always_match(s in "[a-zA-Z0-9-]{0,16}") {
            let prefix = matches_pattern(&format!("%{}", s), &s);
            let suffix = matches_pattern(&format!("{}%", s), &s);
            let both = matches_pattern(&format!("%{}%", s), &s);
            prop_assert!(prefix && suffix && both);
        }

        #[test]
        fn registry_find_returns_exactly_published_matches(
            names in prop::collection::btree_set("[a-z]{1,8}", 1..12),
        ) {
            let mut reg = UddiRegistry::new();
            let biz = reg.save_business("home", "");
            for n in &names {
                reg.save_service(&biz, n, vec![], &format!("vsg://gw/{n}"), None).unwrap();
            }
            prop_assert_eq!(reg.find_service("%", &[]).len(), names.len());
            for n in &names {
                let hits = reg.find_service(n, &[]);
                prop_assert_eq!(hits.len(), 1, "exact find of {}", n);
            }
        }
    }
}
