//! # wsdl — service descriptions and a UDDI-style registry
//!
//! §3.3 of the paper: the Virtual Service Repository "will be implemented
//! with WSDL and UDDI" when the VSG protocol is SOAP. This crate provides
//! both halves: [`ServiceDescription`] (a WSDL-like interface + endpoint
//! document) and [`UddiRegistry`] (publish/inquiry with `%` wildcard
//! matching and category bags).
//!
//! A description is written straight to text by a streaming writer
//! ([`ServiceDescription::write_document`], or
//! [`ServiceDescription::to_document`] for a `String`) and read back in
//! one pass over the pull reader ([`read_document`], which hands its
//! caller borrowed parts through a [`DescriptionVisitor`];
//! [`ServiceDescription::from_document`] is the owned build over it).
//! Neither builds an element tree. Inquiries hand out records by
//! reference, and registry [`Key`]s are `Copy` sequence numbers.
//!
//! ```
//! use wsdl::{ServiceDescription, Operation, XsdType, UddiRegistry, KeyedReference};
//!
//! let desc = ServiceDescription::new("lamp", "urn:vsg:lamp")
//!     .at("vsg://x10-gw/lamp")
//!     .operation(Operation::new("switch").input("on", XsdType::Boolean));
//! let doc = desc.to_document();
//! assert_eq!(ServiceDescription::from_document(&doc).unwrap(), desc);
//!
//! let mut reg = UddiRegistry::new();
//! let biz = reg.save_business("x10-gateway", "powerline island");
//! let tm = reg.save_tmodel("lampPortType", &doc);
//! reg.save_service(&biz, "lamp",
//!     vec![KeyedReference::new("uddi:middleware", "x10")],
//!     &desc.endpoint, Some(tm)).unwrap();
//! let found = reg.find_service("l%", &[]);
//! assert_eq!(found.len(), 1);
//! let tm_key = found[0].bindings[0].tmodel_key.as_ref().unwrap();
//! assert_eq!(reg.get_tmodel(tm_key).unwrap().overview_doc, doc);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod description;
pub mod types;
pub mod uddi;

pub use description::{
    read_document, DescriptionError, DescriptionVisitor, Operation, Part, ServiceDescription,
};
pub use types::XsdType;
pub use uddi::{
    matches_pattern, BindingTemplate, BusinessEntity, BusinessService, Key, KeyedReference,
    RegistryStats, Removed, TModel, UddiRegistry,
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
            let text = d.to_document();
            prop_assert_eq!(ServiceDescription::from_document(&text).unwrap(), d);
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
                reg.save_service(&biz, n, vec![], format!("vsg://gw/{n}"), None).unwrap();
            }
            prop_assert_eq!(reg.find_service("%", &[]).len(), names.len());
            for n in &names {
                let hits = reg.find_service(n, &[]);
                prop_assert_eq!(hits.len(), 1, "exact find of {}", n);
            }
        }
    }

    /// Text that needs every escape: printable ASCII, `&<>"'` included.
    fn arb_text(max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                "[ -~]".prop_map(|s: String| s),
                Just("&".to_owned()),
                Just("<".to_owned()),
                Just("\"".to_owned()),
                Just("'".to_owned()),
                Just("é".to_owned()),
            ],
            0..max,
        )
        .prop_map(|parts| parts.concat())
    }

    /// Arbitrary descriptions: names and text needing escapes, no
    /// operations, operations without inputs or without an output.
    fn arb_description() -> impl Strategy<Value = ServiceDescription> {
        let part = || (arb_text(6), arb_type()).prop_map(|(name, ty)| Part::new(name, ty));
        let op = (
            arb_text(8),
            any::<bool>(),
            prop::collection::vec(part(), 0..3),
            prop::option::of(part()),
        )
            .prop_map(|(name, idempotent, inputs, output)| Operation {
                name,
                inputs,
                output,
                idempotent,
            });
        (
            arb_text(10),
            arb_text(10),
            arb_text(12),
            arb_text(12),
            prop::collection::vec(op, 0..4),
        )
            .prop_map(|(name, namespace, documentation, endpoint, operations)| {
                ServiceDescription {
                    name,
                    namespace,
                    operations,
                    endpoint,
                    documentation,
                }
            })
    }

    /// What the tree oracle makes of `doc`: `from_xml` over
    /// `parse_ref`, with an XML error carried as its text.
    fn tree_read(doc: &str) -> Result<ServiceDescription, DescriptionError> {
        match minixml::parse_ref(doc) {
            Ok(tree) => ServiceDescription::from_xml(&tree),
            Err(e) => Err(DescriptionError {
                message: e.to_string(),
            }),
        }
    }

    fn check_read(doc: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            ServiceDescription::from_document(doc),
            tree_read(doc),
            "document {:?}",
            doc
        );
        Ok(())
    }

    /// Tokens spliced into written documents: markup that opens,
    /// closes or duplicates the elements the reader looks for, broken
    /// XML, attributes it reads, escapes, comments and whitespace.
    const INSERTS: &[&str] = &[
        "<",
        ">",
        "/>",
        "\"",
        "<documentation>x &amp; y</documentation>",
        "<documentation> <a/> </documentation>",
        "<documentation><![CDATA[<raw>]]></documentation>",
        "<portType/>",
        "<portType><operation/></portType>",
        "<operation name=\"extra\"><input><part/></input><output/></operation>",
        "<operation><input/></operation>",
        "<wsdl:operation name=\"p\" idempotent=\"tru&#101;\"/>",
        "<input><part name=\"q\" type=\"vendor:blob\"/></input>",
        "<output><part type=\"xsd:int\"/><part name=\"second\"/></output>",
        "<service name=\"s\"><port><address location=\"first\"/></port></service>",
        "<port/>",
        "<soap:address/>",
        " name=\"n\"",
        " location=\"l&amp;m\"",
        " idempotent=\"true\"",
        "<!-- c -->",
        "<?pi?>",
        "text",
        "  \n",
        "&amp;",
        "&",
        "</definitions>",
        "<definitions name=\"inner\">",
    ];

    /// A written document with a few tokens spliced in, a range
    /// deleted, or both, at random character boundaries.
    fn arb_mutated_document() -> impl Strategy<Value = String> {
        (
            arb_description(),
            prop::collection::vec((0..100_000usize, 0..INSERTS.len()), 0..4),
            prop::option::of((0..100_000usize, 0..24usize)),
        )
            .prop_map(|(d, inserts, cut)| {
                let mut doc = d.to_document();
                let boundary = |doc: &str, at: usize| {
                    let mut at = at % (doc.len() + 1);
                    while !doc.is_char_boundary(at) {
                        at -= 1;
                    }
                    at
                };
                for (at, token) in inserts {
                    let at = boundary(&doc, at);
                    doc.insert_str(at, INSERTS[token]);
                }
                if let Some((at, len)) = cut {
                    let from = boundary(&doc, at);
                    let to = boundary(&doc, from + len.min(doc.len() - from));
                    doc.replace_range(from..to.max(from), "");
                }
                doc
            })
    }

    /// Operations as a `portType` may carry them: with and without a
    /// name, repeated or empty `input`/`output`, parts without
    /// attributes, prefixed and misspelled element names.
    const OPERATIONS: &[&str] = &[
        r#"<operation name="op1"><input><part name="a" type="xsd:long"/><part type="xsd:string"/></input><output><part name="r" type="xsd:boolean"/></output></operation>"#,
        r#"<operation name="op2" idempotent="true"/>"#,
        r#"<operation><input/></operation>"#,
        r#"<operation name="op3"><output/><output><part/></output><input><part name="z"/></input><input><part name="y"/></input></operation>"#,
        r#"<x:operation name="op4" idempotent="TRUE"><input><x:part name="p&amp;q" type="vendor:blob"/></input></x:operation>"#,
        r#"<operation name="op5"><output><part name="first"/><part name="second"/></output></operation>"#,
        r#"<operations name="not-one"/>"#,
        "<!-- op -->",
        " text ",
    ];

    /// Children of the root: every singular element the reader looks
    /// for, in variants, plus elements and text it must skip.
    fn arb_child() -> impl Strategy<Value = String> {
        const OTHERS: &[&str] = &[
            "<documentation>doc one</documentation>",
            "<documentation> <b/> two </documentation>",
            "<doc:documentation>three &amp; <![CDATA[<four>]]></doc:documentation>",
            "<documentation/>",
            r#"<service name="s"><port><soap:address location="vsg://gw/a"/></port></service>"#,
            r#"<service><port/><port><address location="second-port"/></port></service>"#,
            r#"<service><port><address/><address location="second-address"/></port></service>"#,
            r#"<service/>"#,
            "<types><schema/></types>",
            "<!-- c -->",
            "text",
            "<![CDATA[x]]>",
        ];
        prop_oneof![
            prop::collection::vec(0..OPERATIONS.len(), 0..4).prop_map(|ops| {
                let ops: String = ops.iter().map(|&i| OPERATIONS[i]).collect();
                format!(r#"<portType name="pt">{ops}</portType>"#)
            }),
            (0..OTHERS.len()).prop_map(|i| OTHERS[i].to_owned()),
        ]
    }

    /// Documents built element by element: roots that are and are not
    /// `definitions`, with and without a name, and children of every
    /// kind, repeated and in any order.
    fn arb_structured_document() -> impl Strategy<Value = String> {
        const ROOTS: &[&str] = &[
            r#"definitions name="s" targetNamespace="urn:s""#,
            r#"wsdl:definitions name="a&amp;b""#,
            r#"definitions targetNamespace="urn:nameless""#,
            r#"definition name="s""#,
        ];
        const TAILS: &[&str] = &["", "<!-- tail -->", " trailing"];
        (
            0..ROOTS.len(),
            prop::collection::vec(arb_child(), 0..6),
            0..TAILS.len(),
        )
            .prop_map(|(root, children, tail)| {
                let open = ROOTS[root];
                let close = open.split(' ').next().unwrap_or(open);
                format!("<{open}>{}</{close}>{}", children.concat(), TAILS[tail])
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn one_pass_read_equals_tree_oracle_on_structured_documents(
            doc in arb_structured_document(),
        ) {
            check_read(&doc)?;
        }

        #[test]
        fn streamed_document_equals_tree_writer(d in arb_description()) {
            let streamed = d.to_document();
            prop_assert_eq!(&streamed, &d.to_xml().to_document());
            let mut measured = minixml::Measure::default();
            d.write_document(&mut measured);
            prop_assert_eq!(measured.0, streamed.len());
            prop_assert_eq!(ServiceDescription::from_document(&streamed).unwrap(), d);
        }

        #[test]
        fn one_pass_read_equals_tree_oracle_on_truncations(d in arb_description(), step in 1..9usize) {
            let doc = d.to_document();
            for end in (0..=doc.len()).step_by(step).filter(|&i| doc.is_char_boundary(i)) {
                check_read(&doc[..end])?;
            }
        }

        #[test]
        fn one_pass_read_equals_tree_oracle_on_mutated_documents(doc in arb_mutated_document()) {
            check_read(&doc)?;
        }

        #[test]
        fn one_pass_read_equals_tree_oracle_on_arbitrary_strings(s in "[ -~\n\u{a0}é]{0,120}") {
            check_read(&s)?;
        }
    }
}
