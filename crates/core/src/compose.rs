//! The service-composition engine: pipelines as first-class services.
//!
//! The paper stops at 1:1 proxy invocation across middleware islands.
//! This module adds the next rung (DESIGN.md §16): a [`CompositeSpec`]
//! names an ordered list of steps — each a `(service, operation)` with
//! argument [`Binding`]s drawn from prior-step outputs, the composite's
//! own inputs, or literals — and is registered in the VSR like any other
//! service ([`crate::Vsg::register_composite`]). A client invokes the
//! composite with *one* call; the gateway hosting it walks the pipeline
//! gateway-to-gateway over the resilient wire, so a k-step cross-island
//! pipeline costs the client one round trip instead of k.
//!
//! Composites inherit the resilience semantics of single calls:
//!
//! * **Budget carving.** One composite-wide deadline
//!   ([`CompositeSpec::budget`], defaulting to the hosting gateway's
//!   policy deadline) is carved across the remaining steps — step `i`
//!   of `k` gets `remaining / (k - i)` — so an early slow step shrinks
//!   what later steps may spend instead of blowing the whole budget.
//! * **Idempotency-aware retries.** Each step rides
//!   [`crate::Vsg::invoke_with_policy`]: ambiguous losses are re-sent
//!   only for operations declared idempotent, exactly as for direct
//!   invocations — a composite never double-executes a step.
//! * **Compensation.** A step may register a [`CompensationSpec`]; when
//!   a later step fails, the engine invokes the compensators of every
//!   *completed* step in reverse order, exactly once each. The step
//!   that failed is *not* compensated: on an ambiguous loss the engine
//!   cannot know whether it executed (the saga assumption — see
//!   DESIGN.md §16).
//!
//! Every step and every compensation runs under a [`HopKind::Compose`]
//! scope in the caller's trace tree, so its latency lands in the
//! [`crate::obs::Layer::Compose`] sketch of the hosting gateway's
//! metrics registry.

use crate::error::MetaError;
use crate::iface::{OpSig, ServiceInterface, TypeTag};
use crate::trace::HopKind;
use crate::vsg::Vsg;
use minixml::Element;
use simnet::{Sim, SimDuration};
use soap::Value;

/// The service-context key a composite's encoded spec is published
/// under, so the pipeline travels through the VSR with its record. No
/// gateway reads it back: the registering gateway runs the composite.
pub const COMPOSITE_SPEC_CONTEXT: &str = "composite-spec";

/// Where one step argument's value comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// A constant baked into the spec.
    Literal(Value),
    /// A named input of the composite itself.
    Input(String),
    /// The whole output of an earlier step (0-based).
    Step(usize),
    /// A named field of an earlier step's record output.
    StepField(usize, String),
}

/// How to undo a completed step when a later step fails: an operation
/// on the *same* service, with its own bindings. Compensation bindings
/// may reference the compensated step's own output (it completed).
#[derive(Debug, Clone, PartialEq)]
pub struct CompensationSpec {
    /// The undo operation, invoked on the step's service.
    pub operation: String,
    /// Arguments, resolved with the same rules as forward steps.
    pub args: Vec<(String, Binding)>,
}

/// One pipeline step: an operation on a service, with bound arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct StepSpec {
    /// The target service (resolved through the VSR like any call).
    pub service: String,
    /// The operation to invoke.
    pub operation: String,
    /// Named arguments and where their values come from.
    pub args: Vec<(String, Binding)>,
    /// How to undo this step if a later one fails; `None` means the
    /// step needs no undo (or tolerates none).
    pub compensation: Option<CompensationSpec>,
}

impl StepSpec {
    /// A step with no arguments and no compensation.
    pub fn new(service: impl Into<String>, operation: impl Into<String>) -> StepSpec {
        StepSpec {
            service: service.into(),
            operation: operation.into(),
            args: Vec::new(),
            compensation: None,
        }
    }

    /// Binds an argument (builder style).
    pub fn arg(mut self, name: impl Into<String>, binding: Binding) -> StepSpec {
        self.args.push((name.into(), binding));
        self
    }

    /// Registers the undo operation (builder style).
    pub fn compensate(
        mut self,
        operation: impl Into<String>,
        args: Vec<(String, Binding)>,
    ) -> StepSpec {
        self.compensation = Some(CompensationSpec {
            operation: operation.into(),
            args,
        });
        self
    }
}

/// A declarative pipeline, publishable in the VSR as an ordinary
/// service. The derived interface has one operation
/// ([`CompositeSpec::operation`]) taking [`CompositeSpec::inputs`] and
/// returning the last step's output as [`TypeTag::Any`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeSpec {
    /// The composite's service name in the VSR.
    pub name: String,
    /// The single exported operation's name (default `run`).
    pub operation: String,
    /// Named, typed inputs the caller must supply.
    pub inputs: Vec<(String, TypeTag)>,
    /// The pipeline, executed in order.
    pub steps: Vec<StepSpec>,
    /// End-to-end virtual-time budget carved across steps; `None`
    /// borrows the hosting gateway's policy deadline at execution time.
    pub budget: Option<SimDuration>,
}

impl CompositeSpec {
    /// An empty composite exporting operation `run`.
    pub fn new(name: impl Into<String>) -> CompositeSpec {
        CompositeSpec {
            name: name.into(),
            operation: "run".into(),
            inputs: Vec::new(),
            steps: Vec::new(),
            budget: None,
        }
    }

    /// Renames the exported operation (builder style).
    pub fn operation(mut self, op: impl Into<String>) -> CompositeSpec {
        self.operation = op.into();
        self
    }

    /// Declares a caller-supplied input (builder style).
    pub fn input(mut self, name: impl Into<String>, ty: TypeTag) -> CompositeSpec {
        self.inputs.push((name.into(), ty));
        self
    }

    /// Appends a pipeline step (builder style).
    pub fn step(mut self, step: StepSpec) -> CompositeSpec {
        self.steps.push(step);
        self
    }

    /// Sets the composite-wide deadline (builder style).
    pub fn budget(mut self, budget: SimDuration) -> CompositeSpec {
        self.budget = Some(budget);
        self
    }

    /// The derived single-operation interface the composite publishes.
    /// Never idempotent: the engine cannot know whether re-running the
    /// whole pipeline is safe, so ambiguous losses must not re-send it.
    pub fn interface(&self) -> ServiceInterface {
        let mut sig = OpSig::new(&self.operation).returns(TypeTag::Any);
        for (name, ty) in &self.inputs {
            sig = sig.param(name.clone(), *ty);
        }
        ServiceInterface::new(format!("Composite:{}", self.name)).op(sig)
    }

    /// Structural validation, run at registration time: at least one
    /// step, every binding references a declared input or an *earlier*
    /// step, and no step names the composite itself (the one cycle the
    /// spec can see statically; deeper cycles are caught at execution
    /// by the gateway's re-entrancy guard).
    pub fn validate(&self) -> Result<(), MetaError> {
        let fail = |detail: String| {
            Err(MetaError::Native {
                middleware: "composite".into(),
                detail,
            })
        };
        if self.steps.is_empty() {
            return fail(format!("composite '{}' has no steps", self.name));
        }
        for (i, step) in self.steps.iter().enumerate() {
            if step.service == self.name {
                return fail(format!(
                    "composite '{}' step {i} invokes the composite itself",
                    self.name
                ));
            }
            for (arg, binding) in &step.args {
                self.check_binding(binding, i, &format!("step {i} arg '{arg}'"))?;
            }
            if let Some(comp) = &step.compensation {
                for (arg, binding) in &comp.args {
                    // A compensator runs only after its step completed,
                    // so it may bind the step's own output too.
                    self.check_binding(binding, i + 1, &format!("step {i} compensation '{arg}'"))?;
                }
            }
        }
        Ok(())
    }

    /// `limit` is the first step index the binding may *not* reference.
    fn check_binding(&self, binding: &Binding, limit: usize, at: &str) -> Result<(), MetaError> {
        let fail = |detail: String| {
            Err(MetaError::Native {
                middleware: "composite".into(),
                detail,
            })
        };
        match binding {
            Binding::Literal(_) => Ok(()),
            Binding::Input(name) => {
                if self.inputs.iter().any(|(n, _)| n == name) {
                    Ok(())
                } else {
                    fail(format!(
                        "composite '{}' {at} binds undeclared input '{name}'",
                        self.name
                    ))
                }
            }
            Binding::Step(j) | Binding::StepField(j, _) => {
                if *j < limit {
                    Ok(())
                } else {
                    fail(format!(
                        "composite '{}' {at} binds step {j}, not yet executed",
                        self.name
                    ))
                }
            }
        }
    }

    // ---- wire form (rides the VSR record's service contexts) -----------

    /// Encodes the spec as a standalone XML document.
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("composite")
            .attr("name", &self.name)
            .attr("operation", &self.operation);
        if let Some(b) = self.budget {
            root = root.attr("budget-us", b.as_micros().to_string());
        }
        for (name, ty) in &self.inputs {
            root.push(
                Element::new("input")
                    .attr("name", name)
                    .attr("type", ty.to_string()),
            );
        }
        for step in &self.steps {
            let mut el = Element::new("step")
                .attr("service", &step.service)
                .attr("operation", &step.operation)
                .children(step.args.iter().map(|(n, b)| arg_to_xml(n, b)));
            if let Some(comp) = &step.compensation {
                el.push(
                    Element::new("compensate")
                        .attr("operation", &comp.operation)
                        .children(comp.args.iter().map(|(n, b)| arg_to_xml(n, b))),
                );
            }
            root.push(el);
        }
        root.to_document()
    }
}

fn arg_to_xml(name: &str, binding: &Binding) -> Element {
    let el = Element::new("arg").attr("name", name);
    match binding {
        Binding::Literal(v) => el.child(value_to_xml(v)),
        Binding::Input(input) => el.child(Element::new("in").attr("name", input)),
        Binding::Step(i) => el.child(Element::new("out").attr("step", i.to_string())),
        Binding::StepField(i, field) => el.child(
            Element::new("out")
                .attr("step", i.to_string())
                .attr("field", field),
        ),
    }
}

/// Recursive [`Value`] encoding: `<v t="...">` with text content for
/// scalars (bytes as hex), `<v>` children for lists, and `<f n="...">`
/// field wrappers for records.
fn value_to_xml(v: &Value) -> Element {
    match v {
        Value::Null => Element::new("v").attr("t", "null"),
        Value::Bool(b) => Element::new("v").attr("t", "bool").text(b.to_string()),
        Value::Int(i) => Element::new("v").attr("t", "int").text(i.to_string()),
        // `{:?}` prints round-trippable f64 (shortest form that parses
        // back exactly), where `{}` would drop the ".0" on integers.
        Value::Float(x) => Element::new("v").attr("t", "float").text(format!("{x:?}")),
        Value::Str(s) => Element::new("v").attr("t", "str").text(s),
        Value::Bytes(b) => {
            let mut hex = String::with_capacity(b.len() * 2);
            for byte in b {
                hex.push_str(&format!("{byte:02x}"));
            }
            Element::new("v").attr("t", "bytes").text(hex)
        }
        Value::List(items) => Element::new("v")
            .attr("t", "list")
            .children(items.iter().map(value_to_xml)),
        Value::Record(fields) => Element::new("v").attr("t", "rec").children(
            fields
                .iter()
                .map(|(k, v)| Element::new("f").attr("n", k).child(value_to_xml(v))),
        ),
    }
}

/// What one composite execution did, reported alongside the result so
/// callers (and the metrics registry) can account for partial failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComposeOutcome {
    /// Steps that completed (the engine saw their response).
    pub steps_completed: usize,
    /// Compensators the engine invoked and that returned success.
    pub compensations_run: usize,
    /// Compensators the engine invoked that themselves failed (the
    /// engine continues down the stack regardless — a broken undo must
    /// not strand the undos beneath it).
    pub compensations_failed: usize,
}

/// Resolves one binding against the composite's inputs and the outputs
/// of completed steps.
fn resolve_binding(
    spec_name: &str,
    binding: &Binding,
    inputs: &[(String, Value)],
    outputs: &[Value],
) -> Result<Value, MetaError> {
    let fail = |detail: String| {
        Err(MetaError::Native {
            middleware: "composite".into(),
            detail,
        })
    };
    match binding {
        Binding::Literal(v) => Ok(v.clone()),
        Binding::Input(name) => match inputs.iter().find(|(k, _)| k == name) {
            Some((_, v)) => Ok(v.clone()),
            None => fail(format!("composite '{spec_name}' missing input '{name}'")),
        },
        Binding::Step(i) => match outputs.get(*i) {
            Some(v) => Ok(v.clone()),
            None => fail(format!(
                "composite '{spec_name}' step {i} output unavailable"
            )),
        },
        Binding::StepField(i, field) => match outputs.get(*i) {
            Some(v) => match v.field(field) {
                Some(f) => Ok(f.clone()),
                None => fail(format!(
                    "composite '{spec_name}' step {i} output has no field '{field}'"
                )),
            },
            None => fail(format!(
                "composite '{spec_name}' step {i} output unavailable"
            )),
        },
    }
}

/// Runs `spec` on the gateway `vsg`, which should be the gateway
/// hosting the composite (steps ride *its* wire, not the client's).
/// Returns the final step's output and the execution outcome; on step
/// failure, compensators of completed steps have already run (reverse
/// order, once each) by the time the error is returned.
pub fn execute(
    vsg: &Vsg,
    spec: &CompositeSpec,
    sim: &Sim,
    args: &[(String, Value)],
) -> (Result<Value, MetaError>, ComposeOutcome) {
    let base = vsg.resilience();
    let budget = spec.budget.unwrap_or(base.deadline);
    let started = sim.now();
    let k = spec.steps.len();
    let mut outputs: Vec<Value> = Vec::with_capacity(k);
    let mut outcome = ComposeOutcome::default();

    for (i, step) in spec.steps.iter().enumerate() {
        let scope = vsg.scope(sim, HopKind::Compose, || {
            format!("step {i}/{k}: {}.{}", step.service, step.operation)
        });
        let result = (|| {
            let spent = sim.now().since(started);
            if spent >= budget {
                return Err(MetaError::DeadlineExceeded {
                    service: spec.name.clone(),
                    waited_ms: spent.as_millis(),
                });
            }
            // Carve the remaining budget evenly over the remaining
            // steps: an early slow step eats into later steps' shares,
            // never into more than its own carve at once.
            let remaining = budget.as_micros() - spent.as_micros();
            let carve = SimDuration::from_micros(remaining / (k - i) as u64);
            let policy = crate::resilience::ResiliencePolicy {
                deadline: carve,
                ..base.clone()
            };
            let mut step_args = Vec::with_capacity(step.args.len());
            for (name, binding) in &step.args {
                step_args.push((
                    name.clone(),
                    resolve_binding(&spec.name, binding, args, &outputs)?,
                ));
            }
            vsg.invoke_with_policy(sim, &step.service, &step.operation, &step_args, &policy)
        })();
        scope.finish(&result);
        match result {
            Ok(v) => {
                outputs.push(v);
                outcome.steps_completed += 1;
            }
            Err(e) => {
                compensate(vsg, spec, sim, args, &outputs, &base, &mut outcome);
                vsg.metrics().record_compose(&outcome, true);
                return (Err(e), outcome);
            }
        }
    }
    let result = outputs.pop().unwrap_or(Value::Null);
    vsg.metrics().record_compose(&outcome, false);
    (Ok(result), outcome)
}

/// Invokes the compensators of every completed step, newest first,
/// exactly once each. Steps without a [`CompensationSpec`] are skipped;
/// a failing compensator is counted and the walk continues beneath it.
fn compensate(
    vsg: &Vsg,
    spec: &CompositeSpec,
    sim: &Sim,
    args: &[(String, Value)],
    outputs: &[Value],
    base: &crate::resilience::ResiliencePolicy,
    outcome: &mut ComposeOutcome,
) {
    for i in (0..outputs.len()).rev() {
        let step = &spec.steps[i];
        let Some(comp) = &step.compensation else {
            continue;
        };
        let scope = vsg.scope(sim, HopKind::Compose, || {
            format!("compensate step {i}: {}.{}", step.service, comp.operation)
        });
        let result = (|| {
            let mut comp_args = Vec::with_capacity(comp.args.len());
            for (name, binding) in &comp.args {
                comp_args.push((
                    name.clone(),
                    resolve_binding(&spec.name, binding, args, outputs)?,
                ));
            }
            // Compensation runs on the full base policy, not a carve:
            // the pipeline already failed, and an un-run undo costs
            // more than the extra wait.
            vsg.invoke_with_policy(sim, &step.service, &comp.operation, &comp_args, base)
        })();
        scope.finish(&result);
        match result {
            Ok(_) => outcome.compensations_run += 1,
            Err(_) => outcome.compensations_failed += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CompositeSpec {
        CompositeSpec::new("evening-scene")
            .operation("run")
            .input("chapter", TypeTag::Int)
            .budget(SimDuration::from_millis(750))
            .step(
                StepSpec::new("hall-motion", "state")
                    .compensate("state", vec![("why".into(), Binding::Step(0))]),
            )
            .step(
                StepSpec::new("laserdisc", "play")
                    .arg("chapter", Binding::Input("chapter".into()))
                    .arg("seen", Binding::Step(0))
                    .compensate("stop", vec![]),
            )
            .step(
                StepSpec::new("tv-display", "show")
                    .arg(
                        "text",
                        Binding::Literal(Value::Str("now <playing> & \"more\"".into())),
                    )
                    .arg("detail", Binding::StepField(1, "title".into())),
            )
    }

    /// The spec text a composite's VSR record carries, byte for byte:
    /// every binding kind, a compensator with and one without
    /// arguments, a budget, and literal text that must be escaped.
    #[test]
    fn spec_xml_matches_golden() {
        let golden = concat!(
            r#"<?xml version="1.0" encoding="UTF-8"?>"#,
            r#"<composite name="evening-scene" operation="run" budget-us="750000">"#,
            r#"<input name="chapter" type="int"/>"#,
            r#"<step service="hall-motion" operation="state">"#,
            r#"<compensate operation="state"><arg name="why"><out step="0"/></arg></compensate>"#,
            r#"</step>"#,
            r#"<step service="laserdisc" operation="play">"#,
            r#"<arg name="chapter"><in name="chapter"/></arg>"#,
            r#"<arg name="seen"><out step="0"/></arg>"#,
            r#"<compensate operation="stop"/>"#,
            r#"</step>"#,
            r#"<step service="tv-display" operation="show">"#,
            r#"<arg name="text"><v t="str">now &lt;playing&gt; &amp; "more"</v></arg>"#,
            r#"<arg name="detail"><out step="1" field="title"/></arg>"#,
            r#"</step>"#,
            r#"</composite>"#,
        );
        assert_eq!(sample_spec().to_xml(), golden);
    }

    #[test]
    fn values_encode_as_tagged_elements() {
        for (v, xml) in [
            (Value::Null, r#"<v t="null"/>"#),
            (Value::Bool(true), r#"<v t="bool">true</v>"#),
            (Value::Int(-42), r#"<v t="int">-42</v>"#),
            (Value::Float(2.5), r#"<v t="float">2.5</v>"#),
            (Value::Float(3.0), r#"<v t="float">3.0</v>"#),
            (
                Value::Str("hello <world> & \"more\"".into()),
                r#"<v t="str">hello &lt;world&gt; &amp; "more"</v>"#,
            ),
            (Value::Bytes(vec![0, 255, 16]), r#"<v t="bytes">00ff10</v>"#),
            (
                Value::List(vec![Value::Int(1), Value::Str("two".into())]),
                r#"<v t="list"><v t="int">1</v><v t="str">two</v></v>"#,
            ),
            (
                Value::Record(vec![
                    ("a".into(), Value::Int(1)),
                    ("nested".into(), Value::List(vec![Value::Null])),
                ]),
                concat!(
                    r#"<v t="rec"><f n="a"><v t="int">1</v></f>"#,
                    r#"<f n="nested"><v t="list"><v t="null"/></v></f></v>"#,
                ),
            ),
        ] {
            assert_eq!(value_to_xml(&v).to_xml(), xml, "{v:?}");
        }
    }

    #[test]
    fn validate_accepts_well_formed_specs() {
        sample_spec().validate().expect("valid");
    }

    #[test]
    fn validate_rejects_empty_forward_and_self_references() {
        assert!(CompositeSpec::new("empty").validate().is_err());
        // Step 0 referencing step 0's output: not yet executed.
        let fwd =
            CompositeSpec::new("fwd").step(StepSpec::new("a", "op").arg("x", Binding::Step(0)));
        assert!(fwd.validate().is_err());
        // Step referencing a later step.
        let later = CompositeSpec::new("later")
            .step(StepSpec::new("a", "op").arg("x", Binding::Step(1)))
            .step(StepSpec::new("b", "op"));
        assert!(later.validate().is_err());
        // Undeclared input.
        let input = CompositeSpec::new("inp")
            .step(StepSpec::new("a", "op").arg("x", Binding::Input("ghost".into())));
        assert!(input.validate().is_err());
        // Self-invocation.
        let own = CompositeSpec::new("own").step(StepSpec::new("own", "run"));
        assert!(own.validate().is_err());
        // A compensation may bind its own step's output...
        let comp_ok = CompositeSpec::new("c").step(
            StepSpec::new("a", "op").compensate("undo", vec![("token".into(), Binding::Step(0))]),
        );
        comp_ok.validate().expect("own output is bound post-step");
        // ...but not a later step's.
        let comp_bad = CompositeSpec::new("c")
            .step(
                StepSpec::new("a", "op")
                    .compensate("undo", vec![("token".into(), Binding::Step(1))]),
            )
            .step(StepSpec::new("b", "op"));
        assert!(comp_bad.validate().is_err());
    }

    #[test]
    fn derived_interface_is_single_non_idempotent_op() {
        let iface = sample_spec().interface();
        assert_eq!(iface.operations.len(), 1);
        let sig = iface.find("run").expect("run op");
        assert!(!sig.idempotent, "composites must never auto-retry whole");
        assert_eq!(sig.params, vec![("chapter".into(), TypeTag::Int)]);
        assert_eq!(sig.returns, Some(TypeTag::Any));
    }

    #[test]
    fn binding_resolution() {
        let inputs = vec![("chapter".into(), Value::Int(4))];
        let outputs = vec![
            Value::Bool(true),
            Value::Record(vec![("title".into(), Value::Str("dune".into()))]),
        ];
        let get = |b: &Binding| resolve_binding("t", b, &inputs, &outputs);
        assert_eq!(
            get(&Binding::Literal(Value::Int(9))).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            get(&Binding::Input("chapter".into())).unwrap(),
            Value::Int(4)
        );
        assert_eq!(get(&Binding::Step(0)).unwrap(), Value::Bool(true));
        assert_eq!(
            get(&Binding::StepField(1, "title".into())).unwrap(),
            Value::Str("dune".into())
        );
        assert!(get(&Binding::Input("ghost".into())).is_err());
        assert!(get(&Binding::Step(7)).is_err());
        assert!(get(&Binding::StepField(0, "nope".into())).is_err());
    }
}
