//! Automatic proxy generation.
//!
//! §4.1: "Automatically we can generate a proxy object, such as client
//! proxy and server proxy, for certain service using the interface of
//! that service. The proxy automatic generation is implemented by
//! Javassist … a load-time reflective system for Java."
//!
//! Rust has no load-time bytecode rewriting; the observable behaviour is
//! preserved instead: given only a [`ServiceInterface`] and a transport
//! target, [`generate`] synthesises a dispatching proxy — a validated
//! thunk per operation — at runtime, charging a Javassist-like
//! per-class/per-method generation cost to the virtual clock.
//! Experiment E2 measures this against a hand-written proxy.

use crate::error::MetaError;
use crate::iface::{OpSig, ServiceInterface};
use crate::service::ServiceInvoker;
use simnet::{Sim, SimDuration};
use soap::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Where a generated proxy forwards validated invocations.
pub type ProxyTarget =
    Arc<dyn Fn(&Sim, &str, &[(String, Value)]) -> Result<Value, MetaError> + Send + Sync>;

/// The cost model for load-time proxy synthesis (Javassist-era numbers:
/// class-file generation is milliseconds, each method adds bytecode).
#[derive(Debug, Clone, Copy)]
pub struct ProxyGenCost {
    /// Fixed cost per generated proxy class.
    pub per_class: SimDuration,
    /// Cost per generated method thunk.
    pub per_method: SimDuration,
    /// Cost per parameter (marshalling glue).
    pub per_param: SimDuration,
}

impl Default for ProxyGenCost {
    fn default() -> Self {
        ProxyGenCost {
            per_class: SimDuration::from_millis(2),
            per_method: SimDuration::from_micros(200),
            per_param: SimDuration::from_micros(40),
        }
    }
}

impl ProxyGenCost {
    /// A free model (isolates dispatch overhead in experiments).
    pub fn free() -> ProxyGenCost {
        ProxyGenCost {
            per_class: SimDuration::ZERO,
            per_method: SimDuration::ZERO,
            per_param: SimDuration::ZERO,
        }
    }

    /// The total generation cost for `interface`.
    pub fn total(&self, interface: &ServiceInterface) -> SimDuration {
        let params: usize = interface.operations.iter().map(|o| o.params.len()).sum();
        self.per_class
            + self.per_method * interface.operations.len() as u64
            + self.per_param * params as u64
    }
}

/// A runtime-synthesised dispatching proxy.
pub struct GeneratedProxy {
    interface_name: String,
    thunks: HashMap<String, OpSig>,
    target: ProxyTarget,
}

/// Synthesises a proxy for `interface` forwarding to `target`, charging
/// generation cost to the virtual clock.
pub fn generate(
    sim: &Sim,
    cost: ProxyGenCost,
    interface: &ServiceInterface,
    target: ProxyTarget,
) -> GeneratedProxy {
    sim.advance(cost.total(interface));
    GeneratedProxy {
        interface_name: interface.name.as_str().to_owned(),
        thunks: interface
            .operations
            .iter()
            .map(|o| (o.name.as_str().to_owned(), o.clone()))
            .collect(),
        target,
    }
}

impl GeneratedProxy {
    /// The interface this proxy was generated for.
    #[cfg(test)]
    fn interface_name(&self) -> &str {
        &self.interface_name
    }

    /// The operations the proxy dispatches.
    pub fn operations(&self) -> Vec<&str> {
        let mut ops: Vec<&str> = self.thunks.keys().map(String::as_str).collect();
        ops.sort();
        ops
    }

    /// Dispatches one invocation: unknown-operation check, argument type
    /// check, then the forwarding thunk.
    pub fn dispatch(
        &self,
        sim: &Sim,
        operation: &str,
        args: &[(String, Value)],
    ) -> Result<Value, MetaError> {
        let sig = self
            .thunks
            .get(operation)
            .ok_or_else(|| MetaError::UnknownOperation {
                service: self.interface_name.clone(),
                operation: operation.to_owned(),
            })?;
        sig.check_args(args)?;
        // Per-call dispatch overhead of generated (reflective) code.
        sim.advance(SimDuration::from_micros(2));
        (self.target)(sim, operation, args)
    }
}

impl ServiceInvoker for GeneratedProxy {
    fn invoke(
        &mut self,
        sim: &Sim,
        operation: &str,
        args: &[(String, Value)],
    ) -> Result<Value, MetaError> {
        self.dispatch(sim, operation, args)
    }
}

impl fmt::Debug for GeneratedProxy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GeneratedProxy")
            .field("interface", &self.interface_name)
            .field("methods", &self.thunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{catalog, TypeTag};

    fn echo_target() -> ProxyTarget {
        Arc::new(|_, op, args| {
            Ok(Value::Record(vec![
                ("op".into(), Value::Str(op.to_owned())),
                ("n".into(), Value::Int(args.len() as i64)),
            ]))
        })
    }

    #[test]
    fn generation_charges_interface_proportional_cost() {
        let sim = Sim::new(1);
        let small = ServiceInterface::new("Small").op(OpSig::new("a"));
        let t0 = sim.now();
        generate(&sim, ProxyGenCost::default(), &small, echo_target());
        let small_cost = sim.now() - t0;

        let big = catalog::vcr(); // 4 ops with params
        let t0 = sim.now();
        generate(&sim, ProxyGenCost::default(), &big, echo_target());
        let big_cost = sim.now() - t0;
        assert!(big_cost > small_cost, "{big_cost} vs {small_cost}");
        assert_eq!(
            ProxyGenCost::default().total(&small),
            SimDuration::from_micros(2_200)
        );
    }

    #[test]
    fn dispatch_validates_and_forwards() {
        let sim = Sim::new(1);
        let proxy = generate(&sim, ProxyGenCost::free(), &catalog::vcr(), echo_target());
        assert_eq!(proxy.interface_name(), "VcrControl");
        assert_eq!(
            proxy.operations(),
            vec!["play", "position", "record", "stop"]
        );

        let ok = proxy
            .dispatch(
                &sim,
                "record",
                &[
                    ("channel".into(), Value::Int(42)),
                    ("title".into(), Value::Str("News".into())),
                ],
            )
            .unwrap();
        assert_eq!(ok.field("op"), Some(&Value::Str("record".into())));

        assert!(matches!(
            proxy.dispatch(&sim, "eject", &[]),
            Err(MetaError::UnknownOperation { .. })
        ));
        assert!(matches!(
            proxy.dispatch(
                &sim,
                "record",
                &[("channel".into(), Value::Str("x".into()))]
            ),
            Err(MetaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn generated_proxy_is_an_invoker() {
        let sim = Sim::new(1);
        let mut proxy = generate(
            &sim,
            ProxyGenCost::free(),
            &ServiceInterface::new("I").op(OpSig::new("go").param("x", TypeTag::Int)),
            echo_target(),
        );
        let got =
            ServiceInvoker::invoke(&mut proxy, &sim, "go", &[("x".into(), Value::Int(1))]).unwrap();
        assert_eq!(got.field("n"), Some(&Value::Int(1)));
    }

    #[test]
    fn target_errors_pass_through() {
        let sim = Sim::new(1);
        let failing: ProxyTarget =
            Arc::new(|_, _, _| Err(MetaError::native("x10", "powerline noise")));
        let proxy = generate(
            &sim,
            ProxyGenCost::free(),
            &ServiceInterface::new("I").op(OpSig::new("go")),
            failing,
        );
        let err = proxy.dispatch(&sim, "go", &[]).unwrap_err();
        assert!(err.to_string().contains("powerline"));
    }
}
