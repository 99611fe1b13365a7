//! User-defined function registry and query-parameter bindings.
//!
//! The paper's evaluation relies on two kinds of "complex" expressions whose
//! selectivity a static optimizer cannot see:
//!
//! * **scalar UDFs applied to a column** — `myyear(o_orderdate) = 1998`,
//!   `mysub(p_brand) = "#3"` (TPC-H Q9);
//! * **parameterized values** — `d_moy = myrand(8, 10)` (TPC-DS Q50), where the
//!   actual constant is only known when the query is submitted.
//!
//! A [`UdfRegistry`] holds the executable implementations: *scalar* UDFs map a
//! column value to a value (and can also be used as boolean predicates), and
//! *value functions* compute a constant from literal arguments at bind time —
//! the binder marks any predicate built from them as parameterized, exactly as
//! the paper's static baselines must.

use rdo_common::{RdoError, Result, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A scalar UDF: maps one column value to a value.
pub type ScalarUdf = Arc<dyn Fn(&Value) -> Value + Send + Sync>;

/// A value function: computes a constant from literal arguments at bind time.
pub type ValueFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// The functions a query may call.
#[derive(Clone, Default)]
pub struct UdfRegistry {
    scalar: HashMap<String, ScalarUdf>,
    value_fns: HashMap<String, ValueFn>,
}

impl fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UdfRegistry")
            .field("scalar", &self.scalar_names())
            .field("value_fns", &self.value_fn_names())
            .finish()
    }
}

impl UdfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a scalar UDF (applied to a column value).
    pub fn register_scalar(
        &mut self,
        name: impl Into<String>,
        func: impl Fn(&Value) -> Value + Send + Sync + 'static,
    ) {
        self.scalar
            .insert(name.into().to_lowercase(), Arc::new(func));
    }

    /// Registers a value function (computes a constant from literal arguments).
    pub fn register_value_fn(
        &mut self,
        name: impl Into<String>,
        func: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.value_fns
            .insert(name.into().to_lowercase(), Arc::new(func));
    }

    /// Looks up a scalar UDF (case-insensitive).
    pub fn scalar(&self, name: &str) -> Option<ScalarUdf> {
        self.scalar.get(&name.to_lowercase()).cloned()
    }

    /// Looks up a value function (case-insensitive).
    pub fn value_fn(&self, name: &str) -> Option<ValueFn> {
        self.value_fns.get(&name.to_lowercase()).cloned()
    }

    /// Names of the registered scalar UDFs, sorted.
    pub fn scalar_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.scalar.keys().cloned().collect();
        names.sort();
        names
    }

    /// Names of the registered value functions, sorted.
    pub fn value_fn_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.value_fns.keys().cloned().collect();
        names.sort();
        names
    }
}

/// Named parameter bindings supplied with a query (`$moy = 9`).
#[derive(Debug, Clone, Default)]
pub struct ParamBindings {
    values: HashMap<String, Value>,
}

impl ParamBindings {
    /// Empty bindings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a parameter (builder style).
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.values.insert(name.into(), value.into());
        self
    }

    /// Binds a parameter.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.values.insert(name.into(), value.into());
    }

    /// Resolves a parameter, erroring if it was never bound.
    pub fn get(&self, name: &str) -> Result<Value> {
        self.values
            .get(name)
            .cloned()
            .ok_or_else(|| RdoError::InvalidQuery(format!("unbound query parameter ${name}")))
    }

    /// True if no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_udf_registration_is_case_insensitive() {
        let mut reg = UdfRegistry::new();
        reg.register_scalar("MyYear", |v| Value::Int64(v.as_i64().unwrap_or(0) / 365));
        let f = reg.scalar("myyear").expect("registered");
        assert_eq!(f(&Value::Int64(730)), Value::Int64(2));
        assert!(reg.scalar("missing").is_none());
        assert_eq!(reg.scalar_names(), vec!["myyear".to_string()]);
    }

    #[test]
    fn value_fn_computes_constant() {
        let mut reg = UdfRegistry::new();
        reg.register_value_fn("myrand", |args| {
            // Deterministic "random": midpoint of the range.
            let lo = args[0].as_i64().unwrap_or(0);
            let hi = args.get(1).and_then(|v| v.as_i64()).unwrap_or(lo);
            Ok(Value::Int64((lo + hi) / 2))
        });
        let f = reg.value_fn("MYRAND").expect("registered");
        assert_eq!(
            f(&[Value::Int64(8), Value::Int64(10)]).unwrap(),
            Value::Int64(9)
        );
        assert_eq!(reg.value_fn_names(), vec!["myrand".to_string()]);
    }

    #[test]
    fn param_bindings_resolve_or_error() {
        let params = ParamBindings::new().with("moy", 9i64).with("name", "ASIA");
        assert_eq!(params.get("moy").unwrap(), Value::Int64(9));
        assert_eq!(params.get("name").unwrap(), Value::from("ASIA"));
        assert!(params.get("missing").is_err());
        assert!(!params.is_empty());
        assert!(ParamBindings::new().is_empty());
    }

    #[test]
    fn debug_lists_registered_names() {
        let mut reg = UdfRegistry::new();
        reg.register_scalar("f", |v| v.clone());
        reg.register_value_fn("g", |_| Ok(Value::Null));
        let dbg = format!("{reg:?}");
        assert!(dbg.contains("f") && dbg.contains("g"));
    }

    #[test]
    fn re_registering_a_name_replaces_the_function() {
        let mut reg = UdfRegistry::new();
        reg.register_scalar("f", |_| Value::Int64(1));
        reg.register_scalar("F", |_| Value::Int64(2));
        assert_eq!(reg.scalar_names(), vec!["f".to_string()]);
        assert_eq!(reg.scalar("f").unwrap()(&Value::Null), Value::Int64(2));
    }

    #[test]
    fn scalar_udfs_and_value_functions_are_separate_namespaces() {
        let mut reg = UdfRegistry::new();
        reg.register_scalar("only_scalar", |v| v.clone());
        reg.register_value_fn("only_value", |_| Ok(Value::Int64(0)));
        assert!(reg.value_fn("only_scalar").is_none());
        assert!(reg.scalar("only_value").is_none());
        assert_eq!(reg.value_fn_names(), vec!["only_value".to_string()]);
    }

    #[test]
    fn value_function_errors_reach_the_caller() {
        let mut reg = UdfRegistry::new();
        reg.register_value_fn("needs_args", |args| {
            args.first()
                .cloned()
                .ok_or_else(|| RdoError::InvalidQuery("needs_args takes one argument".into()))
        });
        let f = reg.value_fn("needs_args").unwrap();
        assert!(matches!(f(&[]), Err(RdoError::InvalidQuery(_))));
        assert_eq!(f(&[Value::Int64(4)]).unwrap(), Value::Int64(4));
    }

    #[test]
    fn set_rebinds_a_parameter() {
        let mut params = ParamBindings::new().with("moy", 9i64);
        params.set("moy", 11i64);
        params.set("year", 1998i64);
        assert_eq!(params.get("moy").unwrap(), Value::Int64(11));
        assert_eq!(params.get("year").unwrap(), Value::Int64(1998));
        let err = params.get("day").unwrap_err();
        assert!(err.to_string().contains("$day"), "{err}");
    }
}
