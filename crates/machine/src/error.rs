//! Typed simulation failures: [`Machine::new`](crate::Machine::new)
//! returns a [`ConfigError`] for an inconsistent machine,
//! [`Machine::run`](crate::Machine::run) returns a [`SimError`], and
//! [`SimError::raise`] is the one place a failure becomes a panic.

use std::fmt;

use crate::json;

/// Why a machine could not be built: its configuration and its
/// [`MachineSpec`](crate::MachineSpec) disagree about the machine's size,
/// or the configuration asks for an observation it cannot make.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `MachineConfig::nodes` differs from the topology's node count.
    TopologyNodes {
        /// Configured node count.
        nodes: usize,
        /// The topology's shape (`Topo::shape`).
        topology: String,
        /// The topology's node count.
        topology_nodes: usize,
    },
    /// The initial values do not cover the heap word for word.
    InitialValues {
        /// Initial values supplied.
        values: usize,
        /// Words in the heap.
        heap_words: usize,
    },
    /// The program count differs from the node count.
    Programs {
        /// Programs supplied.
        programs: usize,
        /// Configured node count.
        nodes: usize,
    },
    /// The heap was laid out for a different node count.
    HeapNodes {
        /// Nodes the heap homes lines on.
        heap_nodes: usize,
        /// Configured node count.
        nodes: usize,
    },
    /// A prepared workload was partitioned for a different node count.
    PreparedNodes {
        /// Nodes the workload was prepared for.
        prepared_nodes: usize,
        /// Configured node count.
        nodes: usize,
    },
    /// `ObserveConfig::epoch_cycles` is zero: the metrics series would
    /// never advance.
    ObserveEpoch,
    /// `ObserveConfig::sparse_threshold` is zero: no node or link could
    /// be sampled.
    SparseThreshold,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TopologyNodes {
                nodes,
                topology,
                topology_nodes,
            } => write!(
                f,
                "machine configured with {nodes} nodes but its network is a \
                 {topology} with {topology_nodes} nodes"
            ),
            ConfigError::InitialValues { values, heap_words } => write!(
                f,
                "{values} initial values for a heap of {heap_words} words"
            ),
            ConfigError::Programs { programs, nodes } => {
                write!(f, "{programs} programs for {nodes} nodes (one per node)")
            }
            ConfigError::HeapNodes { heap_nodes, nodes } => {
                write!(
                    f,
                    "heap laid out for {heap_nodes} nodes on a {nodes}-node machine"
                )
            }
            ConfigError::PreparedNodes {
                prepared_nodes,
                nodes,
            } => write!(
                f,
                "workload prepared for {prepared_nodes} nodes on a {nodes}-node machine"
            ),
            ConfigError::ObserveEpoch => write!(f, "observe epoch must be positive"),
            ConfigError::SparseThreshold => write!(f, "sparse threshold must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why a machine run failed. Each payload string is the text after the
/// variant's marker (`deadlock: `, `PROTOCOL-INVARIANT `, `SC-ORACLE `) in
/// the [`Display`](fmt::Display) rendering, the stable, grep-able message
/// stored in quarantine notes and sent to sweep clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while programs were still blocked (an
    /// application deadlock).
    Deadlock {
        /// Ids of the nodes whose programs had not retired, ascending.
        blocked: Vec<usize>,
        /// Each blocked node's status, the outstanding misses, live
        /// tokens and barrier state.
        detail: String,
    },
    /// A protocol invariant or message-conservation check failed (check
    /// mode only).
    Invariant(String),
    /// The sequential-consistency oracle rejected the applied access
    /// stream (check mode with the oracle on).
    Oracle(String),
    /// [`MachineConfig::inject_panic`](crate::MachineConfig::inject_panic)
    /// was set, so the run failed before simulating anything.
    InjectedFault,
    /// The machine could not be built (see [`ConfigError`]).
    Config(ConfigError),
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

impl SimError {
    /// Short machine-readable class: `deadlock`, `invariant`, `oracle`,
    /// `injected-fault` or `config`.
    pub fn class(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::Invariant(_) => "invariant",
            SimError::Oracle(_) => "oracle",
            SimError::InjectedFault => "injected-fault",
            SimError::Config(_) => "config",
        }
    }

    /// Panics with the one-line `CHECK-FAIL {"class":…,"detail":…}`
    /// summary, where `detail` is the [`Display`](fmt::Display) rendering:
    /// the line `repro --check` reports and CI greps for. For callers
    /// whose signature has no room for the error.
    pub fn raise(self) -> ! {
        let mut line = String::from("CHECK-FAIL ");
        json::object(&mut line, |o| {
            o.field("class", self.class())
                .field("detail", self.to_string());
        });
        panic!("{line}");
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { detail, .. } => write!(f, "deadlock: {detail}"),
            SimError::Invariant(text) => write!(f, "PROTOCOL-INVARIANT {text}"),
            SimError::Oracle(text) => write!(f, "SC-ORACLE {text}"),
            SimError::InjectedFault => f.write_str(
                "INJECTED-FAULT: deliberate panic requested by MachineConfig::inject_panic",
            ),
            SimError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Renders a caught panic payload (panics carry `&str` or `String` in
/// practice; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raised(e: SimError) -> String {
        let payload = std::panic::catch_unwind(|| e.raise()).unwrap_err();
        panic_message(payload.as_ref())
    }

    #[test]
    fn raise_prints_one_check_fail_line_per_class() {
        let cases = [
            (
                SimError::Deadlock {
                    blocked: vec![0],
                    detail: "nodes blocked with no pending events: [\"0:BlockedMsg\"]".into(),
                },
                r#"CHECK-FAIL {"class":"deadlock","detail":"deadlock: nodes blocked with no pending events: [\"0:BlockedMsg\"]"}"#,
            ),
            (
                SimError::Invariant("violated: packet record 3 consumed twice".into()),
                r#"CHECK-FAIL {"class":"invariant","detail":"PROTOCOL-INVARIANT violated: packet record 3 consumed twice"}"#,
            ),
            (
                SimError::Oracle("violated: load\tsaw 2\nwanted 1".into()),
                r#"CHECK-FAIL {"class":"oracle","detail":"SC-ORACLE violated: load\tsaw 2\nwanted 1"}"#,
            ),
            (
                SimError::InjectedFault,
                r#"CHECK-FAIL {"class":"injected-fault","detail":"INJECTED-FAULT: deliberate panic requested by MachineConfig::inject_panic"}"#,
            ),
            (
                ConfigError::Programs {
                    programs: 3,
                    nodes: 4,
                }
                .into(),
                r#"CHECK-FAIL {"class":"config","detail":"config: 3 programs for 4 nodes (one per node)"}"#,
            ),
        ];
        for (e, want) in cases {
            let line = raised(e);
            assert_eq!(line, want);
            assert_eq!(line.lines().count(), 1);
        }
    }

    #[test]
    fn payloads_extract() {
        let b: Box<dyn std::any::Any + Send> = Box::new("static");
        assert_eq!(panic_message(b.as_ref()), "static");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(b.as_ref()), "owned");
        let b: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(b.as_ref()), "non-string panic payload");
    }
}
