//! Crossbar netlists: which output currents drive which input branches.
//!
//! Electrical rules enforced here mirror the current-mode design of the
//! prototype (paper §III-A):
//!
//! * **Summation is free**: any number of outputs may join one input branch
//!   (currents add when branches join).
//! * **Copying is not**: one output current can feed only *one* input branch.
//!   Replicating a variable requires routing it through a fanout block's
//!   current mirror — exactly why the prototype pairs every integrator with
//!   two fanouts.
//! * **Algebraic loops are forbidden**: every feedback cycle must pass
//!   through an integrator; a memoryless cycle has no settling behaviour the
//!   engine (or the real crossbar) could honour.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::AnalogError;
use crate::units::{ResourceInventory, UnitId};

/// An output port of a functional unit (a current source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OutputPort {
    /// The unit producing the current.
    pub unit: UnitId,
    /// Port index within the unit (fanouts have several branches).
    pub port: usize,
}

/// An input port of a functional unit (a current sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputPort {
    /// The unit consuming the current.
    pub unit: UnitId,
    /// Port index within the unit (multipliers have two inputs).
    pub port: usize,
}

impl OutputPort {
    /// Port 0 of `unit`.
    pub fn of(unit: UnitId) -> Self {
        OutputPort { unit, port: 0 }
    }
}

impl InputPort {
    /// Port 0 of `unit`.
    pub fn of(unit: UnitId) -> Self {
        InputPort { unit, port: 0 }
    }
}

impl fmt::Display for OutputPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.out{}", self.unit, self.port)
    }
}

impl fmt::Display for InputPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.in{}", self.unit, self.port)
    }
}

/// Number of output ports a unit kind exposes.
pub(crate) fn output_port_count(unit: UnitId, inventory: &ResourceInventory) -> usize {
    match unit {
        UnitId::Fanout(_) => inventory.fanout_branches,
        UnitId::Adc(_) | UnitId::AnalogOutput(_) => 0,
        _ => 1,
    }
}

/// Number of input ports a unit kind exposes.
pub(crate) fn input_port_count(unit: UnitId) -> usize {
    match unit {
        UnitId::Multiplier(_) => 2,
        UnitId::Dac(_) | UnitId::AnalogInput(_) => 0,
        _ => 1,
    }
}

/// A validated crossbar configuration for a specific [`ResourceInventory`].
///
/// ```
/// use aa_analog::netlist::{Netlist, OutputPort, InputPort};
/// use aa_analog::units::{ResourceInventory, UnitId};
///
/// # fn main() -> Result<(), aa_analog::AnalogError> {
/// let inv = ResourceInventory::from_macroblocks(4);
/// let mut net = Netlist::new(inv);
/// // Integrator output into a fanout, fanout branch 0 back to the integrator.
/// net.connect(OutputPort::of(UnitId::Integrator(0)), InputPort::of(UnitId::Fanout(0)))?;
/// net.connect(OutputPort { unit: UnitId::Fanout(0), port: 0 },
///             InputPort::of(UnitId::Integrator(0)))?;
/// net.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    inventory: ResourceInventory,
    /// driver → sink, at most one sink per driver (currents cannot be copied).
    connections: BTreeMap<OutputPort, InputPort>,
}

impl Netlist {
    /// An empty netlist over `inventory`.
    pub fn new(inventory: ResourceInventory) -> Self {
        Netlist {
            inventory,
            connections: BTreeMap::new(),
        }
    }

    /// The inventory this netlist is constrained by.
    pub fn inventory(&self) -> &ResourceInventory {
        &self.inventory
    }

    /// Creates an analog current connection `from → to`
    /// (the ISA's `setConn` instruction).
    ///
    /// # Errors
    ///
    /// * [`AnalogError::NoSuchUnit`] if either endpoint does not exist.
    /// * [`AnalogError::InvalidConnection`] if the port index is out of
    ///   range, the port has the wrong direction, or the driver already
    ///   feeds another branch (currents cannot be copied without a fanout).
    pub fn connect(&mut self, from: OutputPort, to: InputPort) -> Result<(), AnalogError> {
        for unit in [from.unit, to.unit] {
            if !self.inventory.contains(unit) {
                return Err(AnalogError::NoSuchUnit { unit });
            }
        }
        let out_ports = output_port_count(from.unit, &self.inventory);
        if from.port >= out_ports {
            return Err(AnalogError::invalid_connection(format!(
                "{from} does not exist: {} has {out_ports} output port(s)",
                from.unit
            )));
        }
        let in_ports = input_port_count(to.unit);
        if to.port >= in_ports {
            return Err(AnalogError::invalid_connection(format!(
                "{to} does not exist: {} has {in_ports} input port(s)",
                to.unit
            )));
        }
        if let Some(existing) = self.connections.get(&from) {
            return Err(AnalogError::invalid_connection(format!(
                "{from} already drives {existing}; copying a current requires a fanout block"
            )));
        }
        self.connections.insert(from, to);
        Ok(())
    }

    /// Removes every connection.
    pub fn clear(&mut self) {
        self.connections.clear();
    }

    /// Number of connections.
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// Whether the netlist has no connections.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Iterates over `(driver, sink)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OutputPort, InputPort)> + '_ {
        self.connections.iter().map(|(f, t)| (*f, *t))
    }

    /// All drivers currently feeding `input`.
    pub fn drivers_of(&self, input: InputPort) -> Vec<OutputPort> {
        self.connections
            .iter()
            .filter(|(_, t)| **t == input)
            .map(|(f, _)| *f)
            .collect()
    }

    /// The units that appear in at least one connection.
    pub fn used_units(&self) -> BTreeSet<UnitId> {
        self.connections
            .iter()
            .flat_map(|(f, t)| [f.unit, t.unit])
            .collect()
    }

    /// Validates global electrical rules: no memoryless cycles.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::AlgebraicLoop`] naming a unit on a memoryless
    /// cycle, if one exists.
    pub fn validate(&self) -> Result<(), AnalogError> {
        self.memoryless_topo_order().map(|_| ())
    }

    /// Topologically sorts the memoryless (non-integrator) units reachable in
    /// the netlist, treating integrator outputs, DACs, and analog inputs as
    /// sources. Returns units in dependency order.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::AlgebraicLoop`] if the memoryless subgraph has
    /// a cycle.
    pub fn memoryless_topo_order(&self) -> Result<Vec<UnitId>, AnalogError> {
        // Build unit-level edges between memoryless units: an edge u → v when
        // some output of u drives an input of v, and u is memoryless.
        // Integrators break cycles because their output depends on state, not
        // on their instantaneous input.
        // Pure sources (DACs, analog inputs) have no inputs, so they can
        // neither be on a cycle nor need ordering; exclude them along with
        // the stateful integrators.
        let memoryless: BTreeSet<UnitId> = self
            .used_units()
            .into_iter()
            .filter(|u| !u.is_stateful() && u.has_input())
            .collect();
        let mut indegree: BTreeMap<UnitId, usize> = memoryless.iter().map(|u| (*u, 0)).collect();
        let mut edges: BTreeMap<UnitId, Vec<UnitId>> = BTreeMap::new();
        for (from, to) in self.iter() {
            if memoryless.contains(&from.unit) && memoryless.contains(&to.unit) {
                edges.entry(from.unit).or_default().push(to.unit);
                *indegree.entry(to.unit).or_insert(0) += 1;
            }
        }
        let mut ready: Vec<UnitId> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(u, _)| *u)
            .collect();
        let mut order = Vec::with_capacity(memoryless.len());
        while let Some(u) = ready.pop() {
            order.push(u);
            if let Some(nexts) = edges.get(&u) {
                for v in nexts {
                    let d = indegree.get_mut(v).expect("edge target is memoryless");
                    *d -= 1;
                    if *d == 0 {
                        ready.push(*v);
                    }
                }
            }
        }
        if order.len() != memoryless.len() {
            let stuck = indegree
                .iter()
                .find(|(u, d)| **d > 0 && !order.contains(u))
                .map(|(u, _)| *u)
                .expect("cycle implies a unit with positive in-degree");
            return Err(AnalogError::AlgebraicLoop { unit: stuck });
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv() -> ResourceInventory {
        ResourceInventory::from_macroblocks(4)
    }

    #[test]
    fn connect_and_query() {
        let mut net = Netlist::new(inv());
        let from = OutputPort::of(UnitId::Dac(0));
        let to = InputPort::of(UnitId::Integrator(0));
        net.connect(from, to).unwrap();
        assert_eq!(net.len(), 1);
        assert_eq!(net.drivers_of(to), vec![from]);
        assert!(net.used_units().contains(&UnitId::Dac(0)));
    }

    #[test]
    fn summation_by_joining_branches_is_allowed() {
        // Two drivers into one integrator input: free current summation.
        let mut net = Netlist::new(inv());
        net.connect(
            OutputPort::of(UnitId::Dac(0)),
            InputPort::of(UnitId::Integrator(0)),
        )
        .unwrap();
        net.connect(
            OutputPort::of(UnitId::Multiplier(0)),
            InputPort::of(UnitId::Integrator(0)),
        )
        .unwrap();
        assert_eq!(
            net.drivers_of(InputPort::of(UnitId::Integrator(0))).len(),
            2
        );
        net.validate().unwrap();
    }

    #[test]
    fn copying_a_current_requires_fanout() {
        let mut net = Netlist::new(inv());
        let from = OutputPort::of(UnitId::Integrator(0));
        net.connect(from, InputPort::of(UnitId::Multiplier(0)))
            .unwrap();
        let err = net
            .connect(from, InputPort::of(UnitId::Multiplier(1)))
            .unwrap_err();
        assert!(matches!(err, AnalogError::InvalidConnection { .. }));
        assert!(err.to_string().contains("fanout"));
    }

    #[test]
    fn fanout_branches_allow_copying() {
        let mut net = Netlist::new(inv());
        net.connect(
            OutputPort::of(UnitId::Integrator(0)),
            InputPort::of(UnitId::Fanout(0)),
        )
        .unwrap();
        net.connect(
            OutputPort {
                unit: UnitId::Fanout(0),
                port: 0,
            },
            InputPort::of(UnitId::Multiplier(0)),
        )
        .unwrap();
        net.connect(
            OutputPort {
                unit: UnitId::Fanout(0),
                port: 1,
            },
            InputPort::of(UnitId::Adc(0)),
        )
        .unwrap();
        net.validate().unwrap();
    }

    #[test]
    fn port_range_checked() {
        let mut net = Netlist::new(inv());
        // Fanout has only 2 branches.
        assert!(net
            .connect(
                OutputPort {
                    unit: UnitId::Fanout(0),
                    port: 2
                },
                InputPort::of(UnitId::Adc(0))
            )
            .is_err());
        // ADC has no output.
        assert!(net
            .connect(
                OutputPort::of(UnitId::Adc(0)),
                InputPort::of(UnitId::Integrator(0))
            )
            .is_err());
        // DAC has no input.
        assert!(net
            .connect(
                OutputPort::of(UnitId::Dac(0)),
                InputPort::of(UnitId::Dac(0))
            )
            .is_err());
        // Multiplier has 2 inputs; port 1 is fine, port 2 is not.
        assert!(net
            .connect(
                OutputPort::of(UnitId::Dac(0)),
                InputPort {
                    unit: UnitId::Multiplier(0),
                    port: 1
                }
            )
            .is_ok());
        assert!(net
            .connect(
                OutputPort::of(UnitId::Dac(1)),
                InputPort {
                    unit: UnitId::Multiplier(0),
                    port: 2
                }
            )
            .is_err());
    }

    #[test]
    fn nonexistent_units_rejected() {
        let mut net = Netlist::new(inv());
        assert!(matches!(
            net.connect(
                OutputPort::of(UnitId::Integrator(4)),
                InputPort::of(UnitId::Adc(0))
            ),
            Err(AnalogError::NoSuchUnit { .. })
        ));
    }

    #[test]
    fn integrator_feedback_loop_is_legal() {
        // int0 → mul0 → int0: a loop, but through an integrator. Legal.
        let mut net = Netlist::new(inv());
        net.connect(
            OutputPort::of(UnitId::Integrator(0)),
            InputPort::of(UnitId::Multiplier(0)),
        )
        .unwrap();
        net.connect(
            OutputPort::of(UnitId::Multiplier(0)),
            InputPort::of(UnitId::Integrator(0)),
        )
        .unwrap();
        net.validate().unwrap();
    }

    #[test]
    fn memoryless_cycle_is_algebraic_loop() {
        // mul0 → mul1 → mul0 with no integrator: must be rejected.
        let mut net = Netlist::new(inv());
        net.connect(
            OutputPort::of(UnitId::Multiplier(0)),
            InputPort::of(UnitId::Multiplier(1)),
        )
        .unwrap();
        net.connect(
            OutputPort::of(UnitId::Multiplier(1)),
            InputPort::of(UnitId::Multiplier(0)),
        )
        .unwrap();
        assert!(matches!(
            net.validate(),
            Err(AnalogError::AlgebraicLoop { .. })
        ));
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let mut net = Netlist::new(inv());
        // dac0 → mul0 → fan0 → adc0.
        net.connect(
            OutputPort::of(UnitId::Dac(0)),
            InputPort::of(UnitId::Multiplier(0)),
        )
        .unwrap();
        net.connect(
            OutputPort::of(UnitId::Multiplier(0)),
            InputPort::of(UnitId::Fanout(0)),
        )
        .unwrap();
        net.connect(
            OutputPort {
                unit: UnitId::Fanout(0),
                port: 0,
            },
            InputPort::of(UnitId::Adc(0)),
        )
        .unwrap();
        let order = net.memoryless_topo_order().unwrap();
        let pos = |u: UnitId| order.iter().position(|x| *x == u).unwrap();
        assert!(pos(UnitId::Multiplier(0)) < pos(UnitId::Fanout(0)));
        assert!(pos(UnitId::Fanout(0)) < pos(UnitId::Adc(0)));
    }

    #[test]
    fn clear_removes_every_connection() {
        let mut net = Netlist::new(inv());
        let from = OutputPort::of(UnitId::Dac(0));
        net.connect(from, InputPort::of(UnitId::Integrator(0)))
            .unwrap();
        net.clear();
        assert!(net.is_empty());
    }
}
