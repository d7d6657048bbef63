//! Node states of the intermittent-aware FSM (Fig. 3a of the paper).

use std::fmt;

/// The operating state of the sensor node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeState {
    /// Sleep: the default low-power state between atomic operations.
    #[default]
    Sleep,
    /// Sense: sampling the sensor.
    Sense,
    /// Compute: processing the sample.
    Compute,
    /// Transmit: sending the result.
    Transmit,
    /// Backup: storing the intermediate registers to NVM.
    Backup,
    /// Off: the capacitor dropped below `Th_Off`; nothing runs.
    Off,
}

impl NodeState {
    /// All states in a stable order.
    pub const ALL: [NodeState; 6] = [
        NodeState::Sleep,
        NodeState::Sense,
        NodeState::Compute,
        NodeState::Transmit,
        NodeState::Backup,
        NodeState::Off,
    ];

    /// Short label used by the trace recorder.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NodeState::Sleep => "Sleep",
            NodeState::Sense => "Sense",
            NodeState::Compute => "Compute",
            NodeState::Transmit => "Transmit",
            NodeState::Backup => "Backup",
            NodeState::Off => "Off",
        }
    }
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_state_is_sleep() {
        assert_eq!(NodeState::default(), NodeState::Sleep);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = NodeState::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NodeState::ALL.len());
    }

    #[test]
    fn display_matches_label() {
        for s in NodeState::ALL {
            assert_eq!(s.to_string(), s.label());
        }
    }
}
