//! The replayable schedule log: every admission, dispatch, completion, and
//! health transition, in the order the dispatcher made them. The whole
//! stack underneath is deterministic, so two same-seed runs produce
//! **equal** logs (`PartialEq` on the full struct) at any worker count —
//! the fleet-level analogue of `aa-obs`'s journal replay.

use crate::request::{CompletionPath, Priority, PRIORITY_CLASSES};

/// One dispatcher decision or observation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleEvent {
    /// A request passed admission control and entered the queue.
    Admitted {
        /// The assigned ticket id.
        ticket: u64,
        /// The registered structure it targets.
        structure: usize,
        /// Its priority class.
        priority: Priority,
        /// Its analog-deadline budget, if any.
        deadline_s: Option<f64>,
    },
    /// A request was refused at admission (stable reason label from
    /// [`Rejected::label`](crate::Rejected::label)).
    Rejected {
        /// The structure it targeted.
        structure: usize,
        /// Its priority class.
        priority: Priority,
        /// Why it was refused.
        reason: &'static str,
    },
    /// An admitted request's structure-affinity home shard was saturated,
    /// so the router placed it on another shard (the first unsaturated
    /// one, scanning cyclically from the home). Recorded right after the
    /// request's `Admitted` event.
    Spilled {
        /// The rerouted ticket.
        ticket: u64,
        /// The shard the structure's affinity pointed at.
        from_shard: usize,
        /// The shard that actually enqueued it.
        to_shard: usize,
    },
    /// A batch of tickets was placed on a chip for one round.
    Dispatched {
        /// The dispatch round.
        round: u64,
        /// The chip the batch was placed on.
        chip: usize,
        /// The tickets in the batch, in dispatch order.
        tickets: Vec<u64>,
    },
    /// An admitted request was answered.
    Completed {
        /// The settled ticket.
        ticket: u64,
        /// The serving chip (`None` when the dispatcher's digital lane
        /// answered directly).
        chip: Option<usize>,
        /// The round it completed in.
        round: u64,
        /// How the answer was produced.
        path: CompletionPath,
        /// Simulated analog seconds burned.
        analog_time_s: f64,
    },
    /// A chip's health score crossed the quarantine threshold.
    Quarantined {
        /// The chip taken out of rotation.
        chip: usize,
        /// The round of the decision.
        round: u64,
    },
    /// A quarantined chip was given one probe request.
    Probation {
        /// The chip on probation.
        chip: usize,
        /// The round of the decision.
        round: u64,
    },
    /// A probed chip answered cleanly and rejoined the rotation.
    Readmitted {
        /// The chip back in rotation.
        chip: usize,
        /// The round of the decision.
        round: u64,
    },
    /// A dispatched request came back unserved (its chip died or hung
    /// mid-batch) and was returned to the queue. Accepted requests are
    /// never lost to a failed chip.
    Requeued {
        /// The bounced ticket.
        ticket: u64,
        /// The chip that failed to serve it.
        chip: usize,
        /// The round of the bounce.
        round: u64,
        /// Total RHS columns this chip bounced this round. Every unserved
        /// column of a failed batch is requeued together — a batched sweep
        /// has no partial results — so each of the `columns` events of one
        /// bounce carries the same count.
        columns: usize,
    },
    /// A chip exhausted its quarantine budget and was permanently removed
    /// from rotation (no further probes).
    Retired {
        /// The chip taken out for good.
        chip: usize,
        /// The round of the decision.
        round: u64,
    },
}

impl ScheduleEvent {
    /// A stable single-line rendering, for diffing two logs by eye.
    pub fn line(&self) -> String {
        match self {
            ScheduleEvent::Admitted {
                ticket,
                structure,
                priority,
                deadline_s,
            } => match deadline_s {
                Some(d) => format!(
                    "admit t{ticket} s{structure} {} deadline={d}",
                    priority.label()
                ),
                None => format!("admit t{ticket} s{structure} {}", priority.label()),
            },
            ScheduleEvent::Rejected {
                structure,
                priority,
                reason,
            } => format!("reject s{structure} {} {reason}", priority.label()),
            ScheduleEvent::Spilled {
                ticket,
                from_shard,
                to_shard,
            } => format!("spill t{ticket} shard{from_shard}->shard{to_shard}"),
            ScheduleEvent::Dispatched {
                round,
                chip,
                tickets,
            } => {
                let ids: Vec<String> = tickets.iter().map(|t| format!("t{t}")).collect();
                format!("r{round} dispatch c{chip} [{}]", ids.join(","))
            }
            ScheduleEvent::Completed {
                ticket,
                chip,
                round,
                path,
                analog_time_s,
            } => match chip {
                Some(c) => format!(
                    "r{round} done t{ticket} c{c} {} analog={analog_time_s}",
                    path.label()
                ),
                None => format!("r{round} done t{ticket} digital {}", path.label()),
            },
            ScheduleEvent::Quarantined { chip, round } => format!("r{round} quarantine c{chip}"),
            ScheduleEvent::Probation { chip, round } => format!("r{round} probation c{chip}"),
            ScheduleEvent::Readmitted { chip, round } => format!("r{round} readmit c{chip}"),
            ScheduleEvent::Requeued {
                ticket,
                chip,
                round,
                columns,
            } => format!("r{round} requeue t{ticket} c{chip} columns={columns}"),
            ScheduleEvent::Retired { chip, round } => format!("r{round} retire c{chip}"),
        }
    }
}

/// The full record of one service run: the event stream plus per-class
/// aggregates. Equality of two logs is the fleet's replay-identity test.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleLog {
    /// Every event, in decision order.
    pub events: Vec<ScheduleEvent>,
    /// Joules drawn from the fleet per priority class (indexed by
    /// [`Priority::rank`]), from the `aa-hwmodel` power model.
    pub energy_j_by_class: [f64; 3],
    /// Completed requests per priority class.
    pub completed_by_class: [usize; 3],
    /// Requests refused at admission.
    pub rejected: usize,
}

impl ScheduleLog {
    /// Stable one-line-per-event rendering of the stream.
    pub fn lines(&self) -> Vec<String> {
        self.events.iter().map(ScheduleEvent::line).collect()
    }

    /// Total completed requests across all classes.
    pub fn completed(&self) -> usize {
        self.completed_by_class.iter().sum()
    }

    /// Total joules drawn across all classes.
    pub fn energy_j(&self) -> f64 {
        self.energy_j_by_class.iter().sum()
    }

    /// Mean joules per completed request of one class (`None` when no
    /// request of that class completed) — the paper's Fig. 9 energy/solve
    /// metric, per serving class.
    pub fn energy_per_request_j(&self, priority: Priority) -> Option<f64> {
        let rank = priority.rank();
        let n = self.completed_by_class[rank];
        (n > 0).then(|| self.energy_j_by_class[rank] / n as f64)
    }

    /// Records a completion's per-class aggregates.
    pub(crate) fn tally_completion(&mut self, priority: Priority, energy_j: f64) {
        let rank = priority.rank();
        self.completed_by_class[rank] += 1;
        self.energy_j_by_class[rank] += energy_j;
        debug_assert!(PRIORITY_CLASSES[rank] == priority);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_stable_and_distinct() {
        let log = ScheduleLog {
            events: vec![
                ScheduleEvent::Admitted {
                    ticket: 0,
                    structure: 1,
                    priority: Priority::High,
                    deadline_s: Some(0.25),
                },
                ScheduleEvent::Dispatched {
                    round: 1,
                    chip: 2,
                    tickets: vec![0],
                },
                ScheduleEvent::Completed {
                    ticket: 0,
                    chip: Some(2),
                    round: 1,
                    path: CompletionPath::Analog,
                    analog_time_s: 0.125,
                },
                ScheduleEvent::Quarantined { chip: 2, round: 1 },
                ScheduleEvent::Requeued {
                    ticket: 3,
                    chip: 2,
                    round: 1,
                    columns: 4,
                },
                ScheduleEvent::Spilled {
                    ticket: 5,
                    from_shard: 0,
                    to_shard: 1,
                },
            ],
            ..ScheduleLog::default()
        };
        let lines = log.lines();
        assert_eq!(lines[0], "admit t0 s1 high deadline=0.25");
        assert_eq!(lines[1], "r1 dispatch c2 [t0]");
        assert_eq!(lines[2], "r1 done t0 c2 analog analog=0.125");
        assert_eq!(lines[3], "r1 quarantine c2");
        assert_eq!(lines[4], "r1 requeue t3 c2 columns=4");
        assert_eq!(lines[5], "spill t5 shard0->shard1");
    }

    #[test]
    fn per_class_tallies_accumulate() {
        let mut log = ScheduleLog::default();
        log.tally_completion(Priority::Normal, 2.0);
        log.tally_completion(Priority::Normal, 1.0);
        log.tally_completion(Priority::Low, 4.0);
        assert_eq!(log.completed(), 3);
        assert_eq!(log.energy_j(), 7.0);
        assert_eq!(log.energy_per_request_j(Priority::Normal), Some(1.5));
        assert_eq!(log.energy_per_request_j(Priority::Low), Some(4.0));
        assert_eq!(log.energy_per_request_j(Priority::High), None);
    }
}
