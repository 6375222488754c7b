//! Warm simulators: one built and lowered simulator per sweep point per
//! process, and one step-memo record per net shape.
//!
//! Every figure is a Power-Down-Threshold sweep, and each point runs many
//! replications of one fixed net. [`crate::simulate_cpu_model`],
//! [`crate::simulate_node_model`] and the seed ablation's slots take their
//! simulator from one process-wide table, keyed by every bit of their
//! inputs: the model parameters and the horizon. So every replication of a
//! point shares one net and one lowered program, across adaptive rounds,
//! grid threads, worker dispatches (a worker decodes a fresh job per
//! chunk) and targets that share a point (fig14 and fig15 with
//! `validate`).
//!
//! The points of a sweep differ only in delays and rates, so their lowered
//! programs have one shape, and the step-memo records kept beside the
//! table are shared by shape (`Simulator::share_memo`), not by point: every
//! CPU point of figs 4–9 and the seed ablation replays one record, fig14's
//! closed points another, and fig15's and `validate`'s open points a
//! third. A point's first run then starts warm too. A warm simulator's
//! outputs are those of a fresh one: memo records hold only work the
//! marking determines, and a run replays only a record of its own
//! program's shape.
//!
//! The table keeps at most [`CAPACITY`] simulators and drops the least
//! recently used one to make room.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use des::{NodeSimParams, Workload};
use petri_core::sim::MemoRecords;

use crate::cpu_model::CpuModelParams;

/// Most simulators the table keeps. Every point of `repro all` fits at
/// once (112: 63 CPU points and the seed ablation's, 24 closed and 24 open
/// node points), so `validate` finds the fig14/fig15 simulators.
pub(crate) const CAPACITY: usize = 192;

/// A table key: the model kind, then every bit of its inputs.
pub(crate) type Key = Vec<u64>;

const CPU: u64 = 0;
const NODE: u64 = 1;

/// The key of the CPU net for `params` run to `horizon`.
pub(crate) fn cpu_key(params: &CpuModelParams, horizon: f64) -> Key {
    let CpuModelParams {
        lambda,
        mu,
        power_down_threshold,
        power_up_delay,
    } = *params;
    let mut key = vec![CPU];
    key.extend([lambda, mu, power_down_threshold, power_up_delay, horizon].map(f64::to_bits));
    key
}

/// The key of the node net for `params` (which carry their horizon).
pub(crate) fn node_key(params: &NodeSimParams) -> Key {
    let NodeSimParams {
        workload,
        radio_startup,
        channel_listen,
        tx_rx_time,
        cpu_power_up_delay,
        power_down_threshold,
        dvs_overhead,
        dvs_levels,
        comm_dvs_level,
        comp_dvs_level,
        tasks_per_job,
        task_delay_per_job,
        horizon,
    } = *params;
    let (tag, value) = match workload {
        Workload::Closed { interval } => (0, interval),
        Workload::Open { rate } => (1, rate),
    };
    let mut key = vec![NODE, tag, comm_dvs_level.into(), comp_dvs_level.into()];
    key.push(tasks_per_job.into());
    let reals = [
        value,
        radio_startup,
        channel_listen,
        tx_rx_time,
        cpu_power_up_delay,
        power_down_threshold,
        dvs_overhead,
        task_delay_per_job,
        horizon,
    ];
    key.extend(reals.iter().chain(&dvs_levels).map(|x| x.to_bits()));
    key
}

type Entry = Arc<dyn Any + Send + Sync>;

/// A bounded map from keys to simulators, each with the tick of its last
/// use.
pub(crate) struct Table {
    capacity: usize,
    entries: HashMap<Key, (Entry, u64)>,
    tick: u64,
}

impl Table {
    pub(crate) fn new(capacity: usize) -> Self {
        Table {
            capacity,
            entries: HashMap::new(),
            tick: 0,
        }
    }

    fn get(&mut self, key: &Key) -> Option<Entry> {
        self.tick += 1;
        let (entry, used) = self.entries.get_mut(key)?;
        *used = self.tick;
        Some(entry.clone())
    }

    /// Keep `entry` under `key` unless a simulator is already there (built
    /// meanwhile by another thread), dropping the least recently used
    /// simulator if the table is full; return the one kept.
    fn insert(&mut self, key: Key, entry: Entry) -> Entry {
        if let Some(kept) = self.get(&key) {
            return kept;
        }
        if self.entries.len() >= self.capacity {
            let oldest = self.entries.iter().min_by_key(|(_, (_, used))| *used);
            if let Some(oldest) = oldest.map(|(k, _)| k.clone()) {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, (entry.clone(), self.tick));
        entry
    }

    /// The simulator under `key`, built by `build` on a miss. One key
    /// kind always holds one type.
    pub(crate) fn get_or_build<T: Any + Send + Sync>(
        table: &Mutex<Table>,
        key: Key,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let lock = || table.lock().unwrap_or_else(|e| e.into_inner());
        let hit = lock().get(&key);
        // Build outside the lock: other points keep running meanwhile.
        let entry = hit.unwrap_or_else(|| {
            let built: Entry = Arc::new(build());
            lock().insert(key, built)
        });
        entry.downcast().expect("one simulator type per key kind")
    }
}

/// One process's warm state: the simulator table, and the step-memo
/// records its simulators share, one per net shape.
pub(crate) struct Warm {
    table: Mutex<Table>,
    records: MemoRecords,
}

impl Warm {
    fn new() -> Self {
        Warm {
            table: Mutex::new(Table::new(CAPACITY)),
            records: MemoRecords::new(),
        }
    }

    /// The process's warm state.
    pub(crate) fn process() -> &'static Warm {
        static WARM: OnceLock<Warm> = OnceLock::new();
        WARM.get_or_init(Warm::new)
    }

    /// The warm simulator under `key`, built by `build` on a miss; `build`
    /// hands the simulator the shared records.
    pub(crate) fn simulator<T: Any + Send + Sync>(
        &self,
        key: Key,
        build: impl FnOnce(&MemoRecords) -> T,
    ) -> Arc<T> {
        Table::get_or_build(&self.table, key, || build(&self.records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Table {
        fn len(&self) -> usize {
            self.entries.len()
        }
    }

    fn node() -> NodeSimParams {
        NodeSimParams::paper_defaults(Workload::Closed { interval: 1.0 }, 0.01)
    }

    fn bump(x: &mut f64) {
        *x = f64::from_bits(x.to_bits() + 1);
    }

    /// Every input field reaches the key: changing any one of them (by one
    /// ulp for reals) selects a different entry.
    #[test]
    fn each_input_field_selects_its_own_entry() {
        let base = CpuModelParams::paper_defaults(0.3, 0.2);
        let mut cpu: Vec<Key> = vec![cpu_key(&base, 100.0)];
        for field in 0..4 {
            let mut p = base;
            bump(match field {
                0 => &mut p.lambda,
                1 => &mut p.mu,
                2 => &mut p.power_down_threshold,
                _ => &mut p.power_up_delay,
            });
            cpu.push(cpu_key(&p, 100.0));
        }
        cpu.push(cpu_key(&base, 100.0 + f64::EPSILON * 128.0));
        let mut nodes: Vec<Key> = vec![node_key(&node())];
        let edits: [fn(&mut NodeSimParams); 17] = [
            |p| p.workload = Workload::Open { rate: 1.0 },
            |p| p.workload = Workload::Closed { interval: 2.0 },
            |p| bump(&mut p.radio_startup),
            |p| bump(&mut p.channel_listen),
            |p| bump(&mut p.tx_rx_time),
            |p| bump(&mut p.cpu_power_up_delay),
            |p| bump(&mut p.power_down_threshold),
            |p| bump(&mut p.dvs_overhead),
            |p| bump(&mut p.dvs_levels[0]),
            |p| bump(&mut p.dvs_levels[1]),
            |p| bump(&mut p.dvs_levels[2]),
            |p| p.comm_dvs_level = 1,
            |p| p.comp_dvs_level = 3,
            |p| p.tasks_per_job += 1,
            |p| bump(&mut p.task_delay_per_job),
            |p| bump(&mut p.horizon),
            |p| p.workload = Workload::Open { rate: 2.0 },
        ];
        for edit in edits {
            let mut p = node();
            edit(&mut p);
            assert_ne!(p, node());
            nodes.push(node_key(&p));
        }
        let all: Vec<&Key> = cpu.iter().chain(&nodes).collect();
        for (i, a) in all.iter().enumerate() {
            for b in &all[..i] {
                assert_ne!(a, b, "two inputs share a table entry");
            }
        }
        // Equal inputs share one entry.
        assert_eq!(node_key(&node()), node_key(&node()));
        let table = Mutex::new(Table::new(4));
        let a = Table::get_or_build(&table, cpu[0].clone(), || 1u32);
        let b = Table::get_or_build(&table, cpu[0].clone(), || 2u32);
        let c = Table::get_or_build(&table, cpu[1].clone(), || 3u32);
        assert!(Arc::ptr_eq(&a, &b) && *c == 3);
    }

    /// Once one point of each of the CPU, closed-node and open-node models
    /// has run, one shared record exists per model; a second PDT of each
    /// model adds none, so its simulator resolves to the same record.
    #[test]
    fn each_model_shares_one_record_across_its_points() {
        let warm = Warm::new();
        let run_point = |pdt: f64| {
            let cpu = CpuModelParams::paper_defaults(pdt, 0.2);
            crate::cpu_model::run_cpu_model(&warm, &cpu, 300.0, 1).unwrap();
            for workload in [
                Workload::Closed { interval: 1.0 },
                Workload::Open { rate: 1.0 },
            ] {
                let mut p = NodeSimParams::paper_defaults(workload, pdt);
                p.horizon = 40.0;
                crate::node::run_node_model(&warm, &p, 1);
            }
        };
        run_point(0.3);
        assert_eq!(warm.records.shapes(), 3);
        run_point(0.05);
        assert_eq!(warm.records.shapes(), 3);
        assert_eq!(
            warm.table.lock().unwrap().len(),
            6,
            "one simulator per point"
        );
    }

    /// A table never holds more than its capacity, and evicts the least
    /// recently used entry first.
    #[test]
    fn the_table_stays_within_its_capacity() {
        let table = Mutex::new(Table::new(CAPACITY));
        let key = |i: u64| vec![NODE, i];
        for i in 0..(CAPACITY as u64 + 40) {
            Table::get_or_build(&table, key(i), || i);
            // Key 0 stays in use, so it is never the oldest.
            Table::get_or_build(&table, key(0), || u64::MAX);
            assert!(table.lock().unwrap().len() <= CAPACITY);
        }
        assert_eq!(table.lock().unwrap().len(), CAPACITY);
        assert_eq!(*Table::get_or_build(&table, key(0), || u64::MAX), 0);
        assert_eq!(*Table::get_or_build(&table, key(1), || u64::MAX), u64::MAX);
    }
}
