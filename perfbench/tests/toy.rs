//! Toy-size runs of every workload's loop, end to end: a 64-peer expander
//! (simulator and pool) and a 6-peer DBLP ring, untraced and traced.

use p2p_topology::NodeId;
use perfbench::check::{check_inbox, check_total, ExpanderModel};
use perfbench::inputs::{ExpanderInputs, INBOX_QUERY};
use perfbench::metrics::write_split;
use perfbench::workload::{run, Size, Workload};
use perfbench::{execute_sized, same_messages, Options};

fn toy(workload: Workload) -> Size {
    match workload {
        Workload::DblpSmallworld16 => Size {
            nodes: 6,
            rounds: 1,
            reads_per_write: 1,
            setups: 2,
            records: 8,
        },
        _ => Size {
            nodes: 64,
            rounds: 1,
            reads_per_write: 2,
            setups: 2,
            records: 0,
        },
    }
}

#[test]
fn every_workload_runs_clean_and_traced_matches_untraced() {
    for workload in Workload::ALL {
        let size = toy(workload);
        let plain = run(workload, &size, 3, false).unwrap();
        assert!(
            plain.wrong.is_empty(),
            "{}: {:?}",
            workload.name(),
            plain.wrong
        );
        assert_eq!(plain.failed, 0, "{}", workload.name());
        let ops = (size.rounds * 4 * (1 + size.reads_per_write)) as u64;
        assert_eq!(plain.attempted, ops, "{}", workload.name());
        assert_eq!(plain.writes.len() + plain.reads.len(), ops as usize);
        if workload != Workload::Expander10kSharded {
            assert_eq!(plain.setups.len(), size.setups, "{}", workload.name());
        }

        let traced = run(workload, &size, 3, true).unwrap();
        assert!(
            traced.wrong.is_empty(),
            "{}: {:?}",
            workload.name(),
            traced.wrong
        );
        if workload != Workload::Expander10kSharded {
            same_messages(&plain, &traced).unwrap();
        }
        let handled = traced.write_layers.tally.deliveries();
        let delivered: u64 = traced.writes.iter().map(|o| o.msgs).sum();
        assert_eq!(
            handled,
            delivered,
            "{}: every delivery is timed",
            workload.name()
        );
        let split = write_split(&traced);
        assert!(split.loop_ns > 0.0, "{}: {split:?}", workload.name());
        let parts = split.loop_ns + split.handler_ns + split.size_ns + split.storage_ns;
        assert!(
            (parts - split.thread_ns).abs() < 1.0,
            "{}: loop, handler, sizing and storage add up to the write time: {split:?}",
            workload.name()
        );
        if workload == Workload::DblpSmallworld16 {
            assert!(split.storage_ns > 0.0, "{}: {split:?}", workload.name());
        }
    }
}

#[test]
fn result_lines_carry_exactly_the_declared_metrics() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared = |section: &str| -> Vec<String> {
        let start = bench.find(&format!("\"{section}\"")).unwrap();
        let body = &bench[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        for workload in Workload::ALL {
            let opts = Options {
                workload,
                seed: 1,
                seconds: 1,
                trace,
            };
            let line = execute_sized(&opts, &toy(workload)).unwrap();
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            // Each metric name is the last quoted word before its value.
            let mut names: Vec<String> = line
                .split("\": {\"value\": ")
                .map(|s| s[s.rfind('"').unwrap() + 1..].to_string())
                .collect();
            names.pop();
            assert_eq!(names, declared(section), "{} {section}", workload.name());
        }
    }
}

#[test]
fn a_check_rejects_a_wrong_expected_result() {
    let inputs = ExpanderInputs::new(64, 11);
    let mut sys = p2p_workload::scale_system(&inputs.scale_config())
        .unwrap()
        .build()
        .unwrap();
    assert!(sys.run_update().all_closed);
    let mut model = ExpanderModel::new(inputs.nodes(), &inputs.edges, inputs.records);
    let total = sys.snapshot().total_tuples();
    check_total("fix-point", total, model.total_tuples()).unwrap();
    let reader = NodeId(5);
    let answer = sys.query(reader, INBOX_QUERY).unwrap();
    check_inbox(reader, &answer, &model.inbox(reader)).unwrap();

    // An item the network never saw: both checks must now fail.
    let body = inputs.edges.iter().find(|(h, _)| *h == reader).unwrap().1;
    model.insert(4_242_424, body);
    assert!(check_total("fix-point", total, model.total_tuples()).is_err());
    assert!(check_inbox(reader, &answer, &model.inbox(reader)).is_err());
}
