//! The reference optima the output checks compare against.

use gridbnb_engine::solve;
use gridbnb_flowshop::{taillard, FlowshopProblem};
use gridbnb_qap::{QapInstance, QapProblem};
use ttpbench::workload::{cases, relabel_locations, Workload, DEFAULT_SEED, QAP, TAILLARD};

#[test]
fn qap_pins_match_the_sequential_engine() {
    for &(rows, cols, seed, pinned, _) in &QAP {
        let problem = QapProblem::with_default_bound(QapInstance::nugent_style(rows, cols, seed));
        let optimum = solve(&problem, None).best_cost;
        assert_eq!(
            optimum,
            Some(pinned),
            "nugent_style({rows}, {cols}, {seed})"
        );
    }
}

#[test]
fn relabelled_qap_instances_keep_their_optimum() {
    for &(rows, cols, seed, pinned, short) in &QAP {
        if !short {
            continue;
        }
        let base = QapInstance::nugent_style(rows, cols, seed);
        for label_seed in [1u64, 99, 12345] {
            let inst = relabel_locations(&base, label_seed);
            assert_eq!(inst.brute_optimum(), pinned, "relabel seed {label_seed}");
        }
    }
}

#[test]
fn taillard_references_are_the_published_optima() {
    // Small enough to re-prove sequentially from the published value + 1.
    for &(k, opt, short) in &TAILLARD {
        if !short {
            continue;
        }
        let problem =
            FlowshopProblem::with_default_bound(taillard::taillard_instance(&taillard::TA_20_5, k));
        assert_eq!(
            solve(&problem, Some(opt + 1)).best_cost,
            Some(opt),
            "ta{k:03}"
        );
    }
}

#[test]
fn inputs_repeat_per_seed_and_differ_across_seeds() {
    let costs = |seed: u64| -> Vec<u64> {
        cases(Workload::QapReplicable, seed)
            .iter()
            .map(|c| match &c.problem {
                ttpbench::workload::CaseProblem::Qap(p) => p
                    .instance()
                    .cost(&(0..p.instance().n()).collect::<Vec<_>>()),
                ttpbench::workload::CaseProblem::Flowshop(_) => unreachable!(),
            })
            .collect()
    };
    assert_eq!(costs(DEFAULT_SEED), costs(DEFAULT_SEED));
    assert_ne!(costs(DEFAULT_SEED), costs(DEFAULT_SEED + 1));
}
