//! Least-loaded fragment placement.
//!
//! "The Scheduler places stream and relational operators on worker nodes
//! based on the node's load." Every round spawns its worker threads afresh,
//! so load is what the round itself has placed so far: fragments are
//! assigned, in descending cost order, to the currently least-loaded
//! worker — the classical LPT heuristic, whose makespan is within 4/3 of
//! optimal.

/// Places one task per entry of `costs` on `workers` workers, LPT-style:
/// heaviest first, each onto the least-loaded worker so far (ties go to the
/// lowest worker id, equal costs keep their input order). Returns the
/// worker of each task, in input order.
pub fn lpt_assign(costs: &[f64], workers: usize) -> Vec<usize> {
    assert!(workers > 0, "placement needs at least one worker");
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
    let mut loads = vec![0.0f64; workers];
    let mut assignment = vec![0; costs.len()];
    for task in order {
        let (worker, _) = loads
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .expect("at least one worker");
        loads[worker] += costs[task];
        assignment[task] = worker;
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-worker summed cost under `lpt_assign`.
    fn placed_loads(costs: &[f64], workers: usize) -> Vec<f64> {
        let assignment = lpt_assign(costs, workers);
        assert_eq!(assignment.len(), costs.len());
        let mut loads = vec![0.0; workers];
        for (task, &worker) in assignment.iter().enumerate() {
            loads[worker] += costs[task];
        }
        loads
    }

    fn max_load(loads: &[f64]) -> f64 {
        loads.iter().copied().fold(0.0, f64::max)
    }

    #[test]
    fn batch_placement_assigns_everything() {
        let loads = placed_loads(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], 4);
        let total: f64 = loads.iter().sum();
        assert!((total - 31.0).abs() < 1e-9);
    }

    #[test]
    fn lpt_beats_worst_case_bound() {
        let loads = placed_loads(&[7.0, 7.0, 6.0, 6.0, 5.0, 5.0, 4.0, 4.0, 4.0], 3);
        let optimal = 48.0 / 3.0;
        assert!(
            max_load(&loads) <= optimal * 4.0 / 3.0 + 1e-9,
            "makespan {}",
            max_load(&loads)
        );
    }

    #[test]
    fn uniform_tasks_balance_perfectly() {
        let loads = placed_loads(&[1.0; 64], 8);
        let min_load = loads.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(max_load(&loads), min_load);
        assert_eq!(min_load, 8.0);
    }
}
