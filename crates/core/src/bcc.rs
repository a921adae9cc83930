//! Simulation of the Broadcast Congested Clique (Corollary 2.1).
//!
//! In the `BCC` model every node broadcasts one `O(log n)`-bit message to the
//! whole network per round.  One `BCC` round is exactly an instance of
//! `n`-dissemination with one token per node, so Theorem 1 simulates it in
//! `Õ(NQ_n)` rounds of `Hybrid0`, and Theorem 4 shows `Ω̃(NQ_n)` rounds are
//! necessary — i.e. the simulation is universally optimal.
//!
//! This module exposes the simulation as a reusable primitive: any algorithm
//! expressed as a sequence of `BCC` rounds (each node contributes one value
//! per round, everyone learns all values) can be run on a HYBRID network at a
//! per-round cost of one Theorem 1 broadcast.

use hybrid_graph::NodeId;
use hybrid_sim::HybridNetwork;

use crate::dissemination::{disseminate_with_radius, RadiusPolicy, TokenPlacement};
use crate::nq::{compute_nq, NqOracle};

/// Result of simulating a number of `BCC` rounds.
#[derive(Debug, Clone)]
pub struct BccSimulation {
    /// Number of `BCC` rounds simulated.
    pub bcc_rounds: usize,
    /// Everything every node knows afterwards: `history[r][v]` is the value
    /// node `v` broadcast in `BCC` round `r`.
    pub history: Vec<Vec<u64>>,
    /// HYBRID rounds per simulated `BCC` round (`Õ(NQ_n)`).
    pub rounds_per_bcc_round: u64,
}

/// Simulates `rounds` rounds of the Broadcast Congested Clique on `net`
/// (Corollary 2.1).  In each round, `step(round, history)` returns the value
/// every node broadcasts (indexed by node id); the returned history is then
/// available to every node in the next round, exactly as in `BCC`.
pub fn simulate_bcc(
    net: &mut HybridNetwork,
    oracle: &NqOracle,
    rounds: usize,
    mut step: impl FnMut(usize, &[Vec<u64>]) -> Vec<u64>,
) -> BccSimulation {
    let n = net.graph().n();
    let nq_n = compute_nq(net, oracle, n as u64).nq.max(1);
    let mut history: Vec<Vec<u64>> = Vec::with_capacity(rounds);
    let mut per_round_cost = 0;
    for r in 0..rounds {
        let values = step(r, &history);
        assert_eq!(
            values.len(),
            n,
            "one broadcast value per node per BCC round"
        );
        // One BCC round = n-dissemination of one token per node (Theorem 1).
        // Tag each broadcast value with its round and sender so the token
        // values are globally distinct (the broadcast layer deduplicates by
        // value).
        let tokens: Vec<TokenPlacement> = values
            .iter()
            .enumerate()
            .map(|(v, &val)| {
                let tagged = ((r as u64) << 52) | ((v as u64) << 32) | (val & 0xFFFF_FFFF);
                (v as NodeId, tagged)
            })
            .collect();
        let start = net.rounds();
        let _ = disseminate_with_radius(net, oracle, &tokens, RadiusPolicy::Fixed(nq_n));
        per_round_cost = net.rounds() - start;
        history.push(values);
    }
    BccSimulation {
        bcc_rounds: rounds,
        history,
        rounds_per_bcc_round: per_round_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower_bounds::dissemination_lower_bound;
    use hybrid_graph::generators;
    use std::sync::Arc;

    #[test]
    fn bcc_simulation_runs_sum_protocol() {
        // A 2-round BCC protocol: round 0 everyone broadcasts its id; round 1
        // everyone broadcasts the sum of everything heard.  After the
        // simulation every node knows the global sum.
        let g = Arc::new(generators::grid(&[8, 8]).unwrap());
        let oracle = NqOracle::new(&g);
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let n = g.n() as u64;
        let sim = simulate_bcc(&mut net, &oracle, 2, |round, history| {
            if round == 0 {
                (0..n).collect()
            } else {
                let sum: u64 = history[0].iter().sum();
                vec![sum; n as usize]
            }
        });
        assert_eq!(sim.bcc_rounds, 2);
        let expected: u64 = (0..n).sum();
        assert!(sim.history[1].iter().all(|&s| s == expected));
        assert!(sim.rounds_per_bcc_round > 0);
        assert!(net.rounds() > 2 * sim.rounds_per_bcc_round);
    }

    #[test]
    fn bcc_cost_is_polylog_times_nq_n() {
        let g = Arc::new(generators::grid(&[12, 12]).unwrap());
        let oracle = NqOracle::new(&g);
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        let sim = simulate_bcc(&mut net, &oracle, 1, |_, _| vec![7; 144]);
        let nq_n = oracle.nq(144);
        let log_n = net.log_n();
        assert!(sim.rounds_per_bcc_round <= nq_n * 60 * log_n * log_n);
        // The universal lower bound for one BCC round: Theorem 4 with k = n.
        let lb = dissemination_lower_bound(&oracle, net.params(), 144, 0.99);
        assert!(lb.rounds <= sim.rounds_per_bcc_round as f64);
    }

    #[test]
    #[should_panic(expected = "one broadcast value per node")]
    fn wrong_value_count_panics() {
        let g = Arc::new(generators::cycle(10).unwrap());
        let oracle = NqOracle::new(&g);
        let mut net = HybridNetwork::hybrid(Arc::clone(&g));
        simulate_bcc(&mut net, &oracle, 1, |_, _| vec![1, 2, 3]);
    }
}
