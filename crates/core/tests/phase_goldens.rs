//! Golden pins for the charged pipelines: dissemination and shortest paths.
//!
//! Conformance compares token sets between contenders and `results/` is
//! diffed only across thread counts, so nothing else would notice a pipeline
//! that charges a phase twice or drops a level.  Each dissemination case here runs one contender (every
//! [`dissemination_registry`] entry, or [`k_aggregation`]) on a small pinned
//! instance and asserts its round counts plus an FNV-1a-64 digest over every
//! [`PhaseRecord`](hybrid_sim::PhaseRecord) in order — label bytes, kind,
//! rounds, messages — and over the returned `(rounds, radius, nq, k,
//! max_tokens_per_node, tokens)` (aggregation: `(rounds, nq, k, results)`).
//! A reordered batch cannot move a schedule: the scheduler is a function of
//! the message multiset alone, pinned by the scheduler's own reference test.
//!
//! The shortest-path cases ([`shortest_path_cases`]) do the same for every
//! [`sssp_registry`] contender, Theorems 6–8 and both `(k, ℓ)`-SP scenarios:
//! rounds, the phase records and **every distance label** — a label that
//! changes while still keeping its stretch passes every verifier and fails
//! here.
//!
//! The dissemination constants were printed by this very file in a clone of
//! commit be7333a — before Theorems 1–2 and the `[CHL23]` rival shared one
//! cluster-tree overlay; the shortest-path ones in a clone of 3b7f488 —
//! before the pipelines moved onto one `DistanceRows` table.  The `wgrid12x12`
//! and `er96` rows were re-recorded by this file when the random families and
//! the re-weighting pass moved to one chunk-seeded sampler each: their
//! weights and edges changed, the pipelines did not (`apsp-unweighted/
//! wgrid12x12` runs on the unweighted grid and kept its value).  Re-record
//! only with a stated reason.  On a mismatch the failure message is the full
//! table in source form.

use std::sync::Arc;

use hybrid_core::algorithm::{dissemination_registry, sssp_registry};
use hybrid_core::apsp::{self, ApspOutput};
use hybrid_core::dissemination::{k_aggregation, TokenPlacement};
use hybrid_core::klsp::{klsp, KlspScenario};
use hybrid_core::NqOracle;
use hybrid_graph::{generators, Fnv1a64, Graph, NodeId};
use hybrid_sim::{CostMeter, HybridNetwork};
use hybrid_sim::{ModelParams, PhaseKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Length-prefixed, so slice boundaries count.
fn fnv_u64s(digest: &mut Fnv1a64, xs: &[u64]) {
    digest.write_u64(xs.len() as u64);
    for &x in xs {
        digest.write_u64(x);
    }
}

fn digest_meter(d: &mut Fnv1a64, meter: &CostMeter) {
    for p in meter.trace() {
        d.write(p.label.as_bytes());
        let kind = match p.kind {
            PhaseKind::Local => 0u8,
            PhaseKind::Global => 1,
            PhaseKind::Charged => 2,
        };
        d.write(&[0xFF, kind]);
        // The three zeros stand where a record's injected-fault counts were
        // hashed while the phase engine took a fault plan; keeping them keeps
        // every recorded digest.
        fnv_u64s(d, &[p.rounds, p.messages, 0, 0, 0]);
    }
}

#[derive(Debug, PartialEq)]
struct Golden {
    name: String,
    /// Reported rounds, one per γ of the case.
    rounds: Vec<u64>,
    digest: u64,
}

fn g(name: &str, rounds: &[u64], digest: u64) -> Golden {
    Golden {
        name: name.to_string(),
        rounds: rounds.to_vec(),
        digest,
    }
}

fn source_line(x: &Golden) -> String {
    format!(
        "        g({:?}, &{:?}, {:#018X}),",
        x.name, x.rounds, x.digest
    )
}

/// Distinct token values whose numeric order is unrelated to placement order.
fn value(t: u64) -> u64 {
    (t * 37 + 5) % 1009
}

/// `k` tokens round-robin over `holders`.
fn place(holders: &[NodeId], k: u64) -> Vec<TokenPlacement> {
    (0..k)
        .map(|t| (holders[t as usize % holders.len()], value(t)))
        .collect()
}

fn placements(n: usize) -> [(&'static str, Vec<TokenPlacement>); 3] {
    let every_third: Vec<NodeId> = (0..n as NodeId).step_by(3).collect();
    let everyone: Vec<NodeId> = (0..n as NodeId).collect();
    [
        ("17-on-every-third", place(&every_third, 17)),
        ("96-on-node0", place(&[0], 96)),
        ("one-per-node", place(&everyone, n as u64)),
    ]
}

/// The default `γ = ⌈log₂ n⌉`, a starved and a rich global network.
fn gammas(n: usize) -> [ModelParams; 3] {
    [
        ModelParams::hybrid(n),
        ModelParams::hybrid_with_global_capacity(n, 1),
        ModelParams::hybrid_with_global_capacity(n, 64),
    ]
}

/// Runs `run` once per network and folds the runs into one golden row.
fn case(
    name: String,
    nets: impl IntoIterator<Item = HybridNetwork>,
    run: impl Fn(&mut HybridNetwork, &mut Fnv1a64) -> u64,
) -> Golden {
    let mut digest = Fnv1a64::new();
    let rounds = nets
        .into_iter()
        .map(|mut net| run(&mut net, &mut digest))
        .collect();
    Golden {
        name,
        rounds,
        digest: digest.finish(),
    }
}

fn all_cases() -> Vec<Golden> {
    let graphs: [(&str, Graph); 4] = [
        ("grid8x8", generators::grid(&[8, 8]).unwrap()),
        ("path48", generators::path(48).unwrap()),
        ("tree60", generators::tree_with_n(2, 60).unwrap()),
        ("ring6x8", generators::ring_of_cliques(6, 8, 2).unwrap()),
    ];
    let algos = dissemination_registry();
    let mut out = Vec::new();
    for (gname, graph) in graphs {
        let graph = Arc::new(graph);
        let n = graph.n();
        let oracle = NqOracle::new(&graph);
        let clean = || gammas(n).map(|params| HybridNetwork::new(Arc::clone(&graph), params));
        for (pname, tokens) in placements(n) {
            let mut expected: Vec<u64> = tokens.iter().map(|&(_, v)| v).collect();
            expected.sort_unstable();
            for algo in &algos {
                let run = |net: &mut HybridNetwork, d: &mut Fnv1a64| {
                    let o = algo.run(net, &oracle, &tokens);
                    assert_eq!(o.tokens, expected, "{}/{gname}/{pname}", algo.name());
                    digest_meter(d, &o.meter);
                    fnv_u64s(d, &[o.rounds, o.radius, o.nq, o.k, o.max_tokens_per_node]);
                    fnv_u64s(d, &o.tokens);
                    o.rounds
                };
                let name = format!("{}/{gname}/{pname}", algo.name());
                out.push(case(name, clean(), run));
            }
        }
        // Node v holds the five values (31 v + 17 i) mod 997.
        let values: Vec<Vec<u64>> = (0..n as u64)
            .map(|v| (0..5).map(|i| (v * 31 + i * 17) % 997).collect())
            .collect();
        out.push(case(
            format!("aggregation-max/{gname}"),
            clean(),
            |net, d| {
                let o = k_aggregation(net, &oracle, &values, |a, b| a.max(b));
                for i in 0..5 {
                    let direct = values.iter().map(|row| row[i]).max().unwrap();
                    assert_eq!(
                        o.results[i], direct,
                        "aggregation-max/{gname}: component {i}"
                    );
                }
                digest_meter(d, &o.meter);
                fnv_u64s(d, &[o.rounds, o.nq, o.k]);
                fnv_u64s(d, &o.results);
                o.rounds
            },
        ));
    }
    out.extend(shortest_path_cases());
    out
}

/// The shortest-path pipelines on three pinned instances: the digest covers
/// the phase ledger, the reported figures and **every label**, so a label
/// that changes while still keeping its stretch is noticed.
fn shortest_path_cases() -> Vec<Golden> {
    const EPSILON: f64 = 0.5;
    // (name, instance, its unweighted topology for Theorem 6).
    let grid = generators::grid(&[12, 12]).unwrap();
    let weighted_grid = generators::with_random_weights(&grid, 16, 23).unwrap();
    let path = generators::path(128).unwrap();
    let er = generators::erdos_renyi(96, 0.04, 23).unwrap();
    let graphs = [
        ("wgrid12x12", weighted_grid, grid),
        ("path128", path.clone(), path),
        ("er96", er.clone(), er),
    ];
    let digest_apsp = |d: &mut Fnv1a64, net: &HybridNetwork, o: &ApspOutput| {
        digest_meter(d, net.meter());
        fnv_u64s(d, &[o.rounds, o.stretch.to_bits(), o.dist.len() as u64]);
        for row in o.dist.iter() {
            fnv_u64s(d, row);
        }
        o.rounds
    };
    let mut out = Vec::new();
    for (gname, graph, topology) in graphs {
        let (graph, topology) = (Arc::new(graph), Arc::new(topology));
        let n = graph.n();
        let oracle = NqOracle::new(&graph);
        let hybrid = |g: &Arc<Graph>| [HybridNetwork::hybrid(Arc::clone(g))];
        let few: Vec<NodeId> = vec![1, n as NodeId / 2, n as NodeId - 1];
        let every_fifth: Vec<NodeId> = (0..n as NodeId).step_by(5).collect();
        let every_seventh: Vec<NodeId> = (3..n as NodeId).step_by(7).collect();

        for algo in sssp_registry() {
            for (sname, sources) in [("3-sources", &few), ("every-fifth", &every_fifth)] {
                let name = format!("{}/{gname}/{sname}", algo.name());
                out.push(case(name, hybrid(&graph), |net, d| {
                    let o = algo.run(net, sources, EPSILON, 0x5EED);
                    digest_meter(d, net.meter());
                    fnv_u64s(d, &[o.rounds, o.skeleton_size as u64, o.stretch.to_bits()]);
                    for (&s, row) in o.dist.sources().iter().zip(o.dist.iter()) {
                        d.write_u64(u64::from(s));
                        fnv_u64s(d, row);
                    }
                    o.rounds
                }));
            }
        }

        let topology_oracle = NqOracle::new(&topology);
        out.push(case(
            format!("apsp-unweighted/{gname}"),
            hybrid(&topology),
            |net, d| {
                let o = apsp::apsp_unweighted(net, &topology_oracle, EPSILON);
                digest_apsp(d, net, &o)
            },
        ));
        out.push(case(
            format!("apsp-weighted-skeleton/{gname}"),
            hybrid(&graph),
            |net, d| {
                let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
                let o = apsp::apsp_weighted_skeleton(net, &oracle, 1, &mut rng);
                digest_apsp(d, net, &o)
            },
        ));
        out.push(case(
            format!("apsp-weighted-spanner/{gname}"),
            hybrid(&graph),
            |net, d| {
                let o = apsp::apsp_weighted_spanner(net, &oracle, EPSILON);
                digest_apsp(d, net, &o)
            },
        ));

        for (kname, scenario) in [
            ("klsp-case1", KlspScenario::ArbitrarySourcesRandomTargets),
            ("klsp-case2", KlspScenario::RandomSourcesRandomTargets),
        ] {
            out.push(case(
                format!("{kname}/{gname}"),
                hybrid(&graph),
                |net, d| {
                    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
                    let (sources, targets) = (&every_fifth, &every_seventh);
                    let o = klsp(net, &oracle, sources, targets, EPSILON, scenario, &mut rng);
                    digest_meter(d, net.meter());
                    fnv_u64s(d, &[o.rounds, o.nq, o.stretch.to_bits()]);
                    for labels in &o.dist {
                        fnv_u64s(d, labels);
                    }
                    o.rounds
                },
            ));
        }
    }
    out
}

#[test]
fn charged_pipelines_reproduce_the_recorded_phases() {
    #[rustfmt::skip]
    let recorded: Vec<Golden> = vec![
        g("theorem1/grid8x8/17-on-every-third", &[309, 330, 309], 0xB7800173084E5248),
        g("det-broadcast/grid8x8/17-on-every-third", &[326, 427, 309], 0xFF9ADD8CEFB498B1),
        g("sqrt-k-baseline/grid8x8/17-on-every-third", &[457, 489, 453], 0xEE489D7320C2A61B),
        g("theorem1/grid8x8/96-on-node0", &[248, 253, 248], 0xDD35DDD62440FC13),
        g("det-broadcast/grid8x8/96-on-node0", &[263, 343, 249], 0x0E88322D4F4F43A0),
        g("sqrt-k-baseline/grid8x8/96-on-node0", &[493, 525, 489], 0xB02C80AA7D1A4CFA),
        g("theorem1/grid8x8/one-per-node", &[289, 297, 289], 0xF63527E55287F3A9),
        g("det-broadcast/grid8x8/one-per-node", &[316, 454, 290], 0x40B8F652EE5CDBA8),
        g("sqrt-k-baseline/grid8x8/one-per-node", &[675, 716, 669], 0x30EC571028528179),
        g("aggregation-max/grid8x8", &[377, 401, 377], 0xB9103A8EA7DC290B),
        g("theorem1/path48/17-on-every-third", &[314, 329, 313], 0xA21D6B94854ED6F4),
        g("det-broadcast/path48/17-on-every-third", &[325, 399, 313], 0xF0251D1EA857A8A2),
        g("sqrt-k-baseline/path48/17-on-every-third", &[452, 478, 451], 0x228983B1A381AFE3),
        g("theorem1/path48/96-on-node0", &[491, 520, 487], 0x77DD07ACFB8E9BB8),
        g("det-broadcast/path48/96-on-node0", &[533, 774, 490], 0x5DD0D0788BD7D7EE),
        g("sqrt-k-baseline/path48/96-on-node0", &[491, 520, 487], 0x73996BCD4C79D0A8),
        g("theorem1/path48/one-per-node", &[485, 517, 481], 0x82598C0E984B0538),
        g("det-broadcast/path48/one-per-node", &[519, 726, 483], 0x10E8B79F3D228310),
        g("sqrt-k-baseline/path48/one-per-node", &[485, 517, 481], 0x0671A8164479F5E7),
        g("aggregation-max/path48", &[341, 355, 341], 0x38E21E0710F7D510),
        g("theorem1/tree60/17-on-every-third", &[382, 407, 379], 0x29260D161F35C28F),
        g("det-broadcast/tree60/17-on-every-third", &[397, 504, 379], 0xD657E705F92870CF),
        g("sqrt-k-baseline/tree60/17-on-every-third", &[454, 486, 451], 0x0E3FE9F162859403),
        g("theorem1/tree60/96-on-node0", &[279, 288, 278], 0xBAA925EA677822DC),
        g("det-broadcast/tree60/96-on-node0", &[309, 470, 280], 0x2C68EDE1293BD727),
        g("sqrt-k-baseline/tree60/96-on-node0", &[493, 527, 487], 0x51454ADF425B711C),
        g("theorem1/tree60/one-per-node", &[427, 454, 425], 0x5851EBA1366AEAE8),
        g("det-broadcast/tree60/one-per-node", &[474, 733, 427], 0xBFE715398AACE9C6),
        g("sqrt-k-baseline/tree60/one-per-node", &[541, 575, 537], 0xF47464408CEA826B),
        g("aggregation-max/tree60", &[375, 402, 375], 0xB1E2F3FF61455B1B),
        g("theorem1/ring6x8/17-on-every-third", &[201, 212, 201], 0xF23B8D77CD76D1CD),
        g("det-broadcast/ring6x8/17-on-every-third", &[212, 285, 201], 0xD9C0CC71F70C2C52),
        g("sqrt-k-baseline/ring6x8/17-on-every-third", &[454, 486, 451], 0x974031ADBB8F03CB),
        g("theorem1/ring6x8/96-on-node0", &[180, 180, 180], 0xFCF4FC1D6F38087E),
        g("det-broadcast/ring6x8/96-on-node0", &[180, 180, 180], 0xE4893413AB27CD95),
        g("sqrt-k-baseline/ring6x8/96-on-node0", &[246, 249, 246], 0x01AAAD6575FD74DD),
        g("theorem1/ring6x8/one-per-node", &[207, 214, 207], 0x5DA42D800A834E33),
        g("det-broadcast/ring6x8/one-per-node", &[227, 334, 208], 0x3DC1C815A6D86629),
        g("sqrt-k-baseline/ring6x8/one-per-node", &[370, 382, 369], 0xBE6BE9BE809A94B5),
        g("aggregation-max/ring6x8", &[234, 241, 234], 0x71B3913CD9904D32),
        g("theorem14/wgrid12x12/3-sources", &[16], 0xC191DF31AC5CD02C),
        g("theorem14/wgrid12x12/every-fifth", &[548], 0x70B22B706F13E365),
        g("theorem14-proxy/wgrid12x12/3-sources", &[16], 0xC191DF31AC5CD02C),
        g("theorem14-proxy/wgrid12x12/every-fifth", &[564], 0xB07FAB708A613757),
        g("schneider/wgrid12x12/3-sources", &[101], 0x90746AEBAA75FE4C),
        g("schneider/wgrid12x12/every-fifth", &[104], 0xFEBA0D3866B6BBFB),
        g("apsp-unweighted/wgrid12x12", &[1181], 0xCFC12EC929AE3F66),
        g("apsp-weighted-skeleton/wgrid12x12", &[1390], 0xC673B6710927055E),
        g("apsp-weighted-spanner/wgrid12x12", &[464], 0x03D9D4D0E9E4BE1E),
        g("klsp-case1/wgrid12x12", &[819], 0x0516243DCD5F1E73),
        g("klsp-case2/wgrid12x12", &[1005], 0xC4DD2AFD96BB6582),
        g("theorem14/path128/3-sources", &[14], 0x64EBC7D713E16743),
        g("theorem14/path128/every-fifth", &[488], 0x33646D6A25870537),
        g("theorem14-proxy/path128/3-sources", &[14], 0x64EBC7D713E16743),
        g("theorem14-proxy/path128/every-fifth", &[502], 0x3C596D93433BC44F),
        g("schneider/path128/3-sources", &[388], 0x01531BF3C7B467F3),
        g("schneider/path128/every-fifth", &[391], 0x387EB983B7AD7947),
        g("apsp-unweighted/path128", &[1961], 0xF1A2D1090B59820F),
        g("apsp-weighted-skeleton/path128", &[2009], 0x29BCC2BBB63BB789),
        g("apsp-weighted-spanner/path128", &[621], 0x8798F950A52C9FF5),
        g("klsp-case1/path128", &[923], 0x6CC50C81813B5F36),
        g("klsp-case2/path128", &[1158], 0xC406EF4ECF01D926),
        g("theorem14/er96/3-sources", &[14], 0xA109C12A35E48B9F),
        g("theorem14/er96/every-fifth", &[408], 0xEFE0BD5F41427F1B),
        g("theorem14-proxy/er96/3-sources", &[14], 0xA109C12A35E48B9F),
        g("theorem14-proxy/er96/every-fifth", &[422], 0x9D41DFA71DFE7864),
        g("schneider/er96/3-sources", &[25], 0x31697FB5A9718E37),
        g("schneider/er96/every-fifth", &[27], 0xE1FF43F2EC715CE6),
        g("apsp-unweighted/er96", &[637], 0x68AA68FC0DB5591C),
        g("apsp-weighted-skeleton/er96", &[801], 0x1371EBA5A61228F4),
        g("apsp-weighted-spanner/er96", &[261], 0x3864911039DE1E28),
        g("klsp-case1/er96", &[422], 0x5EA09FD38E5DB49B),
        g("klsp-case2/er96", &[599], 0x92B42D55012BF5C8),
    ];
    let actual = all_cases();
    assert!(
        actual == recorded,
        "behaviour drifted from the recorded runs; the table now reads:\n{}",
        actual
            .iter()
            .map(source_line)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
