//! Property-based tests for the static verification tier: the
//! hop-index / CDG properties that used to live in `sf-routing`, plus
//! wormhole-aware acyclicity of the engine's VC assignment over random
//! DLN and Slim Fly topologies.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sf_routing::router::FATPATHS_SEED;
use sf_routing::{FatPathsRouter, PathGen, RoutingSpec, RoutingTables};
use sf_topo::random_dln::RandomDln;
use sf_topo::SlimFly;
use sf_verify::{
    hop_index_is_deadlock_free, hop_index_vcs, render_witness, verify_combo, wormhole_cdg,
    ChannelDependencyGraph, VerifyError,
};
use std::collections::BTreeSet;

type Chan = (u32, u32, u8);

/// Random walks over a random simple graph on `n` routers: each walk
/// starts at `start % n` and takes each step to neighbour
/// `choice % degree` on VC `vc`. A walk stops early at an isolated
/// router, so it may have a single router and no hop.
fn random_walks(
    n: u32,
    edges: &[(u32, u32)],
    walks: &[(u32, Vec<(usize, u8)>)],
) -> Vec<(Vec<u32>, Vec<u8>)> {
    let mut simple: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(a, b)| (a % n, b % n))
        .filter(|&(a, b)| a != b)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    simple.sort_unstable();
    simple.dedup();
    let g = sf_graph::Graph::from_edges(n as usize, &simple);
    walks
        .iter()
        .map(|(start, steps)| {
            let mut path = vec![start % n];
            let mut vcs = Vec::new();
            for &(choice, vc) in steps {
                let nb = g.neighbors(*path.last().unwrap());
                if nb.is_empty() {
                    break;
                }
                path.push(nb[choice % nb.len()]);
                vcs.push(vc);
            }
            (path, vcs)
        })
        .collect()
}

/// The naive model of a CDG fed paths in order: channels in
/// first-seen order and the set of consecutive channel pairs.
#[derive(Default)]
struct NaiveCdg {
    chans: Vec<Chan>,
    edges: BTreeSet<(Chan, Chan)>,
}

impl NaiveCdg {
    fn see(&mut self, c: Chan) {
        if !self.chans.contains(&c) {
            self.chans.push(c);
        }
    }

    fn add_path(&mut self, path: &[u32], vcs: &[u8]) {
        let hops: Vec<Chan> = path
            .windows(2)
            .zip(vcs)
            .map(|(w, &vc)| (w[0], w[1], vc))
            .collect();
        for &c in &hops {
            self.see(c);
        }
        for pair in hops.windows(2) {
            self.edges.insert((pair[0], pair[1]));
        }
    }

    /// Asserts `cdg` has exactly this model's channels (same dense
    /// ids) and edges.
    fn check(&self, cdg: &ChannelDependencyGraph) {
        assert_eq!(cdg.num_channels(), self.chans.len());
        for (id, &c) in self.chans.iter().enumerate() {
            assert_eq!(cdg.channel(id as u32), c);
            assert_eq!(cdg.channel_id_of(c), Some(id as u32));
        }
        assert_eq!(cdg.num_edges(), self.edges.len());
        let edges: BTreeSet<(Chan, Chan)> = cdg.edges().collect();
        assert_eq!(&edges, &self.edges);
    }
}

fn slimfly_graph(q: u32) -> sf_graph::Graph {
    SlimFly::new(q).unwrap().router_graph()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hop_index_always_deadlock_free(
        q in prop::sample::select(&[5u32, 7][..]),
        seeds in prop::collection::vec(0u64..500, 1..20),
    ) {
        // Any mixture of random minimal + Valiant paths is deadlock-free
        // under the hop-index VC assignment.
        let g = slimfly_graph(q);
        let n = g.num_vertices() as u32;
        let t = RoutingTables::new(&g);
        let gen = PathGen::new(&g, &t);
        let mut paths = Vec::new();
        for seed in seeds {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = (seed % n as u64) as u32;
            let d = ((seed * 31 + 7) % n as u64) as u32;
            paths.push(gen.min_path(s, d, &mut rng));
            paths.push(gen.valiant_path(s, d, false, &mut rng));
        }
        prop_assert!(hop_index_is_deadlock_free(&paths));
    }

    #[test]
    fn single_vc_detects_ring_cycles(len in 3u32..12) {
        // Paths chasing each other around a ring on one VC must be
        // reported cyclic (with a closed witness); hop-index clears it.
        let paths: Vec<Vec<u32>> = (0..len)
            .map(|i| vec![i, (i + 1) % len, (i + 2) % len])
            .collect();
        let mut cdg = ChannelDependencyGraph::new();
        for p in &paths {
            cdg.add_path(p, &[0, 0]);
        }
        prop_assert!(!cdg.is_acyclic());
        let w = cdg.find_cycle().expect("cyclic CDG yields a witness");
        prop_assert!(w.len() >= 2);
        prop_assert_eq!(w.first(), w.last());
        prop_assert!(hop_index_is_deadlock_free(&paths));
    }

    #[test]
    fn try_add_path_rollback_preserves_acyclicity(len in 3u32..10) {
        // After a rejected insertion the CDG stays acyclic and accepts
        // non-conflicting paths again.
        let mut cdg = ChannelDependencyGraph::new();
        let ring: Vec<Vec<u32>> = (0..len)
            .map(|i| vec![i, (i + 1) % len, (i + 2) % len])
            .collect();
        let mut rejected = 0;
        for p in &ring {
            if !cdg.try_add_path_acyclic(p, 0) {
                rejected += 1;
            }
        }
        prop_assert!(rejected >= 1, "the full ring cannot fit one layer");
        prop_assert!(cdg.is_acyclic());
        // A fresh disjoint path (vertex ids beyond the ring) must insert.
        let far = vec![100, 101, 102];
        prop_assert!(cdg.try_add_path_acyclic(&far, 0));
        prop_assert!(cdg.is_acyclic());
    }

    #[test]
    fn cdg_index_matches_naive_channel_pairs(
        n in 2u32..9,
        edges in prop::collection::vec((0u32..9, 0u32..9), 1..20),
        walks in prop::collection::vec(
            (0u32..9, prop::collection::vec((0usize..16, 0u8..3), 0..6)),
            1..24,
        ),
        by_edge in prop::collection::vec(any::<bool>(), 24),
    ) {
        // The per-tail key index is unobservable: ids come out dense
        // in first-seen order and the edge set is exactly the set of
        // consecutive channel pairs, whether paths arrive whole or as
        // explicit edges.
        let mut cdg = ChannelDependencyGraph::new();
        let mut naive = NaiveCdg::default();
        for (i, (path, vcs)) in random_walks(n, &edges, &walks).iter().enumerate() {
            if by_edge[i] {
                // Explicit edges register no channel for a one-hop walk.
                for (w, v) in path.windows(3).zip(vcs.windows(2)) {
                    cdg.add_edge((w[0], w[1], v[0]), (w[1], w[2], v[1]));
                }
                if path.len() >= 3 {
                    naive.add_path(path, vcs);
                }
            } else {
                cdg.add_path(path, vcs);
                naive.add_path(path, vcs);
            }
        }
        naive.check(&cdg);
        // A self-loop channel is never seen.
        prop_assert_eq!(cdg.channel_id_of((0, 0, 0)), None);
        prop_assert_eq!(cdg.channel_id_of((100, 0, 0)), None);
    }

    #[test]
    fn rejected_paths_leave_no_trace_in_the_index(
        n in 3u32..9,
        edges in prop::collection::vec((0u32..9, 0u32..9), 3..20),
        walks in prop::collection::vec(
            (0u32..9, prop::collection::vec((0usize..16, 0u8..1), 1..6)),
            1..24,
        ),
    ) {
        // After each try_add_path_acyclic the graph equals the naive
        // model of the accepted paths only: a rejected path's new
        // channels leave the index, so the next new channel gets the
        // next dense id.
        let mut cdg = ChannelDependencyGraph::new();
        let mut naive = NaiveCdg::default();
        for (path, vcs) in random_walks(n, &edges, &walks) {
            if cdg.try_add_path_acyclic(&path, 0) {
                naive.add_path(&path, &vcs);
            }
            naive.check(&cdg);
            prop_assert!(cdg.is_acyclic());
        }
        let next = cdg.num_channels() as u32;
        cdg.add_edge((100, 101, 0), (101, 102, 0));
        prop_assert_eq!(cdg.channel_id_of((100, 101, 0)), Some(next));
        prop_assert_eq!(cdg.channel_id_of((101, 102, 0)), Some(next + 1));
    }

    #[test]
    fn hop_index_vcs_strictly_increase(path_len in 2usize..8) {
        let path: Vec<u32> = (0..path_len as u32).collect();
        let vcs = hop_index_vcs(&path);
        for w in vcs.windows(2) {
            prop_assert!(w[1] == w[0] + 1);
        }
    }

    #[test]
    fn wormhole_cdg_acyclic_at_engine_budget_on_slimfly(
        q in prop::sample::select(&[5u32, 7][..]),
        scheme in prop::sample::select(
            &[RoutingSpec::Min, RoutingSpec::Valiant { cap3: false }, RoutingSpec::UgalL { candidates: 4 }][..],
        ),
    ) {
        // The engine's default budget (4 VCs) covers MIN, VAL and UGAL
        // on every diameter-2 Slim Fly: hop bound ≤ 4 ⇒ the ladder
        // never clamps ⇒ the wormhole-aware CDG is acyclic.
        let g = slimfly_graph(q);
        let t = RoutingTables::new(&g);
        let w = wormhole_cdg(&g, &t, &scheme, 4).unwrap();
        prop_assert!(!w.clamped, "hop bound {} must fit 4 VCs", w.max_hops);
        prop_assert!(w.cdg.is_acyclic());
    }

    #[test]
    fn wormhole_cdg_acyclic_at_engine_budget_on_random_dln(
        nr in prop::sample::select(&[16usize, 24, 32][..]),
        seed in 0u64..50,
        scheme in prop::sample::select(
            &[RoutingSpec::Min, RoutingSpec::Valiant { cap3: false }, RoutingSpec::UgalG { candidates: 4 }][..],
        ),
    ) {
        // Random DLNs have larger diameters; give the ladder exactly
        // the scheme's hop bound so it cannot clamp, then the CDG must
        // be acyclic — the strictly-increasing-VC argument, checked
        // explicitly edge by edge.
        let g = RandomDln::new(nr, 2, seed).router_graph();
        let t = RoutingTables::new(&g);
        let diam = t.max_distance() as usize;
        let budget = match scheme {
            RoutingSpec::Min => diam.max(1),
            _ => (2 * diam).max(1),
        };
        let w = wormhole_cdg(&g, &t, &scheme, budget).unwrap();
        prop_assert!(!w.clamped);
        prop_assert!(w.cdg.is_acyclic(), "scheme {scheme:?} on nr={nr} seed={seed}");
    }

    #[test]
    fn under_budgeted_rings_are_caught_with_a_witness(len in 4u32..12) {
        // Negative certification: MIN on a ring with 1 VC deadlocks,
        // and verify_combo must prove it with a closed cycle witness.
        let edges: Vec<(u32, u32)> = (0..len).map(|i| (i, (i + 1) % len)).collect();
        let g = sf_graph::Graph::from_edges(len as usize, &edges);
        let t = RoutingTables::new(&g);
        let err = verify_combo("ring", &g, &t, &RoutingSpec::Min, 1, 1)
            .expect_err("a 1-VC ring must fail certification");
        match err {
            VerifyError::Deadlock { witness, num_vcs, .. } => {
                prop_assert_eq!(num_vcs, 1);
                prop_assert!(witness.len() >= 2);
                prop_assert_eq!(witness.first(), witness.last());
                // Every witness link is a real ring edge on VC 0.
                for &(u, v, vc) in &witness {
                    prop_assert_eq!(vc, 0);
                    prop_assert!(g.has_edge(u, v));
                }
            }
            other => prop_assert!(false, "expected Deadlock, got {other}"),
        }
    }
}

#[test]
fn deadlock_witnesses_are_pinned() {
    // Channel ids are first-seen, so the witness a CDG yields is a
    // fixed function of the builder's insertion order. These strings
    // were captured with the earlier `BTreeMap` key index.
    let edges: Vec<(u32, u32)> = (0..8u32).map(|i| (i, (i + 1) % 8)).collect();
    let ring = sf_graph::Graph::from_edges(8, &edges);
    let t = RoutingTables::new(&ring);
    let w = wormhole_cdg(&ring, &t, &RoutingSpec::Min, 1).unwrap();
    assert_eq!((w.cdg.num_channels(), w.cdg.num_edges()), (16, 16));
    assert_eq!(
        render_witness(&w.cdg.find_cycle().unwrap()),
        "(0→1 vc0) → (1→2 vc0) → (2→3 vc0) → (3→4 vc0) → (4→5 vc0) → (5→6 vc0) → \
         (6→7 vc0) → (7→0 vc0) → (0→1 vc0)"
    );

    let p3 = sf_graph::Graph::from_edges(3, &[(0, 1), (1, 2)]);
    let t = RoutingTables::new(&p3);
    let w = wormhole_cdg(&p3, &t, &RoutingSpec::Valiant { cap3: false }, 1).unwrap();
    assert_eq!((w.cdg.num_channels(), w.cdg.num_edges()), (4, 6));
    assert_eq!(
        render_witness(&w.cdg.find_cycle().unwrap()),
        "(1→0 vc0) → (0→1 vc0) → (1→0 vc0)"
    );
}

#[test]
fn fatpaths_hop_index_vcs_stay_deadlock_free() {
    // The engine routes FatPaths packets with the hop-index VC scheme;
    // the channel dependency graph over all layers' paths must stay
    // acyclic (§IV-D, validated via the CDG checker). Relocated from
    // sf-routing when the deadlock machinery moved here.
    let g = slimfly_graph(5);
    let t = RoutingTables::new(&g);
    let fp = FatPathsRouter::build(&g, &t, 3, FATPATHS_SEED).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut cdg = ChannelDependencyGraph::new();
    let mut all_paths = Vec::new();
    for l in 0..fp.num_layers() {
        let gen = PathGen::new(fp.layer_graph(l), fp.layer_tables(l));
        for s in 0..g.num_vertices() as u32 {
            for d in 0..g.num_vertices() as u32 {
                if s == d {
                    continue;
                }
                let p = gen.min_path(s, d, &mut rng);
                cdg.add_path(&p, &hop_index_vcs(&p));
                all_paths.push(p);
            }
        }
    }
    assert!(cdg.is_acyclic(), "hop-index CDG over all layers");
    assert!(hop_index_is_deadlock_free(&all_paths));
}
