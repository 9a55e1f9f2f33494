//! Property tests for the A* router: path optimality against a reference
//! BFS on randomized congestion states, bit-identical equivalence of the
//! bucket-queue open set to the PR 3 binary-heap A* (paths *and* failed
//! searches), and the batched per-cycle API's equivalence to sequential
//! per-gate routing.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use ecmas_chip::{Chip, CodeModel};
use ecmas_route::{Disjointness, Path, RouteRequest, Router};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A router over a random chip with a random set of mapped tiles and a
/// few randomly committed cycle-0 paths, plus a mirror of the reservation
/// state maintained *outside* the router (so the reference BFS shares no
/// code with the implementation under test).
struct CongestedSetup {
    router: Router,
    mode: Disjointness,
    mapped: Vec<usize>,
    /// Node-mode: cells reserved at cycle 0 (committed path interiors).
    busy_cells: HashSet<usize>,
    /// Edge-mode: edges reserved at cycle 0, as `(min, max)` cell pairs.
    busy_edges: HashSet<(usize, usize)>,
    /// Cells hosting mapped tiles (never traversable).
    tile_cells: HashSet<usize>,
}

fn congested_setup(
    rows: usize,
    cols: usize,
    bw: u32,
    node_mode: bool,
    seed: u64,
) -> CongestedSetup {
    let (model, mode) = if node_mode {
        (CodeModel::DoubleDefect, Disjointness::Node)
    } else {
        (CodeModel::LatticeSurgery, Disjointness::Edge)
    };
    let chip = Chip::uniform(model, rows, cols, bw, 3).unwrap();
    let mut router = Router::new(chip.grid(), mode);
    let mut rng = SmallRng::seed_from_u64(seed);
    let slots = rows * cols;
    let mut mapped: Vec<usize> = (0..slots).filter(|_| rng.gen_bool(0.8)).collect();
    if mapped.len() < 2 {
        mapped = vec![0, slots - 1];
    }
    let mut tile_cells = HashSet::new();
    for &slot in &mapped {
        router.block_tile(slot);
        tile_cells.insert(router.grid().tile_cell(slot));
    }
    // Commit a few random paths at cycle 0 to build congestion, mirroring
    // every reservation in the test's own state.
    let mut busy_cells = HashSet::new();
    let mut busy_edges = HashSet::new();
    for _ in 0..mapped.len().min(6) {
        let a = mapped[rng.gen_range(0..mapped.len())];
        let b = mapped[rng.gen_range(0..mapped.len())];
        if a == b {
            continue;
        }
        if let Some(path) = router.route_tiles(a, b, 0, 1) {
            busy_cells.extend(path.interior().iter().copied());
            for w in path.cells().windows(2) {
                busy_edges.insert((w[0].min(w[1]), w[0].max(w[1])));
            }
        }
    }
    CongestedSetup { router, mode, mapped, busy_cells, busy_edges, tile_cells }
}

/// Reference shortest-path oracle: plain BFS over the mirrored
/// reservation state, with the router's availability rules (tile
/// endpoints exempt, interiors must be unmapped and unreserved, edge mode
/// reserves edges instead of cells).
fn bfs_len(setup: &CongestedSetup, from_slot: usize, to_slot: usize) -> Option<usize> {
    let grid = setup.router.grid();
    let (from, to) = (grid.tile_cell(from_slot), grid.tile_cell(to_slot));
    let cell_ok = |c: usize| {
        !setup.tile_cells.contains(&c)
            && (setup.mode == Disjointness::Edge || !setup.busy_cells.contains(&c))
    };
    let edge_ok = |a: usize, b: usize| {
        setup.mode == Disjointness::Node || !setup.busy_edges.contains(&(a.min(b), a.max(b)))
    };
    let mut dist = vec![usize::MAX; grid.len()];
    let mut queue = VecDeque::new();
    dist[from] = 0;
    queue.push_back(from);
    while let Some(cur) = queue.pop_front() {
        for next in grid.neighbors(cur) {
            if dist[next] != usize::MAX || !edge_ok(cur, next) {
                continue;
            }
            if next == to {
                return Some(dist[cur] + 1);
            }
            if !cell_ok(next) {
                continue;
            }
            dist[next] = dist[cur] + 1;
            queue.push_back(next);
        }
    }
    None
}

/// An independent replica of the PR 3 router's search: A* over a binary
/// heap keyed `(f << 32) | seq` (f-score high, FIFO push counter low),
/// neighbor order up/down/left/right, running on the *mirrored*
/// reservation state. The bucket-queue router must reproduce its full
/// cell sequences — not just lengths — and its exact `None`s.
fn heap_astar_path(setup: &CongestedSetup, from_slot: usize, to_slot: usize) -> Option<Vec<usize>> {
    let grid = setup.router.grid();
    let (from, to) = (grid.tile_cell(from_slot), grid.tile_cell(to_slot));
    let cell_ok = |c: usize| {
        !setup.tile_cells.contains(&c)
            && (setup.mode == Disjointness::Edge || !setup.busy_cells.contains(&c))
    };
    let edge_ok = |a: usize, b: usize| {
        setup.mode == Disjointness::Node || !setup.busy_edges.contains(&(a.min(b), a.max(b)))
    };
    let (cols, rows) = (grid.cols(), grid.rows());
    let (to_r, to_c) = grid.coords(to);
    let manhattan = |cell: usize| -> u64 {
        ((cell / cols).abs_diff(to_r) + (cell % cols).abs_diff(to_c)) as u64
    };
    let mut g_score = vec![u32::MAX; grid.len()];
    let mut parent = vec![usize::MAX; grid.len()];
    let mut open: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    g_score[from] = 0;
    let mut seq: u64 = 0;
    open.push(Reverse((manhattan(from) << 32, u32::try_from(from).unwrap())));
    let mut found = false;
    while let Some(Reverse((key, cell))) = open.pop() {
        let cur = cell as usize;
        if key >> 32 != u64::from(g_score[cur]) + manhattan(cur) {
            continue;
        }
        let (r, c) = (cur / cols, cur % cols);
        let neighbors = [
            (r > 0).then(|| cur - cols),
            (r + 1 < rows).then(|| cur + cols),
            (c > 0).then(|| cur - 1),
            (c + 1 < cols).then(|| cur + 1),
        ];
        for next in neighbors.into_iter().flatten() {
            if !edge_ok(cur, next) {
                continue;
            }
            if next == to {
                parent[next] = cur;
                found = true;
                break;
            }
            if !cell_ok(next) {
                continue;
            }
            let ng = g_score[cur] + 1;
            if g_score[next] <= ng {
                continue;
            }
            g_score[next] = ng;
            parent[next] = cur;
            seq += 1;
            let f = u64::from(ng) + manhattan(next);
            open.push(Reverse(((f << 32) | seq, u32::try_from(next).unwrap())));
        }
        if found {
            break;
        }
    }
    if !found {
        return None;
    }
    let mut cells = vec![to];
    let mut cur = to;
    while cur != from {
        cur = parent[cur];
        cells.push(cur);
    }
    cells.reverse();
    Some(cells)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bucket-queue open set is the old binary heap, bit for bit: on
    /// every randomized congestion state the router returns exactly the
    /// reference replica's cell sequence for routable pairs and exactly
    /// its `None` for unroutable ones (where the reachability cache may
    /// answer without searching — the verdict must still agree).
    #[test]
    fn bucket_queue_astar_is_bit_identical_to_heap_astar(
        rows in 1usize..4,
        cols in 1usize..4,
        bw in 1u32..3,
        node_mode in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let mut setup = congested_setup(rows, cols, bw, node_mode == 1, seed);
        let pairs: Vec<(usize, usize)> = setup
            .mapped
            .iter()
            .flat_map(|&a| setup.mapped.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a != b)
            .collect();
        for (a, b) in pairs {
            let want = heap_astar_path(&setup, a, b);
            let got = setup.router.find_tile_path(a, b, 0);
            prop_assert_eq!(
                got.map(|p| p.cells().to_vec()),
                want,
                "{:?} {}->{} (rows={} cols={} bw={} seed={})",
                setup.mode, a, b, rows, cols, bw, seed
            );
        }
    }

    /// On every randomized congestion state, in both disjointness modes,
    /// the A* router finds a path exactly when BFS does, of exactly the
    /// same length (the Manhattan bound is admissible, so A* stays
    /// shortest), and the found path checks out against the reservations.
    #[test]
    fn astar_matches_reference_bfs(
        rows in 1usize..4,
        cols in 1usize..4,
        bw in 1u32..3,
        node_mode in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let mut setup = congested_setup(rows, cols, bw, node_mode == 1, seed);
        let pairs: Vec<(usize, usize)> = setup
            .mapped
            .iter()
            .flat_map(|&a| setup.mapped.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a < b)
            .collect();
        for (a, b) in pairs {
            let want = bfs_len(&setup, a, b);
            let got = setup.router.find_tile_path(a, b, 0);
            prop_assert_eq!(
                got.as_ref().map(Path::len),
                want,
                "{:?} {}->{} (rows={} cols={} bw={} seed={})",
                setup.mode, a, b, rows, cols, bw, seed
            );
            if let Some(path) = got {
                // Endpoints are the tile cells; every interior cell/edge
                // respects the mirrored reservations.
                let grid = setup.router.grid();
                prop_assert_eq!(path.cells()[0], grid.tile_cell(a));
                prop_assert_eq!(*path.cells().last().unwrap(), grid.tile_cell(b));
                for &c in path.interior() {
                    prop_assert!(!setup.tile_cells.contains(&c));
                    if setup.mode == Disjointness::Node {
                        prop_assert!(!setup.busy_cells.contains(&c));
                    }
                }
                if setup.mode == Disjointness::Edge {
                    for w in path.cells().windows(2) {
                        prop_assert!(!setup.busy_edges.contains(&(w[0].min(w[1]), w[0].max(w[1]))));
                    }
                }
            }
        }
    }

    /// `route_ready` is event-for-event the sequential per-gate loop:
    /// same outcomes at the same positions, same router statistics, and
    /// the same reservation state afterwards (probed via a follow-up
    /// search).
    #[test]
    fn batched_routing_equals_sequential(
        rows in 1usize..4,
        cols in 1usize..4,
        bw in 1u32..3,
        node_mode in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let setup = congested_setup(rows, cols, bw, node_mode == 1, seed);
        let mut batched = setup.router.clone();
        let mut sequential = setup.router.clone();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xBA7C4);
        let m = setup.mapped.len();
        let requests: Vec<RouteRequest> = (0..12)
            .filter_map(|_| {
                let a = setup.mapped[rng.gen_range(0..m)];
                let b = setup.mapped[rng.gen_range(0..m)];
                if a == b {
                    return None;
                }
                Some(if rng.gen_bool(0.25) {
                    RouteRequest::probe(a, b)
                } else {
                    RouteRequest::route(a, b, rng.gen_range(1u64..3))
                })
            })
            .collect();
        let mut got = Vec::new();
        batched.route_ready(&requests, 0, &mut got);
        let want: Vec<Option<Path>> = requests
            .iter()
            .map(|req| {
                let path = sequential.find_tile_path(req.from_slot, req.to_slot, 0)?;
                if req.commit {
                    sequential.commit(&path, 0, req.hold);
                }
                Some(path)
            })
            .collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(batched.stats(), sequential.stats());
        // Identical reservation state afterwards: any follow-up search
        // agrees between the two routers.
        for (a, b) in [(setup.mapped[0], setup.mapped[m - 1])] {
            if a != b {
                prop_assert_eq!(batched.find_tile_path(a, b, 0), sequential.find_tile_path(a, b, 0));
                prop_assert_eq!(batched.find_tile_path(a, b, 2), sequential.find_tile_path(a, b, 2));
            }
        }
    }

    /// `route_ready_by_distance` equals stable-sorting the batch by the
    /// router's own distance estimate, routing sequentially in that
    /// order, and scattering the outcomes back to the original positions.
    #[test]
    fn distance_ordered_batch_equals_presorted_sequential(
        rows in 1usize..4,
        cols in 1usize..4,
        bw in 1u32..3,
        node_mode in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let setup = congested_setup(rows, cols, bw, node_mode == 1, seed);
        let mut batched = setup.router.clone();
        let mut sequential = setup.router.clone();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD157);
        let m = setup.mapped.len();
        let requests: Vec<RouteRequest> = (0..10)
            .filter_map(|_| {
                let a = setup.mapped[rng.gen_range(0..m)];
                let b = setup.mapped[rng.gen_range(0..m)];
                (a != b).then(|| RouteRequest::route(a, b, 1))
            })
            .collect();
        let mut got = Vec::new();
        batched.route_ready_by_distance(&requests, 0, &mut got);
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| {
            sequential.estimated_distance(requests[i].from_slot, requests[i].to_slot)
        });
        let mut want: Vec<Option<Path>> = vec![None; requests.len()];
        for i in order {
            let req = requests[i];
            want[i] = sequential.find_tile_path(req.from_slot, req.to_slot, 0).inspect(|path| {
                sequential.commit(path, 0, req.hold);
            });
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(batched.stats(), sequential.stats());
    }
}
