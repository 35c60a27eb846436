//! Property-based tests for coupling-map invariants.

use proptest::prelude::*;
use qcs_topology::{
    bfs_order, complete, connected_components, connected_subgraph_from, diameter,
    disjoint_connected_partition, grid, heavy_hex, is_connected, line, ring, torus, Graph,
};

/// Induces the subgraph on `nodes` and checks it is connected.
fn induced_connected(g: &Graph, nodes: &[u32]) -> bool {
    if nodes.is_empty() {
        return true;
    }
    let set: std::collections::HashSet<u32> = nodes.iter().copied().collect();
    let mut visited = std::collections::HashSet::new();
    let mut queue = std::collections::VecDeque::new();
    visited.insert(nodes[0]);
    queue.push_back(nodes[0]);
    while let Some(v) = queue.pop_front() {
        for &w in g.neighbors(v) {
            if set.contains(&w) && visited.insert(w) {
                queue.push_back(w);
            }
        }
    }
    visited.len() == nodes.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Heavy-hex lattices of any size are connected with degree ≤ 3.
    #[test]
    fn heavy_hex_invariants(rows in 2usize..12, cols in 5usize..20) {
        let g = heavy_hex(rows, cols);
        prop_assert!(is_connected(&g), "heavy_hex({rows},{cols}) disconnected");
        prop_assert!(g.max_degree() <= 3, "heavy_hex degree > 3");
        prop_assert!(g.num_nodes() >= rows * (cols - 1));
    }

    /// BFS from any start visits exactly the start's component, once each.
    #[test]
    fn bfs_visits_component_once(rows in 2usize..6, cols in 2usize..6, start_idx in 0usize..36) {
        let g = grid(rows, cols);
        let start = (start_idx % g.num_nodes()) as u32;
        let order = bfs_order(&g, start);
        prop_assert_eq!(order.len(), g.num_nodes(), "grid is connected");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), order.len(), "node visited twice");
        prop_assert_eq!(order[0], start);
    }

    /// Components partition the node set.
    #[test]
    fn components_partition_nodes(edges in proptest::collection::vec((0u32..30, 0u32..30), 0..60)) {
        let mut g = Graph::new(30);
        let mut seen = std::collections::HashSet::new();
        for (a, b) in edges {
            if a != b && seen.insert((a.min(b), a.max(b))) {
                g.add_edge(a, b);
            }
        }
        let comps = connected_components(&g);
        let mut all: Vec<u32> = comps.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..30).collect::<Vec<u32>>());
    }

    /// Any BFS-prefix sub-graph extraction yields a connected set of the
    /// requested size.
    #[test]
    fn connected_subgraph_is_connected(rows in 2usize..8, cols in 5usize..12, frac in 0.05f64..1.0) {
        let g = heavy_hex(rows, cols);
        let size = ((g.num_nodes() as f64 * frac) as usize).max(1);
        let sub = connected_subgraph_from(&g, 0, size).expect("within component size");
        prop_assert_eq!(sub.len(), size);
        prop_assert!(induced_connected(&g, &sub));
    }

    /// Disjoint partitions, when found, are disjoint, exact-sized and each
    /// connected.
    #[test]
    fn disjoint_partition_invariants(sizes in proptest::collection::vec(1usize..40, 1..4)) {
        let g = heavy_hex(7, 15); // the 127-qubit Eagle
        if let Some(parts) = disjoint_connected_partition(&g, &sizes) {
            let mut all: Vec<u32> = Vec::new();
            for (part, &want) in parts.iter().zip(&sizes) {
                prop_assert_eq!(part.len(), want);
                prop_assert!(induced_connected(&g, part));
                all.extend_from_slice(part);
            }
            let n = all.len();
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(all.len(), n, "partitions overlap");
        } else {
            // Only permissible when the total demand exceeds the lattice.
            prop_assert!(sizes.iter().sum::<usize>() > g.num_nodes() / 2,
                "refused a small partition: {:?}", sizes);
        }
    }

    /// Known diameters for standard families.
    #[test]
    fn standard_family_diameters(n in 3usize..40) {
        prop_assert_eq!(diameter(&line(n)), n - 1);
        prop_assert_eq!(diameter(&ring(n)), n / 2);
        prop_assert_eq!(diameter(&complete(n)), 1);
    }

    /// Tori are connected and 4-regular with `2·rows·cols` links, and their
    /// diameter is the sum of the two ring diameters.
    #[test]
    fn torus_regularity(rows in 3usize..7, cols in 3usize..7) {
        let g = torus(rows, cols);
        prop_assert!(is_connected(&g));
        prop_assert_eq!(g.num_edges(), 2 * rows * cols);
        prop_assert!((0..g.num_nodes() as u32).all(|v| g.degree(v) == 4));
        prop_assert_eq!(diameter(&g), rows / 2 + cols / 2);
    }

    /// Edge count identities.
    #[test]
    fn edge_count_identities(rows in 1usize..10, cols in 1usize..10) {
        let g = grid(rows, cols);
        prop_assert_eq!(g.num_nodes(), rows * cols);
        prop_assert_eq!(g.num_edges(), rows * (cols.saturating_sub(1)) + cols * (rows.saturating_sub(1)));
        // Handshake lemma.
        let degree_sum: usize = (0..g.num_nodes() as u32).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }
}
