//! # qcs-topology — qubit coupling-map graphs
//!
//! Replaces the `networkx` layer of the paper's Python framework: compact
//! undirected graphs describing which physical qubits of a QPU can interact,
//! plus the algorithms the scheduler needs (connectivity checks, connected
//! sub-graph extraction for partition feasibility, and the diameter).
//!
//! The flagship builder is [`builders::heavy_hex_eagle`], a reconstruction
//! of the 127-qubit IBM Eagle-class heavy-hex lattice used by all five
//! devices in the paper's case study (`ibm_strasbourg`, `ibm_brussels`,
//! `ibm_kyiv`, `ibm_quebec`, `ibm_kawasaki`).

#![warn(missing_docs)]

pub mod algo;
pub mod builders;
pub mod graph;

pub use algo::{
    bfs_order, connected_components, connected_subgraph_from, diameter,
    disjoint_connected_partition, is_connected, largest_component,
};
pub use builders::{
    complete, falcon27, grid, heavy_hex, heavy_hex_eagle, heavy_square, hummingbird65, line,
    random_connected, ring, torus,
};
pub use graph::Graph;
