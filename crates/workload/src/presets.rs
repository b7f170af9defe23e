//! The three evaluation networks of §6.1, as generator presets.
//!
//! | paper network | nodes | edges | character |
//! |---|---|---|---|
//! | CA (California) | 3 044 | 3 607 | sparse, large δ |
//! | AU (Australia)  | 23 269 | 30 289 | medium |
//! | NA (North America) | 86 318 | 103 042 | dense, small δ |
//!
//! All three presets fill the same 1 km x 1 km square, so the node count
//! *is* the density. δ falls with density exactly as §6.3 observes on the
//! real data: a denser network offers more routing choices, so detours are
//! both rarer and smaller.

use crate::netgen::{generate_network, NetGenConfig};
use rn_graph::RoadNetwork;

/// A named network preset matching one of the paper's datasets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Preset {
    /// California-like: 3 044 nodes / 3 607 edges, sparse.
    Ca,
    /// Australia-like: 23 269 nodes / 30 289 edges, medium density.
    Au,
    /// North-America-like: 86 318 nodes / 103 042 edges, dense.
    Na,
}

impl Preset {
    /// Display name used in benchmark tables ("CA"/"AU"/"NA").
    pub fn name(self) -> &'static str {
        match self {
            Preset::Ca => "CA",
            Preset::Au => "AU",
            Preset::Na => "NA",
        }
    }

    /// All presets in the paper's density order (sparse to dense).
    pub const ALL: [Preset; 3] = [Preset::Ca, Preset::Au, Preset::Na];

    /// The generator configuration for this preset and `seed`.
    pub fn config(self, seed: u64) -> NetGenConfig {
        match self {
            // 56*55 = 3080 nodes (paper: 3044); sparse nets force long
            // detours around missing links, hence the big stretch factors.
            Preset::Ca => NetGenConfig {
                cols: 56,
                rows: 55,
                edges: 3607,
                jitter: 0.35,
                detour_prob: 0.8,
                detour_stretch: (1.25, 2.0),
                seed,
            },
            // 153*152 = 23256 nodes (paper: 23269).
            Preset::Au => NetGenConfig {
                cols: 153,
                rows: 152,
                edges: 30_289,
                jitter: 0.32,
                detour_prob: 0.5,
                detour_stretch: (1.1, 1.5),
                seed,
            },
            // 294*294 = 86436 nodes (paper: 86318).
            Preset::Na => NetGenConfig {
                cols: 294,
                rows: 294,
                edges: 103_042,
                jitter: 0.30,
                detour_prob: 0.15,
                detour_stretch: (1.01, 1.12),
                seed,
            },
        }
    }

    /// Generates this preset's network.
    pub fn generate(self, seed: u64) -> RoadNetwork {
        generate_network(&self.config(seed))
    }

    /// Lower-bound oracle knobs tuned to this preset's density
    /// (DESIGN.md §14): sparse nets afford more landmarks per node; dense
    /// nets cap the precomputation instead.
    pub fn oracle_knobs(self) -> OracleKnobs {
        match self {
            Preset::Ca => OracleKnobs { landmarks: 16 },
            Preset::Au => OracleKnobs { landmarks: 12 },
            Preset::Na => OracleKnobs { landmarks: 8 },
        }
    }
}

/// Per-preset construction parameters for the ALT lower-bound oracle.
#[derive(Clone, Copy, Debug)]
pub struct OracleKnobs {
    /// ALT landmark count (farthest-point seeded).
    pub landmarks: usize,
}

/// California-like network (sparse; 3 080 nodes, 3 607 edges).
pub fn ca_like(seed: u64) -> RoadNetwork {
    Preset::Ca.generate(seed)
}

/// Australia-like network (medium; 23 256 nodes, 30 289 edges).
pub fn au_like(seed: u64) -> RoadNetwork {
    Preset::Au.generate(seed)
}

/// North-America-like network (dense; 86 436 nodes, 103 042 edges).
pub fn na_like(seed: u64) -> RoadNetwork {
    Preset::Na.generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::connectivity::is_connected;

    #[test]
    fn ca_matches_paper_scale() {
        let g = ca_like(1);
        assert_eq!(g.node_count(), 3080);
        assert_eq!(g.edge_count(), 3607);
        assert!(is_connected(&g));
    }

    #[test]
    fn density_order_is_ca_au_na() {
        // Node density rises CA -> AU -> NA (same square for all three).
        let ca = ca_like(1);
        let au = au_like(1);
        assert!(ca.node_count() < au.node_count());
        // NA is big; checking the config suffices for the count ordering.
        let na_cfg = Preset::Na.config(1);
        assert!(au.node_count() < na_cfg.node_count());
    }

    #[test]
    fn delta_falls_with_density() {
        let ca = ca_like(3);
        let au = au_like(3);
        assert!(
            ca.edge_delta() > au.edge_delta(),
            "CA δ {} must exceed AU δ {}",
            ca.edge_delta(),
            au.edge_delta()
        );
    }

    #[test]
    fn preset_names() {
        assert_eq!(Preset::Ca.name(), "CA");
        assert_eq!(Preset::ALL.len(), 3);
    }
}
