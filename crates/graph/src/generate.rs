//! Synthetic dynamic-graph generation.
//!
//! The paper evaluates on five real dynamic graphs (Table 2) that are not
//! redistributable here, so this module generates synthetic equivalents: a
//! power-law (Chung-Lu style) base graph evolved by per-snapshot churn
//! (feature mutations, edge rewiring, rare vertex churn). The presets below
//! carry Table 2's vertex/edge/dimension counts and churn levels calibrated
//! so the unaffected-vertex ratios of Fig. 3(a) land in the reported bands
//! (27.3–45.3 % at window 3, 10.6–24.4 % at window 4, averaged across
//! datasets).

use crate::csr::Csr;
use crate::delta::{apply_updates, GraphUpdate};
use crate::dynamic::DynamicGraph;
use crate::snapshot::Snapshot;
use crate::types::VertexId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use tagnn_tensor::DenseMatrix;

/// Churn applied between consecutive snapshots, as fractions per snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Fraction of vertices whose feature vector mutates.
    pub feature_mutation_rate: f64,
    /// Fraction of edges removed and replaced by fresh random edges.
    pub edge_rewire_rate: f64,
    /// Fraction of vertices toggled (removed if active, added if not).
    pub vertex_churn_rate: f64,
    /// How much of the previous feature a mutation retains, in `[0, 1]`:
    /// `x' = s*x + (1-s)*fresh`. Real vertex features drift smoothly
    /// rather than being resampled wholesale (the temporal stability of
    /// §2.3 that similarity-aware skipping exploits); `0.0` reproduces a
    /// full resample.
    pub mutation_smoothness: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            feature_mutation_rate: 0.02,
            edge_rewire_rate: 0.01,
            vertex_churn_rate: 0.001,
            mutation_smoothness: 0.7,
        }
    }
}

/// Full generator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Vertex universe size.
    pub num_vertices: usize,
    /// Target directed-edge count of the base snapshot.
    pub num_edges: usize,
    /// Feature dimensionality D.
    pub feature_dim: usize,
    /// Number of snapshots T to generate.
    pub num_snapshots: usize,
    /// Power-law exponent of the degree weights (higher = more skewed).
    pub power_law_alpha: f64,
    /// Per-snapshot churn.
    pub churn: ChurnConfig,
    /// RNG seed (ChaCha8; fully deterministic).
    pub seed: u64,
    /// Fraction of vertices whose feature row is forced all-zero, in
    /// `[0, 1)`. At `0.0` (the default, and what every Table 2 preset
    /// uses) the generator draws every entry exactly as it always has —
    /// the RNG stream, and thus every existing golden digest, is
    /// unchanged. Above 0.0 each row first draws a support coin;
    /// winners of the sparsity coin stay all-zero (sparse one-hot-like
    /// inputs, the operand shape the SpMM dispatch path exists for),
    /// and feature mutations re-toss the coin so the expected density
    /// stays stationary under churn.
    #[serde(default)]
    pub feature_row_sparsity: f64,
    /// Periodic churn bursts — the flash-crowd hostile regime. `None`
    /// (the default, and what every pre-existing preset uses) leaves the
    /// per-step churn draw exactly as it always was, so legacy RNG
    /// streams and golden digests are unchanged. With a burst config,
    /// every `period`-th evolution step multiplies the churn rates,
    /// collapsing the unaffected-vertex ratio toward zero on burst
    /// steps — the regime where TaGNN's reuse premise degrades
    /// (ROADMAP item 4b).
    #[serde(default)]
    pub burst: Option<BurstConfig>,
}

/// Flash-crowd burst shape: every `period`-th step runs the base churn
/// rates multiplied up (capped at 1.0), quiet steps run them as-is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstConfig {
    /// Burst every `period` steps (steps `period`, `2·period`, …);
    /// `0` disables bursts.
    pub period: usize,
    /// Multiplier on `feature_mutation_rate` during a burst.
    pub feature_multiplier: f64,
    /// Multiplier on `edge_rewire_rate` during a burst.
    pub edge_multiplier: f64,
    /// Multiplier on `vertex_churn_rate` during a burst.
    pub vertex_multiplier: f64,
}

impl GeneratorConfig {
    /// A small default config suitable for unit tests.
    pub fn tiny() -> Self {
        Self {
            num_vertices: 64,
            num_edges: 256,
            feature_dim: 8,
            num_snapshots: 6,
            power_law_alpha: 0.8,
            churn: ChurnConfig::default(),
            seed: 42,
            feature_row_sparsity: 0.0,
            burst: None,
        }
    }

    /// A sparse, high-churn serving preset: ~12 % of feature rows are
    /// nonzero and churn runs hot, so the dispatch layer's density
    /// measurement actually sees sparse operands and the auto-vs-dense
    /// A/B exercises the SpMM path (the Table 2 presets are fully
    /// dense, which left that A/B dead).
    pub fn sparse_high_churn(num_snapshots: usize) -> Self {
        Self {
            num_vertices: 512,
            num_edges: 2_048,
            feature_dim: 32,
            num_snapshots,
            power_law_alpha: 0.9,
            churn: ChurnConfig {
                feature_mutation_rate: 0.30,
                edge_rewire_rate: 0.05,
                vertex_churn_rate: 0.002,
                mutation_smoothness: 0.5,
            },
            seed: 0x5BA3,
            feature_row_sparsity: 0.88,
            burst: None,
        }
    }

    /// The flash-crowd hostile-churn preset (ROADMAP item 4b): already-hot
    /// baseline churn with periodic burst steps that multiply it to
    /// saturation — burst snapshots mutate over half the universe's
    /// features and rewire a quarter of the edges, so the window
    /// classification's unaffected ratio collapses toward zero and the
    /// serving layer's skip-band degradation, plan fallbacks, and (with
    /// durability on) WAL/checkpoint machinery are exercised under
    /// adversarial load instead of well-behaved churn.
    pub fn flash_crowd(num_snapshots: usize) -> Self {
        Self {
            num_vertices: 512,
            num_edges: 2_048,
            feature_dim: 32,
            num_snapshots,
            power_law_alpha: 0.9,
            churn: ChurnConfig {
                feature_mutation_rate: 0.08,
                edge_rewire_rate: 0.04,
                vertex_churn_rate: 0.004,
                mutation_smoothness: 0.3,
            },
            seed: 0xF1A5,
            feature_row_sparsity: 0.0,
            burst: Some(BurstConfig {
                period: 3,
                feature_multiplier: 8.0,
                edge_multiplier: 6.0,
                vertex_multiplier: 4.0,
            }),
        }
    }

    /// Generates the dynamic graph described by this config.
    pub fn generate(&self) -> DynamicGraph {
        assert!(self.num_vertices > 1, "need at least two vertices");
        assert!(self.num_snapshots >= 1, "need at least one snapshot");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let n = self.num_vertices;

        // Chung-Lu style weights: w_i proportional to (i+1)^(-alpha).
        let weights: Vec<f64> = (0..n)
            .map(|i| ((i + 1) as f64).powf(-self.power_law_alpha))
            .collect();
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let total = *cumulative.last().unwrap();
        let sample_vertex = |rng: &mut ChaCha8Rng| -> VertexId {
            let x = rng.gen_range(0.0..total);
            cumulative.partition_point(|&c| c < x).min(n - 1) as VertexId
        };

        // Base edges.
        let mut edges = Vec::with_capacity(self.num_edges);
        while edges.len() < self.num_edges {
            let s = sample_vertex(&mut rng);
            let t = sample_vertex(&mut rng);
            if s != t {
                edges.push((s, t));
            }
        }
        // Zero sparsity must take exactly the historical draw sequence
        // (presets and golden digests depend on it); the sparse path
        // draws one support coin per row, then fills only winners.
        let features = if self.feature_row_sparsity <= 0.0 {
            DenseMatrix::from_fn(n, self.feature_dim, |_, _| rng.gen_range(-1.0..1.0))
        } else {
            let density = (1.0 - self.feature_row_sparsity).max(0.0);
            let d = self.feature_dim;
            let mut data = vec![0.0f32; n * d];
            for row in data.chunks_exact_mut(d) {
                if rng.gen_range(0.0..1.0) < density {
                    for x in row {
                        *x = rng.gen_range(-1.0..1.0);
                    }
                }
            }
            DenseMatrix::from_vec(n, d, data)
        };
        let mut snapshots = Vec::with_capacity(self.num_snapshots);
        snapshots.push(Snapshot::fully_active(Csr::from_edges(n, &edges), features));

        // Evolve.
        for step in 1..self.num_snapshots {
            let prev = snapshots.last().unwrap();
            let updates = self.churn_updates(prev, &mut rng, step);
            snapshots.push(apply_updates(prev, &updates));
        }
        DynamicGraph::new(snapshots)
    }

    /// The churn rates in effect at evolution step `step`: the base
    /// config on quiet steps, multiplied (and capped at 1.0) on
    /// flash-crowd burst steps. With `burst: None` this is the identity,
    /// so legacy configs draw the exact historical RNG stream.
    fn effective_churn(&self, step: usize) -> ChurnConfig {
        match self.burst {
            Some(b) if b.period > 0 && step.is_multiple_of(b.period) => ChurnConfig {
                feature_mutation_rate: (self.churn.feature_mutation_rate * b.feature_multiplier)
                    .min(1.0),
                edge_rewire_rate: (self.churn.edge_rewire_rate * b.edge_multiplier).min(1.0),
                vertex_churn_rate: (self.churn.vertex_churn_rate * b.vertex_multiplier).min(1.0),
                mutation_smoothness: self.churn.mutation_smoothness,
            },
            _ => self.churn,
        }
    }

    /// Produces one snapshot's worth of churn events against `prev`.
    fn churn_updates(
        &self,
        prev: &Snapshot,
        rng: &mut ChaCha8Rng,
        step: usize,
    ) -> Vec<GraphUpdate> {
        let n = prev.num_vertices();
        let churn = self.effective_churn(step);

        let mut updates = Vec::new();

        // Feature mutations: bounded drift away from the previous value.
        let mutations = (n as f64 * churn.feature_mutation_rate).round() as usize;
        let keep = churn.mutation_smoothness.clamp(0.0, 1.0) as f32;
        for _ in 0..mutations {
            let v = rng.gen_range(0..n) as VertexId;
            let feature: Vec<f32> = if self.feature_row_sparsity <= 0.0 {
                prev.feature(v)
                    .iter()
                    .map(|&x| keep * x + (1.0 - keep) * rng.gen_range(-1.0f32..1.0))
                    .collect()
            } else if rng.gen_range(0.0..1.0) < (1.0 - self.feature_row_sparsity).max(0.0) {
                // Re-tossing the support coin per mutation keeps the
                // expected row density stationary across snapshots. A
                // previously-zero row that wins simply drifts up from
                // zero (`keep * 0 + fresh`).
                prev.feature(v)
                    .iter()
                    .map(|&x| keep * x + (1.0 - keep) * rng.gen_range(-1.0f32..1.0))
                    .collect()
            } else {
                vec![0.0; prev.feature(v).len()]
            };
            updates.push(GraphUpdate::MutateFeature { v, feature });
        }

        // Edge rewires: remove existing edges, add fresh ones.
        let edges: Vec<(VertexId, VertexId)> = prev.csr().edges().collect();
        let rewires = (edges.len() as f64 * churn.edge_rewire_rate).round() as usize;
        for _ in 0..rewires.min(edges.len()) {
            let (s, t) = edges[rng.gen_range(0..edges.len())];
            updates.push(GraphUpdate::RemoveEdge { src: s, dst: t });
            let ns = rng.gen_range(0..n) as VertexId;
            let nt = rng.gen_range(0..n) as VertexId;
            if ns != nt {
                updates.push(GraphUpdate::AddEdge { src: ns, dst: nt });
            }
        }

        // Rare vertex churn.
        let churns = (n as f64 * churn.vertex_churn_rate).round() as usize;
        for _ in 0..churns {
            let v = rng.gen_range(0..n) as VertexId;
            if prev.is_active(v) {
                updates.push(GraphUpdate::RemoveVertex { v });
            } else {
                updates.push(GraphUpdate::AddVertex { v });
            }
        }
        updates
    }
}

/// The five Table 2 datasets as generator presets.
///
/// `scale` shrinks vertex/edge counts (feature dims and snapshot counts are
/// preserved) so experiments run on laptop-class machines; `scale = 1.0`
/// reproduces the paper's sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetPreset {
    /// HepPh citation graph: 28 k vertices, 1.5 M edges, D=172, T=243.
    HepPh,
    /// Gdelt event graph: 7.4 k vertices, 239 k edges, D=248, T=288.
    Gdelt,
    /// MovieLens ratings: 10 k vertices, 1 M edges, D=500, T=100.
    MovieLens,
    /// Epinions trust graph: 876 k vertices, 13.7 M edges, D=220, T=51.
    Epinions,
    /// Flickr social graph: 2.3 M vertices, 33 M edges, D=162, T=134.
    Flickr,
}

impl DatasetPreset {
    /// All five presets in Table 2 order.
    pub const ALL: [DatasetPreset; 5] = [
        DatasetPreset::HepPh,
        DatasetPreset::Gdelt,
        DatasetPreset::MovieLens,
        DatasetPreset::Epinions,
        DatasetPreset::Flickr,
    ];

    /// The paper's two-letter abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            DatasetPreset::HepPh => "HP",
            DatasetPreset::Gdelt => "GT",
            DatasetPreset::MovieLens => "ML",
            DatasetPreset::Epinions => "EP",
            DatasetPreset::Flickr => "FK",
        }
    }

    /// Full-scale Table 2 parameters:
    /// `(num_vertices, num_edges, feature_dim, num_snapshots)`.
    pub fn full_size(self) -> (usize, usize, usize, usize) {
        match self {
            DatasetPreset::HepPh => (28_090, 1_543_901, 172, 243),
            DatasetPreset::Gdelt => (7_398, 238_765, 248, 288),
            DatasetPreset::MovieLens => (9_992, 1_000_209, 500, 100),
            DatasetPreset::Epinions => (876_252, 13_668_320, 220, 51),
            DatasetPreset::Flickr => (2_302_925, 33_140_017, 162, 134),
        }
    }

    /// Per-dataset churn, calibrated so the Fig. 3(a) unaffected ratios fall
    /// in the paper's bands. Denser, faster-moving graphs (ML, FK) churn
    /// more; slow citation/trust graphs (HP, EP) churn less.
    pub fn churn(self) -> ChurnConfig {
        match self {
            DatasetPreset::HepPh => ChurnConfig {
                feature_mutation_rate: 0.010,
                edge_rewire_rate: 0.004,
                vertex_churn_rate: 0.0005,
                mutation_smoothness: 0.7,
            },
            DatasetPreset::Gdelt => ChurnConfig {
                feature_mutation_rate: 0.016,
                edge_rewire_rate: 0.008,
                vertex_churn_rate: 0.0005,
                mutation_smoothness: 0.7,
            },
            DatasetPreset::MovieLens => ChurnConfig {
                feature_mutation_rate: 0.022,
                edge_rewire_rate: 0.012,
                vertex_churn_rate: 0.001,
                mutation_smoothness: 0.7,
            },
            DatasetPreset::Epinions => ChurnConfig {
                feature_mutation_rate: 0.012,
                edge_rewire_rate: 0.006,
                vertex_churn_rate: 0.0005,
                mutation_smoothness: 0.7,
            },
            DatasetPreset::Flickr => ChurnConfig {
                feature_mutation_rate: 0.026,
                edge_rewire_rate: 0.014,
                vertex_churn_rate: 0.001,
                mutation_smoothness: 0.7,
            },
        }
    }

    /// A [`GeneratorConfig`] for this preset at the given `scale`, producing
    /// `num_snapshots` snapshots (Table 2's full snapshot counts are rarely
    /// needed; a window study needs only a handful).
    ///
    /// # Panics
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn config(self, scale: f64, num_snapshots: usize) -> GeneratorConfig {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let (v, e, d, _) = self.full_size();
        let num_vertices = ((v as f64 * scale) as usize).max(16);
        let num_edges = ((e as f64 * scale) as usize).max(32);
        GeneratorConfig {
            num_vertices,
            num_edges,
            feature_dim: d,
            num_snapshots,
            power_law_alpha: 0.9,
            churn: self.churn(),
            // Seed derived from the preset so datasets differ deterministically.
            seed: 0xD6_0000 + self as u64,
            feature_row_sparsity: 0.0,
            burst: None,
        }
    }

    /// A small config for tests/benches: ~1k vertices, reduced feature dim.
    pub fn config_small(self, num_snapshots: usize) -> GeneratorConfig {
        let mut cfg = self.config(0.05_f64.min(1.0), num_snapshots);
        cfg.num_vertices = cfg.num_vertices.min(1_500);
        cfg.num_edges = cfg.num_edges.min(8_000);
        cfg.feature_dim = cfg.feature_dim.min(32);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::tiny();
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = GeneratorConfig::tiny();
        let a = cfg.generate();
        cfg.seed += 1;
        let b = cfg.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn respects_shape_parameters() {
        let cfg = GeneratorConfig::tiny();
        let g = cfg.generate();
        assert_eq!(g.num_snapshots(), cfg.num_snapshots);
        assert_eq!(g.num_vertices(), cfg.num_vertices);
        assert_eq!(g.feature_dim(), cfg.feature_dim);
        // Duplicate sampling may collapse a few edges, but the base snapshot
        // should be near the target.
        assert!(g.snapshot(0).num_edges() > cfg.num_edges / 2);
    }

    #[test]
    fn churn_changes_consecutive_snapshots() {
        let g = GeneratorConfig::tiny().generate();
        assert_ne!(g.snapshot(0), g.snapshot(1), "churn must modify the graph");
    }

    #[test]
    fn zero_churn_freezes_the_graph() {
        let mut cfg = GeneratorConfig::tiny();
        cfg.churn = ChurnConfig {
            feature_mutation_rate: 0.0,
            edge_rewire_rate: 0.0,
            vertex_churn_rate: 0.0,
            mutation_smoothness: 0.7,
        };
        let g = cfg.generate();
        assert_eq!(g.snapshot(0), g.snapshot(1));
    }

    #[test]
    fn sparse_preset_sustains_row_sparsity_under_churn() {
        let cfg = GeneratorConfig::sparse_high_churn(4);
        let g = cfg.generate();
        for s in 0..g.num_snapshots() {
            let snap = g.snapshot(s);
            let n = snap.num_vertices();
            let nonzero = (0..n)
                .filter(|&v| snap.feature(v as VertexId).iter().any(|&x| x != 0.0))
                .count();
            let density = nonzero as f64 / n as f64;
            // Target density is 1 - 0.88 = 0.12; allow generous slack for
            // the coin tosses while staying clearly in SpMM territory.
            assert!(
                density > 0.04 && density < 0.30,
                "snapshot {s}: row density {density} drifted out of the sparse regime"
            );
        }
    }

    #[test]
    fn zero_sparsity_matches_legacy_dense_generation() {
        // `feature_row_sparsity: 0.0` (the deserialization default) must
        // reproduce the historical RNG stream bit-for-bit.
        let cfg = GeneratorConfig::tiny();
        let g = cfg.generate();
        let any_zero_row = (0..g.num_vertices()).any(|v| {
            g.snapshot(0)
                .feature(v as VertexId)
                .iter()
                .all(|&x| x == 0.0)
        });
        assert!(!any_zero_row, "dense generation must fill every row");
    }

    #[test]
    fn no_burst_config_leaves_legacy_generation_untouched() {
        // `burst: None` (the deserialization default) must be a pure
        // pass-through: the effective churn is the config's own and the
        // RNG draw sequence — and thus every golden digest — unchanged.
        let cfg = GeneratorConfig::tiny();
        for step in 1..8 {
            assert_eq!(cfg.effective_churn(step), cfg.churn);
        }
    }

    #[test]
    fn flash_crowd_bursts_collapse_the_unaffected_ratio() {
        use crate::classify::classify_window;
        use crate::types::VertexClass;
        let cfg = GeneratorConfig::flash_crowd(6);
        let g = cfg.generate();
        assert_eq!(g.num_snapshots(), 6);

        // Burst steps must actually multiply churn.
        let burst = cfg.effective_churn(3);
        assert!(burst.feature_mutation_rate > cfg.churn.feature_mutation_rate * 4.0);
        assert!(burst.edge_rewire_rate > cfg.churn.edge_rewire_rate * 4.0);

        // A window spanning a burst has (close to) no unaffected
        // vertices — the hostile regime where TaGNN's premise degrades.
        let snaps: Vec<&Snapshot> = (2..5).map(|i| g.snapshot(i)).collect();
        let cls = classify_window(&snaps);
        let unaffected = cls.count(VertexClass::Unaffected) as f64 / g.num_vertices() as f64;
        // Well-behaved churn lands 27–45 % unaffected at window 3
        // (Fig. 3(a) bands); the hostile preset must collapse that.
        assert!(
            unaffected < 0.10,
            "burst window should collapse the unaffected ratio, got {unaffected}"
        );
    }

    #[test]
    fn presets_have_table2_dimensions() {
        assert_eq!(DatasetPreset::HepPh.full_size().2, 172);
        assert_eq!(DatasetPreset::MovieLens.full_size().2, 500);
        assert_eq!(DatasetPreset::Flickr.full_size().0, 2_302_925);
        assert_eq!(DatasetPreset::ALL.len(), 5);
    }

    #[test]
    fn preset_configs_scale() {
        let full = DatasetPreset::Gdelt.config(1.0, 4);
        let half = DatasetPreset::Gdelt.config(0.5, 4);
        assert!(half.num_vertices < full.num_vertices);
        assert_eq!(half.feature_dim, full.feature_dim);
    }

    #[test]
    fn small_configs_generate_quickly() {
        let g = DatasetPreset::HepPh.config_small(4).generate();
        assert_eq!(g.num_snapshots(), 4);
        assert!(g.num_vertices() <= 1_500);
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_bad_scale() {
        let _ = DatasetPreset::HepPh.config(0.0, 4);
    }

    #[test]
    fn presets_have_distinct_abbrevs() {
        let mut abbrevs: Vec<_> = DatasetPreset::ALL.iter().map(|p| p.abbrev()).collect();
        abbrevs.sort_unstable();
        abbrevs.dedup();
        assert_eq!(abbrevs.len(), 5);
    }
}
