//! The benchmark's workloads: each pairs a generated graph with the
//! threaded-runtime configuration that runs on it.
//!
//! Every workload runs one Sampler and one Trainer (the 1S1T split of a
//! two-device box) with a single extract thread, one call at a time. The
//! three workloads pull the SET (Sample/Extract/Train) balance in
//! different directions, so an optimisation of one layer has a workload
//! that exercises it and one that bypasses it:
//!
//! * `sage-pl-cache` — skewed graph, wide rows, small cache: the paper's
//!   cache regime. Trainer-bound (K ≫ 1); depth 0 keeps the extract on
//!   the Trainer's serial path.
//! * `gcn-pl-sample` — the same skewed topology with narrow rows and a
//!   3-hop model: Sampler-bound (K < 1), extract is tiny.
//! * `sage-sbm-churn` — a small low-skew graph with tiny batches and many
//!   epochs: per-batch fixed costs (queue handoff, parameter copies,
//!   allocation, span recording) dominate.

use gnnlab_core::threaded::ThreadedConfig;
use gnnlab_graph::gen::{sbm, SbmGraph, SbmParams};
use gnnlab_graph::{GraphBuilder, VertexId};
use gnnlab_tensor::ModelKind;
use rand::distributions::{Distribution, WeightedIndex};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Shape of a planted power-law graph (see [`power_law`]).
#[derive(Debug, Clone, Copy)]
pub struct PowerLawParams {
    pub num_vertices: usize,
    pub num_edges: usize,
    /// Tail exponent of the Chung–Lu degree distribution.
    pub exponent: f64,
    pub num_classes: usize,
    pub feat_dim: usize,
    /// Probability that an edge's destination is drawn from the source's
    /// own class.
    pub intra_prob: f64,
    /// Std-dev of the Gaussian noise on the one-hot class features.
    pub noise: f32,
}

/// How a workload's graph is generated.
#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    PowerLaw(PowerLawParams),
    Sbm {
        num_vertices: usize,
        avg_degree: f64,
        num_classes: usize,
        feat_dim: usize,
    },
}

/// One named workload: graph, model and runtime knobs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphSpec,
    pub model: ModelKind,
    pub hidden_dim: usize,
    pub batch_size: usize,
    pub cache_alpha: f64,
    pub pipeline_depth: usize,
    pub epochs: usize,
    /// Held-out accuracy a healthy full run must exceed; chance is 1/8.
    pub acc_floor: f64,
}

const PL_FULL: PowerLawParams = PowerLawParams {
    num_vertices: 100_000,
    num_edges: 1_000_000,
    exponent: 2.0,
    num_classes: 8,
    feat_dim: 256,
    intra_prob: 0.85,
    noise: 1.0,
};

/// The workloads at full size, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sage-pl-cache",
        graph: GraphSpec::PowerLaw(PL_FULL),
        model: ModelKind::GraphSage,
        hidden_dim: 16,
        batch_size: 64,
        cache_alpha: 0.1,
        pipeline_depth: 0,
        epochs: 1,
        acc_floor: 0.5,
    },
    Workload {
        name: "gcn-pl-sample",
        graph: GraphSpec::PowerLaw(PowerLawParams {
            feat_dim: 8,
            ..PL_FULL
        }),
        model: ModelKind::Gcn,
        hidden_dim: 8,
        batch_size: 64,
        cache_alpha: 0.1,
        pipeline_depth: 1,
        epochs: 5,
        acc_floor: 0.5,
    },
    Workload {
        name: "sage-sbm-churn",
        graph: GraphSpec::Sbm {
            num_vertices: 20_000,
            avg_degree: 10.0,
            num_classes: 8,
            feat_dim: 8,
        },
        model: ModelKind::GraphSage,
        hidden_dim: 16,
        batch_size: 16,
        cache_alpha: 0.2,
        pipeline_depth: 1,
        epochs: 20,
        acc_floor: 0.5,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// A smoke-sized variant for tests: 1/25 of the vertices and edges,
    /// at most two epochs, and no accuracy floor (a few dozen batches do
    /// not train a model reliably above chance).
    pub fn smoke(mut self) -> Self {
        self.graph = match self.graph {
            GraphSpec::PowerLaw(p) => GraphSpec::PowerLaw(PowerLawParams {
                num_vertices: p.num_vertices / 25,
                num_edges: p.num_edges / 25,
                ..p
            }),
            GraphSpec::Sbm {
                num_vertices,
                avg_degree,
                num_classes,
                feat_dim,
            } => GraphSpec::Sbm {
                num_vertices: num_vertices / 25,
                avg_degree,
                num_classes,
                feat_dim,
            },
        };
        self.epochs = self.epochs.min(2);
        self.acc_floor = 0.0;
        self
    }

    /// Generates the workload's graph from `seed`.
    pub fn generate(&self, seed: u64) -> SbmGraph {
        match self.graph {
            GraphSpec::PowerLaw(p) => power_law(&p, seed),
            GraphSpec::Sbm {
                num_vertices,
                avg_degree,
                num_classes,
                feat_dim,
            } => sbm(&SbmParams {
                num_vertices,
                num_classes,
                avg_degree,
                feat_dim,
                seed,
                ..SbmParams::default()
            })
            .expect("the SBM parameters are valid"),
        }
    }

    /// The runtime configuration of one call; `epochs: 0` gives the
    /// set-up-only call behind `setup_s`.
    pub fn config(&self, seed: u64, epochs: usize) -> ThreadedConfig {
        ThreadedConfig {
            num_samplers: 1,
            num_trainers: 1,
            epochs,
            batch_size: self.batch_size,
            hidden_dim: self.hidden_dim,
            seed,
            cache_alpha: self.cache_alpha,
            threads: 1,
            pipeline_depth: self.pipeline_depth,
            ..ThreadedConfig::default()
        }
    }

    /// Whether a held-out accuracy clears the floor (NaN does not).
    pub fn clears_floor(&self, acc: f64) -> bool {
        acc > self.acc_floor
    }

    /// Batches one epoch schedules: the runtime trains on half the
    /// vertices.
    pub fn batches_per_epoch(&self, num_vertices: usize) -> usize {
        (num_vertices / 2).div_ceil(self.batch_size)
    }

    /// Batches per queue round: one at depth 0, a burst of four otherwise.
    pub fn burst(&self) -> usize {
        if self.pipeline_depth == 0 {
            1
        } else {
            4
        }
    }
}

/// A degree-corrected planted-partition graph: Chung–Lu power-law
/// weights `w_i ∝ (i+1)^(-1/(exponent-1))` pick both endpoints, and with
/// probability `intra_prob` the destination is drawn (by weight) from the
/// source's own class. Degrees keep the Chung–Lu skew that the cache
/// regime depends on, while labels follow the structure: with
/// independent endpoints a mean-aggregating GCN would see only noise and
/// its accuracy could not be gated above chance. Features are a noisy
/// one-hot class indicator in the first `num_classes` dimensions.
pub fn power_law(p: &PowerLawParams, seed: u64) -> SbmGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = p.num_vertices;
    let gamma = 1.0 / (p.exponent - 1.0);
    let weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-gamma)).collect();
    let labels: Vec<u32> = (0..n)
        .map(|_| rng.gen_range(0..p.num_classes as u32))
        .collect();
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); p.num_classes];
    for (v, &c) in labels.iter().enumerate() {
        members[c as usize].push(v as VertexId);
    }
    let within: Vec<WeightedIndex> = members
        .iter()
        .map(|m| {
            WeightedIndex::new(m.iter().map(|&v| weights[v as usize]))
                .expect("every class has members")
        })
        .collect();
    let global = WeightedIndex::new(&weights).expect("weights are positive");
    let mut b = GraphBuilder::with_capacity(n, p.num_edges);
    let mut added = 0;
    while added < p.num_edges {
        let s = global.sample(&mut rng) as VertexId;
        let d = if rng.gen_bool(p.intra_prob) {
            let c = labels[s as usize] as usize;
            members[c][within[c].sample(&mut rng)]
        } else {
            global.sample(&mut rng) as VertexId
        };
        if s != d {
            b.add_edge(s, d);
            added += 1;
        }
    }
    let csr = b.build().expect("edge endpoints are in range");
    let mut features = vec![0.0f32; n * p.feat_dim];
    for (v, row) in features.chunks_exact_mut(p.feat_dim).enumerate() {
        let c = labels[v] as usize;
        for (j, x) in row.iter_mut().enumerate() {
            // Box–Muller Gaussian noise.
            let u1: f32 = rng.gen::<f32>().max(1e-9);
            let u2: f32 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
            *x = f32::from(u8::from(j == c)) + p.noise * z;
        }
    }
    SbmGraph {
        csr,
        features,
        feat_dim: p.feat_dim,
        labels,
        num_classes: p.num_classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything the program receives from a generated graph, as bits.
    fn fingerprint(g: &SbmGraph) -> (Vec<Vec<VertexId>>, Vec<u32>, Vec<u32>) {
        let n = g.csr.num_vertices() as VertexId;
        (
            (0..n).map(|v| g.csr.neighbors(v).to_vec()).collect(),
            g.features.iter().map(|x| x.to_bits()).collect(),
            g.labels.clone(),
        )
    }

    #[test]
    fn generators_are_deterministic_in_their_seed() {
        for w in WORKLOADS.map(Workload::smoke) {
            let a = fingerprint(&w.generate(7));
            assert_eq!(a, fingerprint(&w.generate(7)), "{} seed 7 twice", w.name);
            let b = fingerprint(&w.generate(8));
            assert_ne!(
                a.0, b.0,
                "{}: another seed must change the topology",
                w.name
            );
            assert_ne!(a.2, b.2, "{}: another seed must change the labels", w.name);
        }
    }

    #[test]
    fn power_law_graph_is_skewed_and_homophilous() {
        let p = PowerLawParams {
            num_vertices: 4_000,
            num_edges: 40_000,
            ..PL_FULL
        };
        let g = power_law(&p, 3);
        assert_eq!(g.csr.num_edges(), p.num_edges);
        let (_, _, max_deg) = g.csr.degree_summary();
        assert!(
            max_deg > 50 * p.num_edges / p.num_vertices,
            "max out-degree {max_deg}"
        );
        let n = p.num_vertices as VertexId;
        let same = (0..n)
            .flat_map(|v| g.csr.neighbors(v).iter().map(move |&d| (v, d)))
            .filter(|&(s, d)| g.labels[s as usize] == g.labels[d as usize])
            .count();
        // intra_prob of the edges stay in class, plus 1/8 of the rest.
        let share = same as f64 / p.num_edges as f64;
        assert!(
            (share - (0.85 + 0.15 / 8.0)).abs() < 0.02,
            "same-class share {share}"
        );
    }
}
