//! The three workloads and the seeded session each run builds.

use morph_core::{Backend, Eyeriss, Morph, MorphBase, PipelineMode, Session};
use morph_nets::{zoo, Network};
use morph_trace::Recorder;
use std::sync::Arc;

/// Worker threads of every session the benchmark runs.
pub const THREADS: usize = 2;

/// A backend of a workload, built fresh for every session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Flexible Morph (searched mappings).
    Morph,
    /// Inflexible Morph_base (fixed orders, searched tiles).
    MorphBase,
    /// The Eyeriss-like baseline (analytic, no search).
    Eyeriss,
}

impl BackendKind {
    /// A fresh backend with default provisioning and `Effort::Fast`.
    pub fn build(self) -> Box<dyn Backend> {
        match self {
            BackendKind::Morph => Box::new(Morph::builder().build()),
            BackendKind::MorphBase => Box::new(MorphBase::builder().build()),
            BackendKind::Eyeriss => Box::new(Eyeriss::builder().build()),
        }
    }

    /// The display name the built backend carries.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Morph => "Morph",
            BackendKind::MorphBase => "Morph_base",
            BackendKind::Eyeriss => "Eyeriss",
        }
    }

    /// Whether the backend searches mappings (and keeps a decision store).
    pub fn searched(self) -> bool {
        self != BackendKind::Eyeriss
    }

    /// Whether the mapping audit applies the banked fit rule.
    pub fn banked(self) -> bool {
        self == BackendKind::Morph
    }
}

/// One workload: which networks and backends a session holds and how it
/// schedules them.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Zoo networks, in canonical order.
    pub networks: Vec<&'static str>,
    /// Backends, in canonical order.
    pub backends: Vec<BackendKind>,
    /// Pipeline scheduling mode.
    pub mode: PipelineMode,
    /// Frames per simulated pipeline run.
    pub frames: u64,
}

const ZOO: [&str; 7] = [
    "AlexNet",
    "Inception",
    "ResNet",
    "C3D",
    "ResNet-3D",
    "I3D",
    "Two_Stream",
];

const ALL_BACKENDS: [BackendKind; 3] = [
    BackendKind::Morph,
    BackendKind::MorphBase,
    BackendKind::Eyeriss,
];

/// Every workload, in the order `BENCHMARK.json` lists them.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "zoo-cold",
            // I3D alone takes half of a full-zoo session; without it a
            // 40 s run fits about twice as many samples.
            networks: ZOO.into_iter().filter(|n| *n != "I3D").collect(),
            backends: ALL_BACKENDS.to_vec(),
            mode: PipelineMode::Off,
            frames: morph_core::DEFAULT_PIPELINE_FRAMES,
        },
        Workload {
            name: "pareto-mixed",
            networks: vec!["Two_Stream", "AlexNet"],
            backends: ALL_BACKENDS.to_vec(),
            mode: PipelineMode::Pareto { power_cap_mw: None },
            frames: 32,
        },
        Workload {
            name: "stream-long",
            networks: ZOO.to_vec(),
            backends: vec![BackendKind::Eyeriss],
            mode: PipelineMode::Analytic,
            frames: 10_000,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Result<Workload, String> {
    all().into_iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })
}

/// SplitMix64: a small, fixed generator so a seed means the same order on
/// every machine.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The order a seed adds backends and networks to the session in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    /// Backends in session order.
    pub backends: Vec<BackendKind>,
    /// Networks in session order.
    pub networks: Vec<&'static str>,
}

impl Workload {
    /// The session order for `seed`: a permutation of the canonical lists.
    pub fn order(&self, seed: u64) -> Order {
        let mut rng = SplitMix(seed);
        let mut backends = self.backends.clone();
        let mut networks = self.networks.clone();
        rng.shuffle(&mut backends);
        rng.shuffle(&mut networks);
        Order { backends, networks }
    }

    /// The kind of the session backend named `name`.
    pub fn kind_of(&self, name: &str) -> Option<BackendKind> {
        self.backends.iter().copied().find(|k| k.name() == name)
    }

    /// The digest keys (see [`crate::digest::run_key`]) of every
    /// (backend, network) pair a session of this workload runs.
    pub fn run_keys(&self) -> Vec<String> {
        self.backends
            .iter()
            .flat_map(|b| {
                self.networks
                    .iter()
                    .map(move |n| format!("{}/{n}", b.name()))
            })
            .collect()
    }

    /// The networks, freshly built, in canonical order.
    pub fn build_networks(&self) -> Vec<Network> {
        self.networks.iter().map(|n| zoo_net(n)).collect()
    }

    /// Build the session: fresh backends and networks in `order`, with
    /// an optional session trace recorder.
    pub fn session(&self, order: &Order, trace: Option<Arc<dyn Recorder>>) -> Session {
        let mut b = Session::builder()
            .threads(THREADS)
            .pipeline(self.mode)
            .pipeline_frames(self.frames);
        for kind in &order.backends {
            b = b.backend_boxed(kind.build());
        }
        for name in &order.networks {
            b = b.network(zoo_net(name));
        }
        if let Some(rec) = trace {
            b = b.trace(rec);
        }
        b.build()
    }
}

fn zoo_net(name: &str) -> Network {
    zoo::by_name(name).expect("workload networks are zoo names")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_kinds_name_their_backends() {
        for kind in ALL_BACKENDS {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn zoo_names_resolve() {
        assert_eq!(ZOO.len(), zoo::all().len());
        for w in all() {
            assert_eq!(w.build_networks().len(), w.networks.len());
        }
    }

    #[test]
    fn seeds_permute_deterministically() {
        let w = by_name("zoo-cold").unwrap();
        assert_eq!(w.order(7), w.order(7));
        let orders: Vec<Order> = (0..8).map(|s| w.order(s)).collect();
        assert!(
            orders.iter().any(|o| *o != orders[0]),
            "seeds must vary the order"
        );
        for o in &orders {
            let mut nets = o.networks.clone();
            nets.sort_unstable();
            let mut canonical = w.networks.clone();
            canonical.sort_unstable();
            assert_eq!(nets, canonical, "a permutation, not a resample");
            assert_eq!(o.backends.len(), 3);
        }
    }

    #[test]
    fn unknown_workload_lists_the_names() {
        let err = by_name("nope").unwrap_err();
        assert!(err.contains("zoo-cold") && err.contains("stream-long"));
    }
}
