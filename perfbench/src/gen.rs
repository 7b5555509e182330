//! Seeded input generation for the three workloads.
//!
//! Everything the program under test receives is a pure function of the
//! `--seed` argument (plus the client index and position in its stream),
//! so the same seed always yields byte-identical request lists and
//! program images.

use dbt_lab::Registry;
use dbt_riscv::Program;
use dbt_serve::{ProgramSource, Request, RunKnobs};
use dbt_workloads::WorkloadSize;
use ghostbusters::MitigationPolicy;
use std::collections::BTreeMap;

/// Problem size of every workload (what `lab sweep --size small` runs).
pub const SIZE: WorkloadSize = WorkloadSize::Small;

/// The sweep whose scenarios `serve-hot` runs one by one: the paper's
/// headline comparison, perf and attack rows mixed.
pub const HOT_RUN_SWEEP: &str = "selective-vs-blanket";

/// Small whole sweeps in the `serve-hot` mix (large response bodies).
pub const HOT_SWEEPS: [&str; 2] = ["attack-table", "ptr-matmul"];

/// Programs `serve-hot` analyzes: the ones spectaint has something to say
/// about (flagged by the blanket analysis, or actually leaking).
pub const HOT_ANALYZE: [&str; 5] =
    ["histogram", "stream-lut", "ptr-matmul", "spectre-v1", "spectre-v4"];

/// SplitMix64: tiny, std-only and good enough to shuffle inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Stream ids keep the generator's independent draws apart.
fn stream(kind: u64, client: usize, index: usize) -> u64 {
    (kind << 56) ^ ((client as u64) << 40) ^ index as u64
}

/// `sweep-cold`: the order in which pass `pass` runs the `sweeps`
/// declared sweeps, as a permutation of their registry indices. Each pass
/// draws its own order, so a run's median pass does not hinge on one order.
pub fn sweep_order(seed: u64, pass: usize, sweeps: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..sweeps).collect();
    Rng::new(seed, stream(1, 0, pass)).shuffle(&mut order);
    order
}

/// `serve-hot`: one round of the mix — every scenario of
/// [`HOT_RUN_SWEEP`] as `run`, each of [`HOT_SWEEPS`] as `sweep` and each
/// of [`HOT_ANALYZE`] as `analyze`, each distinct request once, unshuffled.
/// Every request here is warmed during set-up.
pub fn hot_round(registry: &Registry) -> Vec<Request> {
    let sweep = registry.find(HOT_RUN_SWEEP).expect("the headline sweep is declared");
    let runs = sweep.expand().into_iter().map(|s| Request::Run { scenario: s.name });
    let sweeps =
        HOT_SWEEPS.iter().map(|name| Request::Sweep { name: name.to_string(), threads: 0 });
    let analyzes = HOT_ANALYZE.iter().map(|p| Request::Analyze { program: p.to_string() });
    runs.chain(sweeps).chain(analyzes).collect()
}

/// `serve-hot`: the request stream of one client — consecutive rounds of
/// the mix, each round shuffled afresh by the seed, so each client sends
/// every request once per round.
#[derive(Debug)]
pub struct HotStream {
    seed: u64,
    client: usize,
    mix: Vec<Request>,
    round: std::vec::IntoIter<Request>,
    rounds: usize,
}

impl HotStream {
    /// The stream of `client` under `seed`.
    pub fn new(seed: u64, client: usize, registry: &Registry) -> HotStream {
        HotStream {
            seed,
            client,
            mix: hot_round(registry),
            round: Vec::new().into_iter(),
            rounds: 0,
        }
    }
}

impl Iterator for HotStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.round.len() == 0 {
            let mut round = self.mix.clone();
            Rng::new(self.seed, stream(2, self.client, self.rounds)).shuffle(&mut round);
            self.round = round.into_iter();
            self.rounds += 1;
        }
        self.round.next()
    }
}

/// `fleet-write`: the registry kernels variants are derived from.
pub fn fleet_bases() -> Vec<(&'static str, Program)> {
    dbt_workloads::suite(SIZE).into_iter().map(|w| (w.name, w.program)).collect()
}

/// One `fleet-write` iteration's input.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Registry kernel the variant derives from.
    pub kernel: &'static str,
    /// Policy the variant is run under.
    pub policy: MitigationPolicy,
    /// The variant itself.
    pub program: Program,
    /// Its program image, as uploaded.
    pub image: String,
}

impl Variant {
    /// `fp:<hex>` ref of the variant, computed locally.
    pub fn fp_ref(&self) -> String {
        format!("fp:{:016x}", self.program.fingerprint())
    }

    /// The three requests of the iteration: upload, run, analyze.
    pub fn requests(&self) -> [Request; 3] {
        let program = self.fp_ref();
        [
            Request::Upload { source: ProgramSource::Image(self.image.clone()) },
            Request::RunProgram {
                program: program.clone(),
                policy: self.policy.label().to_string(),
                knobs: RunKnobs::default(),
            },
            Request::Analyze { program },
        ]
    }
}

/// `fleet-write`: the input of iteration `index` of `client`. Each round of
/// `bases.len()` iterations visits every kernel once and each round of
/// five visits every policy once, both in seeded order.
///
/// The variant differs from its kernel only in the initial value of the
/// `checksum` word, which every suite kernel overwrites before it ever
/// reads it and never uses as an address: a new fingerprint, the same
/// code, the same execution.
pub fn fleet_variant(
    seed: u64,
    client: usize,
    index: usize,
    bases: &[(&'static str, Program)],
) -> Variant {
    let mut kernels: Vec<usize> = (0..bases.len()).collect();
    Rng::new(seed, stream(3, client, index / bases.len())).shuffle(&mut kernels);
    let (kernel, base) = &bases[kernels[index % bases.len()]];
    let mut policies = MitigationPolicy::ALL.to_vec();
    let round = MitigationPolicy::ALL.len();
    Rng::new(seed, stream(4, client, index / round)).shuffle(&mut policies);
    // Random high half; the low half is unique per (client, index) and
    // never 0, so no two variants (nor a variant and the original, whose
    // checksum starts at 0) share data.
    let high = Rng::new(seed, stream(5, client, index)).next_u64() & !0xFFFF_FFFF;
    let low = ((client as u64) << 28) | (index as u64 + 1);
    let program = with_checksum_seed(base, high | low);
    let image = program.to_image();
    Variant { kernel, policy: policies[index % round], program, image }
}

/// `base` with its `checksum` word initialised to `value`.
fn with_checksum_seed(base: &Program, value: u64) -> Program {
    let offset =
        base.symbol("checksum").expect("suite kernels define `checksum`") - base.data_base();
    let offset = usize::try_from(offset).expect("checksum offset fits in memory");
    let mut data = base.data().to_vec();
    data[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    let symbols: BTreeMap<String, u64> =
        base.symbols().map(|(name, addr)| (name.to_string(), addr)).collect();
    Program::new(
        base.code_base(),
        base.code().to_vec(),
        base.data_base(),
        data,
        base.entry(),
        base.memory_size(),
        symbols,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn encoded(requests: impl Iterator<Item = Request>) -> Vec<String> {
        requests.map(|r| r.encode()).collect()
    }

    #[test]
    fn sweep_orders_are_seeded_permutations() {
        assert_eq!(sweep_order(7, 3, 6), sweep_order(7, 3, 6));
        let mut sorted = sweep_order(7, 3, 6);
        sorted.sort();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        let orders: HashSet<Vec<usize>> = (0..20).map(|pass| sweep_order(7, pass, 6)).collect();
        assert!(orders.len() > 1, "each pass draws its own order");
        assert_ne!(
            (0..20).map(|pass| sweep_order(7, pass, 6)).collect::<Vec<_>>(),
            (0..20).map(|pass| sweep_order(8, pass, 6)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn hot_streams_are_byte_identical_per_seed() {
        let registry = Registry::standard(SIZE);
        let take = 3 * hot_round(&registry).len();
        let a = encoded(HotStream::new(11, 0, &registry).take(take));
        let b = encoded(HotStream::new(11, 0, &registry).take(take));
        assert_eq!(a, b);
        assert_ne!(a, encoded(HotStream::new(12, 0, &registry).take(take)));
        assert_ne!(a, encoded(HotStream::new(11, 1, &registry).take(take)));
        // Every round covers the whole mix.
        let round = hot_round(&registry).len();
        let mut first: Vec<String> = a[..round].to_vec();
        first.sort();
        let mut mix = encoded(hot_round(&registry).into_iter());
        mix.sort();
        assert_eq!(first, mix);
        assert_eq!(mix.iter().collect::<HashSet<_>>().len(), mix.len(), "each request once");
        // Each round is one fresh draw of the whole mix.
        let mut second: Vec<String> = a[round..2 * round].to_vec();
        second.sort();
        assert_eq!(second, mix);
        assert_ne!(a[..round], a[round..2 * round], "every round is shuffled afresh");
    }

    #[test]
    fn fleet_variants_are_byte_identical_per_seed() {
        let bases = fleet_bases();
        for index in 0..30 {
            let a = fleet_variant(5, 1, index, &bases);
            let b = fleet_variant(5, 1, index, &bases);
            assert_eq!(a.image, b.image);
            assert_eq!(encoded(a.requests().into_iter()), encoded(b.requests().into_iter()));
        }
        assert_ne!(fleet_variant(5, 1, 0, &bases).image, fleet_variant(6, 1, 0, &bases).image);
    }

    #[test]
    fn variants_keep_the_code_and_change_the_fingerprint() {
        let bases = fleet_bases();
        let originals: HashSet<u64> = bases.iter().map(|(_, p)| p.fingerprint()).collect();
        let mut seen = HashSet::new();
        for client in 0..2 {
            for index in 0..40 {
                let variant = fleet_variant(3, client, index, &bases);
                let (_, base) = bases.iter().find(|(name, _)| *name == variant.kernel).unwrap();
                assert_eq!(variant.program.code(), base.code(), "code words must be identical");
                let fingerprint = variant.program.fingerprint();
                assert!(!originals.contains(&fingerprint));
                assert!(seen.insert(fingerprint), "every variant is fresh");
                assert_eq!(Program::from_image(&variant.image).unwrap(), variant.program);
            }
        }
    }

    #[test]
    fn fleet_rounds_cover_every_kernel_and_policy() {
        let bases = fleet_bases();
        let kernels: HashSet<&str> =
            (0..bases.len()).map(|i| fleet_variant(9, 0, i, &bases).kernel).collect();
        assert_eq!(kernels.len(), bases.len());
        let policies: HashSet<&str> =
            (0..5).map(|i| fleet_variant(9, 0, i, &bases).policy.label()).collect();
        assert_eq!(policies.len(), 5);
    }
}
