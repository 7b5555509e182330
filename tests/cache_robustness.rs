//! Robustness of the content cache under the three memoizing layers: a
//! concurrent eviction never loses a just-interned program, and no planted
//! corruption of a persisted `run`, `verdict` or `prog` entry can panic a
//! layer or change its answer.

use dbt_obs::MetricsRegistry;
use dbt_persist::PersistStore;
use dbt_platform::{
    CachedRun, ProgramRef, ProgramStore, RunKey, RunMemo, RunSummary, Session, TranslationService,
};
use dbt_riscv::{parse_asm, Program};
use ghostbusters::MitigationPolicy;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[test]
fn concurrent_inline_resolves_survive_eviction_in_a_capacity_one_store() {
    let store = ProgramStore::with_capacity(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4u64)
            .map(|thread| {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..2_000u64 {
                        let source = format!("li a0, {}\necall\n", thread * 10_000 + i);
                        let expected = parse_asm(&source).unwrap().fingerprint();
                        let program = store.resolve(&ProgramRef::InlineAsm(source));
                        assert_eq!(program.map(|p| p.fingerprint()), Ok(expected));
                    }
                })
            })
            .collect();
        for worker in workers {
            assert!(worker.join().is_ok(), "no resolve may panic");
        }
    });
    assert!(store.stats().evictions > 0, "the inserts really raced evictions");
}

/// Deterministic xorshift64 stream.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The ways an entry gets corrupted: three on the framed file (caught by
/// the persist store's own checks) and two on a well-framed payload
/// (caught by the layer's codec).
const MUTATIONS: [&str; 5] =
    ["truncate-file", "flip-file-bit", "extend-file", "truncate-payload", "extend-payload"];

/// Replaces the published `(kind, key)` entry of `tier` by a corrupted
/// one; `round` picks the mutation, `rng` where it lands.
fn plant(tier: &PersistStore, kind: &str, key: &str, round: usize, rng: &mut XorShift) {
    let path = tier.root().join("objects").join(&key[..2]).join(format!("{kind}-{key}"));
    let mut file = fs::read(&path).expect("the entry was published");
    let payload = tier.get(kind, key).expect("the entry is intact before planting");
    let len = file.len();
    match MUTATIONS[round % MUTATIONS.len()] {
        "truncate-file" => file.truncate(rng.below(len)),
        "flip-file-bit" => file[rng.below(len)] ^= 1 << rng.below(8),
        "extend-file" => file.extend((0..1 + rng.below(16)).map(|_| rng.next() as u8)),
        mutation => {
            // Cut inside the non-whitespace text, so a JSON image cannot
            // survive as a shorter valid document; start an extension
            // with a non-whitespace byte for the same reason.
            let mut bad = payload;
            if mutation == "truncate-payload" {
                bad.truncate(rng.below(bad.trim_ascii_end().len()));
            } else {
                bad.push(b'#');
                bad.extend((0..rng.below(16)).map(|_| rng.next() as u8));
            }
            assert!(tier.put(kind, key, &bad));
            return;
        }
    }
    fs::write(&path, file).unwrap();
}

fn fresh_dir(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("dbt-cache-robustness-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

/// Runs ten plant-then-ask rounds: every ask must answer `cold` and
/// quarantine exactly the one planted entry.
fn assert_every_plant_is_quarantined<T: PartialEq + std::fmt::Debug>(
    root: &Path,
    kind: &str,
    keys: &[String],
    cold: &T,
    mut ask: impl FnMut(&Arc<PersistStore>) -> T,
) {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let tier = PersistStore::open(root).unwrap();
    for round in 0..10 {
        let key = &keys[rng.below(keys.len())];
        let quarantined = tier.stats().corrupt_quarantined;
        plant(&tier, kind, key, round, &mut rng);
        let answer = ask(&tier);
        let mutation = MUTATIONS[round % MUTATIONS.len()];
        assert_eq!(&answer, cold, "{kind} entry {key} after {mutation}");
        assert_eq!(tier.stats().corrupt_quarantined, quarantined + 1, "{kind} after {mutation}");
    }
    fs::remove_dir_all(root).unwrap();
}

#[test]
fn planted_run_entries_are_quarantined_and_recomputed() {
    let root = fresh_dir("run");
    let key = RunKey { program: 0x0123_4567_89ab_cdef, config: 0xfedc_ba98_7654_3210 };
    let summary = RunSummary {
        cycles: 912,
        blocks_executed: 17,
        rollbacks: 2,
        halted: true,
        guest_insts: 40,
    };
    let cold = CachedRun { summary, patterns: 3, recovered: Some(b"GB".to_vec()) };
    let tier = PersistStore::open(&root).unwrap();
    RunMemo::with_persist(tier).get_or_run(key, || Ok(cold.clone())).unwrap();
    let keys = [format!("{:016x}{:016x}", key.program, key.config)];
    assert_every_plant_is_quarantined(&root, "run", &keys, &cold, |tier| {
        RunMemo::with_persist(Arc::clone(tier)).get_or_run(key, || Ok(cold.clone())).unwrap()
    });
}

#[test]
fn planted_verdict_entries_are_quarantined_and_recomputed() {
    let root = fresh_dir("verdict");
    let program = dbt_attacks::spectre_v1::build(b"GB").unwrap();
    let run = |service: Arc<TranslationService>| {
        let mut session = Session::builder()
            .program(&program)
            .policy(MitigationPolicy::Selective)
            .service(&service)
            .build()
            .unwrap();
        let summary = session.run().unwrap();
        (summary, session.engine().mitigation_summary().clone())
    };
    let cold = run(TranslationService::new());
    let registry = MetricsRegistry::new();
    let tier = PersistStore::open(&root).unwrap();
    assert_eq!(run(TranslationService::with_metrics_and_persist(&registry, tier.clone())), cold);
    let keys = tier.keys("verdict");
    assert!(!keys.is_empty(), "the attack's superblocks published verdicts");
    assert_every_plant_is_quarantined(&root, "verdict", &keys, &cold, |tier| {
        run(TranslationService::with_metrics_and_persist(&registry, Arc::clone(tier)))
    });
}

#[test]
fn planted_program_images_are_quarantined_and_reuploadable() {
    let root = fresh_dir("prog");
    let program = dbt_attacks::spectre_v1::build(b"GB").unwrap();
    let tier = PersistStore::open(&root).unwrap();
    let (fp, _) = ProgramStore::with_persist(tier).upload(program.clone());
    // A cold store knows nothing of `fp`; a corrupt image must not change
    // that, and a re-upload restores a clean published copy.
    let cold: (usize, Option<Program>) = (0, None);
    assert_every_plant_is_quarantined(&root, "prog", &[format!("{fp:016x}")], &cold, |tier| {
        let store = ProgramStore::with_persist(Arc::clone(tier));
        let answer = (store.reseed_from_persist(), store.get(fp).map(|p| (*p).clone()));
        assert!(!store.upload(program.clone()).1, "the quarantined image was not resident");
        let restored = ProgramStore::with_persist(Arc::clone(tier)).get(fp);
        assert_eq!(restored.as_deref(), Some(&program), "the re-upload republished");
        answer
    });
}
