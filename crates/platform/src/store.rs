//! Program addressing: [`ProgramRef`] and the content-addressed, shared
//! [`ProgramStore`], which make **programs data**:
//!
//! * a [`ProgramRef`] is how requests *name* a program: a registry entry
//!   (`registry:<name>`, or a bare name), an already-resident content
//!   fingerprint (`fp:<16-hex>`), or inline source (text assembly or a
//!   program-image JSON document);
//! * the [`ProgramStore`] is where programs *live*: a [`ContentCache`] from
//!   [`Program::fingerprint`] to the immutable program. Identical uploads
//!   deduplicate to one entry; registry entries are seeded **lazily** —
//!   the builder registered for a name runs at most once process-wide.
//!
//! Next to the `TranslationService` and the [`RunMemo`](crate::RunMemo),
//! the store is the lab daemon's third cache level. All three key by the
//! program's content fingerprint, so a program uploaded once is translated
//! once and simulated once, however many requests name it.

use dbt_persist::{Codec, ContentCache, PersistStore};
use dbt_riscv::Program;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Entry kind the store uses in the durable tier: the program-image JSON
/// (the same text `upload` ships on the wire), keyed by the program's
/// content fingerprint.
const PROG_KIND: &str = "prog";

/// The durable-store key of a program: its fingerprint as hex.
fn prog_key_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// The store's durable codec. An image that does not parse, or whose
/// content fingerprint contradicts its key, is quarantined.
const PROG_CODEC: Codec<u64, Arc<Program>> = Codec {
    kind: PROG_KIND,
    key_hex: |fp| prog_key_hex(*fp),
    encode: |program| Some(program.to_image().into_bytes()),
    decode: |fp, bytes| {
        let image = std::str::from_utf8(bytes).map_err(|_| "program image is not UTF-8")?;
        let program =
            Program::from_image(image).map_err(|e| format!("program image decode failed: {e}"))?;
        if program.fingerprint() != *fp {
            return Err("program fingerprint contradicts entry key".to_string());
        }
        Ok(Arc::new(program))
    },
};

/// How a request names a guest program.
///
/// The textual grammar (parsed by [`ProgramRef::parse`]):
///
/// | form | meaning |
/// |---|---|
/// | `registry:<name>` (or a bare `<name>`) | a program the store can build by name |
/// | `fp:<16-hex-digits>` | an already-resident content fingerprint |
/// | `asm:<source>` | inline text assembly |
/// | `image:<json>` | inline program-image JSON |
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramRef {
    /// A named program the store knows how to build (lazily seeded).
    Registry(String),
    /// A content fingerprint of an already-resident program.
    Fingerprint(u64),
    /// Inline text-assembly source.
    InlineAsm(String),
    /// Inline program-image JSON.
    InlineImage(String),
}

impl ProgramRef {
    /// Parses the textual ref grammar. A bare name (no scheme prefix) is a
    /// registry ref, so existing name-based requests keep working.
    ///
    /// # Errors
    ///
    /// Returns a message if the `fp:` payload is not a 64-bit hex number
    /// or the scheme is unknown.
    pub fn parse(text: &str) -> Result<ProgramRef, String> {
        if let Some(name) = text.strip_prefix("registry:") {
            return Ok(ProgramRef::Registry(name.to_string()));
        }
        if let Some(hex) = text.strip_prefix("fp:") {
            let fp = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("`{hex}` is not a hex fingerprint"))?;
            return Ok(ProgramRef::Fingerprint(fp));
        }
        if let Some(source) = text.strip_prefix("asm:") {
            return Ok(ProgramRef::InlineAsm(source.to_string()));
        }
        if let Some(source) = text.strip_prefix("image:") {
            return Ok(ProgramRef::InlineImage(source.to_string()));
        }
        match text.split_once(':') {
            Some((scheme, _)) => Err(format!(
                "unknown program-ref scheme `{scheme}:` (expected registry:|fp:|asm:|image:)"
            )),
            None => Ok(ProgramRef::Registry(text.to_string())),
        }
    }

    /// Short display label for reports: the registry name, `fp:<hex>`, or
    /// an `inline-…` tag for source refs.
    pub fn label(&self) -> String {
        match self {
            ProgramRef::Registry(name) => name.clone(),
            ProgramRef::Fingerprint(fp) => format!("fp:{fp:016x}"),
            ProgramRef::InlineAsm(_) => "inline-asm".to_string(),
            ProgramRef::InlineImage(_) => "inline-image".to_string(),
        }
    }
}

impl fmt::Display for ProgramRef {
    /// The canonical textual form ([`ProgramRef::parse`] round-trips it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramRef::Registry(name) => write!(f, "registry:{name}"),
            ProgramRef::Fingerprint(fp) => write!(f, "fp:{fp:016x}"),
            ProgramRef::InlineAsm(source) => write!(f, "asm:{source}"),
            ProgramRef::InlineImage(source) => write!(f, "image:{source}"),
        }
    }
}

/// Snapshot of the store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct programs currently resident.
    pub programs: usize,
    /// Programs submitted through [`ProgramStore::upload`].
    pub uploads: u64,
    /// Uploads whose content was already resident (answered by the
    /// existing entry instead of storing a copy).
    pub dedup_hits: u64,
    /// Registry entries built by lazy seeding so far.
    pub seeded: u64,
    /// Uploaded entries evicted to honour the capacity bound.
    pub evictions: u64,
}

impl StoreStats {
    /// Stable single-line JSON (fixed key order), for the daemon's `stats`
    /// response.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"programs\": {}, \"uploads\": {}, \"dedup_hits\": {}, \"seeded\": {}, \
             \"evictions\": {}}}",
            self.programs, self.uploads, self.dedup_hits, self.seeded, self.evictions
        )
    }

    /// Mirrors this snapshot into `registry` as the `dbt_store_*` metric
    /// families. Called at scrape time so the Prometheus exposition and
    /// the `stats` JSON agree exactly on the same snapshot.
    pub fn export(&self, registry: &dbt_obs::MetricsRegistry) {
        registry
            .gauge("dbt_store_programs", "Distinct programs currently resident.")
            .set(self.programs as i64);
        registry
            .counter("dbt_store_uploads_total", "Programs submitted through upload.")
            .set(self.uploads);
        registry
            .counter("dbt_store_dedup_hits_total", "Uploads whose content was already resident.")
            .set(self.dedup_hits);
        registry
            .counter("dbt_store_seeded_total", "Registry entries built by lazy seeding.")
            .set(self.seeded);
        registry
            .counter(
                "dbt_store_evictions_total",
                "Uploaded entries evicted to honour the capacity bound.",
            )
            .set(self.evictions);
    }
}

/// Builds a named registry program on first use.
type Builder = Arc<dyn Fn() -> Result<Program, String> + Send + Sync>;

/// Default bound on resident programs: far above any standard workload
/// set, so that only replicated fleet uploads ever evict.
pub const DEFAULT_STORE_CAPACITY: usize = 1024;

/// The thread-safe, content-addressed program store.
///
/// ```
/// use dbt_platform::{ProgramRef, ProgramStore};
/// use dbt_riscv::parse_asm;
///
/// let store = ProgramStore::new();
/// let program = parse_asm("li a0, 42\necall\n").unwrap();
/// let (fp, dedup) = store.upload(program.clone());
/// assert!(!dedup, "first submission stores the program");
/// let (again, dedup) = store.upload(program);
/// assert_eq!(fp, again);
/// assert!(dedup, "identical content deduplicates");
///
/// let resolved = store.resolve(&ProgramRef::Fingerprint(fp)).unwrap();
/// assert_eq!(resolved.fingerprint(), fp);
/// assert_eq!(store.stats().programs, 1);
/// ```
///
/// The store is bounded ([`DEFAULT_STORE_CAPACITY`] by default, see
/// [`ProgramStore::with_capacity`]): beyond the capacity, the least
/// recently used *unpinned* entry is evicted — uploaded and inline
/// programs re-upload cheaply, while lazily-seeded registry programs are
/// pinned for the store's lifetime (their builders run at most once, so
/// an evicted seed could never come back).
pub struct ProgramStore {
    programs: ContentCache<u64, Arc<Program>>,
    named: Mutex<HashMap<String, Builder>>,
    /// Lazily seeded registry programs by name: each builder runs at most
    /// once process-wide, even under concurrency.
    seeds: ContentCache<String, Result<Arc<Program>, String>>,
    uploads: AtomicU64,
    dedup_hits: AtomicU64,
    seeded: AtomicU64,
}

impl fmt::Debug for ProgramStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgramStore").field("stats", &self.stats()).finish()
    }
}

impl ProgramStore {
    /// An empty store with the default capacity behind an [`Arc`], ready
    /// to share across threads.
    pub fn new() -> Arc<ProgramStore> {
        ProgramStore::with_capacity(DEFAULT_STORE_CAPACITY)
    }

    /// A store bounded to `capacity` resident programs. Pinned (seeded
    /// registry) entries never count as victims, so the resident count can
    /// exceed a capacity smaller than the registry itself.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Arc<ProgramStore> {
        Arc::new(ProgramStore::build(ContentCache::new(capacity)))
    }

    /// A default-capacity store over a durable tier: uploaded and inline
    /// programs are published as program images behind the write,
    /// [`ProgramStore::get`] misses read through to disk (so an evicted
    /// or restart-lost upload stays resolvable by `fp:` ref), and
    /// [`ProgramStore::reseed_from_persist`] restores the whole uploaded
    /// set at boot. Registry seeds are rebuilt by their builders, never
    /// persisted.
    pub fn with_persist(persist: Arc<PersistStore>) -> Arc<ProgramStore> {
        let programs = ContentCache::new(DEFAULT_STORE_CAPACITY).with_tier(persist, PROG_CODEC);
        Arc::new(ProgramStore::build(programs))
    }

    fn build(programs: ContentCache<u64, Arc<Program>>) -> ProgramStore {
        ProgramStore {
            programs,
            named: Mutex::default(),
            seeds: ContentCache::new(usize::MAX),
            uploads: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            seeded: AtomicU64::new(0),
        }
    }

    /// Registers a named registry entry. The builder runs lazily, at most
    /// once, on the first [`ProgramStore::resolve`] that names it; a name
    /// keeps the program that first resolve built.
    pub fn register(
        &self,
        name: &str,
        build: impl Fn() -> Result<Program, String> + Send + Sync + 'static,
    ) {
        self.named
            .lock()
            .expect("program store poisoned")
            .insert(name.to_string(), Arc::new(build));
    }

    /// All registered names, sorted (for error messages and listings).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.named.lock().expect("program store poisoned").keys().cloned().collect();
        names.sort();
        names
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        let programs = self.programs.stats();
        StoreStats {
            programs: programs.entries,
            uploads: self.uploads.load(Ordering::SeqCst),
            dedup_hits: self.dedup_hits.load(Ordering::SeqCst),
            seeded: self.seeded.load(Ordering::SeqCst),
            evictions: programs.evictions,
        }
    }

    /// Interns `program`, returning the resident program (so a concurrent
    /// eviction cannot lose it before the caller sees it) and whether the
    /// content was already resident.
    fn intern(&self, program: Program, pin: bool) -> (Arc<Program>, bool) {
        self.programs.insert(program.fingerprint(), Arc::new(program), pin)
    }

    /// Submits a program (the `upload` operation). Returns its content
    /// fingerprint and whether this was a dedup hit (identical content
    /// already resident).
    pub fn upload(&self, program: Program) -> (u64, bool) {
        self.uploads.fetch_add(1, Ordering::SeqCst);
        let fp = program.fingerprint();
        let (_, dedup) = self.programs.insert(fp, Arc::new(program), false);
        if dedup {
            self.dedup_hits.fetch_add(1, Ordering::SeqCst);
        }
        (fp, dedup)
    }

    /// The program with content fingerprint `fp`, if it is resident or
    /// (with a durable tier attached) published on disk. Counts as a use.
    pub fn get(&self, fp: u64) -> Option<Arc<Program>> {
        self.programs.get(&fp)
    }

    /// Re-interns every program image the durable tier holds (a daemon
    /// boot step) and returns how many were restored; unreadable images
    /// are quarantined and skipped. Upload/dedup counters are untouched.
    pub fn reseed_from_persist(&self) -> usize {
        let Some(tier) = self.programs.tier() else {
            return 0;
        };
        let keys = tier.keys().into_iter().filter_map(|key| u64::from_str_radix(&key, 16).ok());
        keys.filter(|fp| !self.programs.contains(fp) && self.get(*fp).is_some()).count()
    }

    /// Resolves a ref to its program: registry entries are lazily seeded
    /// (built at most once), fingerprints looked up, inline sources parsed
    /// and interned (so repeated identical sources share one entry).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown names, non-resident fingerprints, or
    /// inline sources that do not parse.
    pub fn resolve(&self, program_ref: &ProgramRef) -> Result<Arc<Program>, String> {
        match program_ref {
            ProgramRef::Registry(name) => {
                // Look up, then drop the lock *before* any fallible work:
                // both the error message (`names` re-locks) and the
                // builder below must run lock-free.
                let build = self.named.lock().expect("program store poisoned").get(name).cloned();
                let build = build.ok_or_else(|| {
                    format!("unknown program `{name}`; valid programs: {}", self.names().join(", "))
                })?;
                let (seed, _) = self.seeds.get_or_fill(name.clone(), || {
                    let program = build()?;
                    self.seeded.fetch_add(1, Ordering::SeqCst);
                    // Pinned: the builder never runs again, so an evicted
                    // seed could not be rebuilt. Never persisted: the
                    // builder is the durable copy.
                    Ok(self.intern(program, true).0)
                });
                seed
            }
            ProgramRef::Fingerprint(fp) => self.get(*fp).ok_or_else(|| {
                format!("no program with fingerprint fp:{fp:016x} is resident (upload it first)")
            }),
            ProgramRef::InlineAsm(source) => {
                let program = dbt_riscv::parse_asm(source).map_err(|e| e.to_string())?;
                Ok(self.intern(program, false).0)
            }
            ProgramRef::InlineImage(source) => {
                let program = Program::from_image(source).map_err(|e| e.to_string())?;
                Ok(self.intern(program, false).0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbt_riscv::{parse_asm, Assembler, Reg};
    use std::sync::atomic::AtomicUsize;

    fn tiny(value: i64) -> Program {
        let mut asm = Assembler::new();
        asm.li(Reg::A0, value);
        asm.ecall();
        asm.assemble().unwrap()
    }

    #[test]
    fn ref_grammar_round_trips() {
        for (text, parsed) in [
            ("registry:gemm", ProgramRef::Registry("gemm".to_string())),
            ("fp:00000000000000ff", ProgramRef::Fingerprint(0xff)),
            ("asm:ecall", ProgramRef::InlineAsm("ecall".to_string())),
            ("image:{}", ProgramRef::InlineImage("{}".to_string())),
        ] {
            let r = ProgramRef::parse(text).unwrap();
            assert_eq!(r, parsed, "{text}");
            assert_eq!(ProgramRef::parse(&r.to_string()).unwrap(), r, "canonical form parses");
        }
        assert_eq!(
            ProgramRef::parse("gemm").unwrap(),
            ProgramRef::Registry("gemm".to_string()),
            "bare names are registry refs"
        );
        assert!(ProgramRef::parse("fp:xyz").is_err());
        assert!(ProgramRef::parse("teleport:now").unwrap_err().contains("teleport"));
    }

    #[test]
    fn uploads_deduplicate_by_content() {
        let store = ProgramStore::new();
        let (a, dedup_a) = store.upload(tiny(1));
        let (b, dedup_b) = store.upload(tiny(1));
        let (c, dedup_c) = store.upload(tiny(2));
        assert_eq!(a, b, "identical content, identical address");
        assert_ne!(a, c);
        assert!(!dedup_a);
        assert!(dedup_b);
        assert!(!dedup_c);
        let stats = store.stats();
        assert_eq!((stats.programs, stats.uploads, stats.dedup_hits), (2, 3, 1));
        assert_eq!(
            stats.to_json(),
            "{\"programs\": 2, \"uploads\": 3, \"dedup_hits\": 1, \"seeded\": 0, \"evictions\": 0}"
        );
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used_upload() {
        let store = ProgramStore::with_capacity(2);
        let (first, _) = store.upload(tiny(1));
        let (second, _) = store.upload(tiny(2));
        // Touch the older entry so the newer one becomes the LRU victim.
        assert!(store.get(first).is_some());
        let (third, _) = store.upload(tiny(3));
        let stats = store.stats();
        assert_eq!(stats.programs, 2, "capacity bound holds");
        assert_eq!(stats.evictions, 1);
        assert!(store.get(first).is_some(), "recently used entries survive");
        assert!(store.get(second).is_none(), "the LRU entry was evicted");
        assert!(store.get(third).is_some());
        // An evicted program is not gone forever: re-uploading restores it
        // (as a fresh store, not a dedup hit).
        let (again, dedup) = store.upload(tiny(2));
        assert_eq!(again, second);
        assert!(!dedup, "the evicted entry really left the store");
    }

    #[test]
    fn seeded_registry_programs_are_pinned_against_eviction() {
        let store = ProgramStore::with_capacity(1);
        store.register("tiny", || Ok(tiny(7)));
        let r = ProgramRef::parse("tiny").unwrap();
        let seeded_fp = store.resolve(&r).unwrap().fingerprint();
        // Flood the store with uploads far past the capacity: the seed
        // must survive every round, because its builder never re-runs.
        for value in 10..20 {
            store.upload(tiny(value));
            assert!(
                store.resolve(&r).is_ok(),
                "a seeded program must stay resolvable under upload pressure"
            );
        }
        assert!(store.get(seeded_fp).is_some());
        assert!(store.stats().evictions > 0, "unpinned uploads did get evicted");
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_is_rejected() {
        let _ = ProgramStore::with_capacity(0);
    }

    #[test]
    fn registry_entries_seed_lazily_and_exactly_once() {
        let store = ProgramStore::new();
        let builds = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&builds);
        store.register("tiny", move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(tiny(7))
        });
        assert_eq!(builds.load(Ordering::SeqCst), 0, "registration must not build");
        assert_eq!(store.stats().programs, 0);

        let r = ProgramRef::parse("tiny").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let program = store.resolve(&r).unwrap();
                    assert_eq!(program.fingerprint(), tiny(7).fingerprint());
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "late askers share the winner's build");
        assert_eq!(store.stats().seeded, 1);
        assert_eq!(store.stats().programs, 1);

        // Seeded programs are also addressable by fingerprint.
        let fp = tiny(7).fingerprint();
        assert!(store.resolve(&ProgramRef::Fingerprint(fp)).is_ok());
    }

    #[test]
    fn unknown_names_and_fingerprints_are_described() {
        let store = ProgramStore::new();
        store.register("only", || Ok(tiny(0)));
        let err = store.resolve(&ProgramRef::Registry("nope".to_string())).unwrap_err();
        assert!(err.contains("nope") && err.contains("only"), "{err}");
        let err = store.resolve(&ProgramRef::Fingerprint(0xdead)).unwrap_err();
        assert!(err.contains("upload"), "{err}");
        store.register("broken", || Err("no such kernel".to_string()));
        let err = store.resolve(&ProgramRef::Registry("broken".to_string())).unwrap_err();
        assert!(err.contains("no such kernel"), "{err}");
    }

    fn fresh_root(tag: &str) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("dbt-platform-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn uploads_survive_restart_via_reseed_and_read_through() {
        let root = fresh_root("reseed");
        let fp = {
            let tier = dbt_persist::PersistStore::open(&root).unwrap();
            let store = ProgramStore::with_persist(tier);
            let (fp, dedup) = store.upload(tiny(1));
            assert!(!dedup);
            fp
        };
        // A restarted store over the same root: boot re-seed restores
        // the upload, upload/dedup counters stay untouched.
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let store = ProgramStore::with_persist(Arc::clone(&tier));
        assert_eq!(store.reseed_from_persist(), 1);
        assert_eq!(store.reseed_from_persist(), 0, "a second re-seed finds everything resident");
        let stats = store.stats();
        assert_eq!((stats.programs, stats.uploads, stats.dedup_hits), (1, 0, 0));
        let resolved = store.resolve(&ProgramRef::Fingerprint(fp)).unwrap();
        assert_eq!(resolved.fingerprint(), fp);
        // Re-uploading the same content is now a dedup hit, and the
        // re-seed published nothing new.
        let (again, dedup) = store.upload(tiny(1));
        assert_eq!(again, fp);
        assert!(dedup);
        assert_eq!(tier.stats().writes, 0, "re-seeds and dedups never re-publish");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn get_reads_through_without_a_boot_reseed() {
        let root = fresh_root("readthrough");
        let fp = {
            let tier = dbt_persist::PersistStore::open(&root).unwrap();
            let store = ProgramStore::with_persist(tier);
            store.upload(tiny(2)).0
        };
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let store = ProgramStore::with_persist(tier);
        assert_eq!(store.stats().programs, 0);
        let program = store.get(fp).expect("a persisted image answers a cold get");
        assert_eq!(program.fingerprint(), fp);
        assert_eq!(store.stats().programs, 1, "the read-through re-interned the program");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_persisted_images_are_quarantined_not_errors() {
        let root = fresh_root("corrupt");
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        // A store-valid entry that is not a program image at all, plus
        // one whose image decodes to a different fingerprint.
        assert!(tier.put(PROG_KIND, &prog_key_hex(0xdead), b"not an image"));
        assert!(tier.put(PROG_KIND, &prog_key_hex(0xbeef), tiny(3).to_image().as_bytes()));
        let store = ProgramStore::with_persist(Arc::clone(&tier));
        assert_eq!(store.reseed_from_persist(), 0);
        assert!(store.get(0xdead).is_none());
        assert!(store.get(0xbeef).is_none());
        assert_eq!(tier.stats().corrupt_quarantined, 2);
        assert_eq!(tier.stats().entries, 0, "both bad entries left objects/");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn registry_seeds_are_never_published() {
        let root = fresh_root("seeds");
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let store = ProgramStore::with_persist(Arc::clone(&tier));
        store.register("tiny", || Ok(tiny(7)));
        let _ = store.resolve(&ProgramRef::parse("tiny").unwrap()).unwrap();
        assert_eq!(tier.stats().writes, 0, "builders are the durable copy of registry seeds");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn inline_sources_parse_and_intern() {
        let store = ProgramStore::new();
        let asm_ref = ProgramRef::InlineAsm("li a0, 5\necall\n".to_string());
        let first = store.resolve(&asm_ref).unwrap();
        let second = store.resolve(&asm_ref).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "identical source shares one entry");

        let image = parse_asm("li a0, 5\necall\n").unwrap().to_image();
        let image_ref = ProgramRef::InlineImage(image);
        let from_image = store.resolve(&image_ref).unwrap();
        assert_eq!(
            from_image.fingerprint(),
            first.fingerprint(),
            "asm and image forms of the same program share one content address"
        );
        assert_eq!(store.stats().programs, 1);

        assert!(store.resolve(&ProgramRef::InlineAsm("bad!".to_string())).is_err());
        assert!(store.resolve(&ProgramRef::InlineImage("{}".to_string())).is_err());
    }
}
