//! The cross-run translation service: a thread-safe, process-wide memo
//! of translation products, shared by every engine that translates the
//! same guest code.
//!
//! Translations are pure functions of their inputs, so, salsa-style, the
//! service models the compile pipeline as two demand-driven queries and
//! memoizes both:
//!
//! * the **analysis query** — guest path → validated IR block, dependency
//!   graph and (for optimised superblocks) the `spectaint` leakage verdict.
//!   Keyed by the path content and the speculation options only, so it is
//!   shared across *every mitigation policy* with the same speculation
//!   settings (four of the five standard policies);
//! * the **codegen query** — analysis + mitigation policy + issue width →
//!   scheduled VLIW code and the mitigation report. Basic-tier blocks never
//!   speculate and take no mitigation, so their codegen is shared across
//!   all policies as well.
//!
//! Both live in service-wide [`ContentCache`]s keyed by content alone, never
//! by program: two programs that differ only in their data (or an edited
//! re-upload that keeps a loop intact) share every identical block's
//! products. Every query resolves to exactly one compile process-wide, so
//! hit/miss counters are deterministic for a given job list regardless of
//! thread count — as long as the resident products fit the capacity bound
//! ([`DEFAULT_SERVICE_CAPACITY`] per cache, over 4× what a full paper-size
//! sweep of every registry sweep produces); under concurrent eviction, the
//! victim depends on thread timing and evicted products re-miss.

use crate::codegen::generate;
use crate::config::DbtConfig;
use crate::engine::DbtError;
use crate::regalloc::RegAlloc;
use crate::schedule::schedule;
use crate::trace_builder::GuestPath;
use crate::translate::translate_path;
use dbt_ir::{BlockKind, DepGraph, DfgOptions, InstId, IrBlock};
use dbt_obs::{Histogram, MetricsRegistry, Span, StageSpan, DEFAULT_LATENCY_BOUNDS_MICROS};
use dbt_persist::codec::{ByteReader, ByteWriter};
use dbt_persist::{CacheCounters, Codec, ContentCache, PersistStore, Tier};
use dbt_vliw::TranslatedBlock;
use ghostbusters::{apply_with_verdict, MitigationPolicy, MitigationReport};
use spectaint::{Gadget, LeakageVerdict, TaintSource, TaintSourceKind};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Entry kind the service uses in the durable store: the `spectaint`
/// leakage verdict of one analysis product.
const VERDICT_KIND: &str = "verdict";

/// Payload format version inside a `verdict` entry.
const VERDICT_PAYLOAD_VERSION: u8 = 1;

/// The durable-store key of a verdict: its analysis key, which covers the
/// path content and the speculation options — everything the verdict is a
/// function of.
fn verdict_key_hex(analysis_key: u64) -> String {
    format!("{analysis_key:016x}")
}

/// Binary payload of one leakage verdict (decoded by
/// [`decode_verdict`]). All-integer structure: instruction ids, source
/// kinds and the block coordinates.
fn encode_verdict(verdict: &LeakageVerdict) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(VERDICT_PAYLOAD_VERSION);
    w.put_u64(verdict.entry_pc);
    w.put_usize(verdict.block_len);
    w.put_usize(verdict.sources.len());
    for source in &verdict.sources {
        w.put_usize(source.load.index());
        w.put_u8(match source.kind {
            TaintSourceKind::BoundCheckBypass => 0,
            TaintSourceKind::StoreBypass => 1,
        });
        w.put_usize(source.cause.index());
    }
    let ids = |w: &mut ByteWriter, ids: &[InstId]| {
        w.put_usize(ids.len());
        for id in ids {
            w.put_usize(id.index());
        }
    };
    ids(&mut w, &verdict.tainted_values);
    ids(&mut w, &verdict.transmitters);
    w.put_usize(verdict.gadgets.len());
    for gadget in &verdict.gadgets {
        w.put_usize(gadget.transmitter.index());
        ids(&mut w, &gadget.sources);
    }
    w.finish()
}

/// Total decode of a `verdict` payload; `None` means the entry is torn
/// or foreign and must be quarantined and recomputed.
fn decode_verdict(bytes: &[u8]) -> Option<LeakageVerdict> {
    let mut r = ByteReader::new(bytes);
    if r.u8()? != VERDICT_PAYLOAD_VERSION {
        return None;
    }
    let entry_pc = r.u64()?;
    let block_len = r.usize()?;
    let mut sources = Vec::new();
    for _ in 0..r.usize()? {
        let load = InstId(r.usize()?);
        let kind = match r.u8()? {
            0 => TaintSourceKind::BoundCheckBypass,
            1 => TaintSourceKind::StoreBypass,
            _ => return None,
        };
        sources.push(TaintSource { load, kind, cause: InstId(r.usize()?) });
    }
    let ids = |r: &mut ByteReader<'_>| -> Option<Vec<InstId>> {
        let count = r.usize()?;
        let mut out = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            out.push(InstId(r.usize()?));
        }
        Some(out)
    };
    let tainted_values = ids(&mut r)?;
    let transmitters = ids(&mut r)?;
    let mut gadgets = Vec::new();
    for _ in 0..r.usize()? {
        let transmitter = InstId(r.usize()?);
        gadgets.push(Gadget { transmitter, sources: ids(&mut r)? });
    }
    r.done().then_some(LeakageVerdict {
        entry_pc,
        block_len,
        sources,
        tainted_values,
        transmitters,
        gadgets,
    })
}

/// Why a persisted verdict is not believed (undecodable or contradicted).
const VERDICT_REJECTED: &str = "verdict payload contradicts the translated block";

/// The verdict store seen through [`VERDICT_CODEC`].
type VerdictTier = Tier<u64, LeakageVerdict>;

/// The service's durable codec: verdicts keyed by analysis key.
const VERDICT_CODEC: Codec<u64, LeakageVerdict> = Codec {
    kind: VERDICT_KIND,
    key_hex: |&analysis| verdict_key_hex(analysis),
    encode: |verdict| Some(encode_verdict(verdict)),
    decode: |_, bytes| decode_verdict(bytes).ok_or(VERDICT_REJECTED.to_string()),
};

/// Result of the analysis query: the translated IR block, the speculation
/// options its dependency graph is built with and, for optimised
/// superblocks, the leakage verdict.
#[derive(Debug, Clone)]
pub struct AnalysisProduct {
    /// The validated IR block the path translated to.
    pub ir: Arc<IrBlock>,
    /// The options of the unhardened dependency graph. The graph itself is
    /// not kept: its edge list grows quadratically with superblock length,
    /// and codegen — its only reader — rebuilds it in a fraction of the
    /// compile.
    pub options: DfgOptions,
    /// The speculative-taint verdict (`None` for basic-tier blocks, which
    /// never speculate and carry nothing to analyse).
    pub verdict: Option<Arc<LeakageVerdict>>,
}

/// The analysis half of an optimised compile product.
#[derive(Debug, Clone)]
pub struct AnalysedProduct {
    /// The IR block the code was compiled (and analysed) from.
    pub ir: Arc<IrBlock>,
    /// The block's leakage verdict.
    pub verdict: Arc<LeakageVerdict>,
    /// The mitigation report of the policy that compiled this product.
    pub report: Arc<MitigationReport>,
}

/// Result of the codegen query: everything a run needs from one compile.
#[derive(Debug, Clone)]
pub struct CompileProduct {
    /// The scheduled VLIW code.
    pub code: Arc<TranslatedBlock>,
    /// Analysis artifacts (`None` for basic-tier blocks).
    pub analysed: Option<AnalysedProduct>,
}

/// One resolved translation, with its cache provenance.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The compile product (memoized or freshly compiled).
    pub product: CompileProduct,
    /// `true` if the top-level codegen query was served from the memo.
    pub cache_hit: bool,
}

/// Snapshot of the service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that had to compile (equals the number of distinct
    /// translation products produced process-wide).
    pub misses: u64,
    /// Analysis and codegen products currently resident.
    pub entries: usize,
    /// Products evicted to honour the capacity bound.
    pub evictions: u64,
}

impl ServiceStats {
    /// Fraction of queries served from the memo, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Mirrors this snapshot into `registry` as the `dbt_translate_*`
    /// metric families. Called at scrape time so the Prometheus
    /// exposition and the `stats` JSON agree exactly on the same
    /// snapshot.
    pub fn export(&self, registry: &MetricsRegistry) {
        registry
            .counter("dbt_translate_hits_total", "Translation queries answered from the memo.")
            .set(self.hits);
        registry
            .counter("dbt_translate_misses_total", "Translation queries that had to compile.")
            .set(self.misses);
        registry
            .gauge("dbt_translate_entries", "Translation products resident in the service.")
            .set(self.entries as i64);
        registry
            .counter(
                "dbt_translate_evictions_total",
                "Translation products evicted to honour the capacity bound.",
            )
            .set(self.evictions);
    }
}

/// Hashes anything hashable into the service's 64-bit key space.
fn hash64(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Content fingerprint of a guest path: entry, every element, side exits
/// and block kind. Two equal fingerprints describe the same compile input.
fn path_fingerprint(path: &GuestPath, kind: BlockKind) -> u64 {
    let mut hasher = DefaultHasher::new();
    path.entry_pc.hash(&mut hasher);
    for element in &path.elements {
        element.pc.hash(&mut hasher);
        element.inst.hash(&mut hasher);
        element.follow_taken.hash(&mut hasher);
    }
    path.fallthrough.hash(&mut hasher);
    path.merged_blocks.hash(&mut hasher);
    kind.hash(&mut hasher);
    hasher.finish()
}

/// The speculation options a compile of `kind` actually uses: first-pass
/// basic blocks are always conservative, whatever the engine config says.
fn effective_options(config: &DbtConfig, kind: BlockKind) -> DfgOptions {
    if matches!(kind, BlockKind::Superblock { .. }) {
        config.speculation
    } else {
        DfgOptions::no_speculation()
    }
}

/// Runs the analysis stage of the compile pipeline (translate, validate,
/// dependency graph, taint verdict). Pure: depends only on its arguments.
///
/// With a verdict tier (and the analysis key), the taint verdict — the
/// expensive part — is read through from the tier and written behind when
/// computed fresh. A persisted verdict whose entry pc or block length
/// contradicts the freshly built block is quarantined and recomputed, so a
/// wrong entry can never steer mitigation.
fn run_analysis(
    path: &GuestPath,
    kind: BlockKind,
    options: DfgOptions,
    verdicts: Option<(&VerdictTier, u64)>,
) -> Result<AnalysisProduct, DbtError> {
    let mut block = translate_path(path, kind);
    block.shrink_to_fit();
    block.validate().map_err(|reason| DbtError::InvalidBlock { pc: block.entry_pc(), reason })?;
    let graph = DepGraph::build(&block, options);
    // The taint analysis must see the original relaxable edges, so it runs
    // on the graph before any mitigation hardens it. Basic-tier blocks
    // never speculate, hence there is nothing for it to see.
    let verdict = matches!(kind, BlockKind::Superblock { .. }).then(|| {
        let Some((tier, key)) = verdicts else {
            return Arc::new(spectaint::analyze(&block, &graph));
        };
        match tier.read(&key) {
            Some(verdict)
                if verdict.entry_pc == block.entry_pc() && verdict.block_len == block.len() =>
            {
                return Arc::new(verdict);
            }
            Some(_) => tier.quarantine(&key, VERDICT_REJECTED),
            None => {}
        }
        let verdict = spectaint::analyze(&block, &graph);
        tier.write(&key, &verdict);
        Arc::new(verdict)
    });
    Ok(AnalysisProduct { ir: Arc::new(block), options, verdict })
}

/// Runs the codegen stage: mitigation (optimised blocks only), scheduling,
/// register allocation and code emission. Pure: depends only on its
/// arguments.
fn run_codegen(
    analysis: &AnalysisProduct,
    policy: MitigationPolicy,
    issue_width: usize,
) -> Result<CompileProduct, DbtError> {
    let block = &analysis.ir;
    let mut graph = DepGraph::build(block, analysis.options);
    let analysed = analysis.verdict.as_ref().map(|verdict| {
        let report = apply_with_verdict(block, &mut graph, policy, Some(verdict));
        AnalysedProduct {
            ir: Arc::clone(block),
            verdict: Arc::clone(verdict),
            report: Arc::new(report),
        }
    });
    let sched = schedule(block, &graph, issue_width)?;
    let alloc = RegAlloc::allocate(block);
    let code = generate(block, &graph, &sched, &alloc);
    Ok(CompileProduct { code: Arc::new(code), analysed })
}

/// Compiles a path without any memoization (the service-less path the
/// engine falls back to).
pub(crate) fn compile_path(
    config: &DbtConfig,
    path: &GuestPath,
    kind: BlockKind,
) -> Result<CompileProduct, DbtError> {
    let analysis = run_analysis(path, kind, effective_options(config, kind), None)?;
    run_codegen(&analysis, config.policy, config.issue_width)
}

/// Phase-timing histograms of services built with
/// [`TranslationService::with_metrics`].
#[derive(Debug)]
struct ServiceMetrics {
    analysis_seconds: Arc<Histogram>,
    codegen_seconds: Arc<Histogram>,
}

impl ServiceMetrics {
    /// Resolves the `dbt_translate_phase_seconds{phase=...}` handles on
    /// `registry`.
    fn resolve(registry: &MetricsRegistry) -> ServiceMetrics {
        let phase = |phase| {
            registry.histogram_with(
                "dbt_translate_phase_seconds",
                "Wall-clock time of actual (non-memoized) compile-stage executions.",
                DEFAULT_LATENCY_BOUNDS_MICROS,
                &[("phase", phase)],
            )
        };
        ServiceMetrics { analysis_seconds: phase("analysis"), codegen_seconds: phase("codegen") }
    }
}

/// The memoizing, thread-safe translation query layer.
///
/// Construct one per process (or per sweep, for deterministic per-sweep
/// counters) and hand it to every run:
///
/// ```
/// use dbt_engine::{DbtConfig, DbtEngine, TranslationService};
///
/// let service = TranslationService::new();
/// let engine = DbtEngine::with_service(DbtConfig::selective(), service.clone());
/// assert_eq!(service.stats().misses, 0, "nothing translated yet");
/// # let _ = engine;
/// ```
#[derive(Debug)]
pub struct TranslationService {
    /// Analysis products by analysis key (path content + speculation
    /// options).
    analyses: ContentCache<u64, Result<AnalysisProduct, DbtError>>,
    /// Codegen products by codegen key (analysis key + policy + issue
    /// width).
    codegens: ContentCache<u64, Result<CompileProduct, DbtError>>,
    /// The query counters both caches count into.
    queries: Arc<CacheCounters>,
    metrics: Option<ServiceMetrics>,
    verdicts: Option<VerdictTier>,
}

/// Default bound on resident products per cache (analyses and codegens
/// each). One paper-size pass of every registry sweep through one service
/// compiles 977 distinct products, so this leaves over 4× headroom and
/// eviction only engages in genuinely long-lived services.
pub const DEFAULT_SERVICE_CAPACITY: usize = 4096;

impl TranslationService {
    /// A service with the default capacity.
    pub fn new() -> Arc<TranslationService> {
        TranslationService::with_capacity(DEFAULT_SERVICE_CAPACITY)
    }

    /// A service bounded to `capacity` resident products per cache (least
    /// recently used products are evicted beyond that).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Arc<TranslationService> {
        TranslationService::build(capacity, None, None)
    }

    /// A default-capacity service whose compile stages record wall-clock
    /// phase timings into `registry` (the
    /// `dbt_translate_phase_seconds{phase="analysis"|"codegen"}`
    /// families). Only *actual* compiles are timed — memoized answers
    /// never touch the clock — and the timings are pure observability:
    /// deterministic products, counters and cycle outputs are identical
    /// to an uninstrumented service.
    pub fn with_metrics(registry: &MetricsRegistry) -> Arc<TranslationService> {
        TranslationService::build(
            DEFAULT_SERVICE_CAPACITY,
            Some(ServiceMetrics::resolve(registry)),
            None,
        )
    }

    /// [`TranslationService::with_metrics`] plus a durable tier for the
    /// expensive analysis artifact: the `spectaint` leakage verdict of
    /// every optimised superblock is read through from (and written
    /// behind to) `persist`, keyed by the analysis key,
    /// so a restarted daemon skips the taint analysis while producing
    /// byte-identical products.
    pub fn with_metrics_and_persist(
        registry: &MetricsRegistry,
        persist: Arc<PersistStore>,
    ) -> Arc<TranslationService> {
        TranslationService::build(
            DEFAULT_SERVICE_CAPACITY,
            Some(ServiceMetrics::resolve(registry)),
            Some(persist),
        )
    }

    fn build(
        capacity: usize,
        metrics: Option<ServiceMetrics>,
        persist: Option<Arc<PersistStore>>,
    ) -> Arc<TranslationService> {
        let queries = Arc::<CacheCounters>::default();
        Arc::new(TranslationService {
            analyses: ContentCache::new(capacity).with_counters(Arc::clone(&queries)),
            codegens: ContentCache::new(capacity).with_counters(Arc::clone(&queries)),
            queries,
            metrics,
            verdicts: persist.map(|store| Tier::new(store, VERDICT_CODEC)),
        })
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ServiceStats {
        let (hits, misses) = self.queries.hits_and_misses();
        let (analyses, codegens) = (self.analyses.stats(), self.codegens.stats());
        ServiceStats {
            hits,
            misses,
            entries: analyses.entries + codegens.entries,
            evictions: analyses.evictions + codegens.evictions,
        }
    }

    /// Translates `path` under `config`, reusing memoized analysis and
    /// codegen products whenever their inputs match — whichever program the
    /// path came from.
    ///
    /// # Errors
    ///
    /// Returns the (memoized) [`DbtError`] of the failing compile stage.
    pub fn translate(
        &self,
        config: &DbtConfig,
        path: &GuestPath,
        kind: BlockKind,
    ) -> Result<Translated, DbtError> {
        let options = effective_options(config, kind);
        let optimised = matches!(kind, BlockKind::Superblock { .. });
        let path_fp = path_fingerprint(path, kind);
        let analysis_key = hash64(&(path_fp, options));
        // Basic-tier codegen takes no mitigation, so the policy stays out of
        // its key and every policy shares the product.
        let policy = optimised.then_some(config.policy);
        let codegen_key = hash64(&(analysis_key, policy, config.issue_width));
        let (product, cache_hit) = self.codegens.get_or_fill(codegen_key, || {
            let (analysis, _) = self.analyses.get_or_fill(analysis_key, || {
                let _span = self.metrics.as_ref().map(|m| Span::on(&m.analysis_seconds));
                let _stage = StageSpan::enter("translate.analysis");
                let verdicts = self.verdicts.as_ref().map(|tier| (tier, analysis_key));
                run_analysis(path, kind, options, verdicts)
            });
            let analysis = analysis?;
            let _span = self.metrics.as_ref().map(|m| Span::on(&m.codegen_seconds));
            let _stage = StageSpan::enter("translate.codegen");
            run_codegen(&analysis, config.policy, config.issue_width)
        });
        Ok(Translated { product: product?, cache_hit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_builder::build_basic_block;
    use dbt_riscv::{Assembler, GuestMemory, Reg};

    fn straightline_memory() -> (GuestMemory, u64) {
        let mut asm = Assembler::new();
        let out = asm.alloc_data("out", 8);
        asm.li(Reg::A0, 6);
        asm.li(Reg::A1, 7);
        asm.mul(Reg::A2, Reg::A0, Reg::A1);
        asm.la(Reg::A3, out);
        asm.sd(Reg::A2, Reg::A3, 0);
        asm.ecall();
        let program = asm.assemble().unwrap();
        (program.build_memory().unwrap(), program.entry())
    }

    fn basic_path(mem: &GuestMemory, pc: u64) -> GuestPath {
        build_basic_block(mem, pc, &DbtConfig::unprotected()).unwrap()
    }

    #[test]
    fn repeated_translations_hit_the_memo() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let first = service.translate(&DbtConfig::unprotected(), &path, BlockKind::Basic).unwrap();
        assert!(!first.cache_hit);
        let second = service.translate(&DbtConfig::unprotected(), &path, BlockKind::Basic).unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.product.code, second.product.code);
        assert!(Arc::ptr_eq(&first.product.code, &second.product.code), "products are shared");
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2), "codegen hit; codegen+analysis misses");
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn basic_tier_products_are_shared_across_policies() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let unprotected =
            service.translate(&DbtConfig::unprotected(), &path, BlockKind::Basic).unwrap();
        let selective =
            service.translate(&DbtConfig::selective(), &path, BlockKind::Basic).unwrap();
        assert!(!unprotected.cache_hit);
        assert!(
            selective.cache_hit,
            "first-pass blocks take no mitigation, so the policy must not split the key"
        );
        // Disabling speculation still shares basic-tier products: the first
        // pass is conservative under every config.
        let nospec =
            service.translate(&DbtConfig::no_speculation(), &path, BlockKind::Basic).unwrap();
        assert!(nospec.cache_hit);
    }

    #[test]
    fn memoized_products_match_the_uncached_compiler() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let config = DbtConfig::fine_grained();
        let fresh = compile_path(&config, &path, BlockKind::Basic).unwrap();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        let memoized = service.translate(&config, &path, BlockKind::Basic).unwrap();
        assert!(memoized.cache_hit);
        assert_eq!(*fresh.code, *memoized.product.code);
    }

    #[test]
    fn capacity_bound_evicts_the_least_recently_used_entry() {
        let (mem, entry) = straightline_memory();
        let service = TranslationService::with_capacity(2);
        let config = DbtConfig::unprotected();
        // The straight line from each of the first three instructions:
        // three distinct paths, one product per cache each.
        let paths: Vec<GuestPath> =
            [entry, entry + 4, entry + 8].iter().map(|&pc| basic_path(&mem, pc)).collect();
        for path in &paths {
            let _ = service.translate(&config, path, BlockKind::Basic).unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.entries, 4, "two products per cache: the bound holds");
        assert_eq!(stats.evictions, 2, "one analysis and one codegen evicted");
        // The first path was the least recently used and must re-translate;
        // the last one is still resident.
        assert!(service.translate(&config, &paths[2], BlockKind::Basic).unwrap().cache_hit);
        assert!(!service.translate(&config, &paths[0], BlockKind::Basic).unwrap().cache_hit);
    }

    #[test]
    fn metered_service_times_actual_compiles_only() {
        let (mem, entry) = straightline_memory();
        let registry = MetricsRegistry::new();
        let service = TranslationService::with_metrics(&registry);
        let path = basic_path(&mem, entry);
        let config = DbtConfig::unprotected();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        let text = registry.render();
        assert!(
            text.contains("dbt_translate_phase_seconds_count{phase=\"analysis\"} 1"),
            "one actual analysis despite two asks:\n{text}"
        );
        assert!(
            text.contains("dbt_translate_phase_seconds_count{phase=\"codegen\"} 1"),
            "one actual codegen despite two asks:\n{text}"
        );
    }

    #[test]
    fn verdict_payload_round_trips() {
        let verdict = LeakageVerdict {
            entry_pc: 0x1000,
            block_len: 9,
            sources: vec![
                TaintSource {
                    load: InstId(2),
                    kind: TaintSourceKind::BoundCheckBypass,
                    cause: InstId(1),
                },
                TaintSource {
                    load: InstId(5),
                    kind: TaintSourceKind::StoreBypass,
                    cause: InstId(4),
                },
            ],
            tainted_values: vec![InstId(2), InstId(3), InstId(5)],
            transmitters: vec![InstId(6)],
            gadgets: vec![Gadget { transmitter: InstId(6), sources: vec![InstId(2), InstId(5)] }],
        };
        let bytes = encode_verdict(&verdict);
        assert_eq!(decode_verdict(&bytes), Some(verdict.clone()));
        // The empty (leak-free) verdict round-trips too.
        let clean = LeakageVerdict {
            entry_pc: 4,
            block_len: 1,
            sources: vec![],
            tainted_values: vec![],
            transmitters: vec![],
            gadgets: vec![],
        };
        assert_eq!(decode_verdict(&encode_verdict(&clean)), Some(clean));
        // Torn or foreign payloads decode to None, never panic.
        assert_eq!(decode_verdict(&[]), None);
        assert_eq!(decode_verdict(&bytes[..bytes.len() - 2]), None);
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(decode_verdict(&trailing), None);
        let mut bad_kind = bytes;
        // The source-kind byte sits after version(1)+pc(8)+len(8)+count(8)+load(8).
        bad_kind[33] = 7;
        assert_eq!(decode_verdict(&bad_kind), None);
    }

    fn fresh_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("dbt-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn persisted_verdicts_survive_a_service_restart() {
        let (mem, entry) = straightline_memory();
        let root = fresh_root("verdict");
        let path = basic_path(&mem, entry);
        let kind = BlockKind::Superblock { merged_blocks: 1 };
        let config = DbtConfig::selective();
        let first = {
            let tier = dbt_persist::PersistStore::open(&root).unwrap();
            let registry = MetricsRegistry::new();
            let service = TranslationService::with_metrics_and_persist(&registry, tier.clone());
            let first = service.translate(&config, &path, kind).unwrap();
            assert_eq!(tier.stats().writes, 1, "the superblock verdict was published");
            first
        };
        // A restarted service over the same root reads the verdict back
        // and produces an identical product.
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        let registry = MetricsRegistry::new();
        let service = TranslationService::with_metrics_and_persist(&registry, tier.clone());
        let second = service.translate(&config, &path, kind).unwrap();
        assert!(!second.cache_hit, "the in-memory memo is cold after a restart");
        assert_eq!(tier.stats().hits, 1, "the verdict came from disk");
        assert_eq!(tier.stats().writes, 0, "a disk hit is not re-published");
        assert_eq!(*first.product.code, *second.product.code);
        let (a, b) = (first.product.analysed.unwrap(), second.product.analysed.unwrap());
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.report, b.report);
        // Basic-tier blocks carry no verdict and never touch the disk.
        let writes = tier.stats().writes;
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        assert_eq!(tier.stats().writes, writes);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn contradicting_persisted_verdicts_are_quarantined_and_recomputed() {
        let (mem, entry) = straightline_memory();
        let root = fresh_root("contradict");
        let path = basic_path(&mem, entry);
        let kind = BlockKind::Superblock { merged_blocks: 1 };
        let config = DbtConfig::selective();
        let tier = dbt_persist::PersistStore::open(&root).unwrap();
        // Plant a well-formed verdict for the wrong block under the key
        // the translation will ask for.
        let options = effective_options(&config, kind);
        let analysis_key = hash64(&(path_fingerprint(&path, kind), options));
        let key = verdict_key_hex(analysis_key);
        let wrong = LeakageVerdict {
            entry_pc: 0xbad,
            block_len: 999,
            sources: vec![],
            tainted_values: vec![],
            transmitters: vec![],
            gadgets: vec![],
        };
        assert!(tier.put(VERDICT_KIND, &key, &encode_verdict(&wrong)));
        let registry = MetricsRegistry::new();
        let service = TranslationService::with_metrics_and_persist(&registry, tier.clone());
        let translated = service.translate(&config, &path, kind).unwrap();
        let verdict = translated.product.analysed.unwrap().verdict;
        assert_ne!(verdict.entry_pc, 0xbad, "the planted verdict was not believed");
        assert_eq!(tier.stats().corrupt_quarantined, 1);
        // Two publishes: the planted entry and the recomputed verdict.
        assert_eq!(tier.stats().writes, 2, "the recomputed verdict was re-published");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stats_export_mirrors_the_snapshot() {
        let (mem, entry) = straightline_memory();
        let registry = MetricsRegistry::new();
        let service = TranslationService::new();
        let path = basic_path(&mem, entry);
        let config = DbtConfig::unprotected();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        let _ = service.translate(&config, &path, BlockKind::Basic).unwrap();
        service.stats().export(&registry);
        let text = registry.render();
        assert!(text.contains("dbt_translate_hits_total 1"), "{text}");
        assert!(text.contains("dbt_translate_misses_total 2"), "{text}");
        assert!(text.contains("dbt_translate_entries 2"), "one analysis and one codegen: {text}");
        assert!(text.contains("dbt_translate_evictions_total 0"), "{text}");
    }
}
