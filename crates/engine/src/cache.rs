//! Content-addressed artifact cache.
//!
//! Campaign grids repeat work aggressively: every attack on the same
//! benchmark × scheme × budget × seed cell re-locks the same design, and
//! every scheme on the same benchmark × seed regenerates the same base
//! module. The cache keys each artifact by the FNV-1a hash of its content
//! recipe ([`crate::fnv`]) so repeated cells hit instead of recompute:
//!
//! - **base designs** — keyed by generator config,
//! - **locked modules** (+ key + metric trace + ODT) — keyed by the
//!   emitted Verilog of the base design plus the locking config,
//! - **relock training sets** — keyed by the emitted Verilog of the
//!   locked design plus the relock config,
//! - **lowered netlists** (+ gate key, when gate-locked) — keyed by the
//!   emitted Verilog of the source module plus the lowering / gate-lock
//!   config, so one synthesis serves every gate-level cell that shares
//!   the source.
//!
//! The content keys that hash emitted Verilog are memoized under their
//! *recipe* ([`ArtifactCache::content_key`]): the design key plus every
//! other input of the content key. A cell whose recipe was seen before
//! neither emits nor hashes any text, and the content key (so the spill
//! file name) is the one the text would give.
//!
//! With a spill directory configured, locked modules, training sets, and
//! lowered netlists also persist as files named by their content hash, so
//! separate CLI invocations of the same spec warm-start from disk. Each
//! artifact is one container: a header line with the kind, a format
//! version, the payload length and the payload's FNV-1a 64, then a text
//! payload (a locked module's spans a `.key` and a `.v` file). A spill
//! that fails any check is rebuilt, never trusted. A
//! long-lived spill directory (an orchestrated multi-day sweep, a shared
//! `--cache-dir` across campaigns) can additionally be *capped*
//! ([`ArtifactCache::with_spill_dir_capped`]): when the on-disk bytes
//! exceed the cap, the least-recently-used spill files are evicted.
//! Eviction is always safe — a evicted artifact degrades to a cache miss
//! and is rebuilt (and re-spilled) on next use.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use mlrl_attack::relock::TrainingSet;
use mlrl_locking::key::Key;
use mlrl_locking::key::KeyBitKind::{self, Branch, Constant, Operation};
use mlrl_locking::metric::SecurityMetric;
use mlrl_locking::odt::Odt;
use mlrl_locking::pairs::PairTable;
use mlrl_netlist::serdes::{emit_netlist, parse_netlist};
use mlrl_netlist::Netlist;
use mlrl_rtl::parser::parse_verilog;
use mlrl_rtl::Module;

/// A locked instance: the module, its correct key, (for metric-traced
/// schemes) the per-bit metric evolution, and the module's ODT, loaded
/// once so that every cell on the instance reuses it.
#[derive(Debug, Clone)]
pub struct LockedArtifact {
    /// The locked module.
    pub module: Module,
    /// The correct key.
    pub key: Key,
    /// `(key bits, M_g_sec)` after each lock step, when the scheme
    /// reports it (ERA/HRA).
    pub trace: Option<Vec<(usize, f64)>>,
    odt: Odt,
}

impl LockedArtifact {
    /// The artifact of a freshly locked or freshly decoded module; loads
    /// its ODT.
    pub fn new(module: Module, key: Key, trace: Option<Vec<(usize, f64)>>) -> Self {
        let odt = load_odt(&module);
        Self {
            module,
            key,
            trace,
            odt,
        }
    }

    /// The locked module's ODT over [`PairTable::fixed`].
    pub fn odt(&self) -> &Odt {
        &self.odt
    }
}

/// A module's ODT over [`PairTable::fixed`], the table of every engine
/// metric; each load is one module walk, counted as `engine.odt_loads`.
pub(crate) fn load_odt(module: &Module) -> Odt {
    mlrl_obs::counter_add("engine.odt_loads", 1);
    Odt::load(module, PairTable::fixed())
}

/// A lowered (synthesized) netlist, optionally gate-locked.
#[derive(Debug, Clone)]
pub struct LoweredArtifact {
    /// The netlist (scan view, dead logic swept).
    pub netlist: Netlist,
    /// The correct key bits (`K[0]` first); empty when the artifact is a
    /// plain synthesis of an unlocked module.
    pub key: Vec<bool>,
}

/// Cache hit/miss counters at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from memory or disk, all shards.
    pub hits: usize,
    /// Lookups that had to compute, all shards.
    pub misses: usize,
    /// Lowered-netlist shard lookups served from memory or disk (also
    /// counted in `hits`).
    pub lowered_hits: usize,
    /// Lowered-netlist shard lookups that had to synthesize (also counted
    /// in `misses`).
    pub lowered_misses: usize,
    /// Spill files deleted by the LRU cap (capped spill dirs only).
    pub evictions: usize,
    /// Spills that existed but failed a check (torn, corrupt, a part
    /// missing, or another format version); each was rebuilt and respilled.
    pub rejected: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference (`self - earlier`).
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            lowered_hits: self.lowered_hits.saturating_sub(earlier.lowered_hits),
            lowered_misses: self.lowered_misses.saturating_sub(earlier.lowered_misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            rejected: self.rejected.saturating_sub(earlier.rejected),
        }
    }
}

/// Parses a human byte-size token: a plain byte count, or a number with a
/// `k`/`m`/`g` suffix (binary units, case-insensitive) — `64m` = 64 MiB.
/// The `--cache-cap` flags of `mlrl campaign` / `mlrl orchestrate` and
/// the bench binaries all parse through here.
///
/// # Errors
///
/// Returns a message on an empty, malformed, or zero value.
pub fn parse_byte_size(token: &str) -> Result<u64, String> {
    let token = token.trim();
    let (digits, multiplier) = match token.char_indices().last() {
        Some((i, c)) if c.eq_ignore_ascii_case(&'k') => (&token[..i], 1u64 << 10),
        Some((i, c)) if c.eq_ignore_ascii_case(&'m') => (&token[..i], 1u64 << 20),
        Some((i, c)) if c.eq_ignore_ascii_case(&'g') => (&token[..i], 1u64 << 30),
        _ => (token, 1),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|e| format!("bad byte size `{token}`: {e}"))?;
    if n == 0 {
        return Err(format!("bad byte size `{token}`: must be positive"));
    }
    n.checked_mul(multiplier)
        .ok_or_else(|| format!("bad byte size `{token}`: overflows u64"))
}

/// A build slot: `None` until the first requester populates it; the
/// mutex serializes building so concurrent misses build once and share.
type Slot<T> = Arc<Mutex<Option<Arc<T>>>>;

struct Shard<T> {
    /// Key → build slot. The outer mutex is held only to find/create a
    /// slot; the per-slot mutex serializes building, so two cells that
    /// miss on the same key build once and share, instead of racing.
    map: Mutex<HashMap<u64, Slot<T>>>,
}

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Self {
            map: Mutex::default(),
        }
    }
}

impl<T> Shard<T> {
    /// Fetches `key`, building on miss with in-flight deduplication:
    /// concurrent requesters of the same key block on the slot's lock
    /// while the first one builds, then receive the built value as a
    /// hit. A failed build leaves the slot empty so a later caller
    /// retries. Returns `(value, was_hit)`.
    fn get_or_build(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Arc<T>, bool), String> {
        let slot = self
            .map
            .lock()
            .expect("cache shard poisoned")
            .entry(key)
            .or_insert_with(|| Arc::new(Mutex::new(None)))
            .clone();
        let mut cell = slot.lock().expect("cache slot poisoned");
        if let Some(found) = cell.as_ref() {
            return Ok((Arc::clone(found), true));
        }
        let built = Arc::new(build()?);
        *cell = Some(Arc::clone(&built));
        Ok((built, false))
    }

    /// Number of *populated* slots (failed builds leave empty ones).
    fn len(&self) -> usize {
        self.map
            .lock()
            .expect("cache shard poisoned")
            .values()
            .filter(|slot| slot.lock().map(|cell| cell.is_some()).unwrap_or(false))
            .count()
    }
}

/// Recency bookkeeping of one spilled file.
struct SpillEntry {
    size: u64,
    /// Monotonic access sequence number; smallest = least recently used.
    last_use: u64,
}

/// LRU index over a spill directory. Only consulted when a cap is set;
/// shared spill dirs (co-located shards) may race deletions, which
/// degrades to a miss on the loser's side — never an error.
#[derive(Default)]
struct SpillIndex {
    seq: u64,
    /// Running sum of `entries` sizes, maintained incrementally so the
    /// per-write cap check costs O(1) instead of re-summing the map.
    total: u64,
    entries: HashMap<PathBuf, SpillEntry>,
}

impl SpillIndex {
    /// Seeds the index from an existing directory, oldest-modified files
    /// first, so a resumed run evicts stale artifacts before fresh ones.
    fn scan(dir: &Path) -> Self {
        let mut files: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        if let Ok(read) = std::fs::read_dir(dir) {
            for entry in read.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|ext| ext == "tmp") {
                    continue;
                }
                if let Ok(meta) = entry.metadata() {
                    if meta.is_file() {
                        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                        files.push((path, meta.len(), mtime));
                    }
                }
            }
        }
        files.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        let mut index = SpillIndex::default();
        for (path, size, _) in files {
            index.touch(&path, size);
        }
        index
    }

    fn touch(&mut self, path: &Path, size: u64) {
        self.seq += 1;
        let last_use = self.seq;
        if let Some(old) = self
            .entries
            .insert(path.to_path_buf(), SpillEntry { size, last_use })
        {
            self.total -= old.size;
        }
        self.total += size;
    }

    fn remove(&mut self, path: &Path) {
        if let Some(old) = self.entries.remove(path) {
            self.total -= old.size;
        }
    }
}

/// On-disk spill configuration: the directory plus an optional byte cap
/// with its LRU index.
struct Spill {
    dir: PathBuf,
    cap: Option<u64>,
    index: Mutex<SpillIndex>,
}

impl Spill {
    fn path(&self, content_key: u64, ext: &str) -> PathBuf {
        self.dir.join(format!("{content_key:016x}.{ext}"))
    }

    /// Reads one spill file, refreshing its LRU recency.
    fn read(&self, content_key: u64, ext: &str) -> std::io::Result<String> {
        let path = self.path(content_key, ext);
        let text = {
            let _span = mlrl_obs::span("cache.spill.read");
            std::fs::read_to_string(&path)?
        };
        if self.cap.is_some() {
            let mut index = self.index.lock().expect("spill index poisoned");
            index.touch(&path, text.len() as u64);
        }
        Ok(text)
    }
}

/// Thread-safe content-addressed store for campaign artifacts.
#[derive(Default)]
pub struct ArtifactCache {
    designs: Shard<Module>,
    locked: Shard<LockedArtifact>,
    training: Shard<TrainingSet>,
    lowered: Shard<LoweredArtifact>,
    /// Emitted-Verilog memo (internal: content-address inputs, not
    /// artifacts; excluded from hit/miss stats).
    texts: Shard<String>,
    /// Base-design metric memo, under the design key (bookkeeping like
    /// `texts`).
    metrics: Shard<SecurityMetric>,
    /// Text-hashed content keys, under their recipe keys (bookkeeping
    /// like `texts`).
    content_keys: Shard<u64>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    lowered_hits: AtomicUsize,
    lowered_misses: AtomicUsize,
    evictions: AtomicUsize,
    rejected: AtomicUsize,
    spill: Option<Spill>,
}

impl ArtifactCache {
    /// Fresh in-memory cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh cache that also persists locked modules, training sets and
    /// lowered netlists under `dir` (created on first write).
    pub fn with_spill_dir(dir: impl Into<PathBuf>) -> Self {
        Self {
            spill: Some(Spill {
                dir: dir.into(),
                cap: None,
                index: Mutex::default(),
            }),
            ..Self::new()
        }
    }

    /// [`ArtifactCache::with_spill_dir`] with a byte cap: whenever the
    /// spilled files exceed `cap_bytes`, the least-recently-used ones are
    /// deleted until the directory fits again. Pre-existing files are
    /// indexed oldest-modified-first, so a long-lived shared cache dir
    /// sheds its stalest artifacts first. Evicting half a `.key`/`.v`
    /// pair makes a rejected miss. `*.tmp` files are not indexed.
    pub fn with_spill_dir_capped(dir: impl Into<PathBuf>, cap_bytes: u64) -> Self {
        let dir = dir.into();
        let index = Mutex::new(SpillIndex::scan(&dir));
        Self {
            spill: Some(Spill {
                dir,
                cap: Some(cap_bytes.max(1)),
                index,
            }),
            ..Self::new()
        }
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            lowered_hits: self.lowered_hits.load(Ordering::Relaxed),
            lowered_misses: self.lowered_misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct artifacts held in memory.
    pub fn len(&self) -> usize {
        self.designs.len() + self.locked.len() + self.training.len() + self.lowered.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fetches or builds a base design.
    pub fn design(&self, content_key: u64, build: impl FnOnce() -> Module) -> Arc<Module> {
        let (value, hit) = self
            .designs
            .get_or_build(content_key, || Ok(build()))
            .expect("design build is infallible");
        self.record(hit);
        value
    }

    /// Memoizes a derived text (e.g. a design's emitted Verilog, used as
    /// content-address input for downstream artifacts). Not counted in
    /// hit/miss stats: it is bookkeeping, not a campaign artifact.
    ///
    /// # Errors
    ///
    /// Propagates `build` errors.
    pub fn text(
        &self,
        content_key: u64,
        build: impl FnOnce() -> Result<String, String>,
    ) -> Result<Arc<String>, String> {
        Ok(self.texts.get_or_build(content_key, build)?.0)
    }

    /// Memoizes a base design's [`SecurityMetric`] under the design's
    /// key. Like [`ArtifactCache::text`], bookkeeping: counted in neither
    /// [`CacheStats`] nor [`ArtifactCache::len`].
    pub fn metric(
        &self,
        design_key: u64,
        build: impl FnOnce() -> SecurityMetric,
    ) -> Arc<SecurityMetric> {
        self.metrics
            .get_or_build(design_key, || Ok(build()))
            .expect("metric build is infallible")
            .0
    }

    /// Memoizes a content key that is a hash of a text under `recipe`: a
    /// cheap key of the text's source (a design or locked key) plus the
    /// content key's other inputs. `hash` fetches or emits the text and
    /// hashes it; it runs once per recipe. Like [`ArtifactCache::text`],
    /// bookkeeping: counted in neither [`CacheStats`] nor
    /// [`ArtifactCache::len`].
    ///
    /// # Errors
    ///
    /// Propagates `hash` errors.
    pub fn content_key(
        &self,
        recipe: u64,
        hash: impl FnOnce() -> Result<u64, String>,
    ) -> Result<u64, String> {
        Ok(*self.content_keys.get_or_build(recipe, hash)?.0)
    }

    /// Fetches or builds a locked instance, consulting the spill
    /// directory between memory and `build`.
    ///
    /// # Errors
    ///
    /// Propagates `build` errors (memory and disk are infallible reads;
    /// a corrupt spill file is treated as a miss).
    pub fn locked(
        &self,
        content_key: u64,
        build: impl FnOnce() -> Result<LockedArtifact, String>,
    ) -> Result<Arc<LockedArtifact>, String> {
        Ok(self.fetch(&self.locked, content_key, build)?.0)
    }

    /// Fetches or builds a relock training set, consulting the spill
    /// directory between memory and `build`.
    pub fn training(
        &self,
        content_key: u64,
        build: impl FnOnce() -> TrainingSet,
    ) -> Arc<TrainingSet> {
        self.fetch(&self.training, content_key, || Ok(build()))
            .expect("training build is infallible")
            .0
    }

    /// Fetches or builds a lowered (and possibly gate-locked) netlist,
    /// consulting the spill directory between memory and `build`. Also
    /// tracked by the dedicated `lowered_*` counters in [`CacheStats`],
    /// so reports can show how many synthesis runs the shard saved.
    ///
    /// # Errors
    ///
    /// Propagates `build` errors (a corrupt spill file is treated as a
    /// miss).
    pub fn lowered(
        &self,
        content_key: u64,
        build: impl FnOnce() -> Result<LoweredArtifact, String>,
    ) -> Result<Arc<LoweredArtifact>, String> {
        let (value, hit) = self.fetch(&self.lowered, content_key, build)?;
        if hit {
            self.lowered_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.lowered_misses.fetch_add(1, Ordering::Relaxed);
        }
        Ok(value)
    }

    /// Memory, then the spill file, then `build` (whose result is
    /// spilled). Returns the artifact and whether it was a hit.
    fn fetch<T: Spilled>(
        &self,
        shard: &Shard<T>,
        content_key: u64,
        build: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Arc<T>, bool), String> {
        let mut from_disk = false;
        let (value, mem_hit) = shard.get_or_build(content_key, || {
            if let Some(found) = self.load(content_key) {
                from_disk = true;
                return Ok(found);
            }
            let built = build()?;
            self.store(content_key, &built);
            Ok(built)
        })?;
        let hit = mem_hit || from_disk;
        self.record(hit);
        Ok((value, hit))
    }

    // -- disk spill: `load` and `store` are all that touch spill files --

    /// Reads and decodes the spill of `content_key`. A missing header
    /// file is a plain miss; a spill that fails any check is a miss
    /// counted in [`CacheStats::rejected`], and the rebuilt artifact is
    /// spilled over it.
    fn load<T: Spilled>(&self, content_key: u64) -> Option<T> {
        let spill = self.spill.as_ref()?;
        let (head, sides) = T::PARTS.split_last()?;
        let text = match spill.read(content_key, head) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            read => read.ok(),
        };
        let found = text.and_then(|text| {
            let sides = sides.iter().map(|ext| spill.read(content_key, ext).ok());
            let sides = sides.collect::<Option<Vec<String>>>()?;
            let (header, payload) = text.split_once('\n')?;
            let mut parts: Vec<&str> = sides.iter().map(String::as_str).collect();
            parts.push(payload);
            (header == spill_header(T::KIND, &parts)).then(|| T::decode(&parts))?
        });
        if found.is_none() {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Spills `artifact`, one [`mlrl_obs::write_atomic`] per part, the
    /// header part last; a failed write is a miss next run.
    fn store<T: Spilled>(&self, content_key: u64, artifact: &T) {
        let Some(spill) = self.spill.as_ref() else {
            return;
        };
        let Some(mut parts) = artifact.encode() else {
            return;
        };
        let _span = mlrl_obs::span("cache.spill.write");
        let header = spill_header(T::KIND, &parts) + "\n";
        if let Some(head) = parts.last_mut() {
            head.insert_str(0, &header);
        }
        let _ = std::fs::create_dir_all(&spill.dir);
        for (ext, text) in T::PARTS.iter().zip(&parts) {
            let path = spill.path(content_key, ext);
            if mlrl_obs::write_atomic(&path, text).is_err() {
                return;
            }
            self.enforce_spill_cap(&path, text.len() as u64);
        }
    }

    /// Records a fresh spill write in the LRU index and deletes the
    /// least-recently-used files until the directory fits the cap again.
    /// The file just written is never evicted in its own round (even when
    /// it alone exceeds the cap, so spilling stays monotonic).
    fn enforce_spill_cap(&self, written: &Path, size: u64) {
        let Some(spill) = self.spill.as_ref() else {
            return;
        };
        let Some(cap) = spill.cap else {
            return;
        };
        let mut index = spill.index.lock().expect("spill index poisoned");
        index.touch(written, size);
        while index.total > cap {
            let victim = index
                .entries
                .iter()
                .filter(|(path, _)| path.as_path() != written)
                .min_by(|a, b| (a.1.last_use, a.0).cmp(&(b.1.last_use, b.0)))
                .map(|(path, _)| path.clone());
            let Some(victim) = victim else {
                break; // only the fresh file remains
            };
            // A racing co-located process may have deleted it already;
            // dropping it from the index is what reclaims the budget.
            let _ = std::fs::remove_file(&victim);
            index.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Spill container format version. Bump it when a payload encoding
/// changes: spills of the old version then read as rejected misses.
const SPILL_VERSION: u32 = 1;

/// A spill's header line, without its newline: a `//` comment (so a `.v`
/// part stays a Verilog file) with the kind, the format version, each
/// part's length and the FNV-1a 64 of the parts in order.
fn spill_header(kind: &str, parts: &[impl AsRef<str>]) -> String {
    let mut sum = crate::fnv::Fnv64::new();
    let mut header = format!("// mlrl-spill {kind} v{SPILL_VERSION}");
    for part in parts {
        sum.write_str(part.as_ref());
        header.push_str(&format!(" {}", part.as_ref().len()));
    }
    header + &format!(" {:016x}", sum.finish())
}

/// An artifact that spills as one `<key:016x>.<ext>` file per `PARTS`
/// extension, the last opening with the header line. `encode` gives one
/// text per part, or `None` for an artifact that stays memory-only.
trait Spilled: Sized {
    const KIND: &'static str;
    const PARTS: &'static [&'static str];
    fn encode(&self) -> Option<Vec<String>>;
    fn decode(parts: &[&str]) -> Option<Self>;
}

/// Appends a key's `0`/`1` line (`K[0]` first), the line that opens the
/// locked `.key` part and the lowered payload.
fn push_key_line(out: &mut String, bits: &[bool]) {
    out.extend(bits.iter().map(|&b| if b { '1' } else { '0' }));
    out.push('\n');
}

/// Splits the key line off the front of a part.
fn split_key_line(text: &str) -> Option<(Vec<bool>, &str)> {
    let (line, rest) = text.split_once('\n')?;
    let bits = line.chars().map(|c| Some(c.to_digit(2)? == 1));
    Some((bits.collect::<Option<_>>()?, rest))
}

/// Key-bit kinds in the order of their `.key` letters.
const KINDS: [KeyBitKind; 3] = [Operation, Branch, Constant];
const KIND_LETTERS: [u8; 3] = *b"OBC";

/// Two parts: `.key` holds the key line, one `O|B|C` kind per bit and
/// one `<key bits> <M_g_sec>` line per lock step; `.v` holds the emitted
/// Verilog after the header line. The layout is the one
/// `campaign_bench`'s traced walk reads on its own.
impl Spilled for LockedArtifact {
    const KIND: &'static str = "locked";
    const PARTS: &'static [&'static str] = &["key", "v"];

    fn encode(&self) -> Option<Vec<String>> {
        let mut key = String::new();
        push_key_line(&mut key, self.key.as_bits());
        for i in 0..self.key.len() as u32 {
            let at = KINDS.iter().position(|&k| Some(k) == self.key.kind(i))?;
            key.push(KIND_LETTERS[at] as char);
        }
        key.push('\n');
        for (n, g) in self.trace.iter().flatten() {
            key.push_str(&format!("{n} {g}\n"));
        }
        Some(vec![key, mlrl_rtl::emit::emit_verilog(&self.module).ok()?])
    }

    fn decode(parts: &[&str]) -> Option<Self> {
        let [key_text, verilog] = parts else {
            return None;
        };
        let (bits, rest) = split_key_line(key_text)?;
        let (kinds, steps) = rest.split_once('\n')?;
        (kinds.len() == bits.len()).then_some(())?;
        let mut key = Key::new();
        for (b, k) in bits.into_iter().zip(kinds.chars()) {
            key.push(b, KINDS[KIND_LETTERS.iter().position(|&l| l as char == k)?]);
        }
        let mut trace = Vec::new();
        for line in steps.lines() {
            let (n, g) = line.split_once(' ')?;
            trace.push((n.parse().ok()?, g.parse().ok()?));
        }
        let module = parse_verilog(verilog).ok()?;
        let trace = (!trace.is_empty()).then_some(trace);
        Some(LockedArtifact::new(module, key, trace))
    }
}

/// `width <k>`, then one row per sample: `k` feature columns and the
/// label. Mixed-width sets, which no single width describes, stay
/// memory-only.
impl Spilled for TrainingSet {
    const KIND: &'static str = "training";
    const PARTS: &'static [&'static str] = &["training"];

    fn encode(&self) -> Option<Vec<String>> {
        let width = self.features.first().map_or(2, Vec::len);
        if self.features.iter().any(|f| f.len() != width) {
            return None;
        }
        let mut text = format!("width {width}\n");
        for (f, label) in self.features.iter().zip(&self.labels) {
            for c in f {
                text.push_str(&format!("{c} "));
            }
            text.push_str(&format!("{label}\n"));
        }
        Some(vec![text])
    }

    fn decode(parts: &[&str]) -> Option<Self> {
        let (head, rows) = parts.first()?.split_once('\n')?;
        let width: usize = head.strip_prefix("width ")?.parse().ok()?;
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for line in rows.lines() {
            let mut parts = line.split(' ');
            // `take`, not `with_capacity(width)`: the width comes from disk.
            let row = parts.by_ref().take(width).map(|c| c.parse().ok());
            let row = row.collect::<Option<Vec<_>>>()?;
            labels.push(parts.next()?.parse().ok()?);
            if parts.next().is_some() {
                return None;
            }
            features.push(row);
        }
        Some(TrainingSet { features, labels })
    }
}

/// The key line (empty for a plain synthesis), then the
/// [`mlrl_netlist::serdes`] text.
impl Spilled for LoweredArtifact {
    const KIND: &'static str = "lowered";
    const PARTS: &'static [&'static str] = &["lowered"];

    fn encode(&self) -> Option<Vec<String>> {
        let mut out = String::new();
        push_key_line(&mut out, &self.key);
        out.push_str(&emit_netlist(&self.netlist));
        Some(vec![out])
    }

    fn decode(parts: &[&str]) -> Option<Self> {
        let (key, body) = split_key_line(parts.first()?)?;
        let netlist = parse_netlist(body).ok()?;
        Some(LoweredArtifact { netlist, key })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlrl_rtl::bench_designs::{benchmark_by_name, generate};

    #[test]
    fn design_lookups_hit_after_first_build() {
        let cache = ArtifactCache::new();
        let spec = benchmark_by_name("FIR").expect("benchmark");
        let mut builds = 0;
        for _ in 0..3 {
            let m = cache.design(42, || {
                builds += 1;
                generate(&spec, 1)
            });
            assert_eq!(m.name(), "fir");
        }
        assert_eq!(builds, 1);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                ..Default::default()
            }
        );
        assert!((cache.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = ArtifactCache::new();
        let builds = AtomicUsize::new(0);
        let spec = benchmark_by_name("FIR").expect("benchmark");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    cache.training(77, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Widen the race window: everyone should be
                        // queued on the slot before the build finishes.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        let _ = generate(&spec, 1);
                        TrainingSet {
                            features: vec![vec![1, 2]],
                            labels: vec![1],
                        }
                    });
                });
            }
        });
        assert_eq!(
            builds.load(Ordering::Relaxed),
            1,
            "in-flight dedup must hold"
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 7,
                misses: 1,
                ..Default::default()
            }
        );
    }

    /// A FIR lock at a small budget, with a metric trace.
    fn fir_lock() -> Result<LockedArtifact, String> {
        let spec = benchmark_by_name("FIR").expect("benchmark");
        let mut module = generate(&spec, 3);
        let key = mlrl_locking::assure::lock_operations(
            &mut module,
            &mlrl_locking::assure::AssureConfig::serial(10, 7),
        )
        .map_err(|e| e.to_string())?;
        Ok(LockedArtifact::new(
            module,
            key,
            Some(vec![(1, 12.5), (2, 25.0)]),
        ))
    }

    /// A SIM_SPI lowering at `width`, gate-locked with 5 key bits.
    fn spi_lowering(width: u32) -> Result<LoweredArtifact, String> {
        let spec = benchmark_by_name("SIM_SPI").expect("benchmark");
        let module = mlrl_rtl::bench_designs::generate_with_width(&spec, 3, width);
        let mut netlist = mlrl_netlist::lower::lower_module(&module)
            .map_err(|e| e.to_string())?
            .to_scan_view();
        netlist.sweep();
        let key =
            mlrl_netlist::lock::xor_xnor_lock(&mut netlist, 5, 9).map_err(|e| e.to_string())?;
        Ok(LoweredArtifact {
            netlist,
            key: key.bits().to_vec(),
        })
    }

    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlrl-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn locked_artifacts_round_trip_through_spill_dir() {
        let dir = spill_dir("locked");
        let first = ArtifactCache::with_spill_dir(&dir);
        let a = first.locked(7, fir_lock).expect("builds");
        assert_eq!(first.stats().misses, 1);

        // A fresh cache over the same dir warm-starts from disk.
        let second = ArtifactCache::with_spill_dir(&dir);
        let b = second
            .locked(7, || Err("must not rebuild".to_owned()))
            .expect("loads from spill");
        assert_eq!(
            second.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                ..Default::default()
            }
        );
        assert_eq!(a.key, b.key);
        assert_eq!(a.trace, b.trace);
        assert_eq!(b.odt(), &Odt::load(&b.module, PairTable::fixed()));
        let emitted = mlrl_rtl::emit::emit_verilog(&a.module).expect("emit a");
        assert_eq!(
            emitted,
            mlrl_rtl::emit::emit_verilog(&b.module).expect("emit b")
        );

        // The `.v` part, header line included, parses on its own.
        let v = std::fs::read_to_string(dir.join(format!("{:016x}.v", 7u64))).expect("spilled");
        let module = parse_verilog(&v).expect("the header is a comment");
        assert_eq!(
            emitted,
            mlrl_rtl::emit::emit_verilog(&module).expect("emit")
        );

        // A `.v` part without its `.key` part is a rejected miss.
        std::fs::remove_file(dir.join(format!("{:016x}.key", 7u64))).expect("drop key part");
        let third = ArtifactCache::with_spill_dir(&dir);
        third.locked(7, fir_lock).expect("relocks");
        assert_eq!(third.stats().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lowered_netlists_round_trip_through_spill_dir() {
        let dir = spill_dir("low");
        let first = ArtifactCache::with_spill_dir(&dir);
        let a = first.lowered(13, || spi_lowering(6)).expect("builds");
        assert_eq!(
            first.stats(),
            CacheStats {
                hits: 0,
                misses: 1,
                lowered_hits: 0,
                lowered_misses: 1,
                ..Default::default()
            }
        );

        // A fresh cache over the same dir warm-starts from disk, and the
        // loaded artifact is structurally identical.
        let second = ArtifactCache::with_spill_dir(&dir);
        let b = second
            .lowered(13, || Err("must not re-synthesize".to_owned()))
            .expect("loads from spill");
        assert_eq!(
            second.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                lowered_hits: 1,
                lowered_misses: 0,
                ..Default::default()
            }
        );
        assert_eq!(a.netlist, b.netlist);
        assert_eq!(a.key, b.key);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn training_sets_round_trip_through_spill_dir() {
        let dir = std::env::temp_dir().join(format!("mlrl-cache-train-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let training = TrainingSet {
            features: vec![vec![3, 4], vec![5, 6]],
            labels: vec![1, 0],
        };
        let first = ArtifactCache::with_spill_dir(&dir);
        let stored = first.training(9, || training.clone());
        assert_eq!(*stored, training);

        let second = ArtifactCache::with_spill_dir(&dir);
        let loaded = second.training(9, || panic!("must not rebuild"));
        assert_eq!(*loaded, training);
        assert_eq!(
            second.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                ..Default::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wide_training_sets_round_trip_and_headerless_spills_are_rejected() {
        let dir = spill_dir("train-wide");

        // 5-wide gate-level locality rows survive the disk round-trip
        // (the payload carries the feature width).
        let gate = TrainingSet {
            features: vec![vec![1, 2, 3, 4, 5], vec![6, 7, 8, 9, 10]],
            labels: vec![0, 1],
        };
        let first = ArtifactCache::with_spill_dir(&dir);
        first.training(21, || gate.clone());
        let second = ArtifactCache::with_spill_dir(&dir);
        let loaded = second.training(21, || panic!("must not rebuild"));
        assert_eq!(*loaded, gate);

        // A headerless file (the retired v1 training format) is a
        // rejected miss, rebuilt and spilled over.
        let path = dir.join(format!("{:016x}.training", 22u64));
        std::fs::write(&path, "3 4 1\n5 6 0\n").expect("write headerless spill");
        let rebuilt = second.training(22, || gate.clone());
        assert_eq!(*rebuilt, gate);
        assert_eq!(second.stats().rejected, 1);
        let third = ArtifactCache::with_spill_dir(&dir);
        assert_eq!(*third.training(22, || panic!("respilled")), gate);

        // Mixed-width sets cannot be described by one header: memory-only.
        let mixed = TrainingSet {
            features: vec![vec![1, 2], vec![1, 2, 3]],
            labels: vec![0, 1],
        };
        second.training(23, || mixed.clone());
        assert!(!dir.join(format!("{:016x}.training", 23u64)).exists());

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Spills `artifact`, then serves every truncation and every
    /// single-bit flip of each of its files to a fresh cache. Each case
    /// must be a rejected miss that calls the rebuild closure, or load an
    /// artifact with the original's payload.
    fn corrupt_every_byte<T: Spilled + Clone>(artifact: T, shard: fn(&ArtifactCache) -> &Shard<T>) {
        let dir = spill_dir(&format!("corrupt-{}", T::KIND));
        let cold = ArtifactCache::with_spill_dir(&dir);
        cold.fetch(shard(&cold), 1, || Ok(artifact.clone()))
            .expect("spills");
        for ext in T::PARTS {
            corrupt_every_byte_of(&artifact, shard, &dir.join(format!("{:016x}.{ext}", 1)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn corrupt_every_byte_of<T: Spilled + Clone>(
        artifact: &T,
        shard: fn(&ArtifactCache) -> &Shard<T>,
        path: &Path,
    ) {
        let dir = path.parent().expect("spill dir");
        let good = std::fs::read(path).expect("spilled file");
        let original = artifact.encode();
        let check = |bytes: &[u8], case: &str| {
            std::fs::write(path, bytes).expect("write corrupt spill");
            let cache = ArtifactCache::with_spill_dir(dir);
            let mut rebuilt = false;
            let (got, _) = cache
                .fetch(shard(&cache), 1, || {
                    rebuilt = true;
                    Ok(artifact.clone())
                })
                .expect("fetch");
            let case = format!("{} {case}", path.display());
            if rebuilt {
                assert_eq!(cache.stats().rejected, 1, "{case}");
            } else {
                assert_eq!(got.encode(), original, "{case}");
            }
        };
        for len in 0..good.len() {
            check(&good[..len], &format!("truncated to {len}"));
        }
        for at in 0..good.len() {
            let mut bytes = good.clone();
            bytes[at] ^= 1 << (at % 8);
            check(&bytes, &format!("flipped at {at}"));
        }
        // The rebuilds respilled over the corrupt file; restore the cold
        // bytes in any case for the next part.
        std::fs::write(path, &good).expect("restore spill");
    }

    #[test]
    fn every_corruption_of_a_locked_spill_is_rebuilt_or_exact() {
        corrupt_every_byte(fir_lock().expect("lock"), |c| &c.locked);
    }

    #[test]
    fn every_corruption_of_a_lowered_spill_is_rebuilt_or_exact() {
        corrupt_every_byte(spi_lowering(4).expect("lower"), |c| &c.lowered);
    }

    #[test]
    fn every_corruption_of_a_training_spill_is_rebuilt_or_exact() {
        let rows = TrainingSet {
            features: vec![vec![3, 4], vec![5, 6], vec![7, 8]],
            labels: vec![1, 0, 1],
        };
        corrupt_every_byte(rows, |c| &c.training);
    }

    #[test]
    fn a_halved_training_spill_gives_the_cold_set() {
        let dir = spill_dir("halved");
        let cold = wide_set(4);
        ArtifactCache::with_spill_dir(&dir).training(5, || cold.clone());
        let path = dir.join(format!("{:016x}.training", 5u64));
        let text = std::fs::read_to_string(&path).expect("spilled");
        std::fs::write(&path, &text[..text.len() / 2]).expect("halve");
        let warm = ArtifactCache::with_spill_dir(&dir);
        assert_eq!(*warm.training(5, || cold.clone()), cold);
        assert_eq!(warm.stats().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_edited_locked_spill_gives_the_cold_artifact() {
        let dir = spill_dir("edited");
        let cold = ArtifactCache::with_spill_dir(&dir)
            .locked(6, fir_lock)
            .expect("locks");
        let path = dir.join(format!("{:016x}.v", 6u64));
        let text = std::fs::read_to_string(&path).expect("spilled");
        let edited = text.replacen(" + ", " - ", 1);
        assert_ne!(edited, text, "the locked Verilog has an adder");
        std::fs::write(&path, edited).expect("edit");
        let warm = ArtifactCache::with_spill_dir(&dir);
        let got = warm.locked(6, fir_lock).expect("relocks");
        assert_eq!(got.encode(), cold.encode());
        assert_eq!(warm.stats().rejected, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn wide_set(tag: u32) -> TrainingSet {
        TrainingSet {
            features: (0..32).map(|i| vec![tag, i]).collect(),
            labels: vec![1; 32],
        }
    }

    #[test]
    fn capped_spill_dirs_evict_least_recently_used_files() {
        let dir = std::env::temp_dir().join(format!("mlrl-cache-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Each spilled set is ~270 bytes; a 600-byte cap holds two.
        let cache = ArtifactCache::with_spill_dir_capped(&dir, 600);
        for key in 0..4u64 {
            cache.training(key, || wide_set(key as u32));
        }
        assert!(
            cache.stats().evictions >= 2,
            "cap must evict (stats: {:?})",
            cache.stats()
        );
        let spilled = |key: u64| dir.join(format!("{key:016x}.training")).exists();
        assert!(!spilled(0), "oldest spill must be the first eviction");
        assert!(spilled(3), "the freshest spill always survives its round");

        // Eviction degrades to a rebuild, never an error: a fresh cache
        // over the same dir misses the evicted key and rebuilds it.
        let second = ArtifactCache::with_spill_dir_capped(&dir, 600);
        let rebuilt = second.training(0, || wide_set(0));
        assert_eq!(*rebuilt, wide_set(0));
        assert_eq!(second.stats().misses, 1);

        // A *read* refreshes recency: touch key 3, then spill one more;
        // the untouched survivor goes first while 3 stays resident.
        let survivors: Vec<u64> = (0..4).filter(|&k| spilled(k)).collect();
        let touched = 3u64;
        second.training(touched, || panic!("resident key must load from disk"));
        second.training(10, || wide_set(10));
        assert!(
            spilled(touched),
            "recently read spill must outlive colder ones (resident before: {survivors:?})"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scripted_access_sequence_yields_exact_stats_deltas() {
        let dir = std::env::temp_dir().join(format!("mlrl-cache-script-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spilled = |key: u64| dir.join(format!("{key:016x}.training")).exists();
        let exactly = |hits: usize, misses: usize, evictions: usize| CacheStats {
            hits,
            misses,
            evictions,
            ..Default::default()
        };

        // Each spilled set is ~270 bytes; a 600-byte cap holds two.
        // Step 1+2: two inserts into a fresh capped cache — two misses,
        // both resident on disk, nothing evicted.
        let writer = ArtifactCache::with_spill_dir_capped(&dir, 600);
        let before = writer.stats();
        writer.training(100, || wide_set(1));
        writer.training(101, || wide_set(2));
        assert_eq!(writer.stats().since(before), exactly(0, 2, 0));
        assert!(spilled(100) && spilled(101));

        // Step 3: read A through a *fresh* cache over the same dir (the
        // writer's memory shard would satisfy the lookup without touching
        // the spill): one hit, and A's recency refreshes on the read.
        let reader = ArtifactCache::with_spill_dir_capped(&dir, 600);
        let before = reader.stats();
        reader.training(100, || panic!("resident key must load from disk"));
        assert_eq!(reader.stats().since(before), exactly(1, 0, 0));

        // Step 4: insert C through the same cache. The cap forces exactly
        // one eviction, and LRU order after the refresh says B goes — not
        // A, which was written earlier but read later.
        let before = reader.stats();
        reader.training(102, || wide_set(3));
        assert_eq!(reader.stats().since(before), exactly(0, 1, 1));
        assert!(spilled(100), "recency-refreshed spill must survive");
        assert!(!spilled(101), "least-recently-used spill must be evicted");
        assert!(spilled(102), "the just-written spill is never the victim");

        // `since` is saturating, never panicking, when counters moved
        // backwards (e.g. a baseline captured from a different cache).
        let inflated = CacheStats {
            hits: usize::MAX,
            ..Default::default()
        };
        assert_eq!(reader.stats().since(inflated).hits, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_byte_size("4096"), Ok(4096));
        assert_eq!(parse_byte_size("64k"), Ok(64 << 10));
        assert_eq!(parse_byte_size("64M"), Ok(64 << 20));
        assert_eq!(parse_byte_size("2G"), Ok(2 << 30));
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("0").is_err());
        assert!(parse_byte_size("12q").is_err());
        assert!(parse_byte_size("999999999999G").is_err());
    }
}
