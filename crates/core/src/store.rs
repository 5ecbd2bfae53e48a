//! Persistent, content-addressed result store.
//!
//! Every measured point in the paper is a pure function of its
//! [`RunRequest`] — `(workload, mechanism, machine config)` — so a finished
//! run can be stored on disk under a deterministic key and replayed later
//! instead of re-simulated. That turns `repro all --paper` from an
//! all-or-nothing batch into an incremental computation: an interrupted
//! sweep resumes in seconds, and iterating on one figure stops re-paying
//! for the others.
//!
//! ## Key derivation
//!
//! The key is the 128-bit FNV-1a hash of the request's canonical
//! [`StableEncoder`] encoding (every model-affecting field under an
//! explicit sorted name; see `commsense_des::stable`) plus
//! [`MODEL_VERSION`], a salt bumped whenever simulated cycles can
//! legitimately change. Bookkeeping-only knobs (`observe`, `check`) are
//! excluded by `MachineConfig::stable_encode`; the runner additionally
//! bypasses the store entirely for such runs, since a cached record
//! carries no observation to hand back.
//!
//! ## Record integrity
//!
//! Records are written to a temporary file and atomically renamed into
//! place, so a concurrent reader sees either the old record or the new
//! one, never a torn prefix. Each record is framed with a magic, the
//! payload length, and a 64-bit FNV-1a checksum; a record that fails any
//! of those checks — or that decodes to the wrong key or model version —
//! is deleted and treated as a miss (recomputed, never trusted).
//!
//! # Examples
//!
//! ```
//! use commsense_core::engine::RunRequest;
//! use commsense_core::store::ResultStore;
//! use commsense_apps::{run_app, AppSpec};
//! use commsense_machine::{MachineConfig, Mechanism};
//! use commsense_workloads::sparse::IccgParams;
//!
//! let dir = std::env::temp_dir().join(format!("commsense-doc-{}", std::process::id()));
//! let store = ResultStore::open(&dir).unwrap();
//! let req = RunRequest {
//!     spec: AppSpec::Iccg(IccgParams::small()),
//!     mechanism: Mechanism::MsgPoll,
//!     cfg: MachineConfig::tiny(),
//! };
//! assert!(store.load(&req).is_none());
//! let result = run_app(&req.spec, req.mechanism, &req.cfg);
//! store.save(&req, &result).unwrap();
//! let warm = store.load(&req).expect("hit");
//! assert_eq!(warm.runtime_cycles, result.runtime_cycles);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use commsense_apps::RunResult;
use commsense_cache::ProtoStats;
use commsense_des::{fnv1a_64, StableEncoder, Time};
use commsense_machine::{LatencyHistogram, Mechanism, NodeStats, RunStats};
use commsense_mesh::VolumeBreakdown;

use crate::engine::RunRequest;
use crate::json::{self, Json, Obj, Value};

/// Model-version salt folded into every store key. Bump whenever the
/// simulator can legitimately produce different cycle counts for the same
/// request (cost-model recalibration, protocol changes, workload-generator
/// changes): old records become unreachable instead of wrong, and
/// [`ResultStore::gc`] reclaims them.
pub const MODEL_VERSION: u32 = 2;

/// Magic bytes opening every record file (version in the name).
const RECORD_MAGIC: &[u8; 8] = b"CSSTORE1";

/// Schema tag inside the record payload.
const RECORD_SCHEMA: &str = "commsense-store-record";

/// Monotonic counters describing one store handle's traffic.
///
/// `hits`/`misses` count [`ResultStore::load`] outcomes (a corrupt record
/// counts as a miss *and* a corruption); `evictions` counts records
/// removed, whether by corruption handling or by [`ResultStore::gc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads satisfied from disk.
    pub hits: u64,
    /// Loads that found no usable record.
    pub misses: u64,
    /// Records that failed framing/checksum/schema validation.
    pub corrupt: u64,
    /// Record files removed (corruption cleanup + gc).
    pub evictions: u64,
    /// Payload bytes read from disk on hits.
    pub bytes_read: u64,
    /// Payload bytes written by saves.
    pub bytes_written: u64,
}

#[derive(Debug, Default)]
struct StatCells {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    evictions: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// An on-disk, content-addressed store of [`RunResult`]s.
///
/// Handles are `Sync`: loads and saves may race freely across the runner's
/// worker threads (and across processes sharing one directory), because
/// every write is an atomic rename and every read validates framing.
///
/// A hit writes nothing. The handle remembers when it last replayed each
/// record and writes those times to one access log under `access/` when
/// it drops; [`ResultStore::gc_max_bytes`] reads them back.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    stats: StatCells,
    /// When this handle last replayed each record, by key.
    used: Mutex<HashMap<u128, SystemTime>>,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<ResultStore> {
        let root = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join("records"))?;
        std::fs::create_dir_all(root.join("quarantine"))?;
        Ok(ResultStore {
            root,
            stats: StatCells::default(),
            used: Mutex::default(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The deterministic 128-bit key of a request: the hash of its
    /// canonical encoding plus the [`MODEL_VERSION`] salt. The config's
    /// receive mode and barrier style are normalized to the request's
    /// mechanism first, exactly as execution does, so a request hashes by
    /// what would actually run.
    pub fn request_key(req: &RunRequest) -> u128 {
        let mut enc = StableEncoder::new();
        enc.put("store.model_version", MODEL_VERSION);
        enc.put("mechanism", req.mechanism.label());
        req.spec.stable_encode(&mut enc);
        req.cfg
            .clone()
            .with_mechanism(req.mechanism)
            .stable_encode(&mut enc);
        enc.finish_hash()
    }

    fn record_path(&self, key: u128) -> PathBuf {
        let hex = format!("{key:032x}");
        self.root
            .join("records")
            .join(&hex[..2])
            .join(format!("{hex}.rec"))
    }

    fn quarantine_path(&self, key: u128) -> PathBuf {
        self.root.join("quarantine").join(format!("{key:032x}.txt"))
    }

    /// Loads the stored result for `req`, or `None` on a miss. A record
    /// that fails validation is deleted and reported as a miss; the caller
    /// recomputes, and the recomputed result overwrites the bad record.
    pub fn load(&self, req: &RunRequest) -> Option<RunResult> {
        self.load_keyed(Self::request_key(req), req)
    }

    /// [`ResultStore::load`] with `req`'s key already computed.
    pub(crate) fn load_keyed(&self, key: u128, req: &RunRequest) -> Option<RunResult> {
        let path = self.record_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_record(&bytes, key, req) {
            Some(result) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_read
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                // Recency for [`ResultStore::gc_max_bytes`], kept in memory
                // until the handle drops: a hit costs no write.
                self.used
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .insert(key, SystemTime::now());
                Some(result)
            }
            None => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                if std::fs::remove_file(&path).is_ok() {
                    self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Stores `result` as the record for `req` (write-through). The write
    /// goes to a temporary file in the record's directory and is renamed
    /// into place, so concurrent readers and writers of the same key never
    /// observe a torn record.
    pub fn save(&self, req: &RunRequest, result: &RunResult) -> std::io::Result<()> {
        self.save_keyed(Self::request_key(req), req, result)
    }

    /// [`ResultStore::save`] with `req`'s key already computed.
    pub(crate) fn save_keyed(
        &self,
        key: u128,
        req: &RunRequest,
        result: &RunResult,
    ) -> std::io::Result<()> {
        let path = self.record_path(key);
        let dir = path.parent().expect("record path has a parent");
        std::fs::create_dir_all(dir)?;
        let bytes = encode_record(key, req, result);
        // Unique tmp name per (process, thread) so concurrent writers of
        // the same key never collide on the staging file either.
        let tmp = dir.join(format!(
            "{key:032x}.tmp.{}.{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        self.stats
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Marks the request with store key `key` as poisoned: subsequent warm
    /// runs report it failed immediately instead of re-tripping the same
    /// panic. The message is what the quarantined point reports.
    pub(crate) fn quarantine_keyed(&self, key: u128, message: &str) {
        let _ = std::fs::write(self.quarantine_path(key), message);
    }

    /// The quarantine message for the request with store key `key`, if it
    /// was quarantined.
    pub(crate) fn quarantined_keyed(&self, key: u128) -> Option<String> {
        std::fs::read_to_string(self.quarantine_path(key)).ok()
    }

    /// Clears `req`'s quarantine mark (e.g. after a model fix).
    pub fn clear_quarantine(&self, req: &RunRequest) {
        let _ = std::fs::remove_file(self.quarantine_path(Self::request_key(req)));
    }

    /// A snapshot of this handle's counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            bytes_read: self.stats.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.stats.bytes_written.load(Ordering::Relaxed),
        }
    }

    fn record_files(&self) -> std::io::Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        for shard in std::fs::read_dir(self.root.join("records"))? {
            let shard = shard?.path();
            if !shard.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&shard)? {
                let p = entry?.path();
                if p.extension().and_then(|e| e.to_str()) == Some("rec") {
                    files.push(p);
                }
            }
        }
        files.sort();
        Ok(files)
    }

    /// Scans every record, reporting how many validate and how many are
    /// corrupt or stale (wrong model version). Read-only; see
    /// [`ResultStore::gc`] to reclaim the bad ones.
    pub fn verify(&self) -> std::io::Result<ScanReport> {
        self.scan(false)
    }

    /// Scans every record like [`ResultStore::verify`] and deletes the
    /// corrupt and stale ones, counting them as evictions.
    pub fn gc(&self) -> std::io::Result<ScanReport> {
        self.scan(true)
    }

    /// Size-capped LRU eviction: if the records exceed `max_bytes` in
    /// total, deletes least-recently-used records until the remainder
    /// fits. A record was last used when it was last written (its mtime)
    /// or last replayed, whichever is later; replays come from the access
    /// logs of dropped handles and from this handle's memory. The pass
    /// then compacts those logs into one that holds only the replays of
    /// surviving records. Returns what was kept and what was evicted.
    ///
    /// Concurrency: eviction races benignly with readers and writers. A
    /// reader of an evicted key sees a miss and recomputes; a writer that
    /// lands after the scan simply isn't counted this round. A record
    /// that disappears mid-scan (another gc, a corruption eviction) is
    /// skipped, and so is a log written after the scan began.
    pub fn gc_max_bytes(&self, max_bytes: u64) -> std::io::Result<EvictionReport> {
        let files = self.record_files()?;
        let mut used =
            std::mem::take(&mut *self.used.lock().unwrap_or_else(PoisonError::into_inner));
        let logs = self.merge_access_logs(&mut used);
        let mut entries: Vec<(PathBuf, SystemTime, u64)> = Vec::new();
        let mut written: HashMap<u128, SystemTime> = HashMap::new();
        for path in files {
            let Ok(meta) = std::fs::metadata(&path) else {
                continue;
            };
            let mtime = meta.modified().unwrap_or(UNIX_EPOCH);
            let last_use = match record_key(&path) {
                Some(key) => {
                    written.insert(key, mtime);
                    used.get(&key).map_or(mtime, |&at| at.max(mtime))
                }
                None => mtime,
            };
            entries.push((path, last_use, meta.len()));
        }
        // Oldest first; ties broken by path so the pass is deterministic.
        entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let mut total: u64 = entries.iter().map(|e| e.2).sum();
        let mut report = EvictionReport {
            kept: entries.len() as u64,
            kept_bytes: total,
            ..Default::default()
        };
        for (path, _, len) in &entries {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(path).is_ok() {
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                report.removed += 1;
                report.removed_bytes += len;
                report.kept -= 1;
                report.kept_bytes -= len;
                if let Some(key) = record_key(path) {
                    written.remove(&key);
                }
            }
            // Whether or not the delete landed (a concurrent gc may have
            // beaten us to it), the bytes are gone from this round's total.
            total -= len;
        }
        // Compact: keep only replays that are newer than their surviving
        // record's write, in one new log, then drop the logs merged here.
        used.retain(|key, at| written.get(key).is_some_and(|mtime| *at > *mtime));
        if self.write_access_log(&used).is_ok() {
            for log in logs {
                let _ = std::fs::remove_file(log);
            }
        }
        Ok(report)
    }

    /// Writes `used` as one new access log: `key last-use` lines, the key
    /// in hex and the time in nanoseconds since the Unix epoch. It is
    /// staged and renamed into place, so a reader never sees half a log.
    fn write_access_log(&self, used: &HashMap<u128, SystemTime>) -> std::io::Result<()> {
        static LOGS: AtomicU64 = AtomicU64::new(0);
        if used.is_empty() {
            return Ok(());
        }
        let dir = self.root.join("access");
        std::fs::create_dir_all(&dir)?;
        let mut text = String::with_capacity(used.len() * 54);
        for (key, at) in used {
            let _ = writeln!(text, "{key:032x} {}", unix_nanos(*at));
        }
        let name = format!(
            "{}-{}-{}",
            std::process::id(),
            unix_nanos(SystemTime::now()),
            LOGS.fetch_add(1, Ordering::Relaxed)
        );
        let tmp = dir.join(format!("{name}.tmp"));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, dir.join(format!("{name}.log")))
    }

    /// Merges every access log's replays into `used`, keeping the latest
    /// per key, and returns the logs read. A missing directory, an
    /// unreadable log or a malformed line adds nothing: recency is a hint
    /// for eviction, never needed for a result.
    fn merge_access_logs(&self, used: &mut HashMap<u128, SystemTime>) -> Vec<PathBuf> {
        let mut logs = Vec::new();
        let Ok(dir) = std::fs::read_dir(self.root.join("access")) else {
            return logs;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("log") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            for line in text.lines() {
                let Some((key, nanos)) = line.split_once(' ') else {
                    continue;
                };
                let (Ok(key), Ok(nanos)) = (u128::from_str_radix(key, 16), nanos.parse()) else {
                    continue;
                };
                let at = UNIX_EPOCH + Duration::from_nanos(nanos);
                let latest = used.entry(key).or_insert(at);
                *latest = (*latest).max(at);
            }
            logs.push(path);
        }
        logs
    }

    fn scan(&self, remove_bad: bool) -> std::io::Result<ScanReport> {
        let mut report = ScanReport::default();
        for path in self.record_files()? {
            let bytes = std::fs::read(&path)?;
            let expected_key = record_key(&path);
            match (
                expected_key,
                expected_key.and_then(|k| validate_record(&bytes, k)),
            ) {
                (Some(_), Some(version)) if version == MODEL_VERSION => {
                    report.ok += 1;
                    report.live_bytes += bytes.len() as u64;
                }
                (Some(_), Some(_)) => {
                    report.stale += 1;
                    if remove_bad && std::fs::remove_file(&path).is_ok() {
                        report.removed += 1;
                        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                _ => {
                    report.corrupt += 1;
                    if remove_bad && std::fs::remove_file(&path).is_ok() {
                        report.removed += 1;
                        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        Ok(report)
    }
}

impl Drop for ResultStore {
    /// Writes this handle's replays to its access log. Best effort: a
    /// lost log costs eviction order, never a result.
    fn drop(&mut self) {
        let used = std::mem::take(self.used.get_mut().unwrap_or_else(PoisonError::into_inner));
        let _ = self.write_access_log(&used);
    }
}

/// The key a record file is named after.
fn record_key(path: &Path) -> Option<u128> {
    let stem = path.file_stem()?.to_str()?;
    u128::from_str_radix(stem, 16).ok()
}

/// Nanoseconds since the Unix epoch (0 for earlier times).
fn unix_nanos(at: SystemTime) -> u64 {
    at.duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// What a size-capped [`ResultStore::gc_max_bytes`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionReport {
    /// Records surviving the pass.
    pub kept: u64,
    /// Bytes surviving the pass.
    pub kept_bytes: u64,
    /// Records evicted to meet the cap.
    pub removed: u64,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
}

/// What a [`ResultStore::verify`]/[`ResultStore::gc`] scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Records that validated at the current model version.
    pub ok: u64,
    /// Records that validated but carry an old model version (unreachable:
    /// the version is part of the key).
    pub stale: u64,
    /// Records that failed framing, checksum, or schema validation.
    pub corrupt: u64,
    /// Records deleted (gc only).
    pub removed: u64,
    /// Total bytes of valid current-version records.
    pub live_bytes: u64,
}

// ---------------------------------------------------------------------------
// Record encoding.
//
// The payload is JSON (so `core::json` parses and validates it), but every
// number is carried as a *string*: the parser holds numbers as f64, which
// would silently round u64 cycle counts above 2^53 and perturb f64 error
// bounds — and a store whose round-trip is merely "close" would break the
// bit-identical guarantee the engine tests pin. u64 fields encode as
// decimal strings; f64 fields as the hex of their IEEE-754 bits.

/// A record value written as a JSON string of its `Display` text: every
/// number, and `verified`.
struct Quoted<T>(T);

impl<T: Display> Value for Quoted<T> {
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.0);
    }
}

fn volume(o: &mut Obj<'_>, v: &VolumeBreakdown) {
    o.field("invalidates", Quoted(v.invalidates))
        .field("requests", Quoted(v.requests))
        .field("headers", Quoted(v.headers))
        .field("data", Quoted(v.data))
        .field("cross_traffic", Quoted(v.cross_traffic));
}

fn encode_payload(key: u128, req: &RunRequest, r: &RunResult) -> String {
    let ps = |t: Time| Quoted(t.as_ps());
    let s = &r.stats;
    let mut out = String::with_capacity(2048);
    json::object(&mut out, |o| {
        o.field("schema", RECORD_SCHEMA)
            .field("model_version", Quoted(MODEL_VERSION))
            .field("key", format!("{key:032x}"))
            .field("app", r.app)
            .field("mechanism", r.mechanism.label())
            .field("runtime_cycles", Quoted(r.runtime_cycles))
            .field("verified", Quoted(r.verified))
            .field("max_abs_err", format!("{:016x}", r.max_abs_err.to_bits()))
            // Wall time is measurement metadata, but storing it lets a warm
            // run reproduce the cold run's reports (e.g. the `repro fig4`
            // footers) without pretending the replay took zero time. Padded
            // to u64's 20 digits so a record's size never depends on it.
            .field(
                "wall_nanos",
                Quoted(format_args!("{:020}", r.wall.as_nanos() as u64)),
            )
            .object("stats", |o| {
                o.field("runtime_ps", ps(s.runtime))
                    .field("runtime_cycles", Quoted(s.runtime_cycles))
                    .field("messages_sent", Quoted(s.messages_sent))
                    .field("events", Quoted(s.events));
                match s.mean_packet_latency {
                    Some(t) => o.field("mean_packet_latency_ps", ps(t)),
                    None => o.field("mean_packet_latency_ps", "none"),
                };
                o.field("useless_prefetches", Quoted(s.useless_prefetches))
                    .field("useful_prefetches", Quoted(s.useful_prefetches))
                    .field("priority_bypasses", Quoted(s.priority_bypasses))
                    .field("low_bypassed", Quoted(s.low_bypassed))
                    .field("cache_hits", Quoted(s.cache_hit_miss.0))
                    .field("cache_misses", Quoted(s.cache_hit_miss.1))
                    .object("volume", |o| volume(o, &s.volume))
                    .object("bisection", |o| volume(o, &s.bisection))
                    .object("proto", |o| {
                        let p = &s.proto;
                        o.field("read_misses", Quoted(p.read_misses))
                            .field("write_misses", Quoted(p.write_misses))
                            .field("invalidations", Quoted(p.invalidations))
                            .field("interventions", Quoted(p.interventions))
                            .field("limitless_traps", Quoted(p.limitless_traps))
                            .field("writebacks", Quoted(p.writebacks))
                            .field("deferred", Quoted(p.deferred));
                    })
                    .object("miss_latency", |o| {
                        let h = &s.miss_latency;
                        let buckets = h.buckets.map(|b| b.to_string()).join(" ");
                        o.field("buckets", buckets)
                            .field("count", Quoted(h.count))
                            .field("sum_cycles", Quoted(h.sum_cycles))
                            .field("max_cycles", Quoted(h.max_cycles));
                    })
                    .array("nodes", |a| {
                        for n in &s.nodes {
                            a.object(|o| {
                                o.field("sync", ps(n.sync))
                                    .field("overhead", ps(n.overhead))
                                    .field("mem", ps(n.mem))
                                    .field("compute", ps(n.compute));
                            });
                        }
                    });
            });
    });
    // The encoding request is only used for documentation-grade sanity: a
    // record always describes the request that keyed it.
    debug_assert_eq!(r.app, req.spec.name());
    out
}

fn encode_record(key: u128, req: &RunRequest, r: &RunResult) -> Vec<u8> {
    let payload = encode_payload(key, req, r);
    let mut bytes = Vec::with_capacity(payload.len() + 24);
    bytes.extend_from_slice(RECORD_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&fnv1a_64(payload.as_bytes()).to_le_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    bytes
}

/// Checks framing + checksum + schema + key, returning the payload on
/// success.
fn framed_payload(bytes: &[u8], key: u128) -> Option<Json> {
    let payload = bytes.strip_prefix(RECORD_MAGIC)?;
    let (len_bytes, payload) = payload.split_first_chunk::<8>()?;
    let (sum_bytes, payload) = payload.split_first_chunk::<8>()?;
    if u64::from_le_bytes(*len_bytes) != payload.len() as u64 {
        return None;
    }
    if u64::from_le_bytes(*sum_bytes) != fnv1a_64(payload) {
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let v = Json::parse(text).ok()?;
    if v.get("schema")?.as_str()? != RECORD_SCHEMA {
        return None;
    }
    if v.get("key")?.as_str()? != format!("{key:032x}") {
        return None;
    }
    Some(v)
}

/// Validation-only pass for `verify`/`gc`: returns the record's model
/// version if its framing, checksum, schema, and key all check out.
fn validate_record(bytes: &[u8], key: u128) -> Option<u32> {
    let v = framed_payload(bytes, key)?;
    str_u64(&v, "model_version").map(|mv| mv as u32)
}

fn str_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key)?.as_str()?.parse().ok()
}

fn str_time(v: &Json, key: &str) -> Option<Time> {
    str_u64(v, key).map(Time::from_ps)
}

fn str_f64_bits(v: &Json, key: &str) -> Option<f64> {
    u64::from_str_radix(v.get(key)?.as_str()?, 16)
        .ok()
        .map(f64::from_bits)
}

fn decode_volume(v: &Json, key: &str) -> Option<VolumeBreakdown> {
    let o = v.get(key)?;
    Some(VolumeBreakdown {
        invalidates: str_u64(o, "invalidates")?,
        requests: str_u64(o, "requests")?,
        headers: str_u64(o, "headers")?,
        data: str_u64(o, "data")?,
        cross_traffic: str_u64(o, "cross_traffic")?,
    })
}

fn decode_record(bytes: &[u8], key: u128, req: &RunRequest) -> Option<RunResult> {
    let v = framed_payload(bytes, key)?;
    if str_u64(&v, "model_version")? != MODEL_VERSION as u64 {
        return None;
    }
    let mechanism = Mechanism::from_label(v.get("mechanism")?.as_str()?)?;
    if mechanism != req.mechanism || v.get("app")?.as_str()? != req.spec.name() {
        return None;
    }
    let s = v.get("stats")?;
    let mean_packet_latency = match s.get("mean_packet_latency_ps")?.as_str()? {
        "none" => None,
        ps => Some(Time::from_ps(ps.parse().ok()?)),
    };
    let h = s.get("miss_latency")?;
    let mut buckets = [0u64; 14];
    let parts: Vec<&str> = h.get("buckets")?.as_str()?.split(' ').collect();
    if parts.len() != buckets.len() {
        return None;
    }
    for (slot, part) in buckets.iter_mut().zip(parts) {
        *slot = part.parse().ok()?;
    }
    let mut nodes = Vec::new();
    for n in s.get("nodes")?.as_arr()? {
        nodes.push(NodeStats {
            sync: str_time(n, "sync")?,
            overhead: str_time(n, "overhead")?,
            mem: str_time(n, "mem")?,
            compute: str_time(n, "compute")?,
        });
    }
    let p = s.get("proto")?;
    let stats = RunStats {
        runtime: str_time(s, "runtime_ps")?,
        runtime_cycles: str_u64(s, "runtime_cycles")?,
        nodes,
        volume: decode_volume(s, "volume")?,
        bisection: decode_volume(s, "bisection")?,
        proto: ProtoStats {
            read_misses: str_u64(p, "read_misses")?,
            write_misses: str_u64(p, "write_misses")?,
            invalidations: str_u64(p, "invalidations")?,
            interventions: str_u64(p, "interventions")?,
            limitless_traps: str_u64(p, "limitless_traps")?,
            writebacks: str_u64(p, "writebacks")?,
            deferred: str_u64(p, "deferred")?,
        },
        messages_sent: str_u64(s, "messages_sent")?,
        events: str_u64(s, "events")?,
        mean_packet_latency,
        useless_prefetches: str_u64(s, "useless_prefetches")?,
        useful_prefetches: str_u64(s, "useful_prefetches")?,
        // Absent in records written before the priority channel existed;
        // those runs could not have bypassed anything.
        priority_bypasses: str_u64(s, "priority_bypasses").unwrap_or(0),
        low_bypassed: str_u64(s, "low_bypassed").unwrap_or(0),
        cache_hit_miss: (str_u64(s, "cache_hits")?, str_u64(s, "cache_misses")?),
        miss_latency: LatencyHistogram {
            buckets,
            count: str_u64(h, "count")?,
            sum_cycles: str_u64(h, "sum_cycles")?,
            max_cycles: str_u64(h, "max_cycles")?,
        },
    };
    Some(RunResult {
        // `RunResult::app` is a `&'static str`; the request supplies the
        // static name the record was checked against above.
        app: req.spec.name(),
        mechanism,
        runtime_cycles: str_u64(&v, "runtime_cycles")?,
        verified: match v.get("verified")?.as_str()? {
            "true" => true,
            "false" => false,
            _ => return None,
        },
        max_abs_err: str_f64_bits(&v, "max_abs_err")?,
        stats,
        wall: std::time::Duration::from_nanos(str_u64(&v, "wall_nanos")?),
        observation: None,
        profile: None,
    })
}
