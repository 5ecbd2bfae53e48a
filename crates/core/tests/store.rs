//! Result-store integration and property tests: records round-trip bit
//! for bit, every single-byte corruption is detected (and the point
//! recomputed, never trusted), concurrent writers cannot tear a read,
//! and the content-address is exactly as sensitive as the model.

use std::sync::Arc;
use std::time::Duration;

use commsense_apps::{AppSpec, RunResult};
use commsense_core::engine::{RunOutcome, RunRequest, Runner, WorkloadCache};
use commsense_core::store::ResultStore;
use commsense_des::{Rng, Time};
use commsense_machine::{
    LatencyHistogram, MachineConfig, Mechanism, NodeStats, ObserveConfig, RunStats,
};
use commsense_mesh::VolumeBreakdown;
use commsense_workloads::bipartite::Em3dParams;
use commsense_workloads::sparse::IccgParams;
use proptest::prelude::*;

/// A store rooted in a fresh per-test temp directory (no tempfile crate
/// in the offline build; process id keeps concurrent test *processes*
/// apart, the per-test name keeps the threads of one process apart).
fn temp_store(name: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!(
        "commsense-store-test-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::open(&dir).expect("open temp store")
}

fn em3d_request(cfg: &MachineConfig, mech: Mechanism) -> RunRequest {
    let mut em = Em3dParams::small();
    em.iterations = 1;
    RunRequest {
        spec: AppSpec::Em3d(em),
        mechanism: mech,
        cfg: cfg.clone(),
    }
}

/// The one record file of a store holding exactly one result.
fn single_record_path(store: &ResultStore) -> std::path::PathBuf {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for e in std::fs::read_dir(dir).expect("read store dir") {
            let p = e.expect("dir entry").path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rec") {
                out.push(p);
            }
        }
    }
    let mut recs = Vec::new();
    walk(&store.root().join("records"), &mut recs);
    assert_eq!(recs.len(), 1, "expected exactly one record");
    recs.pop().unwrap()
}

/// Every mechanism's real result — histograms, per-node buckets, volume
/// and protocol counters, the f64 error bound, the wall-time metadata —
/// must read back exactly as written. `RunResult`'s `Debug` covers all
/// simulation outputs; `wall` is compared separately (it is excluded
/// from `Debug`).
#[test]
fn real_results_round_trip_bit_identically() {
    let store = temp_store("roundtrip");
    let cfg = MachineConfig::alewife();
    let reqs: Vec<RunRequest> = Mechanism::ALL
        .iter()
        .map(|&m| em3d_request(&cfg, m))
        .collect();
    let results = Runner::serial().run(&reqs);
    for (req, r) in reqs.iter().zip(&results) {
        store.save(req, r).expect("save record");
        let back = store.load(req).expect("load saved record");
        assert_eq!(
            format!("{back:?}"),
            format!("{r:?}"),
            "{}: replayed result diverged",
            r.mechanism.label()
        );
        assert_eq!(back.wall, r.wall, "wall nanos must round-trip");
        assert!(back.observation.is_none(), "records carry no observation");
    }
    let st = store.stats();
    assert_eq!(st.hits, reqs.len() as u64);
    assert_eq!((st.misses, st.corrupt), (0, 0));
    assert!(st.bytes_written > 0 && st.bytes_read > 0);
}

/// A record's size does not depend on its wall time: the same result saved
/// with 1 ns and with `u64::MAX` ns writes the same number of bytes, so a
/// store's byte counters measure work, not wall-clock digits.
#[test]
fn record_size_is_independent_of_wall_time() {
    let req = em3d_request(&MachineConfig::alewife(), Mechanism::MsgPoll);
    let mut result = Runner::serial().run(std::slice::from_ref(&req));
    let mut result = result.pop().expect("one result");
    let mut written = Vec::new();
    for nanos in [1, u64::MAX] {
        let store = temp_store(&format!("wall-{nanos}"));
        result.wall = Duration::from_nanos(nanos);
        store.save(&req, &result).expect("save record");
        assert_eq!(store.load(&req).expect("load record").wall, result.wall);
        written.push(store.stats().bytes_written);
    }
    assert_eq!(
        written[0], written[1],
        "record bytes must not vary with wall time"
    );
}

proptest! {
    /// Round-tripping is not an artifact of the values real runs happen
    /// to produce: a result whose every counter, histogram bucket, node
    /// budget, and f64 bit pattern (including NaN and -0.0 payloads for
    /// `max_abs_err`) is adversarial still reads back exactly.
    #[test]
    fn synthetic_results_round_trip_exactly(seed in 0u64..256) {
        let store = temp_store("proptest");
        let cfg = MachineConfig::alewife();
        let req = em3d_request(&cfg, Mechanism::SharedMem);
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let volume = |rng: &mut Rng| VolumeBreakdown {
            invalidates: rng.next_u64(),
            requests: rng.next_u64(),
            headers: rng.next_u64(),
            data: rng.next_u64(),
            cross_traffic: rng.next_u64(),
        };
        let mut hist = LatencyHistogram::default();
        for b in hist.buckets.iter_mut() {
            *b = rng.next_u64();
        }
        hist.count = rng.next_u64();
        hist.sum_cycles = rng.next_u64();
        hist.max_cycles = rng.next_u64();
        let stats = RunStats {
            runtime: Time::from_ps(rng.next_u64()),
            runtime_cycles: rng.next_u64(),
            nodes: (0..4)
                .map(|_| NodeStats {
                    sync: Time::from_ps(rng.next_u64()),
                    overhead: Time::from_ps(rng.next_u64()),
                    mem: Time::from_ps(rng.next_u64()),
                    compute: Time::from_ps(rng.next_u64()),
                })
                .collect(),
            volume: volume(&mut rng),
            bisection: volume(&mut rng),
            proto: commsense_cache::ProtoStats {
                read_misses: rng.next_u64(),
                write_misses: rng.next_u64(),
                invalidations: rng.next_u64(),
                interventions: rng.next_u64(),
                limitless_traps: rng.next_u64(),
                writebacks: rng.next_u64(),
                deferred: rng.next_u64(),
            },
            messages_sent: rng.next_u64(),
            events: rng.next_u64(),
            mean_packet_latency: if rng.chance(0.5) {
                Some(Time::from_ps(rng.next_u64()))
            } else {
                None
            },
            useless_prefetches: rng.next_u64(),
            useful_prefetches: rng.next_u64(),
            cache_hit_miss: (rng.next_u64(), rng.next_u64()),
            miss_latency: hist,
            priority_bypasses: rng.next_u64(),
            low_bypassed: rng.next_u64(),
        };
        let max_abs_err = match rng.index(4) {
            0 => f64::from_bits(rng.next_u64()), // arbitrary, possibly NaN
            1 => -0.0,
            2 => f64::INFINITY,
            _ => rng.f64(),
        };
        let result = RunResult {
            app: req.spec.name(),
            mechanism: req.mechanism,
            runtime_cycles: stats.runtime_cycles,
            verified: rng.chance(0.5),
            max_abs_err,
            stats,
            wall: Duration::from_nanos(rng.next_u64() >> 1),
            observation: None,
            profile: None,
        };
        store.save(&req, &result).expect("save synthetic record");
        let back = store.load(&req).expect("load synthetic record");
        prop_assert_eq!(format!("{:?}", back.stats), format!("{:?}", result.stats));
        prop_assert_eq!(back.runtime_cycles, result.runtime_cycles);
        prop_assert_eq!(back.verified, result.verified);
        prop_assert_eq!(
            back.max_abs_err.to_bits(),
            result.max_abs_err.to_bits(),
            "f64 bits must survive, including NaN payloads"
        );
        prop_assert_eq!(back.wall, result.wall);
    }
}

/// Flipping any single byte of a record — magic, length, checksum, or
/// payload — must be detected. A detected record is evicted and the
/// point recomputed from scratch: the store never serves bad data.
#[test]
fn any_single_byte_flip_is_detected_and_recomputed() {
    let store = Arc::new(temp_store("corrupt"));
    let cfg = MachineConfig::alewife();
    let req = em3d_request(&cfg, Mechanism::SharedMem);
    let mut cache = WorkloadCache::new();
    let expected = Runner::serial()
        .run(std::slice::from_ref(&req))
        .pop()
        .unwrap();
    store.save(&req, &expected).expect("save record");
    let path = single_record_path(&store);
    let good = std::fs::read(&path).expect("read record bytes");

    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x01;
        std::fs::write(&path, &bad).expect("write corrupted record");
        assert!(
            store.load(&req).is_none(),
            "flip of byte {i}/{} must be detected",
            good.len()
        );
        // Detection evicts the record; restore it for the next position.
        std::fs::write(&path, &good).expect("restore record");
    }
    let st = store.stats();
    assert_eq!(st.corrupt, good.len() as u64);
    assert_eq!(st.evictions, good.len() as u64);

    // The pristine record still loads...
    let back = store.load(&req).expect("pristine record loads");
    assert_eq!(format!("{back:?}"), format!("{expected:?}"));

    // ...and a corrupted one makes the runner recompute, not trust.
    std::fs::write(&path, {
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0xff;
        bad
    })
    .expect("corrupt once more");
    let runner = Runner::serial().with_store(store.clone());
    let outcomes = runner.run_outcomes(std::slice::from_ref(&req), &mut cache);
    match &outcomes[0] {
        RunOutcome::Done { result, cached } => {
            assert!(!cached, "corrupt record must be recomputed, not replayed");
            assert_eq!(format!("{result:?}"), format!("{expected:?}"));
        }
        other => panic!("expected a recomputed result, got {other:?}"),
    }
    // The recomputation healed the store: the next pass replays.
    let healed = runner.run_outcomes(std::slice::from_ref(&req), &mut cache);
    assert!(healed[0].is_cached(), "healed record must replay");
}

/// Writers racing on the same key never expose a torn record: the
/// tmp-file + rename protocol means a concurrent reader sees either the
/// old complete record or the new complete record, both valid.
#[test]
fn interleaved_writers_never_tear_a_read() {
    let store = Arc::new(temp_store("torn"));
    let cfg = MachineConfig::alewife();
    let req = em3d_request(&cfg, Mechanism::MsgPoll);
    let expected = Runner::serial()
        .run(std::slice::from_ref(&req))
        .pop()
        .unwrap();
    store.save(&req, &expected).expect("initial save");
    let want = format!("{expected:?}");

    std::thread::scope(|scope| {
        for _ in 0..3 {
            let (store, req, expected) = (store.clone(), req.clone(), expected.clone());
            scope.spawn(move || {
                for _ in 0..50 {
                    store.save(&req, &expected).expect("concurrent save");
                }
            });
        }
        for _ in 0..200 {
            let got = store
                .load(&req)
                .expect("a record must always be present and valid");
            assert_eq!(format!("{got:?}"), want, "torn or stale-mixed read");
        }
    });
    assert_eq!(store.stats().corrupt, 0);
}

/// The content-address sees exactly the model: identical requests hash
/// identically, pure bookkeeping (observability, checking) is invisible,
/// and the mechanism, every workload parameter, and machine knobs all
/// perturb the key.
#[test]
fn request_keys_are_stable_and_exactly_model_sensitive() {
    let cfg = MachineConfig::alewife();
    let base = em3d_request(&cfg, Mechanism::SharedMem);
    let key = ResultStore::request_key(&base);
    assert_eq!(
        key,
        ResultStore::request_key(&base.clone()),
        "deterministic"
    );

    // Bookkeeping that cannot change simulated cycles is excluded.
    let mut observed = base.clone();
    observed.cfg.observe = Some(ObserveConfig::default());
    assert_eq!(key, ResultStore::request_key(&observed));
    let mut checked = base.clone();
    checked.cfg.check = Some(commsense_machine::CheckConfig::full());
    assert_eq!(key, ResultStore::request_key(&checked));

    // Everything that reaches the simulation is included.
    let mut keys = vec![key];
    for &mech in &Mechanism::ALL[1..] {
        keys.push(ResultStore::request_key(&em3d_request(&cfg, mech)));
    }
    let mut other_spec = base.clone();
    if let AppSpec::Em3d(p) = &mut other_spec.spec {
        p.iterations += 1;
    }
    keys.push(ResultStore::request_key(&other_spec));
    let mut other_seed = base.clone();
    if let AppSpec::Em3d(p) = &mut other_seed.spec {
        p.seed ^= 1;
    }
    keys.push(ResultStore::request_key(&other_seed));
    let mut other_clock = base.clone();
    other_clock.cfg.cpu_mhz += 1.0;
    keys.push(ResultStore::request_key(&other_clock));
    let mut other_net = base.clone();
    other_net.cfg.net.ps_per_byte += 1;
    keys.push(ResultStore::request_key(&other_net));
    let n = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(
        keys.len(),
        n,
        "every model-visible change must move the key"
    );
}

/// The on-disk path of `req`'s record (reconstructed from the public
/// key, the way the store shards records).
fn record_path_of(store: &ResultStore, req: &RunRequest) -> std::path::PathBuf {
    let hex = format!("{:032x}", ResultStore::request_key(req));
    store
        .root()
        .join("records")
        .join(&hex[..2])
        .join(format!("{hex}.rec"))
}

/// Size-capped gc evicts in least-recently-used order, where "used"
/// includes loads: a hit counts as a use as recent as a write, so a
/// record that keeps getting asked for survives caps that evict colder
/// ones.
#[test]
fn gc_max_bytes_evicts_least_recently_used_first() {
    let store = temp_store("lru");
    let cfg = MachineConfig::alewife();
    let reqs: Vec<RunRequest> = Mechanism::ALL
        .iter()
        .map(|&m| em3d_request(&cfg, m))
        .collect();
    let results = Runner::serial().run(&reqs);
    for (req, r) in reqs.iter().zip(&results) {
        store.save(req, r).expect("save record");
    }
    let paths: Vec<std::path::PathBuf> = reqs.iter().map(|r| record_path_of(&store, r)).collect();
    let sizes: Vec<u64> = paths
        .iter()
        .map(|p| std::fs::metadata(p).expect("record exists").len())
        .collect();
    let total: u64 = sizes.iter().sum();

    // Pin an explicit age order: record 0 is the coldest, 4 the hottest.
    let base = std::time::SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
    for (i, p) in paths.iter().enumerate() {
        let f = std::fs::File::options().write(true).open(p).expect("open");
        f.set_modified(base + Duration::from_secs(i as u64))
            .expect("set mtime");
    }

    // A cap the store already fits leaves everything alone.
    let noop = store.gc_max_bytes(total).expect("noop gc");
    assert_eq!((noop.removed, noop.kept), (0, 5));
    assert_eq!(noop.kept_bytes, total);

    // A cap that requires shedding the two coldest sheds exactly those.
    let cap = total - sizes[0] - sizes[1];
    let shed = store.gc_max_bytes(cap).expect("capped gc");
    assert_eq!((shed.removed, shed.kept), (2, 3));
    assert_eq!(shed.removed_bytes, sizes[0] + sizes[1]);
    assert!(store.load(&reqs[0]).is_none(), "coldest record evicted");
    assert!(store.load(&reqs[1]).is_none(), "second-coldest evicted");
    for req in &reqs[2..] {
        assert!(store.load(req).is_some(), "hot records survive");
    }
    assert_eq!(store.stats().evictions, 2);

    // A load refreshes recency: re-age the survivors so record 2 is the
    // coldest again, then *use* it — the next capped gc must evict the
    // untouched record 3 instead.
    for (i, p) in paths.iter().enumerate().skip(2) {
        let f = std::fs::File::options().write(true).open(p).expect("open");
        f.set_modified(base + Duration::from_secs(i as u64))
            .expect("set mtime");
    }
    assert!(store.load(&reqs[2]).is_some(), "touch the cold record");
    let shed = store
        .gc_max_bytes(sizes[2] + sizes[3] + sizes[4] - 1)
        .expect("capped gc after touch");
    assert_eq!(shed.removed, 1);
    assert!(
        store.load(&reqs[2]).is_some(),
        "the touched record survives"
    );
    assert!(
        store.load(&reqs[3]).is_none(),
        "the untouched record is the LRU victim"
    );
}

/// A hit writes nothing, but its recency outlives the handle: the
/// handle's access log, written when it drops, is what a later handle's
/// capped gc reads, and that gc compacts the logs it merged into one.
#[test]
fn gc_max_bytes_sees_the_hits_of_a_dropped_handle() {
    let first = temp_store("lru-handles");
    let root = first.root().to_path_buf();
    let cfg = MachineConfig::alewife();
    let reqs: Vec<RunRequest> = Mechanism::ALL[..3]
        .iter()
        .map(|&m| em3d_request(&cfg, m))
        .collect();
    let results = Runner::serial().run(&reqs);
    for (req, r) in reqs.iter().zip(&results) {
        first.save(req, r).expect("save record");
    }
    let paths: Vec<std::path::PathBuf> = reqs.iter().map(|r| record_path_of(&first, r)).collect();
    let base = std::time::SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
    for (i, p) in paths.iter().enumerate() {
        let f = std::fs::File::options().write(true).open(p).expect("open");
        f.set_modified(base + Duration::from_secs(i as u64))
            .expect("set mtime");
    }
    // Record 0 is the oldest written; using it makes it the newest used,
    // without touching the file.
    assert!(first.load(&reqs[0]).is_some(), "hit");
    let mtime = |p: &std::path::Path| std::fs::metadata(p).unwrap().modified().unwrap();
    assert_eq!(mtime(&paths[0]), base, "a hit writes nothing");
    drop(first);

    let logs = || std::fs::read_dir(root.join("access")).map_or(0, |d| d.count());
    assert_eq!(logs(), 1, "the dropped handle wrote one access log");
    let second = ResultStore::open(&root).expect("reopen");
    let size = |i: usize| std::fs::metadata(&paths[i]).unwrap().len();
    let shed = second.gc_max_bytes(size(0) + size(2)).expect("capped gc");
    assert_eq!(shed.removed, 1);
    assert!(paths[0].exists(), "the record used last survives");
    assert!(!paths[1].exists(), "the least recently used record goes");
    assert_eq!(logs(), 1, "the merged logs are compacted into one");

    // The compacted log still carries the hit to the next gc.
    let shed = second.gc_max_bytes(size(0)).expect("second capped gc");
    assert_eq!(shed.removed, 1);
    assert!(paths[0].exists() && !paths[2].exists());
}

/// A store hit prepares nothing: replaying a filled store through
/// `run_outcomes` leaves the workload cache empty at any job count, while
/// the cold run that filled it prepared each distinct (spec, nodes)
/// exactly once. A checked request still simulates, so it prepares.
#[test]
fn warm_replay_prepares_no_workload() {
    let store = Arc::new(temp_store("lazy-prepare"));
    let cfg = MachineConfig::alewife();
    let mut em = Em3dParams::small();
    em.iterations = 1;
    let specs = [AppSpec::Em3d(em), AppSpec::Iccg(IccgParams::small())];
    let mechs = [Mechanism::SharedMem, Mechanism::MsgPoll, Mechanism::Bulk];
    let reqs: Vec<RunRequest> = specs
        .iter()
        .flat_map(|spec| {
            mechs.map(|m| RunRequest {
                spec: spec.clone(),
                mechanism: m,
                cfg: cfg.clone(),
            })
        })
        .collect();
    let mut cold_cache = WorkloadCache::new();
    let cold = Runner::new(2)
        .with_store(store.clone())
        .run_outcomes(&reqs, &mut cold_cache);
    assert!(cold.iter().all(|o| o.result().is_some() && !o.is_cached()));
    assert_eq!(cold_cache.len(), specs.len(), "one preparation per spec");

    for jobs in [1, 3] {
        let mut cache = WorkloadCache::new();
        let warm = Runner::new(jobs)
            .with_store(store.clone())
            .run_outcomes(&reqs, &mut cache);
        assert!(warm.iter().all(RunOutcome::is_cached), "jobs={jobs}");
        assert!(cache.is_empty(), "jobs={jobs}: a hit prepared a workload");
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(format!("{:?}", w.result()), format!("{:?}", c.result()));
        }
    }

    let mut checked = reqs[0].clone();
    checked.cfg.check = Some(commsense_machine::CheckConfig::full());
    let mut cache = WorkloadCache::new();
    let out = Runner::serial()
        .with_store(store)
        .run_outcomes(&[checked], &mut cache);
    assert!(!out[0].is_cached(), "a checked run bypasses the store");
    assert_eq!(cache.len(), 1, "so it prepares its workload");
}

/// Readers, writers, and a size-capped evictor hammering one store
/// concurrently never observe a torn record: every load is either a miss
/// or the exact expected result, and the surviving records all validate.
#[test]
fn concurrent_readers_writers_and_gc_never_tear() {
    let store = Arc::new(temp_store("gc-stress"));
    let cfg = MachineConfig::alewife();
    let reqs: Vec<RunRequest> = [Mechanism::SharedMem, Mechanism::MsgPoll, Mechanism::Bulk]
        .iter()
        .map(|&m| em3d_request(&cfg, m))
        .collect();
    let results = Runner::serial().run(&reqs);
    let expected: Vec<String> = results.iter().map(|r| format!("{r:?}")).collect();
    for (req, r) in reqs.iter().zip(&results) {
        store.save(req, r).expect("seed record");
    }
    let one_record = std::fs::metadata(record_path_of(&store, &reqs[0]))
        .expect("record exists")
        .len();

    std::thread::scope(|scope| {
        // Writers continuously re-save every key.
        for _ in 0..2 {
            let (store, reqs, results) = (store.clone(), reqs.clone(), results.clone());
            scope.spawn(move || {
                for _ in 0..40 {
                    for (req, r) in reqs.iter().zip(&results) {
                        store.save(req, r).expect("concurrent save");
                    }
                }
            });
        }
        // An evictor keeps squeezing the store below two records, so
        // loads race against both rename-overwrites and deletions.
        {
            let store = store.clone();
            scope.spawn(move || {
                for _ in 0..60 {
                    store
                        .gc_max_bytes(one_record.saturating_mul(2))
                        .expect("concurrent capped gc");
                }
            });
        }
        // Readers: a load may miss (evicted) but never tears.
        for _ in 0..2 {
            let (store, reqs, expected) = (store.clone(), reqs.clone(), expected.clone());
            scope.spawn(move || {
                for _ in 0..120 {
                    for (req, want) in reqs.iter().zip(&expected) {
                        if let Some(got) = store.load(req) {
                            assert_eq!(&format!("{got:?}"), want, "torn concurrent read");
                        }
                    }
                }
            });
        }
    });
    assert_eq!(store.stats().corrupt, 0, "no read ever saw a torn record");
    let report = store.verify().expect("verify");
    assert_eq!(report.corrupt, 0, "every surviving record validates");
}

/// `verify` and `gc` agree with the stats counters and leave valid
/// records alone.
#[test]
fn verify_and_gc_report_and_prune() {
    let store = temp_store("scan");
    let cfg = MachineConfig::alewife();
    let req = em3d_request(&cfg, Mechanism::Bulk);
    let r = Runner::serial()
        .run(std::slice::from_ref(&req))
        .pop()
        .unwrap();
    store.save(&req, &r).expect("save");
    let clean = store.verify().expect("verify");
    assert_eq!((clean.ok, clean.corrupt, clean.removed), (1, 0, 0));
    assert!(clean.live_bytes > 0);

    // Plant a garbage record next to the real one; gc removes only it.
    let path = single_record_path(&store);
    let junk = path.with_file_name("00000000000000000000000000000000.rec");
    std::fs::write(&junk, b"not a record").expect("write junk");
    let seen = store.verify().expect("verify sees junk");
    assert_eq!((seen.ok, seen.corrupt, seen.removed), (1, 1, 0));
    let swept = store.gc().expect("gc");
    assert_eq!((swept.ok, swept.corrupt, swept.removed), (1, 1, 1));
    assert!(!junk.exists(), "gc removes the corrupt record");
    assert!(path.exists(), "gc keeps the valid record");
    assert!(store.load(&req).is_some(), "valid record still replays");
}
