//! Engine integration tests: parallel execution is bit-identical to
//! serial, an experiment prepares each workload exactly once, and a batch
//! of request groups runs each distinct run once.

use std::collections::HashSet;
use std::sync::Arc;

use commsense_apps::{AppSpec, PreparedWorkload};
use commsense_core::engine::{RunKey, RunOutcome, RunRequest, Runner, WorkloadCache};
use commsense_core::experiment::{base_comparison_requests, bisection_plan, ctx_switch_plan};
use commsense_core::store::ResultStore;
use commsense_machine::{MachineConfig, Mechanism};
use commsense_workloads::bipartite::Em3dParams;
use commsense_workloads::moldyn::MoldynParams;
use commsense_workloads::sparse::IccgParams;
use commsense_workloads::unstruct::UnstrucParams;

fn small_suite() -> Vec<AppSpec> {
    let mut em = Em3dParams::small();
    em.iterations = 2;
    vec![
        AppSpec::Em3d(em),
        AppSpec::Unstruc(UnstrucParams::small()),
        AppSpec::Iccg(IccgParams::small()),
        AppSpec::Moldyn(MoldynParams::small()),
    ]
}

/// Every measured point is a pure function of its request, and the runner
/// keys results by request index, so a parallel run must reproduce the
/// serial run bit for bit — runtimes, verification, error bounds, volume
/// counters, histograms, everything `RunResult` carries.
#[test]
fn parallel_runs_are_bit_identical_to_serial() {
    let cfg = MachineConfig::alewife();
    for spec in small_suite() {
        let requests = base_comparison_requests(&spec, &cfg);
        let serial = Runner::serial().run(&requests);
        let parallel = Runner::new(4).run(&requests);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert!(s.verified, "{} {} must verify", s.app, s.mechanism);
            assert_eq!(
                format!("{s:?}"),
                format!("{p:?}"),
                "{} {}: parallel result diverged from serial",
                s.app,
                s.mechanism
            );
        }
    }
}

/// The same holds through plan assembly: sweeps built from a parallel run
/// match sweeps built from a serial run point for point.
#[test]
fn plan_sweeps_are_identical_across_job_counts() {
    let cfg = MachineConfig::alewife();
    let mut em = Em3dParams::small();
    em.iterations = 2;
    let spec = AppSpec::Em3d(em);
    let mechs = [Mechanism::SharedMem, Mechanism::MsgPoll];
    let plan = bisection_plan(&spec, &mechs, &cfg, &[0.0, 8.0, 12.0], 64);
    let a = plan.run(&Runner::serial());
    let b = plan.run(&Runner::new(8));
    assert_eq!(a.len(), b.len());
    for (sa, sb) in a.iter().zip(&b) {
        assert_eq!(sa.mechanism, sb.mechanism);
        assert_eq!(sa.runtimes(), sb.runtimes());
        for (pa, pb) in sa.points.iter().zip(&sb.points) {
            assert_eq!(pa.x, pb.x);
            assert_eq!(pa.result.max_abs_err, pb.result.max_abs_err);
            assert_eq!(pa.result.verified, pb.result.verified);
        }
    }
}

/// A whole sweep — every mechanism, every latency point — must generate
/// and solve its workload exactly once, sharing the preparation by `Arc`.
#[test]
fn sweep_prepares_the_workload_exactly_once() {
    let cfg = MachineConfig::alewife();
    let mut em = Em3dParams::small();
    em.iterations = 1;
    let spec = AppSpec::Em3d(em);
    let plan = ctx_switch_plan(&spec, &Mechanism::ALL, &cfg, &[50, 100, 400]);
    let mut cache = WorkloadCache::new();
    let sweeps = plan.run_with(&Runner::serial(), &mut cache);
    assert_eq!(sweeps.len(), Mechanism::ALL.len());
    assert_eq!(
        cache.len(),
        1,
        "one spec at one machine size = one preparation"
    );

    // The cached entry is shared, not copied, on every later lookup.
    let (a, b) = (cache.get(&spec, cfg.nodes), cache.get(&spec, cfg.nodes));
    match (&a, &b) {
        (PreparedWorkload::Em3d(x), PreparedWorkload::Em3d(y)) => {
            assert!(std::sync::Arc::ptr_eq(x, y), "lookups must share one Arc");
        }
        _ => panic!("expected an EM3D preparation"),
    }
    assert_eq!(cache.len(), 1);
}

/// One cache threaded through several plans (as `repro` does) keeps a
/// single preparation per distinct `(spec, nprocs)` across all of them.
#[test]
fn cache_is_shared_across_plans() {
    let cfg = MachineConfig::alewife();
    let suite = small_suite();
    let mechs = [Mechanism::SharedMem, Mechanism::MsgPoll];
    let runner = Runner::from_env();
    let mut cache = WorkloadCache::new();
    for spec in &suite {
        bisection_plan(spec, &mechs, &cfg, &[0.0, 12.0], 64).run_with(&runner, &mut cache);
    }
    assert_eq!(cache.len(), suite.len());
    for spec in &suite {
        ctx_switch_plan(spec, &mechs, &cfg, &[50, 400]).run_with(&runner, &mut cache);
    }
    assert_eq!(
        cache.len(),
        suite.len(),
        "second round of plans must reuse every preparation"
    );
}

/// Overlapping request lists: a Figure 4 comparison and two bisection
/// sweeps whose zero-consumption points repeat two of its runs.
fn overlapping_groups() -> Vec<Vec<RunRequest>> {
    let cfg = MachineConfig::alewife();
    let mut em = Em3dParams::small();
    em.iterations = 1;
    let spec = AppSpec::Em3d(em);
    let mechs = [Mechanism::SharedMem, Mechanism::MsgPoll];
    let sweep = bisection_plan(&spec, &mechs, &cfg, &[0.0, 12.0], 64);
    vec![
        base_comparison_requests(&spec, &cfg),
        sweep.requests().to_vec(),
        sweep.requests().to_vec(),
    ]
}

fn distinct(groups: &[Vec<RunRequest>]) -> usize {
    let keys: HashSet<RunKey> = groups.iter().flatten().map(RunKey::of).collect();
    keys.len()
}

fn debug(outcomes: &[Vec<RunOutcome>]) -> Vec<Vec<String>> {
    let each = |g: &Vec<RunOutcome>| g.iter().map(|o| format!("{o:?}")).collect();
    outcomes.iter().map(each).collect()
}

/// A batch runs each distinct run once and hands every group the outcome
/// of its own requests: the same at one worker and at two, and the same
/// as running each group on its own.
#[test]
fn run_groups_matches_each_group_run_alone_at_any_job_count() {
    let groups = overlapping_groups();
    assert!(distinct(&groups) < groups.iter().map(Vec::len).sum());
    let batch = |jobs| Runner::new(jobs).run_groups(&groups, &mut WorkloadCache::new());
    let serial = debug(&batch(1));
    assert_eq!(serial, debug(&batch(2)));
    let alone: Vec<Vec<RunOutcome>> = groups
        .iter()
        .map(|g| Runner::serial().run_outcomes(g, &mut WorkloadCache::new()))
        .collect();
    assert_eq!(serial, debug(&alone));
}

/// With a store attached, a batch looks up and saves each distinct run
/// once: one miss and one record per run key, and every byte written is
/// a byte of a record still on disk.
#[test]
fn run_groups_saves_each_distinct_run_once() {
    let dir = std::env::temp_dir().join(format!("commsense-run-groups-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ResultStore::open(&dir).expect("open store"));
    let groups = overlapping_groups();
    let runner = Runner::new(2).with_store(store.clone());
    let outcomes = runner.run_groups(&groups, &mut WorkloadCache::new());
    assert!(outcomes.iter().flatten().all(|o| !o.is_cached()));
    let stats = store.stats();
    let records: Vec<u64> = std::fs::read_dir(dir.join("records"))
        .expect("records dir")
        .flat_map(|shard| std::fs::read_dir(shard.expect("shard").path()).expect("shard dir"))
        .map(|f| f.expect("record").metadata().expect("metadata").len())
        .collect();
    let n = distinct(&groups) as u64;
    assert_eq!((stats.hits, stats.misses), (0, n));
    assert_eq!(records.len() as u64, n);
    assert_eq!(stats.bytes_written, records.iter().sum::<u64>());
    std::fs::remove_dir_all(&dir).ok();
}
