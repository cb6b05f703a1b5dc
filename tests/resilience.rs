//! End-to-end resilience checks for the execution engine, run against the
//! real combined headline grid: cell deadlines, retry-with-backoff under
//! injected faults, and checkpoint/resume — all composing with each other
//! and with the bench cells' cooperative cancellation.

use std::time::{Duration, Instant};

use lockbind_bench::{collect_headline_records, headline_grid, ExperimentParams, HeadlineCell};
use lockbind_engine::checkpoint::Segment;
use lockbind_engine::{CellResult, Engine, EngineConfig, Job, RunReport};
use lockbind_mediabench::Kernel;
use lockbind_resil::{FaultKind, FaultPlan, FaultRule, RetryPolicy};

const FRAMES: usize = 40;
const SEED: u64 = 5;
const ROOT_SEED: u64 = 2021;

fn small_params() -> ExperimentParams {
    ExperimentParams {
        num_candidates: 4,
        max_locked_fus: 1,
        max_locked_inputs: 1,
        max_assignments: 20,
        optimal_budget: 50,
        seed: 7,
    }
}

fn grid() -> Vec<HeadlineCell> {
    headline_grid(&[Kernel::Fir], FRAMES, SEED, &small_params())
}

fn engine(threads: usize, cfg: EngineConfig) -> Engine {
    Engine::new(EngineConfig {
        threads,
        root_seed: ROOT_SEED,
        progress: false,
        ..cfg
    })
}

fn records_digest(report: &RunReport<<HeadlineCell as Job>::Output>) -> String {
    let (errors, impacts, sats, failures) = collect_headline_records(&report.results);
    assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    format!("{errors:?}\n{impacts:?}\n{sats:?}")
}

#[test]
fn hung_cell_times_out_without_poisoning_the_grid() {
    let cells = grid();
    let hang_cell = cells.len() / 2;
    // Generous deadline: real cells finish in milliseconds even on a loaded
    // machine (the workspace test suite runs in parallel), so only the
    // injected hang can plausibly exceed it.
    let timeout = Duration::from_secs(2);
    let eng = engine(
        3,
        EngineConfig {
            fail_fast: false,
            cell_timeout: Some(timeout),
            faults: Some(
                FaultPlan::new(0).rule(FaultRule::at_cells(FaultKind::Hang, vec![hang_cell])),
            ),
            ..EngineConfig::default()
        },
    );
    let started = Instant::now();
    let report = eng.run(&cells);
    let elapsed = started.elapsed();

    match &report.results[hang_cell] {
        CellResult::TimedOut { cell, message } => {
            assert_eq!(*cell, cells[hang_cell].label());
            assert!(message.contains("deadline"), "message: {message}");
        }
        other => panic!("hung cell must time out, got {other:?}"),
    }
    // The hang is cooperative (it polls the deadline token), so the cell
    // terminates promptly — well before a whole extra timeout has passed
    // beyond the unavoidable grid work.
    assert!(
        elapsed < timeout * 10,
        "grid took {elapsed:?}, hang not interrupted"
    );
    assert_eq!(report.metrics.cells_timed_out, 1);
    assert_eq!(report.metrics.cells_failed, 0);
    assert_eq!(report.metrics.cells_ok, cells.len() - 1);
    // Every other cell produced its records.
    for (i, result) in report.results.iter().enumerate() {
        if i != hang_cell {
            assert!(result.output().is_some(), "cell {i} lost its output");
        }
    }
}

#[test]
fn injected_transient_faults_are_healed_by_retries_at_any_worker_count() {
    let cells = grid();
    let clean = engine(1, EngineConfig::default()).run(&cells);
    let clean_digest = records_digest(&clean);

    for threads in [1, 4] {
        // Every third cell errors on its first attempt; one retry cures it.
        let faults = FaultPlan::new(9).rule(
            FaultRule::at_cells(FaultKind::Error, (0..cells.len()).step_by(3).collect())
                .transient(1),
        );
        let eng = engine(
            threads,
            EngineConfig {
                retry: RetryPolicy::new(2, Duration::from_millis(1)),
                faults: Some(faults),
                ..EngineConfig::default()
            },
        );
        let report = eng.run(&cells);
        assert_eq!(
            records_digest(&report),
            clean_digest,
            "retried run diverged at {threads} workers"
        );
        assert_eq!(report.metrics.cells_retried, cells.len().div_ceil(3));
        assert_eq!(report.metrics.cells_failed, 0);
    }
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lockbind-resil-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A checkpointed single-worker run of the grid, which must reproduce
/// `want`; returns the bytes of its segment file.
fn write_checkpoint(cells: &[HeadlineCell], ckpt: &std::path::Path, want: &str) -> Vec<u8> {
    let full = engine(
        1,
        EngineConfig {
            checkpoint: Some(ckpt.to_path_buf()),
            ..EngineConfig::default()
        },
    )
    .run(cells);
    assert_eq!(records_digest(&full), want);
    std::fs::read(ckpt.join("cache.seg")).expect("checkpoint written")
}

#[test]
fn interrupted_sweep_resumes_to_identical_records() {
    let ckpt = temp_dir("it");
    let cells = grid();
    let uninterrupted = engine(1, EngineConfig::default()).run(&cells);
    let want = records_digest(&uninterrupted);

    // Full checkpointed run, then simulate a kill by cutting the segment
    // in the middle of a record.
    let bytes = write_checkpoint(&cells, &ckpt, &want);
    std::fs::write(ckpt.join("cache.seg"), &bytes[..bytes.len() / 2]).expect("truncate");
    let segment = Segment::read(&ckpt).expect("truncated segment reads");
    assert!(
        segment.torn_bytes() > 0,
        "the cut must fall inside a record"
    );
    let kept = segment.records().count();
    assert!(
        0 < kept && kept < cells.len(),
        "{kept} of {} records",
        cells.len()
    );

    // Resume: completed cells are spliced in, the rest re-run, and the final
    // records are byte-identical to the uninterrupted sweep.
    let resume = |threads: usize| {
        engine(
            threads,
            EngineConfig {
                checkpoint: Some(ckpt.clone()),
                ..EngineConfig::default()
            },
        )
        .run(&cells)
    };
    let resumed = resume(4);
    assert_eq!(records_digest(&resumed), want);
    assert_eq!(resumed.metrics.cells_resumed, kept);
    // Resumed cells are spliced in as Ok results, so they count toward
    // `cells_ok` too.
    assert_eq!(resumed.metrics.cells_ok, cells.len());

    // The resumed run's checkpoint is complete: resuming from it again
    // replays every cell from the store.
    let segment = Segment::read(&ckpt).expect("final checkpoint reads");
    assert_eq!(segment.records().count(), cells.len());
    assert_eq!(segment.torn_bytes(), 0);

    let replayed = resume(2);
    assert_eq!(records_digest(&replayed), want);
    assert_eq!(replayed.metrics.cells_resumed, cells.len());

    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn flipped_payload_byte_is_never_spliced_into_the_records() {
    let ckpt = temp_dir("flip");
    let cells = grid();
    let want = records_digest(&engine(1, EngineConfig::default()).run(&cells));

    // Change one digit inside the payload of the middle record.
    let mut bytes = write_checkpoint(&cells, &ckpt, &want);
    let middle = cells.len() / 2;
    let payload = Segment::read(&ckpt)
        .expect("segment")
        .records()
        .nth(middle)
        .expect("a record per cell")
        .1
        .to_vec();
    let start = bytes
        .windows(payload.len())
        .position(|w| w == payload.as_slice())
        .expect("payload on disk");
    let digit = start
        + payload
            .iter()
            .position(u8::is_ascii_digit)
            .expect("payload has a digit");
    bytes[digit] = b'0' + (bytes[digit] - b'0' + 1) % 10;
    std::fs::write(ckpt.join("cache.seg"), &bytes).expect("flip");

    // The record's CRC fails, so recovery keeps only the records before it:
    // the flipped cell and every later one re-run.
    let resumed = engine(
        2,
        EngineConfig {
            checkpoint: Some(ckpt.clone()),
            ..EngineConfig::default()
        },
    )
    .run(&cells);
    assert_eq!(records_digest(&resumed), want);
    assert_eq!(resumed.metrics.cells_resumed, middle);
    assert_eq!(resumed.metrics.cells_ok, cells.len());

    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn foreign_checkpoint_is_rejected_and_the_sweep_runs_fresh() {
    let ckpt = temp_dir("fp");
    let cells = grid();
    // Checkpoint written under a different root seed → different fingerprint.
    let other = Engine::new(EngineConfig {
        threads: 1,
        root_seed: ROOT_SEED + 1,
        progress: false,
        checkpoint: Some(ckpt.clone()),
        ..EngineConfig::default()
    });
    other.run(&cells);

    let report = engine(
        1,
        EngineConfig {
            checkpoint: Some(ckpt.clone()),
            ..EngineConfig::default()
        },
    )
    .run(&cells);
    assert_eq!(report.metrics.cells_resumed, 0, "foreign checkpoint used");
    assert_eq!(report.metrics.cells_ok, cells.len());
    assert!(
        ckpt.join("cache.seg.stale").exists(),
        "the foreign store is set aside, not deleted"
    );

    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn checkpoint_of_another_frame_count_is_set_aside() {
    // Cell labels and the root seed leave out the frame count, so only the
    // cells' checkpoint identities tell these two grids apart.
    let ckpt = temp_dir("frames");
    let cells = grid();
    let want = records_digest(&engine(1, EngineConfig::default()).run(&cells));
    write_checkpoint(&cells, &ckpt, &want);

    let longer = headline_grid(&[Kernel::Fir], FRAMES + 20, SEED, &small_params());
    let labels = |cells: &[HeadlineCell]| cells.iter().map(Job::label).collect::<Vec<_>>();
    assert_eq!(labels(&longer), labels(&cells));
    let fresh = records_digest(&engine(1, EngineConfig::default()).run(&longer));
    assert_ne!(fresh, want, "the frame count must change the records");

    let report = engine(
        2,
        EngineConfig {
            checkpoint: Some(ckpt.clone()),
            ..EngineConfig::default()
        },
    )
    .run(&longer);
    assert_eq!(report.metrics.cells_resumed, 0, "other-frames store used");
    assert_eq!(records_digest(&report), fresh);
    assert!(
        ckpt.join("cache.seg.stale").exists(),
        "the other-frames store is set aside, not deleted"
    );

    let _ = std::fs::remove_dir_all(&ckpt);
}
