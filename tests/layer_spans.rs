//! The store-recovery, fleet job-output and streaming-refit layers each
//! record one span sample per call. The tests hold one lock while they
//! run, so no other test's calls land in the process-wide span
//! histograms they count.

use std::sync::Mutex;

use tpupoint::analyzer::{replay, StreamingConfig};
use tpupoint::prelude::*;
use tpupoint::profiler::{recover_records, JsonlStore, RecordStore, StepRecord};
use tpupoint::workloads::{build, BuildOptions, WorkloadId};
use tpupoint::FleetJobRequest;

fn span_count(name: &str) -> u64 {
    tpupoint::obs::metrics()
        .histogram(&format!("span.{name}"))
        .snapshot()
        .count
}

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn recover_and_job_output_spans_record_once_per_call() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let root = std::env::temp_dir().join(format!("tpupoint-layer-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let records = root.join("records");
    let mut store = JsonlStore::create(&records).unwrap();
    store.put_step(&StepRecord::new(1)).unwrap();
    store.seal().unwrap();
    let before = span_count("store.recover");
    for calls in 1..=3 {
        recover_records(&records).unwrap();
        assert_eq!(span_count("store.recover") - before, calls);
    }

    let session = TpuPoint::builder()
        .analyzer(true)
        .output_dir(root.join("fleet"))
        .serve("127.0.0.1:0")
        .serve_pace_us(0)
        .build()
        .serve_fleet()
        .expect("fleet starts");
    let before = span_count("fleet.job_output");
    for seed in 0..2 {
        let config = build(
            WorkloadId::DcganMnist,
            TpuGeneration::V2,
            &BuildOptions {
                scale: 0.02,
                seed,
                ..BuildOptions::default()
            },
        );
        session
            .submit(FleetJobRequest::new(config))
            .expect("admitted");
    }
    session.wait_jobs_idle();
    assert_eq!(span_count("fleet.job_output") - before, 2);
    session.request_quit();
    session.wait().expect("drains");
    assert_eq!(span_count("fleet.job_output") - before, 2);
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn streaming_refit_span_records_once_per_full_fit() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let config = build(
        WorkloadId::BertMrpc,
        TpuGeneration::V2,
        &BuildOptions {
            scale: 0.3,
            seed: 7,
            ..BuildOptions::default()
        },
    );
    let profile = TpuPoint::builder()
        .analyzer(false)
        .build()
        .profile(config)
        .unwrap()
        .profile;
    let (refits_before, updates_before) = (
        span_count("analyzer.streaming_refit"),
        span_count("analyzer.streaming_update"),
    );
    let replayed = replay(&profile, StreamingConfig::default());
    let refits = replayed.analyzer.refits();
    assert!(
        refits < replayed.chunks,
        "updates after the latch only assign ({refits} full fits, {} updates)",
        replayed.chunks
    );
    assert_eq!(
        span_count("analyzer.streaming_refit") - refits_before,
        refits
    );
    assert_eq!(
        span_count("analyzer.streaming_update") - updates_before,
        replayed.chunks
    );
}
