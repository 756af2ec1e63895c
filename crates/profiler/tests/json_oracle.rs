//! The record formats' JSON against the `Value` tree path.
//!
//! `serde_json`'s compact entry points encode and decode directly, without
//! building a `Value`. These tests hold them to the tree path they stand in
//! for, on the documents this crate writes: step and window records,
//! manifests and whole profiles must serialize to the same bytes, a torn
//! record line must fail to decode exactly when the tree fails, and
//! recovery of a torn `steps.jsonl` must keep the same records and count
//! the same skipped lines.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;
use serde_json::Value;
use tpupoint_profiler::{
    JsonlStore, OpStats, Profile, SegmentMeta, StepRecord, StoreManifest, WindowRecord,
};
use tpupoint_simcore::{OpId, SimDuration, SimTime};

/// A step line as `tpupoint profile` writes it for BERT-MRPC.
const REAL_STEP_LINE: &str = r#"{"first_start":7617273,"host_time":111304,"last_end":8106465,"mxu_time":54358,"ops":{"1":{"count":1,"total":33},"16":{"count":1,"total":5},"18":{"count":1,"total":5},"19":{"count":1,"total":111101},"20":{"count":1,"total":403},"23":{"count":1,"total":30},"25":{"count":1,"total":23},"26":{"count":19,"total":574},"27":{"count":38,"total":1123},"28":{"count":79,"total":158127},"29":{"count":6,"total":143},"30":{"count":6,"total":69},"31":{"count":12,"total":417},"32":{"count":6,"total":19440},"33":{"count":6,"total":135},"34":{"count":1,"total":5},"35":{"count":1,"total":82},"36":{"count":1,"total":22},"37":{"count":26,"total":1042},"5":{"count":1,"total":110},"7":{"count":1,"total":50}},"step":2,"tpu_time":181232}"#;

// Only `serde_json`'s public API appears here, so these tests keep
// building against the real crates.

fn tree_text<T: Serialize>(value: &T) -> String {
    serde_json::to_value(value).unwrap().to_string()
}

fn tree_decode<T: DeserializeOwned>(text: &str) -> Result<T, String> {
    let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    serde_json::from_value(value).map_err(|e| e.to_string())
}

/// A small deterministic generator for building records from one seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn wide(&mut self) -> u64 {
        self.next() >> self.below(64)
    }

    fn name(&mut self) -> String {
        const PARTS: [&str; 8] = ["Conv2D", "x", "\"q\"", "back\\slash", "\n", "é", "中", "😀"];
        (0..self.below(4))
            .map(|_| PARTS[self.below(PARTS.len() as u64) as usize])
            .collect()
    }

    fn step(&mut self, step: u64) -> StepRecord {
        let mut record = StepRecord::new(step);
        for _ in 0..self.below(40) {
            // Op ids of one to three digits: "10" sorts before "9".
            let id = match self.below(3) {
                0 => self.below(10),
                1 => 10 + self.below(90),
                _ => 100 + self.below(900),
            };
            let stats = OpStats {
                count: self.below(200),
                total: SimDuration::from_micros(self.wide()),
            };
            record.ops.insert(OpId(id as u32), stats);
        }
        record.tpu_time = SimDuration::from_micros(self.wide());
        record.mxu_time = SimDuration::from_micros(self.wide());
        record.host_time = SimDuration::from_micros(self.wide());
        record.first_start = SimTime::from_micros(self.wide());
        record.last_end = SimTime::from_micros(self.wide());
        record
    }

    fn window(&mut self) -> WindowRecord {
        WindowRecord {
            index: self.wide(),
            start: SimTime::from_micros(self.wide()),
            end: SimTime::from_micros(self.wide()),
            events: self.wide(),
            tpu_busy: SimDuration::from_micros(self.wide()),
            mxu_busy: SimDuration::from_micros(self.wide()),
            first_step: self.wide(),
            last_step: self.wide(),
        }
    }

    fn flags(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.below(2) == 1).collect()
    }

    fn manifest(&mut self) -> StoreManifest {
        let ops = self.below(6) as usize;
        StoreManifest {
            model: self.name(),
            dataset: self.name(),
            steps_flushed: self.wide(),
            windows_flushed: self.wide(),
            sealed: self.below(2) == 1,
            op_names: (0..ops).map(|_| self.name()).collect(),
            op_uses_mxu: self.flags(ops),
            op_on_host: self.flags(ops),
            format: ["", "jsonl", "binary"][self.below(3) as usize].to_owned(),
            segments: (0..self.below(3))
                .map(|_| SegmentMeta {
                    name: self.name(),
                    steps: self.wide(),
                    windows: self.wide(),
                    bytes: self.wide(),
                })
                .collect(),
            steps_retired: self.wide(),
            windows_retired: self.wide(),
        }
    }

    fn marks(&mut self) -> Vec<(u64, SimTime)> {
        (0..self.below(5))
            .map(|_| (self.wide(), SimTime::from_micros(self.wide())))
            .collect()
    }

    fn profile(&mut self) -> Profile {
        let ops = self.below(8) as usize;
        Profile {
            model: self.name(),
            dataset: self.name(),
            op_names: (0..ops).map(|_| self.name()).collect(),
            op_uses_mxu: self.flags(ops),
            op_on_host: self.flags(ops),
            steps: (0..self.below(5)).map(|s| self.step(s)).collect(),
            windows: (0..self.below(4)).map(|_| self.window()).collect(),
            step_marks: self.marks(),
            checkpoints: self.marks(),
            dropped_windows: self.wide(),
            lost_events: self.wide(),
            store_errors: self.wide(),
            store_error: (self.below(2) == 1).then(|| self.name()),
        }
    }
}

/// Serializes `value` both ways, checks the bytes agree, and checks the
/// text decodes back to `value` through the entry point.
fn assert_round_trips_like_the_tree<T>(value: &T)
where
    T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let text = serde_json::to_string(value).unwrap();
    assert_eq!(text, tree_text(value));
    assert_eq!(&serde_json::from_str::<T>(&text).unwrap(), value);
    assert_eq!(&tree_decode::<T>(&text).unwrap(), value);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn step_records_match_the_tree(seed in any::<u64>(), step in any::<u64>()) {
        assert_round_trips_like_the_tree(&SplitMix(seed).step(step));
    }

    #[test]
    fn window_records_match_the_tree(seed in any::<u64>()) {
        assert_round_trips_like_the_tree(&SplitMix(seed).window());
    }

    #[test]
    fn manifests_match_the_tree(seed in any::<u64>()) {
        let manifest = SplitMix(seed).manifest();
        assert_round_trips_like_the_tree(&manifest);
        // Pretty output stays on the tree and is unchanged.
        prop_assert_eq!(
            serde_json::to_string_pretty(&manifest).unwrap(),
            serde_json::to_string_pretty(&serde_json::to_value(&manifest).unwrap()).unwrap()
        );
    }

    #[test]
    fn profiles_match_the_tree(seed in any::<u64>()) {
        let profile = SplitMix(seed).profile();
        assert_round_trips_like_the_tree(&profile);
        let mut written = Vec::new();
        profile.save_json(&mut written).unwrap();
        prop_assert_eq!(String::from_utf8(written).unwrap(), tree_text(&profile));
    }
}

#[test]
fn a_real_step_line_round_trips_byte_for_byte() {
    let record: StepRecord = serde_json::from_str(REAL_STEP_LINE).unwrap();
    assert_eq!(record.step, 2);
    assert_eq!(record.ops[&OpId(28)].count, 79);
    assert_eq!(serde_json::to_string(&record).unwrap(), REAL_STEP_LINE);
    assert_eq!(tree_decode::<StepRecord>(REAL_STEP_LINE).unwrap(), record);
}

#[test]
fn every_prefix_of_a_real_line_fails_exactly_when_the_tree_fails() {
    for end in 0..=REAL_STEP_LINE.len() {
        let prefix = &REAL_STEP_LINE[..end];
        let direct = serde_json::from_str::<StepRecord>(prefix).map_err(|e| e.to_string());
        assert_eq!(
            direct,
            tree_decode::<StepRecord>(prefix),
            "prefix of {end} bytes"
        );
        if let Err(err) = direct {
            assert!(
                err.contains("offset") || err.contains("missing field"),
                "{err}"
            );
        }
    }
}

fn temp_records_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tpupoint-json-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What recovery kept before decoding went direct: the tree decodes each
/// line until the first that fails, and every non-blank line from there
/// on counts as skipped.
fn tree_recovery(bytes: &[u8]) -> (Vec<StepRecord>, usize) {
    let mut records = Vec::new();
    let mut skipped = 0;
    let mut torn = false;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(line);
        if line.trim().is_empty() {
            continue;
        }
        if torn {
            skipped += 1;
            continue;
        }
        match tree_decode::<StepRecord>(line.trim_end()) {
            Ok(record) => records.push(record),
            Err(_) => {
                torn = true;
                skipped += 1;
            }
        }
    }
    records.sort_by_key(|r| r.step);
    (records, skipped)
}

fn write_steps(dir: &Path, bytes: &[u8]) {
    std::fs::write(dir.join("steps.jsonl"), bytes).unwrap();
}

#[test]
fn recovery_of_a_file_torn_anywhere_in_its_last_line_matches_the_tree() {
    let dir = temp_records_dir("torn");
    let mut gen = SplitMix(7);
    let mut body = String::new();
    for step in 0..4 {
        body.push_str(&serde_json::to_string(&gen.step(step)).unwrap());
        body.push('\n');
    }
    let last = REAL_STEP_LINE.replace("\"step\":2", "\"step\":4");
    for cut in 0..=last.len() {
        for newline in [false, true] {
            let mut bytes = body.clone().into_bytes();
            bytes.extend_from_slice(&last.as_bytes()[..cut]);
            if newline {
                bytes.push(b'\n');
            }
            write_steps(&dir, &bytes);
            let summary = JsonlStore::recover(&dir).unwrap();
            let (records, skipped) = tree_recovery(&bytes);
            assert_eq!(summary.steps, records, "cut at {cut}");
            assert_eq!(summary.skipped_step_lines, skipped, "cut at {cut}");
            let whole = cut == last.len();
            assert_eq!(
                summary.steps.len(),
                if whole { 5 } else { 4 },
                "cut at {cut}"
            );
        }
    }
    // A torn line that is not even UTF-8, then a good line after it.
    let mut bytes = body.into_bytes();
    bytes.extend_from_slice(&REAL_STEP_LINE.as_bytes()[..40]);
    bytes.extend_from_slice(&[0xff, 0xc3, b'\n']);
    bytes.extend_from_slice(REAL_STEP_LINE.as_bytes());
    write_steps(&dir, &bytes);
    let summary = JsonlStore::recover(&dir).unwrap();
    assert_eq!(
        (summary.steps, summary.skipped_step_lines),
        tree_recovery(&bytes)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn integral_floats_in_u64_fields_decode_as_before() {
    let line = r#"{"index":3.0,"start":1e2,"end":250,"events":0.0,"tpu_busy":7,"mxu_busy":1E1,"first_step":0,"last_step":2}"#;
    let window: WindowRecord = serde_json::from_str(line).unwrap();
    assert_eq!(window, tree_decode::<WindowRecord>(line).unwrap());
    assert_eq!(window.index, 3);
    assert_eq!(window.start, SimTime::from_micros(100));
    assert_eq!(window.mxu_busy, SimDuration::from_micros(10));
    for bad in ["3.5", "-1", "1e-1", "\"3\""] {
        let text = line.replace("3.0", bad);
        let direct = serde_json::from_str::<WindowRecord>(&text).map_err(|e| e.to_string());
        assert_eq!(direct, tree_decode::<WindowRecord>(&text), "{bad}");
        assert!(direct.is_err(), "{bad}");
    }
}
