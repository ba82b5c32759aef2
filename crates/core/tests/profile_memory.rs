//! Packed value-set profiles (DESIGN.md §8a): the profiler keeps every
//! distinct input pattern of every profiled segment, packed as zigzag
//! LEB128 bytes. GNUGO's keys are board regions of up to 362 small
//! words, so its packed profile must stay far below one 8-byte word per
//! key word.

use compreuse::{run_pipeline, PipelineConfig};

#[test]
fn gnugo_profile_packs_below_a_quarter_of_its_words() {
    let w = workloads::gnugo::gnugo();
    let config = PipelineConfig {
        profile_input: (w.default_input)(0.02),
        enable_validation: false,
        ..PipelineConfig::default()
    };
    let program = minic::parse(&w.source).expect("parse");
    let outcome = run_pipeline(&program, &config).expect("pipeline");
    let profile = &outcome.profile;
    let raw: usize = profile
        .segs
        .iter()
        .flat_map(|s| s.patterns())
        .map(|(words, _)| 8 * words.len())
        .sum();
    let packed = profile.pattern_bytes();
    assert!(raw > 0, "GNUGO recorded no pattern");
    assert!(
        4 * packed <= raw,
        "packed {packed} bytes is more than a quarter of raw {raw} bytes"
    );
}
