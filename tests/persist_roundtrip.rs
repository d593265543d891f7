//! Property-based round-trip coverage of the persistence wire format:
//! primitive codec round-trips (including hostile `f64` bit patterns),
//! CRC-32 single-bit-error detection, and — against *real* engine
//! states — byte-identical checkpoint re-encoding: decoding a
//! checkpoint file and re-encoding it must reproduce the exact bytes,
//! for any run configuration and any interrupt point.

use proptest::prelude::*;

use trimcaching::modellib::builders::SpecialCaseBuilder;
use trimcaching::prelude::*;
use trimcaching::runtime::persist::wire::{crc32, Decoder, Encoder};
use trimcaching::runtime::persist::Checkpoint;
use trimcaching::runtime::{
    read_journal, ControlConfig, CostAwareLfu, FillGranularity, PersistConfig, PopularityShift,
    ServeConfig, ServeEngine,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every primitive the codec offers round-trips losslessly through
    /// an encode/decode cycle, in sequence, with nothing left over.
    #[test]
    fn wire_primitives_round_trip(
        a in any::<u8>(),
        b in any::<u32>(),
        c in any::<u64>(),
        d in any::<i64>(),
        // Arbitrary bit patterns: NaN payloads, negative zero,
        // subnormals and infinities must all survive bit-exactly.
        bits in any::<u64>(),
        flag in any::<bool>(),
        text_bytes in collection::vec(32u8..127, 0..40),
        floats in collection::vec(any::<u64>(), 0..20),
        words in collection::vec(any::<u64>(), 0..20),
        flags in collection::vec(any::<bool>(), 0..20),
    ) {
        // ASCII payload plus a multi-byte suffix so UTF-8 length
        // prefixes are exercised beyond one byte per char.
        let text: String =
            text_bytes.iter().map(|&b| b as char).collect::<String>() + "—é";
        let fs: Vec<f64> = floats.iter().map(|&b| f64::from_bits(b)).collect();
        let mut e = Encoder::new();
        e.put_u8(a);
        e.put_u32(b);
        e.put_u64(c);
        e.put_i64(d);
        e.put_f64(f64::from_bits(bits));
        e.put_bool(flag);
        e.put_str(&text);
        e.put_f64_slice(&fs);
        e.put_u64_slice(&words);
        e.put_bool_slice(&flags);
        let bytes = e.into_bytes();

        let mut dec = Decoder::new(&bytes, "proptest");
        prop_assert_eq!(dec.get_u8().unwrap(), a);
        prop_assert_eq!(dec.get_u32().unwrap(), b);
        prop_assert_eq!(dec.get_u64().unwrap(), c);
        prop_assert_eq!(dec.get_i64().unwrap(), d);
        prop_assert_eq!(dec.get_f64().unwrap().to_bits(), bits);
        prop_assert_eq!(dec.get_bool().unwrap(), flag);
        prop_assert_eq!(dec.get_str().unwrap(), text);
        let back: Vec<u64> = dec.get_f64_vec().unwrap().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back, floats);
        prop_assert_eq!(dec.get_u64_vec().unwrap(), words);
        prop_assert_eq!(dec.get_bool_vec().unwrap(), flags);
        dec.finish().unwrap();
    }

    /// CRC-32 detects every single-bit error — the exact failure mode
    /// of a torn journal write.
    #[test]
    fn crc32_detects_single_bit_flips(
        bytes in collection::vec(any::<u8>(), 1..200),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let clean = crc32(&bytes);
        let mut flipped = bytes;
        let i = pos % flipped.len();
        flipped[i] ^= 1 << bit;
        prop_assert!(crc32(&flipped) != clean, "flip at byte {i} bit {bit} went undetected");
    }

    /// Truncating an encoded buffer never panics — it decodes to a
    /// clean corruption error (or a valid shorter prefix read).
    #[test]
    fn truncated_buffers_fail_cleanly(
        words in collection::vec(any::<u64>(), 1..10),
        cut in any::<usize>(),
    ) {
        let mut e = Encoder::new();
        e.put_u64_slice(&words);
        let bytes = e.into_bytes();
        let cut = cut % bytes.len();
        let mut dec = Decoder::new(&bytes[..cut], "proptest");
        // Must not panic; any outcome other than a crash is fine.
        let _ = dec.get_u64_vec();
    }
}

fn scenario(seed: u64, num_users: usize) -> Scenario {
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(3)
        .build(seed);
    TopologyConfig::paper_defaults()
        .with_users(num_users)
        .with_capacity_gb(0.4)
        .generate(&library, seed, 0)
        .expect("topology generates")
}

proptest! {
    // Engine runs are comparatively expensive; a small random sample
    // over the configuration space is what matters here.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Checkpoints of real engine states — any seed, duration, fill
    /// granularity, mobility/control combination and interrupt point —
    /// decode and re-encode to the identical byte image, and their
    /// journals stay strictly readable.
    #[test]
    fn real_checkpoints_reencode_byte_identically(
        seed in 0u64..1_000,
        users in 6usize..14,
        duration_s in 40.0f64..120.0,
        stop_frac in 0.1f64..1.0,
        every_s in 10.0f64..40.0,
        mobility in any::<bool>(),
        control in any::<bool>(),
        block in any::<bool>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "tc-roundtrip-{}-{seed}-{users}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();

        let s = scenario(seed, users);
        let mut config = ServeConfig::smoke()
            .with_seed(seed)
            .with_duration_s(duration_s)
            .with_request_rate_hz(0.15)
            .with_granularity(if block {
                FillGranularity::Block
            } else {
                FillGranularity::WholeModel
            })
            .with_persist(PersistConfig::new(dir.clone()).with_checkpoint_every_s(every_s));
        if mobility {
            config = config.with_mobility_slot_s(5.0);
        }
        if control {
            config = config.with_control(ControlConfig::paper_defaults().with_tick_s(15.0));
        }

        ServeEngine::new(&s, &CostAwareLfu, config)
            .expect("engine builds")
            .run_until(duration_s * stop_frac)
            .expect("interrupted run");

        let cp_path = dir.join("checkpoint.tcp");
        let bytes = std::fs::read(&cp_path).expect("checkpoint exists");
        let cp = Checkpoint::from_bytes(&bytes).expect("checkpoint decodes");
        prop_assert_eq!(
            cp.to_bytes(),
            bytes.clone(),
            "decode→re-encode must reproduce the file image"
        );
        // Saving the decoded checkpoint elsewhere writes the same image.
        let copy = dir.join("copy.tcp");
        cp.save(&copy).expect("copy saves");
        prop_assert_eq!(std::fs::read(&copy).unwrap(), std::fs::read(&cp_path).unwrap());
        // The interrupted journal is always a valid strict read.
        read_journal(&dir.join("journal_0.tcj")).expect("journal is intact");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A shared popularity ranking is one row per phase in the checkpoint:
/// a whole 300-user, 8-phase checkpoint is smaller than one phase of a
/// per-user CDF table (`K × I` eight-byte floats). Three servers keep
/// the per-server block state (~5 kB a server on this library) from
/// dominating the file.
#[test]
fn shared_popularity_checkpoints_store_one_row_per_phase() {
    let dir = std::env::temp_dir().join(format!("tc-roundtrip-{}-shared", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let library = SpecialCaseBuilder::paper_setup()
        .models_per_backbone(10)
        .build(5);
    let mut topology = TopologyConfig::paper_defaults()
        .with_servers(3)
        .with_users(300)
        .with_capacity_gb(0.4);
    topology.demand.personalised_popularity = false;
    let s = topology
        .generate(&library, 5, 0)
        .expect("topology generates");
    let config = ServeConfig::smoke()
        .with_seed(5)
        .with_duration_s(80.0)
        .with_request_rate_hz(0.05)
        .with_persist(PersistConfig::new(dir.clone()).with_checkpoint_every_s(40.0));
    let workload = PopularityShift::new(10.0, 8, 3)
        .workload(s.demand(), config.request_rate_hz)
        .expect("shift workload");
    let mut engine = ServeEngine::new(&s, &CostAwareLfu, config).expect("engine builds");
    engine.set_workload(workload).expect("workload fits");
    engine.run().expect("run completes");

    let bytes = std::fs::read(dir.join("checkpoint.tcp")).expect("checkpoint exists");
    let one_phase_table = s.num_users() * s.num_models() * 8;
    assert!(
        bytes.len() < one_phase_table,
        "checkpoint is {} B, one per-user CDF phase is {one_phase_table} B",
        bytes.len()
    );
    let cp = Checkpoint::from_bytes(&bytes).expect("checkpoint decodes");
    assert_eq!(cp.to_bytes(), bytes);
    std::fs::remove_dir_all(&dir).ok();
}
