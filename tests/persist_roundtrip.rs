//! Property-based round-trip coverage of the persistence wire format:
//! primitive codec round-trips (including hostile `f64` bit patterns),
//! CRC-32 single-bit-error detection, and — against *real* engine
//! states — byte-identical checkpoint re-encoding: decoding a
//! checkpoint file and re-encoding it must reproduce the exact bytes,
//! for any run configuration and any interrupt point.

use proptest::prelude::*;

use trimcaching::modellib::builders::SpecialCaseBuilder;
use trimcaching::prelude::*;
use trimcaching::runtime::persist::wire::{crc32, decode, encode, Decoder, Encoder};
use trimcaching::runtime::persist::{Checkpoint, PersistError};
use trimcaching::runtime::{
    read_journal, ControlConfig, CostAwareLfu, FillGranularity, PersistConfig, PopularityShift,
    ServeConfig, ServeEngine, ShardedServeEngine,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generic `Wire` impl round-trips losslessly through an
    /// encode/decode cycle, in sequence, with nothing left over.
    #[test]
    fn wire_primitives_round_trip(
        a in any::<u8>(),
        b in any::<u32>(),
        c in any::<u64>(),
        index in any::<usize>(),
        // Arbitrary bit patterns: NaN payloads, negative zero,
        // subnormals and infinities must all survive bit-exactly.
        bits in any::<u64>(),
        flag in any::<bool>(),
        text_bytes in collection::vec(32u8..127, 0..40),
        floats in collection::vec(any::<u64>(), 0..20),
        words in collection::vec(any::<u64>(), 0..20),
        flags in collection::vec(any::<bool>(), 0..20),
        present in any::<bool>(),
        nested in collection::vec(collection::vec(any::<u32>(), 0..5), 0..6),
        pair_words in collection::vec(any::<u64>(), 0..6),
        array_words in collection::vec(any::<u64>(), 4..5),
    ) {
        let maybe = present.then_some(b);
        let pairs: Vec<(u64, Option<u8>)> =
            pair_words.iter().map(|&w| (w, (w % 3 != 0).then_some(w as u8))).collect();
        let array = [array_words[0], array_words[1], array_words[2], array_words[3]];
        // ASCII payload plus a multi-byte suffix so UTF-8 length
        // prefixes are exercised beyond one byte per char.
        let text: String =
            text_bytes.iter().map(|&b| b as char).collect::<String>() + "—é";
        let fs: Vec<f64> = floats.iter().map(|&b| f64::from_bits(b)).collect();
        let mut e = Encoder::new();
        e.put(&a);
        e.put(&b);
        e.put(&c);
        e.put(&index);
        e.put(&f64::from_bits(bits));
        e.put(&flag);
        e.put(&text);
        e.put(&fs);
        e.put(&words);
        e.put(&flags);
        e.put(&maybe);
        e.put(&nested);
        e.put(&pairs);
        e.put(&array);
        let bytes = e.into_bytes();

        let mut dec = Decoder::new(&bytes, "proptest");
        prop_assert_eq!(dec.get::<u8>().unwrap(), a);
        prop_assert_eq!(dec.get::<u32>().unwrap(), b);
        prop_assert_eq!(dec.get::<u64>().unwrap(), c);
        prop_assert_eq!(dec.get::<usize>().unwrap(), index);
        prop_assert_eq!(dec.get::<f64>().unwrap().to_bits(), bits);
        prop_assert_eq!(dec.get::<bool>().unwrap(), flag);
        prop_assert_eq!(dec.get::<String>().unwrap(), text);
        let back: Vec<u64> = dec.get::<Vec<f64>>().unwrap().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back, floats);
        prop_assert_eq!(dec.get::<Vec<u64>>().unwrap(), words);
        prop_assert_eq!(dec.get::<Vec<bool>>().unwrap(), flags);
        prop_assert_eq!(dec.get::<Option<u32>>().unwrap(), maybe);
        prop_assert_eq!(dec.get::<Vec<Vec<u32>>>().unwrap(), nested);
        prop_assert_eq!(dec.get::<Vec<(u64, Option<u8>)>>().unwrap(), pairs);
        prop_assert_eq!(dec.get::<[u64; 4]>().unwrap(), array);
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
    /// clean corruption error, for flat, optional and nested sequences.
    #[test]
    fn truncated_buffers_fail_cleanly(
        words in collection::vec(any::<u64>(), 1..10),
        present in any::<bool>(),
        nested in collection::vec(collection::vec(any::<u32>(), 0..4), 1..5),
        cut in any::<usize>(),
    ) {
        let maybe = present.then_some(words[0]);
        let value = (words, (maybe, nested));
        let bytes = encode(&value);
        let cut = cut % bytes.len();
        prop_assert!(matches!(
            decode::<(Vec<u64>, (Option<u64>, Vec<Vec<u32>>))>(&bytes[..cut], "proptest"),
            Err(PersistError::Corrupt { .. })
        ));
        prop_assert_eq!(decode(&bytes, "proptest"), Ok(value));
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
    /// granularity, mobility/control combination, region count and
    /// interrupt point — decode and re-encode to the identical byte
    /// image, and every region journal stays strictly readable.
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
        region_pick in 0usize..3,
    ) {
        let regions = [1, 2, 4][region_pick];
        let dir = std::env::temp_dir().join(format!(
            "tc-roundtrip-{}-{seed}-{users}-{regions}",
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

        ShardedServeEngine::new(&s, &CostAwareLfu, config, regions)
            .expect("engine builds")
            .run_until(duration_s * stop_frac)
            .expect("interrupted run");

        let cp_path = dir.join("checkpoint.tcp");
        let bytes = std::fs::read(&cp_path).expect("checkpoint exists");
        let cp = Checkpoint::from_bytes(&bytes).expect("checkpoint decodes");
        prop_assert_eq!(cp.num_shards(), regions);
        prop_assert_eq!(
            cp.to_bytes(),
            bytes.clone(),
            "decode→re-encode must reproduce the file image"
        );
        // Saving the decoded checkpoint elsewhere writes the same image.
        let copy = dir.join("copy.tcp");
        cp.save(&copy).expect("copy saves");
        prop_assert_eq!(std::fs::read(&copy).unwrap(), std::fs::read(&cp_path).unwrap());
        // The interrupted journals are always a valid strict read.
        for region in 0..regions {
            read_journal(&dir.join(format!("journal_{region}.tcj"))).expect("journal is intact");
        }
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

/// A region section holds only what its region owns: four regions cost
/// less than one extra copy of the per-user facts (position 16 B,
/// primary 8 B, generation 4 B) over one region. Per-server state is
/// stored once whatever the region count, and regions do not repeat
/// positions, primaries or generations.
#[test]
fn more_regions_do_not_repeat_run_or_server_state() {
    let s = scenario(11, 2_000);
    let k = s.num_users();
    let checkpoint_len = |regions: usize| {
        let dir = std::env::temp_dir().join(format!(
            "tc-roundtrip-{}-size-r{regions}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let config = ServeConfig::smoke()
            .with_seed(11)
            .with_duration_s(20.0)
            .with_request_rate_hz(0.05)
            .with_mobility_slot_s(0.0)
            .with_persist(PersistConfig::new(dir.clone()).with_checkpoint_every_s(10.0));
        assert!(config.control.is_none());
        ShardedServeEngine::new(&s, &CostAwareLfu, config, regions)
            .expect("engine builds")
            .run_until(15.0)
            .expect("interrupted run");
        let len = std::fs::metadata(dir.join("checkpoint.tcp"))
            .expect("checkpoint exists")
            .len();
        std::fs::remove_dir_all(&dir).ok();
        len
    };
    let (one, four) = (checkpoint_len(1), checkpoint_len(4));
    assert!(
        four < one + k as u64 * 28,
        "R = 4 checkpoint is {four} B, R = 1 is {one} B: more than {} B apart",
        k * 28
    );
}
