//! Failure-injection and misuse tests: the system must fail cleanly and
//! loudly, never corrupt state, and keep working after errors.

use std::sync::Arc;

use kvcsd::cluster::StackBuilder;
use kvcsd::device::sidx::MAX_KEY_BYTES;
use kvcsd::device::{DeviceConfig, KvCsdDevice};
use kvcsd::flash::{FlashGeometry, ZnsConfig};
use kvcsd::proto::{Bound, KeyspaceState, KvStatus, SecondaryIndexSpec, SecondaryKeyType, SidxKey};
use kvcsd::sim::config::SimConfig;
use kvcsd_client::{ClientError, KvCsd};

fn tiny_device(blocks_per_channel: u32) -> (Arc<KvCsdDevice>, KvCsd) {
    let cfg = SimConfig::default();
    let stack = StackBuilder::new(FlashGeometry {
        channels: cfg.hw.flash_channels,
        blocks_per_channel,
        pages_per_block: 16,
        page_bytes: cfg.hw.page_bytes,
    })
    .zns(ZnsConfig {
        zone_blocks: 1,
        max_open_zones: 1 << 16,
    })
    .device(DeviceConfig {
        cluster_width: 4,
        soc_dram_bytes: 16 << 20,
        seed: 11,
        ..DeviceConfig::default()
    })
    .build();
    let client = KvCsd::connect(stack.handler(), Arc::clone(stack.ledger()));
    (Arc::clone(stack.device()), client)
}

#[test]
fn state_machine_rejects_out_of_order_operations() {
    let (dev, client) = tiny_device(512);
    let ks = client.create_keyspace("strict").unwrap();

    // Query before any write: EMPTY is not queryable.
    assert!(matches!(
        ks.get(b"x"),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));

    ks.put(b"a", b"1").unwrap();
    // Query while WRITABLE: rejected.
    assert!(matches!(
        ks.range(Bound::Unbounded, Bound::Unbounded, None),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));
    // Secondary index before compaction: rejected synchronously.
    let spec = SecondaryIndexSpec {
        name: "s".into(),
        value_offset: 0,
        value_len: 4,
        key_type: SecondaryKeyType::U32,
    };
    assert!(matches!(
        ks.build_secondary_index(spec),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));

    ks.compact().unwrap();
    // Writes during COMPACTING: rejected.
    assert!(matches!(
        ks.put(b"b", b"2"),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));
    // Double compaction: rejected.
    assert!(matches!(
        ks.compact(),
        Err(ClientError::Device(KvStatus::BadKeyspaceState { .. }))
    ));

    dev.run_pending_jobs();
    // After COMPACTED, the data is all there despite the misuse attempts.
    assert_eq!(ks.get(b"a").unwrap(), b"1");
    assert!(ks.get(b"b").unwrap_err().is_not_found());
}

#[test]
fn device_full_fails_cleanly_and_delete_recovers_space() {
    // 16 channels x 8 blocks x 1-block zones = 128 zones, a handful of
    // clusters' worth.
    let (dev, client) = tiny_device(8);
    let ks = client.create_keyspace("hog").unwrap();
    let mut i = 0u64;
    let err = loop {
        match ks.put(format!("k{i:012}").as_bytes(), &[7u8; 4096]) {
            Ok(()) => i += 1,
            Err(e) => break e,
        }
        assert!(i < 100_000, "device must eventually fill");
    };
    assert!(matches!(err, ClientError::Device(KvStatus::DeviceFull)));

    // The keyspace is still deletable, and afterwards the device works.
    ks.delete().unwrap();
    let ks2 = client.create_keyspace("after").unwrap();
    ks2.put(b"k", b"v").unwrap();
    ks2.compact().unwrap();
    dev.run_pending_jobs();
    assert_eq!(ks2.get(b"k").unwrap(), b"v");
}

#[test]
fn unknown_names_and_ids_error() {
    let (_dev, client) = tiny_device(256);
    assert!(matches!(
        client.open_keyspace("ghost"),
        Err(ClientError::Device(KvStatus::KeyspaceNotFound))
    ));
    let ks = client.create_keyspace("real").unwrap();
    ks.clone().delete().unwrap();
    // The stale session handle now errors cleanly.
    assert!(matches!(
        ks.put(b"k", b"v"),
        Err(ClientError::Device(KvStatus::KeyspaceNotFound))
    ));
}

#[test]
fn bad_payloads_are_rejected() {
    let (_dev, client) = tiny_device(256);
    let ks = client.create_keyspace("b").unwrap();
    // Empty keys are invalid.
    assert!(ks.put(b"", b"v").is_err());
    // And the keyspace still works afterwards.
    ks.put(b"ok", b"v").unwrap();
}

#[test]
fn failed_sidx_spec_reports_and_preserves_keyspace() {
    let (dev, client) = tiny_device(512);
    let ks = client.create_keyspace("specs").unwrap();
    ks.put(b"key", &[1u8; 8]).unwrap();
    ks.compact().unwrap();
    dev.run_pending_jobs();

    // Width mismatch caught synchronously.
    assert!(matches!(
        ks.build_secondary_index(SecondaryIndexSpec {
            name: "bad".into(),
            value_offset: 0,
            value_len: 3,
            key_type: SecondaryKeyType::F32,
        }),
        Err(ClientError::Device(KvStatus::BadIndexSpec))
    ));

    // A spec beyond the value bounds builds an empty index (values are
    // skipped, not fatal) and queries on it return nothing.
    ks.build_secondary_index(SecondaryIndexSpec {
        name: "short".into(),
        value_offset: 100,
        value_len: 4,
        key_type: SecondaryKeyType::U32,
    })
    .unwrap();
    dev.run_pending_jobs();
    let got = ks
        .sidx_range("short", Bound::Unbounded, Bound::Unbounded, None)
        .unwrap();
    assert!(got.is_empty());
    // Primary data untouched.
    assert_eq!(ks.get(b"key").unwrap(), vec![1u8; 8]);
}

/// The longest key the device accepts compacts into the primary index;
/// one byte more is refused on `Put` and `BulkPut` (the whole bulk)
/// instead of failing the compaction and stranding the keyspace.
#[test]
fn longest_key_compacts_and_one_byte_more_is_refused() {
    let (dev, client) = tiny_device(512);
    let ks = client.create_keyspace("long").unwrap();
    let longest = vec![b'k'; MAX_KEY_BYTES];
    let over = vec![b'l'; MAX_KEY_BYTES + 1];
    ks.put(&longest, b"v").unwrap();
    assert!(matches!(
        ks.put(&over, b"v"),
        Err(ClientError::Device(KvStatus::BadValue))
    ));
    let mut bulk = ks.bulk_writer();
    bulk.put(b"a", b"v").unwrap();
    bulk.put(&over, b"v").unwrap();
    assert!(matches!(
        bulk.flush(),
        Err(ClientError::Device(KvStatus::BadValue))
    ));

    ks.compact().unwrap();
    dev.run_pending_jobs();
    assert_eq!(ks.stat().unwrap().state, KeyspaceState::Compacted);
    assert_eq!(ks.get(&longest).unwrap(), b"v");
    for refused in [&b"a"[..], &over] {
        assert!(matches!(
            ks.get(refused),
            Err(ClientError::Device(KvStatus::KeyNotFound))
        ));
    }
}

/// The longest key with the longest secondary key fills an SIDX entry
/// that still fits a block; a secondary key one byte longer is refused
/// synchronously by both index requests, leaving the keyspace as it was.
#[test]
fn longest_key_and_secondary_key_index_and_one_byte_more_is_refused() {
    let (dev, client) = tiny_device(512);
    let ks = client.create_keyspace("long-sidx").unwrap();
    let key = vec![b'k'; MAX_KEY_BYTES];
    let value = vec![7u8; MAX_KEY_BYTES + 1];
    ks.put(&key, &value).unwrap();
    let spec = |name: &str, value_len: usize| SecondaryIndexSpec {
        name: name.into(),
        value_offset: 0,
        value_len,
        key_type: SecondaryKeyType::Bytes,
    };

    assert!(matches!(
        ks.compact_with_indexes(vec![spec("over", MAX_KEY_BYTES + 1)]),
        Err(ClientError::Device(KvStatus::BadIndexSpec))
    ));
    assert_eq!(ks.stat().unwrap().state, KeyspaceState::Writable);
    ks.compact_with_indexes(vec![spec("longest", MAX_KEY_BYTES)])
        .unwrap();
    dev.run_pending_jobs();
    assert_eq!(ks.stat().unwrap().state, KeyspaceState::Compacted);
    let skey = SidxKey::Bytes(value[..MAX_KEY_BYTES].to_vec());
    assert_eq!(ks.sidx_get("longest", skey).unwrap(), vec![(key, value)]);
    assert!(matches!(
        ks.build_secondary_index(spec("over", MAX_KEY_BYTES + 1)),
        Err(ClientError::Device(KvStatus::BadIndexSpec))
    ));
}

#[test]
fn duplicate_keyspace_names_rejected_without_leaking() {
    let (dev, client) = tiny_device(256);
    let zones0 = dev.zone_manager().free_zones();
    client.create_keyspace("dup").unwrap();
    for _ in 0..5 {
        assert!(matches!(
            client.create_keyspace("dup"),
            Err(ClientError::Device(KvStatus::KeyspaceExists))
        ));
    }
    // Failed creations must not consume zones.
    assert_eq!(dev.zone_manager().free_zones(), zones0);
    assert_eq!(client.list_keyspaces().unwrap().len(), 1);
}
