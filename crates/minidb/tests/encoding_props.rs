//! Property tests of the on-disk encodings: node pages, WAL records and
//! superblocks must round-trip for arbitrary content, and every single-bit
//! corruption must be detected.

use proptest::prelude::*;
use tsuru_minidb::{encode_record, LogRecord, Node, Superblock, WalOp, WalRecord};

fn wal_record_strategy() -> impl Strategy<Value = WalRecord> {
    (
        1u64..u64::MAX / 2,
        any::<u64>(),
        prop::collection::vec(
            (any::<u64>(), prop::option::of(prop::collection::vec(any::<u8>(), 0..200))),
            0..12,
        ),
    )
        .prop_map(|(lsn, txid, ops)| WalRecord {
            lsn,
            txid,
            ops: ops
                .into_iter()
                .map(|(key, value)| WalOp { key, value })
                .collect(),
        })
}

fn leaf_strategy() -> impl Strategy<Value = Node> {
    prop::collection::btree_map(any::<u64>(), prop::collection::vec(any::<u8>(), 0..100), 0..25)
        .prop_map(|m| Node::leaf(m.iter().map(|(k, v)| (*k, v.as_slice()))))
}

fn internal_strategy() -> impl Strategy<Value = Node> {
    prop::collection::btree_set(any::<u64>(), 1..40).prop_flat_map(|keys| {
        let n = keys.len();
        prop::collection::vec(any::<u64>(), n + 1..=n + 1).prop_map(move |children| {
            Node::Internal {
                keys: keys.iter().copied().collect(),
                children,
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn wal_records_roundtrip_and_length_matches(rec in wal_record_strategy()) {
        let encoded = encode_record(7, &rec);
        prop_assert_eq!(encoded.len(), rec.encoded_len());
        // Round-trip through a scan over a device image.
        use tsuru_storage::{BlockDeviceMut, MemDevice};
        let blocks = encoded.len().div_ceil(4096).max(1) as u64;
        let mut dev = MemDevice::new(blocks);
        let mut image = encoded.clone();
        image.resize(blocks as usize * 4096, 0);
        for b in 0..blocks {
            dev.write_block(b, &image[b as usize * 4096..(b as usize + 1) * 4096]);
        }
        let scanned = tsuru_minidb::scan_wal(&dev, blocks, 7).records();
        prop_assert_eq!(scanned.len(), 1);
        prop_assert_eq!(&scanned[0], &rec);
        // Wrong epoch: invisible.
        prop_assert!(tsuru_minidb::scan_wal(&dev, blocks, 8).is_empty());
    }

    #[test]
    fn wal_bit_flips_are_detected(rec in wal_record_strategy(), flip in any::<prop::sample::Index>()) {
        let mut encoded = encode_record(3, &rec);
        let i = flip.index(encoded.len());
        encoded[i] ^= 0x01;
        use tsuru_storage::{BlockDeviceMut, MemDevice};
        let blocks = encoded.len().div_ceil(4096).max(1) as u64;
        let mut dev = MemDevice::new(blocks);
        let mut image = encoded.clone();
        image.resize(blocks as usize * 4096, 0);
        for b in 0..blocks {
            dev.write_block(b, &image[b as usize * 4096..(b as usize + 1) * 4096]);
        }
        let scanned = tsuru_minidb::scan_wal(&dev, blocks, 3).records();
        // A flipped record must never decode to something different.
        if let Some(got) = scanned.first() {
            prop_assert_eq!(got, &rec, "corruption yielded a different record");
        }
    }

    #[test]
    fn leaf_nodes_roundtrip(node in leaf_strategy()) {
        prop_assume!(node.serialized_size() <= tsuru_minidb::PAGE_SIZE);
        let buf = node.serialize(9, 42);
        let (back, lsn) = Node::deserialize(&buf, 9).unwrap();
        prop_assert_eq!(back, node);
        prop_assert_eq!(lsn, 42);
    }

    #[test]
    fn internal_nodes_roundtrip(node in internal_strategy()) {
        prop_assume!(node.serialized_size() <= tsuru_minidb::PAGE_SIZE);
        let buf = node.serialize(3, 7);
        let (back, _) = Node::deserialize(&buf, 3).unwrap();
        prop_assert_eq!(back, node);
    }

    #[test]
    fn node_bit_flips_are_detected(node in leaf_strategy(), flip in any::<prop::sample::Index>()) {
        prop_assume!(node.serialized_size() <= tsuru_minidb::PAGE_SIZE);
        let mut buf = node.serialize(1, 1);
        let i = flip.index(buf.len());
        buf[i] ^= 0x10;
        // Either rejected, or (if the flip hit truly dead padding whose bits
        // are covered by the CRC — impossible) identical. CRC covers the
        // whole page, so any flip must be rejected.
        prop_assert!(Node::deserialize(&buf, 1).is_err());
    }

    #[test]
    fn superblock_roundtrips(
        epoch in any::<u32>(),
        root in any::<u64>(),
        next_page in any::<u64>(),
        ckpt_lsn in any::<u64>(),
        next_txid in any::<u64>(),
        wal_blocks in any::<u64>(),
        free_list in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let sb = Superblock {
            epoch, root, next_page, ckpt_lsn, next_txid, wal_blocks, free_list,
        };
        let buf = sb.serialize();
        let back = Superblock::deserialize(&buf).unwrap();
        prop_assert_eq!(back, sb);
    }

    #[test]
    fn superblock_bit_flips_are_detected(flip in any::<prop::sample::Index>()) {
        let sb = Superblock {
            epoch: 5, root: 10, next_page: 99, ckpt_lsn: 1234,
            next_txid: 55, wal_blocks: 64, free_list: vec![1, 2, 3],
        };
        let mut buf = sb.serialize();
        let i = flip.index(buf.len());
        buf[i] ^= 0x01;
        prop_assert!(Superblock::deserialize(&buf).is_err());
    }
}
