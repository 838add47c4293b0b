//! A log record is data off a disk: a decoder may believe what its checksum
//! vouches for only as far as the bytes it has reach. A record whose CRC is
//! correct but whose op count claims four billion operations in a 20-byte
//! payload is malformed like any other — it ends the log. (A decoder that
//! sized a vector from that count asked the allocator for 128 GiB and
//! aborted the process.)

use tsuru_minidb::{crc32_update, scan_wal, DbConfig, DbVol, MiniDb, TableId};
use tsuru_storage::{BlockDevice, BlockDeviceMut, MemDevice, BLOCK_SIZE};

const T: TableId = TableId(4);

/// A record of `epoch` whose payload is `lsn | txid | nops` and nothing
/// else, with a correct CRC.
fn forged(epoch: u32, lsn: u64, nops: u32) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.extend_from_slice(&nops.to_le_bytes());
    let mut head = Vec::new();
    head.extend_from_slice(&epoch.to_le_bytes());
    head.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = crc32_update(crc32_update(0xFFFF_FFFF, &head), &payload) ^ 0xFFFF_FFFF;
    head.extend_from_slice(&crc.to_le_bytes());
    head.extend(payload);
    head
}

#[test]
fn a_checksummed_record_with_a_huge_op_count_ends_the_log() {
    let cfg = DbConfig::default();
    let (mut db, format) = MiniDb::create("h", cfg.clone());
    let mut wal = MemDevice::new(cfg.wal_blocks);
    let mut data = MemDevice::new(cfg.data_blocks);
    let mut apply = |plan: tsuru_minidb::IoPlan, wal: &mut MemDevice| {
        for io in plan.phases.into_iter().flatten() {
            match io.vol {
                DbVol::Wal => wal.write_block(io.lba, &io.data),
                DbVol::Data => data.write_block(io.lba, &io.data),
            }
        }
    };
    apply(format, &mut wal);
    for k in 0..5u64 {
        let tx = db.begin();
        db.put(tx, T, k, format!("row {k}").as_bytes());
        apply(db.commit(tx), &mut wal);
    }
    let epoch = 1;
    let end = db.log_end();
    let record = forged(epoch, db.last_lsn() + 1, u32::MAX);
    let lba = (end / BLOCK_SIZE) as u64;
    let mut block = wal.read_block(lba).expect("the log's tail block").to_vec();
    block[end % BLOCK_SIZE..end % BLOCK_SIZE + record.len()].copy_from_slice(&record);
    wal.write_block(lba, &block);

    let scan = scan_wal(&wal, cfg.wal_blocks, epoch);
    assert_eq!(scan.len(), 5, "the records before the forged one");
    assert_eq!(scan.end, end, "the log ends where the forged record starts");
    assert_eq!(scan.lsns().collect::<Vec<_>>(), [1, 2, 3, 4, 5]);

    let (rec, report) = MiniDb::recover("h", &wal, &data, cfg).expect("opens");
    assert_eq!(report.redo_records, 5);
    assert_eq!(rec.last_lsn(), 5);
    assert_eq!(rec.log_end(), end);
    for k in 0..5u64 {
        assert_eq!(rec.get_committed(T, k), Some(format!("row {k}").as_bytes()));
    }
}
