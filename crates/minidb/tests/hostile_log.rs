//! A log record is data off a disk: a decoder may believe what its checksum
//! vouches for only as far as the bytes it has reach. A record whose CRC is
//! correct but whose op count claims four billion operations in a 20-byte
//! payload is malformed like any other — it ends the log. (A decoder that
//! sized a vector from that count asked the allocator for 128 GiB and
//! aborted the process.) The same holds for the superblock's count of
//! log blocks: it sizes every scan and the writer recovery resumes, so a
//! CRC-valid superblock claiming a log the volume cannot hold is refused.

use tsuru_minidb::{
    crc32_update, scan_wal, scan_wal_from, DbConfig, DbVol, IoPlan, MiniDb, RecoveryError,
    Superblock, TableId, WalWriter,
};
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

/// A database of five committed rows, its WAL and data devices.
fn five_rows() -> (MiniDb, MemDevice, MemDevice) {
    let cfg = DbConfig::default();
    let (mut db, format) = MiniDb::create("h", cfg.clone());
    let mut wal = MemDevice::new(cfg.wal_blocks);
    let mut data = MemDevice::new(cfg.data_blocks);
    let mut apply = |plan: IoPlan| {
        for io in plan.phases.into_iter().flatten() {
            match io.vol {
                DbVol::Wal => wal.write_block(io.lba, &io.data),
                DbVol::Data => data.write_block(io.lba, &io.data),
            }
        }
    };
    apply(format);
    for k in 0..5u64 {
        let tx = db.begin();
        db.put(tx, T, k, format!("row {k}").as_bytes());
        apply(db.commit(tx));
    }
    (db, wal, data)
}

#[test]
fn a_checksummed_record_with_a_huge_op_count_ends_the_log() {
    let cfg = DbConfig::default();
    let (db, mut wal, data) = five_rows();
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

/// The five-row database's data volume with its superblock's log length
/// replaced, CRC and all.
fn forge_wal_blocks(data: &MemDevice, wal_blocks: u64) -> MemDevice {
    let mut forged = data.clone();
    let page = data.read_block(0).expect("a superblock");
    let mut sb = Superblock::deserialize(&page).expect("a valid superblock");
    sb.wal_blocks = wal_blocks;
    forged.write_block(0, &sb.serialize());
    forged
}

fn refused_for_wal_blocks(wal_blocks: u64) {
    let (_, wal, data) = five_rows();
    let cfg = DbConfig::default();
    let forged = forge_wal_blocks(&data, wal_blocks);
    match MiniDb::recover("h", &wal, &forged, cfg.clone()) {
        Err(RecoveryError::BadSuperblock(why)) => assert!(why.contains("WAL"), "{why}"),
        Err(other) => panic!("wal_blocks {wal_blocks}: expected BadSuperblock, got {other}"),
        Ok((_, report)) => panic!(
            "wal_blocks {wal_blocks}: opened with {} redo records",
            report.redo_records
        ),
    }
    // The honest superblock still opens the same volumes.
    let (_, report) = MiniDb::recover("h", &wal, &data, cfg).expect("opens");
    assert_eq!(report.redo_records, 5);
}

/// A log longer than the address space: its byte size wrapped (release)
/// or overflowed (debug) where recovery sized its scan.
#[test]
fn a_superblock_claiming_a_log_past_the_address_space_is_refused() {
    refused_for_wal_blocks(u64::MAX);
}

/// A log of no blocks: the scan found nothing and recovery opened the
/// database without its five committed transactions.
#[test]
fn a_superblock_claiming_an_empty_log_is_refused() {
    refused_for_wal_blocks(0);
    refused_for_wal_blocks(1);
}

/// A log longer than its volume: the writer recovery resumes would write
/// past the volume's end.
#[test]
fn a_superblock_claiming_a_log_longer_than_its_volume_is_refused() {
    refused_for_wal_blocks(DbConfig::default().wal_blocks + 1);
}

/// The public scans and the writer take a block count too, and none of
/// them overflows on one: a scan reads no further than its device, and a
/// writer's capacity saturates.
#[test]
fn the_log_scans_and_writer_take_any_block_count() {
    let (db, wal, _) = five_rows();
    let end = db.log_end();
    for wal_blocks in [u64::MAX, u64::MAX / BLOCK_SIZE as u64 + 1, 1 << 40] {
        let scan = scan_wal(&wal, wal_blocks, 1);
        assert_eq!(scan.lsns().collect::<Vec<_>>(), [1, 2, 3, 4, 5]);
        assert_eq!(scan.end, end);
        let on = scan_wal_from(&wal, wal_blocks, 1, end, scan.tail()).expect("a prefix");
        assert!(on.is_empty());
        let writer = WalWriter::resume(wal_blocks, 1, end, scan.tail().to_vec());
        assert!(writer.capacity_bytes() >= end);
    }
    assert_eq!(
        WalWriter::new(u64::MAX, 0).capacity_bytes(),
        usize::MAX,
        "saturates instead of wrapping"
    );
}
