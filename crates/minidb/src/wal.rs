//! The write-ahead log: redo-only, one record per committed transaction.
//!
//! MiniDB uses a *no-steal* buffer policy (uncommitted changes never reach
//! storage), so the log needs no undo information: each record carries the
//! complete write-set of one committed transaction and recovery simply
//! re-applies records in LSN order. Records are packed into a byte stream
//! laid over the WAL volume's blocks; each record is CRC-protected and
//! tagged with the WAL *epoch*, which increments at every checkpoint so a
//! scanner never confuses a stale pre-checkpoint tail with live log.

use tsuru_storage::{BlockDevice, BlockWriter, BLOCK_SIZE};

use crate::checksum::crc32_update;
use crate::io::{DbVol, IoRequest};

const HEADER_BYTES: usize = 12; // epoch u32 | payload len u32 | crc u32

/// One logged operation: an absolute put or a delete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalOp {
    /// Tree key (table id folded into the high bits by the layer above).
    pub key: u64,
    /// `Some(value)` for a put, `None` for a delete.
    pub value: Option<Vec<u8>>,
}

/// One committed transaction's redo record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number; strictly increasing across the database's life.
    pub lsn: u64,
    /// Transaction id (diagnostic only; redo keys off the LSN).
    pub txid: u64,
    /// The write-set, in operation order.
    pub ops: Vec<WalOp>,
}

impl WalRecord {
    /// Encoded size including the record header.
    pub fn encoded_len(&self) -> usize {
        let mut n = HEADER_BYTES + 8 + 8 + 4;
        for op in &self.ops {
            n += 8 + 1;
            if let Some(v) = &op.value {
                n += 4 + v.len();
            }
        }
        n
    }

    fn encode_payload_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.lsn.to_le_bytes());
        out.extend_from_slice(&self.txid.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            out.extend_from_slice(&op.key.to_le_bytes());
            match &op.value {
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                    out.extend_from_slice(v);
                }
                None => out.push(0),
            }
        }
    }

    fn decode_payload(buf: &[u8]) -> Option<WalRecord> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = buf.get(*pos..pos.checked_add(n)?)?;
            *pos += n;
            Some(s)
        };
        let lsn = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let txid = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let nops = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let mut ops = Vec::with_capacity(nops);
        for _ in 0..nops {
            let key = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let flag = take(&mut pos, 1)?.first().copied()?;
            let value = match flag {
                1 => {
                    let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
                    Some(take(&mut pos, len)?.to_vec())
                }
                0 => None,
                _ => return None,
            };
            ops.push(WalOp { key, value });
        }
        if pos != buf.len() {
            return None; // trailing garbage
        }
        Some(WalRecord { lsn, txid, ops })
    }
}

/// Encode a full record (header + payload) for the given epoch: exactly one
/// allocation, sized by [`WalRecord::encoded_len`].
pub fn encode_record(epoch: u32, rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(rec.encoded_len());
    encode_record_into(epoch, rec, &mut out);
    out
}

/// Append a full record to `out`, reserving exact capacity up front. The
/// CRC streams over the header-prefix and payload spans in place, so no
/// intermediate buffer is built.
pub fn encode_record_into(epoch: u32, rec: &WalRecord, out: &mut Vec<u8>) {
    let total = rec.encoded_len();
    out.reserve(total);
    let start = out.len();
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&((total - HEADER_BYTES) as u32).to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // CRC, backpatched below
    rec.encode_payload_into(out);
    debug_assert_eq!(out.len() - start, total);
    let span = |r: std::ops::Range<usize>| {
        out.get(r).expect("invariant: record bytes were just written")
    };
    let mut st = crc32_update(0xFFFF_FFFF, span(start..start + 8));
    st = crc32_update(st, span(start + HEADER_BYTES..out.len()));
    let crc = st ^ 0xFFFF_FFFF;
    out.get_mut(start + 8..start + HEADER_BYTES)
        .expect("invariant: record bytes were just written")
        .copy_from_slice(&crc.to_le_bytes());
}

/// The in-memory end of the log: the epoch, how far the log reaches, the
/// bytes of the one block it currently ends in, and what of it the driver
/// has not been handed yet. Everything before the last flush is on its way
/// to the volume already and is never needed again, so between flushes the
/// writer holds the blocks that filled since ([`WalWriter::append`] *seals*
/// them) plus one tail block, whatever the size of the WAL volume, and a
/// checkpoint ([`WalWriter::reset`]) clears one block.
#[derive(Debug)]
pub struct WalWriter {
    epoch: u32,
    capacity: usize,
    offset: usize,
    // The block holding byte `offset`, filled up to `offset % BLOCK_SIZE` —
    // so every emitted block carries the earlier records of that block
    // before the new one and zeros after it, and is fingerprinted for the
    // bytes that joined it since its last image, not from its start.
    tail: BlockWriter,
    // Encode scratch, reused across appends (capacity persists over epoch
    // resets): steady-state appends allocate nothing for encoding.
    scratch: Vec<u8>,
    // Blocks that filled since the last flush, in log order.
    sealed: Vec<IoRequest>,
    // How far the log reached at the last flush: the tail block needs an
    // image only if it holds bytes past this point.
    flushed: usize,
}

impl WalWriter {
    /// A writer over a WAL volume of `wal_blocks` blocks, starting at the
    /// given epoch with an empty log.
    pub fn new(wal_blocks: u64, epoch: u32) -> Self {
        Self::resume(wal_blocks, epoch, 0, Vec::new())
    }

    /// A writer that continues the log a scan found ([`scan_wal`]): `end`
    /// is where the valid log stops and `tail` the bytes of the block it
    /// stops in, up to `end`. Because every record a scan accepts re-encodes
    /// to the bytes it was decoded from, this writer emits exactly what one
    /// that had appended the scanned records itself would emit.
    ///
    /// # Panics
    /// Panics if `tail` is not the `end % BLOCK_SIZE` bytes before `end` or
    /// `end` lies beyond the volume.
    pub fn resume(wal_blocks: u64, epoch: u32, end: usize, tail: Vec<u8>) -> Self {
        let capacity = wal_blocks as usize * BLOCK_SIZE;
        assert!(
            end <= capacity && tail.len() == end % BLOCK_SIZE,
            "a {}-byte tail does not end a {end}-byte log on a {capacity}-byte WAL volume",
            tail.len()
        );
        WalWriter {
            epoch,
            capacity,
            offset: end,
            tail: BlockWriter::resume(tail),
            scratch: Vec::new(),
            sealed: Vec::new(),
            flushed: end,
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Bytes already used in this epoch.
    pub fn used_bytes(&self) -> usize {
        self.offset
    }

    /// Total byte capacity of the WAL volume.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Where the log ends and the bytes of the block it ends in up to
    /// there — what [`scan_wal_from`] continues from and what
    /// [`WalWriter::resume`] was given.
    pub fn log_end(&self) -> (usize, &[u8]) {
        (self.offset, self.tail.bytes())
    }

    /// Would this record fit in the remaining space?
    pub fn fits(&self, rec: &WalRecord) -> bool {
        self.offset + rec.encoded_len() <= self.capacity
    }

    /// Append a record to the in-memory end of the log. Nothing is handed to
    /// the driver here: a block the record fills is sealed, the block the
    /// log now ends in is imaged by the next [`WalWriter::flush`] — once,
    /// however many records joined it since the last one.
    ///
    /// # Panics
    /// Panics if the record does not fit — callers must checkpoint first
    /// (see [`WalWriter::fits`]).
    pub fn append(&mut self, rec: &WalRecord) {
        assert!(
            self.fits(rec),
            "WAL record of {} bytes does not fit ({} of {} used)",
            rec.encoded_len(),
            self.offset,
            self.capacity
        );
        self.scratch.clear();
        encode_record_into(self.epoch, rec, &mut self.scratch);
        let mut rest = self.scratch.as_slice();
        while !rest.is_empty() {
            let taken = self.tail.append(rest);
            self.offset += taken;
            if self.tail.filled() == BLOCK_SIZE {
                // The block is full: the log ends in the next one.
                self.sealed.push(IoRequest {
                    vol: DbVol::Wal,
                    lba: (self.offset / BLOCK_SIZE - 1) as u64,
                    data: self.tail.image(),
                });
                self.tail.clear();
            }
            rest = rest
                .get(taken..)
                .expect("invariant: a block takes no more than it was offered");
        }
    }

    /// The block writes (every block touched since the last flush, whole,
    /// in log order) the driver must perform to make everything appended so
    /// far durable. Empty when nothing was appended since.
    pub fn flush(&mut self) -> Vec<IoRequest> {
        let mut ios = std::mem::take(&mut self.sealed);
        if self.offset > self.flushed && self.offset % BLOCK_SIZE != 0 {
            ios.push(IoRequest {
                vol: DbVol::Wal,
                lba: (self.offset / BLOCK_SIZE) as u64,
                data: self.tail.image(),
            });
        }
        self.flushed = self.offset;
        ios
    }

    /// Start a fresh epoch (after a checkpoint): the log restarts at block
    /// zero and old blocks are logically invalidated by the epoch bump.
    /// Whatever was appended but not flushed is dropped — the checkpoint
    /// that calls this covers it.
    pub fn reset(&mut self, new_epoch: u32) {
        assert!(new_epoch > self.epoch, "epoch must increase");
        self.epoch = new_epoch;
        self.offset = 0;
        self.flushed = 0;
        self.sealed.clear();
        self.tail.clear();
    }
}

/// What a scan of the WAL volume found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every valid record of the epoch the scan passed, in log order (a
    /// continued scan starts after the records its predecessor found).
    pub records: Vec<WalRecord>,
    /// Byte offset at which the valid log ends.
    pub end: usize,
    /// The bytes of the block the log ends in, up to `end` (so
    /// `end % BLOCK_SIZE` of them). Whatever follows on the volume — a torn
    /// record, stale bytes of an earlier epoch — is not part of the log and
    /// is not carried over.
    pub tail: Vec<u8>,
}

/// The bytes of the WAL volume from a block-aligned `base` on, read block by
/// block as the scan asks for them (an absent block reads as zeros, which
/// terminate the scan at the length field).
struct LogWindow<'d> {
    dev: &'d dyn BlockDevice,
    base: usize,
    bytes: Vec<u8>,
}

impl LogWindow<'_> {
    /// Volume bytes `from..to` (`from >= base`), reading the blocks up to
    /// `to` that are not in the window yet.
    fn span(&mut self, from: usize, to: usize) -> &[u8] {
        while self.base + self.bytes.len() < to {
            let loaded = self.bytes.len() + BLOCK_SIZE;
            let lba = (self.base + self.bytes.len()) / BLOCK_SIZE;
            if let Some(block) = self.dev.read_block(lba as u64) {
                self.bytes.extend_from_slice(&block);
            }
            self.bytes.resize(loaded, 0);
        }
        self.bytes
            .get(from - self.base..to - self.base)
            .expect("invariant: the window was just extended to cover `to`")
    }

    /// Forget the whole blocks before `pos`: the scan never looks back.
    fn advance_to(&mut self, pos: usize) {
        let done = (pos - self.base) / BLOCK_SIZE * BLOCK_SIZE;
        self.bytes.drain(..done);
        self.base += done;
    }
}

fn le_u32(header: &[u8], at: usize) -> u32 {
    let word = header.get(at..at + 4).and_then(|w| w.try_into().ok());
    u32::from_le_bytes(word.expect("invariant: callers pass a whole record header"))
}

/// Scan a WAL volume for epoch `epoch`. Stops at the first record that is
/// absent, torn (CRC), from a different epoch, or structurally invalid —
/// everything after a damaged record is unreachable, exactly as in a
/// production redo scan. Blocks are read on demand, each at most once and
/// only as far as the record being checked reaches: a scan costs what the
/// live log holds, not what the volume could hold.
pub fn scan_wal(dev: &dyn BlockDevice, wal_blocks: u64, epoch: u32) -> WalScan {
    scan_wal_from(dev, wal_blocks, epoch, 0, &[])
        .expect("invariant: an empty log is a prefix of every volume")
}

/// Continue a scan where an earlier one stopped: `end` and `tail` are the
/// earlier [`WalScan`]'s. The parse runs left to right and a record's
/// verdict depends only on its own bytes, so if the volume still holds the
/// log up to `end`, scanning on from there finds exactly what a scan from
/// block zero would find after its first `end` bytes — the records that
/// landed since, each decoded once. Whole blocks before the one `end` lies
/// in are the caller's to vouch for; the bytes of that block before `end`
/// are compared here, and `None` says they changed: the earlier scan is no
/// prefix of this volume and the caller must scan from the start.
pub fn scan_wal_from(
    dev: &dyn BlockDevice,
    wal_blocks: u64,
    epoch: u32,
    end: usize,
    tail: &[u8],
) -> Option<WalScan> {
    let capacity = wal_blocks as usize * BLOCK_SIZE;
    // The window reads whole blocks: a tail that does not start one is
    // not a scan's tail.
    let base = end.checked_sub(tail.len()).filter(|b| b % BLOCK_SIZE == 0)?;
    let mut window = LogWindow {
        dev,
        base,
        bytes: Vec::new(),
    };
    if window.span(base, end) != tail {
        return None;
    }
    let mut records = Vec::new();
    let mut pos = end;
    while pos + HEADER_BYTES <= capacity {
        let header = window.span(pos, pos + HEADER_BYTES);
        let rec_epoch = le_u32(header, 0);
        let len = le_u32(header, 4) as usize;
        let crc = le_u32(header, 8);
        let next = pos + HEADER_BYTES + len;
        if rec_epoch != epoch || len == 0 || next > capacity {
            break;
        }
        // The CRC covers epoch + length and the payload, not its own field.
        let (header, payload) = window.span(pos, next).split_at(HEADER_BYTES);
        let (covered, _) = header.split_at(8);
        let st = crc32_update(crc32_update(0xFFFF_FFFF, covered), payload);
        if st ^ 0xFFFF_FFFF != crc {
            break;
        }
        match WalRecord::decode_payload(payload) {
            Some(rec) => records.push(rec),
            None => break,
        }
        pos = next;
        window.advance_to(pos);
    }
    // The window starts at the block `pos` lies in: cut at `pos`, it is the tail.
    let mut tail = window.bytes;
    tail.truncate(pos - window.base);
    Some(WalScan {
        records,
        end: pos,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsuru_storage::{BlockDeviceMut, MemDevice};

    fn rec(lsn: u64, nops: usize) -> WalRecord {
        WalRecord {
            lsn,
            txid: lsn * 10,
            ops: (0..nops as u64)
                .map(|i| WalOp {
                    key: i,
                    value: if i % 3 == 2 {
                        None
                    } else {
                        Some(vec![i as u8; (i as usize % 50) + 1])
                    },
                })
                .collect(),
        }
    }

    /// A group of one: append, then flush.
    fn append(w: &mut WalWriter, rec: &WalRecord) -> Vec<IoRequest> {
        w.append(rec);
        w.flush()
    }

    fn apply(dev: &mut MemDevice, ios: &[IoRequest]) {
        for io in ios {
            assert_eq!(io.vol, DbVol::Wal);
            dev.write_block(io.lba, &io.data);
        }
    }

    #[test]
    fn encode_len_matches() {
        for r in [rec(1, 0), rec(2, 1), rec(3, 7)] {
            assert_eq!(encode_record(5, &r).len(), r.encoded_len());
        }
    }

    #[test]
    fn roundtrip_through_device() {
        let mut w = WalWriter::new(16, 1);
        let mut dev = MemDevice::new(16);
        let records: Vec<_> = (1..=20).map(|i| rec(i, (i % 5) as usize)).collect();
        for r in &records {
            assert!(w.fits(r));
            let ios = append(&mut w, r);
            assert!(!ios.is_empty());
            apply(&mut dev, &ios);
        }
        let scanned = scan_wal(&dev, 16, 1).records;
        assert_eq!(scanned, records);
    }

    #[test]
    fn scan_with_wrong_epoch_finds_nothing() {
        let mut w = WalWriter::new(4, 3);
        let mut dev = MemDevice::new(4);
        apply(&mut dev, &append(&mut w, &rec(1, 2)));
        assert!(scan_wal(&dev, 4, 4).records.is_empty());
        assert_eq!(scan_wal(&dev, 4, 3).records.len(), 1);
    }

    #[test]
    fn torn_tail_stops_the_scan_cleanly() {
        let mut w = WalWriter::new(8, 1);
        let mut dev = MemDevice::new(8);
        apply(&mut dev, &append(&mut w, &rec(1, 3)));
        apply(&mut dev, &append(&mut w, &rec(2, 3)));
        // Third record's blocks never reach the device (lost tail).
        let _ = append(&mut w, &rec(3, 3));
        let scanned = scan_wal(&dev, 8, 1).records;
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[1].lsn, 2);
    }

    #[test]
    fn corrupted_record_stops_the_scan() {
        let mut w = WalWriter::new(8, 1);
        let mut dev = MemDevice::new(8);
        apply(&mut dev, &append(&mut w, &rec(1, 1)));
        apply(&mut dev, &append(&mut w, &rec(2, 1)));
        apply(&mut dev, &append(&mut w, &rec(3, 1)));
        // Flip one byte in the middle record's payload region.
        dev.corrupt(0, rec(1, 1).encoded_len() + HEADER_BYTES + 3);
        let scanned = scan_wal(&dev, 8, 1).records;
        assert_eq!(scanned.len(), 1, "scan must stop at the damaged record");
    }

    #[test]
    fn records_span_block_boundaries() {
        let mut w = WalWriter::new(8, 1);
        let mut dev = MemDevice::new(8);
        // A record with a large value crosses at least one block boundary.
        let big = WalRecord {
            lsn: 1,
            txid: 1,
            ops: vec![WalOp {
                key: 42,
                value: Some(vec![7u8; 6000]),
            }],
        };
        let ios = append(&mut w, &big);
        assert!(ios.len() >= 2, "6 KB record must span blocks");
        apply(&mut dev, &ios);
        let scanned = scan_wal(&dev, 8, 1).records;
        assert_eq!(scanned, vec![big]);
    }

    #[test]
    fn tail_block_is_rewritten_as_it_fills() {
        let mut w = WalWriter::new(8, 1);
        let ios1 = append(&mut w, &rec(1, 1));
        let ios2 = append(&mut w, &rec(2, 1));
        // Both small records live in block 0: the block is rewritten.
        assert_eq!(ios1.len(), 1);
        assert_eq!(ios2.len(), 1);
        assert_eq!(ios1[0].lba, 0);
        assert_eq!(ios2[0].lba, 0);
        assert_ne!(ios1[0].data, ios2[0].data);
    }

    #[test]
    fn reset_starts_a_new_epoch_at_block_zero() {
        let mut w = WalWriter::new(8, 1);
        let mut dev = MemDevice::new(8);
        apply(&mut dev, &append(&mut w, &rec(1, 2)));
        apply(&mut dev, &append(&mut w, &rec(2, 2)));
        w.reset(2);
        assert_eq!(w.used_bytes(), 0);
        apply(&mut dev, &append(&mut w, &rec(10, 1)));
        // Epoch-2 scan sees only the new record; epoch-1 history is dead.
        let scanned = scan_wal(&dev, 8, 2).records;
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].lsn, 10);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn overflow_panics() {
        let mut w = WalWriter::new(1, 1);
        let big = WalRecord {
            lsn: 1,
            txid: 1,
            ops: vec![WalOp {
                key: 1,
                value: Some(vec![0u8; 5000]),
            }],
        };
        let _ = append(&mut w, &big);
    }

    #[test]
    fn fits_is_exact_at_the_boundary() {
        let mut w = WalWriter::new(1, 1);
        // Fill to exactly capacity with a crafted value size.
        let overhead = rec(1, 0).encoded_len(); // header + lsn + txid + nops
        let val_len = BLOCK_SIZE - overhead - 8 - 1 - 4;
        let exact = WalRecord {
            lsn: 1,
            txid: 1,
            ops: vec![WalOp {
                key: 1,
                value: Some(vec![0u8; val_len]),
            }],
        };
        assert_eq!(exact.encoded_len(), BLOCK_SIZE);
        assert!(w.fits(&exact));
        let _ = append(&mut w, &exact);
        assert!(!w.fits(&rec(2, 0)));
    }
}
