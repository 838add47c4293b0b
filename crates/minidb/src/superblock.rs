//! The superblock: data-volume page 0, root of all recovery.
//!
//! Rewritten once per checkpoint, strictly *after* that checkpoint's data
//! pages are durable (driver phase barrier), so a prefix-consistent cut
//! always contains a superblock whose whole tree is present.

use crate::checksum::{crc32, crc32_update};
use crate::node::PAGE_SIZE;

const SB_MAGIC: u32 = 0x54_535542; // "TSUB"
const SB_VERSION: u32 = 1;
const CRC_OFFSET: usize = 56;
const FREE_LIST_OFFSET: usize = 64;
/// Maximum free-list entries persisted; extras are leaked (reported).
pub const MAX_FREE_LIST: usize = (PAGE_SIZE - FREE_LIST_OFFSET) / 8;

/// Superblock contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// WAL epoch (increments at every checkpoint).
    pub epoch: u32,
    /// Root page of the B+tree as of the last checkpoint.
    pub root: u64,
    /// Page-id bump-allocator watermark.
    pub next_page: u64,
    /// LSN through which the checkpointed tree is complete.
    pub ckpt_lsn: u64,
    /// Next transaction id to hand out.
    pub next_txid: u64,
    /// Size of the WAL volume in blocks.
    pub wal_blocks: u64,
    /// Reusable page ids.
    pub free_list: Vec<u64>,
}

impl Superblock {
    /// How many bytes of the page image the superblock uses — the fixed
    /// fields and the persisted free list; the rest of the page is zeros.
    pub fn serialized_size(&self) -> usize {
        FREE_LIST_OFFSET + 8 * self.free_list.len().min(MAX_FREE_LIST)
    }

    /// Serialize into a full page image. Free-list entries beyond
    /// [`MAX_FREE_LIST`] are dropped (leaked space, never corruption).
    pub fn serialize(&self) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        let put = |buf: &mut Vec<u8>, at: usize, src: &[u8]| {
            buf.get_mut(at..at + src.len())
                .expect("invariant: superblock layout fits one page")
                .copy_from_slice(src);
        };
        put(&mut buf, 0, &SB_MAGIC.to_le_bytes());
        put(&mut buf, 4, &SB_VERSION.to_le_bytes());
        put(&mut buf, 8, &self.epoch.to_le_bytes());
        let n = self.free_list.len().min(MAX_FREE_LIST) as u32;
        put(&mut buf, 12, &n.to_le_bytes());
        put(&mut buf, 16, &self.root.to_le_bytes());
        put(&mut buf, 24, &self.next_page.to_le_bytes());
        put(&mut buf, 32, &self.ckpt_lsn.to_le_bytes());
        put(&mut buf, 40, &self.next_txid.to_le_bytes());
        put(&mut buf, 48, &self.wal_blocks.to_le_bytes());
        let mut pos = FREE_LIST_OFFSET;
        for &p in self.free_list.iter().take(MAX_FREE_LIST) {
            put(&mut buf, pos, &p.to_le_bytes());
            pos += 8;
        }
        let crc = crc32(&buf);
        put(&mut buf, CRC_OFFSET, &crc.to_le_bytes());
        buf
    }

    /// Parse and verify a superblock image.
    pub fn deserialize(buf: &[u8]) -> Result<Superblock, String> {
        if buf.len() != PAGE_SIZE {
            return Err("superblock: short page".into());
        }
        let stored = u32::from_le_bytes(buf[CRC_OFFSET..CRC_OFFSET + 4].try_into().expect("sized"));
        // The CRC covers the page with its own field zeroed; stream over
        // the surrounding spans instead of building a zeroed copy.
        let st = crc32_update(0xFFFF_FFFF, &buf[..CRC_OFFSET]);
        let st = crc32_update(st, &[0u8; 4]);
        let st = crc32_update(st, &buf[CRC_OFFSET + 4..]);
        if st ^ 0xFFFF_FFFF != stored {
            return Err("superblock: checksum mismatch".into());
        }
        if u32::from_le_bytes(buf[0..4].try_into().expect("sized")) != SB_MAGIC {
            return Err("superblock: bad magic".into());
        }
        let version = u32::from_le_bytes(buf[4..8].try_into().expect("sized"));
        if version != SB_VERSION {
            return Err(format!("superblock: unsupported version {version}"));
        }
        let epoch = u32::from_le_bytes(buf[8..12].try_into().expect("sized"));
        let n = u32::from_le_bytes(buf[12..16].try_into().expect("sized")) as usize;
        if n > MAX_FREE_LIST {
            return Err("superblock: free list overruns page".into());
        }
        let root = u64::from_le_bytes(buf[16..24].try_into().expect("sized"));
        let next_page = u64::from_le_bytes(buf[24..32].try_into().expect("sized"));
        let ckpt_lsn = u64::from_le_bytes(buf[32..40].try_into().expect("sized"));
        let next_txid = u64::from_le_bytes(buf[40..48].try_into().expect("sized"));
        let wal_blocks = u64::from_le_bytes(buf[48..56].try_into().expect("sized"));
        let mut free_list = Vec::with_capacity(n);
        let mut pos = FREE_LIST_OFFSET;
        for _ in 0..n {
            free_list.push(u64::from_le_bytes(
                buf[pos..pos + 8].try_into().expect("sized"),
            ));
            pos += 8;
        }
        Ok(Superblock {
            epoch,
            root,
            next_page,
            ckpt_lsn,
            next_txid,
            wal_blocks,
            free_list,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sb() -> Superblock {
        Superblock {
            epoch: 3,
            root: 17,
            next_page: 120,
            ckpt_lsn: 999,
            next_txid: 55,
            wal_blocks: 256,
            free_list: vec![4, 9, 12],
        }
    }

    #[test]
    fn roundtrip() {
        let s = sb();
        let buf = s.serialize();
        assert_eq!(Superblock::deserialize(&buf).unwrap(), s);
    }

    #[test]
    fn corruption_detected() {
        let mut buf = sb().serialize();
        buf[20] ^= 0xFF;
        assert!(Superblock::deserialize(&buf)
            .unwrap_err()
            .contains("checksum"));
    }

    #[test]
    fn garbage_rejected() {
        assert!(Superblock::deserialize(&vec![0u8; PAGE_SIZE]).is_err());
        assert!(Superblock::deserialize(&[1, 2, 3]).is_err());
    }

    #[test]
    fn free_list_truncated_at_capacity() {
        let mut s = sb();
        s.free_list = (0..MAX_FREE_LIST as u64 + 100).collect();
        let buf = s.serialize();
        let back = Superblock::deserialize(&buf).unwrap();
        assert_eq!(back.free_list.len(), MAX_FREE_LIST);
        assert_eq!(back.free_list[0], 0);
    }
}
