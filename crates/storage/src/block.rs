//! Block-level primitives: identifiers, payload buffers and content hashing.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Size of one logical block, in bytes. Matches the database page size so a
/// page write is exactly one block write, as on the paper's testbed (Oracle
/// 4 KiB blocks on VSP LDEVs).
pub const BLOCK_SIZE: usize = 4096;

/// Identifier of a storage array (one per site in the demonstration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Identifier of a volume within an array (an LDEV number, in Hitachi terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VolumeId(pub u64);

/// A fully qualified volume reference: which array, which volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VolRef {
    /// The owning array.
    pub array: ArrayId,
    /// The volume within that array.
    pub volume: VolumeId,
}

impl VolRef {
    /// Convenience constructor.
    pub fn new(array: ArrayId, volume: VolumeId) -> Self {
        VolRef { array, volume }
    }
}

impl fmt::Display for VolRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}/v{}", self.array.0, self.volume.0)
    }
}

/// Identifier of a journal volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JournalId(pub u32);

/// Identifier of a replication pair (one primary volume + one secondary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairId(pub u32);

/// Identifier of a replication group (the consistency-group unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u32);

/// Identifier of a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SnapshotId(pub u64);

/// The payload of one block write: exactly [`BLOCK_SIZE`] immutable bytes
/// and their fingerprint, in one reference-counted allocation. Clones are
/// a refcount bump, which matters because a block travels host → volume →
/// journal → link → remote journal → secondary volume without copying —
/// and because the buffer can never change, its fingerprint is computed at
/// most once, by whoever asks first (or by the [`BlockWriter`] that minted
/// it), and shared by every clone: a payload fingerprinted at the primary
/// is not hashed again at the journal, the backup volume, a snapshot, a
/// resync copy or any verify. Built only by [`block_from`] and
/// [`BlockWriter::image`], so a short block is unrepresentable.
#[derive(Clone)]
pub struct BlockBuf(Arc<Block>);

struct Block {
    fingerprint: OnceLock<u64>,
    // Every byte from here on is zero (the length `block_from` was given):
    // the search for the extent starts here, not at the block's end.
    written: usize,
    bytes: [u8; BLOCK_SIZE],
}

/// Index after the last non-zero byte of `bytes`: the part of a zero-padded
/// block that was ever written, as far as its content can tell.
fn extent_of(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |last| last + 1)
}

impl BlockBuf {
    /// The block's fingerprint: [`content_hash`] of its *written extent*,
    /// the bytes up to and including the last non-zero one. A pure function
    /// of the 4096 bytes — equal blocks have equal fingerprints however
    /// they were built — that costs what was written, not what was padded.
    /// Computed on first use.
    #[inline]
    pub fn fingerprint(&self) -> u64 {
        *self.0.fingerprint.get_or_init(|| {
            let written = self
                .0
                .bytes
                .get(..self.0.written)
                .expect("invariant: `written` is a length within the block");
            let (extent, _) = written.split_at(extent_of(written));
            content_hash(extent)
        })
    }

    /// A block holding `data` then zeros, carrying `fingerprint` if the
    /// caller already knows it.
    fn padded(data: &[u8], fingerprint: OnceLock<u64>) -> BlockBuf {
        // Padded in place: padding on the stack and moving the array into
        // the `Arc` would copy the block twice.
        let mut block = Arc::new(Block {
            fingerprint,
            written: data.len(),
            bytes: [0u8; BLOCK_SIZE],
        });
        Arc::get_mut(&mut block)
            .expect("invariant: a freshly built Arc has one owner")
            .bytes
            .get_mut(..data.len())
            .expect("invariant: callers pass at most one block of data")
            .copy_from_slice(data);
        BlockBuf(block)
    }
}

impl Deref for BlockBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0.bytes
    }
}

impl PartialEq for BlockBuf {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.bytes == other.0.bytes
    }
}

impl Eq for BlockBuf {}

impl fmt::Debug for BlockBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockBuf({:016x})", self.fingerprint())
    }
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
/// Bytes per stripe: one little-endian word for each of the four lanes.
const STRIPE: usize = 32;

/// One absorption step of [`content_hash`]. `word * P2` is off the lane's
/// dependency chain, so the four lanes' multiplies pipeline; the add keeps
/// a flipped top bit from passing through as a lone bit the next word could
/// cancel.
#[inline]
fn step(state: u64, word: u64) -> u64 {
    state
        .wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// The running state of [`content_hash`]: four lanes that have absorbed
/// some whole stripes of the input. Stripes are absorbed in order and
/// independently of what follows them, so the state after a prefix's whole
/// stripes can be kept and resumed when the input grows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lanes([u64; 4]);

impl Lanes {
    /// No stripe absorbed yet.
    const START: Lanes = Lanes([P1, P2, P3, !P1]);

    /// Absorb the next whole stripes of the input.
    fn absorb(&mut self, stripes: &[u8]) {
        debug_assert_eq!(stripes.len() % STRIPE, 0);
        for stripe in stripes.chunks_exact(STRIPE) {
            for (lane, word) in self.0.iter_mut().zip(stripe.chunks_exact(8)) {
                let word = word
                    .try_into()
                    .expect("invariant: chunks_exact(8) yields 8-byte slices");
                *lane = step(*lane, u64::from_le_bytes(word));
            }
        }
    }

    /// The hash of an input of `len` bytes whose whole stripes were
    /// absorbed and whose last, partial stripe is `remainder`.
    fn digest(mut self, remainder: &[u8], len: usize) -> u64 {
        debug_assert_eq!(remainder.len(), len % STRIPE);
        // Little-endian load of up to eight bytes, zero-extended.
        let le = |bytes: &[u8]| bytes.iter().rev().fold(0u64, |w, &b| (w << 8) | b as u64);
        for (lane, word) in self.0.iter_mut().zip(remainder.chunks(8)) {
            *lane = step(*lane, le(word));
        }
        let mut h = self
            .0
            .iter()
            .fold((len as u64).wrapping_mul(P3), |h, &lane| step(h, lane));
        h = (h ^ (h >> 33)).wrapping_mul(P2);
        h = (h ^ (h >> 29)).wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// 64-bit content fingerprint of a byte slice, eight bytes per step.
///
/// Four independent lanes each absorb one little-endian word of every
/// 32-byte stripe with `lane = rotl(lane + word * P2, 31) * P1` — a
/// bijection of the lane for any word and of the word for any lane, so a
/// one-word change always changes its lane. A tail shorter than a stripe
/// is absorbed word by word, the last word zero-extended. The lanes are
/// folded in order into `len * P3` by the same step, then avalanched.
///
/// Fingerprints are only ever *compared* (ack log, journal entries, pair
/// initial images, `Volume::content_hashes`), never printed, exported or
/// fed into a digest, so no output depends on the definition. Not
/// cryptographic; collisions are irrelevant at the scales simulated
/// (≪ 2^32 samples).
pub fn content_hash(data: &[u8]) -> u64 {
    let (stripes, remainder) = data.split_at(data.len() / STRIPE * STRIPE);
    let mut lanes = Lanes::START;
    lanes.absorb(stripes);
    lanes.digest(remainder, data.len())
}

/// Build a block-sized buffer from a possibly shorter payload, zero-padded.
/// Panics if `data` exceeds [`BLOCK_SIZE`].
pub fn block_from(data: &[u8]) -> BlockBuf {
    assert!(
        data.len() <= BLOCK_SIZE,
        "payload of {} bytes exceeds block size {BLOCK_SIZE}",
        data.len()
    );
    // A whole block — a payload another block was read into — is copied
    // straight into its allocation, with no zeroing first.
    if let Ok(whole) = <&[u8; BLOCK_SIZE]>::try_from(data) {
        return BlockBuf(Arc::new(Block {
            fingerprint: OnceLock::new(),
            written: BLOCK_SIZE,
            bytes: *whole,
        }));
    }
    BlockBuf::padded(data, OnceLock::new())
}

/// The block an append-only byte stream currently ends in — a log's tail.
/// It holds the bytes appended so far and mints the block's zero-padded
/// image whenever asked, each image carrying its fingerprint already.
///
/// The fingerprint covers the written extent, which only grows while bytes
/// are appended, so the whole stripes below it never change once written:
/// the writer keeps the hash state over the stripes it has absorbed and
/// [`BlockWriter::image`] hashes only what was appended since the last
/// image, plus less than a stripe. Absorbing happens nowhere else — a
/// writer that is resumed, appended to and never imaged hashes nothing.
///
/// A tail is re-imaged at every flush, and each image retires once its
/// holders (a volume, a journal entry, a link, a snapshot, the backup) let
/// go. The writer keeps the images it handed out in a ring and mints the
/// next one into one that nothing else holds any more, so a log whose
/// tail images retire as fast as they are minted allocates none. Each
/// sweep gives up after passing two images that are still held, so the
/// ring is bounded by what is in flight, not by a fixed depth.
#[derive(Debug)]
pub struct BlockWriter {
    // The bytes appended so far; at most `BLOCK_SIZE`.
    bytes: Vec<u8>,
    // Hash state over `bytes[..absorbed]`: whole stripes, all of them below
    // the extent at the last image.
    lanes: Lanes,
    absorbed: usize,
    // The images `image()` handed out that may still be held, swept from
    // the front: a clone of each, so an entry nothing else holds is one
    // `Arc::get_mut` can write.
    minted: VecDeque<BlockBuf>,
}

// How many still-held images one `BlockWriter::image` sweeps past
// before it gives up on the ring. In steady state one image retires per
// image minted, and a sweep moves at least two entries per image (or the
// whole ring) while the ring grows by at most one, so it laps the ring
// faster than images retire: a retired image is met within half the
// ring's length in images, then reused or released. With images retiring
// in the order they were minted, the ring settles at what is in flight
// plus about a sixth (a model of the rule: 74 entries for 64 in flight,
// 233 for 200), and a sweep costs a constant however many are in flight.
// A fixed property of the rule, not a knob.
const SHARED_PER_SWEEP: usize = 2;

impl BlockWriter {
    /// An empty block.
    pub fn new() -> Self {
        Self::resume(Vec::new())
    }

    /// A writer that continues a block already holding `bytes`, taking over
    /// their allocation.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds [`BLOCK_SIZE`].
    pub fn resume(bytes: Vec<u8>) -> Self {
        assert!(
            bytes.len() <= BLOCK_SIZE,
            "{} bytes exceed block size {BLOCK_SIZE}",
            bytes.len()
        );
        BlockWriter {
            bytes,
            lanes: Lanes::START,
            absorbed: 0,
            minted: VecDeque::new(),
        }
    }

    /// Append as much of `chunk` as the block has room for; returns how
    /// many bytes were taken (0 once the block is full).
    pub fn append(&mut self, chunk: &[u8]) -> usize {
        let room = BLOCK_SIZE.saturating_sub(self.bytes.len());
        let taken = chunk.get(..room).unwrap_or(chunk);
        // One allocation of one block, however the bytes arrive.
        self.bytes.reserve_exact(room);
        self.bytes.extend_from_slice(taken);
        taken.len()
    }

    /// The bytes appended so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// How many bytes were appended so far; [`BLOCK_SIZE`] when full.
    pub fn filled(&self) -> usize {
        self.bytes.len()
    }

    /// The block as it stands — the appended bytes, zeros after them —
    /// with its fingerprint set: a block that will be imaged again as it
    /// grows. Minted into one of this writer's retired images when the
    /// sweep finds one; a clone stays in the ring until it retires in turn.
    pub fn image(&mut self) -> BlockBuf {
        let fingerprint = self.fingerprint();
        let image = match self.retired() {
            Some(mut image) => {
                let block = Arc::get_mut(&mut image.0)
                    .expect("invariant: the sweep hands out only images nothing else holds");
                let len = self.bytes.len();
                // Every byte past `written` is zero already: only the old
                // image's bytes past the new length need clearing.
                if let Some(stale) = block.bytes.get_mut(len..block.written) {
                    stale.fill(0);
                }
                block
                    .bytes
                    .get_mut(..len)
                    .expect("invariant: a writer holds at most one block")
                    .copy_from_slice(&self.bytes);
                block.written = len;
                block.fingerprint = OnceLock::from(fingerprint);
                image
            }
            None => BlockBuf::padded(&self.bytes, OnceLock::from(fingerprint)),
        };
        self.minted.push_back(image.clone());
        image
    }

    /// The block as it stands, as [`BlockWriter::image`] mints it, and the
    /// writer cleared: a block that is done, whose image outlives any
    /// sweep (a log's full block stays on its volume until the log wraps),
    /// so it is built fresh and never enters the ring.
    pub fn seal(&mut self) -> BlockBuf {
        let fingerprint = self.fingerprint();
        let image = BlockBuf::padded(&self.bytes, OnceLock::from(fingerprint));
        self.clear();
        image
    }

    /// Start over with an empty block, keeping the allocation and the
    /// images in the ring.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.lanes = Lanes::START;
        self.absorbed = 0;
    }

    /// The fingerprint of the block as it stands, absorbing the whole
    /// stripes appended below the extent since the last image.
    fn fingerprint(&mut self) -> u64 {
        let extent = extent_of(&self.bytes);
        let whole = extent / STRIPE * STRIPE;
        let fresh = self
            .bytes
            .get(self.absorbed..whole)
            .expect("invariant: the extent of an append-only block never shrinks");
        self.lanes.absorb(fresh);
        self.absorbed = whole;
        let remainder = self
            .bytes
            .get(whole..extent)
            .expect("invariant: the extent lies within the appended bytes");
        self.lanes.digest(remainder, extent)
    }

    /// Sweep the ring from the front for an image nothing else holds: a
    /// held one rotates to the back, the first free one is taken, any
    /// further free one is released. Stops after `SHARED_PER_SWEEP` held
    /// images or one lap.
    fn retired(&mut self) -> Option<BlockBuf> {
        let mut found = None;
        let mut shared = 0;
        for _ in 0..self.minted.len() {
            if shared == SHARED_PER_SWEEP {
                break;
            }
            let Some(mut image) = self.minted.pop_front() else {
                break;
            };
            if Arc::get_mut(&mut image.0).is_none() {
                shared += 1;
                self.minted.push_back(image);
            } else if found.is_none() {
                found = Some(image);
            }
        }
        found
    }
}

impl Default for BlockWriter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_discriminating() {
        let a = content_hash(b"hello");
        let b = content_hash(b"hello");
        let c = content_hash(b"hellp");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    /// A block with no repeated 8-byte word (a fixed xorshift stream).
    fn pattern_block() -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut out = Vec::with_capacity(BLOCK_SIZE);
        while out.len() < BLOCK_SIZE {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            out.extend_from_slice(&x.to_le_bytes());
        }
        out
    }

    /// Golden vectors (cross-checked against an independent Python
    /// transcription of the definition): a platform or endianness drift,
    /// or an accidental redefinition, fails here loudly.
    #[test]
    fn hash_golden_vectors() {
        assert_eq!(content_hash(b""), 0x593a_fa55_0075_c2b4);
        assert_eq!(
            content_hash(b"tsuru: no impact on business processing"),
            0x071a_7a1a_4836_3b03
        );
        assert_eq!(content_hash(&pattern_block()), 0x4aa9_3e0b_941c_29a1);
    }

    #[test]
    fn hash_sees_every_single_bit_flip() {
        let base = pattern_block();
        let mut seen = std::collections::BTreeSet::from([content_hash(&base)]);
        let mut buf = base.clone();
        for bit in 0..BLOCK_SIZE * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(content_hash(&buf)), "bit {bit} collides");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(buf, base);
        assert_eq!(seen.len(), BLOCK_SIZE * 8 + 1);
    }

    #[test]
    fn hash_sees_reordering_at_word_and_stripe_granularity() {
        let base = pattern_block();
        let h = content_hash(&base);
        // Any two aligned 8-byte words swapped — same lane or not.
        let words = BLOCK_SIZE / 8;
        for i in 0..words {
            for j in i + 1..words {
                let mut b = base.clone();
                for k in 0..8 {
                    b.swap(i * 8 + k, j * 8 + k);
                }
                assert_ne!(content_hash(&b), h, "swap of words {i} and {j} unseen");
            }
        }
        // Any two 32-byte stripes (one word per lane) swapped.
        let stripes = BLOCK_SIZE / 32;
        for i in 0..stripes {
            for j in i + 1..stripes {
                let mut b = base.clone();
                for k in 0..32 {
                    b.swap(i * 32 + k, j * 32 + k);
                }
                assert_ne!(content_hash(&b), h, "swap of stripes {i} and {j} unseen");
            }
        }
    }

    #[test]
    fn hash_sees_length_changes() {
        let base = pattern_block();
        let h = content_hash(&base);
        // Appending zero bytes and truncating both change the fingerprint.
        let mut seen = std::collections::BTreeSet::from([h]);
        let mut longer = base.clone();
        for _ in 0..40 {
            longer.push(0);
            assert!(seen.insert(content_hash(&longer)));
        }
        for cut in 1..=40 {
            assert!(seen.insert(content_hash(&base[..BLOCK_SIZE - cut])));
        }
        // Short inputs — every tail shape — on a fixed pattern and on zeros.
        for fill in [0xA5u8, 0] {
            let src = [fill; 40];
            let short: std::collections::BTreeSet<u64> =
                (0..=40).map(|n| content_hash(&src[..n])).collect();
            assert_eq!(short.len(), 41, "lengths 0..=40 of {fill:#x} collide");
        }
    }

    #[test]
    fn block_from_pads_to_block_size() {
        let b = block_from(b"abc");
        assert_eq!(b.len(), BLOCK_SIZE);
        assert_eq!(&b[..3], b"abc");
        assert!(b[3..].iter().all(|&x| x == 0));
    }

    #[test]
    fn block_from_full_block_is_copied_verbatim() {
        let data = vec![7u8; BLOCK_SIZE];
        let b = block_from(&data);
        assert_eq!(&b[..], &data[..]);
    }

    #[test]
    #[should_panic(expected = "exceeds block size")]
    fn block_from_rejects_oversize() {
        let data = vec![0u8; BLOCK_SIZE + 1];
        let _ = block_from(&data);
    }

    /// Hashing happens in `image()` and nowhere else: a writer that is
    /// resumed and appended to — a follower's — keeps the start state, and
    /// an image absorbs the whole stripes below the extent, once.
    #[test]
    fn block_writer_hashes_only_when_imaged_and_only_below_the_extent() {
        let block = pattern_block();
        for at in [0, 1, 31, 32, 33, 1000, BLOCK_SIZE - 1, BLOCK_SIZE] {
            let mut w = BlockWriter::resume(block[..at].to_vec());
            assert_eq!((w.lanes, w.absorbed), (Lanes::START, 0), "resume at {at}");
            w.append(&block[at..(at + 500).min(BLOCK_SIZE)]);
            w.append(&[0u8; 77]);
            assert_eq!((w.lanes, w.absorbed), (Lanes::START, 0), "append at {at}");
            let extent = (at + 500).min(BLOCK_SIZE);
            let first = w.image();
            assert_eq!(
                w.absorbed,
                extent / STRIPE * STRIPE,
                "zeros are not absorbed"
            );
            let state = w.lanes;
            let again = w.image();
            assert_eq!(w.lanes, state, "nothing new, nothing absorbed");
            assert_eq!(first.fingerprint(), again.fingerprint());
            assert_eq!(first.fingerprint(), content_hash(&block[..extent]));
            w.clear();
            assert_eq!((w.lanes, w.absorbed, w.filled()), (Lanes::START, 0, 0));
        }
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_written_extent() {
        assert_eq!(block_from(b"").fingerprint(), content_hash(b""));
        assert_eq!(block_from(b"abc").fingerprint(), content_hash(b"abc"));
        assert_eq!(block_from(b"abc\0\0").fingerprint(), content_hash(b"abc"));
        assert_eq!(block_from(b"\0abc").fingerprint(), content_hash(b"\0abc"));
        let mut whole = vec![0u8; BLOCK_SIZE];
        whole[..3].copy_from_slice(b"abc");
        assert_eq!(block_from(&whole).fingerprint(), content_hash(b"abc"));
        let full = pattern_block();
        assert_eq!(block_from(&full).fingerprint(), content_hash(&full));
    }

    #[test]
    fn volref_display() {
        let v = VolRef::new(ArrayId(1), VolumeId(42));
        assert_eq!(v.to_string(), "a1/v42");
    }
}
