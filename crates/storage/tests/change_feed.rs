//! The array's change feed: free where nobody watches, exact where
//! somebody does.
//!
//! - A write to an unwatched volume — every write of every world that
//!   follows no image — pays one branch: in steady state `write_block` and
//!   the boundary mark that follows it allocate nothing.
//! - A watched volume's feed is complete: replayed onto a copy of what the
//!   volume held when the watch began, it reproduces the volume byte for
//!   byte at every boundary, whatever mix of data-path writes, wipes,
//!   initial copies, snapshots and neighbours' traffic produced it.
//!
//! Own integration-test binary: the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use tsuru_sim::{DetRng, SimTime};
use tsuru_storage::{
    block_from, ArrayId, ArrayPerf, BlockBuf, FeedEntry, StorageArray, Volume, VolumeId,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Per-thread gate: libtest's own threads allocate on their own schedule.
    static TRACK: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: pure pass-through to the system allocator; the count is the only
// added behaviour and does not affect the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: sound iff the system allocator is — we only count and forward.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = TRACK.try_with(|t| {
            if t.get() {
                ALLOCS.fetch_add(1, Ordering::Relaxed);
            }
        });
        // SAFETY: caller upholds GlobalAlloc's contract; forwarded as-is.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: sound iff the system allocator is — pure forwarding.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above for this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn array() -> StorageArray {
    StorageArray::new(ArrayId(0), "a", ArrayPerf::default())
}

fn blocks(n: u64) -> Vec<BlockBuf> {
    (0..n).map(|i| block_from(&i.to_le_bytes())).collect()
}

#[test]
fn an_unwatched_worlds_write_block_allocates_nothing() {
    let mut a = array();
    let v = a.create_volume("v", 1 << 20);
    let payloads = blocks(64);
    // Warm-up: the working set's index pages and arena slots exist.
    for (lba, b) in (0u64..).zip(&payloads) {
        a.write_block(v, lba * 700, b.clone());
    }
    a.end_boundary(Some(SimTime::ZERO));

    TRACK.with(|t| t.set(true));
    for round in 0..1_000u64 {
        for (lba, b) in (0u64..).zip(&payloads) {
            a.write_block(v, ((lba + round) % 64) * 700, b.clone());
            a.end_boundary(Some(SimTime::from_nanos(round)));
        }
    }
    TRACK.with(|t| t.set(false));

    assert_eq!(ALLOCS.load(Ordering::Relaxed), 0, "64 000 overwrites, unwatched");
    assert_eq!(a.drain_feed().count(), 0, "nobody watches, nothing is fed");
}

/// Apply one volume's entries of a feed to `copy`; true at a boundary.
fn replay(copy: &mut Volume, entry: FeedEntry) -> bool {
    match entry {
        FeedEntry::Write { vol, lba, data } if vol == copy.id() => drop(copy.write(lba, data)),
        FeedEntry::Wipe { vol } if vol == copy.id() => copy.wipe(),
        FeedEntry::Boundary { .. } => return true,
        _ => {}
    }
    false
}

fn bytes_of(v: &Volume) -> Vec<(u64, Vec<u8>)> {
    v.iter_blocks().map(|(lba, b)| (lba, b.to_vec())).collect()
}

#[test]
fn a_watched_volumes_feed_replays_to_a_byte_identical_volume() {
    for seed in 0..8u64 {
        let mut rng = DetRng::new(seed);
        let mut a = array();
        let vols: Vec<VolumeId> = (0..3).map(|i| a.create_volume(format!("v{i}"), 256)).collect();
        // History from before the watch is in the copy, not in the feed.
        for lba in 0..40 {
            a.write_block(vols[0], lba, block_from(&[seed as u8, lba as u8]));
        }
        let watched = vols[0];
        a.watch(watched);
        let mut copy = Volume::new(watched, "copy", 256);
        copy.clone_content_from(a.volume(watched));

        let (mut boundaries, mut payload) = (0u32, 0u64);
        for step in 0..600u64 {
            let vol = vols[rng.gen_range(3) as usize];
            payload += 1;
            match rng.gen_range(40) {
                0 => a.wipe_volume(vol),
                1 => {
                    let content = (0..rng.gen_range(30))
                        .map(|i| (i * 3, block_from(&(payload + i).to_le_bytes())))
                        .collect();
                    a.replace_content(vol, content);
                }
                2 => drop(a.create_snapshot(vol, format!("s{step}"), SimTime::from_nanos(step))),
                _ => drop(a.write_block(vol, rng.gen_range(256), block_from(&payload.to_le_bytes()))),
            }
            // Some steps span several mutations.
            if rng.gen_range(3) != 0 {
                a.end_boundary((step % 2 == 0).then(|| SimTime::from_nanos(step)));
            }
            // Drains fall anywhere, mid-step too; the replay must not care.
            if rng.gen_range(5) == 0 {
                for e in a.drain_feed() {
                    boundaries += u32::from(replay(&mut copy, e));
                }
                assert_eq!(bytes_of(&copy), bytes_of(a.volume(watched)), "seed {seed} step {step}");
                assert_eq!(copy.content_hashes(), a.volume(watched).content_hashes());
            }
        }
        assert!(boundaries > 50, "seed {seed}: {boundaries} boundaries seen");
        // Unwatched neighbours never reach the feed.
        a.drain_feed();
        a.write_block(vols[1], 0, block_from(b"x"));
        a.end_boundary(None);
        assert_eq!(a.drain_feed().count(), 0);
    }
}
