//! The block writer vs a block built from scratch.
//!
//! `BlockWriter` keeps a hash state across the images it mints
//! (DESIGN.md §23): whatever was appended, in whatever pieces, with images
//! taken wherever, its image must be the block `block_from` builds from the
//! same bytes — byte for byte and in fingerprint — and that fingerprint
//! must be the definition computed from nothing but the bytes
//! ([`reference_fingerprint`]).
//!
//! Mutation checks (done by hand when this test was written, each on
//! `crates/storage/src/block.rs`, then undone):
//!
//! - *absorb stripes past the extent* (`image()` absorbs up to the last
//!   whole stripe of the appended bytes instead of the extent's): fails
//!   all three tests here that take an image, the unit test
//!   `block_writer_hashes_only_when_imaged_and_only_below_the_extent`, and
//!   both tests of `minidb/tests/wal_images.rs`;
//! - *forget to reset the lane state in `clear`* (or, separately, the
//!   absorbed count): fails `images_equal_blocks_built_from_scratch` in its
//!   first case, the unit test, and both tests of `wal_images.rs` (the
//!   block after the first sealed one continues the sealed one's hash);
//! - *`len` instead of `extent` in `digest`* (the appended length where the
//!   extent belongs): fails the same three tests here on the first
//!   zero-suffixed image, and both tests of `wal_images.rs`.

//!
//! The writer also mints each image into a retired one of its own
//! (DESIGN.md §23), so the re-mint oracle adds holders that keep or let
//! go of images: every image still equals `block_from` of the writer's
//! bytes, and every image still held keeps the bytes and fingerprint it
//! was minted with. Mutation check (by hand, then undone): *skip zeroing
//! the old image's bytes past the new length* fails
//! `re_minted_images_are_fresh_ones_and_held_ones_never_change`,
//! `a_shorter_image_minted_into_a_longer_one_is_zero_padded` and
//! `images_equal_blocks_built_from_scratch`, each in its first case.

use proptest::prelude::*;
use tsuru_storage::{block_from, content_hash, BlockBuf, BlockWriter, BLOCK_SIZE};

/// The fingerprint's definition, from the bytes alone: `content_hash` of
/// the block up to and including its last non-zero byte.
fn reference_fingerprint(block: &[u8]) -> u64 {
    let extent = block.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1);
    content_hash(&block[..extent])
}

/// `image` is the block that holds `bytes` and zeros after them, carrying
/// the fingerprint a from-scratch build of it carries.
fn check_image(image: &BlockBuf, bytes: &[u8]) -> Result<(), String> {
    let scratch = block_from(bytes);
    prop_assert_eq!(&image[..], &scratch[..]);
    prop_assert_eq!(image.fingerprint(), reference_fingerprint(&scratch));
    prop_assert_eq!(scratch.fingerprint(), reference_fingerprint(&scratch));
    prop_assert_eq!(image.clone().fingerprint(), image.fingerprint());
    Ok(())
}

#[derive(Debug, Clone)]
enum Step {
    Append(Vec<u8>),
    Image,
    Clear,
    /// Drop the writer, continue from its bytes in a new one.
    Resume,
}

/// Chunks of every shape the lazy absorb has to get right: empty, all
/// zeros, zero-suffixed, a few bytes (so stripes are straddled), and more
/// than a block holds.
fn chunk_strategy() -> impl Strategy<Value = Vec<u8>> {
    let bytes = |len| prop::collection::vec(any::<u8>(), len);
    prop_oneof![
        1 => Just(Vec::new()),
        3 => (1usize..200).prop_map(|n| vec![0u8; n]),
        4 => (bytes(1..120usize), 0usize..100).prop_map(|(mut head, zeros)| {
            head.resize(head.len() + zeros, 0);
            head
        }),
        8 => bytes(1..70usize),
        2 => bytes(200..1500usize),
        1 => bytes(BLOCK_SIZE - 40..BLOCK_SIZE + 900),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        10 => chunk_strategy().prop_map(Step::Append),
        6 => Just(Step::Image),
        1 => Just(Step::Clear),
        1 => Just(Step::Resume),
    ]
}

/// Run one script against the model: the bytes appended so far.
fn check_script(steps: &[Step]) -> Result<(), String> {
    let mut writer = BlockWriter::new();
    let mut model: Vec<u8> = Vec::new();
    for step in steps {
        match step {
            Step::Append(chunk) => {
                let room = BLOCK_SIZE - model.len();
                let taken = writer.append(chunk);
                prop_assert_eq!(taken, chunk.len().min(room));
                model.extend_from_slice(&chunk[..taken]);
            }
            Step::Image => check_image(&writer.image(), &model)?,
            Step::Clear => {
                writer.clear();
                model.clear();
            }
            Step::Resume => writer = BlockWriter::resume(writer.bytes().to_vec()),
        }
        prop_assert_eq!(writer.bytes(), &model[..]);
        prop_assert_eq!(writer.filled(), model.len());
    }
    check_image(&writer.image(), &model)?;
    // Imaging is idempotent.
    check_image(&writer.image(), &model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn images_equal_blocks_built_from_scratch(
        steps in prop::collection::vec(step_strategy(), 1..80),
    ) {
        check_script(&steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// The same property at CI's bounds (release, `--include-ignored`).
    #[test]
    #[ignore = "a minute unoptimized; CI runs it in release"]
    fn images_equal_blocks_built_from_scratch_full_bounds(
        steps in prop::collection::vec(step_strategy(), 1..200),
    ) {
        check_script(&steps)?;
    }
}

/// A block with zero runs of every alignment inside it and a zero run at
/// its end.
fn holey_block() -> Vec<u8> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..BLOCK_SIZE)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Runs of 1–64 zeros, periodically, and the last 100 bytes.
            if i % 157 < i / 64 || i >= BLOCK_SIZE - 100 {
                0
            } else {
                (x as u8) | 1
            }
        })
        .collect()
}

#[test]
fn resumed_at_every_prefix_and_imaged_along_the_way() {
    let block = holey_block();
    for at in 0..=BLOCK_SIZE {
        let mut writer = BlockWriter::resume(block[..at].to_vec());
        // Some prefixes are imaged before they grow, some are not.
        if at % 3 != 0 {
            check_image(&writer.image(), &block[..at]).unwrap();
        }
        let mid = at + (BLOCK_SIZE - at) / 2;
        assert_eq!(writer.append(&block[at..mid]), mid - at);
        if at % 2 == 0 {
            check_image(&writer.image(), &block[..mid]).unwrap();
        }
        assert_eq!(writer.append(&block[mid..]), BLOCK_SIZE - mid);
        check_image(&writer.image(), &block).unwrap();
        assert_eq!(writer.append(b"no room"), 0);
        check_image(&writer.image(), &block).unwrap();
    }
}

#[test]
#[should_panic(expected = "exceed block size")]
fn resume_rejects_more_than_a_block() {
    let _ = BlockWriter::resume(vec![0u8; BLOCK_SIZE + 1]);
}

/// The extent, not the construction, decides: what differs in a trailing
/// non-zero byte, or only in where the last non-zero byte sits, differs in
/// fingerprint; what differs only in how many zeros were appended does not.
#[test]
fn fingerprints_tell_trailing_bytes_and_their_position_apart() {
    let mut seen = std::collections::BTreeSet::new();
    // "x" then `gap` zeros then one non-zero byte: every position of the
    // last non-zero byte, across word, stripe and block ends.
    for gap in 0..BLOCK_SIZE - 1 {
        let mut bytes = vec![0u8; gap + 2];
        bytes[0] = b'x';
        bytes[gap + 1] = 1;
        let block = block_from(&bytes);
        assert_eq!(block.fingerprint(), reference_fingerprint(&block));
        assert!(seen.insert(block.fingerprint()), "position {gap} collides");
    }
    // The same position, another trailing byte.
    for last in 2..=255u8 {
        let mut bytes = vec![0u8; 100];
        bytes[0] = b'x';
        bytes[99] = last;
        assert!(seen.insert(block_from(&bytes).fingerprint()), "byte {last} collides");
    }
    // Zeros appended after the last non-zero byte are padding, however they
    // got there.
    let plain = block_from(b"x");
    assert!(seen.insert(plain.fingerprint()));
    let mut writer = BlockWriter::new();
    writer.append(b"x");
    for zeros in [1, 7, 24, 31, 32, 33, 1000] {
        writer.append(&vec![0u8; zeros]);
        assert_eq!(writer.image().fingerprint(), plain.fingerprint());
        assert_eq!(block_from(&[&b"x"[..], &vec![0u8; zeros]].concat()), plain);
    }
    // An empty block and an all-zero one are the same block.
    assert_eq!(BlockWriter::new().image().fingerprint(), content_hash(b""));
    assert_eq!(block_from(&[0u8; BLOCK_SIZE]).fingerprint(), content_hash(b""));
}

/// What the re-mint oracle does next: the writer's own calls, plus holders
/// that keep an image (a volume, a journal, a snapshot) or let one go.
#[derive(Debug, Clone)]
enum Hold {
    Append(Vec<u8>),
    /// Take an image; keep it if `true`, else drop it at once.
    Image(bool),
    /// Take a sealed image (the writer clears); keep it if `true`.
    Seal(bool),
    Clear,
    /// Let go of the held image at this index (modulo how many are held).
    Release(usize),
}

fn hold_strategy() -> impl Strategy<Value = Hold> {
    prop_oneof![
        8 => chunk_strategy().prop_map(Hold::Append),
        6 => any::<bool>().prop_map(Hold::Image),
        1 => any::<bool>().prop_map(Hold::Seal),
        2 => Just(Hold::Clear),
        5 => any::<usize>().prop_map(Hold::Release),
    ]
}

/// An image a holder keeps, with its bytes and fingerprint as minted.
struct Held {
    image: BlockBuf,
    bytes: Vec<u8>,
    fingerprint: u64,
}

/// Check a new image against the writer's bytes, and keep it if asked.
fn minted(held: &mut Vec<Held>, image: BlockBuf, bytes: &[u8], keep: bool) -> Result<(), String> {
    check_image(&image, bytes)?;
    if keep {
        held.push(Held {
            bytes: image.to_vec(),
            fingerprint: image.fingerprint(),
            image,
        });
    }
    Ok(())
}

/// Every image — minted into a retired one or fresh — is the block of the
/// writer's bytes, and no image anyone still holds ever changes.
fn check_holders(steps: &[Hold]) -> Result<(), String> {
    let mut writer = BlockWriter::new();
    let mut held: Vec<Held> = Vec::new();
    for step in steps {
        match step {
            Hold::Append(chunk) => {
                writer.append(chunk);
            }
            Hold::Image(keep) => {
                let image = writer.image();
                minted(&mut held, image, writer.bytes(), *keep)?;
            }
            Hold::Seal(keep) => {
                let bytes = writer.bytes().to_vec();
                let image = writer.seal();
                prop_assert_eq!(writer.filled(), 0);
                minted(&mut held, image, &bytes, *keep)?;
            }
            Hold::Clear => writer.clear(),
            Hold::Release(at) => {
                if !held.is_empty() {
                    held.swap_remove(at % held.len());
                }
            }
        }
        for h in &held {
            prop_assert_eq!(&h.image[..], &h.bytes[..]);
            prop_assert_eq!(h.image.fingerprint(), h.fingerprint);
        }
    }
    let image = writer.image();
    check_image(&image, writer.bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn re_minted_images_are_fresh_ones_and_held_ones_never_change(
        steps in prop::collection::vec(hold_strategy(), 1..120),
    ) {
        check_holders(&steps)?;
    }
}

/// The tail of a log that outgrows its images: a long block imaged and
/// let go, then a short one imaged into the same allocation, whose bytes
/// past the short length must read as zeros again.
#[test]
fn a_shorter_image_minted_into_a_longer_one_is_zero_padded() {
    let block = holey_block();
    let mut writer = BlockWriter::resume(block[..3000].to_vec());
    let long = writer.image();
    let at = long.as_ptr();
    drop(long);
    writer.clear();
    writer.append(&block[..10]);
    let short = writer.image();
    assert_eq!(short.as_ptr(), at, "minted into the retired image");
    check_image(&short, &block[..10]).unwrap();
}
