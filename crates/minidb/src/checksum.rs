//! CRC-32 (IEEE 802.3 polynomial), table-driven, eight bytes per step.
//!
//! Used on every database page and WAL record so that recovery can detect
//! torn or corrupted blocks — the mechanism by which a database notices
//! that its backup image violates write-order fidelity.
//!
//! The update is *slice-by-8*: `TABLES[0]` is the classic byte table of the
//! reflected polynomial, and `TABLES[k][b]` is the CRC state after feeding
//! byte `b` followed by `k` zero bytes. XOR-ing the state into the low half
//! of an 8-byte little-endian word and looking byte `j` of the result up in
//! `TABLES[7 - j]` therefore advances the state by the whole word with
//! eight independent lookups instead of eight dependent ones. Same values
//! as the byte-at-a-time definition (the tests keep that as the reference).

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

static TABLES: [[u32; 256]; 8] = make_tables();

const fn make_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

#[inline(always)]
fn entry(table: &[u32; 256], byte: u8) -> u32 {
    table
        .get(usize::from(byte))
        .copied()
        .expect("invariant: a u8 indexes a 256-entry table")
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update (pass `0xFFFF_FFFF` initially, xor with it at the end).
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word: [u8; 8] = word
            .try_into()
            .expect("invariant: chunks_exact(8) yields 8-byte chunks");
        let mixed = (u64::from_le_bytes(word) ^ u64::from(state)).to_le_bytes();
        state = TABLES
            .iter()
            .rev()
            .zip(mixed)
            .fold(0, |acc, (table, byte)| acc ^ entry(table, byte));
    }
    let bytewise = TABLES.first().expect("invariant: eight tables");
    for &b in words.remainder() {
        state = entry(bytewise, state as u8 ^ b) ^ (state >> 8);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition: the reference model of the word-wise
    /// update above.
    fn reference_update(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state ^= u32::from(b);
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    POLY ^ (state >> 1)
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = tsuru_sim::DetRng::new(seed);
        (0..len).map(|_| rng.next() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = b"The quick brown fox jumps over the lazy dog".to_vec();
        let original = crc32(&data);
        for i in 0..data.len() {
            data[i] ^= 0x01;
            assert_ne!(crc32(&data), original, "flip at byte {i} undetected");
            data[i] ^= 0x01;
        }
        assert_eq!(crc32(&data), original);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello world, this is a streaming test";
        let oneshot = crc32(data);
        let mut st = 0xFFFF_FFFFu32;
        for chunk in data.chunks(7) {
            st = crc32_update(st, chunk);
        }
        assert_eq!(st ^ 0xFFFF_FFFF, oneshot);
    }

    #[test]
    fn wordwise_equals_bytewise_reference_for_every_short_length() {
        for len in 0..=64usize {
            for seed in 1..=8u64 {
                let data = noise(len, seed * 0x9E37_79B9 + len as u64);
                for state in [0xFFFF_FFFFu32, 0, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(state, &data),
                        reference_update(state, &data),
                        "len {len} seed {seed} state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn wordwise_equals_bytewise_reference_on_pages() {
        for seed in 1..=16u64 {
            let page = noise(4096, seed);
            assert_eq!(
                crc32_update(0xFFFF_FFFF, &page),
                reference_update(0xFFFF_FFFF, &page)
            );
        }
        let zeros = vec![0u8; 4096];
        assert_eq!(
            crc32_update(0xFFFF_FFFF, &zeros),
            reference_update(0xFFFF_FFFF, &zeros)
        );
    }

    #[test]
    fn every_two_way_split_streams_to_the_same_value() {
        let data = noise(40, 7);
        let whole = reference_update(0xFFFF_FFFF, &data);
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(
                crc32_update(crc32_update(0xFFFF_FFFF, a), b),
                whole,
                "split at {cut}"
            );
        }
    }
}
