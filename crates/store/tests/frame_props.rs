//! Properties of the record-log codec every append-only log shares
//! (`CHAIN.log`, `MANIFEST.journal`): decoding never panics, frames
//! round-trip, a cut stream yields exactly its whole frames, and a
//! flipped bit ends the valid prefix at the frame it hit.

use iri_store::frame::{put_frame, read_valid_prefix, Frame};
use proptest::prelude::*;

/// Encodes `frames` and returns the stream with the offset where each
/// frame ends.
fn encode(frames: &[(u8, Vec<u8>)]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut ends = Vec::new();
    for (kind, body) in frames {
        put_frame(&mut buf, *kind, body);
        ends.push(buf.len());
    }
    (buf, ends)
}

fn owned(frames: &[Frame<'_>]) -> Vec<(u8, Vec<u8>)> {
    frames.iter().map(|f| (f.kind, f.body.to_vec())).collect()
}

/// Frame lists with bodies long enough for multi-byte length varints.
fn frame_lists() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    prop::collection::vec(
        (any::<u8>(), prop::collection::vec(any::<u8>(), 0..300)),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let (frames, torn_at) = read_valid_prefix(&bytes);
        prop_assert!(torn_at <= bytes.len());
        // Whatever was accepted re-encodes to exactly the valid prefix.
        let (again, _) = encode(&owned(&frames));
        prop_assert_eq!(again.as_slice(), &bytes[..torn_at]);
    }

    #[test]
    fn any_frame_list_round_trips(frames in frame_lists()) {
        let (bytes, _) = encode(&frames);
        let (read, torn_at) = read_valid_prefix(&bytes);
        prop_assert_eq!(owned(&read), frames);
        prop_assert_eq!(torn_at, bytes.len());
    }

    #[test]
    fn a_cut_keeps_exactly_the_whole_frames_before_it(frames in frame_lists()) {
        let (bytes, ends) = encode(&frames);
        for cut in 0..=bytes.len() {
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            let (read, torn_at) = read_valid_prefix(&bytes[..cut]);
            prop_assert_eq!(owned(&read), frames[..whole].to_vec(), "cut at {}", cut);
            prop_assert_eq!(torn_at, if whole == 0 { 0 } else { ends[whole - 1] });
        }
    }

    #[test]
    fn a_flipped_bit_drops_its_frame_and_every_later_one(
        frames in frame_lists(),
        pick in any::<u64>(),
    ) {
        let (mut bytes, ends) = encode(&frames);
        if !bytes.is_empty() {
            let bit = (pick % (bytes.len() as u64 * 8)) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
            let hit = ends.iter().position(|&end| bit / 8 < end).expect("inside a frame");
            let (read, torn_at) = read_valid_prefix(&bytes);
            prop_assert_eq!(owned(&read), frames[..hit].to_vec(), "bit {}", bit);
            prop_assert_eq!(torn_at, if hit == 0 { 0 } else { ends[hit - 1] });
        }
    }
}
