//! A deterministic byte mangler, in the spirit of [`FaultFs`](crate::FaultFs)
//! for the text edges: a seeded xorshift64 stream and four corruptions of a
//! valid input — truncation, bit flips, byte insertion and a swap — so a
//! fuzz round is the same bytes on every machine.  The server's
//! `tests/resilience.rs` sends mangled requests and metrics'
//! `tests/parse_differential.rs` parses mangled documents.

/// xorshift64: `next_u64` is the stream, the rest draw from it.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    pub fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }

    pub fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// Applies corruption `round % 4` to `bytes`: 0 truncates somewhere, 1 flips
/// one to four bits, 2 inserts two random bytes, 3 swaps two bytes.
pub fn mangle(rng: &mut Rng, bytes: &mut Vec<u8>, round: usize) {
    match round % 4 {
        0 => {
            let cut = rng.below(bytes.len());
            bytes.truncate(cut);
        }
        1 => {
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(bytes.len());
                let bit = 1u8 << rng.below(8);
                if let Some(b) = bytes.get_mut(i) {
                    *b ^= bit;
                }
            }
        }
        2 => {
            let i = rng.below(bytes.len() + 1);
            let inserted = [(rng.next_u64() & 0xff) as u8, (rng.next_u64() & 0xff) as u8];
            bytes.splice(i..i, inserted);
        }
        _ => {
            if !bytes.is_empty() {
                let (i, j) = (rng.below(bytes.len()), rng.below(bytes.len()));
                bytes.swap(i, j);
            }
        }
    }
}
