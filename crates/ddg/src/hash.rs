//! Stable content addressing for dependence graphs.
//!
//! `regpipe serve` keys its result cache by *what the loop is*, not where
//! it came from: two textually different `.ddg` files that parse to the
//! same graph (comment/whitespace/ordering differences aside) must map to
//! the same cache entry. The canonical form is [`crate::textfmt::format`]
//! — already the round-trip normal form every disk frontend goes through
//! — and the hash is FNV-1a over its bytes, which is fully specified here
//! so the value is stable across runs, platforms, and Rust versions
//! (unlike `std::hash`, whose output is deliberately unspecified).
//!
//! The daemon also hashes a request's raw `.ddg` text with [`fnv1a`], as
//! the key of an alias to this content address that lets a repeated text
//! skip the parse. [`fnv1a`] says what a collision in either costs.

use crate::textfmt;
use crate::Ddg;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string: the workspace's stable, dependency-free
/// hash. Not cryptographic — collisions are possible in principle, and
/// can be crafted. The daemon uses it twice: for the cache's content
/// address ([`content_hash`]), and for its alias from a request's raw
/// `ddg` text (FNV-1a of the text plus its byte length) to that address,
/// which lets a repeated text skip the parse. Either collision only ever
/// trades for a wrong *cached* answer on adversarial inputs, and the
/// corpus funnel is trusted.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a state over more bytes: hashing a text in pieces
/// gives the hash of the whole.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The FNV-1a state as a [`textfmt::TextSink`], so the content hash reads
/// the canonical text without building it.
struct Fnv1a(u64);

impl textfmt::TextSink for Fnv1a {
    fn put(&mut self, s: &str) {
        self.0 = fnv1a_extend(self.0, s.as_bytes());
    }
}

/// The stable content address of a graph: FNV-1a over its canonical text
/// form ([`crate::textfmt::format`]), streamed into the hash piece by
/// piece without building the text.
///
/// Two graphs have equal hashes exactly when their canonical renderings
/// are byte-equal; the loop's name participates (it is part of the
/// canonical form), so corpora with stable names address stably.
///
/// ```
/// use regpipe_ddg::{content_hash, textfmt};
///
/// let a = textfmt::parse("loop l\nop x add\n").unwrap();
/// let b = textfmt::parse("# comment\nloop l\n\nop x add\n").unwrap();
/// assert_eq!(content_hash(&a), content_hash(&b)); // same canonical form
/// ```
pub fn content_hash(ddg: &Ddg) -> u64 {
    let mut state = Fnv1a(FNV_OFFSET);
    textfmt::write_canonical(ddg, &mut state);
    state.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DdgBuilder, OpKind};

    fn sample(name: &str, dist: u32) -> Ddg {
        let mut b = DdgBuilder::new(name);
        let ld = b.add_op(OpKind::Load, "ld");
        let add = b.add_op(OpKind::Add, "+");
        b.reg_dist(ld, add, dist);
        b.build().unwrap()
    }

    /// The hash is pinned: any drift silently invalidates every
    /// content-addressed artifact, so it must be a deliberate change.
    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn equal_graphs_hash_equal_and_different_graphs_differ() {
        assert_eq!(content_hash(&sample("l", 3)), content_hash(&sample("l", 3)));
        assert_ne!(content_hash(&sample("l", 3)), content_hash(&sample("l", 4)));
        assert_ne!(content_hash(&sample("l", 3)), content_hash(&sample("m", 3)));
    }

    /// The streamed hash reads exactly the bytes `format` returns,
    /// sanitised names and staggered bonds included.
    #[test]
    fn streamed_hash_is_the_hash_of_the_rendered_text() {
        let mut b = DdgBuilder::new("odd loop#1");
        let ld = b.add_op(OpKind::Load, "");
        let add = b.add_op(OpKind::Add, "a\u{3000}b # c\u{e9}");
        let st = b.add_op(OpKind::Store, "st");
        b.bond_staggered(ld, add, 12);
        b.reg_dist(add, st, 4_000_000_000);
        b.mem(st, ld, 1);
        b.invariant("k k", &[add, st]);
        let mut g = b.build().unwrap();
        g.mark_value_non_spillable(add);
        for g in [g, sample("l", 0), sample("", 7)] {
            let text = crate::textfmt::format(&g);
            assert_eq!(content_hash(&g), fnv1a(text.as_bytes()), "{text}");
        }
    }

    #[test]
    fn hash_survives_a_text_round_trip() {
        let g = sample("rt", 2);
        let reparsed = crate::textfmt::parse(&crate::textfmt::format(&g)).unwrap();
        assert_eq!(content_hash(&g), content_hash(&reparsed));
    }
}
