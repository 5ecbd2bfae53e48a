//! Canonical, declaration-order-independent encoding of configuration
//! values, for content-addressed result caching.
//!
//! The persistent result store (`commsense-core`'s `store` module) keys
//! each record by a hash of the run request that produced it. That hash
//! must be *stable*: independent of struct field declaration order (a
//! refactor that reorders fields must not invalidate a store), sensitive
//! to every field value, and identical across platforms and processes.
//! `Debug` output and `std::hash::Hash` give none of those guarantees, so
//! configuration types implement a `stable_encode(&self, &mut
//! StableEncoder)` method instead: each field is `put` under an explicit
//! dotted name (nested structures encode inside a [`StableEncoder::scope`]
//! that prefixes their names), the encoder sorts the fields by name, and
//! the canonical text is hashed with a fixed 128-bit FNV-1a.
//!
//! The fields are written straight into one text buffer as they are put;
//! sorting moves only their offsets, and the hash reads the sorted lines
//! in place, so a key costs a handful of allocations however many fields
//! it has.
//!
//! Floating-point fields go through [`StableEncoder::put_f64`], which
//! encodes the IEEE-754 bit pattern — two configs hash equal exactly when
//! their floats are bit-identical, with no formatting round-trip in
//! between.
//!
//! # Examples
//!
//! ```
//! use commsense_des::StableEncoder;
//!
//! let hash = |width: u32, height: u32, flipped: bool| {
//!     let mut enc = StableEncoder::new();
//!     if flipped {
//!         enc.put("net.height", height); // same fields, opposite order
//!         enc.put("net.width", width);
//!     } else {
//!         enc.put("net.width", width);
//!         enc.put("net.height", height);
//!     }
//!     enc.finish_hash()
//! };
//! assert_eq!(hash(8, 4, false), hash(8, 4, true));
//! assert_ne!(hash(8, 4, false), hash(8, 2, false)); // one field differs
//! ```

use std::fmt::{Display, Write as _};

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Hashes `bytes` with 128-bit FNV-1a. Deterministic across platforms and
/// processes (no per-process seed).
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    fnv1a_128_extend(FNV_OFFSET, bytes)
}

/// Continues a 128-bit FNV-1a hash `h` over `bytes`: hashing two slices
/// in turn equals hashing their concatenation.
fn fnv1a_128_extend(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes `bytes` with 64-bit FNV-1a (used for record checksums, where 64
/// bits of corruption detection is plenty).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Collects `(name, value)` pairs and produces a canonical text or hash
/// that does not depend on the order the pairs were added.
///
/// # Panics
///
/// [`StableEncoder::finish`] and [`StableEncoder::finish_hash`] panic on
/// duplicate names — two fields encoding under the same name is a
/// programming error that would make the hash silently insensitive to one
/// of them.
#[derive(Debug, Default)]
pub struct StableEncoder {
    /// One `name=value\n` line per field, in the order they were put.
    text: String,
    /// Each line's start, the end of its name, and its end, in `text`.
    lines: Vec<(usize, usize, usize)>,
    /// The names of the open scopes, each followed by a dot.
    prefix: String,
}

impl StableEncoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one field under an explicit dotted name (e.g. `"cfg.nodes"`),
    /// prefixed by the open scopes. Names must be unique across the whole
    /// encoding; use scopes to namespace nested structures.
    pub fn put(&mut self, name: &str, value: impl Display) {
        let start = self.text.len();
        self.text.push_str(&self.prefix);
        self.text.push_str(name);
        let name_end = self.text.len();
        let _ = writeln!(self.text, "={value}");
        self.lines.push((start, name_end, self.text.len()));
    }

    /// Adds a floating-point field by its IEEE-754 bit pattern, so the
    /// encoding is exact (no shortest-representation formatting involved)
    /// and total (NaNs and infinities encode fine).
    pub fn put_f64(&mut self, name: &str, value: f64) {
        self.put(name, format_args!("f64:{:016x}", value.to_bits()));
    }

    /// Adds an optional field: `None` encodes as a distinguished token so
    /// `Some(default)` and `None` never collide.
    pub fn put_opt(&mut self, name: &str, value: Option<impl Display>) {
        match value {
            Some(v) => self.put(name, v),
            None => self.put(name, "none"),
        }
    }

    /// Runs `encode` with `name.` prefixed to every field it puts, so a
    /// nested structure encodes its fields under its own short names.
    pub fn scope(&mut self, name: &str, encode: impl FnOnce(&mut Self)) {
        let outer = self.prefix.len();
        self.prefix.push_str(name);
        self.prefix.push('.');
        encode(self);
        self.prefix.truncate(outer);
    }

    /// The lines sorted by name.
    ///
    /// # Panics
    ///
    /// Panics if two fields were added under the same name.
    fn sorted_lines(&mut self) -> impl Iterator<Item = &str> {
        let Self { text, lines, .. } = self;
        let name =
            |&(start, name_end, _): &(usize, usize, usize)| &text.as_bytes()[start..name_end];
        lines.sort_unstable_by(|a, b| name(a).cmp(name(b)));
        for w in lines.windows(2) {
            let (a, b) = (name(&w[0]), name(&w[1]));
            assert!(
                a != b,
                "duplicate field {:?} in stable encoding",
                String::from_utf8_lossy(a)
            );
        }
        lines.iter().map(|&(start, _, end)| &text[start..end])
    }

    /// The canonical text: `name=value` lines sorted by name.
    ///
    /// # Panics
    ///
    /// Panics if two fields were added under the same name.
    pub fn finish(mut self) -> String {
        let mut out = String::with_capacity(self.text.len());
        out.extend(self.sorted_lines());
        out
    }

    /// The 128-bit FNV-1a hash of the canonical text, read in place.
    ///
    /// # Panics
    ///
    /// Panics if two fields were added under the same name.
    pub fn finish_hash(mut self) -> u128 {
        self.sorted_lines()
            .fold(FNV_OFFSET, |h, line| fnv1a_128_extend(h, line.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_independent_and_value_sensitive() {
        let mut a = StableEncoder::new();
        a.put("x", 1);
        a.put("y", 2);
        let mut b = StableEncoder::new();
        b.put("y", 2);
        b.put("x", 1);
        assert_eq!(a.finish_hash(), b.finish_hash());
        let mut c = StableEncoder::new();
        c.put("x", 1);
        c.put("y", 3);
        let mut a2 = StableEncoder::new();
        a2.put("x", 1);
        a2.put("y", 2);
        assert_ne!(a2.finish_hash(), c.finish_hash());
    }

    #[test]
    fn f64_encoding_is_bitwise() {
        let mut a = StableEncoder::new();
        a.put_f64("v", 0.1 + 0.2);
        let mut b = StableEncoder::new();
        b.put_f64("v", 0.3);
        // 0.1 + 0.2 != 0.3 bitwise; the encoding must see that.
        assert_ne!(a.finish(), b.finish());
        // NaN encodes without panicking and reproducibly.
        let mut c = StableEncoder::new();
        c.put_f64("v", f64::NAN);
        let mut d = StableEncoder::new();
        d.put_f64("v", f64::NAN);
        assert_eq!(c.finish(), d.finish());
    }

    #[test]
    fn none_and_value_never_collide() {
        let mut a = StableEncoder::new();
        a.put_opt("v", None::<u64>);
        let mut b = StableEncoder::new();
        b.put_opt("v", Some(0u64));
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn scopes_prefix_names_and_sort_by_the_full_name() {
        let mut a = StableEncoder::new();
        a.put("cfg", 0);
        a.scope("cfg", |e| {
            e.put("b", 2);
            e.scope("net", |e| e.put_f64("x", 1.5));
            e.put("a", 1);
        });
        a.put("cfg.c", 3);
        let mut b = StableEncoder::new();
        for (k, v) in [("cfg.c", "3"), ("cfg.a", "1"), ("cfg", "0"), ("cfg.b", "2")] {
            b.put(k, v);
        }
        b.put_f64("cfg.net.x", 1.5);
        let text = "cfg=0\ncfg.a=1\ncfg.b=2\ncfg.c=3\ncfg.net.x=f64:3ff8000000000000\n";
        let hash = fnv1a_128(text.as_bytes());
        assert_eq!(a.finish(), text);
        assert_eq!(b.finish_hash(), hash);
    }

    #[test]
    #[should_panic(expected = "duplicate field")]
    fn duplicate_names_are_rejected() {
        let mut e = StableEncoder::new();
        e.put("x", 1);
        e.put("x", 2);
        e.finish();
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_128(b""), FNV_OFFSET);
        // Single-byte flips change both hashes.
        assert_ne!(fnv1a_64(b"abc"), fnv1a_64(b"abd"));
        assert_ne!(fnv1a_128(b"abc"), fnv1a_128(b"abd"));
    }
}
