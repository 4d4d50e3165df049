//! SHA-256 (FIPS 180-4) with two compression backends.
//!
//! [`Sha256`] buffers input into 64-byte blocks and hands every run of whole
//! blocks to one of two implementations of the compression function:
//!
//! * **SHA-NI** — the x86-64 SHA extensions (`sha256rnds2`, `sha256msg1`,
//!   `sha256msg2`), which run the 64 rounds of a block in hardware. Used
//!   when the CPU reports the `sha`, `ssse3` and `sse4.1` features.
//! * **Scalar** — a portable, straight transcription of the standard. It is
//!   the only path on other CPUs and other architectures, and the reference
//!   the tests compare the hardware path against.
//!
//! The choice is made at run time, once per hasher, by
//! `is_x86_feature_detected!` (which caches the CPUID probe process-wide);
//! there is no option to force either path. Both produce identical digests:
//! the unit tests check the NIST/RFC vectors through whichever path the CPU
//! selects, and the proptests compare the two compressors block for block
//! and the hasher on both backends under arbitrary input splits.

/// Output size of SHA-256 in bytes.
pub const OUTPUT_LEN: usize = 32;

/// Block size of SHA-256 in bytes.
pub const BLOCK_LEN: usize = 64;

/// SHA-256 round constants: the first 32 bits of the fractional parts of the
/// cube roots of the first 64 prime numbers.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 prime numbers.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use seemore_crypto::Sha256;
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .finish_non_exhaustive()
    }
}

impl Sha256 {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Self::with_backend(Backend::detect())
    }

    fn with_backend(backend: Backend) -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
            backend,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Top up a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            input = &input[take..];
            self.backend.compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }

        // Hand every whole block straight from the input to the compressor.
        let whole = input.len() - input.len() % BLOCK_LEN;
        let (blocks, tail) = input.split_at(whole);
        if !blocks.is_empty() {
            self.backend.compress(&mut self.state, blocks);
        }

        // Buffer the tail.
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; OUTPUT_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);

        // Append the 0x80 terminator and zeros; if the 8-byte length no
        // longer fits in this block, it goes into one more.
        let used = self.buffer_len;
        self.buffer[used] = 0x80;
        self.buffer[used + 1..].fill(0);
        if used >= BLOCK_LEN - 8 {
            self.backend.compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        self.backend.compress(&mut self.state, &self.buffer);

        let mut out = [0u8; OUTPUT_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Which compression function a hasher runs.
///
/// `ShaNi` is only ever produced by [`Backend::detect`] after the CPU
/// reported every feature the SHA-NI compressor is compiled for; the
/// variant is private to this module, so no other code can select it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Backend {
    /// The fastest backend this CPU supports.
    fn detect() -> Backend {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            return Backend::ShaNi;
        }
        Backend::Scalar
    }

    /// Compresses each 64-byte block of `blocks` into `state`, in order.
    /// `blocks.len()` must be a multiple of [`BLOCK_LEN`].
    #[inline]
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
        match self {
            Backend::Scalar => compress_scalar(state, blocks),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `ShaNi` is only constructed by `Backend::detect` when
            // `shani::available()` reported `sha`, `ssse3` and `sse4.1`,
            // which are exactly the features `shani::compress` enables.
            Backend::ShaNi => unsafe { shani::compress(state, blocks) },
        }
    }
}

/// The SHA-256 compression function, one block at a time, in portable Rust.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The SHA-256 compression function on the x86-64 SHA extensions.
///
/// The hardware keeps the eight working variables in two registers in the
/// order `ABEF` and `CDGH` (most significant lane first); `compress` converts
/// the standard `a..h` state into that layout once per call, runs every
/// block, and converts back. Each `sha256rnds2` performs two rounds, and
/// `sha256msg1`/`sha256msg2` extend the message schedule four words at a
/// time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::*;

    /// Calls of [`compress`], so tests can show the hardware path ran.
    #[cfg(test)]
    pub(super) static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    /// Whether this CPU has every feature [`compress`] is compiled for.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Rounds `4 * $i .. 4 * $i + 4` over the four schedule words `$w`.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let k = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    /// Schedule words `w[t..t + 4]` from the previous sixteen, held as
    /// `$w0..$w3` (oldest first): `σ0` via `msg1`, the `w[t - 7]` term via
    /// the byte shift across `$w2:$w3`, and `σ1` via `msg2`.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {{
            let partial =
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4));
            _mm_sha256msg2_epu32(partial, $w3)
        }};
    }

    /// Compresses each 64-byte block of `blocks` into `state`, in order;
    /// a trailing partial block is ignored.
    ///
    /// # Safety
    ///
    /// The CPU must support `sha`, `ssse3` and `sse4.1`, as [`available`]
    /// checks.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        #[cfg(test)]
        CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Byte shuffle turning each little-endian lane load into the
        // big-endian message word.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // SAFETY: `state` is 32 readable bytes; the loads are unaligned.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(BLOCK_LEN) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is exactly 64 readable bytes, the four
            // unaligned 16-byte loads cover it.
            let [w0, w1, w2, w3] = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            let mut w0 = _mm_shuffle_epi8(w0, bswap);
            let mut w1 = _mm_shuffle_epi8(w1, bswap);
            let mut w2 = _mm_shuffle_epi8(w2, bswap);
            let mut w3 = _mm_shuffle_epi8(w3, bswap);
            let mut w4;

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            w4 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w4, 4);
            w0 = schedule!(w1, w2, w3, w4);
            rounds4!(abef, cdgh, w0, 5);
            w1 = schedule!(w2, w3, w4, w0);
            rounds4!(abef, cdgh, w1, 6);
            w2 = schedule!(w3, w4, w0, w1);
            rounds4!(abef, cdgh, w2, 7);
            w3 = schedule!(w4, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 8);
            w4 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w4, 9);
            w0 = schedule!(w1, w2, w3, w4);
            rounds4!(abef, cdgh, w0, 10);
            w1 = schedule!(w2, w3, w4, w0);
            rounds4!(abef, cdgh, w1, 11);
            w2 = schedule!(w3, w4, w0, w1);
            rounds4!(abef, cdgh, w2, 12);
            w3 = schedule!(w4, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 13);
            w4 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w4, 14);
            w0 = schedule!(w1, w2, w3, w4);
            rounds4!(abef, cdgh, w0, 15);

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; the stores are unaligned.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; OUTPUT_LEN] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bit_message() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bit_message() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&sha256(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        for chunk_size in [1usize, 3, 63, 64, 65, 128, 1000] {
            let mut hasher = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                hasher.update(chunk);
            }
            assert_eq!(hasher.finalize(), sha256(&data), "chunk size {chunk_size}");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; len];
            let one_shot = sha256(&data);
            let mut hasher = Sha256::new();
            let (a, b) = data.split_at(len / 2);
            hasher.update(a);
            hasher.update(b);
            assert_eq!(hasher.finalize(), one_shot, "length {len}");
        }
    }

    #[test]
    fn distinct_inputs_produce_distinct_digests() {
        assert_ne!(sha256(b"request-1"), sha256(b"request-2"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    /// The SHA-NI backend if the CPU reports the SHA extensions, asserting
    /// that it is also what `Sha256::new` selects — so a comparison against
    /// it can never quietly be scalar against scalar.
    pub(super) fn accelerated() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha") {
            let backend = Backend::detect();
            assert_eq!(backend, Backend::ShaNi);
            assert_eq!(Sha256::new().backend, backend);
            return Some(backend);
        }
        None
    }

    /// Runs `f` with `backend` and asserts that, for the SHA-NI backend,
    /// the hardware compressor was actually called.
    pub(super) fn on<T>(backend: Backend, f: impl FnOnce(Backend) -> T) -> T {
        #[cfg(target_arch = "x86_64")]
        if backend == Backend::ShaNi {
            use std::sync::atomic::Ordering;
            let before = shani::CALLS.load(Ordering::Relaxed);
            let out = f(backend);
            assert!(
                shani::CALLS.load(Ordering::Relaxed) > before,
                "SHA-NI never ran"
            );
            return out;
        }
        f(backend)
    }

    /// Hashes `data` with `backend`, feeding it in pieces cut at `splits`.
    pub(super) fn digest_split(
        backend: Backend,
        data: &[u8],
        splits: &[usize],
    ) -> [u8; OUTPUT_LEN] {
        let mut cuts: Vec<usize> = splits.iter().map(|&s| s.min(data.len())).collect();
        cuts.sort_unstable();
        let mut hasher = Sha256::with_backend(backend);
        let mut at = 0;
        for cut in cuts {
            hasher.update(&data[at..cut]);
            at = cut;
        }
        hasher.update(&data[at..]);
        hasher.finalize()
    }

    #[test]
    fn accelerated_compressor_matches_scalar_over_one_mib() {
        let data: Vec<u8> = (0u32..1 << 20)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let Some(hw) = accelerated() else {
            eprintln!("no SHA extensions on this CPU: only the scalar path exists");
            return;
        };
        let mut scalar = H0;
        compress_scalar(&mut scalar, &data);
        let mut hardware = H0;
        on(hw, |hw| hw.compress(&mut hardware, &data));
        assert_eq!(hardware, scalar);
        assert_eq!(
            on(hw, |hw| digest_split(hw, &data, &[1, 4097, 65_600])),
            digest_split(Backend::Scalar, &data, &[])
        );
    }

    #[test]
    fn nist_vectors_hold_on_the_scalar_path() {
        let scalar = |data: &[u8]| hex(&digest_split(Backend::Scalar, data, &[]));
        assert_eq!(
            scalar(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            scalar(&vec![b'a'; 1_000_000]),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn default_and_debug() {
        let hasher = Sha256::default();
        assert_eq!(hasher.finalize(), sha256(b""));
        let dbg = format!("{:?}", Sha256::new());
        assert!(dbg.contains("Sha256"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Splitting the input arbitrarily never changes the digest.
        #[test]
        fn incremental_equals_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                        split in 0usize..2048) {
            let split = split.min(data.len());
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            prop_assert_eq!(hasher.finalize(), sha256(&data));
        }

        /// The SHA-NI compressor agrees with the scalar one block for block
        /// from an arbitrary starting state, and the hasher gives the same
        /// digest on either backend however the input is split.
        #[test]
        fn accelerated_path_equals_scalar_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            splits in proptest::collection::vec(0usize..4097, 0..6),
            start in proptest::collection::vec(any::<u32>(), 8..9),
        ) {
            if let Some(hw) = tests::accelerated() {
                let whole = &data[..data.len() - data.len() % BLOCK_LEN];
                let mut scalar: [u32; 8] = start.clone().try_into().unwrap();
                let mut hardware = scalar;
                compress_scalar(&mut scalar, whole);
                tests::on(hw, |hw| hw.compress(&mut hardware, whole));
                prop_assert_eq!(hardware, scalar);
                prop_assert_eq!(
                    tests::on(hw, |hw| tests::digest_split(hw, &data, &splits)),
                    tests::digest_split(Backend::Scalar, &data, &splits)
                );
            }
            prop_assert_eq!(
                tests::digest_split(Backend::Scalar, &data, &splits),
                sha256(&data)
            );
        }

        /// Appending a byte always changes the digest (no trivial length
        /// extension collisions on the happy path).
        #[test]
        fn extension_changes_digest(data in proptest::collection::vec(any::<u8>(), 0..512),
                                    extra in any::<u8>()) {
            let mut extended = data.clone();
            extended.push(extra);
            prop_assert_ne!(sha256(&data), sha256(&extended));
        }
    }
}
