//! Textbook RSA keypairs over [`BigUint`], used as the base signature
//! scheme for Chaum blind signatures (§4.2's rate-limit tokens).
//!
//! Signatures are over 32-byte digests interpreted as integers; there is no
//! padding scheme (simulation-grade — see the crate docs). The private
//! operation runs by the Chinese remainder theorem over cached Montgomery
//! contexts for `p` and `q`, and checks its own result before releasing it.

use crate::bigint::{BigUint, Montgomery};
use crate::prime::random_prime;
use orsp_types::{OrspError, Result};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// An RSA public key `(n, e)`, with the Montgomery context for `n` cached
/// so that verifying and blinding never rebuild it.
#[derive(Clone)]
pub struct RsaPublicKey {
    /// Holds the modulus `n`.
    n: Arc<Montgomery>,
    e: BigUint,
}

impl RsaPublicKey {
    fn new(n: &BigUint, e: BigUint) -> Self {
        RsaPublicKey {
            n: Arc::new(Montgomery::new(n)),
            e,
        }
    }

    /// The modulus `n`.
    pub fn n(&self) -> &BigUint {
        self.n.modulus()
    }

    /// The public exponent `e`.
    pub fn e(&self) -> &BigUint {
        &self.e
    }

    /// Verify a raw signature over a digest: `sig^e mod n == digest mod n`.
    pub fn verify_digest(&self, digest: &[u8], signature: &BigUint) -> bool {
        let m = BigUint::from_bytes_be(digest).rem(self.n());
        self.apply(signature) == m
    }

    /// Apply the public operation `m^e mod n` (used when blinding).
    pub fn apply(&self, m: &BigUint) -> BigUint {
        self.n.pow(m, &self.e)
    }

    /// `a·b mod n` on the cached context.
    pub(crate) fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        self.n.mul_mod(a, b)
    }
}

impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n() == other.n() && self.e == other.e
    }
}

impl Eq for RsaPublicKey {}

impl fmt::Debug for RsaPublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaPublicKey")
            .field("n", self.n())
            .field("e", &self.e)
            .finish()
    }
}

/// An RSA keypair, holding the private exponent in CRT form:
/// `dp = d mod (p-1)`, `dq = d mod (q-1)`, `qinv = q⁻¹ mod p`.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    /// The public half.
    pub public: RsaPublicKey,
    /// Holds the prime `p`.
    p: Montgomery,
    /// Holds the prime `q`.
    q: Montgomery,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl RsaKeyPair {
    /// Generate a keypair with a modulus of `bits` bits.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 32, "modulus too small to be meaningful");
        let e = BigUint::from_u64(65_537);
        loop {
            let p = random_prime(rng, bits / 2);
            let q = random_prime(rng, bits - bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let (p1, q1) = (p.sub(&BigUint::one()), q.sub(&BigUint::one()));
            let phi = p1.mul(&q1);
            if !phi.gcd(&e).is_one() {
                continue;
            }
            let d = e.mod_inverse(&phi).expect("e coprime to phi");
            return RsaKeyPair {
                public: RsaPublicKey::new(&n, e),
                dp: d.rem(&p1),
                dq: d.rem(&q1),
                qinv: q.mod_inverse(&p).expect("distinct primes are coprime"),
                p: Montgomery::new(&p),
                q: Montgomery::new(&q),
            };
        }
    }

    /// Sign a 32-byte digest: `digest^d mod n`.
    pub fn sign_digest(&self, digest: &[u8]) -> Result<BigUint> {
        self.apply_private(&BigUint::from_bytes_be(digest))
    }

    /// Apply the private operation `m^d mod n` to an arbitrary value (the
    /// mint signing a *blinded* message it cannot read).
    ///
    /// Computes `m^dp mod p` and `m^dq mod q` and joins them by Garner's
    /// formula. A fault in either half would yield a value that is right
    /// modulo one prime and wrong modulo the other, and releasing it
    /// leaks that prime as `gcd(s^e - m, n)` (the Bellcore attack). So the
    /// result is released only after `s^e ≡ m (mod n)` holds; otherwise
    /// this returns an error and no signature.
    pub fn apply_private(&self, m: &BigUint) -> Result<BigUint> {
        let (p, q) = (self.p.modulus(), self.q.modulus());
        let sp = self.p.pow(m, &self.dp);
        let sq = self.q.pow(m, &self.dq);
        // s = sq + q·((sp - sq)·qinv mod p)
        let sq_mod_p = sq.rem(p);
        let diff = match sp.checked_sub(&sq_mod_p) {
            Some(d) => d,
            None => sp.add(p).sub(&sq_mod_p),
        };
        let s = sq.add(&q.mul(&self.p.mul_mod(&diff, &self.qinv)));
        if self.public.apply(&s) != m.rem(self.public.n()) {
            return Err(OrspError::Crypto(
                "CRT signature failed its s^e = m check; withheld".into(),
            ));
        }
        Ok(s)
    }

    /// Corrupt the `p` half of the private exponent so that every CRT
    /// signature comes out wrong modulo `p`: a fault-injection hook for
    /// tests of the fail-closed signing path.
    #[doc(hidden)]
    pub fn inject_crt_fault(&mut self) {
        self.dp = self.dp.add(&BigUint::one());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_keypair(seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        // 256-bit keys keep the test suite fast; protocol is identical.
        RsaKeyPair::generate(&mut rng, 256)
    }

    /// The one-exponent definition the CRT path must match: `m^d mod n`.
    fn plain_private(kp: &RsaKeyPair, m: &BigUint) -> BigUint {
        let one = BigUint::one();
        let phi = kp.p.modulus().sub(&one).mul(&kp.q.modulus().sub(&one));
        let d = kp.public.e().mod_inverse(&phi).unwrap();
        m.mod_pow(&d, kp.public.n())
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = test_keypair(1);
        let digest = sha256(b"hello opinions");
        let sig = kp.sign_digest(&digest).unwrap();
        assert!(kp.public.verify_digest(&digest, &sig));
    }

    #[test]
    fn wrong_digest_fails() {
        let kp = test_keypair(2);
        let sig = kp.sign_digest(&sha256(b"message A")).unwrap();
        assert!(!kp.public.verify_digest(&sha256(b"message B"), &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = test_keypair(3);
        let kp2 = test_keypair(4);
        let digest = sha256(b"msg");
        let sig = kp1.sign_digest(&digest).unwrap();
        assert!(!kp2.public.verify_digest(&digest, &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = test_keypair(5);
        let digest = sha256(b"msg");
        let sig = kp.sign_digest(&digest).unwrap().add(&BigUint::one());
        assert!(!kp.public.verify_digest(&digest, &sig));
    }

    #[test]
    fn public_private_are_inverses() {
        let kp = test_keypair(6);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..4 {
            let m = BigUint::random_below(&mut rng, kp.public.n());
            let c = kp.public.apply(&m);
            assert_eq!(kp.apply_private(&c).unwrap(), m);
            let s = kp.apply_private(&m).unwrap();
            assert_eq!(kp.public.apply(&s), m);
        }
    }

    #[test]
    fn keygen_is_deterministic_per_seed() {
        let a = test_keypair(42);
        let b = test_keypair(42);
        assert_eq!(a.public, b.public);
    }

    /// The served mint key, and through it every token and digest,
    /// depends on keygen's RNG draw order. These moduli were generated
    /// before the CRT/Montgomery kernel, by the plain square-and-multiply
    /// keygen; the next draw after keygen pins how many draws it took.
    #[test]
    fn keygen_pins_seed_fixed_moduli() {
        use rand::Rng;
        // The pipeline mint of a world seeded 13 (PipelineConfig default
        // 256-bit modulus).
        let mut rng = orsp_types::rng::rng_for(13, "pipeline");
        let kp = RsaKeyPair::generate(&mut rng, 256);
        assert_eq!(
            format!("{:?}", kp.public.n()),
            "BigUint(0x8238b3309bbaaa6317e366f7c8d93a3d59b756213666eb46362cab8a6a264367)"
        );
        assert_eq!(rng.gen::<u64>(), 0x6110a846149cfd44);
        // E6's 512-bit mint at its default seed.
        let mut rng = StdRng::seed_from_u64(42);
        let kp = RsaKeyPair::generate(&mut rng, 512);
        assert_eq!(
            format!("{:?}", kp.public.n()),
            "BigUint(0x53b705150cc57622fd6b364f2ddbe9f18b7ea94035900bdb614782fd4ef2b70a\
             9a5529503664213d21eaa3206691386288c63f9d5452cc9cbd1d5aac0d332745)"
        );
        assert_eq!(rng.gen::<u64>(), 0xe617acfcb4f85c39);
    }

    #[test]
    fn crt_private_equals_plain_exponent() {
        let mut rng = StdRng::seed_from_u64(8);
        for (seed, bits) in [(9u64, 256usize), (10, 512), (11, 96)] {
            let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), bits);
            let n = kp.public.n().clone();
            let (p, q) = (kp.p.modulus().clone(), kp.q.modulus().clone());
            let r = BigUint::random_below(&mut rng, &n);
            let mut inputs = vec![
                BigUint::zero(),
                BigUint::one(),
                n.sub(&BigUint::one()),
                n.clone(),
                r.clone(),
                r.add(&n),
                // Longer than n.
                r.add(&n.shl(3 * 64 + 5)),
                // Multiples of one prime: m ≡ 0 (mod p), then (mod q).
                p.clone(),
                p.mul(&BigUint::random_below(&mut rng, &q)),
                q.mul(&BigUint::random_below(&mut rng, &p)),
                p.mul(&q).mul(&BigUint::from_u64(3)),
            ];
            inputs.extend((0..8).map(|_| BigUint::random_below(&mut rng, &n)));
            for m in &inputs {
                assert_eq!(
                    kp.apply_private(m).unwrap(),
                    plain_private(&kp, m),
                    "{bits}-bit m={m:?}"
                );
            }
        }
    }

    #[test]
    fn crt_fault_withholds_signature() {
        let mut kp = test_keypair(12);
        let mut rng = StdRng::seed_from_u64(13);
        let m = BigUint::random_below(&mut rng, kp.public.n());
        let good = kp.apply_private(&m).unwrap();
        kp.inject_crt_fault();
        assert!(kp.apply_private(&m).is_err(), "no release");
        assert!(kp.sign_digest(&sha256(b"msg")).is_err());
        // The q half is untouched, so the withheld value was right modulo
        // q and wrong modulo p: released, gcd(s^e - m, n) would be q.
        let q = kp.q.modulus();
        let sq = kp.q.pow(&m, &kp.dq);
        assert_eq!(sq, good.rem(q));
    }

    #[test]
    fn hostile_signatures_judged_as_before() {
        // Verification reduces the signature mod n first, as the plain
        // square-and-multiply did: s, s + n and s + k·n·2^64 all verify;
        // 0 and n never do.
        let kp = test_keypair(14);
        let n = kp.public.n();
        let digest = sha256(b"hostile");
        let s = kp.sign_digest(&digest).unwrap();
        assert!(kp.public.verify_digest(&digest, &s));
        assert!(kp.public.verify_digest(&digest, &s.add(n)));
        assert!(kp.public.verify_digest(&digest, &s.add(&n.shl(64 * 3))));
        assert!(!kp.public.verify_digest(&digest, &BigUint::zero()));
        assert!(!kp.public.verify_digest(&digest, n));
        assert!(!kp.public.verify_digest(&digest, &n.shl(64)));
        let off_by_one = s.add(&BigUint::one()).add(n);
        assert!(!kp.public.verify_digest(&digest, &off_by_one));
    }
}
