//! Chaum blind signatures \[CRYPTO '83\] over RSA.
//!
//! The paper (§4.2): *"An RSP can however limit the impact of such attacks
//! by handing out blindly signed tokens at a limited rate to every device
//! and require that every device present a valid token when anonymously
//! uploading information."*
//!
//! The protocol:
//!
//! 1. the device hashes its token message `m` to a digest `h`,
//! 2. picks a random blinding factor `r` coprime to `n` and sends the mint
//!    `h · r^e mod n` — the mint learns nothing about `h`,
//! 3. the mint returns `(h · r^e)^d = h^d · r mod n`,
//! 4. the device divides by `r` to recover the ordinary signature `h^d`.
//!
//! The unlinkability the design needs is exactly blindness: the mint's view
//! at issue time (the blinded value) is statistically independent of the
//! signature presented at redemption time.

use crate::bigint::BigUint;
use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::sha256::sha256;
use rand::Rng;

/// A blinded message, safe to show the mint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlindedMessage(pub BigUint);

/// A blind signature on a blinded message (still blinded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlindSignature(pub BigUint);

/// Client-side state for one blinding: remembers the blinding factor so the
/// signature can be unblinded, and the original message for verification.
pub struct BlindingSession {
    message: Vec<u8>,
    r_inv: BigUint,
    public: RsaPublicKey,
}

impl BlindingSession {
    /// Blind `message` for the mint with public key `public`.
    ///
    /// Returns the session (keep private) and the blinded message (send to
    /// the mint).
    pub fn blind<R: Rng + ?Sized>(
        rng: &mut R,
        public: &RsaPublicKey,
        message: &[u8],
    ) -> (BlindingSession, BlindedMessage) {
        let h = BigUint::from_bytes_be(&sha256(message)).rem(public.n());
        // Find r with gcd(r, n) = 1 and an inverse mod n.
        let (r, r_inv) = loop {
            let r = BigUint::random_below(rng, public.n());
            if r.is_zero() {
                continue;
            }
            if let Some(inv) = r.mod_inverse(public.n()) {
                break (r, inv);
            }
        };
        let blinded = public.mul_mod(&h, &public.apply(&r));
        (
            BlindingSession { message: message.to_vec(), r_inv, public: public.clone() },
            BlindedMessage(blinded),
        )
    }

    /// Unblind the mint's signature; returns the ordinary RSA signature on
    /// the original message's digest, or an error if the mint cheated.
    pub fn unblind(self, blind_sig: &BlindSignature) -> orsp_types::Result<BigUint> {
        let sig = self.public.mul_mod(&blind_sig.0, &self.r_inv);
        if self.public.verify_digest(&sha256(&self.message), &sig) {
            Ok(sig)
        } else {
            Err(orsp_types::OrspError::Crypto(
                "unblinded signature failed verification (mint misbehaved?)".into(),
            ))
        }
    }

    /// The message this session is blinding (client-side bookkeeping).
    pub fn message(&self) -> &[u8] {
        &self.message
    }
}

/// The mint's half: sign a blinded message with the private key. A thin
/// wrapper so the mint's code never accidentally hashes or inspects the
/// value (it *can't* learn anything, but the type makes intent explicit).
/// Fails, releasing nothing, when the signature fails its own check (see
/// [`RsaKeyPair::apply_private`]).
pub fn sign_blinded(
    keypair: &RsaKeyPair,
    blinded: &BlindedMessage,
) -> orsp_types::Result<BlindSignature> {
    keypair.apply_private(&blinded.0).map(BlindSignature)
}

/// Verify an unblinded token signature against the mint's public key.
pub fn verify_unblinded(public: &RsaPublicKey, message: &[u8], signature: &BigUint) -> bool {
    public.verify_digest(&sha256(message), signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (RsaKeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        (kp, rng)
    }

    #[test]
    fn blind_sign_unblind_verifies() {
        let (kp, mut rng) = setup(1);
        let msg = b"token-0001";
        let (session, blinded) = BlindingSession::blind(&mut rng, &kp.public, msg);
        let blind_sig = sign_blinded(&kp, &blinded).unwrap();
        let sig = session.unblind(&blind_sig).expect("honest mint");
        assert!(verify_unblinded(&kp.public, msg, &sig));
    }

    #[test]
    fn mint_never_sees_message_digest() {
        // Blindness: the blinded value differs from the raw digest and from
        // blind-to-blind (fresh r each time).
        let (kp, mut rng) = setup(2);
        let msg = b"token-0002";
        let digest = BigUint::from_bytes_be(&sha256(msg)).rem(kp.public.n());
        let (_, b1) = BlindingSession::blind(&mut rng, &kp.public, msg);
        let (_, b2) = BlindingSession::blind(&mut rng, &kp.public, msg);
        assert_ne!(b1.0, digest);
        assert_ne!(b2.0, digest);
        assert_ne!(b1, b2, "fresh blinding factor every session");
    }

    #[test]
    fn dishonest_mint_detected() {
        let (kp, mut rng) = setup(3);
        let (session, _blinded) = BlindingSession::blind(&mut rng, &kp.public, b"tok");
        // Mint returns garbage.
        let garbage = BlindSignature(BigUint::from_u64(12345));
        assert!(session.unblind(&garbage).is_err());
    }

    #[test]
    fn signature_does_not_transfer_between_messages() {
        let (kp, mut rng) = setup(4);
        let (session, blinded) = BlindingSession::blind(&mut rng, &kp.public, b"tok-A");
        let blind_sig = sign_blinded(&kp, &blinded).unwrap();
        let sig = session.unblind(&blind_sig).unwrap();
        assert!(verify_unblinded(&kp.public, b"tok-A", &sig));
        assert!(!verify_unblinded(&kp.public, b"tok-B", &sig));
    }

    #[test]
    fn unblinded_signature_equals_direct_signature() {
        // Correctness: unblind(sign(blind(m))) == sign(m).
        let (kp, mut rng) = setup(5);
        let msg = b"token-direct";
        let (session, blinded) = BlindingSession::blind(&mut rng, &kp.public, msg);
        let blind_sig = sign_blinded(&kp, &blinded).unwrap();
        let via_blind = session.unblind(&blind_sig).unwrap();
        let direct = kp.sign_digest(&sha256(msg)).unwrap();
        assert_eq!(via_blind, direct);
    }
}
