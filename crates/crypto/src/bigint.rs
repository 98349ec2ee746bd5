//! Arbitrary-precision unsigned integers.
//!
//! A deliberately small big-integer: little-endian `u64` limbs, schoolbook
//! multiplication and Knuth Algorithm D division. Odd moduli (every RSA
//! modulus and prime) get Montgomery arithmetic: a CIOS multiply into
//! fixed scratch limbs and fixed-window exponentiation, plus an in-place
//! binary extended-GCD inverse. Even moduli keep square-and-multiply and
//! the signed extended Euclid. RSA at the simulation-grade key sizes used
//! here (256–512 bits) needs nothing fancier, and simplicity over
//! cleverness is the house style (cf. the smoltcp design notes in the
//! networking guides).

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` is little-endian with no trailing zero limbs; zero is
/// the empty vector.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// From big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// To big-endian bytes, no leading zeros (empty for 0).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zeros.
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first);
        out
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().map_or(true, |l| l & 1 == 0)
    }

    /// Lowest 64 bits (truncating).
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    /// Number of significant bits (0 for value 0).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// The `i`-th bit (LSB is bit 0).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        match self.limbs.get(limb) {
            None => false,
            Some(&l) => (l >> (i % 64)) & 1 == 1,
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// From little-endian limbs (trailing zeros allowed).
    fn from_limbs(limbs: &[u64]) -> BigUint {
        let mut n = BigUint {
            limbs: limbs.to_vec(),
        };
        n.normalize();
        n
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (longer, shorter) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(longer.len() + 1);
        let mut carry = 0u64;
        for i in 0..longer.len() {
            let b = shorter.get(i).copied().unwrap_or(0);
            let (s1, c1) = longer[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry > 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Subtraction; `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self.cmp_big(other) == Ordering::Less {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// Subtraction; panics on underflow.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other).expect("BigUint subtraction underflow")
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            return if bits == 0 { self.clone() } else { BigUint::zero() };
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Comparison (named to avoid clashing with `Ord::cmp` call syntax).
    pub fn cmp_big(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Quotient and remainder. Panics if `divisor` is zero.
    ///
    /// Knuth Algorithm D (TAOCP vol. 2, 4.3.1) on 64-bit limbs, with a
    /// single-limb fast path — O(n·m) limb operations rather than the
    /// O(bits·n) of naive shift-subtract, which matters because `rem`
    /// sits inside every modular multiplication.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        // Single-limb divisor: schoolbook short division.
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u128;
            let mut q = vec![0u64; self.limbs.len()];
            let mut rem: u128 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d) as u64;
                rem = cur % d;
            }
            let mut quotient = BigUint { limbs: q };
            quotient.normalize();
            return (quotient, BigUint::from_u64(rem as u64));
        }

        // Normalize: shift so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u_norm = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let mut u = u_norm.limbs.clone();
        u.push(0); // extra limb for the algorithm's u[j+n]
        let m = u.len() - n - 1;
        let v_top = v.limbs[n - 1] as u128;
        let v_next = v.limbs[n - 2] as u128;

        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // Estimate qhat from the top two limbs of the current window.
            let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = top / v_top;
            let mut rhat = top % v_top;
            while qhat >> 64 != 0
                || qhat * v_next > ((rhat << 64) | u[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // Multiply-subtract: u[j..j+n+1] -= qhat * v.
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = qhat * v.limbs[i] as u128 + carry;
                carry = p >> 64;
                let sub = (u[j + i] as i128) - (p as u64 as i128) + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = (u[j + n] as i128) - (carry as i128) + borrow;
            u[j + n] = sub as u64;

            if sub < 0 {
                // qhat was one too large: add back.
                qhat -= 1;
                let mut carry: u128 = 0;
                for i in 0..n {
                    let s = u[j + i] as u128 + v.limbs[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = (u[j + n] as u128).wrapping_add(carry) as u64;
            }
            q[j] = qhat as u64;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut remainder = BigUint { limbs: u[..n].to_vec() };
        remainder.normalize();
        (quotient, remainder.shr(shift))
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Return a copy with bit `i` set.
    fn set_bit(mut self, i: usize) -> BigUint {
        let limb = i / 64;
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
        self
    }

    /// Modular addition.
    pub fn add_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.add(other).rem(modulus)
    }

    /// Modular multiplication.
    pub fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Modular exponentiation. Odd moduli take Montgomery multiplication
    /// with fixed windows; even ones square-and-multiply.
    pub fn mod_pow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        if modulus.is_even() {
            return self.mod_pow_plain(exponent, modulus);
        }
        Montgomery::new(modulus).pow(self, exponent)
    }

    /// Square-and-multiply over [`Self::mul_mod`], for even moduli
    /// `> 1` (no RSA modulus or prime is one).
    fn mod_pow_plain(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        let mut result = BigUint::one();
        let mut base = self.rem(modulus);
        for i in 0..exponent.bit_len() {
            if exponent.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
            base = base.mul_mod(&base, modulus);
        }
        result
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` modulo `m`, or `None` if not coprime.
    ///
    /// Odd moduli (every RSA modulus and prime) take the binary
    /// extended GCD, in place over four fixed-width registers: shifts and
    /// additions only, no division, which makes the per-token blinding
    /// step cheap. Even moduli use the signed extended Euclid.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        if m.is_even() {
            return self.mod_inverse_euclid(m);
        }
        let k = m.limbs.len();
        // Registers u, v (the gcd pair) and x1, x2 (kept in [0, m)) with
        // x1·self ≡ u and x2·self ≡ v (mod m) throughout.
        let mut regs = vec![0u64; 4 * k];
        let (u, rest) = regs.split_at_mut(k);
        let (v, rest) = rest.split_at_mut(k);
        let (x1, x2) = rest.split_at_mut(k);
        load_reduced(self, m, u);
        v.copy_from_slice(&m.limbs);
        x1[0] = 1;
        loop {
            if is_one(u) {
                return Some(BigUint::from_limbs(x1));
            }
            if is_one(v) {
                return Some(BigUint::from_limbs(x2));
            }
            if is_zero(u) {
                // u reached v: gcd(self, m) = v > 1, no inverse.
                return None;
            }
            while u[0] & 1 == 0 {
                shr1(u, false);
                half_mod(x1, &m.limbs);
            }
            while v[0] & 1 == 0 {
                shr1(v, false);
                half_mod(x2, &m.limbs);
            }
            if less(u, v) {
                sub_assign(v, u);
                sub_mod(x2, x1, &m.limbs);
            } else {
                sub_assign(u, v);
                sub_mod(x1, x2, &m.limbs);
            }
        }
    }

    /// Extended Euclid with signed Bézout tracking, for any modulus `> 1`.
    fn mod_inverse_euclid(&self, m: &BigUint) -> Option<BigUint> {
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        // t0, t1 are Bézout coefficients as (negative?, magnitude).
        let mut t0: (bool, BigUint) = (false, BigUint::zero());
        let mut t1: (bool, BigUint) = (false, BigUint::one());
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1 (signed arithmetic)
            let qt1 = q.mul(&t1.1);
            let t2 = signed_sub(t0.clone(), (t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        // Reduce t0 into [0, m).
        let mag = t0.1.rem(m);
        Some(if t0.0 && !mag.is_zero() { m.sub(&mag) } else { mag })
    }

    /// Uniform random value in `[0, bound)`. Panics if `bound` is zero.
    ///
    /// Rejection sampling on `bit_len(bound)`-bit draws: accepts with
    /// probability > 1/2 per round, so the expected number of rounds is
    /// below 2.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below zero bound");
        let bits = bound.bit_len();
        loop {
            let candidate = Self::random_bits(rng, bits);
            if candidate.cmp_big(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Random value with at most `bits` bits.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        let limbs_needed = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.gen()).collect();
        let extra = limbs_needed * 64 - bits;
        if extra > 0 {
            if let Some(top) = limbs.last_mut() {
                *top &= u64::MAX >> extra;
            }
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Random value with *exactly* `bits` bits (top bit set). `bits >= 1`.
    pub fn random_exact_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 1);
        let n = Self::random_bits(rng, bits);
        n.set_bit(bits - 1)
    }
}

/// Montgomery arithmetic modulo a fixed odd `n > 1` of `k` limbs, with
/// `R = 2^(64k)`. A value `x` is held in Montgomery form `x·R mod n`, where
/// a product needs no division: [`Self::mul_into`] folds the reduction
/// into the multiply (CIOS, Koç et al. 1996) over `k + 2` scratch limbs.
/// Build one per modulus and reuse it; RSA keys cache theirs.
#[derive(Debug, Clone)]
pub(crate) struct Montgomery {
    n: BigUint,
    /// `-n⁻¹ mod 2⁶⁴`.
    n0_inv: u64,
    /// `R² mod n`, padded to `k` limbs: one product by it enters
    /// Montgomery form.
    r2: Vec<u64>,
}

impl Montgomery {
    /// The context for modulus `n`. Panics unless `n` is odd and `> 1`.
    pub(crate) fn new(n: &BigUint) -> Self {
        assert!(!n.is_even() && !n.is_one(), "modulus must be odd and > 1");
        let k = n.limbs.len();
        // Newton's step doubles the correct low bits of n⁻¹ mod 2⁶⁴:
        // 1 → 2 → 4 → … → 64 in six steps.
        let n0 = n.limbs[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let mut r2 = vec![0u64; k];
        load_reduced(&BigUint::one().shl(128 * k), n, &mut r2);
        Montgomery {
            n: n.clone(),
            n0_inv: inv.wrapping_neg(),
            r2,
        }
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `t[..k] = a·b·R⁻¹ mod n` for `a, b < n` of `k` limbs; `t` holds
    /// `k + 2` limbs. No allocation.
    fn mul_into(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = &self.n.limbs[..];
        let k = n.len();
        let (a, b, t) = (&a[..k], &b[..k], &mut t[..k + 2]);
        t.fill(0);
        for &ai in a {
            // t += ai·b
            let mut carry = 0;
            for j in 0..k {
                (t[j], carry) = mac(t[j], ai, b[j], carry);
            }
            let (s, c) = t[k].overflowing_add(carry);
            t[k] = s;
            t[k + 1] = c as u64;
            // t = (t + m·n) / 2⁶⁴, with m chosen so the low limb cancels.
            let m = t[0].wrapping_mul(self.n0_inv);
            let (_, mut carry) = mac(t[0], m, n[0], 0);
            for j in 1..k {
                (t[j - 1], carry) = mac(t[j], m, n[j], carry);
            }
            let (s, c) = t[k].overflowing_add(carry);
            t[k - 1] = s;
            t[k] = t[k + 1] + c as u64;
        }
        // t < 2n, so one conditional subtraction lands in [0, n).
        if t[k] != 0 || !less(&t[..k], n) {
            sub_assign(&mut t[..k], n);
        }
    }

    /// `base^exp mod n` by fixed-window exponentiation: 4-bit windows
    /// over a table of `base^1..base^15`, or plain square-and-multiply
    /// for exponents of at most 32 bits (such as `e = 65537`), where the
    /// table would cost more than it saves. One scratch allocation per
    /// call; none in the loop.
    pub(crate) fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        let bits = exp.bit_len();
        if bits == 0 {
            return BigUint::one();
        }
        let k = self.n.limbs.len();
        let w = if bits <= 32 { 1 } else { 4 };
        // table[i] = base^(i+1)·R, then the accumulator, then the scratch.
        let entries = (1usize << w) - 1;
        let mut buf = vec![0u64; entries * k + k + k + 2];
        let (table, rest) = buf.split_at_mut(entries * k);
        let (acc, t) = rest.split_at_mut(k);
        load_reduced(base, &self.n, acc);
        self.mul_into(acc, &self.r2, t);
        table[..k].copy_from_slice(&t[..k]);
        for i in 1..entries {
            let (done, next) = table.split_at_mut(i * k);
            self.mul_into(&done[(i - 1) * k..], &done[..k], t);
            next[..k].copy_from_slice(&t[..k]);
        }
        let digit = |i: usize| (0..w).fold(0, |d, b| d | (exp.bit(i * w + b) as usize) << b);
        let digits = bits.div_ceil(w);
        // The top digit holds the exponent's top bit, so it is nonzero.
        let top = digit(digits - 1);
        acc.copy_from_slice(&table[(top - 1) * k..top * k]);
        for i in (0..digits - 1).rev() {
            for _ in 0..w {
                self.mul_into(acc, acc, t);
                acc.copy_from_slice(&t[..k]);
            }
            let d = digit(i);
            if d != 0 {
                self.mul_into(acc, &table[(d - 1) * k..d * k], t);
                acc.copy_from_slice(&t[..k]);
            }
        }
        // Leave Montgomery form: one product by plain 1.
        let one = &mut table[..k];
        one.fill(0);
        one[0] = 1;
        self.mul_into(acc, one, t);
        BigUint::from_limbs(&t[..k])
    }

    /// `a·b mod n`, for any `a` and `b`: two Montgomery products, the
    /// second by `R²` to cancel the first's `R⁻¹`.
    pub(crate) fn mul_mod(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let k = self.n.limbs.len();
        let mut buf = vec![0u64; k + k + k + 2];
        let (x, rest) = buf.split_at_mut(k);
        let (y, t) = rest.split_at_mut(k);
        load_reduced(a, &self.n, x);
        load_reduced(b, &self.n, y);
        self.mul_into(x, y, t);
        x.copy_from_slice(&t[..k]);
        self.mul_into(x, &self.r2, t);
        BigUint::from_limbs(&t[..k])
    }
}

/// Write `x mod m` into `out` (`m`'s limb count), zero-padded; divides
/// only when `x >= m`.
fn load_reduced(x: &BigUint, m: &BigUint, out: &mut [u64]) {
    out.fill(0);
    if x.cmp_big(m) == Ordering::Less {
        out[..x.limbs.len()].copy_from_slice(&x.limbs);
    } else {
        let r = x.rem(m);
        out[..r.limbs.len()].copy_from_slice(&r.limbs);
    }
}

/// `t + a·b + carry` as (low, high) limbs; cannot overflow 128 bits.
#[inline(always)]
fn mac(t: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let s = t as u128 + a as u128 * b as u128 + carry as u128;
    (s as u64, (s >> 64) as u64)
}

/// `a < b` over equal-width limb slices.
fn less(a: &[u64], b: &[u64]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&l| l == 0)
}

fn is_one(a: &[u64]) -> bool {
    a[0] == 1 && is_zero(&a[1..])
}

/// `a += b` over equal widths; returns the carry out.
fn add_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        *x = s2;
        carry = c1 | c2;
    }
    carry
}

/// `a -= b` over equal widths, wrapping; returns the borrow out.
fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *x = d2;
        borrow = b1 | b2;
    }
    borrow
}

/// `a >>= 1`, shifting `top` in as the new high bit.
fn shr1(a: &mut [u64], top: bool) {
    let mut carry = top as u64;
    for x in a.iter_mut().rev() {
        let low = *x & 1;
        *x = (*x >> 1) | (carry << 63);
        carry = low;
    }
}

/// `x = x / 2 mod m` for odd `m` and `x < m`: `x/2` if even, else
/// `(x + m)/2`, whose carry bit shifts back in from the top.
fn half_mod(x: &mut [u64], m: &[u64]) {
    let carry = x[0] & 1 == 1 && add_assign(x, m);
    shr1(x, carry);
}

/// `x = (x - y) mod m` for `x, y < m`.
fn sub_mod(x: &mut [u64], y: &[u64], m: &[u64]) {
    if sub_assign(x, y) {
        add_assign(x, m);
    }
}

/// Signed subtraction over (negative?, magnitude) pairs: `a - b`.
fn signed_sub(a: (bool, BigUint), b: (bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both non-negative
        (false, false) => match a.1.cmp_big(&b.1) {
            Ordering::Less => (true, b.1.sub(&a.1)),
            _ => (false, a.1.sub(&b.1)),
        },
        // (-a) - (-b) = b - a
        (true, true) => match b.1.cmp_big(&a.1) {
            Ordering::Less => (true, a.1.sub(&b.1)),
            _ => (false, b.1.sub(&a.1)),
        },
        // a - (-b) = a + b
        (false, true) => (false, a.1.add(&b.1)),
        // (-a) - b = -(a + b)
        (true, false) => (true, a.1.add(&b.1)),
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp_big(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0)");
        }
        write!(f, "BigUint(0x")?;
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal via repeated division by 10^19 (largest power of 10 in u64).
        if self.is_zero() {
            return write!(f, "0");
        }
        let chunk = BigUint::from_u64(10_000_000_000_000_000_000);
        let mut parts = Vec::new();
        let mut n = self.clone();
        while !n.is_zero() {
            let (q, r) = n.div_rem(&chunk);
            parts.push(r.low_u64());
            n = q;
        }
        write!(f, "{}", parts.pop().unwrap())?;
        for p in parts.iter().rev() {
            write!(f, "{p:019}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn basic_construction() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(big(42).low_u64(), 42);
        assert!(big(0).is_zero());
    }

    #[test]
    fn bytes_round_trip() {
        let n = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(n.to_bytes_be(), vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        // Leading zeros in input are dropped on output.
        let m = BigUint::from_bytes_be(&[0x00, 0x00, 0xff]);
        assert_eq!(m.to_bytes_be(), vec![0xff]);
        assert_eq!(BigUint::zero().to_bytes_be(), Vec::<u8>::new());
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(big(2).add(&big(3)), big(5));
        assert_eq!(big(5).sub(&big(3)), big(2));
        assert_eq!(big(3).checked_sub(&big(5)), None);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let sum = a.add(&BigUint::one());
        assert_eq!(sum.bit_len(), 65);
        assert_eq!(sum.sub(&BigUint::one()), a);
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(big(7).mul(&big(6)), big(42));
        assert_eq!(big(0).mul(&big(6)), BigUint::zero());
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let m = BigUint::from_u64(u64::MAX);
        let sq = m.mul(&m);
        let expected = BigUint::one()
            .shl(128)
            .sub(&BigUint::one().shl(65))
            .add(&BigUint::one());
        assert_eq!(sq, expected);
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl(64).bit_len(), 65);
        assert_eq!(big(1).shl(64).shr(64), big(1));
        assert_eq!(big(0b1010).shr(1), big(0b101));
        assert_eq!(big(1).shr(1), BigUint::zero());
        assert_eq!(big(5).shl(0), big(5));
    }

    #[test]
    fn bit_access() {
        let n = big(0b1001);
        assert!(n.bit(0));
        assert!(!n.bit(1));
        assert!(n.bit(3));
        assert!(!n.bit(64));
        assert_eq!(n.bit_len(), 4);
        assert_eq!(BigUint::zero().bit_len(), 0);
    }

    #[test]
    fn div_rem_known() {
        let (q, r) = big(100).div_rem(&big(7));
        assert_eq!(q, big(14));
        assert_eq!(r, big(2));
        let (q, r) = big(5).div_rem(&big(7));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r, big(5));
        let (q, r) = big(7).div_rem(&big(7));
        assert_eq!(q, BigUint::one());
        assert_eq!(r, BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(1).div_rem(&BigUint::zero());
    }

    #[test]
    fn mod_pow_known() {
        // 4^13 mod 497 = 445
        assert_eq!(big(4).mod_pow(&big(13), &big(497)), big(445));
        // Fermat: 2^(p-1) = 1 mod p for prime p
        assert_eq!(big(2).mod_pow(&big(1_000_003 - 1), &big(1_000_003)), BigUint::one());
        assert_eq!(big(5).mod_pow(&BigUint::zero(), &big(7)), BigUint::one());
        assert_eq!(big(5).mod_pow(&big(100), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn gcd_known() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(5)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
    }

    #[test]
    fn mod_inverse_known() {
        // 3 * 4 = 12 = 1 mod 11
        assert_eq!(big(3).mod_inverse(&big(11)), Some(big(4)));
        // Not coprime
        assert_eq!(big(6).mod_inverse(&big(9)), None);
        // Inverse of 1 is 1
        assert_eq!(big(1).mod_inverse(&big(7)), Some(big(1)));
    }

    #[test]
    fn display_decimal() {
        assert_eq!(BigUint::zero().to_string(), "0");
        assert_eq!(big(12345).to_string(), "12345");
        // 2^64 = 18446744073709551616
        assert_eq!(big(1).shl(64).to_string(), "18446744073709551616");
        // 2^128
        assert_eq!(
            big(1).shl(128).to_string(),
            "340282366920938463463374607431768211456"
        );
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let bound = big(1000);
        for _ in 0..100 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_exact_bits_sets_top_bit() {
        let mut rng = StdRng::seed_from_u64(7);
        for bits in [1usize, 7, 64, 65, 128, 257] {
            let v = BigUint::random_exact_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits, "bits={bits}");
        }
    }

    /// Test-only reference: right-to-left square-and-multiply over
    /// `mul` + Knuth-D `rem`.
    fn naive_mod_pow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let mut result = BigUint::one().rem(m);
        let mut b = base.rem(m);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul(&b).rem(m);
            }
            b = b.mul(&b).rem(m);
        }
        result
    }

    /// Odd moduli of `limbs` limbs: random, a top limb of 1, all ones
    /// (2^64k − 1), and 2^k − 1 with a short top limb.
    fn odd_moduli(rng: &mut StdRng, limbs: usize) -> Vec<BigUint> {
        let bits = 64 * limbs;
        let random = BigUint::random_exact_bits(rng, bits).set_bit(0);
        let small_top = BigUint::random_bits(rng, bits - 64)
            .set_bit(bits - 64)
            .set_bit(0);
        let all_ones = BigUint::one().shl(bits).sub(&BigUint::one());
        let short = BigUint::one().shl(bits - 7).sub(&BigUint::one());
        let mut out = vec![random, small_top, all_ones, short];
        // A single limb has no separate top limb: its "small top" is 1.
        out.retain(|m| !m.is_one());
        out
    }

    #[test]
    fn montgomery_mod_pow_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for limbs in 1..=16usize {
            for m in odd_moduli(&mut rng, limbs) {
                let exps = [
                    BigUint::zero(),
                    BigUint::one(),
                    big(65_537),
                    BigUint::one().shl(32).sub(&BigUint::one()),
                    BigUint::one().shl(33),
                    BigUint::random_bits(&mut rng, 100),
                    BigUint::random_exact_bits(&mut rng, 64 * limbs.min(4)),
                ];
                let bases = [
                    BigUint::zero(),
                    BigUint::one(),
                    m.sub(&BigUint::one()),
                    m.clone(),
                    m.add(&BigUint::one()),
                    BigUint::random_below(&mut rng, &m),
                    BigUint::random_bits(&mut rng, 64 * limbs + 130),
                ];
                for e in &exps {
                    for b in &bases {
                        assert_eq!(
                            b.mod_pow(e, &m),
                            naive_mod_pow(b, e, &m),
                            "limbs={limbs} m={m:?} b={b:?} e={e:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn montgomery_mul_mod_matches_plain() {
        let mut rng = StdRng::seed_from_u64(22);
        for limbs in 1..=16usize {
            for m in odd_moduli(&mut rng, limbs) {
                let ctx = Montgomery::new(&m);
                for _ in 0..4 {
                    let a = BigUint::random_bits(&mut rng, 64 * limbs + 70);
                    let b = BigUint::random_below(&mut rng, &m);
                    assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m), "m={m:?}");
                }
            }
        }
    }

    #[test]
    fn binary_inverse_matches_euclid_on_odd_moduli() {
        let mut rng = StdRng::seed_from_u64(23);
        for limbs in 1..=16usize {
            for m in odd_moduli(&mut rng, limbs) {
                let mut values = vec![
                    BigUint::zero(),
                    BigUint::one(),
                    m.clone(),
                    m.sub(&BigUint::one()),
                    m.add(&big(2)),
                    BigUint::random_bits(&mut rng, 64 * limbs + 64),
                ];
                values.extend((0..6).map(|_| BigUint::random_below(&mut rng, &m)));
                for a in &values {
                    let inv = a.mod_inverse(&m);
                    assert_eq!(inv, a.mod_inverse_euclid(&m), "m={m:?} a={a:?}");
                    if let Some(inv) = inv {
                        assert!(inv < m);
                        assert!(a.mul_mod(&inv, &m).is_one());
                    }
                }
            }
        }
    }

    #[test]
    fn binary_inverse_none_on_shared_factor() {
        let mut rng = StdRng::seed_from_u64(24);
        for limbs in 1..=8usize {
            // m = f·g with odd f > 1; any multiple of f has no inverse.
            let f = BigUint::random_exact_bits(&mut rng, 32 * limbs).set_bit(0);
            let g = BigUint::random_exact_bits(&mut rng, 32 * limbs).set_bit(0);
            let m = f.mul(&g);
            for a in [f.clone(), g.clone(), f.mul(&big(6)), f.mul(&g).mul(&big(5))] {
                assert_eq!(a.mod_inverse(&m), None, "m={m:?} a={a:?}");
            }
        }
        assert_eq!(big(21).mod_inverse(&big(35)), None);
        assert_eq!(big(0).mod_inverse(&big(35)), None);
    }

    proptest! {
        #[test]
        fn add_sub_round_trip(a in any::<u64>(), b in any::<u64>()) {
            let sum = big(a).add(&big(b));
            prop_assert_eq!(sum.sub(&big(b)), big(a));
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let prod = big(a).mul(&big(b));
            let expected = a as u128 * b as u128;
            let bytes = prod.to_bytes_be();
            let mut val = 0u128;
            for byte in bytes { val = (val << 8) | byte as u128; }
            prop_assert_eq!(val, expected);
        }

        #[test]
        fn div_rem_reconstructs(a in any::<u64>(), b in 1u64..) {
            let (q, r) = big(a).div_rem(&big(b));
            prop_assert_eq!(q.mul(&big(b)).add(&r), big(a));
            prop_assert!(r < big(b));
        }

        #[test]
        fn bytes_round_trip_prop(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
            let n = BigUint::from_bytes_be(&bytes);
            let round = BigUint::from_bytes_be(&n.to_bytes_be());
            prop_assert_eq!(n, round);
        }

        #[test]
        fn mod_inverse_is_inverse(a in 2u64.., m in 3u64..) {
            let a = big(a);
            let m = big(m);
            if let Some(inv) = a.mod_inverse(&m) {
                prop_assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
                prop_assert!(inv < m);
            } else {
                prop_assert!(!a.gcd(&m).is_one());
            }
        }

        #[test]
        fn shift_round_trip(v in any::<u64>(), s in 0usize..200) {
            prop_assert_eq!(big(v).shl(s).shr(s), big(v));
        }

        #[test]
        fn mod_pow_matches_naive(base in 0u64..1000, exp in 0u64..30, m in 2u64..10_000) {
            let expected = {
                let mut acc: u128 = 1;
                for _ in 0..exp { acc = acc * base as u128 % m as u128; }
                acc as u64
            };
            prop_assert_eq!(big(base).mod_pow(&big(exp), &big(m)), big(expected));
        }
    }
}
