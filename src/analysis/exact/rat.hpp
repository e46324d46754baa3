#pragma once
// Exact arbitrary-precision rational arithmetic for the proof layer.
//
// analysis::BigInt is a sign-magnitude bignum over 64-bit limbs with
// __uint128_t intermediates; analysis::Rat is a always-reduced fraction with
// positive denominator. No external dependencies, header-only, and no
// floating-point state: the only `double` appearances are the I/O boundary
// (exact dyadic decomposition on the way in, display-only conversion on the
// way out), each annotated `rat-io` for the banned-pattern lint.
//
// Design notes:
//  - Every double is an exactly representable dyadic rational, so
//    Rat(double) is lossless (frexp + 53-bit mantissa extraction). All
//    downstream arithmetic is exact.
//  - Reduction is dyadic-first: every double imports with a power-of-two
//    denominator, and sums and products of such values keep one, so
//    normalize() reduces those by a shift of min(ctz(num), ctz(den)) with
//    no gcd at all. Other denominators take a binary (ctz-based) gcd, which
//    stops as soon as either odd part is 1.
//  - Division is Knuth's algorithm D. It exists for two callers: the exact
//    division steps of fraction-free (Bareiss) elimination, and decimal
//    printing. Rat itself never divides limbs except through gcd reduction.
#include <algorithm>
#include <cstdint>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace nd::analysis {

// GCC/Clang 128-bit intermediate for 64x64 limb products; __extension__
// silences -Wpedantic (the type is not ISO C++ but both toolchains have it).
__extension__ typedef unsigned __int128 u128;


class BigInt {
 public:
  BigInt() = default;
  BigInt(std::int64_t v) {  // NOLINT(google-explicit-constructor)
    if (v == 0) return;
    neg_ = v < 0;
    // Avoid UB negating INT64_MIN: go through the unsigned magnitude.
    std::uint64_t mag =
        neg_ ? ~static_cast<std::uint64_t>(v) + 1u : static_cast<std::uint64_t>(v);
    limbs_.push_back(mag);
  }
  BigInt(int v) : BigInt(static_cast<std::int64_t>(v)) {}  // NOLINT

  static BigInt from_u64(std::uint64_t v) {
    BigInt r;
    if (v != 0) r.limbs_.push_back(v);
    return r;
  }

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return neg_; }
  int sign() const { return is_zero() ? 0 : (neg_ ? -1 : 1); }

  bool fits_i64() const {
    if (limbs_.size() > 1) return false;
    if (limbs_.empty()) return true;
    std::uint64_t lim = neg_ ? (std::uint64_t{1} << 63) : (std::uint64_t{1} << 63) - 1;
    return limbs_[0] <= lim;
  }
  std::int64_t to_i64() const {
    if (limbs_.empty()) return 0;
    std::uint64_t m = limbs_[0];
    return neg_ ? -static_cast<std::int64_t>(m - 1) - 1 : static_cast<std::int64_t>(m);
  }

  std::size_t num_limbs() const { return limbs_.size(); }
  std::uint64_t limb(std::size_t i) const { return i < limbs_.size() ? limbs_[i] : 0; }
  std::size_t bit_length() const {
    if (limbs_.empty()) return 0;
    std::uint64_t top = limbs_.back();
    std::size_t bits = (limbs_.size() - 1) * 64;
    while (top != 0) {
      ++bits;
      top >>= 1;
    }
    return bits;
  }

  BigInt operator-() const {
    BigInt r = *this;
    if (!r.is_zero()) r.neg_ = !r.neg_;
    return r;
  }
  BigInt abs() const {
    BigInt r = *this;
    r.neg_ = false;
    return r;
  }

  // ---- comparison -----------------------------------------------------------
  static int cmp_mag(const BigInt& a, const BigInt& b) {
    if (a.limbs_.size() != b.limbs_.size())
      return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
    for (std::size_t i = a.limbs_.size(); i-- > 0;) {
      if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
    return 0;
  }
  static int cmp(const BigInt& a, const BigInt& b) {
    if (a.sign() != b.sign()) return a.sign() < b.sign() ? -1 : 1;
    int m = cmp_mag(a, b);
    return a.neg_ ? -m : m;
  }
  friend bool operator==(const BigInt& a, const BigInt& b) { return cmp(a, b) == 0; }
  friend bool operator!=(const BigInt& a, const BigInt& b) { return cmp(a, b) != 0; }
  friend bool operator<(const BigInt& a, const BigInt& b) { return cmp(a, b) < 0; }
  friend bool operator<=(const BigInt& a, const BigInt& b) { return cmp(a, b) <= 0; }
  friend bool operator>(const BigInt& a, const BigInt& b) { return cmp(a, b) > 0; }
  friend bool operator>=(const BigInt& a, const BigInt& b) { return cmp(a, b) >= 0; }

  // ---- add / sub ------------------------------------------------------------
  friend BigInt operator+(const BigInt& a, const BigInt& b) {
    if (a.neg_ == b.neg_) {
      BigInt r;
      r.limbs_ = add_mag(a.limbs_, b.limbs_);
      r.neg_ = a.neg_ && !r.limbs_.empty();
      return r;
    }
    int m = cmp_mag(a, b);
    if (m == 0) return BigInt{};
    BigInt r;
    if (m > 0) {
      r.limbs_ = sub_mag(a.limbs_, b.limbs_);
      r.neg_ = a.neg_;
    } else {
      r.limbs_ = sub_mag(b.limbs_, a.limbs_);
      r.neg_ = b.neg_;
    }
    if (r.limbs_.empty()) r.neg_ = false;
    return r;
  }
  friend BigInt operator-(const BigInt& a, const BigInt& b) { return a + (-b); }
  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }

  // ---- mul ------------------------------------------------------------------
  friend BigInt operator*(const BigInt& a, const BigInt& b) {
    if (a.is_zero() || b.is_zero()) return BigInt{};
    BigInt r;
    r.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
    for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
      std::uint64_t carry = 0;
      const std::uint64_t ai = a.limbs_[i];
      if (ai == 0) continue;
      for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
        u128 t = static_cast<u128>(ai) * b.limbs_[j] +
                              r.limbs_[i + j] + carry;
        r.limbs_[i + j] = static_cast<std::uint64_t>(t);
        carry = static_cast<std::uint64_t>(t >> 64);
      }
      r.limbs_[i + b.limbs_.size()] += carry;
    }
    r.trim();
    r.neg_ = a.neg_ != b.neg_;
    return r;
  }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }

  // ---- shifts ---------------------------------------------------------------
  BigInt shl(std::size_t bits) const {
    if (is_zero() || bits == 0) return *this;
    std::size_t limb_shift = bits / 64, bit_shift = bits % 64;
    BigInt r;
    r.neg_ = neg_;
    r.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
      r.limbs_[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
      if (bit_shift != 0)
        r.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
    r.trim();
    return r;
  }
  BigInt shr(std::size_t bits) const {
    if (is_zero()) return *this;
    std::size_t limb_shift = bits / 64, bit_shift = bits % 64;
    if (limb_shift >= limbs_.size()) return BigInt{};
    BigInt r;
    r.neg_ = neg_;
    r.limbs_.assign(limbs_.size() - limb_shift, 0);
    for (std::size_t i = 0; i < r.limbs_.size(); ++i) {
      r.limbs_[i] = bit_shift == 0 ? limbs_[i + limb_shift]
                                   : (limbs_[i + limb_shift] >> bit_shift);
      if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size())
        r.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
    r.trim();
    if (r.limbs_.empty()) r.neg_ = false;
    return r;
  }
  // Number of trailing zero bits (valid only for nonzero values).
  std::size_t ctz() const {
    std::size_t i = 0;
    while (limbs_[i] == 0) ++i;
    return i * 64 + static_cast<std::size_t>(__builtin_ctzll(limbs_[i]));
  }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  // |v| == 1.
  bool is_unit() const { return limbs_.size() == 1 && limbs_[0] == 1u; }
  // |v| is a power of two (false for zero).
  bool is_pow2() const {
    if (limbs_.empty()) return false;
    for (std::size_t i = 0; i + 1 < limbs_.size(); ++i) {
      if (limbs_[i] != 0) return false;
    }
    return (limbs_.back() & (limbs_.back() - 1)) == 0;
  }

  // ---- division -------------------------------------------------------------
  // Knuth algorithm D on magnitudes. Quotient truncates toward zero;
  // remainder carries the dividend's sign.
  static void divmod(const BigInt& a, const BigInt& b, BigInt& q, BigInt& r) {
    if (b.is_zero()) throw std::domain_error("BigInt divide by zero");
    int m = cmp_mag(a, b);
    if (m < 0) {
      q = BigInt{};
      r = a;
      return;
    }
    if (b.limbs_.size() == 1) {
      divmod_small(a.limbs_, b.limbs_[0], q.limbs_, r.limbs_);
    } else {
      divmod_mag(a.limbs_, b.limbs_, q.limbs_, r.limbs_);
    }
    q.trim();
    r.trim();
    q.neg_ = !q.limbs_.empty() && (a.neg_ != b.neg_);
    r.neg_ = !r.limbs_.empty() && a.neg_;
  }
  // Exact division: caller guarantees b | a (the Bareiss invariant).
  static BigInt div_exact(const BigInt& a, const BigInt& b) {
    BigInt q, r;
    divmod(a, b, q, r);
    if (!r.is_zero()) throw std::logic_error("BigInt::div_exact: not divisible");
    return q;
  }
  friend BigInt operator/(const BigInt& a, const BigInt& b) {
    BigInt q, r;
    divmod(a, b, q, r);
    return q;
  }
  friend BigInt operator%(const BigInt& a, const BigInt& b) {
    BigInt q, r;
    divmod(a, b, q, r);
    return r;
  }

  // ---- gcd ------------------------------------------------------------------
  static BigInt gcd(BigInt a, BigInt b) {
    a.neg_ = b.neg_ = false;
    if (a.is_zero()) return b;
    if (b.is_zero()) return a;
    std::size_t az = a.ctz(), bz = b.ctz();
    std::size_t shift = std::min(az, bz);
    a = a.shr(az);
    b = b.shr(bz);
    while (true) {
      // An odd part of 1 leaves no odd factor in common.
      if (a.is_unit() || b.is_unit()) return BigInt(1).shl(shift);
      int m = cmp_mag(a, b);
      if (m == 0) break;
      if (m < 0) std::swap(a, b);
      a = a - b;
      a = a.shr(a.ctz());
    }
    return a.shl(shift);
  }

  // ---- string ---------------------------------------------------------------
  std::string to_string() const {
    if (is_zero()) return "0";
    std::vector<std::uint64_t> mag = limbs_;
    std::string digits;
    while (!mag.empty()) {
      // Divide the magnitude by 10^19 in place, collecting the remainder.
      constexpr std::uint64_t kChunk = 10000000000000000000ull;
      u128 rem = 0;
      for (std::size_t i = mag.size(); i-- > 0;) {
        u128 cur = (rem << 64) | mag[i];
        mag[i] = static_cast<std::uint64_t>(cur / kChunk);
        rem = cur % kChunk;
      }
      while (!mag.empty() && mag.back() == 0) mag.pop_back();
      std::uint64_t r = static_cast<std::uint64_t>(rem);
      for (int k = 0; k < 19; ++k) {
        digits.push_back(static_cast<char>('0' + r % 10));
        r /= 10;
      }
    }
    while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
    if (neg_) digits.push_back('-');
    std::reverse(digits.begin(), digits.end());
    return digits;
  }

 private:
  void trim() {
    while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
    if (limbs_.empty()) neg_ = false;
  }

  static std::vector<std::uint64_t> add_mag(const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b) {
    const auto& big = a.size() >= b.size() ? a : b;
    const auto& small = a.size() >= b.size() ? b : a;
    std::vector<std::uint64_t> r(big.size() + 1, 0);
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < big.size(); ++i) {
      u128 t = static_cast<u128>(big[i]) + carry +
                            (i < small.size() ? small[i] : 0);
      r[i] = static_cast<std::uint64_t>(t);
      carry = static_cast<std::uint64_t>(t >> 64);
    }
    r[big.size()] = carry;
    while (!r.empty() && r.back() == 0) r.pop_back();
    return r;
  }
  // Requires |a| >= |b|.
  static std::vector<std::uint64_t> sub_mag(const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b) {
    std::vector<std::uint64_t> r(a.size(), 0);
    std::uint64_t borrow = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      std::uint64_t bi = i < b.size() ? b[i] : 0;
      u128 t = static_cast<u128>(a[i]) -
                            static_cast<u128>(bi) - borrow;
      r[i] = static_cast<std::uint64_t>(t);
      borrow = (t >> 64) != 0 ? 1 : 0;
    }
    while (!r.empty() && r.back() == 0) r.pop_back();
    return r;
  }

  static void divmod_small(const std::vector<std::uint64_t>& a, std::uint64_t d,
                           std::vector<std::uint64_t>& q,
                           std::vector<std::uint64_t>& r) {
    q.assign(a.size(), 0);
    u128 rem = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a[i];
      q[i] = static_cast<std::uint64_t>(cur / d);
      rem = cur % d;
    }
    r.clear();
    if (rem != 0) r.push_back(static_cast<std::uint64_t>(rem));
  }

  // Knuth TAOCP vol 2, algorithm 4.3.1-D. Requires b.size() >= 2 and |a|>=|b|.
  static void divmod_mag(const std::vector<std::uint64_t>& a_in,
                         const std::vector<std::uint64_t>& b_in,
                         std::vector<std::uint64_t>& q,
                         std::vector<std::uint64_t>& r) {
    // D1: normalise so the divisor's top limb has its high bit set.
    const int shift = __builtin_clzll(b_in.back());
    const std::size_t n = b_in.size(), m = a_in.size() - n;
    std::vector<std::uint64_t> b(n), u(a_in.size() + 1, 0);
    for (std::size_t i = n; i-- > 0;) {
      b[i] = b_in[i] << shift;
      if (shift != 0 && i > 0) b[i] |= b_in[i - 1] >> (64 - shift);
    }
    for (std::size_t i = a_in.size(); i-- > 0;) {
      u[i] = a_in[i] << shift;
      if (shift != 0 && i > 0) u[i] |= a_in[i - 1] >> (64 - shift);
    }
    if (shift != 0) u[a_in.size()] = a_in.back() >> (64 - shift);

    q.assign(m + 1, 0);
    const std::uint64_t b_hi = b[n - 1], b_lo = b[n - 2];
    for (std::size_t j = m + 1; j-- > 0;) {
      // D3: estimate q_hat from the top two dividend limbs.
      u128 top =
          (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
      u128 q_hat = top / b_hi, r_hat = top % b_hi;
      while (q_hat >> 64 != 0 ||
             q_hat * b_lo > ((r_hat << 64) | u[j + n - 2])) {
        --q_hat;
        r_hat += b_hi;
        if (r_hat >> 64 != 0) break;
      }
      // D4: multiply-subtract.
      u128 borrow = 0, carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 p = q_hat * b[i] + carry;
        carry = p >> 64;
        u128 t = static_cast<u128>(u[i + j]) -
                              static_cast<std::uint64_t>(p) - borrow;
        u[i + j] = static_cast<std::uint64_t>(t);
        borrow = (t >> 64) != 0 ? 1 : 0;
      }
      u128 t = static_cast<u128>(u[j + n]) - carry - borrow;
      u[j + n] = static_cast<std::uint64_t>(t);
      // D6: q_hat was one too large — add back.
      if ((t >> 64) != 0) {
        --q_hat;
        std::uint64_t c = 0;
        for (std::size_t i = 0; i < n; ++i) {
          u128 s =
              static_cast<u128>(u[i + j]) + b[i] + c;
          u[i + j] = static_cast<std::uint64_t>(s);
          c = static_cast<std::uint64_t>(s >> 64);
        }
        u[j + n] += c;
      }
      q[j] = static_cast<std::uint64_t>(q_hat);
    }
    // D8: denormalise the remainder.
    r.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = u[i] >> shift;
      if (shift != 0 && i + 1 < u.size()) r[i] |= u[i + 1] << (64 - shift);
    }
    while (!r.empty() && r.back() == 0) r.pop_back();
  }

  // Sign-magnitude: limbs_ little-endian, no trailing zero limbs, zero is {}.
  std::vector<std::uint64_t> limbs_;
  bool neg_ = false;
};

// An always-reduced fraction num/den with den > 0.
class Rat {
 public:
  Rat() : den_(1) {}
  Rat(std::int64_t v) : num_(v), den_(1) {}  // NOLINT(google-explicit-constructor)
  Rat(int v) : num_(v), den_(1) {}           // NOLINT(google-explicit-constructor)
  Rat(BigInt num, BigInt den) : num_(std::move(num)), den_(std::move(den)) {
    if (den_.is_zero()) throw std::domain_error("Rat: zero denominator");
    normalize();
  }
  Rat(std::int64_t num, std::int64_t den) : Rat(BigInt(num), BigInt(den)) {}

  // Exact conversion: every finite double is a dyadic rational m * 2^e with
  // |m| < 2^53, so this constructor is lossless.
  explicit Rat(double v) : den_(1) {                       // rat-io
    if (!std::isfinite(v)) throw std::domain_error("Rat: non-finite double");  // rat-io
    if (v == 0.0) return;  // fp-exact rat-io
    int e = 0;
    double frac = std::frexp(v, &e);                       // rat-io
    auto m = static_cast<std::int64_t>(std::ldexp(frac, 53));  // rat-io
    e -= 53;
    num_ = BigInt(m);
    if (e >= 0) {
      num_ = num_.shl(static_cast<std::size_t>(e));
    } else {
      den_ = BigInt(1).shl(static_cast<std::size_t>(-e));
      normalize();  // m may be even
    }
  }

  const BigInt& num() const { return num_; }
  const BigInt& den() const { return den_; }
  bool is_zero() const { return num_.is_zero(); }
  int sign() const { return num_.sign(); }
  bool is_integer() const { return den_ == BigInt(1); }
  Rat abs() const {
    Rat r = *this;
    r.num_ = r.num_.abs();
    return r;
  }

  friend Rat operator+(const Rat& a, const Rat& b) {
    return Rat(a.num_ * b.den_ + b.num_ * a.den_, a.den_ * b.den_);
  }
  friend Rat operator-(const Rat& a, const Rat& b) {
    return Rat(a.num_ * b.den_ - b.num_ * a.den_, a.den_ * b.den_);
  }
  friend Rat operator*(const Rat& a, const Rat& b) {
    return Rat(a.num_ * b.num_, a.den_ * b.den_);
  }
  friend Rat operator/(const Rat& a, const Rat& b) {
    if (b.is_zero()) throw std::domain_error("Rat: divide by zero");
    return Rat(a.num_ * b.den_, a.den_ * b.num_);
  }
  Rat operator-() const {
    Rat r = *this;
    r.num_ = -r.num_;
    return r;
  }
  Rat& operator+=(const Rat& o) { return *this = *this + o; }
  Rat& operator-=(const Rat& o) { return *this = *this - o; }
  Rat& operator*=(const Rat& o) { return *this = *this * o; }
  Rat& operator/=(const Rat& o) { return *this = *this / o; }

  static int cmp(const Rat& a, const Rat& b) {
    return BigInt::cmp(a.num_ * b.den_, b.num_ * a.den_);
  }
  friend bool operator==(const Rat& a, const Rat& b) { return cmp(a, b) == 0; }
  friend bool operator!=(const Rat& a, const Rat& b) { return cmp(a, b) != 0; }
  friend bool operator<(const Rat& a, const Rat& b) { return cmp(a, b) < 0; }
  friend bool operator<=(const Rat& a, const Rat& b) { return cmp(a, b) <= 0; }
  friend bool operator>(const Rat& a, const Rat& b) { return cmp(a, b) > 0; }
  friend bool operator>=(const Rat& a, const Rat& b) { return cmp(a, b) >= 0; }

  static Rat min(const Rat& a, const Rat& b) { return a <= b ? a : b; }
  static Rat max(const Rat& a, const Rat& b) { return a >= b ? a : b; }

  // Display-only: round-to-nearest is fine here, nothing downstream of
  // to_double participates in a proof.
  double to_double() const {                               // rat-io
    if (num_.is_zero()) return 0.0;                        // rat-io
    // Scale so the quotient of the top bits carries ~64 significant bits.
    std::ptrdiff_t nb = static_cast<std::ptrdiff_t>(num_.bit_length());
    std::ptrdiff_t db = static_cast<std::ptrdiff_t>(den_.bit_length());
    std::ptrdiff_t sh = nb - db - 64;
    BigInt n = sh >= 0 ? num_.abs() : num_.abs().shl(static_cast<std::size_t>(-sh));
    BigInt d = sh >= 0 ? den_.shl(static_cast<std::size_t>(sh)) : den_;
    BigInt q, r;
    BigInt::divmod(n, d, q, r);
    double mag = 0.0;                                      // rat-io
    for (std::size_t i = q.num_limbs(); i-- > 0;)
      mag = std::ldexp(mag, 64) + static_cast<double>(q.limb(i));  // rat-io
    mag = std::ldexp(mag, static_cast<int>(sh));           // rat-io
    return num_.is_negative() ? -mag : mag;                // rat-io
  }

  std::string to_string() const {
    if (is_integer()) return num_.to_string();
    return num_.to_string() + "/" + den_.to_string();
  }

 private:
  void normalize() {
    if (num_.is_zero()) {
      den_ = BigInt(1);
      return;
    }
    if (den_.is_negative()) {
      num_ = -num_;
      den_ = -den_;
    }
    if (den_.is_pow2()) {
      // The only prime a power-of-two denominator can share is 2.
      const std::size_t s = std::min(num_.ctz(), den_.ctz());
      if (s != 0) {
        num_ = num_.shr(s);
        den_ = den_.shr(s);
      }
      return;
    }
    BigInt g = BigInt::gcd(num_, den_);
    if (g != BigInt(1)) {
      num_ = BigInt::div_exact(num_, g);
      den_ = BigInt::div_exact(den_, g);
    }
  }

  BigInt num_;
  BigInt den_;
};

}  // namespace nd::analysis
