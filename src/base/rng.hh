/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic step of a campaign (fault sampling, representative
 * selection, Relyzer pilot choice) draws from an explicitly seeded Rng so
 * that campaigns are bit-for-bit reproducible.  The generator is
 * xoshiro256**, seeded through SplitMix64 as its authors recommend.
 */

#ifndef MERLIN_BASE_RNG_HH
#define MERLIN_BASE_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace merlin
{

/** Deterministic 64-bit PRNG (xoshiro256**). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /**
     * A nextBelow() bound with its rejection threshold computed once,
     * for loops that draw below the same bound many times.
     */
    struct Bound
    {
        /** @p bound must be non-zero. */
        explicit Bound(std::uint64_t bound);

        std::uint64_t value;
        /** Raw draws below this are rejected (2^64 mod value). */
        std::uint64_t threshold;
        /** value is a power of two: no rejection, reduce by masking. */
        bool pow2;
    };

    /** Uniform integer in [0, b.value). */
    std::uint64_t
    nextBelow(const Bound &b)
    {
        // Rejection sampling to remove modulo bias.
        for (;;) {
            const std::uint64_t r = next();
            if (r >= b.threshold)
                return b.pow2 ? r & (b.value - 1) : r % b.value;
        }
    }

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        return nextBelow(Bound(bound));
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t nextInRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextBelow(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for per-run streams). */
    Rng fork();

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

} // namespace merlin

#endif // MERLIN_BASE_RNG_HH
