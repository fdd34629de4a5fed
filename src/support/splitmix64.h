/**
 * @file
 * splitmix64: the one seeded random stream of the project (the anneal
 * search, the schedule fuzzer, the seeded mutation tests). Tiny and
 * the same on every platform, where std::uniform_*_distribution is
 * implementation-defined and would change journals and fuzz cases from
 * one standard library to the next.
 */

#ifndef POM_SUPPORT_SPLITMIX64_H
#define POM_SUPPORT_SPLITMIX64_H

#include <cstdint>
#include <initializer_list>

namespace pom::support {

class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform value in [0, n); 0 when @p n is 0. */
    std::uint64_t range(std::uint64_t n) { return n ? next() % n : 0; }

    /** Uniform pick from a small list. */
    template <typename T> T
    pick(std::initializer_list<T> xs)
    {
        return xs.begin()[range(xs.size())];
    }

    /** Uniform double in [0, 1). */
    double
    nextUnit()
    {
        return static_cast<double>(next() >> 11) *
               (1.0 / 9007199254740992.0);
    }

  private:
    std::uint64_t state_;
};

} // namespace pom::support

#endif // POM_SUPPORT_SPLITMIX64_H
