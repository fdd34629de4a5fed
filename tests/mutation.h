/**
 * @file
 * The seeded edit stream of the trust-boundary mutation tests: one
 * splitmix64 generator, so every platform replays the same mutants,
 * and a single-byte edit (replace, insert or erase) drawn from it.
 */

#ifndef POM_TESTS_MUTATION_H
#define POM_TESTS_MUTATION_H

#include <cstdint>
#include <string>

namespace pom::mutation {

/** Bytes an edit inserts or writes: JSON syntax, digits, a control. */
inline const std::string kJsonAlphabet =
    "{}[]\":,-+.0123456789eEtruefalsn \\/\n\t" "\x01";

/** One splitmix64 step. */
inline std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** @p doc (non-empty) with one byte edited at a point @p state picks. */
inline std::string
mutateOnce(const std::string &doc, std::uint64_t &state,
           const std::string &alphabet = kJsonAlphabet)
{
    std::string mutant = doc;
    std::size_t at = splitMix64(state) % mutant.size();
    char c = alphabet[splitMix64(state) % alphabet.size()];
    switch (splitMix64(state) % 3) {
      case 0: mutant[at] = c; break;
      case 1: mutant.insert(at, 1, c); break;
      default: mutant.erase(at, 1); break;
    }
    return mutant;
}

} // namespace pom::mutation

#endif // POM_TESTS_MUTATION_H
