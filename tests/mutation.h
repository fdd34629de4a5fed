/**
 * @file
 * The seeded edit stream of the trust-boundary mutation tests: a
 * single-byte edit (replace, insert or erase) drawn from the project's
 * splitmix64 generator, so every platform replays the same mutants.
 */

#ifndef POM_TESTS_MUTATION_H
#define POM_TESTS_MUTATION_H

#include <string>

#include "support/splitmix64.h"

namespace pom::mutation {

/** Bytes an edit inserts or writes: JSON syntax, digits, a control. */
inline const std::string kJsonAlphabet =
    "{}[]\":,-+.0123456789eEtruefalsn \\/\n\t" "\x01";

/** @p doc (non-empty) with one byte edited at a point @p rng picks. */
inline std::string
mutateOnce(const std::string &doc, support::SplitMix64 &rng,
           const std::string &alphabet = kJsonAlphabet)
{
    std::string mutant = doc;
    std::size_t at = rng.next() % mutant.size();
    char c = alphabet[rng.next() % alphabet.size()];
    switch (rng.next() % 3) {
      case 0: mutant[at] = c; break;
      case 1: mutant.insert(at, 1, c); break;
      default: mutant.erase(at, 1); break;
    }
    return mutant;
}

} // namespace pom::mutation

#endif // POM_TESTS_MUTATION_H
