/**
 * @file
 * The golden digest tables under tests/golden: one row per
 * (key, key) pair with one FNV-1a-64 digest per column, e.g.
 *   greedy gemm 7ea594d0ed0384cd 202ccafde08249cf 91d0c6a1e0c2f4b3
 * after a '#' header line that names the columns. Tests compare what they compute with a row
 * and, under POM_UPDATE_EXPECTED=1, rewrite the table instead.
 */

#ifndef POM_TESTS_GOLDEN_DIGESTS_H
#define POM_TESTS_GOLDEN_DIGESTS_H

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "support/cache_store.h"

#ifndef POM_GOLDEN_DIR
#define POM_GOLDEN_DIR "tests/golden"
#endif

namespace pom::golden {

/** (key, key) -> one digest per column. */
using DigestTable = std::map<std::pair<std::string, std::string>,
                             std::vector<std::string>>;

inline std::string
goldenPath(const std::string &file)
{
    return std::string(POM_GOLDEN_DIR) + "/" + file;
}

/** Rewrite the golden tables instead of checking them? */
inline bool
updatingGoldens()
{
    return std::getenv("POM_UPDATE_EXPECTED") != nullptr;
}

/** FNV-1a-64 of @p text as 16 hex digits. */
inline std::string
digestOf(const std::string &text)
{
    return support::hex16(support::fnv1a64(text.data(), text.size()));
}

/** The table in @p path; empty when the file is missing. */
inline DigestTable
readDigestTable(const std::string &path)
{
    DigestTable out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string a, b, digest;
        std::vector<std::string> digests;
        if (!(ls >> a >> b))
            continue;
        while (ls >> digest)
            digests.push_back(digest);
        if (!digests.empty())
            out[{a, b}] = std::move(digests);
    }
    return out;
}

/**
 * Write @p table to @p path under the comment @p header, in the order
 * of @p firstKeys, then @p secondKeys. Returns false if the file cannot
 * be written.
 */
inline bool
writeDigestTable(const std::string &path, const std::string &header,
                 const std::vector<std::string> &firstKeys,
                 const std::vector<std::string> &secondKeys,
                 const DigestTable &table)
{
    std::ofstream out(path);
    if (!out.good())
        return false;
    out << "# " << header << "\n";
    for (const auto &a : firstKeys) {
        for (const auto &b : secondKeys) {
            auto it = table.find({a, b});
            if (it == table.end())
                continue;
            out << a << " " << b;
            for (const auto &digest : it->second)
                out << " " << digest;
            out << "\n";
        }
    }
    return out.good();
}

} // namespace pom::golden

#endif // POM_TESTS_GOLDEN_DIGESTS_H
