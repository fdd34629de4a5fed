/**
 * @file
 * One typed suite over every spilled support::ContentCache (today the
 * per-node report cache): hit/miss accounting, first-writer-wins, FIFO
 * eviction past the cap with its counter, clear(), and the disk spill
 * -- round trip with guaranteed hits, cold start on a missing
 * directory, skip-and-warn on corrupt or missing objects and on index
 * lines that are not content hashes, clean errors on a wrong-version
 * index, and index merging between savers. The payload codec keeps
 * its own round-trip and corruption tests (cache_persist_test).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "hls/node_cache.h"
#include "obs/obs.h"
#include "support/diagnostics.h"

namespace {

using namespace pom;
namespace fs = std::filesystem;

/**
 * Per-cache knowledge the suite needs: a scratch-directory name, where
 * the spill lives, which counter evictions bump, and how to make a
 * value carrying a tag.
 */
template <typename Cache>
struct CacheTraits;

template <>
struct CacheTraits<hls::NodeReportCache>
{
    static constexpr const char *kName = "node";
    static constexpr const char *kIndex = "nodes.index";
    static constexpr const char *kObjects = "nodes";
    static constexpr const char *kEvictionCounter =
        "dse.node_cache.evictions";

    static std::vector<hls::NodeReport>
    value(std::uint64_t tag)
    {
        hls::NodeReport n;
        n.nest = "S0";
        n.latencyCycles = tag;
        n.resources.lut = 42;
        return {n};
    }

    static std::uint64_t
    tag(const std::vector<hls::NodeReport> &nodes)
    {
        return nodes.at(0).latencyCycles;
    }
};

template <typename Cache>
class ContentCacheTest : public ::testing::Test
{
  protected:
    using Traits = CacheTraits<Cache>;

    /** A fresh scratch directory under the gtest temp root. */
    static std::string
    scratchDir(const std::string &name)
    {
        std::string dir = ::testing::TempDir() + "pom_content_cache_" +
                          Traits::kName + "_" + name;
        fs::remove_all(dir);
        return dir;
    }

    static void
    store(Cache &cache, const std::string &key, std::uint64_t tag)
    {
        cache.store(key, Traits::value(tag));
    }

    /** Tag of @p key's cached value; 0 on a miss (counts a lookup). */
    static std::uint64_t
    tagOf(Cache &cache, const std::string &key)
    {
        auto hit = cache.lookup(key);
        return hit ? Traits::tag(*hit) : 0;
    }

    static std::string
    objectPath(const std::string &dir, const std::string &key)
    {
        return dir + "/" + Traits::kObjects + "/" +
               support::cacheContentHash(key);
    }
};

using CacheTypes = ::testing::Types<hls::NodeReportCache>;
TYPED_TEST_SUITE(ContentCacheTest, CacheTypes);

TYPED_TEST(ContentCacheTest, CountsHitsAndMisses)
{
    TypeParam cache;
    EXPECT_EQ(this->tagOf(cache, "k"), 0u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    this->store(cache, "k", 1234);
    EXPECT_EQ(this->tagOf(cache, "k"), 1234u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TYPED_TEST(ContentCacheTest, FirstWriterWins)
{
    TypeParam cache;
    this->store(cache, "k", 1);
    this->store(cache, "k", 2);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(this->tagOf(cache, "k"), 1u);
}

TYPED_TEST(ContentCacheTest, EvictsFifoPastTheCap)
{
    const char *counter = TestFixture::Traits::kEvictionCounter;
    std::int64_t counted0 = obs::counterValue(counter);
    TypeParam cache(2);
    this->store(cache, "k1", 1);
    this->store(cache, "k2", 2);
    // A lookup does not refresh an entry: this is FIFO, not LRU.
    EXPECT_EQ(this->tagOf(cache, "k1"), 1u);
    this->store(cache, "k3", 3);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(this->tagOf(cache, "k1"), 0u); // the oldest is gone
    EXPECT_EQ(this->tagOf(cache, "k2"), 2u);
    EXPECT_EQ(this->tagOf(cache, "k3"), 3u);
    EXPECT_EQ(obs::counterValue(counter) - counted0, 1);
}

TYPED_TEST(ContentCacheTest, ClearResetsEntriesAndCounts)
{
    TypeParam cache(1);
    this->store(cache, "a", 1);
    this->store(cache, "b", 2);
    this->tagOf(cache, "a");
    this->tagOf(cache, "b");
    ASSERT_GT(cache.evictions(), 0u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);

    // The cap is configuration: it survives clear().
    this->store(cache, "c", 3);
    this->store(cache, "d", 4);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
}

TYPED_TEST(ContentCacheTest, SpillRoundTripGuaranteesHits)
{
    std::string dir = this->scratchDir("roundtrip");
    TypeParam writer;
    this->store(writer, "key-a", 11);
    this->store(writer, "key-b", 22);
    support::CacheSpillStats saved;
    std::string error;
    ASSERT_TRUE(writer.saveDir(dir, saved, error)) << error;
    EXPECT_EQ(saved.written, 2u);
    EXPECT_TRUE(fs::exists(dir + "/" + TestFixture::Traits::kIndex));

    TypeParam reader;
    support::CacheSpillStats loaded;
    ASSERT_TRUE(reader.loadDir(dir, loaded, error)) << error;
    EXPECT_EQ(loaded.loaded, 2u);
    EXPECT_EQ(loaded.skipped, 0u);
    // Loading does not count lookups.
    EXPECT_EQ(reader.hits(), 0u);
    EXPECT_EQ(reader.misses(), 0u);
    EXPECT_EQ(this->tagOf(reader, "key-a"), 11u);
    EXPECT_EQ(this->tagOf(reader, "key-b"), 22u);
    EXPECT_EQ(reader.hits(), 2u);
    EXPECT_EQ(reader.misses(), 0u);

    // Saving the same content again writes nothing new.
    support::CacheSpillStats resaved;
    ASSERT_TRUE(reader.saveDir(dir, resaved, error)) << error;
    EXPECT_EQ(resaved.written, 0u);
    EXPECT_EQ(resaved.kept, 2u);
    fs::remove_all(dir);
}

TYPED_TEST(ContentCacheTest, MissingDirectoryIsColdStart)
{
    TypeParam cache;
    support::CacheSpillStats stats;
    std::string error;
    EXPECT_TRUE(cache.loadDir(this->scratchDir("absent"), stats, error))
        << error;
    EXPECT_EQ(stats.loaded, 0u);
    EXPECT_EQ(stats.skipped, 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TYPED_TEST(ContentCacheTest, CorruptOrMissingObjectIsSkipped)
{
    std::string dir = this->scratchDir("corrupt");
    TypeParam writer;
    this->store(writer, "good", 1);
    this->store(writer, "torn", 2);
    this->store(writer, "gone", 3);
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(writer.saveDir(dir, stats, error)) << error;

    // Flip one byte mid-file: the checksum can no longer match.
    std::string torn = this->objectPath(dir, "torn");
    std::string text;
    {
        std::ifstream in(torn, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        text = buffer.str();
    }
    ASSERT_FALSE(text.empty());
    text[text.size() / 2] ^= 0x20;
    {
        std::ofstream out(torn, std::ios::binary | std::ios::trunc);
        out << text;
    }
    // Indexed but deleted.
    ASSERT_TRUE(fs::remove(this->objectPath(dir, "gone")));

    TypeParam reader;
    support::CacheSpillStats loaded;
    ASSERT_TRUE(reader.loadDir(dir, loaded, error)) << error;
    EXPECT_EQ(loaded.loaded, 1u);
    EXPECT_EQ(loaded.skipped, 2u);
    EXPECT_EQ(this->tagOf(reader, "good"), 1u);
    EXPECT_EQ(this->tagOf(reader, "torn"), 0u);
    EXPECT_EQ(this->tagOf(reader, "gone"), 0u);
    fs::remove_all(dir);
}

TYPED_TEST(ContentCacheTest, UntrustedIndexLinesAreSkipped)
{
    std::string dir = this->scratchDir("untrusted");
    TypeParam writer;
    this->store(writer, "good", 1);
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(writer.saveDir(dir, stats, error)) << error;

    // Index lines may only name content hashes under the objects dir:
    // a device would be read until memory runs out, a path can escape,
    // and opening a FIFO would block forever.
    const std::string fifo = "0123456789abcdef";
    std::string objects = dir + "/" + TestFixture::Traits::kObjects;
    ASSERT_EQ(::mkfifo((objects + "/" + fifo).c_str(), 0600), 0);
    {
        std::ofstream index(dir + "/" + TestFixture::Traits::kIndex,
                            std::ios::binary | std::ios::app);
        index << "/dev/zero\n../escape\n" << fifo << "\n";
    }

    std::ostringstream warnings;
    support::setDiagStream(&warnings);
    TypeParam reader;
    support::CacheSpillStats loaded;
    bool ok = reader.loadDir(dir, loaded, error);
    support::setDiagStream(nullptr);
    ASSERT_TRUE(ok) << error;
    EXPECT_EQ(loaded.loaded, 1u);
    EXPECT_EQ(loaded.skipped, 3u);
    EXPECT_EQ(this->tagOf(reader, "good"), 1u);
    for (const char *line : {"'/dev/zero'", "'../escape'", fifo.c_str()}) {
        EXPECT_NE(warnings.str().find(line), std::string::npos)
            << line << " not warned about:\n" << warnings.str();
    }

    // A save drops the lines that are not content hashes; the FIFO's
    // line is well-formed, so it stays and is skipped again.
    ASSERT_TRUE(reader.saveDir(dir, stats, error)) << error;
    TypeParam again;
    support::setDiagStream(&warnings);
    ok = again.loadDir(dir, loaded, error);
    support::setDiagStream(nullptr);
    ASSERT_TRUE(ok) << error;
    EXPECT_EQ(loaded.loaded, 1u);
    EXPECT_EQ(loaded.skipped, 1u);
    fs::remove_all(dir);
}

TYPED_TEST(ContentCacheTest, WrongIndexVersionIsCleanError)
{
    std::string dir = this->scratchDir("badindex");
    TypeParam writer;
    this->store(writer, "k", 1);
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(writer.saveDir(dir, stats, error)) << error;

    // Re-stamp the index as written by another POM version.
    std::string index_path = dir + "/" + TestFixture::Traits::kIndex;
    std::string index;
    {
        std::ifstream in(index_path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        index = buffer.str();
    }
    std::string format = index.substr(0, index.find(' '));
    {
        std::ofstream out(index_path, std::ios::binary | std::ios::trunc);
        out << format << " 99.0.0" << index.substr(index.find('\n'));
    }

    TypeParam reader;
    support::CacheSpillStats loaded;
    EXPECT_FALSE(reader.loadDir(dir, loaded, error));
    EXPECT_NE(error.find("version mismatch"), std::string::npos) << error;
    EXPECT_EQ(reader.size(), 0u);
    fs::remove_all(dir);
}

TYPED_TEST(ContentCacheTest, ConcurrentSaversMergeTheIndex)
{
    std::string dir = this->scratchDir("merge");
    TypeParam first, second;
    this->store(first, "only-in-first", 1);
    this->store(second, "only-in-second", 2);
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(first.saveDir(dir, stats, error)) << error;
    ASSERT_TRUE(second.saveDir(dir, stats, error)) << error;

    TypeParam reader;
    support::CacheSpillStats loaded;
    ASSERT_TRUE(reader.loadDir(dir, loaded, error)) << error;
    EXPECT_EQ(loaded.loaded, 2u);
    EXPECT_EQ(this->tagOf(reader, "only-in-first"), 1u);
    EXPECT_EQ(this->tagOf(reader, "only-in-second"), 2u);
    fs::remove_all(dir);
}

} // namespace
