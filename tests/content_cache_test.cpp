/**
 * @file
 * The per-node report cache as a support::ContentCache and its disk
 * spill: hit/miss accounting, first-writer-wins, FIFO eviction past
 * the cap with its counter, clear(), and hls::NodeReportCache's
 * loadDir()/saveDir() -- round trip with guaranteed hits, cold start
 * on a missing directory, skip-and-warn on corrupt or missing objects
 * and on index lines that are not content hashes, clean errors on a
 * wrong-version index and on an index that is not a regular file, and
 * index merging between savers. The entry
 * codec keeps its own round-trip and corruption tests
 * (cache_persist_test).
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
using hls::NodeReportCache;
namespace fs = std::filesystem;

/** A fresh scratch directory under the gtest temp root. */
std::string
scratchDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "pom_content_cache_node_" + name;
    fs::remove_all(dir);
    return dir;
}

/** Store a one-node report list carrying @p tag as its latency. */
void
store(NodeReportCache &cache, const std::string &key, std::uint64_t tag)
{
    hls::NodeReport n;
    n.nest = "S0";
    n.latencyCycles = tag;
    n.resources.lut = 42;
    cache.store(key, {n});
}

/** Tag of @p key's cached value; 0 on a miss (counts a lookup). */
std::uint64_t
tagOf(NodeReportCache &cache, const std::string &key)
{
    auto hit = cache.lookup(key);
    return hit ? hit->at(0).latencyCycles : 0;
}

std::string
objectPath(const std::string &dir, const std::string &key)
{
    return dir + "/nodes/" + support::cacheContentHash(key);
}

TEST(ContentCacheTest, CountsHitsAndMisses)
{
    NodeReportCache cache;
    EXPECT_EQ(tagOf(cache, "k"), 0u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);

    store(cache, "k", 1234);
    EXPECT_EQ(tagOf(cache, "k"), 1234u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ContentCacheTest, FirstWriterWins)
{
    NodeReportCache cache;
    store(cache, "k", 1);
    store(cache, "k", 2);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(tagOf(cache, "k"), 1u);
}

TEST(ContentCacheTest, EvictsFifoPastTheCap)
{
    const char *counter = "dse.node_cache.evictions";
    std::int64_t counted0 = obs::counterValue(counter);
    NodeReportCache cache(2);
    store(cache, "k1", 1);
    store(cache, "k2", 2);
    // A lookup does not refresh an entry: this is FIFO, not LRU.
    EXPECT_EQ(tagOf(cache, "k1"), 1u);
    store(cache, "k3", 3);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(tagOf(cache, "k1"), 0u); // the oldest is gone
    EXPECT_EQ(tagOf(cache, "k2"), 2u);
    EXPECT_EQ(tagOf(cache, "k3"), 3u);
    EXPECT_EQ(obs::counterValue(counter) - counted0, 1);
}

TEST(ContentCacheTest, ClearResetsEntriesAndCounts)
{
    NodeReportCache cache(1);
    store(cache, "a", 1);
    store(cache, "b", 2);
    tagOf(cache, "a");
    tagOf(cache, "b");
    ASSERT_GT(cache.evictions(), 0u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.evictions(), 0u);

    // The cap is configuration: it survives clear().
    store(cache, "c", 3);
    store(cache, "d", 4);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 1u);
}

TEST(ContentCacheTest, SpillRoundTripGuaranteesHits)
{
    std::string dir = scratchDir("roundtrip");
    NodeReportCache writer;
    store(writer, "key-a", 11);
    store(writer, "key-b", 22);
    support::CacheSpillStats saved;
    std::string error;
    ASSERT_TRUE(writer.saveDir(dir, saved, error)) << error;
    EXPECT_EQ(saved.written, 2u);
    EXPECT_TRUE(fs::exists(dir + "/nodes.index"));

    NodeReportCache reader;
    support::CacheSpillStats loaded;
    ASSERT_TRUE(reader.loadDir(dir, loaded, error)) << error;
    EXPECT_EQ(loaded.loaded, 2u);
    EXPECT_EQ(loaded.skipped, 0u);
    // Loading does not count lookups.
    EXPECT_EQ(reader.hits(), 0u);
    EXPECT_EQ(reader.misses(), 0u);
    EXPECT_EQ(tagOf(reader, "key-a"), 11u);
    EXPECT_EQ(tagOf(reader, "key-b"), 22u);
    EXPECT_EQ(reader.hits(), 2u);
    EXPECT_EQ(reader.misses(), 0u);

    // Saving the same content again writes nothing new.
    support::CacheSpillStats resaved;
    ASSERT_TRUE(reader.saveDir(dir, resaved, error)) << error;
    EXPECT_EQ(resaved.written, 0u);
    EXPECT_EQ(resaved.kept, 2u);
    fs::remove_all(dir);
}

TEST(ContentCacheTest, MissingDirectoryIsColdStart)
{
    NodeReportCache cache;
    support::CacheSpillStats stats;
    std::string error;
    EXPECT_TRUE(cache.loadDir(scratchDir("absent"), stats, error))
        << error;
    EXPECT_EQ(stats.loaded, 0u);
    EXPECT_EQ(stats.skipped, 0u);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ContentCacheTest, CorruptOrMissingObjectIsSkipped)
{
    std::string dir = scratchDir("corrupt");
    NodeReportCache writer;
    store(writer, "good", 1);
    store(writer, "torn", 2);
    store(writer, "gone", 3);
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(writer.saveDir(dir, stats, error)) << error;

    // Flip one byte mid-file: the checksum can no longer match.
    std::string torn = objectPath(dir, "torn");
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
    ASSERT_TRUE(fs::remove(objectPath(dir, "gone")));

    NodeReportCache reader;
    support::CacheSpillStats loaded;
    ASSERT_TRUE(reader.loadDir(dir, loaded, error)) << error;
    EXPECT_EQ(loaded.loaded, 1u);
    EXPECT_EQ(loaded.skipped, 2u);
    EXPECT_EQ(tagOf(reader, "good"), 1u);
    EXPECT_EQ(tagOf(reader, "torn"), 0u);
    EXPECT_EQ(tagOf(reader, "gone"), 0u);
    fs::remove_all(dir);
}

TEST(ContentCacheTest, UntrustedIndexLinesAreSkipped)
{
    std::string dir = scratchDir("untrusted");
    NodeReportCache writer;
    store(writer, "good", 1);
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(writer.saveDir(dir, stats, error)) << error;

    // Index lines may only name content hashes under the objects dir:
    // a device would be read until memory runs out, a path can escape,
    // and opening a FIFO would block forever.
    const std::string fifo = "0123456789abcdef";
    std::string objects = dir + "/nodes";
    ASSERT_EQ(::mkfifo((objects + "/" + fifo).c_str(), 0600), 0);
    {
        std::ofstream index(dir + "/nodes.index",
                            std::ios::binary | std::ios::app);
        index << "/dev/zero\n../escape\n" << fifo << "\n";
    }

    std::ostringstream warnings;
    support::setDiagStream(&warnings);
    NodeReportCache reader;
    support::CacheSpillStats loaded;
    bool ok = reader.loadDir(dir, loaded, error);
    support::setDiagStream(nullptr);
    ASSERT_TRUE(ok) << error;
    EXPECT_EQ(loaded.loaded, 1u);
    EXPECT_EQ(loaded.skipped, 3u);
    EXPECT_EQ(tagOf(reader, "good"), 1u);
    for (const char *line : {"'/dev/zero'", "'../escape'", fifo.c_str()}) {
        EXPECT_NE(warnings.str().find(line), std::string::npos)
            << line << " not warned about:\n" << warnings.str();
    }

    // A save drops the lines that are not content hashes; the FIFO's
    // line is well-formed, so it stays and is skipped again.
    ASSERT_TRUE(reader.saveDir(dir, stats, error)) << error;
    NodeReportCache again;
    support::setDiagStream(&warnings);
    ok = again.loadDir(dir, loaded, error);
    support::setDiagStream(nullptr);
    ASSERT_TRUE(ok) << error;
    EXPECT_EQ(loaded.loaded, 1u);
    EXPECT_EQ(loaded.skipped, 1u);
    fs::remove_all(dir);
}

TEST(ContentCacheTest, WrongIndexVersionIsCleanError)
{
    std::string dir = scratchDir("badindex");
    NodeReportCache writer;
    store(writer, "k", 1);
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(writer.saveDir(dir, stats, error)) << error;

    // Re-stamp the index as written by another POM version.
    std::string index_path = dir + "/nodes.index";
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

    NodeReportCache reader;
    support::CacheSpillStats loaded;
    EXPECT_FALSE(reader.loadDir(dir, loaded, error));
    EXPECT_NE(error.find("version mismatch"), std::string::npos) << error;
    EXPECT_EQ(reader.size(), 0u);
    fs::remove_all(dir);
}

TEST(ContentCacheTest, IndexThatIsNotARegularFileIsCleanError)
{
    // An index that is a device would be read until memory runs out;
    // the load refuses it without reading and names the path.
    std::string dir = scratchDir("devindex");
    NodeReportCache writer;
    store(writer, "k", 1);
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(writer.saveDir(dir, stats, error)) << error;
    std::string index_path = dir + "/nodes.index";
    ASSERT_TRUE(fs::remove(index_path));
    fs::create_symlink("/dev/zero", index_path);

    NodeReportCache reader;
    support::CacheSpillStats loaded;
    EXPECT_FALSE(reader.loadDir(dir, loaded, error));
    EXPECT_NE(error.find("'" + index_path + "' is not a readable regular "
                         "file"),
              std::string::npos)
        << error;
    EXPECT_EQ(reader.size(), 0u);

    // A save replaces the symlink with a fresh index, which loads.
    ASSERT_TRUE(writer.saveDir(dir, stats, error)) << error;
    EXPECT_TRUE(fs::is_regular_file(fs::symlink_status(index_path)));
    ASSERT_TRUE(reader.loadDir(dir, loaded, error)) << error;
    EXPECT_EQ(loaded.loaded, 1u);
    EXPECT_EQ(tagOf(reader, "k"), 1u);
    fs::remove_all(dir);
}

TEST(ContentCacheTest, ConcurrentSaversMergeTheIndex)
{
    std::string dir = scratchDir("merge");
    NodeReportCache first, second;
    store(first, "only-in-first", 1);
    store(second, "only-in-second", 2);
    support::CacheSpillStats stats;
    std::string error;
    ASSERT_TRUE(first.saveDir(dir, stats, error)) << error;
    ASSERT_TRUE(second.saveDir(dir, stats, error)) << error;

    NodeReportCache reader;
    support::CacheSpillStats loaded;
    ASSERT_TRUE(reader.loadDir(dir, loaded, error)) << error;
    EXPECT_EQ(loaded.loaded, 2u);
    EXPECT_EQ(tagOf(reader, "only-in-first"), 1u);
    EXPECT_EQ(tagOf(reader, "only-in-second"), 2u);
    fs::remove_all(dir);
}

} // namespace
