/**
 * @file
 * Tests for the pomd compile service: protocol encode/decode, version
 * gating, in-process request execution, the result memo, and full
 * socket round-trips -- including the load-bearing property that a
 * daemon-served DSE journal is byte-identical to the one-shot `pomc`
 * equivalent, under concurrency, and that a full queue answers "busy"
 * instead of queueing unboundedly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "baselines/baselines.h"
#include "check/oracle.h"
#include "cold_memos.h"
#include "golden_digests.h"
#include "hls/node_cache.h"
#include "mutation.h"
#include "obs/journal.h"
#include "obs/obs.h"
#include "service/client.h"
#include "service/server.h"
#include "support/socket.h"
#include "support/version.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;

std::string
scratchSocket(const std::string &name)
{
    std::string path = ::testing::TempDir() + "pom_" + name + ".sock";
    std::filesystem::remove(path);
    return path;
}

service::Request
compileRequest(const std::string &workload, std::int64_t size,
               const std::string &journal = "none")
{
    service::Request req;
    req.version = support::kVersionString;
    req.method = "compile";
    req.workload = workload;
    req.size = size;
    req.framework = "pom";
    req.journal = journal;
    return req;
}

/** The journal bytes a one-shot `pomc --frontier-out` run would write. */
std::string
oneShotJournalV2(const std::string &workload, std::int64_t size)
{
    auto w = workloads::makeByName(workload, size);
    auto result = baselines::runPom(w->func());
    return obs::journalJsonV2(result.journal, result.frontierRounds);
}

/**
 * Remove the daemon's `"request": N, ` header stamp -- the one
 * permitted divergence between a daemon-served journal and its
 * one-shot equivalent. Returns the stamped ID (0 if absent).
 */
std::int64_t
stripRequestStamp(std::string &journal)
{
    const std::string key = "\"request\": ";
    std::size_t at = journal.find(key);
    if (at == std::string::npos)
        return 0;
    std::size_t end = journal.find(", ", at);
    if (end == std::string::npos)
        return 0;
    std::int64_t id =
        std::atoll(journal.c_str() + at + key.size());
    journal.erase(at, end + 2 - at);
    return id;
}

TEST(Protocol, RequestRoundTrip)
{
    service::Request req = compileRequest("gemm", 256, "v2");
    req.strategy = "beam";
    req.resourceFraction = 0.75;
    req.emit = true;

    service::Request decoded;
    std::string error;
    ASSERT_TRUE(service::decodeRequest(service::encodeRequest(req),
                                       decoded, error))
        << error;
    EXPECT_EQ(decoded.version, req.version);
    EXPECT_EQ(decoded.method, "compile");
    EXPECT_EQ(decoded.workload, "gemm");
    EXPECT_EQ(decoded.size, 256);
    EXPECT_EQ(decoded.strategy, "beam");
    EXPECT_EQ(decoded.resourceFraction, 0.75);
    EXPECT_TRUE(decoded.emit);
    EXPECT_EQ(decoded.journal, "v2");

    // An older client's per-request worker override is ignored.
    ASSERT_TRUE(service::decodeRequest(
        "{\"method\": \"compile\", \"workload\": \"gemm\", "
        "\"jobs\": 3}",
        decoded, error))
        << error;
    EXPECT_EQ(decoded.workload, "gemm");
}

TEST(Protocol, ResponseRoundTripIncludingBusy)
{
    service::Response busy;
    busy.status = "busy";
    busy.retryAfterMs = 150;
    service::Response decoded;
    std::string error;
    ASSERT_TRUE(service::decodeResponse(service::encodeResponse(busy),
                                        decoded, error))
        << error;
    EXPECT_EQ(decoded.status, "busy");
    EXPECT_EQ(decoded.retryAfterMs, 150);

    service::Response ok;
    ok.reportLine = "latency=1 cycles";
    ok.journalText = "{\"schema\": \"pom-dse-journal/v2\"}";
    ok.cacheHits = 7;
    ok.cacheMisses = 2;
    ASSERT_TRUE(service::decodeResponse(service::encodeResponse(ok),
                                        decoded, error))
        << error;
    EXPECT_EQ(decoded.status, "ok");
    EXPECT_EQ(decoded.reportLine, ok.reportLine);
    EXPECT_EQ(decoded.journalText, ok.journalText);
    EXPECT_EQ(decoded.cacheHits, 7);
    EXPECT_EQ(decoded.cacheMisses, 2);
}

TEST(Protocol, StatsFrameRoundTripsHistogramSummaries)
{
    service::Response stats;
    stats.statsFrame = true;
    stats.requestId = 42;
    stats.requestsServed = 9;
    stats.cacheHits = 6;
    stats.cacheMisses = 2;
    stats.queueDepth = 1;
    stats.queueDepthMax = 5;
    stats.uptimeSeconds = 12.25;
    stats.cacheHitRate = 0.75;
    stats.queueWaitMs = {4, 10.5, 0.5, 2.0, 8.0, 8.0};
    stats.serviceMs = {4, 1000.0, 100.0, 400.0, 900.0, 901.5};

    service::Response decoded;
    std::string error;
    ASSERT_TRUE(service::decodeResponse(service::encodeResponse(stats),
                                        decoded, error))
        << error;
    EXPECT_TRUE(decoded.statsFrame);
    EXPECT_EQ(decoded.requestId, 42);
    EXPECT_EQ(decoded.requestsServed, 9);
    EXPECT_EQ(decoded.queueDepthMax, 5);
    EXPECT_EQ(decoded.uptimeSeconds, 12.25);
    EXPECT_EQ(decoded.cacheHitRate, 0.75);
    EXPECT_EQ(decoded.queueWaitMs.count, 4);
    EXPECT_EQ(decoded.queueWaitMs.sum, 10.5);
    EXPECT_EQ(decoded.queueWaitMs.p50, 0.5);
    EXPECT_EQ(decoded.queueWaitMs.p90, 2.0);
    EXPECT_EQ(decoded.queueWaitMs.p99, 8.0);
    EXPECT_EQ(decoded.queueWaitMs.max, 8.0);
    EXPECT_EQ(decoded.serviceMs.count, 4);
    EXPECT_EQ(decoded.serviceMs.max, 901.5);

    // A work frame (no requests_served) must NOT look like stats.
    service::Response work;
    work.reportLine = "latency=1 cycles";
    work.cacheHits = 3;
    work.cacheMisses = 1;
    ASSERT_TRUE(service::decodeResponse(service::encodeResponse(work),
                                        decoded, error))
        << error;
    EXPECT_FALSE(decoded.statsFrame);
    EXPECT_EQ(decoded.cacheHits, 3);
    EXPECT_EQ(decoded.cacheMisses, 1);
}

TEST(Protocol, PrometheusExpositionIsWellFormed)
{
    service::Response stats;
    stats.statsFrame = true;
    stats.requestsServed = 7;
    stats.cacheHits = 10;
    stats.cacheMisses = 30;
    stats.cacheHitRate = 0.25;
    stats.uptimeSeconds = 3.5;
    stats.queueDepthMax = 4;
    stats.queueWaitMs = {7, 21.0, 1.0, 5.0, 9.0, 9.5};
    stats.serviceMs = {7, 700.0, 80.0, 200.0, 600.0, 650.0};

    std::string text = service::statsPrometheus(stats);
    // Every sample line: `name[{labels}] value`, preceded by HELP/TYPE.
    EXPECT_NE(text.find("# TYPE pomd_uptime_seconds gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("pomd_requests_served_total 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("pomd_estimator_cache_hit_rate 0.25\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("# TYPE pomd_request_queue_wait_milliseconds summary"),
        std::string::npos);
    EXPECT_NE(text.find("pomd_request_queue_wait_milliseconds"
                        "{quantile=\"0.5\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("pomd_request_queue_wait_milliseconds_count 7\n"),
              std::string::npos);
    EXPECT_NE(text.find("pomd_request_service_milliseconds_sum 700\n"),
              std::string::npos);
    // Structural lint: every non-comment line is `<name...> <value>`,
    // and every metric family has a TYPE line before its samples.
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#') {
            EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                        line.rfind("# TYPE ", 0) == 0)
                << line;
            continue;
        }
        std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        // The value parses as a double.
        char *end = nullptr;
        std::strtod(line.c_str() + space + 1, &end);
        EXPECT_EQ(*end, '\0') << line;
    }
}

/**
 * One frame of every shape the daemon and its clients send, each named
 * for the golden file: requests without and with every compile field,
 * and compile, busy, error and stats replies.
 */
std::vector<std::pair<std::string, std::string>>
sampleFrames()
{
    std::vector<std::pair<std::string, std::string>> frames;
    for (const char *method : {"ping", "stats", "shutdown"}) {
        service::Request req;
        req.method = method;
        frames.emplace_back(std::string("request-") + method,
                            service::encodeRequest(req));
    }
    service::Request compile = compileRequest("gemm", 4096, "v2");
    compile.framework = "scalehls";
    compile.strategy = "anneal";
    compile.resourceFraction = 0.1; // %.17g: 0.10000000000000001
    compile.emit = true;
    frames.emplace_back("request-compile", service::encodeRequest(compile));

    service::Response reply;
    reply.requestId = 17;
    reply.reportLine = "latency=4198401 cycles, DSP=60 (27%)";
    reply.notes = "DSE: 12 points";
    reply.seconds = 1.0 / 3.0;
    reply.latencyCycles = 4198401;
    reply.dsp = 60;
    reply.bramBits = 1048576;
    reply.lut = 14000;
    reply.ff = 9000;
    reply.journalText =
        "{\"schema\": \"pom-dse-journal/v1\", \"events\": [\n]}\n";
    reply.hlsC = "void gemm(float A[4][4]) {\n\t#pragma HLS pipeline\n}\n";
    reply.cacheHits = 5;
    reply.cacheMisses = 2;
    frames.emplace_back("response-compile", service::encodeResponse(reply));

    service::Response busy;
    busy.status = "busy";
    busy.retryAfterMs = 150;
    frames.emplace_back("response-busy", service::encodeResponse(busy));

    service::Response failed;
    failed.status = "error";
    failed.error = "unknown workload 'nope'";
    failed.requestId = 3;
    frames.emplace_back("response-error", service::encodeResponse(failed));

    service::Response stats;
    stats.statsFrame = true;
    stats.requestsServed = 9;
    stats.cacheHits = 6;
    stats.cacheMisses = 2;
    stats.queueDepth = 1;
    stats.queueDepthMax = 5;
    stats.uptimeSeconds = 12.25;
    stats.cacheHitRate = 0.75;
    stats.nodeCacheHits = 40;
    stats.nodeCacheMisses = 8;
    stats.nodeCacheSize = 48;
    stats.nodeCacheLoaded = 11;
    stats.nodeCacheHitRate = 40.0 / 48.0;
    stats.nodeCacheEvictions = 1;
    stats.resultMemoHits = 3;
    stats.resultMemoEntries = 2;
    stats.queueWaitMs = {4, 10.5, 0.5, 2.0, 8.0, 8.0};
    stats.serviceMs = {4, 1000.1, 100.0, 400.0, 900.0, 901.5};
    frames.emplace_back("response-stats", service::encodeResponse(stats));
    return frames;
}

TEST(Protocol, FramesMatchTheGolden)
{
    // The exact payload bytes of every frame shape: key order, number
    // spelling and which keys a frame carries are part of the protocol.
    const std::string path = golden::goldenPath("protocol_frames.txt");
    const auto frames = sampleFrames();
    if (golden::updatingGoldens()) {
        std::ofstream out(path);
        out << "# encodeRequest/encodeResponse payloads: <name> <frame>\n";
        for (const auto &[name, frame] : frames)
            out << name << " " << frame << "\n";
        ASSERT_TRUE(out.good()) << path;
        return;
    }
    std::map<std::string, std::string> golden;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::size_t space = line.find(' ');
        if (!line.empty() && line[0] != '#' && space != std::string::npos)
            golden[line.substr(0, space)] = line.substr(space + 1);
    }
    ASSERT_EQ(golden.size(), frames.size()) << path;
    for (const auto &[name, frame] : frames)
        EXPECT_EQ(frame, golden[name]) << name;
}

TEST(Protocol, MalformedPayloadsAreErrors)
{
    service::Request req;
    std::string error;
    EXPECT_FALSE(service::decodeRequest("not json", req, error));
    EXPECT_FALSE(service::decodeRequest("{}", req, error));
    EXPECT_NE(error.find("method"), std::string::npos);

    service::Response resp;
    EXPECT_FALSE(service::decodeResponse("{\"pom\": \"x\"}", resp,
                                         error));
    EXPECT_NE(error.find("status"), std::string::npos);
}

TEST(Protocol, NonIntegerSizeIsAFieldError)
{
    // An integer too large for int64 parses as a Double; none of these
    // may reach a float-to-int cast, and the error names the field.
    for (const char *bad :
         {"99999999999999999999", "1e400", "-1e400", "2.5", "\"8\""}) {
        const std::string frame =
            std::string("{\"method\": \"compile\", \"size\": ") + bad +
            "}";
        service::Request req;
        std::string error;
        EXPECT_FALSE(service::decodeRequest(frame, req, error)) << frame;
        EXPECT_NE(error.find("'size'"), std::string::npos)
            << frame << ": " << error;
    }
    // An integral double is still an integer.
    service::Request req;
    std::string error;
    ASSERT_TRUE(service::decodeRequest(
        "{\"method\": \"compile\", \"size\": 2.0}", req, error))
        << error;
    EXPECT_EQ(req.size, 2);
    // `jobs` is no longer a field: an older client's value, even a
    // non-integer one, decodes without error.
    ASSERT_TRUE(service::decodeRequest(
        "{\"method\": \"compile\", \"jobs\": 2.5}", req, error))
        << error;
}

TEST(Protocol, MistypedFieldsAreErrorsThatNameThem)
{
    // Each of these used to decode to a default or a wrapped value.
    const std::pair<const char *, const char *> requests[] = {
        {"resources", R"({"method": "compile", "resources": "0.25"})"},
        {"resources", R"({"method": "compile", "resources": 1e400})"},
        {"emit", R"({"method": "compile", "emit": "yes"})"},
        {"framework", R"({"method": "compile", "framework": 7})"},
        {"strategy", R"({"method": "compile", "strategy": []})"},
        {"journal", R"({"method": "compile", "journal": null})"},
    };
    for (const auto &[key, frame] : requests) {
        service::Request req;
        std::string error;
        EXPECT_FALSE(service::decodeRequest(frame, req, error)) << frame;
        EXPECT_NE(error.find(std::string("'") + key + "'"),
                  std::string::npos)
            << frame << ": " << error;
    }
    const std::pair<const char *, const char *> responses[] = {
        {"retry_after_ms", R"({"status": "busy", "retry_after_ms": 1e10})"},
        {"latency_cycles", R"({"status": "ok", "latency_cycles": -1})"},
        {"seconds", R"({"status": "ok", "seconds": "0.5"})"},
        {"cache_hits", R"({"status": "ok", "cache_hits": true})"},
        {"queue_wait_ms", R"({"status": "ok", "queue_wait_ms": 5})"},
        {"p50", R"({"status": "ok", "service_ms": {"p50": "1"}})"},
    };
    for (const auto &[key, frame] : responses) {
        service::Response resp;
        std::string error;
        EXPECT_FALSE(service::decodeResponse(frame, resp, error)) << frame;
        EXPECT_NE(error.find(std::string("'") + key + "'"),
                  std::string::npos)
            << frame << ": " << error;
    }
}

TEST(Protocol, SurvivesSeededMutations)
{
    // Frames arrive from any local process: a damaged frame must come
    // back as an error, or as a record that re-encodes to a fixed point.
    support::SplitMix64 rng(27);
    for (const auto &[name, frame] : sampleFrames()) {
        const bool request = name.rfind("request-", 0) == 0;
        auto roundTrip = [request](const std::string &text,
                                   std::string &encoded,
                                   std::string &error) {
            service::Request req;
            service::Response resp;
            if (request ? !service::decodeRequest(text, req, error)
                        : !service::decodeResponse(text, resp, error))
                return false;
            encoded = request ? service::encodeRequest(req)
                              : service::encodeResponse(resp);
            return true;
        };
        std::string once, twice, error;
        for (int edit = 0; edit < 500; ++edit) {
            const std::string mutant = mutation::mutateOnce(frame, rng);
            if (!roundTrip(mutant, once, error))
                continue;
            ASSERT_TRUE(roundTrip(once, twice, error))
                << name << " edit " << edit << ": " << error;
            ASSERT_EQ(twice, once) << name << " edit " << edit;
        }
    }
}

/** A connected AF_UNIX stream pair whose reading end times out. */
struct SocketPair
{
    support::Socket reader, writer;

    SocketPair()
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        reader = support::Socket(fds[0]);
        writer = support::Socket(fds[1]);
        // A read that waits for bytes never sent returns an error
        // after two seconds instead of hanging the suite.
        EXPECT_TRUE(support::setRecvTimeout(reader, 2000));
    }

    /** Send @p bytes raw, one send() per byte when @p split. */
    bool
    send(const std::string &bytes, bool split) const
    {
        const std::size_t step = split ? 1 : bytes.size();
        for (std::size_t at = 0; at < bytes.size(); at += step) {
            if (::send(writer.fd(), bytes.data() + at, step, MSG_NOSIGNAL) !=
                static_cast<ssize_t>(step))
                return false;
            if (split)
                std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        return true;
    }
};

/** The 4-byte big-endian length prefix of a frame. */
std::string
lengthPrefix(std::uint32_t n)
{
    std::string out;
    for (int shift = 24; shift >= 0; shift -= 8)
        out += static_cast<char>((n >> shift) & 0xff);
    return out;
}

TEST(Protocol, RecvFrameSurvivesSeededPrefixes)
{
    // The length prefix comes from any local process: each read must
    // return an error or exactly the payload sent, and return at once
    // -- the receive timeout is there only to fail a hang.
    constexpr std::size_t kMax = 64; // no case may allocate more
    support::SplitMix64 rng(29);
    auto bytes = [&rng](std::size_t n) {
        std::string out;
        for (std::size_t i = 0; i < n; ++i)
            out += static_cast<char>(rng.next());
        return out;
    };
    auto receive = [](const SocketPair &pair, std::string &payload,
                   std::string &error) {
        auto t0 = std::chrono::steady_clock::now();
        bool ok = support::recvFrame(pair.reader, payload, kMax, error);
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::seconds(1))
            << "recvFrame waited for bytes that never came: " << error;
        return ok;
    };

    for (int round = 0; round < 25; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        std::string payload, error;
        // 0-3 bytes of a prefix, then EOF.
        for (std::size_t len = 0; len < 4; ++len) {
            SocketPair pair;
            ASSERT_TRUE(pair.send(bytes(len), false));
            pair.writer.reset();
            EXPECT_FALSE(receive(pair, payload, error)) << len << " bytes";
            EXPECT_NE(error.find("closed"), std::string::npos) << error;
        }
        // A length above the limit, the writer still open: reading on
        // would time out instead of naming the limit.
        const std::uint32_t over = static_cast<std::uint32_t>(
            kMax + 1 + rng.next() % (0xFFFFFFFFull - kMax));
        for (std::uint32_t n : {over, 0xFFFFFFFFu}) {
            SocketPair pair;
            ASSERT_TRUE(pair.send(lengthPrefix(n) + bytes(8), false));
            EXPECT_FALSE(receive(pair, payload, error)) << n;
            EXPECT_NE(error.find("exceeds the limit of 64"),
                      std::string::npos)
                << error;
        }
        // A length promising more bytes than are sent, then EOF.
        {
            const auto n = static_cast<std::uint32_t>(
                1 + rng.next() % kMax);
            SocketPair pair;
            ASSERT_TRUE(pair.send(
                lengthPrefix(n) + bytes(rng.next() % n),
                false));
            pair.writer.reset();
            EXPECT_FALSE(receive(pair, payload, error)) << n;
            EXPECT_NE(error.find("closed"), std::string::npos) << error;
        }
    }

    // Valid frames back to back on one connection, written one byte at
    // a time by another thread: each read returns exactly its frame.
    std::vector<std::string> frames = {"", bytes(kMax)};
    for (int i = 0; i < 30; ++i)
        frames.push_back(bytes(rng.next() % (kMax + 1)));
    SocketPair pair;
    bool sent = true;
    std::thread writer([&] {
        for (const std::string &frame : frames)
            sent &= pair.send(lengthPrefix(frame.size()) + frame, true);
    });
    for (const std::string &frame : frames) {
        std::string payload, error;
        EXPECT_TRUE(receive(pair, payload, error)) << error;
        EXPECT_EQ(payload, frame);
    }
    writer.join();
    EXPECT_TRUE(sent);
    pair.writer.reset();
    std::string payload, error;
    EXPECT_FALSE(receive(pair, payload, error));
}

TEST(Server, RejectsVersionMismatchCleanly)
{
    service::Server server(service::ServerOptions{});
    service::Request req = compileRequest("gemm", 64);
    req.version = "0.0.1";
    service::Response resp = server.execute(req);
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("version mismatch"), std::string::npos);
}

TEST(Server, RejectsBadRequestsWithoutDying)
{
    service::Server server(service::ServerOptions{});

    service::Request unknown;
    unknown.version = support::kVersionString;
    unknown.method = "frobnicate";
    EXPECT_EQ(server.execute(unknown).status, "error");

    service::Request bad_workload = compileRequest("nope", 64);
    service::Response resp = server.execute(bad_workload);
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("unknown workload"), std::string::npos);

    service::Request bad_strategy = compileRequest("gemm", 64);
    bad_strategy.strategy = "bogus";
    resp = server.execute(bad_strategy);
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("unknown strategy"), std::string::npos);

    service::Request v2_baseline = compileRequest("gemm", 64, "v2");
    v2_baseline.framework = "pluto";
    resp = server.execute(v2_baseline);
    EXPECT_EQ(resp.status, "error");

    // No wire method takes client-supplied IR.
    service::Request opt;
    opt.version = support::kVersionString;
    opt.method = "opt";
    resp = server.execute(opt);
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("unknown method 'opt'"), std::string::npos)
        << resp.error;

    // The server still works after all those failures.
    service::Request ping;
    ping.version = support::kVersionString;
    ping.method = "ping";
    EXPECT_EQ(server.execute(ping).status, "ok");
}

TEST(Server, CompileMatchesOneShotJournalByteForByte)
{
    hls::NodeReportCache::global().clear();
    std::string direct = oneShotJournalV2("gemm", 64);

    service::Server server(service::ServerOptions{});
    service::Response resp =
        server.execute(compileRequest("gemm", 64, "v2"));
    ASSERT_EQ(resp.status, "ok") << resp.error;
    EXPECT_EQ(resp.journalText, direct);
    EXPECT_FALSE(resp.reportLine.empty());
    hls::NodeReportCache::global().clear();
}

TEST(Server, CompileFrameOptionsReachTheSearch)
{
    // A frame's framework, strategy and resources reach the run: each
    // reply carries the report line runFramework gives under the same
    // DseOptions, printed against its budget(), and that line is not
    // the default request's. On gemm 64 the budget alone moves the
    // line, so the notes, which name the framework and the search
    // strategy, must match too.
    service::Server server(service::ServerOptions{});
    service::Response plain = server.execute(compileRequest("gemm", 64));
    ASSERT_EQ(plain.status, "ok") << plain.error;

    struct Case
    {
        const char *framework;
        baselines::Framework kind;
        dse::StrategyKind strategy;
    };
    for (const Case &c :
         {Case{"pom", baselines::Framework::Pom, dse::StrategyKind::Beam},
          Case{"scalehls", baselines::Framework::ScaleHls,
               dse::StrategyKind::Greedy}}) {
        SCOPED_TRACE(c.framework);
        service::Request req = compileRequest("gemm", 64);
        req.framework = c.framework;
        req.strategy = dse::strategyName(c.strategy);
        req.resourceFraction = 0.25;
        service::Response resp = server.execute(req);
        ASSERT_EQ(resp.status, "ok") << resp.error;

        dse::DseOptions options;
        options.strategy = c.strategy;
        options.resourceFraction = 0.25;
        auto w = workloads::makeByName("gemm", 64);
        baselines::BaselineResult direct =
            baselines::runFramework(c.kind, w->func(), options);
        EXPECT_EQ(resp.reportLine, direct.report.str(options.budget()));
        EXPECT_NE(resp.reportLine, plain.reportLine);
        EXPECT_EQ(resp.notes, direct.notes);
        EXPECT_NE(resp.notes, plain.notes);
    }
}

// ----- the result memo -----------------------------------------------------

/** Every `dse.*`, `dep.*` and `trips.*` metric and `hls.estimates`. */
std::map<std::string, std::pair<std::int64_t, double>>
searchMetrics()
{
    std::map<std::string, std::pair<std::int64_t, double>> out;
    for (const auto &[name, m] : obs::metricsSnapshot()) {
        if (name.rfind("dse.", 0) == 0 || name.rfind("dep.", 0) == 0 ||
            name.rfind("trips.", 0) == 0 || name == "hls.estimates") {
            out[name] = {m.count, m.value};
        }
    }
    return out;
}

std::int64_t
resultMemoHits()
{
    return obs::counterValue("pomd.result_memo.hits");
}

TEST(ResultMemo, RepeatedCompileRunsNoSearch)
{
    // The second execute of one compile request finds its result in
    // the memo: no search, dependence analysis, trip count or estimate
    // runs, and its reply is the first one's but for `seconds` and the
    // hit/miss split of its points.
    obs::setMetricsEnabled(true);
    for (const char *name : {"gemm", "2mm", "seidel"}) {
        SCOPED_TRACE(name);
        cold::clearProcessMemos();
        service::Server server(service::ServerOptions{});
        service::Request req = compileRequest(name, 64, "v2");
        req.emit = true;
        const service::Response first = server.execute(req);
        ASSERT_EQ(first.status, "ok") << first.error;
        EXPECT_GT(first.cacheMisses, 0);

        const auto before = searchMetrics();
        const std::int64_t hits = resultMemoHits();
        const service::Response second = server.execute(req);
        ASSERT_EQ(second.status, "ok") << second.error;
        EXPECT_EQ(searchMetrics(), before);
        EXPECT_EQ(resultMemoHits() - hits, 1);

        EXPECT_EQ(second.cacheHits, first.cacheHits + first.cacheMisses);
        EXPECT_EQ(second.cacheMisses, 0);
        EXPECT_FALSE(second.journalText.empty());
        EXPECT_FALSE(second.hlsC.empty());
        service::Response same = second;
        same.seconds = first.seconds;
        same.cacheHits = first.cacheHits;
        same.cacheMisses = first.cacheMisses;
        EXPECT_EQ(service::encodeResponse(same),
                  service::encodeResponse(first));
    }
    obs::setMetricsEnabled(false);
}

TEST(ResultMemo, EachKeyPartRunsItsOwnSearch)
{
    // Requests that differ from the first in one key part each miss
    // and print what their one-shot runFramework prints; sent again,
    // each hits its own entry and prints the same.
    struct Case
    {
        const char *label;
        const char *workload;
        std::int64_t size;
        const char *framework;
        dse::StrategyKind strategy;
        double resources;
    };
    const Case cases[] = {
        {"base", "gemm", 32, "pom", dse::StrategyKind::Greedy, 1.0},
        {"workload", "bicg", 32, "pom", dse::StrategyKind::Greedy, 1.0},
        {"size", "gemm", 64, "pom", dse::StrategyKind::Greedy, 1.0},
        {"framework", "gemm", 32, "scalehls", dse::StrategyKind::Greedy,
         1.0},
        {"strategy", "gemm", 32, "pom", dse::StrategyKind::Beam, 1.0},
        {"resources", "gemm", 32, "pom", dse::StrategyKind::Greedy, 0.5},
        {"resources one ulp apart", "gemm", 32, "pom",
         dse::StrategyKind::Greedy, std::nextafter(1.0, 0.0)},
    };
    auto request = [](const Case &c) {
        service::Request req = compileRequest(c.workload, c.size);
        req.framework = c.framework;
        req.strategy = dse::strategyName(c.strategy);
        req.resourceFraction = c.resources;
        req.emit = true;
        return req;
    };

    service::Server server(service::ServerOptions{});
    const std::int64_t hits = resultMemoHits();
    std::vector<service::Response> firsts;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.label);
        firsts.push_back(server.execute(request(c)));
        const service::Response &resp = firsts.back();
        ASSERT_EQ(resp.status, "ok") << resp.error;

        dse::DseOptions options;
        options.strategy = c.strategy;
        options.resourceFraction = c.resources;
        baselines::Framework kind;
        ASSERT_TRUE(baselines::parseFramework(c.framework, kind));
        auto w = workloads::makeByName(c.workload, c.size);
        baselines::BaselineResult direct =
            baselines::runFramework(kind, w->func(), options);
        EXPECT_EQ(resp.reportLine, direct.report.str(options.budget()));
        EXPECT_EQ(resp.notes, direct.notes);
        EXPECT_EQ(resp.hlsC, direct.design->hlsC());
    }
    EXPECT_EQ(resultMemoHits(), hits);

    for (size_t i = 0; i < std::size(cases); ++i) {
        SCOPED_TRACE(cases[i].label);
        const service::Response again = server.execute(request(cases[i]));
        ASSERT_EQ(again.status, "ok") << again.error;
        EXPECT_EQ(again.reportLine, firsts[i].reportLine);
        EXPECT_EQ(again.notes, firsts[i].notes);
        EXPECT_EQ(again.hlsC, firsts[i].hlsC);
    }
    EXPECT_EQ(resultMemoHits() - hits,
              static_cast<std::int64_t>(std::size(cases)));
}

TEST(ResultMemo, OneSearchServesEveryRendering)
{
    // One key asked for with and without HLS C and for no, a v1 and a
    // v2 journal runs one search. The first request, without HLS C,
    // misses alone; the other five hit at once on four workers, and
    // the three that ask for HLS C share one design, emitted once.
    // Each reply carries just what it asked for, and each journal the
    // daemon's stamp of its own request.
    auto w = workloads::makeByName("2mm", 32);
    baselines::BaselineResult direct = baselines::runPom(w->func());
    const std::string v1 = obs::journalJson(direct.journal);
    const std::string v2 =
        obs::journalJsonV2(direct.journal, direct.frontierRounds);
    const std::string hlsC = direct.design->hlsC();

    service::ServerOptions options;
    options.socketPath = scratchSocket("renderings");
    options.workers = 4;
    service::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::thread loop([&server]() { server.run(); });

    std::vector<service::Request> requests;
    for (bool emit : {false, true}) {
        for (const char *journal : {"none", "v1", "v2"}) {
            requests.push_back(compileRequest("2mm", 32, journal));
            requests.back().emit = emit;
        }
    }
    obs::setMetricsEnabled(true);
    const std::int64_t hits = resultMemoHits();
    const std::int64_t emitted = obs::counterValue("emit.functions");
    std::vector<service::Response> replies(requests.size());
    std::vector<std::string> failures(requests.size());
    auto send = [&](size_t i) {
        if (!service::callDaemon(options.socketPath, requests[i],
                                 replies[i], failures[i])) {
            return;
        }
        if (replies[i].status != "ok")
            failures[i] = replies[i].error;
    };
    send(0);
    std::vector<std::thread> clients;
    for (size_t i = 1; i < requests.size(); ++i)
        clients.emplace_back(send, i);
    for (std::thread &t : clients)
        t.join();
    server.stop();
    loop.join();
    EXPECT_EQ(resultMemoHits() - hits,
              static_cast<std::int64_t>(requests.size()) - 1);
    EXPECT_EQ(obs::counterValue("emit.functions") - emitted, 1);
    obs::setMetricsEnabled(false);

    std::vector<std::int64_t> ids;
    for (size_t i = 0; i < requests.size(); ++i) {
        const service::Request &req = requests[i];
        SCOPED_TRACE(std::string(req.emit ? "emit, " : "") + req.journal);
        ASSERT_TRUE(failures[i].empty()) << failures[i];
        service::Response &resp = replies[i];
        ids.push_back(resp.requestId);
        EXPECT_EQ(resp.hlsC, req.emit ? hlsC : "");
        if (req.journal == "none") {
            EXPECT_EQ(resp.journalText, "");
            continue;
        }
        EXPECT_EQ(stripRequestStamp(resp.journalText), resp.requestId);
        EXPECT_EQ(resp.journalText, req.journal == "v1" ? v1 : v2);
    }
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(ResultMemo, StatsFrameCountsRepeats)
{
    // gemm sent twice is one result held and one compile answered
    // without a search. The frame's design-point counts cover searched
    // points only, so the repeat leaves them as the first left them.
    service::Server server(service::ServerOptions{});
    service::Request stats;
    stats.version = support::kVersionString;
    stats.method = "stats";
    const service::Request req = compileRequest("gemm", 128);
    ASSERT_EQ(server.execute(req).status, "ok");
    const service::Response searched = server.execute(stats);
    ASSERT_EQ(server.execute(req).status, "ok");
    const service::Response resp = server.execute(stats);
    ASSERT_EQ(resp.status, "ok") << resp.error;
    EXPECT_EQ(resp.resultMemoHits, 1);
    EXPECT_EQ(resp.resultMemoEntries, 1);
    EXPECT_EQ(resp.cacheHits, searched.cacheHits);
    EXPECT_EQ(resp.cacheMisses, searched.cacheMisses);
    const std::string text = service::statsPrometheus(resp);
    EXPECT_NE(text.find("\npomd_result_memo_hits_total 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("\npomd_result_memo_entries 1\n"),
              std::string::npos);
}

TEST(ResultMemo, StoredDesignOutlivesItsFunction)
{
    // A stored result points into no function. The server compiles
    // without HLS C and destroys the workload; the repeated request
    // then emits the stored design's HLS C from it alone. The same
    // holds for a result kept past its function: it emits and prints
    // its AST. A read of the destroyed function would be a
    // use-after-free under the sanitizer build.
    auto fresh = workloads::makeByName("3mm", 32);
    baselines::BaselineResult cold_res = baselines::runPom(fresh->func());
    const std::string cold_ast = cold_res.design->lowered.astRoot->str();
    const std::string cold_hls = cold_res.design->hlsC();

    service::Server server(service::ServerOptions{});
    ASSERT_EQ(server.execute(compileRequest("3mm", 32)).status, "ok");
    service::Request emit = compileRequest("3mm", 32);
    emit.emit = true;
    const std::int64_t hits = resultMemoHits();
    const service::Response resp = server.execute(emit);
    ASSERT_EQ(resp.status, "ok") << resp.error;
    EXPECT_EQ(resultMemoHits() - hits, 1);
    EXPECT_EQ(resp.hlsC, cold_hls);

    auto a = workloads::makeByName("3mm", 32);
    baselines::BaselineResult kept = baselines::runPom(a->func());
    auto b = workloads::makeByName("3mm", 32);
    a.reset();
    EXPECT_EQ(kept.design->lowered.astRoot->str(), cold_ast);
    EXPECT_EQ(kept.design->hlsC(), cold_hls);
    check::OracleResult ok =
        check::checkLowered(b->func(), kept.design->lowered, /*seed=*/1);
    EXPECT_TRUE(ok.equivalent) << ok.message;
}

TEST(ServiceSocket, PingStatsAndShutdown)
{
    service::ServerOptions options;
    options.socketPath = scratchSocket("ping");
    service::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::thread loop([&server]() { server.run(); });

    service::Request ping;
    ping.version = support::kVersionString;
    ping.method = "ping";
    service::Response resp;
    ASSERT_TRUE(service::callDaemon(options.socketPath, ping, resp,
                                    error))
        << error;
    EXPECT_EQ(resp.status, "ok");
    EXPECT_EQ(resp.version, support::kVersionString);

    service::Request stats;
    stats.version = support::kVersionString;
    stats.method = "stats";
    ASSERT_TRUE(service::callDaemon(options.socketPath, stats, resp,
                                    error))
        << error;
    EXPECT_EQ(resp.status, "ok");
    EXPECT_GE(resp.requestsServed, 1);

    service::Request shutdown;
    shutdown.version = support::kVersionString;
    shutdown.method = "shutdown";
    ASSERT_TRUE(service::callDaemon(options.socketPath, shutdown, resp,
                                    error))
        << error;
    EXPECT_EQ(resp.status, "ok");
    loop.join();
}

TEST(ServiceSocket, OversizedIntegerFrameGetsAnErrorReply)
{
    service::ServerOptions options;
    options.socketPath = scratchSocket("bigint");
    service::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::thread loop([&server]() { server.run(); });

    // The frame that used to abort the daemon in a float-to-int cast.
    support::Socket conn = support::connectUnix(options.socketPath, error);
    ASSERT_TRUE(conn.valid()) << error;
    ASSERT_TRUE(support::sendFrame(
        conn,
        std::string("{\"pom\": \"") + support::kVersionString +
            "\", \"method\": \"compile\", \"workload\": \"gemm\", "
            "\"size\": 99999999999999999999}",
        error))
        << error;
    std::string reply_text;
    ASSERT_TRUE(support::recvFrame(conn, reply_text,
                                   service::kMaxFrameBytes, error))
        << error;
    service::Response resp;
    ASSERT_TRUE(service::decodeResponse(reply_text, resp, error)) << error;
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("'size'"), std::string::npos) << resp.error;
    server.stop();
    loop.join();
}

TEST(ServiceSocket, MistypedCompileFieldsGetAnErrorReply)
{
    service::ServerOptions options;
    options.socketPath = scratchSocket("mistyped");
    service::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::thread loop([&server]() { server.run(); });

    // Each used to compile: at the full budget, without HLS C, or as
    // framework "pom".
    const std::pair<const char *, const char *> fields[] = {
        {"resources", "\"0.25\""},
        {"emit", "\"yes\""},
        {"framework", "7"},
    };
    for (const auto &[key, value] : fields) {
        support::Socket conn =
            support::connectUnix(options.socketPath, error);
        ASSERT_TRUE(conn.valid()) << error;
        ASSERT_TRUE(support::sendFrame(
            conn,
            std::string("{\"pom\": \"") + support::kVersionString +
                "\", \"method\": \"compile\", \"workload\": \"gemm\", "
                "\"size\": 8, \"" + key + "\": " + value + "}",
            error))
            << error;
        std::string reply_text;
        ASSERT_TRUE(support::recvFrame(conn, reply_text,
                                       service::kMaxFrameBytes, error))
            << error;
        service::Response resp;
        ASSERT_TRUE(service::decodeResponse(reply_text, resp, error))
            << error;
        EXPECT_EQ(resp.status, "error") << key;
        EXPECT_NE(resp.error.find(std::string("'") + key + "'"),
                  std::string::npos)
            << resp.error;
    }
    server.stop();
    loop.join();
}

TEST(ServiceSocket, EscapedWorkloadNameKeepsEveryCodePoint)
{
    // "\u0167emm" used to decode as "gemm" (the code point's low byte
    // is 'g') and compile.
    service::ServerOptions options;
    options.socketPath = scratchSocket("escaped");
    service::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::thread loop([&server]() { server.run(); });

    support::Socket conn = support::connectUnix(options.socketPath, error);
    ASSERT_TRUE(conn.valid()) << error;
    ASSERT_TRUE(support::sendFrame(
        conn,
        std::string("{\"pom\": \"") + support::kVersionString +
            R"(", "method": "compile", "workload": "\u0167emm", )"
            R"("size": 8})",
        error))
        << error;
    std::string reply_text;
    ASSERT_TRUE(support::recvFrame(conn, reply_text,
                                   service::kMaxFrameBytes, error))
        << error;
    service::Response resp;
    ASSERT_TRUE(service::decodeResponse(reply_text, resp, error)) << error;
    EXPECT_EQ(resp.status, "error");
    EXPECT_EQ(resp.error, "unknown workload '\xC5\xA7" "emm'");
    server.stop();
    loop.join();
}

TEST(ServiceSocket, ConcurrentCompilesMatchOneShotByteForByte)
{
    hls::NodeReportCache::global().clear();
    const std::vector<std::pair<std::string, std::int64_t>> jobs = {
        {"gemm", 64}, {"gemm", 32}, {"bicg", 64}, {"gemm", 64},
        {"bicg", 64}, {"gemm", 32}, {"gemm", 64}, {"bicg", 64},
    };
    std::vector<std::string> expected;
    for (const auto &[name, size] : jobs)
        expected.push_back(oneShotJournalV2(name, size));

    service::ServerOptions options;
    options.socketPath = scratchSocket("conc");
    options.workers = 4;
    service::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::thread loop([&server]() { server.run(); });

    std::vector<std::string> served(jobs.size());
    std::vector<std::string> failures(jobs.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < jobs.size(); ++i) {
        clients.emplace_back([&, i]() {
            service::Response resp;
            std::string client_error;
            if (!service::callDaemon(
                    options.socketPath,
                    compileRequest(jobs[i].first, jobs[i].second, "v2"),
                    resp, client_error)) {
                failures[i] = client_error;
                return;
            }
            if (resp.status != "ok") {
                failures[i] = resp.error;
                return;
            }
            served[i] = resp.journalText;
        });
    }
    for (auto &t : clients)
        t.join();
    server.stop();
    loop.join();

    std::vector<std::int64_t> ids;
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(failures[i].empty()) << failures[i];
        // Socket-served journals are stamped with the daemon's request
        // ID; after stripping that one header key they must be
        // byte-identical to the one-shot run.
        std::int64_t id = stripRequestStamp(served[i]);
        EXPECT_GT(id, 0) << "journal missing the request stamp";
        ids.push_back(id);
        EXPECT_EQ(served[i], expected[i]) << jobs[i].first;
    }
    // Request IDs are unique across concurrent requests.
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
    hls::NodeReportCache::global().clear();
}

TEST(ServiceSocket, ConcurrentRepliesCountOnlyTheirOwnPoints)
{
    // A reply's cache_hits + cache_misses is the number of design
    // points its own search composed, however many requests overlap
    // it on other workers. The split between hits and misses depends
    // on what the node cache already holds; the sum does not.
    const std::vector<std::pair<std::string, std::int64_t>> jobs = {
        {"2mm", 64},  {"gemm", 64}, {"3mm", 64}, {"atax", 64},
        {"bicg", 64}, {"mvt", 64},  {"2mm", 64}, {"syrk", 64},
    };
    service::Server solo(service::ServerOptions{});
    std::vector<std::int64_t> expected;
    for (const auto &[name, size] : jobs) {
        service::Response resp = solo.execute(compileRequest(name, size));
        ASSERT_EQ(resp.status, "ok") << resp.error;
        expected.push_back(resp.cacheHits + resp.cacheMisses);
        EXPECT_GT(expected.back(), 1) << name;
    }

    service::ServerOptions options;
    options.socketPath = scratchSocket("counts");
    options.workers = 4;
    service::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::thread loop([&server]() { server.run(); });

    std::vector<std::int64_t> served(jobs.size(), -1);
    std::vector<std::string> failures(jobs.size());
    std::vector<std::thread> clients;
    for (size_t i = 0; i < jobs.size(); ++i) {
        clients.emplace_back([&, i]() {
            service::Response resp;
            std::string client_error;
            if (!service::callDaemon(
                    options.socketPath,
                    compileRequest(jobs[i].first, jobs[i].second), resp,
                    client_error)) {
                failures[i] = client_error;
                return;
            }
            if (resp.status != "ok") {
                failures[i] = resp.error;
                return;
            }
            served[i] = resp.cacheHits + resp.cacheMisses;
        });
    }
    for (auto &t : clients)
        t.join();
    server.stop();
    loop.join();

    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_TRUE(failures[i].empty()) << failures[i];
        EXPECT_EQ(served[i], expected[i])
            << jobs[i].first << ": cache_hits + cache_misses";
    }
    hls::NodeReportCache::global().clear();
}

TEST(ServiceSocket, FullQueueAnswersBusyWithRetryHint)
{
    service::ServerOptions options;
    options.socketPath = scratchSocket("busy");
    options.workers = 1;
    options.queueLimit = 1;
    options.retryAfterMs = 50;
    service::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::thread loop([&server]() { server.run(); });

    // Occupy the only slot with a real compile: the deepest search, on
    // cold caches, so it holds the slot for a while...
    cold::clearProcessMemos();
    std::thread holder([&]() {
        service::Response resp;
        std::string holder_error;
        EXPECT_TRUE(service::callDaemon(options.socketPath,
                                        compileRequest("vgg16", 64), resp,
                                        holder_error))
            << holder_error;
        EXPECT_EQ(resp.status, "ok") << resp.error;
    });
    service::Request stats;
    stats.version = support::kVersionString;
    stats.method = "stats";
    service::Response stats_resp;
    for (int poll = 0; poll < 10000 && stats_resp.queueDepth < 1; ++poll) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_TRUE(service::callDaemon(options.socketPath, stats,
                                        stats_resp, error))
            << error;
    }
    EXPECT_EQ(stats_resp.queueDepth, 1);

    // ... a raw single-shot client (zero retries) must see "busy" ...
    service::Request probe = compileRequest("gemm", 32);
    service::Response resp;
    EXPECT_FALSE(service::callDaemon(options.socketPath, probe, resp,
                                     error, /*busyRetries=*/0));
    EXPECT_NE(error.find("busy"), std::string::npos) << error;

    // ... while control methods bypass the queue entirely.
    service::Request ping;
    ping.version = support::kVersionString;
    ping.method = "ping";
    service::Response ping_resp;
    std::string ping_error;
    EXPECT_TRUE(service::callDaemon(options.socketPath, ping,
                                    ping_resp, ping_error))
        << ping_error;
    EXPECT_EQ(ping_resp.status, "ok");

    // A retrying client rides out the backpressure and succeeds.
    service::Response retried;
    std::string retry_error;
    EXPECT_TRUE(service::callDaemon(options.socketPath, probe, retried,
                                    retry_error, /*busyRetries=*/6000))
        << retry_error;
    EXPECT_EQ(retried.status, "ok") << retried.error;

    holder.join();
    server.stop();
    loop.join();
    hls::NodeReportCache::global().clear();
}

TEST(ServiceSocket, SleepIsNotAMethod)
{
    // No wire method may hold an executor slot for a client-chosen time:
    // one such frame per worker used to wedge the daemon.
    service::ServerOptions options;
    options.socketPath = scratchSocket("sleep");
    options.workers = 1;
    options.queueLimit = 1;
    service::Server server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::thread loop([&server]() { server.run(); });

    support::Socket conn = support::connectUnix(options.socketPath, error);
    ASSERT_TRUE(conn.valid()) << error;
    ASSERT_TRUE(support::sendFrame(
        conn,
        std::string("{\"pom\": \"") + support::kVersionString +
            "\", \"method\": \"sleep\", \"size\": 1}",
        error))
        << error;
    std::string reply_text;
    ASSERT_TRUE(support::recvFrame(conn, reply_text,
                                   service::kMaxFrameBytes, error))
        << error;
    service::Response resp;
    ASSERT_TRUE(service::decodeResponse(reply_text, resp, error)) << error;
    EXPECT_EQ(resp.status, "error");
    EXPECT_NE(resp.error.find("unknown method 'sleep'"), std::string::npos)
        << resp.error;

    // The daemon then serves a compile.
    service::Response compiled;
    ASSERT_TRUE(service::callDaemon(options.socketPath,
                                    compileRequest("gemm", 32), compiled,
                                    error))
        << error;
    EXPECT_EQ(compiled.status, "ok") << compiled.error;
    server.stop();
    loop.join();
}

} // namespace
