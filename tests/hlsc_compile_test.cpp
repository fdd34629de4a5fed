/**
 * @file
 * End-to-end validity of the emitted HLS C, in two tiers:
 *
 *  - syntax: write the generated code to a temporary file with a small
 *    compatibility prologue (the HLS `max`/`min` intrinsics) and
 *    syntax-check it with the host C++ compiler;
 *  - golden run: link selected kernels against a main() that replicates
 *    the interpreter's deterministic fill pattern, execute the binary,
 *    and diff its output against the interpreter running the same
 *    design over the same inputs.
 *
 * Both tiers are skipped if no host compiler is available.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/compiler.h"
#include "ir/interpreter.h"
#include "workloads/workloads.h"

namespace {

using namespace pom;

bool
haveHostCompiler()
{
    return std::system("c++ --version > /dev/null 2>&1") == 0;
}

void
expectCompiles(const std::string &code, const std::string &tag)
{
    if (!haveHostCompiler())
        GTEST_SKIP() << "no host compiler";
    std::string path = ::testing::TempDir() + "pom_emit_" + tag + ".cpp";
    {
        std::ofstream os(path);
        os << "#include <cstdint>\n#include <cmath>\n"
           << "using std::fmax; using std::fmin;\n"
           << "template <typename T> T max(T a, T b) "
           << "{ return a > b ? a : b; }\n"
           << "template <typename T> T min(T a, T b) "
           << "{ return a < b ? a : b; }\n"
           << code;
    }
    std::string cmd = "c++ -std=c++17 -fsyntax-only -Wall \"" + path +
                      "\" 2> \"" + path + ".log\"";
    int rc = std::system(cmd.c_str());
    std::string log;
    {
        std::ifstream is(path + ".log");
        log.assign(std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>());
    }
    EXPECT_EQ(rc, 0) << "emitted code failed to compile:\n"
                     << log << "\n--- code ---\n"
                     << code;
}

class EmittedCodeCompiles
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(EmittedCodeCompiles, WithHostCompiler)
{
    auto w = workloads::makeByName(GetParam(), 64);
    w->func().autoDSE();
    auto result = driver::compile(w->func());
    expectCompiles(result.design->hlsC(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Workloads, EmittedCodeCompiles,
                         ::testing::Values("gemm", "bicg", "gesummv",
                                           "2mm", "3mm", "atax", "mvt",
                                           "syrk", "conv2d", "jacobi1d",
                                           "heat1d", "seidel", "blur",
                                           "gaussian", "edgedetect"));

// ----- Golden run ---------------------------------------------------------

const char *kPrologue =
    "#include <cstdint>\n#include <cstdio>\n#include <cmath>\n"
    "using std::fmax; using std::fmin;\n"
    "template <typename T> T max(T a, T b) { return a > b ? a : b; }\n"
    "template <typename T> T min(T a, T b) { return a < b ? a : b; }\n";

/**
 * A main() that fills every kernel argument with the interpreter's
 * xorshift pattern (Buffer::fillPattern, seeded per argument exactly
 * like makeBuffersFor), runs the kernel, and prints every element of
 * every array with full precision.
 */
std::string
goldenMain(const dsl::Function &func, unsigned seed)
{
    std::ostringstream os;
    os << "static void fill(float *p, long n, unsigned seed) {\n"
       << "  unsigned state = seed * 2654435761u + 1u;\n"
       << "  for (long k = 0; k < n; ++k) {\n"
       << "    state ^= state << 13;\n"
       << "    state ^= state >> 17;\n"
       << "    state ^= state << 5;\n"
       << "    p[k] = (float)(((double)(state % 20001u) - 10000.0) / "
          "10000.0);\n"
       << "  }\n"
       << "}\n"
       << "int main() {\n";
    unsigned idx = 0;
    for (const dsl::Placeholder *ph : func.placeholders()) {
        std::int64_t total = 1;
        os << "  static float " << ph->name();
        for (std::int64_t d : ph->shape()) {
            os << "[" << d << "]";
            total *= d;
        }
        os << ";\n  fill((float *)" << ph->name() << ", " << total
           << ", " << (seed + 17 * idx++) << "u);\n";
    }
    os << "  " << func.name() << "(";
    for (size_t i = 0; i < func.placeholders().size(); ++i)
        os << (i ? ", " : "") << func.placeholders()[i]->name();
    os << ");\n";
    for (const dsl::Placeholder *ph : func.placeholders()) {
        std::int64_t total = 1;
        for (std::int64_t d : ph->shape())
            total *= d;
        os << "  { const float *p = (const float *)" << ph->name()
           << ";\n    for (long k = 0; k < " << total
           << "; ++k) std::printf(\"%.17g\\n\", (double)p[k]); }\n";
    }
    os << "  return 0;\n}\n";
    return os.str();
}

class GoldenRun : public ::testing::TestWithParam<const char *>
{};

TEST_P(GoldenRun, EmittedKernelMatchesInterpreter)
{
    if (!haveHostCompiler())
        GTEST_SKIP() << "no host compiler";
    const unsigned seed = 1;
    const std::int64_t size = 16;

    auto w = workloads::makeByName(GetParam(), size);
    w->func().autoDSE();
    auto result = driver::compile(w->func());

    // Interpret the same design over the same pattern-filled inputs.
    ir::BufferMap buffers =
        ir::makeBuffersFor(*result.design->lowered.func, seed);
    ir::runFunction(*result.design->lowered.func, buffers);

    // Build and execute the emitted kernel.
    std::string stem =
        ::testing::TempDir() + "pom_golden_" + GetParam();
    {
        std::ofstream os(stem + ".cpp");
        os << kPrologue << result.design->hlsC()
           << goldenMain(w->func(), seed);
    }
    ASSERT_EQ(std::system(("c++ -std=c++17 -O1 -o \"" + stem +
                           ".bin\" \"" + stem + ".cpp\" 2> \"" + stem +
                           ".log\"")
                              .c_str()),
              0)
        << [&] {
               std::ifstream is(stem + ".log");
               return std::string(std::istreambuf_iterator<char>(is),
                                  std::istreambuf_iterator<char>());
           }();
    ASSERT_EQ(std::system(("\"" + stem + ".bin\" > \"" + stem +
                           ".out\"")
                              .c_str()),
              0);

    std::ifstream out(stem + ".out");
    size_t mismatches = 0;
    for (const dsl::Placeholder *ph : w->func().placeholders()) {
        ASSERT_TRUE(buffers.count(ph->name())) << ph->name();
        const auto &expect = buffers[ph->name()]->data();
        for (size_t k = 0; k < expect.size(); ++k) {
            double actual = 0.0;
            ASSERT_TRUE(out >> actual)
                << "output truncated at " << ph->name() << "[" << k
                << "]";
            // The kernel computes in float, the interpreter in double.
            double tol =
                1e-9 + 1e-4 * std::max(std::abs(expect[k]),
                                       std::abs(actual));
            if (std::abs(actual - expect[k]) > tol && ++mismatches < 5) {
                ADD_FAILURE()
                    << ph->name() << "[" << k << "]: kernel " << actual
                    << " vs interpreter " << expect[k];
            }
        }
    }
    EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, GoldenRun,
                         ::testing::Values("gemm", "jacobi2d", "conv2d"));

TEST(EmittedCodeCompiles, ManualScheduleWithSkew)
{
    dsl::Function f("wavefront");
    dsl::Var i("i", 1, 64), j("j", 1, 64);
    dsl::Placeholder A(f, "A", {64, 64});
    dsl::Compute s(f, "s", {i, j}, A(i - 1, j) + A(i, j - 1), A(i, j));
    dsl::Var ip("ip"), jp("jp");
    s.skew(i, j, 1, ip, jp);
    s.interchange(ip, jp);
    s.pipeline(ip, 1);
    auto result = driver::compile(f);
    expectCompiles(result.design->hlsC(), "wavefront");
}

} // namespace
