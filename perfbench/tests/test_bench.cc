/**
 * @file
 * Tests of the benchmark's own plumbing: seeded inputs, the committed
 * rate ladder and the metric report. Plain checks, no framework; exits
 * non-zero on the first failed check.
 *
 *   .bench_build/perfbench_tests
 */
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <set>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

int g_checks = 0;

#define CHECK(cond)                                                          \
    do {                                                                     \
        ++g_checks;                                                          \
        if (!(cond)) {                                                       \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                         __LINE__, #cond);                                   \
            std::exit(1);                                                    \
        }                                                                    \
    } while (0)

bool
sameSchedule(const std::vector<Arrival> &a, const std::vector<Arrival> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].dueSeconds != b[i].dueSeconds ||
            a[i].noiseSeed != b[i].noiseSeed ||
            a[i].conditioning != b[i].conditioning || a[i].slo != b[i].slo ||
            a[i].dupIdentity != b[i].dupIdentity)
            return false;
    return true;
}

void
testScheduleIsAFunctionOfTheSeed()
{
    TrafficShape dup;
    dup.dupFrac = 0.9;
    for (const TrafficShape &shape : {TrafficShape{}, dup}) {
        const auto a = poissonSchedule(7, 0, 200.0, 2.0, shape);
        const auto b = poissonSchedule(7, 0, 200.0, 2.0, shape);
        const auto c = poissonSchedule(8, 0, 200.0, 2.0, shape);
        const auto d = poissonSchedule(7, 1, 200.0, 2.0, shape);
        CHECK(!a.empty());
        CHECK(sameSchedule(a, b));
        CHECK(!sameSchedule(a, c));
        CHECK(!sameSchedule(a, d));
        // Arrival times differ, and so do the identities and noise seeds.
        std::set<uint64_t> seedsA, seedsC;
        for (const Arrival &x : a)
            seedsA.insert(x.noiseSeed);
        for (const Arrival &x : c)
            seedsC.insert(x.noiseSeed);
        CHECK(seedsA != seedsC);
        CHECK(a[0].dueSeconds != c[0].dueSeconds);
    }
    CHECK(dupNoiseSeed(7, 3) == dupNoiseSeed(7, 3));
    CHECK(dupNoiseSeed(7, 3) != dupNoiseSeed(8, 3));
    CHECK(dupConditioning(7, 3) != dupConditioning(8, 3));
}

void
testScheduleShape()
{
    TrafficShape shape;
    shape.dupFrac = 0.9;
    const auto s = poissonSchedule(11, 2, 500.0, 4.0, shape);
    // Poisson count: mean 2000, sd ~45.
    CHECK(s.size() > 1800 && s.size() < 2200);
    size_t dup = 0;
    int slo[3] = {0, 0, 0};
    for (size_t i = 0; i < s.size(); ++i) {
        CHECK(s[i].dueSeconds >= 0.0 && s[i].dueSeconds < 4.0);
        if (i)
            CHECK(s[i].dueSeconds >= s[i - 1].dueSeconds);
        ++slo[s[i].slo];
        if (s[i].dupIdentity >= 0) {
            ++dup;
            CHECK(s[i].dupIdentity < shape.dupPool);
            CHECK(s[i].noiseSeed == dupNoiseSeed(11, s[i].dupIdentity));
            CHECK(s[i].conditioning == dupConditioning(11, s[i].dupIdentity));
        } else {
            // Unique identities can never alias a pool identity.
            CHECK((s[i].noiseSeed >> 63) == 0);
        }
    }
    const double dupShare = static_cast<double>(dup) / s.size();
    CHECK(dupShare > 0.87 && dupShare < 0.93);
    // SLO mix 1:2:1.
    CHECK(slo[1] > slo[0] && slo[1] > slo[2]);
}

void
testLadderIsCommitted()
{
    // Absolute req/s, ascending, with the high rate on the ladder.
    const std::vector<double> ladder(std::begin(kTierLadderRps),
                                     std::end(kTierLadderRps));
    CHECK(ladder == (std::vector<double>{500, 1500, 2000, 2500, 3000, 3500,
                                         4000, 5000, 6000}) &&
          kTierHighRps == 1500 && kTierLimitMs == 50);

    // No command-line knob can change them.
    const char *argv[] = {"perfbench", "--workload", "tier_dup", "--seed",
                          "3", "--seconds", "5", "--trace", "0"};
    Options o;
    CHECK(parseOptions(9, const_cast<char **>(argv), &o).empty());
    CHECK(o.seed == 3 && o.seconds == 5 && !o.trace);
    const char *knob[] = {"perfbench", "--workload", "tier_dup", "--seed",
                          "1", "--ladder", "40,80"};
    CHECK(!parseOptions(7, const_cast<char **>(knob), &o).empty());
    const char *bad[] = {"perfbench", "--workload", "nope", "--seed", "1"};
    CHECK(!parseOptions(5, const_cast<char **>(bad), &o).empty());
}

void
testEveryMetricIsReportedWithItsUnit()
{
    std::set<std::string> names;
    for (const auto *cat : {&endToEndCatalog(), &perLayerCatalog()})
        for (const MetricSpec &m : *cat) {
            CHECK(names.insert(m.name).second); // unique
            CHECK(!m.unit.empty());
            CHECK(m.better == "lower" || m.better == "higher");
        }
    CHECK(endToEndCatalog().size() == 10);
    CHECK(perLayerCatalog().size() <= 128);

    Report rep;
    rep.attempted = 1;
    for (const MetricSpec &m : endToEndCatalog())
        rep.e2e(m.name, 1.5, m.unit.c_str());
    const std::string e2e = rep.resultJson(false);
    const std::string layer = rep.resultJson(true);
    for (const MetricSpec &m : endToEndCatalog())
        CHECK(e2e.find("\"" + m.name + "\": {\"value\": 1.5, \"unit\": \"" +
                       m.unit + "\"}") != std::string::npos);
    for (const MetricSpec &m : perLayerCatalog())
        CHECK(layer.find("\"" + m.name + "\": {\"value\": ") !=
                  std::string::npos &&
              layer.find("\"unit\": \"" + m.unit + "\"") != std::string::npos);
    CHECK(e2e.rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "
                    "\"metrics\": {",
                    0) == 0);

    rep.mismatch();
    CHECK(!rep.correct && rep.failed == 1);
    rep.fail(2);
    CHECK(rep.failed == 3);
}

void
testStatistics()
{
    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({4, 1, 2, 3}) == 2.5);
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    CHECK(percentile(v, 0.5) == 50);
    CHECK(percentile(v, 0.99) == 99);
    CHECK(percentile(v, 1.0) == 100);
    CHECK(std::abs(geomean({1, 100}) - 10.0) < 1e-9);
}

} // namespace

int
main()
{
    testScheduleIsAFunctionOfTheSeed();
    testScheduleShape();
    testLadderIsCommitted();
    testEveryMetricIsReportedWithItsUnit();
    testStatistics();
    std::printf("perfbench_tests: %d checks passed\n", g_checks);
    return 0;
}
