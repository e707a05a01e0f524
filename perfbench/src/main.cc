/**
 * @file
 * The repository benchmark: one workload per run, one seed, one
 * result line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH]
 *
 * Prints the run's environment stamp, sent/succeeded/failed per phase
 * and every metric by name and unit, then, as the last line, one JSON
 * object {correct, attempted, failed, metrics}: the end-to-end metrics,
 * or with --trace 1 the per-layer metrics (the spans go to
 * --trace-out). Exits 1 when any output failed its bitwise check, 2 on
 * a refused command line or environment.
 */
#include <cstdio>
#include <string>

#include "bench.h"

using namespace perfbench;

int
main(int argc, char **argv)
{
    Options opt;
    const std::string why = parseOptions(argc, argv, &opt);
    if (!why.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        return 2;
    }
    const std::string env = pinEnvironment(opt.workload);
    if (!env.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", env.c_str());
        return 2;
    }

    Report rep;
    stampEnvironment(&rep);
    Tracer tr(opt.trace);
    if (opt.workload == "rollout_zoo")
        runRolloutZoo(opt, tr, &rep);
    else
        runTierDup(opt, tr, &rep);

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const auto &[k, v] : rep.environment)
        std::printf("env %-24s %s\n", k.c_str(), v.c_str());
    for (const auto &ph : rep.phases)
        std::printf("phase %-16s sent %8llu succeeded %8llu failed %6llu %s\n",
                    ph.name.c_str(), static_cast<unsigned long long>(ph.sent),
                    static_cast<unsigned long long>(ph.succeeded),
                    static_cast<unsigned long long>(ph.failed),
                    ph.note.c_str());
    for (const auto &[k, m] : rep.endToEnd)
        std::printf("e2e   %-40s %14.6g %s\n", k.c_str(), m.value,
                    m.unit.c_str());
    if (opt.trace)
        for (const auto &[k, m] : rep.perLayer)
            std::printf("layer %-40s %14.6g %s\n", k.c_str(), m.value,
                        m.unit.c_str());
    if (opt.trace && !opt.traceOut.empty()) {
        if (!tr.write(opt.traceOut)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
            return 2;
        }
        std::printf("trace %zu spans -> %s\n", tr.size(), opt.traceOut.c_str());
    }
    std::printf("%s\n", rep.resultJson(opt.trace).c_str());
    std::fflush(stdout);
    return rep.correct ? 0 : 1;
}
