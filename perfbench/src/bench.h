/**
 * @file
 * Shared plumbing of the repository benchmark: the command line, the
 * seeded input generators, the span recorder, the statistics helpers
 * and the report every workload fills.
 *
 * The benchmark drives the library through its public surface only
 * (compile(), the preset specs, CompiledModel, tensor/ops.h,
 * quant/encoder.h, DenoiseServer and the shard tier). Everything a
 * workload sends is generated here from the workload seed, so the same
 * seed always produces the same arrivals, identities and noise seeds.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/compiled.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Parsed command line of one benchmark run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string traceOut; //!< span dump path (traced runs)
};

/**
 * Parse argv into *out. Returns an empty string on success, otherwise
 * the reason the command line was refused.
 */
std::string parseOptions(int argc, char **argv, Options *out);

/** splitmix64: the benchmark's own deterministic generator. */
class SeededRng
{
  public:
    explicit SeededRng(uint64_t seed) : state_(seed) {}

    uint64_t next();

    /** Uniform in [0, 1). */
    double uniform();

  private:
    uint64_t state_;
};

/** Mix a workload seed with a stream tag into an independent seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t tag);

/** One scheduled request of an open-loop phase. */
struct Arrival
{
    double dueSeconds = 0.0; //!< offset from the phase start
    uint64_t noiseSeed = 0;  //!< DenoiseRequest::seed
    uint64_t conditioning = 0;
    int slo = 1;             //!< SloClass as an integer
    int dupIdentity = -1;    //!< index into the duplicate pool, or -1
};

/** How a serving phase draws its requests. */
struct TrafficShape
{
    double dupFrac = 0.0; //!< share of arrivals from the duplicate pool
    int dupPool = 8;      //!< identities in the duplicate pool
    double mix[3] = {1.0, 2.0, 1.0}; //!< Interactive:Standard:BestEffort
};

/** Noise seed and conditioning of duplicate-pool identity `i`. */
uint64_t dupNoiseSeed(uint64_t seed, int i);
uint64_t dupConditioning(uint64_t seed, int i);

/**
 * Poisson arrivals at `rps` for `seconds`: a pure function of
 * (seed, phase, rps, seconds, shape). Unique requests get noise seeds
 * that never collide with the duplicate pool's.
 */
std::vector<Arrival> poissonSchedule(uint64_t seed, int phase, double rps,
                                     double seconds,
                                     const TrafficShape &shape);

/** Percentile by nearest rank (q in [0, 1]); 0 for an empty sample. */
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double geomean(const std::vector<double> &v);

/**
 * A model's rollout time from the rollouts timed in one run: their
 * 10th percentile. The shared host alternates between a fast and a
 * ~1.5x slower regime for seconds at a time (CPU steal), and the share
 * of slow time drifts between runs, which moves medians by up to 30%
 * while the fast-regime time stays put (README.md).
 */
double rolloutTimeMs(const std::vector<double> &ms);

/**
 * Span recorder. Spans live in memory and are written out once, when
 * the run ends; recording is a no-op unless tracing is on.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0; //!< since the tracer's epoch
        double endUs = 0.0;
        int64_t parent = -1;  //!< index of the enclosing span
        uint64_t request = 0; //!< request id (0: none)
    };

    explicit Tracer(bool on);

    bool on() const { return on_; }

    /**
     * Record a finished span; returns its index (-1 when off). Safe to
     * call from any thread.
     */
    int64_t add(const std::string &name, Clock::time_point start,
                Clock::time_point end, int64_t parent = -1,
                uint64_t request = 0);

    size_t size() const;

    /** Write the spans as a JSON array; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    const bool on_;
    const Clock::time_point epoch_;
    mutable std::mutex mu_; //!< guards spans_
    std::vector<Span> spans_;
};

/** One metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
struct Report
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;

    /** Sent/succeeded/failed per phase, printed before the result. */
    struct Phase
    {
        std::string name;
        uint64_t sent = 0, succeeded = 0, failed = 0;
        std::string note; //!< e.g. a rate point's latency percentiles
    };
    std::vector<Phase> phases;

    std::map<std::string, std::string> environment;

    void e2e(const std::string &name, double value, const char *unit)
    {
        endToEnd[name] = Metric{value, unit};
    }
    void layer(const std::string &name, double value, const char *unit)
    {
        perLayer[name] = Metric{value, unit};
    }

    /** Count failed operations (rejected, timed out, lost). */
    void fail(uint64_t n = 1) { failed += n; }

    /** Count an output that failed its bitwise check. */
    void mismatch()
    {
        failed += 1;
        correct = false;
    }

    /**
     * The single-line result object: the end-to-end set, or with
     * `traced` the per-layer set. Every catalogued end-to-end metric
     * must have been set; per-layer metrics a workload does not drive
     * read 0.
     */
    std::string resultJson(bool traced) const;
};

/** A catalogued metric: name, unit and which direction is better. */
struct MetricSpec
{
    std::string name;
    std::string unit;
    std::string better; //!< "lower" or "higher"
};

/** The end-to-end metrics every workload reports. */
const std::vector<MetricSpec> &endToEndCatalog();

/** The per-layer metrics every traced run reports. */
const std::vector<MetricSpec> &perLayerCatalog();

/** The presets of the rollout zoo, in report order. */
const std::vector<std::string> &presetNames();

/**
 * Pin the library's environment for `workload` before any library
 * call: DITTO_NO_CACHE=1, the workload's DITTO_NUM_THREADS, and fixed
 * malloc thresholds (everything from the heap, which is never trimmed).
 * glibc otherwise adapts its mmap and trim thresholds to the process's
 * allocation history; in some processes the executor's per-step
 * buffers then fault in fresh pages every step (8x the page faults,
 * QuantDirect rollouts 25% slower for the whole run). Returns an empty
 * string on success, else why the run is refused: any other DITTO_*
 * variable is set, or a pinned one is set to another value.
 */
std::string pinEnvironment(const std::string &workload);

/** Host, nproc, SIMD level and diff-MAC-penalty probe stamp. */
void stampEnvironment(Report *rep);

/**
 * Compile options of every model the benchmark builds: ApproxDitto's
 * policy is pinned (skip threshold 0.5, at most 3 consecutive skips),
 * never read from the environment.
 */
ditto::CompileOptions pinnedCompileOptions();

bool bitwiseEqual(const ditto::FloatTensor &a, const ditto::FloatTensor &b);

/**
 * tier_dup's fixed ladder of absolute arrival rates in req/s,
 * ascending. Committed here, never derived from a capacity measured at
 * run time.
 */
inline constexpr double kTierLadderRps[] = {500,  1500, 2000, 2500, 3000,
                                            3500, 4000, 5000, 6000};
/** The ladder rate whose latency tier_dup reports as high_*. */
inline constexpr double kTierHighRps = 1500;
/** The p99 latency limit that defines tier_dup's goodput_rps, in ms. */
inline constexpr double kTierLimitMs = 50;

/** The workloads, one per translation unit. */
void runRolloutZoo(const Options &opt, Tracer &tr, Report *rep);
void runTierDup(const Options &opt, Tracer &tr, Report *rep);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
