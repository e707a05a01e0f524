#include "bench.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/cpu.h"
#include "core/diff_linear.h"
#include "tensor/simd/simd.h"

extern char **environ;

namespace perfbench {

namespace {

constexpr int kMallocMmapThreshold = 256 << 20; //!< above any one buffer
constexpr int kMallocTrimThreshold = 1 << 30;

bool
parseDouble(const char *text, double *out)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

std::string
fmtNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
parseOptions(int argc, char **argv, Options *out)
{
    Options o;
    bool haveWorkload = false, haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return "missing value for " + arg;
        const char *val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
            haveWorkload = true;
        } else if (arg == "--seed") {
            char *end = nullptr;
            o.seed = std::strtoull(val, &end, 10);
            if (end == val || *end != '\0')
                return "--seed wants an unsigned integer";
            haveSeed = true;
        } else if (arg == "--seconds") {
            if (!parseDouble(val, &o.seconds) || o.seconds <= 0.0 ||
                o.seconds > 120.0)
                return "--seconds wants a number in (0, 120]";
        } else if (arg == "--trace") {
            if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
                return "--trace wants 0 or 1";
            o.trace = val[0] == '1';
        } else if (arg == "--trace-out") {
            o.traceOut = val;
        } else {
            return "unknown argument " + arg;
        }
    }
    if (!haveWorkload || !haveSeed)
        return "--workload and --seed are required";
    if (o.workload != "rollout_zoo" && o.workload != "tier_dup")
        return "unknown workload " + o.workload;
    *out = std::move(o);
    return {};
}

uint64_t
SeededRng::next()
{
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
SeededRng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t tag)
{
    SeededRng r(seed ^ (tag * 0xD6E8FEB86659FD93ull));
    r.next();
    return r.next();
}

// Duplicate-pool noise seeds carry the top bit, unique ones never do,
// so a unique request can never alias a pool identity.
uint64_t
dupNoiseSeed(uint64_t seed, int i)
{
    return deriveSeed(seed, 0xD0B0000ull + static_cast<uint64_t>(i)) |
           (1ull << 63);
}

uint64_t
dupConditioning(uint64_t seed, int i)
{
    return deriveSeed(seed, 0xC0DD0000ull + static_cast<uint64_t>(i));
}

std::vector<Arrival>
poissonSchedule(uint64_t seed, int phase, double rps, double seconds,
                const TrafficShape &shape)
{
    SeededRng rng(deriveSeed(seed, 0xA77E0000ull + static_cast<uint64_t>(phase)));
    const double mixSum = shape.mix[0] + shape.mix[1] + shape.mix[2];
    std::vector<Arrival> out;
    double t = 0.0;
    uint64_t n = 0;
    while (true) {
        t += -std::log1p(-rng.uniform()) / rps;
        if (t >= seconds)
            break;
        Arrival a;
        a.dueSeconds = t;
        const double pick = rng.uniform() * mixSum;
        a.slo = pick < shape.mix[0]                  ? 0
                : pick < shape.mix[0] + shape.mix[1] ? 1
                                                     : 2;
        const double dupDraw = rng.uniform();
        const double idDraw = rng.uniform();
        if (dupDraw < shape.dupFrac) {
            a.dupIdentity = std::min(
                shape.dupPool - 1,
                static_cast<int>(idDraw * static_cast<double>(shape.dupPool)));
            a.noiseSeed = dupNoiseSeed(seed, a.dupIdentity);
            a.conditioning = dupConditioning(seed, a.dupIdentity);
        } else {
            a.noiseSeed = deriveSeed(seed, (static_cast<uint64_t>(phase) << 32) |
                                               n) &
                          ~(1ull << 63);
        }
        ++n;
        out.push_back(a);
    }
    return out;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
    return v[idx];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

double
rolloutTimeMs(const std::vector<double> &ms)
{
    return percentile(ms, 0.10);
}

Tracer::Tracer(bool on) : on_(on), epoch_(Clock::now())
{
    if (on_)
        spans_.reserve(1 << 16);
}

int64_t
Tracer::add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int64_t parent, uint64_t request)
{
    if (!on_)
        return -1;
    Span s{name,
           std::chrono::duration<double, std::micro>(start - epoch_).count(),
           std::chrono::duration<double, std::micro>(end - epoch_).count(),
           parent, request};
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size()) - 1;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    f << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        f << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << fmtNumber(s.startUs)
          << ",\"end_us\":" << fmtNumber(s.endUs)
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "]\n";
    return static_cast<bool>(f);
}

const std::vector<std::string> &
presetNames()
{
    static const std::vector<std::string> names = {
        "mini_unet", "deep_unet", "dit_block", "mhsa_block", "dit_adaln"};
    return names;
}

const std::vector<MetricSpec> &
endToEndCatalog()
{
    static const std::vector<MetricSpec> c = {
        {"setup_s", "s", "lower"},
        {"direct_ms", "ms", "lower"},
        {"ditto_ms", "ms", "lower"},
        {"approx_ms", "ms", "lower"},
        {"approx_psnr_db", "dB", "higher"},
        {"low_p50_ms", "ms", "lower"},
        {"low_p90_ms", "ms", "lower"},
        {"high_p50_ms", "ms", "lower"},
        {"high_p90_ms", "ms", "lower"},
        {"goodput_rps", "1/s", "higher"},
    };
    return c;
}

const std::vector<MetricSpec> &
perLayerCatalog()
{
    static const std::vector<MetricSpec> c = [] {
        std::vector<MetricSpec> v;
        for (const std::string &p : presetNames())
            for (const char *m : {"direct", "ditto", "approx"})
                v.push_back({"runtime.rollout_ms." + p + "." + m, "ms",
                             "lower"});
        for (const std::string &p : presetNames()) {
            v.push_back({"runtime.ditto_over_direct." + p, "ratio", "lower"});
            v.push_back({"runtime.first_step_ms." + p, "ms", "lower"});
            v.push_back({"runtime.primed_step_ms." + p, "ms", "lower"});
            v.push_back({"runtime.compile_ms." + p, "ms", "lower"});
            v.push_back({"runtime.approx_psnr_db." + p, "dB", "higher"});
            v.push_back({"core.reused_frac." + p, "fraction", "higher"});
            v.push_back({"core.zero_frac." + p, "fraction", "higher"});
            v.push_back({"core.low4_frac." + p, "fraction", "higher"});
            v.push_back({"core.full8_frac." + p, "fraction", "lower"});
        }
        for (const char *k : {"conv_int8.deep_unet", "gemm_int8.dit_block",
                              "softmax.dit_block", "gelu.dit_block"}) {
            const std::string s = k;
            const size_t dot = s.find('.');
            const std::string op = s.substr(0, dot), preset = s.substr(dot);
            v.push_back({"tensor." + op + "_us" + preset, "us", "lower"});
            v.push_back({"tensor." + op + "_ops" + preset, "count", "lower"});
            v.push_back(
                {"tensor." + op + "_bytes" + preset, "bytes", "lower"});
        }
        v.push_back({"tensor.conv_diff_us.deep_unet", "us", "lower"});
        v.push_back({"tensor.diff_gemm_us.dit_block", "us", "lower"});
        v.push_back({"quant.encode_us.deep_unet", "us", "lower"});
        v.push_back({"quant.encode_us.dit_block", "us", "lower"});
        v.push_back({"tensor.diff_penalty.deep_unet", "ratio", "lower"});
        v.push_back({"tensor.diff_penalty.dit_block", "ratio", "lower"});
        v.push_back({"serve.queue_p50_ms", "ms", "lower"});
        v.push_back({"serve.queue_p99_ms", "ms", "lower"});
        v.push_back({"serve.service_p50_ms", "ms", "lower"});
        v.push_back({"serve.service_p99_ms", "ms", "lower"});
        v.push_back({"serve.batch_occupancy", "count", "higher"});
        v.push_back({"serve.submit_p99_us", "us", "lower"});
        v.push_back({"serve.preempted", "count", "lower"});
        v.push_back({"serve.degraded_frac", "fraction", "lower"});
        v.push_back({"serve.rejected_frac", "fraction", "lower"});
        v.push_back({"serve.reuse_hit_rate", "fraction", "higher"});
        v.push_back({"serve.reused_step_frac", "fraction", "higher"});
        v.push_back({"serve.reuse_stores", "count", "lower"});
        v.push_back({"serve.reuse_evictions", "count", "lower"});
        v.push_back({"shard.submit_rpc_p50_us", "us", "lower"});
        v.push_back({"shard.submit_rpc_p99_us", "us", "lower"});
        v.push_back({"shard.poll_rpc_p50_us", "us", "lower"});
        v.push_back({"shard.poll_rpc_p99_us", "us", "lower"});
        v.push_back({"shard.ready_poll_frac", "fraction", "higher"});
        v.push_back({"shard.worker_share_max", "fraction", "lower"});
        v.push_back({"shard.resubmitted", "count", "lower"});
        v.push_back({"loadgen.lag_p99_ms", "ms", "lower"});
        v.push_back({"trace.overhead_frac", "fraction", "lower"});
        return v;
    }();
    return c;
}

std::string
Report::resultJson(bool traced) const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    const auto &catalog = traced ? perLayerCatalog() : endToEndCatalog();
    const auto &values = traced ? perLayer : endToEnd;
    bool first = true;
    for (const MetricSpec &m : catalog) {
        const auto it = values.find(m.name);
        if (it == values.end() && !traced) {
            std::fprintf(stderr, "perfbench: end-to-end metric %s was not "
                                 "measured\n",
                         m.name.c_str());
            std::exit(3);
        }
        const double v = it == values.end() ? 0.0 : it->second.value;
        out += first ? "" : ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " +
               fmtNumber(std::isfinite(v) ? v : 0.0) + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    out += "}}";
    return out;
}

ditto::CompileOptions
pinnedCompileOptions()
{
    ditto::CompileOptions o;
    o.approxSkipThresh = 0.5;
    o.approxMaxConsec = 3;
    return o;
}

bool
bitwiseEqual(const ditto::FloatTensor &a, const ditto::FloatTensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

std::string
pinEnvironment(const std::string &workload)
{
    // Every workload pins the intra-op pool to one thread: on a shared
    // 4-vCPU host, multi-threaded rollouts measured up to 4x slower and
    // swung up to 3x between runs (see README.md, "Threads").
    const std::string threads = "1";
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("DITTO_", 0) != 0)
            continue;
        const size_t eq = kv.find('=');
        const std::string name = kv.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : kv.substr(eq + 1);
        if (name == "DITTO_NO_CACHE" && value == "1")
            continue;
        if (name == "DITTO_NUM_THREADS" && value == threads)
            continue;
        return name + "=" + value + " is set; the benchmark pins "
               "DITTO_NO_CACHE=1 and DITTO_NUM_THREADS=" + threads +
               " for " + workload + " and refuses every other DITTO_* knob";
    }
    setenv("DITTO_NO_CACHE", "1", 1);
    setenv("DITTO_NUM_THREADS", threads.c_str(), 1);
    if (mallopt(M_MMAP_THRESHOLD, kMallocMmapThreshold) != 1 ||
        mallopt(M_TRIM_THRESHOLD, kMallocTrimThreshold) != 1)
        return "cannot pin the malloc thresholds";
    return {};
}

void
stampEnvironment(Report *rep)
{
    char host[256] = {};
    if (gethostname(host, sizeof host - 1) != 0)
        std::strcpy(host, "unknown");
    rep->environment["host"] = host;
    rep->environment["nproc"] =
        std::to_string(std::thread::hardware_concurrency());
    rep->environment["threads"] = std::getenv("DITTO_NUM_THREADS");
    rep->environment["malloc"] =
        "mmap_threshold=" + std::to_string(kMallocMmapThreshold) +
        " trim_threshold=" + std::to_string(kMallocTrimThreshold);
    rep->environment["simd"] =
        ditto::simd::levelName(ditto::simd::activeLevel());
    rep->environment["cpu_features"] = ditto::cpuFeatureSummary();
    rep->environment["diff_mac_penalty_wide"] =
        fmtNumber(ditto::diffMacPenalty(64));
    rep->environment["diff_mac_penalty_narrow"] =
        fmtNumber(ditto::diffMacPenalty(8));
}

} // namespace perfbench
