/**
 * @file
 * tier_dup: open-loop Poisson arrivals over one ShardClient connection
 * to a ShardRouter front door in front of two in-process ShardWorkers
 * on Unix sockets. The model is mini_unet at its serving shape (16 ch,
 * 8x8, 8 steps); 90% of arrivals come from a pool of 8 (seed,
 * conditioning) identities, all QuantDitto, SLO mix 1:2:1, no
 * deadlines, maxBatch 8, reuse cache on (64 MiB, checkpoint every 2).
 * With a cheap model the per-request tier overhead (framing, routing,
 * polling) and the reuse-cache hit path dominate; affinity routing only
 * pays when duplicates land on the worker that holds their prefix.
 *
 * The load climbs a fixed ladder of absolute rates (kTierLadderRps in
 * bench.h, never derived from a capacity measured at run time). Each
 * request is timed from its due time to the poll that sees its result,
 * so the tier's framing, routing and polling are included. Every served
 * image is checked bitwise against CompiledModel::rollout:
 * duplicate-pool references are computed during set-up, unique
 * requests are checked on a seeded sample between rate points.
 */
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "serve/server.h"
#include "shard/client.h"
#include "shard/router.h"
#include "shard/worker.h"
#include "stats/fidelity.h"

namespace perfbench {

namespace {

using namespace ditto;

constexpr int kSetupRepeats = 21;
constexpr int kServeSteps = 8;
constexpr int64_t kMaxBatch = 8;
constexpr int kPasses = 4; //!< passes (windows) over the ladder's rates
constexpr double kAnchorWeight = 3.0; //!< time of the low/high rates
constexpr double kWarmupSeconds = 1.0; //!< at most a tenth of the run
constexpr double kSampleFrac = 0.05; //!< unique requests checked bitwise

/**
 * Server configuration of every worker. The queue is deep enough
 * that no arrival is ever rejected or shed: past saturation the
 * backlog (and so the p99) grows instead, which the ladder reads.
 */
ServerConfig
servedConfig()
{
    ServerConfig c;
    c.maxBatch = kMaxBatch;
    c.workers = 1;
    c.queueCapacity = 1 << 20;
    c.reuse.capBytes = 64ll << 20;
    c.reuse.checkpointEvery = 2;
    return c;
}

/** Adds the counters the report reads from one snapshot into another. */
void
accumulate(ServeMetrics *into, const ServeMetrics &m)
{
    into->steps += m.steps;
    into->stepRequests += m.stepRequests;
    into->reuseHits += m.reuseHits;
    into->reuseMisses += m.reuseMisses;
    into->reuseStores += m.reuseStores;
    into->reuseEvictions += m.reuseEvictions;
    for (int c = 0; c < kNumSloClasses; ++c) {
        into->perClass[c].submitted += m.perClass[c].submitted;
        into->perClass[c].preempted += m.perClass[c].preempted;
    }
}

/** Two in-process shard workers, a router front door and one client. */
class TierBackend
{
  public:
    /** Socket paths are relative to the working directory. */
    TierBackend(const CompiledModel &m, const std::string &dir)
        : router_(shard::RouterConfig{}), front_(dir + "/front.sock")
    {
        for (int w = 0; w < 2; ++w)
            workers_.push_back(std::make_unique<shard::ShardWorker>(
                m, dir + "/w" + std::to_string(w) + ".sock", servedConfig()));
    }

    ~TierBackend()
    {
        client_.disconnect();
        router_.stopServing();
        for (auto &w : workers_)
            w->stop();
    }

    TierBackend(const TierBackend &) = delete;
    TierBackend &operator=(const TierBackend &) = delete;

    /** Start workers, router and front door, then connect; false + why. */
    bool
    start(std::string *why)
    {
        for (auto &w : workers_)
            if (!w->start(why) || !router_.addWorker(w->socketPath(), why))
                return false;
        return router_.serve(front_, why) && client_.connect(front_, why);
    }

    /** Submit; false on a transport failure. */
    bool
    submit(const DenoiseRequest &req, uint64_t *ticket)
    {
        return client_.submit(req, ticket);
    }

    /**
     * Poll `ticket`: true with *out filled when its result arrived, or
     * true with *failed set on a transport failure; false while the
     * request is still in flight.
     */
    bool
    collect(uint64_t ticket, DenoiseResult *out, bool *failed)
    {
        bool ready = false;
        *failed = !client_.poll(ticket, &ready, out);
        return *failed || ready;
    }

    /** Server metrics summed over the workers. */
    ServeMetrics
    metrics()
    {
        ServeMetrics sum;
        for (auto &w : workers_)
            accumulate(&sum, w->server().metrics());
        return sum;
    }

    /** Requests each worker's server accepted, in worker order. */
    std::vector<uint64_t>
    perWorkerSubmitted()
    {
        std::vector<uint64_t> out;
        for (auto &w : workers_)
            out.push_back(w->server().metrics().total(&ClassMetrics::submitted));
        return out;
    }

    /** The router's cold-resubmission counter. */
    uint64_t
    resubmitted()
    {
        const std::string j = router_.metricsJson();
        const size_t at = j.find("\"resubmitted\":");
        return at == std::string::npos
                   ? 0
                   : std::strtoull(j.c_str() + at + 14, nullptr, 10);
    }

  private:
    std::vector<std::unique_ptr<shard::ShardWorker>> workers_;
    shard::ShardRouter router_;
    const std::string front_;
    shard::ShardClient client_;
};

/** What the collector learns about one request. */
struct Completion
{
    size_t index = 0;       //!< position in the rung's schedule
    uint64_t noiseSeed = 0; //!< the request's identity, for the check
    RequestStatus status = RequestStatus::Rejected;
    bool transportFailed = false;
    bool mismatch = false;  //!< pool identity differed from its reference
    double e2eMs = 0.0, queueMs = 0.0, serviceMs = 0.0;
    int steps = 0, reusedSteps = 0;
    bool degraded = false;
    FloatTensor image;      //!< kept for sampled unique requests only
};

/** Server counters accumulated over a rate point. */
struct Counters
{
    uint64_t steps = 0, stepRequests = 0, preempted = 0;
    uint64_t hits = 0, misses = 0, stores = 0, evictions = 0;

    /** The counters' growth from snapshot `a` to snapshot `b`. */
    static Counters
    between(const ServeMetrics &a, const ServeMetrics &b)
    {
        Counters c;
        c.steps = b.steps - a.steps;
        c.stepRequests = b.stepRequests - a.stepRequests;
        c.preempted = b.total(&ClassMetrics::preempted) -
                      a.total(&ClassMetrics::preempted);
        c.hits = b.reuseHits - a.reuseHits;
        c.misses = b.reuseMisses - a.reuseMisses;
        c.stores = b.reuseStores - a.reuseStores;
        c.evictions = b.reuseEvictions - a.reuseEvictions;
        return c;
    }

    void
    add(const Counters &o)
    {
        steps += o.steps;
        stepRequests += o.stepRequests;
        preempted += o.preempted;
        hits += o.hits;
        misses += o.misses;
        stores += o.stores;
        evictions += o.evictions;
    }
};

/**
 * Result of one rate point. Each pass over the rate is one window; the
 * samples of all windows are pooled for the layer metrics, while the
 * rate's latency is the median over its windows of each window's
 * percentile, so a burst of CPU steal that slows one window does not
 * move it.
 */
struct RungResult
{
    double rps = 0.0;
    uint64_t sent = 0, succeeded = 0, failed = 0, mismatches = 0;
    std::vector<double> e2eMs, queueMs, serviceMs, lagMs, submitUs, pollUs;
    std::vector<double> winP50, winP90, winP99; //!< one value per window
    uint64_t polls = 0, readyPolls = 0;
    uint64_t degraded = 0, rejected = 0, reusedSteps = 0, steps = 0;
    size_t backlogAtEnd = 0; //!< unresolved when the arrivals stopped
    /**
     * Windows whose backlog grew: more than a quarter of the window's
     * arrivals (and more than two full batches) were still unresolved
     * as its arrivals stopped.
     */
    int grewWindows = 0;
    Counters counters;
    std::vector<Completion> checked; //!< sampled unique completions

    double p50() const { return median(winP50); }
    double p90() const { return median(winP90); }
    double p99() const { return median(winP99); }
    int windows() const { return static_cast<int>(winP99.size()); }
    bool backlogGrew() const { return 2 * grewWindows > windows(); }

    bool meets(double limitMs) const
    {
        return failed == 0 && !backlogGrew() && p99() <= limitMs;
    }

    /** Pool another pass of the same rate into this one. */
    void
    merge(RungResult &&o)
    {
        sent += o.sent;
        succeeded += o.succeeded;
        failed += o.failed;
        mismatches += o.mismatches;
        for (auto [into, from] :
             {std::pair{&e2eMs, &o.e2eMs}, {&queueMs, &o.queueMs},
              {&serviceMs, &o.serviceMs}, {&lagMs, &o.lagMs},
              {&submitUs, &o.submitUs}, {&pollUs, &o.pollUs},
              {&winP50, &o.winP50}, {&winP90, &o.winP90},
              {&winP99, &o.winP99}})
            into->insert(into->end(), from->begin(), from->end());
        polls += o.polls;
        readyPolls += o.readyPolls;
        degraded += o.degraded;
        rejected += o.rejected;
        reusedSteps += o.reusedSteps;
        steps += o.steps;
        backlogAtEnd = std::max(backlogAtEnd, o.backlogAtEnd);
        grewWindows += o.grewWindows;
        counters.add(o.counters);
    }
};

/** Everything one workload needs to drive and check a rung. */
struct Harness
{
    const Options *opt = nullptr;
    TierBackend *backend = nullptr;
    TrafficShape shape;
    std::vector<FloatTensor> dupRefs; //!< reference image per pool identity
};

/** Whether unique request `index` of rung `phase` is in the check sample. */
bool
inSample(uint64_t seed, int phase, size_t index)
{
    SeededRng r(deriveSeed(seed, 0x5A5A0000ull +
                                     (static_cast<uint64_t>(phase) << 24) +
                                     index));
    return r.uniform() < kSampleFrac;
}

Clock::duration
micros(double us)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(us));
}

/**
 * Drive one open-loop rate point: submit on schedule from this thread,
 * resolve tickets on collector threads, and return once every request
 * has resolved.
 */
RungResult
runRung(Harness &h, int phase, double rps, double seconds, Tracer *tr)
{
    RungResult r;
    r.rps = rps;
    const std::vector<Arrival> sched =
        poissonSchedule(h.opt->seed, phase, rps, seconds, h.shape);
    r.sent = sched.size();
    const ServeMetrics before = h.backend->metrics();

    struct Pending
    {
        size_t index;
        uint64_t ticket;
        Clock::time_point due, submitted;
    };
    std::mutex mu; // guards queue, done, completions and the poll tallies
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool done = false;
    std::vector<Completion> completions;
    std::atomic<size_t> outstanding{0};

    // `end` is when the poll that saw the result returned.
    auto finish = [&](const Pending &p, const DenoiseResult &res,
                      bool failed, Clock::time_point end) {
        Completion c;
        c.index = p.index;
        const Arrival &a = sched[p.index];
        c.noiseSeed = a.noiseSeed;
        c.transportFailed = failed;
        if (!failed) {
            c.status = res.status;
            c.queueMs = res.queueMicros / 1e3;
            c.serviceMs = res.serviceMicros / 1e3;
            c.e2eMs = msBetween(p.due, end);
            c.steps = res.steps;
            c.reusedSteps = res.reusedSteps;
            c.degraded = res.degraded;
            if (tr) {
                const uint64_t rid = p.index + 1;
                const int64_t span = tr->add("request", p.due, end, -1, rid);
                const auto admitted = p.submitted + micros(res.queueMicros);
                tr->add("queue", p.submitted, admitted, span, rid);
                tr->add("service", admitted,
                        admitted + micros(res.serviceMicros), span, rid);
            }
            if (res.status == RequestStatus::Done) {
                if (a.dupIdentity >= 0)
                    c.mismatch = !bitwiseEqual(res.image,
                                               h.dupRefs[a.dupIdentity]);
                else if (inSample(h.opt->seed, phase, p.index))
                    c.image = res.image;
            }
        }
        std::lock_guard<std::mutex> lk(mu);
        completions.push_back(std::move(c));
        --outstanding;
    };

    auto collectorLoop = [&]() {
        std::vector<Pending> mine;
        while (true) {
            {
                std::unique_lock<std::mutex> lk(mu);
                if (mine.empty())
                    cv.wait(lk, [&] { return done || !queue.empty(); });
                mine.insert(mine.end(), queue.begin(), queue.end());
                queue.clear();
                if (mine.empty() && done)
                    return;
            }
            bool progressed = false;
            for (size_t i = 0; i < mine.size();) {
                DenoiseResult res;
                bool failed = false;
                const auto t0 = Clock::now();
                const bool resolved =
                    h.backend->collect(mine[i].ticket, &res, &failed);
                const auto t1 = Clock::now();
                // Every poll is counted; only the polls that resolved a
                // request become spans, which keeps the dump small.
                if (tr && resolved)
                    tr->add("poll", t0, t1, -1, mine[i].index + 1);
                {
                    std::lock_guard<std::mutex> lk(mu);
                    r.pollUs.push_back(msBetween(t0, t1) * 1e3);
                    ++r.polls;
                    r.readyPolls += resolved && !failed ? 1 : 0;
                }
                if (!resolved) {
                    ++i;
                    continue;
                }
                progressed = true;
                finish(mine[i], res, failed, t1);
                mine[i] = mine.back();
                mine.pop_back();
            }
            if (!progressed && !mine.empty())
                std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    };
    std::thread collector(collectorLoop);

    uint64_t submitFailures = 0;
    const auto t0 = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < sched.size(); ++i) {
        const Arrival &a = sched[i];
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(a.dueSeconds));
        std::this_thread::sleep_until(due);
        DenoiseRequest req;
        req.seed = a.noiseSeed;
        req.conditioning = a.conditioning;
        req.steps = kServeSteps;
        req.mode = RunMode::QuantDitto;
        req.slo = static_cast<SloClass>(a.slo);
        const auto s0 = Clock::now();
        uint64_t ticket = 0;
        const bool ok = h.backend->submit(req, &ticket);
        const auto s1 = Clock::now();
        r.lagMs.push_back(msBetween(due, s0));
        r.submitUs.push_back(msBetween(s0, s1) * 1e3);
        if (tr)
            tr->add("submit", s0, s1, -1, i + 1);
        if (!ok) {
            ++submitFailures;
            continue;
        }
        ++outstanding;
        std::lock_guard<std::mutex> lk(mu);
        queue.push_back({i, ticket, due, s0});
        cv.notify_one();
    }
    r.backlogAtEnd = outstanding.load();
    {
        std::lock_guard<std::mutex> lk(mu);
        done = true;
    }
    cv.notify_all();
    collector.join();
    r.counters = Counters::between(before, h.backend->metrics());
    const bool grew =
        r.backlogAtEnd > std::max<size_t>(2 * kMaxBatch, sched.size() / 4);
    r.grewWindows = grew ? 1 : 0;

    r.failed = submitFailures;
    for (Completion &c : completions) {
        if (c.mismatch) {
            std::fprintf(stderr, "%s: served image != reference rollout "
                                 "(pool identity %d)\n",
                         h.opt->workload.c_str(), sched[c.index].dupIdentity);
            ++r.mismatches;
        }
        if (c.transportFailed || c.mismatch ||
            c.status != RequestStatus::Done) {
            ++r.failed;
            r.rejected += c.status == RequestStatus::Rejected ? 1 : 0;
            continue;
        }
        ++r.succeeded;
        r.e2eMs.push_back(c.e2eMs);
        r.queueMs.push_back(c.queueMs);
        r.serviceMs.push_back(c.serviceMs);
        r.degraded += c.degraded ? 1 : 0;
        r.reusedSteps += static_cast<uint64_t>(c.reusedSteps);
        r.steps += static_cast<uint64_t>(c.steps);
        if (!c.image.data().empty())
            r.checked.push_back(std::move(c));
    }
    r.winP50 = {percentile(r.e2eMs, 0.50)};
    r.winP90 = {percentile(r.e2eMs, 0.90)};
    r.winP99 = {percentile(r.e2eMs, 0.99)};
    return r;
}


/** Book one pass of a rate point into the report. */
void
book(const std::string &name, const RungResult &r, Report *rep)
{
    rep->attempted += r.sent;
    rep->fail(r.failed - r.mismatches);
    for (uint64_t i = 0; i < r.mismatches; ++i)
        rep->mismatch();
    char note[160];
    std::snprintf(note, sizeof note,
                  "p50 %.2f p90 %.2f p99 %.2f ms, backlog %zu, lag_p99 %.2f ms",
                  r.p50(), r.p90(), r.p99(), r.backlogAtEnd,
                  percentile(r.lagMs, 0.99));
    rep->phases.push_back({name, r.sent, r.succeeded, r.failed, note});
}

/**
 * goodput_rps: the ladder rate at which the p99 crosses the limit,
 * interpolated linearly between the last rate point that meets it and
 * the first that does not (a point with failures, or whose backlog
 * grew in most of its windows, misses whatever its p99). The top rate
 * when every point meets the limit; the lowest rate scaled by
 * limit/p99 when even that misses.
 */
double
goodput(const std::vector<RungResult> &rungs, double limitMs)
{
    if (!rungs[0].meets(limitMs))
        return rungs[0].rps * std::min(1.0, limitMs / rungs[0].p99());
    for (size_t i = 1; i < rungs.size(); ++i) {
        if (rungs[i].meets(limitMs))
            continue;
        const RungResult &a = rungs[i - 1], &b = rungs[i];
        if (b.failed || b.p99() <= a.p99())
            return a.rps;
        const double f = (limitMs - a.p99()) / (b.p99() - a.p99());
        return a.rps + (b.rps - a.rps) * std::clamp(f, 0.0, 1.0);
    }
    return rungs.back().rps;
}

/**
 * Reference checks of the served model, run between rate points (the
 * servers are idle then). Each check runs CompiledModel::rollout in
 * QuantDitto and QuantDirect (alternating which goes first); both must
 * agree bitwise, and with the served image when there is one. Some
 * checks also run ApproxDitto at the pinned policy and measure its PSNR
 * against the QuantDitto image. The report format wants every
 * end-to-end name from every workload, so the checks' rollouts also
 * give tier_dup's direct_ms, ditto_ms and approx_ms, with rollout_zoo's
 * statistic (rolloutTimeMs), and approx_psnr_db.
 */
class References
{
  public:
    References(const Options &opt, const CompiledModel &m, Tracer &tr)
        : opt_(opt), model_(m), tr_(tr)
    {}

    /** Check a pass's sampled completions, topped up with extra seeds. */
    void
    checkPass(const RungResult &r, Report *rep)
    {
        int exact = 0;
        for (const Completion &c : r.checked)
            check(c.noiseSeed, &c.image, exact++ < kApproxPerPass, rep);
        while (exact < kExactPerPass) {
            const uint64_t seed =
                deriveSeed(opt_.seed, 0x7E000ull + extra_++) & ~(1ull << 63);
            check(seed, nullptr, exact++ < kApproxPerPass, rep);
        }
    }

    /** direct_ms, ditto_ms, approx_ms, approx_psnr_db and the phase. */
    void
    report(Report *rep) const
    {
        rep->phases.push_back({"reference_check", checks_, checks_ - bad_,
                               bad_,
                               std::to_string(served_) +
                                   " of them served images"});
        rep->e2e("direct_ms", rolloutTimeMs(ms_[0]), "ms");
        rep->e2e("ditto_ms", rolloutTimeMs(ms_[1]), "ms");
        rep->e2e("approx_ms", rolloutTimeMs(ms_[2]), "ms");
        rep->e2e("approx_psnr_db", median(psnr_), "dB");
    }

  private:
    static constexpr int kExactPerPass = 10;
    static constexpr int kApproxPerPass = 5;

    RolloutResult
    timed(RunMode mode, const FloatTensor &noise, int slot)
    {
        const auto t0 = Clock::now();
        RolloutResult res = model_.rollout(mode, noise, kServeSteps);
        const auto t1 = Clock::now();
        tr_.add("reference_rollout", t0, t1);
        ms_[slot].push_back(msBetween(t0, t1));
        return res;
    }

    void
    check(uint64_t seed, const FloatTensor *served, bool approx, Report *rep)
    {
        const FloatTensor noise = model_.requestNoise(seed);
        const bool directFirst = checks_ % 2;
        RolloutResult first = timed(
            directFirst ? RunMode::QuantDirect : RunMode::QuantDitto, noise,
            directFirst ? 0 : 1);
        RolloutResult second = timed(
            directFirst ? RunMode::QuantDitto : RunMode::QuantDirect, noise,
            directFirst ? 1 : 0);
        const FloatTensor &ditto =
            directFirst ? second.finalImage : first.finalImage;
        bool ok = bitwiseEqual(first.finalImage, second.finalImage);
        if (served) {
            ++served_;
            ok = ok && bitwiseEqual(*served, ditto);
        }
        ++checks_;
        rep->attempted += 1;
        if (!ok) {
            std::fprintf(stderr, "%s: reference mismatch for seed %llu\n",
                         opt_.workload.c_str(),
                         static_cast<unsigned long long>(seed));
            ++bad_;
            rep->mismatch();
        }
        if (approx) {
            const RolloutResult a = timed(RunMode::ApproxDitto, noise, 2);
            psnr_.push_back(
                std::min(999.0, compareImages(ditto, a.finalImage).psnrDb));
            rep->attempted += 1;
        }
    }

    const Options &opt_;
    const CompiledModel &model_;
    Tracer &tr_;
    std::vector<double> ms_[3], psnr_;
    uint64_t checks_ = 0, served_ = 0, bad_ = 0, extra_ = 0;
};

/**
 * Climb the ladder after a warm-up at the lowest rate: kPasses passes
 * over every rate, alternately ascending and descending, so every rate
 * gets kPasses windows spread over the whole run. The low and high
 * rates, whose latency is reported, get kAnchorWeight times the time of
 * the others. Traced runs first run the lowest rate once untraced and
 * once traced, so the tracing overhead is measured on the same traffic.
 */
std::vector<RungResult>
climbLadder(Harness &h, References &refs, Tracer &tr, Report *rep)
{
    const std::vector<double> ladder(std::begin(kTierLadderRps),
                                     std::end(kTierLadderRps));
    auto weight = [&](size_t i) {
        return i == 0 || ladder[i] == kTierHighRps ? kAnchorWeight : 1.0;
    };
    double units = tr.on() ? 2.0 : 0.0;
    for (size_t i = 0; i < ladder.size(); ++i)
        units += kPasses * weight(i);
    const double warmup = std::min(kWarmupSeconds, h.opt->seconds / 10);
    const double unitSeconds = (h.opt->seconds - warmup) / units;
    book("warmup", runRung(h, 999, ladder[0], warmup, nullptr), rep);
    if (tr.on()) {
        const RungResult plain =
            runRung(h, 900, ladder[0], unitSeconds, nullptr);
        book("untraced_low", plain, rep);
        const RungResult traced = runRung(h, 901, ladder[0], unitSeconds, &tr);
        book("traced_low", traced, rep);
        rep->layer("trace.overhead_frac", traced.p50() / plain.p50() - 1.0,
                   "fraction");
    }
    std::vector<RungResult> rungs;
    auto runPass = [&](int pass, size_t i) {
        RungResult r = runRung(h, pass * 100 + static_cast<int>(i), ladder[i],
                               unitSeconds * weight(i),
                               tr.on() ? &tr : nullptr);
        char name[48];
        std::snprintf(name, sizeof name, "rate_%g/%d", ladder[i], pass);
        book(name, r, rep);
        refs.checkPass(r, rep);
        if (i < rungs.size())
            rungs[i].merge(std::move(r));
        else
            rungs.push_back(std::move(r));
    };
    for (int pass = 0; pass < kPasses; ++pass)
        for (size_t k = 0; k < ladder.size(); ++k)
            runPass(pass, pass % 2 ? ladder.size() - 1 - k : k);
    for (const RungResult &r : rungs) {
        char name[32], note[160];
        std::snprintf(name, sizeof name, "rate_%g", r.rps);
        std::snprintf(note, sizeof note,
                      "median of %d windows: p50 %.2f p90 %.2f p99 %.2f ms, "
                      "backlog grew in %d, meets %g ms: %s",
                      r.windows(), r.p50(), r.p90(), r.p99(), r.grewWindows,
                      kTierLimitMs, r.meets(kTierLimitMs) ? "yes" : "no");
        rep->phases.push_back({name, r.sent, r.succeeded, r.failed, note});
    }
    return rungs;
}

const RungResult &
highRung(const std::vector<RungResult> &rungs)
{
    for (const RungResult &r : rungs)
        if (r.rps == kTierHighRps)
            return r;
    return rungs.back(); // unreachable: the ladder always runs the high rate
}

/** The latency, goodput, serve.* and loadgen.* metrics of a ladder. */
void
reportLadder(const std::vector<RungResult> &rungs, Report *rep)
{
    const RungResult &lo = rungs.front(), &hi = highRung(rungs);
    rep->e2e("low_p50_ms", lo.p50(), "ms");
    rep->e2e("low_p90_ms", lo.p90(), "ms");
    rep->e2e("high_p50_ms", hi.p50(), "ms");
    rep->e2e("high_p90_ms", hi.p90(), "ms");
    rep->e2e("goodput_rps", goodput(rungs, kTierLimitMs), "1/s");

    rep->layer("serve.queue_p50_ms", percentile(hi.queueMs, 0.5), "ms");
    rep->layer("serve.queue_p99_ms", percentile(hi.queueMs, 0.99), "ms");
    rep->layer("serve.service_p50_ms", percentile(hi.serviceMs, 0.5), "ms");
    rep->layer("serve.service_p99_ms", percentile(hi.serviceMs, 0.99), "ms");
    rep->layer("serve.batch_occupancy",
               hi.counters.steps
                   ? static_cast<double>(hi.counters.stepRequests) /
                         static_cast<double>(hi.counters.steps)
                   : 0.0,
               "count");
    rep->layer("serve.submit_p99_us", percentile(hi.submitUs, 0.99), "us");
    rep->layer("serve.preempted", static_cast<double>(hi.counters.preempted),
               "count");
    rep->layer("serve.degraded_frac",
               static_cast<double>(hi.degraded) /
                   static_cast<double>(std::max<uint64_t>(1, hi.succeeded)),
               "fraction");
    rep->layer("serve.rejected_frac",
               static_cast<double>(hi.rejected) /
                   static_cast<double>(std::max<uint64_t>(1, hi.sent)),
               "fraction");

    Counters all;
    uint64_t reused = 0, steps = 0;
    std::vector<double> lag;
    for (const RungResult &r : rungs) {
        all.add(r.counters);
        reused += r.reusedSteps;
        steps += r.steps;
        lag.insert(lag.end(), r.lagMs.begin(), r.lagMs.end());
    }
    const uint64_t lookups = all.hits + all.misses;
    rep->layer("serve.reuse_hit_rate",
               lookups ? static_cast<double>(all.hits) /
                             static_cast<double>(lookups)
                       : 0.0,
               "fraction");
    rep->layer("serve.reused_step_frac",
               static_cast<double>(reused) /
                   static_cast<double>(std::max<uint64_t>(1, steps)),
               "fraction");
    rep->layer("serve.reuse_stores", static_cast<double>(all.stores), "count");
    rep->layer("serve.reuse_evictions", static_cast<double>(all.evictions),
               "count");
    rep->layer("loadgen.lag_p99_ms", percentile(lag, 0.99), "ms");
}

} // namespace

void
runTierDup(const Options &opt, Tracer &tr, Report *rep)
{
    MiniUnetConfig cfg;
    cfg.channels = 16;
    cfg.resolution = 8;
    cfg.steps = kServeSteps;
    const std::string dir = ".bench_run";
    ::mkdir(dir.c_str(), 0755);
    const std::string sockDir = dir + "/tier-" + std::to_string(::getpid());
    ::mkdir(sockDir.c_str(), 0755);

    // Set-up, repeated: compile the model and start workers, router and
    // client until the first request can be sent. The last one serves.
    std::unique_ptr<CompiledModel> model;
    std::unique_ptr<TierBackend> backend;
    std::vector<double> setupS, compileMs;
    for (int i = 0; i < kSetupRepeats; ++i) {
        backend.reset();
        const auto t0 = Clock::now();
        model = std::make_unique<CompiledModel>(
            compile(miniUnetSpec(cfg), pinnedCompileOptions()));
        const auto t1 = Clock::now();
        backend = std::make_unique<TierBackend>(*model, sockDir);
        std::string why;
        if (!backend->start(&why)) {
            std::fprintf(stderr, "tier_dup: %s\n", why.c_str());
            std::exit(2);
        }
        const auto t2 = Clock::now();
        tr.add("compile", t0, t1);
        tr.add("start", t1, t2);
        compileMs.push_back(msBetween(t0, t1));
        setupS.push_back(secondsBetween(t0, t2));
    }
    rep->e2e("setup_s", median(setupS), "s");
    rep->layer("runtime.compile_ms.mini_unet", median(compileMs), "ms");

    Harness h;
    h.opt = &opt;
    h.backend = backend.get();
    h.shape.dupFrac = 0.9;
    h.shape.dupPool = 8;
    // Duplicate-pool references, computed before any traffic.
    for (int i = 0; i < h.shape.dupPool; ++i)
        h.dupRefs.push_back(
            model->rollout(RunMode::QuantDitto,
                           model->requestNoise(dupNoiseSeed(opt.seed, i)),
                           kServeSteps)
                .finalImage);

    References refs(opt, *model, tr);
    const std::vector<uint64_t> share0 = backend->perWorkerSubmitted();
    const uint64_t resub0 = backend->resubmitted();
    const std::vector<RungResult> rungs = climbLadder(h, refs, tr, rep);
    const std::vector<uint64_t> share1 = backend->perWorkerSubmitted();
    const uint64_t resub1 = backend->resubmitted();

    const RungResult &hi = highRung(rungs);
    rep->layer("shard.submit_rpc_p50_us", percentile(hi.submitUs, 0.5), "us");
    rep->layer("shard.submit_rpc_p99_us", percentile(hi.submitUs, 0.99), "us");
    rep->layer("shard.poll_rpc_p50_us", percentile(hi.pollUs, 0.5), "us");
    rep->layer("shard.poll_rpc_p99_us", percentile(hi.pollUs, 0.99), "us");
    rep->layer("shard.ready_poll_frac",
               static_cast<double>(hi.readyPolls) /
                   static_cast<double>(std::max<uint64_t>(1, hi.polls)),
               "fraction");
    uint64_t total = 0, most = 0;
    for (size_t w = 0; w < share1.size(); ++w) {
        total += share1[w] - share0[w];
        most = std::max(most, share1[w] - share0[w]);
    }
    rep->layer("shard.worker_share_max",
               static_cast<double>(most) /
                   static_cast<double>(std::max<uint64_t>(1, total)),
               "fraction");
    rep->layer("shard.resubmitted", static_cast<double>(resub1 - resub0),
               "count");

    backend.reset();
    ::rmdir(sockDir.c_str());
    reportLadder(rungs, rep);
    refs.report(rep);
}

} // namespace perfbench
