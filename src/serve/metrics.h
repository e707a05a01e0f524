/**
 * @file
 * Serving observability: latency histograms, lifecycle counters and a
 * JSON export.
 *
 * DenoiseServer maintains one ServeMetrics under its lock and hands
 * out consistent snapshots (DenoiseServer::metrics). Histograms are
 * fixed-size log2 bucket arrays — recording is O(1), allocation-free
 * and cheap enough to sit inside the server's critical section;
 * percentiles are read from the bucket boundaries (upper bound of the
 * bucket that crosses the requested rank), which is exact enough for
 * SLO dashboards and the load_gen latency-under-load curves while
 * keeping the server path free of per-request latency vectors.
 *
 * The JSON export (ServeMetrics::toJson) is the machine-readable
 * surface: examples/load_gen prints it after a run, and the field set
 * is documented in docs/serving.md.
 */
#ifndef DITTO_SERVE_METRICS_H
#define DITTO_SERVE_METRICS_H

#include <array>
#include <cstdint>
#include <string>

#include "serve/request.h"

namespace ditto {

/**
 * Log2-bucketed latency histogram over microseconds. Bucket b counts
 * samples in [2^b, 2^(b+1)) us (bucket 0 also takes everything below
 * 1 us); the last bucket is open-ended. 48 buckets cover ~8.9 years.
 */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 48;

    void record(double us);

    uint64_t count() const { return count_; }
    double sumUs() const { return sumUs_; }
    double maxUs() const { return maxUs_; }
    double meanUs() const
    {
        return count_ ? sumUs_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * Latency below which a fraction `q` (in (0, 1]) of samples fall:
     * the upper boundary of the bucket containing the q-th ranked
     * sample, clamped to the observed maximum. 0 when empty.
     */
    double percentileUs(double q) const;

  private:
    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t count_ = 0;
    double sumUs_ = 0.0;
    double maxUs_ = 0.0;
};

/** Lifecycle counters and latency distributions of one SLO class. */
struct ClassMetrics
{
    uint64_t submitted = 0;        //!< submit() calls (any outcome)
    uint64_t admitted = 0;         //!< first admission into an engine
    uint64_t completed = 0;        //!< terminal Done
    uint64_t rejectedCapacity = 0; //!< queue full at submit
    uint64_t rejectedShed = 0;     //!< overload policy rejection
    uint64_t rejectedFault = 0;    //!< injected submit/admission fault
    uint64_t degraded = 0;         //!< overload policy downgraded work
    uint64_t cancelled = 0;        //!< terminal Cancelled
    uint64_t timedOut = 0;         //!< terminal TimedOut
    uint64_t preempted = 0;        //!< Running -> Parked transitions
    uint64_t resumed = 0;          //!< Parked -> Running transitions

    LatencyHistogram queueUs;   //!< submit -> first admission
    LatencyHistogram serviceUs; //!< first admission -> Done
    LatencyHistogram e2eUs;     //!< submit -> Done
};

/** Full serving metrics (a consistent snapshot when copied out). */
struct ServeMetrics
{
    std::array<ClassMetrics, kNumSloClasses> perClass;

    uint64_t steps = 0;          //!< batched forward calls, all engines
    uint64_t stepRequests = 0;   //!< sum of batch occupancy over steps
    uint64_t batchesFormed = 0;  //!< idle -> running transitions
    uint64_t shedEntered = 0;    //!< load watcher engaged shedding
    uint64_t shedExited = 0;     //!< load watcher released shedding
    uint64_t queueDepth = 0;     //!< gauge at snapshot time
    uint64_t queueDepthPeak = 0; //!< high-water mark since start
    uint64_t parked = 0;         //!< gauge at snapshot time
    uint64_t parkedPeak = 0;     //!< high-water mark since start
    bool shedding = false;       //!< gauge at snapshot time

    /**
     * Cross-worker migration (src/shard/, docs/sharding.md):
     * requests this server exported to another worker
     * (exportForMigration) and requests it adopted from one
     * (importMigrated). A migrated-out ticket terminates here as
     * RequestStatus::Migrated; the adopted copy runs to its own
     * terminal state under a fresh ticket.
     */
    uint64_t migratedOut = 0;
    uint64_t migratedIn = 0;

    /**
     * Inter-request reuse-cache counters (src/serve/reuse_cache.h),
     * copied from the server's cache at snapshot time. All zero when
     * the cache is disabled (DITTO_REUSE_CAP_BYTES=0); the "reuse"
     * JSON object is emitted either way so dashboards need no
     * presence check.
     */
    uint64_t reuseHits = 0;       //!< lookups served from the cache
    uint64_t reuseMisses = 0;     //!< lookups with no usable prefix
    uint64_t reuseStores = 0;     //!< checkpoints accepted
    uint64_t reuseEvictions = 0;  //!< entries dropped by byte budget
    uint64_t reuseStepsSaved = 0; //!< steps skipped via warm starts
    uint64_t reuseBytes = 0;      //!< resident bytes (gauge)
    uint64_t reuseEntries = 0;    //!< resident entries (gauge)

    /**
     * ReuseCacheStats::generation: bumped by every ReuseCache::clear().
     * Lets a metrics merger (the shard router's cross-worker roll-up)
     * tell a *cleared* cache (generation advanced, counters continue)
     * from a *restarted* worker (generation and counters both reset) —
     * without it, re-aggregating after a restart double-counts.
     */
    uint64_t reuseGeneration = 0;

    /** Fraction of reuse lookups that hit (0 with no lookups). */
    double
    reuseHitRate() const
    {
        const uint64_t lookups = reuseHits + reuseMisses;
        return lookups ? static_cast<double>(reuseHits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }

    /** Sum of a counter over classes (e.g. &ClassMetrics::preempted). */
    uint64_t total(uint64_t ClassMetrics::*counter) const;

    /** Mean requests per executed step. */
    double
    avgOccupancy() const
    {
        return steps ? static_cast<double>(stepRequests) /
                           static_cast<double>(steps)
                     : 0.0;
    }

    /**
     * The whole snapshot as a single JSON object (single line): the
     * global counters/gauges plus one object per class with counters
     * and p50/p95/p99 of the queue, service and end-to-end histograms.
     * Field names are documented in docs/serving.md.
     */
    std::string toJson() const;
};

} // namespace ditto

#endif // DITTO_SERVE_METRICS_H
