/**
 * @file
 * rollout_zoo: the offline closed loop. One caller runs one rollout at
 * a time through CompiledModel::rollout with the intra-op pool pinned
 * to one thread, over all five presets at the bench_kernels shapes and
 * 25 steps, each in QuantDirect, QuantDitto and ApproxDitto. A kernel
 * phase then times tensor/ops.h and quant/encoder.h calls at preset
 * shapes and at each preset's measured difference-class mix.
 *
 * QuantDirect bypasses the difference path, so a change to that path
 * should move ditto_ms and leave direct_ms alone. 25 steps amortise
 * the dense first step; one thread keeps scheduler noise out of the
 * kernel signal.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>

#include "bench.h"
#include "quant/encoder.h"
#include "runtime/compiled.h"
#include "runtime/presets.h"
#include "stats/fidelity.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

using namespace ditto;

constexpr int kSteps = 25;
constexpr int kSetupRepeats = 5;
constexpr double kRolloutShare = 0.85; //!< of the timed run; kernels get the rest
constexpr const char *kModes[3] = {"direct", "ditto", "approx"};
constexpr RunMode kRunModes[3] = {RunMode::QuantDirect, RunMode::QuantDitto,
                                  RunMode::ApproxDitto};

/** The bench_kernels shapes, at 25 steps. */
ModelSpec
zooSpec(const std::string &name)
{
    if (name == "mini_unet") {
        MiniUnetConfig c;
        c.channels = 32;
        c.resolution = 16;
        c.steps = kSteps;
        return miniUnetSpec(c);
    }
    if (name == "deep_unet") {
        DeepUnetConfig c;
        c.baseChannels = 16;
        c.resolution = 16;
        c.steps = kSteps;
        return deepUnetSpec(c);
    }
    if (name == "dit_block") {
        DitBlockConfig c;
        c.embedDim = 32;
        c.resolution = 16;
        c.steps = kSteps;
        return ditBlockSpec(c);
    }
    if (name == "mhsa_block") {
        MhsaBlockConfig c;
        c.embedDim = 32;
        c.heads = 2;
        c.resolution = 16;
        c.steps = kSteps;
        return mhsaBlockSpec(c);
    }
    DitAdaLnConfig c;
    c.embedDim = 32;
    c.resolution = 16;
    c.steps = kSteps;
    return ditAdaLnSpec(c);
}

/** Per-preset tallies of the timed loop. */
struct PresetStats
{
    std::vector<double> ms[3];       //!< per mode, all rounds
    std::vector<double> tracedMs[3]; //!< traced rounds (trace runs)
    std::vector<double> firstStepMs, primedStepMs;
    OpCounts dittoOps;
    int64_t reusedElems = 0;
    int64_t approxOutElems = 0; //!< compute-node outputs over steps
    std::vector<double> psnr;     //!< ApproxDitto vs QuantDitto, per round
    FloatTensor firstApprox;      //!< round 0's ApproxDitto image
};

/** Classes of a difference stream, as measured in the rollouts. */
struct ClassMix
{
    double zero = 0.0, low4 = 0.0;
};

/**
 * previous/current int8 code tensors whose difference follows `mix`:
 * zero, a non-zero 4-bit-lane value, or an 8-bit-path value.
 */
void
mixedCodes(const Shape &shape, const ClassMix &mix, SeededRng &rng,
           Int8Tensor *prev, Int8Tensor *cur)
{
    *prev = Int8Tensor(shape);
    *cur = Int8Tensor(shape);
    for (int64_t i = 0; i < prev->numel(); ++i) {
        const int p = static_cast<int>(rng.next() % 121) - 60;
        const double u = rng.uniform();
        int d = 0;
        if (u >= mix.zero + mix.low4) {
            d = 8 + static_cast<int>(rng.next() % 53);
            d = rng.next() & 1 ? d : -d;
        } else if (u >= mix.zero) {
            d = static_cast<int>(rng.next() % 15) - 8; // [-8, 6]
            d = d >= 0 ? d + 1 : d;                    // skip 0 -> [-8, 7]
        }
        prev->at(i) = static_cast<int8_t>(p);
        cur->at(i) = static_cast<int8_t>(p + d);
    }
}

template <typename T>
T
randomTensor(const Shape &shape, SeededRng &rng)
{
    T t(shape);
    for (auto &v : t.data()) {
        if constexpr (std::is_same_v<T, FloatTensor>)
            v = static_cast<float>(rng.uniform() * 4.0 - 2.0);
        else
            v = static_cast<int8_t>(static_cast<int>(rng.next() % 255) - 127);
    }
    return t;
}

/** One timed kernel: a call plus its op count and bytes per call. */
struct Kernel
{
    std::string metric; //!< e.g. "tensor.conv_int8_us.deep_unet"
    std::function<void()> call;
    double ops = 0.0, bytes = 0.0;
    std::vector<double> us;
};

/** Kernel phase at preset shapes; fills the tensor.* / quant.* metrics. */
void
kernelPhase(const Options &opt, Clock::time_point deadline,
            const ClassMix &unetMix, const ClassMix &ditMix, Tracer &tr,
            Report *rep)
{
    SeededRng rng(deriveSeed(opt.seed, 0x4E47));

    // deep_unet enc_conv1: 16 -> 16 channels, 3x3, 16x16, padding 1.
    const Conv2dParams cp{16, 16, 3, 1, 1};
    const int64_t hw = 16;
    const Int8Tensor convW = randomTensor<Int8Tensor>(Shape{16, 16, 3, 3}, rng);
    Int8Tensor convPrev, convCur;
    mixedCodes(Shape{1, 16, hw, hw}, unetMix, rng, &convPrev, &convCur);
    Int8Tensor wmat(Shape{16, 16 * 9});
    std::copy(convW.data().begin(), convW.data().end(), wmat.data().begin());
    const Int8Tensor wmatT = transposeInt8(wmat);
    Int8Tensor wrevT(wmatT.shape());
    for (int64_t r = 0; r < 16 * 3; ++r) // (ic, ky) rows of taps
        for (int64_t kx = 0; kx < 3; ++kx)
            std::copy(wmatT.data().begin() + (r * 3 + kx) * 16,
                      wmatT.data().begin() + (r * 3 + kx + 1) * 16,
                      wrevT.data().begin() + (r * 3 + (2 - kx)) * 16);
    const Int32Tensor convPrevOut = conv2dInt8(convPrev, convW, cp);

    // dit_block mlp_fc1 / attention: 256 tokens, width 32 -> 64.
    const int64_t tokens = 256, d = 32, hidden = 64;
    const Int8Tensor fcW = randomTensor<Int8Tensor>(Shape{hidden, d}, rng);
    Int8Tensor fcPrev, fcCur;
    mixedCodes(Shape{tokens, d}, ditMix, rng, &fcPrev, &fcCur);
    const Int32Tensor fcPrevOut = fullyConnectedInt8(fcPrev, fcW);
    const FloatTensor scores =
        randomTensor<FloatTensor>(Shape{tokens, tokens}, rng);
    const FloatTensor mlp = randomTensor<FloatTensor>(Shape{tokens, hidden}, rng);

    const double convMacs = 16.0 * 16 * 9 * hw * hw;
    const double convIo = 16.0 * hw * hw + 16 * 16 * 9 + 4.0 * 16 * hw * hw;
    const double fcMacs = static_cast<double>(tokens * d * hidden);
    const double fcIo = static_cast<double>(tokens * d + hidden * d) +
                        4.0 * tokens * hidden;

    std::vector<Kernel> ks;
    ks.push_back({"tensor.conv_int8_us.deep_unet",
                  [&] { (void)conv2dInt8(convCur, convW, cp); }, convMacs,
                  convIo, {}});
    ks.push_back({"quant.encode_us.deep_unet",
                  [&] {
                      (void)encodeTemporalDiffRegion(convCur, convPrev, 0, 16,
                                                     hw * hw);
                  },
                  0, 0, {}});
    const DiffGemmPlan convPlan =
        encodeTemporalDiffRegion(convCur, convPrev, 0, 16, hw * hw);
    ks.push_back({"tensor.conv_diff_us.deep_unet",
                  [&] {
                      const Int32Tensor delta = convDeltaDiffPlan(
                          convPlan, wmatT, wrevT, cp, hw, hw);
                      (void)addConvDeltaInt32(convPrevOut, delta);
                  },
                  0, 0, {}});
    ks.push_back({"tensor.gemm_int8_us.dit_block",
                  [&] { (void)fullyConnectedInt8(fcCur, fcW); }, fcMacs, fcIo,
                  {}});
    ks.push_back({"quant.encode_us.dit_block",
                  [&] { (void)encodeTemporalDiff(fcCur, fcPrev); }, 0, 0, {}});
    const DiffGemmPlan fcPlan = encodeTemporalDiff(fcCur, fcPrev);
    ks.push_back({"tensor.diff_gemm_us.dit_block",
                  [&] { (void)matmulTransposedDiffPlan(fcPlan, fcW, &fcPrevOut); },
                  0, 0, {}});
    ks.push_back({"tensor.softmax_us.dit_block",
                  [&] { (void)softmaxRows(scores); },
                  static_cast<double>(tokens * tokens),
                  8.0 * tokens * tokens, {}});
    ks.push_back({"tensor.gelu_us.dit_block", [&] { (void)gelu(mlp); },
                  static_cast<double>(tokens * hidden),
                  8.0 * tokens * hidden, {}});

    // The diff kernels must reproduce the dense result exactly.
    {
        const Int32Tensor dense = conv2dInt8(convCur, convW, cp);
        const Int32Tensor viaDiff = addConvDeltaInt32(
            convPrevOut,
            convDeltaDiffPlan(convPlan, wmatT, wrevT, cp, hw, hw));
        const Int32Tensor fcDense = fullyConnectedInt8(fcCur, fcW);
        const Int32Tensor fcDiff =
            matmulTransposedDiffPlan(fcPlan, fcW, &fcPrevOut);
        rep->attempted += 2;
        if (!std::equal(dense.data().begin(), dense.data().end(),
                        viaDiff.data().begin()) ||
            !std::equal(fcDense.data().begin(), fcDense.data().end(),
                        fcDiff.data().begin())) {
            std::fprintf(stderr, "rollout_zoo: diff kernel != dense kernel\n");
            rep->mismatch();
        }
    }

    do {
        for (Kernel &k : ks) {
            const auto t0 = Clock::now();
            k.call();
            const auto t1 = Clock::now();
            k.us.push_back(msBetween(t0, t1) * 1e3);
            tr.add(k.metric, t0, t1);
        }
    } while (Clock::now() < deadline || ks[0].us.size() < 20);
    rep->phases.push_back({"kernels", ks.size() * ks[0].us.size(),
                           ks.size() * ks[0].us.size(), 0, ""});

    std::map<std::string, double> us;
    for (Kernel &k : ks) {
        us[k.metric] = median(k.us);
        rep->layer(k.metric, us[k.metric], "us");
        if (k.ops > 0) {
            std::string base = k.metric;
            const size_t pos = base.find("_us.");
            rep->layer(base.substr(0, pos) + "_ops" + base.substr(pos + 3),
                       k.ops, "count");
            rep->layer(base.substr(0, pos) + "_bytes" + base.substr(pos + 3),
                       k.bytes, "bytes");
        }
    }
    rep->layer("tensor.diff_penalty.deep_unet",
               us["tensor.conv_diff_us.deep_unet"] /
                   us["tensor.conv_int8_us.deep_unet"],
               "ratio");
    rep->layer("tensor.diff_penalty.dit_block",
               us["tensor.diff_gemm_us.dit_block"] /
                   us["tensor.gemm_int8_us.dit_block"],
               "ratio");
}

} // namespace

void
runRolloutZoo(const Options &opt, Tracer &tr, Report *rep)
{
    const std::vector<std::string> &names = presetNames();
    const size_t np = names.size();

    // Set-up: compile every preset, several times; the last set serves.
    std::vector<CompiledModel> models;
    std::vector<std::vector<double>> compileMs(np);
    std::vector<double> setupS;
    for (int rep_i = 0; rep_i < kSetupRepeats; ++rep_i) {
        models.clear();
        const auto s0 = Clock::now();
        for (size_t p = 0; p < np; ++p) {
            const auto t0 = Clock::now();
            models.push_back(compile(zooSpec(names[p]), pinnedCompileOptions()));
            const auto t1 = Clock::now();
            compileMs[p].push_back(msBetween(t0, t1));
            tr.add("compile", t0, t1);
        }
        setupS.push_back(secondsBetween(s0, Clock::now()));
    }
    rep->e2e("setup_s", median(setupS), "s");
    for (size_t p = 0; p < np; ++p)
        rep->layer("runtime.compile_ms." + names[p], median(compileMs[p]),
                   "ms");

    // Compute-node outputs per step: the base of core.reused_frac.
    std::vector<int64_t> outPerStep(np, 0);
    for (size_t p = 0; p < np; ++p)
        for (const auto &nr : models[p].nodeReports())
            outPerStep[p] += nr.outElems;

    std::vector<PresetStats> st(np);
    const auto runStart = Clock::now();
    const auto loopEnd = runStart + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            opt.seconds * kRolloutShare));
    uint64_t rollouts = 0, mismatches = 0;
    int round = 0;
    do {
        // Traced runs alternate untraced and traced rounds so the
        // tracing overhead is measured on the same work.
        const bool traced = tr.on() && (round % 2 == 1);
        const uint64_t seed = deriveSeed(opt.seed, 0x200000ull + round);
        for (size_t p = 0; p < np; ++p) {
            const CompiledModel &m = models[p];
            const FloatTensor noise = m.requestNoise(seed);
            RolloutResult res[3];
            for (int k = 0; k < 3; ++k) {
                const int mi = (k + round) % 3; // rotate the mode order
                const uint64_t rid = rollouts + 1;
                Clock::time_point t0, t1;
                if (traced && kRunModes[mi] == RunMode::QuantDitto) {
                    std::vector<Clock::time_point> marks;
                    t0 = Clock::now();
                    res[mi] = m.rollout(
                        kRunModes[mi], noise, kSteps,
                        [&](int, const FloatTensor &,
                            const CompiledModel::DittoState &) {
                            marks.push_back(Clock::now());
                        });
                    t1 = Clock::now();
                    const int64_t parent =
                        tr.add("rollout.ditto", t0, t1, -1, rid);
                    Clock::time_point prev = t0;
                    for (size_t s = 0; s < marks.size(); ++s) {
                        tr.add("step", prev, marks[s], parent, rid);
                        (s == 0 ? st[p].firstStepMs : st[p].primedStepMs)
                            .push_back(msBetween(prev, marks[s]));
                        prev = marks[s];
                    }
                } else {
                    t0 = Clock::now();
                    res[mi] = m.rollout(kRunModes[mi], noise, kSteps);
                    t1 = Clock::now();
                    if (traced)
                        tr.add(std::string("rollout.") + kModes[mi], t0, t1,
                               -1, rid);
                }
                ++rollouts;
                st[p].ms[mi].push_back(msBetween(t0, t1));
                if (traced)
                    st[p].tracedMs[mi].push_back(msBetween(t0, t1));
            }
            if (!bitwiseEqual(res[1].finalImage, res[0].finalImage)) {
                std::fprintf(stderr, "rollout_zoo: %s QuantDitto != "
                                     "QuantDirect (seed %llu)\n",
                             names[p].c_str(),
                             static_cast<unsigned long long>(seed));
                ++mismatches;
                rep->mismatch();
            }
            st[p].psnr.push_back(std::min(
                999.0,
                compareImages(res[1].finalImage, res[2].finalImage).psnrDb));
            if (round == 0)
                st[p].firstApprox = res[2].finalImage;
            st[p].dittoOps.merge(res[1].dittoOps);
            st[p].reusedElems += res[2].dittoOps.reusedElems;
            st[p].approxOutElems += outPerStep[p] * kSteps;
        }
        ++round;
    } while (Clock::now() < loopEnd || round < 2);
    rep->attempted += rollouts;
    rep->phases.push_back({"rollouts", rollouts, rollouts - mismatches,
                           mismatches, ""});

    // rolloutWithFidelity must reproduce round 0's ApproxDitto image
    // bitwise and report the PSNR the loop computed for it.
    const uint64_t seed0 = deriveSeed(opt.seed, 0x200000ull);
    uint64_t fidBad = 0;
    for (size_t p = 0; p < np; ++p) {
        const auto t0 = Clock::now();
        const RolloutResult r = models[p].rolloutWithFidelity(
            RunMode::ApproxDitto, models[p].requestNoise(seed0), kSteps);
        tr.add("rollout.fidelity", t0, Clock::now());
        if (!bitwiseEqual(r.finalImage, st[p].firstApprox) ||
            std::min(999.0, r.fidelity.psnrDb) != st[p].psnr[0]) {
            std::fprintf(stderr, "rollout_zoo: %s rolloutWithFidelity "
                                 "disagrees with rollout\n",
                         names[p].c_str());
            ++fidBad;
            rep->mismatch();
        }
    }
    rep->attempted += np;
    rep->phases.push_back({"fidelity", np, np - fidBad, fidBad, ""});

    // Metrics of the closed loop.
    std::vector<double> med[3], psnrs;
    std::vector<double> overhead;
    for (size_t p = 0; p < np; ++p) {
        const std::string &n = names[p];
        for (int mi = 0; mi < 3; ++mi) {
            const double m = rolloutTimeMs(st[p].ms[mi]);
            med[mi].push_back(m);
            rep->layer("runtime.rollout_ms." + n + "." + kModes[mi], m, "ms");
            if (!st[p].tracedMs[mi].empty()) {
                // Untraced rounds are the ones not in tracedMs.
                std::vector<double> untraced;
                for (size_t i = 0; i < st[p].ms[mi].size(); i += 2)
                    untraced.push_back(st[p].ms[mi][i]);
                overhead.push_back(rolloutTimeMs(st[p].tracedMs[mi]) /
                                   rolloutTimeMs(untraced));
            }
        }
        rep->layer("runtime.ditto_over_direct." + n,
                   rolloutTimeMs(st[p].ms[1]) / rolloutTimeMs(st[p].ms[0]),
                   "ratio");
        rep->layer("runtime.first_step_ms." + n, median(st[p].firstStepMs),
                   "ms");
        rep->layer("runtime.primed_step_ms." + n, median(st[p].primedStepMs),
                   "ms");
        const double ps = median(st[p].psnr);
        psnrs.push_back(ps);
        rep->layer("runtime.approx_psnr_db." + n, ps, "dB");
        rep->layer("core.reused_frac." + n,
                   static_cast<double>(st[p].reusedElems) /
                       static_cast<double>(st[p].approxOutElems),
                   "fraction");
        const double tot = static_cast<double>(st[p].dittoOps.total());
        rep->layer("core.zero_frac." + n,
                   static_cast<double>(st[p].dittoOps.zeroSkipped) / tot,
                   "fraction");
        rep->layer("core.low4_frac." + n,
                   static_cast<double>(st[p].dittoOps.low4) / tot, "fraction");
        rep->layer("core.full8_frac." + n,
                   static_cast<double>(st[p].dittoOps.full8) / tot,
                   "fraction");
    }
    const double dittoMs = geomean(med[1]);
    rep->e2e("direct_ms", geomean(med[0]), "ms");
    rep->e2e("ditto_ms", dittoMs, "ms");
    rep->e2e("approx_ms", geomean(med[2]), "ms");
    rep->e2e("approx_psnr_db", *std::min_element(psnrs.begin(), psnrs.end()),
             "dB");
    // This workload serves no traffic, but the report format wants every
    // end-to-end name from every workload. One closed-loop caller has no
    // queue, so every latency name repeats ditto_ms and goodput_rps is
    // its rate; none of them is a statistic of its own.
    for (const char *name :
         {"low_p50_ms", "low_p90_ms", "high_p50_ms", "high_p90_ms"})
        rep->e2e(name, dittoMs, "ms");
    rep->e2e("goodput_rps", 1e3 / dittoMs, "1/s");
    if (!overhead.empty())
        rep->layer("trace.overhead_frac", geomean(overhead) - 1.0,
                   "fraction");

    // Kernel phase at the measured class mixes (deep_unet, dit_block).
    auto mixOf = [&](const std::string &n) {
        const size_t p = static_cast<size_t>(
            std::find(names.begin(), names.end(), n) - names.begin());
        const double tot = static_cast<double>(st[p].dittoOps.total());
        return ClassMix{static_cast<double>(st[p].dittoOps.zeroSkipped) / tot,
                        static_cast<double>(st[p].dittoOps.low4) / tot};
    };
    kernelPhase(opt,
                runStart + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(opt.seconds)),
                mixOf("deep_unet"), mixOf("dit_block"), tr, rep);
}

} // namespace perfbench
