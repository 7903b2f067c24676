/**
 * @file
 * End-to-end benchmark of PGSS-Sim: host time, simulated throughput,
 * memory and accuracy of the paper's workflows (a PGSS run, the
 * full-detailed reference, offline SimPoint, checkpoint seeks), plus
 * a per-layer replay ladder. Every simulator call goes through the
 * libraries' public functions and is timed from outside.
 *
 *   pgss_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * prints a few "# perfbench ..." lines (environment, the simulated-
 * statistics digest, per-layer values) and, last, one JSON object with
 * "correct", "attempted", "failed" and "metrics". perfbench/README.md
 * documents the workloads, the metrics and the layer map.
 */

#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cerrno>
#include <csignal>
#include <ctime>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/interval_profile.hh"
#include "analysis/profile_cache.hh"
#include "bbv/full_bbv.hh"
#include "bbv/hashed_bbv.hh"
#include "core/pgss_controller.hh"
#include "cpu/dyn_inst.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "obs/spans.hh"
#include "sampling/checkpointed.hh"
#include "sampling/simpoint_sampler.hh"
#include "sim/checkpoint_library.hh"
#include "sim/engine.hh"
#include "timing/branch_unit.hh"
#include "timing/in_order_pipeline.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"
#include "workload/suite.hh"

extern char **environ;

namespace
{

using namespace pgss;
using Clock = std::chrono::steady_clock;

/**
 * Workload scale: ~8M ops per suite program. Small enough that a pass
 * takes about a second, so each item is timed 10-20 times per run.
 */
constexpr double kScale = 0.02;
/** Ground-truth granularity (the bench harness's). */
constexpr std::uint64_t kProfileInterval = 100'000;
/** Set-up repetitions (about 3 s); setup_s is their median. A fixed
 *  count leaves the heap in the same state for every run, which keeps
 *  peak_rss_mb steady. */
constexpr int kSetupReps = 31;
/** checkpoint_seek: library stride and windows per program. */
constexpr std::uint64_t kCkptStride = 1'000'000;
constexpr std::uint64_t kWindowsPerProgram = 100;
/** checkpoint_seek: windows re-measured by plain fast-forward. */
constexpr std::uint64_t kVerifiedWindowsPerProgram = 2;
/** The default PGSS window: 3k detailed warm-up + 1k measured. */
constexpr std::uint64_t kWindowOps = 4'000;
/** Replay ladder: ops skipped before, and recorded into, a stream. */
constexpr std::uint64_t kLadderSkip = 1'000'000;
constexpr std::uint64_t kLadderOps = 250'000;
constexpr int kLadderReps = 5;
/** Replay ladder: ops per SimulationEngine::run rate probe. */
constexpr std::uint64_t kRateOps = 2'000'000;

const std::vector<std::string> kSeekPrograms = {"164.gzip"};

/** Host-speed probes (see timeQuiet): the time of one probe on a
 *  quiet core, probes taken before and after a timed call, and the
 *  interval of the probes taken during it. */
constexpr double kProbeRefS = 28e-6;
constexpr int kEdgeProbes = 8;
constexpr long kTickNs = 2'000'000;

/** Keeps replayed layer work observable to the optimiser. */
volatile std::uint64_t g_sink = 0;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

std::uint64_t
doubleBits(double x)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/** FNV-1a over 64-bit words: the simulated-statistics digest. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void addDouble(double x) { add(doubleBits(x)); }
};

/**
 * Correctness accounting. A failed check marks its item failed and
 * the run goes on; --expect-wrong offsets every expected value so the
 * self-tests can prove failures are counted.
 */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t offset = 0;

    /** Count one item; @p ok is its conjunction of checks. */
    void
    item(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
        }
    }

    /** An expected count, shifted under --expect-wrong. */
    std::uint64_t expect(std::uint64_t v) const { return v + offset; }
};

/** Named metric values with units, in insertion-independent order. */
struct MetricSet
{
    std::map<std::string, std::pair<double, std::string>> values;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        values[name] = {value, unit};
    }
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        auto &slot = values[name];
        slot.first += value;
        slot.second = unit;
    }
};

std::string
jsonMetrics(const MetricSet &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, vu] : m.values) {
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      first ? "" : ", ", name.c_str(), vu.first,
                      vu.second.c_str());
        out += buf;
        first = false;
    }
    return out + "}";
}

/** One program of a workload: built code plus its ground truth. */
struct Program
{
    std::string name;
    workload::BuiltWorkload built;
    analysis::IntervalProfile truth;
};

/** What one call of an item produced. */
struct ItemResult
{
    std::uint64_t sig = 0; ///< simulated-result signature
    bool ok = true;        ///< the item's own checks passed
};

/**
 * One timed unit of a workload pass. run() returns the item's
 * signature (must repeat exactly across passes) and whether its own
 * checks passed, and sets @p sim_ops to its simulated op count.
 */
struct Item
{
    std::string name;
    bool latency = true; ///< counted in the seek latency quantiles
    std::string check;   ///< what a failed ItemResult::ok means
    std::function<ItemResult(std::uint64_t &sim_ops)> run;
};

/**
 * One host-speed probe: eight independent integer chains with no
 * memory traffic, about 28 us on a quiet core of the 2.1 GHz Xeon the
 * benchmark was written on. Async-signal-safe, and out of line so its
 * code never depends on the caller.
 */
[[gnu::noinline]] double
probeSeconds()
{
    timespec t0{}, t1{};
    clock_gettime(CLOCK_MONOTONIC, &t0);
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    for (std::uint64_t i = 0; i < 20'000; ++i) {
        a += b ^ i;
        b += c >> 1;
        c ^= d + i;
        d += e << 1;
        e ^= f + a;
        f += g >> 2;
        g ^= h + i;
        h += a ^ c;
    }
    g_sink = g_sink + (a + b + c + d + e + f + g + h);
    clock_gettime(CLOCK_MONOTONIC, &t1);
    return static_cast<double>(t1.tv_sec - t0.tv_sec) +
           1e-9 * static_cast<double>(t1.tv_nsec - t0.tv_nsec);
}

/** Probes of the running timeQuiet call, summed; written by onTick,
 *  also from the tick signal, hence lock-free atomics. */
std::atomic<double> g_probe_sum{0.0};
std::atomic<double> g_tick_probe_sum{0.0};
std::atomic<int> g_probe_count{0};
static_assert(std::atomic<double>::is_always_lock_free &&
              std::atomic<int>::is_always_lock_free);

/** Take one probe: the tick signal's handler, also called directly
 *  for the probes before and after a call. */
void
onTick(int)
{
    const double p = probeSeconds();
    g_probe_sum.fetch_add(p, std::memory_order_relaxed);
    g_tick_probe_sum.fetch_add(p, std::memory_order_relaxed);
    g_probe_count.fetch_add(1, std::memory_order_relaxed);
}

/**
 * A kTickNs timer that signals this thread, whose handler takes one
 * probe. Created on first use by the thread that does all the timing.
 */
class TickTimer
{
  public:
    void
    arm(bool on)
    {
        if (!created_) {
            struct sigaction sa{};
            sa.sa_handler = onTick;
            sa.sa_flags = SA_RESTART;
            sigemptyset(&sa.sa_mask);
            sigaction(SIGRTMIN, &sa, nullptr);
            sigevent ev{};
            ev.sigev_notify = SIGEV_THREAD_ID;
            ev.sigev_signo = SIGRTMIN;
            ev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
            created_ = timer_create(CLOCK_MONOTONIC, &ev, &timer_) == 0;
            if (!created_)
                std::fprintf(stderr, "perfbench: no tick timer, timing "
                                     "with edge probes only\n");
        }
        if (!created_)
            return;
        itimerspec its{};
        if (on) {
            its.it_value.tv_nsec = kTickNs;
            its.it_interval.tv_nsec = kTickNs;
        }
        timer_settime(timer_, 0, &its, nullptr);
    }

  private:
    timer_t timer_{};
    bool created_ = false;
};

TickTimer g_ticks;

/** One timed call: host seconds, and the same in quiet-core seconds. */
struct Timed
{
    double raw_s = 0.0;
    double quiet_s = 0.0;
    double slowdown = 1.0; ///< mean probe time over kProbeRefS
    /** Converts host time measured inside the call to quiet-core time. */
    double to_quiet = 1.0;
};

/**
 * Time @p f in quiet-core seconds.
 *
 * On a shared VM the core's throughput swings by up to 2x at
 * sub-millisecond grain, most likely from other tenants on its SMT
 * sibling. A throughput-bound loop slows that much, while a
 * latency-bound loop and the steal counter do not move, and CPU time
 * slows with wall time. Under load hardly any 0.1 s span is quiet, so
 * best-of-N left whole runs up to 1.5x slow.
 *
 * The probe slows as the throughput-bound simulator does. So probes
 * are taken kEdgeProbes before @p f, every kTickNs during it (from a
 * timer signal) and kEdgeProbes after it, and @p f's quiet-core time
 * is its host time times kProbeRefS over their mean: its time in probe
 * units, scaled so that a quiet core of the host above reads about its
 * wall time. A slower or faster clock cancels the same way. Across one
 * run's PGSS items, log item time against log mean probe had slope
 * 0.7-1.4 and correlation 0.78-0.97 for all programs but memory-bound
 * 181.mcf (0.26, 0.64), and the quarters of the run agreed within
 * 3.3%. The probes taken during @p f are not counted in its host time.
 */
template <typename F>
Timed
timeQuiet(F &&f)
{
    g_probe_sum = 0.0;
    g_probe_count = 0;
    for (int i = 0; i < kEdgeProbes; ++i)
        onTick(0);
    g_tick_probe_sum = 0.0;
    g_ticks.arm(true);
    const Clock::time_point t0 = Clock::now();
    f();
    const double elapsed = secondsSince(t0);
    g_ticks.arm(false);
    const double raw = std::max(elapsed - g_tick_probe_sum, 1e-9);
    for (int i = 0; i < kEdgeProbes; ++i)
        onTick(0);
    const double mean = g_probe_sum / g_probe_count;
    return {raw, raw * kProbeRefS / mean, mean / kProbeRefS,
            raw / std::max(elapsed, 1e-9) * kProbeRefS / mean};
}

/**
 * Host-time accumulators around public calls, summed over passes in
 * quiet-core seconds: the calls of one item are scaled by that item's
 * probe readings when it ends (commit).
 */
struct LayerTimers
{
    std::map<std::string, double> seconds;
    std::map<std::string, double> pending; ///< the running item's calls

    /** Time @p f into accumulator @p name and return its result. */
    template <typename F>
    auto
    time(const std::string &name, F &&f)
    {
        const Clock::time_point t0 = Clock::now();
        auto r = f();
        pending[name] += secondsSince(t0);
        return r;
    }

    /** Close the running item, scaling its host time by @p to_quiet. */
    void
    commit(double to_quiet)
    {
        for (const auto &[name, s] : pending)
            seconds[name] += s * to_quiet;
        pending.clear();
    }
};

/** What the timed passes of one workload produced. */
struct PassStats
{
    int passes = 0;
    double wall_s = 0.0;        ///< sum over items of median quiet time
    double raw_wall_s = 0.0;    ///< sum over items of best host time
    double slowdown = 0.0;      ///< mean probe time over kProbeRefS
    double to_quiet = 1.0;      ///< quiet-core over host time, all calls
    double sim_ops = 0.0;       ///< simulated ops of one pass
    std::vector<double> latency_ms; ///< quiet time of each latency item
    MetricSet item_ms;          ///< quiet time of every item, by name
    std::uint64_t digest = 0;   ///< item signatures of pass 1
};

/**
 * Run whole passes over @p items for about @p seconds: a pass starts
 * only when it is expected to end within the budget, and the first
 * always runs. Each item is one checked item of @p checks, however
 * many passes run: it fails when its own checks fail in any pass or
 * its signature differs from pass 1's. So one failure moves ok_frac
 * by the same amount on every host.
 *
 * Every call is timed in quiet-core seconds (timeQuiet), and an item's
 * time is the median over passes. Its work is deterministic, so what
 * the probe does not account for is host noise, and the median is the
 * statistic such noise moves least. @p layers scales each item's
 * per-call timers the same way.
 */
PassStats
runPasses(const std::vector<Item> &items, double seconds, Checks &checks,
          LayerTimers &layers, const std::function<void()> &after_first_pass)
{
    PassStats st;
    std::vector<std::vector<double>> quiet(items.size());
    std::vector<double> best(items.size(), 0.0);
    std::vector<std::uint64_t> first_sig(items.size(), 0);
    std::vector<char> ok(items.size(), 1), repeats(items.size(), 1);
    double slowdown_sum = 0.0, quiet_sum = 0.0, host_sum = 0.0;
    const Clock::time_point start = Clock::now();
    for (;;) {
        std::uint64_t pass_ops = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
            std::uint64_t ops = 0;
            ItemResult r;
            const Timed t = timeQuiet([&] { r = items[i].run(ops); });
            layers.commit(t.to_quiet);
            quiet[i].push_back(t.quiet_s);
            best[i] = st.passes == 0 ? t.raw_s : std::min(best[i], t.raw_s);
            slowdown_sum += t.slowdown;
            quiet_sum += t.quiet_s;
            host_sum += t.quiet_s / t.to_quiet;
            pass_ops += ops;
            ok[i] = ok[i] && r.ok;
            if (st.passes == 0)
                first_sig[i] = r.sig;
            else
                repeats[i] = repeats[i] && r.sig == first_sig[i];
        }
        if (st.passes == 0) {
            st.sim_ops = static_cast<double>(pass_ops);
            after_first_pass();
        }
        ++st.passes;
        const double elapsed = secondsSince(start);
        if (elapsed * (st.passes + 1) / st.passes > seconds)
            break;
    }
    st.slowdown = slowdown_sum / static_cast<double>(items.size() * st.passes);
    st.to_quiet = quiet_sum / host_sum;
    // The digest is independent of the (seeded) item order.
    std::map<std::string, std::uint64_t> by_name;
    for (std::size_t i = 0; i < items.size(); ++i) {
        checks.item(ok[i] && repeats[i],
                    items[i].name + ": " +
                        (ok[i] ? "result differs from pass 1"
                               : items[i].check));
        const double q = median(quiet[i]);
        st.wall_s += q;
        st.raw_wall_s += best[i];
        st.item_ms.set(items[i].name, q * 1e3, "ms");
        if (items[i].latency)
            st.latency_ms.push_back(q * 1e3);
        by_name[items[i].name] = first_sig[i];
    }
    Digest d;
    for (const auto &[name, sig] : by_name)
        d.add(sig);
    st.digest = d.h;
    return st;
}

/** Options from the command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool expect_wrong = false;
    std::string commit = "unknown";
};

/**
 * A benchmark workload: its programs, how to make one timed pass
 * (items) and how to turn the results of pass 1 into its end-to-end
 * accuracy and cost figures. Items capture the workload by reference.
 */
struct Workload
{
    std::vector<std::string> program_names; ///< the programs it runs
    std::vector<Program> programs;          ///< those of them, set up
    LayerTimers layers;
    MetricSet counts; ///< simulated per-layer counts of pass 1
    std::vector<double> cpi_errors; ///< per program or configuration
    double detailed_ops = 0.0;
    bool counted = false; ///< pass-1 accumulators closed
    std::function<std::vector<Item>(std::mt19937_64 &)> items;
    std::function<void(Checks &, std::mt19937_64 &)> after;
};

std::string
runDir()
{
    // Unique per process, inside the working directory (the checkout):
    // concurrent runs never share a profile cache or checkpoint tree.
    char buf[96];
    std::snprintf(buf, sizeof buf, ".bench_build/run-%ld-%lld",
                  static_cast<long>(getpid()),
                  static_cast<long long>(
                      Clock::now().time_since_epoch().count()));
    return buf;
}

/** Error of an estimate against the ground truth, in percent. */
double
cpiErrorPct(double est_cpi, const analysis::IntervalProfile &truth)
{
    return 100.0 * std::abs(est_cpi - truth.trueCpi()) / truth.trueCpi();
}

void
addModeOps(MetricSet &m, const sim::ModeOps &ops)
{
    m.add("layer.sim.ops.functional_fast",
          static_cast<double>(ops.functional_fast), "count");
    m.add("layer.sim.ops.functional_warm",
          static_cast<double>(ops.functional_warm), "count");
    m.add("layer.sim.ops.detailed_warm",
          static_cast<double>(ops.detailed_warm), "count");
    m.add("layer.sim.ops.detailed_measure",
          static_cast<double>(ops.detailed_measure), "count");
}

// ---- workloads ---------------------------------------------------------

void
definePgssSuite(Workload &w, Checks &checks)
{
    w.items = [&w, &checks](std::mt19937_64 &) {
        std::vector<Item> items;
        for (const Program &p : w.programs) {
            items.push_back({p.name, true,
                             "PGSS run did not retire the ground-truth op "
                             "count",
                             [&w, &p, &checks](std::uint64_t &ops) {
                sim::SimulationEngine engine(p.built.program);
                core::PgssController controller;
                const core::PgssResult r = w.layers.time(
                    "layer.core.pgss_run_s",
                    [&] { return controller.run(engine); });
                ops = r.mode_ops.total();
                const mem::CacheHierarchy &h = engine.hierarchy();
                const std::uint64_t l1i = h.l1i().stats().misses;
                const std::uint64_t l1d = h.l1d().stats().misses;
                const std::uint64_t l2 = h.l2().stats().misses;
                const std::uint64_t mispredicts =
                    engine.branchUnit().stats().mispredicts;
                const std::uint64_t truth_ops =
                    checks.expect(p.truth.totalOps());
                const bool ok = engine.halted() &&
                                engine.totalOps() == truth_ops &&
                                r.total_ops == truth_ops;
                if (!w.counted) {
                    w.cpi_errors.push_back(cpiErrorPct(r.est_cpi, p.truth));
                    w.detailed_ops += static_cast<double>(r.detailed_ops);
                    addModeOps(w.counts, r.mode_ops);
                    w.counts.add("layer.core.samples",
                                 static_cast<double>(r.n_samples), "count");
                    w.counts.add("layer.core.phases",
                                 static_cast<double>(r.n_phases), "count");
                }
                Digest d;
                d.addDouble(r.est_cpi);
                for (std::uint64_t v :
                     {r.mode_ops.functional_fast, r.mode_ops.functional_warm,
                      r.mode_ops.detailed_warm, r.mode_ops.detailed_measure,
                      engine.cycles(), l1i, l1d, l2, mispredicts,
                      r.n_samples, r.n_phases})
                    d.add(v);
                return ItemResult{d.h, ok};
            }});
        }
        return items;
    };
}

void
defineReferenceDetailed(Workload &w, Checks &checks)
{
    w.items = [&w, &checks](std::mt19937_64 &) {
        std::vector<Item> items;
        for (const Program &p : w.programs) {
            items.push_back({p.name, true,
                             "cold reference profile differs from the "
                             "cached one",
                             [&w, &p, &checks](std::uint64_t &ops) {
                const analysis::IntervalProfile cold = w.layers.time(
                    "layer.analysis.profile_build_s", [&] {
                        return analysis::buildIntervalProfile(
                            p.built.program, {}, kProfileInterval);
                    });
                ops = cold.totalOps();
                const bool ok =
                    cold.totalOps() == checks.expect(p.truth.totalOps()) &&
                    cold.totalCycles() == p.truth.totalCycles() &&
                    cold.intervals() == p.truth.intervals();
                if (!w.counted) {
                    // The reference is exact by definition; its error
                    // figure is that of the same detailed run truncated
                    // to its first tenth.
                    const std::size_t tenth =
                        std::max<std::size_t>(1, cold.intervals() / 10);
                    w.cpi_errors.push_back(
                        cpiErrorPct(cold.windowCpi(0, tenth), p.truth));
                    w.detailed_ops += static_cast<double>(cold.totalOps());
                    sim::ModeOps mode_ops;
                    mode_ops.detailed_measure = cold.totalOps();
                    addModeOps(w.counts, mode_ops);
                }
                Digest d;
                d.add(cold.totalOps());
                d.add(cold.totalCycles());
                d.add(cold.intervals());
                for (std::size_t i = 0; i < cold.intervals(); ++i)
                    d.add(cold.intervalCycles(i));
                return ItemResult{d.h, ok};
            }});
        }
        return items;
    };
}

void
defineSimpointOffline(Workload &w, Checks &checks)
{
    // fig12's sweep at its 100k and 1M collections: eight clusterings.
    // Its 10M collection needs programs longer than this scale builds.
    w.items = [&w, &checks](std::mt19937_64 &) {
        std::vector<Item> items;
        for (const Program &p : w.programs) {
            for (const std::uint64_t interval : {100'000ull, 1'000'000ull}) {
                items.push_back({p.name + "@" + std::to_string(interval),
                                 true,
                                 "SimPoint collection or weights wrong",
                                 [&w, &p, &checks, interval](
                                     std::uint64_t &ops) {
                    std::uint64_t func_ops = 0;
                    const auto bbvs = w.layers.time(
                        "layer.sampling.collect_bbvs_s", [&] {
                            return sampling::collectIntervalBbvs(
                                p.built.program, {}, interval, func_ops);
                        });
                    ops = func_ops;
                    std::vector<std::uint32_t> ks = {5, 10, 20};
                    if (interval == 1'000'000)
                        ks.push_back(30);
                    if (interval == 100'000)
                        ks.push_back(300);
                    bool ok = func_ops == checks.expect(p.truth.totalOps());
                    Digest d;
                    d.add(bbvs.size());
                    for (const std::uint32_t k : ks) {
                        sampling::SimPointConfig cfg;
                        cfg.interval_ops = interval;
                        cfg.clusters = k;
                        const sampling::SimPointRun run = w.layers.time(
                            "layer.cluster.simpoint_s", [&] {
                                return sampling::runSimPointOnBbvs(
                                    bbvs, cfg, p.truth, func_ops);
                            });
                        double weight_sum = 0.0;
                        for (const double wt : run.selection.weights)
                            weight_sum += wt;
                        ok = ok && std::abs(weight_sum - 1.0) < 1e-9;
                        if (!w.counted) {
                            w.cpi_errors.push_back(
                                cpiErrorPct(run.result.est_cpi, p.truth));
                            w.detailed_ops +=
                                static_cast<double>(run.result.detailed_ops);
                        }
                        d.addDouble(run.result.est_cpi);
                        d.add(run.result.detailed_ops);
                        for (const std::uint32_t rep :
                             run.selection.rep_intervals)
                            d.add(rep);
                    }
                    if (!w.counted) {
                        sim::ModeOps mode_ops;
                        mode_ops.functional_fast = func_ops;
                        addModeOps(w.counts, mode_ops);
                    }
                    return ItemResult{d.h, ok};
                }});
            }
        }
        return items;
    };
}

/** Window start positions of one program: a fixed systematic grid. */
std::vector<std::uint64_t>
windowGrid(const Program &p)
{
    const std::uint64_t span = p.truth.totalOps() - kWindowOps;
    std::vector<std::uint64_t> pos;
    for (std::uint64_t i = 0; i < kWindowsPerProgram; ++i)
        pos.push_back(span * (2 * i + 1) / (2 * kWindowsPerProgram));
    return pos;
}

/** CPI of the window at @p pos reached by plain functional warming. */
double
windowCpiByFastForward(const Program &p, std::uint64_t pos)
{
    sim::SimulationEngine engine(p.built.program);
    engine.run(pos, sim::SimMode::FunctionalWarm);
    engine.run(kWindowOps - 1'000, sim::SimMode::DetailedWarm);
    const sim::RunResult r =
        engine.run(1'000, sim::SimMode::DetailedMeasure);
    return r.ops ? static_cast<double>(r.cycles) /
                       static_cast<double>(r.ops)
                 : 0.0;
}

void
defineCheckpointSeek(Workload &w, Checks &checks, const std::string &dir)
{
    w.program_names = kSeekPrograms;
    // Libraries and per-window CPIs of pass 1, indexed like programs.
    auto libs = std::make_shared<std::vector<sim::CheckpointLibrary>>();
    auto cpis = std::make_shared<std::vector<std::vector<double>>>();

    w.items = [&w, &checks, dir, libs, cpis](std::mt19937_64 &rng) {
        libs->clear();
        cpis->assign(w.programs.size(),
                     std::vector<double>(kWindowsPerProgram, 0.0));
        for (std::size_t i = 0; i < w.programs.size(); ++i)
            libs->emplace_back(dir + "/ckpt-" + std::to_string(i));

        std::vector<Item> items;
        for (std::size_t i = 0; i < w.programs.size(); ++i) {
            const Program &p = w.programs[i];
            items.push_back({p.name + ":record", false,
                             "wrong checkpoint count",
                             [&w, &p, &checks, libs, i, dir](
                                 std::uint64_t &ops) {
                sim::CheckpointLibrary &lib = (*libs)[i];
                const std::size_t n = w.layers.time(
                    "layer.sim.ckpt_record_s", [&] {
                        return lib.record(p.built.program, {}, kCkptStride);
                    });
                ops = p.truth.totalOps();
                const std::uint64_t total = p.truth.totalOps();
                const bool ok = n == checks.expect((total + kCkptStride - 1) /
                                                   kCkptStride) &&
                                lib.positions().size() == n;
                if (!w.counted) {
                    std::uint64_t bytes = 0;
                    for (const auto &e : std::filesystem::directory_iterator(
                             dir + "/ckpt-" + std::to_string(i)))
                        bytes += e.is_regular_file() ? e.file_size() : 0;
                    w.counts.add("layer.sim.ckpt_bytes",
                                 static_cast<double>(bytes), "B");
                    sim::ModeOps mode_ops;
                    mode_ops.functional_warm = total;
                    addModeOps(w.counts, mode_ops);
                }
                Digest d;
                d.add(n);
                return ItemResult{d.h, ok};
            }});
        }
        // Windows in a seeded random order, as a TurboSMARTS-style
        // random-order sampler would request them.
        std::vector<Item> windows;
        for (std::size_t i = 0; i < w.programs.size(); ++i) {
            const Program &p = w.programs[i];
            const std::vector<std::uint64_t> grid = windowGrid(p);
            for (std::size_t j = 0; j < grid.size(); ++j) {
                const std::uint64_t pos = grid[j];
                windows.push_back({p.name + ":" + std::to_string(pos), true,
                                   "window did not measure one CPI from "
                                   "the expected detailed ops",
                                   [&w, &p, &checks, libs, cpis, i, j,
                                    pos](std::uint64_t &ops) {
                    const sampling::CheckpointedMeasurement m =
                        sampling::measureWindowsViaLibrary(
                            p.built.program, {}, (*libs)[i], {pos});
                    ops = m.warmed_ops + m.detailed_ops;
                    const bool ok = m.cpis.size() == 1 && m.cpis[0] > 0.0 &&
                                    m.detailed_ops ==
                                        checks.expect(kWindowOps);
                    if (!w.counted) {
                        (*cpis)[i][j] = ok ? m.cpis[0] : 0.0;
                        w.detailed_ops += static_cast<double>(m.detailed_ops);
                        w.counts.add("layer.sim.ckpt_restores",
                                     static_cast<double>(m.restores),
                                     "count");
                        w.counts.add("layer.sim.ckpt_warmed_ops",
                                     static_cast<double>(m.warmed_ops),
                                     "count");
                        sim::ModeOps mode_ops;
                        mode_ops.functional_warm = m.warmed_ops;
                        mode_ops.detailed_warm = kWindowOps - 1'000;
                        mode_ops.detailed_measure = 1'000;
                        addModeOps(w.counts, mode_ops);
                    }
                    Digest d;
                    d.addDouble(ok ? m.cpis[0] : 0.0);
                    d.add(m.warmed_ops);
                    d.add(m.restores);
                    d.add(m.detailed_ops);
                    return ItemResult{d.h, ok};
                }});
            }
        }
        std::shuffle(windows.begin(), windows.end(), rng);
        items.insert(items.end(), windows.begin(), windows.end());
        return items;
    };

    w.after = [&w, cpis](Checks &checks, std::mt19937_64 &rng) {
        // Accuracy of the systematic sample, and bit-equality of a
        // seeded subset of windows with plain fast-forward.
        for (std::size_t i = 0; i < w.programs.size(); ++i) {
            const Program &p = w.programs[i];
            const std::vector<double> &c = (*cpis)[i];
            double sum = 0.0;
            for (const double x : c)
                sum += x;
            w.cpi_errors.push_back(
                cpiErrorPct(sum / static_cast<double>(c.size()), p.truth));
            const std::vector<std::uint64_t> grid = windowGrid(p);
            std::uniform_int_distribution<std::size_t> pick(0,
                                                            grid.size() - 1);
            for (std::uint64_t k = 0; k < kVerifiedWindowsPerProgram; ++k) {
                const std::size_t j = pick(rng);
                const double ff = windowCpiByFastForward(
                    p, grid[j] + checks.offset);
                checks.item(doubleBits(ff) == doubleBits(c[j]),
                            p.name + ": checkpoint-seeked window at " +
                                std::to_string(grid[j]) +
                                " differs from plain fast-forward");
            }
        }
    };
}

// ---- traced-only measurements -----------------------------------------

/** Per-name span self time, summed over every thread buffer. */
std::map<std::string, double>
spanSelfSeconds(const obs::SpanProfiler &prof)
{
    std::map<std::string, double> out;
    for (const obs::SpanBuffer *b : prof.buffers())
        for (const obs::SpanRecord &r : b->records())
            out[r.name] += static_cast<double>(r.self_ns) * 1e-9;
    return out;
}

/** Recorded DynInst stream of one program (mid-run slice). */
std::vector<cpu::DynInst>
recordStream(const Program &p)
{
    sim::SimulationEngine engine(p.built.program);
    engine.run(kLadderSkip, sim::SimMode::FunctionalFast);
    std::vector<cpu::DynInst> stream;
    stream.reserve(kLadderOps);
    cpu::DynInst rec;
    while (stream.size() < kLadderOps && engine.core().step(rec))
        stream.push_back(rec);
    return stream;
}

/** Median over kLadderReps calls of @p body(), which returns the host
 *  seconds of the part it times, in quiet-core seconds. */
double
medianOfReps(const std::function<double()> &body)
{
    std::vector<double> reps;
    for (int r = 0; r < kLadderReps; ++r) {
        double secs = 0.0;
        const Timed t = timeQuiet([&] { secs = body(); });
        reps.push_back(secs * t.to_quiet);
    }
    return median(reps);
}

/**
 * The layer-replay ladder: one fixed DynInst stream per program, fed
 * through each layer's public entry point on fresh structures. Times
 * are per op of the whole stream, so the warm-mode layers add up to
 * the per-op cost of FunctionalWarm.
 */
void
runLadder(const std::vector<Program> &programs, MetricSet &out)
{
    const sim::EngineConfig cfg;
    const std::uint32_t line_bytes = cfg.hierarchy.l1i.line_bytes;
    const std::uint32_t bytes_per_inst = cfg.pipeline.bytes_per_inst;
    std::map<std::string, double> secs;
    double ops = 0.0;
    std::map<std::string, double> rate_ops, rate_secs;

    for (const Program &p : programs) {
        const std::vector<cpu::DynInst> stream = recordStream(p);
        ops += static_cast<double>(stream.size());

        secs["layer.cpu.step_ns_per_op"] += medianOfReps([&] {
            sim::SimulationEngine engine(p.built.program);
            engine.run(kLadderSkip, sim::SimMode::FunctionalFast);
            cpu::DynInst rec;
            const Clock::time_point t0 = Clock::now();
            for (std::size_t i = 0; i < stream.size(); ++i)
                engine.core().step(rec);
            return secondsSince(t0);
        });
        secs["layer.bbv.hashed_ns_per_op"] += medianOfReps([&] {
            bbv::HashedBbv hashed(cfg.hashed_bbv);
            std::uint64_t since = 0;
            const Clock::time_point t0 = Clock::now();
            for (const cpu::DynInst &rec : stream) {
                ++since;
                if (rec.taken) {
                    hashed.onTakenBranch(isa::instAddr(rec.pc), since);
                    since = 0;
                }
            }
            const double dt = secondsSince(t0);
            g_sink = g_sink + hashed.raw()[0];
            return dt;
        });
        secs["layer.bbv.full_ns_per_op"] += medianOfReps([&] {
            bbv::FullBbvCollector full;
            std::uint64_t since = 0;
            const Clock::time_point t0 = Clock::now();
            for (const cpu::DynInst &rec : stream) {
                ++since;
                if (rec.taken) {
                    full.onTakenBranch(isa::instAddr(rec.pc), since);
                    since = 0;
                }
            }
            const double dt = secondsSince(t0);
            g_sink = g_sink + full.harvest().size();
            return dt;
        });
        secs["layer.mem.warm_inst_ns_per_op"] += medianOfReps([&] {
            mem::CacheHierarchy h(cfg.hierarchy);
            std::uint64_t last_line = ~0ull;
            const Clock::time_point t0 = Clock::now();
            for (const cpu::DynInst &rec : stream) {
                const std::uint64_t line =
                    rec.pc * bytes_per_inst / line_bytes;
                if (line != last_line) {
                    last_line = line;
                    h.warmInst(rec.pc * bytes_per_inst);
                }
            }
            return secondsSince(t0);
        });
        secs["layer.mem.warm_data_ns_per_op"] += medianOfReps([&] {
            mem::CacheHierarchy h(cfg.hierarchy);
            const Clock::time_point t0 = Clock::now();
            for (const cpu::DynInst &rec : stream)
                if (rec.is_load || rec.is_store)
                    h.warmData(rec.mem_addr, rec.is_store);
            return secondsSince(t0);
        });
        secs["layer.branch.train_ns_per_op"] += medianOfReps([&] {
            timing::BranchUnit bu(cfg.branch);
            const Clock::time_point t0 = Clock::now();
            for (const cpu::DynInst &rec : stream)
                if (rec.is_branch || rec.is_jump)
                    bu.predictAndTrain(rec);
            return secondsSince(t0);
        });
        bool counted = false;
        secs["layer.timing.consume_ns_per_op"] += medianOfReps([&] {
            mem::CacheHierarchy h(cfg.hierarchy);
            timing::BranchUnit bu(cfg.branch);
            timing::InOrderPipeline pipe(cfg.pipeline, h, bu);
            const Clock::time_point t0 = Clock::now();
            for (const cpu::DynInst &rec : stream)
                pipe.consume(rec);
            const double dt = secondsSince(t0);
            if (!counted) {
                // Simulated counts of the replayed stream: identical
                // under any speed-only change.
                counted = true;
                out.add("layer.timing.cycles",
                        static_cast<double>(pipe.cycles()), "count");
                out.add("layer.mem.l1i.misses",
                        static_cast<double>(h.l1i().stats().misses),
                        "count");
                out.add("layer.mem.l1d.misses",
                        static_cast<double>(h.l1d().stats().misses),
                        "count");
                out.add("layer.mem.l2.misses",
                        static_cast<double>(h.l2().stats().misses),
                        "count");
                out.add("layer.branch.mispredicts",
                        static_cast<double>(bu.stats().mispredicts),
                        "count");
            }
            return dt;
        });

        // Whole-engine rates, each mode configured as its real caller
        // runs it: SimPoint collection (full BBV), PGSS fast-forward
        // (hashed BBV), profile building (hashed BBV).
        const struct
        {
            const char *name;
            sim::SimMode mode;
            bool hashed;
        } rates[] = {
            {"layer.sim.functional_fast_mips", sim::SimMode::FunctionalFast,
             false},
            {"layer.sim.functional_warm_mips", sim::SimMode::FunctionalWarm,
             true},
            {"layer.sim.detailed_mips", sim::SimMode::DetailedMeasure, true},
        };
        for (const auto &rate : rates) {
            std::uint64_t done = 0;
            rate_secs[rate.name] += medianOfReps([&] {
                sim::SimulationEngine engine(p.built.program);
                engine.setHashedBbvEnabled(rate.hashed);
                engine.setFullBbvEnabled(!rate.hashed);
                const Clock::time_point t0 = Clock::now();
                done = engine.run(kRateOps, rate.mode).ops;
                return secondsSince(t0);
            });
            rate_ops[rate.name] += static_cast<double>(done);
        }
    }
    for (const auto &[name, s] : secs)
        out.set(name, s * 1e9 / ops, "ns/op");
    for (const auto &[name, s] : rate_secs)
        out.set(name, rate_ops[name] / s / 1e6, "Mops/s");
}

/** Seek-only timing, in quiet-core seconds: CheckpointLibrary::seekTo
 *  on fresh engines. */
double
seekSeconds(const std::vector<Program> &programs, const std::string &dir)
{
    double total = 0.0;
    const Timed t = timeQuiet([&] {
        for (std::size_t i = 0; i < programs.size(); ++i) {
            const Program &p = programs[i];
            sim::CheckpointLibrary lib(dir + "/ckpt-" + std::to_string(i));
            if (!lib.open(p.built.program, {}))
                continue;
            for (const std::uint64_t pos : windowGrid(p)) {
                sim::SimulationEngine engine(p.built.program);
                const Clock::time_point t0 = Clock::now();
                lib.seekTo(engine, pos);
                total += secondsSince(t0);
            }
        }
    });
    return total * t.to_quiet;
}

// ---- main ---------------------------------------------------------------

/**
 * Reset the process's peak resident set (Linux clear_refs "5"), so the
 * next peakRssMb() covers only what runs after it. @return false when
 * the kernel does not support it.
 */
bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

/** Peak resident set in MiB (VmHWM, else the rusage maximum). */
double
peakRssMb()
{
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long kb = 0;
        bool found = false;
        while (!found && std::fgets(line, sizeof line, f))
            found = std::sscanf(line, "VmHWM: %lu kB", &kb) == 1;
        std::fclose(f);
        if (found)
            return static_cast<double>(kb) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Every PGSS_* variable is cleared: runs measure the default program. */
void
clearPgssEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "PGSS_", 5) == 0)
            names.emplace_back(*e, std::strchr(*e, '=') - *e);
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "pgss_perfbench: %s\nusage: pgss_perfbench --workload "
                 "pgss_suite|reference_detailed|simpoint_offline|"
                 "checkpoint_seek --seed N --seconds S --trace 0|1 "
                 "[--commit ID] [--expect-wrong]\n",
                 why);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--expect-wrong") {
            o.expect_wrong = true;
        } else if (!has_value) {
            return false;
        } else if (a == "--workload") {
            o.workload = argv[++i];
        } else if (a == "--seed") {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace") {
            o.trace = std::string(argv[++i]) == "1";
        } else if (a == "--commit") {
            o.commit = argv[++i];
        } else {
            return false;
        }
    }
    return !o.workload.empty() && o.seconds > 0.0;
}

/**
 * Fill the profile cache with cold ground-truth builds, on up to 4
 * threads, in a child process: the parent's memory (and so its
 * peak_rss_mb) never sees the builds. @return false when the child
 * failed.
 */
bool
fillProfileCache(const std::vector<std::string> &names,
                 const std::string &cache_dir)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        return false;
    if (pid == 0) {
        analysis::ProfileCache cache(cache_dir);
        util::parallelFor(
            names.size(),
            std::min<std::size_t>(4, std::thread::hardware_concurrency()),
            [&](std::size_t i) {
                const workload::BuiltWorkload b =
                    workload::buildWorkload(names[i], kScale);
                cache.loadOrBuild(b.program, {}, kProfileInterval);
            });
        std::fflush(nullptr);
        std::_Exit(0);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            return false;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/**
 * Time repeated set-ups of @p names from the warm cache, each in
 * quiet-core seconds. @return the programs of the last set-up.
 */
std::vector<Program>
setUp(const std::vector<std::string> &names, const std::string &cache_dir,
      MetricSet &layer)
{
    analysis::ProfileCache cache(cache_dir);
    std::vector<Program> programs;
    std::vector<double> total, build, load;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        programs.clear();
        double b = 0.0, l = 0.0;
        const Timed t = timeQuiet([&] {
            for (const std::string &name : names) {
                Program p;
                p.name = name;
                Clock::time_point t0 = Clock::now();
                p.built = workload::buildWorkload(name, kScale);
                b += secondsSince(t0);
                t0 = Clock::now();
                p.truth = cache.loadOrBuild(p.built.program, {},
                                            kProfileInterval);
                l += secondsSince(t0);
                programs.push_back(std::move(p));
            }
        });
        build.push_back(b * t.to_quiet);
        load.push_back(l * t.to_quiet);
        total.push_back(t.quiet_s);
    }
    layer.set("layer.workload.build_s", median(build), "s");
    layer.set("layer.analysis.profile_load_s", median(load), "s");
    layer.set("setup_s", median(total), "s");
    return programs;
}

/** The per-layer metric names every traced run reports. */
const std::vector<std::pair<std::string, std::string>> &
layerSchema()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"layer.workload.build_s", "s"},
        {"layer.analysis.profile_load_s", "s"},
        {"layer.analysis.profile_build_s", "s"},
        {"layer.core.pgss_run_s", "s"},
        {"layer.sampling.collect_bbvs_s", "s"},
        {"layer.cluster.simpoint_s", "s"},
        {"layer.sim.ckpt_record_s", "s"},
        {"layer.sim.ckpt_bytes", "B"},
        {"layer.sim.ckpt_seek_s", "s"},
        {"layer.sim.seek_p50_ms", "ms"},
        {"layer.sim.seek_p90_ms", "ms"},
        {"layer.sim.ckpt_restores", "count"},
        {"layer.sim.ckpt_warmed_ops", "count"},
        {"layer.sim.ops.functional_fast", "count"},
        {"layer.sim.ops.functional_warm", "count"},
        {"layer.sim.ops.detailed_warm", "count"},
        {"layer.sim.ops.detailed_measure", "count"},
        {"layer.core.samples", "count"},
        {"layer.core.phases", "count"},
        {"layer.mem.l1i.misses", "count"},
        {"layer.mem.l1d.misses", "count"},
        {"layer.mem.l2.misses", "count"},
        {"layer.branch.mispredicts", "count"},
        {"layer.timing.cycles", "count"},
        {"layer.cpu.step_ns_per_op", "ns/op"},
        {"layer.bbv.hashed_ns_per_op", "ns/op"},
        {"layer.bbv.full_ns_per_op", "ns/op"},
        {"layer.mem.warm_inst_ns_per_op", "ns/op"},
        {"layer.mem.warm_data_ns_per_op", "ns/op"},
        {"layer.branch.train_ns_per_op", "ns/op"},
        {"layer.timing.consume_ns_per_op", "ns/op"},
        {"layer.sim.functional_fast_mips", "Mops/s"},
        {"layer.sim.functional_warm_mips", "Mops/s"},
        {"layer.sim.detailed_mips", "Mops/s"},
        {"layer.span.engine.functional_fast_s", "s"},
        {"layer.span.engine.functional_warm_s", "s"},
        {"layer.span.engine.detailed_warm_s", "s"},
        {"layer.span.engine.detailed_measure_s", "s"},
        {"layer.span.checkpoint.restore_s", "s"},
        {"layer.span.checkpoint.load_file_s", "s"},
        {"layer.span.checkpoint.apply_delta_s", "s"},
        {"layer.span.cluster.kmeans_s", "s"},
        {"layer.obs.traced_wall_s", "s"},
        {"layer.obs.trace_overhead_s", "s"},
        {"layer.host.slowdown", "x"},
        {"layer.host.raw_wall_s", "s"},
    };
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    clearPgssEnvironment();
    util::setLogLevel(util::LogLevel::Quiet);

    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage("bad arguments");
#ifndef NDEBUG
    return usage("refusing to measure a build without NDEBUG (Debug)");
#endif
    if (sanitizedBuild())
        return usage("refusing to measure a sanitizer build");

    Checks checks;
    checks.offset = opt.expect_wrong ? 1 : 0;
    Workload w;
    w.program_names = workload::suiteNames();
    const std::string dir = runDir();
    if (opt.workload == "pgss_suite")
        definePgssSuite(w, checks);
    else if (opt.workload == "reference_detailed")
        defineReferenceDetailed(w, checks);
    else if (opt.workload == "simpoint_offline")
        defineSimpointOffline(w, checks);
    else if (opt.workload == "checkpoint_seek")
        defineCheckpointSeek(w, checks, dir);
    else
        return usage("unknown workload");
    // Every workload sets up the ten suite programs, so setup_s is
    // comparable across workloads, and runs those of them it names.
    const std::vector<std::string> suite = workload::suiteNames();

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return usage("cannot create the run directory");

    if (!fillProfileCache(suite, dir + "/profiles")) {
        std::filesystem::remove_all(dir, ec);
        return usage("filling the profile cache failed");
    }
    MetricSet setup;
    for (Program &p : setUp(suite, dir + "/profiles", setup))
        if (std::find(w.program_names.begin(), w.program_names.end(),
                      p.name) != w.program_names.end())
            w.programs.push_back(std::move(p));

    std::mt19937_64 rng(opt.seed);
    const std::vector<Item> items = w.items(rng);
    // Host memory of the first pass. Later passes only add allocator
    // fragmentation, and their number depends on host speed.
    resetPeakRss();
    double peak_rss_mb = 0.0;
    const double untraced_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    const PassStats st =
        runPasses(items, untraced_seconds, checks, w.layers,
                  [&w, &peak_rss_mb] {
            w.counted = true;
            peak_rss_mb = peakRssMb();
        });

    // Per-layer values: set-up, host time per pass around public calls
    // (from the traced section when tracing), simulated counts.
    MetricSet layer = setup;
    layer.set("layer.host.slowdown", st.slowdown, "x");
    layer.set("layer.host.raw_wall_s", st.raw_wall_s, "s");
    int layer_passes = st.passes;
    std::string traced_digest;
    if (opt.trace) {
        w.layers = {};
        obs::SpanProfilerConfig pc;
        pc.ring_capacity = 1u << 18;
        obs::setSpanProfiler(std::make_unique<obs::SpanProfiler>(pc));
        const PassStats traced =
            runPasses(items, opt.seconds - untraced_seconds, checks,
                      w.layers, [] {});
        const std::map<std::string, double> spans =
            spanSelfSeconds(*obs::spanProfiler());
        obs::setSpanProfiler(nullptr);
        checks.item(traced.digest == st.digest,
                    "traced run digest differs from the untraced run");
        char hex[40];
        std::snprintf(hex, sizeof hex, ", \"traced_digest\": \"%016llx\"",
                      static_cast<unsigned long long>(traced.digest));
        traced_digest = hex;
        layer_passes = traced.passes;
        for (const auto &[name, s] : spans)
            layer.set("layer.span." + name + "_s",
                      s * traced.to_quiet / traced.passes, "s");
        layer.set("layer.obs.traced_wall_s", traced.wall_s, "s");
        layer.set("layer.obs.trace_overhead_s", traced.wall_s - st.wall_s,
                  "s");
        if (opt.workload == "checkpoint_seek")
            layer.set("layer.sim.ckpt_seek_s", seekSeconds(w.programs, dir),
                      "s");
        runLadder(w.programs, layer);
    }
    for (const auto &[name, s] : w.layers.seconds)
        layer.set(name, s / layer_passes, "s");
    if (opt.workload == "checkpoint_seek") {
        layer.set("layer.sim.seek_p50_ms", quantile(st.latency_ms, 0.5),
                  "ms");
        layer.set("layer.sim.seek_p90_ms", quantile(st.latency_ms, 0.9),
                  "ms");
    }
    for (const auto &[name, vu] : w.counts.values)
        layer.set(name, vu.first, vu.second);

    if (w.after)
        w.after(checks, rng);

    double err = 0.0;
    for (const double e : w.cpi_errors)
        err += e;
    if (!w.cpi_errors.empty())
        err /= static_cast<double>(w.cpi_errors.size());

    MetricSet e2e;
    e2e.set("quiet_wall_s", st.wall_s, "s");
    e2e.set("sim_mips", st.sim_ops / st.wall_s / 1e6, "Mops/s");
    e2e.set("setup_s", setup.values["setup_s"].first, "s");
    e2e.set("peak_rss_mb", peak_rss_mb, "MiB");
    e2e.set("cpi_error_pct", err, "%");
    e2e.set("detailed_ops", w.detailed_ops, "count");
    e2e.set("ok_frac",
            checks.attempted
                ? 1.0 - static_cast<double>(checks.failed) /
                            static_cast<double>(checks.attempted)
                : 0.0,
            "frac");

    MetricSet reported;
    if (opt.trace) {
        for (const auto &[name, unit] : layerSchema()) {
            const auto it = layer.values.find(name);
            reported.set(name,
                         it == layer.values.end() ? 0.0 : it->second.first,
                         unit);
        }
    } else {
        reported = e2e;
    }

    std::filesystem::remove_all(dir, ec);

    std::printf("# perfbench env {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"scale\": %g, "
                "\"nproc\": %u, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"commit\": \"%s\", "
                "\"passes\": %d, \"items\": %zu, \"slowdown\": %.4f, "
                "\"raw_wall_s\": %.6f}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, kScale,
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                __VERSION__, opt.commit.c_str(), st.passes,
                st.item_ms.values.size(), st.slowdown, st.raw_wall_s);
    std::printf("# perfbench digest {\"workload\": \"%s\", "
                "\"digest\": \"%016llx\"%s, \"counts\": %s}\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(st.digest),
                traced_digest.c_str(), jsonMetrics(w.counts).c_str());
    std::printf("# perfbench items %s\n", jsonMetrics(st.item_ms).c_str());
    std::printf("# perfbench layers %s\n", jsonMetrics(layer).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                jsonMetrics(reported).c_str());
    return 0;
}
